//! Seeded chaos stress suite — compiled only under `RUSTFLAGS='--cfg
//! pf_chaos'`. With injection armed, every session either completes
//! cleanly or comes back as `Err` from `try_run`; it never hangs, and the
//! pool keeps serving across hundreds of injected faults.
//!
//! One test function on purpose: the chaos config is process-global, so
//! parallel test threads would perturb each other's injection rates.

#![cfg(pf_chaos)]

use pf_rt::chaos::{injected_panics, injected_wedges, install, ChaosConfig};
use pf_rt::{cell, Runtime, Session, SessionError, Worker};

/// Queue `f` as a task of its own: `spawn2` pushes its first closure and
/// runs its second (here empty) inline. Each stage below is then a task
/// boundary for the panic and wedge seams, and a steal for the denial
/// seam; a plain `spawn` would run the flat fan-outs inline in the root
/// task and meet none of them.
fn push(wk: &Worker, f: impl FnOnce(&Worker) + Send + 'static) {
    wk.spawn2(f, |_| {});
}

/// A pipelined computation with real suspensions: a chain of cells where
/// each stage touches the previous cell and fulfills the next, with every
/// stage its own task. Stages race with the fulfil wave, so the injected
/// panics, delays, and steal denials land on suspends, fulfills, wakeups,
/// and steals — not just task boundaries.
fn chained_sum(rt: &Runtime, depth: u64) -> Result<u64, SessionError> {
    chained_sum_in(rt, depth, Session::new())
}

/// One stage of [`chained_sum`], queued as a task of its own.
type Stage = Box<dyn FnOnce(&Worker) + Send>;

/// [`chained_sum`] in a session of options `sess`.
fn chained_sum_in(rt: &Runtime, depth: u64, sess: Session) -> Result<u64, SessionError> {
    let (w0, mut prev) = cell::<u64>();
    let mut stages: Vec<Stage> = Vec::new();
    for _ in 0..depth {
        let (w, r) = cell::<u64>();
        let src = prev.clone();
        stages.push(Box::new(move |wk: &Worker| {
            src.touch(wk, move |v, wk| w.fulfill(wk, v + 1));
        }));
        prev = r;
    }
    let last = prev.clone();
    rt.try_run_session(sess, move |wk| {
        for st in stages {
            push(wk, st);
        }
        w0.fulfill(wk, 0);
    })?;
    // Ok means quiescence: every stage ran, so the last cell is written.
    Ok(last.expect())
}

#[test]
fn seeded_chaos_sessions_fail_contained_or_complete() {
    let rt = Runtime::new(4);
    let mut failed = 0usize;
    let mut completed = 0usize;

    for seed in 0..120u64 {
        install(Some(ChaosConfig {
            seed: 0xC0FFEE ^ seed,
            panic_per_10k: 150,
            delay_per_10k: 400,
            delay_spins: 200,
            steal_fail_per_10k: 2000,
            wedge_per_10k: 0,
            wedge_hold_ms: 0,
        }));
        let before = injected_panics();
        let res = chained_sum(&rt, 24);
        let injected = injected_panics() > before;
        match res {
            Ok(v) => {
                assert_eq!(v, 24);
                assert!(!injected, "seed {seed}: injected a panic yet completed");
                completed += 1;
            }
            Err(e) => {
                // Every failure must trace back to an injected fault.
                assert!(injected, "seed {seed}: failed without an injection: {e}");
                assert!(
                    e.panic_message().is_some_and(|m| m.contains("pf-chaos")),
                    "seed {seed}: unexpected error {e}"
                );
                failed += 1;
            }
        }
    }

    // The chosen rates must actually exercise both outcomes.
    assert!(failed > 0, "chaos rates never fired");
    assert!(completed > 0, "chaos rates never let a session finish");

    // Phase 2: the steal path under heavy denial. The fan-out below
    // piles over a hundred tasks onto the root's deque while a third of
    // the steal attempts against it are vetoed, so a task lost or
    // duplicated across a denial shows up as a hang (caught by try_run
    // never returning — the suite would time out) or a wrong chain sum.
    let mut failed = 0usize;
    let mut completed = 0usize;
    for seed in 0..120u64 {
        install(Some(ChaosConfig {
            seed: 0xBA7C4 ^ seed.rotate_left(17),
            // Low panic rate: the fan-out below visits ~200 injection
            // points per seed, so ~0.3% per point still fails roughly
            // half the seeds while letting the other half finish.
            panic_per_10k: 30,
            delay_per_10k: 300,
            delay_spins: 200,
            // Deny roughly a third of steal attempts: thieves are
            // constantly turned away mid-drain and retry elsewhere.
            steal_fail_per_10k: 3300,
            wedge_per_10k: 0,
            wedge_hold_ms: 0,
        }));
        let before = injected_panics();
        let res = rt.try_run(|wk| {
            for _ in 0..128 {
                push(wk, |_| std::hint::black_box(()));
            }
        });
        let res = res.and_then(|_| chained_sum(&rt, 24));
        let injected = injected_panics() > before;
        match res {
            Ok(v) => {
                assert_eq!(v, 24, "seed {seed}: denied-steal chain sum");
                completed += 1;
            }
            Err(e) => {
                assert!(
                    injected,
                    "seed {seed}: denied-steal phase failed w/o injection: {e}"
                );
                assert!(
                    e.panic_message().is_some_and(|m| m.contains("pf-chaos")),
                    "seed {seed}: unexpected denied-steal error {e}"
                );
                failed += 1;
            }
        }
    }
    assert!(failed > 0, "denied-steal chaos rates never fired");
    assert!(completed > 0, "denied-steal sessions never finished");

    // Phase 3 (PR 9): concurrent sessions under chaos. Panic injection
    // off, delay + steal-denial injection on — the noise perturbs every
    // schedule while a deterministic panic pill aborts one session per
    // round. The pill's sibling shares the pool mid-abort and must
    // return `Ok` with the right value every time: fault containment
    // holds under scheduling chaos, not just on quiet schedules.
    let mut pill_failed = 0usize;
    for seed in 0..60u64 {
        install(Some(ChaosConfig {
            seed: 0x5E5510 ^ seed.rotate_left(9),
            panic_per_10k: 0,
            delay_per_10k: 500,
            delay_spins: 200,
            steal_fail_per_10k: 2500,
            wedge_per_10k: 0,
            wedge_hold_ms: 0,
        }));
        std::thread::scope(|s| {
            let rt = &rt;
            let pill = s.spawn(move || {
                rt.try_run(|wk| {
                    for _ in 0..32 {
                        push(wk, |_| std::hint::black_box(()));
                    }
                    push(wk, |_| panic!("session pill"));
                })
            });
            let v = chained_sum(rt, 24)
                .expect("sibling of a panic-pill session must complete under chaos");
            assert_eq!(v, 24, "seed {seed}: sibling result corrupted");
            let err = pill
                .join()
                .unwrap()
                .expect_err("the pill session must abort");
            assert_eq!(
                err.panic_message(),
                Some("session pill"),
                "seed {seed}: wrong abort reason"
            );
            pill_failed += 1;
        });
    }
    assert_eq!(pill_failed, 60, "every pill session must have aborted");

    // Phase 4 (PR 10): seeded mid-task wedges against the stall
    // detector. A wedge parks a worker inside a task body (no panic, no
    // event — a frozen epoch that only an explicit budget declares). Two
    // concurrent budgeted sessions per seed: each must come back — `Ok`
    // when its wedge released in time (the hold is bounded), `Stalled`
    // otherwise, never a hang — and every stall must trace back to an
    // injected wedge and be declared within 2× the configured budget.
    let budget = std::time::Duration::from_millis(250);
    let run_budgeted = |depth| chained_sum_in(&rt, depth, Session::new().stall_budget(budget));
    let mut stalled = 0usize;
    let mut wedged_ok = 0usize;
    for seed in 0..25u64 {
        install(Some(ChaosConfig {
            seed: 0x3DBED ^ seed.rotate_left(23),
            panic_per_10k: 0,
            delay_per_10k: 200,
            delay_spins: 100,
            steal_fail_per_10k: 1500,
            wedge_per_10k: 250,
            // Far past the budget: detection must beat the hold, not
            // wait it out — but a missed detection still terminates.
            wedge_hold_ms: 3_000,
        }));
        let before = injected_wedges();
        let results = std::thread::scope(|s| {
            let a = s.spawn(|| run_budgeted(24));
            let b = run_budgeted(24);
            [a.join().unwrap(), b]
        });
        let injected = injected_wedges() > before;
        for res in results {
            match res {
                Ok(v) => {
                    assert_eq!(v, 24, "seed {seed}: wedge-phase chain sum");
                    if injected {
                        wedged_ok += 1;
                    }
                }
                Err(SessionError::Stalled { report, .. }) => {
                    assert!(injected, "seed {seed}: stalled without a wedge injection");
                    assert!(
                        report.frozen_for < 2 * budget,
                        "seed {seed}: detection took {:?} against a {budget:?} budget",
                        report.frozen_for
                    );
                    stalled += 1;
                }
                Err(e) => panic!("seed {seed}: unexpected error under wedge chaos: {e}"),
            }
        }
    }
    assert!(stalled > 0, "wedge chaos never produced a detected stall");
    // Non-assertion telemetry: sessions whose wedge landed harmlessly.
    let _ = wedged_ok;

    // Disarm and prove the pool is clean: 50 quiet runs, zero failures.
    install(None);
    for i in 0..50u64 {
        let v = chained_sum(&rt, 8).expect("clean run after chaos disarm");
        assert_eq!(v, 8, "iteration {i}");
    }
}
