//! Fault-containment integration tests: recovered aborts leave the pool
//! reusable, leak no suspended continuations (drop-counted), poison the
//! dead session's cells with originating context, and the deadline /
//! cancel / watchdog paths all surface as `Err` instead of a hang.
//!
//! These run on the real clock and real threads; the schedule-exhaustive
//! versions of the abort protocol live in `pf-check`'s model tests.

#![cfg(not(pf_check))]

use std::sync::Arc;
use std::time::Duration;

use pf_rt::{cell, CancelToken, Runtime, Session, SessionError};

#[test]
fn recovered_abort_drops_suspended_continuations() {
    let rt = Runtime::new(3);
    // Drop-counting probe: the only clone lives inside the suspended
    // continuation, so the strong count tells us whether the abort path
    // dropped it or leaked it.
    let probe = Arc::new(());
    let held = Arc::clone(&probe);
    let (_w, r) = cell::<u32>(); // write half kept alive, never fulfilled
    let r_in = r.clone();
    let err = rt
        .try_run(move |wk| {
            // Program order: the continuation suspends in the cell before
            // the panicking task is even spawned — deterministic.
            r_in.touch(wk, move |_v, _wk| {
                let _keep = held;
            });
            wk.spawn(|_| panic!("boom"));
        })
        .unwrap_err();
    assert!(matches!(err, SessionError::Panicked { .. }), "{err}");
    assert_eq!(err.panic_message(), Some("boom"));
    assert_eq!(
        Arc::strong_count(&probe),
        1,
        "suspended continuation leaked past the abort rendezvous"
    );

    // The cell carries the originating session's poison context…
    let info = r.poison_info().expect("cell should be poisoned");
    assert_eq!(info.session, err.session());
    assert!(info.reason.contains("boom"), "{}", info.reason);
    assert!(r.peek().is_none());

    // …and a straggler touch in a later session fails fast with it.
    let r_late = r.clone();
    let err2 = rt
        .try_run(move |wk| r_late.touch(wk, |_v, _wk| {}))
        .unwrap_err();
    assert!(err2.to_string().contains("poisoned"), "{err2}");

    // Same pool completes a clean run afterwards.
    let (w, out) = cell::<u32>();
    rt.try_run(move |wk| w.fulfill(wk, 41)).unwrap();
    assert_eq!(out.expect(), 41);
}

#[test]
fn task_panic_does_not_eat_the_inline_budget() {
    use pf_rt::Worker;
    // Each link spawns a child that writes a cell, then touches it: the
    // work-first `spawn` runs the child inline, so on one
    // worker no touch ever suspends — as long as the inline budget holds.
    fn chain(wk: &Worker, links: u32) {
        if links == 0 {
            return;
        }
        let (w, r) = cell::<u32>();
        wk.spawn(move |wk| w.fulfill(wk, links));
        r.touch(wk, move |_, wk| chain(wk, links - 1));
    }
    fn panic_deep(wk: &Worker, depth: u32) {
        if depth == 0 {
            panic!("deep");
        }
        wk.spawn(move |wk| panic_deep(wk, depth - 1));
    }
    let rt = Runtime::new(1);
    assert_eq!(rt.run_stats(|wk| chain(wk, 64)).suspensions, 0);
    // A panic that unwinds through 100 inline frames must leave the
    // worker's inline depth where a fresh task expects it.
    let err = rt.try_run(|wk| panic_deep(wk, 100)).unwrap_err();
    assert_eq!(err.panic_message(), Some("deep"));
    assert_eq!(rt.run_stats(|wk| chain(wk, 64)).suspensions, 0);
}

#[test]
fn cancel_token_aborts_a_running_session() {
    let rt = Runtime::new(2);
    let tok = CancelToken::new();
    let t2 = tok.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        t2.cancel();
    });
    let err = rt
        .try_run_session(Session::new().cancel_token(&tok), move |wk| {
            wk.spawn(|wk| {
                while !wk.cancelled() {
                    std::hint::spin_loop();
                }
            });
        })
        .unwrap_err();
    canceller.join().unwrap();
    assert!(matches!(err, SessionError::Cancelled { .. }), "{err}");
    assert!(tok.is_cancelled());
    rt.try_run(|_wk| {}).unwrap();
}

#[test]
fn pre_cancelled_token_fails_the_session_immediately() {
    let rt = Runtime::new(2);
    let tok = CancelToken::new();
    tok.cancel();
    let err = rt
        .try_run_session(Session::new().cancel_token(&tok), |_wk| {})
        .unwrap_err();
    assert!(matches!(err, SessionError::Cancelled { .. }), "{err}");
    rt.try_run(|_wk| {}).unwrap();
}

#[test]
fn deadline_expiry_returns_deadline_exceeded() {
    let rt = Runtime::new(2);
    let err = rt
        .try_run_session(
            Session::new().deadline(Duration::from_millis(20)),
            move |wk| {
                wk.spawn(|wk| {
                    while !wk.cancelled() {
                        std::hint::spin_loop();
                    }
                });
            },
        )
        .unwrap_err();
    match err {
        SessionError::DeadlineExceeded { deadline, .. } => {
            assert_eq!(deadline, Duration::from_millis(20));
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    rt.try_run(|_wk| {}).unwrap();
}

#[test]
fn watchdog_reports_a_stalled_session_with_the_stuck_cell() {
    let rt = Runtime::new(2);
    let (_w, r) = cell::<u32>(); // write half kept alive, never fulfilled
    let err = rt.try_run(move |wk| r.touch(wk, |_v, _wk| {})).unwrap_err();
    match &err {
        SessionError::Stalled { report, .. } => {
            assert!(report.live >= 1, "{report:?}");
            assert_eq!(report.stuck.len(), 1, "{report:?}");
            assert!(report.stuck[0].payload_type.contains("u32"));
            // Freeze provenance: the report names its session and how
            // long progress was frozen — at least the 1 s default budget
            // of a suspended-only session, even on an idle pool.
            assert_eq!(report.session, err.session(), "{report:?}");
            assert!(report.frozen_for >= Duration::from_secs(1), "{report:?}");
        }
        other => panic!("expected Stalled, got {other}"),
    }
    assert!(err.to_string().contains("stalled"), "{err}");
    rt.try_run(|_wk| {}).unwrap();
}

/// 500 seeded iterations mixing clean and faulty sessions on the
/// process-wide two-worker pool (`Runtime::shared(2)`): `try_run` must return `Err` exactly for the
/// faulty ones and the pool must keep serving throughout.
#[test]
fn global_pool_survives_repeated_faults() {
    // Silence the ~170 expected panic messages; everything else (e.g. a
    // real assert failure in a concurrent test) still reaches the default
    // hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| *m == "iteration fault");
        if !expected {
            prev(info);
        }
    }));
    // Deterministic LCG so the pass/fail pattern is reproducible.
    let mut s: u64 = 0x9e3779b97f4a7c15;
    let mut lcg = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let rt = Runtime::shared(2);
    let mut failures = 0usize;
    for i in 0..500u64 {
        let faulty = lcg() % 3 == 0;
        let (w, out) = cell::<u64>();
        let res = rt.try_run(move |wk| {
            if faulty {
                wk.spawn(|_| panic!("iteration fault"));
            }
            wk.spawn(move |wk| w.fulfill(wk, i));
        });
        assert_eq!(res.is_err(), faulty, "iteration {i}");
        if res.is_err() {
            failures += 1;
        } else {
            assert_eq!(out.expect(), i);
        }
    }
    assert!(failures > 100, "seeded mix should include many faults");
    // One last clean run proves the pool is still healthy.
    let (w, out) = cell::<u64>();
    rt.try_run(move |wk| w.fulfill(wk, 7)).unwrap();
    assert_eq!(out.expect(), 7);
}
