//! Behavioral scheduler tests over the tracing layer: every session here
//! is opened with `Session::trace`.
//!
//! Until this suite, tests could only assert *end-state* values (cells
//! hold the right numbers) and aggregate counters. A session's
//! `SessionTrace`, taken back by the thread that ran it, carries each
//! worker lane's exact per-kind counts, so these tests assert scheduler
//! *behavior*: that a single-threaded session cannot steal, that a
//! fork-heavy session on a wide pool does, that touch-before-fulfill
//! produces matched suspend/resume pairs, that an aborted session poisons
//! exactly the cells its `StallReport` names, and that two clients on one
//! pool each get their own session back. The reconciliation test at the
//! bottom pins the trace counts to `RunStats` across 100 seeded random
//! workloads (both read the slot's one counter array, so it holds by
//! construction; the test keeps it so), and `run_traced` checks the same
//! for every other session here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pf_rt::{
    cell, take_last_trace, RunStats, Runtime, Session, SessionError, SessionTrace, TraceKind,
    Worker,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use TraceKind::{Exec, Fulfill, Poison, Resume, Spawn, Steal, Suspend};

fn fork_tree(wk: &pf_rt::Worker, depth: usize) {
    if depth > 0 {
        wk.spawn2(
            move |wk| fork_tree(wk, depth - 1),
            move |wk| fork_tree(wk, depth - 1),
        );
    }
}

#[test]
fn single_worker_records_zero_steals() {
    let rt = Runtime::new(1);
    let (stats, trace) = run_traced(&rt, |wk| fork_tree(wk, 8));
    assert_eq!(stats.steals, 0, "a lone worker has nobody to steal from");
    assert_eq!(trace.workers.len(), 1);
    // Everything ran on worker 0.
    assert_eq!(trace.workers[0].count(Exec), stats.tasks_executed);
}

#[test]
fn fork_heavy_session_steals_on_a_wide_pool() {
    // Causal, on any core count: the root pushes one child and does not
    // return until the child has run, so only a thief can have run it.
    let rt = Runtime::new(4);
    let (_, trace) = run_traced(&rt, |wk| {
        let ran = Arc::new(AtomicBool::new(false));
        let child = Arc::clone(&ran);
        wk.spawn2(move |_| child.store(true, Ordering::SeqCst), |_| {});
        let started = Instant::now();
        while !ran.load(Ordering::SeqCst) {
            assert!(started.elapsed() < Duration::from_secs(30), "no thief");
            std::thread::yield_now();
        }
    });
    assert!(trace.total(Steal) >= 1, "the child was stolen");
}

#[test]
fn touch_before_fulfill_records_suspend_resume_pairs() {
    // One worker makes the order deterministic: the root touches every
    // cell before any fulfiller task runs, so each of the N touches
    // suspends and each write resumes exactly one waiter.
    const N: usize = 25;
    let rt = Runtime::new(1);
    let (_, trace) = run_traced(&rt, |wk| {
        for i in 0..N {
            let (w, r) = cell::<usize>();
            r.touch(wk, move |v, _| assert_eq!(v, i));
            wk.spawn(move |wk| w.fulfill(wk, i));
        }
    });
    assert_eq!(trace.total(Suspend), N as u64);
    assert_eq!(trace.total(Resume), N as u64, "every suspension resumed");
    assert_eq!(trace.total(Fulfill), N as u64);
    assert_eq!(
        trace.client.count(Poison),
        0,
        "healthy session poisons nothing"
    );
}

#[test]
fn write_before_touch_records_no_suspension() {
    let rt = Runtime::new(1);
    let (_, trace) = run_traced(&rt, |wk| {
        let (w, r) = cell::<u32>();
        w.fulfill(wk, 7);
        r.touch(wk, |v, _| assert_eq!(v, 7));
    });
    assert_eq!(
        [Suspend, Resume, Fulfill].map(|k| trace.total(k)),
        [0, 0, 1]
    );
}

#[test]
fn stalled_session_records_poison_per_stuck_cell() {
    // Three touches of cells nobody will ever write wedge the session;
    // the watchdog aborts it (after the 1 s default budget of a
    // suspended-only session) and the cleanup must poison exactly the
    // cells the StallReport names — with one client-lane Poison event
    // (carrying the cell address) for each.
    let rt = Runtime::new(2);
    let err = rt
        .try_run_session(Session::new().trace(), |wk| {
            for _ in 0..3 {
                let (w, r) = cell::<u32>();
                r.touch(wk, |_, _| {});
                std::mem::forget(w); // never fulfilled, never dropped early
            }
        })
        .expect_err("a never-written touch must stall the session");
    let err_session = err.session();
    let report = match err {
        SessionError::Stalled { report, .. } => report,
        other => panic!("expected Stalled, got {other}"),
    };
    assert_eq!(report.stuck.len(), 3);
    let trace = take_last_trace().expect("aborted sessions leave their timeline behind");
    assert_eq!(trace.session, err_session);
    assert_eq!(
        trace.client.count(Poison),
        report.stuck.len() as u64,
        "one poison event per stuck cell"
    );
    // The poison events carry the stuck cells' addresses.
    let mut traced: Vec<u64> = trace
        .client
        .events
        .iter()
        .filter(|e| e.kind == Poison)
        .map(|e| e.arg)
        .collect();
    let mut reported: Vec<u64> = report.stuck.iter().map(|c| c.addr as u64).collect();
    traced.sort_unstable();
    reported.sort_unstable();
    assert_eq!(traced, reported);
    assert_eq!(
        trace.total(Suspend),
        3,
        "the suspensions that wedged the pool"
    );
}

#[test]
fn timeline_is_exported_and_consumed_once() {
    let rt = Runtime::new(2);
    let (_, trace) = run_traced(&rt, |wk| {
        let (w, r) = cell::<u32>();
        r.touch(wk, |_, _| {});
        wk.spawn(move |wk| w.fulfill(wk, 1));
    });
    assert!(trace.events() > 0);
    let json = trace.to_chrome_trace();
    assert!(json.contains("\"name\":\"exec\""));
    assert!(json.contains("\"name\":\"suspend\""));
    assert!(take_last_trace().is_none(), "take consumes");
}

/// Two clients on one pool, in a forced order: A's session fails, then
/// B's succeeds, then A takes its trace back and B takes its own. Each
/// record goes back to the thread that ran the session, so the later
/// session cannot overwrite the failed one's.
#[test]
fn each_client_takes_back_the_session_it_ran() {
    let rt = Arc::new(Runtime::new(2));
    let (a_failed, after_a_failed) = mpsc::channel();
    let (b_ran, after_b_ran) = mpsc::channel();
    let (a_took, after_a_took) = mpsc::channel();
    let a = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            let err = rt
                .try_run_session(Session::new().trace(), |wk| fork_tree_then_panic(wk, 4))
                .expect_err("the pill fails A's session");
            a_failed.send(()).unwrap();
            after_b_ran.recv().unwrap();
            let trace = take_last_trace();
            a_took.send(()).unwrap();
            (err.session(), trace)
        })
    };
    let b = std::thread::spawn(move || {
        after_a_failed.recv().unwrap();
        let stats = rt
            .try_run_session(Session::new().trace(), |wk| fork_tree(wk, 6))
            .unwrap();
        b_ran.send(()).unwrap();
        after_a_took.recv().unwrap();
        (stats, take_last_trace())
    });
    let (a_session, a_trace) = a.join().unwrap();
    let (b_stats, b_trace) = b.join().unwrap();
    let a_trace = a_trace.expect("A gets its failed session back");
    assert_eq!(a_trace.session, a_session, "A's own session, not B's");
    let b_trace = b_trace.expect("B gets its own session back");
    assert_eq!(
        b_trace.session,
        a_session + 1,
        "B ran the pool's next session"
    );
    assert_eq!(b_trace.total(Exec), b_stats.tasks_executed);
}

fn fork_tree_then_panic(wk: &pf_rt::Worker, depth: usize) {
    fork_tree(wk, depth);
    panic!("injected fault");
}

/// Run `root` to quiescence in a traced session and take its record
/// back, whose counts must equal the session's `RunStats`. A failed
/// session resumes its panic.
fn run_traced(
    rt: &Runtime,
    root: impl FnOnce(&Worker) + Send + 'static,
) -> (RunStats, SessionTrace) {
    let stats = rt
        .try_run_session(Session::new().trace(), root)
        .unwrap_or_else(|e| e.resume());
    let trace = take_last_trace().expect("a traced session leaves its record");
    let counted = [
        stats.tasks_executed,
        stats.spawns,
        stats.suspensions,
        stats.steals,
    ];
    assert_eq!(
        [Exec, Spawn, Suspend, Steal].map(|k| trace.total(k)),
        counted
    );
    (stats, trace)
}

/// An untraced session clears the thread's record: a traced session's
/// trace, left untaken, must not stand in for the untraced session that
/// ran after it on the same thread.
#[test]
fn an_untraced_session_leaves_no_record_behind() {
    let rt = Runtime::new(2);
    let traced = Session::new().trace();
    rt.try_run_session(traced.clone(), |wk| fork_tree(wk, 4))
        .unwrap();
    rt.run(|wk| fork_tree(wk, 4));
    assert!(take_last_trace().is_none(), "the untraced run cleared it");
    // Failed sessions follow the same rule.
    rt.try_run_session(traced, |wk| fork_tree(wk, 2)).unwrap();
    assert!(rt.try_run(|wk| fork_tree_then_panic(wk, 2)).is_err());
    assert!(take_last_trace().is_none(), "a failed untraced session too");
}

/// Across 100 seeded random workloads (mixed fan-out, cells touched and
/// fulfilled in random order, random pool widths), the per-worker trace
/// counts must reconcile exactly with `RunStats` — executed, spawns,
/// suspensions, and steals alike.
#[test]
fn trace_counts_reconcile_with_run_stats_over_seeded_workloads() {
    let mut rng = SmallRng::seed_from_u64(0x7ACE_5EED);
    for iter in 0..100 {
        let threads = rng.gen_range(1..5usize);
        let plain: usize = rng.gen_range(0..120);
        let cells: usize = rng.gen_range(0..24);
        let touch_first: bool = rng.gen();
        let rt = Runtime::shared(threads);
        let (stats, trace) = run_traced(&rt, move |wk| {
            for _ in 0..plain {
                wk.spawn(|_| {});
            }
            for i in 0..cells {
                let (w, r) = cell::<usize>();
                if touch_first {
                    r.touch(wk, move |v, _| assert_eq!(v, i));
                    wk.spawn(move |wk| w.fulfill(wk, i));
                } else {
                    wk.spawn(move |wk| w.fulfill(wk, i));
                    wk.spawn(move |wk| r.touch(wk, move |v, _| assert_eq!(v, i)));
                }
            }
        });
        // `run_traced` reconciled the totals; the workers' lanes alone
        // hold every execution.
        let executed: u64 = trace.workers.iter().map(|w| w.count(Exec)).sum();
        assert_eq!(executed, stats.tasks_executed, "iter {iter}: executed");
        assert_eq!(
            trace.total(Resume),
            trace.total(Suspend),
            "iter {iter}: every suspension in a finished session resumed"
        );
        assert_eq!(trace.dropped(), 0, "iter {iter}: workloads fit the ring");
    }
}
