//! Behavioral scheduler tests over the tracing layer (`--features trace`).
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
//! construction; the test keeps it so).

#![cfg(feature = "trace")]

use std::sync::{mpsc, Arc};

use pf_rt::{cell, take_last_trace, Runtime, Session, SessionError, SessionTrace, TraceKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
    let stats = rt.run_stats(|wk| fork_tree(wk, 8));
    let trace = taken();
    assert_eq!(
        trace.total(TraceKind::Steal),
        0,
        "a lone worker has nobody to steal from"
    );
    assert_eq!(trace.total(TraceKind::Steal), stats.steals);
    assert_eq!(trace.workers.len(), 1);
    // Everything ran on worker 0.
    assert_eq!(
        trace.workers[0].count(TraceKind::Exec),
        stats.tasks_executed
    );
}

#[test]
fn fork_heavy_session_steals_on_a_wide_pool() {
    // Stealing is how tasks reach workers 1..4 at all (the injector only
    // ever holds the root), so a fan-out of thousands of yielding tasks
    // engages it reliably; the retry loop absorbs pathological schedules.
    // Each `spawn2` pushes one task (the other runs inline), so the loop
    // leaves 2000 stealable tasks on the root's deque.
    let rt = Runtime::new(4);
    let mut last = 0;
    for _ in 0..20 {
        let stats = rt.run_stats(|wk| {
            for _ in 0..2000 {
                wk.spawn2(|_| std::thread::yield_now(), |_| std::thread::yield_now());
            }
        });
        let trace = taken();
        assert_eq!(
            trace.total(TraceKind::Steal),
            stats.steals,
            "trace and counter agree"
        );
        last = trace.total(TraceKind::Steal);
        if last > 0 {
            return;
        }
    }
    panic!("no steal in 20 fork-heavy sessions at t=4 (last trace: {last})");
}

#[test]
fn touch_before_fulfill_records_suspend_resume_pairs() {
    // One worker makes the order deterministic: the root touches every
    // cell before any fulfiller task runs, so each of the N touches
    // suspends and each write resumes exactly one waiter.
    const N: usize = 25;
    let rt = Runtime::new(1);
    let stats = rt.run_stats(|wk| {
        for i in 0..N {
            let (w, r) = cell::<usize>();
            r.touch(wk, move |v, _| assert_eq!(v, i));
            wk.spawn(move |wk| w.fulfill(wk, i));
        }
    });
    let trace = taken();
    assert_eq!(trace.total(TraceKind::Suspend), N as u64);
    assert_eq!(
        trace.total(TraceKind::Resume),
        N as u64,
        "every suspension was resumed"
    );
    assert_eq!(trace.total(TraceKind::Suspend), stats.suspensions);
    assert_eq!(trace.total(TraceKind::Fulfill), N as u64);
    assert_eq!(
        trace.client.count(TraceKind::Poison),
        0,
        "healthy session poisons nothing"
    );
}

#[test]
fn write_before_touch_records_no_suspension() {
    let rt = Runtime::new(1);
    rt.run(|wk| {
        let (w, r) = cell::<u32>();
        w.fulfill(wk, 7);
        r.touch(wk, |v, _| assert_eq!(v, 7));
    });
    let trace = taken();
    assert_eq!(trace.total(TraceKind::Suspend), 0);
    assert_eq!(trace.total(TraceKind::Resume), 0);
    assert_eq!(trace.total(TraceKind::Fulfill), 1);
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
        .try_run_session(Session::new(), |wk| {
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
        trace.client.count(TraceKind::Poison),
        report.stuck.len() as u64,
        "one poison event per stuck cell"
    );
    // The poison events carry the stuck cells' addresses.
    let mut traced: Vec<u64> = trace
        .client
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Poison)
        .map(|e| e.arg)
        .collect();
    let mut reported: Vec<u64> = report.stuck.iter().map(|c| c.addr as u64).collect();
    traced.sort_unstable();
    reported.sort_unstable();
    assert_eq!(traced, reported);
    assert_eq!(
        trace.total(TraceKind::Suspend),
        3,
        "the suspensions that wedged the pool"
    );
}

#[test]
fn timeline_is_exported_and_consumed_once() {
    let rt = Runtime::new(2);
    let stats = rt.run_stats(|wk| {
        let (w, r) = cell::<u32>();
        r.touch(wk, |_, _| {});
        wk.spawn(move |wk| w.fulfill(wk, 1));
    });
    let trace = taken();
    assert_eq!(trace.total(TraceKind::Exec), stats.tasks_executed);
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
                .try_run(|wk| fork_tree_then_panic(wk, 4))
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
        let stats = rt.run_stats(|wk| fork_tree(wk, 6));
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
    assert_eq!(b_trace.total(TraceKind::Exec), b_stats.tasks_executed);
}

fn fork_tree_then_panic(wk: &pf_rt::Worker, depth: usize) {
    fork_tree(wk, depth);
    panic!("injected fault");
}

/// The calling thread's last session record, which a traced build always
/// leaves.
fn taken() -> SessionTrace {
    take_last_trace().expect("a traced session leaves its record")
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
        let stats = rt.run_stats(move |wk| {
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
        let trace = taken();
        let executed: u64 = trace.workers.iter().map(|w| w.count(TraceKind::Exec)).sum();
        assert_eq!(
            executed, stats.tasks_executed,
            "iter {iter}: per-worker exec events vs RunStats.tasks_executed"
        );
        assert_eq!(
            trace.total(TraceKind::Spawn),
            stats.spawns,
            "iter {iter}: spawns"
        );
        assert_eq!(
            trace.total(TraceKind::Suspend),
            stats.suspensions,
            "iter {iter}: committed suspensions (raced touches un-note)"
        );
        assert_eq!(
            trace.total(TraceKind::Steal),
            stats.steals,
            "iter {iter}: steals"
        );
        assert_eq!(
            trace.total(TraceKind::Resume),
            trace.total(TraceKind::Suspend),
            "iter {iter}: every suspension in a finished session resumed"
        );
        assert_eq!(trace.dropped(), 0, "iter {iter}: workloads fit the ring");
    }
}
