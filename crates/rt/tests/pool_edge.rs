//! Pool edge cases that randomized stress can't reliably pin down: the
//! degenerate single-worker pool, sessions that spawn nothing, and two OS
//! threads contending for one process-wide `Runtime::shared` pool back to
//! back. The model
//! checker (`crates/check`) covers the interleavings; these cover the
//! real-thread configurations.

#![cfg(not(pf_check))] // shared() doesn't exist in model builds

use pf_rt::{cell, Runtime};
use std::sync::Arc;

#[test]
fn shared_single_worker_runs_suspending_session() {
    // One worker means every suspension must be resumed by the SAME
    // worker that suspended it — there is no thief to hand the
    // continuation to. Register the consumer first so it genuinely
    // suspends, then fulfill from a later task in the same queue.
    let rt = Runtime::shared(1);
    assert_eq!(rt.nthreads(), 1);
    for round in 0u64..20 {
        let (w, r) = cell::<u64>();
        let (ow, or) = cell::<u64>();
        let stats = rt.run_stats(move |wk| {
            wk.spawn(move |wk| {
                r.touch(wk, move |v, wk| ow.fulfill(wk, v + 1));
            });
            wk.spawn(move |wk| w.fulfill(wk, round));
        });
        assert_eq!(or.expect(), round + 1, "round {round}");
        assert_eq!(stats.spawns, 2);
        assert_eq!(stats.tasks_executed, 1 + stats.spawns + stats.suspensions);
    }
    // The shared pool is cached per width: asking again must return the
    // very same pool, not spin up fresh threads.
    assert!(Arc::ptr_eq(&rt, &Runtime::shared(1)));
}

#[test]
fn zero_task_run_quiesces_immediately() {
    // A root that spawns nothing: the session must still start, quiesce,
    // and reset cleanly — repeatedly, since a lost-wakeup style bug here
    // shows up as a hang on some LATER session, not the first.
    let rt = Runtime::new(3);
    for round in 0..50 {
        let stats = rt.run_stats(|_wk| {});
        assert_eq!(stats.spawns, 0, "round {round}");
        assert_eq!(stats.suspensions, 0, "round {round}");
        assert_eq!(stats.tasks_executed, 1, "round {round}");
    }
}

#[test]
fn global_contention_from_two_os_threads() {
    // Two OS threads each push back-to-back sessions through the one
    // process-wide two-worker pool. Sessions co-execute (each gets its own
    // session slot); the assertion is that neither thread's results or
    // per-session stats are polluted by the other's tasks (cross-session
    // leakage through the shared injector/deques). The dedicated
    // concurrent-session suite is tests/sessions.rs.
    let contenders: Vec<_> = (0..2u64)
        .map(|t| {
            std::thread::spawn(move || {
                for round in 0..25u64 {
                    let n = 8 + (round as usize % 5);
                    let pairs: Vec<_> = (0..n).map(|_| cell::<u64>()).collect();
                    let (writes, reads): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
                    let outs: Vec<_> = (0..n).map(|_| cell::<u64>()).collect();
                    let (out_w, out_r): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
                    let tag = t * 1_000_000 + round * 1_000;
                    let stats = Runtime::shared(2).run_stats(move |wk| {
                        for (r, ow) in reads.into_iter().zip(out_w) {
                            wk.spawn(move |wk| {
                                r.touch(wk, move |v, wk| ow.fulfill(wk, v ^ 1));
                            });
                        }
                        for (i, w) in writes.into_iter().enumerate() {
                            wk.spawn(move |wk| w.fulfill(wk, tag + i as u64));
                        }
                    });
                    for (i, o) in out_r.iter().enumerate() {
                        assert_eq!(o.expect(), (tag + i as u64) ^ 1, "thread {t} round {round}");
                    }
                    assert_eq!(stats.spawns, 2 * n as u64, "thread {t} round {round}");
                    assert!(stats.suspensions <= n as u64, "thread {t} round {round}");
                    assert_eq!(
                        stats.tasks_executed,
                        1 + stats.spawns + stats.suspensions,
                        "thread {t} round {round}: cross-session leakage"
                    );
                }
            })
        })
        .collect();
    for c in contenders {
        c.join().expect("contender thread panicked");
    }
}
