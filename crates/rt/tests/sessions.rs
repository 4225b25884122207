//! Concurrent-session integration tests: N `try_run_session` callers
//! co-execute on one shared worker pool, each with its own session
//! slot. These pin the PR-9 acceptance claims on real threads:
//! a short session completes while a long sibling is still executing;
//! faults (panic, cancel, deadline) abort only their own session; poison
//! stays in the faulting session's cells; and per-session statistics
//! never bleed across slots. The schedule-exhaustive versions live in
//! `pf-check`'s `model_rt.rs`.

#![cfg(not(pf_check))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pf_rt::{cell, CancelToken, Runtime, Session, SessionError};

/// The tentpole claim, literally: a short session submitted while a
/// long session is mid-flight returns `Ok` while the long sibling is
/// still executing — sessions co-execute, they do not queue behind one
/// another.
#[test]
fn short_session_completes_while_long_sibling_runs() {
    let rt = Arc::new(Runtime::new(2));
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let long_done = Arc::new(AtomicBool::new(false));

    let long = {
        let (rt, started, release, long_done) = (
            Arc::clone(&rt),
            Arc::clone(&started),
            Arc::clone(&release),
            Arc::clone(&long_done),
        );
        std::thread::spawn(move || {
            let res = rt.try_run(move |_wk| {
                started.store(true, Ordering::Release);
                // Occupy one worker until the short sibling has finished.
                while !release.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
            long_done.store(true, Ordering::Release);
            res
        })
    };

    // Wait until the long session's root is actually executing.
    while !started.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }

    // The short session: a real suspend/fulfill chain, run to Ok while
    // the long session still holds a worker.
    let (w, r) = cell::<u64>();
    let (ow, or) = cell::<u64>();
    rt.try_run(move |wk| {
        wk.spawn(move |wk| r.touch(wk, move |v, wk| ow.fulfill(wk, v * 2)));
        wk.spawn(move |wk| w.fulfill(wk, 21));
    })
    .expect("short session must complete while the long sibling runs");
    assert_eq!(or.expect(), 42);

    // Ok came back while the sibling was still in flight.
    assert!(
        !long_done.load(Ordering::Acquire),
        "long session finished first: sessions did not co-execute"
    );
    release.store(true, Ordering::Release);
    long.join()
        .unwrap()
        .expect("long session must complete after release");
}

/// Deterministic pipeline for the identity check below: a chain of
/// suspend/fulfill stages whose result depends on every stage running
/// exactly once with the right value.
fn chained(rt: &Runtime, depth: u64, seed: u64) -> Result<u64, SessionError> {
    let (w0, mut prev) = cell::<u64>();
    let last = {
        let mut stages = Vec::new();
        for i in 0..depth {
            let (w, r) = cell::<u64>();
            let src = prev.clone();
            stages.push(move |wk: &pf_rt::Worker| {
                src.touch(wk, move |v, wk| {
                    w.fulfill(wk, v.wrapping_mul(3).wrapping_add(i))
                });
            });
            prev = r;
        }
        let last = prev.clone();
        rt.try_run(move |wk| {
            for st in stages {
                wk.spawn(st);
            }
            w0.fulfill(wk, seed);
        })?;
        last
    };
    Ok(last.expect())
}

/// A panicking sibling leaves a concurrent session's result bit-identical
/// to its solo run: fault containment is semantic, not just "no crash".
#[test]
fn panicking_sibling_leaves_result_bit_identical() {
    let rt = Arc::new(Runtime::new(3));
    // Solo baseline on the same pool.
    let solo = chained(&rt, 32, 0xDEAD).expect("solo run");

    for round in 0..20u64 {
        let rt2 = Arc::clone(&rt);
        let pill = std::thread::spawn(move || {
            let (_w, r) = cell::<u32>(); // never written: suspends, then poisoned
            let r_in = r.clone();
            let err = rt2
                .try_run(move |wk| {
                    // Program order: the suspension commits in the root
                    // body before the pill is even spawned, so the abort
                    // always finds a registered cell to poison.
                    r_in.touch(wk, |_v, _wk| {});
                    for _ in 0..16 {
                        wk.spawn(|_| std::hint::black_box(()));
                    }
                    wk.spawn(|_| panic!("pill"));
                })
                .unwrap_err();
            assert_eq!(err.panic_message(), Some("pill"), "round {round}");
            // Poison landed in the pill session's own cell…
            let info = r.poison_info().expect("pill cell must be poisoned");
            assert_eq!(info.session, err.session());
        });
        let v = chained(&rt, 32, 0xDEAD).expect("sibling of a panicking session");
        assert_eq!(v, solo, "round {round}: result diverged from solo run");
        pill.join().unwrap();
    }
}

/// Many concurrent sessions on one pool: every session's results and
/// per-session statistics are exact — stats accumulate into the
/// session's own slot, so concurrent siblings never inflate each
/// other's counters.
#[test]
fn many_concurrent_sessions_keep_stats_isolated() {
    let rt = Arc::new(Runtime::new(4));
    let clients: Vec<_> = (0..6u64)
        .map(|t| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                for round in 0..15u64 {
                    let n = 4 + (t as usize % 3);
                    let pairs: Vec<_> = (0..n).map(|_| cell::<u64>()).collect();
                    let (writes, reads): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
                    let outs: Vec<_> = (0..n).map(|_| cell::<u64>()).collect();
                    let (out_w, out_r): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
                    let tag = t * 1_000_000 + round * 1_000;
                    let stats = rt
                        .try_run(move |wk| {
                            for (r, ow) in reads.into_iter().zip(out_w) {
                                wk.spawn(move |wk| {
                                    r.touch(wk, move |v, wk| ow.fulfill(wk, v ^ 1));
                                });
                            }
                            for (i, w) in writes.into_iter().enumerate() {
                                wk.spawn(move |wk| w.fulfill(wk, tag + i as u64));
                            }
                        })
                        .expect("healthy session");
                    for (i, o) in out_r.iter().enumerate() {
                        assert_eq!(o.expect(), (tag + i as u64) ^ 1, "client {t} round {round}");
                    }
                    assert_eq!(stats.spawns, 2 * n as u64, "client {t} round {round}");
                    assert!(stats.suspensions <= n as u64, "client {t} round {round}");
                    assert_eq!(
                        stats.tasks_executed,
                        1 + stats.spawns + stats.suspensions,
                        "client {t} round {round}: cross-session stat leakage"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }
}

/// A cancel token aborts exactly its own session; a sibling sharing the
/// pool completes, and re-cancelling the finished session is a no-op.
#[test]
fn cancel_aborts_only_its_session() {
    let rt = Arc::new(Runtime::new(2));
    let tok = CancelToken::new();

    let victim = {
        let (rt, tok) = (Arc::clone(&rt), tok.clone());
        std::thread::spawn(move || {
            rt.try_run_session(Session::new().cancel_token(&tok), |wk| {
                wk.spawn(|wk| {
                    while !wk.cancelled() {
                        std::hint::spin_loop();
                    }
                });
            })
        })
    };

    // Sibling completes while the victim spins toward its cancel.
    let (w, r) = cell::<u32>();
    rt.try_run(move |wk| {
        wk.spawn(move |wk| w.fulfill(wk, 5));
    })
    .expect("sibling of a cancelled session");
    assert_eq!(r.expect(), 5);

    tok.cancel();
    let err = victim.join().unwrap().unwrap_err();
    assert!(matches!(err, SessionError::Cancelled { .. }), "{err}");

    // Stale cancel: the slot is closed; cancelling again must not
    // disturb the pool or any later session.
    tok.cancel();
    let (w, r) = cell::<u32>();
    rt.try_run(move |wk| {
        wk.spawn(move |wk| w.fulfill(wk, 6));
    })
    .expect("session after a stale cancel");
    assert_eq!(r.expect(), 6);
}

/// A deadline fires only for the session that set it.
#[test]
fn deadline_aborts_only_its_session() {
    let rt = Arc::new(Runtime::new(2));
    let doomed = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            rt.try_run_session(Session::new().deadline(Duration::from_millis(50)), |wk| {
                wk.spawn(|wk| {
                    while !wk.cancelled() {
                        std::hint::spin_loop();
                    }
                });
            })
        })
    };
    // A slower, deadline-free sibling: must be untouched by the
    // sibling's deadline abort happening mid-flight.
    let mut acc = 0u64;
    for i in 0..40u64 {
        let (w, r) = cell::<u64>();
        rt.try_run(move |wk| {
            wk.spawn(move |wk| w.fulfill(wk, i));
        })
        .expect("deadline-free sibling");
        acc += r.expect();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(acc, (0..40).sum::<u64>());
    let err = doomed.join().unwrap().unwrap_err();
    assert!(
        matches!(err, SessionError::DeadlineExceeded { .. }),
        "{err}"
    );
}

/// Poison confinement: session A panics with a continuation suspended in
/// its cell; session B, concurrently suspended in a *different* cell,
/// completes — and only A's cell ends up poisoned.
#[test]
fn poison_stays_in_the_faulting_session() {
    let rt = Arc::new(Runtime::new(3));
    for round in 0..10 {
        let (_wa, ra) = cell::<u32>(); // A's cell: never written
        let ra_probe = ra.clone();

        let (rt2, ra_in) = (Arc::clone(&rt), ra.clone());
        let faulty = std::thread::spawn(move || {
            rt2.try_run(move |wk| {
                ra_in.touch(wk, |_v, _wk| {});
                wk.spawn(|_| panic!("fault in A"));
            })
            .unwrap_err()
        });

        // B: suspend then fulfill in its own cells, concurrently.
        let (wb, rb) = cell::<u32>();
        let (owb, orb) = cell::<u32>();
        rt.try_run(move |wk| {
            rb.touch(wk, move |v, wk| owb.fulfill(wk, v + 100));
            wk.spawn(move |wk| wb.fulfill(wk, round));
        })
        .expect("session B alongside faulting A");
        assert_eq!(orb.expect(), round + 100);

        let err = faulty.join().unwrap();
        let info = ra_probe.poison_info().expect("A's cell must be poisoned");
        assert_eq!(info.session, err.session(), "round {round}");
    }
}

/// A cell handed from one session to another: session A suspends in it,
/// session B writes it. The suspension record carries A's slot, so the
/// waiter resumes into *A's* session — A's accounting executes it and
/// A's quiescence waits for it — whichever worker runs it. B's client
/// starts B only once A has suspended, after an idle gap: with the gap
/// every worker parks while A waits, and an idle pool is not a stall —
/// A's write is merely still to come.
#[test]
fn cross_session_fulfil_resumes_into_the_waiters_session() {
    let rt = Arc::new(Runtime::new(2));
    for gap in [Duration::ZERO, Duration::from_millis(100)] {
        let (w, r) = cell::<u32>();
        let (ow, or) = cell::<u32>();
        let suspended = Arc::new(AtomicBool::new(false));

        let writer = {
            let (rt, suspended) = (Arc::clone(&rt), Arc::clone(&suspended));
            std::thread::spawn(move || {
                while !suspended.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                std::thread::sleep(gap);
                rt.try_run(move |wk| w.fulfill(wk, 41))
            })
        };
        let waiter = rt
            .try_run(move |wk| {
                r.touch(wk, move |v, wk| ow.fulfill(wk, v + 1));
                suspended.store(true, Ordering::Release);
            })
            .unwrap_or_else(|e| panic!("gap {gap:?}: the waiter's session: {e}"));
        let writer = writer.join().unwrap().expect("the writer's session");

        let got = (or.expect(), waiter.suspensions, waiter.tasks_executed);
        assert_eq!(got, (42, 1, 2), "gap {gap:?}");
        assert_eq!((writer.suspensions, writer.tasks_executed), (0, 1));
    }
}

/// Spawn a sibling thread that pumps short busy sessions on `rt` until
/// `stop` is raised, counting completed sessions in `pumped`. Each task
/// spins briefly so the pool's workers stay genuinely busy — the
/// condition under which a pool-level idle check is blind. Each
/// `spawn2` pushes one spinning task and runs the other inline, so the
/// tasks spread over every worker.
fn busy_sibling(
    rt: &Arc<Runtime>,
    stop: &Arc<AtomicBool>,
    pumped: &Arc<std::sync::atomic::AtomicU64>,
) -> std::thread::JoinHandle<()> {
    let (rt, stop, pumped) = (Arc::clone(rt), Arc::clone(stop), Arc::clone(pumped));
    std::thread::spawn(move || {
        let spin = |_: &pf_rt::Worker| {
            for _ in 0..2_000 {
                std::hint::spin_loop();
            }
        };
        while !stop.load(Ordering::Acquire) {
            rt.try_run(move |wk| {
                for _ in 0..4 {
                    wk.spawn2(spin, spin);
                }
            })
            .expect("healthy pump session");
            pumped.fetch_add(1, Ordering::Release);
        }
    })
}

/// The PR-10 tentpole, suspended flavor: a session wedged on a cell
/// nobody will ever write is declared `Stalled` within ~2× its
/// configured stall budget even though a sibling session keeps the pool
/// continuously busy — the per-session progress heartbeat sees through
/// busy siblings where the old idle-pool sampler abstained.
#[test]
fn wedged_session_stalls_next_to_busy_sibling() {
    let rt = Arc::new(Runtime::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let pumped = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sibling = busy_sibling(&rt, &stop, &pumped);
    // Let the pump establish real load before the victim starts.
    while pumped.load(Ordering::Acquire) < 2 {
        std::thread::yield_now();
    }

    let budget = Duration::from_millis(300);
    let (_w, r) = cell::<u32>(); // write half kept alive, never fulfilled
    let before = pumped.load(Ordering::Acquire);
    let started = std::time::Instant::now();
    let err = rt
        .try_run_session(Session::new().stall_budget(budget), move |wk| {
            r.touch(wk, |_v, _wk| {})
        })
        .unwrap_err();
    let elapsed = started.elapsed();
    let during = pumped.load(Ordering::Acquire) - before;

    match &err {
        SessionError::Stalled { report, .. } => {
            assert!(report.live >= 1, "{report:?}");
            assert_eq!(report.session, err.session(), "{report:?}");
            assert!(report.frozen_for >= budget, "{report:?}");
        }
        other => panic!("expected Stalled, got {other}"),
    }
    assert!(
        elapsed < 2 * budget,
        "detection took {elapsed:?}, budget {budget:?}"
    );
    assert!(
        during >= 1,
        "sibling went idle during detection — the blind-spot condition was not exercised"
    );
    stop.store(true, Ordering::Release);
    sibling.join().unwrap();
    rt.try_run(|_wk| {}).unwrap();
}

/// The running flavor: a task body spinning forever (polling nothing but
/// its cancel flag) freezes the session's epoch while holding a worker.
/// An explicit stall budget arms the detector for this case too — no
/// deadline involved.
#[test]
fn running_wedge_stalls_with_explicit_budget() {
    let rt = Arc::new(Runtime::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let pumped = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sibling = busy_sibling(&rt, &stop, &pumped);

    let budget = Duration::from_millis(300);
    let started = std::time::Instant::now();
    let err = rt
        .try_run_session(Session::new().stall_budget(budget), |wk| {
            wk.spawn(|wk| {
                // A wedge that at least honors cancellation, so the abort
                // can reclaim the worker after detection.
                while !wk.cancelled() {
                    std::hint::spin_loop();
                }
            });
        })
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, SessionError::Stalled { .. }), "{err}");
    assert!(
        elapsed < 2 * budget,
        "detection took {elapsed:?}, budget {budget:?}"
    );
    stop.store(true, Ordering::Release);
    sibling.join().unwrap();
    rt.try_run(|_wk| {}).unwrap();
}

/// No-false-positive pin: a slow but *progressing* session — each stage
/// sleeps well below the budget, then fulfills the next cell — runs far
/// past its stall budget in total and still completes `Ok`, because
/// every stage bumps the progress epoch and resets the freeze window.
#[test]
fn slow_but_progressing_session_is_not_stalled() {
    let rt = Arc::new(Runtime::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let pumped = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sibling = busy_sibling(&rt, &stop, &pumped);

    let budget = Duration::from_millis(250);
    let stages = 8u64; // 8 × 50 ms = 400 ms total, well past the budget
    let (w0, mut prev) = cell::<u64>();
    let last = prev.clone();
    let mut chain = Vec::new();
    for _ in 0..stages - 1 {
        let (w, r) = cell::<u64>();
        let src = std::mem::replace(&mut prev, r);
        chain.push((src, w));
    }
    let last = if stages > 1 { prev.clone() } else { last };
    let started = std::time::Instant::now();
    rt.try_run_session(Session::new().stall_budget(budget), move |wk| {
        for (src, w) in chain {
            src.touch(wk, move |v, wk| {
                std::thread::sleep(Duration::from_millis(50));
                w.fulfill(wk, v + 1);
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        w0.fulfill(wk, 1);
    })
    .expect("slow-but-progressing session must not be declared stalled");
    assert_eq!(last.expect(), stages);
    assert!(
        started.elapsed() > budget,
        "the run must outlive the budget for this pin to mean anything"
    );
    stop.store(true, Ordering::Release);
    sibling.join().unwrap();
}

/// Even without an explicit budget, a suspended-only wedge next to a
/// busy sibling is caught by the default heartbeat budget — the ROADMAP
/// blind spot is closed by default, not only when opted into.
#[test]
fn suspended_wedge_detected_by_default_next_to_busy_sibling() {
    let rt = Arc::new(Runtime::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let pumped = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sibling = busy_sibling(&rt, &stop, &pumped);

    let (_w, r) = cell::<u32>();
    let started = std::time::Instant::now();
    let err = rt.try_run(move |wk| r.touch(wk, |_v, _wk| {})).unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, SessionError::Stalled { .. }), "{err}");
    // The default budget is 1 s; 2× covers it with room for load.
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    stop.store(true, Ordering::Release);
    sibling.join().unwrap();
    rt.try_run(|_wk| {}).unwrap();
}
