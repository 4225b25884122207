//! Cross-policy behavior suite (PR 8): every combination of the four
//! scheduling-policy axes must produce the same algorithm answers with
//! the same policy-independent accounting — scheduling is a performance
//! knob, never a semantics knob.
//!
//! The policy-independent accounting contract: for a session whose root
//! closure is policy-blind, `spawns` is identical across policies (every
//! spawned task is counted once whether it was pushed or run inline),
//! and the liveness identity `tasks_executed - suspensions == spawns + 1`
//! holds (each task runs once; a resumed continuation re-enters the
//! executed count through its suspension). Raw `tasks_executed` may
//! legitimately differ across policies because suspension *counts*
//! depend on scheduling (a touch only suspends if it loses its race with
//! the fulfill).

use pf_rt::{
    cell, FutWrite, ResumePlace, Runtime, SchedPolicy, Session, SpawnOrder, StealKind,
    VictimSelect, Worker,
};

/// A binary fork tree of depth `d` summing 2^d leaf ones through cells:
/// exercises spawn order, stealing, suspension, and resume placement in
/// one deterministic-fates workload.
fn tree_sum(wk: &Worker, depth: u32, out: FutWrite<u64>) {
    if depth == 0 {
        out.fulfill(wk, 1);
        return;
    }
    let (lw, lr) = cell();
    let (rw, rr) = cell();
    wk.spawn2(
        move |wk| tree_sum(wk, depth - 1, lw),
        move |wk| tree_sum(wk, depth - 1, rw),
    );
    lr.touch(wk, move |a, wk| {
        rr.touch(wk, move |b, wk| out.fulfill(wk, a + b));
    });
}

type Stage = Box<dyn FnOnce(&Worker) + Send>;

/// A sequential chain of `n` cells, each stage touching its predecessor
/// and fulfilling its successor: the resume-placement torture case
/// (inline resume recurses, mailbox resume bounces between owners).
fn chain_sum(rt: &Runtime, policy: SchedPolicy, n: u64) -> u64 {
    let (w0, mut prev) = cell::<u64>();
    let mut stages: Vec<Stage> = Vec::new();
    for _ in 0..n {
        let (w, r) = cell::<u64>();
        let src = prev.clone();
        stages.push(Box::new(move |wk: &Worker| {
            src.touch(wk, move |v, wk| w.fulfill(wk, v + 1));
        }));
        prev = r;
    }
    let last = prev.clone();
    rt.try_run_session(Session::new().policy(policy), move |wk| {
        for st in stages {
            wk.spawn(move |wk| st(wk));
        }
        w0.fulfill(wk, 0);
    })
    .expect("chain session must complete under every policy");
    last.expect()
}

#[test]
fn matrix_covers_all_axis_combinations() {
    let m = SchedPolicy::matrix();
    assert_eq!(
        m.len(),
        2 * 2 * 3 * 2,
        "2 steal × 2 victim × 3 resume × 2 spawn"
    );
    assert_eq!(
        m[0],
        SchedPolicy::default(),
        "default policy leads the matrix"
    );
    let labels: std::collections::BTreeSet<_> = m.iter().map(|p| p.label()).collect();
    assert_eq!(labels.len(), m.len(), "labels are unique");
}

#[test]
fn every_policy_computes_the_same_tree_sum() {
    const DEPTH: u32 = 9;
    for threads in [1usize, 4] {
        let mut pinned_spawns: Option<u64> = None;
        for policy in SchedPolicy::matrix() {
            let rt = Runtime::with_policy(threads, policy);
            let (ow, or) = cell::<u64>();
            let stats = rt.run_stats(move |wk| tree_sum(wk, DEPTH, ow));
            assert_eq!(
                or.expect(),
                1u64 << DEPTH,
                "{} t={threads}: wrong sum",
                policy.label()
            );
            // Policy-independent accounting: spawns are identical, and
            // the liveness identity holds exactly.
            let spawns = *pinned_spawns.get_or_insert(stats.spawns);
            assert_eq!(
                stats.spawns,
                spawns,
                "{} t={threads}: spawn count must not depend on the policy",
                policy.label()
            );
            assert_eq!(
                stats.tasks_executed - stats.suspensions,
                stats.spawns + 1,
                "{} t={threads}: tasks - suspensions == spawns + root",
                policy.label()
            );
            #[cfg(feature = "trace")]
            {
                let trace = stats.trace.as_ref().expect("traced build");
                assert_eq!(trace.policy, policy.label(), "stats carry the policy tag");
                assert_eq!(trace.spawns(), stats.spawns);
                assert_eq!(trace.executed(), stats.tasks_executed);
                assert_eq!(trace.suspends(), stats.suspensions);
                assert_eq!(trace.steals(), stats.steals);
            }
        }
    }
}

#[test]
fn every_policy_completes_a_deep_chain() {
    // 3000 strictly sequential suspensions: inline resume must not blow
    // the stack (the depth guard falls back to enqueueing), and mailbox
    // resume must not lose a wakeup — including on a single worker,
    // where the mailbox owner is always the fulfiller itself.
    for threads in [1usize, 3] {
        let rt = Runtime::new(threads);
        for policy in SchedPolicy::matrix() {
            assert_eq!(
                chain_sum(&rt, policy, 3000),
                3000,
                "{} t={threads}",
                policy.label()
            );
        }
    }
}

#[test]
fn session_policy_overrides_runtime_default() {
    let non_default = SchedPolicy {
        steal: StealKind::Half,
        victim: VictimSelect::LastVictimFirst,
        resume: ResumePlace::Mailbox,
        spawn: SpawnOrder::ParentFirst,
    };
    let rt = Runtime::with_policy(2, non_default);
    assert_eq!(rt.default_policy(), non_default);
    // Runs without an override inherit the runtime default; a session
    // override wins for exactly that session.
    let (ow, or) = cell::<u64>();
    rt.try_run_session(Session::new().policy(SchedPolicy::default()), move |wk| {
        tree_sum(wk, 6, ow)
    })
    .unwrap();
    assert_eq!(or.expect(), 64);
    let (ow, or) = cell::<u64>();
    rt.run(move |wk| tree_sum(wk, 6, ow));
    assert_eq!(or.expect(), 64);
}

#[test]
fn builder_sets_policy_and_ring_capacity() {
    let policy = SchedPolicy {
        spawn: SpawnOrder::ParentFirst,
        ..SchedPolicy::default()
    };
    let rt = Runtime::builder(2)
        .policy(policy)
        .trace_ring_cap(64)
        .build();
    assert_eq!(rt.default_policy(), policy);
    let (ow, or) = cell::<u64>();
    rt.run(move |wk| tree_sum(wk, 5, ow));
    assert_eq!(or.expect(), 32);
}

#[cfg(feature = "trace")]
mod traced {
    use super::*;

    #[test]
    fn tiny_ring_reports_drops_in_stats_and_export() {
        // A 4-event ring cannot hold a 2^7-task session: the exact
        // counters stay exact, the drop counter owns the difference, and
        // the Perfetto export says so in its metadata.
        let rt = Runtime::builder(1).trace_ring_cap(4).build();
        let (ow, or) = cell::<u64>();
        let stats = rt.run_stats(move |wk| tree_sum(wk, 7, ow));
        assert_eq!(or.expect(), 128);
        let trace = stats.trace.as_ref().unwrap();
        assert_eq!(
            trace.executed(),
            stats.tasks_executed,
            "counters never drop"
        );
        assert!(trace.dropped() > 0, "a 4-event ring must overflow");
        let timeline = rt.take_last_trace().unwrap();
        assert_eq!(timeline.ring_capacity, 4);
        let json = timeline.to_chrome_trace();
        assert!(json.contains("\"ringCapacity\":4"));
        assert!(json.contains(&format!("\"droppedEvents\":{}", timeline.dropped())));
        assert!(json.contains(&format!(
            "\"policy\":\"{}\"",
            SchedPolicy::default().label()
        )));
    }

    #[test]
    fn steal_half_moves_batches_on_a_wide_pool() {
        // Under steal-half with parent-first spawning, a fan-out of
        // thousands of tasks piles onto the root's deque and thieves
        // drain it in batches; the steal *count* (tasks obtained by
        // stealing) still reconciles with RunStats.
        let policy = SchedPolicy {
            steal: StealKind::Half,
            spawn: SpawnOrder::ParentFirst,
            ..SchedPolicy::default()
        };
        let rt = Runtime::with_policy(4, policy);
        for _ in 0..20 {
            let stats = rt.run_stats(|wk| {
                for _ in 0..4000 {
                    wk.spawn(|_| std::thread::yield_now());
                }
            });
            let trace = stats.trace.as_ref().unwrap();
            assert_eq!(trace.steals(), stats.steals);
            assert_eq!(trace.policy, policy.label());
            if stats.steals > 0 {
                return;
            }
        }
        panic!("no steal in 20 fan-out sessions under steal-half at t=4");
    }

    #[test]
    fn mailbox_resume_records_matched_suspend_resume_pairs() {
        let policy = SchedPolicy {
            resume: ResumePlace::Mailbox,
            ..SchedPolicy::default()
        };
        const N: usize = 25;
        let rt = Runtime::with_policy(1, policy);
        let stats = rt.run_stats(|wk| {
            for i in 0..N {
                let (w, r) = cell::<usize>();
                r.touch(wk, move |v, _| assert_eq!(v, i));
                wk.spawn(move |wk| w.fulfill(wk, i));
            }
        });
        let trace = stats.trace.as_ref().unwrap();
        assert_eq!(trace.suspends(), N as u64);
        assert_eq!(trace.resumes(), N as u64);
        assert_eq!(trace.policy, policy.label());
    }

    #[test]
    fn inline_resume_executes_fewer_parked_handoffs() {
        // Inline resume runs the waiter in the fulfiller's stack frame:
        // the accounting must still record the resume and the exec, and
        // suspend/resume pairs must match.
        let policy = SchedPolicy {
            resume: ResumePlace::Inline,
            ..SchedPolicy::default()
        };
        let rt = Runtime::with_policy(2, policy);
        let stats = rt.run_stats(|wk| {
            for i in 0..30usize {
                let (w, r) = cell::<usize>();
                r.touch(wk, move |v, _| assert_eq!(v, i));
                wk.spawn(move |wk| w.fulfill(wk, i));
            }
        });
        let trace = stats.trace.as_ref().unwrap();
        assert_eq!(trace.resumes(), trace.suspends());
        assert_eq!(trace.executed(), stats.tasks_executed);
        assert_eq!(
            stats.tasks_executed - stats.suspensions,
            stats.spawns + 1,
            "liveness identity holds under inline resume"
        );
    }
}
