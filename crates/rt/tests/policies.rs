//! Both-spawn-orders behavior suite: child-first and parent-first must
//! produce the same algorithm answers with the same order-independent
//! accounting — the spawn order is a performance choice, never a
//! semantics one.
//!
//! The order-independent accounting contract: for a session whose root
//! closure is order-blind, `spawns` is identical under both orders (every
//! spawned task is counted once whether it was pushed or run inline),
//! and the liveness identity `tasks_executed - suspensions == spawns + 1`
//! holds (each task runs once; a resumed continuation re-enters the
//! executed count through its suspension). Raw `tasks_executed` may
//! legitimately differ between the orders because suspension *counts*
//! depend on scheduling (a touch only suspends if it loses its race with
//! the fulfill).

use pf_rt::{cell, FutWrite, Runtime, Session, SpawnOrder, Worker};

const ORDERS: [SpawnOrder; 2] = [SpawnOrder::ChildFirst, SpawnOrder::ParentFirst];

/// A binary fork tree of depth `d` summing 2^d leaf ones through cells:
/// exercises spawn order, stealing, suspension, and resume in one
/// deterministic-fates workload.
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
/// and fulfilling its successor: under parent-first every stage suspends
/// and is resumed by its predecessor's write.
fn chain_sum(rt: &Runtime, order: SpawnOrder, n: u64) -> u64 {
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
    rt.try_run_session(Session::new().spawn_order(order), move |wk| {
        for st in stages {
            wk.spawn(move |wk| st(wk));
        }
        w0.fulfill(wk, 0);
    })
    .expect("chain session must complete under either spawn order");
    last.expect()
}

#[test]
fn every_policy_computes_the_same_tree_sum() {
    const DEPTH: u32 = 9;
    for threads in [1usize, 4] {
        let mut pinned_spawns: Option<u64> = None;
        for order in ORDERS {
            let rt = Runtime::builder(threads).spawn_order(order).build();
            let (ow, or) = cell::<u64>();
            let stats = rt.run_stats(move |wk| tree_sum(wk, DEPTH, ow));
            assert_eq!(
                or.expect(),
                1u64 << DEPTH,
                "{} t={threads}: wrong sum",
                order.label()
            );
            // Order-independent accounting: spawns are identical, and
            // the liveness identity holds exactly.
            let spawns = *pinned_spawns.get_or_insert(stats.spawns);
            assert_eq!(
                stats.spawns,
                spawns,
                "{} t={threads}: spawn count must not depend on the spawn order",
                order.label()
            );
            assert_eq!(
                stats.tasks_executed - stats.suspensions,
                stats.spawns + 1,
                "{} t={threads}: tasks - suspensions == spawns + root",
                order.label()
            );
            #[cfg(feature = "trace")]
            {
                let trace = stats.trace.as_ref().expect("traced build");
                assert_eq!(trace.policy, order.label(), "stats carry the order tag");
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
    // 3000 strictly sequential stages: child-first must not blow the
    // stack (the depth guard falls back to enqueueing), and parent-first
    // must resume 3000 suspensions without losing a wakeup — including
    // on a single worker.
    for threads in [1usize, 3] {
        let rt = Runtime::new(threads);
        for order in ORDERS {
            assert_eq!(
                chain_sum(&rt, order, 3000),
                3000,
                "{} t={threads}",
                order.label()
            );
        }
    }
}

#[test]
fn session_policy_overrides_runtime_default() {
    let rt = Runtime::builder(1)
        .spawn_order(SpawnOrder::ParentFirst)
        .build();
    assert_eq!(rt.default_spawn_order(), SpawnOrder::ParentFirst);
    // One worker: the touch finds the cell written iff the child ran
    // first, so the suspension count says which order a session ran.
    fn write_then_touch(wk: &Worker) {
        let (w, r) = cell::<u64>();
        wk.spawn(move |wk| w.fulfill(wk, 1));
        r.touch(wk, |v, _| assert_eq!(v, 1));
    }
    // A session override wins for exactly that session.
    let child = rt
        .try_run_session(
            Session::new().spawn_order(SpawnOrder::ChildFirst),
            write_then_touch,
        )
        .unwrap();
    assert_eq!(child.suspensions, 0);
    // Runs without an override inherit the runtime default.
    assert_eq!(rt.run_stats(write_then_touch).suspensions, 1);
}

#[test]
fn builder_sets_policy_and_ring_capacity() {
    let rt = Runtime::builder(2)
        .spawn_order(SpawnOrder::ParentFirst)
        .trace_ring_cap(64)
        .build();
    assert_eq!(rt.default_spawn_order(), SpawnOrder::ParentFirst);
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
        assert!(json.contains(&format!("\"policy\":\"{}\"", SpawnOrder::default().label())));
    }
}
