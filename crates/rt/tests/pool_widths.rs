//! The scheduler's accounting contract, at every pool width: a fork
//! counts as the same spawns and executed tasks whether its child ran
//! inline or was pushed, so `spawns` depends on the program alone, and
//! the liveness identity `tasks_executed - suspensions == spawns + 1`
//! holds exactly (each task runs once; a resumed continuation re-enters
//! the executed count through its suspension). Raw `tasks_executed` may
//! differ between widths because suspension *counts* depend on
//! scheduling (a touch only suspends if it loses its race with the
//! fulfill).

use pf_rt::{cell, take_last_trace, FutWrite, Runtime, Session, TraceKind, Worker};

/// A binary fork tree of depth `d` summing 2^d leaf ones through cells:
/// exercises inline and pushed children, stealing, suspension, and resume in one
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
/// and fulfilling its successor: every stage runs before the first cell
/// is written, so every stage suspends and is resumed by its
/// predecessor's write.
fn chain_sum(rt: &Runtime, n: u64) -> u64 {
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
    rt.run(move |wk| {
        for st in stages {
            wk.spawn(move |wk| st(wk));
        }
        w0.fulfill(wk, 0);
    });
    last.expect()
}

#[test]
fn every_pool_width_computes_the_same_tree_sum() {
    const DEPTH: u32 = 9;
    let mut pinned_spawns: Option<u64> = None;
    for threads in [1usize, 2, 4] {
        let rt = Runtime::new(threads);
        let (ow, or) = cell::<u64>();
        let stats = rt
            .try_run_session(Session::new().trace(), move |wk| tree_sum(wk, DEPTH, ow))
            .unwrap();
        assert_eq!(or.expect(), 1u64 << DEPTH, "t={threads}: wrong sum");
        let spawns = *pinned_spawns.get_or_insert(stats.spawns);
        assert_eq!(
            stats.spawns, spawns,
            "t={threads}: spawn count must not depend on the pool width"
        );
        assert_eq!(
            stats.tasks_executed - stats.suspensions,
            stats.spawns + 1,
            "t={threads}: tasks - suspensions == spawns + root"
        );
        let trace = take_last_trace().expect("a traced session leaves its record");
        assert_eq!(trace.total(TraceKind::Spawn), stats.spawns);
        assert_eq!(trace.total(TraceKind::Exec), stats.tasks_executed);
        assert_eq!(trace.total(TraceKind::Suspend), stats.suspensions);
        assert_eq!(trace.total(TraceKind::Steal), stats.steals);
    }
}

#[test]
fn every_pool_width_completes_a_deep_chain() {
    // 3000 strictly sequential stages: nested inline runs must not blow
    // the stack (the depth guard falls back to enqueueing), and 3000
    // suspensions must resume without losing a wakeup — including on a
    // single worker.
    for threads in [1usize, 3] {
        let rt = Runtime::new(threads);
        assert_eq!(chain_sum(&rt, 3000), 3000, "t={threads}");
    }
}

mod traced {
    use super::*;

    #[test]
    fn tiny_ring_reports_drops_in_stats_and_export() {
        // A 2^14-task session on one worker records about six events per
        // task on one lane, overflowing the fixed 2^14-event ring: the
        // timeline's counts stay exact, the drop counter owns the
        // difference, and the Perfetto export says so in its metadata.
        const DEPTH: u32 = 14;
        let rt = Runtime::new(1);
        let (ow, or) = cell::<u64>();
        let stats = rt
            .try_run_session(Session::new().trace(), move |wk| tree_sum(wk, DEPTH, ow))
            .unwrap();
        assert_eq!(or.expect(), 1 << DEPTH);
        // Every node but the root is spawned. On one worker each fork's
        // pushed left child is still queued when its parent touches it, so
        // every internal node suspends once and is resumed once.
        let nodes = (1u64 << (DEPTH + 1)) - 1;
        let internal = nodes / 2;
        assert_eq!(stats.spawns, nodes - 1);
        assert_eq!(stats.suspensions, internal);
        assert_eq!(stats.tasks_executed, nodes + internal);
        let timeline = take_last_trace().unwrap();
        assert_eq!(
            timeline.total(TraceKind::Exec),
            stats.tasks_executed,
            "counts never drop"
        );
        assert_eq!(timeline.total(TraceKind::Spawn), stats.spawns);
        assert_eq!(timeline.total(TraceKind::Fulfill), nodes);
        assert!(timeline.dropped() > 0, "a 2^14-event ring must overflow");
        assert_eq!(timeline.ring_capacity, 1 << 14);
        let json = timeline.to_chrome_trace();
        assert!(json.contains("\"ringCapacity\":16384"));
        assert!(json.contains(&format!("\"droppedEvents\":{}", timeline.dropped())));
    }
}
