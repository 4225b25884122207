//! Trace/replay cross-validation: Lemma 4.1 tied to the *real* runtime.
//!
//! For each workload (treap union, 2-6 tree multi-insert) we:
//!
//! 1. run it on the cost-model simulator with tracing and assert the
//!    p = ∞ greedy replay of the captured DAG finishes in exactly `depth`
//!    steps — Lemma 4.1's "greedy schedule achieves the depth bound"
//!    claim, checked on the actual trace rather than the closed form;
//! 2. run the *same* workload on the real work-stealing runtime across
//!    thread counts and assert it computes the identical structure with
//!    internally consistent scheduling stats.
//!
//! Together these tie the lemma to `pf_rt`: the DAG whose replay meets
//! the depth bound is demonstrably the DAG the runtime executes (same
//! algorithm, same input, same output shape), not an artifact of `Sim`.

use pf_algs::plain::PlainTreap;
use pf_algs::start::{insert_many_on, union_on};
use pf_algs::treap::union;
use pf_algs::PipeBackend;
use pf_core::Sim;
use pf_machine::{replay, Discipline, INFINITE_P};
use pf_rt::{cell, Runtime};
use pf_tests::{assert_oracles_tree, crusted, entries, fold, on_rt, ALL, M};

#[test]
fn treap_union_replay_meets_depth_bound_and_rt_agrees() {
    let a = entries((0..300).map(|i| 3 * i));
    let b = entries((0..300).map(|i| 2 * i));

    // Simulator, traced.
    let (of, report, trace) = Sim::new().run_traced(|ctx| union_on(ctx, &a, &b, M));
    let pa = PlainTreap::from_entries(&a);
    let want = fold(pa.clone(), &[], &b);
    assert_oracles_tree(&of.get(), &want, "the simulator");

    // Lemma 4.1 at p = ∞ on the captured DAG: exactly `depth` steps, all
    // work executed, every suspension reactivated.
    let stats = replay(&trace, INFINITE_P, Discipline::Stack);
    assert_eq!(
        stats.steps, report.depth,
        "p = ∞ replay must take exactly depth steps"
    );
    assert_eq!(stats.work_executed, report.work);
    assert_eq!(stats.suspensions, stats.reactivations);

    // Real runtime on the same input: the same tree, and stats that
    // account for every executed closure. The operands are unsized, so
    // pf-rt takes the paper's step throughout.
    let pb = PlainTreap::from_entries(&b);
    for threads in [1, 2, 4] {
        let (op, of) = cell();
        let (pa, pb) = (pa.clone(), pb.clone());
        let rstats = Runtime::new(threads).run_stats(move |wk| {
            let (ta, tb) = (
                wk.input(crusted(wk, &pa, ALL)),
                wk.input(crusted(wk, &pb, ALL)),
            );
            union(wk, ta, tb, op, M)
        });
        assert_oracles_tree(&of.expect(), &want, &format!("threads={threads}"));
        assert_eq!(
            rstats.tasks_executed,
            1 + rstats.spawns + rstats.suspensions,
            "threads={threads}"
        );
        // The runtime executes the simulator's fork structure verbatim
        // (spawning is data-determined, not schedule-determined), and
        // every runtime suspension is a touch that parked — so the
        // trace's touch count bounds it regardless of interleaving.
        assert_eq!(rstats.spawns, report.forks, "threads={threads}");
        assert!(rstats.suspensions <= report.touches, "threads={threads}");
    }
}

#[test]
fn two_six_insert_replay_meets_depth_bound_and_rt_agrees() {
    let initial: Vec<i64> = (0..200).map(|i| 2 * i).collect();
    let keys: Vec<i64> = (0..150).map(|i| 2 * i + 1).collect();

    let (ft, report, trace) = Sim::new().run_traced(|ctx| insert_many_on(ctx, &initial, &keys, M));
    let model = ft.get();
    model.validate().expect("sim 2-6 tree invariants");
    let model_keys = model.to_sorted_vec();

    let stats = replay(&trace, INFINITE_P, Discipline::Stack);
    assert_eq!(
        stats.steps, report.depth,
        "p = ∞ replay must take exactly depth steps"
    );
    assert_eq!(stats.work_executed, report.work);
    assert_eq!(stats.suspensions, stats.reactivations);

    for threads in [1, 3] {
        let (i3, k3) = (initial.clone(), keys.clone());
        let (t, rstats) = on_rt(&Runtime::new(threads), move |wk| {
            insert_many_on(wk, &i3, &k3, M)
        });
        t.validate()
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        assert_eq!(t.to_sorted_vec(), model_keys, "threads={threads}");
        assert_eq!(
            rstats.tasks_executed,
            1 + rstats.spawns + rstats.suspensions,
            "threads={threads}"
        );
        // Same structural tie as the union test.
        assert_eq!(rstats.spawns, report.forks, "threads={threads}");
        assert!(rstats.suspensions <= report.touches, "threads={threads}");
    }
}
