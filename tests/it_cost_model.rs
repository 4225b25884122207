//! The simulator's side of the suite: every algorithm's cost rule
//! (strictness preserves work and the result, pipelining never hurts depth,
//! linear code), the exact counts the cost model is pinned to, results
//! fully materialised within the measured depth, and proptests holding its
//! results to the oracles through the suite's checks.

use pf_algs::start::{diff_on, insert_many_on, merge_on, union_on};
use pf_algs::treap::Treap;
use pf_algs::two_six::TsTree;
use pf_bench::analysis::{completion_time, walk_treap, walk_tree};
use pf_bench::sim::{run_diff, run_insert_many, run_merge, run_union};
use pf_core::Ctx;
use pf_tests::*;
use proptest::prelude::*;

/// Every algorithm, one canonical run: the global cost-model invariants.
#[test]
fn global_cost_invariants() {
    let (ka, kb) = (evens(256), odds(256));
    strict_vs_pipelined(|ctx, m| merge_on(ctx, &ka, &kb, m), shape);
    let a = entries((0..300).map(|i| 2 * i));
    let b = entries((0..300).map(|i| 3 * i));
    strict_vs_pipelined(|ctx, m| union_on(ctx, &a, &b, m), Treap::preorder);
    strict_vs_pipelined(|ctx, m| diff_on(ctx, &a, &b, m), Treap::preorder);
    let (initial, keys) = (evens(500), (0..100).map(|i| 10 * i + 1).collect::<Vec<_>>());
    strict_vs_pipelined(
        |ctx, m| insert_many_on(ctx, &initial, &keys, m),
        TsTree::to_sorted_vec,
    );
}

/// The cost model never cuts and never fuses: `Ctx::GRAIN` is 0, so the
/// constructor that builds complete, cell-free nodes on the other engines
/// (`run_union` / `run_diff` build their inputs with `Treap::from_entries`)
/// builds unsized nodes over cells here, and the paper's DAG is charged
/// action for action. The numbers are those of the commit before sizes
/// existed.
#[test]
fn the_cost_model_ignores_sizes() {
    let a = entries((0..300).map(|i| 2 * i));
    let b = entries((0..300).map(|i| 3 * i));
    let (root, u) = run_union(&a, &b, M);
    assert!(root.get().sized().is_none(), "every step was pipelined");
    assert_eq!((u.work, u.depth, u.forks), (6968, 179, 897), "union");
    let (_, d) = run_diff(&a, &b, M);
    assert_eq!((d.work, d.depth, d.forks), (7515, 169, 964), "diff");
}

/// The result structure is fully written no later than the measured depth
/// (every cell's timestamp is within the report's depth).
#[test]
fn results_materialize_within_depth() {
    let (root, c) = run_merge(&evens(500), &odds(400), M);
    let done = completion_time(|f| walk_tree(&root, 0, f));
    assert!(done <= c.depth, "completion {done} > depth {}", c.depth);

    let (root, c) = run_union(&entries(0..400), &entries(200..700), M);
    let done = completion_time(|f| walk_treap(&root, 0, f));
    assert!(done <= c.depth);
}

/// Strict variants produce identical structures, just later.
#[test]
fn strict_produces_identical_structure() {
    let a = entries((0..311).map(|i| 7 * i));
    let b = entries((0..293).map(|i| 5 * i));
    strict_vs_pipelined(|ctx, m| union_on(ctx, &a, &b, m), Treap::preorder);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_matches_oracle(
        mut a in proptest::collection::btree_set(-2000i64..2000, 0..150),
        b in proptest::collection::btree_set(-2000i64..2000, 0..150),
    ) {
        // Make the sets disjoint (merge's precondition).
        for k in &b { a.remove(k); }
        let av: Vec<i64> = a.into_iter().collect();
        let bv: Vec<i64> = b.into_iter().collect();
        check_merge::<Ctx, i64>(&av, &bv);
        prop_assert!(run_merge(&av, &bv, M).1.is_linear());
    }

    #[test]
    fn union_matches_oracle(
        a in proptest::collection::btree_set(-1000i64..1000, 0..120),
        b in proptest::collection::btree_set(-1000i64..1000, 0..120),
    ) {
        let (ea, eb) = (entries(a), entries(b));
        SetOps::new(&ea, &eb).check::<Ctx>(&[SetOp::Union], &BOTH_SIZED);
        prop_assert!(run_union(&ea, &eb, M).1.is_linear());
    }

    #[test]
    fn diff_matches_oracle(
        a in proptest::collection::btree_set(-1000i64..1000, 0..120),
        b in proptest::collection::btree_set(-1000i64..1000, 0..120),
    ) {
        let (ea, eb) = (entries(a), entries(b));
        SetOps::new(&ea, &eb).check::<Ctx>(&[SetOp::Diff], &BOTH_SIZED);
        prop_assert!(run_diff(&ea, &eb, M).1.is_linear());
    }

    #[test]
    fn union_then_diff_roundtrip(
        a in proptest::collection::btree_set(0i64..500, 1..80),
        b in proptest::collection::btree_set(500i64..1000, 1..80),
    ) {
        // (a ∪ b) \ b == a when a and b are disjoint.
        let ea = entries(a.iter().copied());
        let eb = entries(b);
        let (u, _) = run_union(&ea, &eb, M);
        let union_entries: Vec<_> = entries(u.get().to_sorted_vec());
        let (d, _) = run_diff(&union_entries, &eb, M);
        prop_assert_eq!(d.get().to_sorted_vec(), a.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn two_six_insert_matches_oracle(
        initial in proptest::collection::btree_set(0i64..4000, 0..250),
        newk in proptest::collection::btree_set(0i64..4000, 0..120),
    ) {
        let iv: Vec<i64> = initial.into_iter().collect();
        let nv: Vec<i64> = newk.into_iter().collect();
        check_insert26::<Ctx>(&iv, &nv);
        prop_assert!(run_insert_many(&iv, &nv, M).1.is_linear());
    }

    #[test]
    fn quicksort_sorts_anything(keys in proptest::collection::vec(-500i64..500, 0..200)) {
        check_quicksort::<Ctx>(&keys);
    }

    #[test]
    fn rebalance_balances_anything(keys in proptest::collection::btree_set(-5000i64..5000, 0..200)) {
        check_rebalance::<Ctx, i64>(&keys.into_iter().collect::<Vec<_>>());
    }
}
