//! Integration tests of the cost model across the whole algorithm suite:
//! global invariants (depth ≤ work, strictness preserves work, pipelining
//! never hurts depth, results fully materialize within the measured
//! depth) plus property-based correctness against oracles.

use pf_algs::Mode;
use pf_bench::analysis::{completion_time, walk_treap, walk_tree};
use pf_bench::sim::{
    run_diff, run_insert_many, run_intersect, run_merge, run_quicksort, run_rebalance, run_union,
};
use pf_tests::{entries, oracle_diff, oracle_merge, oracle_union};
use proptest::prelude::*;

/// Every algorithm, one canonical run: the global cost-model invariants.
#[test]
fn global_cost_invariants() {
    let a = entries((0..300).map(|i| 2 * i));
    let b = entries((0..300).map(|i| 3 * i));

    let checks: Vec<(&str, pf_core::CostReport, pf_core::CostReport)> = vec![
        {
            let ka: Vec<i64> = (0..256).map(|i| 2 * i).collect();
            let kb: Vec<i64> = (0..256).map(|i| 2 * i + 1).collect();
            let (_, p) = run_merge(&ka, &kb, Mode::Pipelined);
            let (_, s) = run_merge(&ka, &kb, Mode::Strict);
            ("merge", p, s)
        },
        {
            let (_, p) = run_union(&a, &b, Mode::Pipelined);
            let (_, s) = run_union(&a, &b, Mode::Strict);
            ("union", p, s)
        },
        {
            let (_, p) = run_diff(&a, &b, Mode::Pipelined);
            let (_, s) = run_diff(&a, &b, Mode::Strict);
            ("diff", p, s)
        },
        {
            let initial: Vec<i64> = (0..500).map(|i| 2 * i).collect();
            let newk: Vec<i64> = (0..100).map(|i| 10 * i + 1).collect();
            let (_, p) = run_insert_many(&initial, &newk, Mode::Pipelined);
            let (_, s) = run_insert_many(&initial, &newk, Mode::Strict);
            ("2-6 insert", p, s)
        },
    ];
    for (name, p, s) in checks {
        assert!(p.depth <= p.work, "{name}: depth must be <= work");
        assert_eq!(p.work, s.work, "{name}: strictness must preserve work");
        assert!(
            p.depth <= s.depth,
            "{name}: pipelining must never hurt depth"
        );
        assert!(p.is_linear(), "{name}: must be linear code");
        assert!(p.parallelism() >= 1.0, "{name}: parallelism sanity");
    }
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
    let (root, u) = run_union(&a, &b, Mode::Pipelined);
    assert!(root.get().sized().is_none(), "every step was pipelined");
    assert_eq!((u.work, u.depth, u.forks), (6968, 179, 897), "union");
    let (_, d) = run_diff(&a, &b, Mode::Pipelined);
    assert_eq!((d.work, d.depth, d.forks), (7515, 169, 964), "diff");
}

/// The result structure is fully written no later than the measured depth
/// (every cell's timestamp is within the report's depth).
#[test]
fn results_materialize_within_depth() {
    let ka: Vec<i64> = (0..500).map(|i| 2 * i).collect();
    let kb: Vec<i64> = (0..400).map(|i| 2 * i + 1).collect();
    let (root, c) = run_merge(&ka, &kb, Mode::Pipelined);
    let done = completion_time(|f| walk_tree(&root, 0, f));
    assert!(done <= c.depth, "completion {done} > depth {}", c.depth);

    let a = entries(0..400);
    let b = entries(200..700);
    let (root, c) = run_union(&a, &b, Mode::Pipelined);
    let done = completion_time(|f| walk_treap(&root, 0, f));
    assert!(done <= c.depth);
}

/// Strict variants produce byte-identical structures, just later.
#[test]
fn strict_produces_identical_structure() {
    let a = entries((0..311).map(|i| 7 * i));
    let b = entries((0..293).map(|i| 5 * i));
    let (rp, _) = run_union(&a, &b, Mode::Pipelined);
    let (rs, _) = run_union(&a, &b, Mode::Strict);
    assert_eq!(rp.get().to_sorted_vec(), rs.get().to_sorted_vec());
    assert_eq!(rp.get().height(), rs.get().height());
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
        let (root, c) = run_merge(&av, &bv, Mode::Pipelined);
        let t = root.get();
        prop_assert!(t.is_search_tree());
        prop_assert_eq!(t.to_sorted_vec(), oracle_merge(&av, &bv));
        prop_assert!(c.is_linear());
    }

    #[test]
    fn union_matches_oracle(
        a in proptest::collection::btree_set(-1000i64..1000, 0..120),
        b in proptest::collection::btree_set(-1000i64..1000, 0..120),
    ) {
        let ea = entries(a);
        let eb = entries(b);
        let (root, c) = run_union(&ea, &eb, Mode::Pipelined);
        let t = root.get();
        prop_assert!(t.check_invariants());
        prop_assert_eq!(t.to_sorted_vec(), oracle_union(&ea, &eb));
        prop_assert!(c.is_linear());
    }

    #[test]
    fn diff_matches_oracle(
        a in proptest::collection::btree_set(-1000i64..1000, 0..120),
        b in proptest::collection::btree_set(-1000i64..1000, 0..120),
    ) {
        let ea = entries(a);
        let eb = entries(b);
        let (root, c) = run_diff(&ea, &eb, Mode::Pipelined);
        let t = root.get();
        prop_assert!(t.check_invariants());
        prop_assert_eq!(t.to_sorted_vec(), oracle_diff(&ea, &eb));
        prop_assert!(c.is_linear());
    }

    #[test]
    fn intersect_matches_oracle(
        a in proptest::collection::btree_set(-1000i64..1000, 0..120),
        b in proptest::collection::btree_set(-1000i64..1000, 0..120),
    ) {
        use std::collections::BTreeSet;
        let expect: Vec<i64> = a.intersection(&b).copied().collect::<BTreeSet<_>>()
            .into_iter().collect();
        let ea = entries(a);
        let eb = entries(b);
        let (root, c) = run_intersect(&ea, &eb, Mode::Pipelined);
        let t = root.get();
        prop_assert!(t.check_invariants());
        prop_assert_eq!(t.to_sorted_vec(), expect);
        prop_assert!(c.is_linear());
    }

    #[test]
    fn union_then_diff_roundtrip(
        a in proptest::collection::btree_set(0i64..500, 1..80),
        b in proptest::collection::btree_set(500i64..1000, 1..80),
    ) {
        // (a ∪ b) \ b == a when a and b are disjoint.
        let ea = entries(a.iter().copied());
        let eb = entries(b);
        let (u, _) = run_union(&ea, &eb, Mode::Pipelined);
        let union_entries: Vec<_> = entries(u.get().to_sorted_vec());
        let (d, _) = run_diff(&union_entries, &eb, Mode::Pipelined);
        prop_assert_eq!(d.get().to_sorted_vec(), a.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn two_six_insert_matches_oracle(
        initial in proptest::collection::btree_set(0i64..4000, 0..250),
        newk in proptest::collection::btree_set(0i64..4000, 0..120),
    ) {
        let iv: Vec<i64> = initial.iter().copied().collect();
        let nv: Vec<i64> = newk.iter().copied().collect();
        let (root, c) = run_insert_many(&iv, &nv, Mode::Pipelined);
        let t = root.get();
        prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        let all: Vec<i64> = initial.union(&newk).copied().collect();
        prop_assert_eq!(t.to_sorted_vec(), all);
        prop_assert!(c.is_linear());
    }

    #[test]
    fn quicksort_sorts_anything(mut keys in proptest::collection::vec(-500i64..500, 0..200)) {
        let (l, _) = run_quicksort(&keys, Mode::Pipelined);
        keys.sort_unstable();
        prop_assert_eq!(l.collect_vec(), keys);
    }

    #[test]
    fn rebalance_balances_anything(keys in proptest::collection::btree_set(-5000i64..5000, 0..200)) {
        let kv: Vec<i64> = keys.iter().copied().collect();
        let (root, _) = run_rebalance(&kv, Mode::Pipelined);
        let t = root.get();
        prop_assert!(t.is_search_tree());
        prop_assert_eq!(t.to_sorted_vec(), kv.clone());
        if !kv.is_empty() {
            let perfect = (kv.len() as f64).log2().floor() as usize + 1;
            prop_assert!(t.height() <= perfect, "height {} > {perfect}", t.height());
        }
    }
}
