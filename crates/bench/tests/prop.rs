//! The timestamp lemma as a property: on random inputs the union's result
//! is materialized within the measured depth and admits a bounded τ
//! constant (Definition 1) — checked with this crate's cell walkers. The
//! algorithm suite's own property tests are pf-algs' `tests/prop.rs` and
//! the workspace `tests/it_cost_model.rs`.

use pf_algs::Mode;
use pf_bench::analysis::{collect, completion_time, min_tau_ks, walk_treap};
use pf_bench::sim::run_union;
use pf_bench::workloads::entries_with_random_prios;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The union result's completion time equals the computation depth
    /// (the last action of a union IS a tree write), and every node's
    /// timestamp admits a bounded τ constant.
    #[test]
    fn union_timestamps_admit_tau(keys_a in proptest::collection::btree_set(0i64..2000, 1..200),
                                  keys_b in proptest::collection::btree_set(0i64..2000, 1..200)) {
        let a = entries_with_random_prios(&keys_a.into_iter().collect::<Vec<_>>(), 1);
        let b = entries_with_random_prios(&keys_b.into_iter().collect::<Vec<_>>(), 2);
        let (root, c) = run_union(&a, &b, Mode::Pipelined);
        let done = completion_time(|f| walk_treap(&root, 0, f));
        prop_assert!(done <= c.depth);
        let cells = collect(|f| walk_treap(&root, 0, f));
        // τ anchored at a quarter of the depth: a valid bounded ks exists.
        let ks = min_tau_ks(&cells, c.depth / 4 + 1).unwrap_or(f64::INFINITY);
        prop_assert!(ks.is_finite() && ks <= 64.0, "ks = {ks}");
    }
}
