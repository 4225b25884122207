//! The timestamp lemma as a property: on random inputs the union's result
//! is materialized within the measured depth and admits a bounded τ
//! constant (Definition 1) — checked with this crate's cell walkers. The
//! other property tests of the algorithms are pf-algs' `tests/prop.rs`.

use pf_algs::plain::{splitmix64, Entry};
use pf_algs::Mode;
use pf_bench::analysis::{collect, completion_time, min_tau_ks, walk_treap};
use pf_bench::sim::run_union;
use proptest::prelude::*;

fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
    keys.into_iter()
        .map(|k| (k, splitmix64(k as u64 ^ 0x1234)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The union result's completion time equals the computation depth
    /// (the last action of a union IS a tree write), and every node's
    /// timestamp admits a bounded τ constant.
    #[test]
    fn union_timestamps_admit_tau(keys_a in proptest::collection::btree_set(0i64..2000, 1..200),
                                  keys_b in proptest::collection::btree_set(0i64..2000, 1..200)) {
        let a = entries(keys_a);
        let b = entries(keys_b);
        let (root, c) = run_union(&a, &b, Mode::Pipelined);
        let done = completion_time(|f| walk_treap(&root, 0, f));
        prop_assert!(done <= c.depth);
        let cells = collect(|f| walk_treap(&root, 0, f));
        // τ anchored at a quarter of the depth: a valid bounded ks exists.
        let ks = min_tau_ks(&cells, c.depth / 4 + 1).unwrap_or(f64::INFINITY);
        prop_assert!(ks.is_finite() && ks <= 64.0, "ks = {ks}");
    }
}
