//! Property-based tests of the tree algorithms on the simulator, beyond
//! oracle equality (that lives in the workspace integration tests):
//! structural depth bounds and inverse-operation round trips on random
//! inputs.

use pf_algs::plain::{splitmix64, Entry, PlainTreap};
use pf_algs::start::{merge_on, union_on};
use pf_algs::treap::{join, splitm, Treap};
use pf_algs::tree::Tree;
use pf_algs::two_six::level_arrays;
use pf_algs::Mode;
use pf_core::{CostReport, Ctx, Fut, Sim};
use proptest::prelude::*;

fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
    keys.into_iter()
        .map(|k| (k, splitmix64(k as u64 ^ 0x1234)))
        .collect()
}

fn run_merge(a: &[i64], b: &[i64], mode: Mode) -> (Fut<Tree<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| merge_on(ctx, a, b, mode))
}

fn run_union(a: &[Entry<i64>], b: &[Entry<i64>]) -> Fut<Treap<Ctx, i64>> {
    Sim::new().run(|ctx| union_on(ctx, a, b, Mode::Pipelined)).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Thm 3.1 depth bound with an explicit constant: pipelined merge
    /// depth ≤ c·(lg n + lg m) + c for the fitted c = 16 (the measured
    /// slope is 9; 16 leaves randomization slack).
    #[test]
    fn merge_depth_bound_explicit(lg_n in 4u32..11, lg_m in 2u32..11) {
        let n = 1usize << lg_n;
        let m = 1usize << lg_m;
        let a: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
        let b: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
        let (_, c) = run_merge(&a, &b, Mode::Pipelined);
        let bound = 16 * (lg_n as u64 + lg_m as u64) + 16;
        prop_assert!(c.depth <= bound, "depth {} > {bound}", c.depth);
    }

    /// splitm then join is the identity on treaps (when the splitter is
    /// absent), preserving shape exactly.
    #[test]
    fn splitm_join_roundtrip(keys in proptest::collection::btree_set(0i64..1000, 1..150),
                             splitter in 0i64..1000) {
        let e = entries(keys.iter().copied().filter(|k| *k != splitter));
        let ((orig_keys, orig_h, joined), _) = Sim::new().run(|ctx| {
            let t = Treap::from_entries(ctx, &e);
            let (ok, oh) = (t.to_sorted_vec(), t.height());
            let (lp, lf) = ctx.promise();
            let (rp, rf) = ctx.promise();
            let (fp, ff) = ctx.promise();
            splitm(ctx, splitter, t, lp, rp, fp);
            assert!(!ff.get());
            let lv = ctx.touch(&lf);
            let rv = ctx.touch(&rf);
            let (jp, jf) = ctx.promise();
            join(ctx, lv, rv, jp);
            (ok, oh, jf)
        });
        let j = joined.get();
        prop_assert!(j.check_invariants());
        prop_assert_eq!(j.to_sorted_vec(), orig_keys);
        prop_assert_eq!(j.height(), orig_h, "split+join must reconstruct the exact shape");
    }

    /// Union agrees with the sequential treap in shape, not just keys,
    /// for arbitrary priority assignments (not only hashed ones).
    #[test]
    fn union_shape_matches_sequential_with_random_prios(
        pairs_a in proptest::collection::btree_map(0i64..500, 0u64..1_000_000, 1..100),
        pairs_b in proptest::collection::btree_map(0i64..500, 0u64..1_000_000, 1..100),
    ) {
        let a: Vec<Entry<i64>> = pairs_a.into_iter().collect();
        let b: Vec<Entry<i64>> = pairs_b.into_iter().collect();
        let root = run_union(&a, &b);
        let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
        prop_assert_eq!(root.get().to_sorted_vec(), PlainTreap::to_sorted_vec(&pu));
        prop_assert_eq!(root.get().height(), PlainTreap::height(&pu));
    }

    /// The wave decomposition partitions the keys and every wave is
    /// separated by earlier waves (the §3.4 well-separation invariant).
    #[test]
    fn level_arrays_partition_and_separate(keys in proptest::collection::btree_set(-10_000i64..10_000, 0..400)) {
        let kv: Vec<i64> = keys.iter().copied().collect();
        let waves = level_arrays(&kv);
        let mut all: Vec<i64> = waves.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, kv.clone(), "waves must partition the keys");
        let mut earlier: Vec<i64> = Vec::new();
        for w in &waves {
            prop_assert!(w.windows(2).all(|p| p[0] < p[1]));
            for pair in w.windows(2) {
                prop_assert!(
                    earlier.iter().any(|k| *k > pair[0] && *k < pair[1]),
                    "wave keys {} and {} not separated",
                    pair[0],
                    pair[1]
                );
            }
            earlier.extend_from_slice(w);
        }
    }

    /// Merging with an empty side is the identity (both sides).
    #[test]
    fn merge_identity_element(keys in proptest::collection::btree_set(0i64..1000, 0..100)) {
        let kv: Vec<i64> = keys.into_iter().collect();
        let empty: Vec<i64> = vec![];
        let (r1, _) = run_merge(&kv, &empty, Mode::Pipelined);
        prop_assert_eq!(r1.get().to_sorted_vec(), kv.clone());
        let (r2, _) = run_merge(&empty, &kv, Mode::Pipelined);
        prop_assert_eq!(r2.get().to_sorted_vec(), kv);
    }

    /// Result tree of merge never exceeds the sum of the input heights
    /// (the paper's observation motivating the rebalance pass).
    #[test]
    fn merge_height_additive_bound(lg_n in 3u32..9, lg_m in 3u32..9) {
        let n = 1usize << lg_n;
        let m = 1usize << lg_m;
        let a: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
        let b: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
        let (root, _) = run_merge(&a, &b, Mode::Pipelined);
        let (ha, hb) = Sim::new().run(|ctx| {
            (
                Tree::from_sorted(ctx, &a).height(),
                Tree::from_sorted(ctx, &b).height(),
            )
        }).0;
        prop_assert!(root.get().height() <= ha + hb, "h {} > {} + {}", root.get().height(), ha, hb);
    }
}
