//! §5 (conclusions) — the pipelined tree mergesort the paper conjectures
//! about: "We conjecture that a simple mergesort based on the merge in
//! Section 3.1 has expected depth (averaged over all possible input
//! orderings) close to O(lg n), perhaps O(lg n lg lg n). This algorithm
//! has three levels of pipelining."
//!
//! [`msort`] recursively sorts the two halves of the input (as futures)
//! and merges the resulting trees with the pipelined
//! [`merge`] — so merges at different levels of the recursion tree
//! overlap, exactly like Cole's mergesort but managed implicitly.
//! Experiment E13 measures the depth growth empirically on the simulator
//! and, since the text is generic over [`PipeBackend`], the wall clock on
//! the real runtime — the futures half of the E18 head-to-head against
//! Cole's hand-built cascade.

use pf_backend::PipeBackend;

use crate::merge::merge;
use crate::tree::{Tree, TreeWr};
use crate::{Key, Mode};

/// Sort `keys` (distinct, in any order) into a BST by recursive halving
/// and pipelined merging.
pub fn msort<B: PipeBackend, K: Key>(bk: &B, keys: Vec<K>, out: TreeWr<B, K>, mode: Mode) {
    bk.tick(1);
    match keys.len() {
        0 => bk.fulfill(out, Tree::Leaf),
        1 => {
            let lf = bk.ready(Tree::Leaf);
            let rf = bk.ready(Tree::Leaf);
            let k = keys.into_iter().next().expect("len checked");
            bk.fulfill(out, Tree::node(k, lf, rf));
        }
        n => {
            let mut a = keys;
            let b = a.split_off(n / 2);
            let (pa, fa) = bk.cell();
            bk.fork(move |bk| msort(bk, a, pa, mode));
            let (pb, fb) = bk.cell();
            bk.fork(move |bk| msort(bk, b, pb, mode));
            merge(bk, fa, fb, out, mode);
        }
    }
}

/// Mergesort variant that **rebalances** the merged tree at every level of
/// the recursion (using the §3.1 pipelined rebalancer). Merge outputs can
/// reach height lg a + lg b, and those heights feed the next merge's
/// depth; rebalancing between levels keeps every merge input at the
/// optimal height — an ablation for the E13 conjecture measurement.
pub fn msort_balanced<B: PipeBackend, K: Key>(bk: &B, keys: Vec<K>, out: TreeWr<B, K>, mode: Mode) {
    bk.tick(1);
    match keys.len() {
        0 => bk.fulfill(out, Tree::Leaf),
        1 => {
            let lf = bk.ready(Tree::Leaf);
            let rf = bk.ready(Tree::Leaf);
            let k = keys.into_iter().next().expect("len checked");
            bk.fulfill(out, Tree::node(k, lf, rf));
        }
        n => {
            let mut a = keys;
            let b = a.split_off(n / 2);
            let (pa, fa) = bk.cell();
            bk.fork(move |bk| msort_balanced(bk, a, pa, mode));
            let (pb, fb) = bk.cell();
            bk.fork(move |bk| msort_balanced(bk, b, pb, mode));
            let (mp, mf) = bk.cell();
            merge(bk, fa, fb, mp, mode);
            crate::rebalance::rebalance(bk, mf, out, mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start::msort_on;
    use crate::testkit::{run_msort, shuffled};
    use pf_backend::Seq;

    #[test]
    fn seq_oracle_sorts() {
        for n in [0usize, 1, 2, 5, 64, 200] {
            // Deterministic scramble: odd-stride permutation of 0..n.
            let keys: Vec<i64> = (0..n as i64).map(|i| (i * 37) % n.max(1) as i64).collect();
            let mut keys: Vec<i64> = {
                let mut seen = std::collections::BTreeSet::new();
                keys.into_iter().filter(|k| seen.insert(*k)).collect()
            };
            keys.reverse();
            let t = Seq::run(|bk| msort_on(bk, &keys, false, Mode::Pipelined).expect());
            assert!(t.is_search_tree());
            assert_eq!(t.to_sorted_vec().len(), keys.len(), "n={n}");
        }
    }

    #[test]
    fn seq_oracle_balanced_height() {
        let keys: Vec<i64> = (0..200).rev().collect();
        let t = Seq::run(|bk| msort_on(bk, &keys, true, Mode::Pipelined).expect());
        assert!(t.is_search_tree());
        assert_eq!(t.to_sorted_vec(), (0..200).collect::<Vec<_>>());
        assert!(t.height() <= 8, "height {}", t.height());
    }

    #[test]
    fn sorts_correctly() {
        for n in [0usize, 1, 2, 5, 64, 257] {
            let keys = shuffled(n, n as u64);
            let (root, _) = run_msort(&keys, false, Mode::Pipelined);
            let t = root.get();
            assert!(t.is_search_tree());
            assert_eq!(t.to_sorted_vec(), (0..n as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pipelined_shallower_than_strict() {
        let keys = shuffled(512, 11);
        let (_, cp) = run_msort(&keys, false, Mode::Pipelined);
        let (_, cs) = run_msort(&keys, false, Mode::Strict);
        assert!(
            cs.depth > cp.depth,
            "pipelining should reduce mergesort depth: {} vs {}",
            cs.depth,
            cp.depth
        );
    }

    #[test]
    fn depth_grows_slowly() {
        // The conjecture: close to O(lg n). At minimum, doubling n must add
        // far less than a multiplicative factor.
        let d = |n: usize| run_msort(&shuffled(n, 3), false, Mode::Pipelined).1.depth as f64;
        let (d1, d2) = (d(512), d(2048));
        assert!(
            d2 / d1 < 2.0,
            "depth should be strongly sublinear: {d1} -> {d2}"
        );
    }

    #[test]
    fn balanced_variant_sorts_and_is_balanced() {
        for n in [0usize, 1, 2, 33, 200] {
            let keys = shuffled(n, 5);
            let (root, c) = run_msort(&keys, true, Mode::Pipelined);
            let t = root.get();
            assert!(t.is_search_tree());
            assert_eq!(t.to_sorted_vec(), (0..n as i64).collect::<Vec<_>>());
            if n > 0 {
                let perfect = (n as f64).log2().floor() as usize + 1;
                assert!(t.height() <= perfect, "height {} n {}", t.height(), n);
            }
            assert!(c.is_linear());
        }
    }

    #[test]
    fn balanced_variant_produces_shallower_result_tree() {
        let keys = shuffled(1 << 9, 13);
        let (plain, _) = run_msort(&keys, false, Mode::Pipelined);
        let (bal, _) = run_msort(&keys, true, Mode::Pipelined);
        assert!(bal.get().height() <= plain.get().height());
        assert_eq!(bal.get().height(), 10);
    }

    #[test]
    fn work_n_log_n() {
        let w = |n: usize| run_msort(&shuffled(n, 3), false, Mode::Pipelined).1.work as f64;
        let ratio = w(2048) / w(512);
        // 4x n with lg factor 11/9 ⇒ ≈ 4.9; allow generous range.
        assert!((3.5..7.0).contains(&ratio), "work ratio {ratio}");
    }
}
