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
