//! The starters: one function per algorithm that builds its operands as
//! inputs of engine `B` ([`PipeBackend::input`] — free of charge on the
//! simulator), calls the algorithm once and returns the result future.
//! Every test, experiment table and example that runs an algorithm "on
//! these keys" reaches it through here, at its own engine: inside
//! `Sim::new().run(..)` for exact work and depth (or `run_traced` /
//! `run_profiled`), inside `Seq::run(..)` for the oracle, inside a pf-rt
//! session for real threads. The future is written once the run has
//! quiesced; the trees' `expect` reads it on any engine.

use crate::list::{consume, produce, qs, List, ListFut};
use crate::merge::merge;
use crate::mergesort::{msort, msort_balanced};
use crate::plain::Entry;
use crate::rebalance::{merge_balanced, rebalance, unbalanced_from};
use crate::treap::{diff, union, Treap, TreapFut};
use crate::tree::{Tree, TreeFut};
use crate::two_six::{insert_many, TsFut, TsTree};
use crate::{Key, Mode, PipeBackend};

/// `union` of the treaps of two entry sets.
pub fn union_on<B: PipeBackend, K: Key>(
    bk: &B,
    a: &[Entry<K>],
    b: &[Entry<K>],
    mode: Mode,
) -> TreapFut<B, K> {
    let fa = bk.input(Treap::from_entries(bk, a));
    let fb = bk.input(Treap::from_entries(bk, b));
    let (out, root) = bk.cell();
    union(bk, fa, fb, out, mode);
    root
}

/// `diff` (`a` minus `b`) of the treaps of two entry sets.
pub fn diff_on<B: PipeBackend, K: Key>(
    bk: &B,
    a: &[Entry<K>],
    b: &[Entry<K>],
    mode: Mode,
) -> TreapFut<B, K> {
    let fa = bk.input(Treap::from_entries(bk, a));
    let fb = bk.input(Treap::from_entries(bk, b));
    let (out, root) = bk.cell();
    diff(bk, fa, fb, out, mode);
    root
}

/// `merge` of the balanced trees of two sorted, disjoint key sets.
pub fn merge_on<B: PipeBackend, K: Key>(bk: &B, a: &[K], b: &[K], mode: Mode) -> TreeFut<B, K> {
    let fa = bk.input(Tree::from_sorted(bk, a));
    let fb = bk.input(Tree::from_sorted(bk, b));
    let (out, root) = bk.cell();
    merge(bk, fa, fb, out, mode);
    root
}

/// `merge_balanced` (merge, then rebalance) on [`merge_on`]'s inputs.
pub fn merge_balanced_on<B: PipeBackend, K: Key>(
    bk: &B,
    a: &[K],
    b: &[K],
    mode: Mode,
) -> TreeFut<B, K> {
    let fa = bk.input(Tree::from_sorted(bk, a));
    let fb = bk.input(Tree::from_sorted(bk, b));
    let (out, root) = bk.cell();
    merge_balanced(bk, fa, fb, out, mode);
    root
}

/// `rebalance` of the BST that inserting `keys` in order builds.
pub fn rebalance_on<B: PipeBackend, K: Key>(bk: &B, keys: &[K], mode: Mode) -> TreeFut<B, K> {
    let ft = bk.input(unbalanced_from(bk, keys));
    let (out, root) = bk.cell();
    rebalance(bk, ft, out, mode);
    root
}

/// The §3.4 bulk insert of `keys` into the 2-6 tree of `initial` (both
/// sorted and distinct).
pub fn insert_many_on<B: PipeBackend, K: Key>(
    bk: &B,
    initial: &[K],
    keys: &[K],
    mode: Mode,
) -> TsFut<B, K> {
    let ft = bk.input(TsTree::from_sorted(bk, initial));
    insert_many(bk, keys, ft, mode)
}

/// The §5 mergesort of `keys` into a BST, rebalancing the merged tree at
/// every level if `balanced`.
pub fn msort_on<B: PipeBackend, K: Key>(
    bk: &B,
    keys: &[K],
    balanced: bool,
    mode: Mode,
) -> TreeFut<B, K> {
    let (out, root) = bk.cell();
    if balanced {
        msort_balanced(bk, keys.to_vec(), out, mode);
    } else {
        msort(bk, keys.to_vec(), out, mode);
    }
    root
}

/// The Figure 2 quicksort of `keys`, as the future of the sorted list.
pub fn quicksort_on<B: PipeBackend, K: Key>(bk: &B, keys: &[K], mode: Mode) -> ListFut<B, K> {
    let (out, sorted) = bk.cell();
    qs(bk, List::from_slice(bk, keys), List::nil(), out, mode);
    sorted
}

/// The Figure 1 pipeline — `consume(produce(n))` — as the future of the
/// sum. In [`Mode::Strict`] the consumer sees the list once it is whole.
pub fn pipeline_on<B: PipeBackend>(bk: &B, n: u64, mode: Mode) -> B::Fut<u64> {
    let (lp, lf) = bk.cell();
    match mode {
        Mode::Pipelined => produce(bk, n, lp),
        Mode::Strict => bk.strict(move |bk| produce(bk, n, lp)),
    }
    let (sp, sum) = bk.cell();
    bk.touch(&lf, move |bk, l| consume(bk, l, 0, sp));
    sum
}
