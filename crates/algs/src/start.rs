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
use crate::treap::{diff, intersect, union, Treap, TreapFut};
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

/// `intersect` of the treaps of two entry sets.
pub fn intersect_on<B: PipeBackend, K: Key>(
    bk: &B,
    a: &[Entry<K>],
    b: &[Entry<K>],
    mode: Mode,
) -> TreapFut<B, K> {
    let fa = bk.input(Treap::from_entries(bk, a));
    let fb = bk.input(Treap::from_entries(bk, b));
    let (out, root) = bk.cell();
    intersect(bk, fa, fb, out, mode);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::PlainTreap;
    use crate::testkit::{entries, evens, odds, on_rt, shuffled};
    use crate::Seq;
    use pf_core::Sim;

    /// The sorted keys and the height — with a deterministic shape, the
    /// whole tree — of what `$start`, one starter call on `$bk` reading the
    /// inputs `$v`, builds on each engine: `Seq`, the simulator, pf-rt at
    /// one and two workers.
    macro_rules! on_every_engine {
        (($($v:ident),*), |$bk:ident| $start:expr) => {{
            let seq = Seq::run(|$bk| $start.expect());
            let sim = Sim::new().run(|$bk| $start).0.get();
            let mut got = vec![
                (seq.to_sorted_vec(), seq.height()),
                (sim.to_sorted_vec(), sim.height()),
            ];
            for threads in [1, 2] {
                $(let $v = $v.clone();)*
                let rt = on_rt(threads, move |$bk| $start);
                got.push((rt.to_sorted_vec(), rt.height()));
            }
            got
        }};
    }

    const M: Mode = Mode::Pipelined;

    #[test]
    fn treap_starters_build_the_plain_oracles_treap_on_every_engine() {
        let a = entries((0..300).map(|i| 3 * i));
        let b = entries((0..300).map(|i| 2 * i));
        let pa = || PlainTreap::from_entries(&a);
        let pb = || PlainTreap::from_entries(&b);
        let shape = |t| (PlainTreap::to_sorted_vec(&t), PlainTreap::height(&t));
        let want = shape(PlainTreap::union(pa(), pb()));
        for got in on_every_engine!((a, b), |bk| union_on(bk, &a, &b, M)) {
            assert_eq!(got, want, "union");
        }
        let want = shape(PlainTreap::diff(pa(), pb()));
        for got in on_every_engine!((a, b), |bk| diff_on(bk, &a, &b, M)) {
            assert_eq!(got, want, "diff");
        }
        let want = shape(PlainTreap::diff(pa(), PlainTreap::diff(pa(), pb())));
        for got in on_every_engine!((a, b), |bk| intersect_on(bk, &a, &b, M)) {
            assert_eq!(got, want, "intersect");
        }
    }

    #[test]
    fn tree_starters_agree_with_the_sorted_vec_on_every_engine() {
        let (a, b) = (evens(300), odds(200));
        let mut merged = [a.clone(), b.clone()].concat();
        merged.sort_unstable();
        for (keys, _) in on_every_engine!((a, b), |bk| merge_on(bk, &a, &b, M)) {
            assert_eq!(keys, merged, "merge");
        }
        for got in on_every_engine!((a, b), |bk| merge_balanced_on(bk, &a, &b, M)) {
            assert_eq!(got, (merged.clone(), 9), "500 keys balance to height 9");
        }
        let keys = shuffled(257, 3);
        let sorted: Vec<i64> = (0..257).collect();
        for got in on_every_engine!((keys), |bk| rebalance_on(bk, &keys, M)) {
            assert_eq!(got, (sorted.clone(), 9), "257 keys balance to height 9");
        }
        for balanced in [false, true] {
            for (got, _) in on_every_engine!((keys), |bk| msort_on(bk, &keys, balanced, M)) {
                assert_eq!(got, sorted, "msort balanced={balanced}");
            }
        }
    }

    #[test]
    fn two_six_starter_agrees_with_btreeset_on_every_engine() {
        let initial = evens(400);
        let newk: Vec<i64> = (0..100).map(|i| 8 * i + 1).collect();
        let mut want: std::collections::BTreeSet<i64> = initial.iter().copied().collect();
        want.extend(&newk);
        for (got, _) in
            on_every_engine!((initial, newk), |bk| insert_many_on(bk, &initial, &newk, M))
        {
            assert!(got.iter().eq(&want));
        }
    }
}
