//! Shared by the unit tests: deterministic inputs, and the one-call
//! simulator runs (`run_*`) the cost assertions are stated over — inputs
//! built with free pre-written cells, the algorithm called once, the
//! result future and the [`CostReport`] handed back.

use pf_core::{CostReport, Ctx, Fut, Sim};
use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::list::List;
use crate::plain::{splitmix64, Entry};
use crate::treap::{Treap, TreapFut, TreapWr};
use crate::tree::Tree;
use crate::two_six::TsTree;
use crate::Mode;

/// `0, 2, 4, …` (`n` keys).
pub fn evens(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| 2 * i).collect()
}

/// `1, 3, 5, …` (`n` keys).
pub fn odds(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| 2 * i + 1).collect()
}

/// `0..n` in a seeded random order.
pub fn shuffled(n: usize, seed: u64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    v.shuffle(&mut SmallRng::seed_from_u64(seed));
    v
}

/// Treap entries with priorities hashed from the keys.
pub fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
    keys.into_iter()
        .map(|k| (k, splitmix64(k as u64 ^ 0xABCD_EF01)))
        .collect()
}

/// Run `merge` on balanced trees of two sorted, disjoint key sets.
pub fn run_merge(a: &[i64], b: &[i64], mode: Mode) -> (Fut<Tree<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| {
        let (fa, fb) = tree_inputs(ctx, a, b);
        let (op, of) = ctx.promise();
        crate::merge::merge(ctx, fa, fb, op, mode);
        of
    })
}

/// Run `merge_balanced` on balanced trees of two sorted, disjoint key sets.
pub fn run_merge_balanced(a: &[i64], b: &[i64], mode: Mode) -> (Fut<Tree<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| {
        let (fa, fb) = tree_inputs(ctx, a, b);
        let (op, of) = ctx.promise();
        crate::rebalance::merge_balanced(ctx, fa, fb, op, mode);
        of
    })
}

type TreeIn = Fut<Tree<Ctx, i64>>;

fn tree_inputs(ctx: &Ctx, a: &[i64], b: &[i64]) -> (TreeIn, TreeIn) {
    let (ta, tb) = (Tree::from_sorted(ctx, a), Tree::from_sorted(ctx, b));
    (ctx.preload(ta), ctx.preload(tb))
}

/// Run `rebalance` on the BST that inserting `keys` in order builds.
pub fn run_rebalance(keys: &[i64], mode: Mode) -> (Fut<Tree<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| {
        let ft = ctx.preload(crate::rebalance::unbalanced_from(ctx, keys));
        let (op, of) = ctx.promise();
        crate::rebalance::rebalance(ctx, ft, op, mode);
        of
    })
}

fn run_treap_op(
    a: &[Entry<i64>],
    b: &[Entry<i64>],
    op: impl FnOnce(&Ctx, TreapFut<Ctx, i64>, TreapFut<Ctx, i64>, TreapWr<Ctx, i64>),
) -> (Fut<Treap<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| {
        let (ta, tb) = (Treap::from_entries(ctx, a), Treap::from_entries(ctx, b));
        let (fa, fb) = (ctx.preload(ta), ctx.preload(tb));
        let (out, of) = ctx.promise();
        op(ctx, fa, fb, out);
        of
    })
}

/// Run `union` on treaps built from the given entries.
pub fn run_union(
    a: &[Entry<i64>],
    b: &[Entry<i64>],
    mode: Mode,
) -> (Fut<Treap<Ctx, i64>>, CostReport) {
    run_treap_op(a, b, |ctx, fa, fb, out| {
        crate::treap::union(ctx, fa, fb, out, mode)
    })
}

/// Run `diff` (a minus b) on treaps built from the given entries.
pub fn run_diff(
    a: &[Entry<i64>],
    b: &[Entry<i64>],
    mode: Mode,
) -> (Fut<Treap<Ctx, i64>>, CostReport) {
    run_treap_op(a, b, |ctx, fa, fb, out| {
        crate::treap::diff(ctx, fa, fb, out, mode)
    })
}

/// Run `intersect` on treaps built from the given entries.
pub fn run_intersect(
    a: &[Entry<i64>],
    b: &[Entry<i64>],
    mode: Mode,
) -> (Fut<Treap<Ctx, i64>>, CostReport) {
    run_treap_op(a, b, |ctx, fa, fb, out| {
        crate::treap::intersect(ctx, fa, fb, out, mode)
    })
}

/// Build a 2-6 tree from `initial`, insert `keys`.
pub fn run_insert_many(
    initial: &[i64],
    keys: &[i64],
    mode: Mode,
) -> (Fut<TsTree<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| {
        let ft = ctx.preload(TsTree::from_sorted(ctx, initial));
        crate::two_six::insert_many(ctx, keys, ft, mode)
    })
}

/// The Figure 1 pipeline for `n` elements: the sum and the cost. Strict
/// mode starts the consumer once the whole list is built.
pub fn run_pipeline(n: u64, mode: Mode) -> (u64, CostReport) {
    Sim::new().run(|ctx| {
        let (lp, lf) = ctx.promise();
        match mode {
            Mode::Pipelined => crate::list::produce(ctx, n, lp),
            Mode::Strict => ctx.call_strict(move |ctx| crate::list::produce(ctx, n, lp)),
        }
        let list = ctx.touch(&lf);
        let (sp, sf) = ctx.promise();
        crate::list::consume(ctx, list, 0, sp);
        ctx.touch(&sf)
    })
}

/// Sort `keys` with the Figure 2 quicksort.
pub fn run_quicksort(keys: &[i64], mode: Mode) -> (List<Ctx, i64>, CostReport) {
    Sim::new().run(|ctx| {
        let l = List::from_slice(ctx, keys);
        let (op, of) = ctx.promise();
        crate::list::qs(ctx, l, List::nil(), op, mode);
        ctx.touch(&of)
    })
}

/// Sort `keys` with the §5 mergesort, rebalancing at every level or not.
pub fn run_msort(keys: &[i64], balanced: bool, mode: Mode) -> (Fut<Tree<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| {
        let (op, of) = ctx.promise();
        if balanced {
            crate::mergesort::msort_balanced(ctx, keys.to_vec(), op, mode);
        } else {
            crate::mergesort::msort(ctx, keys.to_vec(), op, mode);
        }
        of
    })
}
