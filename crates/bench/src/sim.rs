//! One call per algorithm on the virtual-time simulator: inputs built
//! with free pre-written cells, the `pf_algs` text called once at
//! `B = `[`Ctx`]. The `*_on` starters run inside any simulation (plain,
//! traced, profiled, custom cost constants); each `run_*` is its starter
//! under `Sim::new().run`, returning the result future — inspectable after
//! the run — and the [`CostReport`].

use pf_algs::list::List;
use pf_algs::plain::Entry;
use pf_algs::treap::Treap;
use pf_algs::tree::Tree;
use pf_algs::two_six::TsTree;
use pf_algs::{Key, Mode};
use pf_core::{CostReport, Ctx, Fut, Promise, Sim};

/// `merge` on balanced trees of two sorted, disjoint key sets.
pub fn merge_on<K: Key>(ctx: &Ctx, a: &[K], b: &[K], mode: Mode) -> Fut<Tree<Ctx, K>> {
    let (ta, tb) = (Tree::from_sorted(ctx, a), Tree::from_sorted(ctx, b));
    let (fa, fb) = (ctx.preload(ta), ctx.preload(tb));
    let (op, of) = ctx.promise();
    pf_algs::merge::merge(ctx, fa, fb, op, mode);
    of
}

/// [`merge_on`] in a simulation of its own.
pub fn run_merge<K: Key>(a: &[K], b: &[K], mode: Mode) -> (Fut<Tree<Ctx, K>>, CostReport) {
    Sim::new().run(|ctx| merge_on(ctx, a, b, mode))
}

/// `rebalance` on the BST that inserting `keys` in order builds.
pub fn run_rebalance<K: Key>(keys: &[K], mode: Mode) -> (Fut<Tree<Ctx, K>>, CostReport) {
    Sim::new().run(|ctx| {
        let ft = ctx.preload(pf_algs::rebalance::unbalanced_from(ctx, keys));
        let (op, of) = ctx.promise();
        pf_algs::rebalance::rebalance(ctx, ft, op, mode);
        of
    })
}

type TreapIn<K> = Fut<Treap<Ctx, K>>;

fn treap_op_on<K: Key>(
    ctx: &Ctx,
    a: &[Entry<K>],
    b: &[Entry<K>],
    op: impl FnOnce(&Ctx, TreapIn<K>, TreapIn<K>, Promise<Treap<Ctx, K>>),
) -> Fut<Treap<Ctx, K>> {
    let (ta, tb) = (Treap::from_entries(ctx, a), Treap::from_entries(ctx, b));
    let (fa, fb) = (ctx.preload(ta), ctx.preload(tb));
    let (out, of) = ctx.promise();
    op(ctx, fa, fb, out);
    of
}

/// `union` on treaps built from the given entries.
pub fn union_on<K: Key>(ctx: &Ctx, a: &[Entry<K>], b: &[Entry<K>], mode: Mode) -> TreapIn<K> {
    treap_op_on(ctx, a, b, |ctx, fa, fb, out| {
        pf_algs::treap::union(ctx, fa, fb, out, mode)
    })
}

/// `diff` (a minus b) on treaps built from the given entries.
pub fn diff_on<K: Key>(ctx: &Ctx, a: &[Entry<K>], b: &[Entry<K>], mode: Mode) -> TreapIn<K> {
    treap_op_on(ctx, a, b, |ctx, fa, fb, out| {
        pf_algs::treap::diff(ctx, fa, fb, out, mode)
    })
}

/// [`union_on`] in a simulation of its own.
pub fn run_union<K: Key>(a: &[Entry<K>], b: &[Entry<K>], mode: Mode) -> (TreapIn<K>, CostReport) {
    Sim::new().run(|ctx| union_on(ctx, a, b, mode))
}

/// [`diff_on`] in a simulation of its own.
pub fn run_diff<K: Key>(a: &[Entry<K>], b: &[Entry<K>], mode: Mode) -> (TreapIn<K>, CostReport) {
    Sim::new().run(|ctx| diff_on(ctx, a, b, mode))
}

/// `intersect` on treaps built from the given entries.
pub fn run_intersect<K: Key>(
    a: &[Entry<K>],
    b: &[Entry<K>],
    mode: Mode,
) -> (TreapIn<K>, CostReport) {
    Sim::new().run(|ctx| {
        treap_op_on(ctx, a, b, |ctx, fa, fb, out| {
            pf_algs::treap::intersect(ctx, fa, fb, out, mode)
        })
    })
}

/// Build a 2-6 tree from `initial`, insert `keys` in pipelined waves.
pub fn insert_many_on<K: Key>(
    ctx: &Ctx,
    initial: &[K],
    keys: &[K],
    mode: Mode,
) -> Fut<TsTree<Ctx, K>> {
    let ft = ctx.preload(TsTree::from_sorted(ctx, initial));
    pf_algs::two_six::insert_many(ctx, keys, ft, mode)
}

/// [`insert_many_on`] in a simulation of its own.
pub fn run_insert_many<K: Key>(
    initial: &[K],
    keys: &[K],
    mode: Mode,
) -> (Fut<TsTree<Ctx, K>>, CostReport) {
    Sim::new().run(|ctx| insert_many_on(ctx, initial, keys, mode))
}

/// The Figure 1 pipeline for `n` elements; returns the sum. In
/// [`Mode::Strict`] the consumer starts once the whole list is built.
pub fn pipeline_on(ctx: &Ctx, n: u64, mode: Mode) -> u64 {
    let (lp, lf) = ctx.promise();
    match mode {
        Mode::Pipelined => pf_algs::list::produce(ctx, n, lp),
        Mode::Strict => ctx.call_strict(move |ctx| pf_algs::list::produce(ctx, n, lp)),
    }
    let list = ctx.touch(&lf);
    let (sp, sf) = ctx.promise();
    pf_algs::list::consume(ctx, list, 0, sp);
    ctx.touch(&sf)
}

/// [`pipeline_on`] in a simulation of its own.
pub fn run_pipeline(n: u64, mode: Mode) -> (u64, CostReport) {
    Sim::new().run(|ctx| pipeline_on(ctx, n, mode))
}

/// Sort `keys` with the Figure 2 quicksort; the result list is touched,
/// so it is inspectable after the run.
pub fn quicksort_on<K: Key>(ctx: &Ctx, keys: &[K], mode: Mode) -> List<Ctx, K> {
    let l = List::from_slice(ctx, keys);
    let (op, of) = ctx.promise();
    pf_algs::list::qs(ctx, l, List::nil(), op, mode);
    ctx.touch(&of)
}

/// [`quicksort_on`] in a simulation of its own.
pub fn run_quicksort<K: Key>(keys: &[K], mode: Mode) -> (List<Ctx, K>, CostReport) {
    Sim::new().run(|ctx| quicksort_on(ctx, keys, mode))
}

/// Sort `keys` into a BST with the §5 mergesort.
pub fn run_msort<K: Key>(keys: &[K], mode: Mode) -> (Fut<Tree<Ctx, K>>, CostReport) {
    Sim::new().run(|ctx| {
        let (op, of) = ctx.promise();
        pf_algs::mergesort::msort(ctx, keys.to_vec(), op, mode);
        of
    })
}

/// [`run_msort`], rebalancing the merged tree at every level.
pub fn run_msort_balanced<K: Key>(keys: &[K], mode: Mode) -> (Fut<Tree<Ctx, K>>, CostReport) {
    Sim::new().run(|ctx| {
        let (op, of) = ctx.promise();
        pf_algs::mergesort::msort_balanced(ctx, keys.to_vec(), op, mode);
        of
    })
}
