//! Each [`pf_algs::start`] starter in a simulation of its own: `run_x` is
//! `Sim::new().run(|ctx| x_on(ctx, ..))`, handing back the result future —
//! inspectable after the run — and the [`CostReport`]. Traced, profiled
//! and custom-cost simulations call the starters themselves.

use pf_algs::list::List;
use pf_algs::plain::Entry;
use pf_algs::start::*;
use pf_algs::treap::Treap;
use pf_algs::tree::Tree;
use pf_algs::two_six::TsTree;
use pf_algs::{Key, Mode};
use pf_core::{CostReport, Ctx, Fut, Sim};

type Run<T> = (Fut<T>, CostReport);

/// [`merge_on`] in a simulation of its own.
pub fn run_merge<K: Key>(a: &[K], b: &[K], mode: Mode) -> Run<Tree<Ctx, K>> {
    Sim::new().run(|ctx| merge_on(ctx, a, b, mode))
}

/// [`rebalance_on`] in a simulation of its own.
pub fn run_rebalance<K: Key>(keys: &[K], mode: Mode) -> Run<Tree<Ctx, K>> {
    Sim::new().run(|ctx| rebalance_on(ctx, keys, mode))
}

/// [`union_on`] in a simulation of its own.
pub fn run_union<K: Key>(a: &[Entry<K>], b: &[Entry<K>], mode: Mode) -> Run<Treap<Ctx, K>> {
    Sim::new().run(|ctx| union_on(ctx, a, b, mode))
}

/// [`diff_on`] in a simulation of its own.
pub fn run_diff<K: Key>(a: &[Entry<K>], b: &[Entry<K>], mode: Mode) -> Run<Treap<Ctx, K>> {
    Sim::new().run(|ctx| diff_on(ctx, a, b, mode))
}

/// [`insert_many_on`] in a simulation of its own.
pub fn run_insert_many<K: Key>(initial: &[K], keys: &[K], mode: Mode) -> Run<TsTree<Ctx, K>> {
    Sim::new().run(|ctx| insert_many_on(ctx, initial, keys, mode))
}

/// [`msort_on`] in a simulation of its own.
pub fn run_msort<K: Key>(keys: &[K], balanced: bool, mode: Mode) -> Run<Tree<Ctx, K>> {
    Sim::new().run(|ctx| msort_on(ctx, keys, balanced, mode))
}

/// [`pipeline_on`] in a simulation of its own; the main thread touches the
/// sum, as Figure 1's caller does.
pub fn run_pipeline(n: u64, mode: Mode) -> (u64, CostReport) {
    Sim::new().run(|ctx| ctx.touch(&pipeline_on(ctx, n, mode)))
}

/// [`quicksort_on`] in a simulation of its own; the main thread touches
/// the sorted list.
pub fn run_quicksort<K: Key>(keys: &[K], mode: Mode) -> (List<Ctx, K>, CostReport) {
    Sim::new().run(|ctx| ctx.touch(&quicksort_on(ctx, keys, mode)))
}
