//! Shared by the unit tests: deterministic inputs, each [`crate::start`]
//! starter in a simulation of its own (`run_*`: the result future and the
//! [`CostReport`] the cost assertions are stated over), and the same
//! starters in a pf-rt session ([`on_rt`]).

use pf_core::{CostReport, Ctx, Fut, Sim};
use pf_rt::{cell, FutRead, Runtime, Worker};
use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::list::List;
use crate::plain::{splitmix64, Entry};
use crate::start::*;
use crate::treap::Treap;
use crate::tree::Tree;
use crate::two_six::TsTree;
use crate::{Mode, Val};

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

/// What `start` leaves in the future it returns, run as a session of a
/// fresh `threads`-worker pf-rt pool.
pub fn on_rt<T: Val>(
    threads: usize,
    start: impl FnOnce(&Worker) -> FutRead<T> + Send + 'static,
) -> T {
    let (p, f) = cell();
    Runtime::new(threads).run(move |wk| p.fulfill(wk, start(wk)));
    f.expect().expect()
}

type Run<T> = (Fut<T>, CostReport);

/// [`merge_on`] in a simulation of its own.
pub fn run_merge(a: &[i64], b: &[i64], mode: Mode) -> Run<Tree<Ctx, i64>> {
    Sim::new().run(|ctx| merge_on(ctx, a, b, mode))
}

/// [`merge_balanced_on`] in a simulation of its own.
pub fn run_merge_balanced(a: &[i64], b: &[i64], mode: Mode) -> Run<Tree<Ctx, i64>> {
    Sim::new().run(|ctx| merge_balanced_on(ctx, a, b, mode))
}

/// [`rebalance_on`] in a simulation of its own.
pub fn run_rebalance(keys: &[i64], mode: Mode) -> Run<Tree<Ctx, i64>> {
    Sim::new().run(|ctx| rebalance_on(ctx, keys, mode))
}

/// [`union_on`] in a simulation of its own.
pub fn run_union(a: &[Entry<i64>], b: &[Entry<i64>], mode: Mode) -> Run<Treap<Ctx, i64>> {
    Sim::new().run(|ctx| union_on(ctx, a, b, mode))
}

/// [`diff_on`] in a simulation of its own.
pub fn run_diff(a: &[Entry<i64>], b: &[Entry<i64>], mode: Mode) -> Run<Treap<Ctx, i64>> {
    Sim::new().run(|ctx| diff_on(ctx, a, b, mode))
}

/// [`intersect_on`] in a simulation of its own.
pub fn run_intersect(a: &[Entry<i64>], b: &[Entry<i64>], mode: Mode) -> Run<Treap<Ctx, i64>> {
    Sim::new().run(|ctx| intersect_on(ctx, a, b, mode))
}

/// [`insert_many_on`] in a simulation of its own.
pub fn run_insert_many(initial: &[i64], keys: &[i64], mode: Mode) -> Run<TsTree<Ctx, i64>> {
    Sim::new().run(|ctx| insert_many_on(ctx, initial, keys, mode))
}

/// [`msort_on`] in a simulation of its own.
pub fn run_msort(keys: &[i64], balanced: bool, mode: Mode) -> Run<Tree<Ctx, i64>> {
    Sim::new().run(|ctx| msort_on(ctx, keys, balanced, mode))
}

/// [`pipeline_on`] in a simulation of its own; the main thread touches the
/// sum, as Figure 1's caller does.
pub fn run_pipeline(n: u64, mode: Mode) -> (u64, CostReport) {
    Sim::new().run(|ctx| ctx.touch(&pipeline_on(ctx, n, mode)))
}

/// [`quicksort_on`] in a simulation of its own; the main thread touches
/// the sorted list.
pub fn run_quicksort(keys: &[i64], mode: Mode) -> (List<Ctx, i64>, CostReport) {
    Sim::new().run(|ctx| ctx.touch(&quicksort_on(ctx, keys, mode)))
}
