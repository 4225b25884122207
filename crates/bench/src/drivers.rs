//! Wall-clock measurement drivers for the real-runtime experiments (E12):
//! run one operation end to end — input construction excluded — and return
//! the elapsed time. Drivers run on the process-wide shared pool for the
//! requested width ([`Runtime::shared`]), so a timing sweep reuses warm
//! workers instead of paying thread creation inside every measurement.

use std::time::{Duration, Instant};

use pf_algs::plain::{Entry, PlainTreap};
use pf_algs::treap::{union, Treap};
use pf_algs::tree::Tree;
use pf_algs::two_six::TsTree;
use pf_algs::{Mode, PipeBackend, Val};
use pf_rt::{cell, ready, FutRead, Runtime, Worker};

/// Build an input on a worker of `rt` in an untimed session of its own
/// (`Worker` has no constructor outside one) and hand it back.
pub fn on_worker<T: Val>(rt: &Runtime, build: impl FnOnce(&Worker) -> T + Send + 'static) -> T {
    let (p, f) = cell();
    rt.run(move |wk| p.fulfill(wk, build(wk)));
    f.expect()
}

/// Complete pf-rt treaps of two entry sets, as input cells.
pub fn treap_inputs(
    rt: &Runtime,
    a: &[Entry<i64>],
    b: &[Entry<i64>],
) -> [FutRead<Treap<Worker, i64>>; 2] {
    let (a, b) = (a.to_vec(), b.to_vec());
    on_worker(rt, move |wk| {
        [&a, &b].map(|e| wk.input(Treap::from_entries(wk, e)))
    })
}

/// Balanced pf-rt trees of two sorted key sets, as input cells.
pub fn tree_inputs(rt: &Runtime, a: &[i64], b: &[i64]) -> [FutRead<Tree<Worker, i64>>; 2] {
    let (a, b) = (a.to_vec(), b.to_vec());
    on_worker(rt, move |wk| {
        [&a, &b].map(|k| wk.input(Tree::from_sorted(wk, k)))
    })
}

/// Time one pipelined treap union of the given entry sets on `threads`
/// workers. Input treaps are built before the clock starts.
pub fn time_union_rt(a: &[Entry<i64>], b: &[Entry<i64>], threads: usize) -> Duration {
    let rt = Runtime::shared(threads);
    let [fa, fb] = treap_inputs(&rt, a, b);
    let (op, of) = cell();
    let start = Instant::now();
    rt.run(move |wk| union(wk, fa, fb, op, Mode::Pipelined));
    let dt = start.elapsed();
    assert!(of.expect().to_sorted_vec().len() >= a.len().max(b.len()));
    dt
}

/// Time the sequential treap union on the same inputs (the work baseline).
pub fn time_union_seq(a: &[Entry<i64>], b: &[Entry<i64>]) -> Duration {
    let ta = PlainTreap::from_entries(a);
    let tb = PlainTreap::from_entries(b);
    let start = Instant::now();
    let u = PlainTreap::union(ta, tb);
    let dt = start.elapsed();
    assert!(PlainTreap::size(&u) >= a.len().max(b.len()));
    dt
}

/// Time one pipelined BST merge on `threads` workers.
pub fn time_merge_rt(a: &[i64], b: &[i64], threads: usize) -> Duration {
    let rt = Runtime::shared(threads);
    let [fa, fb] = tree_inputs(&rt, a, b);
    let (op, of) = cell();
    let start = Instant::now();
    rt.run(move |wk| pf_algs::merge::merge(wk, fa, fb, op, Mode::Pipelined));
    let dt = start.elapsed();
    assert_eq!(of.expect().to_sorted_vec().len(), a.len() + b.len());
    dt
}

/// Sequential baseline for merge: the textbook two-pointer merge of the
/// sorted key sequences (what a sequential implementation would do).
pub fn time_merge_seq(a: &[i64], b: &[i64]) -> Duration {
    let start = Instant::now();
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    let dt = start.elapsed();
    assert_eq!(out.len(), a.len() + b.len());
    dt
}

/// Time one pipelined 2-6 bulk insert on `threads` workers.
pub fn time_insert_rt(initial: &[i64], newk: &[i64], threads: usize) -> Duration {
    let rt = Runtime::shared(threads);
    let (initial_v, keys) = (initial.to_vec(), newk.to_vec());
    let ft = on_worker(&rt, move |wk| wk.input(TsTree::from_sorted(wk, &initial_v)));
    let (op, of) = cell();
    let start = Instant::now();
    rt.run(move |wk| {
        let f = pf_algs::two_six::insert_many(wk, &keys, ft, Mode::Pipelined);
        f.touch(wk, move |tv, wk| op.fulfill(wk, tv));
    });
    let dt = start.elapsed();
    assert!(of.expect().to_sorted_vec().len() >= initial.len());
    dt
}

/// Sequential baseline for the bulk insert: a `BTreeSet` extended with the
/// batch (what a production sequential index would do).
pub fn time_insert_seq(initial: &[i64], newk: &[i64]) -> Duration {
    let mut set: std::collections::BTreeSet<i64> = initial.iter().copied().collect();
    let start = Instant::now();
    set.extend(newk.iter().copied());
    let dt = start.elapsed();
    assert!(set.len() >= initial.len());
    dt
}

/// Time one pipelined rebalance of a degenerate (spine) BST.
pub fn time_rebalance_rt(n: usize, threads: usize) -> Duration {
    // Build the worst case: a right spine, directly (no naive insertion).
    let mut t = Tree::<Worker, i64>::Leaf;
    for k in (0..n as i64).rev() {
        t = Tree::node(k, ready(Tree::Leaf), ready(t));
    }
    let rt = Runtime::shared(threads);
    let ft = ready(t);
    let (op, of) = cell();
    let start = Instant::now();
    rt.run(move |wk| pf_algs::rebalance::rebalance(wk, ft, op, Mode::Pipelined));
    let dt = start.elapsed();
    assert_eq!(of.expect().to_sorted_vec().len(), n);
    dt
}

/// Run `f` `reps` times and return the minimum (the standard noise filter
/// for wall-clock microbenchmarks).
pub fn best_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    assert!(reps >= 1);
    (0..reps).map(|_| f()).min().expect("reps >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::union_entries;

    #[test]
    fn drivers_run_and_return_nonzero() {
        let (a, b) = union_entries(2000, 2000, 5);
        let t_rt = time_union_rt(&a, &b, 2);
        let t_seq = time_union_seq(&a, &b);
        assert!(t_rt > Duration::ZERO);
        assert!(t_seq > Duration::ZERO);
    }

    #[test]
    fn merge_drivers_run() {
        let a: Vec<i64> = (0..4000).map(|i| 2 * i).collect();
        let b: Vec<i64> = (0..4000).map(|i| 2 * i + 1).collect();
        assert!(time_merge_rt(&a, &b, 2) > Duration::ZERO);
        assert!(time_merge_seq(&a, &b) > Duration::ZERO);
    }

    #[test]
    fn insert_and_rebalance_drivers_run() {
        let initial: Vec<i64> = (0..2000).map(|i| 2 * i).collect();
        let newk: Vec<i64> = (0..500).map(|i| 8 * i + 1).collect();
        assert!(time_insert_rt(&initial, &newk, 2) > Duration::ZERO);
        let _ = time_insert_seq(&initial, &newk);
        assert!(time_rebalance_rt(2000, 2) > Duration::ZERO);
    }

    #[test]
    fn best_of_takes_min() {
        let mut calls = 0;
        let d = best_of(3, || {
            calls += 1;
            Duration::from_millis(calls)
        });
        assert_eq!(d, Duration::from_millis(1));
    }
}
