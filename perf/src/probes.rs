//! Unit-cost probes of pf-rt's layers, through public functions only.
//!
//! Each probe times a batch of `ops` identical operations and reports the
//! median of [`BATCHES`] batches as nanoseconds per operation. They run in
//! the traced pass on the workload's own pool, so `rt.*` unit costs on
//! `algs-t1` and `algs-t2` are the 1- and 2-worker values.

use std::hint::black_box;
use std::time::Instant;

use pf_algs::list::{consume, produce, List};
use pf_algs::PipeBackend;
use pf_rt::deque::{deque, Steal};
use pf_rt::{cell, Runtime, Worker};

use crate::span::Recorder;
use crate::stats::median;
use crate::Layers;

const BATCHES: usize = 5;

fn per_op(ops: usize, mut batch: impl FnMut() -> std::time::Duration) -> f64 {
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| batch().as_nanos() as f64 / ops as f64)
        .collect();
    median(&times)
}

/// Time one session running `root`.
fn session(rt: &Runtime, root: impl FnOnce(&Worker) + Send + 'static) -> std::time::Duration {
    let t = Instant::now();
    rt.run(root);
    t.elapsed()
}

fn spawn_tree(wk: &Worker, depth: u32) {
    if depth > 0 {
        wk.spawn2(
            move |wk| spawn_tree(wk, depth - 1),
            move |wk| spawn_tree(wk, depth - 1),
        );
    }
}

/// Every `rt.*` unit cost, on `rt`.
pub fn unit_costs(rt: &Runtime, ops: usize, rec: &Recorder) -> Layers {
    let _s = rec.span("bench:unit_probes", 0);
    let mut out = Layers::new();

    // L0: owner push + pop, and an uncontended steal.
    let q = deque::<usize>();
    let stealer = q.stealer();
    out.insert(
        "rt.deque.push_pop_ns",
        per_op(ops, || {
            let t = Instant::now();
            (0..ops).for_each(|i| q.push(i));
            (0..ops).for_each(|_| {
                black_box(q.pop());
            });
            t.elapsed()
        }),
    );
    out.insert(
        "rt.deque.steal_ns",
        per_op(ops, || {
            (0..ops).for_each(|i| q.push(i));
            let t = Instant::now();
            let stolen = (0..ops)
                .filter(|_| matches!(stealer.steal(), Steal::Success(_)))
                .count();
            let d = t.elapsed();
            assert_eq!(stolen, ops, "an uncontended steal cannot fail");
            d
        }),
    );

    // L1: a binary spawn tree of no-op tasks.
    let depth = ops.max(2).ilog2();
    let tasks = (1usize << (depth + 1)) - 1;
    out.insert(
        "rt.scheduler.spawn_exec_ns",
        per_op(tasks, || session(rt, move |wk| spawn_tree(wk, depth))),
    );

    // L2: a touch that finds the cell FULL; a touch that suspends and is
    // resumed by the write; Figure 1's producer/consumer per list item.
    out.insert(
        "rt.cell.write_touch_ns",
        per_op(ops, || {
            session(rt, move |wk| {
                for i in 0..ops {
                    let (w, r) = cell::<usize>();
                    w.fulfill(wk, i);
                    r.touch(wk, |v, _| {
                        black_box(v);
                    });
                }
            })
        }),
    );
    out.insert(
        "rt.cell.touch_write_ns",
        per_op(ops, || {
            session(rt, move |wk| {
                for i in 0..ops {
                    let (w, r) = cell::<usize>();
                    r.touch(wk, |v, _| {
                        black_box(v);
                    });
                    w.fulfill(wk, i);
                }
            })
        }),
    );
    let items = ops.min(20_000) as u64;
    out.insert(
        "rt.cell.pipeline_ns_per_item",
        per_op(items as usize, || {
            let (sum_w, sum_r) = cell::<u64>();
            let d = session(rt, move |wk| {
                let (lw, lr) = cell::<List<Worker, u64>>();
                wk.fork(move |wk| produce(wk, items, lw));
                wk.touch(&lr, move |wk, l| consume(wk, l, 0, sum_w));
            });
            assert_eq!(sum_r.expect(), items * (items + 1) / 2);
            d
        }),
    );

    // L3: an empty session, open to close.
    let sessions = (ops / 64).max(16);
    out.insert(
        "rt.pool.session_noop_us",
        per_op(sessions, || {
            let t = Instant::now();
            (0..sessions).for_each(|_| rt.run(|_| {}));
            t.elapsed()
        }) / 1e3,
    );
    out
}
