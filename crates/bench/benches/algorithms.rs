//! Criterion benchmarks for the algorithm implementations across the
//! three engines: the cost-model simulator (`pf_core::Ctx`), the real
//! runtime (`pf_rt::Worker`), and the sequential references
//! (`pf_algs::plain` and plain array code). These quantify the
//! instrumentation overhead of the cost model and the task overhead of the
//! futures runtime.

use criterion::{criterion_group, criterion_main, Criterion};
use pf_algs::plain::PlainTreap;
use pf_algs::treap::Treap;
use pf_algs::tree::Tree;
use pf_algs::{Mode, PipeBackend};
use pf_bench::sim::{run_insert_many, run_merge, run_union};
use pf_bench::workloads::{interleaved_pair, sorted_keys, union_entries};
use pf_rt::{cell, Runtime};

const LG: u32 = 12;

fn bench_sim(c: &mut Criterion) {
    let n = 1usize << LG;
    let mut g = c.benchmark_group("cost-model-sim");
    g.sample_size(20);

    let (a, b) = interleaved_pair(n, n);
    g.bench_function("merge_4k_pipelined", |bch| {
        bch.iter(|| run_merge(&a, &b, Mode::Pipelined))
    });
    g.bench_function("merge_4k_strict", |bch| {
        bch.iter(|| run_merge(&a, &b, Mode::Strict))
    });

    let (ea, eb) = union_entries(n, n, 7);
    g.bench_function("union_4k_pipelined", |bch| {
        bch.iter(|| run_union(&ea, &eb, Mode::Pipelined))
    });

    let initial = sorted_keys(n, 2);
    let newk: Vec<i64> = (0..(n / 8) as i64).map(|i| 2 * i + 1).collect();
    g.bench_function("two_six_insert_4k", |bch| {
        bch.iter(|| run_insert_many(&initial, &newk, Mode::Pipelined))
    });
    g.finish();
}

fn bench_rt(c: &mut Criterion) {
    let n = 1usize << LG;
    let mut g = c.benchmark_group("runtime");
    g.sample_size(10);

    let (a, b) = interleaved_pair(n, n);
    g.bench_function("merge_4k_rt1", |bch| {
        bch.iter(|| {
            let (a, b) = (a.clone(), b.clone());
            let (op, of) = cell();
            Runtime::new(1).run(move |wk| {
                let tree = |k| wk.input(Tree::from_sorted(wk, k));
                pf_algs::merge::merge(wk, tree(&a), tree(&b), op, Mode::Pipelined)
            });
            assert!(of.is_written());
        })
    });

    let (ea, eb) = union_entries(n, n, 7);
    g.bench_function("union_4k_rt1", |bch| {
        bch.iter(|| {
            let (ea, eb) = (ea.clone(), eb.clone());
            let (op, of) = cell();
            Runtime::new(1).run(move |wk| {
                let treap = |e| wk.input(Treap::from_entries(wk, e));
                pf_algs::treap::union(wk, treap(&ea), treap(&eb), op, Mode::Pipelined)
            });
            assert!(of.is_written());
        })
    });
    g.finish();
}

fn bench_seq(c: &mut Criterion) {
    let n = 1usize << LG;
    let mut g = c.benchmark_group("sequential-baseline");
    g.sample_size(30);

    let (ea, eb) = union_entries(n, n, 7);
    g.bench_function("plain_treap_union_4k", |bch| {
        bch.iter(|| {
            let ta = PlainTreap::from_entries(&ea);
            let tb = PlainTreap::from_entries(&eb);
            std::hint::black_box(PlainTreap::union(ta, tb))
        })
    });

    let (a, b) = interleaved_pair(n, n);
    g.bench_function("vec_merge_4k", |bch| {
        bch.iter(|| {
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
            std::hint::black_box(out)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sim, bench_rt, bench_seq);
criterion_main!(benches);
