//! Criterion microbenchmarks for the future cell (E15b, measured
//! properly): fulfill+touch round-trips through the lock-free cell in
//! both orders, plus raw task spawn throughput.
//!
//! Every benchmark runs on a warm pool built outside `b.iter`, so the
//! numbers measure cell and scheduler hot paths, not thread creation.

use criterion::{criterion_group, criterion_main, Criterion};
use pf_rt::{cell, Runtime};

const N: usize = 10_000;

fn bench_cells(c: &mut Criterion) {
    let mut g = c.benchmark_group("future-cell");
    g.sample_size(20);

    let rt = Runtime::new(1);

    g.bench_function("lockfree_write_then_touch_10k", |b| {
        b.iter(|| {
            rt.run(move |wk| {
                for i in 0..N {
                    let (w, r) = cell::<usize>();
                    w.fulfill(wk, i);
                    r.touch(wk, |v, _| {
                        std::hint::black_box(v);
                    });
                }
            });
        })
    });

    g.bench_function("lockfree_touch_then_write_10k", |b| {
        b.iter(|| {
            rt.run(move |wk| {
                for i in 0..N {
                    let (w, r) = cell::<usize>();
                    r.touch(wk, |v, _| {
                        std::hint::black_box(v);
                    });
                    w.fulfill(wk, i);
                }
            });
        })
    });

    g.bench_function("spawn_10k_empty_tasks", |b| {
        b.iter(|| {
            rt.run(|wk| {
                for _ in 0..N {
                    wk.spawn(|_| {});
                }
            });
        })
    });

    g.finish();
}

criterion_group!(benches, bench_cells);
criterion_main!(benches);
