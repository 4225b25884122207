//! Real-runtime experiments: E12 (wall-clock behaviour of the multicore
//! runtime) and E15 (ablations: cost-constant sensitivity, the future
//! cell's touch-then-fulfill round trip).
//!
//! NOTE on E12: this host exposes a single CPU, so genuine multicore
//! *speedup* cannot manifest in wall-clock numbers here; the experiment
//! therefore reports (a) the overhead of the futures runtime relative to
//! the sequential algorithm, and (b) that oversubscribing workers on one
//! core degrades gracefully. The parallel-speedup *shape* of the paper is
//! reproduced by the machine-model replay (E09/E10), which is
//! processor-count-accurate by construction.

use std::time::{Duration, Instant};

use pf_algs::Mode;
use pf_core::{CostModel, Sim};
use pf_rt::{cell, Runtime};
#[cfg(feature = "trace")]
use {
    crate::drivers::{on_worker, treap_inputs},
    pf_algs::{plain::Entry, two_six::TsTree, PipeBackend},
};

use crate::baselines::{
    time_cole_pool, time_cole_seq, time_msort_rt, time_pvw_pool, time_pvw_seq, time_sort_seq,
};
use crate::drivers::{
    best_of, time_insert_rt, time_insert_seq, time_merge_rt, time_merge_seq, time_rebalance_rt,
    time_union_rt, time_union_seq, tree_inputs,
};
use crate::sim::{merge_on, run_merge};
use crate::workloads::{interleaved_pair, shuffled_keys, sorted_keys, union_entries};
use crate::{f2, u, Table};

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// E12 — wall-clock: futures runtime vs sequential baselines, across
/// worker counts.
pub fn e12_runtime(lg_n: u32, threads: &[usize], reps: usize) -> Vec<Table> {
    let n = 1usize << lg_n;
    let (ea, eb) = union_entries(n, n, 31);
    let mut t1 = Table::new(
        format!("E12a treap union wall-clock, n = m = {n} (single-CPU host: see note)"),
        &["impl", "threads", "time (ms)", "vs seq"],
    );
    let seq = best_of(reps, || time_union_seq(&ea, &eb));
    t1.row(vec!["sequential".into(), "1".into(), ms(seq), f2(1.0)]);
    for &th in threads {
        let d = best_of(reps, || time_union_rt(&ea, &eb, th));
        t1.row(vec![
            "futures-rt".into(),
            u(th as u64),
            ms(d),
            f2(d.as_secs_f64() / seq.as_secs_f64()),
        ]);
    }

    let (a, b) = interleaved_pair(n, n);
    let mut t2 = Table::new(
        format!("E12b BST merge wall-clock, n = m = {n}"),
        &["impl", "threads", "time (ms)", "vs seq"],
    );
    let seq = best_of(reps, || time_merge_seq(&a, &b));
    t2.row(vec!["sequential".into(), "1".into(), ms(seq), f2(1.0)]);
    for &th in threads {
        let d = best_of(reps, || time_merge_rt(&a, &b, th));
        t2.row(vec![
            "futures-rt".into(),
            u(th as u64),
            ms(d),
            f2(d.as_secs_f64() / seq.as_secs_f64()),
        ]);
    }

    let mut t3 = Table::new(
        format!("E12c 2-6 bulk insert & rebalance wall-clock, n = {n}"),
        &["operation", "threads", "time (ms)"],
    );
    let initial: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
    let newk: Vec<i64> = (0..(n / 8) as i64).map(|i| 16 * i + 1).collect();
    let d = best_of(reps, || time_insert_seq(&initial, &newk));
    t3.row(vec!["2-6 insert (BTreeSet seq)".into(), "1".into(), ms(d)]);
    for &th in threads {
        let d = best_of(reps, || time_insert_rt(&initial, &newk, th));
        t3.row(vec!["2-6 insert (futures-rt)".into(), u(th as u64), ms(d)]);
    }
    for &th in threads {
        let d = best_of(reps, || time_rebalance_rt(n / 4, th));
        t3.row(vec![
            "rebalance spine (futures-rt)".into(),
            u(th as u64),
            ms(d),
        ]);
    }
    vec![t1, t2, t3]
}

/// E13w — wall-clock companion to the E13 depth table: the futures
/// mergesort on the real pool across thread counts, vs `sort_unstable`.
pub fn e13_msort_wallclock(lgs: &[u32], threads: &[usize], reps: usize) -> Table {
    let mut t = Table::new(
        "E13w futures mergesort wall-clock (real runtime) vs sequential sort",
        &["n", "threads", "futures msort (ms)", "sort_unstable (ms)"],
    );
    for &l in lgs {
        let keys = shuffled_keys(1usize << l, 3);
        let ds = best_of(reps, || time_sort_seq(&keys));
        for &th in threads {
            let df = best_of(reps, || time_msort_rt(&keys, th));
            t.row(vec![u(1u64 << l), u(th as u64), ms(df), ms(ds)]);
        }
    }
    t
}

/// E16w — wall-clock head-to-head on the *same pool*: the futures 2-6
/// bulk insert (implicit pipeline, scheduler-discovered) vs the PVW wave
/// schedule executed one synchronous round per pool barrier
/// (`PoolRounds`). The `seq` row gives the single-thread references
/// (`BTreeSet` extend and the inline `SeqRounds` execution).
pub fn e16_pvw_wallclock(lg_n: u32, lg_m: u32, threads: &[usize], reps: usize) -> Table {
    let n = 1usize << lg_n;
    let m = 1usize << lg_m;
    let initial = sorted_keys(n, 2);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
    let mut t = Table::new(
        format!("E16w wall-clock: futures 2-6 insert vs PVW hand rounds, n = {n}, m = {m}"),
        &[
            "threads",
            "futures insert (ms)",
            "pvw rounds (ms)",
            "pvw/futures",
        ],
    );
    let df = best_of(reps, || time_insert_seq(&initial, &newk));
    let dp = best_of(reps, || time_pvw_seq(&initial, &newk).0);
    t.row(vec![
        "seq".into(),
        ms(df),
        ms(dp),
        f2(dp.as_secs_f64() / df.as_secs_f64()),
    ]);
    for &th in threads {
        let df = best_of(reps, || time_insert_rt(&initial, &newk, th));
        let dp = best_of(reps, || time_pvw_pool(&initial, &newk, th).0);
        t.row(vec![
            u(th as u64),
            ms(df),
            ms(dp),
            f2(dp.as_secs_f64() / df.as_secs_f64()),
        ]);
    }
    t
}

/// E18w — wall-clock head-to-head on the *same pool*: the futures tree
/// mergesort vs Cole's cascade executed one synchronous stage per pool
/// barrier (`PoolRounds`). The `seq` row gives the single-thread
/// references (`sort_unstable` and the inline `SeqRounds` cascade).
pub fn e18_cole_wallclock(lg_n: u32, threads: &[usize], reps: usize) -> Table {
    let n = 1usize << lg_n;
    let keys = shuffled_keys(n, 77);
    let mut t = Table::new(
        format!("E18w wall-clock: futures msort vs Cole cascade (hand stages), n = {n}"),
        &[
            "threads",
            "futures msort (ms)",
            "cole stages (ms)",
            "cole/futures",
        ],
    );
    let df = best_of(reps, || time_sort_seq(&keys));
    let dc = best_of(reps, || time_cole_seq(&keys).0);
    t.row(vec![
        "seq".into(),
        ms(df),
        ms(dc),
        f2(dc.as_secs_f64() / df.as_secs_f64()),
    ]);
    for &th in threads {
        let df = best_of(reps, || time_msort_rt(&keys, th));
        let dc = best_of(reps, || time_cole_pool(&keys, th).0);
        t.row(vec![
            u(th as u64),
            ms(df),
            ms(dc),
            f2(dc.as_secs_f64() / df.as_secs_f64()),
        ]);
    }
    t
}

/// E15a — cost-constant sensitivity: the measured merge depth scales
/// linearly in the fork/touch/write constants (the theorems' `ks`, `km`).
pub fn e15_cost_constants(lg_n: u32, ks: &[u64]) -> Table {
    let n = 1usize << lg_n;
    let (a, b) = interleaved_pair(n, n);
    let mut t = Table::new(
        "E15a cost-constant sensitivity: merge depth vs uniform action cost k (linear in k)",
        &["k", "depth", "depth/k", "work"],
    );
    for &k in ks {
        let (_, c) = Sim::with_costs(CostModel::uniform(k))
            .run(|ctx| merge_on(ctx, &a, &b, Mode::Pipelined));
        t.row(vec![
            u(k),
            u(c.depth),
            f2(c.depth as f64 / k as f64),
            u(c.work),
        ]);
    }
    t
}

/// E15b — the future cell's touch-then-fulfill round trip inside the
/// runtime. (The mutex-based cell this row was once compared against —
/// 150–170 ns/op, EXPERIMENTS.md — is gone; the lock-free cell is the only
/// one any workload ran.)
pub fn e15_cells(rounds: usize, cells_per_round: usize) -> Table {
    let mut t = Table::new(
        "E15b future cell (lock-free, atomic): fulfill+touch round-trips",
        &["cell", "ops", "time (ms)", "ns/op"],
    );
    let ops = (rounds * cells_per_round) as u64;

    let start = Instant::now();
    for _ in 0..rounds {
        let n = cells_per_round;
        Runtime::new(1).run(move |wk| {
            for i in 0..n {
                let (w, r) = cell::<usize>();
                r.touch(wk, move |v, _| {
                    std::hint::black_box(v);
                });
                w.fulfill(wk, i);
            }
        });
    }
    let d = start.elapsed();
    t.row(vec![
        "lock-free".into(),
        u(ops),
        ms(d),
        f2(d.as_secs_f64() * 1e9 / ops as f64),
    ]);
    t
}

/// One traced treap-union session on `rt` (the E20 workload — same
/// entries the simulator trace was captured from), returning its stats.
/// Tree construction is an untimed session of its own.
#[cfg(feature = "trace")]
fn traced_union(ea: &[Entry<i64>], eb: &[Entry<i64>], rt: &Runtime) -> pf_rt::RunStats {
    let [fa, fb] = treap_inputs(rt, ea, eb);
    let (op, of) = cell();
    let stats = rt.run_stats(move |wk| pf_algs::treap::union(wk, fa, fb, op, Mode::Pipelined));
    assert!(of.expect().to_sorted_vec().len() >= ea.len().max(eb.len()));
    stats
}

/// One traced 2-6 bulk-insert session on `rt` (E20).
#[cfg(feature = "trace")]
fn traced_insert(initial: &[i64], newk: &[i64], rt: &Runtime) -> pf_rt::RunStats {
    let (initial_v, keys) = (initial.to_vec(), newk.to_vec());
    let ft = on_worker(rt, move |wk| wk.input(TsTree::from_sorted(wk, &initial_v)));
    let (op, of) = cell();
    let stats = rt.run_stats(move |wk| {
        let f = pf_algs::two_six::insert_many(wk, &keys, ft, Mode::Pipelined);
        f.touch(wk, move |tv, wk| op.fulfill(wk, tv));
    });
    assert!(of.expect().to_sorted_vec().len() >= initial.len());
    stats
}

/// E20 — the first measured-vs-model scheduler comparison: run treap
/// union and 2-6 bulk insert *traced* on the real pool and print each
/// session's steal and suspension counts (from [`pf_rt::TraceStats`])
/// side-by-side with pf-machine's predictions over the same DAGs —
/// suspensions from the E09 greedy replay (`Discipline::Stack`), steals
/// from the E17 work-stealing replay (steal latency 3, the E17 seeds).
///
/// The two columns answer different questions and should not be expected
/// to coincide: the model counts events of an idealized unit-cost
/// machine with `p` always-busy processors, the measurement counts what
/// this pool on this host actually did (on a 1-CPU box, real workers
/// time-slice, so real steal counts sit far below the model's). What the
/// comparison *does* pin: t=1 has zero steals in both worlds, suspension
/// counts land in the same order of magnitude (same DAG, same touch
/// structure), and both grow with thread count.
#[cfg(feature = "trace")]
pub fn e20_trace_vs_model(lg_n: u32, threads: &[usize], reps: usize) -> Vec<Table> {
    use pf_machine::{replay, steal_replay, Discipline, StealConfig};

    let n = 1usize << lg_n;
    // Runtime workloads identical to the ones `capture_traces` feeds the
    // simulator (union seed 11; insert m = (n/16).max(4), odd keys).
    let (ea, eb) = union_entries(n, n, 11);
    let initial = sorted_keys(n, 2);
    let m = (n / 16).max(4);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();

    let mut out = Vec::new();
    for (name, tr) in crate::exp_machine::capture_traces(lg_n)
        .iter()
        .filter(|(nm, _)| matches!(*nm, "union" | "2-6 insert"))
    {
        let mut t = Table::new(
            format!(
                "E20 {name}: traced runtime (mean of {reps}) vs pf-machine predictions, n = {n}"
            ),
            &[
                "threads",
                "steals meas",
                "steals model",
                "suspends meas",
                "suspends model",
                "execs meas",
                "parks meas",
            ],
        );
        for &th in threads {
            let model = replay(tr, th, Discipline::Stack);
            let steal = steal_replay(
                tr,
                StealConfig {
                    p: th,
                    steal_latency: 3,
                    seed: 0xFEED + th as u64,
                },
            );
            let (mut steals, mut suspends, mut execs, mut parks) = (0f64, 0f64, 0f64, 0f64);
            let rt = Runtime::shared(th);
            for _ in 0..reps {
                let stats = if *name == "union" {
                    traced_union(&ea, &eb, &rt)
                } else {
                    traced_insert(&initial, &newk, &rt)
                };
                let ts = stats.trace.as_ref().expect("traced build attaches stats");
                steals += ts.steals() as f64;
                suspends += ts.suspends() as f64;
                execs += ts.executed() as f64;
                parks += ts.parks() as f64;
            }
            let r = reps as f64;
            t.row(vec![
                u(th as u64),
                f2(steals / r),
                u(steal.steals),
                f2(suspends / r),
                u(model.suspensions),
                f2(execs / r),
                f2(parks / r),
            ]);
        }
        out.push(t);
    }
    out
}

/// Consistency check used by E12: the runtime and the cost model compute
/// identical results on identical inputs.
pub fn rt_matches_model(lg_n: u32) -> bool {
    let n = 1usize << lg_n;
    let (a, b) = interleaved_pair(n, n);
    let (root, _) = run_merge(&a, &b, Mode::Pipelined);
    let model_keys = root.get().to_sorted_vec();

    let rt = Runtime::new(2);
    let [ta, tb] = tree_inputs(&rt, &a, &b);
    let (op, of) = cell();
    rt.run(move |wk| pf_algs::merge::merge(wk, ta, tb, op, Mode::Pipelined));
    let rt_keys = of.expect().to_sorted_vec();
    model_keys == rt_keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_smoke() {
        let ts = e12_runtime(10, &[1, 2], 1);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].rows.len(), 3);
        assert_eq!(ts[2].rows.len(), 5);
    }

    #[test]
    fn wallclock_pairs_smoke() {
        let t = e13_msort_wallclock(&[9], &[1, 2], 1);
        assert_eq!(t.rows.len(), 2);
        let t = e16_pvw_wallclock(10, 5, &[1, 2], 1);
        assert_eq!(t.rows.len(), 3, "seq row + one row per thread count");
        let t = e18_cole_wallclock(9, &[1, 2], 1);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e15_constants_scale_linearly() {
        let t = e15_cost_constants(8, &[1, 2, 4]);
        let d1: f64 = t.rows[0][1].parse().unwrap();
        let d4: f64 = t.rows[2][1].parse().unwrap();
        // fork/touch/write scale 4x but plain unit ops stay at 1, so the
        // overall depth grows somewhat less than 4x.
        let ratio = d4 / d1;
        assert!(
            (2.2..4.2).contains(&ratio),
            "depth should scale ~k: {ratio}"
        );
    }

    #[test]
    fn e15_cells_smoke() {
        let t = e15_cells(2, 500);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn rt_and_model_agree() {
        assert!(rt_matches_model(9));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn e20_smoke() {
        let ts = e20_trace_vs_model(8, &[1, 2], 1);
        assert_eq!(ts.len(), 2, "union and 2-6 insert");
        for t in &ts {
            assert_eq!(t.rows.len(), 2);
            // t=1: zero steals, measured and model alike.
            let measured: f64 = t.rows[0][1].parse().unwrap();
            let model: u64 = t.rows[0][2].parse().unwrap();
            assert_eq!(measured, 0.0, "single worker cannot steal: {t:?}");
            assert_eq!(model, 0, "model p=1 cannot steal: {t:?}");
            // Suspensions happen in both worlds on these workloads.
            let meas_susp: f64 = t.rows[1][3].parse().unwrap();
            let model_susp: u64 = t.rows[1][4].parse().unwrap();
            assert!(meas_susp >= 0.0);
            assert!(model_susp > 0, "pipelined DAGs suspend in the model");
        }
    }
}
