//! Real-runtime experiments: the wall-clock companions of E13/E16/E18
//! (futures on the pool against the hand pipelines run serially — pf-perf
//! has no Cole/PVW counterpart), E15a (cost-constant sensitivity) and E20 (a
//! traced session's event counts against pf-machine's predictions). Every
//! other wall-clock number is pf-perf's (EXPERIMENTS.md, E12 and E15b).

use std::time::Duration;

use pf_algs::start::merge_on;
use pf_algs::Mode;
use pf_core::{CostModel, Sim};
use pf_rt::{Runtime, Session, SessionTrace, Worker};

use crate::baselines::{
    best_of, time_cole, time_insert_rt, time_insert_seq, time_msort_rt, time_pvw, time_sort_seq,
};
use crate::workloads::{interleaved_pair, shuffled_keys, sorted_keys};
use crate::{f2, u, Table};

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
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

/// A wall-clock head-to-head: the hand pipeline, which runs serially
/// whatever the pool's width, is timed once; then a `seq` row for the
/// futures side's sequential reference (`None`) and a row per thread
/// count, each the best of `reps` and the hand time over the futures one.
fn head_to_head(
    title: String,
    [futures_ms, hand_ms, ratio]: [&str; 3],
    threads: &[usize],
    reps: usize,
    futures: impl Fn(Option<usize>) -> Duration,
    hand: impl Fn() -> Duration,
) -> Table {
    let mut t = Table::new(title, &["threads", futures_ms, hand_ms, ratio]);
    let dh = best_of(reps, &hand);
    for th in std::iter::once(None).chain(threads.iter().map(|&th| Some(th))) {
        let df = best_of(reps, || futures(th));
        t.row(vec![
            th.map_or("seq".into(), |th| u(th as u64)),
            ms(df),
            ms(dh),
            f2(dh.as_secs_f64() / df.as_secs_f64()),
        ]);
    }
    t
}

/// E16w — the futures 2-6 bulk insert (implicit pipeline,
/// scheduler-discovered) vs the PVW wave schedule with its rounds run
/// serially; the futures side's sequential reference is `BTreeSet` extend.
pub fn e16_pvw_wallclock(lg_n: u32, lg_m: u32, threads: &[usize], reps: usize) -> Table {
    let n = 1usize << lg_n;
    let m = 1usize << lg_m;
    let initial = sorted_keys(n, 2);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
    head_to_head(
        format!("E16w wall-clock: futures 2-6 insert vs PVW rounds run serially, n = {n}, m = {m}"),
        ["futures insert (ms)", "pvw serial (ms)", "pvw/futures"],
        threads,
        reps,
        |th| match th {
            None => time_insert_seq(&initial, &newk),
            Some(th) => time_insert_rt(&initial, &newk, th),
        },
        || time_pvw(&initial, &newk).0,
    )
}

/// E18w — the futures tree mergesort vs Cole's cascade with its stages run
/// serially; the futures side's sequential reference is `sort_unstable`.
pub fn e18_cole_wallclock(lg_n: u32, threads: &[usize], reps: usize) -> Table {
    let n = 1usize << lg_n;
    let keys = shuffled_keys(n, 77);
    head_to_head(
        format!("E18w wall-clock: futures msort vs Cole cascade run serially, n = {n}"),
        ["futures msort (ms)", "cole serial (ms)", "cole/futures"],
        threads,
        reps,
        |th| match th {
            None => time_sort_seq(&keys),
            Some(th) => time_msort_rt(&keys, th),
        },
        || time_cole(&keys).0,
    )
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

/// Run `root` on `rt` in a traced session ([`Session::trace`]) and take
/// its record back. A failed session resumes its panic.
pub fn traced(rt: &Runtime, root: impl FnOnce(&Worker) + Send + 'static) -> SessionTrace {
    if let Err(e) = rt.try_run_session(Session::new().trace(), root) {
        e.resume();
    }
    pf_rt::take_last_trace().expect("a traced session leaves its record")
}

/// E20 — the first measured-vs-model scheduler comparison: run treap
/// union and 2-6 bulk insert in traced sessions on the real pool and
/// print each session's steal and suspension counts (from [`traced`])
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
pub fn e20_trace_vs_model(lg_n: u32, threads: &[usize], reps: usize) -> Vec<Table> {
    use crate::workloads::union_entries;
    use pf_algs::start::{insert_many_on, union_on};
    use pf_machine::{replay, steal_replay, Discipline, StealConfig};
    use pf_rt::TraceKind;

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
            let rt = pf_rt::Runtime::shared(th);
            for _ in 0..reps {
                let ts = if *name == "union" {
                    let (ea, eb) = (ea.clone(), eb.clone());
                    traced(&rt, move |wk| {
                        union_on(wk, &ea, &eb, Mode::Pipelined);
                    })
                } else {
                    let (initial, newk) = (initial.clone(), newk.clone());
                    traced(&rt, move |wk| {
                        insert_many_on(wk, &initial, &newk, Mode::Pipelined);
                    })
                };
                steals += ts.total(TraceKind::Steal) as f64;
                suspends += ts.total(TraceKind::Suspend) as f64;
                execs += ts.total(TraceKind::Exec) as f64;
                parks += ts.total(TraceKind::Park) as f64;
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

#[cfg(test)]
mod tests {
    use super::*;

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
