//! Machine-model experiments: E09 (Lemma 4.1 greedy bound), E10 (machine
//! model comparison incl. PVW), E14 (stack vs queue space).

use pf_algs::start::{diff_on, insert_many_on, merge_on, union_on};
use pf_algs::Mode;
use pf_core::{Sim, Trace};
use pf_machine::{predicted_time, pvw_time, replay, Discipline, Machine, INFINITE_P};

use crate::sim::run_insert_many;
use crate::workloads::{diff_entries, interleaved_pair, sorted_keys, union_entries};
use crate::{f2, u, Table};

/// Capture pipelined traces for the four §3 algorithms at the given size.
pub fn capture_traces(lg_n: u32) -> Vec<(&'static str, Trace)> {
    let n = 1usize << lg_n;
    let mut out = Vec::new();

    let (a, b) = interleaved_pair(n, n);
    let (_, _, tr) = Sim::new().run_traced(|ctx| merge_on(ctx, &a, &b, Mode::Pipelined));
    out.push(("merge", tr));

    let (ea, eb) = union_entries(n, n, 11);
    let (_, _, tr) = Sim::new().run_traced(|ctx| union_on(ctx, &ea, &eb, Mode::Pipelined));
    out.push(("union", tr));

    let (da, db) = diff_entries(n, n / 2, 13);
    let (_, _, tr) = Sim::new().run_traced(|ctx| diff_on(ctx, &da, &db, Mode::Pipelined));
    out.push(("diff", tr));

    let initial = sorted_keys(n, 2);
    let m = (n / 16).max(4);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
    let (_, _, tr) =
        Sim::new().run_traced(|ctx| insert_many_on(ctx, &initial, &newk, Mode::Pipelined));
    out.push(("2-6 insert", tr));

    out
}

/// E09 — Lemma 4.1: greedy-schedule steps ≤ w/p + d for every algorithm
/// and p; p = ∞ takes exactly `depth` steps.
pub fn e09_scheduler(lg_n: u32, ps: &[usize]) -> Table {
    let mut t = Table::new(
        "E09 Lemma 4.1: §4 scheduler steps vs Brent bound w/p + d (stack discipline)",
        &[
            "algorithm",
            "p",
            "steps",
            "w/p + d",
            "steps/bound",
            "suspensions",
        ],
    );
    for (name, tr) in capture_traces(lg_n) {
        for &p in ps {
            let s = replay(&tr, p, Discipline::Stack);
            assert!(s.within_brent(tr.work, tr.depth, p), "{name} p={p}");
            let bound = if p == INFINITE_P {
                tr.depth
            } else {
                tr.work.div_ceil(p as u64) + tr.depth
            };
            let pstr = if p == INFINITE_P {
                "inf".to_string()
            } else {
                p.to_string()
            };
            t.row(vec![
                name.to_string(),
                pstr,
                u(s.steps),
                u(bound),
                f2(s.steps as f64 / bound as f64),
                u(s.suspensions),
            ]);
        }
        // Exactness at p = ∞.
        let sinf = replay(&tr, INFINITE_P, Discipline::Stack);
        assert_eq!(sinf.steps, tr.depth, "{name}: p=∞ must equal depth");
        assert_eq!(sinf.work_executed, tr.work, "{name}: replayed work");
    }
    t
}

/// E10 — machine-model comparison for the 2-6 tree insert (the paper's §1
/// discussion): predicted times on each model vs the hand-pipelined PVW
/// algorithm.
pub fn e10_models(lg_n: u32, lg_m: u32, ps: &[usize]) -> Table {
    let n = 1usize << lg_n;
    let m = 1usize << lg_m;
    let initial = sorted_keys(n, 2);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
    let (_, c) = run_insert_many(&initial, &newk, Mode::Pipelined);
    let mut t = Table::new(
        format!(
            "E10 model comparison, 2-6 insert m={m} into n={n} (w={}, d={}): futures runtime vs PVW",
            c.work, c.depth
        ),
        &["p", "EREW+scan", "EREW", "asyncEREW", "BSP(g=2,l=16)", "CRCW+f&a", "PVW(EREW)"],
    );
    for &p in ps {
        t.row(vec![
            u(p as u64),
            f2(predicted_time(Machine::ErewScan, c.work, c.depth, p)),
            f2(predicted_time(Machine::Erew, c.work, c.depth, p)),
            f2(predicted_time(Machine::AsyncErew, c.work, c.depth, p)),
            f2(predicted_time(
                Machine::Bsp { g: 2.0, l: 16.0 },
                c.work,
                c.depth,
                p,
            )),
            f2(predicted_time(Machine::CrcwFetchAdd, c.work, c.depth, p)),
            f2(pvw_time(n, m, p)),
        ]);
    }
    t
}

/// E14 — §4 space remark: the stack discipline keeps the thread pool far
/// smaller than a FIFO queue.
pub fn e14_space(lg_n: u32, ps: &[usize]) -> Table {
    let mut t = Table::new(
        "E14 §4 space: max pool size, stack (LIFO) vs queue (FIFO) discipline",
        &[
            "algorithm",
            "p",
            "max pool (stack)",
            "max pool (queue)",
            "queue/stack",
        ],
    );
    for (name, tr) in capture_traces(lg_n) {
        for &p in ps {
            let st = replay(&tr, p, Discipline::Stack);
            let qu = replay(&tr, p, Discipline::Queue);
            t.row(vec![
                name.to_string(),
                u(p as u64),
                u(st.max_pool as u64),
                u(qu.max_pool as u64),
                f2(qu.max_pool as f64 / st.max_pool.max(1) as f64),
            ]);
        }
    }
    t
}

/// E15c — suspension-accounting ablation: free suspension (pure greedy
/// schedule of the DAG, the library default) vs the paper's charged
/// accounting (the touch action performs the suspension). Same work,
/// step counts within ±suspensions of each other, both within Brent.
pub fn e15_suspension(lg_n: u32, ps: &[usize]) -> Table {
    use pf_machine::{replay_with, Suspension};
    let mut t = Table::new(
        "E15c suspension accounting: free (DAG-greedy) vs charged (§4 bookkeeping)",
        &[
            "algorithm",
            "p",
            "steps(free)",
            "steps(charged)",
            "suspensions",
            "work equal",
        ],
    );
    for (name, tr) in capture_traces(lg_n) {
        for &p in ps {
            let free = replay_with(&tr, p, Discipline::Stack, Suspension::Free);
            let ch = replay_with(&tr, p, Discipline::Stack, Suspension::Charged);
            t.row(vec![
                name.to_string(),
                if p == INFINITE_P {
                    "inf".into()
                } else {
                    p.to_string()
                },
                u(free.steps),
                u(ch.steps),
                u(ch.suspensions),
                if free.work_executed == ch.work_executed {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    t
}

/// E16 — futures (implicit pipeline) vs the PVW-style explicit
/// synchronous pipeline, on the same 2-6 bulk-insert workloads. Both are
/// Θ(lg n + lg m); the futures "time" is the DAG depth (what the §4
/// runtime realizes within Brent's bound), the hand pipeline's "time" is
/// its synchronous round count.
pub fn e16_pvw(lgs_n: &[u32], lg_m: u32) -> Table {
    use pf_algs::pvw::{pvw_insert_many, PvwTree};
    let m = 1usize << lg_m;
    let mut t = Table::new(
        "E16 implicit (futures) vs explicit (PVW-style) pipelining, 2-6 bulk insert",
        &[
            "n",
            "m",
            "futures depth",
            "hand rounds",
            "depth/rounds",
            "hand max waves",
        ],
    );
    for &l in lgs_n {
        let n = 1usize << l;
        let initial = sorted_keys(n, 2);
        let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
        let (_, c) = run_insert_many(&initial, &newk, Mode::Pipelined);
        let mut pt = PvwTree::from_sorted(&initial);
        let stats = pvw_insert_many(&mut pt, &newk);
        t.row(vec![
            u(n as u64),
            u(m as u64),
            u(c.depth),
            u(stats.rounds),
            f2(c.depth as f64 / stats.rounds as f64),
            u(stats.max_concurrent_waves as u64),
        ]);
    }
    t
}

/// E17 — asynchronous execution: Blumofe–Leiserson work stealing over the
/// same traces, vs the synchronous §4 greedy scheduler. The futures
/// programs need no barrier — the makespan stays within the
/// work-stealing bound shape `w/p + O(d·steal_latency)`.
pub fn e17_steal(lg_n: u32, ps: &[usize]) -> Table {
    use pf_machine::{steal_replay, StealConfig};
    let mut t = Table::new(
        "E17 asynchronous work stealing vs synchronous greedy (steal latency 3)",
        &[
            "algorithm",
            "p",
            "sync steps",
            "async makespan",
            "async/sync",
            "steals",
            "idle%",
        ],
    );
    for (name, tr) in capture_traces(lg_n) {
        for &p in ps {
            let sync = replay(&tr, p, Discipline::Stack);
            let cfg = StealConfig {
                p,
                steal_latency: 3,
                seed: 0xFEED + p as u64,
            };
            let st = steal_replay(&tr, cfg);
            assert!(
                st.within_steal_bound(tr.work, tr.depth, &cfg, 16),
                "{name} p={p}: makespan {} outside steal bound",
                st.makespan
            );
            t.row(vec![
                name.to_string(),
                u(p as u64),
                u(sync.steps),
                u(st.makespan),
                f2(st.makespan as f64 / sync.steps as f64),
                u(st.steals),
                f2(100.0 * st.idle_ticks as f64 / (st.makespan * p as u64).max(1) as f64),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_smoke() {
        let t = e17_steal(7, &[1, 4]);
        assert_eq!(t.rows.len(), 8);
        for r in &t.rows {
            let ratio: f64 = r[4].parse().unwrap();
            assert!(
                ratio >= 0.99,
                "async cannot beat the barrier-free lower bound by much: {r:?}"
            );
        }
    }

    #[test]
    fn e16_both_logarithmic() {
        let t = e16_pvw(&[8, 10, 12], 5);
        assert_eq!(t.rows.len(), 3);
        // Both columns grow by O(1) per 4x of n.
        let d: Vec<u64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let h: Vec<u64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(d[2] - d[0] < d[0], "futures depth not logarithmic: {d:?}");
        assert!(h[2] - h[0] <= 6, "hand rounds not logarithmic: {h:?}");
    }

    #[test]
    fn e10_smoke() {
        let t = e10_models(8, 4, &[1, 16]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn e14_smoke() {
        let t = e14_space(6, &[4]);
        assert_eq!(t.rows.len(), 4);
    }
}
