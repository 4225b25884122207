//! `algs-t1` / `algs-t2`: the four §3 algorithms on pf-rt, alternating
//! rep by rep with the *same generic code* on the `Seq` engine over the
//! same inputs.
//!
//! Inputs are built once per engine during set-up and shared by every rep
//! (the trees are persistent: a run reads its inputs and allocates its
//! result). Only the session — root push to quiescence — is on the clock.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_algs::merge::merge;
use pf_algs::plain::PlainTreap;
use pf_algs::treap::{diff, union, Treap, TreapFut, TreapWr};
use pf_algs::tree::{Tree, TreeFut, TreeWr};
use pf_algs::two_six::{insert_many, TsFut, TsTree, TsWr};
use pf_algs::{Mode, PipeBackend, Seq, Val};
use pf_core::{CostReport, Ctx, Sim};
use pf_rt::{RunStats, Runtime, Session, Worker};

use crate::gen::AlgInputs;
use crate::span::Recorder;
use crate::stats::{geomean, mean, median, ms, percentile, Tail};
use crate::{Layers, RunData, Scale, Workload};

/// One of the four algorithms and the per-layer metrics that carry its
/// numbers.
pub struct Alg {
    pub name: &'static str,
    rt_ms: &'static str,
    seq_ms: &'static str,
    x_seq: &'static str,
    work: &'static str,
    depth: &'static str,
    ns_per_work: &'static str,
}

/// The four algorithms, in the order every per-algorithm array uses.
pub const ALGS: [Alg; 4] = [
    Alg {
        name: "union",
        rt_ms: "algs.treap.union_rt_ms",
        seq_ms: "backend.seq.union_ms",
        x_seq: "algs.treap.union_x_seq",
        work: "core.cost.union_work",
        depth: "core.cost.union_depth",
        ns_per_work: "core.cost.union_ns_per_work",
    },
    Alg {
        name: "diff",
        rt_ms: "algs.treap.diff_rt_ms",
        seq_ms: "backend.seq.diff_ms",
        x_seq: "algs.treap.diff_x_seq",
        work: "core.cost.diff_work",
        depth: "core.cost.diff_depth",
        ns_per_work: "core.cost.diff_ns_per_work",
    },
    Alg {
        name: "insert26",
        rt_ms: "algs.two_six.insert26_rt_ms",
        seq_ms: "backend.seq.insert26_ms",
        x_seq: "algs.two_six.insert26_x_seq",
        work: "core.cost.insert26_work",
        depth: "core.cost.insert26_depth",
        ns_per_work: "core.cost.insert26_ns_per_work",
    },
    Alg {
        name: "merge",
        rt_ms: "algs.merge.merge_rt_ms",
        seq_ms: "backend.seq.merge_ms",
        x_seq: "algs.merge.merge_x_seq",
        work: "core.cost.merge_work",
        depth: "core.cost.merge_depth",
        ns_per_work: "core.cost.merge_ns_per_work",
    },
];

/// One engine's pre-built inputs.
struct Built<B: PipeBackend> {
    union: (TreapFut<B, i64>, TreapFut<B, i64>),
    diff: (TreapFut<B, i64>, TreapFut<B, i64>),
    insert26: (TsFut<B, i64>, Arc<Vec<i64>>),
    merge: (TreeFut<B, i64>, TreeFut<B, i64>),
}

/// One algorithm's result, kept until it has been checked.
enum Out<B: PipeBackend> {
    Treap(TreapFut<B, i64>),
    TwoSix(TsFut<B, i64>),
    Tree(TreeFut<B, i64>),
}

// pf-algs states what it needs of an engine's cells as `where` clauses
// (pf-backend's crate docs say why they are not GAT bounds); one impl
// block states them once for the three engine-generic drivers.
impl<B: PipeBackend> Built<B>
where
    Treap<B, i64>: Val,
    TreapFut<B, i64>: Val,
    TreapWr<B, i64>: Send,
    TsTree<B, i64>: Val,
    TsFut<B, i64>: Val,
    TsWr<B, i64>: Send,
    Tree<B, i64>: Val,
    TreeFut<B, i64>: Val,
    TreeWr<B, i64>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    /// Build every input on engine `bk` with free, pre-written cells.
    fn build(bk: &B, inp: &AlgInputs) -> Self {
        let treap = |e| bk.input(Treap::from_entries(bk, e));
        let tree = |k| bk.input(Tree::from_sorted(bk, k));
        Built {
            union: (treap(&inp.union.0), treap(&inp.union.1)),
            diff: (treap(&inp.diff.0), treap(&inp.diff.1)),
            insert26: (
                bk.input(TsTree::from_sorted(bk, &inp.insert26.0)),
                Arc::new(inp.insert26.1.clone()),
            ),
            merge: (tree(&inp.merge.0), tree(&inp.merge.1)),
        }
    }

    /// Start algorithm `alg` on `bk`; the result is complete once the
    /// engine has run everything this forks.
    fn start(&self, bk: &B, alg: usize) -> Out<B> {
        match alg {
            0 | 1 => {
                let (x, y) = if alg == 0 {
                    self.union.clone()
                } else {
                    self.diff.clone()
                };
                let (w, r) = bk.cell();
                if alg == 0 {
                    union(bk, x, y, w, Mode::Pipelined);
                } else {
                    diff(bk, x, y, w, Mode::Pipelined);
                }
                Out::Treap(r)
            }
            2 => Out::TwoSix(insert_many(
                bk,
                &self.insert26.1,
                self.insert26.0.clone(),
                Mode::Pipelined,
            )),
            _ => {
                let (w, r) = bk.cell();
                merge(
                    bk,
                    self.merge.0.clone(),
                    self.merge.1.clone(),
                    w,
                    Mode::Pipelined,
                );
                Out::Tree(r)
            }
        }
    }

    /// Sorted keys of a finished result, or why its structure is broken.
    fn inspect(out: &Out<B>) -> Result<Vec<i64>, String> {
        match out {
            Out::Treap(f) => {
                let t = Treap::<B, i64>::expect(f);
                if t.check_invariants() {
                    Ok(t.to_sorted_vec())
                } else {
                    Err("treap order broken".into())
                }
            }
            Out::TwoSix(f) => {
                let t = TsTree::<B, i64>::expect(f);
                t.validate().map(|()| t.to_sorted_vec())
            }
            Out::Tree(f) => {
                let t = Tree::<B, i64>::expect(f);
                if t.is_search_tree() {
                    Ok(t.to_sorted_vec())
                } else {
                    Err("search-tree order broken".into())
                }
            }
        }
    }
}

impl<B: PipeBackend> Clone for Built<B> {
    fn clone(&self) -> Self {
        Built {
            union: self.union.clone(),
            diff: self.diff.clone(),
            insert26: self.insert26.clone(),
            merge: self.merge.clone(),
        }
    }
}

pub struct Algs {
    workers: usize,
    inputs: Arc<AlgInputs>,
    rt: Runtime,
    on_rt: Built<Worker>,
    on_seq: Built<Seq>,
    /// Reps of each plain oracle in the traced pass.
    plain_reps: usize,
}

/// One timed pf-rt session of algorithm `alg`.
fn rt_rep(
    rt: &Runtime,
    built: &Built<Worker>,
    alg: usize,
    rec: &Recorder,
    id: u64,
) -> Option<(Duration, RunStats, Out<Worker>)> {
    let (tx, rx) = std::sync::mpsc::channel();
    let built = built.clone();
    let _s = rec.span("rt:try_run_session", id);
    let t = Instant::now();
    let stats = rt
        .try_run_session(Session::new(), move |wk| {
            tx.send(built.start(wk, alg))
                .expect("the client outlives its session");
        })
        .ok()?;
    Some((t.elapsed(), stats, rx.recv().ok()?))
}

fn seq_rep(built: &Built<Seq>, alg: usize, rec: &Recorder, id: u64) -> (Duration, Out<Seq>) {
    let _s = rec.span("backend:Seq::run", id);
    let t = Instant::now();
    let out = Seq::run(|bk| built.start(bk, alg));
    (t.elapsed(), out)
}

impl Algs {
    pub fn setup(workers: usize, scale: &Scale, seed: u64, rec: &Recorder) -> Self {
        let inputs = {
            let _s = rec.span("bench:generate", 0);
            Arc::new(AlgInputs::generate(scale.n, seed))
        };
        let rt = {
            let _s = rec.span("rt:Runtime::new", 0);
            Runtime::new(workers)
        };
        let _s = rec.span("bench:build_inputs", 0);
        let on_seq = Built::build(&Seq, &inputs);
        // `Worker` has no constructor outside a session, so the pf-rt
        // copies are built by an untimed session on the same pool.
        let (tx, rx) = std::sync::mpsc::channel();
        let for_rt = Arc::clone(&inputs);
        rt.run(move |wk| {
            tx.send(Built::build(wk, &for_rt))
                .expect("the client outlives its session")
        });
        let on_rt = rx.recv().expect("the build session ran");
        let mut this = Algs {
            workers,
            inputs,
            rt,
            on_rt,
            on_seq,
            plain_reps: scale.plain_reps,
        };
        drop(_s);
        // One untimed round: faults the allocator's pages in and checks
        // the Seq engine's results against the BTreeSet expectation. Seq
        // is deterministic, so the timed rounds compare pf-rt's results
        // with that same expectation and do not walk Seq's again.
        let _w = rec.span("bench:warm_up", 0);
        let warm = this.round(0, true, &Recorder::off());
        assert_eq!(
            warm.failed, 0,
            "warm-up round disagrees with the BTreeSet oracle"
        );
        this
    }

    /// One round: each algorithm once on pf-rt and once on `Seq`, pf-rt
    /// first on even rounds and second on odd ones.
    fn round(&mut self, r: u64, check_seq: bool, rec: &Recorder) -> Round {
        let mut out = Round::default();
        for alg in 0..4 {
            let rt_first = r.is_multiple_of(2);
            let mut rt_out = None;
            if rt_first {
                rt_out = rt_rep(&self.rt, &self.on_rt, alg, rec, r);
            }
            let (seq_t, seq_res) = seq_rep(&self.on_seq, alg, rec, r);
            if !rt_first {
                rt_out = rt_rep(&self.rt, &self.on_rt, alg, rec, r);
            }
            out.seq[alg] = seq_t;
            out.attempted += 1;
            let _c = rec.span("bench:check", r);
            let want = &self.inputs.expected[alg];
            let seq_ok = !check_seq || Built::inspect(&seq_res).is_ok_and(|k| k == *want);
            let rt_ok = match rt_out {
                Some((t, stats, res)) => {
                    out.rt[alg] = t;
                    out.stats.accumulate(&stats);
                    Built::inspect(&res).is_ok_and(|k| k == *want)
                }
                None => false,
            };
            if !(seq_ok && rt_ok) {
                out.failed += 1;
            }
        }
        out
    }

    fn cost(&self, alg: usize) -> CostReport {
        let inputs = &self.inputs;
        let (keys, cost) = Sim::new().run(|ctx: &Ctx| {
            let built = Built::build(ctx, inputs);
            Built::inspect(&built.start(ctx, alg))
        });
        assert_eq!(
            keys.as_ref(),
            Ok(&inputs.expected[alg]),
            "cost-model run of {}",
            ALGS[alg].name
        );
        cost
    }

    /// Median wall clock of the plain sequential code (no engine at all):
    /// `PlainTreap` union/diff and `BTreeSet::extend`.
    fn plain_ms(&self, alg: usize, rec: &Recorder) -> f64 {
        let times: Vec<f64> = (0..self.plain_reps)
            .map(|i| {
                let _s = rec.span("algs:plain", i as u64);
                match alg {
                    0 | 1 => {
                        let (a, b) = if alg == 0 {
                            &self.inputs.union
                        } else {
                            &self.inputs.diff
                        };
                        let (ta, tb) = (PlainTreap::from_entries(a), PlainTreap::from_entries(b));
                        let t = Instant::now();
                        let out = if alg == 0 {
                            PlainTreap::union(ta, tb)
                        } else {
                            PlainTreap::diff(ta, tb)
                        };
                        let d = t.elapsed();
                        assert_eq!(PlainTreap::size(&out), self.inputs.expected[alg].len());
                        ms(d)
                    }
                    _ => {
                        let mut set: std::collections::BTreeSet<i64> =
                            self.inputs.insert26.0.iter().copied().collect();
                        let t = Instant::now();
                        set.extend(self.inputs.insert26.1.iter().copied());
                        let d = t.elapsed();
                        assert_eq!(set.len(), self.inputs.expected[2].len());
                        ms(d)
                    }
                }
            })
            .collect();
        median(&times)
    }
}

#[derive(Default)]
struct Round {
    rt: [Duration; 4],
    seq: [Duration; 4],
    stats: RunStats,
    attempted: u64,
    failed: u64,
}

impl Workload for Algs {
    fn run(&mut self, seconds: f64, rec: &Recorder) -> RunData {
        let started = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let r = rounds.len() as u64;
            let _s = rec.span("bench:round", r);
            rounds.push(self.round(r, false, rec));
        }
        let wall = started.elapsed();

        let col = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
        let rt_ms: Vec<f64> = (0..4).map(|a| median(&col(&|r| ms(r.rt[a])))).collect();
        let seq_ms: Vec<f64> = (0..4).map(|a| median(&col(&|r| ms(r.seq[a])))).collect();
        // Ratios are taken round by round, between two runs that were next
        // to each other in time, so the host's drift over the run cancels.
        let ratio: Vec<f64> = (0..4)
            .map(|a| median(&col(&|r| r.rt[a].as_secs_f64() / r.seq[a].as_secs_f64())))
            .collect();
        // A request here is one round's four pf-rt sessions; its oracle
        // time is the same round's four Seq runs, which ran between them,
        // so the host's drift over the run cancels in the ratio.
        let round_ms = col(&|r| r.rt.iter().map(|d| ms(*d)).sum());
        let round_x = col(&|r| {
            r.rt.iter().sum::<Duration>().as_secs_f64()
                / r.seq.iter().sum::<Duration>().as_secs_f64()
        });
        let keys: usize = self.inputs.input_keys().iter().sum();

        let mut layer = Layers::new();
        for (a, alg) in ALGS.iter().enumerate() {
            layer.insert(alg.rt_ms, rt_ms[a]);
            layer.insert(alg.seq_ms, seq_ms[a]);
            layer.insert(alg.x_seq, ratio[a]);
        }
        // Counts are per round (all four algorithms, once each).
        let tasks = mean(&col(&|r| r.stats.tasks_executed as f64));
        let steals = mean(&col(&|r| r.stats.steals as f64));
        let suspensions = mean(&col(&|r| r.stats.suspensions as f64));
        layer.insert("rt.scheduler.tasks", tasks);
        layer.insert(
            "rt.scheduler.spawns",
            mean(&col(&|r| r.stats.spawns as f64)),
        );
        layer.insert("rt.scheduler.steals", steals);
        layer.insert("rt.scheduler.steals_per_ktask", 1e3 * steals / tasks);
        layer.insert("rt.cell.suspensions", suspensions);
        layer.insert("rt.cell.suspensions_per_ktask", 1e3 * suspensions / tasks);
        layer.insert("rt.pool.sessions", 4.0 * rounds.len() as f64);
        let busy: f64 = rounds.iter().map(|r| r.stats.elapsed.as_secs_f64()).sum();
        layer.insert("rt.pool.session_busy_share", busy / wall.as_secs_f64());

        RunData {
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            keys_per_s: keys as f64 / (rt_ms.iter().sum::<f64>() / 1e3),
            x_seq: geomean(&ratio),
            req_p50_x_seq: median(&round_x),
            req_p95_x_p50: percentile(&round_x, 95.0) / median(&round_x),
            req_ms: Tail::of(&round_ms),
            samples: rounds.len() as u64,
            unit_cost: rt_ms.iter().sum(),
            wall,
            layer,
        }
    }

    fn extras(&mut self, rec: &Recorder, run: &RunData, unit: &Layers) -> (Layers, Vec<String>) {
        let mut layer = Layers::new();
        layer.insert("algs.plain.union_ms", self.plain_ms(0, rec));
        layer.insert("algs.plain.diff_ms", self.plain_ms(1, rec));
        layer.insert("algs.plain.insert26_btreeset_ms", self.plain_ms(2, rec));

        let mut costs = Vec::new();
        for (a, alg) in ALGS.iter().enumerate() {
            let c = {
                let _s = rec.span("core:Sim::run", a as u64);
                self.cost(a)
            };
            layer.insert(alg.work, c.work as f64);
            layer.insert(alg.depth, c.depth as f64);
            layer.insert(alg.ns_per_work, run.layer[alg.rt_ms] * 1e6 / c.work as f64);
            costs.push(c);
        }

        // The ledger: what the session should cost if it were nothing but
        // its scheduler and cell events at their probed unit costs. Forks,
        // touches and steals are counted per algorithm (exact from the
        // cost model; suspensions and steals from one extra session).
        let mut table = vec![format!(
            "# cost ledger, {} worker(s): count x unit cost per layer",
            self.workers
        )];
        for (alg, ledger, residual) in [
            (
                0,
                "algs.treap.union_ledger_ms",
                "algs.treap.union_residual_share",
            ),
            (
                2,
                "algs.two_six.insert26_ledger_ms",
                "algs.two_six.insert26_residual_share",
            ),
        ] {
            let stats = rt_rep(&self.rt, &self.on_rt, alg, rec, 0)
                .map(|r| r.1)
                .unwrap_or_default();
            let c = &costs[alg];
            let touches_full = c.touches.saturating_sub(stats.suspensions);
            let rows = [
                ("rt.scheduler.spawn_exec_ns", "spawned tasks", stats.spawns),
                (
                    "rt.cell.write_touch_ns",
                    "touches of a written cell",
                    touches_full,
                ),
                (
                    "rt.cell.touch_write_ns",
                    "suspended touches",
                    stats.suspensions,
                ),
                ("rt.deque.steal_ns", "steals", stats.steals),
            ];
            let measured = run.layer[ALGS[alg].rt_ms];
            let mut sum = 0.0;
            table.push(format!(
                "# {:<10} {:<28} {:>10} {:>10} {:>10}",
                ALGS[alg].name, "event", "count", "unit_ns", "ms"
            ));
            for (cost, what, count) in rows {
                let part = count as f64 * unit[cost] / 1e6;
                sum += part;
                table.push(format!(
                    "# {:<10} {:<28} {:>10} {:>10.1} {:>10.3}",
                    "", what, count, unit[cost], part
                ));
            }
            table.push(format!(
                "# {:<10} ledger {:.3} ms, measured {:.3} ms, residual {:.3} ms ({:.1} %)",
                "",
                sum,
                measured,
                measured - sum,
                100.0 * (measured - sum) / measured
            ));
            layer.insert(ledger, sum);
            layer.insert(residual, (measured - sum) / measured);
        }
        (layer, table)
    }

    fn workers(&self) -> usize {
        self.workers
    }
}
