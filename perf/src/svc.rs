//! `svc-bulk`, `svc-paced`, `svc-read`: pf-service under backlogged,
//! open-loop and read-beside-write traffic. 2 shards on a 2-worker pool,
//! `ApplyMode::Pipelined`, window 8, default `CoalescePolicy`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_algs::plain::PlainTreap;
use pf_algs::treap::Treap;
use pf_rt::{ready, Runtime, Worker};
use pf_service::{coalesce, ApplyMode, DrainReport, Request, ServiceConfig, SetService, ShardMap};
use rand::prelude::*;

use crate::gen::{self, KEYSPACE, STATIC};
use crate::span::Recorder;
use crate::stats::{lower_quartile, median, ms, percentile, Hist, Tail};
use crate::{Layers, RunData, Scale, Workload};

const SHARDS: usize = 2;
const POOL: usize = 2;

/// Open-loop rate of `svc-paced`, requests/s: half the closed-loop
/// capacity (one request per `submit` + `pump`) measured on the 2-core
/// authoring host at the default seed, then frozen.
pub const PACED_RATE: f64 = 2500.0;
/// Rate of the writer beside the `svc-read` reader, requests/s.
pub const READ_WRITER_RATE: f64 = 200.0;
/// How long before a request falls due the open-loop generator stops
/// sleeping and spins.
const SPIN: Duration = Duration::from_micros(150);
/// Timed passes over the `BTreeSet` oracle where one pass is short.
const ORACLE_REPS: usize = 5;
/// Keys a `svc-read` range query spans (about 32 of them are present).
const RANGE_SPAN: i64 = 32 * KEYSPACE / (1 << 19);

fn service(rt: &Arc<Runtime>, mode: ApplyMode) -> SetService<i64> {
    let cfg = ServiceConfig {
        threads: POOL,
        window: 8,
        mode,
        deadline: Some(Duration::from_secs(60)),
        ..ServiceConfig::default()
    };
    SetService::with_runtime(Arc::clone(rt), ShardMap::uniform(SHARDS, 0, KEYSPACE), cfg)
}

fn all_keys(svc: &SetService<i64>) -> Vec<i64> {
    (0..svc.shards()).flat_map(|s| svc.shard_keys(s)).collect()
}

fn entries_of(reqs: &[Request<i64>]) -> usize {
    reqs.iter().map(|r| r.entries.len()).sum()
}

/// What the harness keeps of the `DrainReport`s of one run.
#[derive(Default)]
struct Drained {
    report: DrainReport,
    waves: u64,
    wave_keys: u64,
    replayed: u64,
    /// Tags of requests with a wave that did not commit.
    unserved: BTreeSet<u64>,
    /// Tags seen in any outcome.
    decided: BTreeSet<u64>,
}

impl Drained {
    fn absorb(&mut self, mut rep: DrainReport) {
        for o in rep.outcomes.drain(..) {
            self.waves += 1;
            self.wave_keys += o.keys as u64;
            self.replayed += o.replayed as u64;
            if !o.served {
                self.unserved.extend(&o.tags);
            }
            self.decided.extend(o.tags);
        }
        self.report.merge(rep);
    }

    /// Per-layer counts, each divided by `reps`.
    fn layers(&self, submitted_keys: usize, wall: Duration, reps: f64) -> Layers {
        let r = &self.report;
        let tasks = r.stats.tasks_executed as f64;
        Layers::from([
            ("rt.scheduler.tasks", tasks / reps),
            ("rt.scheduler.spawns", r.stats.spawns as f64 / reps),
            ("rt.scheduler.steals", r.stats.steals as f64 / reps),
            (
                "rt.scheduler.steals_per_ktask",
                1e3 * r.stats.steals as f64 / tasks,
            ),
            ("rt.cell.suspensions", r.stats.suspensions as f64 / reps),
            (
                "rt.cell.suspensions_per_ktask",
                1e3 * r.stats.suspensions as f64 / tasks,
            ),
            ("rt.pool.sessions", r.sessions as f64 / reps),
            (
                "rt.pool.session_busy_share",
                r.stats.elapsed.as_secs_f64() / wall.as_secs_f64(),
            ),
            ("service.coalesce.waves", self.waves as f64 / reps),
            (
                "service.coalesce.keys_per_wave",
                self.wave_keys as f64 / self.waves as f64,
            ),
            (
                "service.coalesce.dedup_share",
                1.0 - self.wave_keys as f64 / submitted_keys as f64,
            ),
            (
                "service.service.waves_per_session",
                self.waves as f64 / r.sessions as f64,
            ),
            ("service.service.retries", r.retries as f64 / reps),
            ("service.service.degraded", r.degraded as f64 / reps),
            ("service.service.shed", r.shed as f64 / reps),
            ("service.service.replayed", self.replayed as f64 / reps),
        ])
    }
}

/// Sampled `contains` and `range` answers of a quiescent service against
/// the oracle; returns (attempted, failed).
fn check_reads(svc: &SetService<i64>, oracle: &BTreeSet<i64>, seed: u64) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0003);
    let present: Vec<i64> = oracle
        .iter()
        .copied()
        .step_by(oracle.len() / 500 + 1)
        .collect();
    let mut failed = 0;
    for &k in &present {
        failed += !svc.contains(&k) as u64;
    }
    for _ in 0..500 {
        let k = rng.gen_range(0..KEYSPACE);
        failed += (svc.contains(&k) != oracle.contains(&k)) as u64;
    }
    for _ in 0..100 {
        let lo = rng.gen_range(0..KEYSPACE - RANGE_SPAN);
        let want: Vec<i64> = oracle.range(lo..lo + RANGE_SPAN).copied().collect();
        failed += (svc.range(&lo, &(lo + RANGE_SPAN)) != want) as u64;
    }
    (present.len() as u64 + 600, failed)
}

/// Unit costs of pf-service's stages, probed from outside on a sample of
/// the workload's own requests taken `batch` at a time (what one `pump`
/// finds queued), and of its read path on `svc`.
fn service_probes(
    svc: &SetService<i64>,
    sample: &[Request<i64>],
    batch: usize,
    rec: &Recorder,
) -> Layers {
    let _s = rec.span("bench:service_probes", 0);
    let map = ShardMap::uniform(SHARDS, 0, KEYSPACE);
    let policy = svc.config().policy;
    let keys = entries_of(sample) as f64;
    let (mut route_ns, mut coalesce_ns, mut build_ns, mut built_keys) =
        (0u128, 0u128, 0u128, 0usize);
    for chunk in sample.chunks(batch.max(1)) {
        let mut per_shard: Vec<Vec<Request<i64>>> = vec![Vec::new(); SHARDS];
        for r in chunk {
            let entries = r.entries.clone();
            let t = Instant::now();
            let parts = {
                let _s = rec.span("service:ShardMap::split", r.tag);
                map.split(entries)
            };
            route_ns += t.elapsed().as_nanos();
            for (shard, part) in parts.into_iter().enumerate().filter(|(_, p)| !p.is_empty()) {
                per_shard[shard].push(Request {
                    entries: part,
                    ..r.clone()
                });
            }
        }
        for queued in per_shard {
            let t = Instant::now();
            let waves = {
                let _s = rec.span("service:coalesce", 0);
                coalesce(queued, &policy)
            };
            coalesce_ns += t.elapsed().as_nanos();
            for group in waves.iter().flat_map(|w| &w.groups) {
                let _s = rec.span("service:build_batch_treap", 0);
                let t = Instant::now();
                black_box(batch_treap(&PlainTreap::from_entries(group)));
                build_ns += t.elapsed().as_nanos();
                built_keys += group.len();
            }
        }
    }

    let mut rng = SmallRng::seed_from_u64(0x5eed_0004);
    let reads = 20_000;
    let t = Instant::now();
    for i in 0..reads {
        black_box(svc.snapshot(i % SHARDS));
    }
    let snapshot_ns = t.elapsed().as_nanos() as f64 / reads as f64;
    let t = Instant::now();
    for _ in 0..reads {
        black_box(svc.contains(&rng.gen_range(0..KEYSPACE)));
    }
    let contains_ns = t.elapsed().as_nanos() as f64 / reads as f64;
    let t = Instant::now();
    let mut returned = 0;
    for _ in 0..reads / 10 {
        let lo = rng.gen_range(0..KEYSPACE - RANGE_SPAN);
        returned += svc.range(&lo, &(lo + RANGE_SPAN)).len();
    }
    let range_ns = t.elapsed().as_nanos() as f64;

    Layers::from([
        ("service.shard.route_ns_per_key", route_ns as f64 / keys),
        ("service.coalesce.ns_per_key", coalesce_ns as f64 / keys),
        (
            "service.service.build_ns_per_key",
            build_ns as f64 / built_keys.max(1) as f64,
        ),
        ("service.service.snapshot_ns", snapshot_ns),
        ("service.service.contains_ns", contains_ns),
        (
            "service.service.range_ns_per_key",
            range_ns / returned.max(1) as f64,
        ),
    ])
}

/// A wave group as the service builds it before a session: a sequential
/// treap converted to pf-rt nodes with pre-written cells.
fn batch_treap(t: &Option<Box<PlainTreap<i64>>>) -> Treap<Worker, i64> {
    match t {
        None => Treap::Leaf,
        Some(n) => Treap::node(
            n.key,
            n.prio,
            ready(batch_treap(&n.left)),
            ready(batch_treap(&n.right)),
        ),
    }
}

// ---------------------------------------------------------------- svc-bulk

pub struct Bulk {
    rt: Arc<Runtime>,
    trace: Vec<Request<i64>>,
    expected: Vec<i64>,
    oracle: BTreeSet<i64>,
    seed: u64,
    last: Option<SetService<i64>>,
}

impl Bulk {
    pub fn setup(scale: &Scale, seed: u64, rec: &Recorder) -> Self {
        let trace = {
            let _s = rec.span("bench:generate", 0);
            gen::bulk_trace(scale.bulk_requests, seed)
        };
        let mut oracle = BTreeSet::new();
        gen::replay(&mut oracle, &trace);
        let rt = {
            let _s = rec.span("rt:Runtime::new", 0);
            Arc::new(Runtime::new(POOL))
        };
        let this = Bulk {
            rt,
            expected: oracle.iter().copied().collect(),
            oracle,
            trace,
            seed,
            last: None,
        };
        // A short untimed drive faults the allocator's pages in.
        let _w = rec.span("bench:warm_up", 0);
        let warm = &this.trace[..this.trace.len() / 5];
        this.drive(warm, ApplyMode::Pipelined, &Recorder::off(), 0);
        this
    }

    /// Queue all of `reqs` on a fresh service, then drain the backlog.
    fn drive(
        &self,
        reqs: &[Request<i64>],
        mode: ApplyMode,
        rec: &Recorder,
        rep: u64,
    ) -> (SetService<i64>, Duration, DrainReport) {
        let svc = service(&self.rt, mode);
        let queued: Vec<Request<i64>> = reqs.to_vec();
        let t = Instant::now();
        {
            let _s = rec.span("service:submit", rep);
            queued.into_iter().for_each(|r| svc.submit(r));
        }
        let submit = t.elapsed();
        let _s = rec.span("service:drive", rep);
        let report = svc.drive(std::iter::empty());
        (svc, submit, report)
    }
}

impl Workload for Bulk {
    fn run(&mut self, seconds: f64, rec: &Recorder) -> RunData {
        let started = Instant::now();
        let mut drained = Drained::default();
        let (mut kps, mut walls, mut submits) = (vec![], vec![], vec![]);
        // Both ratios to the oracle are taken per rep, against the replay
        // timed right after the drive, so the host's drift over the run
        // cancels. A request here is one coalesced wave; its latency is
        // the elapsed time of the session that committed it, its oracle
        // time the replay divided by the rep's waves.
        let (mut x_seq, mut p50_x_seq, mut tails, mut waves) = (vec![], vec![], vec![], 0);
        let mut failed = 0;
        while kps.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let rep = kps.len() as u64;
            let _r = rec.span("bench:rep", rep);
            let (svc, submit, report) = self.drive(&self.trace, ApplyMode::Pipelined, rec, rep);
            kps.push(report.keys_per_sec_wall());
            let wall_ms = ms(report.wall);
            walls.push(wall_ms);
            submits.push(submit.as_nanos() as f64 / self.trace.len() as f64);
            let wave_ms: Vec<f64> = report.outcomes.iter().map(|o| ms(o.latency)).collect();
            let tail = Tail::of(&wave_ms);
            tails.push(tail);
            waves += wave_ms.len() as u64;
            drained.absorb(report);
            {
                let _c = rec.span("bench:check", rep);
                failed += (all_keys(&svc) != self.expected) as u64;
            }
            // The sequential oracle, timed on the same trace.
            let _o = rec.span("bench:btreeset_replay", rep);
            let t = Instant::now();
            let mut set = BTreeSet::new();
            gen::replay(&mut set, &self.trace);
            let replay_ms = ms(t.elapsed());
            black_box(set);
            x_seq.push(wall_ms / replay_ms);
            p50_x_seq.push(tail.p50 / (replay_ms / wave_ms.len() as f64));
            self.last = Some(svc);
        }
        let reps = kps.len();
        let (read_checks, read_failed) = check_reads(
            self.last.as_ref().expect("a rep ran"),
            &self.oracle,
            self.seed,
        );
        failed += drained.unserved.len() as u64 + read_failed;
        let wall = started.elapsed();

        let (req_ms, tail_x) = Tail::over(&tails);
        let mut layer = drained.layers(entries_of(&self.trace) * reps, wall, reps as f64);
        layer.insert("service.service.submit_ns_per_req", median(&submits));
        layer.insert("service.service.pump_p50_ms", median(&walls));
        RunData {
            attempted: (self.trace.len() * reps) as u64 + read_checks,
            failed,
            keys_per_s: median(&kps),
            x_seq: median(&x_seq),
            req_p50_x_seq: median(&p50_x_seq),
            req_p95_x_p50: tail_x,
            req_ms,
            samples: waves,
            unit_cost: median(&walls),
            wall,
            layer,
        }
    }

    fn extras(&mut self, rec: &Recorder, run: &RunData, _unit: &Layers) -> (Layers, Vec<String>) {
        let svc = self.last.take().expect("extras follow a run");
        let mut layer = service_probes(
            &svc,
            &self.trace[..self.trace.len().min(2000)],
            usize::MAX,
            rec,
        );
        drop(svc);
        // The same trace with one session per wave: what the paper's
        // pipelining buys at service level.
        let (svc, _, report) = self.drive(&self.trace, ApplyMode::Barriered, rec, u64::MAX);
        assert_eq!(
            all_keys(&svc),
            self.expected,
            "barriered drive disagrees with the oracle"
        );
        layer.insert(
            "service.service.barriered_keys_per_s",
            report.keys_per_sec_wall(),
        );
        layer.insert(
            "service.service.pipelining_gain",
            run.keys_per_s / report.keys_per_sec_wall(),
        );
        (layer, Vec::new())
    }

    fn workers(&self) -> usize {
        POOL
    }
}

// ------------------------------------------------- svc-paced and svc-read

/// A service preloaded with half `STATIC`, half `WRITER` keys.
struct Preloaded {
    svc: SetService<i64>,
    oracle: BTreeSet<i64>,
    statics: Vec<i64>,
    seed: u64,
}

impl Preloaded {
    fn setup(scale: &Scale, seed: u64, rec: &Recorder) -> Self {
        let (entries, statics) = {
            let _s = rec.span("bench:generate", 0);
            gen::preload(scale.preload, seed)
        };
        let oracle: BTreeSet<i64> = entries.iter().map(|e| e.0).collect();
        let rt = {
            let _s = rec.span("rt:Runtime::new", 0);
            Arc::new(Runtime::new(POOL))
        };
        let svc = service(&rt, ApplyMode::Pipelined);
        let _s = rec.span("service:preload", 0);
        svc.submit(Request::insert(entries));
        let report = svc.pump();
        assert_eq!(report.degraded + report.shed, 0, "preload must commit");
        Preloaded {
            svc,
            oracle,
            statics,
            seed,
        }
    }

    /// Final key set and sampled reads against the oracle.
    fn check(&self, rec: &Recorder) -> (u64, u64) {
        let _c = rec.span("bench:check", 0);
        let (reads, mut failed) = check_reads(&self.svc, &self.oracle, self.seed);
        failed += !all_keys(&self.svc)
            .into_iter()
            .eq(self.oracle.iter().copied()) as u64;
        (reads + 1, failed)
    }
}

/// What one open-loop run measured.
struct Paced {
    drained: Drained,
    /// Due time → commit, per request.
    lat_ms: Vec<f64>,
    /// Due time → `submit`, per request.
    late_ms: Vec<f64>,
    pump_ms: Vec<f64>,
    /// Per turn of the loop: index of the first request it committed, and
    /// the time its `submit`s and `pump` took.
    turns: Vec<(usize, f64)>,
    /// Requests already due but not yet submitted, as each pump returned.
    backlog: Vec<f64>,
    requests: usize,
    keys: usize,
    submit: Duration,
    /// Start → last commit.
    span: Duration,
}

/// The open loop: requests fall due at `rate` per second; each turn
/// submits everything due, pumps, and stamps every request the pump
/// decided. Latency counts from the due time, so a slow pump's cost to
/// the requests queued behind it is included.
fn paced_loop(svc: &SetService<i64>, reqs: Vec<Request<i64>>, rate: f64, rec: &Recorder) -> Paced {
    let n = reqs.len();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut out = Paced {
        drained: Drained::default(),
        lat_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        pump_ms: Vec::new(),
        turns: Vec::new(),
        backlog: Vec::new(),
        requests: n,
        keys: entries_of(&reqs),
        submit: Duration::ZERO,
        span: Duration::ZERO,
    };
    let mut reqs = reqs.into_iter();
    let (mut next, mut committed) = (0, 0);
    let t0 = Instant::now();
    while committed < n {
        let turn = t0.elapsed();
        while next < n && due(next) <= t0.elapsed() {
            let req = reqs.next().expect("n requests");
            let _s = rec.span("service:submit", req.tag);
            let at = t0.elapsed();
            out.late_ms.push(ms(at - due(next)));
            svc.submit(req);
            next += 1;
        }
        if next == committed {
            let _idle = rec.span("bench:wait_until_due", next as u64);
            // Sleep, then spin the last stretch: a generator that only
            // spins takes a core from the pool's workers, one that only
            // sleeps wakes late.
            let left = due(next).saturating_sub(t0.elapsed());
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            }
            while due(next) > t0.elapsed() {
                std::hint::spin_loop();
            }
            continue;
        }
        out.submit += t0.elapsed() - turn;
        let report = {
            let _s = rec.span("service:pump", committed as u64);
            svc.pump()
        };
        let done = t0.elapsed();
        out.pump_ms.push(ms(report.wall));
        out.turns.push((committed, ms(done - turn)));
        out.drained.absorb(report);
        out.lat_ms
            .extend((committed..next).map(|i| ms(done - due(i))));
        committed = next;
        out.backlog
            .push((committed..n).take_while(|&i| due(i) <= done).count() as f64);
        out.span = done;
    }
    out
}

impl Paced {
    /// Requests that did not commit: a wave of theirs was not served, or
    /// no outcome ever named them.
    fn failed(&self) -> u64 {
        let undecided = (0..self.requests as u64)
            .filter(|t| !self.drained.decided.contains(t))
            .count();
        self.drained.unserved.len() as u64 + undecided as u64
    }

    /// Latency percentiles over one-second windows of due times.
    fn latency_ms(&self, rate: f64) -> (Tail, f64) {
        let windows: Vec<Tail> = self
            .lat_ms
            .chunks(rate.ceil() as usize)
            .map(Tail::of)
            .collect();
        Tail::over(&windows)
    }

    /// Over the same windows, `submit` + `pump` time per request in the
    /// quieter quarter of them (see [`Tail::over`]).
    fn busy_ms_per_request(&self, rate: f64) -> f64 {
        let per = rate.ceil() as usize;
        let mut busy = vec![0.0; self.requests.div_ceil(per)];
        for (first, ms) in &self.turns {
            busy[first / per] += ms;
        }
        let windows: Vec<f64> = busy
            .iter()
            .zip(self.lat_ms.chunks(per))
            .map(|(b, w)| b / w.len() as f64)
            .collect();
        lower_quartile(&windows)
    }

    fn layers(&self, rate: f64) -> Layers {
        let mut layer = self.drained.layers(self.keys, self.span, 1.0);
        let tail = &self.backlog[self.backlog.len() - (self.backlog.len() / 10).max(1)..];
        layer.extend([
            (
                "service.service.submit_ns_per_req",
                self.submit.as_nanos() as f64 / self.requests as f64,
            ),
            ("service.service.pump_p50_ms", median(&self.pump_ms)),
            (
                "bench.offered_keys_per_s",
                self.keys as f64 * rate / self.requests as f64,
            ),
            ("bench.gen_late_p99_ms", percentile(&self.late_ms, 99.0)),
            ("bench.backlog_end_reqs", median(tail)),
        ]);
        layer
    }
}

pub struct PacedWrites {
    pre: Preloaded,
    /// The head of the last run's request stream, and how many requests
    /// one of its pumps found queued (for the stage probes).
    sample: Vec<Request<i64>>,
    per_pump: usize,
}

impl PacedWrites {
    pub fn setup(scale: &Scale, seed: u64, rec: &Recorder) -> Self {
        PacedWrites {
            pre: Preloaded::setup(scale, seed, rec),
            sample: Vec::new(),
            per_pump: 1,
        }
    }
}

impl Workload for PacedWrites {
    fn run(&mut self, seconds: f64, rec: &Recorder) -> RunData {
        let started = Instant::now();
        let reqs = gen::paced_trace((PACED_RATE * seconds).ceil() as usize, self.pre.seed);
        self.sample = reqs[..reqs.len().min(2000)].to_vec();
        // The sequential oracle, timed on the same requests: short, so
        // the median of a few replays on copies of the set.
        let replay_ms = {
            let _o = rec.span("bench:btreeset_replay", 0);
            let times: Vec<f64> = (0..ORACLE_REPS)
                .map(|_| {
                    let mut set = self.pre.oracle.clone();
                    let t = Instant::now();
                    gen::replay(&mut set, &reqs);
                    ms(t.elapsed())
                })
                .collect();
            gen::replay(&mut self.pre.oracle, &reqs);
            median(&times)
        };
        let paced = paced_loop(&self.pre.svc, reqs, PACED_RATE, rec);
        self.per_pump = (paced.requests as f64 / paced.pump_ms.len() as f64)
            .round()
            .max(1.0) as usize;
        let (checks, check_failed) = self.pre.check(rec);
        let (req_ms, tail_x) = paced.latency_ms(PACED_RATE);
        RunData {
            attempted: paced.requests as u64 + checks,
            failed: paced.failed() + check_failed,
            keys_per_s: paced.drained.report.keys_applied as f64 / paced.span.as_secs_f64(),
            x_seq: paced.busy_ms_per_request(PACED_RATE) / (replay_ms / paced.requests as f64),
            req_p50_x_seq: req_ms.p50 / (replay_ms / paced.requests as f64),
            req_p95_x_p50: tail_x,
            req_ms,
            samples: paced.lat_ms.len() as u64,
            unit_cost: paced.busy_ms_per_request(PACED_RATE),
            wall: started.elapsed(),
            layer: paced.layers(PACED_RATE),
        }
    }

    fn extras(&mut self, rec: &Recorder, _run: &RunData, _unit: &Layers) -> (Layers, Vec<String>) {
        (
            service_probes(&self.pre.svc, &self.sample, self.per_pump, rec),
            Vec::new(),
        )
    }

    fn workers(&self) -> usize {
        POOL
    }
}

pub struct Reads {
    pre: Preloaded,
    sample: Vec<Request<i64>>,
}

/// One second of the closed-loop reader.
#[derive(Default)]
struct ReadWindow {
    hist: Hist,
    /// `contains` calls plus keys returned by `range` calls.
    keys_answered: u64,
    busy_ns: u64,
    /// The same read mix on the `BTreeSet` oracle, within this second.
    oracle_ns: u64,
    oracle_reads: u64,
}

impl ReadWindow {
    fn oracle_ns_per_read(&self) -> f64 {
        self.oracle_ns as f64 / self.oracle_reads as f64
    }
}

/// What the closed-loop reader measured, second by second.
struct Reader {
    windows: Vec<ReadWindow>,
    reads: u64,
    wrong: u64,
    ran: Duration,
}

impl Reader {
    /// The reader's full seconds (all of them when the run was shorter
    /// than two). As for the paced loop, a stall lands in a window or two
    /// and the median over windows repeats.
    fn full(&self) -> &[ReadWindow] {
        &self.windows[..(self.windows.len() - 1).max(1)]
    }

    fn per_second(&self, f: impl Fn(&ReadWindow) -> f64) -> f64 {
        median(&self.full().iter().map(f).collect::<Vec<f64>>())
    }

    /// Read latency percentiles, in milliseconds.
    fn latency_ms(&self) -> (Tail, f64) {
        let windows: Vec<Tail> = self
            .full()
            .iter()
            .map(|w| Tail {
                p50: w.hist.percentile_ns(50.0) / 1e6,
                p95: w.hist.percentile_ns(95.0) / 1e6,
                p99: w.hist.percentile_ns(99.0) / 1e6,
            })
            .collect();
        Tail::over(&windows)
    }
}

/// One read of the mix: 90 % `contains` (half on keys that are present),
/// 10 % `range` over about 32 keys. Only `STATIC` and absent keys are asked
/// about or checked, because those never change under the writer.
enum Read {
    Range(i64),
    Present(i64),
    Absent(i64),
}

impl Read {
    fn draw(statics: &[i64], rng: &mut SmallRng) -> Read {
        if rng.gen_range(0..10) == 0 {
            Read::Range(rng.gen_range(0..KEYSPACE - RANGE_SPAN))
        } else if rng.gen_bool(0.5) {
            Read::Present(statics[rng.gen_range(0..statics.len())])
        } else {
            Read::Absent(gen::absent_key(rng))
        }
    }

    /// Ask the service; returns keys answered and whether the answer was
    /// right.
    fn serve(&self, svc: &SetService<i64>, statics: &[i64], rec: &Recorder, i: u64) -> (u64, bool) {
        match *self {
            Read::Range(lo) => {
                let got = {
                    let _s = rec.span("service:range", i);
                    svc.range(&lo, &(lo + RANGE_SPAN))
                };
                let from = statics.partition_point(|k| *k < lo);
                let to = statics.partition_point(|k| *k < lo + RANGE_SPAN);
                let ok = got.windows(2).all(|w| w[0] < w[1])
                    && got
                        .iter()
                        .filter(|k| *k % 4 == STATIC)
                        .eq(&statics[from..to]);
                (got.len() as u64, ok)
            }
            Read::Present(key) => {
                let _s = rec.span("service:contains", i);
                (1, svc.contains(&key))
            }
            Read::Absent(key) => {
                let _s = rec.span("service:contains", i);
                (1, !svc.contains(&key))
            }
        }
    }

    /// Ask the `BTreeSet` oracle the same thing.
    fn ask(&self, oracle: &BTreeSet<i64>) {
        match *self {
            Read::Range(lo) => {
                black_box(
                    oracle
                        .range(lo..lo + RANGE_SPAN)
                        .copied()
                        .collect::<Vec<i64>>(),
                );
            }
            Read::Present(key) | Read::Absent(key) => {
                black_box(oracle.contains(&key));
            }
        }
    }
}

/// After this many reads of the service, the reader puts
/// [`ORACLE_BATCH`] reads to the oracle, timed as one block: the oracle is
/// measured every few milliseconds on the reader's own thread, so whatever
/// the host does to the one it does to the other.
const ORACLE_EVERY: u64 = 4096;
const ORACLE_BATCH: u64 = 512;

/// The reader thread: reads until `stop`, on its own recorder, which it
/// hands back.
fn reader(pre: &Preloaded, stop: &AtomicBool, rec: Recorder) -> (Reader, Recorder) {
    let mut rng = SmallRng::seed_from_u64(pre.seed ^ 0x5eed_0005);
    let mut out = Reader {
        windows: Vec::new(),
        reads: 0,
        wrong: 0,
        ran: Duration::ZERO,
    };
    let root = rec.span("bench:reader", 0);
    let started = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let read = Read::draw(&pre.statics, &mut rng);
        let t = Instant::now();
        let (keys, ok) = read.serve(&pre.svc, &pre.statics, &rec, out.reads);
        let ns = t.elapsed().as_nanos() as u64;
        let second = (t - started).as_secs() as usize;
        if out.windows.len() <= second {
            out.windows.resize_with(second + 1, ReadWindow::default);
        }
        let w = &mut out.windows[second];
        w.hist.record(ns);
        w.busy_ns += ns;
        w.keys_answered += keys;
        out.reads += 1;
        out.wrong += !ok as u64;
        if out.reads.is_multiple_of(ORACLE_EVERY) {
            let _s = rec.span("bench:btreeset_reads", out.reads);
            let t = Instant::now();
            (0..ORACLE_BATCH).for_each(|_| Read::draw(&pre.statics, &mut rng).ask(&pre.oracle));
            w.oracle_ns += t.elapsed().as_nanos() as u64;
            w.oracle_reads += ORACLE_BATCH;
        }
    }
    out.ran = started.elapsed();
    drop(root);
    (out, rec)
}

impl Reads {
    pub fn setup(scale: &Scale, seed: u64, rec: &Recorder) -> Self {
        Reads {
            pre: Preloaded::setup(scale, seed, rec),
            sample: Vec::new(),
        }
    }
}

impl Workload for Reads {
    /// The reader runs on its own thread, with its own recorder, beside
    /// the paced writer on this one.
    fn run(&mut self, seconds: f64, rec: &Recorder) -> RunData {
        let started = Instant::now();
        let reqs = gen::paced_trace((READ_WRITER_RATE * seconds).ceil() as usize, self.pre.seed);
        self.sample = reqs[..reqs.len().min(2000)].to_vec();
        gen::replay(&mut self.pre.oracle, &reqs);
        let stop = AtomicBool::new(false);
        let reader_rec = Recorder::new(rec.is_on(), rec.epoch(), 1);
        let pre = &self.pre;
        let ((read, read_rec), paced) = std::thread::scope(|s| {
            let reading = s.spawn(|| reader(pre, &stop, reader_rec));
            let paced = {
                let _w = rec.span("bench:writer", 0);
                paced_loop(&pre.svc, reqs, READ_WRITER_RATE, rec)
            };
            stop.store(true, Ordering::Relaxed);
            (reading.join().expect("reader thread"), paced)
        });
        let (checks, check_failed) = self.pre.check(rec);
        let reads = read.reads;
        let service_ns = |w: &ReadWindow| w.busy_ns as f64 / w.hist.count() as f64;

        let (req_ms, tail_x) = read.latency_ms();
        let (writer_ms, _) = paced.latency_ms(READ_WRITER_RATE);
        let mut layer = paced.layers(READ_WRITER_RATE);
        layer.extend([
            (
                "service.service.reads_per_s",
                reads as f64 / read.ran.as_secs_f64(),
            ),
            ("service.service.read_p99_us", req_ms.p99 * 1e3),
            ("service.service.writer_p50_ms", writer_ms.p50),
            ("service.service.writer_p99_ms", writer_ms.p99),
        ]);
        rec.adopt(read_rec);
        RunData {
            attempted: reads + paced.requests as u64 + checks,
            failed: read.wrong + paced.failed() + check_failed,
            keys_per_s: read.per_second(|w| w.keys_answered as f64),
            // Both ratios are taken second by second against the oracle
            // reads of that second. A request here is one read.
            x_seq: read.per_second(|w| service_ns(w) / w.oracle_ns_per_read()),
            req_p50_x_seq: read.per_second(|w| w.hist.percentile_ns(50.0) / w.oracle_ns_per_read()),
            req_p95_x_p50: tail_x,
            req_ms,
            samples: reads,
            unit_cost: read.per_second(service_ns),
            wall: started.elapsed(),
            layer,
        }
    }

    fn extras(&mut self, rec: &Recorder, _run: &RunData, _unit: &Layers) -> (Layers, Vec<String>) {
        (
            service_probes(&self.pre.svc, &self.sample, 1, rec),
            Vec::new(),
        )
    }

    fn workers(&self) -> usize {
        POOL
    }
}

/// Closed-loop capacity of the `svc-paced` mix on a preloaded service,
/// requests/s: one request per `submit` + `pump`. [`PACED_RATE`] is half
/// of what this printed at authoring time (`pf-perf --capacity`).
pub fn closed_loop_capacity(scale: &Scale, seed: u64, seconds: f64) -> f64 {
    let _pinned = crate::host::Pinned::to_first_cpu();
    let _awake = crate::host::KeepAwake::start();
    let pre = Preloaded::setup(scale, seed, &Recorder::off());
    let mut done = 0;
    let started = Instant::now();
    'outer: loop {
        for req in gen::paced_trace(1000, seed + done as u64) {
            if started.elapsed().as_secs_f64() >= seconds {
                break 'outer;
            }
            pre.svc.submit(req);
            black_box(pre.svc.pump());
            done += 1;
        }
    }
    done as f64 / started.elapsed().as_secs_f64()
}
