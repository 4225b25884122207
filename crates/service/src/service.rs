//! The service core: per-shard ingress queues feeding coalesced waves
//! into apply passes of one window each. Every pass is the same three
//! steps: fold the window's net effect, plan it against the shard's
//! committed root with the run kernel ([`plan_run`]), and commit the plan
//! under the root lock ([`Patch::commit`]). Only where the plan runs
//! differs: on the calling thread where the window's sizes keep it within
//! one grain, in a fault-contained pooled session otherwise, forked on
//! its worker ([`plan_run_on`]) wherever a node's job is over the grain.
//!
//! See the crate docs for the architecture. Every shard root, snapshot
//! and pass result is a [`Complete`] treap, which names no engine and has
//! no future cell in it by its type: a plan only reads the root, and a
//! commit edits in place only nodes that nothing but the shard holds.
//! Snapshot readers walk it lock-free (after one root clone) as a plain
//! pointer chase.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pf_algs::plain::wins;
use pf_algs::treap::{apply_run, plan_run, plan_run_on, within_grain, Complete, Patch};
use pf_algs::{Key, PipeBackend};
use pf_rt::{cell, RunStats, Runtime, Session, SessionError, Worker};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use crate::coalesce::{coalesce, CoalescePolicy, Wave};
use crate::request::{Entry, Fault, OpKind, Request};
use crate::shard::ShardMap;

/// How many waves one apply pass takes. Either way a pass applies its
/// window's net effect, planned inline where its sizes keep it within one
/// grain ([`DrainReport::inline`]), in one pooled session otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyMode {
    /// One pass per **window** of up to [`ServiceConfig::window`] waves
    /// (or `window × 64` keys, whichever is reached first). A failed
    /// window is replayed wave by wave, so only the faulty wave degrades.
    Pipelined,
    /// One pass per wave: a window of one. Kept as the A/B baseline of
    /// pf-perf's `barriered_keys_per_s` and `pipelining_gain`, which
    /// therefore compare windows of 8 waves with windows of 1.
    Barriered,
}

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads of the shared apply pool
    /// ([`Runtime::shared`]`(threads)`).
    pub threads: usize,
    /// Max waves one pass folds into its net effect (ignored in
    /// [`ApplyMode::Barriered`]). A window also closes before it would
    /// hold more than `window × 64` keys (512 at the default 8).
    pub window: usize,
    /// Apply mode (pipelined by default; barriered for A/B runs).
    pub mode: ApplyMode,
    /// Per-session deadline: a pooled pass whose session — the window's
    /// faults and its plan — exceeds it aborts and degrades instead of
    /// wedging the shard. It does not cover the commit that follows a
    /// session, a walk of the plan's edits under the root lock. Neither
    /// this nor `stall_budget` applies to an inline pass (see
    /// [`DrainReport::inline`]): plain code on the calling thread waits on
    /// nothing, and the rule that admits it bounds each wave's share by
    /// `GRAIN` unit actions, so the whole window by `window × GRAIN`.
    pub deadline: Option<Duration>,
    /// Coalescer tuning.
    pub policy: CoalescePolicy,
    /// Per-session progress-stall budget (threaded to
    /// [`Session::stall_budget`]): a wave whose session stops making
    /// *any* scheduler progress for this long aborts as `Stalled` — much
    /// faster than waiting out `deadline` for a mid-task wedge, and
    /// immune to busy sibling sessions on the shared pool.
    pub stall_budget: Option<Duration>,
    /// Retry policy for degraded waves: each gets up to
    /// `retry.attempts` fresh-session replays with jittered exponential
    /// backoff before its degradation is final.
    pub retry: RetryPolicy,
    /// Per-shard circuit breaker: after `breaker.threshold` consecutive
    /// degraded windows a shard sheds its windows (degrading them in
    /// O(1), without running sessions) until a half-open probe window
    /// succeeds. Disabled by default (`threshold: 0`).
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 4,
            window: 8,
            mode: ApplyMode::Pipelined,
            deadline: Some(Duration::from_secs(10)),
            policy: CoalescePolicy::default(),
            stall_budget: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// The fate of one coalesced wave.
#[derive(Clone, Debug)]
pub struct WaveOutcome {
    /// Shard the wave applied to.
    pub shard: usize,
    /// Insert or delete.
    pub kind: OpKind,
    /// Tags of the requests coalesced into the wave (see
    /// [`Request::tagged`]); a wave serves or degrades atomically, so
    /// these tags share one fate.
    pub tags: Vec<u64>,
    /// Total keys in the wave.
    pub keys: usize,
    /// Did the wave commit? `false` means the shard kept its previous
    /// root for this wave (degraded).
    pub served: bool,
    /// The session error that degraded the wave, rendered.
    pub error: Option<String>,
    /// Apply latency: the elapsed time of the apply pass, inline or
    /// pooled, that decided this wave's fate (shared by every wave of a
    /// window; from [`RunStats::elapsed`], the same source the benchmark
    /// reports).
    pub latency: Duration,
    /// Served by the wave-by-wave replay of a failed multi-wave window
    /// rather than by its original window session.
    pub replayed: bool,
    /// Sessions that decided this wave's fate: 1 for a first-try wave,
    /// more when retries ran, 0 for a shed wave (no session ran).
    pub attempts: u32,
    /// Dropped by an open circuit breaker before any session ran —
    /// `served` is `false` and `latency` is zero; the shard was shedding
    /// load after too many consecutive degraded windows.
    pub shed: bool,
    /// The full event timeline of the failed session that degraded this
    /// wave, taken from [`pf_rt::take_last_trace`] on the apply thread
    /// that ran it — a degraded wave ships with its own diagnosis, since
    /// every pooled session is traced ([`pf_rt::Session::trace`]). `None`
    /// for served waves.
    pub trace: Option<Arc<pf_rt::SessionTrace>>,
}

/// Aggregated result of draining pending requests.
#[derive(Clone, Debug, Default)]
pub struct DrainReport {
    /// Per-wave outcomes, in commit order per shard.
    pub outcomes: Vec<WaveOutcome>,
    /// Statistics accumulated over every *successful* apply pass,
    /// including elapsed busy time — so
    /// `stats.ops_per_sec(keys_applied)` is the service's in-pass
    /// throughput from the same [`RunStats`] source the benchmark uses.
    /// A pooled pass counts its session's events; an inline pass counts as
    /// one executed task (the window's plan, run on the caller), nothing
    /// else. Either pass's elapsed time covers its plan and its commit.
    pub stats: RunStats,
    /// Apply passes run, inline or pooled, including failed ones and
    /// replays: one per window, plus one per wave replayed or retried.
    pub sessions: u64,
    /// The passes among `sessions` that never entered the pool: every
    /// wave healthy, of at most `Worker::GRAIN` keys, and within the grain
    /// by [`pf_algs::treap::within_grain`] against an upper bound on the
    /// running root, so the window's net effect was planned as plain code
    /// on the calling thread — its deletes and inserts, two sorted runs,
    /// in one walk. A function of sizes only; an inline pass cannot fail,
    /// so the pooled session stays the only error path.
    pub inline: u64,
    /// The passes among `sessions`, inline or pooled, that committed in
    /// place: the window's patch kept the shard's root node, because
    /// nothing but the shard held a node it edits
    /// ([`pf_algs::treap::Patch::commit`]). The rest copied — a reader
    /// holding the root (or, rarely, a window that replaces the root entry
    /// itself or outgrows the root).
    pub in_place: u64,
    /// Wall-clock span of the drain that produced this report (stamped
    /// by [`SetService::pump`] and [`SetService::drive`]). Distinct from
    /// `stats.elapsed`, which *sums* per-session busy time: concurrent
    /// shard sessions overlap on the shared pool, so the sum exceeds the
    /// wall clock — `wall` is the denominator an end-to-end throughput
    /// claim needs. [`DrainReport::merge`] takes the max (merged reports
    /// describe overlapping spans of one drain, not disjoint intervals).
    pub wall: Duration,
    /// Keys committed by served waves.
    pub keys_applied: u64,
    /// Waves that committed.
    pub served: u64,
    /// Waves dropped because their session (and every retry) failed.
    pub degraded: u64,
    /// Retry sessions run for initially-degraded waves.
    pub retries: u64,
    /// Waves that degraded at least once and then committed on a retry.
    pub recovered: u64,
    /// Waves dropped by an open circuit breaker without running a
    /// session. `served + degraded + shed == outcomes.len()`.
    pub shed: u64,
    /// Failed *window* sessions' errors (as displayed, `session N …`) and
    /// full event timelines: one entry per multi-wave window whose session
    /// failed and was replayed wave-by-wave, taken before the replay
    /// sessions on the same apply thread replace the timeline — so the
    /// window's diagnosis travels with the report even when every
    /// replayed wave then serves.
    pub window_traces: Vec<(String, Arc<pf_rt::SessionTrace>)>,
}

impl DrainReport {
    /// Fold another report into this one.
    pub fn merge(&mut self, other: DrainReport) {
        self.outcomes.extend(other.outcomes);
        self.stats.accumulate(&other.stats);
        self.sessions += other.sessions;
        self.inline += other.inline;
        self.in_place += other.in_place;
        self.keys_applied += other.keys_applied;
        self.served += other.served;
        self.degraded += other.degraded;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.shed += other.shed;
        self.wall = self.wall.max(other.wall);
        self.window_traces.extend(other.window_traces);
    }

    /// End-to-end keys/sec of the drain: committed keys over the drain's
    /// wall-clock span ([`RunStats::ops_per_sec_wall`]). Compare with
    /// `stats.ops_per_sec(keys_applied)`, which divides by *summed*
    /// per-session busy time and therefore understates a drain whose
    /// sessions co-execute; this one credits the overlap.
    pub fn keys_per_sec_wall(&self) -> f64 {
        RunStats::ops_per_sec_wall(self.keys_applied, self.wall)
    }
}

/// One shard: its ingress queue and committed root. The root mutex is
/// held only for a clone (readers, pass setup), a commit walk or a swap —
/// never across an apply pass or its plan, nor while what a commit
/// replaced is freed.
struct Shard<K: Key> {
    ingress: Mutex<Vec<Request<K>>>,
    /// Held by one applier from taking the ingress through its last
    /// commit, so passes on the shard never overlap and apply in ingress
    /// order: each plans against the root the one before it committed.
    /// Readers never take it. It guards the shard's backoff-jitter stream
    /// ([`RetryPolicy::stream`]), which only an applier's retries draw.
    apply: Mutex<u64>,
    root: Mutex<Complete<K>>,
    /// This shard's circuit breaker, stepped under `apply` but locked on its
    /// own: [`SetService::breaker_state`] must not wait out a failing pass.
    breaker: Mutex<CircuitBreaker>,
}

/// The apply plan of one wave: what [`WaveOutcome`] reports of it, and
/// its one run of entries (sorted and distinct, [`Wave::groups`]), shared
/// by clones — a one-wave insert window plans this run as it is. A
/// pooled session folds its window's runs on its worker and plans there,
/// so the subtreaps a bulk load builds come from the arenas of the
/// threads that go on to walk them.
#[derive(Clone)]
struct WavePlan<K> {
    kind: OpKind,
    fault: Fault,
    tags: Vec<u64>,
    keys: usize,
    run: Arc<[Entry<K>]>,
}

impl<K> From<Wave<K>> for WavePlan<K> {
    fn from(w: Wave<K>) -> Self {
        let Ok([run]) = <[_; 1]>::try_from(w.groups) else {
            unreachable!("a wave is one run")
        };
        WavePlan {
            kind: w.kind,
            fault: w.fault,
            tags: w.tags,
            keys: run.len(),
            run: run.into(),
        }
    }
}

/// A window's key budget per wave it may hold: a window of up to `window`
/// waves also closes before it holds `window × 64` keys, 512 at the
/// default 8 (why, in `apply_pending`).
const WINDOW_KEYS_PER_WAVE: usize = 64;

/// Ignore mutex poisoning: the guarded values (a request vector, a
/// committed root) are valid at every step, and a panicking shard thread
/// must not wedge its siblings.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A sharded, coalescing ordered-set service (crate docs).
pub struct SetService<K: Key> {
    rt: Arc<Runtime>,
    map: ShardMap<K>,
    shards: Vec<Shard<K>>,
    cfg: ServiceConfig,
    /// Epoch of the breakers' virtual clock: breaker deadlines are
    /// `Duration`s since service construction, so the state machine
    /// itself stays clock-free (exhaustively tested in `model_breaker`).
    started: Instant,
}

impl<K: Key> SetService<K> {
    /// A service over `map`'s shards on the process-wide shared pool
    /// with `cfg.threads` workers.
    pub fn new(map: ShardMap<K>, cfg: ServiceConfig) -> Self {
        Self::with_runtime(Runtime::shared(cfg.threads), map, cfg)
    }

    /// A service on a caller-owned runtime (its width wins over
    /// `cfg.threads`).
    pub fn with_runtime(rt: Arc<Runtime>, map: ShardMap<K>, cfg: ServiceConfig) -> Self {
        let shards = (0..map.shards())
            .map(|i| Shard {
                ingress: Mutex::new(Vec::new()),
                apply: Mutex::new(cfg.retry.stream(i)),
                root: Mutex::new(Complete::Leaf),
                breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            })
            .collect();
        SetService {
            rt,
            map,
            shards,
            cfg,
            started: Instant::now(),
        }
    }

    /// The current breaker state of `shard` (telemetry; the state may
    /// advance the moment the next window is gated).
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        lock(&self.shards[shard].breaker).state()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Enqueue a request: its entries are split by key range and land in
    /// each owning shard's ingress queue (the fault tag and request tag
    /// travel with every sub-request). An empty request is elided here —
    /// it is a no-op on the key set.
    pub fn submit(&self, req: Request<K>) {
        if req.entries.is_empty() {
            return;
        }
        let Request {
            kind,
            entries,
            fault,
            tag,
        } = req;
        for (i, part) in self.map.split(entries).into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            lock(&self.shards[i].ingress).push(Request {
                kind,
                entries: part,
                fault,
                tag,
            });
        }
    }

    /// Snapshot membership read: walks the owning shard's last committed
    /// root. Costs one root clone plus an O(lg n) walk by reference down
    /// the nodes ([`Complete::contains`]) and a binary search of the block at
    /// the bottom; never waits for an in-flight pass, only for a commit
    /// walk or swap, and the snapshot it walks never changes: a commit
    /// edits in place only nodes that nothing but the shard holds.
    /// Reads-your-writes only after the write's wave commits: this is a
    /// snapshot consistency model, by design.
    pub fn contains(&self, key: &K) -> bool {
        self.snapshot(self.map.shard_of(key)).contains(key)
    }

    /// The shard's committed root (an `Arc`-shallow clone).
    pub fn snapshot(&self, shard: usize) -> Complete<K> {
        lock(&self.shards[shard].root).clone()
    }

    /// Snapshot range query: every committed key in `[lo, hi)`, in
    /// ascending order. Routes through
    /// [`ShardMap::shards_for_range`] — range partitioning means the
    /// intersecting shards form one contiguous run in key order, so the
    /// per-shard in-order walks concatenate into a globally sorted
    /// result with no merge step. Each shard contributes a walk of its
    /// own committed root (same snapshot model as
    /// [`SetService::contains`]: one root clone, lock-free descent by
    /// reference, never blocked by in-flight sessions — but each
    /// shard's snapshot is taken independently, so a cross-shard wave
    /// committing mid-scan may appear in one shard and not another).
    /// The walk ([`Complete::range`]) prunes: subtrees wholly outside
    /// `[lo, hi)` are never entered, and a block is entered at a binary
    /// search for `lo`, so cost is O(lg n + answer) per shard.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<K> {
        let mut out = Vec::new();
        for shard in self.map.shards_for_range(lo, hi) {
            self.snapshot(shard).range(lo, hi, &mut out);
        }
        out
    }

    /// Sorted keys of one shard's committed root (post-run inspection;
    /// O(n)).
    pub fn shard_keys(&self, shard: usize) -> Vec<K> {
        self.snapshot(shard).to_sorted_vec()
    }

    /// Apply everything queued, shard by shard, on the calling thread —
    /// the deterministic path tests and single-threaded replays use. Safe
    /// beside other `pump`s and a [`SetService::drive`]: a shard takes one
    /// applier at a time, and each commits everything it took.
    pub fn pump(&self) -> DrainReport {
        let started = Instant::now();
        let mut out = DrainReport::default();
        for i in 0..self.shards.len() {
            out.merge(self.apply_pending(i));
        }
        out.wall = started.elapsed();
        out
    }

    /// Concurrent open-loop drain: one apply thread per shard but the
    /// first pulls from its ingress queue while the calling thread feeds
    /// `requests` in — arrival is a pipeline stage overlapping coalescing,
    /// planning, and the other shards' sessions — and
    /// then the calling thread drains shard 0 itself rather than wait in
    /// `join`. A drive spawns one thread fewer, and the host no longer
    /// stacks two fresh apply threads on one core (EXPERIMENTS.md E34).
    /// The shard sessions genuinely co-execute: each `try_run_session`
    /// call gets its own session slot and they share the worker pool, so
    /// one shard's stall (or injected fault) neither blocks nor corrupts a
    /// sibling's wave — fault containment is per slot, not per pool.
    /// Returns when every submitted request has been applied or degraded.
    pub fn drive<I>(&self, requests: I) -> DrainReport
    where
        I: IntoIterator<Item = Request<K>>,
    {
        let started = Instant::now();
        let closed = AtomicBool::new(false);
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..self.shards.len())
                .map(|i| {
                    let closed = &closed;
                    s.spawn(move || self.drain_until(i, closed))
                })
                .collect();
            for req in requests {
                self.submit(req);
            }
            closed.store(true, Ordering::Release);
            let mut out = self.drain_until(0, &closed);
            for h in handles {
                out.merge(h.join().expect("shard apply thread panicked"));
            }
            out.wall = started.elapsed();
            out
        })
    }

    /// Drain `shard` over and over until `closed` is set and one more
    /// drain has run after that.
    fn drain_until(&self, shard: usize, closed: &AtomicBool) -> DrainReport {
        let mut rep = DrainReport::default();
        loop {
            let got = self.apply_pending(shard);
            let idle = got.sessions == 0 && got.outcomes.is_empty();
            rep.merge(got);
            if !idle {
                continue;
            }
            if closed.load(Ordering::Acquire) {
                // Final sweep: the close flag is set after the last
                // submit, so one more drain observes everything.
                rep.merge(self.apply_pending(shard));
                return rep;
            }
            std::thread::yield_now();
        }
    }

    /// Drain one shard's pending requests: coalesce into waves, chop
    /// into windows, apply each window in one pass.
    fn apply_pending(&self, shard: usize) -> DrainReport {
        let mut jitter = lock(&self.shards[shard].apply);
        let pending = std::mem::take(&mut *lock(&self.shards[shard].ingress));
        let mut report = DrainReport::default();
        if pending.is_empty() {
            return report;
        }
        let waves: Vec<WavePlan<K>> = coalesce(pending, &self.cfg.policy)
            .into_iter()
            .map(WavePlan::from)
            .collect();
        let window = match self.cfg.mode {
            ApplyMode::Pipelined => self.cfg.window.max(1),
            ApplyMode::Barriered => 1,
        };
        // A window closes at `window` waves or at `window` waves' worth of
        // small requests in keys, whichever comes first: session time is
        // linear in keys, so bounding only the wave count lets a window of
        // large waves set the latency tail of every wave folded into it.
        let key_budget = window * WINDOW_KEYS_PER_WAVE;
        let mut start = 0;
        while start < waves.len() {
            let (mut end, mut keys) = (start + 1, waves[start].keys);
            while end < waves.len() && end - start < window && keys + waves[end].keys <= key_budget
            {
                keys += waves[end].keys;
                end += 1;
            }
            self.apply_window(shard, &waves[start..end], &mut jitter, &mut report);
            start = end;
        }
        report
    }

    /// Apply one window of waves. On window failure with more than one
    /// wave, fall back to a wave-by-wave replay so only the faulty wave
    /// degrades — keeping pipelined and barriered end states identical
    /// (the equivalence test pins this). Around that protocol sit the
    /// self-healing layers: the shard's circuit breaker gates the window
    /// (an open breaker sheds it in O(1)), each degraded wave gets
    /// [`ServiceConfig::retry`] fresh-session attempts with backoff
    /// jittered from the shard's stream `jitter`, and the window's final
    /// fate feeds the breaker.
    fn apply_window(
        &self,
        shard: usize,
        waves: &[WavePlan<K>],
        jitter: &mut u64,
        report: &mut DrainReport,
    ) {
        if !lock(&self.shards[shard].breaker).admit(self.started.elapsed()) {
            for w in waves {
                let mut o = outcome(shard, w, false, None, Duration::ZERO, false);
                o.error = Some("circuit open: shard shedding load".to_string());
                o.attempts = 0;
                o.shed = true;
                report.shed += 1;
                report.outcomes.push(o);
            }
            return;
        }
        let mut degraded = false;
        match self.apply_pass(shard, waves, report) {
            Ok(took) => {
                for w in waves {
                    report.record(outcome(shard, w, true, None, took, false));
                }
            }
            Err(failed) if waves.len() == 1 => {
                degraded = !self.retry_wave(shard, &waves[0], false, Some(failed), jitter, report);
            }
            Err((err, _)) => {
                // The failed window's error and timeline, taken before
                // this thread's replay sessions replace the timeline.
                report
                    .window_traces
                    .extend(pf_rt::take_last_trace().map(|t| (err.to_string(), Arc::new(t))));
                // Replay: one wave per pass (plus retries), committing
                // the healthy ones in order; the shard root advances past
                // each.
                for w in waves {
                    degraded |= !self.retry_wave(shard, w, true, None, jitter, report);
                }
            }
        }
        lock(&self.shards[shard].breaker).on_window(degraded, self.started.elapsed());
    }

    /// Run `w` alone in fresh passes until it serves or its retry budget
    /// is spent, recording exactly one outcome. `failed` carries an
    /// attempt the caller already ran (the single-wave window session);
    /// each subsequent attempt waits out an exponential backoff jittered
    /// from `jitter` first. Returns whether the wave served.
    fn retry_wave(
        &self,
        shard: usize,
        w: &WavePlan<K>,
        replayed: bool,
        failed: Option<(SessionError, Duration)>,
        jitter: &mut u64,
        report: &mut DrainReport,
    ) -> bool {
        let mut attempts: u32 = failed.iter().count() as u32;
        let mut last = failed;
        loop {
            if let Some((err, took)) = last {
                if attempts > self.cfg.retry.attempts {
                    let mut o = outcome(shard, w, false, Some(&err), took, replayed);
                    o.attempts = attempts;
                    // The failed session that degraded it, on this thread.
                    o.trace = pf_rt::take_last_trace().map(Arc::new);
                    report.record(o);
                    return false;
                }
                // Bounded backoff: the shard's ingress keeps queueing
                // while we sleep; a transient fault (a wedge released, a
                // contended sibling) gets breathing room to clear.
                std::thread::sleep(self.cfg.retry.delay(attempts - 1, jitter));
                report.retries += 1;
            }
            attempts += 1;
            match self.apply_pass(shard, std::slice::from_ref(w), report) {
                Ok(took) => {
                    let mut o = outcome(shard, w, true, None, took, replayed);
                    o.attempts = attempts;
                    report.record(o);
                    if attempts > 1 {
                        report.recovered += 1;
                    }
                    return true;
                }
                Err(e) => last = Some(e),
            }
        }
    }

    /// One apply pass: the window's [`net_effect`] planned against the
    /// shard's committed root — on the calling thread where [`admits`]
    /// says so, in a pooled session otherwise — and committed ([`commit`]).
    /// Returns the pass's elapsed time, or the session's error with the
    /// root untouched.
    fn apply_pass(
        &self,
        shard: usize,
        waves: &[WavePlan<K>],
        report: &mut DrainReport,
    ) -> Result<Duration, (SessionError, Duration)> {
        report.sessions += 1;
        let started = Instant::now();
        let root = self.snapshot(shard);
        // A panic in the inline plan hands the window to the session, which
        // reports it.
        let inline = admits(&root, waves)
            .then(|| catch_unwind(AssertUnwindSafe(|| plan_inline(&root, waves))).ok())
            .flatten();
        let (planned, mut stats) = match inline {
            Some(planned) => {
                report.inline += 1;
                let one = RunStats {
                    tasks_executed: 1,
                    ..RunStats::default()
                };
                (planned, one)
            }
            None => self.plan_pooled(root.clone(), waves)?,
        };
        let (in_place, took) = commit(&self.shards[shard].root, root, planned, started);
        report.in_place += u64::from(in_place);
        stats.elapsed = took;
        report.stats.accumulate(&stats);
        Ok(took)
    }

    /// The pooled pass's plan: one traced session injects the waves'
    /// faults, and on its worker folds the window's [`net_effect`] and
    /// plans it ([`plan_run_on`]), forked wherever a node's job is over
    /// the grain. On failure the caller gets the error plus the session's
    /// wall-clock cost; the pool is already clean (aborted sessions poison
    /// their cells and drop their continuations) and the root untouched,
    /// for a plan writes nothing.
    fn plan_pooled(
        &self,
        root: Complete<K>,
        waves: &[WavePlan<K>],
    ) -> Result<(Planned<K>, RunStats), (SessionError, Duration)> {
        let ((runs_out, runs), (patch_out, patch)) = (cell(), cell());
        // Traced, so a failed session leaves its own timeline behind.
        let mut sess = Session::new().trace();
        if let Some(d) = self.cfg.deadline {
            sess = sess.deadline(d);
        }
        if let Some(b) = self.cfg.stall_budget {
            sess = sess.stall_budget(b);
        }
        let window = waves.to_vec();
        let started = Instant::now();
        let stats = self
            .rt
            .try_run_session(sess, move |wk: &Worker| {
                for w in &window {
                    match w.fault {
                        Fault::Panic => {
                            wk.spawn(|_| panic!("injected fault: malformed request payload"))
                        }
                        Fault::Wedge => wk.spawn(|wk| {
                            while !wk.cancelled() {
                                std::hint::spin_loop();
                            }
                        }),
                        Fault::None => {}
                    }
                }
                let (deletes, inserts) = net_effect(&window);
                runs_out.fulfill(wk, (Arc::clone(&deletes), Arc::clone(&inserts)));
                // The session holds a third handle on the root.
                plan_run_on(wk, root, deletes, inserts, OWNERS + 1, patch_out);
            })
            .map_err(|e| (e, started.elapsed()))?;
        let (deletes, inserts) = runs.expect();
        Ok(((deletes, inserts, patch.expect().take()), stats))
    }
}

impl DrainReport {
    fn record(&mut self, o: WaveOutcome) {
        if o.served {
            self.served += 1;
            self.keys_applied += o.keys as u64;
        } else {
            self.degraded += 1;
        }
        self.outcomes.push(o);
    }
}

/// Does the window run inline, on the calling thread with no session:
/// is every wave healthy, of at most `GRAIN` keys, and [`within_grain`]
/// against an upper bound on the running root — the committed root's size
/// plus every key inserted earlier in the window? A function of sizes
/// alone, checked before any work; an inline pass waits on nothing, so a
/// window's time is bounded by `window × GRAIN` unit actions.
fn admits<K: Key>(root: &Complete<K>, waves: &[WavePlan<K>]) -> bool {
    let mut bound = root.size();
    waves.iter().all(|w| {
        let healthy = w.fault == Fault::None && w.keys as u64 <= Worker::GRAIN;
        let fits = healthy && within_grain::<Worker>(bound, w.keys);
        if w.kind == OpKind::Insert {
            bound += w.keys;
        }
        fits
    })
}

/// The handles on the root an inline plan accounts for: the shard's and
/// the pass's. A reader's is a third.
const OWNERS: usize = 2;

/// A pass's plan: the window's [`net_effect`], its deletes and inserts,
/// and the patch of the root that applies them.
type Planned<K> = (Arc<[K]>, Arc<[Entry<K>]>, Patch<K>);

/// The inline pass's plan, on the calling thread: [`plan_run`].
fn plan_inline<K: Key>(root: &Complete<K>, waves: &[WavePlan<K>]) -> Planned<K> {
    let (deletes, inserts) = net_effect(waves);
    let patch = plan_run(root, &deletes, &inserts, OWNERS);
    (deletes, inserts, patch)
}

/// Commit `planned`, a plan of `root`, to the shard's root `slot` under
/// the lock every `snapshot()` takes ([`Patch::commit`]): in place where
/// nothing but the shard holds a node the patch edits, a copy of the path
/// put in where a reader held a node at plan time. The shard's apply lock
/// keeps the planned root committed until then, and `root`, the pass's
/// handle on it, is let go first. A commit refused because a reader took
/// hold of an edited node since the plan copies instead ([`apply_run`],
/// the plan's comparisons again, on the same root) and swaps the copy in.
/// A reader waits for the commit walk or swap at most. Returns whether the
/// root node was kept, and the elapsed time since `started`, stamped
/// before the subtreaps the commit replaced are freed, off the lock.
fn commit<K: Key>(
    slot: &Mutex<Complete<K>>,
    root: Complete<K>,
    planned: Planned<K>,
    started: Instant,
) -> (bool, Duration) {
    let (deletes, inserts, patch) = planned;
    let mut guard = lock(slot);
    debug_assert!(guard.ptr_eq(&root), "the apply lock keeps the planned root");
    drop(root);
    let in_place = patch.keeps_root();
    let refused = match patch.commit(&mut guard) {
        Ok(graveyard) => {
            drop(guard);
            let took = started.elapsed();
            drop(graveyard);
            return (in_place, took);
        }
        Err(refused) => refused,
    };
    let root = guard.clone();
    drop(guard);
    drop(refused);
    let new_root = apply_run(&root, &deletes, &inserts);
    let replaced = std::mem::replace(&mut *lock(slot), new_root);
    let took = started.elapsed();
    drop((root, replaced));
    (false, took)
}

/// The net effect of `waves`, which every pass applies: one stable sort
/// of their entries by key (wave order within a key), then per key a
/// delete of the key if any wave deletes it, and an insert of the [`wins`]
/// winner among the entries inserted after its last delete. A treap is a
/// function of its entries, so the two runs build the tree the waves'
/// unions and differences build one by one, at no more work than their
/// estimates summed. A one-wave insert window is its run as it is: no
/// sort, no copy.
fn net_effect<K: Key>(waves: &[WavePlan<K>]) -> (Arc<[K]>, Arc<[Entry<K>]>) {
    if let [w] = waves {
        if w.kind == OpKind::Insert {
            return (Vec::new().into(), Arc::clone(&w.run));
        }
    }
    let mut ops: Vec<(&Entry<K>, OpKind)> = (waves.iter())
        .flat_map(|w| w.run.iter().map(move |e| (e, w.kind)))
        .collect();
    ops.sort_by(|(a, _), (b, _)| a.0.cmp(&b.0));
    let (mut deletes, mut inserts) = (Vec::new(), Vec::new());
    for same_key in ops.chunk_by(|(a, _), (b, _)| a.0 == b.0) {
        let after = match same_key.iter().rposition(|&(_, k)| k == OpKind::Delete) {
            Some(d) => {
                deletes.push(same_key[d].0 .0.clone());
                &same_key[d + 1..]
            }
            None => same_key,
        };
        let winner = after.iter().map(|&(e, _)| e).reduce(|best, e| {
            if wins(&e.0, e.1, &best.0, best.1) {
                e
            } else {
                best
            }
        });
        inserts.extend(winner.cloned());
    }
    (deletes.into(), inserts.into())
}

fn outcome<K>(
    shard: usize,
    w: &WavePlan<K>,
    served: bool,
    err: Option<&SessionError>,
    latency: Duration,
    replayed: bool,
) -> WaveOutcome {
    WaveOutcome {
        shard,
        kind: w.kind,
        tags: w.tags.clone(),
        keys: w.keys,
        served,
        error: err.map(|e| e.to_string()),
        latency,
        replayed,
        attempts: 1,
        shed: false,
        trace: None,
    }
}
