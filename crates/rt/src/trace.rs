//! Runtime event tracing (`--features trace`): the pool-side half of
//! [`pf_trace`].
//!
//! # What is recorded
//!
//! Every scheduler transition of interest —
//! `{spawn, steal, exec, suspend, resume, fulfill, poison, park, unpark}`
//! — is recorded into a *lane* of the **owning session's** slot: each
//! [`SessionSlot`](crate::pool) carries its own [`SessionLanes`] (one
//! lane per worker plus a client lane), so concurrent sessions record
//! into disjoint lanes and a session's timeline contains exactly its own
//! events. All lanes of all sessions stamp against one monotonic clock —
//! the pool's epoch, captured at pool creation — so concurrent sessions'
//! timelines are mutually comparable.
//!
//! Attribution: a worker executing a task records into *that task's*
//! session (the worker's current slot). Steals are attributed to the
//! stolen task's session. Park/unpark happen outside any task, so they
//! are attributed to the session of the last task the worker ran — the
//! session whose dry spell put the worker to sleep — and dropped when
//! there is none. Abort-time poison events go to the aborting session's
//! client lane (the poison pass runs single-threadedly on the client).
//!
//! Each lane holds two things:
//!
//! * a fixed-capacity [`pf_trace::TraceRing`] — the timeline for
//!   [`pf_trace::SessionTrace::to_chrome_trace`]. When a session
//!   produces more events than the ring holds, the **oldest** are
//!   overwritten and the drop count says so; the export is a
//!   truncated-but-honest newest-events window;
//! * an exact per-kind counter array — the source of
//!   [`pf_trace::TraceStats`]. Counters never drop, so the summaries a
//!   test asserts on (steal counts, suspension counts, executed tasks)
//!   are exact even for sessions far larger than the ring.
//!
//! # Drain protocol
//!
//! Lanes are born empty with the slot at session start and drained
//! exactly once by the client when the session ends — on the abort path
//! *after* `finish_abort`, so the client's poison events are included.
//! There is no clear step: a slot's lanes never hold another session's
//! events. Each lane is a `Mutex<…>` padded to its own cache line: the
//! owner's push is an uncontended lock; the mutex makes the idle loop's
//! park/unpark events — recorded outside any task, possibly while the
//! attributed session is being drained — sound rather than merely
//! phase-separated.
//!
//! # Cost
//!
//! With the feature **off** (the default) every hook below compiles to
//! an empty `#[inline(always)]` function — no branch, no atomic, no
//! field in the slot. With the feature **on**, a hook is one uncontended
//! lock plus a counter bump and a ring push (~a few tens of nanoseconds);
//! pf-perf records what that costs a whole union as
//! `bench.trace_overhead_share`.
//!
//! Incompatible with `--cfg pf_check`: the model checker virtualizes
//! the sync layer and has no clock, so real `Instant` timestamps (and
//! real std mutexes on the lanes) would order nothing the checker can
//! see.

#[cfg(all(feature = "trace", pf_check))]
compile_error!(
    "feature \"trace\" is incompatible with --cfg pf_check: the model checker's \
     virtual clock cannot order real timestamps (same rule as pf_chaos)"
);

#[cfg(feature = "trace")]
pub(crate) use imp::SessionLanes;

/// Default per-lane ring capacity, in events — overridable per runtime
/// with [`RuntimeBuilder::trace_ring_cap`]. Sized so every behavioral
/// test and typical service session fits without wraparound (a
/// 2^11-node tree session records a few thousand events per worker);
/// larger sessions keep their newest `cap` events per lane and report
/// the drops (also surfaced in the Perfetto export metadata). Present
/// in every build so the builder's default needs no cfg.
///
/// [`RuntimeBuilder::trace_ring_cap`]: crate::RuntimeBuilder::trace_ring_cap
pub(crate) const DEFAULT_RING_CAP: usize = 1 << 14;

#[cfg(feature = "trace")]
mod imp {
    use std::sync::Mutex;
    use std::time::Instant;

    use pf_trace::{
        SessionTrace, TraceEvent, TraceKind, TraceRing, TraceStats, WorkerSummary, WorkerTrace,
        KIND_COUNT,
    };

    use crate::pool::lock;

    /// One worker's (or the client's) event lane, padded so the owner's
    /// pushes never share a cache line with a sibling's.
    #[repr(align(128))]
    struct Lane(Mutex<LaneState>);

    struct LaneState {
        ring: TraceRing,
        /// Exact per-kind counts — the rings drop, these never do.
        counts: [u64; KIND_COUNT],
    }

    /// One session's trace state, owned by its slot: a lane per worker
    /// plus a final client lane, stamping against the pool's clock.
    /// Lanes are born empty and drained once, at session end. Cheap to
    /// construct per session: a `TraceRing` allocates lazily on first
    /// push.
    pub(crate) struct SessionLanes {
        /// The pool's epoch — every session of a pool shares it, so
        /// concurrent sessions' timelines are mutually comparable.
        epoch: Instant,
        /// Session start, nanoseconds since the epoch (stamped at slot
        /// creation).
        start_ns: u64,
        lanes: Vec<Lane>,
        /// Per-lane ring capacity (builder knob); reported in exported
        /// timelines so a truncated trace is self-describing.
        ring_cap: usize,
    }

    impl SessionLanes {
        pub(crate) fn new(nthreads: usize, ring_cap: usize, epoch: Instant) -> SessionLanes {
            SessionLanes {
                epoch,
                start_ns: epoch.elapsed().as_nanos() as u64,
                lanes: (0..nthreads + 1)
                    .map(|_| {
                        Lane(Mutex::new(LaneState {
                            ring: TraceRing::new(ring_cap),
                            counts: [0; KIND_COUNT],
                        }))
                    })
                    .collect(),
                ring_cap,
            }
        }

        /// Nanoseconds since the pool epoch.
        #[inline]
        fn now_ns(&self) -> u64 {
            self.epoch.elapsed().as_nanos() as u64
        }

        /// Record `n` events of `kind` on `lane` (one timestamp draw).
        #[inline]
        pub(crate) fn record(&self, lane: usize, kind: TraceKind, arg: u64, n: u64) {
            let ts_ns = self.now_ns();
            let mut g = lock(&self.lanes[lane].0);
            g.counts[kind as usize] += n;
            for _ in 0..n {
                g.ring.push(TraceEvent { ts_ns, kind, arg });
            }
        }

        /// The client lane's index (abort-time poison events).
        #[inline]
        pub(crate) fn client_lane(&self) -> usize {
            self.lanes.len() - 1
        }

        /// Drain every lane into the session's trace and its exact
        /// summary (session end; on the abort path, after `finish_abort`
        /// so poison events are included), tagged with the session's
        /// spawn-order label.
        pub(crate) fn drain(&self, session: u64, policy: &str) -> (SessionTrace, TraceStats) {
            let mut take = |lane: &Lane| {
                let mut g = lock(&lane.0);
                let (events, dropped) = g.ring.drain();
                let counts = std::mem::replace(&mut g.counts, [0; KIND_COUNT]);
                (
                    WorkerTrace { events, dropped },
                    WorkerSummary { counts, dropped },
                )
            };
            let n = self.client_lane();
            let (workers, per_worker): (Vec<_>, Vec<_>) =
                self.lanes[..n].iter().map(&mut take).unzip();
            let (client_tr, client_sum) = take(&self.lanes[n]);
            (
                SessionTrace {
                    session,
                    start_ns: self.start_ns,
                    policy: policy.to_string(),
                    ring_capacity: self.ring_cap,
                    workers,
                    client: client_tr,
                },
                TraceStats {
                    session,
                    policy: policy.to_string(),
                    per_worker,
                    client: client_sum,
                },
            )
        }
    }
}

/// Record on the current session of `wk` — callable only from inside a
/// task (the worker's current slot is set).
#[cfg(feature = "trace")]
#[inline]
fn record(wk: &crate::scheduler::Worker, kind: pf_trace::TraceKind, arg: u64, n: u64) {
    wk.session().trace.record(wk.index(), kind, arg, n);
}

// ---- hook points (no-ops when the feature is off) -----------------------
//
// Placement mirrors the `WorkerStats` counters exactly, so the summed
// trace counts reconcile with `RunStats` (pinned by tests/trace.rs):
// Exec beside `add_tasks`, Spawn beside `add_spawns`, Steal beside
// `add_steals`, and Suspend only on the *committed* suspension path (the
// raced touch that un-notes its suspension records nothing).

/// `n` tasks spawned by `wk` (`spawn2` records two).
#[inline(always)]
pub(crate) fn spawn(_wk: &crate::scheduler::Worker, _n: u64) {
    #[cfg(feature = "trace")]
    record(_wk, pf_trace::TraceKind::Spawn, 0, _n);
}

/// `wk` stole one task from worker `_victim`. Runs while `wk` is
/// *between* tasks, so the owning slot (the stolen task's) is passed
/// explicitly.
#[inline(always)]
pub(crate) fn steal(
    _wk: &crate::scheduler::Worker,
    _slot: &crate::pool::SessionSlot,
    _victim: usize,
) {
    #[cfg(feature = "trace")]
    _slot
        .trace
        .record(_wk.index(), pf_trace::TraceKind::Steal, _victim as u64, 1);
}

/// `wk` is about to execute a task body.
#[inline(always)]
pub(crate) fn exec(_wk: &crate::scheduler::Worker) {
    #[cfg(feature = "trace")]
    record(_wk, pf_trace::TraceKind::Exec, 0, 1);
}

/// A touch on `wk` committed a suspension into the cell at `_addr`.
#[inline(always)]
pub(crate) fn suspend(_wk: &crate::scheduler::Worker, _addr: usize) {
    #[cfg(feature = "trace")]
    record(_wk, pf_trace::TraceKind::Suspend, _addr as u64, 1);
}

/// A write on `wk` reactivated a suspended continuation of `_slot` (the
/// *waiter's* session — under cross-session fulfills, not the writer's).
#[inline(always)]
pub(crate) fn resume(_wk: &crate::scheduler::Worker, _slot: &crate::pool::SessionSlot) {
    #[cfg(feature = "trace")]
    _slot
        .trace
        .record(_wk.index(), pf_trace::TraceKind::Resume, 0, 1);
}

/// `wk` wrote the future cell at `_addr`.
#[inline(always)]
pub(crate) fn fulfill(_wk: &crate::scheduler::Worker, _addr: usize) {
    #[cfg(feature = "trace")]
    record(_wk, pf_trace::TraceKind::Fulfill, _addr as u64, 1);
}

/// `wk` found no work and is about to park its thread. Attributed to
/// `_slot`, the session of the last task this worker ran (whose dry
/// spell parked it); dropped when the worker has run nothing yet.
#[inline(always)]
pub(crate) fn park(_wk: &crate::scheduler::Worker, _slot: Option<&crate::pool::SessionSlot>) {
    #[cfg(feature = "trace")]
    if let Some(slot) = _slot {
        slot.trace
            .record(_wk.index(), pf_trace::TraceKind::Park, 0, 1);
    }
}

/// `wk`'s park returned (same attribution as [`park`]).
#[inline(always)]
pub(crate) fn unpark(_wk: &crate::scheduler::Worker, _slot: Option<&crate::pool::SessionSlot>) {
    #[cfg(feature = "trace")]
    if let Some(slot) = _slot {
        slot.trace
            .record(_wk.index(), pf_trace::TraceKind::Unpark, 0, 1);
    }
}

/// The abort cleanup poisoned the cell at `_addr` (the aborting slot's
/// client lane: the poison pass runs single-threadedly on the client).
#[inline(always)]
pub(crate) fn poison(_slot: &crate::pool::SessionSlot, _addr: usize) {
    #[cfg(feature = "trace")]
    _slot.trace.record(
        _slot.trace.client_lane(),
        pf_trace::TraceKind::Poison,
        _addr as u64,
        1,
    );
}
