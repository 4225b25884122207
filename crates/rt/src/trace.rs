//! Scheduler event recording: the one place pf-rt counts what its §4
//! runtime does, and (`--features trace`) the timeline of when.
//!
//! # What is recorded
//!
//! Every scheduler event — a [`pf_trace::TraceKind`]:
//! `{spawn, steal, exec, suspend, resume, fulfill, poison, park, unpark}`
//! — is recorded by `SessionEvents::record` into a *lane* of the
//! **owning session's** slot: each [`SessionSlot`](crate::pool) carries
//! one `SessionEvents` with a lane per worker plus a client lane, so
//! concurrent sessions record into disjoint lanes and a session's
//! counts contain exactly its own events. A lane is one per-kind counter
//! array, `[AtomicU64; KIND_COUNT]`, written only by its owner (worker
//! *i*, or the session's client) with a plain load+store, and read by
//! everyone who asks how many of something happened:
//!
//! * [`RunStats`](crate::RunStats)' four counters (exec, spawn, suspend,
//!   steal, summed over lanes) when the session ends;
//! * the stall watchdog's **progress epoch** — the sum of the
//!   task-attributed kinds (spawn, steal, exec, suspend, resume,
//!   fulfill; never park, unpark or poison, so a worker parking after a
//!   stalled session's last task cannot reset its freeze), sampled while
//!   the session runs (see the pool docs);
//! * in traced builds, the session's [`pf_trace::SessionTrace`], which
//!   copies each lane's counters into [`pf_trace::WorkerTrace::counts`]
//!   when the session ends.
//!
//! Attribution: a worker executing a task records into *that task's*
//! session. Steals are attributed to the stolen task's session, a resume
//! to the waiter's (under a cross-session fulfill, not the writer's).
//! Abort-time poison events go to the aborting session's client lane
//! (the poison pass runs single-threadedly on the client). Lane *i* of
//! any slot is only ever written by worker *i*, so the owner-only
//! increment is exact. Suspend is recorded once, after the suspending
//! CAS commits; a touch that races the write and loses records nothing.
//!
//! Park/unpark happen outside any task, so they are attributed to the
//! session of the last task the worker ran — the session whose dry spell
//! put the worker to sleep. They are recorded only in traced builds:
//! only the timeline needs that last-run slot, and under `--cfg
//! pf_check` they would add schedule points to the idle loop.
//!
//! # Timeline (`--features trace`)
//!
//! Traced builds also push every event, stamped against one
//! process-wide monotonic epoch (so timelines of concurrent sessions, and
//! of different pools, are mutually comparable), into a fixed-capacity
//! [`pf_trace::TraceRing`] per lane — the timeline for
//! [`pf_trace::SessionTrace::to_chrome_trace`]. When a session produces
//! more events than the ring holds, the **oldest** are overwritten and
//! the drop count says so; the counters never drop, and the drained
//! trace carries them. Rings are born empty with the slot and drained
//! exactly once, by `SessionEvents::finish` on the client when the
//! session ends — on the abort path *after* `finish_abort`, so the
//! client's poison events are included. The drained trace is parked in
//! a thread-local of that client, where `pf_rt::take_last_trace` finds
//! it: a session blocks its client until it ends, so concurrent sessions
//! have distinct clients and never overwrite each other's record. Each ring
//! is a `Mutex` padded to its own cache line: the owner's push is an
//! uncontended lock, and the idle loop's park/unpark events — recorded
//! while the attributed session may be draining — stay sound. Nothing
//! measures what the timeline costs yet: pf-perf never enables this
//! feature, and its `bench.trace_overhead_share` row is the cost of
//! pf-perf's own span recorder.
//!
//! The timeline is incompatible with `--cfg pf_check`: the model checker
//! virtualizes the sync layer and has no clock, so real `Instant`
//! timestamps (and real std mutexes on the rings) would order nothing
//! the checker can see.

#[cfg(all(feature = "trace", pf_check))]
compile_error!(
    "feature \"trace\" is incompatible with --cfg pf_check: the model checker's \
     virtual clock cannot order real timestamps (same rule as pf_chaos)"
);

#[cfg(feature = "trace")]
use pf_trace::{SessionTrace, TraceEvent, TraceRing, WorkerTrace};
use pf_trace::{TraceKind, KIND_COUNT};

use crate::sync::atomic::{AtomicU64, Ordering};

/// Per-lane ring capacity, in events. Sized so every behavioral test
/// and typical service session fits without wraparound (a 2^11-node
/// tree session records a few thousand events per worker); larger
/// sessions keep their newest `DEFAULT_RING_CAP` events per lane and
/// report the drops (also surfaced in the Perfetto export metadata).
#[cfg(feature = "trace")]
const DEFAULT_RING_CAP: usize = 1 << 14;

/// One lane's per-kind event counts, padded so the owner's bumps never
/// share a cache line with a sibling's.
#[repr(align(128))]
struct Lane([AtomicU64; KIND_COUNT]);

/// One session's event record, owned by its slot: a lane per worker plus
/// a final client lane.
pub(crate) struct SessionEvents {
    lanes: Box<[Lane]>,
    #[cfg(feature = "trace")]
    rings: Box<[Ring]>,
    /// Session start, nanoseconds since the trace epoch.
    #[cfg(feature = "trace")]
    start_ns: u64,
}

impl SessionEvents {
    pub(crate) fn new(nthreads: usize) -> SessionEvents {
        SessionEvents {
            lanes: (0..nthreads + 1)
                .map(|_| Lane(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            #[cfg(feature = "trace")]
            rings: (0..nthreads + 1)
                .map(|_| Ring(std::sync::Mutex::new(TraceRing::new(DEFAULT_RING_CAP))))
                .collect(),
            #[cfg(feature = "trace")]
            start_ns: now_ns(),
        }
    }

    /// Record `n` events of `kind` on `lane` (`arg`: a victim index or a
    /// cell address, timeline only). The caller owns the lane.
    #[inline]
    pub(crate) fn record(&self, lane: usize, kind: TraceKind, arg: u64, n: u64) {
        // Owner-only increment: cheaper than an atomic RMW, and exact
        // because each lane is written by a single thread.
        let c = &self.lanes[lane].0[kind as usize];
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        #[cfg(feature = "trace")]
        {
            let ts_ns = now_ns();
            let mut ring = crate::pool::lock(&self.rings[lane].0);
            for _ in 0..n {
                ring.push(TraceEvent { ts_ns, kind, arg });
            }
        }
        #[cfg(not(feature = "trace"))]
        let _ = arg;
    }

    /// Events of `kind`, summed over every lane.
    pub(crate) fn total(&self, kind: TraceKind) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.0[kind as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// The session's progress epoch: its task-attributed events, summed.
    /// Monotone, so two equal successive reads mean no such event
    /// happened in between.
    // The watchdog, its only reader, needs a clock the model lacks.
    #[cfg_attr(pf_check, allow(dead_code))]
    pub(crate) fn epoch(&self) -> u64 {
        use TraceKind::*;
        [Spawn, Steal, Exec, Suspend, Resume, Fulfill]
            .map(|k| self.total(k))
            .iter()
            .sum()
    }

    /// The client lane's index (abort-time poison events).
    pub(crate) fn client_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// The session has ended: drain the rings and the counters into its
    /// `SessionTrace` and hand it to the calling client thread, for
    /// `take_last_trace`. Called once per session. No-op untraced.
    pub(crate) fn finish(&self, session: u64) {
        #[cfg(feature = "trace")]
        {
            let mut workers: Vec<WorkerTrace> = self
                .lanes
                .iter()
                .zip(self.rings.iter())
                .map(|(lane, ring)| {
                    let (events, dropped) = crate::pool::lock(&ring.0).drain();
                    let counts = std::array::from_fn(|k| lane.0[k].load(Ordering::Relaxed));
                    WorkerTrace {
                        events,
                        dropped,
                        counts,
                    }
                })
                .collect();
            let client = workers.pop().expect("the client lane is the last");
            LAST_TRACE.set(Some(SessionTrace {
                session,
                start_ns: self.start_ns,
                ring_capacity: DEFAULT_RING_CAP,
                workers,
                client,
            }));
        }
        #[cfg(not(feature = "trace"))]
        let _ = session;
    }
}

/// Take the record of the last session the calling thread ran —
/// successful or failed — or `None` if it ran none since the last take.
/// A failed session's trace includes the poison events of its abort,
/// often exactly what a post-mortem needs.
#[cfg(feature = "trace")]
pub fn take_last_trace() -> Option<SessionTrace> {
    LAST_TRACE.take()
}

#[cfg(feature = "trace")]
thread_local! {
    /// The calling thread's last finished session (see [`take_last_trace`]).
    static LAST_TRACE: std::cell::Cell<Option<SessionTrace>> =
        const { std::cell::Cell::new(None) };
}

/// Nanoseconds since the process-wide trace epoch, set by the first call.
#[cfg(feature = "trace")]
fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// One lane's ring, padded so the owner's pushes never share a cache
/// line with a sibling's. Cheap to construct per session: a `TraceRing`
/// allocates lazily on first push.
#[cfg(feature = "trace")]
#[repr(align(128))]
struct Ring(std::sync::Mutex<TraceRing>);
