//! Scheduler event recording: the one place pf-rt counts what its §4
//! runtime does, and, for a session opened with
//! [`Session::trace`](crate::Session::trace), the timeline of when.
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
//! * for a traced session, its [`pf_trace::SessionTrace`], which copies
//!   each lane's counters into [`pf_trace::WorkerTrace::counts`] when
//!   the session ends.
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
//! put the worker to sleep. The idle loop keeps that slot, and records
//! them, only for a traced session: only the timeline needs them.
//!
//! # Timeline (traced sessions)
//!
//! A traced session also pushes every event, stamped against one
//! process-wide monotonic epoch (so timelines of concurrent sessions, and
//! of different pools, are mutually comparable), into a fixed-capacity
//! [`pf_trace::TraceRing`] per lane — the timeline for
//! [`pf_trace::SessionTrace::to_chrome_trace`]. When a session produces
//! more events than the ring holds, the **oldest** are overwritten and
//! the drop count says so; the counters never drop, and the drained
//! trace carries them. Only a traced session's slot holds rings, so an
//! untraced `record` pays one predictable branch beside its counter.
//! Rings are drained exactly once, by `SessionEvents::finish` on the
//! client when the session ends — on the abort path *after*
//! `finish_abort`, so the client's poison events are included — into a
//! thread-local of that client, where [`take_last_trace`] finds it: a
//! session blocks its client until it ends, so concurrent sessions never
//! overwrite each other's record. An untraced session's `finish` clears
//! that thread-local, so an older record never stands in for it. Each
//! ring is a `Mutex` padded to its own cache line: the owner's push is
//! uncontended, and the idle loop's park/unpark events — recorded while
//! the attributed session may be draining — stay sound. Nothing measures
//! what the timeline costs yet (DESIGN.md §5b).
//!
//! Under `--cfg pf_check` the option is inert, like the deadline and
//! the stall budget: the model has no clock to stamp events with, so a
//! traced session there records no timeline and leaves no record.

use pf_trace::{SessionTrace, TraceEvent, TraceKind, TraceRing, WorkerTrace, KIND_COUNT};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// Per-lane ring capacity, in events. Sized so every behavioral test
/// and typical service session fits without wraparound (a 2^11-node
/// tree session records a few thousand events per worker); larger
/// sessions keep their newest `DEFAULT_RING_CAP` events per lane and
/// report the drops (also surfaced in the Perfetto export metadata).
const DEFAULT_RING_CAP: usize = 1 << 14;

/// One lane's per-kind event counts, padded so the owner's bumps never
/// share a cache line with a sibling's.
#[repr(align(128))]
struct Lane([AtomicU64; KIND_COUNT]);

/// One session's event record, owned by its slot: a lane per worker plus
/// a final client lane, and a traced session's timeline.
pub(crate) struct SessionEvents {
    lanes: Box<[Lane]>,
    timeline: Option<Timeline>,
}

/// A traced session's rings, one per lane, and its start stamp.
struct Timeline {
    rings: Box<[Ring]>,
    /// Session start, nanoseconds since the trace epoch.
    start_ns: u64,
}

impl SessionEvents {
    /// A session's record; `traced` adds the timeline, except under
    /// `--cfg pf_check`, whose model has no clock.
    pub(crate) fn new(nthreads: usize, traced: bool) -> SessionEvents {
        let lanes = nthreads + 1;
        SessionEvents {
            lanes: (0..lanes)
                .map(|_| Lane(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            timeline: (traced && !cfg!(pf_check)).then(|| Timeline {
                rings: (0..lanes)
                    .map(|_| Ring(Mutex::new(TraceRing::new(DEFAULT_RING_CAP))))
                    .collect(),
                start_ns: now_ns(),
            }),
        }
    }

    /// Does this session record a timeline?
    pub(crate) fn traced(&self) -> bool {
        self.timeline.is_some()
    }

    /// Record `n` events of `kind` on `lane` (`arg`: a victim index or a
    /// cell address, timeline only). The caller owns the lane.
    #[inline]
    pub(crate) fn record(&self, lane: usize, kind: TraceKind, arg: u64, n: u64) {
        // Owner-only increment: cheaper than an atomic RMW, and exact
        // because each lane is written by a single thread.
        let c = &self.lanes[lane].0[kind as usize];
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        if let Some(t) = &self.timeline {
            t.push(lane, kind, arg, n);
        }
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

    /// The session has ended: hand the calling client thread, for
    /// [`take_last_trace`], a traced session's `SessionTrace` (its
    /// drained rings and counters), or nothing for an untraced one, so no
    /// older record stands in for it. Called once per session.
    pub(crate) fn finish(&self, session: u64) {
        LAST_TRACE.set(
            self.timeline
                .as_ref()
                .map(|t| t.drain(session, &self.lanes)),
        );
    }
}

impl Timeline {
    #[cold]
    fn push(&self, lane: usize, kind: TraceKind, arg: u64, n: u64) {
        let ts_ns = now_ns();
        let mut ring = crate::pool::lock(&self.rings[lane].0);
        for _ in 0..n {
            ring.push(TraceEvent { ts_ns, kind, arg });
        }
    }

    fn drain(&self, session: u64, lanes: &[Lane]) -> SessionTrace {
        let mut workers: Vec<WorkerTrace> = lanes
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
        SessionTrace {
            session,
            start_ns: self.start_ns,
            ring_capacity: DEFAULT_RING_CAP,
            workers,
            client,
        }
    }
}

/// Take the record of the last session the calling thread ran —
/// successful or failed — if that session was traced
/// ([`Session::trace`](crate::Session::trace)); `None` if it was not,
/// or if the thread ran none since the last take. A failed session's
/// trace includes the poison events of its abort, often exactly what a
/// post-mortem needs.
pub fn take_last_trace() -> Option<SessionTrace> {
    LAST_TRACE.take()
}

thread_local! {
    /// The calling thread's last finished session (see [`take_last_trace`]).
    static LAST_TRACE: std::cell::Cell<Option<SessionTrace>> =
        const { std::cell::Cell::new(None) };
}

/// Nanoseconds since the process-wide trace epoch, set by the first call.
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
#[repr(align(128))]
struct Ring(Mutex<TraceRing>);
