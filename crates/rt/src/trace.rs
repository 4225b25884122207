//! Scheduler event recording: the one place pf-rt counts what its §4
//! runtime does, and, for a session opened with
//! [`Session::trace`](crate::Session::trace), the timeline of when.
//!
//! # What is recorded
//!
//! Every scheduler event — a [`TraceKind`]:
//! `{spawn, steal, exec, suspend, resume, fulfill, poison, park, unpark}`
//! — is recorded by `SessionEvents::record` into a *lane* of the
//! **owning session's** slot: each session slot of the pool carries
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
//!   the session runs;
//! * for a traced session, its [`SessionTrace`], which copies each
//!   lane's counters into [`WorkerTrace::counts`] when the session ends.
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
//! A traced session also pushes every event — a [`TraceEvent`], stamped
//! against one process-wide monotonic epoch (so timelines of concurrent
//! sessions, and of different pools, are mutually comparable) — into a
//! fixed-capacity `TraceRing` per lane. When a session produces more
//! events than the ring holds, the **oldest** are overwritten (the
//! newest events are the ones a post-mortem wants) and the drop count
//! says so; the counters never drop, and the drained trace carries them.
//! Only a traced session's slot holds rings, so an untraced `record`
//! pays one predictable branch beside its counter. Rings are drained
//! exactly once, by `SessionEvents::finish` on the client when the
//! session ends — on the abort path *after* the abort's cleanup, so the
//! client's poison events are included — into a [`SessionTrace`]: per
//! worker a [`WorkerTrace`] holding the drained ring and the lane's
//! exact per-kind counts, plus the client lane. It lands in a
//! thread-local of that client, where [`take_last_trace`] finds it: a
//! session blocks its client until it ends, so concurrent sessions never
//! overwrite each other's record. An untraced session's `finish` clears
//! that thread-local, so an older record never stands in for it. Each
//! ring is a `Mutex` padded to its own cache line: the owner's push is
//! uncontended, and the idle loop's park/unpark events — recorded while
//! the attributed session may be draining — stay sound.
//! [`SessionTrace::to_chrome_trace`] exports the record as
//! Chrome-trace/Perfetto JSON (open in `ui.perfetto.dev` or
//! `chrome://tracing`), one timeline row per worker. Nothing measures
//! what the timeline costs yet (DESIGN.md §5b).
//!
//! Under `--cfg pf_check` the option is inert, like the deadline and
//! the stall budget: the model has no clock to stamp events with, so a
//! traced session there records no timeline and leaves no record.

use std::fmt;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// What happened. One byte; the discriminants index the per-session
/// counter lanes and [`WorkerTrace::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A task was spawned by [`Worker::spawn`](crate::Worker::spawn) or
    /// [`Worker::spawn2`](crate::Worker::spawn2), run inline or pushed
    /// (one event per spawned task; `arg` = 0).
    Spawn = 0,
    /// A task was obtained from a sibling's deque (`arg` = victim index).
    Steal = 1,
    /// A task body started executing (`arg` = 0). One event per task the
    /// worker loop runs — inline continuations are part of their host
    /// task, exactly like the `tasks_executed` counter.
    Exec = 2,
    /// A touch found its cell unwritten and suspended its continuation in
    /// it (`arg` = cell address).
    Suspend = 3,
    /// A write reactivated a suspended continuation: its task was pushed
    /// back onto a queue (`arg` = 0; recorded by the fulfilling worker).
    Resume = 4,
    /// A future cell was written (`arg` = cell address). Writes from
    /// outside the runtime (`fulfill_outside`) are not recorded — there
    /// is no worker to record them.
    Fulfill = 5,
    /// The abort cleanup poisoned a cell that still held a suspended
    /// continuation (`arg` = cell address; recorded on the client lane —
    /// poisoning happens single-threadedly at the abort rendezvous).
    Poison = 6,
    /// The worker found no work and parked its thread (`arg` = 0).
    Park = 7,
    /// The worker's park returned (`arg` = 0).
    Unpark = 8,
}

/// Number of [`TraceKind`] variants (size of the per-kind count arrays).
pub const KIND_COUNT: usize = 9;

impl TraceKind {
    /// Lower-case event name (also the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Spawn => "spawn",
            TraceKind::Steal => "steal",
            TraceKind::Exec => "exec",
            TraceKind::Suspend => "suspend",
            TraceKind::Resume => "resume",
            TraceKind::Fulfill => "fulfill",
            TraceKind::Poison => "poison",
            TraceKind::Park => "park",
            TraceKind::Unpark => "unpark",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the process-wide trace epoch, so
    /// events of different workers, sessions and pools share one
    /// timeline.
    pub ts_ns: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific argument (victim index, cell address, or 0).
    pub arg: u64,
}

/// A fixed-capacity wraparound event buffer, owned by one worker.
///
/// Push is owner-only and O(1); when the ring is full the **oldest**
/// event is overwritten, so a drained ring always holds the newest
/// `capacity` events in FIFO order, plus a count of how many were lost.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the buffer is full (next overwrite
    /// target); 0 while still filling.
    next: usize,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        TraceRing {
            cap: capacity,
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest one when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next += 1;
            if self.next == self.cap {
                self.next = 0;
            }
            self.dropped += 1;
        }
    }

    /// Take every retained event in FIFO (oldest-retained → newest)
    /// order together with the drop count, leaving the ring empty.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut out = std::mem::take(&mut self.buf);
        // When the ring wrapped, `next` points at the oldest event:
        // rotate it to the front to restore FIFO order.
        if self.next != 0 {
            out.rotate_left(self.next);
        }
        self.next = 0;
        (out, std::mem::take(&mut self.dropped))
    }
}

/// One drained lane of a [`SessionTrace`]: a worker's (or the client's)
/// events in FIFO order, how many were overwritten, and how many of each
/// kind it recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTrace {
    /// Events in record order (oldest retained first).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound (oldest-first), reported so a
    /// truncated trace is never mistaken for a complete one.
    pub dropped: u64,
    /// Events recorded per kind, indexed by `TraceKind as usize`: pf-rt's
    /// lane counters read at the drain, so they count dropped events too.
    pub counts: [u64; KIND_COUNT],
}

impl WorkerTrace {
    /// Events of `kind` this lane recorded — exact, even when the ring
    /// dropped some of them.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[kind as usize]
    }
}

/// The full event record of one runtime session: one lane per worker,
/// drained at the session rendezvous, plus the client lane (poison
/// events recorded during an abort).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionTrace {
    /// Pool-local id of the traced session (sessions number from 1).
    pub session: u64,
    /// Session start, in nanoseconds since the process-wide trace epoch
    /// — the zero point of the Chrome-trace export.
    pub start_ns: u64,
    /// Per-lane ring capacity the recorder used — together with the
    /// per-lane drop counts this makes a truncated timeline
    /// self-describing.
    pub ring_capacity: usize,
    /// Per-worker lanes, indexed by worker.
    pub workers: Vec<WorkerTrace>,
    /// Events recorded by the client thread (abort-time poisoning).
    pub client: WorkerTrace,
}

impl SessionTrace {
    /// Total events retained across every lane.
    pub fn events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum::<usize>() + self.client.events.len()
    }

    /// Total events lost to ring wraparound across every lane.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum::<u64>() + self.client.dropped
    }

    /// Events of `kind` across every worker lane, exact. The client lane
    /// is excluded: its only events are the poisons of an abort, read as
    /// `client.count(TraceKind::Poison)`.
    pub fn total(&self, kind: TraceKind) -> u64 {
        self.workers.iter().map(|w| w.count(kind)).sum()
    }

    /// Render as Chrome-trace JSON (the "JSON Object Format" both
    /// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
    /// directly): one instant event per [`TraceEvent`], one timeline row
    /// (`tid`) per worker plus one for the client lane, timestamps in
    /// microseconds relative to the session start. A trailing
    /// `"metadata"` object carries the ring capacity and the total drop
    /// count, so a truncated export is self-describing.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 * (self.events() + self.workers.len() + 2));
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{\"name\":\"pf-rt session\"}}",
        );
        let client_tid = self.workers.len();
        for (tid, _) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"worker {tid}\"}}}}"
            ));
        }
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{client_tid},\
             \"args\":{{\"name\":\"client\"}}}}"
        ));
        let mut emit = |tid: usize, ev: &TraceEvent| {
            // Rebase onto the session start; idle-loop events recorded
            // just before the drain may trail the quiescence signal, but
            // never precede the session (rings are born with it).
            let us = ev.ts_ns.saturating_sub(self.start_ns) as f64 / 1e3;
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{us:.3},\
                 \"pid\":0,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                ev.kind.name(),
                ev.arg
            ));
        };
        for (tid, lane) in self.workers.iter().enumerate() {
            for ev in &lane.events {
                emit(tid, ev);
            }
        }
        for ev in &self.client.events {
            emit(client_tid, ev);
        }
        out.push_str(&format!(
            "\n],\"metadata\":{{\"ringCapacity\":{},\"droppedEvents\":{}}}}}\n",
            self.ring_capacity,
            self.dropped()
        ));
        out
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: TraceKind, arg: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            arg,
        }
    }

    #[test]
    fn ring_push_and_drain_fifo() {
        let mut r = TraceRing::new(8);
        for i in 0..5 {
            r.push(ev(i, TraceKind::Spawn, i));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 0);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert_eq!(r.drain(), (Vec::new(), 0), "drain empties the ring");
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.push(ev(i, TraceKind::Exec, 0));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 6, "6 of 10 events were overwritten");
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [6, 7, 8, 9],
            "the newest events survive, in FIFO order"
        );
        assert_eq!(r.drain(), (Vec::new(), 0), "drain resets the drop counter");
    }

    #[test]
    fn ring_wraparound_boundary_cases() {
        // Exactly full: nothing dropped.
        let mut r = TraceRing::new(3);
        for i in 0..3 {
            r.push(ev(i, TraceKind::Park, 0));
        }
        let (evs, d) = r.drain();
        assert_eq!((evs.len(), d), (3, 0));

        // One over: exactly one dropped, order still FIFO.
        for i in 0..4 {
            r.push(ev(i, TraceKind::Park, 0));
        }
        let (evs, d) = r.drain();
        assert_eq!(d, 1);
        assert_eq!(evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), [1, 2, 3]);

        // Capacity 1 degenerates to "last event wins".
        let mut r1 = TraceRing::new(1);
        for i in 0..5 {
            r1.push(ev(i, TraceKind::Steal, 0));
        }
        let (evs, d) = r1.drain();
        assert_eq!(d, 4);
        assert_eq!(evs[0].ts_ns, 4);
    }

    #[test]
    fn stats_count_per_kind_and_per_worker() {
        // A lane's counts come from the recorder, not from its retained
        // events: lane 1's ring dropped three exec events, which its
        // counts still hold.
        let lane = |events: Vec<TraceEvent>, dropped: u64, extra: &[(TraceKind, u64)]| {
            let mut counts = [0; KIND_COUNT];
            for e in &events {
                counts[e.kind as usize] += 1;
            }
            for &(k, n) in extra {
                counts[k as usize] += n;
            }
            WorkerTrace {
                events,
                dropped,
                counts,
            }
        };
        let tr = SessionTrace {
            session: 7,
            start_ns: 100,
            ring_capacity: 4,
            workers: vec![
                lane(
                    vec![
                        ev(110, TraceKind::Exec, 0),
                        ev(120, TraceKind::Spawn, 0),
                        ev(130, TraceKind::Steal, 1),
                        ev(140, TraceKind::Exec, 0),
                    ],
                    0,
                    &[],
                ),
                lane(
                    vec![
                        ev(115, TraceKind::Suspend, 0xdead),
                        ev(125, TraceKind::Resume, 0),
                        ev(135, TraceKind::Park, 0),
                        ev(145, TraceKind::Unpark, 0),
                    ],
                    3,
                    &[(TraceKind::Exec, 3)],
                ),
            ],
            client: lane(vec![ev(150, TraceKind::Poison, 0xbeef)], 0, &[]),
        };
        assert_eq!(tr.workers[0].count(TraceKind::Exec), 2);
        assert_eq!(tr.workers[0].count(TraceKind::Steal), 1);
        assert_eq!(
            tr.workers[1].count(TraceKind::Exec),
            3,
            "dropped, still counted"
        );
        assert_eq!(tr.workers[1].count(TraceKind::Suspend), 1);
        assert_eq!(tr.workers[1].count(TraceKind::Park), 1);
        assert_eq!(tr.workers[1].count(TraceKind::Unpark), 1);
        assert_eq!(
            (
                tr.total(TraceKind::Exec),
                tr.total(TraceKind::Steal),
                tr.total(TraceKind::Suspend),
                tr.total(TraceKind::Resume)
            ),
            (5, 1, 1, 1)
        );
        assert_eq!(
            tr.total(TraceKind::Poison),
            0,
            "the client lane is not summed"
        );
        assert_eq!(tr.client.count(TraceKind::Poison), 1);
        assert_eq!(tr.dropped(), 3);
        assert_eq!(tr.events(), 9, "retained events only");
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let tr = SessionTrace {
            session: 3,
            start_ns: 1_000,
            ring_capacity: 1 << 14,
            workers: vec![WorkerTrace {
                events: vec![
                    ev(1_500, TraceKind::Exec, 0),
                    ev(2_500, TraceKind::Steal, 1),
                ],
                dropped: 5,
                ..WorkerTrace::default()
            }],
            client: WorkerTrace {
                events: vec![ev(3_000, TraceKind::Poison, 42)],
                ..WorkerTrace::default()
            },
        };
        let json = tr.to_chrome_trace();
        // Structurally sound JSON (balanced braces/brackets — the format
        // is machine-written with no user strings, so this plus content
        // checks pins it).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        // One instant event per TraceEvent, rebased to the session start.
        assert!(json.contains("\"name\":\"exec\""));
        assert!(json.contains("\"ts\":0.500"));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"name\":\"steal\""));
        assert!(json.contains("\"name\":\"poison\""));
        assert!(json.contains("\"args\":{\"arg\":42}"));
        // Thread-name metadata for the worker and the client lanes.
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"client\""));
        // The trailing metadata object makes the export self-describing.
        assert!(json.contains("\"metadata\":{\"ringCapacity\":16384,\"droppedEvents\":5}"));
        // A timestamp before the session start clamps to zero.
        let early = SessionTrace {
            session: 1,
            start_ns: 10_000,
            ring_capacity: 4,
            workers: vec![WorkerTrace {
                events: vec![ev(5_000, TraceKind::Park, 0)],
                ..WorkerTrace::default()
            }],
            client: WorkerTrace::default(),
        };
        assert!(early.to_chrome_trace().contains("\"ts\":0.000"));
    }

    #[test]
    fn kind_names_cover_all_kinds() {
        use TraceKind::*;
        let mut seen = std::collections::BTreeSet::new();
        for k in [
            Spawn, Steal, Exec, Suspend, Resume, Fulfill, Poison, Park, Unpark,
        ] {
            assert!(seen.insert(k.name()), "duplicate name for {k:?}");
            assert!((k as usize) < KIND_COUNT);
        }
        assert_eq!(seen.len(), KIND_COUNT);
    }
}
