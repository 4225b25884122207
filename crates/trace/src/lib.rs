//! # pf-trace — runtime event tracing for the futures scheduler
//!
//! The simulator (`pf-core`) records full DAG traces; the real runtime
//! (`pf-rt`) was a black box. This crate is the data layer of the
//! runtime's event record:
//!
//! * [`TraceKind`] — the nine scheduler events
//!   (`{spawn, steal, exec, suspend, resume, fulfill, poison, park,
//!   unpark}`); pf-rt's per-session counters, on in every build, are
//!   indexed by it;
//!
//! and of the timeline a session opened with `pf_rt::Session::trace`
//! records:
//!
//! * [`TraceEvent`] — one scheduler event with a monotonic nanosecond
//!   timestamp and a one-word argument (a victim index, a cell address);
//! * [`TraceRing`] — a fixed-capacity wraparound buffer of events. The
//!   owning worker pushes; when full, the **oldest** event is
//!   overwritten (the newest events are the ones a post-mortem wants)
//!   and a drop counter records the loss — nothing disappears silently;
//! * [`SessionTrace`] — one runtime session's record: per worker a
//!   [`WorkerTrace`] holding the drained ring and the lane's exact
//!   per-kind counts, plus a lane for events the *client* thread records
//!   during an abort (cell poisoning). [`SessionTrace::total`] sums a
//!   kind over the workers, exact even when rings dropped events;
//! * [`SessionTrace::to_chrome_trace`] — a Chrome-trace/Perfetto JSON
//!   export (open in `ui.perfetto.dev` or `chrome://tracing`), one
//!   timeline row per worker.
//!
//! This crate is intentionally free of any runtime dependency (and of
//! `unsafe`): `pf-rt` owns the synchronization and the clock; everything
//! here is plain data, so the ring and the export are unit-testable
//! without threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// What happened. One byte; the discriminants index pf-rt's per-session
/// counter lanes and [`WorkerTrace::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A task was pushed by `Worker::spawn`/`spawn2`/a boxed spawn
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

/// All kinds, in discriminant order.
pub const ALL_KINDS: [TraceKind; KIND_COUNT] = [
    TraceKind::Spawn,
    TraceKind::Steal,
    TraceKind::Exec,
    TraceKind::Suspend,
    TraceKind::Resume,
    TraceKind::Fulfill,
    TraceKind::Poison,
    TraceKind::Park,
    TraceKind::Unpark,
];

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

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten since the last [`TraceRing::drain`].
    pub fn dropped(&self) -> u64 {
        self.dropped
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
        assert_eq!(r.len(), 5);
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 0);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0, "drain resets the drop counter");
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.push(ev(i, TraceKind::Exec, 0));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6, "6 of 10 events were overwritten");
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 6);
        assert_eq!(
            evs.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            [6, 7, 8, 9],
            "the newest events survive, in FIFO order"
        );
    }

    #[test]
    fn ring_wraparound_boundary_cases() {
        // Exactly full: nothing dropped.
        let mut r = TraceRing::new(3);
        for i in 0..3 {
            r.push(ev(i, TraceKind::Park, 0));
        }
        assert_eq!(r.dropped(), 0);
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
        let mut seen = std::collections::BTreeSet::new();
        for k in ALL_KINDS {
            assert!(seen.insert(k.name()), "duplicate name for {k:?}");
            assert!((k as usize) < KIND_COUNT);
        }
        assert_eq!(seen.len(), KIND_COUNT);
    }
}
