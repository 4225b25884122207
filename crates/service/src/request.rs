//! The service's wire-level request type.
//!
//! A request is a batch of keyed updates of one kind (insert or delete),
//! optionally tagged with a caller-chosen id so per-request outcomes can
//! be traced through coalescing (a wave remembers the tags of every
//! request folded into it). Reads are *not* requests: they are answered
//! immediately from the shard's committed snapshot
//! ([`crate::SetService::contains`]) and never enter the ingress queue.

pub use pf_algs::plain::Entry;

/// Injected misbehavior carried by a request — **test and chaos-replay
/// instrumentation**, not a production surface. The coalescer isolates a
/// faulty request into its own wave so the blast radius of the injected
/// fault is exactly that request, in both apply modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Healthy request.
    None,
    /// The wave's session panics mid-flight (a poison-pill payload).
    Panic,
    /// The wave's session wedges until cancelled: trips the deadline.
    Wedge,
}

/// What a request does to the key set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Insert the request's entries (a set union).
    Insert,
    /// Delete the request's keys (a set difference; priorities ignored).
    Delete,
}

/// One batch of updates against the service.
#[derive(Clone, Debug)]
pub struct Request<K> {
    /// Insert or delete.
    pub kind: OpKind,
    /// The `(key, priority)` entries. May be unsorted and may contain
    /// duplicate keys — the coalescer sorts them and keeps, per key, the
    /// highest-priority entry, as a union would.
    pub entries: Vec<Entry<K>>,
    /// Injected misbehavior (test instrumentation); [`Fault::None`] in
    /// production traffic.
    pub fault: Fault,
    /// Caller-chosen id threaded through to [`crate::WaveOutcome::tags`].
    pub tag: u64,
}

impl<K> Request<K> {
    /// An insert batch.
    pub fn insert(entries: Vec<Entry<K>>) -> Self {
        Request {
            kind: OpKind::Insert,
            entries,
            fault: Fault::None,
            tag: 0,
        }
    }

    /// A delete batch (priorities in `entries` are ignored).
    pub fn delete(entries: Vec<Entry<K>>) -> Self {
        Request {
            kind: OpKind::Delete,
            entries,
            fault: Fault::None,
            tag: 0,
        }
    }

    /// Attach a caller id for outcome tracing.
    pub fn tagged(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Arm injected misbehavior on this request (test instrumentation).
    pub fn faulty(mut self, fault: Fault) -> Self {
        self.fault = fault;
        self
    }
}
