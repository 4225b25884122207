//! Request coalescing: turn a drained run of ingress requests into the
//! smallest equivalent sequence of apply **waves**.
//!
//! Two rewrites, both order-preserving on the per-shard request stream:
//!
//! 1. **Elision** — a request with no entries is dropped (it is a no-op
//!    on the key set, so it never costs a session).
//! 2. **Run merging** — consecutive requests of the same kind merge into
//!    one wave whose entries are one key-sorted run, deduplicated
//!    keep-first (matching `PlainTreap::from_entries`' duplicate
//!    no-ops). This is the 2-6 tree's "m keys in one wave" plan applied
//!    at the ingress boundary: one root walk for the whole run instead
//!    of one per request, and one sorted array, as §3.4's batch insert
//!    takes it. A pooled session builds the run into one complete treap
//!    in linear time; the inline pass reads it as it is.
//!
//! A wave is closed by: a kind change (insert → delete or back), the
//! per-wave key budget ([`CoalescePolicy::max_wave_keys`]), or a faulty
//! request — which is isolated into its *own* single-request wave so an
//! injected fault degrades exactly one request in every apply mode.
//!
//! Coalescing is a pure function (`Vec<Request> → Vec<Wave>`) so it can
//! be unit-tested without a runtime; the unit tests here were extracted
//! from the `set_server` example, which previously exercised dedup only
//! implicitly through its replay.

use crate::request::{Entry, Fault, OpKind, Request};

/// Tuning knobs for [`coalesce`].
#[derive(Clone, Copy, Debug)]
pub struct CoalescePolicy {
    /// Close a wave before it exceeds this many keys (a latency bound:
    /// one wave is one unit of commit).
    pub max_wave_keys: usize,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy {
            max_wave_keys: 8192,
        }
    }
}

/// One apply unit: a kind, one key-sorted run of distinct entries, and
/// the tags of the requests folded into it.
#[derive(Clone, Debug)]
pub struct Wave<K> {
    /// Insert or delete (a wave never mixes kinds).
    pub kind: OpKind,
    /// Always exactly one run: the wave's entries, sorted by key and
    /// deduplicated keep-first across every request of the wave.
    pub groups: Vec<Vec<Entry<K>>>,
    /// Injected misbehavior (isolated: a faulty wave holds exactly the
    /// faulty request).
    pub fault: Fault,
    /// Tags of every request coalesced into this wave.
    pub tags: Vec<u64>,
}

impl<K> Wave<K> {
    /// The wave's distinct keys.
    pub fn keys(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

/// Sort by key (stable) and drop duplicate keys keep-first — the same
/// duplicate semantics as `PlainTreap::from_entries`, where a duplicate
/// insert is a no-op.
fn sanitize<K: Ord>(mut entries: Vec<Entry<K>>) -> Vec<Entry<K>> {
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    entries
}

/// One wave: `entries` in request order, one run once sanitized.
fn wave<K: Ord>(kind: OpKind, entries: Vec<Entry<K>>, fault: Fault, tags: Vec<u64>) -> Wave<K> {
    Wave {
        kind,
        groups: vec![sanitize(entries)],
        fault,
        tags,
    }
}

/// Coalesce one shard's drained request run into apply waves (module
/// docs for the rewrite rules). Request order is preserved across wave
/// boundaries; within a wave, reordering is sound because same-kind set
/// operations commute and a duplicate key resolves keep-first, to the
/// entry of the earliest request that holds it.
pub fn coalesce<K: Ord>(requests: Vec<Request<K>>, policy: &CoalescePolicy) -> Vec<Wave<K>> {
    let mut waves: Vec<Wave<K>> = Vec::new();
    // The open wave: its kind, its entries in request order, its tags.
    let mut open: Option<(OpKind, Vec<Entry<K>>, Vec<u64>)> = None;
    let close = |open: &mut Option<_>, waves: &mut Vec<Wave<K>>| {
        if let Some((kind, entries, tags)) = open.take() {
            waves.push(wave(kind, entries, Fault::None, tags));
        }
    };
    for req in requests {
        if req.entries.is_empty() {
            continue; // rewrite 1: elision
        }
        if req.fault != Fault::None {
            // Isolate the faulty request into its own wave.
            close(&mut open, &mut waves);
            waves.push(wave(req.kind, req.entries, req.fault, vec![req.tag]));
            continue;
        }
        let mismatched = open.as_ref().is_some_and(|(kind, entries, _)| {
            *kind != req.kind || entries.len() + req.entries.len() > policy.max_wave_keys
        });
        if mismatched {
            close(&mut open, &mut waves);
        }
        let (_, entries, tags) = open.get_or_insert_with(|| (req.kind, Vec::new(), Vec::new()));
        entries.extend(req.entries); // rewrite 2: run merging
        tags.push(req.tag);
    }
    close(&mut open, &mut waves);
    waves
}
