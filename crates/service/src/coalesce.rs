//! Request coalescing: turn a drained run of ingress requests into the
//! smallest equivalent sequence of apply **waves**.
//!
//! Two rewrites, both order-preserving on the per-shard request stream:
//!
//! 1. **Elision** — a request with no entries is dropped (it is a no-op
//!    on the key set, so it never costs a session).
//! 2. **Run merging** — consecutive requests of the same kind merge into
//!    one wave whose entries are one key-sorted run, a repeated key
//!    resolved to its highest-priority entry, the one a union of the
//!    requests keeps ([`wins`](pf_algs::plain::wins)). This is the 2-6
//!    tree's "m keys in one wave" plan applied at the ingress boundary:
//!    one root walk for the whole run instead of one per request, and one
//!    sorted array, as §3.4's batch insert takes it. Either apply pass
//!    folds its window's runs into their net effect.
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
    /// Always exactly one run: the wave's entries, sorted by key, one
    /// per key — the highest-priority entry any request of the wave
    /// holds for it.
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

/// One wave: `run`, its requests' entries, sorted by key (stable), and
/// one entry kept per key — the highest-priority one, the entry a union
/// keeps ([`wins`](pf_algs::plain::wins)), so the wave applies exactly
/// what its requests' unions, one by one, would.
fn wave<K: Ord>(kind: OpKind, mut run: Vec<Entry<K>>, fault: Fault, tags: Vec<u64>) -> Wave<K> {
    run.sort_by(|a, b| a.0.cmp(&b.0));
    run.dedup_by(|later, kept| {
        if later.0 == kept.0 && later.1 > kept.1 {
            std::mem::swap(later, kept);
        }
        later.0 == kept.0
    });
    Wave {
        kind,
        groups: vec![run],
        fault,
        tags,
    }
}

/// Coalesce one shard's drained request run into apply waves (module
/// docs for the rewrite rules). Request order is preserved across wave
/// boundaries; within a wave, reordering is sound because same-kind set
/// operations commute, and a duplicate key resolves as a union resolves
/// it, to its highest-priority entry.
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
