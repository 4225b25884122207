//! Request coalescing: turn a drained run of ingress requests into the
//! smallest equivalent sequence of apply **waves**.
//!
//! Three rewrites, all order-preserving on the per-shard request stream:
//!
//! 1. **Elision** — a request with no entries is dropped (it is a no-op
//!    on the key set, so it never costs a session).
//! 2. **Insert-run merging** — consecutive *small* requests of the same
//!    kind merge into one multi-key wave group, sorted and deduplicated
//!    (keep-first, matching `PlainTreap::from_entries`' duplicate
//!    no-ops). This is the 2-6 tree's "m keys in one wave" plan applied
//!    at the ingress boundary: one root walk for the whole run instead
//!    of one per request.
//! 3. **Union-tree collapsing** — consecutive *large* batches of the
//!    same kind against the same root stay separate groups of one wave;
//!    the apply step combines them with a balanced
//!    [`pf_algs::treap::union_many`] tree (⌈lg k⌉ pairwise unions,
//!    each pipelining into the next) and touches the shard root once.
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
    /// Requests with fewer entries than this merge into the wave's
    /// shared group (rewrite 2); larger ones become their own union-tree
    /// group (rewrite 3), since re-sorting a big batch into the shared
    /// group costs more than a pairwise union resolves.
    pub merge_below: usize,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy {
            max_wave_keys: 8192,
            merge_below: 64,
        }
    }
}

/// One apply unit: a kind, one or more entry groups (each sorted,
/// deduplicated), and the tags of the requests folded into it.
#[derive(Clone, Debug)]
pub struct Wave<K> {
    /// Insert or delete (a wave never mixes kinds).
    pub kind: OpKind,
    /// Entry groups. Group 0 holds the merged small-request run (if
    /// any); each large batch keeps its own group. The apply step
    /// union-trees the groups into one treap before touching the root.
    pub groups: Vec<Vec<Entry<K>>>,
    /// Injected misbehavior (isolated: a faulty wave holds exactly the
    /// faulty request).
    pub fault: Fault,
    /// Tags of every request coalesced into this wave.
    pub tags: Vec<u64>,
}

impl<K> Wave<K> {
    /// Total keys across the wave's groups.
    pub fn keys(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

/// Sort by key (stable) and drop duplicate keys keep-first — the same
/// duplicate semantics as `PlainTreap::from_entries`, where a duplicate
/// insert is a no-op.
fn sanitize<K: Ord + Clone>(mut entries: Vec<Entry<K>>) -> Vec<Entry<K>> {
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    entries
}

struct Builder<K> {
    kind: OpKind,
    merged: Vec<Entry<K>>,
    groups: Vec<Vec<Entry<K>>>,
    tags: Vec<u64>,
    keys: usize,
}

impl<K: Ord + Clone> Builder<K> {
    fn new(kind: OpKind) -> Self {
        Builder {
            kind,
            merged: Vec::new(),
            groups: Vec::new(),
            tags: Vec::new(),
            keys: 0,
        }
    }

    fn finish(self) -> Option<Wave<K>> {
        let mut groups = Vec::with_capacity(self.groups.len() + 1);
        if !self.merged.is_empty() {
            groups.push(sanitize(self.merged));
        }
        groups.extend(self.groups);
        if groups.is_empty() {
            return None;
        }
        Some(Wave {
            kind: self.kind,
            groups,
            fault: Fault::None,
            tags: self.tags,
        })
    }
}

/// Coalesce one shard's drained request run into apply waves (module
/// docs for the rewrite rules). Request order is preserved across wave
/// boundaries; within a wave, reordering is sound because same-kind set
/// operations commute and duplicate keys resolve identically (keep-first
/// within the merged group, max-priority across union-tree groups —
/// associativity-independent either way).
pub fn coalesce<K: Ord + Clone>(
    requests: Vec<Request<K>>,
    policy: &CoalescePolicy,
) -> Vec<Wave<K>> {
    let mut waves: Vec<Wave<K>> = Vec::new();
    let mut open: Option<Builder<K>> = None;
    let close = |open: &mut Option<Builder<K>>, waves: &mut Vec<Wave<K>>| {
        if let Some(b) = open.take() {
            waves.extend(b.finish());
        }
    };
    for req in requests {
        if req.entries.is_empty() {
            continue; // rewrite 1: elision
        }
        if req.fault != Fault::None {
            // Isolate the faulty request into its own wave.
            close(&mut open, &mut waves);
            waves.push(Wave {
                kind: req.kind,
                groups: vec![sanitize(req.entries)],
                fault: req.fault,
                tags: vec![req.tag],
            });
            continue;
        }
        let mismatched = open.as_ref().is_some_and(|b| {
            b.kind != req.kind || b.keys + req.entries.len() > policy.max_wave_keys
        });
        if mismatched {
            close(&mut open, &mut waves);
        }
        let b = open.get_or_insert_with(|| Builder::new(req.kind));
        b.keys += req.entries.len();
        b.tags.push(req.tag);
        if req.entries.len() < policy.merge_below {
            b.merged.extend(req.entries); // rewrite 2: run merging
        } else {
            b.groups.push(sanitize(req.entries)); // rewrite 3: union tree
        }
    }
    close(&mut open, &mut waves);
    waves
}
