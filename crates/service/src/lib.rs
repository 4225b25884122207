//! # pf-service — a sharded, coalescing ordered-set service core
//!
//! This crate turns the repo's engines into a *service*: the thing a
//! front end (or a benchmark driver) hands requests to and gets a
//! continuously updated, snapshot-readable key set back from, grown out
//! of an example replay (`examples/set_server.rs`) into a reusable
//! concurrent core.
//!
//! The request path is a four-stage pipeline:
//!
//! ```text
//!   ingress ──► coalesce ──► net effect per window ──► commit
//!   (queue      (dedup,       (D: keys deleted,         (under the root
//!    per         wave          I: entries inserted)      lock: edit the
//!    shard)      merging:     ├ inline: plain code on    root in place or
//!                one sorted   │  the caller, within one  swap a new one
//!                run a wave)  │  grain, planned off-lock in; free what it
//!                             └ pooled: try_run_session, replaced after)
//!                                union(diff(root, D), I),
//!                                one future hop
//! ```
//!
//! * **Ingress + coalescing** ([`coalesce()`]): requests land in a
//!   per-shard queue; a run of consecutive requests of one kind
//!   collapses into one *wave* whose entries are one key-sorted run, one
//!   entry a key, the one a union keeps (the 2-6 tree's
//!   m-keys-in-one-wave plan, realized here on treaps because the shard
//!   root must also support deletes), so a wave meets the shard root in
//!   one set operation however many requests it holds.
//! * **Key-range sharding** ([`ShardMap`]): S independent shards,
//!   each with its own persistent treap root, apply their waves in
//!   fault-contained sessions ([`pf_rt::Runtime::try_run_session`]) on
//!   one shared worker pool. Shard sessions genuinely co-execute (each
//!   gets its own session slot), so shard concurrency covers session
//!   execution itself as well as everything around it — batch treap
//!   construction, coalescing, commit bookkeeping — and a failed shard
//!   degrades alone, its abort confined to its own slot. A shard takes
//!   one applier at a time, from taking its ingress through its last
//!   commit, so `pump`s and a `drive` may run side by side and each shard
//!   still applies in ingress order; readers never take that lock.
//!   [`SetService::drive`] applies shard 0 on its calling thread once the
//!   feed is done, and the rest each on a thread of its own.
//! * **Snapshot reads** ([`SetService::contains`]): readers walk the
//!   shard's last *committed* root — a [`pf_algs::treap::Complete`]
//!   treap, with no future cell in it by its type, so the walk is a
//!   pointer chase down to a sorted block of at most 32 keys and a binary
//!   search in it — and cost O(lg n) with
//!   zero synchronization beyond one root clone. A reader never waits for
//!   a session or a plan: taking the clone waits at most for one commit
//!   walk or swap, and what it then holds never changes, since a commit
//!   edits in place only nodes that nothing but the shard holds.
//! * **One apply algebra** ([`ApplyMode`]): a pass applies its window's
//!   net effect, never its waves one by one. A pooled session runs
//!   `union(diff(root, D), I)`, the difference's pending root feeding the
//!   union — one future hop, not a chain of them; DESIGN.md §5a says why,
//!   and where the paper's pipelining is measured. Windows of one
//!   ([`ApplyMode::Barriered`]) are pf-perf's A/B baseline for
//!   `barriered_keys_per_s` and `pipelining_gain`.
//! * **The inline pass** ([`DrainReport::inline`]): a window that has no
//!   future in it needs no session. Before opening one, the service
//!   admits the window by sizes alone — every wave healthy, of at most
//!   `GRAIN` keys, and within one grain against an upper bound on the
//!   running root by the rule `union` and `diff` apply themselves
//!   ([`pf_algs::treap::within_grain`]) — and applies its net effect as
//!   plain code on the calling thread: its key-sorted deletes and inserts
//!   applied to the committed root in one walk, the batch never built as
//!   a treap. Every such window is planned off-lock
//!   ([`pf_algs::treap::plan_run`]) and committed in place where nothing
//!   but the shard holds what it edits ([`DrainReport::in_place`]); a
//!   reader's snapshot makes it copy what the reader holds. Anything else falls
//!   through to the pooled session. No option selects either: the
//!   decisions are functions of sizes, `Worker::GRAIN` and reference
//!   counts. The pooled session marshals its batches
//!   on its own worker, so a batch's nodes are allocated by the thread
//!   that goes on to walk them.
//!
//! Failure is a per-wave outcome, not a process event: a wave that
//! panics, wedges past the deadline, or stalls degrades — the shard keeps
//! its previous committed root (an `Arc` clone) and keeps serving. A
//! failed multi-wave window is replayed wave by wave,
//! so only the genuinely faulty wave is dropped and the final state is
//! identical to what barriered application would have produced (pinned
//! by the `equivalence` test). Degradation then self-heals in two
//! layers: each degraded wave is retried in fresh sessions with jittered
//! exponential backoff ([`RetryPolicy`]), and a shard whose windows keep
//! degrading trips a per-shard [`CircuitBreaker`] that sheds its load in
//! O(1) until a half-open probe window proves the shard recovered —
//! so a poisoned shard cannot monopolize the shared pool that healthy
//! shards' sessions run on (`tests/healing.rs` pins exactly this, as counts).
//!
//! ```
//! use pf_service::{Request, ServiceConfig, SetService, ShardMap};
//!
//! let svc = SetService::new(ShardMap::uniform(4, 0, 1_000_000), ServiceConfig::default());
//! svc.submit(Request::insert(vec![(17, 0xfeed), (93_417, 0xbeef)]));
//! let report = svc.pump(); // apply everything queued, on this thread
//! assert_eq!(report.degraded, 0);
//! assert!(svc.contains(&17) && !svc.contains(&18));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod coalesce;
mod request;
mod service;
mod shard;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use coalesce::{coalesce, CoalescePolicy, Wave};
pub use request::{Entry, Fault, OpKind, Request};
pub use service::{ApplyMode, DrainReport, ServiceConfig, SetService, WaveOutcome};
pub use shard::ShardMap;
