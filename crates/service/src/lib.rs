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
//!   ingress ──► coalesce ──► net effect per window, ──► commit
//!   (queue      (dedup,       planned off-lock          (under the root
//!    per         wave          (D: keys deleted,         lock: edit the
//!    shard)      merging:      I: entries inserted,      root in place or
//!                one sorted    one walk of the root)     swap a copy in;
//!                run a wave)  ├ inline: on the caller,   free what it
//!                             │  within one grain        replaced after)
//!                             └ pooled: try_run_session,
//!                                forked over the grain
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
//!   execution itself as well as everything around it — planning,
//!   coalescing, commit bookkeeping — and a failed shard
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
//!   net effect, never its waves one by one — its key-sorted deletes and
//!   inserts applied to the committed root in one walk of pf-algs' run
//!   kernel, the batch never built as a treap. Every pass, inline or
//!   pooled, is planned off-lock ([`pf_algs::treap::plan_run`]) and
//!   committed in place where nothing but the shard holds what it edits
//!   ([`DrainReport::in_place`]); a reader's snapshot makes it copy what
//!   the reader holds. Both operands of a pass are complete before it
//!   starts, so nothing in it pipelines: the service is fork-join over
//!   complete treaps, and pf-algs' pipelined `union`/`diff` stay where the
//!   paper measured them (DESIGN.md §5a). Windows of one
//!   ([`ApplyMode::Barriered`]) are pf-perf's A/B baseline for
//!   `barriered_keys_per_s` and `pipelining_gain`.
//! * **The inline pass** ([`DrainReport::inline`]): a window whose plan
//!   fits one grain needs no session. Before opening one, the service
//!   admits the window by sizes alone — every wave healthy, of at most
//!   `GRAIN` keys, and within one grain against an upper bound on the
//!   running root ([`pf_algs::treap::within_grain`]) — and plans it as
//!   plain code on the calling thread. Anything else goes to a pooled
//!   session, which injects the window's faults and plans it on its
//!   worker, forked wherever a node's job is over the grain
//!   ([`pf_algs::treap::plan_run_on`]); the commit is the inline pass's.
//!   No option selects either: the decisions are functions of sizes,
//!   `Worker::GRAIN` and reference counts.
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
