//! # pf-algs — the §3 algorithms, written once, generic over an engine
//!
//! Every pipelined algorithm of *Pipelining with Futures* lives here
//! exactly once, in continuation-passing style, generic over a
//! [`PipeBackend`] engine:
//!
//! * [`merge`] — BST merge + split (§3.1, Figure 3, Theorem 3.1);
//! * [`rebalance`] — the three-phase §3.1 rebalance and the
//!   merge-then-rebalance composite;
//! * [`treap`] — treap union / difference / join
//!   (§3.2–3.3, Figures 4 and 7);
//! * [`two_six`] — the 2-6 tree multi-insert (§3.4, Theorem 3.13);
//! * [`list`] — the Figure 1 producer/consumer pipeline and Halstead's
//!   Figure 2 quicksort;
//! * [`mergesort`] — the §5 conjectured pipelined tree mergesort;
//! * [`plain`] — the sequential treap oracle (pure code, no engine);
//! * [`start`] — the starters: per algorithm, build its operands on an
//!   engine, call it once, return the result future.
//!
//! The **hand-pipelined baselines** live here too, outside the engine
//! surface: [`cole`] (cascading mergesort) and [`pvw`] (the synchronous
//! 2-3-tree wave pipeline) advance in explicit synchronous rounds, which
//! they run as plain serial code on one thread — E16/E18 count their
//! rounds and wall-clock them against the futures versions.
//!
//! The same text compiles against the virtual-time simulator
//! (`pf_core::Ctx`, exact work/depth accounting), the real work-stealing
//! runtime (`pf_rt::Worker`), and the sequential oracle
//! ([`Seq`]). Monomorphization specializes each call site:
//! on the runtime the cost hooks vanish and a touch lowers to the
//! single-allocation in-cell suspension; on the simulator the continuations
//! run inline and the CPS text charges exactly the costs of its
//! direct-style ancestor (the simulator crate asserts this equivalence in
//! its own backend tests).
//!
//! ## Cost-charge discipline
//!
//! The simulator's cost assertions (exact work counts, depth separations,
//! linearity) run against *this* text, so the placement of every
//! [`tick`](PipeBackend::tick) / [`flat`](PipeBackend::flat) /
//! [`touch`](PipeBackend::touch) / [`fulfill`](PipeBackend::fulfill) is
//! part of the algorithm's meaning — do not reorder them casually.

//!
//! ## One text, both sides of every comparison
//!
//! Every pipelined algorithm takes a [`Mode`]: [`Mode::Strict`] is the same
//! code with each call's results withheld until the call has finished —
//! the paper's non-pipelined comparison point. On the simulator (a
//! dev-dependency here; the workspace `tests/` crate checks this text on
//! all three engines) the union of two 1024-key treaps does the same work
//! either way, at less than half the depth when pipelined, reading every
//! cell at most once:
//!
//! ```
//! use pf_algs::{plain::splitmix64, start::union_on, Mode};
//!
//! // Two interleaving key sets, priorities hashed from the keys.
//! let entries = |odd: i64| -> Vec<(i64, u64)> {
//!     let keys = (0..1024).map(|i| 2 * i + odd);
//!     keys.map(|k| (k, splitmix64(k as u64))).collect()
//! };
//! let (a, b) = (entries(0), entries(1));
//! // The starter builds both treaps as free inputs and calls `treap::union`.
//! let run = |mode| pf_core::Sim::new().run(|ctx| union_on(ctx, &a, &b, mode));
//! let (root, pipelined) = run(Mode::Pipelined);
//! let (_, strict) = run(Mode::Strict);
//!
//! assert!(root.get().check_invariants());
//! assert_eq!(pipelined.work, strict.work);       // same computation
//! assert!(2 * pipelined.depth < strict.depth);   // implicit pipelining
//! assert!(pipelined.is_linear());                // §4-ready
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cole;
pub mod list;
pub mod merge;
pub mod mergesort;
pub mod plain;
pub mod pvw;
pub mod rebalance;
pub mod start;
pub mod treap;
pub mod tree;
pub mod two_six;

// The algorithm suite — each algorithm against its oracle on `Seq`, the
// simulator and pf-rt, and the simulator's cost assertions — is the
// workspace `tests/` crate (`pf_tests`, whose lib documents it). The unit
// tests here are those of private items and of the data types' own
// constructors and accessors.

pub use pf_backend::{Key, Mode, PipeBackend, Seq, SeqFut, Val};

/// Fork `body` under `mode`: pipelined is a plain fork; strict wraps the
/// fork in [`PipeBackend::strict`], so (on the simulator) none of the
/// call's writes become visible before the whole call completes — the
/// paper's non-pipelined comparison point, one `match` for every `?f(...)`
/// call site.
pub fn fork_call<B: PipeBackend>(bk: &B, mode: Mode, body: impl FnOnce(&B) + Send + 'static) {
    match mode {
        Mode::Pipelined => bk.fork(body),
        Mode::Strict => bk.strict(move |bk| bk.fork(body)),
    }
}
