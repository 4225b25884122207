//! # pf-backend — one algorithm, three engines
//!
//! The paper's algorithms are written against five primitives: **fork** a
//! thread, **create** a future cell, **touch** a cell (the data edge),
//! **fulfill** a cell (the write), and local computation (the unit actions
//! the cost model charges). Everything else — virtual clocks, work-stealing
//! deques, suspended continuations — is the business of a particular
//! *engine*, not of the algorithm text. This crate captures exactly that
//! surface as the [`PipeBackend`] trait, so that each §3 algorithm is
//! written **once** (in `pf-algs`, continuation-passing style) and compiled
//! against three engines:
//!
//! * the **virtual-time simulator** (`pf_core::Ctx`): touch runs the
//!   continuation inline and stamps the data edge on the toucher's clock —
//!   exact work/depth accounting;
//! * the **real runtime** (`pf_rt::Worker`): touch of an unwritten cell
//!   suspends the continuation *inside the cell* and the write reactivates
//!   it — actual multicore execution;
//! * the **sequential oracle** ([`Seq`], this crate): every primitive is the
//!   cheapest thing that preserves the semantics — fork runs the body
//!   inline, touch reads and continues, the cost hooks vanish. It is the
//!   correctness/work baseline the other two are measured against.
//!
//! ## Why the continuation-passing shape
//!
//! A real runtime cannot "return" from a touch of an unwritten cell — the
//! paper's §4 design writes the rest of the computation into the cell and
//! moves on. So the portable surface takes the rest of the computation as an
//! explicit continuation: [`PipeBackend::touch`] accepts
//! `FnOnce(&Self, T)`. On the simulator (and the oracle) the cell is always
//! written by the time it is touched — eager evaluation runs futures at
//! their creation point — so the continuation simply runs inline and the
//! CPS program charges exactly the costs of its direct-style ancestor.
//!
//! ## Bounds
//!
//! Cell payloads are [`Val`] (cloneable, sendable, `'static`): the model's
//! values are immutable, so an aliasing clone is observationally a deep
//! copy, and the real engine moves them across OS threads. What every
//! engine's cells guarantee in return is stated once, as item bounds on
//! the GATs: for a `Send + Sync` payload, [`PipeBackend::Fut`] is
//! `Clone + Send + Sync` and [`PipeBackend::Wr`] is `Send`. A generic
//! algorithm needs no `where` clause about the cells it creates, touches,
//! writes or moves into a forked closure.
//!
//! The item bounds are auto traits and nothing else, and that is why they
//! hold on recursive types such as `Tree<B, K>`, whose nodes hold
//! `B::Fut<Tree<B, K>>` children: the solver proves an auto trait
//! coinductively, so the cycle through the child's own type closes. A GAT
//! bounded by [`Val`] instead overflows the solver (`E0275`) wherever an
//! algorithm is instantiated on an engine: `Clone` is not an auto trait,
//! and proving it for the payload needs the bound being proved.
//!
//! A field `B::Fut<Self>` is well formed only if `Self` is `Send + Sync`,
//! so a data type that holds one bounds its key by [`Val`], not by
//! `'static`. The smallest such type, with a producer and a consumer that
//! carry no `where` clause, run on [`Seq`]:
//!
//! ```
//! use pf_backend::{PipeBackend, Seq};
//!
//! /// A stream whose tail is a future cell: Figure 1's list, without keys.
//! enum Stream<B: PipeBackend> {
//!     End,
//!     More(u64, B::Fut<Stream<B>>),
//! }
//!
//! impl<B: PipeBackend> Clone for Stream<B> {
//!     fn clone(&self) -> Self {
//!         match self {
//!             Stream::End => Stream::End,
//!             Stream::More(x, tail) => Stream::More(*x, tail.clone()),
//!         }
//!     }
//! }
//!
//! /// Write `n, n-1, …, 1` into `out`, one cell per tail.
//! fn count_down<B: PipeBackend>(bk: &B, n: u64, out: B::Wr<Stream<B>>) {
//!     if n == 0 {
//!         return bk.fulfill(out, Stream::End);
//!     }
//!     let (w, tail) = bk.cell();
//!     bk.fulfill(out, Stream::More(n, tail));
//!     bk.fork(move |bk| count_down(bk, n - 1, w));
//! }
//!
//! /// Chase the stream tail by tail and write its sum into `out`.
//! fn sum<B: PipeBackend>(bk: &B, s: &B::Fut<Stream<B>>, acc: u64, out: B::Wr<u64>) {
//!     bk.touch(s, move |bk, s| match s {
//!         Stream::End => bk.fulfill(out, acc),
//!         Stream::More(x, tail) => sum(bk, &tail, acc + x, out),
//!     });
//! }
//!
//! let total = Seq::run(|bk| {
//!     let (w, stream) = bk.cell();
//!     count_down(bk, 4, w);
//!     let (w, total) = bk.cell();
//!     sum(bk, &stream, 0, w);
//!     Seq::peek(&total)
//! });
//! assert_eq!(total, Some(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod seq;

pub use seq::{Seq, SeqFut};

/// A value that can live in a future cell: cloneable (touch hands out a
/// clone), sendable (the real engine crosses OS threads), `'static`.
pub trait Val: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Val for T {}

/// An ordered key, as stored in the §3 tree structures.
pub trait Key: Clone + Ord + Send + Sync + 'static {}
impl<T: Clone + Ord + Send + Sync + 'static> Key for T {}

/// Pipelined (futures do their thing) vs strict (every call's results only
/// become visible when the whole call has finished) execution of one and
/// the same algorithm text.
///
/// Strictness is a *cost-model* notion: on the simulator it re-stamps every
/// cell written inside the call to the call's completion time, producing the
/// paper's non-pipelined comparison point. The real runtime and the
/// sequential oracle have no clocks to re-stamp, so there the two modes
/// coincide (see [`PipeBackend::strict`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Futures pipeline: consumers run as soon as their data edge allows.
    Pipelined,
    /// Non-pipelined baseline: calls behave like ordinary strict calls.
    Strict,
}

/// An execution engine for futures programs: the paper's five primitives.
///
/// Implementations: `pf_core::Ctx` (virtual-time cost model),
/// `pf_rt::Worker` (work-stealing multicore runtime), [`Seq`] (sequential
/// oracle). Algorithms generic over `B: PipeBackend` are written in
/// continuation-passing style — each touch takes the rest of the function
/// as a closure — and monomorphize to exactly the hand-written code on each
/// engine: on `Worker` the cost hooks ([`tick`](PipeBackend::tick),
/// [`flat`](PipeBackend::flat)) compile to nothing and
/// [`touch`](PipeBackend::touch) lowers to the single-allocation in-cell
/// suspension.
pub trait PipeBackend: Sized + 'static {
    /// The read pointer of a future cell holding a `T`.
    type Fut<T: Send + Sync + 'static>: Clone + Send + Sync + 'static;
    /// The write pointer; consumed by [`fulfill`](PipeBackend::fulfill), so
    /// each cell is written at most once by construction.
    type Wr<T: Send + Sync + 'static>: Send + 'static;

    /// The engine's grain, in the cost model's unit actions: an algorithm
    /// that can see that its operands are complete (every cell below them
    /// written) and that its sequential work estimate is within the grain
    /// may run plain direct-style code and publish one finished result
    /// instead of forking — what every practical binary-forking runtime
    /// does below some size. `0` means **never cut**: the engine wants the
    /// paper's exact DAG, fork for fork (`pf_core::Ctx`, whose work and
    /// depth counts are the point). A constant, not a knob: the choice is
    /// a function of it and of what the operands show, nothing else.
    ///
    /// The default, shared by [`Seq`] and `pf_rt::Worker`, is about 4 000
    /// node visits — some 150 µs of plain treap code on the authoring
    /// host — chosen from two pf-perf measurements (DESIGN.md,
    /// "Granularity"): small enough that `algs-t2`'s 2^16-key union still
    /// cuts into a few dozen stealable pieces, large enough that a
    /// `svc-bulk` wave of a few hundred keys runs without a fork.
    const GRAIN: u64 = 4096;

    /// Create an empty future cell. Creation is charged to the enclosing
    /// fork (constant per §4), so the call itself is free on every engine.
    fn cell<T: Val>(&self) -> (Self::Wr<T>, Self::Fut<T>);

    /// Create a cell that is already written with `value`, **charging the
    /// normal write cost**. Used when an algorithm produces a value *now*
    /// but must hand it to a consumer expecting a future (e.g. the ready
    /// halves of a freshly split 2-6 tree node). For free-of-charge input
    /// construction use [`input`](PipeBackend::input) instead.
    fn ready<T: Val>(&self, value: T) -> Self::Fut<T> {
        let (w, f) = self.cell();
        self.fulfill(w, value);
        f
    }

    /// Create a pre-written cell **free of charge** — input construction.
    /// Building the inputs an algorithm is measured *on* is the client's
    /// marshalling, not part of the measured computation, so the simulator
    /// overrides this with its zero-cost preload; engines without clocks
    /// just use [`ready`](PipeBackend::ready) (free there anyway).
    fn input<T: Val>(&self, value: T) -> Self::Fut<T> {
        self.ready(value)
    }

    /// Write `value` into the cell — the paper's write action. If a
    /// continuation is suspended in the cell (real engine), reactivate it.
    fn fulfill<T: Val>(&self, w: Self::Wr<T>, value: T);

    /// Touch the cell — the data edge — and run `k` with the value.
    ///
    /// On the simulator and the oracle the cell is already written (eager
    /// evaluation) and `k` runs inline, after the simulator advances the
    /// toucher's clock to `max(clock, write_time) + touch_cost`. On the
    /// real engine an unwritten cell stores `k` (pre-bound to the cell, one
    /// allocation) and the writer reactivates it; a written cell runs `k`
    /// inline or as a task, per the scheduler's discretion.
    fn touch<T: Val>(&self, f: &Self::Fut<T>, k: impl FnOnce(&Self, T) + Send + 'static);

    /// Fork a thread running `body` — the fork edge. The caller is charged
    /// the fork cost and continues immediately.
    fn fork(&self, body: impl FnOnce(&Self) + Send + 'static);

    /// Fork two threads. Defaults to two [`fork`](PipeBackend::fork)
    /// actions (which is exactly what the cost model charges); the real
    /// engine overrides it with a batched double-spawn.
    fn fork2(
        &self,
        f: impl FnOnce(&Self) + Send + 'static,
        g: impl FnOnce(&Self) + Send + 'static,
    ) {
        self.fork(f);
        self.fork(g);
    }

    /// Execute `n` plain unit actions (pattern matches, comparisons, node
    /// allocation). A cost hook: the simulator advances clock and work; on
    /// the other engines it compiles to nothing.
    fn tick(&self, _n: u64) {}

    /// The §3.4 flat array primitive of breadth `n`: work `n + 1`, depth 2.
    /// A cost hook like [`tick`](PipeBackend::tick).
    fn flat(&self, _n: u64) {}

    /// Run `body` as a strict (non-pipelined) call. The simulator re-stamps
    /// every cell written inside to the completion time of the whole
    /// sub-computation; the real engine and the oracle have no clocks, so
    /// `body` simply runs inline and the two [`Mode`]s coincide there.
    fn strict(&self, body: impl FnOnce(&Self)) {
        body(self)
    }

    /// Read a cell without a continuation, if written: free-of-charge
    /// inspection of finished structures *after* a run. Not a touch — no
    /// cost, no data edge, no linearity accounting.
    fn peek<T: Val>(f: &Self::Fut<T>) -> Option<T>;
}
