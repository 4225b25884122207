//! # pf-core — the language-based cost model of *Pipelining with Futures*
//!
//! This crate implements the computational model of Blelloch & Reid-Miller,
//! *Pipelining with Futures* (SPAA '97 / Theory of Computing Systems 32,
//! 1999): a purely functional language extended with **futures**, whose cost
//! semantics is a dynamically unfolding DAG of unit-time actions connected by
//! *thread*, *fork*, and *data* edges. The cost of a computation is its
//! **work** (number of DAG nodes) and **depth** (longest path).
//!
//! ## How the model is realised
//!
//! The PSL-style DAG of a deterministic program does not depend on the
//! schedule, so we can evaluate a program *eagerly* (depth-first, on one OS
//! thread) while tracking, for every value, the **virtual time** at which its
//! write action occurs. The rules are exactly the paper's:
//!
//! * every unit action advances the current thread's clock by one and adds
//!   one to the global work counter ([`Ctx::tick`]);
//! * a **fork** ([`Ctx::fork`], [`Ctx::fork_unit`]) starts a child thread at
//!   `parent_clock + fork_cost` (the fork edge) and lets the parent continue
//!   immediately;
//! * **touching** a future ([`Ctx::touch`]) sets the clock to
//!   `max(clock, write_time) + touch_cost` (the data edge);
//! * a **write** ([`Promise::fulfill`]) stamps the cell with the writing
//!   thread's clock;
//! * the flat array primitives of §3.4 ([`Ctx::flat`]) contribute `O(1)`
//!   depth and `O(n)` work, mirroring the paper's `array_split` DAG of
//!   depth 2 and breadth *n*.
//!
//! The observed depth is the maximum clock value reached by any action, and
//! the per-value timestamps are exactly the `t(v)` used in the paper's
//! τ-value / ρ-value / γ-value analyses — so those lemmas can be checked
//! empirically on concrete runs.
//!
//! ## Eager evaluation order
//!
//! Evaluating fork bodies at their creation point is safe for every program
//! in the paper because a future only touches cells created *before* it.
//! Programs outside this class (a future touching a cell that is written
//! later in program order) panic with a "touched before write" error rather
//! than silently producing wrong costs.
//!
//! ## Strict (non-pipelined) calls
//!
//! [`Ctx::call_strict`] runs a body and then re-stamps every cell the body
//! (or any thread it forked) wrote to the completion time of the whole
//! sub-computation. This is precisely the non-pipelined variant the paper
//! compares against — e.g. a `merge` whose `split` must complete before the
//! recursive calls observe any of its output — and lets a single
//! implementation of each algorithm produce both pipelined and
//! non-pipelined cost measurements.
//!
//! ## Linearity
//!
//! §4 of the paper restricts programs to *linear* code — every future cell
//! read at most once — to obtain an EREW implementation with a single
//! suspended closure per cell. The simulator counts reads per cell;
//! [`CostReport::max_reads_per_cell`] and [`CostReport::is_linear`] verify
//! the restriction for the algorithm implementations.
//!
//! ## Quick example
//!
//! The producer/consumer pipeline of the paper's Figure 1:
//!
//! ```
//! use pf_core::{Ctx, Fut, Sim};
//!
//! // The paper's future-tailed list `n :: ?rest`.
//! #[derive(Clone)]
//! enum List { Nil, Cons(u64, Fut<List>) }
//!
//! fn produce(ctx: &Ctx, n: u64) -> List {
//!     ctx.tick(1);
//!     if n == 0 {
//!         List::Nil
//!     } else {
//!         List::Cons(n, ctx.fork(move |ctx| produce(ctx, n - 1)))
//!     }
//! }
//!
//! fn consume(ctx: &Ctx, l: &List, acc: u64) -> u64 {
//!     ctx.tick(1);
//!     match l {
//!         List::Nil => acc,
//!         List::Cons(h, t) => consume(ctx, &ctx.touch(t), acc + h),
//!     }
//! }
//!
//! let sim = Sim::new();
//! let (sum, report) = sim.run(|ctx| {
//!     let l = produce(ctx, 100);
//!     consume(ctx, &l, 0)
//! });
//! assert_eq!(sum, 100 * 101 / 2);
//! // pipelining: the consumer trails the producer by O(1), so the depth is
//! // proportional to n rather than 2n.
//! assert!(report.depth < 3 * 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cost;
mod ctx;
mod fut;
mod trace;

pub use cost::{CostModel, CostReport};
pub use ctx::{run_with_big_stack, Ctx, Sim, DEFAULT_SIM_STACK};
pub use fut::{Fut, Promise};
pub use trace::{CellId, Ev, ThreadId, ThreadLog, Trace};

// The engine-agnostic surface `Ctx` implements (see `backend`): re-exported
// so simulator-side code can name the trait without a separate dependency.
pub use pf_backend::{Mode, PipeBackend};
