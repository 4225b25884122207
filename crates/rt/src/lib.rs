//! # pf-rt — a real multicore runtime for fine-grained futures
//!
//! This crate implements the §4 runtime design of *Pipelining with
//! Futures* on actual OS threads:
//!
//! * **future cells** ([`cell()`], [`FutWrite`], [`FutRead`]): write-once
//!   single-assignment cells. A touch of an unwritten cell stores the
//!   toucher's *continuation inside the cell* (the paper's "write a
//!   pointer to the thread's closure into the future cell and suspend");
//!   the write reactivates it by spawning the continuation as a task.
//!   Linearity (§4) means at most one waiter per cell, so the cell is a
//!   single small state machine: `EMPTY → {WAITING → } FULL`, each
//!   transition one CAS on the cell's state word (implemented per *Rust
//!   Atomics and Locks*);
//! * a **work-stealing scheduler** ([`Worker`]) on a **persistent
//!   worker pool** ([`Runtime`]): per-worker LIFO deques (the stack
//!   discipline the paper recommends for space) with stealing and a
//!   global injector, plus quiescence detection via a live-closure
//!   counter — the run ends when every spawned or suspended continuation
//!   has executed. There is one scheduler and nothing to select: forks
//!   are work-first — [`Worker::spawn`] runs the child inline and
//!   [`Worker::spawn2`] pushes one stealable child and runs the other, so
//!   a touch usually finds its cell written — steals take the oldest
//!   task of a randomly swept victim, and a write resumes its waiter onto
//!   the writer's own deque. Workers are spawned once per [`Runtime`] and
//!   parked between runs (spin → yield → park), so a `run` call costs
//!   one injector push and a wakeup, not a round of thread creation.
//!   Small spawned closures (up to four words) are stored inline in the
//!   queued task and never touch the allocator.
//!
//! Algorithms are written in continuation-passing style: each paper-level
//! *touch* becomes one [`FutRead::touch`] with the rest of the function as
//! the continuation. Rust's `async` machinery is deliberately not used —
//! poll-based futures with per-task heap state are a poor match for
//! millions of single-assignment cells (see DESIGN.md).
//!
//! **Failure is a first-class outcome** ([`SessionError`]): a session that
//! panics, is cancelled via a [`CancelToken`], exceeds its [`Session`]
//! deadline, or stalls (cyclic touch) comes back from
//! [`Runtime::try_run`] as a [`SessionError`] value. The abort drains
//! every queued task, drops every suspended continuation (nothing
//! leaks), and poisons the cells that held them so straggler touches
//! fail fast with the originating context — the pool is immediately
//! reusable. A `--cfg pf_chaos` build arms deterministic fault injection
//! ([`mod@chaos`]) to stress exactly these paths.
//!
//! **Every session counts its scheduler events** ([`TraceKind`]), for
//! [`RunStats`] and the stall heartbeat; one opened with
//! [`Session::trace`] also records when each happened, and its
//! [`SessionTrace`] goes back to the thread that ran it
//! ([`take_last_trace`]).
//!
//! ```
//! use pf_rt::{cell, Runtime};
//!
//! let (w, r) = cell::<u64>();
//! let rt = Runtime::new(4);
//! rt.run(move |wk| {
//!     // producer
//!     wk.spawn(move |wk| {
//!         w.fulfill(wk, 41);
//!     });
//!     // consumer: suspends if the producer has not written yet
//!     r.touch(wk, |v, _wk| assert_eq!(v, 41));
//! });
//! ```

#![warn(missing_docs)]

mod backend;
mod cell;
pub mod chaos;
pub mod deque;
mod error;
mod pool;
mod scheduler;
mod sync;
mod task;
mod trace;

pub use cell::{cell, ready, FutRead, FutWrite};

pub use error::{CancelToken, PoisonInfo, Session, SessionError, StallReport, StuckCell};
pub use scheduler::{RunStats, Runtime, Worker};
pub use trace::{take_last_trace, SessionTrace, TraceEvent, TraceKind, WorkerTrace};

// The engine-agnostic surface `Worker` implements (see `backend`):
// re-exported so runtime-side code can name the trait without a separate
// dependency.
pub use pf_backend::{Mode, PipeBackend};
