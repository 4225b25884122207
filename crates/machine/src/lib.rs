//! # pf-machine — implementation analysis of *Pipelining with Futures* (§4)
//!
//! The paper's Lemma 4.1: any linearized futures computation with work `w`
//! and depth `d` can be executed on a p-processor EREW scan-model PRAM in
//! O(w/p + d) time by a greedy scheduler that
//!
//! * keeps the active threads in a shared **stack** `S`,
//! * on every step pops `min(|S|, p)` threads, runs **one action** of each,
//!   and pushes the resulting active threads back with a prefix-sums
//!   (scan) step,
//! * suspends a thread that touches an unwritten future cell *inside the
//!   cell itself* (linearity ⇒ at most one waiter), and reactivates it when
//!   the write arrives,
//! * expands the flat `array_split` / `array_scan` primitives lazily
//!   through stubs.
//!
//! [`replay()`] implements that scheduler as a cycle-level simulator over the
//! computation-DAG traces captured by [`pf_core::Sim::run_traced`],
//! measuring exact step counts, suspension behaviour, and thread-pool
//! space ([`ReplayStats`]); [`predicted_time`] maps (work, depth,
//! processors) onto the machine models the paper discusses ([`Machine`]:
//! EREW scan model, plain and asynchronous EREW PRAM, BSP, CRCW with
//! fetch-and-add).
//!
//! One deliberate idealization, documented here because it affects exact
//! numbers: a thread whose next action is a touch of an unwritten cell is
//! suspended **free of charge** (the slot is reused), so the simulator is a
//! *greedy schedule of the DAG* in the strict sense — a p = ∞ replay
//! finishes in exactly `depth` steps, and Brent's bound
//! `steps ≤ ceil(w/p) + d` holds verbatim. The paper instead charges the
//! suspension bookkeeping O(1) actions, which shifts constants only.

//! ```
//! use pf_core::Sim;
//! use pf_machine::{replay, Discipline, INFINITE_P};
//!
//! // Capture a trace of a small futures program...
//! let (_, report, trace) = Sim::new().run_traced(|ctx| {
//!     let futs: Vec<_> = (0..4).map(|_| ctx.fork(|c| c.tick(32))).collect();
//!     for f in &futs {
//!         ctx.touch(f);
//!     }
//! });
//! // ...and execute it under the §4 scheduler.
//! let two = replay(&trace, 2, Discipline::Stack);
//! assert!(two.within_brent(report.work, report.depth, 2));   // Lemma 4.1
//! let inf = replay(&trace, INFINITE_P, Discipline::Stack);
//! assert_eq!(inf.steps, report.depth);                       // exact at p = ∞
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod models;
mod replay;
mod steal;

pub use models::{predicted_time, pvw_time, Machine};
pub use replay::{replay, replay_with, Discipline, ReplayStats, Suspension, INFINITE_P};
pub use steal::{steal_replay, StealConfig, StealStats};
