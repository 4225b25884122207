//! Synchronization shim layer: the single point where `pf_rt` binds to
//! its concurrency primitives.
//!
//! Normally every name here re-exports `std::sync` / `std::thread` and
//! the layer compiles away completely. Under `RUSTFLAGS='--cfg pf_check'`
//! the same names come from `pf_check::sync` instead, routing **every**
//! atomic op, fence, lock, condvar wait, park/unpark, spawn, and yield
//! through pf-check's virtual scheduler so the model checker can explore
//! interleavings deterministically (see `crates/check`).
//!
//! Rules for runtime code:
//!
//! * never name `std::sync::atomic`, `std::sync::{Mutex, Condvar}` or
//!   `std::thread` directly — import from `crate::sync`;
//! * `std`-only types whose uses never block (`Arc`, `OnceLock` in its
//!   set-once/get pattern) stay on `std`: they are invisible to a
//!   scheduler that only needs to see *blocking* and *racing* operations;
//! * anything that can block a model thread on a real OS primitive would
//!   wedge the checker — if you need a new blocking primitive, add it to
//!   `pf_check::sync` first;
//! * timed waits (`Condvar::wait_timeout`, used by the session deadline
//!   and the quiescence watchdog) are `std`-only: the model has no clock,
//!   so that code is `#[cfg(not(pf_check))]` at the call site rather
//!   than shimmed here.
//!
//! The shim seam is also where the chaos layer ([`crate::chaos`],
//! `--cfg pf_chaos`) injects its faults: delays at cell fulfill/touch and
//! the push→wakeup window, denied steals in `find_task`, and panics at
//! task boundaries. Chaos instruments the *call sites* of these
//! primitives rather than wrapping the types, so normal and model builds
//! are untouched (the two cfgs are mutually exclusive).

#[cfg(not(pf_check))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(pf_check)]
pub use pf_check::sync::{Condvar, Mutex, MutexGuard};

/// Atomic types and fences (mirrors `std::sync::atomic`).
pub mod atomic {
    #[cfg(not(pf_check))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
    };

    #[cfg(pf_check)]
    pub use pf_check::sync::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
    };
}

/// Thread spawn/park/unpark/yield (mirrors `std::thread`).
pub mod thread {
    #[cfg(not(pf_check))]
    pub use std::thread::{park, yield_now, Builder, JoinHandle, Thread};

    #[cfg(pf_check)]
    pub use pf_check::sync::thread::{park, yield_now, Builder, JoinHandle, Thread};
}
