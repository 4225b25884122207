//! The one scheduling choice: which side of a fork runs first.
//!
//! The paper gives one scheduler — greedy, over a stack of ready
//! threads, a touch suspending inside its cell — and Lemma 4.1's
//! `O(w/p + d)` holds for any greedy schedule, so a policy can only move
//! constants. The runtime is that scheduler as straight-line code: a
//! thief takes the single oldest task of a victim found by one sweep
//! from a pseudo-random start, and a write that reactivates a waiter
//! pushes it onto the writer's own deque. What is left to choose is
//! [`SpawnOrder`], a plain field of the session's slot, set as the
//! pool's default
//! ([`RuntimeBuilder::spawn_order`](crate::RuntimeBuilder::spawn_order))
//! or per session ([`Session::spawn_order`](crate::Session::spawn_order),
//! which wins).
//!
//! Child-first (work-first) is the default because the paper's bound
//! charges a touch constant time and gets there by suspending only when
//! a touch really finds its cell unwritten: running the future's body
//! before its parent's continuation makes the written cell the common
//! case (Herlihy & Liu, *Well-Structured Futures and Cache Locality*,
//! prove the bound on deviations for exactly the single-touch futures
//! §4's linearity gives), where parent-first makes the suspension the
//! common case — 359 k suspensions in 894 k tasks on the §3 algorithms
//! at one worker. [`SpawnOrder::ParentFirst`] stays selectable for
//! programs whose point is a flat, immediately stealable fan-out (see
//! its docs), and for the suites that need pushed children to reach the
//! touch-before-write races at all.

/// Which side of a fork the spawning worker continues into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpawnOrder {
    /// `spawn` runs the child inline and the parent continues after it
    /// returns (work-first, the default; depth-guarded with fallback to
    /// the push path). `spawn2` keeps one stealable child: the first
    /// closure is pushed, the second runs inline. A cell the child
    /// writes is written by the time the parent touches it, so the
    /// touch does not suspend.
    #[default]
    ChildFirst,
    /// `spawn` pushes the child and the parent keeps running (help-
    /// first — the child is immediately stealable). The right choice
    /// when a task fans out with a flat loop of `spawn`s that should
    /// spread over the pool at once: under [`Self::ChildFirst`] such a
    /// loop runs its children serially on the spawning worker.
    ParentFirst,
}

impl SpawnOrder {
    /// A short stable label (`"child"` / `"parent"`), the tag a
    /// session's trace carries.
    pub fn label(self) -> &'static str {
        match self {
            SpawnOrder::ChildFirst => "child",
            SpawnOrder::ParentFirst => "parent",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_work_first_and_packs_to_zero() {
        assert_eq!(SpawnOrder::default(), SpawnOrder::ChildFirst);
        assert_eq!(SpawnOrder::ChildFirst.label(), "child");
        assert_eq!(SpawnOrder::ParentFirst.label(), "parent");
    }
}
