//! Pluggable scheduling policies.
//!
//! Every scheduling decision the runtime makes on a hot path — how much
//! to steal, whom to steal from, where a resumed continuation lands,
//! which side of a fork runs first — is an explicit knob here instead of
//! a hard-coded branch in `scheduler.rs`/`cell.rs`. The motivation is
//! Herlihy & Liu's *Well-Structured Futures and Cache Locality*: for
//! futures specifically, deviations (and with them cache misses) swing
//! by integer factors depending on steal granularity and resume
//! placement, so the policy must be measurable per run — which PR 7's
//! exact [`TraceStats`](pf_trace::TraceStats) counters make cheap.
//!
//! Dispatch is by enum compare, not trait object: a [`SchedPolicy`]
//! packs into a `u32` stored once per session in the pool's shared
//! state (`Relaxed` loads on the per-task path, no indirection, no
//! allocation). The policy may only change between sessions, while the
//! pool is quiescent — mid-session every worker observes one fixed
//! policy.
//!
//! [`SchedPolicy::default()`] is steal-one, random-sweep victims, resume
//! onto the fulfiller's deque, and **child-first** spawn. Child-first
//! (work-first) is the default because the paper's `O(w/p + d)` bound
//! charges a touch constant time and gets there by suspending only when
//! a touch really finds its cell unwritten: running the future's body
//! before its parent's continuation makes the written cell the common
//! case (Herlihy & Liu prove the bound on deviations for exactly the
//! single-touch futures §4's linearity gives), where parent-first makes
//! the suspension the common case — 359 k suspensions in 894 k tasks on
//! the §3 algorithms at one worker. [`SpawnOrder::ParentFirst`] stays
//! selectable for programs whose point is a flat, immediately stealable
//! fan-out (see its docs).

/// How many tasks one successful steal moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StealKind {
    /// Take the single oldest task from the victim (the classic
    /// Chase–Lev steal; the default).
    #[default]
    One,
    /// Take up to half of the victim's observed queue — the first task
    /// is run, the rest land in the thief's own deque. Fewer steal
    /// *episodes* on deep queues (better amortization of the miss/retry
    /// sweep), at the cost of coarser load distribution.
    Half,
}

/// How a worker with an empty deque picks steal victims.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VictimSelect {
    /// One full sweep over the siblings starting at a per-worker
    /// pseudo-random index (the default).
    #[default]
    RandomSweep,
    /// Try the last victim that yielded a task first, then fall back to
    /// the random sweep. Exploits temporal locality of imbalance: a
    /// deep victim stays deep for a while.
    LastVictimFirst,
}

/// Where a continuation resumed by a fulfill lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ResumePlace {
    /// Push onto the fulfilling worker's own deque (the default): the
    /// resume is the *newest* task there and runs next under LIFO — the
    /// value it touches is hot in the fulfiller's cache.
    #[default]
    FulfillerDeque,
    /// Run the continuation inline, immediately, inside the fulfill
    /// itself (depth-guarded; falls back to [`Self::FulfillerDeque`]
    /// past the inline-depth limit). The LIFO-front extreme: zero queue
    /// traffic, but the fulfiller's own continuation waits.
    Inline,
    /// Hand the continuation back to the worker that *suspended* on the
    /// cell, through a per-worker mailbox, waking it if parked. The
    /// cache-locality bet of Herlihy & Liu: the suspended frame's
    /// working set lives in the owner's cache, not the fulfiller's.
    Mailbox,
}

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

/// One complete scheduling policy: a value of each knob.
///
/// Select per runtime with [`Runtime::with_policy`](crate::Runtime::with_policy)
/// or the [builder](crate::Runtime::builder), or per session with
/// [`Session::policy`](crate::Session::policy) (which wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SchedPolicy {
    /// Steal granularity.
    pub steal: StealKind,
    /// Victim selection.
    pub victim: VictimSelect,
    /// Resume placement on fulfill.
    pub resume: ResumePlace,
    /// Spawn order at a fork.
    pub spawn: SpawnOrder,
}

impl SchedPolicy {
    /// Pack into one `u32` (one byte per knob) for storage in an atomic.
    pub(crate) fn pack(self) -> u32 {
        let s = self.steal as u32;
        let v = self.victim as u32;
        let r = self.resume as u32;
        let o = self.spawn as u32;
        s | (v << 8) | (r << 16) | (o << 24)
    }

    /// Inverse of [`Self::pack`]. Unknown bytes fall back to the
    /// default knob value (cannot happen for values we packed).
    pub(crate) fn unpack(bits: u32) -> Self {
        SchedPolicy {
            steal: match bits & 0xff {
                1 => StealKind::Half,
                _ => StealKind::One,
            },
            victim: match (bits >> 8) & 0xff {
                1 => VictimSelect::LastVictimFirst,
                _ => VictimSelect::RandomSweep,
            },
            resume: match (bits >> 16) & 0xff {
                1 => ResumePlace::Inline,
                2 => ResumePlace::Mailbox,
                _ => ResumePlace::FulfillerDeque,
            },
            spawn: match (bits >> 24) & 0xff {
                1 => SpawnOrder::ParentFirst,
                _ => SpawnOrder::ChildFirst,
            },
        }
    }

    /// A short stable label (`steal-victim-resume-spawn`), used to tag
    /// traces and name benchmark metrics. The default policy's label is
    /// `"one-sweep-deque-child"`.
    pub fn label(&self) -> String {
        let s = match self.steal {
            StealKind::One => "one",
            StealKind::Half => "half",
        };
        let v = match self.victim {
            VictimSelect::RandomSweep => "sweep",
            VictimSelect::LastVictimFirst => "lastv",
        };
        let r = match self.resume {
            ResumePlace::FulfillerDeque => "deque",
            ResumePlace::Inline => "inline",
            ResumePlace::Mailbox => "mailbox",
        };
        let o = match self.spawn {
            SpawnOrder::ParentFirst => "parent",
            SpawnOrder::ChildFirst => "child",
        };
        format!("{s}-{v}-{r}-{o}")
    }

    /// Every combination of every knob (2·2·3·2 = 24 policies), the
    /// default first. The cross-policy pinned tests iterate this so a
    /// new knob value is covered the day it is added.
    pub fn matrix() -> Vec<SchedPolicy> {
        let mut out = Vec::with_capacity(24);
        for &spawn in &[SpawnOrder::ChildFirst, SpawnOrder::ParentFirst] {
            for &resume in &[
                ResumePlace::FulfillerDeque,
                ResumePlace::Inline,
                ResumePlace::Mailbox,
            ] {
                for &victim in &[VictimSelect::RandomSweep, VictimSelect::LastVictimFirst] {
                    for &steal in &[StealKind::One, StealKind::Half] {
                        out.push(SchedPolicy {
                            steal,
                            victim,
                            resume,
                            spawn,
                        });
                    }
                }
            }
        }
        debug_assert_eq!(out[0], SchedPolicy::default());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_work_first_and_packs_to_zero() {
        let p = SchedPolicy::default();
        assert_eq!(p.steal, StealKind::One);
        assert_eq!(p.victim, VictimSelect::RandomSweep);
        assert_eq!(p.resume, ResumePlace::FulfillerDeque);
        assert_eq!(p.spawn, SpawnOrder::ChildFirst);
        assert_eq!(p.label(), "one-sweep-deque-child");
        // The default must pack to 0 so a zero-initialised atomic *is*
        // the default policy.
        assert_eq!(p.pack(), 0);
    }

    #[test]
    fn pack_roundtrips_every_matrix_entry() {
        let m = SchedPolicy::matrix();
        assert_eq!(m.len(), 24);
        for p in m {
            assert_eq!(SchedPolicy::unpack(p.pack()), p);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let m = SchedPolicy::matrix();
        let mut labels: Vec<String> = m.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 24);
    }
}
