//! The **round-barrier** execution surface for the hand-pipelined
//! baselines (Cole's cascading mergesort, the PVW synchronous wave
//! pipeline).
//!
//! Those algorithms are *synchronous*: time advances in global rounds, and
//! every task of round `r` reads only state produced in rounds `< r`. That
//! discipline is exactly what futures make unnecessary — but to compare
//! wall-clocks fairly, the baselines must run on the same worker pool as
//! the futures programs. [`RoundExec`] captures the one primitive they
//! need: *execute a batch of independent jobs and wait for all of them*
//! (the barrier). Two engines implement it:
//!
//! * [`SeqRounds`] (this crate) — runs jobs inline in submission order;
//!   the virtual-time instantiation. Stage/round counts and counted work
//!   are bit-identical to the historical single-threaded simulators, which
//!   the `pinned_baselines` regression test pins.
//! * `pf_rt::rounds::PoolRounds` — dispatches each job to the persistent
//!   work-stealing pool and uses run-to-quiescence as the barrier; the
//!   wall-clock instantiation for the E16/E18 head-to-heads.
//!
//! Jobs are **pure**: they own their inputs (cloned out of the shared
//! state during planning) and return a result; the caller applies all
//! updates sequentially after the barrier. This compute/apply split is the
//! standard synchronous-PRAM convention — all reads see the previous
//! round — and is what makes the parallel instantiation race-free without
//! any locking in the algorithm itself.

/// A boxed round job: owns its inputs, returns its result.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// An executor of synchronous rounds: run all `jobs` (in any order, on any
/// number of workers) and return their results **in submission order**
/// after all of them finished — the round barrier.
pub trait RoundExec {
    /// Execute one round. Implementations must not begin returning until
    /// every job has completed.
    fn round<T: Send + 'static>(&mut self, jobs: Vec<Job<T>>) -> Vec<T>;

    /// Number of [`round`](RoundExec::round) calls so far (some may have
    /// been empty); for reporting only.
    fn rounds_executed(&self) -> u64;
}

/// The sequential round engine: jobs run inline, in submission order —
/// the virtual-time baseline the model numbers come from.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeqRounds {
    executed: u64,
}

impl SeqRounds {
    /// A fresh sequential round engine.
    pub fn new() -> Self {
        SeqRounds::default()
    }
}

impl RoundExec for SeqRounds {
    fn round<T: Send + 'static>(&mut self, jobs: Vec<Job<T>>) -> Vec<T> {
        self.executed += 1;
        jobs.into_iter().map(|j| j()).collect()
    }

    fn rounds_executed(&self) -> u64 {
        self.executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_rounds_preserve_order() {
        let mut ex = SeqRounds::new();
        let jobs: Vec<Job<usize>> = (0..10usize)
            .map(|i| Box::new(move || i * i) as Job<_>)
            .collect();
        let out = ex.round(jobs);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(ex.rounds_executed(), 1);
    }

    #[test]
    fn empty_round_counts() {
        let mut ex = SeqRounds::new();
        let out: Vec<u8> = ex.round(Vec::new());
        assert!(out.is_empty());
        assert_eq!(ex.rounds_executed(), 1);
    }
}
