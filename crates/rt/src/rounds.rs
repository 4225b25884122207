//! The pool-backed round-barrier engine: `pf_backend::RoundExec` on the
//! persistent work-stealing runtime.
//!
//! The hand-pipelined baselines (Cole, PVW) advance in synchronous rounds;
//! [`PoolRounds`] runs each round's jobs as tasks on a shared
//! [`Runtime`] and uses run-to-quiescence as the barrier — one injector
//! push plus a wakeup per round on warm parked workers, the same pool the
//! futures programs are timed on. Each round is a
//! [`SpawnOrder::ParentFirst`] session: the root's flat fan-out pushes
//! every job, so idle workers steal them (under the default child-first
//! order each job would run inline, one after another, on whichever
//! worker took the root). Results come back in submission order
//! via one slot per job, so the caller's sequential apply phase (and hence
//! every counted statistic) is identical to the [`SeqRounds`] execution.
//!
//! [`SeqRounds`]: pf_backend::SeqRounds

use std::sync::Arc;

use pf_backend::{Job, RoundExec};

use crate::error::Session;
use crate::policy::SpawnOrder;
use crate::scheduler::Runtime;
use crate::sync::Mutex;

/// A round-barrier executor on the persistent worker pool: each round's
/// jobs are spawned as tasks and the pool's quiescence detection is the
/// barrier.
pub struct PoolRounds {
    rt: Arc<Runtime>,
    executed: u64,
}

impl PoolRounds {
    /// A round engine on the shared pool of width `threads` (workers are
    /// created once per width and reused across rounds and engines).
    /// (Unavailable under the model checker, like [`Runtime::shared`];
    /// model tests use [`PoolRounds::on`] with a session-local pool.)
    #[cfg(not(pf_check))]
    pub fn new(threads: usize) -> Self {
        PoolRounds::on(Runtime::shared(threads))
    }

    /// A round engine on an existing runtime.
    pub fn on(rt: Arc<Runtime>) -> Self {
        PoolRounds { rt, executed: 0 }
    }
}

impl RoundExec for PoolRounds {
    fn round<T: Send + 'static>(&mut self, jobs: Vec<Job<T>>) -> Vec<T> {
        self.executed += 1;
        if jobs.is_empty() {
            return Vec::new();
        }
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new(jobs.iter().map(|_| Mutex::new(None)).collect());
        let fill = Arc::clone(&slots);
        let session = Session::new().spawn_order(SpawnOrder::ParentFirst);
        self.rt
            .try_run_session(session, move |wk| {
                for (i, job) in jobs.into_iter().enumerate() {
                    let fill = Arc::clone(&fill);
                    wk.spawn(move |_wk| {
                        let v = job();
                        *fill[i].lock().unwrap() = Some(v);
                    });
                }
            })
            .unwrap_or_else(|e| e.resume());
        slots
            .iter()
            .map(|m| m.lock().unwrap().take().expect("round job did not run"))
            .collect()
    }

    fn rounds_executed(&self) -> u64 {
        self.executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_backend::SeqRounds;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn square_jobs(n: usize) -> Vec<Job<usize>> {
        (0..n).map(|i| Box::new(move || i * i) as Job<_>).collect()
    }

    #[test]
    fn pool_rounds_match_seq_rounds() {
        let mut seq = SeqRounds::new();
        let mut pool = PoolRounds::new(4);
        for n in [0usize, 1, 7, 64, 500] {
            assert_eq!(seq.round(square_jobs(n)), pool.round(square_jobs(n)));
        }
        assert_eq!(seq.rounds_executed(), pool.rounds_executed());
    }

    #[test]
    fn a_rounds_jobs_run_at_the_same_time() {
        // Each job announces itself, then waits (bounded) for the other:
        // both see the other only if the two run concurrently, on two
        // workers — on one CPU too, since the waiter yields.
        let seen = Arc::new(AtomicUsize::new(0));
        let jobs = (0..2)
            .map(|_| {
                let seen = Arc::clone(&seen);
                Box::new(move || {
                    seen.fetch_add(1, Ordering::SeqCst);
                    let until = Instant::now() + Duration::from_secs(10);
                    while seen.load(Ordering::SeqCst) < 2 && Instant::now() < until {
                        std::thread::yield_now();
                    }
                    seen.load(Ordering::SeqCst) == 2
                }) as Job<bool>
            })
            .collect();
        let mut pool = PoolRounds::on(Arc::new(Runtime::new(2)));
        assert_eq!(pool.round(jobs), [true, true], "a round ran serially");
    }

    #[test]
    fn many_rounds_on_warm_pool() {
        let mut pool = PoolRounds::new(2);
        for r in 0..100u64 {
            let out = pool.round(vec![Box::new(move || r) as Job<_>, Box::new(move || r + 1)]);
            assert_eq!(out, vec![r, r + 1]);
        }
        assert_eq!(pool.rounds_executed(), 100);
    }
}
