//! # pf-check — loom-lite deterministic concurrency testing
//!
//! A vendored-dependency-free model checker for the `pf_rt` futures
//! runtime (and any other code written against its `sync` shim layer).
//! A model — a closure spawning model threads and using the primitives in
//! [`sync`] — is executed many times, each time under a different
//! *schedule* chosen by the virtual scheduler, with a preemption point at
//! every synchronization operation. Exactly one model thread runs at any
//! moment, so an execution is a deterministic function of its schedule:
//! any failure can be replayed bit-for-bit from a compact schedule string.
//!
//! ## Exploration strategy
//!
//! [`check`] runs, in order:
//!
//! 1. **Bounded exhaustive DFS** while the schedule tree stays small —
//!    complete coverage for models with few choice points.
//! 2. **PCT schedules** (random priorities + `d - 1` priority-change
//!    points, `d = 1..=3`) — probabilistically strong for races needing a
//!    small number of ordering constraints.
//! 3. **Seeded random walks** — broad coverage of everything else.
//!
//! On failure it prints the schedule string and re-runs it to confirm the
//! failure reproduces, then panics with:
//!
//! ```text
//! pf-check: failing schedule (PF_CHECK_REPLAY="1021x5.0"): panic in model thread t2: ...
//! ```
//!
//! Setting `PF_CHECK_REPLAY` replays exactly that one schedule instead of
//! exploring — attach a debugger, add prints, the interleaving is frozen.
//!
//! ## Limits
//!
//! Sequentially-consistent interleavings only (no weak-memory modelling —
//! that's the ThreadSanitizer CI job's department), and every blocking
//! operation must go through [`sync`]: a model thread blocking on a real
//! OS primitive would wedge the whole execution.

#![warn(missing_docs)]

mod chooser;
mod exec;
mod replay;
pub mod sync;

use chooser::{Chooser, DfsChooser, PctChooser, RandomChooser, ReplayChooser};
use exec::run_one;

pub use exec::FailureKind;

/// A reproducible failure found by exploration.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable description (panic message, deadlock state, …).
    pub message: String,
    /// The replay string — set `PF_CHECK_REPLAY` to this to re-execute.
    pub schedule: String,
    /// Which failure oracle fired.
    pub kind_desc: String,
    /// Whether re-running the schedule reproduced the failure.
    pub confirmed: bool,
}

/// Configuration for one exploration ([`check`] uses the defaults).
pub struct CheckBuilder {
    seed: u64,
    random_iters: usize,
    pct_iters_per_depth: usize,
    dfs_schedule_budget: usize,
    dfs_depth_bound: usize,
    max_steps: usize,
    expect_failure: bool,
    quiet: bool,
}

impl Default for CheckBuilder {
    fn default() -> Self {
        CheckBuilder {
            seed: 0x5EED_C0FF_EE42_0001,
            random_iters: 400,
            pct_iters_per_depth: 100,
            dfs_schedule_budget: 2_000,
            dfs_depth_bound: 40,
            max_steps: 20_000,
            expect_failure: false,
            quiet: false,
        }
    }
}

impl CheckBuilder {
    /// A builder with the default exploration budgets.
    pub fn new() -> Self {
        CheckBuilder::default()
    }

    /// Base seed for the random and PCT phases.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of random-walk schedules.
    pub fn random_iters(mut self, n: usize) -> Self {
        self.random_iters = n;
        self
    }

    /// Number of PCT schedules per depth (depths 1..=3).
    pub fn pct_iters(mut self, n: usize) -> Self {
        self.pct_iters_per_depth = n;
        self
    }

    /// Max schedules the exhaustive-DFS phase may spend before giving up
    /// (0 disables DFS).
    pub fn dfs_budget(mut self, n: usize) -> Self {
        self.dfs_schedule_budget = n;
        self
    }

    /// Max choice points per schedule before the StepLimit oracle fires.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Invert the harness: exploration *returns* the first failure
    /// (`Some`) instead of panicking, and returns `None` if the model
    /// survives the whole budget. For testing the checker itself and for
    /// mutation tests that prove non-vacuity.
    pub fn expect_failure(mut self) -> Self {
        self.expect_failure = true;
        self.quiet = true;
        self
    }

    /// Run the exploration. Panics on failure (unless
    /// [`Self::expect_failure`] was set, in which case the failure is
    /// returned).
    pub fn run<F>(self, f: F) -> Option<Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f = std::sync::Arc::new(f);

        // Replay mode: run exactly one schedule and stop.
        if let Ok(replay_str) = std::env::var("PF_CHECK_REPLAY") {
            let sched = replay::decode(&replay_str)
                .unwrap_or_else(|e| panic!("bad PF_CHECK_REPLAY string: {e}"));
            let g = std::sync::Arc::clone(&f);
            let out = run_one(
                Box::new(ReplayChooser::new(sched)),
                self.max_steps,
                move || g(),
            );
            if let Some(k) = out.failure {
                panic!("pf-check replay of {replay_str:?} failed: {k}");
            }
            eprintln!("pf-check: replay of {replay_str:?} passed");
            return None;
        }

        let mut schedules_run = 0usize;

        // Phase 1: bounded exhaustive DFS.
        if self.dfs_schedule_budget > 0 {
            let mut prefix: Vec<usize> = Vec::new();
            let mut frames = Vec::new();
            let mut exhausted = false;
            for _ in 0..self.dfs_schedule_budget {
                let chooser = DfsChooser::with_frames(
                    std::mem::take(&mut prefix),
                    self.dfs_depth_bound,
                    std::mem::take(&mut frames),
                );
                let g = std::sync::Arc::clone(&f);
                let out = run_one(Box::new(chooser), self.max_steps, move || g());
                schedules_run += 1;
                if let Some(kind) = out.failure {
                    return self.report(kind, &out.schedule, &f);
                }
                // Downcast the chooser back to mine the DFS state.
                let dfs = downcast_chooser::<DfsChooser>(out.chooser);
                if dfs.diverged {
                    // Model isn't schedule-deterministic; DFS bookkeeping
                    // is unsound for it — fall through to random phases.
                    break;
                }
                match dfs.next_step() {
                    Some((p, fr)) => {
                        prefix = p;
                        frames = fr;
                    }
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            if exhausted {
                // Complete coverage of the (depth-bounded) tree: the
                // random phases would only repeat schedules.
                if !self.quiet {
                    eprintln!(
                        "pf-check: exhaustive DFS covered the model in {schedules_run} schedules"
                    );
                }
                return None;
            }
        }

        // Phase 2: PCT, depths 1..=3.
        for d in 1..=3usize {
            for i in 0..self.pct_iters_per_depth {
                let seed = mix(self.seed, (d * 1_000_003 + i) as u64);
                let chooser =
                    PctChooser::new(seed, d, self.max_steps.min(4 * self.dfs_depth_bound));
                let g = std::sync::Arc::clone(&f);
                let out = run_one(Box::new(chooser), self.max_steps, move || g());
                schedules_run += 1;
                if let Some(kind) = out.failure {
                    return self.report(kind, &out.schedule, &f);
                }
            }
        }

        // Phase 3: seeded random walks.
        for i in 0..self.random_iters {
            let seed = mix(self.seed, 0xDEAD_0000 + i as u64);
            let g = std::sync::Arc::clone(&f);
            let out = run_one(
                Box::new(RandomChooser::new(seed)),
                self.max_steps,
                move || g(),
            );
            schedules_run += 1;
            if let Some(kind) = out.failure {
                return self.report(kind, &out.schedule, &f);
            }
        }

        if self.expect_failure {
            return None;
        }
        let _ = schedules_run;
        None
    }

    fn report<F>(
        &self,
        kind: FailureKind,
        schedule: &[usize],
        f: &std::sync::Arc<F>,
    ) -> Option<Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let sched_str = replay::encode(schedule);
        // Confirm: replay the schedule and check the failure reproduces.
        let g = std::sync::Arc::clone(f);
        let replay_out = run_one(
            Box::new(ReplayChooser::new(schedule.to_vec())),
            self.max_steps,
            move || g(),
        );
        let confirmed = replay_out.failure.is_some();
        let failure = Failure {
            message: kind.to_string(),
            schedule: sched_str.clone(),
            kind_desc: match &kind {
                FailureKind::Panic(..) => "panic".into(),
                FailureKind::Deadlock(_) => "deadlock".into(),
                FailureKind::StepLimit(_) => "step-limit".into(),
            },
            confirmed,
        };
        if self.expect_failure {
            return Some(failure);
        }
        let confirm_note = if confirmed {
            "reproduced on replay"
        } else {
            "DID NOT reproduce on replay — model may be nondeterministic beyond scheduling"
        };
        panic!(
            "pf-check: failing schedule (PF_CHECK_REPLAY=\"{sched_str}\", {confirm_note}): {kind}"
        );
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn downcast_chooser<T: Chooser>(c: Box<dyn Chooser>) -> Box<T> {
    // Box<dyn Chooser> has no Any supertrait; recover the concrete type
    // via raw-pointer cast, sound because callers pass back the exact box
    // they were given.
    unsafe { Box::from_raw(Box::into_raw(c) as *mut T) }
}

/// Explore a model with the default budgets; panics (with a replayable
/// schedule string) on the first failure found.
///
/// ```ignore
/// pf_check::check(|| {
///     let m = Arc::new(sync::Mutex::new(0));
///     // ... spawn sync::thread::spawn model threads, assert invariants
/// });
/// ```
pub fn check<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    CheckBuilder::new().run(f);
}
