//! Exploration strategies: each chooser answers "which runnable thread
//! runs next?" at every choice point of one model execution.
//!
//! * [`RandomChooser`] — seeded uniform random walk (SplitMix64). Cheap,
//!   surprisingly effective at shallow bugs, and the workhorse for large
//!   models where systematic exploration is out of reach.
//! * [`PctChooser`] — Probabilistic Concurrency Testing (Burckhardt et
//!   al., ASPLOS '10): random static thread priorities plus `d - 1`
//!   random priority-change points. A bug of *depth* `d` (needing `d`
//!   ordering constraints) is found with probability ≥ 1/(n·kᵈ⁻¹) per
//!   run — far better than uniform random for deep races.
//! * [`DfsChooser`] — bounded exhaustive depth-first enumeration for
//!   small models: replays a forced prefix, then takes the first
//!   runnable thread and records the remaining alternatives for
//!   backtracking. Completes only when the whole (bounded) tree is
//!   explored.
//! * [`ReplayChooser`] — replays a recorded schedule exactly; used for
//!   `PF_CHECK_REPLAY` and for double-checking that a failure
//!   reproduces from its schedule string alone.

/// A scheduling strategy. `choose` is called only at *choice points*
/// (≥ 2 runnable threads) and returns an **index into `runnable`**, not
/// a thread id.
pub trait Chooser: Send + 'static {
    /// Called when a new model thread is registered (including the root).
    fn on_spawn(&mut self, _tid: usize) {}

    /// Pick the next thread: an index into `runnable` (which is sorted
    /// by thread id and has length ≥ 2).
    fn choose(&mut self, runnable: &[usize]) -> usize;
}

/// SplitMix64 — the same tiny PRNG the vendored shims use.
#[derive(Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (bound > 0).
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Uniform random walk over the schedule tree.
pub struct RandomChooser {
    rng: SplitMix64,
}

impl RandomChooser {
    /// A random walk driven by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomChooser {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, runnable: &[usize]) -> usize {
        self.rng.below(runnable.len())
    }
}

/// PCT: priority-based scheduling with `d - 1` priority-change points.
pub struct PctChooser {
    rng: SplitMix64,
    /// priorities[tid]: higher runs first. Assigned at spawn.
    priorities: Vec<u64>,
    /// Choice points remaining until each priority change fires.
    change_points: Vec<usize>,
    /// Low priorities handed out at change points (descending, below all
    /// initial priorities so a changed thread drops to the back).
    next_low: u64,
    choices_seen: usize,
}

impl PctChooser {
    /// A PCT schedule with bug-depth budget `d` (≥ 1). `max_steps` is an
    /// estimate of the schedule length used to place the `d - 1`
    /// priority-change points uniformly.
    pub fn new(seed: u64, d: usize, max_steps: usize) -> Self {
        assert!(d >= 1);
        let mut rng = SplitMix64::new(seed);
        let mut change_points: Vec<usize> = (1..d).map(|_| rng.below(max_steps.max(1))).collect();
        change_points.sort_unstable();
        PctChooser {
            rng,
            priorities: Vec::new(),
            change_points,
            // Initial priorities are ≥ 1_000_000; change-point priorities
            // count down from 999_999 so each change sends the running
            // thread below everyone, and successive changes stack.
            next_low: 999_999,
            choices_seen: 0,
        }
    }
}

impl Chooser for PctChooser {
    fn on_spawn(&mut self, tid: usize) {
        debug_assert_eq!(tid, self.priorities.len());
        self.priorities
            .push(1_000_000 + self.rng.next_u64() % 1_000_000);
    }

    fn choose(&mut self, runnable: &[usize]) -> usize {
        // Highest-priority runnable thread runs.
        let best = runnable
            .iter()
            .enumerate()
            .max_by_key(|(_, &tid)| self.priorities[tid])
            .map(|(i, _)| i)
            .unwrap();
        // Fire a priority-change point? Deprioritize the thread *about to
        // run* so the schedule is perturbed exactly here.
        self.choices_seen += 1;
        while self
            .change_points
            .first()
            .is_some_and(|&cp| cp < self.choices_seen)
        {
            self.change_points.remove(0);
            self.priorities[runnable[best]] = self.next_low;
            self.next_low = self.next_low.saturating_sub(1);
        }
        best
    }
}

/// One frame of DFS state: at schedule position `pos` the alternatives
/// `remaining` (thread ids) have not been taken yet.
#[derive(Clone, Debug)]
pub(crate) struct DfsFrame {
    pos: usize,
    remaining: Vec<usize>,
}

/// Bounded exhaustive DFS. Drive it with the crate's `next_step` between
/// executions:
///
/// ```ignore
/// let (mut prefix, mut frames) = (Vec::new(), Vec::new());
/// loop {
///     let chooser = DfsChooser::with_frames(prefix, depth_bound, frames);
///     let outcome = /* run one execution with `chooser` */;
///     // outcome.chooser is the DfsChooser back; mine it:
///     match dfs.next_step() { Some((p, f)) => (prefix, frames) = (p, f), None => break }
/// }
/// ```
pub struct DfsChooser {
    /// Forced choices (thread ids) replayed at the start of the run.
    prefix: Vec<usize>,
    /// Thread id actually chosen at every choice point of this run.
    taken: Vec<usize>,
    /// Stack of unexplored alternatives discovered this run (and inherited
    /// from the prefix computation).
    frames: Vec<DfsFrame>,
    /// Beyond this many choice points, stop branching (take first
    /// runnable) so the tree stays bounded.
    depth_bound: usize,
    /// Set when the prefix fails to replay (schedule tree changed under
    /// us — the model is nondeterministic beyond scheduling).
    pub(crate) diverged: bool,
}

impl DfsChooser {
    /// A DFS step forcing `prefix`, branching up to `depth_bound` choice
    /// points deep, carrying over `frames`, the unexplored-alternative
    /// stack from the previous execution.
    pub(crate) fn with_frames(
        prefix: Vec<usize>,
        depth_bound: usize,
        frames: Vec<DfsFrame>,
    ) -> Self {
        DfsChooser {
            prefix,
            taken: Vec::new(),
            frames,
            depth_bound,
            diverged: false,
        }
    }

    /// After a run: the forced prefix for the next execution, or `None`
    /// when the tree is exhausted. Consumes one alternative from the
    /// deepest frame with any left.
    pub(crate) fn next_step(mut self) -> Option<(Vec<usize>, Vec<DfsFrame>)> {
        while let Some(frame) = self.frames.last_mut() {
            if let Some(tid) = frame.remaining.pop() {
                // Force everything actually taken up to the branch point,
                // then the alternative.
                let pos = frame.pos;
                let mut prefix = self.taken[..pos].to_vec();
                prefix.push(tid);
                // Frames deeper than this branch point are stale.
                let frames: Vec<DfsFrame> = self
                    .frames
                    .iter()
                    .filter(|f| f.pos <= pos)
                    .cloned()
                    .collect();
                return Some((prefix, frames));
            }
            self.frames.pop();
        }
        None
    }
}

impl Chooser for DfsChooser {
    fn choose(&mut self, runnable: &[usize]) -> usize {
        let pos = self.taken.len();
        if pos < self.prefix.len() {
            // Replay the forced prefix.
            let want = self.prefix[pos];
            match runnable.iter().position(|&t| t == want) {
                Some(i) => {
                    self.taken.push(want);
                    return i;
                }
                None => {
                    // The tree shifted (shouldn't happen for deterministic
                    // models); fall back to first runnable and flag it.
                    self.diverged = true;
                    self.taken.push(runnable[0]);
                    return 0;
                }
            }
        }
        if pos < self.depth_bound {
            // New territory: take the first alternative, remember the rest.
            self.frames.push(DfsFrame {
                pos,
                remaining: runnable[1..].to_vec(),
            });
        }
        self.taken.push(runnable[0]);
        0
    }
}

/// Replays a recorded schedule; past its end, takes the first runnable
/// thread (a correct continuation when the schedule was complete).
pub struct ReplayChooser {
    schedule: Vec<usize>,
    pos: usize,
    /// Set when the recorded choice wasn't runnable (model changed since
    /// the schedule was recorded).
    pub(crate) diverged: bool,
}

impl ReplayChooser {
    /// Replay `schedule` (thread ids per choice point).
    pub fn new(schedule: Vec<usize>) -> Self {
        ReplayChooser {
            schedule,
            pos: 0,
            diverged: false,
        }
    }
}

impl Chooser for ReplayChooser {
    fn choose(&mut self, runnable: &[usize]) -> usize {
        let pos = self.pos;
        self.pos += 1;
        if let Some(&want) = self.schedule.get(pos) {
            if let Some(i) = runnable.iter().position(|&t| t == want) {
                return i;
            }
            self.diverged = true;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomChooser::new(7);
        let mut b = RandomChooser::new(7);
        let runnable = [0usize, 1, 2, 3];
        for _ in 0..100 {
            assert_eq!(a.choose(&runnable), b.choose(&runnable));
        }
    }

    #[test]
    fn pct_runs_highest_priority() {
        let mut c = PctChooser::new(1, 1, 100);
        c.on_spawn(0);
        c.on_spawn(1);
        let runnable = [0usize, 1];
        let first = c.choose(&runnable);
        // d = 1 means no change points: the same thread keeps winning.
        for _ in 0..10 {
            assert_eq!(c.choose(&runnable), first);
        }
    }

    #[test]
    fn replay_follows_schedule() {
        let mut c = ReplayChooser::new(vec![2, 0, 1]);
        assert_eq!(c.choose(&[0, 1, 2]), 2);
        assert_eq!(c.choose(&[0, 1]), 0);
        assert_eq!(c.choose(&[0, 1]), 1);
        // Past the end: first runnable.
        assert_eq!(c.choose(&[0, 1]), 0);
        assert!(!c.diverged);
    }

    #[test]
    fn dfs_enumerates_a_small_tree() {
        // Simulate a model with two choice points of width 2 → 4 leaves.
        let mut schedules = Vec::new();
        let mut prefix: Vec<usize> = Vec::new();
        let mut frames = Vec::new();
        loop {
            let mut c = DfsChooser::with_frames(prefix.clone(), 10, std::mem::take(&mut frames));
            let mut sched = Vec::new();
            for _ in 0..2 {
                let i = c.choose(&[0, 1]);
                sched.push([0usize, 1][i]);
            }
            schedules.push(sched);
            match c.next_step() {
                Some((p, f)) => {
                    prefix = p;
                    frames = f;
                }
                None => break,
            }
        }
        schedules.sort();
        assert_eq!(
            schedules,
            vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]
        );
    }
}
