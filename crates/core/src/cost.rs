//! Cost constants and the work/depth report produced by a simulation run.

/// Unit-action costs charged by the simulator for the primitive operations of
/// the model.
///
/// The paper's theorems are asymptotic, so the defaults charge one unit
/// action for each primitive; the constants are exposed so that sensitivity
/// experiments (EXPERIMENTS.md, E15) can vary them. Every cost must be at
/// least 1 — a zero-cost fork or touch would let the DAG contain edges
/// between actions at equal depth, which the model forbids (each node is a
/// *unit-time* action).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost charged to the forking thread for creating a future
    /// (allocating its cells and closure — constant per the paper's §4).
    pub fork: u64,
    /// Cost of touching (reading) a future cell: the data edge.
    pub touch: u64,
    /// Cost of writing a future cell.
    pub write: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fork: 1,
            touch: 1,
            write: 1,
        }
    }
}

impl CostModel {
    /// A cost model with every primitive charged `k` units. Useful for
    /// checking that measured depths scale linearly in the constants
    /// (the theorems' `ks`, `km`, `kb` are all "some constant").
    pub fn uniform(k: u64) -> Self {
        assert!(k >= 1, "unit actions must cost at least 1");
        CostModel {
            fork: k,
            touch: k,
            write: k,
        }
    }

    /// Validates the invariants documented on the type.
    pub(crate) fn validate(&self) {
        assert!(
            self.fork >= 1 && self.touch >= 1 && self.write >= 1,
            "all primitive costs must be >= 1, got {self:?}"
        );
    }
}

/// The measured cost of one simulated computation: the size and longest path
/// of its computation DAG, plus bookkeeping counters used by the tests and
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostReport {
    /// Total number of unit actions executed (nodes in the DAG).
    pub work: u64,
    /// Longest path in the DAG: the largest virtual clock reached.
    pub depth: u64,
    /// Number of futures forked.
    pub forks: u64,
    /// Number of touch (future read) operations.
    pub touches: u64,
    /// Number of future-cell writes.
    pub writes: u64,
    /// Number of future cells created.
    pub cells: u64,
    /// Number of flat array primitives executed ([`crate::Ctx::flat`]).
    pub flats: u64,
    /// The largest number of touches observed on any single future cell.
    /// Linear code (§4) has `max_reads_per_cell <= 1`.
    pub max_reads_per_cell: u32,
}

impl CostReport {
    /// Parallelism of the computation, `work / depth` — the asymptotic
    /// speedup available to a greedy scheduler.
    pub fn parallelism(&self) -> f64 {
        if self.depth == 0 {
            0.0
        } else {
            self.work as f64 / self.depth as f64
        }
    }

    /// Whether the computation satisfied the §4 linearity restriction:
    /// every future cell read (touched) at most once.
    pub fn is_linear(&self) -> bool {
        self.max_reads_per_cell <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_unit() {
        let c = CostModel::default();
        assert_eq!((c.fork, c.touch, c.write), (1, 1, 1));
        c.validate();
    }

    #[test]
    fn uniform_scales_all() {
        let c = CostModel::uniform(3);
        assert_eq!((c.fork, c.touch, c.write), (3, 3, 3));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn uniform_zero_rejected() {
        CostModel::uniform(0);
    }

    #[test]
    fn parallelism_and_brent() {
        let r = CostReport {
            work: 1000,
            depth: 10,
            ..CostReport::default()
        };
        assert!((r.parallelism() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_depth_parallelism_is_zero() {
        let r = CostReport::default();
        assert_eq!(r.parallelism(), 0.0);
    }
}
