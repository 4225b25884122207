//! The §3.1 rebalance on pf-rt, at every pool width, on the unbalanced
//! tree that inserting the keys in order builds.

mod tests {
    use pf_bench::workloads::shuffled_keys;
    use pf_core::Ctx;
    use pf_rt::Worker;

    use crate::*;

    #[test]
    fn balances_shuffled_input() {
        check_rebalance::<Worker, i64>(&shuffled_keys(500, 3));
    }

    #[test]
    fn balances_pathological_spine() {
        check_rebalance::<Worker, i64>(&(0..256).collect::<Vec<_>>());
    }

    #[test]
    fn small_cases() {
        for n in 0..4 {
            check_rebalance::<Worker, i64>(&(0..n).collect::<Vec<_>>());
        }
    }

    /// The same deterministic shape on the simulator and on pf-rt.
    #[test]
    fn agrees_with_cost_model_version() {
        let keys = shuffled_keys(300, 8);
        check_rebalance::<Ctx, i64>(&keys);
        check_rebalance::<Worker, i64>(&keys);
    }

    #[test]
    fn stress_threads() {
        let keys = shuffled_keys(200, 9);
        for _ in 0..5 {
            check_rebalance::<Worker, i64>(&keys);
        }
    }
}
