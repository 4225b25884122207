//! [`crate::rebalance`] on the work-stealing runtime: the three-phase
//! §3.1 rebalance at `B = pf_rt::Worker`, on the unbalanced tree that
//! inserting the keys in order builds.

mod tests {
    use crate::start::rebalance_on;
    use crate::testkit::{on_rt, run_rebalance as model_rebalance, shuffled};
    use crate::tree::Tree;
    use crate::Mode;
    use pf_rt::Worker;

    fn run_rebalance(keys: &[i64], threads: usize) -> Tree<Worker, i64> {
        let keys = keys.to_vec();
        on_rt(threads, move |wk| rebalance_on(wk, &keys, Mode::Pipelined))
    }

    #[test]
    fn balances_shuffled_input() {
        let t = run_rebalance(&shuffled(500, 3), 4);
        assert_eq!(t.to_sorted_vec(), (0..500).collect::<Vec<_>>());
        assert_eq!(t.height(), 9, "500 keys must pack into height 9");
    }

    #[test]
    fn balances_pathological_spine() {
        let keys: Vec<i64> = (0..256).collect(); // right spine of height 256
        let t = run_rebalance(&keys, 2);
        assert_eq!(t.height(), 9);
        assert_eq!(t.to_sorted_vec(), keys);
    }

    #[test]
    fn small_cases() {
        for n in [0usize, 1, 2, 3] {
            let keys: Vec<i64> = (0..n as i64).collect();
            let t = run_rebalance(&keys, 2);
            assert_eq!(t.to_sorted_vec(), keys, "n={n}");
        }
    }

    #[test]
    fn agrees_with_cost_model_version() {
        let keys = shuffled(300, 8);
        let (root, _) = model_rebalance(&keys, Mode::Pipelined);
        let model = root.get();
        let t = run_rebalance(&keys, 3);
        assert_eq!(t.to_sorted_vec(), model.to_sorted_vec());
        assert_eq!(t.height(), model.height(), "identical deterministic shape");
    }

    #[test]
    fn stress_threads() {
        let keys = shuffled(200, 9);
        for threads in [1usize, 2, 8] {
            for _ in 0..10 {
                let t = run_rebalance(&keys, threads);
                assert_eq!(t.to_sorted_vec(), (0..200).collect::<Vec<_>>());
            }
        }
    }
}
