//! The three-phase §3.1 rebalance and the merge-then-rebalance composite on
//! `Seq` and the simulator: results at the balanced height, then the
//! simulator's cost assertions.

mod tests {
    use pf_algs::rebalance::unbalanced_from;
    use pf_algs::start::{merge_balanced_on, rebalance_on};
    use pf_algs::Seq;
    use pf_bench::workloads::shuffled_keys;
    use pf_core::{CostReport, Ctx, Sim};

    use crate::sim::run_rebalance;
    use crate::*;

    fn run_merge_balanced(n: usize, m: usize) -> CostReport {
        Sim::new()
            .run(|ctx| merge_balanced_on(ctx, &evens(n), &odds(m), M))
            .1
    }

    #[test]
    fn rebalance_spine_on_the_oracle() {
        let keys: Vec<i64> = (0..127).collect();
        let spine = Seq::run(|bk| unbalanced_from(bk, &keys).height());
        assert_eq!(spine, 127, "in-order insertion gives a spine");
        check_rebalance::<Seq, i64>(&keys);
    }

    #[test]
    fn merge_balanced_on_the_oracle() {
        check_merge::<Seq, i64>(&evens(64), &odds(63));
    }

    #[test]
    fn rebalance_preserves_keys_and_balances() {
        check_rebalance::<Ctx, i64>(&shuffled_keys(200, 1));
    }

    /// A fully sorted insertion order gives a height-n right spine.
    #[test]
    fn rebalance_pathological_input() {
        check_rebalance::<Ctx, i64>(&(0..128).collect::<Vec<_>>());
    }

    #[test]
    fn rebalance_small_cases() {
        for n in 0..4 {
            check_rebalance::<Ctx, i64>(&(0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pipelined_rebuild_shallower_than_strict() {
        let keys = shuffled_keys(1 << 10, 4);
        let [p, s] = strict_vs_pipelined(|ctx, m| rebalance_on(ctx, &keys, m), shape);
        assert!(
            s.depth > p.depth + p.depth / 4,
            "strict {} vs pipelined {}",
            s.depth,
            p.depth
        );
    }

    /// 1 200 keys merge and rebalance to height 11, at a depth close to the
    /// raw merge plus a rebalance — logarithmic, far below the work.
    #[test]
    fn merge_balanced_composite() {
        check_merge::<Ctx, i64>(&evens(700), &odds(500));
        let c = run_merge_balanced(700, 500);
        assert!(c.is_linear());
        assert!(c.depth * 20 < c.work, "depth {} work {}", c.depth, c.work);
    }

    #[test]
    fn merge_balanced_depth_logarithmic() {
        let d = |lg: u32| run_merge_balanced(1 << lg, 1 << lg).depth as i64;
        let (d1, d2, d3) = (d(9), d(10), d(11));
        let (g1, g2) = (d2 - d1, d3 - d2);
        assert!(
            g2 <= g1 + d1 / 4,
            "composite depth should add ~constant per doubling: {d1} {d2} {d3}"
        );
    }

    #[test]
    fn rebalance_is_linear_code() {
        assert!(run_rebalance(&shuffled_keys(300, 9), M).1.is_linear());
    }

    #[test]
    fn work_is_linear_in_n() {
        let w = |n: usize| run_rebalance(&shuffled_keys(n, 2), M).1.work as f64;
        let ratio = w(2048) / w(1024);
        assert!(
            (1.7..2.4).contains(&ratio),
            "rebalance work should be Θ(n): ratio {ratio}"
        );
    }

    #[test]
    fn depth_is_logarithmic() {
        // The rebalance depth is O(height of the input), which for a random
        // BST is ~3 lg n with noticeable variance; quadrupling n must not
        // come close to doubling the depth.
        let d = |n: usize| run_rebalance(&shuffled_keys(n, 6), M).1.depth as i64;
        let (d1, d3) = (d(1 << 9), d(1 << 11));
        assert!(
            d3 < 2 * d1,
            "depth should grow logarithmically: {d1} -> {d3}"
        );
    }
}
