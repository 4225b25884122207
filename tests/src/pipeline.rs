//! Figure 1 on the simulator: the producer/consumer pipeline has depth
//! ≈ c·n pipelined against ≈ 2·c·n strict — the consumer finishes O(1)
//! after the producer — at the same Θ(n) work.

mod tests {
    use pf_algs::start::pipeline_on;
    use pf_core::Ctx;

    use crate::sim::run_pipeline;
    use crate::*;

    #[test]
    fn sums_correctly() {
        for n in [0, 1, 2, 17, 100] {
            check_pipeline::<Ctx>(n);
        }
    }

    #[test]
    fn pipelined_depth_close_to_producer_alone() {
        let [p, s] = strict_vs_pipelined(|ctx, m| pipeline_on(ctx, 1000, m), |sum| *sum);
        // Pipelined: consumer trails the producer by O(1) ⇒ depth ≈ c·n.
        // Strict: the whole production is re-stamped to its completion
        // time, so the consumer starts after the full production and the
        // depth ≈ producer + consumer ≈ 2·c·n.
        assert!(
            s.depth as f64 > 1.3 * p.depth as f64,
            "strict {} vs pipelined {}",
            s.depth,
            p.depth
        );
    }

    #[test]
    fn depth_linear_in_n() {
        let ratio = run_pipeline(1000, M).1.depth as f64 / run_pipeline(500, M).1.depth as f64;
        assert!((1.8..2.2).contains(&ratio), "depth should be Θ(n): {ratio}");
    }

    #[test]
    fn work_linear_in_n() {
        let ratio = run_pipeline(1000, M).1.work as f64 / run_pipeline(500, M).1.work as f64;
        assert!((1.8..2.2).contains(&ratio), "work should be Θ(n): {ratio}");
    }

    #[test]
    fn is_linear_code() {
        assert!(run_pipeline(200, M).1.is_linear());
    }
}
