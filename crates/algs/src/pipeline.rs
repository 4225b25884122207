//! Figure 1 on the simulator: the producer/consumer pipeline of
//! [`crate::list`] has depth ≈ c·n pipelined against ≈ 2·c·n strict — the
//! consumer finishes O(1) after the producer — at the same Θ(n) work.

mod tests {
    use crate::testkit::run_pipeline;
    use crate::Mode;

    #[test]
    fn sums_correctly() {
        for n in [0u64, 1, 2, 17, 100] {
            let (s, _) = run_pipeline(n, Mode::Pipelined);
            assert_eq!(s, n * (n + 1) / 2, "n = {n}");
        }
    }

    #[test]
    fn pipelined_depth_close_to_producer_alone() {
        let n = 1000;
        let (_, cp) = run_pipeline(n, Mode::Pipelined);
        let (_, cs) = run_pipeline(n, Mode::Strict);
        assert_eq!(cp.work, cs.work);
        // Pipelined: consumer trails the producer by O(1) ⇒ depth ≈ c·n.
        // Strict: the whole production is re-stamped to its completion
        // time, so the consumer starts after the full production and the
        // depth ≈ producer + consumer ≈ 2·c·n.
        assert!(
            cs.depth as f64 > 1.3 * cp.depth as f64,
            "strict {} vs pipelined {}",
            cs.depth,
            cp.depth
        );
    }

    #[test]
    fn depth_linear_in_n() {
        let (_, c1) = run_pipeline(500, Mode::Pipelined);
        let (_, c2) = run_pipeline(1000, Mode::Pipelined);
        let ratio = c2.depth as f64 / c1.depth as f64;
        assert!((1.8..2.2).contains(&ratio), "depth should be Θ(n): {ratio}");
    }

    #[test]
    fn work_linear_in_n() {
        let (_, c1) = run_pipeline(500, Mode::Pipelined);
        let (_, c2) = run_pipeline(1000, Mode::Pipelined);
        let ratio = c2.work as f64 / c1.work as f64;
        assert!((1.8..2.2).contains(&ratio), "work should be Θ(n): {ratio}");
    }

    #[test]
    fn is_linear_code() {
        let (_, c) = run_pipeline(200, Mode::Pipelined);
        assert!(c.is_linear());
    }
}
