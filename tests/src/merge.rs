//! BST merge and split (§3.1, Theorem 3.1) on `Seq` and the simulator:
//! results against the sorted keys, then the simulator's cost assertions.

mod tests {
    use pf_algs::start::merge_on;
    use pf_algs::Seq;
    use pf_core::Ctx;

    use crate::sim::run_merge;
    use crate::*;

    #[test]
    fn merge_on_the_oracle() {
        for (na, nb) in [(0, 0), (1, 0), (0, 1), (5, 3), (16, 16), (100, 31)] {
            check_merge::<Seq, i64>(&evens(na), &odds(nb));
        }
    }

    #[test]
    fn split_on_the_oracle() {
        check_split::<Seq>(&evens(100), 41);
    }

    #[test]
    fn merges_correctly_small() {
        for (na, nb) in [(0, 0), (1, 0), (0, 1), (3, 5), (8, 8), (17, 4)] {
            check_merge::<Ctx, i64>(&evens(na), &odds(nb));
        }
    }

    #[test]
    fn strict_mode_same_result_same_work() {
        let (a, b) = (evens(100), odds(100));
        strict_vs_pipelined(|ctx, m| merge_on(ctx, &a, &b, m), shape);
    }

    #[test]
    fn pipelined_depth_is_logarithmic() {
        // depth(n, n) should grow by a constant (not by lg n) when n doubles.
        let d = |n: usize| run_merge(&evens(n), &odds(n), M).1.depth;
        let (d1k, d2k, d4k) = (d(1 << 10), d(1 << 11), d(1 << 12));
        let g1 = d2k as i64 - d1k as i64;
        let g2 = d4k as i64 - d2k as i64;
        assert!(g1 > 0 && g2 > 0);
        // Θ(lg n + lg m): doubling n adds O(1) depth. Allow slack for the
        // constant but rule out Θ(lg² n) (which would add ~lg n ≈ 11 per
        // doubling times the constant).
        assert!(
            g2 <= g1 + 16,
            "depth increments should be ~constant: {d1k} {d2k} {d4k}"
        );
    }

    #[test]
    fn strict_depth_is_log_squared() {
        let (a, b) = (evens(1 << 10), odds(1 << 10));
        let [p, s] = strict_vs_pipelined(|ctx, m| merge_on(ctx, &a, &b, m), shape);
        // lg(1024) = 10: the strict depth must be several times the
        // pipelined depth.
        assert!(
            s.depth > 2 * p.depth,
            "strict {} vs pipelined {}",
            s.depth,
            p.depth
        );
    }

    #[test]
    fn merge_is_linear_code() {
        let (_, c) = run_merge(&evens(256), &odds(256), M);
        assert!(c.is_linear(), "every future cell must be read at most once");
    }

    #[test]
    fn work_is_m_log_n_over_m() {
        // With m << n the work should be far below O(n).
        let (n, m) = (1 << 14, 1 << 4);
        let (_, c) = run_merge(&evens(n), &odds(m), M);
        assert!(
            c.work < (n as u64) / 4,
            "work {} should be o(n) for m << n",
            c.work
        );
    }

    #[test]
    fn result_height_bounded() {
        let n = 1 << 8;
        let (root, _) = run_merge(&evens(n), &odds(n), M);
        // Paper: result height can reach lg n + lg m but no more.
        assert!(
            root.get().height() <= 8 + 8 + 2,
            "height {}",
            root.get().height()
        );
    }

    #[test]
    fn split_partitions() {
        check_split::<Ctx>(&evens(100), 41);
    }

    #[test]
    fn split_at_extremes() {
        for s in [-1, 0, 199, 500] {
            check_split::<Ctx>(&evens(100), s);
        }
    }
}
