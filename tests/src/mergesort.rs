//! The §5 conjectured pipelined tree mergesort on `Seq` and the simulator:
//! results against the sorted keys, then the simulator's cost assertions.

mod tests {
    use pf_algs::start::msort_on;
    use pf_algs::Seq;
    use pf_bench::workloads::shuffled_keys;
    use pf_core::Ctx;

    use crate::sim::run_msort;
    use crate::*;

    #[test]
    fn seq_oracle_sorts() {
        for n in [0i64, 1, 2, 5, 64, 200] {
            // Deterministic scramble: an odd-stride permutation of 0..n.
            let keys: Vec<i64> = (0..n).rev().map(|i| (i * 37) % n.max(1)).collect();
            check_msort::<Seq, i64>(&keys, false);
        }
    }

    #[test]
    fn seq_oracle_balanced_height() {
        check_msort::<Seq, i64>(&(0..200).rev().collect::<Vec<_>>(), true);
    }

    #[test]
    fn sorts_correctly() {
        for n in [0usize, 1, 2, 5, 64, 257] {
            check_msort::<Ctx, i64>(&shuffled_keys(n, n as u64), false);
        }
    }

    #[test]
    fn pipelined_shallower_than_strict() {
        let keys = shuffled_keys(512, 11);
        let [p, s] = strict_vs_pipelined(|ctx, m| msort_on(ctx, &keys, false, m), shape);
        assert!(
            s.depth > p.depth,
            "pipelining should reduce mergesort depth: {} vs {}",
            s.depth,
            p.depth
        );
    }

    #[test]
    fn depth_grows_slowly() {
        // The conjecture: close to O(lg n). At minimum, doubling n must add
        // far less than a multiplicative factor.
        let d = |n: usize| run_msort(&shuffled_keys(n, 3), false, M).1.depth as f64;
        let (d1, d2) = (d(512), d(2048));
        assert!(
            d2 / d1 < 2.0,
            "depth should be strongly sublinear: {d1} -> {d2}"
        );
    }

    #[test]
    fn balanced_variant_sorts_and_is_balanced() {
        for n in [0usize, 1, 2, 33, 200] {
            let keys = shuffled_keys(n, 5);
            check_msort::<Ctx, i64>(&keys, true);
            assert!(run_msort(&keys, true, M).1.is_linear());
        }
    }

    #[test]
    fn balanced_variant_produces_shallower_result_tree() {
        let keys = shuffled_keys(1 << 9, 13);
        let height = |balanced| run_msort(&keys, balanced, M).0.get().height();
        assert!(height(true) <= height(false));
        assert_eq!(height(true), 10);
    }

    #[test]
    fn work_n_log_n() {
        let w = |n: usize| run_msort(&shuffled_keys(n, 3), false, M).1.work as f64;
        let ratio = w(2048) / w(512);
        // 4x n with lg factor 11/9 ⇒ ≈ 4.9; allow generous range.
        assert!((3.5..7.0).contains(&ratio), "work ratio {ratio}");
    }
}
