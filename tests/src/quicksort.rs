//! Figure 2 on the simulator — the paper's *negative* example: Halstead's
//! quicksort pipelines, yet its expected depth stays Θ(n); pipelining buys
//! a constant factor only.

mod tests {
    use pf_algs::list::List;
    use pf_algs::start::quicksort_on;
    use pf_bench::workloads::shuffled_keys;
    use pf_core::Ctx;

    use crate::sim::run_quicksort;
    use crate::*;

    #[test]
    fn sorts_correctly() {
        for n in [0usize, 1, 2, 3, 10, 100, 500] {
            check_quicksort::<Ctx>(&shuffled_keys(n, 42 + n as u64));
        }
    }

    #[test]
    fn sorts_with_duplicates() {
        check_quicksort::<Ctx>(&[3, 1, 3, 2, 1, 3, 0]);
    }

    #[test]
    fn strict_same_result_same_work() {
        let keys = shuffled_keys(300, 7);
        strict_vs_pipelined(|ctx, m| quicksort_on(ctx, &keys, m), List::collect_vec);
    }

    #[test]
    fn depth_is_linear_even_pipelined() {
        // The paper's point: pipelining does NOT make quicksort polylog.
        let d = |n: usize| run_quicksort(&shuffled_keys(n, 99), M).1.depth as f64;
        let (d1, d2) = (d(400), d(800));
        let ratio = d2 / d1;
        assert!(
            ratio > 1.6,
            "expected ~linear depth growth, got ratio {ratio} ({d1} -> {d2})"
        );
    }

    #[test]
    fn pipelining_gains_only_constant_factor() {
        let keys = shuffled_keys(600, 3);
        let (_, cp) = run_quicksort(&keys, M);
        let (_, cs) = run_quicksort(&keys, Mode::Strict);
        let gain = cs.depth as f64 / cp.depth as f64;
        // The exact constant depends on the pivot sequence, i.e. on the
        // shuffle RNG; any small constant (vs. the Θ(lg n) gap a real
        // asymptotic win would show) confirms the paper's claim.
        assert!(
            (1.0..6.0).contains(&gain),
            "pipelining gain should be a small constant, got {gain}"
        );
    }

    #[test]
    fn work_is_n_log_n_expected() {
        let w = |n: usize| run_quicksort(&shuffled_keys(n, 5), M).1.work as f64;
        let (w1, w2) = (w(256), w(1024));
        // n lg n: 1024·10 / 256·8 = 5: ratio should be near 5, certainly < 8.
        let ratio = w2 / w1;
        assert!((3.0..8.0).contains(&ratio), "work ratio {ratio}");
    }
}
