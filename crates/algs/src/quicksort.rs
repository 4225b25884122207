//! Figure 2 on the simulator — the paper's *negative* example: Halstead's
//! quicksort ([`crate::list::qs`]) pipelines, yet its expected depth stays
//! Θ(n); pipelining buys a constant factor only.

mod tests {
    use crate::testkit::{run_quicksort, shuffled};
    use crate::Mode;

    #[test]
    fn sorts_correctly() {
        for n in [0usize, 1, 2, 3, 10, 100, 500] {
            let keys = shuffled(n, 42 + n as u64);
            let (l, _) = run_quicksort(&keys, Mode::Pipelined);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(l.collect_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn sorts_with_duplicates() {
        let keys = vec![3i64, 1, 3, 2, 1, 3, 0];
        let (l, _) = run_quicksort(&keys, Mode::Pipelined);
        assert_eq!(l.collect_vec(), vec![0, 1, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn strict_same_result_same_work() {
        let keys = shuffled(300, 7);
        let (l1, c1) = run_quicksort(&keys, Mode::Pipelined);
        let (l2, c2) = run_quicksort(&keys, Mode::Strict);
        assert_eq!(l1.collect_vec(), l2.collect_vec());
        assert_eq!(c1.work, c2.work);
        assert!(c1.depth <= c2.depth);
    }

    #[test]
    fn depth_is_linear_even_pipelined() {
        // The paper's point: pipelining does NOT make quicksort polylog.
        let d = |n: usize| run_quicksort(&shuffled(n, 99), Mode::Pipelined).1.depth as f64;
        let (d1, d2) = (d(400), d(800));
        let ratio = d2 / d1;
        assert!(
            ratio > 1.6,
            "expected ~linear depth growth, got ratio {ratio} ({d1} -> {d2})"
        );
    }

    #[test]
    fn pipelining_gains_only_constant_factor() {
        let keys = shuffled(600, 3);
        let (_, cp) = run_quicksort(&keys, Mode::Pipelined);
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
        let w = |n: usize| run_quicksort(&shuffled(n, 5), Mode::Pipelined).1.work as f64;
        let (w1, w2) = (w(256), w(1024));
        // n lg n: 1024·10 / 256·8 = 5: ratio should be near 5, certainly < 8.
        let ratio = w2 / w1;
        assert!((3.0..8.0).contains(&ratio), "work ratio {ratio}");
    }
}
