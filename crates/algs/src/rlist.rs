//! [`crate::list`] on the work-stealing runtime: the Figure 1 pipeline and
//! Halstead's Figure 2 quicksort at `B = pf_rt::Worker`.

mod tests {
    use crate::start::{pipeline_on, quicksort_on};
    use crate::testkit::{on_rt, shuffled};
    use crate::Mode;

    fn pipeline_sum(n: u64, threads: usize) -> u64 {
        on_rt(threads, move |wk| pipeline_on(wk, n, Mode::Pipelined))
    }

    #[test]
    fn pipeline_sums() {
        for n in [0u64, 1, 10, 1000] {
            assert_eq!(pipeline_sum(n, 2), n * (n + 1) / 2, "n={n}");
        }
    }

    #[test]
    fn pipeline_many_threads() {
        let n = 20_000u64;
        assert_eq!(pipeline_sum(n, 8), n * (n + 1) / 2);
    }

    fn run_qs(keys: &[i64], threads: usize) -> Vec<i64> {
        let keys = keys.to_vec();
        on_rt(threads, move |wk| quicksort_on(wk, &keys, Mode::Pipelined)).collect_vec()
    }

    #[test]
    fn quicksort_sorts() {
        for n in [0usize, 1, 2, 10, 500] {
            let sorted = run_qs(&shuffled(n, n as u64 + 1), 4);
            assert_eq!(sorted, (0..n as i64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn quicksort_with_duplicates() {
        let keys = vec![5i64, 3, 5, 1, 3, 5, 0, 0];
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(run_qs(&keys, 3), expect);
    }

    #[test]
    fn quicksort_stress() {
        let keys = shuffled(800, 77);
        let expect: Vec<i64> = (0..800).collect();
        for threads in [1, 2, 8] {
            assert_eq!(run_qs(&keys, threads), expect, "threads={threads}");
        }
    }
}
