//! [`crate::list`] on the work-stealing runtime: the Figure 1 pipeline and
//! Halstead's Figure 2 quicksort at `B = pf_rt::Worker`.

mod tests {
    use crate::list::{consume, produce, qs, List};
    use crate::testkit::shuffled;
    use crate::Mode;
    use pf_rt::{cell, Runtime};

    fn pipeline_sum(n: u64, threads: usize) -> u64 {
        let (sp, sf) = cell();
        Runtime::new(threads).run(move |wk| {
            let (lp, lf) = cell();
            wk.spawn(move |wk| produce(wk, n, lp));
            lf.touch(wk, move |l, wk| consume(wk, l, 0, sp));
        });
        sf.expect()
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
        let (op, of) = cell();
        Runtime::new(threads).run(move |wk| {
            let l = List::from_slice(wk, &keys);
            qs(wk, l, List::Nil, op, Mode::Pipelined)
        });
        of.expect().collect_vec()
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
