//! [`crate::merge`] on the work-stealing runtime: the same starter at
//! `B = pf_rt::Worker`, across thread counts.

mod tests {
    use crate::merge::split;
    use crate::start::merge_on;
    use crate::testkit::{evens, odds, on_rt};
    use crate::tree::Tree;
    use crate::Mode;
    use pf_rt::{cell, Runtime};

    fn run_merge(a: &[i64], b: &[i64], threads: usize) -> Vec<i64> {
        let (a, b) = (a.to_vec(), b.to_vec());
        on_rt(threads, move |wk| merge_on(wk, &a, &b, Mode::Pipelined)).to_sorted_vec()
    }

    fn sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut v: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merge_small_cases() {
        for (na, nb) in [(0, 0), (1, 0), (0, 1), (5, 3), (16, 16)] {
            let (a, b) = (evens(na), odds(nb));
            assert_eq!(run_merge(&a, &b, 2), sorted(&a, &b), "na={na} nb={nb}");
        }
    }

    #[test]
    fn merge_larger_all_thread_counts() {
        let (a, b) = (evens(2000), odds(1500));
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                run_merge(&a, &b, threads),
                sorted(&a, &b),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn merge_stress_repeated() {
        let (a, b) = (evens(300), odds(300));
        for _ in 0..50 {
            assert_eq!(run_merge(&a, &b, 4), sorted(&a, &b));
        }
    }

    #[test]
    fn split_partitions() {
        let (lp, lf) = cell();
        let (rp, rf) = cell();
        Runtime::new(3).run(move |wk| {
            let t = Tree::from_sorted(wk, &evens(100));
            split(wk, 41i64, t, lp, rp)
        });
        let l = lf.expect().to_sorted_vec();
        let r = rf.expect().to_sorted_vec();
        assert!(l.iter().all(|&k| k < 41));
        assert!(r.iter().all(|&k| k >= 41));
        assert_eq!(l.len() + r.len(), 100);
    }
}
