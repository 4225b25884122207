//! The Figure 1 pipeline and Halstead's Figure 2 quicksort on pf-rt, at
//! every pool width.

mod tests {
    use pf_bench::workloads::shuffled_keys;
    use pf_rt::Worker;

    use crate::*;

    #[test]
    fn pipeline_sums() {
        for n in [0, 1, 10, 1000] {
            check_pipeline::<Worker>(n);
        }
    }

    #[test]
    fn pipeline_many_threads() {
        check_pipeline::<Worker>(20_000);
    }

    #[test]
    fn quicksort_sorts() {
        for n in [0usize, 1, 2, 10, 500] {
            check_quicksort::<Worker>(&shuffled_keys(n, n as u64 + 1));
        }
    }

    #[test]
    fn quicksort_with_duplicates() {
        check_quicksort::<Worker>(&[5, 3, 5, 1, 3, 5, 0, 0]);
    }

    #[test]
    fn quicksort_stress() {
        check_quicksort::<Worker>(&shuffled_keys(800, 77));
    }
}
