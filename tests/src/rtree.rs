//! BST merge and split on pf-rt, at every pool width.

mod tests {
    use pf_rt::Worker;

    use crate::*;

    #[test]
    fn merge_small_cases() {
        for (na, nb) in [(0, 0), (1, 0), (0, 1), (5, 3), (16, 16)] {
            check_merge::<Worker, i64>(&evens(na), &odds(nb));
        }
    }

    #[test]
    fn merge_larger_all_thread_counts() {
        check_merge::<Worker, i64>(&evens(2000), &odds(1500));
    }

    #[test]
    fn merge_stress_repeated() {
        for _ in 0..16 {
            check_merge::<Worker, i64>(&evens(300), &odds(300));
        }
    }

    #[test]
    fn split_partitions() {
        check_split::<Worker>(&evens(100), 41);
    }
}
