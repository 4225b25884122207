//! The §3.4 bulk insert on pf-rt, at every pool width.

mod tests {
    use pf_core::Ctx;
    use pf_rt::Worker;

    use crate::*;

    /// Inserting nothing leaves the tree the builder made.
    #[test]
    fn builder_valid() {
        for n in [0, 1, 5, 27, 300] {
            check_insert26::<Worker>(&evens(n), &[]);
        }
    }

    #[test]
    fn insert_correct_across_threads() {
        check_insert26::<Worker>(
            &evens(400),
            &(0..100).map(|i| 8 * i + 1).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn insert_into_empty() {
        check_insert26::<Worker>(&[], &(0..64).collect::<Vec<_>>());
    }

    #[test]
    fn agrees_with_cost_model_version() {
        let (initial, keys) = (evens(1000), (0..300).map(|i| 6 * i + 3).collect::<Vec<_>>());
        check_insert26::<Ctx>(&initial, &keys);
        check_insert26::<Worker>(&initial, &keys);
    }

    #[test]
    fn stress_repeated() {
        let keys: Vec<i64> = (0..80).map(|i| 4 * i + 1).collect();
        for _ in 0..8 {
            check_insert26::<Worker>(&evens(200), &keys);
        }
    }
}
