//! The Figure 1 pipeline and Figure 2 quicksort on `Seq`, the sequential
//! oracle engine.

mod tests {
    use pf_algs::Seq;

    use crate::*;

    #[test]
    fn pipeline_sums_on_the_oracle() {
        for n in [0, 1, 10, 500] {
            check_pipeline::<Seq>(n);
        }
    }

    /// A fixed scramble: no RNG needed for the oracle check.
    #[test]
    fn quicksort_on_the_oracle() {
        check_quicksort::<Seq>(&(0..200).map(|i| (i * 83) % 200).collect::<Vec<_>>());
    }

    #[test]
    fn quicksort_duplicates_on_the_oracle() {
        check_quicksort::<Seq>(&[3, 1, 3, 2, 1, 3, 0]);
    }
}
