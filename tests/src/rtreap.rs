//! The treap family on pf-rt, at every pool width: the same trees as
//! `PlainTreap`, whatever the schedule.

mod tests {
    use pf_algs::plain::Entry;
    use pf_rt::Worker;

    use crate::*;
    use SetOp::*;

    /// `op` of the complete treaps of `a` and `b` on pf-rt.
    fn on_pools(op: SetOp, a: &[Entry<i64>], b: &[Entry<i64>]) {
        SetOps::new(a, b).check::<Worker>(&[op], &BOTH_SIZED);
    }

    #[test]
    fn union_matches_oracle() {
        on_pools(Union, &entries(0..400), &entries(200..600));
    }

    #[test]
    fn union_edge_cases() {
        let (e, one) = (vec![], entries([3]));
        for (a, b) in [(&e, &e), (&one, &e), (&e, &one)] {
            on_pools(Union, a, b);
        }
    }

    #[test]
    fn union_all_thread_counts() {
        on_pools(
            Union,
            &entries((0..500).map(|i| 2 * i)),
            &entries((0..500).map(|i| 2 * i + 1)),
        );
    }

    #[test]
    fn diff_matches_oracle() {
        on_pools(
            Diff,
            &entries(0..300),
            &entries((0..300).filter(|k| k % 3 == 0)),
        );
    }

    #[test]
    fn diff_complete_overlap() {
        on_pools(Diff, &entries(0..100), &entries(0..100));
    }

    /// Scheduling is nondeterministic; results are not.
    #[test]
    fn union_stress() {
        let (a, b) = (
            entries((0..200).map(|i| 3 * i)),
            entries((0..200).map(|i| 3 * i + 1)),
        );
        for _ in 0..10 {
            on_pools(Union, &a, &b);
        }
    }
}
