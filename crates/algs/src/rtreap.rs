//! [`crate::treap`] on the work-stealing runtime: the same text at
//! `B = pf_rt::Worker`. Same tie-break rule on every engine, so the result
//! shapes agree with the plain oracle and with the simulator.

mod tests {
    use crate::plain::{Entry, PlainTreap};
    use crate::start::{diff_on, intersect_on, union_on};
    use crate::testkit::{entries, on_rt, run_intersect};
    use crate::treap::{Treap, TreapFut};
    use crate::Mode;
    use pf_rt::Worker;

    type Start = fn(&Worker, &[Entry<i64>], &[Entry<i64>], Mode) -> TreapFut<Worker, i64>;

    /// `start` on `threads` workers over complete treaps of `a` and `b`.
    fn run(start: Start, a: &[Entry<i64>], b: &[Entry<i64>], threads: usize) -> Treap<Worker, i64> {
        let (a, b) = (a.to_vec(), b.to_vec());
        on_rt(threads, move |wk| start(wk, &a, &b, Mode::Pipelined))
    }

    #[test]
    fn union_matches_oracle() {
        let a = entries(0..400);
        let b = entries(200..600);
        let t = run(union_on, &a, &b, 4);
        assert!(t.check_invariants());
        assert_eq!(t.to_sorted_vec(), (0..600).collect::<Vec<_>>());
        // Shape agreement with the sequential treap.
        let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
        assert_eq!(t.height(), PlainTreap::height(&pu));
    }

    #[test]
    fn union_edge_cases() {
        let e: Vec<Entry<i64>> = vec![];
        let one = entries([3]);
        for (a, b) in [(&e, &e), (&one, &e), (&e, &one)] {
            let t = run(union_on, a, b, 2);
            let mut expect: Vec<i64> = a.iter().chain(b.iter()).map(|e| e.0).collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(t.to_sorted_vec(), expect);
        }
    }

    #[test]
    fn union_all_thread_counts() {
        let a = entries((0..500).map(|i| 2 * i));
        let b = entries((0..500).map(|i| 2 * i + 1));
        for threads in [1usize, 2, 4, 8] {
            let t = run(union_on, &a, &b, threads);
            assert_eq!(t.to_sorted_vec().len(), 1000, "threads={threads}");
            assert!(t.check_invariants());
        }
    }

    #[test]
    fn diff_matches_oracle() {
        let a = entries(0..300);
        let b = entries((0..300).filter(|k| k % 3 == 0));
        let t = run(diff_on, &a, &b, 4);
        assert!(t.check_invariants());
        assert_eq!(
            t.to_sorted_vec(),
            (0..300).filter(|k| k % 3 != 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn diff_complete_overlap() {
        let a = entries(0..100);
        assert!(run(diff_on, &a, &a, 3).is_leaf());
    }

    #[test]
    fn intersect_matches_cost_model() {
        let a = entries((0..300).map(|i| 2 * i));
        let b = entries((0..300).map(|i| 3 * i));
        let (model_root, _) = run_intersect(&a, &b, Mode::Pipelined);
        let t = run(intersect_on, &a, &b, 4);
        assert!(t.check_invariants());
        assert_eq!(t.to_sorted_vec(), model_root.get().to_sorted_vec());
        assert_eq!(t.height(), model_root.get().height());
    }

    #[test]
    fn union_stress() {
        let a = entries((0..200).map(|i| 3 * i));
        let b = entries((0..200).map(|i| 3 * i + 1));
        let mut expect: Vec<i64> = a.iter().chain(b.iter()).map(|e| e.0).collect();
        expect.sort_unstable();
        for _ in 0..30 {
            assert_eq!(run(union_on, &a, &b, 4).to_sorted_vec(), expect);
        }
    }
}
