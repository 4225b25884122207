//! [`crate::two_six`] on the work-stealing runtime: the §3.4 bulk insert
//! starter at `B = pf_rt::Worker`.

mod tests {
    use crate::start::insert_many_on;
    use crate::testkit::{evens, on_rt, run_insert_many};
    use crate::two_six::TsTree;
    use crate::Mode;
    use pf_rt::Worker;

    fn run_insert(initial: &[i64], newk: &[i64], threads: usize) -> TsTree<Worker, i64> {
        let (initial, newk) = (initial.to_vec(), newk.to_vec());
        on_rt(threads, move |wk| {
            insert_many_on(wk, &initial, &newk, Mode::Pipelined)
        })
    }

    #[test]
    fn builder_valid() {
        for n in [0usize, 1, 5, 27, 300] {
            let t = run_insert(&evens(n), &[], 1);
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(t.to_sorted_vec(), evens(n));
        }
    }

    #[test]
    fn insert_correct_across_threads() {
        let initial = evens(400);
        let newk: Vec<i64> = (0..100).map(|i| 8 * i + 1).collect();
        let mut expect = initial.clone();
        expect.extend(&newk);
        expect.sort_unstable();
        for threads in [1usize, 2, 4] {
            let t = run_insert(&initial, &newk, threads);
            t.validate().unwrap();
            assert_eq!(t.to_sorted_vec(), expect, "threads={threads}");
        }
    }

    #[test]
    fn insert_into_empty() {
        let keys: Vec<i64> = (0..64).collect();
        let t = run_insert(&[], &keys, 3);
        t.validate().unwrap();
        assert_eq!(t.to_sorted_vec(), keys);
    }

    #[test]
    fn agrees_with_cost_model_version() {
        let initial = evens(1000);
        let newk: Vec<i64> = (0..300).map(|i| 6 * i + 3).collect();
        let (root, _) = run_insert_many(&initial, &newk, Mode::Pipelined);
        let rt_tree = run_insert(&initial, &newk, 4);
        assert_eq!(rt_tree.to_sorted_vec(), root.get().to_sorted_vec());
    }

    #[test]
    fn stress_repeated() {
        let initial = evens(200);
        let newk: Vec<i64> = (0..80).map(|i| 4 * i + 1).collect();
        let mut expect = initial.clone();
        expect.extend(&newk);
        expect.sort_unstable();
        for _ in 0..25 {
            let t = run_insert(&initial, &newk, 4);
            assert_eq!(t.to_sorted_vec(), expect);
        }
    }
}
