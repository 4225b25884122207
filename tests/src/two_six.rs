//! The §3.4 2-6 tree bulk insert (Theorem 3.13) on `Seq` and the
//! simulator: valid trees of the right keys, then the simulator's cost
//! assertions.

mod tests {
    use pf_algs::start::insert_many_on;
    use pf_algs::two_six::{insert_many, TsTree};
    use pf_algs::Seq;
    use pf_core::{Ctx, Sim};

    use crate::sim::run_insert_many;
    use crate::*;

    #[test]
    fn insert_on_the_oracle() {
        for (n, m) in [(0, 50), (10, 3), (200, 64), (333, 100)] {
            check_insert26::<Seq>(&evens(n), &odds(m));
        }
    }

    #[test]
    fn reinsert_is_noop_on_the_oracle() {
        check_insert26::<Seq>(&evens(100), &evens(50));
    }

    #[test]
    fn insert_into_empty() {
        check_insert26::<Ctx>(&[], &(0..50).collect::<Vec<_>>());
    }

    #[test]
    fn insert_correct_many_sizes() {
        for (n, m) in [(10, 3), (50, 20), (200, 64), (333, 100), (1000, 1)] {
            check_insert26::<Ctx>(&evens(n), &odds(m));
        }
    }

    /// Inserted keys spread across the whole key space.
    #[test]
    fn insert_spread_keys() {
        let initial: Vec<i64> = (0..500).map(|i| 10 * i).collect();
        let keys: Vec<i64> = (0..200).map(|i| 25 * i + 1).collect();
        check_insert26::<Ctx>(&initial, &keys);
    }

    /// Set semantics: re-inserting existing keys is a no-op.
    #[test]
    fn insert_duplicates_of_existing_keys() {
        check_insert26::<Ctx>(&evens(100), &evens(50));
    }

    #[test]
    fn strict_same_result() {
        let (initial, keys) = (evens(300), (0..100).map(|i| 6 * i + 1).collect::<Vec<_>>());
        strict_vs_pipelined(
            |ctx, m| insert_many_on(ctx, &initial, &keys, m),
            TsTree::to_sorted_vec,
        );
    }

    #[test]
    fn pipelined_depth_beats_strict() {
        let (initial, keys) = (evens(1 << 12), odds(1 << 8));
        let [p, s] = strict_vs_pipelined(
            |ctx, m| insert_many_on(ctx, &initial, &keys, m),
            TsTree::to_sorted_vec,
        );
        // lg m = 8 waves of depth ~lg n each vs pipelined lg n + lg m.
        assert!(
            s.depth as f64 > 1.8 * p.depth as f64,
            "strict {} vs pipelined {}",
            s.depth,
            p.depth
        );
    }

    #[test]
    fn depth_logarithmic_in_n() {
        let d = |n: usize| run_insert_many(&evens(n), &odds(64), M).1.depth as i64;
        let (d1, d2, d3) = (d(1 << 9), d(1 << 10), d(1 << 11));
        let (g1, g2) = (d2 - d1, d3 - d2);
        assert!(
            g2 < g1 + d1 / 3,
            "doubling n should add ~constant depth: {d1} {d2} {d3}"
        );
    }

    #[test]
    fn insert_is_linear_code() {
        assert!(run_insert_many(&evens(200), &odds(64), M).1.is_linear());
    }

    /// Repeated bulk inserts force many root splits.
    #[test]
    fn tall_tree_after_many_inserts_stays_valid() {
        let (root, _) = Sim::new().run(|ctx| {
            let mut cur = ctx.preload(TsTree::<Ctx, i64>::empty());
            for round in 0..6i64 {
                let keys: Vec<i64> = (0..100).map(|i| i * 7 + round).collect();
                cur = insert_many(ctx, &keys, cur, M);
            }
            cur
        });
        let t = root.get();
        t.validate().unwrap();
        assert!(t.height() >= 2);
    }
}
