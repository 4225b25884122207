//! Regression pins for the hand-pipelined baseline simulators.
//!
//! The round-barrier refactor (running Cole / PVW on the worker pool) must
//! keep the *virtual-time* numbers bit-identical: the synchronous stage /
//! round counts and the counted work are the quantities experiments
//! E16/E18 compare against the futures DAG depth, so any drift there would
//! silently change the paper comparison. These values were captured from
//! the pre-refactor single-threaded simulators and must never change.

use pf_algs::cole::cole_sort;
use pf_algs::pvw::{pvw_insert_many, PvwTree};
use rand::prelude::*;
use rand::rngs::SmallRng;

#[test]
fn cole_stage_counts_are_pinned() {
    // stages = 3·lg n exactly on power-of-two inputs; work is deterministic
    // for a fixed shuffle seed.
    for (lg, expect_stages, expect_work) in [
        (4u32, 12u64, 98u64),
        (6, 18, 642),
        (8, 24, 3586),
        (10, 30, 18434),
    ] {
        let n = 1usize << lg;
        let mut keys: Vec<i64> = (0..n as i64).collect();
        keys.shuffle(&mut SmallRng::seed_from_u64(77));
        let (sorted, s) = cole_sort(&keys);
        assert_eq!(sorted.len(), n);
        assert_eq!(s.stages, expect_stages, "cole stages at n=2^{lg}");
        assert_eq!(s.work, expect_work, "cole work at n=2^{lg}");
    }
}

#[test]
fn pvw_round_counts_are_pinned() {
    // rounds ≈ 2·lg m + lg n + O(1); exact values pinned per workload.
    for (n, m, expect_rounds, expect_work, expect_waves) in [
        (1usize << 10, 1usize << 4, 15u64, 172u64, 5usize),
        (1 << 12, 1 << 6, 20, 695, 7),
        (1 << 14, 1 << 6, 21, 766, 7),
        (1 << 12, 1 << 8, 24, 2688, 9),
    ] {
        let initial: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
        let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
        let mut t = PvwTree::from_sorted(&initial);
        let stats = pvw_insert_many(&mut t, &newk);
        t.validate().unwrap();
        assert_eq!(stats.rounds, expect_rounds, "pvw rounds n={n} m={m}");
        assert_eq!(stats.work, expect_work, "pvw work n={n} m={m}");
        assert_eq!(stats.waves, expect_waves, "pvw waves n={n} m={m}");
    }
}
