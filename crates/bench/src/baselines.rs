//! Wall-clock drivers for the futures-vs-hand-pipelined head-to-heads
//! (experiments E13/E16/E18): each pair times the *same computation* twice
//! on the same warm shared pool — once as the futures program (the
//! scheduler discovers the pipeline) and once as the hand-scheduled
//! round-barrier baseline ([`PoolRounds`], one synchronous wave per
//! round). Sequential round execution ([`SeqRounds`]) and `sort_unstable`
//! give the single-thread reference points.

use std::time::{Duration, Instant};

use pf_algs::cole::{cole_sort_with, ColeStats};
use pf_algs::pvw::{pvw_insert_many_with, PvwStats, PvwTree};
use pf_algs::{Mode, SeqRounds};
use pf_rt::{cell, PoolRounds, Runtime};

/// Time the futures mergesort (`pf_algs::mergesort::msort`) on `threads`
/// workers — the implicit-pipelining side of the E18 comparison.
pub fn time_msort_rt(keys: &[i64], threads: usize) -> Duration {
    let rt = Runtime::shared(threads);
    let (op, of) = cell();
    let keys_v = keys.to_vec();
    let start = Instant::now();
    rt.run(move |wk| pf_algs::mergesort::msort(wk, keys_v, op, Mode::Pipelined));
    let dt = start.elapsed();
    assert_eq!(of.expect().to_sorted_vec().len(), keys.len());
    dt
}

/// Sequential sorting baseline: `sort_unstable` on a fresh copy (what a
/// sequential implementation would do).
pub fn time_sort_seq(keys: &[i64]) -> Duration {
    let mut v = keys.to_vec();
    let start = Instant::now();
    v.sort_unstable();
    let dt = start.elapsed();
    assert!(v.windows(2).all(|w| w[0] <= w[1]));
    dt
}

/// Time Cole's cascade with each stage's merges fanned out over `threads`
/// pool workers — the hand-pipelined side of the E18 comparison. Returns
/// the elapsed time and the (executor-independent) cascade statistics.
pub fn time_cole_pool(keys: &[i64], threads: usize) -> (Duration, ColeStats) {
    let mut exec = PoolRounds::new(threads);
    let start = Instant::now();
    let (sorted, stats) = cole_sort_with(keys, &mut exec);
    let dt = start.elapsed();
    assert_eq!(sorted.len(), keys.len());
    (dt, stats)
}

/// Time Cole's cascade with the stages run inline ([`SeqRounds`]) — the
/// single-thread reference for the round-barrier engine.
pub fn time_cole_seq(keys: &[i64]) -> (Duration, ColeStats) {
    let mut exec = SeqRounds::new();
    let start = Instant::now();
    let (sorted, stats) = cole_sort_with(keys, &mut exec);
    let dt = start.elapsed();
    assert_eq!(sorted.len(), keys.len());
    (dt, stats)
}

/// Time the PVW wave pipeline with each round's tasks fanned out over
/// `threads` pool workers — the hand-pipelined side of the E16 comparison.
/// Tree construction is excluded (input marshalling).
pub fn time_pvw_pool(initial: &[i64], newk: &[i64], threads: usize) -> (Duration, PvwStats) {
    let mut tree = PvwTree::from_sorted(initial);
    let mut exec = PoolRounds::new(threads);
    let start = Instant::now();
    let stats = pvw_insert_many_with(&mut tree, newk, &mut exec);
    let dt = start.elapsed();
    assert!(tree.to_sorted_vec().len() >= initial.len());
    (dt, stats)
}

/// Time the PVW wave pipeline with the rounds run inline ([`SeqRounds`]) —
/// the single-thread reference for the round-barrier engine.
pub fn time_pvw_seq(initial: &[i64], newk: &[i64]) -> (Duration, PvwStats) {
    let mut tree = PvwTree::from_sorted(initial);
    let mut exec = SeqRounds::new();
    let start = Instant::now();
    let stats = pvw_insert_many_with(&mut tree, newk, &mut exec);
    let dt = start.elapsed();
    assert!(tree.to_sorted_vec().len() >= initial.len());
    (dt, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrambled(n: usize) -> Vec<i64> {
        // Odd-stride permutation of 0..n: deterministic, full-period.
        let stride = 0x9E37i64 | 1;
        (0..n as i64).map(|i| (i * stride) % n as i64).collect()
    }

    #[test]
    fn msort_driver_sorts() {
        assert!(time_msort_rt(&scrambled(2000), 2) > Duration::ZERO);
        let _ = time_sort_seq(&scrambled(2000));
    }

    #[test]
    fn cole_pool_matches_seq_stats() {
        let keys = scrambled(1 << 9);
        let (_, s_pool) = time_cole_pool(&keys, 2);
        let (_, s_seq) = time_cole_seq(&keys);
        assert_eq!(s_pool, s_seq, "stats must be executor-independent");
        assert_eq!(s_pool.stages, 3 * 9);
    }

    #[test]
    fn pvw_pool_matches_seq_stats() {
        let initial: Vec<i64> = (0..2000).map(|i| 2 * i).collect();
        let newk: Vec<i64> = (0..128).map(|i| 2 * i + 1).collect();
        let (_, s_pool) = time_pvw_pool(&initial, &newk, 2);
        let (_, s_seq) = time_pvw_seq(&initial, &newk);
        assert_eq!(s_pool, s_seq, "stats must be executor-independent");
        let _ = crate::drivers::time_insert_rt(&initial, &newk, 2);
    }
}
