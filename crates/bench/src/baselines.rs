//! Wall-clock drivers for the futures-vs-hand-pipelined head-to-heads
//! (experiments E13/E16/E18): each pair times the *same computation* twice
//! on the same warm shared pool ([`Runtime::shared`]) — once as the futures
//! program (the scheduler discovers the pipeline) and once as the
//! hand-scheduled round-barrier baseline ([`pf_rt::PoolRounds`], one synchronous
//! wave per round). Sequential round execution ([`pf_algs::SeqRounds`]),
//! `sort_unstable` and `BTreeSet::extend` give the single-thread reference
//! points. Input construction is outside every clock.

use std::time::{Duration, Instant};

use pf_algs::cole::{cole_sort_with, ColeStats};
use pf_algs::pvw::{pvw_insert_many_with, PvwStats, PvwTree};
use pf_algs::start::msort_on;
use pf_algs::two_six::{insert_many, TsTree};
use pf_algs::{Mode, PipeBackend, RoundExec, Val};
use pf_rt::{cell, ready, FutRead, RunStats, Runtime, Worker};

/// Run `f` `reps` times and return the minimum (the standard noise filter
/// for wall-clock microbenchmarks).
pub fn best_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    assert!(reps >= 1);
    (0..reps).map(|_| f()).min().expect("reps >= 1")
}

/// What `start` — a `pf_algs::start` starter, say — leaves in the future
/// it returns, run as one session of `rt`, and that session's stats.
pub fn on_rt<T: Val>(
    rt: &Runtime,
    start: impl FnOnce(&Worker) -> FutRead<T> + Send + 'static,
) -> (T, RunStats) {
    let (p, f) = cell();
    let stats = rt.run_stats(move |wk| p.fulfill(wk, start(wk)));
    (f.expect().expect(), stats)
}

/// Time the futures 2-6 bulk insert on `threads` workers — the
/// implicit-pipelining side of the E16 comparison. The initial tree is
/// built in an untimed session of its own, as [`time_pvw`]'s is
/// built before its clock.
pub fn time_insert_rt(initial: &[i64], newk: &[i64], threads: usize) -> Duration {
    let rt = Runtime::shared(threads);
    let (initial_v, keys) = (initial.to_vec(), newk.to_vec());
    let (tree, _) = on_rt(&rt, move |wk| wk.input(TsTree::from_sorted(wk, &initial_v)));
    let start = Instant::now();
    let (tree, _) = on_rt(&rt, move |wk| {
        insert_many(wk, &keys, ready(tree), Mode::Pipelined)
    });
    let dt = start.elapsed();
    assert!(tree.to_sorted_vec().len() >= initial.len());
    dt
}

/// Sequential baseline for the bulk insert: a `BTreeSet` extended with the
/// batch (what a production sequential index would do).
pub fn time_insert_seq(initial: &[i64], newk: &[i64]) -> Duration {
    let mut set: std::collections::BTreeSet<i64> = initial.iter().copied().collect();
    let start = Instant::now();
    set.extend(newk.iter().copied());
    let dt = start.elapsed();
    assert!(set.len() >= initial.len());
    dt
}

/// Time the futures mergesort (`pf_algs::mergesort::msort`) on `threads`
/// workers — the implicit-pipelining side of the E18 comparison.
pub fn time_msort_rt(keys: &[i64], threads: usize) -> Duration {
    let rt = Runtime::shared(threads);
    let keys_v = keys.to_vec();
    let start = Instant::now();
    let (tree, _) = on_rt(&rt, move |wk| msort_on(wk, &keys_v, false, Mode::Pipelined));
    let dt = start.elapsed();
    assert_eq!(tree.to_sorted_vec().len(), keys.len());
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

/// Time Cole's cascade on `exec`: `PoolRounds` fans each stage's merges
/// out over its pool workers — the hand-pipelined side of the E18
/// comparison — and `SeqRounds` runs them inline, the single-thread
/// reference for the round-barrier engine. Returns the elapsed time and
/// the (executor-independent) cascade statistics.
pub fn time_cole(keys: &[i64], exec: &mut impl RoundExec) -> (Duration, ColeStats) {
    let start = Instant::now();
    let (sorted, stats) = cole_sort_with(keys, exec);
    let dt = start.elapsed();
    assert_eq!(sorted.len(), keys.len());
    (dt, stats)
}

/// Time the PVW wave pipeline on `exec` (`PoolRounds`: the hand-pipelined
/// side of the E16 comparison; `SeqRounds`: its single-thread reference).
/// Tree construction is excluded (input marshalling).
pub fn time_pvw(initial: &[i64], newk: &[i64], exec: &mut impl RoundExec) -> (Duration, PvwStats) {
    let mut tree = PvwTree::from_sorted(initial);
    let start = Instant::now();
    let stats = pvw_insert_many_with(&mut tree, newk, exec);
    let dt = start.elapsed();
    assert!(tree.to_sorted_vec().len() >= initial.len());
    (dt, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_algs::SeqRounds;
    use pf_rt::PoolRounds;

    fn scrambled(n: usize) -> Vec<i64> {
        // Odd-stride permutation of 0..n: deterministic, full-period.
        let stride = 0x9E37i64 | 1;
        (0..n as i64).map(|i| (i * stride) % n as i64).collect()
    }

    #[test]
    fn best_of_takes_min() {
        let mut calls = 0;
        let d = best_of(3, || {
            calls += 1;
            Duration::from_millis(calls)
        });
        assert_eq!(d, Duration::from_millis(1));
    }

    #[test]
    fn msort_driver_sorts() {
        assert!(time_msort_rt(&scrambled(2000), 2) > Duration::ZERO);
        let _ = time_sort_seq(&scrambled(2000));
    }

    #[test]
    fn cole_pool_matches_seq_stats() {
        let keys = scrambled(1 << 9);
        let (_, s_pool) = time_cole(&keys, &mut PoolRounds::new(2));
        let (_, s_seq) = time_cole(&keys, &mut SeqRounds::new());
        assert_eq!(s_pool, s_seq, "stats must be executor-independent");
        assert_eq!(s_pool.stages, 3 * 9);
    }

    #[test]
    fn pvw_pool_matches_seq_stats() {
        let initial: Vec<i64> = (0..2000).map(|i| 2 * i).collect();
        let newk: Vec<i64> = (0..128).map(|i| 2 * i + 1).collect();
        let (_, s_pool) = time_pvw(&initial, &newk, &mut PoolRounds::new(2));
        let (_, s_seq) = time_pvw(&initial, &newk, &mut SeqRounds::new());
        assert_eq!(s_pool, s_seq, "stats must be executor-independent");
        assert!(time_insert_rt(&initial, &newk, 2) > Duration::ZERO);
        let _ = time_insert_seq(&initial, &newk);
    }
}
