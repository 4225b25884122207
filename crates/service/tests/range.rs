//! Range queries over committed snapshot roots: `SetService::range`
//! routes `[lo, hi)` through the contiguous run of owning shards and
//! concatenates their pruned in-order walks — checked against a
//! `BTreeSet` oracle, across shard boundaries, inside and across the
//! sorted blocks at the bottom of a committed root, and concurrently with
//! in-flight apply sessions (snapshot semantics: a scan never blocks
//! and never sees a half-applied wave in any single shard).

use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Included};

use pf_algs::plain::PlainTreap;
use pf_algs::treap::Treap;
use pf_rt::Worker;
use pf_service::{Request, ServiceConfig, SetService, ShardMap};
use pf_tests::{assert_complete, fold, Plain};
use rand::prelude::*;
use rand::rngs::SmallRng;

const KEYSPACE: i64 = 10_000;
const SHARDS: usize = 4;

/// `n` random keys, all of priority 0 (so each shard's treap is one
/// spine: a tie goes to the larger key), behind a 4-shard service.
fn seeded_service(seed: u64, n: usize) -> (SetService<i64>, BTreeSet<i64>) {
    seeded_with(seed, n, |_| 0)
}

fn seeded_with(
    seed: u64,
    n: usize,
    prio: impl Fn(&mut SmallRng) -> u64,
) -> (SetService<i64>, BTreeSet<i64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let keys: Vec<(i64, u64)> = (0..n)
        .map(|_| (rng.gen_range(0..KEYSPACE), prio(&mut rng)))
        .collect();
    let oracle: BTreeSet<i64> = keys.iter().map(|e| e.0).collect();
    let svc = SetService::new(
        ShardMap::uniform(SHARDS, 0, KEYSPACE),
        ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        },
    );
    svc.submit(Request::insert(keys));
    let report = svc.pump();
    assert_eq!(report.degraded, 0);
    (svc, oracle)
}

fn oracle_range(set: &BTreeSet<i64>, lo: i64, hi: i64) -> Vec<i64> {
    if lo >= hi {
        return Vec::new();
    }
    set.range((Included(lo), Excluded(hi))).copied().collect()
}

/// The keys of each block of a committed root, in key order — after
/// checking that the root is canonical on the way down: no cell anywhere,
/// and every node sized over more than 32 keys (32 or fewer are a block).
fn block_runs(t: &Treap<Worker, i64>, out: &mut Vec<Vec<i64>>) {
    match t {
        Treap::Leaf => {}
        Treap::Node(n) => {
            assert!(
                n.size > 32,
                "a node over {} keys in a committed root",
                n.size
            );
            for child in [&n.left, &n.right] {
                block_runs(child.done().expect("a cell in a committed root"), out);
            }
        }
        Treap::Block(b) => out.push(b.iter().map(|e| e.0).collect()),
    }
}

#[test]
fn range_matches_oracle_across_shards() {
    let (svc, oracle) = seeded_service(11, 3000);
    let mut rng = SmallRng::seed_from_u64(12);
    // Random ranges, including cross-shard, single-shard, and empty.
    for _ in 0..200 {
        let a = rng.gen_range(-100..KEYSPACE + 100);
        let b = rng.gen_range(-100..KEYSPACE + 100);
        let got = svc.range(&a, &b);
        assert_eq!(got, oracle_range(&oracle, a, b), "range [{a}, {b})");
    }
    // Whole-space scan is the sorted union of every shard.
    assert_eq!(
        svc.range(&i64::MIN, &i64::MAX),
        oracle.iter().copied().collect::<Vec<_>>()
    );
}

#[test]
fn range_respects_shard_boundaries_and_bounds() {
    let (svc, oracle) = seeded_service(21, 2000);
    // Shard width for uniform(4, 0, 10_000) is 2_500: exercise ranges
    // that start/end exactly on boundaries (hi is exclusive).
    for (lo, hi) in [
        (0, 2_500),
        (2_500, 5_000),
        (2_499, 2_501),
        (0, 10_000),
        (5_000, 5_000),
        (7_000, 3_000),
    ] {
        assert_eq!(
            svc.range(&lo, &hi),
            oracle_range(&oracle, lo, hi),
            "range [{lo}, {hi})"
        );
    }
}

/// Ranges that start and end inside a block, on its first or last key,
/// just outside it, and in the next block answer as the oracle does.
#[test]
fn ranges_inside_at_the_edges_of_and_across_blocks() {
    let (svc, oracle) = seeded_with(61, 3000, |rng| rng.gen());
    for shard in 0..svc.shards() {
        let mut runs = vec![];
        block_runs(&svc.snapshot(shard), &mut runs);
        assert!(runs.len() > 10, "shard {shard}: {} blocks", runs.len());
        for (i, run) in runs.iter().enumerate() {
            let (first, last, mid) = (run[0], run[run.len() - 1], run[run.len() / 2]);
            let next = runs.get(i + 1).map_or(last + 1, |r| r[r.len() / 2]);
            for (lo, hi) in [
                (first, last + 1),
                (first + 1, last),
                (mid, mid + 1),
                (first, first + 1),
                (last, last + 1),
                (first - 1, first),
                (last + 1, next),
                (mid, next),
                (first - 1, next + 1),
            ] {
                let what = format!("range [{lo}, {hi}) around block {run:?}");
                assert_eq!(svc.range(&lo, &hi), oracle_range(&oracle, lo, hi), "{what}");
            }
        }
    }
}

#[test]
fn range_is_sorted_and_deduplicated() {
    let (svc, _) = seeded_service(31, 5000);
    let all = svc.range(&0, &KEYSPACE);
    assert!(
        all.windows(2).all(|w| w[0] < w[1]),
        "not strictly ascending"
    );
}

#[test]
fn range_scans_during_concurrent_drive() {
    // Scans walk committed snapshots only: they never block on the
    // in-flight apply sessions and always return a sorted subset of the
    // final key set (inserts only — no deletes — so monotonicity holds).
    let mut rng = SmallRng::seed_from_u64(41);
    let reqs: Vec<Request<i64>> = (0..60)
        .map(|_| {
            Request::insert(
                (0..rng.gen_range(20..80))
                    .map(|_| (rng.gen_range(0..KEYSPACE), 0))
                    .collect(),
            )
        })
        .collect();
    let oracle: BTreeSet<i64> = reqs
        .iter()
        .flat_map(|r| r.entries.iter().map(|e| e.0))
        .collect();
    let svc = SetService::new(
        ShardMap::uniform(SHARDS, 0, KEYSPACE),
        ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        },
    );
    std::thread::scope(|s| {
        let svc = &svc;
        let scanner = s.spawn(move || {
            for _ in 0..50 {
                let got = svc.range(&1_000, &9_000);
                assert!(got.windows(2).all(|w| w[0] < w[1]));
                std::thread::yield_now();
            }
        });
        let report = svc.drive(reqs.clone());
        assert_eq!(report.degraded, 0);
        scanner.join().unwrap();
    });
    assert_eq!(
        svc.range(&i64::MIN, &i64::MAX),
        oracle.iter().copied().collect::<Vec<_>>()
    );
}

#[test]
fn drive_report_carries_wall_clock_throughput() {
    let (svc, _) = seeded_service(51, 100);
    let mut rng = SmallRng::seed_from_u64(52);
    let reqs: Vec<Request<i64>> = (0..20)
        .map(|_| Request::insert((0..50).map(|_| (rng.gen_range(0..KEYSPACE), 0)).collect()))
        .collect();
    let report = svc.drive(reqs);
    assert!(report.wall.as_nanos() > 0, "drive must stamp its wall span");
    assert!(report.keys_applied > 0);
    assert!(report.keys_per_sec_wall() > 0.0);
    assert!(report.keys_per_sec_wall().is_finite());
}

/// Every committed root is sealed. A wave of more than one grain of work
/// takes the pipelined step at the top, so what its session hands back has
/// unsized nodes over future cells there; the commit rebuilds those, and
/// readers and the next wave find a complete treap (sized, so no cell is
/// left in it) in the canonical representation — the oracle's, by
/// `assert_complete` — after a multi-wave preload window, one larger-than-grain wave, a tiny
/// wave on top of that, and a larger-than-grain delete.
#[test]
fn a_committed_root_holds_no_cell() {
    const SPACE: i64 = 1 << 20;
    let mut rng = SmallRng::seed_from_u64(17);
    let svc = SetService::new(
        ShardMap::uniform(1, 0, SPACE),
        ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        },
    );
    let mut oracle: Plain = None;
    for (insert, keys) in [(true, 20_000), (true, 6_000), (true, 3), (false, 5_000)] {
        let what = format!("{keys} keys, insert={insert}");
        if insert {
            let entries: Vec<(i64, u64)> = (0..keys)
                .map(|_| (rng.gen_range(0..SPACE), rng.gen()))
                .collect();
            oracle = fold(oracle, &[], &entries);
            svc.submit(Request::insert(entries));
        } else {
            let all = PlainTreap::to_sorted_vec(&oracle);
            let gone: Vec<i64> = all.into_iter().step_by(4).take(keys).collect();
            oracle = fold(oracle, &gone, &[]);
            svc.submit(Request::delete(gone.into_iter().map(|k| (k, 0)).collect()));
        }
        assert_eq!(svc.pump().degraded, 0);
        assert_complete(&svc.snapshot(0), &oracle, &what);
        let all = PlainTreap::to_sorted_vec(&oracle);
        assert_eq!(svc.range(&i64::MIN, &i64::MAX), all, "{what}");
        assert!(all.iter().step_by(97).all(|k| svc.contains(k)), "{what}");
    }
}
