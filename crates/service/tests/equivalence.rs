//! Mode-equivalence test: applying one seeded workload in pipelined and
//! barriered mode must leave every shard with the identical final tree —
//! keys, priorities and shape, including when injected faults degrade
//! waves — and both must match a sequential oracle replayed from the
//! per-wave outcomes.
//!
//! This is the safety half of the PR-6 claim: cross-batch pipelining
//! (and its wave-by-wave replay of a failed window) is purely a
//! scheduling change, never a semantic one.

use std::collections::{BTreeSet, HashSet};
use std::time::Duration;

use pf_algs::plain::{splitmix64, Entry, PlainTreap};
use pf_service::{
    ApplyMode, DrainReport, Fault, OpKind, Request, ServiceConfig, SetService, ShardMap,
};
use pf_tests::{assert_complete, fold, Plain};
use rand::prelude::*;
use rand::rngs::SmallRng;

const KEYSPACE: i64 = 100_000;
const SHARDS: usize = 4;
const PANIC_TAG: u64 = 13;
const WEDGE_TAG: u64 = 29;

/// A seeded mixed workload: small insert runs, pre-batched bulk inserts,
/// deletes of previously inserted keys, and two poison pills (a panic
/// and a wedge) at fixed tags.
fn workload(seed: u64) -> Vec<Request<i64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reqs = Vec::new();
    let mut live: Vec<i64> = Vec::new();
    for tag in 0..40u64 {
        let req = if tag == PANIC_TAG {
            let batch: Vec<(i64, u64)> = (0..50)
                .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen()))
                .collect();
            Request::insert(batch).faulty(Fault::Panic)
        } else if tag == WEDGE_TAG {
            let batch: Vec<(i64, u64)> = (0..50)
                .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen()))
                .collect();
            Request::insert(batch).faulty(Fault::Wedge)
        } else {
            match rng.gen_range(0..10) {
                // Small insert run material.
                0..=4 => {
                    let batch: Vec<(i64, u64)> = (0..rng.gen_range(1..12))
                        .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen()))
                        .collect();
                    live.extend(batch.iter().map(|e| e.0));
                    Request::insert(batch)
                }
                // Pre-batched bulk insert (merges into its wave's one run).
                5..=7 => {
                    let batch: Vec<(i64, u64)> = (0..rng.gen_range(100..300))
                        .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen()))
                        .collect();
                    live.extend(batch.iter().map(|e| e.0));
                    Request::insert(batch)
                }
                // Delete a sample of keys inserted so far (plus misses).
                _ => {
                    let batch: Vec<(i64, u64)> = (0..rng.gen_range(10..60))
                        .map(|_| {
                            if !live.is_empty() && rng.gen_bool(0.7) {
                                (live[rng.gen_range(0..live.len())], 0)
                            } else {
                                (rng.gen_range(0..KEYSPACE), 0)
                            }
                        })
                        .collect();
                    Request::delete(batch)
                }
            }
        };
        reqs.push(req.tagged(tag));
    }
    reqs
}

/// Every shard's committed tree, as its entries in preorder: with the key
/// order, that fixes keys, priorities and shape.
fn trees(svc: &SetService<i64>) -> Vec<Vec<Entry<i64>>> {
    (0..svc.shards())
        .map(|i| svc.snapshot(i).preorder())
        .collect()
}

/// Run the workload in one mode: the service, the served (shard, tag)
/// pairs, and the drain report.
fn run(mode: ApplyMode) -> (SetService<i64>, HashSet<(usize, u64)>, DrainReport) {
    let cfg = ServiceConfig {
        threads: 2,
        mode,
        // Short deadline so the wedged wave degrades quickly.
        deadline: Some(Duration::from_millis(400)),
        // Faster still: the wedge freezes the session's progress epoch,
        // so the heartbeat stall detector (PR 10) declares it well
        // before the deadline — including on its retry attempts.
        stall_budget: Some(Duration::from_millis(150)),
        ..ServiceConfig::default()
    };
    let svc = SetService::new(ShardMap::uniform(SHARDS, 0, KEYSPACE), cfg);
    for req in workload(42) {
        svc.submit(req);
    }
    let report = svc.pump();
    let served = report
        .outcomes
        .iter()
        .filter(|o| o.served)
        .flat_map(|o| o.tags.iter().map(move |t| (o.shard, *t)))
        .collect();
    (svc, served, report)
}

/// Sequential oracle: split each request with the same shard map and
/// fold its sub-batch into a per-shard `PlainTreap` iff that (shard, tag)
/// was served.
fn oracle(served: &HashSet<(usize, u64)>) -> Vec<Plain> {
    let map = ShardMap::uniform(SHARDS, 0, KEYSPACE);
    let mut trees: Vec<Plain> = vec![None; SHARDS];
    for req in workload(42) {
        for (shard, part) in map.split(req.entries).into_iter().enumerate() {
            if part.is_empty() || !served.contains(&(shard, req.tag)) {
                continue;
            }
            trees[shard] = apply(trees[shard].take(), req.kind, &part);
        }
    }
    trees
}

/// One request's entries folded into `t` by the oracle.
fn apply(t: Plain, kind: OpKind, entries: &[Entry<i64>]) -> Plain {
    match kind {
        OpKind::Insert => fold(t, &[], entries),
        OpKind::Delete => fold(t, &entries.iter().map(|e| e.0).collect::<Vec<_>>(), &[]),
    }
}

#[test]
fn pipelined_and_barriered_agree_with_oracle_under_faults() {
    let (svc_p, served_p, report_p) = run(ApplyMode::Pipelined);
    let (svc_b, served_b, report_b) = run(ApplyMode::Barriered);

    // Both modes degrade exactly the same requests: the two poison
    // pills, in every shard their keys landed in.
    assert_eq!(served_p, served_b, "modes served different request sets");
    for report in [&report_p, &report_b] {
        assert!(report.degraded > 0, "poison pills should degrade waves");
        for o in &report.outcomes {
            let poisoned = o.tags.contains(&PANIC_TAG) || o.tags.contains(&WEDGE_TAG);
            assert_eq!(
                o.served, !poisoned,
                "wave fate must track fault injection exactly: {o:?}"
            );
        }
    }

    // The failed pipelined windows were replayed wave-by-wave, and the
    // healthy replayed waves committed.
    assert!(
        report_p.outcomes.iter().any(|o| o.replayed && o.served),
        "pipelined mode should recover healthy waves via replay"
    );
    assert!(!report_b.outcomes.iter().any(|o| o.replayed));

    // Both modes commit the oracle's tree on every shard.
    for (i, want) in oracle(&served_p).iter().enumerate() {
        assert_complete(&svc_p.snapshot(i), want, &format!("pipelined, shard {i}"));
        assert_complete(&svc_b.snapshot(i), want, &format!("barriered, shard {i}"));
        assert!(want.is_some(), "shard {i} ended empty — weak test");
    }
}

/// The concurrent `drive()` path and the sequential `pump()` path agree
/// on the fault-free workload of `seed` over `shards` shards: the same
/// tree per shard, and every request served on both. `drive` applies
/// shard 0 on its calling thread once every request is fed, so that
/// shard's windows group differently from `pump`'s; its tree must not.
fn drive_matches_pump(shards: usize, seed: u64) {
    let reqs: Vec<Request<i64>> = workload(seed)
        .into_iter()
        .map(|r| r.faulty(Fault::None))
        .collect();

    let cfg = ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    };
    let svc_a = SetService::new(ShardMap::uniform(shards, 0, KEYSPACE), cfg);
    let report_a = svc_a.drive(reqs.clone());
    assert_eq!(report_a.degraded, 0);

    let svc_b = SetService::new(ShardMap::uniform(shards, 0, KEYSPACE), cfg);
    for r in reqs {
        svc_b.submit(r);
    }
    let report_b = svc_b.pump();
    assert_eq!(report_b.degraded, 0);

    assert_eq!(trees(&svc_a), trees(&svc_b), "{shards} shards");
    for i in 0..shards {
        assert_eq!(svc_a.shard_keys(i), svc_b.shard_keys(i));
    }
    // Every request was served on both paths. (Not `keys_applied`: it
    // counts each wave's keys after deduplication, and which requests
    // share a wave under `drive` depends on what each shard's applier
    // finds queued when it starts a window.)
    let served = |r: &DrainReport| {
        r.outcomes
            .iter()
            .filter(|o| o.served)
            .flat_map(|o| o.tags.iter().copied())
            .collect::<BTreeSet<u64>>()
    };
    assert_eq!(served(&report_a), (0..40).collect());
    assert_eq!(served(&report_b), served(&report_a));
}

#[test]
fn healthy_drive_matches_pump() {
    drive_matches_pump(SHARDS, 7);
}

#[test]
fn drive_matches_pump_on_one_shard_and_on_four() {
    // One shard: the calling thread applies everything, after the feed.
    drive_matches_pump(1, 11);
    drive_matches_pump(4, 11);
}

#[test]
fn a_window_closes_at_its_key_budget() {
    // Six waves of 200 keys (alternating kinds keep them apart): with
    // window = 8 one session would take them all, but the key budget is
    // 8 × 64 = 512, so windows hold two waves each. A wave larger than
    // the whole budget still gets a window of its own.
    let cfg = ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    };
    let svc = SetService::new(ShardMap::uniform(1, 0, KEYSPACE), cfg);
    let batch = |from: i64| {
        (from..from + 200)
            .map(|k| (k, k as u64))
            .collect::<Vec<_>>()
    };
    for w in 0..6 {
        svc.submit(if w % 2 == 0 {
            Request::insert(batch(200 * w))
        } else {
            Request::delete(batch(200 * (w - 1)))
        });
    }
    svc.submit(Request::insert(
        batch(5000)
            .into_iter()
            .chain(batch(6000))
            .chain(batch(7000))
            .collect(),
    ));
    let report = svc.pump();
    assert_eq!((report.served, report.degraded), (7, 0));
    assert_eq!(report.sessions, 4, "windows of 2 + 2 + 2 + 1 waves");
    assert_eq!(svc.shard_keys(0).len(), 600);
}

#[test]
fn one_window_applies_its_net_effect_in_both_modes() {
    // Inline: a 100-key root, against which every wave is within the
    // grain. Pooled: a 2^17-key root and a 479-key large request — the
    // window keeps to its 512-key budget, but its last wave is over the
    // grain, so one session applies the whole window; barriered, that
    // wave alone is pooled.
    window_net_effect(100, 70, [(1, 1), (4, 4)]);
    window_net_effect(1 << 17, 479, [(1, 0), (4, 3)]);
}

/// A committed root of `base_keys` keys, then four waves that one
/// pipelined window takes together (kinds alternate, so none merge):
/// delete the root's key; re-insert it at a lower priority, and re-insert
/// a present key higher; delete absent keys; re-insert that present key
/// lower, and a key twice in the wave's one run, high in a small request,
/// then low in a large one of `large_keys` more keys. Pipelined and
/// barriered, the window's passes are `(sessions, inline)` of `passes`,
/// and both commit the oracle's tree.
fn window_net_effect(base_keys: u64, large_keys: i64, passes: [(u64, u64); 2]) {
    let base: Vec<Entry<i64>> = (0..base_keys)
        .map(|k| (2 * k as i64, splitmix64(k)))
        .collect();
    let root = *base.iter().max_by_key(|e| e.1).unwrap();
    let present = base[base.len() / 3];
    assert_ne!(present.0, root.0);
    let shared = 301;
    let large: Vec<Entry<i64>> = (400..400 + large_keys)
        .map(|k| (k, splitmix64(k as u64)))
        .collect();
    let large = [large, vec![(shared, 7)]].concat();
    let window = [
        Request::delete(vec![(root.0, 0)]),
        Request::insert(vec![(root.0, 5)]),
        Request::insert(vec![(present.0, present.1 + 1000)]),
        Request::delete(vec![(-3, 0), (1001, 0)]),
        Request::insert(vec![(present.0, present.1 - 1000)]),
        Request::insert(vec![(shared, 1 << 50)]),
        Request::insert(large),
    ];
    let base_tree = PlainTreap::from_entries(&base);
    let want = (window.iter()).fold(base_tree, |t, r| apply(t, r.kind, &r.entries));
    for (mode, passes) in [ApplyMode::Pipelined, ApplyMode::Barriered]
        .into_iter()
        .zip(passes)
    {
        let cfg = ServiceConfig {
            threads: 2,
            mode,
            ..ServiceConfig::default()
        };
        let svc = SetService::new(ShardMap::uniform(1, -10, 2000), cfg);
        svc.submit(Request::insert(base.clone()));
        assert_eq!(svc.pump().served, 1);
        for r in &window {
            svc.submit(r.clone());
        }
        let report = svc.pump();
        assert_eq!(report.served, 4, "{mode:?}");
        assert_eq!((report.sessions, report.inline), passes, "{mode:?}");
        assert_complete(&svc.snapshot(0), &want, &format!("{mode:?}"));
    }
}
