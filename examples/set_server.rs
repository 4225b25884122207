//! set_server: the "dynamic dictionary" workload of §3.2–3.3, now served
//! by the `pf-service` crate — a sharded, coalescing set service — instead
//! of a hand-rolled per-batch loop.
//!
//! A server holds a large keyset (e.g. active session ids). Batches of
//! inserts and deletes arrive tagged with request ids; the service splits
//! them by key range across shards, coalesces each shard's run into apply
//! waves, and applies each window of waves as its net effect: the keys it
//! deletes and the entries it inserts, inline when the window is small
//! against the shard, else in one fault-contained session as a pipelined
//! difference feeding a union (`ApplyMode::Pipelined`). The example
//! replays a synthetic day of traffic through the concurrent `drive()`
//! path and validates the outcome three ways:
//!
//! 1. **Key-set oracle** — every shard's final key set must equal a
//!    `BTreeSet` replay of exactly the served requests.
//! 2. **Shape oracle** — every shard's parallel treap must have the same
//!    height as a *sequential* `PlainTreap` replay of the same coalesced
//!    waves (same priorities, same tie-break ⇒ identical shape).
//! 3. **Failure model** — the traffic carries an empty batch (elided at
//!    ingress), a duplicate-key batch (deduplicated by the coalescer), a
//!    poison-pill batch whose session panics, and a batch that wedges
//!    until its deadline. Exactly the two faulty requests must degrade —
//!    in every shard their keys landed in — while the shards keep serving
//!    from their previous committed roots.
//!
//! Run with: `cargo run --release -p pf-examples --bin set_server`

use std::collections::{BTreeSet, HashSet};
use std::time::Duration;

use pf_algs::plain::{Entry, PlainTreap};
use pf_examples::banner;
use pf_service::{
    coalesce, ApplyMode, CoalescePolicy, Fault, OpKind, Request, ServiceConfig, SetService,
    ShardMap,
};
use rand::prelude::*;
use rand::rngs::SmallRng;

const KEYSPACE: i64 = 1_000_000;
const SHARDS: usize = 4;
/// Tags of the spliced-in misbehaving traffic (by final position).
const EMPTY_TAG: u64 = 6;
const PANIC_TAG: u64 = 8;
const WEDGE_TAG: u64 = 11;

/// A synthetic day of traffic: bulk insert rounds growing the live set,
/// periodic deletes of ~20% of it, plus spliced-in misbehavior — an
/// empty batch, a duplicate-carrying batch (round 4: a client retried),
/// a poison pill, and a wedger. Tags are final positions, so outcomes
/// trace back to requests.
fn synthesize_traffic(rounds: usize, seed: u64) -> Vec<Request<i64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<i64> = Vec::new();
    let mut reqs = Vec::new();
    for r in 0..rounds {
        if r % 3 == 2 && live.len() > 200 {
            // Delete a random ~20% of the live keys.
            live.shuffle(&mut rng);
            let k = live.len() / 5;
            let dead: Vec<Entry<i64>> = live.drain(..k).map(|k| (k, rng.gen())).collect();
            reqs.push(Request::delete(dead));
        } else {
            let m = rng.gen_range(200..800);
            let mut fresh: Vec<Entry<i64>> = (0..m)
                .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen::<u64>()))
                .collect();
            // Round 4: a client retried — the batch carries duplicates,
            // which the coalescer drops.
            if r == 4 {
                let dups: Vec<Entry<i64>> = fresh.iter().take(m / 4).copied().collect();
                fresh.extend(dups);
            }
            live.extend(fresh.iter().map(|e| e.0));
            live.sort_unstable();
            live.dedup();
            reqs.push(Request::insert(fresh));
        }
    }
    // Splice in the misbehaving traffic at fixed points. The faulty
    // batches carry real entries that must NOT reach the served state.
    reqs.insert(EMPTY_TAG as usize, Request::insert(Vec::new()));
    let pill: Vec<Entry<i64>> = (0..300)
        .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen()))
        .collect();
    reqs.insert(
        PANIC_TAG as usize,
        Request::insert(pill).faulty(Fault::Panic),
    );
    let slow: Vec<Entry<i64>> = (0..300)
        .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen()))
        .collect();
    reqs.insert(
        WEDGE_TAG as usize,
        Request::insert(slow).faulty(Fault::Wedge),
    );
    reqs.into_iter()
        .enumerate()
        .map(|(i, r)| r.tagged(i as u64))
        .collect()
}

/// The sub-request stream one shard sees: each request's entries
/// restricted to the shard's key range (empties dropped, tag and fault
/// preserved) — the same split `SetService::submit` performs.
fn shard_stream(reqs: &[Request<i64>], map: &ShardMap<i64>, shard: usize) -> Vec<Request<i64>> {
    reqs.iter()
        .filter_map(|r| {
            let mut parts = map.split(r.entries.clone());
            let entries = std::mem::take(&mut parts[shard]);
            if entries.is_empty() {
                None
            } else {
                Some(Request {
                    kind: r.kind,
                    entries,
                    fault: r.fault,
                    tag: r.tag,
                })
            }
        })
        .collect()
}

/// Sequential shape oracle: replay one shard's *served* coalesced waves
/// on a `PlainTreap`. Each wave is one sorted run, one entry a key, built
/// into one batch treap; the service applies the same entries, so it
/// builds the same tree however its windows grouped the waves.
fn replay_shard_plain(
    stream: Vec<Request<i64>>,
    shard: usize,
    served: &HashSet<(usize, u64)>,
    policy: &CoalescePolicy,
) -> Option<Box<PlainTreap<i64>>> {
    let mut state: Option<Box<PlainTreap<i64>>> = None;
    for wave in coalesce(stream, policy) {
        if !served.contains(&(shard, wave.tags[0])) {
            continue; // a wave serves or degrades atomically
        }
        let batch = PlainTreap::from_entries(&wave.groups[0]);
        state = match wave.kind {
            OpKind::Insert => PlainTreap::union(state, batch),
            OpKind::Delete => PlainTreap::diff(state, batch),
        };
    }
    state
}

fn main() {
    let traffic = synthesize_traffic(12, 2026);
    let total = traffic.len();

    banner("driving batched updates through pf-service (4 shards, pipelined)");
    let cfg = ServiceConfig {
        threads: 4,
        window: 4,
        mode: ApplyMode::Pipelined,
        // Generous for healthy waves; the wedged one trips it.
        deadline: Some(Duration::from_millis(500)),
        policy: CoalescePolicy::default(),
        ..ServiceConfig::default()
    };
    let map = ShardMap::uniform(SHARDS, 0, KEYSPACE);
    let svc = SetService::new(map.clone(), cfg);

    // The concurrent open-loop path: one apply thread per shard drains
    // its ingress while the main thread feeds requests in.
    let report = svc.drive(traffic.clone());

    for o in &report.outcomes {
        let kind = if o.kind == OpKind::Insert {
            "insert"
        } else {
            "delete"
        };
        let fate = if o.served { "served" } else { "DEGRADED" };
        let via = if o.replayed { " (via replay)" } else { "" };
        println!(
            "shard {} {kind:>6} wave tags {:?} {:>4} keys -> {fate}{via} in {:?}",
            o.shard, o.tags, o.keys, o.latency
        );
    }

    // 3. Failure model: exactly the two faulty requests degraded, in
    // every shard their keys landed in; the empty batch never produced
    // a wave at all (elided at ingress).
    let degraded_tags: BTreeSet<u64> = report
        .outcomes
        .iter()
        .filter(|o| !o.served)
        .flat_map(|o| o.tags.iter().copied())
        .collect();
    assert_eq!(
        degraded_tags,
        BTreeSet::from([PANIC_TAG, WEDGE_TAG]),
        "expected exactly the injected faults to degrade"
    );
    assert!(
        !report.outcomes.iter().any(|o| o.tags.contains(&EMPTY_TAG)),
        "the empty batch should be elided, not applied"
    );

    let served: HashSet<(usize, u64)> = report
        .outcomes
        .iter()
        .filter(|o| o.served)
        .flat_map(|o| o.tags.iter().map(move |t| (o.shard, *t)))
        .collect();

    for shard in 0..SHARDS {
        let stream = shard_stream(&traffic, &map, shard);

        // 1. Key-set oracle: BTreeSet replay of the served requests.
        let mut oracle: BTreeSet<i64> = BTreeSet::new();
        for r in &stream {
            if !served.contains(&(shard, r.tag)) {
                continue;
            }
            match r.kind {
                OpKind::Insert => oracle.extend(r.entries.iter().map(|e| e.0)),
                OpKind::Delete => {
                    for e in &r.entries {
                        oracle.remove(&e.0);
                    }
                }
            }
        }
        let keys = svc.shard_keys(shard);
        assert_eq!(
            keys,
            oracle.iter().copied().collect::<Vec<_>>(),
            "shard {shard} diverged from the BTreeSet oracle"
        );
        assert!(
            svc.snapshot(shard).check_invariants(),
            "treap invariants broken in shard {shard}"
        );

        // 2. Shape oracle: the parallel root matches a sequential
        // PlainTreap replay of the same coalesced waves exactly.
        let plain = replay_shard_plain(stream, shard, &served, &cfg.policy);
        assert_eq!(
            svc.snapshot(shard).height(),
            PlainTreap::height(&plain),
            "shard {shard}: parallel and sequential treaps must have identical shape"
        );

        // Snapshot reads come straight off the committed root.
        for k in keys.iter().take(3) {
            assert!(svc.contains(k));
        }
        println!(
            "shard {shard}: {:>6} keys, height {:>2} — matches BTreeSet and PlainTreap replay",
            keys.len(),
            svc.snapshot(shard).height()
        );
    }

    println!(
        "\n{total} requests -> {}/{} waves served ({} degraded) across {} sessions \
         ({} inline); {} keys applied, in-session throughput {:.0} ops/s. all shards \
         verified. done.",
        report.served,
        report.served + report.degraded,
        report.degraded,
        report.sessions,
        report.inline,
        report.keys_applied,
        report.stats.ops_per_sec(report.keys_applied)
    );
}
