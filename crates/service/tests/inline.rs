//! The inline pass: a window whose every step is within one grain is
//! applied as plain code on the calling thread and never opens a session;
//! anything else — a wave over the grain, a panic in the pass itself, an
//! injected fault (`healing.rs`) — takes the pooled session, which stays
//! the only path that reports an error.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::Duration;

use pf_algs::plain::{splitmix64, PlainTreap};
use pf_algs::treap::Treap;
use pf_service::{OpKind, Request, RetryPolicy, ServiceConfig, SetService, ShardMap};
use pf_tests::{assert_complete, fold};
use rand::prelude::*;
use rand::rngs::SmallRng;

fn cfg() -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        deadline: Some(Duration::from_millis(400)),
        stall_budget: Some(Duration::from_millis(150)),
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed: 7,
        },
        ..ServiceConfig::default()
    }
}

#[test]
fn sub_grain_windows_never_enter_the_pool_and_match_the_oracle() {
    const KEYSPACE: i64 = 10_000;
    let svc = SetService::new(ShardMap::uniform(2, 0, KEYSPACE), cfg());
    let mut rng = SmallRng::seed_from_u64(20);
    let mut oracle = BTreeSet::new();
    let (mut sessions, mut waves) = (0, 0);
    for turn in 0..200 {
        // A few requests of 1–8 keys per pump, so a window chains several
        // waves of both kinds.
        for _ in 0..rng.gen_range(1..6) {
            let entries: Vec<(i64, u64)> = (0..rng.gen_range(1..9))
                .map(|_| (rng.gen_range(0..KEYSPACE), rng.gen()))
                .collect();
            if rng.gen_bool(0.7) {
                oracle.extend(entries.iter().map(|e| e.0));
                svc.submit(Request::insert(entries));
            } else {
                entries.iter().for_each(|e| {
                    oracle.remove(&e.0);
                });
                svc.submit(Request::delete(entries));
            }
        }
        let report = svc.pump();
        assert_eq!(report.degraded + report.shed + report.retries, 0);
        assert!(report.sessions > 0, "turn {turn}");
        assert_eq!(report.inline, report.sessions, "turn {turn}: {report:?}");
        // One closure per pass, on this thread: nothing forked, stolen or
        // suspended, and the pass's time is the wave's latency.
        assert_eq!(report.stats.tasks_executed, report.sessions);
        let s = &report.stats;
        assert_eq!((s.spawns, s.steals, s.suspensions), (0, 0, 0));
        let latency: Duration = report.outcomes.iter().map(|o| o.latency).max().unwrap();
        assert!(latency <= s.elapsed && s.elapsed <= report.wall);
        sessions += report.sessions;
        waves += report.outcomes.len();
    }
    assert!(waves as u64 > sessions, "no window held two waves");
    let keys: Vec<i64> = (0..2).flat_map(|s| svc.shard_keys(s)).collect();
    assert!(keys.into_iter().eq(oracle.iter().copied()));
    for shard in 0..2 {
        let root = svc.snapshot(shard);
        assert!(root.check_invariants() && root.sized().is_some());
    }
}

#[test]
fn a_wave_over_the_grain_opens_a_session() {
    let svc = SetService::new(ShardMap::uniform(1, 0, 1 << 20), cfg());
    let mut rng = SmallRng::seed_from_u64(14);
    let big: Vec<(i64, u64)> = (0..1i64 << 14).map(|k| (k * 5, rng.gen())).collect();
    svc.submit(Request::insert(big.clone()));
    let report = svc.pump();
    assert_eq!((report.sessions, report.inline, report.served), (1, 0, 1));
    assert_eq!(svc.shard_keys(0).len(), big.len());
    // A small wave against the big root is within the grain again.
    svc.submit(Request::delete(vec![(10, 0), (11, 0)]));
    let report = svc.pump();
    assert_eq!((report.sessions, report.inline, report.served), (1, 1, 1));
    assert!(!svc.contains(&10) && svc.contains(&15));
    // A delete wave over the grain is pooled; its priorities are not read.
    let gone: Vec<i64> = (0..6000).map(|k| 15 * k).collect();
    svc.submit(Request::delete(gone.iter().map(|&k| (k, 0)).collect()));
    let report = svc.pump();
    assert_eq!((report.sessions, report.inline, report.served), (1, 0, 1));
    let want = fold(
        PlainTreap::from_entries(&big),
        &[&[10][..], &gone].concat(),
        &[],
    );
    assert_complete(&svc.snapshot(0), &want, "a pooled delete");
}

#[test]
fn an_over_grain_wave_builds_the_union_of_its_requests() {
    // Two large requests of one wave share 100 keys, the second at higher
    // priorities: more than one grain of distinct keys, so the wave runs
    // in a pooled session, and it commits the tree the two requests'
    // unions build, each repeated key applied and counted once.
    let svc = SetService::new(ShardMap::uniform(1, 0, 1 << 20), cfg());
    let mut rng = SmallRng::seed_from_u64(38);
    let base: Vec<(i64, u64)> = (0..1000).map(|k| (13 * k, rng.gen())).collect();
    svc.submit(Request::insert(base.clone()));
    assert_eq!(svc.pump().inline, 1);
    let evens: Vec<(i64, u64)> = (0..3000).map(|k| (2 * k, rng.gen::<u64>() >> 1)).collect();
    let odds = (0..3000).map(|k| (2 * k + 1, rng.gen()));
    let repeats = evens[..100].iter().map(|&(k, p)| (k, p | 1 << 63));
    let wave = [evens.clone(), odds.chain(repeats).collect()];
    for r in &wave {
        svc.submit(Request::insert(r.clone()));
    }
    let report = svc.pump();
    assert_eq!((report.sessions, report.inline, report.served), (1, 0, 1));
    assert_eq!(report.keys_applied, 6000);
    let oracle = (wave.iter()).fold(PlainTreap::from_entries(&base), |t, r| fold(t, &[], r));
    assert_complete(&svc.snapshot(0), &oracle, "the union of the requests");
}

/// While set, comparing two [`Touchy`] keys panics.
static ARMED: AtomicBool = AtomicBool::new(false);

#[derive(Clone, Debug, PartialEq, Eq)]
struct Touchy(i64);

impl Ord for Touchy {
    fn cmp(&self, other: &Self) -> Ordering {
        assert!(!ARMED.load(SeqCst), "Touchy::cmp while armed");
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Touchy {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[test]
fn a_panic_in_the_inline_pass_falls_through_to_the_sessions_error() {
    let svc = SetService::new(ShardMap::<Touchy>::new(Vec::new()), cfg());
    let keys = |ks: &[i64]| ks.iter().map(|&k| (Touchy(k), k as u64)).collect();
    svc.submit(Request::insert(keys(&[1, 5, 9])));
    let report = svc.pump();
    assert_eq!((report.sessions, report.inline, report.served), (1, 1, 1));
    let before = svc.shard_keys(0);

    // One key per wave: neither `submit` nor the coalescer compares keys,
    // so the first comparison is the inline pass splitting the root.
    svc.submit(Request::insert(keys(&[4])).tagged(7));
    ARMED.store(true, SeqCst);
    let report = svc.pump();
    ARMED.store(false, SeqCst);
    // The pass that panicked is not an inline pass: all three attempts
    // went to the pool, and the wave carries the last session's error.
    assert_eq!((report.sessions, report.inline), (3, 0), "{report:?}");
    assert_eq!((report.served, report.degraded), (0, 1));
    let o = &report.outcomes[0];
    assert_eq!(
        (o.kind, o.tags.as_slice(), o.attempts),
        (OpKind::Insert, &[7][..], 3)
    );
    let error = o.error.as_deref().unwrap();
    assert!(
        error.contains("panicked") && error.contains("Touchy::cmp while armed"),
        "{error}"
    );
    assert_eq!(svc.shard_keys(0), before, "a degraded wave left residue");

    svc.submit(Request::insert(keys(&[4])));
    let report = svc.pump();
    assert_eq!((report.sessions, report.inline, report.served), (1, 1, 1));
    assert!(svc.contains(&Touchy(4)));
}

/// Comparisons a [`Fused`] key may still make before every one panics.
static FUSE: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Comparisons of [`Fused`] keys so far.
static COMPARED: AtomicUsize = AtomicUsize::new(0);

#[derive(Clone, Debug, PartialEq, Eq)]
struct Fused(i64);

impl Ord for Fused {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARED.fetch_add(1, SeqCst);
        let burnt = FUSE.fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
        assert!(burnt.is_ok(), "Fused::cmp after the fuse burnt");
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Fused {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A service of one shard holding the 3 000 keys `3k`.
fn fused_service() -> SetService<Fused> {
    let svc = SetService::new(ShardMap::<Fused>::new(Vec::new()), cfg());
    let keys = (0..3000).map(|k| (Fused(3 * k), splitmix64(k as u64)));
    svc.submit(Request::insert(keys.collect()));
    assert_eq!(svc.pump().served, 1);
    svc
}

#[test]
fn a_panic_partway_through_the_plan_leaves_no_residue() {
    let window = |kind| {
        let keys = (0..8).map(|i| 1111 * i + 300);
        let entries = keys.map(|k| match kind {
            OpKind::Insert => (Fused(k + 1), splitmix64(!(k as u64))),
            OpKind::Delete => (Fused(k), 0),
        });
        let entries: Vec<_> = entries.collect();
        match kind {
            OpKind::Insert => Request::insert(entries),
            OpKind::Delete => Request::delete(entries),
        }
    };
    let (svc, twin) = (fused_service(), fused_service());
    for kind in [OpKind::Insert, OpKind::Delete] {
        // The twin applies the window healthy and counts its comparisons:
        // the coalescer's, the pass's sort, and the plan's cuts.
        twin.submit(window(kind));
        let before = COMPARED.load(SeqCst);
        let report = twin.pump();
        let compared = COMPARED.load(SeqCst) - before;
        assert_eq!((report.inline, report.in_place), (1, 1), "{report:?}");
        assert!(compared > 60, "{kind:?}: {compared} comparisons");

        // The same window panics a few comparisons before the plan's end,
        // with most of its cuts made.
        let (keys, shape) = (svc.shard_keys(0), svc.snapshot(0).preorder());
        svc.submit(window(kind).tagged(9));
        FUSE.store(compared - 3, SeqCst);
        let report = svc.pump();
        FUSE.store(usize::MAX, SeqCst);
        assert_eq!((report.sessions, report.inline), (3, 0), "{report:?}");
        assert_eq!((report.served, report.degraded), (0, 1));
        let o = &report.outcomes[0];
        assert_eq!((o.kind, o.tags.as_slice()), (kind, &[9][..]));
        let error = o.error.as_deref().unwrap();
        assert!(error.contains("Fused::cmp after the fuse burnt"), "{error}");
        assert_eq!(svc.shard_keys(0), keys, "{kind:?}: key residue");
        let root = svc.snapshot(0);
        assert_eq!(root.preorder(), shape, "{kind:?}: shape residue");
        assert!(root.check_invariants(), "{kind:?}");

        // Healthy again, the window applies inline — in place unless the
        // failed sessions' worker still holds the root it was handed.
        svc.submit(window(kind));
        let report = svc.pump();
        assert_eq!((report.inline, report.served), (1, 1));
        assert_eq!(svc.snapshot(0).preorder(), twin.snapshot(0).preorder());
    }
}

#[test]
fn a_held_snapshot_never_sees_an_in_place_commit() {
    let svc = SetService::new(ShardMap::uniform(1, 0, 1 << 20), cfg());
    let preload: Vec<(i64, u64)> = (0..3000).map(|k| (5 * k, splitmix64(k as u64))).collect();
    let mut oracle = PlainTreap::from_entries(&preload);
    svc.submit(Request::insert(preload));
    svc.pump();
    let mut apply = |kind, keys: &[i64]| {
        let entries: Vec<(i64, u64)> = keys.iter().map(|&k| (k, k as u64)).collect();
        oracle = match kind {
            OpKind::Insert => fold(oracle.take(), &[], &entries),
            OpKind::Delete => fold(oracle.take(), keys, &[]),
        };
        svc.submit(Request {
            kind,
            ..Request::insert(entries)
        });
        let report = svc.pump();
        assert_eq!((report.inline, report.served), (1, 1), "{report:?}");
        assert_complete(&svc.snapshot(0), &oracle, &format!("{kind:?} {keys:?}"));
        (report.in_place, oracle.clone())
    };

    // Nothing else holds the root: the commit edits it in place.
    let (in_place, was) = apply(OpKind::Insert, &[7, 8]);
    assert_eq!(in_place, 1);
    // A snapshot taken before a pump keeps its tree through it: the pass
    // copies the root path. The next pass edits that new root in place and
    // copies whatever it shares with the snapshot, so the snapshot keeps
    // its tree through passes of either kind.
    let held = svc.snapshot(0);
    assert_eq!(apply(OpKind::Insert, &[12, 13_001]).0, 0);
    assert_eq!(apply(OpKind::Delete, &[7, 10, 14_000]).0, 1);
    assert_eq!(apply(OpKind::Insert, &[7, 10, 11]).0, 1);
    assert_complete(&held, &was, "the held snapshot");
    drop(held);
    // A reader holding a subtreap below the root: the pass edits the root
    // in place and copies only what the reader holds.
    let sub = match svc.snapshot(0) {
        Treap::Node(n) => n.left.done().expect("a committed root").clone(),
        _ => unreachable!("3 000 keys make a node"),
    };
    let sub_was = sub.preorder();
    let smallest = svc.shard_keys(0)[0];
    assert_eq!(apply(OpKind::Delete, &[smallest, 13_001]).0, 1);
    assert_eq!(apply(OpKind::Insert, &[1, 2, 3]).0, 1);
    assert_eq!(sub.preorder(), sub_was);
    assert!(sub.check_invariants() && sub.sized() == Some(sub_was.len()));
}

#[test]
fn a_mixed_window_commits_in_place_unless_a_snapshot_is_held() {
    let svc = SetService::new(ShardMap::uniform(1, 0, 1 << 20), cfg());
    let preload: Vec<(i64, u64)> = (0..3000).map(|k| (5 * k, splitmix64(k as u64))).collect();
    let mut oracle = PlainTreap::from_entries(&preload);
    svc.submit(Request::insert(preload));
    svc.pump();
    let Treap::Node(root) = svc.snapshot(0) else {
        unreachable!("3 000 keys make a node")
    };
    let root_key = root.key;
    drop(root);
    // One window of a delete wave then an insert wave, replayed on the
    // oracle as a difference then a union. Low priorities and a kept root
    // key leave the root node where it is.
    let mut window = |dels: &[i64], ins: &[i64]| {
        assert!(!dels.contains(&root_key));
        let ins: Vec<(i64, u64)> = ins.iter().map(|&k| (k, k as u64)).collect();
        oracle = fold(oracle.take(), dels, &ins);
        svc.submit(Request::delete(dels.iter().map(|&k| (k, 0)).collect()));
        svc.submit(Request::insert(ins));
        let report = svc.pump();
        let counts = (report.sessions, report.inline, report.served);
        assert_eq!(counts, (1, 1, 2), "{report:?}");
        assert_complete(&svc.snapshot(0), &oracle, &format!("{dels:?}"));
        (report.in_place, oracle.clone())
    };
    // 500 is deleted and inserted again at a new priority; 13 is absent.
    let dels = [500, 1000, 13].map(|k| if k == root_key { k + 5 } else { k });
    let (in_place, was) = window(&dels, &[500, 7, 8]);
    assert_eq!(in_place, 1);
    // A held snapshot: the mixed pass copies what the reader holds, and
    // the snapshot keeps its tree.
    let held = svc.snapshot(0);
    let dels = [1500, 7].map(|k| if k == root_key { k + 5 } else { k });
    assert_eq!(window(&dels, &[7, 9, 2001]).0, 0);
    assert_complete(&held, &was, "the held snapshot");
}

#[test]
fn concurrent_pumps_on_one_shard_keep_every_commit() {
    // Two threads each submit and pump one-key inserts on one shard. A
    // pass that planned against a root the other thread then replaced
    // would drop that thread's wave, although it reported it served.
    const PER_THREAD: i64 = 20_000;
    let svc = SetService::new(ShardMap::uniform(1, 0, 1 << 20), cfg());
    let preload: Vec<(i64, u64)> = (0..PER_THREAD)
        .map(|k| (3 * k, splitmix64(k as u64)))
        .collect();
    svc.submit(Request::insert(preload.clone()));
    svc.pump();
    let start = Barrier::new(2);
    let applied: u64 = std::thread::scope(|s| {
        let pumps: Vec<_> = (1..=2)
            .map(|offset| {
                let (svc, start) = (&svc, &start);
                s.spawn(move || {
                    start.wait();
                    let mut applied = 0;
                    for k in 0..PER_THREAD {
                        let key = 3 * k + offset;
                        svc.submit(Request::insert(vec![(key, splitmix64(key as u64))]));
                        applied += svc.pump().keys_applied;
                    }
                    applied
                })
            })
            .collect();
        pumps.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // Either pump may apply the other's request: count keys, not waves.
    assert_eq!(applied, 2 * PER_THREAD as u64);
    let inserted: Vec<(i64, u64)> = (0..3 * PER_THREAD)
        .filter(|k| k % 3 != 0)
        .map(|k| (k, splitmix64(k as u64)))
        .collect();
    let want = fold(PlainTreap::from_entries(&preload), &[], &inserted);
    assert_complete(&svc.snapshot(0), &want, "commits lost");
}
