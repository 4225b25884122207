//! The inline pass: a window whose every step is within one grain is
//! applied as plain code on the calling thread and never opens a session;
//! anything else — a wave over the grain, a panic in the pass itself, an
//! injected fault (`healing.rs`) — takes the pooled session, which stays
//! the only path that reports an error.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::Duration;

use pf_service::{OpKind, Request, RetryPolicy, ServiceConfig, SetService, ShardMap};
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
