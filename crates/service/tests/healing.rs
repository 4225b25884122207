//! Service-level self-healing tests: retry accounting on deterministic
//! faults, breaker trip → shed → probe → close through the real
//! `SetService` apply path, the no-regression pin that healthy traffic
//! never pays for either layer, and the poisoned-shard A/B as counts.

use std::time::Duration;

use pf_service::{
    BreakerConfig, BreakerState, DrainReport, Fault, Request, RetryPolicy, ServiceConfig,
    SetService, ShardMap,
};

fn one_shard_cfg() -> ServiceConfig {
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
fn deterministic_fault_burns_its_retry_budget_then_degrades() {
    let svc = SetService::new(ShardMap::uniform(1, 0, 1_000), one_shard_cfg());
    // One poisoned wave and one healthy wave; the coalescer isolates the
    // faulty request into its own wave, so they fail independently.
    svc.submit(
        Request::insert(vec![(10, 1)])
            .faulty(Fault::Panic)
            .tagged(1),
    );
    svc.submit(Request::insert(vec![(20, 2)]).tagged(2));
    let report = svc.pump();

    // Window fails → replay serves the healthy wave (1 pass, and being
    // sub-grain it stays inline — the only one that does: a faulty wave
    // always takes the pool) and the poisoned wave runs 1 + 2 retry
    // sessions: 5 in total.
    assert_eq!(report.served, 1);
    assert_eq!(report.degraded, 1);
    assert_eq!(report.retries, 2, "both retry attempts must have run");
    assert_eq!(report.recovered, 0, "a deterministic fault cannot recover");
    assert_eq!(report.shed, 0);
    assert_eq!(report.sessions, 5, "{report:?}");
    assert_eq!(report.inline, 1, "{report:?}");

    let bad = report.outcomes.iter().find(|o| !o.served).unwrap();
    assert_eq!(bad.attempts, 3, "1 first try + 2 retries: {bad:?}");
    assert!(bad.replayed);
    assert!(!bad.shed);
    let good = report.outcomes.iter().find(|o| o.served).unwrap();
    assert_eq!(good.attempts, 1);
    assert!(good.replayed);

    // The healthy wave committed; the poisoned one left no residue.
    assert!(svc.contains(&20) && !svc.contains(&10));
}

#[test]
fn open_breaker_sheds_in_constant_time_without_sessions() {
    let cfg = ServiceConfig {
        breaker: BreakerConfig {
            threshold: 1,
            open_for: Duration::from_secs(3600), // stays open for the test
            probes: 1,
        },
        ..one_shard_cfg()
    };
    let svc = SetService::new(ShardMap::uniform(1, 0, 1_000), cfg);

    // Trip: one fully-degraded window opens the breaker.
    svc.submit(Request::insert(vec![(10, 1)]).faulty(Fault::Panic));
    let tripped = svc.pump();
    assert_eq!(tripped.degraded, 1);
    assert!(
        matches!(svc.breaker_state(0), BreakerState::Open { .. }),
        "{:?}",
        svc.breaker_state(0)
    );

    // Shed: subsequent windows are dropped without running any session,
    // so none of them can wait out a deadline or a stall budget.
    svc.submit(Request::insert(vec![(20, 2)]).tagged(9));
    let shed = svc.pump();
    assert_eq!(shed.sessions, 0, "an open breaker must not run sessions");
    assert_eq!(shed.shed, 1);
    assert_eq!(shed.served + shed.degraded, 0);
    let o = &shed.outcomes[0];
    assert!(o.shed && !o.served);
    assert_eq!(o.attempts, 0);
    assert_eq!(o.tags, vec![9]);
    assert!(o.error.as_deref().unwrap_or("").contains("circuit open"));
    assert!(!svc.contains(&20), "a shed wave must not commit");
}

#[test]
fn half_open_probe_closes_the_breaker_and_serves_again() {
    let cfg = ServiceConfig {
        breaker: BreakerConfig {
            threshold: 1,
            open_for: Duration::ZERO, // next window is already the probe
            probes: 1,
        },
        ..one_shard_cfg()
    };
    let svc = SetService::new(ShardMap::uniform(1, 0, 1_000), cfg);

    svc.submit(Request::insert(vec![(10, 1)]).faulty(Fault::Panic));
    svc.pump();
    assert!(matches!(svc.breaker_state(0), BreakerState::Open { .. }));

    // The cooldown has elapsed (zero), so the next window is the
    // half-open probe; it is healthy, serves, and closes the breaker.
    svc.submit(Request::insert(vec![(20, 2)]));
    let probe = svc.pump();
    assert_eq!(probe.served, 1);
    assert_eq!(probe.shed, 0);
    assert_eq!(
        svc.breaker_state(0),
        BreakerState::Closed { consecutive: 0 }
    );
    assert!(svc.contains(&20));

    // A degraded probe would have re-opened instead.
    svc.submit(Request::insert(vec![(30, 3)]).faulty(Fault::Panic));
    svc.pump();
    assert!(matches!(svc.breaker_state(0), BreakerState::Open { .. }));
}

#[test]
fn healthy_traffic_is_untouched_by_retry_and_breaker_layers() {
    // Breaker armed, retries armed — but with no faults the report must
    // look exactly like the pre-healing service: no retries, no sheds,
    // one session per window, breaker closed throughout.
    let cfg = ServiceConfig {
        breaker: BreakerConfig {
            threshold: 2,
            open_for: Duration::from_millis(50),
            probes: 1,
        },
        ..one_shard_cfg()
    };
    let svc = SetService::new(ShardMap::uniform(2, 0, 1_000), cfg);
    for i in 0..20i64 {
        svc.submit(Request::insert(vec![(i * 37 % 1_000, i as u64)]));
    }
    let report = svc.pump();
    assert_eq!(report.degraded + report.shed, 0, "{report:?}");
    assert_eq!(report.retries + report.recovered, 0);
    assert!(report.outcomes.iter().all(|o| o.attempts == 1 && !o.shed));
    for shard in 0..2 {
        assert_eq!(
            svc.breaker_state(shard),
            BreakerState::Closed { consecutive: 0 }
        );
    }
}

const PILLS: usize = 3;
const STALL_BUDGET: Duration = Duration::from_millis(60);
const DEADLINE: Duration = Duration::from_secs(5);

/// The poisoned-shard scenario: a 2-shard service pumped [`PILLS`] times,
/// each pump carrying one healthy insert for shard 1 and, if `pilled`, one
/// wedge-pilled insert for shard 0 (a task that spins until its session is
/// cancelled). Checks what holds in every arm — each shard-1 wave is
/// served first try and commits, no pill does — and returns one report per
/// pump.
fn poisoned_shard(breaker: BreakerConfig, pilled: bool) -> Vec<DrainReport> {
    let cfg = ServiceConfig {
        // A backstop only: detection is the heartbeat's job.
        deadline: Some(DEADLINE),
        stall_budget: Some(STALL_BUDGET),
        retry: RetryPolicy {
            attempts: 1,
            ..one_shard_cfg().retry
        },
        breaker,
        ..one_shard_cfg()
    };
    let svc = SetService::new(ShardMap::uniform(2, 0, 1_000), cfg);
    let reports: Vec<DrainReport> = (0..PILLS as i64)
        .map(|i| {
            if pilled {
                svc.submit(Request::insert(vec![(10 + i, 1)]).faulty(Fault::Wedge));
            }
            svc.submit(Request::insert(vec![(500 + 3 * i, 2), (900 - i, 3)]));
            svc.pump()
        })
        .collect();
    for (i, r) in reports.iter().enumerate() {
        let healthy: Vec<_> = r.outcomes.iter().filter(|o| o.shard == 1).collect();
        assert_eq!(healthy.len(), 1, "pump {i}: {r:?}");
        let o = healthy[0];
        assert!(o.served && !o.shed && o.attempts == 1, "pump {i}: {o:?}");
    }
    assert_eq!(svc.shard_keys(0), Vec::<i64>::new(), "a pill never commits");
    assert_eq!(svc.shard_keys(1).len(), 2 * PILLS);
    reports
}

/// The poisoned-shard A/B, once a per-PR throughput benchmark, pinned as
/// the counts behind it: with the breaker off every pill burns a stall
/// budget per attempt; with it on the first degraded window trips the
/// breaker and every later pill is shed without a session; the healthy
/// shard is served in full either way ([`poisoned_shard`] checks that).
#[test]
fn poisoned_shard_degrades_every_pill_without_the_breaker_and_sheds_with_it() {
    let off = BreakerConfig {
        threshold: 0, // disabled
        ..BreakerConfig::default()
    };
    let on = BreakerConfig {
        threshold: 1,
        open_for: Duration::from_secs(3600), // stays open for the test
        probes: 1,
    };
    let base = poisoned_shard(off, false);
    for r in &base {
        assert_eq!(r.degraded + r.shed + r.retries, 0, "{r:?}");
    }

    // Breaker off: a first try and one retry per pill, each declared
    // `Stalled` by the heartbeat once the budget has passed — long before
    // the deadline.
    for r in poisoned_shard(off, true) {
        assert_eq!((r.degraded, r.retries, r.shed), (1, 1, 0), "{r:?}");
        let o = r.outcomes.iter().find(|o| o.shard == 0).unwrap();
        assert!(!o.served && !o.shed && o.attempts == 2, "{o:?}");
        let error = o.error.as_deref().unwrap_or("");
        assert!(error.contains("stalled"), "{o:?}");
        assert!(STALL_BUDGET <= o.latency && o.latency < DEADLINE, "{o:?}");
    }

    // Breaker on: the first pill degrades and trips it; the rest are shed,
    // and a shed pump runs exactly the sessions of a pill-free one.
    let tripped = poisoned_shard(on, true);
    let first = &tripped[0];
    assert_eq!((first.degraded, first.retries, first.shed), (1, 1, 0));
    for (r, clean) in tripped.iter().zip(&base).skip(1) {
        assert_eq!((r.degraded, r.retries, r.shed), (0, 0, 1), "{r:?}");
        assert_eq!(r.sessions, clean.sessions, "a shed runs no session");
        let o = r.outcomes.iter().find(|o| o.shard == 0).unwrap();
        assert!(o.shed && !o.served && o.attempts == 0, "{o:?}");
    }
}
