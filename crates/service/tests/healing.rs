//! Service-level self-healing tests: retry accounting on deterministic
//! faults, breaker trip → shed → probe → close through the real
//! `SetService` apply path, and the no-regression pin that healthy
//! traffic never pays for either layer.

use std::time::Duration;

use pf_service::{
    BreakerConfig, BreakerState, Fault, Request, RetryPolicy, ServiceConfig, SetService, ShardMap,
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
    // in wall time far under one deadline/stall budget.
    svc.submit(Request::insert(vec![(20, 2)]).tagged(9));
    let shed = svc.pump();
    assert_eq!(shed.sessions, 0, "an open breaker must not run sessions");
    assert_eq!(shed.shed, 1);
    assert_eq!(shed.served + shed.degraded, 0);
    assert!(shed.wall < Duration::from_millis(100), "{:?}", shed.wall);
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
