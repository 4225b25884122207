//! Timeline attach: pf-service traces every pooled session, so a
//! degraded wave ships with the timeline of the session that failed it,
//! and a failed pipelined window's timeline travels on the drain report
//! — on the shared pool, next to other sessions, each record is the
//! failed session's own.

use std::time::Duration;

use pf_service::{DrainReport, Fault, Request, ServiceConfig, SetService, ShardMap};

fn service(shards: usize, hi: i64) -> SetService<i64> {
    let cfg = ServiceConfig {
        threads: 2,
        window: 8,
        deadline: Some(Duration::from_millis(400)),
        ..ServiceConfig::default()
    };
    SetService::new(ShardMap::uniform(shards, 0, hi), cfg)
}

/// The session id an error's `Display` names: `session N …`.
fn named_session(error: &str) -> u64 {
    error
        .strip_prefix("session ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no session id in {error:?}"))
}

/// Every timeline on `report` belongs to the failed session its error
/// names; served waves carry none. Returns the degraded outcomes' count.
fn assert_traces_are_their_own(report: &DrainReport) -> usize {
    for (error, trace) in &report.window_traces {
        assert_eq!(trace.session, named_session(error), "window: {error}");
        assert!(trace.events() > 0);
    }
    let mut degraded = 0;
    for o in &report.outcomes {
        if o.served {
            assert!(o.trace.is_none(), "diagnosis is for failures");
            continue;
        }
        degraded += 1;
        let error = o.error.as_deref().expect("a degraded wave says why");
        let trace = o
            .trace
            .as_ref()
            .expect("degraded wave must carry its failed session's trace");
        assert_eq!(trace.session, named_session(error), "wave: {error}");
        assert!(trace.events() > 0);
    }
    degraded
}

#[test]
fn degraded_wave_ships_with_its_timeline() {
    let svc = service(1, 1_000);
    svc.submit(Request::insert(vec![(1, 1), (2, 2)]).tagged(0));
    svc.submit(
        Request::insert((0..40).map(|i| (10 + i, 1)).collect())
            .faulty(Fault::Panic)
            .tagged(1),
    );
    svc.submit(Request::insert(vec![(500, 1)]).tagged(2));
    let report = svc.pump();
    assert!(report.served >= 1, "healthy waves must replay and serve");

    // The faulty request is isolated into its own wave, so the window
    // holds several waves: its failed session's timeline lands on the
    // report, taken before the replay sessions replace it.
    assert!(
        !report.window_traces.is_empty(),
        "a failed window's timeline must ship with the report"
    );
    assert!(
        assert_traces_are_their_own(&report) >= 1,
        "the poisoned wave must degrade"
    );
}

#[test]
fn drive_attaches_each_failure_its_own_timeline_next_to_a_busy_shard() {
    // Shard 1 applies over-grain waves, each a pooled session, while
    // shard 0's apply thread runs the pill's failing sessions on the
    // same pool: no sibling session may stand in for the failed one.
    const HALF: i64 = 50_000;
    let svc = service(2, 2 * HALF);
    // Hashed priorities keep the big treaps balanced.
    let entry = |k: i64| (k, (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let busy = (0..12i64).map(|r| {
        Request::insert(
            (0..5_000)
                .map(|i| entry(HALF + (r * 5_000 + i) % HALF))
                .collect(),
        )
        .tagged(100 + r as u64)
    });
    let pill = Request::insert((0..40).map(|i| (10 + i, 1)).collect())
        .faulty(Fault::Panic)
        .tagged(1);
    let mut requests: Vec<_> = busy.collect();
    requests.insert(3, pill);
    requests.insert(4, Request::insert(vec![(5, 1)]).tagged(2));
    let report = svc.drive(requests);

    assert!(
        assert_traces_are_their_own(&report) >= 1,
        "the poisoned wave must degrade"
    );
    assert!(report
        .outcomes
        .iter()
        .filter(|o| o.shard == 1)
        .all(|o| o.served));
}
