//! Unit tests for the ingress coalescer — a pure function, so no runtime
//! is spun up here. Each test pins one rewrite rule from the module docs.

use pf_service::{coalesce, CoalescePolicy, Fault, OpKind, Request};

#[test]
fn empty_requests_are_elided() {
    let reqs: Vec<Request<i64>> = vec![
        Request::insert(vec![]),
        Request::delete(vec![]),
        Request::insert(vec![(1, 10)]),
        Request::insert(vec![]),
    ];
    let waves = coalesce(reqs, &CoalescePolicy::default());
    assert_eq!(waves.len(), 1, "empty batches must not produce waves");
    assert_eq!(waves[0].keys(), 1);
}

#[test]
fn all_empty_input_produces_no_waves() {
    let reqs: Vec<Request<i64>> = vec![Request::insert(vec![]), Request::delete(vec![])];
    assert!(coalesce(reqs, &CoalescePolicy::default()).is_empty());
}

#[test]
fn insert_run_merges_into_one_wave() {
    // Five consecutive small inserts → one wave, one run.
    let reqs: Vec<Request<i64>> = (0..5)
        .map(|i| Request::insert(vec![(i * 10, i as u64), (i * 10 + 1, i as u64)]).tagged(i as u64))
        .collect();
    let waves = coalesce(reqs, &CoalescePolicy::default());
    assert_eq!(waves.len(), 1);
    assert_eq!(waves[0].groups.len(), 1, "a wave is one run");
    assert_eq!(waves[0].keys(), 10);
    assert_eq!(waves[0].tags, vec![0, 1, 2, 3, 4]);
    // The run is sorted by key.
    let keys: Vec<i64> = waves[0].groups[0].iter().map(|e| e.0).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
}

#[test]
fn duplicate_keys_dedup_keep_first() {
    // Same key from two requests in one run: the first writer wins,
    // matching PlainTreap::from_entries (duplicate insert is a no-op).
    let reqs: Vec<Request<i64>> = vec![
        Request::insert(vec![(7, 111), (3, 30)]),
        Request::insert(vec![(7, 222), (9, 90)]),
    ];
    let waves = coalesce(reqs, &CoalescePolicy::default());
    assert_eq!(waves.len(), 1);
    assert_eq!(waves[0].groups[0], vec![(3, 30), (7, 111), (9, 90)]);
}

#[test]
fn large_requests_join_the_one_run_keep_first() {
    // One small request and two large ones, which share key 150 at
    // different priorities: one wave, one sorted run, the first request's
    // entry for 150 kept (not the higher priority), and 150 counted once.
    let big_a: Vec<(i64, u64)> = (100..200).map(|k| (k, 1)).collect();
    let big_b: Vec<(i64, u64)> = (200..300).map(|k| (k, 2)).chain([(150, 99)]).collect();
    let reqs = vec![
        Request::insert(vec![(5, 50)]),
        Request::insert(big_a.clone()),
        Request::insert(big_b),
    ];
    let waves = coalesce(reqs, &CoalescePolicy::default());
    assert_eq!(waves.len(), 1, "same-kind requests collapse into one wave");
    let run: Vec<(i64, u64)> = [(5, 50)]
        .into_iter()
        .chain(big_a)
        .chain((200..300).map(|k| (k, 2)))
        .collect();
    assert_eq!(waves[0].groups, vec![run]);
    assert_eq!(waves[0].keys(), 201);
}

#[test]
fn kind_change_closes_the_wave() {
    let reqs: Vec<Request<i64>> = vec![
        Request::insert(vec![(1, 1)]),
        Request::insert(vec![(2, 2)]),
        Request::delete(vec![(1, 0)]),
        Request::insert(vec![(3, 3)]),
    ];
    let waves = coalesce(reqs, &CoalescePolicy::default());
    let kinds: Vec<OpKind> = waves.iter().map(|w| w.kind).collect();
    assert_eq!(kinds, vec![OpKind::Insert, OpKind::Delete, OpKind::Insert]);
    assert_eq!(waves[0].keys(), 2);
}

#[test]
fn key_budget_closes_the_wave() {
    // 3-key budget, four 2-key requests → two waves of 4 keys each.
    let reqs: Vec<Request<i64>> = (0..4)
        .map(|i| Request::insert(vec![(i * 2, 0), (i * 2 + 1, 0)]))
        .collect();
    let waves = coalesce(reqs, &CoalescePolicy { max_wave_keys: 4 });
    assert_eq!(waves.len(), 2);
    assert!(waves.iter().all(|w| w.keys() <= 4));
}

#[test]
fn faulty_request_is_isolated() {
    // A faulty request must not share a wave with healthy neighbors of
    // the same kind — its blast radius is exactly itself.
    let reqs: Vec<Request<i64>> = vec![
        Request::insert(vec![(1, 1)]).tagged(1),
        Request::insert(vec![(2, 2)]).faulty(Fault::Panic).tagged(2),
        Request::insert(vec![(3, 3)]).tagged(3),
    ];
    let waves = coalesce(reqs, &CoalescePolicy::default());
    assert_eq!(waves.len(), 3);
    assert_eq!(waves[0].fault, Fault::None);
    assert_eq!(waves[1].fault, Fault::Panic);
    assert_eq!(waves[1].tags, vec![2]);
    assert_eq!(waves[2].fault, Fault::None);
    assert_eq!(waves[2].tags, vec![3]);
}

#[test]
fn tags_travel_with_their_wave() {
    let reqs: Vec<Request<i64>> = vec![
        Request::insert(vec![(1, 1)]).tagged(10),
        Request::insert(vec![(2, 2)]).tagged(11),
        Request::delete(vec![(1, 0)]).tagged(12),
    ];
    let waves = coalesce(reqs, &CoalescePolicy::default());
    assert_eq!(waves[0].tags, vec![10, 11]);
    assert_eq!(waves[1].tags, vec![12]);
}
