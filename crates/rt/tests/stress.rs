//! Randomized stress tests for the runtime: random dataflow DAGs executed
//! across worker counts, with racing producers/consumers and diamond
//! dependencies, validated against sequentially computed expectations.
//!
//! These run on real threads and real time, so they cover scheduling
//! noise a model checker cannot (preemption mid-instruction, cache
//! effects). Deterministic interleaving coverage is `pf-check`'s job: see
//! `crates/check` and the model suite in `crates/check/tests/model_rt.rs`.

use pf_rt::{cell, FutRead, FutWrite, Runtime, Worker};
use proptest::prelude::*;
use proptest::TestRng;

/// Fork `f` off: with `push`, as a queued task a sibling may steal
/// (`spawn2` pushes its first closure and runs its second, here empty,
/// inline), so a flat fan-out races across workers; without, inline
/// like every `spawn`.
fn fork(wk: &Worker, push: bool, f: impl FnOnce(&Worker) + Send + 'static) {
    if push {
        wk.spawn2(f, |_| {});
    } else {
        wk.spawn(f);
    }
}

/// The random dataflow shape shared by the expected-value computation and
/// the runtime execution: `plan[l - 1][i]` lists the source indices in
/// layer `l - 1` that cell `i` of layer `l` sums (1–3 of them). Derived
/// from proptest's own generator so the per-case `seed` drawn by the
/// `proptest!` strategy is the single source of randomness.
fn build_plan(seed: u64, width: usize, layers: usize) -> Vec<Vec<Vec<usize>>> {
    let mut rng = TestRng::from_seed(seed);
    (1..layers)
        .map(|_| {
            (0..width)
                .map(|_| {
                    let k = (rng.next_u64() % 3 + 1) as usize;
                    (0..k).map(|_| rng.next_u64() as usize % width).collect()
                })
                .collect()
        })
        .collect()
}

/// Layer-0 values for a given seed.
fn layer0(seed: u64, width: usize) -> Vec<u64> {
    (0..width as u64).map(|i| i + seed % 97).collect()
}

/// Sequentially compute every layer's expected sums for the plan.
fn layered_expected(seed: u64, width: usize, layers: usize) -> Vec<Vec<u64>> {
    let plan = build_plan(seed, width, layers);
    let mut vals = vec![layer0(seed, width)];
    for l in 1..layers {
        let row = (0..width)
            .map(|i| {
                plan[l - 1][i]
                    .iter()
                    .fold(0u64, |acc, &s| acc.wrapping_add(vals[l - 1][s]))
            })
            .collect();
        vals.push(row);
    }
    vals
}

/// The same plan executed as a cell DAG on `threads` workers. A cell has
/// one reader, so each produced cell gets a relay task that touches it
/// once and fans its value out to one fresh cell per consumer, and each
/// consumer task sums its relay cells. Producers fork last, to race
/// consumers already suspended. Even seeds race the fan-out across
/// workers; odd seeds run it inline, where relays and consumers suspend
/// in program order on the root's worker and only their resumes are
/// stolen.
fn run_layered(seed: u64, width: usize, layers: usize, threads: usize) -> Vec<u64> {
    let plan = build_plan(seed, width, layers);
    let (mut writes, reads): (Vec<Vec<_>>, Vec<Vec<_>>) = (0..layers)
        .map(|_| (0..width).map(|_| cell::<u64>()).unzip())
        .unzip();
    let out = reads[layers - 1].clone();
    let push = seed.is_multiple_of(2);
    Runtime::new(threads).run(move |wk: &Worker| {
        for l in 1..layers {
            let mut fan: Vec<Vec<FutWrite<u64>>> = (0..width).map(|_| vec![]).collect();
            for (srcs, w) in plan[l - 1].iter().zip(std::mem::take(&mut writes[l])) {
                let mut relayed = |s: usize| {
                    let (w, r) = cell();
                    fan[s].push(w);
                    r
                };
                let mine: Vec<FutRead<u64>> = srcs.iter().map(|&s| relayed(s)).collect();
                fork(wk, push, move |wk| sum(wk, mine, 0, w));
            }
            for (r, ws) in reads[l - 1].iter().cloned().zip(fan) {
                fork(wk, push, move |wk| {
                    r.touch(wk, move |v, wk| {
                        ws.into_iter().for_each(|w| w.fulfill(wk, v))
                    })
                });
            }
        }
        for (w, v) in std::mem::take(&mut writes[0])
            .into_iter()
            .zip(layer0(seed, width))
        {
            fork(wk, push, move |wk| w.fulfill(wk, v));
        }
    });
    out.iter().map(FutRead::expect).collect()
}

/// Sum `reads`, touching each once, into `out`.
fn sum(wk: &Worker, mut reads: Vec<FutRead<u64>>, acc: u64, out: FutWrite<u64>) {
    match reads.pop() {
        None => out.fulfill(wk, acc),
        Some(r) => r.touch(wk, move |v, wk| sum(wk, reads, acc.wrapping_add(v), out)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_dataflow_dags(seed in 0u64..1_000, width in 2usize..8, layers in 2usize..5, threads in 1usize..5) {
        let expect = layered_expected(seed, width, layers);
        let got = run_layered(seed, width, layers, threads);
        prop_assert_eq!(got, expect[layers - 1].clone());
    }
}

#[test]
fn repeated_runs_many_threads() {
    for round in 0..30 {
        let expect = layered_expected(round, 6, 4);
        let got = run_layered(round, 6, 4, 4);
        assert_eq!(got, expect[3], "round {round}");
    }
}

#[test]
fn persistent_pool_150_sessions_with_races() {
    // One persistent Runtime across 150 consecutive `run` calls, each with
    // producers racing already-suspended consumers. Checks, per session:
    //   * the results of THIS run only (cross-run task leakage would
    //     corrupt sums or crash a consumed-write invariant);
    //   * that per-run stats were reset (counts match this run's shape,
    //     not an accumulation over the pool's lifetime).
    let rt = Runtime::new(4);
    for round in 0u64..150 {
        let n = 32 + (round as usize % 17);
        let pairs: Vec<_> = (0..n).map(|_| cell::<u64>()).collect();
        let (writes, reads): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let outs: Vec<_> = (0..n).map(|_| cell::<u64>()).collect();
        let (out_w, out_r): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
        let stats = rt.run_stats(move |wk| {
            // Each fork pushes its producer and runs its consumer inline:
            // most consumers suspend, and producers stolen by racing
            // workers reactivate them.
            for (i, ((r, ow), w)) in reads.into_iter().zip(out_w).zip(writes).enumerate() {
                wk.spawn2(
                    move |wk| w.fulfill(wk, round.wrapping_add(i as u64)),
                    move |wk| r.touch(wk, move |v, wk| ow.fulfill(wk, v.wrapping_mul(3))),
                );
            }
        });
        for (i, o) in out_r.iter().enumerate() {
            assert_eq!(
                o.expect(),
                round.wrapping_add(i as u64).wrapping_mul(3),
                "round {round}, cell {i}"
            );
        }
        // Stats are per-session: exactly this round's 2n spawns, and at
        // most one suspension per consumer. Any carry-over from earlier
        // rounds (or leaked tasks executing late) would break these.
        assert_eq!(stats.spawns, 2 * n as u64, "round {round}: stats not reset");
        assert!(
            stats.suspensions <= n as u64,
            "round {round}: impossible suspension count {}",
            stats.suspensions
        );
        // root + spawned tasks + one reactivation per actual suspension.
        assert_eq!(
            stats.tasks_executed,
            1 + 2 * n as u64 + stats.suspensions,
            "round {round}: task count shows cross-run leakage"
        );
    }
}

#[test]
fn deep_chain_of_suspensions() {
    // A 10_000-long dependency chain where every consumer registers before
    // its producer fires: exercises the WAITING path massively.
    let n = 10_000usize;
    let cells: Vec<_> = (0..=n).map(|_| cell::<u64>()).collect();
    let (mut writes, reads): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
    let first = writes.remove(0);
    let last_read = reads[n].clone();
    Runtime::new(2).run(move |wk| {
        // Chain: cell[i] + 1 -> cell[i+1]; register all consumers first.
        for (i, w) in writes.into_iter().enumerate() {
            let r = reads[i].clone();
            wk.spawn(move |wk| {
                r.touch(wk, move |v, wk| w.fulfill(wk, v + 1));
            });
        }
        first.fulfill(wk, 0);
    });
    assert_eq!(last_read.expect(), n as u64);
}
