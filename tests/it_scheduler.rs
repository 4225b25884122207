//! Integration tests of the §4 machine simulator against real algorithm
//! traces: Lemma 4.1 bounds, exact p = ∞ depth equality, work
//! conservation, and discipline-independence of the outcome.

use pf_bench::exp_machine::capture_traces;
use pf_core::{Ctx, Sim};
use pf_machine::{replay, Discipline, INFINITE_P};
use proptest::prelude::*;

#[test]
fn infinite_p_equals_depth_for_all_algorithms() {
    for (name, tr) in capture_traces(8) {
        let s = replay(&tr, INFINITE_P, Discipline::Stack);
        assert_eq!(s.steps, tr.depth, "{name}: p=∞ steps must equal DAG depth");
        assert_eq!(s.work_executed, tr.work, "{name}: replayed work mismatch");
        let q = replay(&tr, INFINITE_P, Discipline::Queue);
        assert_eq!(q.steps, tr.depth, "{name}: queue discipline too");
    }
}

#[test]
fn brent_bound_holds_everywhere() {
    for (name, tr) in capture_traces(8) {
        for p in [1usize, 2, 3, 5, 8, 13, 32, 100, 511] {
            for disc in [Discipline::Stack, Discipline::Queue] {
                let s = replay(&tr, p, disc);
                assert!(
                    s.within_brent(tr.work, tr.depth, p),
                    "{name}: p={p} {disc:?}: {} > bound",
                    s.steps
                );
                assert_eq!(s.work_executed, tr.work, "{name}: work conserved");
                assert_eq!(s.suspensions, s.reactivations, "{name}: suspension balance");
            }
        }
    }
}

#[test]
fn p1_serializes_to_work_steps_at_least() {
    for (name, tr) in capture_traces(7) {
        let s = replay(&tr, 1, Discipline::Stack);
        assert!(
            s.steps >= tr.work,
            "{name}: one processor cannot beat the work"
        );
        // And not much more: every step with a nonempty pool of ready work
        // executes one action; suspended-only steps are the exception.
        assert!(
            s.steps <= tr.work + s.suspensions + 8,
            "{name}: too many idle steps: {} vs work {}",
            s.steps,
            tr.work
        );
    }
}

#[test]
fn steps_monotonically_improve_with_p() {
    for (name, tr) in capture_traces(8) {
        let mut prev = u64::MAX;
        for p in [1usize, 2, 4, 8, 16, 64] {
            let s = replay(&tr, p, Discipline::Stack);
            assert!(s.steps <= prev, "{name}: steps increased from p/2 to p={p}");
            prev = s.steps;
        }
    }
}

#[test]
fn stack_uses_less_space_than_queue() {
    // The space advantage of the stack discipline (§4) is a strong
    // tendency, not a per-trace theorem: on tiny traces the pools can tie
    // or differ by a couple of entries. Assert (a) the stack is never
    // substantially worse, and (b) it wins decisively on the deep traces.
    let mut best_ratio = 0.0f64;
    for (name, tr) in capture_traces(9) {
        let st = replay(&tr, 4, Discipline::Stack);
        let qu = replay(&tr, 4, Discipline::Queue);
        assert!(
            st.max_pool <= 2 * qu.max_pool + 4,
            "{name}: stack {} vastly exceeds queue {}",
            st.max_pool,
            qu.max_pool
        );
        best_ratio = best_ratio.max(qu.max_pool as f64 / st.max_pool.max(1) as f64);
    }
    assert!(
        best_ratio >= 4.0,
        "the stack discipline should win big somewhere, best ratio {best_ratio}"
    );
}

#[test]
fn async_steal_respects_bounds_on_all_algorithms() {
    use pf_machine::{steal_replay, StealConfig};
    for (name, tr) in capture_traces(8) {
        for p in [1usize, 3, 8] {
            let cfg = StealConfig {
                p,
                steal_latency: 2,
                seed: 9 + p as u64,
            };
            let s = steal_replay(&tr, cfg);
            assert_eq!(s.work_executed, tr.work, "{name} p={p}");
            assert!(s.makespan >= tr.depth, "{name}: below critical path");
            assert!(
                s.makespan as u128 >= (tr.work as u128).div_ceil(p as u128),
                "{name}: below work lower bound"
            );
            assert!(
                s.within_steal_bound(tr.work, tr.depth, &cfg, 16),
                "{name} p={p}: makespan {} out of bound",
                s.makespan
            );
        }
    }
}

/// A random futures program of `fanout`-way forks `depth` deep, each
/// node ticking 1–3 units and, on every `flat.0`-th seed, a flat step of
/// up to `flat.1`; its value folds the children's.
fn random_program(ctx: &Ctx, seed: u64, fanout: usize, depth: usize, flat: (u64, u64)) -> u64 {
    ctx.tick(1 + (seed % 3));
    if depth == 0 {
        return seed;
    }
    let futs: Vec<_> = (0..fanout)
        .map(|i| {
            let s = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64);
            ctx.fork(move |ctx| random_program(ctx, s, fanout, depth - 1, flat))
        })
        .collect();
    if seed.is_multiple_of(flat.0) {
        ctx.flat(seed % flat.1 + 1);
    }
    futs.iter()
        .map(|f| ctx.touch(f))
        .fold(0u64, u64::wrapping_add)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random futures programs under the asynchronous work stealer.
    #[test]
    fn random_programs_steal_replay(seed in 0u64..3000, fanout in 1usize..4, depth in 1usize..5, p in 1usize..6) {
        use pf_machine::{steal_replay, StealConfig};
        let program = move |ctx: &Ctx| random_program(ctx, seed, fanout, depth, (5, 29));
        let (_, report, trace) = Sim::new().run_traced(program);
        let cfg = StealConfig { p, steal_latency: 3, seed };
        let s = steal_replay(&trace, cfg);
        prop_assert_eq!(s.work_executed, report.work);
        prop_assert!(s.makespan >= report.depth);
        prop_assert!(s.within_steal_bound(report.work, report.depth, &cfg, 16));
    }

    /// Random futures programs: generate a random fork/write/touch tree in
    /// the simulator, trace it, and check the replay invariants.
    #[test]
    fn random_programs_replay_correctly(seed in 0u64..5000, fanout in 1usize..4, depth in 1usize..6) {
        let program = move |ctx: &Ctx| random_program(ctx, seed, fanout, depth, (4, 17));
        let (_, report, trace) = Sim::new().run_traced(program);
        prop_assert_eq!(trace.total_actions(), report.work);
        let sinf = replay(&trace, INFINITE_P, Discipline::Stack);
        prop_assert_eq!(sinf.steps, report.depth);
        for p in [1usize, 3, 7] {
            let s = replay(&trace, p, Discipline::Stack);
            prop_assert!(s.within_brent(report.work, report.depth, p));
            prop_assert_eq!(s.work_executed, report.work);
        }
    }
}
