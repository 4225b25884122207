//! Property-based tests of the cost-model engine itself: for randomly
//! generated futures programs, the fundamental accounting invariants must
//! hold regardless of program shape.

use pf_core::{CostModel, Ctx, Sim};
use proptest::prelude::*;

/// A tiny random program: a tree of forks where each node does some local
/// work, optionally a flat primitive, writes two cells at different times
/// (the pipelining pattern), and touches its children's early cells
/// before their late cells.
fn node(ctx: &Ctx, seed: u64, fanout: usize, depth: usize) -> u64 {
    ctx.tick(1 + seed % 4);
    if depth == 0 {
        return seed;
    }
    let kids: Vec<_> = (0..fanout)
        .map(|i| {
            let s = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(i as u64 + 1);
            let (early_p, early) = ctx.promise();
            let (late_p, late) = ctx.promise();
            ctx.fork_unit(move |ctx| {
                ctx.tick(1);
                early_p.fulfill(ctx, s % 100);
                let v = node(ctx, s, fanout, depth - 1);
                late_p.fulfill(ctx, v);
            });
            (early, late)
        })
        .collect();
    if seed.is_multiple_of(3) {
        ctx.flat(seed % 23 + 1);
    }
    let mut acc = 0u64;
    for (early, _late) in &kids {
        acc = acc.wrapping_add(ctx.touch(early));
    }
    for (_, late) in &kids {
        acc = acc.wrapping_add(ctx.touch(late));
    }
    acc
}

/// [`node`]'s program run at `costs`.
fn run_program(seed: u64, fanout: usize, depth: usize, costs: CostModel) -> pf_core::CostReport {
    let (_, report) = Sim::with_costs(costs).run(|ctx| node(ctx, seed, fanout, depth));
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn depth_never_exceeds_work(seed in 0u64..10_000, fanout in 1usize..4, depth in 0usize..5) {
        let r = run_program(seed, fanout, depth, CostModel::default());
        prop_assert!(r.depth <= r.work);
    }

    #[test]
    fn program_is_linear_and_counters_consistent(seed in 0u64..10_000, fanout in 1usize..4, depth in 0usize..5) {
        let r = run_program(seed, fanout, depth, CostModel::default());
        prop_assert!(r.is_linear());
        prop_assert_eq!(r.writes, r.cells, "every promise fulfilled exactly once");
        prop_assert_eq!(r.touches, r.cells, "every cell touched exactly once");
        // 2 cells per fork in this program shape.
        prop_assert_eq!(r.cells, 2 * r.forks);
    }

    #[test]
    fn determinism(seed in 0u64..10_000, fanout in 1usize..4, depth in 0usize..5) {
        let a = run_program(seed, fanout, depth, CostModel::default());
        let b = run_program(seed, fanout, depth, CostModel::default());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn larger_costs_never_shrink_costs(seed in 0u64..10_000, fanout in 1usize..3, depth in 0usize..4) {
        let small = run_program(seed, fanout, depth, CostModel::default());
        let big = run_program(seed, fanout, depth, CostModel::uniform(3));
        prop_assert!(big.work >= small.work);
        prop_assert!(big.depth >= small.depth);
        // Depth scales at most linearly in the constant.
        prop_assert!(big.depth <= 3 * small.depth);
    }

    #[test]
    fn strict_wrapper_preserves_work_increases_depth(seed in 0u64..10_000, depth in 1usize..4) {
        fn body(ctx: &Ctx, seed: u64, depth: usize, strict: bool) {
            let (p1, f1) = ctx.promise();
            let (p2, f2) = ctx.promise();
            let go = move |ctx: &Ctx| {
                ctx.fork_unit(move |ctx| {
                    ctx.tick(1 + seed % 5);
                    p1.fulfill(ctx, ());
                    ctx.tick(10 * depth as u64);
                    p2.fulfill(ctx, ());
                });
            };
            if strict {
                ctx.call_strict(go);
            } else {
                go(ctx);
            }
            ctx.touch(&f1);
            ctx.tick(10 * depth as u64);
            ctx.touch(&f2);
        }
        let (_, pip) = Sim::new().run(|ctx| body(ctx, seed, depth, false));
        let (_, str_) = Sim::new().run(|ctx| body(ctx, seed, depth, true));
        prop_assert_eq!(pip.work, str_.work);
        prop_assert!(pip.depth <= str_.depth);
    }

    #[test]
    fn traced_run_matches_untraced(seed in 0u64..3_000, fanout in 1usize..3, depth in 0usize..4) {
        let plain = run_program(seed, fanout, depth, CostModel::default());
        let (_, traced, trace) = Sim::new().run_traced(|ctx| node(ctx, seed, fanout, depth));
        prop_assert_eq!(plain.work, traced.work, "tracing must not change costs");
        prop_assert_eq!(plain.depth, traced.depth);
        prop_assert_eq!(trace.total_actions(), traced.work);
        prop_assert_eq!(trace.n_threads() as u64, traced.forks + 1);
    }
}
