//! The treap family — union, difference, `splitm`, `join` —
//! on `Seq` and the simulator, plus its pf-rt half of the
//! representation check: results against `PlainTreap`, then the
//! simulator's cost assertions.

mod tests {
    use pf_algs::plain::{splitmix64, Entry, PlainTreap};
    use pf_algs::start::{diff_on, union_on};
    use pf_algs::treap::{diff, union, Complete, Treap, TreapFut, TreapWr};
    use pf_algs::{Mode, PipeBackend, Seq};
    use pf_bench::analysis::{completion_time, walk_treap};
    use pf_core::{Ctx, Fut, Sim};
    use pf_rt::Worker;

    use crate::sim::run_union;
    use crate::*;
    use SetOp::*;

    /// `op` of `a` and `b` on the simulator builds `PlainTreap`'s tree.
    fn on_sim(op: SetOp, a: &[Entry<i64>], b: &[Entry<i64>]) {
        SetOps::new(a, b).check::<Ctx>(&[op], &BOTH_SIZED);
    }

    fn plain(keys: impl IntoIterator<Item = i64>) -> Plain {
        PlainTreap::from_entries(&entries(keys))
    }

    /// The cutoff and the representation are invisible in the result: on
    /// complete operands (plain code below the grain, plain splits and
    /// joins above it), on pending ones over cells (the paper's step
    /// throughout), on one of each, and on operands whose pending top holds
    /// one child directly and the other in a cell, every set operation
    /// builds `PlainTreap`'s tree on `Seq` and on pf-rt at every width (the
    /// two engines side by side) — also either side of the plain kernel's
    /// size rules.
    #[test]
    fn sized_and_unsized_operands_build_the_oracles_tree() {
        let reprio = |e: &[Entry<i64>]| -> Vec<Entry<i64>> {
            e.iter().map(|&(k, p)| (k, splitmix64(p))).collect()
        };
        let x = entries((0..120).map(|i| 3 * i));
        let mut cases = vec![
            (vec![], vec![]),
            (vec![], x.clone()),
            (x.clone(), vec![]),
            (entries([30]), x.clone()),
            (x.clone(), entries([31])),
            (entries(0..50), entries(100..150)),
            (x.clone(), x.clone()),
            (x.clone(), reprio(&x)),
            (entries(0..200), entries((0..200).map(|i| 2 * i))),
            // More than one grain of work: the top of these forks.
            (
                entries((0..6000).map(|i| 2 * i)),
                entries((0..6000).map(|i| 3 * i + 1)),
            ),
            (
                entries(0..20_000),
                reprio(&entries((0..1500).map(|i| 13 * i))),
            ),
        ];
        cases.extend(size_rule_pairs().into_iter().map(|[a, b]| (a, b)));
        for (a, b) in &cases {
            let ops = SetOps::new(a, b);
            std::thread::scope(|s| {
                s.spawn(|| ops.check::<Seq>(&SET_OPS, &CRUSTS));
                ops.check::<Worker>(&SET_OPS, &CRUSTS);
            });
        }
    }

    /// With no engine in hand, `Complete::from_plain` builds what
    /// `Treap::from_plain` builds on an engine that cuts: the plain treap's
    /// keys and shape, every node sized exactly, blocks wherever 32 keys or
    /// fewer hang together.
    #[test]
    fn from_plain_complete_builds_from_plains_tree_without_an_engine() {
        let plain = plain((0..700).map(|i| 3 * i));
        assert_complete(&Complete::from_plain(&plain), &plain, "without an engine");
        let Treap::Done(on_seq) = Seq::run(|bk| Treap::from_plain(bk, &plain)) else {
            panic!("Seq cuts, so its input is complete");
        };
        assert_complete(&on_seq, &plain, "on Seq");
        assert!(Complete::<i64>::from_plain(&None).is_leaf());
    }

    /// The linear-time builder makes `PlainTreap::from_entries`'s tree,
    /// entry for entry, whatever the priorities do: random, a right spine,
    /// a left spine, and all equal (ties go to the larger key); and the
    /// representation is canonical, so 32 keys are one block and 33 are a
    /// node over blocks.
    #[test]
    fn from_sorted_complete_builds_the_oracles_tree_in_one_scan() {
        let keys = || (0..600).map(|i| 5 * i - 700);
        let inputs: [Vec<Entry<i64>>; 5] = [
            entries(keys()),
            keys().map(|k| (k, (k + 1000) as u64)).collect(),
            keys().map(|k| (k, (5000 - k) as u64)).collect(),
            keys().map(|k| (k, 7)).collect(),
            entries([42]),
        ];
        type T = Complete<i64>;
        for (i, e) in inputs.iter().enumerate() {
            let want = PlainTreap::from_entries(e);
            assert_complete(&T::from_sorted(e), &want, &format!("input {i}"));
        }
        assert!(T::from_sorted(&[]).is_leaf());
        let (fits, over) = (entries(0..32), entries(0..33));
        assert!(matches!(T::from_sorted(&fits), Complete::Block(b) if b.len() == 32));
        assert!(matches!(T::from_sorted(&over), Complete::Node(n) if n.size == 33));
    }

    #[test]
    fn union_on_the_oracle_matches_plain() {
        SetOps::new(&entries(0..80), &entries(40..120)).check::<Seq>(&[Union], &BOTH_SIZED);
    }

    #[test]
    fn diff_on_the_oracle_matches_plain() {
        let (a, b) = (entries(0..100), entries((0..100).filter(|k| k % 3 == 0)));
        SetOps::new(&a, &b).check::<Seq>(&[Diff], &BOTH_SIZED);
    }

    #[test]
    fn union_correct_disjoint() {
        on_sim(
            Union,
            &entries((0..100).map(|i| 2 * i)),
            &entries((0..50).map(|i| 2 * i + 1)),
        );
    }

    #[test]
    fn union_correct_overlapping() {
        on_sim(Union, &entries(0..80), &entries(40..120));
    }

    /// Same tie-break rule ⇒ same treap shape as the sequential oracle —
    /// for difference too, on the size-rule pairs' operands
    /// (a shape check only: the simulator never fuses, so runs no kernel).
    #[test]
    fn union_matches_sequential_shape() {
        on_sim(
            Union,
            &entries((0..200).map(|i| 3 * i)),
            &entries((0..150).map(|i| 2 * i)),
        );
        for [a, b] in size_rule_pairs() {
            SetOps::new(&a, &b).check::<Ctx>(&[Union, Diff], &BOTH_SIZED);
        }
    }

    #[test]
    fn union_edge_cases() {
        let (e, one) = (vec![], entries([7]));
        for (a, b) in [(&e, &e), (&one, &e), (&e, &one), (&one, &one)] {
            on_sim(Union, a, b);
        }
    }

    #[test]
    fn union_strict_same_result_more_depth() {
        let (a, b) = (entries(0..512), entries(256..768));
        let [p, s] = strict_vs_pipelined(|ctx, m| union_on(ctx, &a, &b, m), sealed_preorder);
        assert!(
            s.depth > p.depth + p.depth / 2,
            "strict union should be noticeably deeper: {} vs {}",
            s.depth,
            p.depth
        );
    }

    #[test]
    fn union_depth_logarithmic() {
        let d = |n: i64| {
            let a = entries((0..n).map(|i| 2 * i));
            let b = entries((0..n).map(|i| 2 * i + 1));
            run_union(&a, &b, M).1.depth
        };
        let (d1, d2, d3) = (d(1 << 10), d(1 << 11), d(1 << 12));
        let g1 = d2 as i64 - d1 as i64;
        let g2 = d3 as i64 - d2 as i64;
        // Expected O(lg n + lg m): roughly constant increment per doubling.
        assert!(g1.abs() < d1 as i64 / 2, "increment {g1} vs base {d1}");
        assert!(g2.abs() < d1 as i64 / 2, "increment {g2} vs base {d1}");
    }

    #[test]
    fn union_is_linear_code() {
        assert!(run_union(&entries(0..300), &entries(150..450), M)
            .1
            .is_linear());
    }

    #[test]
    fn diff_correct() {
        on_sim(
            Diff,
            &entries(0..100),
            &entries((0..100).filter(|k| k % 3 == 0)),
        );
    }

    #[test]
    fn diff_disjoint_is_identity() {
        on_sim(
            Diff,
            &entries((0..64).map(|i| 2 * i)),
            &entries((0..64).map(|i| 2 * i + 1)),
        );
    }

    #[test]
    fn diff_total_overlap_empties() {
        on_sim(Diff, &entries(0..64), &entries(0..64));
    }

    #[test]
    fn diff_edge_cases() {
        let (e, one) = (vec![], entries([7]));
        for (a, b) in [(&e, &e), (&one, &e), (&e, &one), (&one, &one)] {
            on_sim(Diff, a, b);
        }
    }

    #[test]
    fn diff_strict_same_result() {
        let (a, b) = (entries(0..256), entries((0..256).filter(|k| k % 2 == 0)));
        strict_vs_pipelined(|ctx, m| diff_on(ctx, &a, &b, m), sealed_preorder);
    }

    #[test]
    fn diff_matches_sequential_oracle_shape() {
        on_sim(
            Diff,
            &entries(0..300),
            &entries((0..300).filter(|k| k % 5 == 0)),
        );
    }

    #[test]
    fn diff_is_linear_code() {
        let (a, b) = (entries(0..200), entries((0..200).filter(|k| k % 4 == 0)));
        assert!(crate::sim::run_diff(&a, &b, M).1.is_linear());
    }

    #[test]
    fn splitm_excludes_splitter() {
        check_split_join::<Ctx, i64>(&plain(0..50), SIZED, 25);
    }

    #[test]
    fn splitm_absent_splitter() {
        check_split_join::<Ctx, i64>(&plain((0..50).map(|i| 2 * i)), SIZED, 31);
    }

    #[test]
    fn join_concatenates() {
        check_split_join::<Ctx, i64>(&plain((0..40).chain(100..140)), SIZED, 70);
    }

    type Op = fn(&Ctx, TreapFut<Ctx, i64>, TreapFut<Ctx, i64>, TreapWr<Ctx, i64>, Mode);

    /// One batch update pipelined onto `t` inside the running simulation:
    /// `op` (union or diff) of `t` and a ready treap of `batch`.
    fn apply(
        ctx: &Ctx,
        op: Op,
        t: TreapFut<Ctx, i64>,
        batch: &[Entry<i64>],
    ) -> Fut<Treap<Ctx, i64>> {
        let b = PipeBackend::input(ctx, Treap::from_entries(ctx, batch));
        let (p, f) = PipeBackend::cell(ctx);
        PipeBackend::fork(ctx, move |ctx| op(ctx, t, b, p, M));
        f
    }

    /// A chain of batched updates, all pipelined within ONE simulation:
    /// each batch consumes the previous batch's root future.
    #[test]
    fn bulk_insert_delete_pipeline() {
        let (root, c) = Sim::new().run(|ctx| {
            let ft = ctx.preload(Treap::from_entries(ctx, &entries(0..100)));
            let t1 = apply(ctx, union, ft, &entries(100..180));
            let t2 = apply(ctx, diff, t1, &entries((0..180).filter(|k| k % 3 == 0)));
            apply(ctx, union, t2, &entries(200..240))
        });
        let dels: Vec<i64> = (0..180).filter(|k| k % 3 == 0).collect();
        let want = fold(plain(0..100), &[], &entries(100..180));
        let want = fold(fold(want, &dels, &[]), &[], &entries(200..240));
        assert_oracles_tree(&root.get(), &want, "three batches");
        assert!(c.is_linear());
    }

    /// The second batch may start before the first completes: its root is
    /// written well before the first operation's deepest write.
    #[test]
    fn chained_batches_pipeline_across_operations() {
        let ((r1, r2), _) = Sim::new().run(|ctx| {
            let ft = ctx.preload(Treap::from_entries(ctx, &entries(0..2000)));
            let t1 = apply(ctx, union, ft, &entries(2000..3000));
            let t2 = apply(ctx, union, t1.clone(), &entries(3000..4000));
            (t1, t2)
        });
        let first_done = completion_time(|f| walk_treap(&r1, 0, f));
        assert!(
            r2.time() < first_done,
            "op 2's root ({}) should beat op 1's completion ({first_done})",
            r2.time()
        );
        assert!(r2.get().check_invariants());
    }

    /// A splitter below or above every key leaves one side empty, and the
    /// join of the two takes the other whole; so does the empty treap.
    #[test]
    fn join_with_empty_sides() {
        for s in [-1, 10] {
            check_split_join::<Ctx, i64>(&plain(0..10), SIZED, s);
        }
        check_split_join::<Ctx, i64>(&None, SIZED, 0);
    }
}
