//! Cross-backend agreement: the cost-model simulator, the real runtime
//! at every pool width, and the sequential oracle build identical results
//! (for treaps, identical trees) on identical inputs — through the
//! suite's checks — plus the runtime behaviours no oracle states: a
//! panicking neighbour, waves chained through unresolved cells, an aborted
//! window, and the work-first schedule's suspension counts.

use std::sync::Arc;

use pf_algs::plain::{splitmix64, PlainTreap};
use pf_algs::start::{merge_on, msort_on, union_on};
use pf_algs::treap::{diff, union, Treap, TreapFut, TreapWr};
use pf_algs::{Mode, PipeBackend, Seq};
use pf_bench::workloads::shuffled_keys;
use pf_core::Ctx;
use pf_rt::{cell, ready, Runtime, Worker};
use pf_tests::*;

#[test]
fn merge_agrees_across_backends() {
    for (na, nb) in [(0, 5), (5, 0), (100, 100), (300, 200), (777, 333)] {
        check_merge::<Seq, i64>(&evens(na), &odds(nb));
        check_merge::<Ctx, i64>(&evens(na), &odds(nb));
        check_merge::<Worker, i64>(&evens(na), &odds(nb));
    }
}

/// The union's shape, and every other set operation's, on complete
/// operands.
#[test]
fn union_shape_agrees_across_all_three_backends() {
    let ops = SetOps::new(
        &entries((0..500).map(|i| 3 * i)),
        &entries((0..500).map(|i| 2 * i)),
    );
    ops.check::<Seq>(&SET_OPS, &BOTH_SIZED);
    ops.check::<Ctx>(&SET_OPS, &BOTH_SIZED);
    ops.check::<Worker>(&SET_OPS, &BOTH_SIZED);
}

#[test]
fn diff_agrees_across_backends() {
    let ops = SetOps::new(&entries(0..600), &entries((0..600).filter(|k| k % 4 == 0)));
    ops.check::<Ctx>(&[SetOp::Diff], &BOTH_SIZED);
    ops.check::<Worker>(&[SetOp::Diff], &BOTH_SIZED);
}

#[test]
fn rebalance_agrees_across_all_three_backends() {
    for n in [0usize, 1, 37, 300] {
        let keys = shuffled_keys(n, 11 + n as u64);
        check_rebalance::<Seq, i64>(&keys);
        check_rebalance::<Ctx, i64>(&keys);
        check_rebalance::<Worker, i64>(&keys);
    }
}

#[test]
fn two_six_insert_agrees_across_all_three_backends() {
    for (n, m) in [(0, 40), (400, 120), (1000, 1)] {
        let (initial, keys) = (evens(n), (0..m).map(|i| 8 * i + 1).collect::<Vec<_>>());
        check_insert26::<Seq>(&initial, &keys);
        check_insert26::<Ctx>(&initial, &keys);
        check_insert26::<Worker>(&initial, &keys);
    }
}

/// A deep pipeline: the simulator's eager evaluator nests one native frame
/// per list element, so the engine runs it on a big stack.
#[test]
fn pipeline_sum_agrees() {
    check_pipeline::<Ctx>(5000);
    check_pipeline::<Worker>(5000);
}

/// Keys drawn from 50 values: the sorted list keeps every duplicate, as
/// `sort_unstable` does.
#[test]
fn quicksort_agrees_with_std_sort() {
    for seed in 0..5 {
        let keys: Vec<i64> = shuffled_keys(400, seed).iter().map(|k| k % 50).collect();
        check_quicksort::<Ctx>(&keys);
        check_quicksort::<Worker>(&keys);
    }
}

/// Everything else runs on `i64`; the API is generic — owned string keys
/// on every engine.
#[test]
fn algorithms_are_generic_over_key_types() {
    let key = |i: i64| format!("a{i:03}");
    let a: Vec<String> = (0..60).map(|i| key(2 * i)).collect();
    let b: Vec<String> = (0..40).map(|i| key(2 * i + 1)).collect();
    check_merge::<Ctx, String>(&a, &b);
    check_merge::<Worker, String>(&a, &b);
    assert!(sim::run_merge(&a, &b, M).1.is_linear());

    let prio = |k: &String| splitmix64(k.bytes().map(u64::from).sum::<u64>() * 2_654_435_761);
    let with_prios = |keys: &[String]| {
        keys.iter()
            .map(|k| (k.clone(), prio(k)))
            .collect::<Vec<_>>()
    };
    let ops = SetOps::new(&with_prios(&a), &with_prios(&b));
    ops.check::<Seq>(&SET_OPS, &CRUSTS);
    ops.check::<Ctx>(&SET_OPS, &BOTH_SIZED);
}

/// At `Seq`'s height and balanced; and the mergesort of 300 keys spawns
/// as many tasks at every pool width.
#[test]
fn mergesort_agrees_across_all_three_backends() {
    for (n, balanced) in [0usize, 1, 2, 37, 300]
        .into_iter()
        .flat_map(|n| [(n, false), (n, true)])
    {
        let keys = shuffled_keys(n, 5 + n as u64);
        check_msort::<Seq, i64>(&keys, balanced);
        check_msort::<Ctx, i64>(&keys, balanced);
        check_msort::<Worker, i64>(&keys, balanced);
    }
    let keys = shuffled_keys(300, 77);
    same_spawns_at_every_width(move |wk| msort_on(wk, &keys, false, M));
}

#[test]
fn quicksort_agrees_across_all_three_backends() {
    for seed in [0u64, 3] {
        let keys = shuffled_keys(400, seed);
        check_quicksort::<Seq>(&keys);
        check_quicksort::<Ctx>(&keys);
        check_quicksort::<Worker>(&keys);
    }
}

/// Work-first at one worker: a fork runs the future's body before its
/// parent's continuation, so on pre-written inputs shallower than the
/// runtime's inline-depth guard every cell `union` and `merge` touch is
/// already written — zero suspensions. `diff` still suspends in its
/// ascending phase: a node whose key is deleted joins its two recursive
/// results, and the left one is the stealable (pushed) child of the
/// `fork2`, so it waits for it — once per deleted key. (Deletions dense
/// enough that a join meets a nested join still pending add a few
/// more: 214 for 200 deleted keys of these 400.) The operands are unsized,
/// so pf-rt takes the paper's step throughout.
#[test]
fn work_first_default_does_not_suspend_at_one_worker() {
    type Op = fn(&Worker, RFut, RFut, TreapWr<Worker, i64>, Mode);
    type RFut = TreapFut<Worker, i64>;
    let rt = Runtime::new(1);
    let plain = |keys: Vec<i64>| Arc::new(PlainTreap::from_entries(&entries(keys)));
    let a = plain((0..400).map(|i| 3 * i).collect());
    let run = |op: Op, b: Arc<Plain>| {
        let (a, (out, of)) = (Arc::clone(&a), cell());
        let stats = rt.run_stats(move |wk| {
            let (ta, tb) = (
                wk.input(crusted(wk, &a, ALL)),
                wk.input(crusted(wk, &b, ALL)),
            );
            op(wk, ta, tb, out, M)
        });
        (RTreap::expect(&of).size(), stats.suspensions)
    };
    let (keys, suspensions) = run(union, plain((0..400).map(|i| 2 * i).collect()));
    assert_eq!((keys, suspensions), (800 - 134, 0), "union");

    let found = 50; // the multiples of 24 below 1200
    let (keys, suspensions) = run(diff, plain((0..300).map(|i| 24 * i).collect()));
    assert_eq!(keys, 400 - found);
    assert!(
        suspensions <= found as u64,
        "diff suspended {suspensions} times for {found} found keys"
    );

    let (t, stats) = on_rt(&rt, move |wk| merge_on(wk, &evens(777), &odds(333), M));
    assert_eq!(t.size(), 777 + 333);
    assert_eq!(stats.suspensions, 0, "merge");
}

/// Scheduling is nondeterministic; results are not.
#[test]
fn repeated_rt_runs_are_deterministic_in_value() {
    let ops = SetOps::new(
        &entries((0..300).map(|i| 2 * i)),
        &entries((0..300).map(|i| 2 * i + 1)),
    );
    for _ in 0..7 {
        ops.check::<Worker>(&[SetOp::Union], &BOTH_SIZED);
    }
}

/// Fault containment is semantic, not just "no crash": a treap union whose
/// session shares the pool with a panicking sibling session builds the
/// same keys and the same deterministic shape as its solo run.
#[test]
fn union_is_bit_identical_under_concurrent_panicking_sibling() {
    let a = entries((0..400).map(|i| 3 * i));
    let b = entries((0..400).map(|i| 2 * i));
    let rt = Arc::new(Runtime::new(4));
    let union_of = |rt: &Runtime| {
        let (a, b) = (a.clone(), b.clone());
        on_rt(rt, move |wk| union_on(wk, &a, &b, M)).0.preorder()
    };
    let solo = union_of(&rt);

    for round in 0..10 {
        let rt2 = Arc::clone(&rt);
        let pill = std::thread::spawn(move || {
            let (_w, r) = cell::<u32>(); // never written; poisoned on abort
            rt2.try_run(move |wk| {
                r.touch(wk, |_v, _wk| {});
                wk.spawn(|_| panic!("sibling pill"));
            })
            .unwrap_err()
        });
        assert_eq!(union_of(&rt), solo, "round {round}: the tree diverged");
        let err = pill.join().unwrap();
        assert_eq!(err.panic_message(), Some("sibling pill"));
    }
}

/// The paper's pipelining across operations: eight waves, each one batch
/// treap, chained in one session through result cells (pf-service ran
/// its pooled windows this way until it moved to one hop) — so a wave may
/// find its predecessor's root still pending (a stolen fork, or an
/// unsized predecessor's pushed children), sized (the predecessor ran
/// plain code) or unsized (it forked: wave 3 is more than one grain of
/// work).
#[test]
fn eight_waves_chain_through_unresolved_cells() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(16);
    let root = Arc::new(PlainTreap::from_entries(&entries(
        (0..20_000).map(|i| 5 * i),
    )));
    let waves: Vec<(bool, Vec<(i64, u64)>)> = (0..8)
        .map(|w| {
            let keys = if w == 3 { 3000 } else { rng.gen_range(1..200) };
            let batch = (0..keys)
                .map(|_| (rng.gen_range(0..100_000), rng.gen()))
                .collect();
            (w % 3 != 2, batch)
        })
        .collect();
    let mut want = (*root).clone();
    for (insert, batch) in &waves {
        let batch = PlainTreap::from_entries(batch);
        want = if *insert {
            PlainTreap::union(want, batch)
        } else {
            PlainTreap::diff(want, batch)
        };
    }
    for threads in [1, 2, 4] {
        let rt = Runtime::new(threads);
        for crust in [SIZED, ALL] {
            let (root, waves) = (Arc::clone(&root), waves.clone());
            let (op, of) = cell();
            rt.run(move |wk| {
                let mut state = wk.input(crusted(wk, &root, crust));
                for (insert, batch) in waves {
                    let batch = wk.input(Treap::from_entries(wk, &batch));
                    let (p, f) = cell();
                    if insert {
                        union(wk, state, batch, p, M);
                    } else {
                        diff(wk, state, batch, p, M);
                    }
                    state = f;
                }
                state.touch(wk, move |v, wk| op.fulfill(wk, v));
            });
            let what = format!("threads={threads} root crust {crust:?}");
            assert_oracles_tree(&of.expect(), &want, &what);
        }
    }
}

/// A window that wedges mid-flight (pf-service's `Fault::Wedge`: a task
/// that spins until cancelled) aborts at its deadline; nothing it built
/// is reachable from the root it started from, which stays complete and
/// exactly sized, and the next window applies to it as if the aborted one
/// had never run.
#[test]
fn aborted_window_leaves_the_old_root_sized_and_usable() {
    use std::time::Duration;
    let old = PlainTreap::from_entries(&entries((0..5000).map(|i| 3 * i)));
    let root = RTreap::from_plain_complete(&old);
    let (lost, next) = (entries(0..300), entries((0..300).map(|i| 7 * i)));
    let rt = Runtime::new(2);

    let state = ready(root.clone());
    let (op, of) = cell();
    let aborted = rt.try_run_session(
        pf_rt::Session::new().deadline(Duration::from_millis(100)),
        move |wk| {
            let (p, f) = cell();
            union(wk, state, wk.input(Treap::from_entries(wk, &lost)), p, M);
            wk.spawn(|wk| {
                while !wk.cancelled() {
                    std::hint::spin_loop();
                }
            });
            let (p2, f2) = cell();
            diff(wk, f, wk.input(Treap::from_entries(wk, &lost)), p2, M);
            f2.touch(wk, move |v, wk| op.fulfill(wk, v));
        },
    );
    assert!(aborted.is_err(), "the wedged window must abort");
    drop(of);
    assert_complete(&root, &old, "the old root");

    let want = fold(old, &[], &next);
    let (op, of) = cell();
    rt.run(move |wk| {
        union(
            wk,
            ready(root),
            wk.input(Treap::from_entries(wk, &next)),
            op,
            M,
        )
    });
    assert_oracles_tree(&of.expect(), &want, "window after the aborted one");
}
