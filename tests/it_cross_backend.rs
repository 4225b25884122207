//! Cross-backend agreement: the cost-model simulator, the real runtime,
//! and the sequential references must produce identical results (and for
//! treaps, identical shapes) on identical inputs, across thread counts.

use pf_algs::plain::{splitmix64, PlainTreap};
use pf_algs::start::{insert_many_on, merge_on, msort_on, pipeline_on, quicksort_on, rebalance_on};
use pf_algs::treap::{diff, intersect, union, union_many};
use pf_algs::Mode::{self, Pipelined};
use pf_backend::{PipeBackend, Seq};
use pf_bench::sim::{
    run_diff, run_insert_many, run_merge, run_msort, run_pipeline, run_quicksort, run_rebalance,
    run_union,
};
use pf_bench::workloads::shuffled_keys;
use pf_rt::{cell, ready, Runtime};
use pf_tests::{complete_ready, crusted_ready, entries, on_rt, unsized_ready, RTreap};

#[test]
fn merge_agrees_across_backends() {
    for (na, nb) in [(0usize, 5usize), (5, 0), (100, 100), (777, 333)] {
        let a: Vec<i64> = (0..na as i64).map(|i| 2 * i).collect();
        let b: Vec<i64> = (0..nb as i64).map(|i| 2 * i + 1).collect();
        let (root, _) = run_merge(&a, &b, Mode::Pipelined);
        let model = root.get().to_sorted_vec();
        for threads in [1, 3] {
            let (a, b) = (a.clone(), b.clone());
            let (t, _) = on_rt(&Runtime::new(threads), move |wk| {
                merge_on(wk, &a, &b, Pipelined)
            });
            assert_eq!(
                t.to_sorted_vec(),
                model,
                "na={na} nb={nb} threads={threads}"
            );
        }
    }
}

#[test]
fn union_shape_agrees_across_all_three_backends() {
    let a = entries((0..500).map(|i| 3 * i));
    let b = entries((0..500).map(|i| 2 * i));
    // Sequential.
    let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
    let seq_keys = PlainTreap::to_sorted_vec(&pu);
    let seq_height = PlainTreap::height(&pu);
    // Cost model.
    let (root, _) = run_union(&a, &b, Mode::Pipelined);
    assert_eq!(root.get().to_sorted_vec(), seq_keys);
    assert_eq!(root.get().height(), seq_height);
    // Real runtime.
    for threads in [1, 2, 4] {
        let (op, of) = cell();
        let (ta, tb) = (complete_ready(&a), complete_ready(&b));
        Runtime::new(threads).run(move |wk| union(wk, ta, tb, op, Pipelined));
        let t = of.expect();
        assert_eq!(t.to_sorted_vec(), seq_keys, "threads={threads}");
        assert_eq!(t.height(), seq_height, "threads={threads}");
    }
}

#[test]
fn diff_agrees_across_backends() {
    let a = entries(0..600);
    let b = entries((0..600).filter(|k| k % 4 == 0));
    let pd = PlainTreap::diff(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
    let seq_keys = PlainTreap::to_sorted_vec(&pd);
    let (root, _) = run_diff(&a, &b, Mode::Pipelined);
    assert_eq!(root.get().to_sorted_vec(), seq_keys);
    assert_eq!(root.get().height(), PlainTreap::height(&pd));
    for threads in [1, 4] {
        let (op, of) = cell();
        let (ta, tb) = (complete_ready(&a), complete_ready(&b));
        Runtime::new(threads).run(move |wk| diff(wk, ta, tb, op, Pipelined));
        assert_eq!(of.expect().to_sorted_vec(), seq_keys, "threads={threads}");
    }
}

#[test]
fn rebalance_agrees_across_all_three_backends() {
    for n in [0usize, 1, 37, 300] {
        let keys: Vec<i64> = shuffled_keys(n, 11 + n as u64);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        // Cost model: deterministic shape, used as the reference below.
        let (root, _) = run_rebalance(&keys, Mode::Pipelined);
        let model = root.get();
        assert_eq!(model.to_sorted_vec(), sorted, "n={n}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_tree = Seq::run(|bk| rebalance_on(bk, &keys, Pipelined).expect());
        assert_eq!(seq_tree.to_sorted_vec(), sorted, "n={n}");
        assert_eq!(seq_tree.height(), model.height(), "n={n}");
        // Real runtime, multiple thread counts: identical deterministic shape.
        for threads in [1, 4] {
            let keys = keys.clone();
            let (t, _) = on_rt(&Runtime::new(threads), move |wk| {
                rebalance_on(wk, &keys, Pipelined)
            });
            assert_eq!(t.to_sorted_vec(), sorted, "n={n} threads={threads}");
            assert_eq!(t.height(), model.height(), "n={n} threads={threads}");
        }
    }
}

#[test]
fn two_six_insert_agrees_across_all_three_backends() {
    for (n, m) in [(0usize, 40usize), (400, 120), (1000, 1)] {
        let initial: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
        let newk: Vec<i64> = (0..m as i64).map(|i| 8 * i + 1).collect();
        let mut expect = initial.clone();
        expect.extend(&newk);
        expect.sort_unstable();
        // Cost model.
        let (root, _) = run_insert_many(&initial, &newk, Mode::Pipelined);
        let model = root.get();
        model.validate().unwrap();
        assert_eq!(model.to_sorted_vec(), expect, "n={n} m={m}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_tree = Seq::run(|bk| insert_many_on(bk, &initial, &newk, Pipelined).expect());
        seq_tree.validate().unwrap();
        assert_eq!(seq_tree.to_sorted_vec(), expect, "n={n} m={m}");
        // Real runtime, multiple thread counts.
        for threads in [1, 4] {
            let (initial, keys) = (initial.clone(), newk.clone());
            let (t, _) = on_rt(&Runtime::new(threads), move |wk| {
                insert_many_on(wk, &initial, &keys, Pipelined)
            });
            t.validate().unwrap();
            assert_eq!(t.to_sorted_vec(), expect, "n={n} m={m} threads={threads}");
        }
    }
}

#[test]
fn pipeline_sum_agrees() {
    let n = 5000u64;
    // The eager evaluator nests one native frame per list element; use the
    // big-stack helper for deep pipelines (see pf_core::run_with_big_stack).
    let (sum_model, _) =
        pf_core::run_with_big_stack(256 << 20, move || run_pipeline(n, Mode::Pipelined));
    let (sum, _) = on_rt(&Runtime::new(3), move |wk| pipeline_on(wk, n, Pipelined));
    assert_eq!(sum, sum_model);
}

#[test]
fn quicksort_agrees_with_std_sort() {
    for seed in 0..5 {
        let keys = shuffled_keys(400, seed);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Cost model.
        let (l, _) = run_quicksort(&keys, Mode::Pipelined);
        assert_eq!(l.collect_vec(), expect);
        // Real runtime.
        let (l, _) = on_rt(&Runtime::new(4), move |wk| {
            quicksort_on(wk, &keys, Pipelined)
        });
        assert_eq!(l.collect_vec(), expect);
    }
}

#[test]
fn algorithms_are_generic_over_key_types() {
    // Everything so far runs on i64; the API is generic — prove it with
    // owned string keys across both backends.
    let a: Vec<String> = (0..60).map(|i| format!("a{:03}", 2 * i)).collect();
    let b: Vec<String> = (0..40).map(|i| format!("a{:03}", 2 * i + 1)).collect();
    let mut expect: Vec<String> = a.iter().chain(b.iter()).cloned().collect();
    expect.sort();

    let (root, c) = run_merge(&a, &b, Mode::Pipelined);
    assert_eq!(root.get().to_sorted_vec(), expect);
    assert!(c.is_linear());

    let (ka, kb) = (a.clone(), b.clone());
    let (t, _) = on_rt(&Runtime::new(2), move |wk| {
        merge_on(wk, &ka, &kb, Pipelined)
    });
    assert_eq!(t.to_sorted_vec(), expect);

    // Treap union over string keys in the cost model.
    let ea: Vec<(String, u64)> = a
        .iter()
        .map(|k| {
            (
                k.clone(),
                splitmix64(k.len() as u64 ^ 0x77)
                    ^ (k.bytes().map(u64::from).sum::<u64>() * 2654435761),
            )
        })
        .collect();
    let eb: Vec<(String, u64)> = b
        .iter()
        .map(|k| (k.clone(), k.bytes().map(u64::from).product::<u64>() | 1))
        .collect();
    let (uroot, _) = run_union(&ea, &eb, Mode::Pipelined);
    assert_eq!(uroot.get().to_sorted_vec(), expect);
    assert!(uroot.get().check_invariants());
}

#[test]
fn mergesort_agrees_across_all_three_backends() {
    for n in [0usize, 1, 2, 37, 300] {
        let keys = shuffled_keys(n, 5 + n as u64);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Cost model: deterministic shape, used as the height reference.
        let (root, _) = run_msort(&keys, false, Mode::Pipelined);
        let model = root.get();
        assert_eq!(model.to_sorted_vec(), expect, "n={n}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_tree = Seq::run(|bk| msort_on(bk, &keys, false, Pipelined).expect());
        assert_eq!(seq_tree.to_sorted_vec(), expect, "n={n}");
        assert_eq!(seq_tree.height(), model.height(), "n={n}");
        // Real runtime, multiple thread counts: identical deterministic shape.
        for threads in [1, 4] {
            let keys = keys.clone();
            let (t, _) = on_rt(&Runtime::new(threads), move |wk| {
                msort_on(wk, &keys, false, Pipelined)
            });
            assert_eq!(t.to_sorted_vec(), expect, "n={n} threads={threads}");
            assert_eq!(t.height(), model.height(), "n={n} threads={threads}");
        }
    }
}

#[test]
fn quicksort_agrees_across_all_three_backends() {
    for seed in [0u64, 3] {
        let keys = shuffled_keys(400, seed);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Cost model.
        let (l, _) = run_quicksort(&keys, Mode::Pipelined);
        assert_eq!(l.collect_vec(), expect, "seed={seed}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_sorted = Seq::run(|bk| quicksort_on(bk, &keys, Pipelined).expect().collect_vec());
        assert_eq!(seq_sorted, expect, "seed={seed}");
        // Real runtime.
        for threads in [1, 4] {
            let keys = keys.clone();
            let (l, _) = on_rt(&Runtime::new(threads), move |wk| {
                quicksort_on(wk, &keys, Pipelined)
            });
            assert_eq!(l.collect_vec(), expect, "seed={seed} threads={threads}");
        }
    }
}

#[test]
#[should_panic(expected = "future cell touched before it was written")]
fn seq_oracle_rejects_touch_before_write() {
    // The sequential backend is the Σ_f ⇒ Σ oracle: it must refuse any
    // program whose futures-free erasure would read an unwritten cell.
    Seq::run(|bk| {
        let (_wr, f) = bk.cell::<i64>();
        bk.touch(&f, |_bk, _v| {});
    });
}

/// Every pool width yields bit-identical algorithm results — keys *and*
/// deterministic tree shape — and identical schedule-independent
/// accounting on the tri-backend suite's treap-union and mergesort
/// workloads. "Schedule-independent accounting" is `spawns` (a spawned
/// task is counted once whether pushed or run inline) plus the liveness
/// identity `tasks_executed - suspensions == spawns + 1`; raw executed
/// counts legitimately vary because whether a touch suspends depends on
/// the schedule.
#[test]
fn every_sched_policy_is_result_identical_across_the_suite() {
    // Union reference (sequential oracle).
    let a = entries((0..400).map(|i| 3 * i));
    let b = entries((0..400).map(|i| 2 * i));
    let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
    let union_keys = PlainTreap::to_sorted_vec(&pu);
    let union_height = PlainTreap::height(&pu);
    // Mergesort reference (cost-model shape).
    let keys = shuffled_keys(300, 77);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let (mroot, _) = run_msort(&keys, false, Mode::Pipelined);
    let msort_height = mroot.get().height();

    let mut union_spawns: Option<u64> = None;
    let mut msort_spawns: Option<u64> = None;
    for threads in [1usize, 2, 4] {
        let rt = Runtime::new(threads);

        let (op, of) = cell();
        let (ta, tb) = (unsized_ready(&a), unsized_ready(&b));
        let stats = rt.run_stats(move |wk| union(wk, ta, tb, op, Pipelined));
        let t = of.expect();
        assert_eq!(t.to_sorted_vec(), union_keys, "union t={threads}");
        assert_eq!(t.height(), union_height, "union t={threads}");
        let s = *union_spawns.get_or_insert(stats.spawns);
        assert_eq!(stats.spawns, s, "union t={threads}: spawns");
        assert_eq!(
            stats.tasks_executed - stats.suspensions,
            stats.spawns + 1,
            "union t={threads}: liveness identity"
        );

        let keys = keys.clone();
        let (t, stats) = on_rt(&rt, move |wk| msort_on(wk, &keys, false, Pipelined));
        assert_eq!(t.to_sorted_vec(), sorted, "msort t={threads}");
        assert_eq!(t.height(), msort_height, "msort t={threads}");
        let s = *msort_spawns.get_or_insert(stats.spawns);
        assert_eq!(stats.spawns, s, "msort t={threads}: spawns");
        assert_eq!(
            stats.tasks_executed - stats.suspensions,
            stats.spawns + 1,
            "msort t={threads}: liveness identity"
        );
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
/// more: 214 for 200 deleted keys of these 400.)
#[test]
fn work_first_default_does_not_suspend_at_one_worker() {
    let rt = Runtime::new(1);
    let a = entries((0..400).map(|i| 3 * i));
    let b = entries((0..400).map(|i| 2 * i));
    let (op, of) = cell();
    let (ta, tb) = (unsized_ready(&a), unsized_ready(&b));
    let stats = rt.run_stats(move |wk| union(wk, ta, tb, op, Pipelined));
    assert_eq!(of.expect().to_sorted_vec().len(), 800 - 134);
    assert_eq!(stats.suspensions, 0, "union");

    let b = entries((0..300).map(|i| 24 * i));
    let found = 50; // the multiples of 24 below 1200
    let (op, of) = cell();
    let (ta, tb) = (unsized_ready(&a), unsized_ready(&b));
    let stats = rt.run_stats(move |wk| diff(wk, ta, tb, op, Pipelined));
    assert_eq!(of.expect().to_sorted_vec().len(), 400 - found);
    assert!(
        stats.suspensions <= found as u64,
        "diff suspended {} times for {found} found keys",
        stats.suspensions
    );

    let a: Vec<i64> = (0..777).map(|i| 2 * i).collect();
    let b: Vec<i64> = (0..333).map(|i| 2 * i + 1).collect();
    let (t, stats) = on_rt(&rt, move |wk| merge_on(wk, &a, &b, Pipelined));
    assert_eq!(t.to_sorted_vec().len(), 777 + 333);
    assert_eq!(stats.suspensions, 0, "merge");
}

#[test]
fn repeated_rt_runs_are_deterministic_in_value() {
    // Scheduling is nondeterministic; results must not be.
    let a = entries((0..300).map(|i| 2 * i));
    let b = entries((0..300).map(|i| 2 * i + 1));
    let mut first: Option<Vec<i64>> = None;
    for _ in 0..20 {
        let (op, of) = cell();
        let (ta, tb) = (complete_ready(&a), complete_ready(&b));
        Runtime::new(4).run(move |wk| union(wk, ta, tb, op, Pipelined));
        let keys = of.expect().to_sorted_vec();
        match &first {
            None => first = Some(keys),
            Some(f) => assert_eq!(&keys, f),
        }
    }
}

#[test]
fn union_is_bit_identical_under_concurrent_panicking_sibling() {
    // PR-9 fault-containment half of the identity suite: a treap union
    // whose session shares the pool with a panicking sibling session
    // must produce the same sorted keys AND the same deterministic shape
    // as its solo run — fault containment is semantic, not just "no
    // crash". (The solo determinism itself is pinned by
    // `repeated_rt_runs_are_deterministic_in_value` above.)
    use std::sync::Arc;

    let a = entries((0..400).map(|i| 3 * i));
    let b = entries((0..400).map(|i| 2 * i));
    let rt = Arc::new(Runtime::new(4));

    // Solo baseline on the same pool.
    let (op, of) = cell();
    let (ta, tb) = (complete_ready(&a), complete_ready(&b));
    rt.try_run(move |wk| union(wk, ta, tb, op, Pipelined))
        .unwrap();
    let solo = of.expect();
    let (solo_keys, solo_height) = (solo.to_sorted_vec(), solo.height());

    for round in 0..10 {
        let rt2 = Arc::clone(&rt);
        let pill = std::thread::spawn(move || {
            let (_w, r) = cell::<u32>(); // never written; poisoned on abort
            let r_in = r.clone();
            rt2.try_run(move |wk| {
                r_in.touch(wk, |_v, _wk| {});
                wk.spawn(|_| panic!("sibling pill"));
            })
            .unwrap_err()
        });
        let (op, of) = cell();
        let (ta, tb) = (complete_ready(&a), complete_ready(&b));
        rt.try_run(move |wk| union(wk, ta, tb, op, Pipelined))
            .expect("union session alongside a panicking sibling");
        let t = of.expect();
        assert_eq!(t.to_sorted_vec(), solo_keys, "round {round}: keys diverged");
        assert_eq!(t.height(), solo_height, "round {round}: shape diverged");
        let err = pill.join().unwrap();
        assert_eq!(err.panic_message(), Some("sibling pill"));
    }
}

// ---- The grain cutoff (PipeBackend::GRAIN) is invisible in results ----

type Entries = Vec<(i64, u64)>;
type Plain = Option<Box<PlainTreap<i64>>>;

fn plain_preorder(t: &Plain) -> Entries {
    fn rec(t: &Plain, out: &mut Entries) {
        if let Some(n) = t {
            out.push((n.key, n.prio));
            rec(&n.left, out);
            rec(&n.right, out);
        }
    }
    let mut out = vec![];
    rec(t, &mut out);
    out
}

/// A finished pf-rt result is `want`'s tree entry for entry (in preorder,
/// blocks expanded: with the search order, that fixes the shape), and its
/// size annotations and blocks are what the representation rule makes.
fn assert_same_tree(got: &RTreap<i64>, want: &Plain, what: &str) {
    assert_eq!(got.preorder(), plain_preorder(want), "{what}");
    assert!(got.check_invariants(), "{what}");
}

/// `entries` as a pf-rt input: complete, or as a pipelined producer would
/// have published it.
fn rt_input(e: &[(i64, u64)], sized: bool) -> pf_rt::FutRead<RTreap<i64>> {
    crusted_ready(e, if sized { SIZED } else { ALL })
}

/// `crusted_ready`'s two ends: every node unsized over cells, and the
/// complete treap.
const ALL: Option<usize> = None;
const SIZED: Option<usize> = Some(0);

fn reprio(e: &[(i64, u64)]) -> Entries {
    e.iter().map(|&(k, p)| (k, splitmix64(p))).collect()
}

/// On complete operands pf-rt runs plain code below the grain and splits
/// and joins plainly above it; on unsized operands it takes the paper's
/// step throughout. Either way, with one operand of each kind, and with
/// operands whose unsized top holds one child directly and the other in a
/// cell, union / difference / intersection / `union_many` build
/// `PlainTreap`'s tree at 1, 2 and 4 threads.
#[test]
fn cutoff_builds_the_same_trees_on_the_runtime() {
    let x = entries((0..120).map(|i| 3 * i));
    let cases: Vec<(Entries, Entries)> = vec![
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
    for threads in [1, 2, 4] {
        let rt = Runtime::new(threads);
        for (i, (a, b)) in cases.iter().enumerate() {
            let (pa, pb) = (
                || PlainTreap::from_entries(a),
                || PlainTreap::from_entries(b),
            );
            let want = [
                PlainTreap::union(pa(), pb()),
                PlainTreap::diff(pa(), pb()),
                PlainTreap::diff(pa(), PlainTreap::diff(pa(), pb())),
                PlainTreap::union(PlainTreap::union(pa(), pb()), pa()),
            ];
            for (sa, sb) in [
                (SIZED, SIZED),
                (ALL, ALL),
                (ALL, SIZED),
                (Some(3), SIZED),
                (SIZED, Some(4)),
                (Some(2), ALL),
            ] {
                let (fa, fb) = (crusted_ready(a, sa), crusted_ready(b, sb));
                let many = vec![fa.clone(), fb.clone(), crusted_ready(a, sb)];
                let outs = [cell(), cell(), cell(), cell()];
                let [(u, uf), (d, df), (n, nf), (m, mf)] = outs;
                rt.run(move |wk| {
                    union(wk, fa.clone(), fb.clone(), u, Pipelined);
                    diff(wk, fa.clone(), fb.clone(), d, Pipelined);
                    intersect(wk, fa, fb, n, Pipelined);
                    union_many(wk, many, Pipelined).touch(wk, move |v, wk| m.fulfill(wk, v));
                });
                for (op, (got, want)) in [uf, df, nf, mf].iter().zip(&want).enumerate() {
                    let what = format!("case {i} op {op} crust=({sa:?},{sb:?}) threads={threads}");
                    assert_same_tree(&got.expect(), want, &what);
                }
            }
        }
    }
}

/// A service window in miniature: eight waves, each a union tree of its
/// groups, chained in one session through result cells — so a wave may
/// find its predecessor's root still pending (a stolen fork, or an
/// unsized predecessor's pushed children), sized (the predecessor ran plain code) or unsized (it forked:
/// wave 3 is more than one grain of work).
#[test]
fn eight_waves_chain_through_unresolved_cells() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(16);
    let root = entries((0..20_000).map(|i| 5 * i));
    let waves: Vec<(bool, Vec<Entries>)> = (0..8)
        .map(|w| {
            let insert = w % 3 != 2;
            let groups = (0..1 + w % 3)
                .map(|_| {
                    let keys = if w == 3 { 3000 } else { rng.gen_range(1..200) };
                    (0..keys)
                        .map(|_| (rng.gen_range(0..100_000), rng.gen()))
                        .collect()
                })
                .collect();
            (insert, groups)
        })
        .collect();
    let mut want = PlainTreap::from_entries(&root);
    for (insert, groups) in &waves {
        let batch = groups.iter().fold(None, |acc, g| {
            PlainTreap::union(acc, PlainTreap::from_entries(g))
        });
        want = if *insert {
            PlainTreap::union(want, batch)
        } else {
            PlainTreap::diff(want, batch)
        };
    }
    for threads in [1, 2, 4] {
        let rt = Runtime::new(threads);
        for sized_root in [true, false] {
            let mut state = rt_input(&root, sized_root);
            let waves = waves.clone();
            let (op, of) = cell();
            rt.run(move |wk| {
                for (insert, groups) in waves {
                    let futs = groups.iter().map(|g| rt_input(g, true)).collect();
                    let batch = union_many(wk, futs, Pipelined);
                    let (p, f) = cell();
                    if insert {
                        union(wk, state, batch, p, Pipelined);
                    } else {
                        diff(wk, state, batch, p, Pipelined);
                    }
                    state = f;
                }
                state.touch(wk, move |v, wk| op.fulfill(wk, v));
            });
            let what = format!("threads={threads} sized_root={sized_root}");
            assert_same_tree(&of.expect(), &want, &what);
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
    let root = RTreap::from_plain_complete(&PlainTreap::from_entries(&entries(
        (0..5000).map(|i| 3 * i),
    )));
    let (lost, next) = (entries(0..300), entries((0..300).map(|i| 7 * i)));
    let rt = Runtime::new(2);

    let state = ready(root.clone());
    let (op, of) = cell();
    let aborted = rt.try_run_session(
        pf_rt::Session::new().deadline(Duration::from_millis(100)),
        move |wk| {
            let (p, f) = cell();
            union(wk, state, rt_input(&lost, true), p, Pipelined);
            wk.spawn(|wk| {
                while !wk.cancelled() {
                    std::hint::spin_loop();
                }
            });
            let (p2, f2) = cell();
            diff(wk, f, rt_input(&lost, true), p2, Pipelined);
            f2.touch(wk, move |v, wk| op.fulfill(wk, v));
        },
    );
    assert!(aborted.is_err(), "the wedged window must abort");
    drop(of);
    assert!(root.check_invariants());
    assert_eq!(root.sized(), Some(5000));

    let (state, batch) = (ready(root), rt_input(&next, true));
    let (op, of) = cell();
    rt.run(move |wk| union(wk, state, batch, op, Pipelined));
    let want = PlainTreap::union(
        PlainTreap::from_entries(&entries((0..5000).map(|i| 3 * i))),
        PlainTreap::from_entries(&next),
    );
    assert_same_tree(&of.expect(), &want, "window after the aborted one");
}
