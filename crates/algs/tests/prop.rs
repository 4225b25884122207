//! Property tests of the algorithms on random inputs, through the
//! workspace suite's checks (`pf_tests`): on `Seq`, the treap set
//! operations and `splitm`/`join` where complete subtreaps turn from blocks
//! into nodes; on the simulator, the same checks on other input
//! distributions, plus structural depth and height bounds.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use pf_algs::plain::{splitmix64, wins, Entry, PlainTreap};
use pf_algs::treap::{apply_run, plan_run, plan_run_on, within_grain, Complete, Node, Patch};
use pf_algs::tree::Tree;
use pf_algs::two_six::level_arrays;
use pf_algs::{PipeBackend, Seq};
use pf_core::{Ctx, Sim};
use pf_rt::Runtime;
use pf_tests::sim::run_merge;
use pf_tests::*;
use proptest::collection::{btree_map, btree_set, vec};
use proptest::prelude::*;
use proptest::TestRng;

/// Up to 96 random entries, their priorities cut to two bits when `tie` is
/// 0 (ties go to the larger key), plus a few thousand more when `bulk`
/// says so.
fn operand(small: BTreeMap<i64, u64>, bulk: bool, seed: u64, tie: u64) -> Vec<Entry<i64>> {
    let cut = |p: u64| if tie == 0 { p % 4 } else { p };
    let mut all: BTreeMap<i64, u64> = small.into_iter().map(|(k, p)| (k, cut(p))).collect();
    if bulk {
        let more = 2000 + seed % 3000;
        for i in 0..more {
            let h = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9));
            all.entry((h % 40_000) as i64 - 20_000).or_insert(h >> 24);
        }
    }
    all.into_iter().collect()
}

/// The crusts the boundary test draws its operands from.
const DRAWN: [Crust; 4] = [SIZED, ALL, Some(1), Some(4)];

/// The winner among `xs` by [`wins`], if any.
fn winner(xs: &[Entry<i64>]) -> Option<&Entry<i64>> {
    xs.iter()
        .reduce(|a, b| if wins(&b.0, b.1, &a.0, a.1) { b } else { a })
}

/// A mixed window: deletes `dels` plus the keys of `run`'s first entry,
/// of its winner and of `t`'s root, and inserts `run` plus `t`'s root
/// entry at a lower priority unless `run` holds its key. So the root is
/// deleted, and keys — the root's among them — are deleted and inserted
/// again in one window.
fn mixed(t: &[Entry<i64>], run: &[Entry<i64>], dels: &[i64]) -> (Vec<i64>, Vec<Entry<i64>>) {
    let root = winner(t);
    let again = run.first().into_iter().chain(winner(run)).chain(root);
    let mut keys: Vec<i64> = dels.iter().copied().chain(again.map(|e| e.0)).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut inserts = run.to_vec();
    if let Some(&(k, p)) = root {
        if let Err(at) = inserts.binary_search_by_key(&k, |e| e.0) {
            inserts.insert(at, (k, p / 2));
        }
    }
    (keys, inserts)
}

/// `apply_run` of the complete treap of `t` with inserts
/// `run`, deletes of absent keys, deletes `dels`, and both at once
/// ([`mixed`]) builds the [`fold`] of `t` in the canonical representation,
/// and returns `t` itself for nothing to do, for `t`'s own entries (merged
/// whole) or its first (cut in), for deletes of absent keys only, and for
/// both of those at once.
fn check_runs(t: &[Entry<i64>], run: &[Entry<i64>], dels: &[i64]) {
    let tree = Complete::from_sorted(t);
    let absent: Vec<i64> = (dels.iter().copied())
        .filter(|k| t.binary_search_by_key(k, |e| e.0).is_err())
        .collect();
    let (md, mi) = mixed(t, run, dels);
    for (i, (d, ins)) in [(&[][..], run), (&absent, &[]), (dels, &[]), (&md, &mi)]
        .into_iter()
        .enumerate()
    {
        let want = fold(PlainTreap::from_entries(t), d, ins);
        assert_complete(&apply_run(&tree, d, ins), &want, &format!("case {i}"));
    }
    let unchanged = |dels: &[i64], ins: &[Entry<i64>]| apply_run(&tree, dels, ins).ptr_eq(&tree);
    let one = &t[..t.len().min(1)];
    assert!(unchanged(&[], &[]), "an empty run");
    assert!(unchanged(&[], t), "its own entries");
    assert!(unchanged(&[], one), "one");
    assert!(unchanged(&absent, &[]), "absent deletes");
    assert!(unchanged(&absent, one), "both at once");
}

/// The run operations' inputs: `t` of 0 to 96 keys — 32 and 33, the
/// block/node edge, one case in four — or a few thousand more; a run of new
/// keys, of present keys re-prioritised higher or lower, and of entries
/// that beat `t`'s root at a new key or a present one (`edits`: 200 × how +
/// key), plus `grow` halves of `t`'s size in keys drawn over its key range
/// — up to twice `t`, so the run reaches `t`'s size and beyond and
/// `apply_run` merges it whole; deletes of present and absent keys.
struct RunCase;

impl Strategy for RunCase {
    type Value = (Vec<Entry<i64>>, Vec<Entry<i64>>, Vec<i64>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let small = btree_map(0i64..160, 0u64..1 << 40, 97..98).generate(rng);
        let len = (0usize..130).generate(rng);
        let bulk = (0u64..2).generate(rng);
        let seed = (0u64..u64::MAX).generate(rng);
        let tie = (0u64..4).generate(rng);
        let edits = vec(0i64..1000, 0..40).generate(rng);
        let grow = (0usize..5).generate(rng);
        let dels = btree_set(-20i64..220, 0..30).generate(rng);
        let len = if len < 97 { len } else { 32 + len % 2 };
        let t = operand(small.into_iter().take(len).collect(), bulk == 1, seed, tie);
        let root = t.iter().map(|e| e.1).max().unwrap_or(0);
        let mut run: BTreeMap<i64, u64> = BTreeMap::new();
        for (i, &edit) in edits.iter().enumerate() {
            let (k, how) = (edit % 200, edit / 200);
            let h = splitmix64(seed ^ k as u64);
            let present = (!t.is_empty()).then(|| t[k as usize % t.len()]);
            let (key, prio) = match (how, present) {
                (1, Some((pk, p))) => (pk, p.saturating_add(1 + h % 8)),
                (2, Some((pk, p))) => (pk, p.saturating_sub(1 + h % 8)),
                (3, _) => (k + 1000, root.saturating_add(1 + i as u64)),
                (4, Some((pk, _))) => (pk, root.saturating_add(1 + i as u64)),
                _ => (k, if tie == 0 { h % 4 } else { h }),
            };
            run.entry(key).or_insert(prio);
        }
        let (lo, hi) = (
            t.first().map_or(0, |e| e.0),
            t.last().map_or(160, |e| e.0 + 1),
        );
        for i in 0..(grow * t.len().max(8) / 2) as u64 {
            let h = splitmix64(seed ^ 0x5EED ^ i.wrapping_mul(0x9E37_79B9));
            run.entry(lo + (h % (hi - lo) as u64) as i64)
                .or_insert(h >> 20);
        }
        let run: Vec<Entry<i64>> = run.into_iter().collect();
        let dels: Vec<i64> = dels.into_iter().collect();
        (t, run, dels)
    }
}

/// `run`, `dels`, and both at once ([`mixed`]), planned
/// as patches of the complete treap of `t` and committed in place, build
/// the [`fold`] of `t` with the treap unshared, held by a clone from
/// before the plan (which the patch copies around), or held between plan
/// and commit at its root or at its deepest node on the way to the first
/// key (which the commit refuses and undoes, and commits once the clone is
/// gone). No clone changes.
fn check_commits(t: &[Entry<i64>], run: &[Entry<i64>], dels: &[i64]) {
    let (md, mi) = mixed(t, run, dels);
    let ops = [(vec![], run.to_vec()), (dels.to_vec(), vec![]), (md, mi)];
    commits(t, &ops, &|x, d, ins| plan_run(x, d, ins, 1));
}

/// A planner under test: a patch of `t` for deleting `d` and inserting
/// `ins`, with the caller's handle on `t` its only owner.
type Planner<'a> = &'a dyn Fn(&Complete<i64>, &[i64], &[Entry<i64>]) -> Patch<i64>;

/// [`check_commits`] of the complete treap of `t` for each of `ops`, its
/// deletes and inserts, planned by `planner`. Unshared, the commit also keeps
/// as many of `t`'s nodes as [`plan_run`]'s does: it edits in place
/// everything that `plan_run` edits in place.
fn commits(t: &[Entry<i64>], ops: &[(Vec<i64>, Vec<Entry<i64>>)], planner: Planner) {
    let tree = || Complete::from_sorted(t);
    let plain = PlainTreap::from_entries(t);
    let unchanged = Expected::complete(&plain);
    for (op, (d, ins)) in ops.iter().enumerate() {
        let want = Expected::complete(&fold(plain.clone(), d, ins));
        let is = |got: &Complete<i64>, want: &Expected<i64>, how: &str| {
            want.assert_complete(got, &format!("op {op}, {how}"))
        };
        let plan = |x: &Complete<i64>| planner(x, d, ins);
        let unshared = |plan: Planner| {
            let mut mine = tree();
            let before = nodes(&mine);
            let committed = plan(&mine, d, ins).commit(&mut mine);
            assert!(committed.is_ok(), "op {op}: unshared");
            let kept = nodes(&mine).intersection(&before).count();
            (mine, kept)
        };
        let (mine, kept) = unshared(planner);
        is(&mine, &want, "unshared");
        let by_plan_run = unshared(&|x, d, ins| plan_run(x, d, ins, 1)).1;
        assert_eq!(kept, by_plan_run, "op {op}: nodes kept in place");

        let mut mine = tree();
        let held = mine.clone();
        let committed = plan(&mine).commit(&mut mine);
        assert!(committed.is_ok(), "op {op}: a copied root needs no owner");
        is(&mine, &want, "held before the plan");
        is(&held, &unchanged, "the clone held before the plan");

        let first = d.first().copied().or(ins.first().map(|e| e.0));
        for deep in [false, true] {
            let mut mine = tree();
            let patch = plan(&mine);
            let held = match (deep, first) {
                (true, Some(k)) => deepest(&mine, k),
                _ => mine.clone(),
            };
            let was = held.preorder();
            let kept = |how: &str| {
                assert_eq!(held.preorder(), was, "op {op}, {how}");
                assert!(held.check_invariants(), "op {op}, {how}");
            };
            match patch.commit(&mut mine) {
                Ok(_) => is(&mine, &want, "held across"),
                Err(patch) => {
                    is(&mine, &unchanged, "refused");
                    kept("the clone the commit refused for");
                    drop(held);
                    assert!(patch.commit(&mut mine).is_ok(), "op {op}: once let go");
                    is(&mine, &want, "once let go");
                    continue;
                }
            }
            kept("the clone held across the commit");
        }
    }
}

/// The addresses of `t`'s nodes.
fn nodes(t: &Complete<i64>) -> HashSet<*const Node<i64>> {
    let mut out = HashSet::new();
    let mut stack = vec![t];
    while let Some(Complete::Node(n)) = stack.pop() {
        out.insert(Arc::as_ptr(n));
        stack.extend([&n.left, &n.right]);
    }
    out
}

/// The forked run kernel over the grain: a 2^16-key treap against 6 000-key
/// insert, delete and [`mixed`] runs, a delete run that takes the root's
/// key and an insert run whose winner beats the root, planned by
/// [`plan_run_on`] on `Seq` and on pf-rt at every width — the oracle's
/// tree, committed in place as [`plan_run`] commits it, copied around a
/// clone held before the plan, and refused around one taken between plan
/// and commit.
#[test]
fn forked_plans_over_the_grain_commit_the_oracles_tree() {
    let t: Vec<Entry<i64>> = (0..1i64 << 16)
        .map(|k| (3 * k, splitmix64(k as u64)))
        .collect();
    let pick = |salt: u64, n: u64| {
        let mut keys: Vec<i64> = (0..6000u64)
            .map(|i| (splitmix64(salt ^ i) % n) as i64)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    };
    let run: Vec<Entry<i64>> = (pick(1, 3 << 16).into_iter())
        .map(|k| (k, splitmix64(!(k as u64))))
        .collect();
    let dels: Vec<i64> = pick(2, 1 << 16).into_iter().map(|k| 3 * k).collect();
    assert!(!within_grain::<Seq>(t.len(), run.len().min(dels.len())));
    let root = winner(&t).copied().unwrap();
    let (md, mi) = mixed(&t, &run, &dels);
    let mut root_gone = dels.clone();
    if let Err(at) = root_gone.binary_search(&root.0) {
        root_gone.insert(at, root.0);
    }
    let mut beaten = run.clone();
    match beaten.binary_search_by_key(&(root.0 + 1), |e| e.0) {
        Ok(at) => beaten[at].1 = root.1 + 1,
        Err(at) => beaten.insert(at, (root.0 + 1, root.1 + 1)),
    }
    let ops = [
        (vec![], run),
        (dels, vec![]),
        (md, mi),
        (root_gone, vec![]),
        (vec![], beaten),
    ];
    // The caller holds `x`, and the clone moved into the engine is the
    // plan's second owner.
    commits(&t, &ops, &|x, d, ins| {
        Seq::run(|bk| {
            let (w, planned) = bk.cell();
            plan_run_on(bk, x.clone(), d.into(), ins.into(), 2, w);
            planned.expect().take()
        })
    });
    for width in WIDTHS {
        let rt = Runtime::shared(width);
        commits(&t, &ops, &|x, d, ins| {
            let (out, f) = pf_rt::cell();
            let (x, d, ins) = (x.clone(), d.to_vec(), ins.to_vec());
            rt.run(move |wk| {
                let (w, planned) = PipeBackend::cell(wk);
                plan_run_on(wk, x, d.into(), ins.into(), 2, w);
                planned.touch(wk, move |p, wk| out.fulfill(wk, p));
            });
            f.expect().take()
        });
    }
}

/// A clone of the last node on `t`'s search path for `key`, or of `t`
/// itself if its root is not a node.
fn deepest(t: &Complete<i64>, key: i64) -> Complete<i64> {
    let mut at = t;
    while let Complete::Node(n) = at {
        let next = if key < n.key { &n.left } else { &n.right };
        match next {
            below @ Complete::Node(_) if key != n.key => at = below,
            _ => break,
        }
    }
    at.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Around the 32-key edge, where a complete subtreap is a block on one
    /// side and a node on the other: union, difference, and `splitm`
    /// followed by `join`, on complete, pending and crusted operands, build
    /// `PlainTreap`'s tree in the canonical representation. `bulk` gives `a`
    /// (bit 0) and `b` (bit 1) a few thousand more keys, so both plain code
    /// and the pipelined step above the grain run; `related` makes `b`
    /// empty, one key of `a`, `a` itself, or `a` moved clear of it.
    #[test]
    fn blocks_at_the_boundary_build_the_oracles_tree(
        small_a in btree_map(0i64..160, 0u64..1 << 40, 0..97),
        small_b in btree_map(0i64..160, 0u64..1 << 40, 0..97),
        bulk in 0u64..4,
        seed in 0u64..u64::MAX,
        tie in 0u64..4,
        crusts in 0usize..16,
        splitter in -20i64..180,
        related in 0u64..16,
    ) {
        let a = operand(small_a, bulk & 1 != 0, seed, tie);
        let b = match related {
            0 => vec![],
            1 => a.get(a.len() / 2).into_iter().cloned().collect(),
            2 => a.clone(),
            3 => a.iter().map(|&(k, p)| (k + 100_000, p)).collect(),
            _ => operand(small_b, bulk & 2 != 0, seed ^ 0xB, tie),
        };
        let (ca, cb) = (DRAWN[crusts / 4], DRAWN[crusts % 4]);
        let ops = [SetOp::Union, SetOp::Diff];
        SetOps::new(&a, &b).check::<Seq>(&ops, &[(ca, cb)]);
        check_split_join::<Seq, i64>(&PlainTreap::from_entries(&a), ca, splitter);
    }

    /// The engine-free run operation, built — inserts, deletes, and both
    /// in one walk — over [`RunCase`]'s inputs.
    #[test]
    fn run_operations_build_the_oracles_tree((t, run, dels) in RunCase) {
        check_runs(&t, &run, &dels);
    }

    /// The same run operation recorded as patches and committed in place —
    /// inserts, deletes and mixed plans — over the same inputs: the
    /// oracle's tree, and a clone held before the plan or taken between
    /// plan and commit unchanged.
    #[test]
    fn recorded_runs_commit_the_oracles_tree((t, run, dels) in RunCase) {
        check_commits(&t, &run, &dels);
    }

    /// Thm 3.1 depth bound with an explicit constant: pipelined merge
    /// depth ≤ c·(lg n + lg m) + c for the fitted c = 16 (the measured
    /// slope is 9; 16 leaves randomization slack).
    #[test]
    fn merge_depth_bound_explicit(lg_n in 4u32..11, lg_m in 2u32..11) {
        let (_, c) = run_merge(&evens(1 << lg_n), &odds(1 << lg_m), M);
        let bound = 16 * (lg_n as u64 + lg_m as u64) + 16;
        prop_assert!(c.depth <= bound, "depth {} > {bound}", c.depth);
    }

    /// splitm then join is the identity on treaps (when the splitter is
    /// absent), preserving shape exactly.
    #[test]
    fn splitm_join_roundtrip(keys in btree_set(0i64..1000, 1..150), splitter in 0i64..1000) {
        let e = entries(keys.into_iter().filter(|k| *k != splitter));
        check_split_join::<Ctx, i64>(&PlainTreap::from_entries(&e), SIZED, splitter);
    }

    /// Union agrees with the sequential treap in shape, not just keys,
    /// for arbitrary priority assignments (not only hashed ones).
    #[test]
    fn union_shape_matches_sequential_with_random_prios(
        pairs_a in btree_map(0i64..500, 0u64..1_000_000, 1..100),
        pairs_b in btree_map(0i64..500, 0u64..1_000_000, 1..100),
    ) {
        let a: Vec<Entry<i64>> = pairs_a.into_iter().collect();
        let b: Vec<Entry<i64>> = pairs_b.into_iter().collect();
        SetOps::new(&a, &b).check::<Ctx>(&[SetOp::Union], &BOTH_SIZED);
    }

    /// The wave decomposition partitions the keys and every wave is
    /// separated by earlier waves (the §3.4 well-separation invariant).
    #[test]
    fn level_arrays_partition_and_separate(keys in btree_set(-10_000i64..10_000, 0..400)) {
        let kv: Vec<i64> = keys.iter().copied().collect();
        let waves = level_arrays(&kv);
        let mut all: Vec<i64> = waves.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, kv.clone(), "waves must partition the keys");
        let mut earlier: Vec<i64> = Vec::new();
        for w in &waves {
            prop_assert!(w.windows(2).all(|p| p[0] < p[1]));
            for pair in w.windows(2) {
                prop_assert!(
                    earlier.iter().any(|k| *k > pair[0] && *k < pair[1]),
                    "wave keys {} and {} not separated",
                    pair[0],
                    pair[1]
                );
            }
            earlier.extend_from_slice(w);
        }
    }

    /// Merging with an empty side is the identity (both sides).
    #[test]
    fn merge_identity_element(keys in btree_set(0i64..1000, 0..100)) {
        let kv: Vec<i64> = keys.into_iter().collect();
        check_merge::<Ctx, i64>(&kv, &[]);
        check_merge::<Ctx, i64>(&[], &kv);
    }

    /// Result tree of merge never exceeds the sum of the input heights
    /// (the paper's observation motivating the rebalance pass).
    #[test]
    fn merge_height_additive_bound(lg_n in 3u32..9, lg_m in 3u32..9) {
        let (a, b) = (evens(1 << lg_n), odds(1 << lg_m));
        let (root, _) = run_merge(&a, &b, M);
        let (ha, hb) = Sim::new().run(|ctx| {
            (Tree::from_sorted(ctx, &a).height(), Tree::from_sorted(ctx, &b).height())
        }).0;
        let h = root.get().height();
        prop_assert!(h <= ha + hb, "h {} > {} + {}", h, ha, hb);
    }
}
