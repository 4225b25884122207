//! Property-based tests of the tree algorithms on the simulator, beyond
//! oracle equality (that lives in the workspace integration tests):
//! structural depth bounds and inverse-operation round trips on random
//! inputs — and, on `Seq`, the treap set operations where complete
//! subtreaps turn from blocks into nodes.

use std::collections::BTreeMap;
use std::sync::Arc;

use pf_algs::plain::{splitmix64, Entry, PlainTreap};
use pf_algs::start::{merge_on, union_on};
use pf_algs::treap::{diff, intersect, join, splitm, union, Child, Treap, TreapNode};
use pf_algs::tree::Tree;
use pf_algs::two_six::level_arrays;
use pf_algs::{Mode, PipeBackend, Seq};
use pf_core::{CostReport, Ctx, Fut, Sim};
use proptest::collection::btree_map;
use proptest::prelude::*;

fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
    keys.into_iter()
        .map(|k| (k, splitmix64(k as u64 ^ 0x1234)))
        .collect()
}

fn run_merge(a: &[i64], b: &[i64], mode: Mode) -> (Fut<Tree<Ctx, i64>>, CostReport) {
    Sim::new().run(|ctx| merge_on(ctx, a, b, mode))
}

fn run_union(a: &[Entry<i64>], b: &[Entry<i64>]) -> Fut<Treap<Ctx, i64>> {
    Sim::new().run(|ctx| union_on(ctx, a, b, Mode::Pipelined)).0
}

type Plain = Option<Box<PlainTreap<i64>>>;
type STreap = Treap<Seq, i64>;

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

/// `t` on `Seq`: complete for `crust == Some(0)`; every node unsized over a
/// written cell for `None`; and for `Some(d)`, `d` levels of unsized nodes
/// each holding one side directly as a complete subtreap — often a block —
/// and the other in a cell, above complete ones.
fn build(bk: &Seq, t: &Plain, crust: Option<usize>) -> STreap {
    let Some(n) = t else { return Treap::Leaf };
    let cell = |t, crust| Child::Cell(bk.input(build(bk, t, crust)));
    let done = |t| Child::Done(Treap::from_plain_complete(t));
    let (left, right) = match crust {
        None => (cell(&n.left, None), cell(&n.right, None)),
        Some(0) => return Treap::from_plain_complete(t),
        Some(d) if d % 2 == 0 => (cell(&n.left, Some(d - 1)), done(&n.right)),
        Some(d) => (done(&n.left), cell(&n.right, Some(d - 1))),
    };
    Treap::Node(Arc::new(TreapNode {
        key: n.key,
        prio: n.prio,
        size: 0,
        left,
        right,
    }))
}

/// The crusts the boundary test draws from.
const CRUSTS: [Option<usize>; 4] = [Some(0), None, Some(1), Some(4)];

fn plain_preorder(t: &Plain, out: &mut Vec<Entry<i64>>) {
    if let Some(n) = t {
        out.push((n.key, n.prio));
        plain_preorder(&n.left, out);
        plain_preorder(&n.right, out);
    }
}

/// A node with its size, or a block with its entries, in preorder: the
/// representation itself, not just the tree it stands for.
#[derive(Debug, PartialEq)]
enum Part {
    Node(Entry<i64>, usize),
    Block(Vec<Entry<i64>>),
}

fn layout(t: &STreap, out: &mut Vec<Part>) {
    match t {
        Treap::Leaf => {}
        Treap::Node(n) => {
            out.push(Part::Node((n.key, n.prio), n.size));
            layout(&n.left.get(), out);
            layout(&n.right.get(), out);
        }
        Treap::Block(b) => out.push(Part::Block(b.to_vec())),
    }
}

/// `got` is `want`'s tree entry for entry, passes `check_invariants`, and
/// seals to exactly the complete treap of its entries.
fn assert_oracles_tree(got: &STreap, want: &Plain, what: &str) {
    let mut entries = vec![];
    plain_preorder(want, &mut entries);
    prop_assert_eq!(got.preorder(), entries, "{}", what);
    prop_assert!(got.check_invariants(), "{}", what);
    entries.sort_unstable();
    let (mut sealed, mut complete) = (vec![], vec![]);
    layout(&got.sealed(), &mut sealed);
    layout(&Treap::from_sorted_complete(&entries), &mut complete);
    prop_assert_eq!(sealed, complete, "sealed, {}", what);
    prop_assert!(got.sealed().check_invariants(), "sealed, {}", what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Around the 32-key edge, where a complete subtreap is a block on one
    /// side and a node on the other: union, difference, intersection, and
    /// `splitm` followed by `join`, on complete, unsized and crusted
    /// operands, build `PlainTreap`'s tree in the canonical representation.
    /// `bulk` gives `a` (bit 0) and `b` (bit 1) a few thousand more keys,
    /// so both plain code and the pipelined step above the grain run.
    #[test]
    fn blocks_at_the_boundary_build_the_oracles_tree(
        small_a in btree_map(0i64..160, 0u64..1 << 40, 0..97),
        small_b in btree_map(0i64..160, 0u64..1 << 40, 0..97),
        bulk in 0u64..4,
        seed in 0u64..u64::MAX,
        tie in 0u64..4,
        crusts in 0usize..16,
        splitter in -20i64..180,
    ) {
        let a = operand(small_a, bulk & 1 != 0, seed, tie);
        let b = operand(small_b, bulk & 2 != 0, seed ^ 0xB, tie);
        let (ca, cb) = (CRUSTS[crusts / 4], CRUSTS[crusts % 4]);
        let (pa, pb) = (PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
        let want = [
            PlainTreap::union(pa.clone(), pb.clone()),
            PlainTreap::diff(pa.clone(), pb.clone()),
            PlainTreap::diff(pa.clone(), PlainTreap::diff(pa.clone(), pb.clone())),
        ];
        let got = Seq::run(|bk| {
            let fa = bk.input(build(bk, &pa, ca));
            let fb = bk.input(build(bk, &pb, cb));
            let [(u, uf), (d, df), (n, nf)] = [bk.cell(), bk.cell(), bk.cell()];
            union(bk, fa.clone(), fb.clone(), u, Mode::Pipelined);
            diff(bk, fa.clone(), fb.clone(), d, Mode::Pipelined);
            intersect(bk, fa, fb, n, Mode::Pipelined);
            [uf, df, nf].map(|f| STreap::expect(&f))
        });
        for (op, (got, want)) in ["union", "diff", "intersect"].iter().zip(got.iter().zip(&want)) {
            assert_oracles_tree(got, want, &format!("{op}, crusts {ca:?} {cb:?}"));
        }

        let (l, r, found, joined) = Seq::run(|bk| {
            let (lp, lf) = bk.cell();
            let (rp, rf) = bk.cell();
            let (fp, ff) = bk.cell();
            splitm(bk, splitter, build(bk, &pa, ca), lp, rp, fp);
            let (l, r) = (STreap::expect(&lf), STreap::expect(&rf));
            let (jp, jf) = bk.cell();
            join(bk, l.clone(), r.clone(), jp);
            (l, r, Seq::peek(&ff), STreap::expect(&jf))
        });
        let (wl, wr, wfound) = PlainTreap::split(pa.clone(), &splitter);
        prop_assert_eq!(found, Some(wfound));
        let what = format!("split at {splitter}, crust {ca:?}");
        assert_oracles_tree(&l, &wl, &format!("left of {what}"));
        assert_oracles_tree(&r, &wr, &format!("right of {what}"));
        assert_oracles_tree(&joined, &PlainTreap::join(wl, wr), &format!("join after {what}"));
    }

    /// Thm 3.1 depth bound with an explicit constant: pipelined merge
    /// depth ≤ c·(lg n + lg m) + c for the fitted c = 16 (the measured
    /// slope is 9; 16 leaves randomization slack).
    #[test]
    fn merge_depth_bound_explicit(lg_n in 4u32..11, lg_m in 2u32..11) {
        let n = 1usize << lg_n;
        let m = 1usize << lg_m;
        let a: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
        let b: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
        let (_, c) = run_merge(&a, &b, Mode::Pipelined);
        let bound = 16 * (lg_n as u64 + lg_m as u64) + 16;
        prop_assert!(c.depth <= bound, "depth {} > {bound}", c.depth);
    }

    /// splitm then join is the identity on treaps (when the splitter is
    /// absent), preserving shape exactly.
    #[test]
    fn splitm_join_roundtrip(keys in proptest::collection::btree_set(0i64..1000, 1..150),
                             splitter in 0i64..1000) {
        let e = entries(keys.iter().copied().filter(|k| *k != splitter));
        let ((orig_keys, orig_h, joined), _) = Sim::new().run(|ctx| {
            let t = Treap::from_entries(ctx, &e);
            let (ok, oh) = (t.to_sorted_vec(), t.height());
            let (lp, lf) = ctx.promise();
            let (rp, rf) = ctx.promise();
            let (fp, ff) = ctx.promise();
            splitm(ctx, splitter, t, lp, rp, fp);
            assert!(!ff.get());
            let lv = ctx.touch(&lf);
            let rv = ctx.touch(&rf);
            let (jp, jf) = ctx.promise();
            join(ctx, lv, rv, jp);
            (ok, oh, jf)
        });
        let j = joined.get();
        prop_assert!(j.check_invariants());
        prop_assert_eq!(j.to_sorted_vec(), orig_keys);
        prop_assert_eq!(j.height(), orig_h, "split+join must reconstruct the exact shape");
    }

    /// Union agrees with the sequential treap in shape, not just keys,
    /// for arbitrary priority assignments (not only hashed ones).
    #[test]
    fn union_shape_matches_sequential_with_random_prios(
        pairs_a in proptest::collection::btree_map(0i64..500, 0u64..1_000_000, 1..100),
        pairs_b in proptest::collection::btree_map(0i64..500, 0u64..1_000_000, 1..100),
    ) {
        let a: Vec<Entry<i64>> = pairs_a.into_iter().collect();
        let b: Vec<Entry<i64>> = pairs_b.into_iter().collect();
        let root = run_union(&a, &b);
        let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
        prop_assert_eq!(root.get().to_sorted_vec(), PlainTreap::to_sorted_vec(&pu));
        prop_assert_eq!(root.get().height(), PlainTreap::height(&pu));
    }

    /// The wave decomposition partitions the keys and every wave is
    /// separated by earlier waves (the §3.4 well-separation invariant).
    #[test]
    fn level_arrays_partition_and_separate(keys in proptest::collection::btree_set(-10_000i64..10_000, 0..400)) {
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
    fn merge_identity_element(keys in proptest::collection::btree_set(0i64..1000, 0..100)) {
        let kv: Vec<i64> = keys.into_iter().collect();
        let empty: Vec<i64> = vec![];
        let (r1, _) = run_merge(&kv, &empty, Mode::Pipelined);
        prop_assert_eq!(r1.get().to_sorted_vec(), kv.clone());
        let (r2, _) = run_merge(&empty, &kv, Mode::Pipelined);
        prop_assert_eq!(r2.get().to_sorted_vec(), kv);
    }

    /// Result tree of merge never exceeds the sum of the input heights
    /// (the paper's observation motivating the rebalance pass).
    #[test]
    fn merge_height_additive_bound(lg_n in 3u32..9, lg_m in 3u32..9) {
        let n = 1usize << lg_n;
        let m = 1usize << lg_m;
        let a: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
        let b: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
        let (root, _) = run_merge(&a, &b, Mode::Pipelined);
        let (ha, hb) = Sim::new().run(|ctx| {
            (
                Tree::from_sorted(ctx, &a).height(),
                Tree::from_sorted(ctx, &b).height(),
            )
        }).0;
        prop_assert!(root.get().height() <= ha + hb, "h {} > {} + {}", root.get().height(), ha, hb);
    }
}
