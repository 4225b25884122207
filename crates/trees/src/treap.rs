//! §3.2–3.3 — pipelined treap **union** and **difference** (Figures 4
//! and 7; Theorems 3.5, 3.7, 3.11; Corollaries 3.6, 3.12).
//!
//! The algorithms are written once, engine-generically, in
//! [`pf_algs::treap`]; this module instantiates them on the simulator,
//! keeps the historical `pf_trees::treap` signatures, and adds the
//! sim-only input builders and timestamp inspectors plus the cost tests
//! for the paper's expected-depth theorems.
//!
//! Treaps (Seidel–Aragon randomized search trees) keep keys in symmetric
//! order and independently random priorities in max-heap order, giving
//! expected Θ(lg n) height. The paper shows that the *obvious sequential
//! code* for union and difference, annotated with futures, pipelines to
//! expected O(lg n + lg m) depth — and that the pipeline here is
//! **dynamic**: how soon `splitm` delivers each side of a split depends on
//! the data, which is what makes these algorithms essentially impossible to
//! pipeline by hand on a synchronous PRAM.
//!
//! The priority comparison breaks ties by key, so the result shape is a
//! total function of the (key, priority) entries; the sequential treap in
//! [`crate::seq`] uses the same rule, which the cross-backend tests rely
//! on.

use pf_core::{CostReport, Ctx, Fut, Promise, Sim};

use crate::seq::{Entry, PlainTreap};
use crate::{Key, Mode};

use pf_algs::treap::Child;
pub use pf_algs::treap::{TreapFut, TreapWr};

/// A treap whose children are future cells, on the simulator engine.
pub type Treap<K> = pf_algs::treap::Treap<Ctx, K>;

/// An interior node of a [`Treap`].
pub type TreapNode<K> = pf_algs::treap::TreapNode<Ctx, K>;

/// Simulator-only extensions of [`Treap`]: free input construction and
/// post-run timestamp inspection. Bring this trait into scope to call
/// them as `Treap::preload_entries(..)` etc.
pub trait SimTreap<K: Key>: Sized {
    /// Convert a sequential treap into a simulator treap using free
    /// pre-written cells (input construction, zero cost).
    fn preload_plain(ctx: &Ctx, t: &Option<Box<PlainTreap<K>>>) -> Self;

    /// Build directly from entries (builds a [`PlainTreap`] first).
    fn preload_entries(ctx: &Ctx, entries: &[Entry<K>]) -> Self;

    /// Post-run inspection: largest node-cell write time in the treap
    /// hanging off `root` (the result's full materialization time).
    fn completion_time(root: &Fut<Self>) -> u64;

    /// Post-run inspection: visit every cell with
    /// `(write_time, depth_in_tree, subtree_height)`; returns the height of
    /// the subtree in `cell`. Feeds the τ/ρ-value checkers in
    /// [`crate::analysis`].
    fn walk_cells(cell: &Fut<Self>, depth: usize, f: &mut impl FnMut(u64, usize, usize)) -> usize;
}

impl<K: Key> SimTreap<K> for Treap<K> {
    fn preload_plain(ctx: &Ctx, t: &Option<Box<PlainTreap<K>>>) -> Treap<K> {
        Treap::from_plain(ctx, t)
    }

    fn preload_entries(ctx: &Ctx, entries: &[Entry<K>]) -> Treap<K> {
        Treap::from_entries(ctx, entries)
    }

    fn completion_time(root: &Fut<Treap<K>>) -> u64 {
        let mut t = root.time();
        root.with(|tr| {
            if let Treap::Node(n) = tr {
                t = t
                    .max(Self::completion_time(cell_of(&n.left)))
                    .max(Self::completion_time(cell_of(&n.right)));
            }
        });
        t
    }

    fn walk_cells(
        cell: &Fut<Treap<K>>,
        depth: usize,
        f: &mut impl FnMut(u64, usize, usize),
    ) -> usize {
        let t = cell.time();
        let h = cell.with(|tr| match tr {
            Treap::Leaf => 0,
            Treap::Node(n) => {
                let hl = Self::walk_cells(cell_of(&n.left), depth + 1, f);
                let hr = Self::walk_cells(cell_of(&n.right), depth + 1, f);
                1 + hl.max(hr)
            }
        });
        f(t, depth, h);
        h
    }
}

/// The cell of a child: the simulator never cuts (`Ctx::GRAIN` is 0), so
/// no node of its treaps holds a child directly and every one has a
/// timestamp.
fn cell_of<K: Key>(c: &Child<Ctx, K>) -> &Fut<Treap<K>> {
    match c {
        Child::Cell(f) => f,
        Child::Done(_) => unreachable!("a simulator treap child is always a cell"),
    }
}

/// `splitm(s, t)` (Figure 4): partition `t` by the splitter `s` into keys
/// `< s` (`lout`) and keys `> s` (`rout`), **excluding** `s` itself;
/// `fout` reports whether `s` was present. See [`pf_algs::treap::splitm`].
pub fn splitm<K: Key>(
    ctx: &Ctx,
    s: &K,
    t: Treap<K>,
    lout: Promise<Treap<K>>,
    rout: Promise<Treap<K>>,
    fout: Promise<bool>,
) {
    pf_algs::treap::splitm(ctx, s.clone(), t, lout, rout, fout);
}

/// `join(l, r)` (Figure 7): concatenate two treaps where every key of `l`
/// is smaller than every key of `r`. See [`pf_algs::treap::join`].
pub fn join<K: Key>(ctx: &Ctx, l: Treap<K>, r: Treap<K>, out: Promise<Treap<K>>) {
    pf_algs::treap::join(ctx, l, r, out);
}

/// `union(a, b)` (Figure 4): the keys of both treaps, duplicates removed.
/// See [`pf_algs::treap::union`].
pub fn union<K: Key>(
    ctx: &Ctx,
    a: Fut<Treap<K>>,
    b: Fut<Treap<K>>,
    out: Promise<Treap<K>>,
    mode: Mode,
) {
    pf_algs::treap::union(ctx, a, b, out, mode);
}

/// `diff(a, b)` (Figure 7): the keys of `a` that are not in `b`.
/// See [`pf_algs::treap::diff`].
pub fn diff<K: Key>(
    ctx: &Ctx,
    a: Fut<Treap<K>>,
    b: Fut<Treap<K>>,
    out: Promise<Treap<K>>,
    mode: Mode,
) {
    pf_algs::treap::diff(ctx, a, b, out, mode);
}

/// `intersect(a, b)`: the keys present in both treaps, with `a`'s
/// priorities. See [`pf_algs::treap::intersect`].
pub fn intersect<K: Key>(
    ctx: &Ctx,
    a: Fut<Treap<K>>,
    b: Fut<Treap<K>>,
    out: Promise<Treap<K>>,
    mode: Mode,
) {
    pf_algs::treap::intersect(ctx, a, b, out, mode);
}

/// Single-key search (§3.2: treaps "provide for search, insertion, and
/// deletion of keys"). A plain root-to-leaf walk touching each child on
/// the way down: O(h) depth and work.
pub fn contains<K: Key>(ctx: &Ctx, t: Fut<Treap<K>>, key: &K) -> bool {
    let (p, f) = ctx.promise();
    pf_algs::treap::contains(ctx, t, key.clone(), p);
    f.get()
}

/// Single-key insertion, expressed as a singleton union — exactly the
/// paper's reduction of dictionary operations to the bulk primitives.
pub fn insert_one<K: Key>(
    ctx: &Ctx,
    t: Fut<Treap<K>>,
    key: K,
    prio: u64,
    mode: Mode,
) -> Fut<Treap<K>> {
    pf_algs::treap::insert_one(ctx, t, key, prio, mode)
}

/// Single-key deletion via a singleton difference.
pub fn delete_one<K: Key>(ctx: &Ctx, t: Fut<Treap<K>>, key: K, mode: Mode) -> Fut<Treap<K>> {
    pf_algs::treap::delete_one(ctx, t, key, mode)
}

/// Bulk insert (§3.2: union "can be used to insert a set of keys into a
/// treap"). See [`pf_algs::treap::insert_keys`].
pub fn insert_keys<K: Key>(
    ctx: &Ctx,
    t: Fut<Treap<K>>,
    batch: &[Entry<K>],
    mode: Mode,
) -> Fut<Treap<K>> {
    pf_algs::treap::insert_keys(ctx, t, batch, mode)
}

/// Bulk delete (§3.3: difference "can be used to delete a set of keys").
/// The priorities in `batch` are irrelevant (only keys are matched).
pub fn delete_keys<K: Key>(
    ctx: &Ctx,
    t: Fut<Treap<K>>,
    batch: &[Entry<K>],
    mode: Mode,
) -> Fut<Treap<K>> {
    pf_algs::treap::delete_keys(ctx, t, batch, mode)
}

/// Run `union` on treaps built from the given entries; returns the result
/// root future and the cost report.
pub fn run_union<K: Key>(
    a: &[Entry<K>],
    b: &[Entry<K>],
    mode: Mode,
) -> (Fut<Treap<K>>, CostReport) {
    Sim::new().run(|ctx| {
        let ta = Treap::preload_entries(ctx, a);
        let tb = Treap::preload_entries(ctx, b);
        let fa = ctx.preload(ta);
        let fb = ctx.preload(tb);
        let (op, of) = ctx.promise();
        union(ctx, fa, fb, op, mode);
        of
    })
}

/// Run `diff` (a minus b) on treaps built from the given entries.
pub fn run_diff<K: Key>(a: &[Entry<K>], b: &[Entry<K>], mode: Mode) -> (Fut<Treap<K>>, CostReport) {
    Sim::new().run(|ctx| {
        let ta = Treap::preload_entries(ctx, a);
        let tb = Treap::preload_entries(ctx, b);
        let fa = ctx.preload(ta);
        let fb = ctx.preload(tb);
        let (op, of) = ctx.promise();
        diff(ctx, fa, fb, op, mode);
        of
    })
}

/// Run `intersect` on treaps built from the given entries.
pub fn run_intersect<K: Key>(
    a: &[Entry<K>],
    b: &[Entry<K>],
    mode: Mode,
) -> (Fut<Treap<K>>, CostReport) {
    Sim::new().run(|ctx| {
        let ta = Treap::preload_entries(ctx, a);
        let tb = Treap::preload_entries(ctx, b);
        let fa = ctx.preload(ta);
        let fb = ctx.preload(tb);
        let (op, of) = ctx.promise();
        intersect(ctx, fa, fb, op, mode);
        of
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::splitmix64;

    fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
        keys.into_iter()
            .map(|k| (k, splitmix64(k as u64 ^ 0xABCD_EF01)))
            .collect()
    }

    fn sorted_union(a: &[Entry<i64>], b: &[Entry<i64>]) -> Vec<i64> {
        let mut v: Vec<i64> = a.iter().chain(b.iter()).map(|e| e.0).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn sorted_diff(a: &[Entry<i64>], b: &[Entry<i64>]) -> Vec<i64> {
        let bs: std::collections::BTreeSet<i64> = b.iter().map(|e| e.0).collect();
        a.iter().map(|e| e.0).filter(|k| !bs.contains(k)).collect()
    }

    #[test]
    fn union_correct_disjoint() {
        let a = entries((0..100).map(|i| 2 * i));
        let b = entries((0..50).map(|i| 2 * i + 1));
        let (root, _) = run_union(&a, &b, Mode::Pipelined);
        let t = root.get();
        assert!(t.check_invariants());
        assert_eq!(t.to_sorted_vec(), sorted_union(&a, &b));
    }

    #[test]
    fn union_correct_overlapping() {
        let a = entries(0..80);
        let b = entries(40..120);
        let (root, _) = run_union(&a, &b, Mode::Pipelined);
        let t = root.get();
        assert!(t.check_invariants());
        assert_eq!(t.to_sorted_vec(), sorted_union(&a, &b));
        assert_eq!(t.size(), 120);
    }

    #[test]
    fn union_matches_sequential_shape() {
        // Same tie-break rule ⇒ same treap shape as the sequential oracle.
        let a = entries((0..200).map(|i| 3 * i));
        let b = entries((0..150).map(|i| 2 * i));
        let (root, _) = run_union(&a, &b, Mode::Pipelined);
        let pa = PlainTreap::from_entries(&a);
        let pb = PlainTreap::from_entries(&b);
        let pu = PlainTreap::union(pa, pb);
        assert_eq!(root.get().height(), PlainTreap::height(&pu));
        assert_eq!(root.get().to_sorted_vec(), PlainTreap::to_sorted_vec(&pu));
    }

    #[test]
    fn union_edge_cases() {
        let e: Vec<Entry<i64>> = vec![];
        let one = entries([7]);
        for (a, b) in [(&e, &e), (&one, &e), (&e, &one), (&one, &one)] {
            let (root, _) = run_union(a, b, Mode::Pipelined);
            assert_eq!(root.get().to_sorted_vec(), sorted_union(a, b));
        }
    }

    #[test]
    fn union_strict_same_result_more_depth() {
        let a = entries(0..512);
        let b = entries((0..512).map(|i| i + 256));
        let (r1, c1) = run_union(&a, &b, Mode::Pipelined);
        let (r2, c2) = run_union(&a, &b, Mode::Strict);
        assert_eq!(r1.get().to_sorted_vec(), r2.get().to_sorted_vec());
        assert_eq!(c1.work, c2.work);
        assert!(
            c2.depth > c1.depth + c1.depth / 2,
            "strict union should be noticeably deeper: {} vs {}",
            c2.depth,
            c1.depth
        );
    }

    #[test]
    fn union_depth_logarithmic() {
        let d = |n: i64| {
            let a = entries((0..n).map(|i| 2 * i));
            let b = entries((0..n).map(|i| 2 * i + 1));
            run_union(&a, &b, Mode::Pipelined).1.depth
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
        let a = entries(0..300);
        let b = entries(150..450);
        let (_, c) = run_union(&a, &b, Mode::Pipelined);
        assert!(c.is_linear());
    }

    #[test]
    fn diff_correct() {
        let a = entries(0..100);
        let b = entries((0..100).filter(|k| k % 3 == 0));
        let (root, _) = run_diff(&a, &b, Mode::Pipelined);
        let t = root.get();
        assert!(t.check_invariants());
        assert_eq!(t.to_sorted_vec(), sorted_diff(&a, &b));
    }

    #[test]
    fn diff_disjoint_is_identity() {
        let a = entries((0..64).map(|i| 2 * i));
        let b = entries((0..64).map(|i| 2 * i + 1));
        let (root, _) = run_diff(&a, &b, Mode::Pipelined);
        assert_eq!(root.get().to_sorted_vec(), sorted_diff(&a, &b));
        assert_eq!(root.get().size(), 64);
    }

    #[test]
    fn diff_total_overlap_empties() {
        let a = entries(0..64);
        let (root, _) = run_diff(&a, &a, Mode::Pipelined);
        assert!(root.get().is_leaf());
    }

    #[test]
    fn diff_edge_cases() {
        let e: Vec<Entry<i64>> = vec![];
        let one = entries([7]);
        for (a, b) in [(&e, &e), (&one, &e), (&e, &one), (&one, &one)] {
            let (root, _) = run_diff(a, b, Mode::Pipelined);
            assert_eq!(root.get().to_sorted_vec(), sorted_diff(a, b));
        }
    }

    #[test]
    fn diff_strict_same_result() {
        let a = entries(0..256);
        let b = entries((0..256).filter(|k| k % 2 == 0));
        let (r1, c1) = run_diff(&a, &b, Mode::Pipelined);
        let (r2, c2) = run_diff(&a, &b, Mode::Strict);
        assert_eq!(r1.get().to_sorted_vec(), r2.get().to_sorted_vec());
        assert_eq!(c1.work, c2.work);
        assert!(c1.depth <= c2.depth);
    }

    #[test]
    fn diff_matches_sequential_oracle_shape() {
        let a = entries(0..300);
        let b = entries((0..300).filter(|k| k % 5 == 0));
        let (root, _) = run_diff(&a, &b, Mode::Pipelined);
        let pd = PlainTreap::diff(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
        assert_eq!(root.get().to_sorted_vec(), PlainTreap::to_sorted_vec(&pd));
        assert_eq!(root.get().height(), PlainTreap::height(&pd));
    }

    #[test]
    fn diff_is_linear_code() {
        let a = entries(0..200);
        let b = entries((0..200).filter(|k| k % 4 == 0));
        let (_, c) = run_diff(&a, &b, Mode::Pipelined);
        assert!(c.is_linear());
    }

    #[test]
    fn splitm_excludes_splitter() {
        let (out, _) = Sim::new().run(|ctx| {
            let t = Treap::preload_entries(ctx, &entries(0..50));
            let (lp, lf) = ctx.promise();
            let (rp, rf) = ctx.promise();
            let (fp, ff) = ctx.promise();
            splitm(ctx, &25, t, lp, rp, fp);
            (lf, rf, ff)
        });
        assert!(out.2.get());
        let l = out.0.get().to_sorted_vec();
        let r = out.1.get().to_sorted_vec();
        assert_eq!(l, (0..25).collect::<Vec<_>>());
        assert_eq!(r, (26..50).collect::<Vec<_>>());
        assert!(out.0.get().check_invariants());
        assert!(out.1.get().check_invariants());
    }

    #[test]
    fn splitm_absent_splitter() {
        let (out, _) = Sim::new().run(|ctx| {
            let t = Treap::preload_entries(ctx, &entries((0..50).map(|i| 2 * i)));
            let (lp, lf) = ctx.promise();
            let (rp, rf) = ctx.promise();
            let (fp, ff) = ctx.promise();
            splitm(ctx, &31, t, lp, rp, fp);
            (lf, rf, ff)
        });
        assert!(!out.2.get());
        assert_eq!(out.0.get().size() + out.1.get().size(), 50);
    }

    #[test]
    fn join_concatenates() {
        let (root, _) = Sim::new().run(|ctx| {
            let l = Treap::preload_entries(ctx, &entries(0..40));
            let r = Treap::preload_entries(ctx, &entries(100..140));
            let (jp, jf) = ctx.promise();
            join(ctx, l, r, jp);
            jf
        });
        let t = root.get();
        assert!(t.check_invariants());
        assert_eq!(t.size(), 80);
        let keys = t.to_sorted_vec();
        assert_eq!(keys[..40], (0..40).collect::<Vec<_>>()[..]);
        assert_eq!(keys[40..], (100..140).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn intersect_correct() {
        let a = entries(0..120);
        let b = entries((0..240).filter(|k| k % 3 == 0));
        let (root, c) = run_intersect(&a, &b, Mode::Pipelined);
        let t = root.get();
        assert!(t.check_invariants());
        assert_eq!(
            t.to_sorted_vec(),
            (0..120).filter(|k| k % 3 == 0).collect::<Vec<_>>()
        );
        assert!(c.is_linear());
    }

    #[test]
    fn intersect_edge_cases() {
        let e: Vec<Entry<i64>> = vec![];
        let one = entries([7]);
        let other = entries([9]);
        for (a, b, expect) in [
            (&e, &e, vec![]),
            (&one, &e, vec![]),
            (&e, &one, vec![]),
            (&one, &one, vec![7]),
            (&one, &other, vec![]),
        ] {
            let (root, _) = run_intersect(a, b, Mode::Pipelined);
            assert_eq!(root.get().to_sorted_vec(), expect);
        }
    }

    #[test]
    fn intersect_is_diff_of_diff() {
        // a ∩ b == a \ (a \ b): check against the other two set operations.
        let a = entries((0..200).map(|i| 3 * i));
        let b = entries((0..200).map(|i| 2 * i));
        let (i1, _) = run_intersect(&a, &b, Mode::Pipelined);
        let (d1, _) = run_diff(&a, &b, Mode::Pipelined);
        let d1e: Vec<Entry<i64>> = entries(d1.get().to_sorted_vec());
        let (d2, _) = run_diff(&a, &d1e, Mode::Pipelined);
        assert_eq!(i1.get().to_sorted_vec(), d2.get().to_sorted_vec());
    }

    #[test]
    fn intersect_strict_same_result() {
        let a = entries(0..150);
        let b = entries(75..225);
        let (r1, c1) = run_intersect(&a, &b, Mode::Pipelined);
        let (r2, c2) = run_intersect(&a, &b, Mode::Strict);
        assert_eq!(r1.get().to_sorted_vec(), r2.get().to_sorted_vec());
        assert_eq!(c1.work, c2.work);
        assert!(c1.depth <= c2.depth);
    }

    #[test]
    fn single_key_dictionary_ops() {
        let (result, _) = Sim::new().run(|ctx| {
            let t = Treap::preload_entries(ctx, &entries((0..50).map(|i| 2 * i)));
            let ft = ctx.preload(t);
            assert!(contains(ctx, ft.clone(), &48));
            // (contains is a read-only probe; re-touching for the update
            // chain below makes this test intentionally non-linear, which
            // is fine — linearity is asserted on the algorithms, not on
            // ad-hoc client code.)
            let t1 = insert_one(ctx, ft, 7, 12345, Mode::Pipelined);
            let t2 = insert_one(ctx, t1, 9, 999, Mode::Pipelined);
            let t3 = delete_one(ctx, t2, 48, Mode::Pipelined);
            let missing = !contains(ctx, t3.clone(), &48);
            let present = contains(ctx, t3.clone(), &9);
            (t3, missing, present)
        });
        let (t3, missing, present) = result;
        assert!(missing && present);
        let keys = t3.get().to_sorted_vec();
        assert!(keys.contains(&7) && keys.contains(&9) && !keys.contains(&48));
        assert!(t3.get().check_invariants());
        assert_eq!(keys.len(), 51);
    }

    #[test]
    fn contains_on_empty_and_absent() {
        let (r, _) = Sim::new().run(|ctx| {
            let e = ctx.preload(Treap::<i64>::Leaf);
            let empty_miss = !contains(ctx, e, &5);
            let t = Treap::preload_entries(ctx, &entries([1, 3, 5]));
            let ft = ctx.preload(t);
            let absent = !contains(ctx, ft, &4);
            empty_miss && absent
        });
        assert!(r);
    }

    #[test]
    fn bulk_insert_delete_pipeline() {
        // A chain of batched updates, all pipelined within ONE simulation:
        // each batch consumes the previous batch's root future.
        let (root, c) = Sim::new().run(|ctx| {
            let t = Treap::preload_entries(ctx, &entries(0..100));
            let ft = ctx.preload(t);
            let t1 = insert_keys(ctx, ft, &entries(100..180), Mode::Pipelined);
            let t2 = delete_keys(
                ctx,
                t1,
                &entries((0..180).filter(|k| k % 3 == 0)),
                Mode::Pipelined,
            );
            insert_keys(ctx, t2, &entries(200..240), Mode::Pipelined)
        });
        let t = root.get();
        assert!(t.check_invariants());
        let expect: Vec<i64> = (0..180).filter(|k| k % 3 != 0).chain(200..240).collect();
        assert_eq!(t.to_sorted_vec(), expect);
        assert!(c.is_linear());
    }

    #[test]
    fn chained_batches_pipeline_across_operations() {
        // The second batch may start before the first completes: its root
        // must be written well before the first operation's deepest write.
        let ((r1, r2), _) = Sim::new().run(|ctx| {
            let t = Treap::preload_entries(ctx, &entries(0..2000));
            let ft = ctx.preload(t);
            let t1 = insert_keys(ctx, ft, &entries(2000..3000), Mode::Pipelined);
            let t2 = insert_keys(ctx, t1.clone(), &entries(3000..4000), Mode::Pipelined);
            (t1, t2)
        });
        let first_done = Treap::completion_time(&r1);
        assert!(
            r2.time() < first_done,
            "op 2's root ({}) should beat op 1's completion ({first_done})",
            r2.time()
        );
        assert!(r2.get().check_invariants());
    }

    #[test]
    fn join_with_empty_sides() {
        let (roots, _) = Sim::new().run(|ctx| {
            let t = Treap::preload_entries(ctx, &entries(0..10));
            let (p1, f1) = ctx.promise();
            join(ctx, Treap::Leaf, t.clone(), p1);
            let (p2, f2) = ctx.promise();
            join(ctx, t, Treap::Leaf, p2);
            let (p3, f3) = ctx.promise();
            join(ctx, Treap::<i64>::Leaf, Treap::Leaf, p3);
            (f1, f2, f3)
        });
        assert_eq!(roots.0.get().size(), 10);
        assert_eq!(roots.1.get().size(), 10);
        assert!(roots.2.get().is_leaf());
    }
}
