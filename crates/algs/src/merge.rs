//! §3.1 — merging two binary search trees (Theorem 3.1), written once in
//! continuation-passing style against the [`PipeBackend`] surface.
//!
//! The code is the paper's Figure 3 with explicit promise passing: where
//! the ML version writes `let (L2, R2) = ?split(v, B)`, this version
//! creates the two result cells and hands their write pointers into the
//! forked `split` — the same multi-cell future. Passing the *write pointer*
//! down the recursion (instead of returning a read pointer) is exactly how
//! the model avoids chains of future cells, which the paper forbids ("a
//! read pointer cannot be written into a future cell", §2).
//!
//! With pipelining the merge of balanced trees of sizes n and m runs in
//! Θ(lg n + lg m) depth; with a strict split ([`Mode::Strict`]) the natural
//! Θ(lg n · lg m) reappears. On the real runtime every `touch` below lowers
//! to the in-cell suspension and every cost hook to nothing — the
//! monomorphized code is the hand-CPS runtime merge.

use crate::tree::{Tree, TreeFut, TreeWr};
use crate::{fork_call, Key, Mode, PipeBackend};

/// `split(s, t)`: partition `t` into keys `< s` (written to `lout`) and
/// keys `>= s` (written to `rout`).
///
/// The function walks one root-to-leaf path of `t`; each step peels one
/// node off into whichever output tree it belongs to, writing that output's
/// root **immediately** with a future for the still-unknown part — the
/// source of the pipeline. `t` is the already-touched root value; the
/// recursion touches each child on the way down.
pub fn split<B: PipeBackend, K: Key>(
    bk: &B,
    s: K,
    t: Tree<B, K>,
    lout: TreeWr<B, K>,
    rout: TreeWr<B, K>,
) {
    bk.tick(1); // pattern match + comparison dispatch
    match t {
        Tree::Leaf => {
            bk.fulfill(lout, Tree::Leaf);
            bk.fulfill(rout, Tree::Leaf);
        }
        Tree::Node(n) => {
            if n.key >= s {
                // Node belongs to the >= side; its left part is still
                // unknown, so it becomes a fresh future filled by the
                // recursion on the left child.
                let (rp1, rf1) = bk.cell();
                bk.fulfill(rout, Tree::node(n.key.clone(), rf1, n.right.clone()));
                bk.touch(&n.left, move |bk, lt| split(bk, s, lt, lout, rp1));
            } else {
                let (lp1, lf1) = bk.cell();
                bk.fulfill(lout, Tree::node(n.key.clone(), n.left.clone(), lf1));
                bk.touch(&n.right, move |bk, rt| split(bk, s, rt, lp1, rout));
            }
        }
    }
}

/// `merge(a, b)`: merge two BSTs with disjoint key sets into one BST,
/// writing the result to `out` (Figure 3). The root of `a` becomes the
/// root of the result; `b` is split by that root's key and the halves are
/// merged into the subtrees by parallel recursive calls.
pub fn merge<B: PipeBackend, K: Key>(
    bk: &B,
    a: TreeFut<B, K>,
    b: TreeFut<B, K>,
    out: TreeWr<B, K>,
    mode: Mode,
) {
    bk.touch(&a, move |bk, av| {
        bk.tick(1); // pattern dispatch on the first argument
        match av {
            Tree::Leaf => {
                // merge(Leaf, B) = B: writing is strict on the value, so
                // the write waits for (touches) B's root and stores the
                // value — never a pointer to the cell.
                bk.touch(&b, move |bk, bv| bk.fulfill(out, bv));
            }
            Tree::Node(n) => {
                bk.touch(&b, move |bk, bv| {
                    bk.tick(1);
                    if bv.is_leaf() {
                        bk.fulfill(out, Tree::Node(n));
                        return;
                    }
                    // let (L2, R2) = ?split(v, B)
                    let (lp2, lf2) = bk.cell();
                    let (rp2, rf2) = bk.cell();
                    let key = n.key.clone();
                    fork_call(bk, mode, move |bk| split(bk, key, bv, lp2, rp2));
                    // Node(v, ?merge(L, L2), ?merge(R, R2)) — the result
                    // root is available in constant time; its children are
                    // futures.
                    let (mlp, mlf) = bk.cell();
                    let (mrp, mrf) = bk.cell();
                    bk.tick(1); // allocate the node
                    bk.fulfill(out, Tree::node(n.key.clone(), mlf, mrf));
                    let l = n.left.clone();
                    let r = n.right.clone();
                    bk.fork2(
                        move |bk| merge(bk, l, lf2, mlp, mode),
                        move |bk| merge(bk, r, rf2, mrp, mode),
                    );
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start::merge_on;
    use crate::testkit::{evens, odds, run_merge};
    use crate::Seq;
    use pf_core::Sim;

    #[test]
    fn merge_on_the_oracle() {
        for (na, nb) in [(0, 0), (1, 0), (0, 1), (5, 3), (16, 16), (100, 31)] {
            let (a, b) = (evens(na), odds(nb));
            let mut expect: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
            expect.sort_unstable();
            let got = Seq::run(|bk| merge_on(bk, &a, &b, Mode::Pipelined).expect());
            assert!(got.is_search_tree());
            assert_eq!(got.to_sorted_vec(), expect, "na={na} nb={nb}");
        }
    }

    #[test]
    fn split_on_the_oracle() {
        let (l, r) = Seq::run(|bk| {
            let t = Tree::from_sorted(bk, &evens(100));
            let (lp, lf) = bk.cell();
            let (rp, rf) = bk.cell();
            split(bk, 41i64, t, lp, rp);
            (Tree::<Seq, i64>::expect(&lf), Tree::<Seq, i64>::expect(&rf))
        });
        let (lv, rv) = (l.to_sorted_vec(), r.to_sorted_vec());
        assert!(lv.iter().all(|&k| k < 41));
        assert!(rv.iter().all(|&k| k >= 41));
        assert_eq!(lv.len() + rv.len(), 100);
    }

    fn oracle(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut v: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merges_correctly_small() {
        for (na, nb) in [(0, 0), (1, 0), (0, 1), (3, 5), (8, 8), (17, 4)] {
            let a = evens(na);
            let b = odds(nb);
            let (root, _) = run_merge(&a, &b, Mode::Pipelined);
            let t = root.get();
            assert!(t.is_search_tree());
            assert_eq!(t.to_sorted_vec(), oracle(&a, &b), "na={na} nb={nb}");
        }
    }

    #[test]
    fn strict_mode_same_result_same_work() {
        let a = evens(100);
        let b = odds(100);
        let (r1, c1) = run_merge(&a, &b, Mode::Pipelined);
        let (r2, c2) = run_merge(&a, &b, Mode::Strict);
        assert_eq!(r1.get().to_sorted_vec(), r2.get().to_sorted_vec());
        assert_eq!(c1.work, c2.work, "strictness must not change the work");
        assert!(c1.depth <= c2.depth);
    }

    #[test]
    fn pipelined_depth_is_logarithmic() {
        // depth(n, n) should grow by a constant (not by lg n) when n doubles.
        let d = |n: usize| run_merge(&evens(n), &odds(n), Mode::Pipelined).1.depth;
        let (d1k, d2k, d4k) = (d(1 << 10), d(1 << 11), d(1 << 12));
        let g1 = d2k as i64 - d1k as i64;
        let g2 = d4k as i64 - d2k as i64;
        assert!(g1 > 0 && g2 > 0);
        // Θ(lg n + lg m): doubling n adds O(1) depth. Allow slack for the
        // constant but rule out Θ(lg² n) (which would add ~lg n ≈ 11 per
        // doubling times the constant).
        assert!(
            g2 <= g1 + 16,
            "depth increments should be ~constant: {d1k} {d2k} {d4k}"
        );
    }

    #[test]
    fn strict_depth_is_log_squared() {
        let n = 1 << 10;
        let (_, cp) = run_merge(&evens(n), &odds(n), Mode::Pipelined);
        let (_, cs) = run_merge(&evens(n), &odds(n), Mode::Strict);
        // lg(1024) = 10: the strict depth must be several times the
        // pipelined depth.
        assert!(
            cs.depth > 2 * cp.depth,
            "strict {} vs pipelined {}",
            cs.depth,
            cp.depth
        );
    }

    #[test]
    fn merge_is_linear_code() {
        let (_, c) = run_merge(&evens(256), &odds(256), Mode::Pipelined);
        assert!(c.is_linear(), "every future cell must be read at most once");
    }

    #[test]
    fn work_is_m_log_n_over_m() {
        // With m << n the work should be far below O(n).
        let n = 1 << 14;
        let m = 1 << 4;
        let (_, c) = run_merge(&evens(n), &odds(m), Mode::Pipelined);
        assert!(
            c.work < (n as u64) / 4,
            "work {} should be o(n) for m << n",
            c.work
        );
    }

    #[test]
    fn result_height_bounded() {
        let n = 1 << 8;
        let (root, _) = run_merge(&evens(n), &odds(n), Mode::Pipelined);
        let t = root.get();
        // Paper: result height can reach lg n + lg m but no more.
        assert!(t.height() <= 8 + 8 + 2, "height {}", t.height());
    }

    #[test]
    fn split_partitions() {
        let (parts, _) = Sim::new().run(|ctx| {
            let t = Tree::from_sorted(ctx, &evens(100));
            let (lp, lf) = ctx.promise();
            let (rp, rf) = ctx.promise();
            split(ctx, 41, t, lp, rp);
            (lf, rf)
        });
        let l = parts.0.get().to_sorted_vec();
        let r = parts.1.get().to_sorted_vec();
        assert!(l.iter().all(|&k| k < 41));
        assert!(r.iter().all(|&k| k >= 41));
        assert_eq!(l.len() + r.len(), 100);
    }

    #[test]
    fn split_at_extremes() {
        for s in [-1i64, 0, 199, 500] {
            let (parts, _) = Sim::new().run(|ctx| {
                let t = Tree::from_sorted(ctx, &evens(100));
                let (lp, lf) = ctx.promise();
                let (rp, rf) = ctx.promise();
                split(ctx, s, t, lp, rp);
                (lf, rf)
            });
            let l = parts.0.get().to_sorted_vec();
            let r = parts.1.get().to_sorted_vec();
            assert_eq!(l.len() + r.len(), 100);
            assert!(l.iter().all(|&k| k < s));
            assert!(r.iter().all(|&k| k >= s));
        }
    }
}
