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
