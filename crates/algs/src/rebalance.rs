//! §3.1 — tree **rebalancing** (Theorem 3.2) and the merge-then-rebalance
//! composite (Corollary 3.3), written once against the [`PipeBackend`]
//! surface.
//!
//! The paper's three phases, each a pipelined pass:
//!
//! 1. [`annotate_sizes`] — an upward pass computing subtree sizes (this
//!    phase is the depth-Θ(h) bottleneck; it cannot complete before the
//!    input tree does);
//! 2. [`assign_ranks`] — a downward pass stamping each node with its
//!    symmetric-order rank, emitting nodes root-first so phase 3 can chase
//!    them immediately;
//! 3. [`rebuild`] — split the ranked tree at the median rank
//!    ([`split_rank`], a rank-indexed variant of `split`) and recurse on
//!    both halves in parallel, producing a perfectly balanced tree.
//!
//! Phases 2 and 3 overlap through future cells; the total depth is
//! O(h + lg n) with pipelining versus Θ(h · lg n) strict.

use std::sync::Arc;

use crate::tree::{Tree, TreeFut, TreeWr};
use crate::{fork_call, Key, Mode, PipeBackend, Val};

/// Shorthand for the future of a ranked subtree on engine `B`.
pub type RankedFut<B, K> = <B as PipeBackend>::Fut<RankedTree<B, K>>;
/// Shorthand for the write pointer of a ranked subtree cell on engine `B`.
pub type RankedWr<B, K> = <B as PipeBackend>::Wr<RankedTree<B, K>>;

/// Phase-1 output: a fully materialized tree annotated with subtree sizes.
///
/// The children are plain values, not futures — the size pass is an upward
/// accumulation, so a node can only exist once its children do. Being
/// engine-free, the same value flows unchanged between backends.
pub enum SizedTree<K> {
    /// The empty tree.
    Leaf,
    /// An interior node.
    Node(Arc<SizedNode<K>>),
}

/// An interior node of a [`SizedTree`].
pub struct SizedNode<K> {
    /// The key stored at this node.
    pub key: K,
    /// Total number of keys in this subtree.
    pub size: usize,
    /// Number of keys in the left subtree (cached for rank assignment).
    pub left_size: usize,
    /// Left subtree.
    pub left: SizedTree<K>,
    /// Right subtree.
    pub right: SizedTree<K>,
}

impl<K> Clone for SizedTree<K> {
    fn clone(&self) -> Self {
        match self {
            SizedTree::Leaf => SizedTree::Leaf,
            SizedTree::Node(n) => SizedTree::Node(Arc::clone(n)),
        }
    }
}

impl<K> SizedTree<K> {
    /// Number of keys in this subtree.
    pub fn size(&self) -> usize {
        match self {
            SizedTree::Leaf => 0,
            SizedTree::Node(n) => n.size,
        }
    }
}

/// Phase-2 output: nodes stamped with symmetric-order ranks, children as
/// futures so the rebuild phase can chase a node the moment it appears.
pub enum RankedTree<B: PipeBackend, K: Val> {
    /// The empty tree.
    Leaf,
    /// An interior node.
    Node(Arc<RankedNode<B, K>>),
}

/// An interior node of a [`RankedTree`].
pub struct RankedNode<B: PipeBackend, K: Val> {
    /// The key stored at this node.
    pub key: K,
    /// Symmetric-order rank of this key (0-based).
    pub rank: usize,
    /// Future of the left subtree.
    pub left: RankedFut<B, K>,
    /// Future of the right subtree.
    pub right: RankedFut<B, K>,
}

impl<B: PipeBackend, K: Val> Clone for RankedTree<B, K> {
    fn clone(&self) -> Self {
        match self {
            RankedTree::Leaf => RankedTree::Leaf,
            RankedTree::Node(n) => RankedTree::Node(Arc::clone(n)),
        }
    }
}

impl<B: PipeBackend, K: Val> RankedTree<B, K> {
    /// Construct an interior node.
    pub fn node(key: K, rank: usize, left: RankedFut<B, K>, right: RankedFut<B, K>) -> Self {
        RankedTree::Node(Arc::new(RankedNode {
            key,
            rank,
            left,
            right,
        }))
    }
}

/// Phase 1: annotate every node with its subtree size (upward pass). The
/// result for a node is written only after both children's results arrive —
/// inherently non-pipelining, which is why rebalance costs Θ(h) depth even
/// with futures.
pub fn annotate_sizes<B: PipeBackend, K: Key>(bk: &B, t: TreeFut<B, K>, out: B::Wr<SizedTree<K>>) {
    bk.touch(&t, move |bk, tv| {
        bk.tick(1);
        match tv {
            Tree::Leaf => bk.fulfill(out, SizedTree::Leaf),
            Tree::Node(n) => {
                let (lp, lf) = bk.cell();
                let (rp, rf) = bk.cell();
                let (l, r) = (n.left.clone(), n.right.clone());
                bk.fork2(
                    move |bk| annotate_sizes(bk, l, lp),
                    move |bk| annotate_sizes(bk, r, rp),
                );
                let key = n.key.clone();
                bk.touch(&lf, move |bk, lv| {
                    bk.touch(&rf, move |bk, rv| {
                        bk.tick(1); // combine the two sizes
                        let left_size = lv.size();
                        let size = 1 + left_size + rv.size();
                        bk.fulfill(
                            out,
                            SizedTree::Node(Arc::new(SizedNode {
                                key,
                                size,
                                left_size,
                                left: lv,
                                right: rv,
                            })),
                        );
                    });
                });
            }
        }
    });
}

/// Phase 2: stamp each node with its symmetric-order rank (downward pass).
/// The node is emitted **before** the recursive calls — root-first — so the
/// rebuild phase pipelines into this one.
pub fn assign_ranks<B: PipeBackend, K: Key>(
    bk: &B,
    t: SizedTree<K>,
    offset: usize,
    out: RankedWr<B, K>,
) {
    bk.tick(1);
    match t {
        SizedTree::Leaf => bk.fulfill(out, RankedTree::Leaf),
        SizedTree::Node(n) => {
            let rank = offset + n.left_size;
            let (lp, lf) = bk.cell();
            let (rp, rf) = bk.cell();
            bk.fulfill(out, RankedTree::node(n.key.clone(), rank, lf, rf));
            let (l, r) = (n.left.clone(), n.right.clone());
            bk.fork2(
                move |bk| assign_ranks(bk, l, offset, lp),
                move |bk| assign_ranks(bk, r, rank + 1, rp),
            );
        }
    }
}

/// Rank-indexed split: partition `t` around the node of rank `r`, writing
/// the key of that node to `kout`, the ranks `< r` to `lout` and `> r` to
/// `rout`. Same one-path pipeline shape as `split` in [`crate::merge`],
/// navigating by rank instead of by key.
///
/// # Panics
/// If rank `r` does not occur in `t` (the rebuild phase only asks for ranks
/// in range, so this is a logic error).
pub fn split_rank<B: PipeBackend, K: Key>(
    bk: &B,
    r: usize,
    t: RankedTree<B, K>,
    lout: RankedWr<B, K>,
    rout: RankedWr<B, K>,
    kout: B::Wr<K>,
) {
    bk.tick(1);
    match t {
        RankedTree::Leaf => unreachable!("split_rank: rank {r} not present"),
        RankedTree::Node(n) => {
            if r == n.rank {
                bk.fulfill(kout, n.key.clone());
                bk.touch(&n.left.clone(), move |bk, lv| {
                    bk.fulfill(lout, lv);
                    bk.touch(&n.right, move |bk, rv| bk.fulfill(rout, rv));
                });
            } else if r < n.rank {
                let (rp1, rf1) = bk.cell();
                bk.fulfill(
                    rout,
                    RankedTree::node(n.key.clone(), n.rank, rf1, n.right.clone()),
                );
                bk.touch(&n.left, move |bk, lv| {
                    split_rank(bk, r, lv, lout, rp1, kout)
                });
            } else {
                let (lp1, lf1) = bk.cell();
                bk.fulfill(
                    lout,
                    RankedTree::node(n.key.clone(), n.rank, n.left.clone(), lf1),
                );
                bk.touch(&n.right, move |bk, rv| {
                    split_rank(bk, r, rv, lp1, rout, kout)
                });
            }
        }
    }
}

/// Phase 3: rebuild the ranked tree over the rank interval `[lo, hi)` into
/// a perfectly balanced tree. Splits at the median rank and recurses on
/// both halves in parallel; the splits chase ranked nodes as phase 2
/// produces them.
pub fn rebuild<B: PipeBackend, K: Key>(
    bk: &B,
    t: RankedFut<B, K>,
    lo: usize,
    hi: usize,
    out: TreeWr<B, K>,
    mode: Mode,
) {
    bk.tick(1); // interval test
    if lo >= hi {
        bk.fulfill(out, Tree::Leaf);
        return;
    }
    bk.touch(&t, move |bk, tv| {
        let mid = lo + (hi - lo) / 2;
        // let (L, R, k) = ?split_rank(mid, t)
        let (lp, lf) = bk.cell();
        let (rp, rf) = bk.cell();
        let (kp, kf) = bk.cell();
        fork_call(bk, mode, move |bk| split_rank(bk, mid, tv, lp, rp, kp));
        // Node(k, ?rebuild(L, lo, mid), ?rebuild(R, mid+1, hi))
        let (blp, blf) = bk.cell();
        let (brp, brf) = bk.cell();
        bk.fork2(
            move |bk| rebuild(bk, lf, lo, mid, blp, mode),
            move |bk| rebuild(bk, rf, mid + 1, hi, brp, mode),
        );
        bk.touch(&kf, move |bk, key| {
            bk.tick(1); // allocate the node
            bk.fulfill(out, Tree::node(key, blf, brf));
        });
    });
}

/// The full §3.1 rebalance: size pass, rank pass, rebuild — three pipelined
/// phases chained through future cells (Theorem 3.2).
pub fn rebalance<B: PipeBackend, K: Key>(bk: &B, t: TreeFut<B, K>, out: TreeWr<B, K>, mode: Mode) {
    let (sp, sf) = bk.cell();
    bk.fork(move |bk| annotate_sizes(bk, t, sp));
    bk.touch(&sf, move |bk, sv| {
        let n = sv.size();
        let (rp, rf) = bk.cell();
        bk.fork(move |bk| assign_ranks(bk, sv, 0, rp));
        rebuild(bk, rf, 0, n, out, mode);
    });
}

/// Corollary 3.3: merge two balanced trees and rebalance the result, with
/// the rebalance pipelining into the merge through the intermediate cell.
pub fn merge_balanced<B: PipeBackend, K: Key>(
    bk: &B,
    a: TreeFut<B, K>,
    b: TreeFut<B, K>,
    out: TreeWr<B, K>,
    mode: Mode,
) {
    let (mp, mf) = bk.cell();
    bk.fork(move |bk| crate::merge::merge(bk, a, b, mp, mode));
    rebalance(bk, mf, out, mode);
}

/// Build a maximally **unbalanced** tree (right spine) from keys inserted
/// in the given order, as free input cells — the stress input for the
/// rebalance tests on every backend.
pub fn unbalanced_from<B: PipeBackend, K: Key>(bk: &B, keys: &[K]) -> Tree<B, K> {
    enum P<K> {
        Leaf,
        Node(K, Box<P<K>>, Box<P<K>>),
    }
    fn ins<K: Ord>(t: P<K>, k: K) -> P<K> {
        match t {
            P::Leaf => P::Node(k, Box::new(P::Leaf), Box::new(P::Leaf)),
            P::Node(key, l, r) => {
                if k < key {
                    P::Node(key, Box::new(ins(*l, k)), r)
                } else {
                    P::Node(key, l, Box::new(ins(*r, k)))
                }
            }
        }
    }
    fn conv<B: PipeBackend, K: Key>(bk: &B, t: &P<K>) -> Tree<B, K> {
        match t {
            P::Leaf => Tree::Leaf,
            P::Node(k, l, r) => {
                let lt = conv(bk, l);
                let rt = conv(bk, r);
                Tree::node(k.clone(), bk.input(lt), bk.input(rt))
            }
        }
    }
    let mut p = P::Leaf;
    for k in keys {
        p = ins(p, k.clone());
    }
    conv(bk, &p)
}
