//! §3.2–3.3 — pipelined treap **union** and **difference** (Figures 4
//! and 7; Theorems 3.5, 3.7, 3.11; Corollaries 3.6, 3.12), written once in
//! continuation-passing style against the [`PipeBackend`] surface.
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
//! [`crate::plain`] uses the same rule, which the cross-backend tests rely
//! on.
//!
//! Beyond the paper's two headline operations the module adds
//! [`intersect`] (the dual of [`diff`], from the companion
//! set-operations paper the text cites).
//!
//! ## Granularity
//!
//! A node carries a [`size`](TreapNode::size) that is non-zero only when
//! its whole subtree is finished, and then it holds its children directly
//! ([`Child::Done`]), sized in turn: no future cell anywhere below. Input
//! constructors and the plain code below build such nodes, one allocation
//! each; a node published ahead of its children keeps size 0 and reaches
//! the pending ones through cells ([`Child::Cell`]). On an engine with a
//! non-zero [`PipeBackend::GRAIN`], `union`, `diff`, `intersect`, `splitm`
//! and `join` choose from what they can observe: two sized operands whose
//! work estimate m·(⌊lg(n/m)⌋+1) is within the grain run direct-style
//! persistent code (walk by reference, fulfil `out` once, fork nothing,
//! touch no engine); a sized operand of any size is split or joined
//! plainly, so its pieces stay sized; everything else — an unsized or
//! still-pending operand, or more work than one grain — takes the paper's
//! pipelined step, which copies a child into the node it publishes
//! whichever kind it is. The within-grain question is itself public
//! ([`union_within_grain`], [`diff_within_grain`]) for a caller that wants
//! the plain answer, if there is one, with no engine in hand. An engine that never cuts never fuses either: with
//! `GRAIN == 0` the input constructors build unsized nodes on cells, so
//! every step and every data edge is the paper's.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use crate::plain::{wins, Entry, PlainTreap};
use crate::{fork_call, Key, Mode, PipeBackend, Val};

/// Shorthand for the future of a subtreap on engine `B`.
pub type TreapFut<B, K> = <B as PipeBackend>::Fut<Treap<B, K>>;
/// Shorthand for the write pointer of a subtreap cell on engine `B`.
pub type TreapWr<B, K> = <B as PipeBackend>::Wr<Treap<B, K>>;

/// A treap on engine `B`.
pub enum Treap<B: PipeBackend, K: 'static> {
    /// The empty treap.
    Leaf,
    /// An interior node (shared, immutable).
    Node(Arc<TreapNode<B, K>>),
}

/// A child of a [`TreapNode`]: a future cell where the subtreap may still
/// be pending, the subtreap itself where it is known to be finished.
pub enum Child<B: PipeBackend, K: 'static> {
    /// A finished subtreap, held directly.
    Done(Treap<B, K>),
    /// The future of a subtreap.
    Cell(TreapFut<B, K>),
}

/// An interior node of a [`Treap`].
pub struct TreapNode<B: PipeBackend, K: 'static> {
    /// Key (symmetric order).
    pub key: K,
    /// Priority (max-heap order, ties broken by key).
    pub prio: u64,
    /// Keys in this subtree **if it is complete**, else 0 (a node
    /// published ahead of its children). Exact whenever non-zero, and then
    /// both children are [`Child::Done`] and sized in turn — no cell
    /// anywhere below; [`Treap::check_invariants`] verifies all of it.
    pub size: usize,
    /// The left subtreap.
    pub left: Child<B, K>,
    /// The right subtreap.
    pub right: Child<B, K>,
}

impl<B: PipeBackend, K> Clone for Treap<B, K> {
    fn clone(&self) -> Self {
        match self {
            Treap::Leaf => Treap::Leaf,
            Treap::Node(n) => Treap::Node(Arc::clone(n)),
        }
    }
}

impl<B: PipeBackend, K> Clone for Child<B, K> {
    fn clone(&self) -> Self {
        match self {
            Child::Done(t) => Child::Done(t.clone()),
            Child::Cell(f) => Child::Cell(f.clone()),
        }
    }
}

impl<B: PipeBackend, K> Treap<B, K> {
    /// Construct an interior node over cells that may still be pending:
    /// the node is unsized.
    pub fn node(key: K, prio: u64, left: TreapFut<B, K>, right: TreapFut<B, K>) -> Self {
        Self::node_over(key, prio, 0, Child::Cell(left), Child::Cell(right))
    }

    /// Construct a complete (sized) interior node over complete subtreaps.
    ///
    /// # Panics
    /// If `left` or `right` is unsized.
    pub fn node_sized(key: K, prio: u64, left: Treap<B, K>, right: Treap<B, K>) -> Self {
        let size = 1 + len(&left) + len(&right);
        Self::node_over(key, prio, size, Child::Done(left), Child::Done(right))
    }

    /// Convert a sequential treap into a complete one — every node sized,
    /// one allocation each, no cell — with no engine in hand: what
    /// [`from_plain`](Self::from_plain) builds on an engine that cuts, for
    /// a caller that is not on a worker. From entries already sorted by
    /// key, [`from_sorted_complete`](Self::from_sorted_complete) builds the
    /// same tree in linear time.
    pub fn from_plain_complete(t: &Option<Box<PlainTreap<K>>>) -> Self
    where
        K: Clone,
    {
        let Some(n) = t else { return Treap::Leaf };
        let (l, r) = (
            Self::from_plain_complete(&n.left),
            Self::from_plain_complete(&n.right),
        );
        Treap::node_sized(n.key.clone(), n.prio, l, r)
    }

    /// The complete treap of `entries`, which are sorted by key and hold no
    /// key twice, in linear time and with no engine in hand: the tree
    /// [`from_plain_complete`](Self::from_plain_complete) builds from
    /// [`PlainTreap::from_entries`], node for node and allocated in the same
    /// (post-)order, without the intermediate `Box` treap or its O(n lg n)
    /// repeated insertion. One scan builds the Cartesian tree of the
    /// priorities as indices — the stack is the right spine so far; an
    /// entry pops every spine node it [`wins`] over and adopts the last one
    /// popped as its left child — then the nodes are made bottom-up.
    pub fn from_sorted_complete(entries: &[Entry<K>]) -> Self
    where
        K: Ord + Clone,
    {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be sorted by key and distinct"
        );
        const NONE: usize = usize::MAX;
        // Per entry: left child, right child, and the spine node below it
        // while it is on the stack.
        let mut links = vec![[NONE; 3]; entries.len()];
        let (mut root, mut top) = (NONE, NONE);
        for (i, (key, prio)) in entries.iter().enumerate() {
            let mut popped = NONE;
            while top != NONE && wins(key, *prio, &entries[top].0, entries[top].1) {
                popped = top;
                top = links[top][2];
            }
            links[i] = [popped, NONE, top];
            match top {
                NONE => root = i,
                below => links[below][1] = i,
            }
            top = i;
        }
        fn build<B: PipeBackend, K: Clone>(
            entries: &[Entry<K>],
            links: &[[usize; 3]],
            i: usize,
        ) -> Treap<B, K> {
            if i == NONE {
                return Treap::Leaf;
            }
            let (l, r) = (
                build(entries, links, links[i][0]),
                build(entries, links, links[i][1]),
            );
            Treap::node_sized(entries[i].0.clone(), entries[i].1, l, r)
        }
        build(entries, &links, root)
    }

    fn node_over(key: K, prio: u64, size: usize, left: Child<B, K>, right: Child<B, K>) -> Self {
        Treap::Node(Arc::new(TreapNode {
            key,
            prio,
            size,
            left,
            right,
        }))
    }

    /// Is this the empty treap?
    pub fn is_leaf(&self) -> bool {
        matches!(self, Treap::Leaf)
    }

    /// The number of keys, if the treap is known to be complete (the empty
    /// treap is).
    pub fn sized(&self) -> Option<usize> {
        match self {
            Treap::Leaf => Some(0),
            Treap::Node(n) => n.sized(),
        }
    }
}

impl<B: PipeBackend, K> TreapNode<B, K> {
    /// [`size`](TreapNode::size), if the node makes the claim.
    pub fn sized(&self) -> Option<usize> {
        (self.size != 0).then_some(self.size)
    }
}

impl<B: PipeBackend, K> Child<B, K> {
    /// The subtreap, if it is held directly — as every child below a sized
    /// node is.
    pub fn done(&self) -> Option<&Treap<B, K>> {
        match self {
            Child::Done(t) => Some(t),
            Child::Cell(_) => None,
        }
    }
}

impl<B: PipeBackend, K: Key> Child<B, K>
where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
{
    /// The finished subtreap (post-run inspection): borrowed if held
    /// directly, else read out of its cell.
    ///
    /// # Panics
    /// If the cell is still unwritten.
    pub fn get(&self) -> Cow<'_, Treap<B, K>> {
        match self {
            Child::Done(t) => Cow::Borrowed(t),
            Child::Cell(f) => Cow::Owned(Treap::expect(f)),
        }
    }

    /// The data edge to the child: a touch of its cell, or nothing at all
    /// in front of `k` when the subtreap is held directly.
    fn touch(&self, bk: &B, k: impl FnOnce(&B, Treap<B, K>) + Send + 'static) {
        match self {
            Child::Done(t) => k(bk, t.clone()),
            Child::Cell(f) => bk.touch(f, k),
        }
    }

    /// The child as the future a recursive call takes.
    fn fut(&self, bk: &B) -> TreapFut<B, K>
    where
        TreapWr<B, K>: Send,
    {
        match self {
            Child::Done(t) => bk.input(t.clone()),
            Child::Cell(f) => f.clone(),
        }
    }
}

impl<B: PipeBackend, K: Key> Treap<B, K>
where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
{
    /// Read a finished cell (post-run inspection).
    ///
    /// # Panics
    /// If the cell is still unwritten.
    pub fn expect(f: &TreapFut<B, K>) -> Treap<B, K> {
        B::peek(f).expect("treap cell not written: the run has not quiesced")
    }

    /// Convert a sequential treap into an engine treap (input
    /// construction, zero cost): complete nodes on an engine that cuts,
    /// unsized nodes over free pre-written cells on one that does not.
    pub fn from_plain(bk: &B, t: &Option<Box<PlainTreap<K>>>) -> Treap<B, K>
    where
        TreapWr<B, K>: Send,
    {
        if B::GRAIN != 0 {
            return Self::from_plain_complete(t);
        }
        let Some(n) = t else { return Treap::Leaf };
        let (l, r) = (
            Self::from_plain(bk, &n.left),
            Self::from_plain(bk, &n.right),
        );
        Treap::node(n.key.clone(), n.prio, bk.input(l), bk.input(r))
    }

    /// Build directly from entries (builds a [`PlainTreap`] first, so the
    /// shape is the oracle's shape by construction).
    pub fn from_entries(bk: &B, entries: &[Entry<K>]) -> Treap<B, K>
    where
        TreapWr<B, K>: Send,
    {
        let plain = PlainTreap::from_entries(entries);
        Self::from_plain(bk, &plain)
    }

    /// This finished treap with every unsized node rebuilt, bottom-up, as
    /// a sized one: the result holds no cell. O(unsized nodes) — sized
    /// subtrees are shared as they are.
    pub fn sealed(&self) -> Treap<B, K> {
        match self {
            Treap::Node(n) if n.size == 0 => {
                let (l, r) = (n.left.get().sealed(), n.right.get().sealed());
                Treap::node_sized(n.key.clone(), n.prio, l, r)
            }
            t => t.clone(),
        }
    }

    /// Post-run inspection: sorted key vector.
    pub fn to_sorted_vec(&self) -> Vec<K> {
        let mut v = Vec::with_capacity(self.sized().unwrap_or(0));
        self.inorder_into(&mut v);
        v
    }

    fn inorder_into(&self, out: &mut Vec<K>) {
        if let Treap::Node(n) = self {
            n.left.get().inorder_into(out);
            out.push(n.key.clone());
            n.right.get().inorder_into(out);
        }
    }

    /// Post-run inspection: number of keys (counted, where no node says).
    pub fn size(&self) -> usize {
        match self {
            Treap::Leaf => 0,
            Treap::Node(n) => n
                .sized()
                .unwrap_or_else(|| 1 + n.left.get().size() + n.right.get().size()),
        }
    }

    /// Post-run inspection: height (empty = 0).
    pub fn height(&self) -> usize {
        match self {
            Treap::Leaf => 0,
            Treap::Node(n) => 1 + n.left.get().height().max(n.right.get().height()),
        }
    }

    /// Post-run inspection: BST order and heap order both hold, and every
    /// non-zero [`size`](TreapNode::size) is exact with only sized nodes,
    /// held directly, below it.
    pub fn check_invariants(&self) -> bool {
        fn rec<B: PipeBackend, K: Key>(t: &Treap<B, K>, max_prio: Option<(u64, K)>) -> bool
        where
            Treap<B, K>: Val,
            TreapFut<B, K>: Val,
        {
            match t {
                Treap::Leaf => true,
                Treap::Node(n) => {
                    if let Some((p, k)) = &max_prio {
                        if wins(&n.key, n.prio, k, *p) {
                            return false;
                        }
                    }
                    let here = Some((n.prio, n.key.clone()));
                    rec(&n.left.get(), here.clone()) && rec(&n.right.get(), here)
                }
            }
        }
        // The subtree's key count; `None` for a size violation: a wrong
        // count, or an unsized node or a cell (written or not) below a
        // sized node.
        fn count<B: PipeBackend, K: Key>(t: &Treap<B, K>, sized_above: bool) -> Option<usize>
        where
            Treap<B, K>: Val,
            TreapFut<B, K>: Val,
        {
            let Treap::Node(n) = t else { return Some(0) };
            let sized = n.size != 0;
            if sized_above && !sized {
                return None;
            }
            let below = |c: &Child<B, K>| match c.done() {
                None if sized => None,
                _ => count(&c.get(), sized),
            };
            let keys = 1 + below(&n.left)? + below(&n.right)?;
            (!sized || n.size == keys).then_some(keys)
        }
        if count(self, false).is_none() {
            return false;
        }
        let heap_ok = rec(self, None);
        let keys = self.to_sorted_vec();
        let bst_ok = keys.windows(2).all(|w| w[0] < w[1]);
        heap_ok && bst_ok
    }
}

// ---- Plain (direct-style, persistent) code for complete operands. ----
//
// Inputs are shared and immutable, so every function copies the path it
// changes and shares the rest — down to the node itself when nothing below
// it changed; results are sized. Reached only through sized operands, whose
// children are all held directly: a pointer walk, one allocation per node
// built, and no engine anywhere.

/// The subtreap below a sized node.
fn kid<B: PipeBackend, K>(c: &Child<B, K>) -> &Treap<B, K> {
    c.done().expect("sized treap node above a cell")
}

/// The key count of a subtreap reached through a sized node.
fn len<B: PipeBackend, K>(t: &Treap<B, K>) -> usize {
    t.sized().expect("unsized treap node below a sized one")
}

/// Are `a` and `b` the same subtreap (not merely equal)?
fn same<B: PipeBackend, K>(a: &Treap<B, K>, b: &Treap<B, K>) -> bool {
    match (a, b) {
        (Treap::Leaf, Treap::Leaf) => true,
        (Treap::Node(x), Treap::Node(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

/// The sized node `n` with the complete subtreaps `l` and `r` for
/// children: `n` itself if those are the ones it has.
fn with_kids<B: PipeBackend, K: Key>(
    n: &Arc<TreapNode<B, K>>,
    l: Treap<B, K>,
    r: Treap<B, K>,
) -> Treap<B, K> {
    if same(kid(&n.left), &l) && same(kid(&n.right), &r) {
        return Treap::Node(Arc::clone(n));
    }
    Treap::node_sized(n.key.clone(), n.prio, l, r)
}

/// The paper's work bound for a set operation on `n` and `m` keys
/// (Theorems 3.5 and 3.7) with its constant dropped: m·(⌊lg(n/m)⌋+1), m
/// the smaller.
fn work_estimate(n: usize, m: usize) -> u64 {
    let (m, n) = (m.min(n) as u64, m.max(n) as u64);
    if m == 0 {
        0
    } else {
        m * u64::from((n / m).ilog2() + 1)
    }
}

/// Can this engine run a set operation as plain code: both operands
/// [`sized`](Treap::sized), and no more than one grain of work?
fn within_grain<B: PipeBackend>(a: Option<usize>, b: Option<usize>) -> bool {
    B::GRAIN > 0 && matches!((a, b), (Some(n), Some(m)) if work_estimate(n, m) <= B::GRAIN)
}

/// Is `t` complete on an engine that cuts at all? Then it is split or
/// joined plainly whatever its size: that is O(height), and its pieces
/// stay sized.
fn plainly<B: PipeBackend, K>(t: &Treap<B, K>) -> bool {
    B::GRAIN > 0 && t.sized().is_some()
}

fn split_plain<B: PipeBackend, K: Key>(t: &Treap<B, K>, s: &K) -> (Treap<B, K>, Treap<B, K>, bool) {
    let Treap::Node(n) = t else {
        return (Treap::Leaf, Treap::Leaf, false);
    };
    let (lv, rv) = (kid(&n.left), kid(&n.right));
    match s.cmp(&n.key) {
        Ordering::Equal => (lv.clone(), rv.clone(), true),
        Ordering::Less => {
            let (l, m, found) = split_plain(lv, s);
            if l.is_leaf() && !found {
                return (Treap::Leaf, t.clone(), false); // all of `t` is above `s`
            }
            let r = Treap::node_sized(n.key.clone(), n.prio, m, rv.clone());
            (l, r, found)
        }
        Ordering::Greater => {
            let (m, r, found) = split_plain(rv, s);
            if r.is_leaf() && !found {
                return (t.clone(), Treap::Leaf, false); // all of `t` is below `s`
            }
            let l = Treap::node_sized(n.key.clone(), n.prio, lv.clone(), m);
            (l, r, found)
        }
    }
}

fn join_plain<B: PipeBackend, K: Key>(l: &Treap<B, K>, r: &Treap<B, K>) -> Treap<B, K> {
    match (l, r) {
        (Treap::Leaf, t) | (t, Treap::Leaf) => t.clone(),
        (Treap::Node(a), Treap::Node(b)) => {
            if wins(&a.key, a.prio, &b.key, b.prio) {
                let j = join_plain(kid(&a.right), r);
                Treap::node_sized(a.key.clone(), a.prio, kid(&a.left).clone(), j)
            } else {
                let j = join_plain(l, kid(&b.left));
                Treap::node_sized(b.key.clone(), b.prio, j, kid(&b.right).clone())
            }
        }
    }
}

fn union_plain<B: PipeBackend, K: Key>(a: &Treap<B, K>, b: &Treap<B, K>) -> Treap<B, K> {
    match (a, b) {
        (Treap::Leaf, t) | (t, Treap::Leaf) => t.clone(),
        (Treap::Node(na), Treap::Node(nb)) => {
            let (w, loser) = if wins(&na.key, na.prio, &nb.key, nb.prio) {
                (na, b)
            } else {
                (nb, a)
            };
            let (l2, r2, _dup) = split_plain(loser, &w.key);
            let l = union_plain(kid(&w.left), &l2);
            let r = union_plain(kid(&w.right), &r2);
            with_kids(w, l, r)
        }
    }
}

/// `diff` (`keep_found == false`: `a`'s keys not in `b`) and its dual
/// `intersect` (`keep_found == true`: `a`'s keys also in `b`), which
/// differ only in which verdict keeps the root.
fn select_plain<B: PipeBackend, K: Key>(
    a: &Treap<B, K>,
    b: &Treap<B, K>,
    keep_found: bool,
) -> Treap<B, K> {
    let Treap::Node(n1) = a else {
        return Treap::Leaf;
    };
    if b.is_leaf() {
        return if keep_found { Treap::Leaf } else { a.clone() };
    }
    let (l2, r2, found) = split_plain(b, &n1.key);
    let l = select_plain(kid(&n1.left), &l2, keep_found);
    let r = select_plain(kid(&n1.right), &r2, keep_found);
    if found == keep_found {
        with_kids(n1, l, r)
    } else {
        join_plain(&l, &r)
    }
}

/// `union(a, b)` as plain code on the calling thread, if the rule of the
/// module docs ("Granularity") allows it: `Some` exactly when both operands
/// are [`sized`](Treap::sized) and the work estimate is within
/// [`PipeBackend::GRAIN`] — then the result is sized too — else `None`, and
/// the caller takes [`union`]. The pipelined [`union`] asks this same
/// question at every step; a caller with no engine in hand (pf-service's
/// inline pass) asks it directly.
pub fn union_within_grain<B: PipeBackend, K: Key>(
    a: &Treap<B, K>,
    b: &Treap<B, K>,
) -> Option<Treap<B, K>> {
    within_grain::<B>(a.sized(), b.sized()).then(|| union_plain(a, b))
}

/// `diff(a, b)` as plain code on the calling thread, under the rule of
/// [`union_within_grain`].
pub fn diff_within_grain<B: PipeBackend, K: Key>(
    a: &Treap<B, K>,
    b: &Treap<B, K>,
) -> Option<Treap<B, K>> {
    select_within_grain(a, b, false)
}

fn select_within_grain<B: PipeBackend, K: Key>(
    a: &Treap<B, K>,
    b: &Treap<B, K>,
    keep_found: bool,
) -> Option<Treap<B, K>> {
    within_grain::<B>(a.sized(), b.sized()).then(|| select_plain(a, b, keep_found))
}

/// `splitm(s, t)` (Figure 4): partition `t` by the splitter `s` into keys
/// `< s` (`lout`) and keys `> s` (`rout`), **excluding** `s` itself;
/// `fout` reports whether `s` was present. Completes early if the splitter
/// is found — one of the data-dependent delays that make the pipeline
/// dynamic.
pub fn splitm<B: PipeBackend, K: Key>(
    bk: &B,
    s: K,
    t: Treap<B, K>,
    lout: TreapWr<B, K>,
    rout: TreapWr<B, K>,
    fout: B::Wr<bool>,
) where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
    TreapWr<B, K>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    if plainly(&t) {
        let (l, r, found) = split_plain(&t, &s);
        bk.fulfill(lout, l);
        bk.fulfill(rout, r);
        bk.fulfill(fout, found);
        return;
    }
    bk.tick(1); // match + compare
    match t {
        Treap::Leaf => {
            bk.fulfill(lout, Treap::Leaf);
            bk.fulfill(rout, Treap::Leaf);
            bk.fulfill(fout, false);
        }
        Treap::Node(n) => {
            if s == n.key {
                // Found: both sides are the children, written strictly
                // (a write is strict on the value, so touch first).
                n.left.clone().touch(bk, move |bk, lv| {
                    bk.fulfill(lout, lv);
                    n.right.touch(bk, move |bk, rv| {
                        bk.fulfill(rout, rv);
                        bk.fulfill(fout, true);
                    });
                });
            } else if s < n.key {
                let (rp1, rf1) = bk.cell();
                let r =
                    Treap::node_over(n.key.clone(), n.prio, 0, Child::Cell(rf1), n.right.clone());
                bk.fulfill(rout, r);
                n.left
                    .touch(bk, move |bk, lt| splitm(bk, s, lt, lout, rp1, fout));
            } else {
                let (lp1, lf1) = bk.cell();
                let l =
                    Treap::node_over(n.key.clone(), n.prio, 0, n.left.clone(), Child::Cell(lf1));
                bk.fulfill(lout, l);
                n.right
                    .touch(bk, move |bk, rt| splitm(bk, s, rt, lp1, rout, fout));
            }
        }
    }
}

/// `join(l, r)` (Figure 7): concatenate two treaps where every key of `l`
/// is smaller than every key of `r`. Takes already-touched root values;
/// the recursion forks so the result spine pipelines upward — the
/// ρ-value analysis of Lemma 3.10.
pub fn join<B: PipeBackend, K: Key>(bk: &B, l: Treap<B, K>, r: Treap<B, K>, out: TreapWr<B, K>)
where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
    TreapWr<B, K>: Send,
{
    if plainly(&l) && plainly(&r) {
        bk.fulfill(out, join_plain(&l, &r));
        return;
    }
    bk.tick(1);
    match (l, r) {
        (Treap::Leaf, r) => bk.fulfill(out, r),
        (l, Treap::Leaf) => bk.fulfill(out, l),
        (Treap::Node(a), Treap::Node(b)) => {
            if wins(&a.key, a.prio, &b.key, b.prio) {
                let (jp, jf) = bk.cell();
                let j = Treap::node_over(a.key.clone(), a.prio, 0, a.left.clone(), Child::Cell(jf));
                bk.fulfill(out, j);
                let ar = a.right.clone();
                bk.fork(move |bk| {
                    ar.touch(bk, move |bk, rv| join(bk, rv, Treap::Node(b), jp));
                });
            } else {
                let (jp, jf) = bk.cell();
                let j =
                    Treap::node_over(b.key.clone(), b.prio, 0, Child::Cell(jf), b.right.clone());
                bk.fulfill(out, j);
                let bl = b.left.clone();
                bk.fork(move |bk| {
                    bl.touch(bk, move |bk, lv| join(bk, Treap::Node(a), lv, jp));
                });
            }
        }
    }
}

/// `union(a, b)` (Figure 4): the keys of both treaps, duplicates removed.
/// The higher-priority root becomes the result root; the other treap is
/// split by that root's key with `splitm`, whose two output futures feed
/// the parallel recursive unions.
pub fn union<B: PipeBackend, K: Key>(
    bk: &B,
    a: TreapFut<B, K>,
    b: TreapFut<B, K>,
    out: TreapWr<B, K>,
    mode: Mode,
) where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
    TreapWr<B, K>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    bk.touch(&a, move |bk, av| {
        bk.tick(1);
        if av.is_leaf() {
            bk.touch(&b, move |bk, bv| bk.fulfill(out, bv));
            return;
        }
        bk.touch(&b, move |bk, bv| {
            if let Some(plain) = union_within_grain(&av, &bv) {
                bk.fulfill(out, plain);
                return;
            }
            bk.tick(1);
            let (w, loser) = match (av, bv) {
                (av, Treap::Leaf) => {
                    bk.fulfill(out, av);
                    return;
                }
                (Treap::Node(na), Treap::Node(nb)) => {
                    if wins(&na.key, na.prio, &nb.key, nb.prio) {
                        (na, Treap::Node(nb))
                    } else {
                        (nb, Treap::Node(na))
                    }
                }
                (Treap::Leaf, _) => unreachable!("handled above"),
            };
            // let (l2, r2) = ?splitm(w.key, loser)
            let (lp, lf) = bk.cell();
            let (rp, rf) = bk.cell();
            let (fp, _ff) = bk.cell::<bool>(); // found-flag: duplicates drop silently
            let key = w.key.clone();
            fork_call(bk, mode, move |bk| splitm(bk, key, loser, lp, rp, fp));
            // Node(k, p, ?union(w.left, l2), ?union(w.right, r2))
            let (ulp, ulf) = bk.cell();
            let (urp, urf) = bk.cell();
            bk.tick(1);
            bk.fulfill(out, Treap::node(w.key.clone(), w.prio, ulf, urf));
            let wl = w.left.fut(bk);
            let wr = w.right.fut(bk);
            bk.fork2(
                move |bk| union(bk, wl, lf, ulp, mode),
                move |bk| union(bk, wr, rf, urp, mode),
            );
        });
    });
}

/// `diff(a, b)` (Figure 7): the keys of `a` that are not in `b`. Splits
/// `b` by `a`'s root key, recurses on both sides in parallel, and — if the
/// root key was found in `b` — deletes it by joining the two recursive
/// results. The descending phase pipelines like `union`; the ascending
/// (join) phase pipelines by the ρ-value argument of Theorem 3.11.
pub fn diff<B: PipeBackend, K: Key>(
    bk: &B,
    a: TreapFut<B, K>,
    b: TreapFut<B, K>,
    out: TreapWr<B, K>,
    mode: Mode,
) where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
    TreapWr<B, K>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    select::<B, K, false>(bk, a, b, out, mode)
}

/// `intersect(a, b)`: the keys present in both treaps, with `a`'s
/// priorities. Structurally the dual of [`diff`] (same split, same
/// pipelined descent, same data-dependent join phase — only the
/// keep/delete decision is inverted), completing the set-operation family
/// of the companion paper the text cites for Theorem 3.7 (reference 11).
pub fn intersect<B: PipeBackend, K: Key>(
    bk: &B,
    a: TreapFut<B, K>,
    b: TreapFut<B, K>,
    out: TreapWr<B, K>,
    mode: Mode,
) where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
    TreapWr<B, K>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    select::<B, K, true>(bk, a, b, out, mode)
}

/// The one body of [`diff`] (`KEEP_FOUND == false`) and [`intersect`]
/// (`true`), as [`select_plain`] is of their plain code: a root stays iff
/// `splitm`'s verdict on its key equals `KEEP_FOUND`, else its two
/// recursive results are joined. A const, so each verdict is its own
/// monomorphic text and no closure carries it.
fn select<B: PipeBackend, K: Key, const KEEP_FOUND: bool>(
    bk: &B,
    a: TreapFut<B, K>,
    b: TreapFut<B, K>,
    out: TreapWr<B, K>,
    mode: Mode,
) where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
    TreapWr<B, K>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    bk.touch(&a, move |bk, av| {
        bk.tick(1);
        if av.is_leaf() {
            bk.fulfill(out, Treap::Leaf);
            return;
        }
        bk.touch(&b, move |bk, bv| {
            if let Some(plain) = select_within_grain(&av, &bv, KEEP_FOUND) {
                bk.fulfill(out, plain);
                return;
            }
            let Treap::Node(n1) = av else {
                unreachable!("handled above")
            };
            bk.tick(1);
            if bv.is_leaf() {
                let all = if KEEP_FOUND {
                    Treap::Leaf
                } else {
                    Treap::Node(n1)
                };
                bk.fulfill(out, all);
                return;
            }
            // let (l2, r2, found) = ?splitm(a.key, b)
            let (lp, lf) = bk.cell();
            let (rp, rf) = bk.cell();
            let (fp, ff) = bk.cell();
            let key = n1.key.clone();
            fork_call(bk, mode, move |bk| splitm(bk, key, bv, lp, rp, fp));
            // l = ?select(a.left, l2); r = ?select(a.right, r2)
            let (slp, slf) = bk.cell();
            let (srp, srf) = bk.cell();
            let al = n1.left.fut(bk);
            let ar = n1.right.fut(bk);
            bk.fork2(
                move |bk| select::<B, K, KEEP_FOUND>(bk, al, lf, slp, mode),
                move |bk| select::<B, K, KEEP_FOUND>(bk, ar, rf, srp, mode),
            );
            // if found == KEEP_FOUND then Node(k, p, l, r) else join(l, r)
            bk.touch(&ff, move |bk, found| {
                bk.tick(1);
                if found == KEEP_FOUND {
                    bk.fulfill(out, Treap::node(n1.key.clone(), n1.prio, slf, srf));
                } else {
                    bk.touch(&slf, move |bk, lv| {
                        bk.touch(&srf, move |bk, rv| match mode {
                            Mode::Pipelined => join(bk, lv, rv, out),
                            Mode::Strict => bk.strict(move |bk| join(bk, lv, rv, out)),
                        });
                    });
                }
            });
        });
    });
}

/// Collapse `k` treap futures into one: the **union tree** a coalescing
/// ingress queue wants. Instead of folding the batches into the root one
/// at a time (k sequential unions, each re-walking the accumulated
/// result), the batches combine pairwise in a balanced tree — ⌈lg k⌉
/// levels of unions whose operands are other *unresolved* unions, so the
/// whole tree pipelines: an upper union starts splitting as soon as the
/// lower union's root node is written. Duplicate keys across batches
/// resolve to the highest-priority entry regardless of the tree shape
/// (union keeps the [`wins`] winner), so the result is a function of the
/// combined entry set only.
///
/// Returns the input future unchanged for k = 1 and a ready `Leaf` for
/// k = 0.
pub fn union_many<B: PipeBackend, K: Key>(
    bk: &B,
    mut futs: Vec<TreapFut<B, K>>,
    mode: Mode,
) -> TreapFut<B, K>
where
    Treap<B, K>: Val,
    TreapFut<B, K>: Val,
    TreapWr<B, K>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    match futs.len() {
        0 => bk.input(Treap::Leaf),
        1 => futs.pop().expect("len checked"),
        n => {
            let right = futs.split_off(n / 2);
            let l = union_many(bk, futs, mode);
            let r = union_many(bk, right, mode);
            let (p, f) = bk.cell();
            bk.fork(move |bk| union(bk, l, r, p, mode));
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::splitmix64;
    use crate::start::{diff_on, intersect_on, union_on};
    use crate::testkit::{entries, run_diff, run_intersect, run_union};
    use crate::Seq;
    use pf_core::{Ctx, Fut, Sim};

    /// How deep the unsized top of a test input reaches: `ALL` is no node
    /// sized and every child a written cell, as a pipelined producer would
    /// have published the treap; `Some(0)` is the complete treap of
    /// `from_entries`; `Some(d)` is `d` levels of unsized nodes, each over
    /// one cell and one directly held sized subtree, above complete ones.
    type Crust = Option<usize>;
    const ALL: Crust = None;
    const SIZED: Crust = Some(0);

    fn build(bk: &Seq, entries: &[Entry<i64>], crust: Crust) -> Treap<Seq, i64> {
        fn rec(bk: &Seq, t: &Option<Box<PlainTreap<i64>>>, crust: Crust) -> Treap<Seq, i64> {
            let Some(n) = t else { return Treap::Leaf };
            let cell = |t, crust| Child::Cell(bk.input(rec(bk, t, crust)));
            let (l, r) = match crust {
                ALL => (cell(&n.left, ALL), cell(&n.right, ALL)),
                SIZED => return Treap::from_plain(bk, t),
                Some(d) => {
                    let done = |t| Child::Done(Treap::from_plain(bk, t));
                    if d % 2 == 0 {
                        (cell(&n.left, Some(d - 1)), done(&n.right))
                    } else {
                        (done(&n.left), cell(&n.right, Some(d - 1)))
                    }
                }
            };
            Treap::node_over(n.key, n.prio, 0, l, r)
        }
        rec(bk, &PlainTreap::from_entries(entries), crust)
    }

    /// Entries in preorder: with the search order, that fixes the shape.
    fn preorder<B: PipeBackend>(t: &Treap<B, i64>, out: &mut Vec<Entry<i64>>)
    where
        Treap<B, i64>: Val,
        TreapFut<B, i64>: Val,
    {
        if let Treap::Node(n) = t {
            out.push((n.key, n.prio));
            preorder(&n.left.get(), out);
            preorder(&n.right.get(), out);
        }
    }

    fn plain_preorder(t: &Option<Box<PlainTreap<i64>>>, out: &mut Vec<Entry<i64>>) {
        if let Some(n) = t {
            out.push((n.key, n.prio));
            plain_preorder(&n.left, out);
            plain_preorder(&n.right, out);
        }
    }

    /// The cutoff and the representation are invisible in the result: on
    /// complete operands (plain code below the grain, plain splits and
    /// joins above it), on unsized ones over cells (the paper's step
    /// throughout), on one of each, and on operands whose unsized top
    /// holds one child directly and the other in a cell, union, difference
    /// and intersection build `PlainTreap`'s tree, entry for entry — and
    /// sealing the result keeps the tree and leaves no cell in it.
    #[test]
    fn sized_and_unsized_operands_build_the_oracles_tree() {
        let reprio = |e: &[Entry<i64>]| {
            e.iter()
                .map(|&(k, p)| (k, splitmix64(p)))
                .collect::<Vec<_>>()
        };
        let x = entries((0..120).map(|i| 3 * i));
        let big = entries((0..6000).map(|i| 2 * i));
        type Entries = Vec<Entry<i64>>;
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
            (big.clone(), entries((0..6000).map(|i| 3 * i + 1))),
            (
                entries(0..20_000),
                reprio(&entries((0..1500).map(|i| 13 * i))),
            ),
        ];
        for (i, (a, b)) in cases.iter().enumerate() {
            let (pa, pb) = (
                || PlainTreap::from_entries(a),
                || PlainTreap::from_entries(b),
            );
            let want = [
                PlainTreap::union(pa(), pb()),
                PlainTreap::diff(pa(), pb()),
                PlainTreap::diff(pa(), PlainTreap::diff(pa(), pb())),
            ];
            for (sa, sb) in [
                (SIZED, SIZED),
                (ALL, ALL),
                (ALL, SIZED),
                (Some(3), SIZED),
                (SIZED, Some(4)),
                (Some(2), ALL),
            ] {
                let got = Seq::run(|bk| {
                    let fa = bk.input(build(bk, a, sa));
                    let fb = bk.input(build(bk, b, sb));
                    let outs = [bk.cell(), bk.cell(), bk.cell()];
                    let [(u, uf), (d, df), (n, nf)] = outs;
                    union(bk, fa.clone(), fb.clone(), u, Mode::Pipelined);
                    diff(bk, fa.clone(), fb.clone(), d, Mode::Pipelined);
                    intersect(bk, fa, fb, n, Mode::Pipelined);
                    [uf, df, nf].map(|f| Treap::<Seq, i64>::expect(&f))
                });
                for (op, (got, want)) in got.iter().zip(&want).enumerate() {
                    let (mut g, mut w) = (vec![], vec![]);
                    preorder(got, &mut g);
                    plain_preorder(want, &mut w);
                    let what = format!("case {i} op {op} crust=({sa:?},{sb:?})");
                    assert_eq!(g, w, "{what}");
                    assert!(got.check_invariants(), "{what}");
                    if (sa, sb) == (SIZED, SIZED) && work_estimate(a.len(), b.len()) <= Seq::GRAIN {
                        assert_eq!(got.sized(), Some(w.len()), "{what}");
                    }
                    let sealed = got.sealed();
                    g.clear();
                    preorder(&sealed, &mut g);
                    assert_eq!(g, w, "sealed, {what}");
                    assert_eq!(sealed.sized(), Some(w.len()), "sealed, {what}");
                    assert!(sealed.check_invariants(), "sealed, {what}");
                }
            }
        }
    }

    /// With no engine in hand, `from_plain_complete` builds what
    /// `from_plain` builds on an engine that cuts: the plain treap's keys
    /// and shape, every node sized exactly, and no cell (a sized root
    /// passes `check_invariants` only over sized, directly held nodes).
    #[test]
    fn from_plain_complete_builds_from_plains_tree_without_an_engine() {
        let plain = PlainTreap::from_entries(&entries((0..700).map(|i| 3 * i)));
        let free = Treap::<Seq, i64>::from_plain_complete(&plain);
        let on_seq = Seq::run(|bk| Treap::from_plain(bk, &plain));
        let (mut got, mut on_engine, mut want) = (Vec::new(), Vec::new(), Vec::new());
        preorder(&free, &mut got);
        preorder(&on_seq, &mut on_engine);
        plain_preorder(&plain, &mut want);
        assert_eq!(got, want);
        assert_eq!(got, on_engine);
        assert_eq!((free.sized(), on_seq.sized()), (Some(700), Some(700)));
        assert!(free.check_invariants());
        assert!(Treap::<Seq, i64>::from_plain_complete(&None).is_leaf());
    }

    /// The linear-time builder makes `from_plain_complete`'s tree of
    /// `PlainTreap::from_entries`, node for node, whatever the priorities
    /// do: random, a right spine, a left spine, and all equal (ties go to
    /// the larger key).
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
        for (i, e) in inputs.iter().enumerate() {
            let got = Treap::<Seq, i64>::from_sorted_complete(e);
            let plain = PlainTreap::from_entries(e);
            let (mut g, mut w, mut p) = (vec![], vec![], vec![]);
            preorder(&got, &mut g);
            preorder(&Treap::<Seq, i64>::from_plain_complete(&plain), &mut w);
            plain_preorder(&plain, &mut p);
            assert_eq!(g, w, "input {i}");
            assert_eq!(g, p, "input {i}");
            assert_eq!(got.sized(), Some(e.len()), "input {i}");
            assert!(got.check_invariants(), "input {i}");
        }
        assert!(Treap::<Seq, i64>::from_sorted_complete(&[]).is_leaf());
    }

    /// The engine-free entry points answer exactly when the pipelined
    /// functions would run plain code — both operands sized, the estimate
    /// within the grain, to the key — and then with the oracle's tree.
    fn within_grain_is_the_plain_rule<B: PipeBackend>()
    where
        Treap<B, i64>: Val,
        TreapFut<B, i64>: Val,
    {
        let t = |e: &[Entry<i64>]| Treap::<B, i64>::from_sorted_complete(e);
        let same_tree = |got: Option<Treap<B, i64>>, want, what: &str| {
            let got = got.unwrap_or_else(|| panic!("{what}: within the grain"));
            let (mut g, mut w) = (vec![], vec![]);
            preorder(&got, &mut g);
            plain_preorder(&want, &mut w);
            assert_eq!(g, w, "{what}");
            assert_eq!(got.sized(), Some(w.len()), "{what}");
        };
        // Equal sizes make the estimate the size itself.
        let grain = B::GRAIN as i64;
        for (n, fits) in [(120, true), (grain, true), (grain + 1, false)] {
            let (a, b) = (entries(0..n), entries((0..n).map(|i| 3 * i)));
            let (pa, pb) = (
                || PlainTreap::from_entries(&a),
                || PlainTreap::from_entries(&b),
            );
            let (u, d) = (
                union_within_grain(&t(&a), &t(&b)),
                diff_within_grain(&t(&a), &t(&b)),
            );
            if fits {
                same_tree(u, PlainTreap::union(pa(), pb()), "union");
                same_tree(d, PlainTreap::diff(pa(), pb()), "diff");
            } else {
                assert!(u.is_none() && d.is_none(), "{n} keys a side");
            }
        }
        // A big operand against a small one still fits; an unsized one
        // never does, on either side.
        let (big, one) = (entries(0..50 * grain), entries([7]));
        same_tree(
            union_within_grain(&t(&one), &t(&big)),
            PlainTreap::from_entries(&big),
            "one key into many",
        );
        let leaf = || Child::Done(Treap::<B, i64>::Leaf);
        let pending = Treap::<B, i64>::node_over(7, 9, 0, leaf(), leaf());
        for (a, b) in [(&pending, &t(&one)), (&t(&one), &pending)] {
            assert!(union_within_grain(a, b).is_none());
            assert!(diff_within_grain(a, b).is_none());
        }
    }

    #[test]
    fn within_grain_entry_points_on_seq_and_on_the_runtimes_engine() {
        within_grain_is_the_plain_rule::<Seq>();
        within_grain_is_the_plain_rule::<pf_rt::Worker>();
    }

    #[test]
    fn check_invariants_rejects_a_false_size() {
        type T = Treap<Seq, i64>;
        Seq::run(|bk| {
            let leaf = || Child::Done(T::Leaf);
            let written = |t| Child::Cell(bk.input(t));
            let one = |size| T::node_over(1, 9, size, leaf(), leaf());
            assert!(one(0).check_invariants() && one(1).check_invariants());
            assert!(!one(2).check_invariants(), "inexact count");
            // A sized node above a cell: one nobody has written, and a
            // written one.
            let (_pending, f) = bk.cell::<T>();
            assert!(!T::node_over(1, 9, 1, leaf(), Child::Cell(f)).check_invariants());
            assert!(!T::node_over(1, 9, 1, leaf(), written(T::Leaf)).check_invariants());
            // A sized node above an unsized one, and above a sized one.
            assert!(!T::node_over(2, 9, 2, Child::Done(one(0)), leaf()).check_invariants());
            assert!(T::node_over(2, 9, 2, Child::Done(one(1)), leaf()).check_invariants());
            // An unsized node may hold anything finished, either way.
            assert!(T::node_over(2, 9, 0, Child::Done(one(1)), written(T::Leaf)).check_invariants());
            assert!(T::node_over(2, 9, 0, written(one(0)), leaf()).check_invariants());
        });
    }

    #[test]
    fn union_on_the_oracle_matches_plain() {
        let a = entries(0..80);
        let b = entries(40..120);
        let got = Seq::run(|bk| union_on(bk, &a, &b, Mode::Pipelined).expect());
        assert!(got.check_invariants());
        let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
        assert_eq!(got.to_sorted_vec(), PlainTreap::to_sorted_vec(&pu));
        assert_eq!(got.height(), PlainTreap::height(&pu));
    }

    #[test]
    fn diff_and_intersect_on_the_oracle() {
        let a = entries(0..100);
        let b = entries((0..100).filter(|k| k % 3 == 0));
        let d = Seq::run(|bk| diff_on(bk, &a, &b, Mode::Pipelined).expect());
        let i = Seq::run(|bk| intersect_on(bk, &a, &b, Mode::Pipelined).expect());
        assert!(d.check_invariants() && i.check_invariants());
        assert_eq!(
            d.to_sorted_vec(),
            (0..100).filter(|k| k % 3 != 0).collect::<Vec<_>>()
        );
        assert_eq!(
            i.to_sorted_vec(),
            (0..100).filter(|k| k % 3 == 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn union_many_matches_sequential_fold() {
        // Overlapping batches, duplicate keys across batches with
        // *different* priorities: the union tree must resolve every
        // duplicate to the max-priority entry, same as the left fold.
        let batches: Vec<Vec<Entry<i64>>> = (0..5)
            .map(|b| {
                (0..40)
                    .map(|i| {
                        let k = (7 * i + b) % 60;
                        (k, splitmix64((k as u64) << 8 | b as u64))
                    })
                    .collect()
            })
            .collect();
        for (take, sized) in [0usize, 1, 2, 3, 5]
            .into_iter()
            .zip([SIZED, ALL, Some(2)].into_iter().cycle())
        {
            let got = Seq::run(|bk| {
                let futs: Vec<_> = batches[..take]
                    .iter()
                    .map(|b| bk.input(build(bk, b, sized)))
                    .collect();
                let f = union_many(bk, futs, Mode::Pipelined);
                Treap::<Seq, i64>::expect(&f)
            });
            assert!(got.check_invariants(), "take={take}");
            let mut want: Option<Box<PlainTreap<i64>>> = None;
            for b in &batches[..take] {
                want = PlainTreap::union(want, PlainTreap::from_entries(b));
            }
            assert_eq!(
                got.to_sorted_vec(),
                PlainTreap::to_sorted_vec(&want),
                "take={take}"
            );
            assert_eq!(got.height(), PlainTreap::height(&want), "take={take}");
        }
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
        PipeBackend::fork(ctx, move |ctx| op(ctx, t, b, p, Mode::Pipelined));
        f
    }

    /// Largest write time of any cell of the treap behind `root`.
    fn completion_time(root: &Fut<Treap<Ctx, i64>>) -> u64 {
        let below = root.with(|t| match t {
            Treap::Leaf => 0,
            Treap::Node(n) => [&n.left, &n.right]
                .map(|c| match c {
                    Child::Cell(f) => completion_time(f),
                    Child::Done(_) => unreachable!("the simulator never cuts"),
                })
                .into_iter()
                .max()
                .unwrap_or(0),
        });
        root.time().max(below)
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
            let t = Treap::from_entries(ctx, &entries(0..50));
            let (lp, lf) = ctx.promise();
            let (rp, rf) = ctx.promise();
            let (fp, ff) = ctx.promise();
            splitm(ctx, 25, t, lp, rp, fp);
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
            let t = Treap::from_entries(ctx, &entries((0..50).map(|i| 2 * i)));
            let (lp, lf) = ctx.promise();
            let (rp, rf) = ctx.promise();
            let (fp, ff) = ctx.promise();
            splitm(ctx, 31, t, lp, rp, fp);
            (lf, rf, ff)
        });
        assert!(!out.2.get());
        assert_eq!(out.0.get().size() + out.1.get().size(), 50);
    }

    #[test]
    fn join_concatenates() {
        let (root, _) = Sim::new().run(|ctx| {
            let l = Treap::from_entries(ctx, &entries(0..40));
            let r = Treap::from_entries(ctx, &entries(100..140));
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
    fn bulk_insert_delete_pipeline() {
        // A chain of batched updates, all pipelined within ONE simulation:
        // each batch consumes the previous batch's root future.
        let (root, c) = Sim::new().run(|ctx| {
            let t = Treap::from_entries(ctx, &entries(0..100));
            let ft = ctx.preload(t);
            let t1 = apply(ctx, union, ft, &entries(100..180));
            let t2 = apply(ctx, diff, t1, &entries((0..180).filter(|k| k % 3 == 0)));
            apply(ctx, union, t2, &entries(200..240))
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
            let t = Treap::from_entries(ctx, &entries(0..2000));
            let ft = ctx.preload(t);
            let t1 = apply(ctx, union, ft, &entries(2000..3000));
            let t2 = apply(ctx, union, t1.clone(), &entries(3000..4000));
            (t1, t2)
        });
        let first_done = completion_time(&r1);
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
            let t = Treap::from_entries(ctx, &entries(0..10));
            let (p1, f1) = ctx.promise();
            join(ctx, Treap::Leaf, t.clone(), p1);
            let (p2, f2) = ctx.promise();
            join(ctx, t, Treap::Leaf, p2);
            let (p3, f3) = ctx.promise();
            join(ctx, Treap::<Ctx, i64>::Leaf, Treap::Leaf, p3);
            (f1, f2, f3)
        });
        assert_eq!(roots.0.get().size(), 10);
        assert_eq!(roots.1.get().size(), 10);
        assert!(roots.2.get().is_leaf());
    }
}
