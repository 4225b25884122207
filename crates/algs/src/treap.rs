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
//! ## Granularity
//!
//! A node carries a [`size`](TreapNode::size) that is non-zero only when
//! its whole subtree is finished, and then it holds its children directly
//! ([`Child::Done`]), complete in turn: no future cell anywhere below. A
//! node published ahead of its children keeps size 0 and reaches the
//! pending ones through cells ([`Child::Cell`]). On an engine with a
//! non-zero [`PipeBackend::GRAIN`] a complete subtreap of at most 32 keys
//! is not a tree of nodes at all but one [`Treap::Block`]: its entries,
//! sorted by key, in one allocation. The rule looks only at the key set,
//! so the representation is canonical — a block stands for exactly the
//! subtree [`PlainTreap`] would build from its entries, rooted at the one
//! that [`wins`] — and a sized node always holds more than 32 keys. Input
//! constructors and the plain code below build complete treaps by that
//! rule and nothing else.
//!
//! On such an engine `union`, `diff`, `splitm` and `join` choose from
//! what they can observe. Two complete operands whose work estimate
//! m·(⌊lg(n/m)⌋+1) is within the grain ([`within_grain`], a public
//! function of the two sizes) meet in one plain kernel, persistent and
//! direct-style: the smaller operand, flattened into a key-sorted run, is
//! applied to the other by [`apply_run`] (as inserts, or as deletes) —
//! cut by binary search at each node, merged into or filtered at each
//! block. A near-equal union merges the two runs whole instead, and a
//! difference against a much larger operand looks its keys up in it. A
//! complete operand of any size is split or joined plainly, so its pieces
//! stay complete; everything else — an unsized or still-pending operand,
//! or more work than one grain — takes the paper's pipelined step, which
//! copies a child into the node it publishes whichever kind it is, and
//! takes a block apart at its root entry when the block meets a pending
//! operand. An engine that never cuts never fuses either: with
//! `GRAIN == 0` the input constructors build unsized nodes on cells and
//! nothing builds a block, so every step and every data edge is the paper's.
//!
//! The run kernel is written once over what it does at a subtreap whose
//! answer it knows: build it now, sharing what did not change — the path
//! copy that the pipelined step and every shared operand need — or record
//! it in a [`Patch`] ([`plan_run`]) that [`Patch::commit`] later applies
//! in place to a treap nothing else holds, with no comparison, key clone or
//! allocation left to run. One walk applies deletes and inserts together,
//! so a caller with both (pf-service's inline pass, a window's net effect)
//! copies or records each changed path once.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::iter::once;
use std::ops::Range;
use std::sync::Arc;

use crate::plain::{wins, Entry, PlainTreap};
use crate::{fork_call, Key, Mode, PipeBackend, Val};

/// Shorthand for the future of a subtreap on engine `B`.
pub type TreapFut<B, K> = <B as PipeBackend>::Fut<Treap<B, K>>;
/// Shorthand for the write pointer of a subtreap cell on engine `B`.
pub type TreapWr<B, K> = <B as PipeBackend>::Wr<Treap<B, K>>;

/// The most keys a block holds. Not a knob: DESIGN.md "Granularity" has
/// the 16 / 32 / 64 sweep that fixed it.
const LEAF_KEYS: usize = 32;
// `keep` marks a block's survivors in one `u64`.
const _: () = assert!(LEAF_KEYS <= 64);

/// A treap on engine `B`.
pub enum Treap<B: PipeBackend, K: Val> {
    /// The empty treap.
    Leaf,
    /// An interior node (shared, immutable).
    Node(Arc<TreapNode<B, K>>),
    /// A complete subtreap of 1 to 32 keys (on an engine that cuts only),
    /// stored as its entries sorted by key. It stands for the treap of
    /// those entries: rooted at the one that [`wins`] over the others, with
    /// the entries either side of it as its two subtrees, and so on down.
    Block(Arc<[Entry<K>]>),
}

/// A child of a [`TreapNode`]: a future cell where the subtreap may still
/// be pending, the subtreap itself where it is known to be finished.
pub enum Child<B: PipeBackend, K: Val> {
    /// A finished subtreap, held directly.
    Done(Treap<B, K>),
    /// The future of a subtreap.
    Cell(TreapFut<B, K>),
}

/// An interior node of a [`Treap`].
pub struct TreapNode<B: PipeBackend, K: Val> {
    /// Key (symmetric order).
    pub key: K,
    /// Priority (max-heap order, ties broken by key).
    pub prio: u64,
    /// Keys in this subtree **if it is complete**, else 0 (a node
    /// published ahead of its children). Exact whenever non-zero, and then
    /// both children are [`Child::Done`] and complete in turn — no cell
    /// anywhere below — and, on an engine that cuts, more than 32: a
    /// complete subtree of fewer keys is a [`Treap::Block`].
    /// [`Treap::check_invariants`] verifies all of it.
    pub size: usize,
    /// The left subtreap.
    pub left: Child<B, K>,
    /// The right subtreap.
    pub right: Child<B, K>,
}

impl<B: PipeBackend, K: Val> Clone for Treap<B, K> {
    fn clone(&self) -> Self {
        match self {
            Treap::Leaf => Treap::Leaf,
            Treap::Node(n) => Treap::Node(Arc::clone(n)),
            Treap::Block(b) => Treap::Block(Arc::clone(b)),
        }
    }
}

impl<B: PipeBackend, K: Val> Clone for Child<B, K> {
    fn clone(&self) -> Self {
        match self {
            Child::Done(t) => Child::Done(t.clone()),
            Child::Cell(f) => Child::Cell(f.clone()),
        }
    }
}

impl<B: PipeBackend, K: Val> TreapNode<B, K> {
    /// [`size`](TreapNode::size), if the node makes the claim.
    pub fn sized(&self) -> Option<usize> {
        (self.size != 0).then_some(self.size)
    }
}

impl<B: PipeBackend, K: Key> Child<B, K> {
    /// The subtreap, if it is held directly — as every child below a sized
    /// node is.
    pub fn done(&self) -> Option<&Treap<B, K>> {
        match self {
            Child::Done(t) => Some(t),
            Child::Cell(_) => None,
        }
    }

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
    fn into_fut(self, bk: &B) -> TreapFut<B, K> {
        match self {
            Child::Done(t) => bk.input(t),
            Child::Cell(f) => f,
        }
    }
}

impl<B: PipeBackend, K: Key> Treap<B, K> {
    /// Construct an interior node over cells that may still be pending:
    /// the node is unsized.
    pub fn node(key: K, prio: u64, left: TreapFut<B, K>, right: TreapFut<B, K>) -> Self {
        Self::node_over(key, prio, 0, Child::Cell(left), Child::Cell(right))
    }

    /// The one constructor of a complete subtreap with a root entry over
    /// two complete sides: on an engine that cuts, a [`Treap::Block`] of
    /// their entries if there are at most 32 of them, else a sized node.
    ///
    /// # Panics
    /// If `left` or `right` is unsized, or if together they fit a block
    /// but one of them is a node (which the rule never builds).
    pub fn node_sized(key: K, prio: u64, left: Treap<B, K>, right: Treap<B, K>) -> Self {
        let size = 1 + len(&left) + len(&right);
        if fits::<B>(size) {
            let (Some(l), Some(r)) = (fringe(&left), fringe(&right)) else {
                panic!("a complete subtreap of at most 32 keys is a block");
            };
            // A chain of slices has an exact length: one allocation.
            let run = l.iter().cloned().chain(once((key, prio)));
            return Treap::Block(run.chain(r.iter().cloned()).collect());
        }
        Self::node_over(key, prio, size, Child::Done(left), Child::Done(right))
    }

    /// Convert a sequential treap into a complete one — sized nodes and
    /// blocks, no cell — with no engine in hand: what
    /// [`from_plain`](Self::from_plain) builds on an engine that cuts, for
    /// a caller that is not on a worker. The plain treap is the Cartesian
    /// tree of its entries, so this is
    /// [`from_sorted_complete`](Self::from_sorted_complete) of them.
    pub fn from_plain_complete(t: &Option<Box<PlainTreap<K>>>) -> Self {
        fn inorder<K: Clone>(t: &Option<Box<PlainTreap<K>>>, out: &mut Vec<Entry<K>>) {
            if let Some(n) = t {
                inorder(&n.left, out);
                out.push((n.key.clone(), n.prio));
                inorder(&n.right, out);
            }
        }
        let mut entries = Vec::with_capacity(PlainTreap::size(t));
        inorder(t, &mut entries);
        Self::from_sorted_complete(&entries)
    }

    /// The complete treap of `entries`, which are sorted by key and hold no
    /// key twice, in linear time and with no engine in hand: the tree of
    /// [`PlainTreap::from_entries`], without the intermediate `Box` treap or
    /// its O(n lg n) repeated insertion. One scan builds the Cartesian tree
    /// of the priorities as indices — the stack is the right spine so far;
    /// an entry pops every spine node it [`wins`] over and adopts the last
    /// one popped as its left child — then the treap is made bottom-up.
    /// Every subtree covers a contiguous run of `entries`, so one that fits
    /// a block is that run, copied once; the rest are sized nodes.
    pub fn from_sorted_complete(entries: &[Entry<K>]) -> Self {
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
        // The subtree rooted at entry `i`, which covers `entries[span]`.
        fn build<B: PipeBackend, K: Key>(
            entries: &[Entry<K>],
            links: &[[usize; 3]],
            i: usize,
            span: Range<usize>,
        ) -> Treap<B, K> {
            if i == NONE {
                return Treap::Leaf;
            }
            if fits::<B>(span.len()) {
                return Treap::Block(entries[span].into());
            }
            let (l, r) = (
                build(entries, links, links[i][0], span.start..i),
                build(entries, links, links[i][1], i + 1..span.end),
            );
            Treap::node_sized(entries[i].0.clone(), entries[i].1, l, r)
        }
        build(entries, &links, root, 0..entries.len())
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

    /// Are `self` and `other` the same subtreap in memory, not merely
    /// equal?
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Treap::Leaf, Treap::Leaf) => true,
            (Treap::Node(x), Treap::Node(y)) => Arc::ptr_eq(x, y),
            (Treap::Block(x), Treap::Block(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// The number of keys, if the treap is known to be complete (the empty
    /// treap is).
    pub fn sized(&self) -> Option<usize> {
        match self {
            Treap::Leaf => Some(0),
            Treap::Node(n) => n.sized(),
            Treap::Block(b) => Some(b.len()),
        }
    }

    /// Is `key` in this complete treap? A walk by reference down the nodes
    /// and a binary search of the block at the bottom.
    ///
    /// # Panics
    /// If the walk meets a future cell.
    pub fn contains(&self, key: &K) -> bool {
        let mut cur = self;
        loop {
            match cur {
                Treap::Leaf => return false,
                Treap::Block(b) => return b.binary_search_by(|e| e.0.cmp(key)).is_ok(),
                Treap::Node(n) => match key.cmp(&n.key) {
                    Ordering::Equal => return true,
                    Ordering::Less => cur = kid(&n.left),
                    Ordering::Greater => cur = kid(&n.right),
                },
            }
        }
    }

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
    pub fn from_plain(bk: &B, t: &Option<Box<PlainTreap<K>>>) -> Treap<B, K> {
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
    pub fn from_entries(bk: &B, entries: &[Entry<K>]) -> Treap<B, K> {
        let plain = PlainTreap::from_entries(entries);
        Self::from_plain(bk, &plain)
    }

    /// This finished treap with every unsized node rebuilt, bottom-up, by
    /// [`node_sized`](Self::node_sized): the result holds no cell and is
    /// the complete treap of its entries. O(unsized nodes) — complete
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
        self.inorder(&mut |k, _| v.push(k.clone()));
        v
    }

    /// Call `f` on every entry, in key order.
    fn inorder(&self, f: &mut impl FnMut(&K, u64)) {
        match self {
            Treap::Leaf => {}
            Treap::Node(n) => {
                n.left.get().inorder(f);
                f(&n.key, n.prio);
                n.right.get().inorder(f);
            }
            Treap::Block(b) => b.iter().for_each(|e| f(&e.0, e.1)),
        }
    }

    /// Post-run inspection: the entries in preorder of the tree this treap
    /// stands for, a block expanded into its subtree. With the search
    /// order, that fixes the shape.
    pub fn preorder(&self) -> Vec<Entry<K>> {
        fn run<K: Clone + Ord>(b: &[Entry<K>], out: &mut Vec<Entry<K>>) {
            if !b.is_empty() {
                let i = top(b);
                out.push(b[i].clone());
                run(&b[..i], out);
                run(&b[i + 1..], out);
            }
        }
        fn rec<B: PipeBackend, K: Key>(t: &Treap<B, K>, out: &mut Vec<Entry<K>>) {
            match t {
                Treap::Leaf => {}
                Treap::Node(n) => {
                    out.push((n.key.clone(), n.prio));
                    rec(&n.left.get(), out);
                    rec(&n.right.get(), out);
                }
                Treap::Block(b) => run(b, out),
            }
        }
        let mut out = Vec::new();
        rec(self, &mut out);
        out
    }

    /// Post-run inspection: number of keys (counted, where no node says).
    pub fn size(&self) -> usize {
        match self {
            Treap::Leaf => 0,
            Treap::Node(n) => n
                .sized()
                .unwrap_or_else(|| 1 + n.left.get().size() + n.right.get().size()),
            Treap::Block(b) => b.len(),
        }
    }

    /// Post-run inspection: height (empty = 0), a block counting as the
    /// subtree it stands for.
    pub fn height(&self) -> usize {
        fn run<K: Ord>(b: &[Entry<K>]) -> usize {
            if b.is_empty() {
                return 0;
            }
            let i = top(b);
            1 + run(&b[..i]).max(run(&b[i + 1..]))
        }
        match self {
            Treap::Leaf => 0,
            Treap::Node(n) => 1 + n.left.get().height().max(n.right.get().height()),
            Treap::Block(b) => run(b),
        }
    }

    /// Post-run inspection: BST order and heap order both hold — no block
    /// entry beating the node above it either — every non-zero
    /// [`size`](TreapNode::size) is exact with only complete subtreaps,
    /// held directly, below it, and the representation is canonical: on an
    /// engine that cuts, no sized node of at most 32 keys and no block that
    /// is empty, oversize or out of key order; on one that does not, no
    /// block at all.
    pub fn check_invariants(&self) -> bool {
        fn rec<B: PipeBackend, K: Key>(t: &Treap<B, K>, max_prio: Option<(u64, K)>) -> bool {
            let beats_above = |k: &K, p: u64| {
                max_prio
                    .as_ref()
                    .is_some_and(|(mp, mk)| wins(k, p, mk, *mp))
            };
            match t {
                Treap::Leaf => true,
                Treap::Block(b) => !b.iter().any(|(k, p)| beats_above(k, *p)),
                Treap::Node(n) => {
                    if beats_above(&n.key, n.prio) {
                        return false;
                    }
                    let here = Some((n.prio, n.key.clone()));
                    rec(&n.left.get(), here.clone()) && rec(&n.right.get(), here)
                }
            }
        }
        // The subtree's key count; `None` for a size violation: a wrong
        // count, an unsized node or a cell (written or not) below a sized
        // node, or a subtree the rule would have stored the other way.
        fn count<B: PipeBackend, K: Key>(t: &Treap<B, K>, sized_above: bool) -> Option<usize> {
            let n = match t {
                Treap::Leaf => return Some(0),
                Treap::Block(b) => {
                    let sorted = b.windows(2).all(|w| w[0].0 < w[1].0);
                    let fits = !b.is_empty() && fits::<B>(b.len());
                    return (sorted && fits).then_some(b.len());
                }
                Treap::Node(n) => n,
            };
            let sized = n.size != 0;
            if sized_above && !sized {
                return None;
            }
            let below = |c: &Child<B, K>| match c.done() {
                None if sized => None,
                _ => count(&c.get(), sized),
            };
            let keys = 1 + below(&n.left)? + below(&n.right)?;
            (!sized || (n.size == keys && !fits::<B>(keys))).then_some(keys)
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
// changes and shares the rest — down to the node or block itself when
// nothing below it changed; results are complete. A walk by reference down
// to the blocks, one allocation per node or block built, and no engine.
// The run kernel's `Record` emitter is the one exception: it writes
// nothing either, but leaves a patch for `Patch::commit` to apply in place.

/// The subtreap below a node of a complete treap.
fn kid<B: PipeBackend, K: Key>(c: &Child<B, K>) -> &Treap<B, K> {
    c.done().expect("a complete treap holds no future cell")
}

/// The key count of a subtreap reached through a sized node.
fn len<B: PipeBackend, K: Key>(t: &Treap<B, K>) -> usize {
    t.sized().expect("unsized treap node below a sized one")
}

/// Does a complete subtreap of `n` keys fit a block on engine `B`?
fn fits<B: PipeBackend>(n: usize) -> bool {
    B::GRAIN > 0 && n <= LEAF_KEYS
}

/// The entries of a complete subtreap that fits a block — a block's own,
/// none for the empty treap — or `None` for a node.
fn fringe<B: PipeBackend, K: Val>(t: &Treap<B, K>) -> Option<&[Entry<K>]> {
    match t {
        Treap::Leaf => Some(&[]),
        Treap::Block(b) => Some(b),
        Treap::Node(_) => None,
    }
}

/// The entries of a complete treap in key order: [`fringe`]'s, borrowed,
/// or gathered by one in-order walk of a node.
fn entries<B: PipeBackend, K: Key>(t: &Treap<B, K>) -> Cow<'_, [Entry<K>]> {
    if let Some(x) = fringe(t) {
        return Cow::Borrowed(x);
    }
    let mut out = Vec::with_capacity(len(t));
    t.inorder(&mut |k, p| out.push((k.clone(), p)));
    Cow::Owned(out)
}

/// The index of a block's root: the entry that [`wins`] over the others.
fn top<K: Ord>(b: &[Entry<K>]) -> usize {
    (1..b.len()).fold(0, |t, i| {
        if wins(&b[i].0, b[i].1, &b[t].0, b[t].1) {
            i
        } else {
            t
        }
    })
}

/// The root entry of a nonempty treap.
fn root<B: PipeBackend, K: Key>(t: &Treap<B, K>) -> (&K, u64) {
    match t {
        Treap::Node(n) => (&n.key, n.prio),
        Treap::Block(b) => {
            let e = &b[top(b)];
            (&e.0, e.1)
        }
        Treap::Leaf => unreachable!("the empty treap has no root"),
    }
}

/// Does the root of `a` win over the root of `b` (both nonempty)?
fn wins_over<B: PipeBackend, K: Key>(a: &Treap<B, K>, b: &Treap<B, K>) -> bool {
    let ((ka, pa), (kb, pb)) = (root(a), root(b));
    wins(ka, pa, kb, pb)
}

/// A complete nonempty treap's root entry and its two complete sides: a
/// node's own, borrowed, or a block's root and the sub-blocks either side
/// of it, built.
#[allow(clippy::type_complexity)]
fn expose<B: PipeBackend, K: Key>(
    t: &Treap<B, K>,
) -> (&K, u64, Cow<'_, Treap<B, K>>, Cow<'_, Treap<B, K>>) {
    match t {
        Treap::Node(n) => (
            &n.key,
            n.prio,
            Cow::Borrowed(kid(&n.left)),
            Cow::Borrowed(kid(&n.right)),
        ),
        Treap::Block(b) => {
            let i = top(b);
            let (left, right) = (sub(b, 0..i), sub(b, i + 1..b.len()));
            (&b[i].0, b[i].1, Cow::Owned(left), Cow::Owned(right))
        }
        Treap::Leaf => unreachable!("the empty treap has no root"),
    }
}

/// [`expose`] for a pipelined step, owned: a node — which may be unsized —
/// gives its children as they are, cells or not.
fn parts<B: PipeBackend, K: Key>(t: &Treap<B, K>) -> (K, u64, Child<B, K>, Child<B, K>) {
    if let Treap::Node(n) = t {
        return (n.key.clone(), n.prio, n.left.clone(), n.right.clone());
    }
    let (key, prio, l, r) = expose(t);
    let (l, r) = (Child::Done(l.into_owned()), Child::Done(r.into_owned()));
    (key.clone(), prio, l, r)
}

/// `b[span]` as a complete treap: `b` itself if that is all of it.
fn sub<B: PipeBackend, K: Key>(b: &Arc<[Entry<K>]>, span: Range<usize>) -> Treap<B, K> {
    match span.len() {
        0 => Treap::Leaf,
        n if n == b.len() => Treap::Block(Arc::clone(b)),
        _ => Treap::Block(b[span].into()),
    }
}

/// The complete treap of `n` distinct entries drawn in key order from
/// `next`: a block in one allocation when they fit one.
fn from_run<B: PipeBackend, K: Key>(n: usize, mut next: impl FnMut() -> Entry<K>) -> Treap<B, K> {
    match n {
        0 => Treap::Leaf,
        // A mapped range has an exact length: one allocation.
        n if fits::<B>(n) => Treap::Block((0..n).map(|_| next()).collect()),
        n => Treap::from_sorted_complete(&(0..n).map(|_| next()).collect::<Vec<_>>()),
    }
}

/// The complete treap `t`'s root entry over the complete subtreaps `l` and
/// `r`: `t` itself if it is a node and those are the children it has.
fn with_kids<B: PipeBackend, K: Key>(
    t: &Treap<B, K>,
    l: Treap<B, K>,
    r: Treap<B, K>,
) -> Treap<B, K> {
    if let Treap::Node(n) = t {
        if kid(&n.left).ptr_eq(&l) && kid(&n.right).ptr_eq(&r) {
            return t.clone();
        }
    }
    let (key, prio) = root(t);
    Treap::node_sized(key.clone(), prio, l, r)
}

/// Can engine `B` run a set operation on complete operands of `n` and `m`
/// keys as plain code: is its work estimate m·(⌊lg(n/m)⌋+1), m the
/// smaller — the paper's bound (Theorems 3.5 and 3.7) with its constant
/// dropped — within [`PipeBackend::GRAIN`]? The rule of the module docs
/// ("Granularity"), which the pipelined [`union`] and [`diff`] apply at
/// every step to two sized operands; a caller with no engine in hand
/// (pf-service's inline pass) asks it of sizes it knows or bounds, then
/// runs [`apply_run`] or [`plan_run`].
pub fn within_grain<B: PipeBackend>(n: usize, m: usize) -> bool {
    let (m, n) = (m.min(n) as u64, m.max(n) as u64);
    let work = m * u64::from(n.checked_div(m).map_or(0, |q| q.ilog2() + 1));
    B::GRAIN > 0 && work <= B::GRAIN
}

/// Are `a` and `b` both [`sized`](Treap::sized), and their set operation
/// [`within_grain`]? Then a pipelined step runs it as plain code.
fn fuses<B: PipeBackend, K: Key>(a: &Treap<B, K>, b: &Treap<B, K>) -> bool {
    matches!((a.sized(), b.sized()), (Some(n), Some(m)) if within_grain::<B>(n, m))
}

/// Is `t` complete on an engine that cuts at all? Then it is split or
/// joined plainly whatever its size: that is O(height), and its pieces
/// stay complete.
fn plainly<B: PipeBackend, K: Key>(t: &Treap<B, K>) -> bool {
    B::GRAIN > 0 && t.sized().is_some()
}

fn split_plain<B: PipeBackend, K: Key>(t: &Treap<B, K>, s: &K) -> (Treap<B, K>, Treap<B, K>, bool) {
    let n = match t {
        Treap::Leaf => return (Treap::Leaf, Treap::Leaf, false),
        Treap::Block(b) => {
            return match b.binary_search_by(|e| e.0.cmp(s)) {
                Ok(i) => (sub(b, 0..i), sub(b, i + 1..b.len()), true),
                Err(i) => (sub(b, 0..i), sub(b, i..b.len()), false),
            }
        }
        Treap::Node(n) => n,
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
    if let (Treap::Leaf, t) | (t, Treap::Leaf) = (l, r) {
        return t.clone();
    }
    if let (Some(x), Some(y)) = (fringe(l), fringe(r)) {
        let mut both = x.iter().chain(y).cloned();
        return from_run(x.len() + y.len(), || both.next().expect("counted"));
    }
    if wins_over(l, r) {
        let (key, prio, ll, lr) = expose(l);
        let j = join_plain(&lr, r);
        Treap::node_sized(key.clone(), prio, ll.into_owned(), j)
    } else {
        let (key, prio, rl, rr) = expose(r);
        let j = join_plain(l, &rl);
        Treap::node_sized(key.clone(), prio, j, rr.into_owned())
    }
}

/// The next entry of the union of the key-sorted runs `x[i..]` and
/// `y[j..]`, advancing past it — a key in both yields its [`wins`] winner,
/// `x`'s if they are the same entry, and advances both — and whether it
/// came from `x`.
fn merge_next<'a, K: Ord>(
    x: &'a [Entry<K>],
    y: &'a [Entry<K>],
    (i, j): &mut (usize, usize),
) -> (&'a Entry<K>, bool) {
    let order = match (x.get(*i), y.get(*j)) {
        (Some(e), Some(f)) => e.0.cmp(&f.0),
        (Some(_), None) => Ordering::Less,
        _ => Ordering::Greater,
    };
    match order {
        Ordering::Less => {
            *i += 1;
            (&x[*i - 1], true)
        }
        Ordering::Greater => {
            *j += 1;
            (&y[*j - 1], false)
        }
        Ordering::Equal => {
            let (e, f) = (&x[*i], &y[*j]);
            (*i, *j) = (*i + 1, *j + 1);
            let x_wins = !wins(&f.0, f.1, &e.0, e.1);
            (if x_wins { e } else { f }, x_wins)
        }
    }
}

/// The union of the entries `x` of the complete treap `a` and the
/// key-sorted run `y`: a two-finger merge keeping the [`wins`] winner of a
/// key in both, and `a` itself when `y` adds nothing to it.
fn merge<B: PipeBackend, K: Key>(a: &Treap<B, K>, x: &[Entry<K>], y: &[Entry<K>]) -> Treap<B, K> {
    let (mut n, mut from_x, mut at) = (0, 0, (0, 0));
    while at.0 < x.len() || at.1 < y.len() {
        n += 1;
        from_x += usize::from(merge_next(x, y, &mut at).1);
    }
    if n == x.len() && from_x == n {
        return a.clone();
    }
    let mut at = (0, 0);
    from_run(n, || merge_next(x, y, &mut at).0.clone())
}

/// Does [`apply_run`] merge a run of `m` inserts into a treap of `n` keys
/// whole, not cut it in: is it more than half the treap? Cuts would copy
/// all of the treap anyway.
fn merges(n: usize, m: usize) -> bool {
    n < 2 * m
}

/// The complete treap `t` without the keys `deletes`, united with the run
/// `inserts` — each sorted by key, no key twice — as plain code with no
/// engine: a key in both is deleted and then inserted, a key in `t` and
/// `inserts` alone keeps its [`wins`] winner, and `t` itself comes back if
/// neither side changes it. One walk: at a node the inserts' winner either
/// beats the node's entry and becomes the root over `t` split plainly by
/// its key, or both sides are cut at the node's key by binary search (an
/// insert with that key loses to a node that stays) and a deleted node's
/// two sides are joined; each leaf or block the cuts reach keeps the
/// entries `deletes` lacks and meets its piece of `inserts` in one
/// two-finger merge, and so does a `t` at most twice the inserts' size.
/// [`plan_run`] is the same kernel, recorded for an edit in place.
///
/// # Panics
/// If `t` holds a future cell.
pub fn apply_run<B: PipeBackend, K: Key>(
    t: &Treap<B, K>,
    deletes: &[K],
    inserts: &[Entry<K>],
) -> Treap<B, K> {
    edit_run(&mut Build, t, deletes, inserts)
}

/// [`apply_run`] of `t`, `deletes` and `inserts`, recorded as a [`Patch`]
/// of `t` instead of built: every comparison, key clone and block build
/// happens here, and [`Patch::commit`] then only stores sizes and moves
/// subtreaps. A node the edit keeps over changed children is edited in
/// place only if nothing else can reach it: `t`'s root if at most `owners`
/// handles hold it (the caller's own among them), a node below if only its
/// parent does. At a node anyone else holds — a reader's snapshot, say —
/// and at a node the edit deletes or puts a new root above, the answer for
/// its subtreap is built as [`apply_run`] builds it and put in whole, so
/// the patch copies only what others hold or what changes shape.
///
/// # Panics
/// If `t` holds a future cell.
pub fn plan_run<B: PipeBackend, K: Key>(
    t: &Treap<B, K>,
    deletes: &[K],
    inserts: &[Entry<K>],
    owners: usize,
) -> Patch<B, K> {
    let mut rec = Record::new(owners);
    edit_run(&mut rec, t, deletes, inserts);
    Patch { edits: rec.edits }
}

/// What the run kernel does with a subtreap once it knows its answer:
/// [`Build`] makes the answer now, a complete treap that shares whatever
/// did not change (the path copy every shared operand needs); [`Record`]
/// notes it in a [`Patch`]. The kernel is written once over this trait.
trait Emit<B: PipeBackend, K: Key> {
    /// The answer for one subtreap.
    type Out;
    /// What [`open`](Emit::open) hands to [`leave`](Emit::leave).
    type Mark;
    /// `t` unchanged.
    fn same(&mut self, t: &Treap<B, K>) -> Self::Out;
    /// `t` replaced by the complete treap `new`, built now — perhaps `t`
    /// itself.
    fn put(&mut self, t: &Treap<B, K>, new: Treap<B, K>) -> Self::Out;
    /// May the kernel answer for node `n` through [`open`](Emit::open) and
    /// [`leave`](Emit::leave)? If not, it builds the answer and
    /// [`put`](Emit::put)s it.
    fn owns(&self, n: &Arc<TreapNode<B, K>>) -> bool;
    /// The kernel keeps the entry of the node it [`owns`](Emit::owns) and
    /// answers for its two children next, left first.
    fn open(&mut self) -> Self::Mark;
    /// The node `t`, opened, over its children's answers `l` and `r`.
    fn leave(&mut self, at: Self::Mark, t: &Treap<B, K>, l: Self::Out, r: Self::Out) -> Self::Out;
}

/// The emitter that builds: a path copy.
struct Build;

impl<B: PipeBackend, K: Key> Emit<B, K> for Build {
    type Out = Treap<B, K>;
    type Mark = ();
    fn same(&mut self, t: &Treap<B, K>) -> Treap<B, K> {
        t.clone()
    }
    fn put(&mut self, _: &Treap<B, K>, new: Treap<B, K>) -> Treap<B, K> {
        new
    }
    fn owns(&self, _: &Arc<TreapNode<B, K>>) -> bool {
        true
    }
    fn open(&mut self) {}
    fn leave(&mut self, _: (), t: &Treap<B, K>, l: Treap<B, K>, r: Treap<B, K>) -> Treap<B, K> {
        with_kids(t, l, r)
    }
}

/// A recorded edit of a complete treap ([`plan_run`]):
/// one edit per subtreap it changes, in preorder; none if it changes
/// nothing.
pub struct Patch<B: PipeBackend, K: Val> {
    edits: Vec<Edit<B, K>>,
}

/// What a [`Patch`] does to one subtreap it changes.
enum Edit<B: PipeBackend, K: Val> {
    /// Keep the node's entry over this many keys. The edits of the
    /// children that change follow: the left's if `left`, then the
    /// right's if `right`.
    Resize {
        keys: usize,
        left: bool,
        right: bool,
    },
    /// Replace the subtreap by this complete treap, built while planning.
    Put(Treap<B, K>),
}

/// The emitter that records. An answer is where the subtreap's edit sits
/// in `edits` — `None` if it is unchanged — and its key count after it.
struct Record<B: PipeBackend, K: Val> {
    edits: Vec<Edit<B, K>>,
    /// The handles on the root that the planner accounts for.
    owners: usize,
}

impl<B: PipeBackend, K: Key> Record<B, K> {
    fn new(owners: usize) -> Self {
        Record {
            edits: Vec::with_capacity(32),
            owners,
        }
    }
}

impl<B: PipeBackend, K: Key> Emit<B, K> for Record<B, K> {
    type Out = (Option<usize>, usize);
    type Mark = usize;
    fn same(&mut self, t: &Treap<B, K>) -> (Option<usize>, usize) {
        (None, len(t))
    }
    fn put(&mut self, t: &Treap<B, K>, new: Treap<B, K>) -> (Option<usize>, usize) {
        if new.ptr_eq(t) {
            return self.same(t);
        }
        let keys = len(&new);
        self.edits.push(Edit::Put(new));
        (Some(self.edits.len() - 1), keys)
    }
    fn owns(&self, n: &Arc<TreapNode<B, K>>) -> bool {
        // Nothing is recorded before the root is opened.
        let owners = if self.edits.is_empty() {
            self.owners
        } else {
            1
        };
        Arc::strong_count(n) <= owners
    }
    fn open(&mut self) -> usize {
        // A placeholder, until `leave` knows the node's edit.
        let edit = Edit::Resize {
            keys: 0,
            left: false,
            right: false,
        };
        self.edits.push(edit);
        self.edits.len() - 1
    }
    fn leave(
        &mut self,
        at: usize,
        t: &Treap<B, K>,
        (l, lk): (Option<usize>, usize),
        (r, rk): (Option<usize>, usize),
    ) -> (Option<usize>, usize) {
        if l.is_none() && r.is_none() {
            self.edits.truncate(at);
            return (None, len(t));
        }
        let keys = 1 + lk + rk;
        if !fits::<B>(keys) {
            let (left, right) = (l.is_some(), r.is_some());
            self.edits[at] = Edit::Resize { keys, left, right };
            return (Some(at), keys);
        }
        // A subtreap this small is a block, so each side was a leaf or a
        // block, and its edit, if any, a put: build the block now.
        let Treap::Node(n) = t else {
            unreachable!("an opened subtreap is a node")
        };
        let mut side = |edit: Option<usize>, old: &Treap<B, K>| match edit {
            Some(_) => match self.edits.pop() {
                Some(Edit::Put(new)) => new,
                _ => unreachable!("a side of at most 31 keys is put whole"),
            },
            None => old.clone(),
        };
        let right = side(r, kid(&n.right));
        let left = side(l, kid(&n.left));
        self.edits[at] = Edit::Put(Treap::node_sized(n.key.clone(), n.prio, left, right));
        (Some(at), keys)
    }
}

impl<B: PipeBackend, K: Key> Patch<B, K> {
    /// Does committing the patch keep the root node of the treap it was
    /// planned against — edited in place or untouched — rather than put a
    /// new treap in its place?
    pub fn keeps_root(&self) -> bool {
        !matches!(self.edits.first(), Some(Edit::Put(_)))
    }

    /// Apply the patch in place to `t`, the treap it was planned against
    /// (the same root, not an equal one): each node it edits takes its new
    /// size, and each subtreap it replaces moves into the returned
    /// [`Graveyard`], for the caller to drop when it likes. Runs no `Ord`,
    /// no `Clone` and allocates nothing. A node it edits must be held by
    /// nothing but its parent — `t` alone, for the root; at one that is
    /// not, it puts back what it had changed and gives the patch back.
    ///
    /// # Errors
    /// The patch itself, with `t` as it was, if a node it edits is shared.
    pub fn commit(mut self, t: &mut Treap<B, K>) -> Result<Graveyard<B, K>, Self> {
        let all = self.edits.len();
        let mut at = 0;
        if all == 0 || swap_in(t, &mut self.edits, &mut at, all) {
            return Ok(Graveyard {
                _replaced: self.edits,
            });
        }
        // The same walk again, up to the shared node, swaps it all back.
        swap_in(t, &mut self.edits, &mut 0, at);
        Err(self)
    }
}

/// Trade the edits from `*at` on with what they edit in `t`, in preorder: a
/// put subtreap with the one it replaces, a new size with the node's.
/// Stops at edit `stop`, or at a node [`Arc::get_mut`] finds shared — with
/// `*at` on its edit and `false`. Trading the same edits again undoes them.
fn swap_in<B: PipeBackend, K: Key>(
    t: &mut Treap<B, K>,
    edits: &mut [Edit<B, K>],
    at: &mut usize,
    stop: usize,
) -> bool {
    if *at == stop {
        return false;
    }
    let (left, right) = match &mut edits[*at] {
        Edit::Put(new) => {
            std::mem::swap(t, new);
            *at += 1;
            return true;
        }
        Edit::Resize { keys, left, right } => {
            let Treap::Node(n) = t else {
                unreachable!("a resized subtreap is a node")
            };
            let Some(n) = Arc::get_mut(n) else {
                return false;
            };
            std::mem::swap(&mut n.size, keys);
            *at += 1;
            (left.then_some(&mut n.left), right.then_some(&mut n.right))
        }
    };
    let mut below =
        |c: Option<&mut Child<B, K>>| c.is_none_or(|c| swap_in(done_mut(c), edits, at, stop));
    below(left) && below(right)
}

/// What a [`Patch::commit`] replaced: dropping it frees every subtreap
/// the commit took out that nothing else holds.
pub struct Graveyard<B: PipeBackend, K: Val> {
    _replaced: Vec<Edit<B, K>>,
}

/// The subtreap below a node of a complete treap, writable.
fn done_mut<B: PipeBackend, K: Key>(c: &mut Child<B, K>) -> &mut Treap<B, K> {
    match c {
        Child::Done(t) => t,
        Child::Cell(_) => unreachable!("a complete treap holds no future cell"),
    }
}

/// [`apply_run`], and [`plan_run`] with a [`Record`]: the [`merges`]
/// question, then [`edit_cut`].
fn edit_run<B: PipeBackend, K: Key, E: Emit<B, K>>(
    e: &mut E,
    t: &Treap<B, K>,
    keys: &[K],
    run: &[Entry<K>],
) -> E::Out {
    match t {
        Treap::Node(n) if merges(n.size, run.len()) => e.put(t, keep_merge(t, keys, run)),
        _ => edit_cut(e, t, keys, run, None),
    }
}

/// [`edit_run`] below its one [`merges`] question, told the index of
/// `run`'s winner when a cut left it there: only the other side rescans.
/// A node stays iff its key is not in `keys` and `run`'s winner does not
/// beat it; only such a node is opened, and only if the emitter
/// [`owns`](Emit::owns) it.
fn edit_cut<B: PipeBackend, K: Key, E: Emit<B, K>>(
    e: &mut E,
    t: &Treap<B, K>,
    keys: &[K],
    run: &[Entry<K>],
    winner: Option<usize>,
) -> E::Out {
    if keys.is_empty() && run.is_empty() {
        return e.same(t);
    }
    let Treap::Node(n) = t else {
        return e.put(t, keep_merge(t, keys, run));
    };
    if !e.owns(n) {
        let built = edit_cut(&mut Build, t, keys, run, winner);
        return e.put(t, built);
    }
    let winner = (!run.is_empty()).then(|| winner.unwrap_or_else(|| top(run)));
    if let Some(i) = winner.filter(|&i| wins(&run[i].0, run[i].1, &n.key, n.prio)) {
        let (key, prio) = (&run[i].0, run[i].1);
        let (l, r, _dup) = split_plain(t, key);
        let (lk, _, rk) = cut(keys, key, |k| k);
        let l = edit_cut(&mut Build, &l, lk, &run[..i], None);
        let r = edit_cut(&mut Build, &r, rk, &run[i + 1..], None);
        return e.put(t, Treap::node_sized(key.clone(), prio, l, r));
    }
    let (lk, hit, rk) = cut(keys, &n.key, |k| k);
    let (lr, again, rr) = cut(run, &n.key, |e| &e.0);
    let lw = winner.filter(|&i| i < lr.len());
    let rw = winner.and_then(|i| i.checked_sub(lr.len() + again.len()));
    if !hit.is_empty() {
        // The node's key is deleted: join its sides.
        let l = edit_cut(&mut Build, kid(&n.left), lk, lr, lw);
        let r = edit_cut(&mut Build, kid(&n.right), rk, rr, rw);
        // The node's key, inserted again after its delete.
        let back = edit_cut(&mut Build, &join_plain(&l, &r), &[], again, None);
        return e.put(t, back);
    }
    let at = e.open();
    let l = edit_cut(e, kid(&n.left), lk, lr, lw);
    let r = edit_cut(e, kid(&n.right), rk, rr, rw);
    e.leave(at, t, l, r)
}

/// `xs`, sorted by `key` with no key twice, cut at `at`: the part below it,
/// the one element with key `at` if there is one, and the part above it.
fn cut<'a, T, K: Ord>(xs: &'a [T], at: &K, key: impl Fn(&T) -> &K) -> (&'a [T], &'a [T], &'a [T]) {
    let below = xs.partition_point(|x| key(x) < at);
    let above = below + usize::from(xs.get(below).is_some_and(|x| key(x) == at));
    (&xs[..below], &xs[below..above], &xs[above..])
}

/// The complete treap of `t`'s entries whose keys are not in `keys`,
/// united with `run` by one two-finger [`merge`]: `t` itself if that
/// changes nothing.
fn keep_merge<B: PipeBackend, K: Key>(
    t: &Treap<B, K>,
    keys: &[K],
    run: &[Entry<K>],
) -> Treap<B, K> {
    if keys.is_empty() {
        return merge(t, &entries(t), run);
    }
    let kept = keep(t, |k| keys.binary_search(k).is_err());
    if run.is_empty() {
        return kept;
    }
    merge(&kept, &entries(&kept), run)
}

/// The complete treap of `t`'s entries whose key `keeps`, `t` itself if
/// that is all of them: a block marks its survivors in one `u64`, a larger
/// treap is flattened, filtered and built again.
fn keep<B: PipeBackend, K: Key>(t: &Treap<B, K>, keeps: impl Fn(&K) -> bool) -> Treap<B, K> {
    if let Treap::Block(x) = t {
        let mask = (x.iter().enumerate())
            .filter(|(_, e)| keeps(&e.0))
            .fold(0u64, |m, (i, _)| m | 1 << i);
        let n = mask.count_ones() as usize;
        if n == x.len() {
            return t.clone();
        }
        let mut kept = (x.iter().enumerate())
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, e)| e.clone());
        return from_run(n, || kept.next().expect("counted"));
    }
    let mut x = entries(t).into_owned();
    let n = x.len();
    x.retain(|e| keeps(&e.0));
    if x.len() == n {
        return t.clone();
    }
    Treap::from_sorted_complete(&x)
}

/// Does a plain [`diff`] of `a`'s `m` keys against `b`'s `n` look them up
/// in `b` rather than walk all of `b` for [`edit_run`]: is `b` more than
/// 4 times larger?
fn looks_up(m: usize, n: usize) -> bool {
    n > 4 * m
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
) {
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
        Treap::Block(_) => unreachable!("a block is complete: split plainly above"),
    }
}

/// `join(l, r)` (Figure 7): concatenate two treaps where every key of `l`
/// is smaller than every key of `r`. Takes already-touched root values;
/// the recursion forks so the result spine pipelines upward — the
/// ρ-value analysis of Lemma 3.10.
pub fn join<B: PipeBackend, K: Key>(bk: &B, l: Treap<B, K>, r: Treap<B, K>, out: TreapWr<B, K>) {
    if plainly(&l) && plainly(&r) {
        bk.fulfill(out, join_plain(&l, &r));
        return;
    }
    bk.tick(1);
    if l.is_leaf() || r.is_leaf() {
        bk.fulfill(out, if l.is_leaf() { r } else { l });
        return;
    }
    let (jp, jf) = bk.cell();
    if wins_over(&l, &r) {
        let (key, prio, left, right) = parts(&l);
        bk.fulfill(out, Treap::node_over(key, prio, 0, left, Child::Cell(jf)));
        bk.fork(move |bk| {
            right.touch(bk, move |bk, rv| join(bk, rv, r, jp));
        });
    } else {
        let (key, prio, left, right) = parts(&r);
        bk.fulfill(out, Treap::node_over(key, prio, 0, Child::Cell(jf), right));
        bk.fork(move |bk| {
            left.touch(bk, move |bk, lv| join(bk, l, lv, jp));
        });
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
) {
    bk.touch(&a, move |bk, av| {
        bk.tick(1);
        if av.is_leaf() {
            bk.touch(&b, move |bk, bv| bk.fulfill(out, bv));
            return;
        }
        bk.touch(&b, move |bk, bv| {
            if fuses(&av, &bv) {
                let mut by_size = [&av, &bv];
                by_size.sort_by_key(|t| len(t));
                bk.fulfill(out, apply_run(by_size[1], &[], &entries(by_size[0])));
                return;
            }
            bk.tick(1);
            if bv.is_leaf() {
                bk.fulfill(out, av);
                return;
            }
            let (w, loser) = if wins_over(&av, &bv) {
                (av, bv)
            } else {
                (bv, av)
            };
            let (key, prio, wl, wr) = parts(&w);
            // let (l2, r2) = ?splitm(w.key, loser)
            let (lp, lf) = bk.cell();
            let (rp, rf) = bk.cell();
            let (fp, _ff) = bk.cell::<bool>(); // found-flag: duplicates drop silently
            let splitter = key.clone();
            fork_call(bk, mode, move |bk| splitm(bk, splitter, loser, lp, rp, fp));
            // Node(k, p, ?union(w.left, l2), ?union(w.right, r2))
            let (ulp, ulf) = bk.cell();
            let (urp, urf) = bk.cell();
            bk.tick(1);
            bk.fulfill(out, Treap::node(key, prio, ulf, urf));
            let (wl, wr) = (wl.into_fut(bk), wr.into_fut(bk));
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
) {
    bk.touch(&a, move |bk, av| {
        bk.tick(1);
        if av.is_leaf() {
            bk.fulfill(out, Treap::Leaf);
            return;
        }
        bk.touch(&b, move |bk, bv| {
            if fuses(&av, &bv) {
                let got = if looks_up(len(&av), len(&bv)) {
                    keep(&av, |k| !bv.contains(k))
                } else {
                    edit_run(&mut Build, &av, &bv.to_sorted_vec(), &[])
                };
                bk.fulfill(out, got);
                return;
            }
            bk.tick(1);
            if bv.is_leaf() {
                bk.fulfill(out, av);
                return;
            }
            let (key, prio, al, ar) = parts(&av);
            // let (l2, r2, found) = ?splitm(a.key, b)
            let (lp, lf) = bk.cell();
            let (rp, rf) = bk.cell();
            let (fp, ff) = bk.cell();
            let splitter = key.clone();
            fork_call(bk, mode, move |bk| splitm(bk, splitter, bv, lp, rp, fp));
            // l = ?diff(a.left, l2); r = ?diff(a.right, r2)
            let (slp, slf) = bk.cell();
            let (srp, srf) = bk.cell();
            let (al, ar) = (al.into_fut(bk), ar.into_fut(bk));
            bk.fork2(
                move |bk| diff(bk, al, lf, slp, mode),
                move |bk| diff(bk, ar, rf, srp, mode),
            );
            // if found then join(l, r) else Node(k, p, l, r)
            bk.touch(&ff, move |bk, found| {
                bk.tick(1);
                if found {
                    bk.touch(&slf, move |bk, lv| {
                        bk.touch(&srf, move |bk, rv| match mode {
                            Mode::Pipelined => join(bk, lv, rv, out),
                            Mode::Strict => bk.strict(move |bk| join(bk, lv, rv, out)),
                        });
                    });
                } else {
                    bk.fulfill(out, Treap::node(key, prio, slf, srf));
                }
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::splitmix64;
    use crate::Seq;
    use pf_core::Ctx;

    /// `within_grain` says yes exactly when the pipelined functions would
    /// run plain code — both operands sized, the estimate within the grain,
    /// to the key — and a run is merged whole exactly when it is more than
    /// half the treap. (What the plain code builds, the algorithm suite
    /// checks against its oracle: pf-algs' `tests/prop.rs` and the
    /// size-rule pairs of `pf_tests::SetOps`.)
    fn within_grain_is_the_plain_rule<B: PipeBackend>() {
        let t = |n: i64| {
            let e: Vec<Entry<i64>> = (0..n).map(|k| (k, splitmix64(k as u64))).collect();
            Treap::<B, i64>::from_sorted_complete(&e)
        };
        // Equal sizes make the estimate the size itself.
        let grain = B::GRAIN as usize;
        for (n, fits) in [(120, true), (grain, true), (grain + 1, false)] {
            assert_eq!(within_grain::<B>(n, n), fits, "{n} keys a side");
        }
        // A big operand against a small one still fits; an unsized one
        // never does, on either side.
        assert!(within_grain::<B>(50 * grain, 1) && within_grain::<B>(1, 50 * grain));
        let leaf = || Child::Done(Treap::<B, i64>::Leaf);
        let pending = Treap::<B, i64>::node_over(7, 9, 0, leaf(), leaf());
        assert!(fuses(&t(1), &t(50 * grain as i64)));
        assert!(!fuses(&pending, &t(1)) && !fuses(&t(1), &pending));
        for (n, m, whole) in [
            (20, 30, true),
            (120, 40, false),
            (120, 70, true),
            (120, 60, false),
        ] {
            assert_eq!(merges(n, m), whole, "{m} keys into {n}");
        }
    }

    #[test]
    fn within_grain_entry_points_on_seq_and_on_the_runtimes_engine() {
        within_grain_is_the_plain_rule::<Seq>();
        within_grain_is_the_plain_rule::<pf_rt::Worker>();
    }

    /// `check_invariants` holds a treap to the representation rule: exact
    /// counts, only complete subtreaps held directly below a sized node, more
    /// than 32 keys under every sized node, and blocks that are nonempty, at
    /// most 32 keys, in key order and beaten by the node above them. The
    /// simulator, which never cuts, may size a node of one key and holds no
    /// block at all.
    #[test]
    fn check_invariants_rejects_a_false_size() {
        type T = Treap<Seq, i64>;
        let block = |keys: Range<i64>| T::Block(keys.map(|k| (k, 5)).collect());
        let done = |t| Child::Done(t);
        let (lo, hi) = (|| done(block(0..20)), || done(block(21..41)));
        let node = |size, l, r| T::node_over(20, 9, size, l, r);
        Seq::run(|bk| {
            assert!(node(41, lo(), hi()).check_invariants());
            assert!(node(0, lo(), hi()).check_invariants());
            assert!(!node(40, lo(), hi()).check_invariants(), "inexact count");
            // A sized node above a cell: one nobody has written, and a
            // written one; an unsized node may hold either.
            let (_pending, f) = bk.cell::<T>();
            assert!(!node(41, lo(), Child::Cell(f)).check_invariants());
            let written = || Child::Cell(bk.input(block(21..41)));
            assert!(!node(41, lo(), written()).check_invariants());
            assert!(node(0, lo(), written()).check_invariants());
            // A sized node above an unsized one.
            let split = T::node_over(30, 6, 0, done(block(21..30)), done(block(31..41)));
            assert!(!node(41, lo(), done(split.clone())).check_invariants());
            assert!(node(0, lo(), done(split)).check_invariants());
            // A sized node of at most 32 keys is a block by the rule.
            let one = |size| T::node_over(1, 9, size, done(T::Leaf), done(T::Leaf));
            assert!(one(0).check_invariants() && !one(1).check_invariants());
            // Blocks: empty, oversize, out of key order, or with an entry
            // that beats the node above it.
            assert!(block(0..32).check_invariants() && !block(0..33).check_invariants());
            assert!(!block(0..0).check_invariants());
            assert!(!T::Block(Arc::from([(2, 5), (1, 5)])).check_invariants());
            let usurper = T::Block((0..20).map(|k| (k, if k == 7 { 10 } else { 5 })).collect());
            assert!(!node(41, done(usurper), hi()).check_invariants());
        });
        type C = Treap<Ctx, i64>;
        let leaf = || Child::Done(C::Leaf);
        assert!(C::node_over(1, 9, 1, leaf(), leaf()).check_invariants());
        assert!(!C::Block(Arc::from([(1, 5)])).check_invariants());
    }
}
