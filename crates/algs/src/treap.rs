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
//! ## Two types: complete and pending
//!
//! A [`Complete`] treap is finished all the way down and names no engine:
//! the empty treap, a [`Node`] that counts its keys and holds its two
//! complete sides directly, or a [`Complete::Block`] — a complete subtreap
//! of at most 32 keys stored as its entries, sorted by key, in one
//! allocation. The rule looks only at the key set, so the representation
//! is canonical: a block stands for exactly the subtree [`PlainTreap`]
//! would build from its entries, rooted at the one that [`wins`], and a
//! node always holds more than 32 keys. [`Complete::node`] is the one
//! constructor over a root entry, so the builders and the plain code below
//! land on the same representation.
//!
//! A [`Treap`] on engine `B` is what the paper's pipelined steps read and
//! write: complete ([`Treap::Done`]), or a node published ahead of its
//! children ([`Treap::Pending`]) whose every child is a [`Child`] — a
//! complete subtreap held directly, or a future cell. [`Treap::sealed`] is
//! the one conversion from pending to complete, once every cell is written.
//!
//! ## Granularity
//!
//! On an engine with a non-zero [`PipeBackend::GRAIN`] `union`, `diff`,
//! `splitm` and `join` choose from what they can observe. Two complete
//! operands whose work estimate m·(⌊lg(n/m)⌋+1) is within the grain
//! ([`within_grain`], a public function of the two sizes) meet in one plain
//! kernel, persistent and direct-style: the smaller operand, flattened into
//! a key-sorted run, is applied to the other by [`apply_run`] (as inserts,
//! or as deletes) — cut by binary search at each node, merged into or
//! filtered at each block. A near-equal union merges the two runs whole
//! instead, and a difference against a much larger operand looks its keys
//! up in it. A complete operand of any size is split or joined plainly, so
//! its pieces stay complete; everything else — a pending operand, or more
//! work than one grain — takes the paper's pipelined step, which copies a
//! child into the node it publishes whichever kind it is, and takes a
//! complete operand apart at its root entry when it meets a pending one. An
//! engine that never cuts never fuses either: with `GRAIN == 0` the input
//! constructors build pending nodes on cells, so every step and every data
//! edge is the paper's.
//!
//! The run kernel is written once over what it does at a subtreap whose
//! answer it knows: build it now, sharing what did not change — the path
//! copy that the pipelined step and every shared operand need — or record
//! it in a [`Patch`] ([`plan_run`]) that [`Patch::commit`] later applies
//! in place to a treap nothing else holds, with no comparison, key clone or
//! allocation left to run. One walk applies deletes and inserts together,
//! so a caller with both (pf-service's passes, a window's net effect)
//! copies or records each changed path once. What the kernel does at a
//! node is decided in one place (`step`), and the kernel forks above the
//! grain ([`plan_run_on`]): where a node's job is not [`within_grain`],
//! the node's two sides run as a fork on an engine, each recording a patch
//! of its own that the node appends, left then right, or building its
//! subtreap; below it, plain code. That is the binary-forking model over
//! complete operands, with no future between the two sides' cuts — the
//! pipelined steps above are for operands that may still be pending.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::iter::once;
use std::ops::Range;
use std::sync::{Arc, Mutex};

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

/// A complete treap: no cell anywhere in it, and no engine.
#[derive(Clone)]
pub enum Complete<K> {
    /// The empty treap.
    Leaf,
    /// An interior node of more than 32 keys (shared, immutable).
    Node(Arc<Node<K>>),
    /// A subtreap of 1 to 32 keys, stored as its entries sorted by key. It
    /// stands for the treap of those entries: rooted at the one that
    /// [`wins`] over the others, with the entries either side of it as its
    /// two subtrees, and so on down.
    Block(Arc<[Entry<K>]>),
}

/// An interior node of a [`Complete`] treap.
pub struct Node<K> {
    /// Key (symmetric order).
    pub key: K,
    /// Priority (max-heap order, ties broken by key).
    pub prio: u64,
    /// Keys in this subtree: exact, and more than 32 (a complete subtree
    /// of fewer is a [`Complete::Block`]). [`Complete::check_invariants`]
    /// verifies both.
    pub size: usize,
    /// The left subtreap.
    pub left: Complete<K>,
    /// The right subtreap.
    pub right: Complete<K>,
}

/// A treap on engine `B`: complete, or a node published ahead of its
/// children.
pub enum Treap<B: PipeBackend, K: Val> {
    /// A complete treap.
    Done(Complete<K>),
    /// A node whose children may still be pending.
    Pending(Arc<TreapNode<B, K>>),
}

/// A child of a [`TreapNode`]: a future cell where the subtreap may still
/// be pending, the subtreap itself where it is known to be complete.
pub enum Child<B: PipeBackend, K: Val> {
    /// A complete subtreap, held directly.
    Done(Complete<K>),
    /// The future of a subtreap.
    Cell(TreapFut<B, K>),
}

/// A node of a [`Treap`] published ahead of its children.
pub struct TreapNode<B: PipeBackend, K: Val> {
    /// Key (symmetric order).
    pub key: K,
    /// Priority (max-heap order, ties broken by key).
    pub prio: u64,
    /// The left subtreap.
    pub left: Child<B, K>,
    /// The right subtreap.
    pub right: Child<B, K>,
}

impl<B: PipeBackend, K: Val> Clone for Treap<B, K> {
    fn clone(&self) -> Self {
        match self {
            Treap::Done(c) => Treap::Done(c.clone()),
            Treap::Pending(n) => Treap::Pending(Arc::clone(n)),
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

impl<B: PipeBackend, K: Key> Child<B, K> {
    /// The data edge to the child: a touch of its cell, or nothing at all
    /// in front of `k` when the subtreap is held directly.
    fn touch(&self, bk: &B, k: impl FnOnce(&B, Treap<B, K>) + Send + 'static) {
        match self {
            Child::Done(t) => k(bk, Treap::Done(t.clone())),
            Child::Cell(f) => bk.touch(f, k),
        }
    }

    /// The child as the future a recursive call takes.
    fn into_fut(self, bk: &B) -> TreapFut<B, K> {
        match self {
            Child::Done(t) => bk.input(Treap::Done(t)),
            Child::Cell(f) => f,
        }
    }

    /// The finished subtreap, [sealed](Treap::sealed).
    ///
    /// # Panics
    /// If a cell is still unwritten.
    fn sealed(&self) -> Complete<K> {
        match self {
            Child::Done(t) => t.clone(),
            Child::Cell(f) => Treap::<B, K>::expect(f).sealed(),
        }
    }
}

impl<K: Key> Complete<K> {
    /// The one constructor of a complete subtreap with a root entry over
    /// two complete sides: a block of their entries if there are at most
    /// 32 of them, else a node.
    pub fn node(key: K, prio: u64, left: Self, right: Self) -> Self {
        let size = 1 + left.size() + right.size();
        if size <= LEAF_KEYS {
            let (l, r) = (entries(&left), entries(&right));
            // A chain of slices has an exact length: one allocation.
            let run = l.iter().cloned().chain(once((key, prio)));
            return Complete::Block(run.chain(r.iter().cloned()).collect());
        }
        Complete::Node(Arc::new(Node {
            key,
            prio,
            size,
            left,
            right,
        }))
    }

    /// The complete treap of a sequential one. The plain treap is the
    /// Cartesian tree of its entries, so this is
    /// [`from_sorted`](Self::from_sorted) of them.
    pub fn from_plain(t: &Option<Box<PlainTreap<K>>>) -> Self {
        fn inorder<K: Clone>(t: &Option<Box<PlainTreap<K>>>, out: &mut Vec<Entry<K>>) {
            if let Some(n) = t {
                inorder(&n.left, out);
                out.push((n.key.clone(), n.prio));
                inorder(&n.right, out);
            }
        }
        let mut entries = Vec::with_capacity(PlainTreap::size(t));
        inorder(t, &mut entries);
        Self::from_sorted(&entries)
    }

    /// The complete treap of `entries`, which are sorted by key and hold no
    /// key twice, in linear time: the tree of [`PlainTreap::from_entries`],
    /// without the intermediate `Box` treap or its O(n lg n) repeated
    /// insertion. One scan builds the Cartesian tree of the priorities as
    /// indices — the stack is the right spine so far; an entry pops every
    /// spine node it [`wins`] over and adopts the last one popped as its
    /// left child — then the treap is made bottom-up. Every subtree covers
    /// a contiguous run of `entries`, so one that fits a block is that run,
    /// copied once; the rest are nodes.
    pub fn from_sorted(entries: &[Entry<K>]) -> Self {
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
        fn build<K: Key>(
            entries: &[Entry<K>],
            links: &[[usize; 3]],
            i: usize,
            span: Range<usize>,
        ) -> Complete<K> {
            if i == NONE {
                return Complete::Leaf;
            }
            if span.len() <= LEAF_KEYS {
                return Complete::Block(entries[span].into());
            }
            let (l, r) = (
                build(entries, links, links[i][0], span.start..i),
                build(entries, links, links[i][1], i + 1..span.end),
            );
            Complete::node(entries[i].0.clone(), entries[i].1, l, r)
        }
        build(entries, &links, root, 0..entries.len())
    }

    /// Is this the empty treap?
    pub fn is_leaf(&self) -> bool {
        matches!(self, Complete::Leaf)
    }

    /// Are `self` and `other` the same subtreap in memory, not merely
    /// equal?
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Complete::Leaf, Complete::Leaf) => true,
            (Complete::Node(x), Complete::Node(y)) => Arc::ptr_eq(x, y),
            (Complete::Block(x), Complete::Block(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// The number of keys, in O(1).
    pub fn size(&self) -> usize {
        match self {
            Complete::Leaf => 0,
            Complete::Node(n) => n.size,
            Complete::Block(b) => b.len(),
        }
    }

    /// Is `key` in this treap? A walk by reference down the nodes and a
    /// binary search of the block at the bottom.
    pub fn contains(&self, key: &K) -> bool {
        let mut cur = self;
        loop {
            match cur {
                Complete::Leaf => return false,
                Complete::Block(b) => return b.binary_search_by(|e| e.0.cmp(key)).is_ok(),
                Complete::Node(n) => match key.cmp(&n.key) {
                    Ordering::Equal => return true,
                    Ordering::Less => cur = &n.left,
                    Ordering::Greater => cur = &n.right,
                },
            }
        }
    }

    /// Push this treap's keys in `[lo, hi)` onto `out`, in ascending order.
    /// An in-order walk by reference that never enters a subtree the range
    /// cannot reach; a block's keys are sorted, so its part of the range is
    /// the run from a binary search for `lo`.
    pub fn range(&self, lo: &K, hi: &K, out: &mut Vec<K>) {
        match self {
            Complete::Leaf => {}
            Complete::Block(b) => {
                let from = b.partition_point(|e| e.0 < *lo);
                let run = b[from..].iter().take_while(|e| e.0 < *hi);
                out.extend(run.map(|e| e.0.clone()));
            }
            Complete::Node(n) => {
                if *lo < n.key {
                    n.left.range(lo, hi, out);
                }
                if *lo <= n.key && n.key < *hi {
                    out.push(n.key.clone());
                }
                if n.key < *hi {
                    n.right.range(lo, hi, out);
                }
            }
        }
    }

    /// The keys in ascending order.
    pub fn to_sorted_vec(&self) -> Vec<K> {
        let mut v = Vec::with_capacity(self.size());
        self.inorder(&mut |k, _| v.push(k.clone()));
        v
    }

    /// Call `f` on every entry, in key order.
    fn inorder(&self, f: &mut impl FnMut(&K, u64)) {
        match self {
            Complete::Leaf => {}
            Complete::Node(n) => {
                n.left.inorder(f);
                f(&n.key, n.prio);
                n.right.inorder(f);
            }
            Complete::Block(b) => b.iter().for_each(|e| f(&e.0, e.1)),
        }
    }

    /// The entries in preorder of the tree this treap stands for, a block
    /// expanded into its subtree. With the search order, that fixes the
    /// shape.
    pub fn preorder(&self) -> Vec<Entry<K>> {
        fn run<K: Clone + Ord>(b: &[Entry<K>], out: &mut Vec<Entry<K>>) {
            if !b.is_empty() {
                let i = top(b);
                out.push(b[i].clone());
                run(&b[..i], out);
                run(&b[i + 1..], out);
            }
        }
        fn rec<K: Key>(t: &Complete<K>, out: &mut Vec<Entry<K>>) {
            match t {
                Complete::Leaf => {}
                Complete::Node(n) => {
                    out.push((n.key.clone(), n.prio));
                    rec(&n.left, out);
                    rec(&n.right, out);
                }
                Complete::Block(b) => run(b, out),
            }
        }
        let mut out = Vec::with_capacity(self.size());
        rec(self, &mut out);
        out
    }

    /// Height (empty = 0), a block counting as the subtree it stands for.
    pub fn height(&self) -> usize {
        fn run<K: Ord>(b: &[Entry<K>]) -> usize {
            if b.is_empty() {
                return 0;
            }
            let i = top(b);
            1 + run(&b[..i]).max(run(&b[i + 1..]))
        }
        match self {
            Complete::Leaf => 0,
            Complete::Node(n) => 1 + n.left.height().max(n.right.height()),
            Complete::Block(b) => run(b),
        }
    }

    /// BST order and heap order both hold — no block entry beating the node
    /// above it either — every [`size`](Node::size) is exact, and the
    /// representation is canonical: no node of at most 32 keys, and no
    /// block that is empty, oversize or out of key order.
    pub fn check_invariants(&self) -> bool {
        self.canonical_below(None) && ascending(&self.to_sorted_vec())
    }

    /// [`check_invariants`](Self::check_invariants) but the key order, with
    /// no entry that beats `above`.
    fn canonical_below(&self, above: Option<(&K, u64)>) -> bool {
        let beats = |k: &K, p: u64| above.is_some_and(|(ak, ap)| wins(k, p, ak, ap));
        match self {
            Complete::Leaf => true,
            Complete::Block(b) => {
                (1..=LEAF_KEYS).contains(&b.len()) && !b.iter().any(|(k, p)| beats(k, *p))
            }
            Complete::Node(n) => {
                let here = Some((&n.key, n.prio));
                !beats(&n.key, n.prio)
                    && n.size > LEAF_KEYS
                    && n.size == 1 + n.left.size() + n.right.size()
                    && n.left.canonical_below(here)
                    && n.right.canonical_below(here)
            }
        }
    }

    /// The root entry of a nonempty treap.
    fn root(&self) -> (&K, u64) {
        match self {
            Complete::Node(n) => (&n.key, n.prio),
            Complete::Block(b) => {
                let e = &b[top(b)];
                (&e.0, e.1)
            }
            Complete::Leaf => unreachable!("the empty treap has no root"),
        }
    }
}

/// Are `keys` strictly ascending?
fn ascending<K: Ord>(keys: &[K]) -> bool {
    keys.windows(2).all(|w| w[0] < w[1])
}

impl<B: PipeBackend, K: Key> Treap<B, K> {
    /// The empty treap, for callers outside pf-algs that spell it this
    /// way; inside, it is `Treap::Done(Complete::Leaf)`.
    #[allow(non_upper_case_globals)] // spelt as the `Complete::Leaf` it is
    pub const Leaf: Self = Treap::Done(Complete::Leaf);

    /// A node over cells that may still be pending.
    pub fn node(key: K, prio: u64, left: TreapFut<B, K>, right: TreapFut<B, K>) -> Self {
        Self::pending(key, prio, Child::Cell(left), Child::Cell(right))
    }

    fn pending(key: K, prio: u64, left: Child<B, K>, right: Child<B, K>) -> Self {
        Treap::Pending(Arc::new(TreapNode {
            key,
            prio,
            left,
            right,
        }))
    }

    /// Is this the empty treap?
    pub fn is_leaf(&self) -> bool {
        matches!(self, Treap::Done(Complete::Leaf))
    }

    /// Read a finished cell (post-run inspection).
    ///
    /// # Panics
    /// If the cell is still unwritten.
    pub fn expect(f: &TreapFut<B, K>) -> Treap<B, K> {
        B::peek(f).expect("treap cell not written: the run has not quiesced")
    }

    /// Convert a sequential treap into an engine treap (input
    /// construction, zero cost): complete on an engine that cuts, pending
    /// nodes over free pre-written cells on one that does not.
    pub fn from_plain(bk: &B, t: &Option<Box<PlainTreap<K>>>) -> Treap<B, K> {
        if B::GRAIN != 0 {
            return Treap::Done(Complete::from_plain(t));
        }
        let Some(n) = t else {
            return Treap::Done(Complete::Leaf);
        };
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

    /// This finished treap as the complete treap of its entries: every
    /// pending node rebuilt, bottom-up, by [`Complete::node`]. O(pending
    /// nodes) — complete subtreaps are shared as they are.
    ///
    /// # Panics
    /// If a cell is still unwritten.
    pub fn sealed(&self) -> Complete<K> {
        match self {
            Treap::Done(t) => t.clone(),
            Treap::Pending(n) => {
                let (l, r) = (n.left.sealed(), n.right.sealed());
                Complete::node(n.key.clone(), n.prio, l, r)
            }
        }
    }

    /// Post-run inspection: sorted key vector of the [`sealed`](Self::sealed)
    /// treap.
    pub fn to_sorted_vec(&self) -> Vec<K> {
        self.sealed().to_sorted_vec()
    }

    /// Post-run inspection: BST order and heap order both hold, every
    /// complete subtreap passes [`Complete::check_invariants`]' size and
    /// representation checks, and on an engine that never cuts none is
    /// complete but the empty one.
    pub fn check_invariants(&self) -> bool {
        fn rec<B: PipeBackend, K: Key>(t: &Treap<B, K>, above: Option<(&K, u64)>) -> bool {
            let done = |t: &Complete<K>, above| {
                (B::GRAIN > 0 || matches!(t, Complete::Leaf)) && t.canonical_below(above)
            };
            let n = match t {
                Treap::Done(t) => return done(t, above),
                Treap::Pending(n) => n,
            };
            let here = Some((&n.key, n.prio));
            let below = |c: &Child<B, K>| match c {
                Child::Done(t) => done(t, here),
                Child::Cell(f) => rec(&Treap::<B, K>::expect(f), here),
            };
            !above.is_some_and(|(ak, ap)| wins(&n.key, n.prio, ak, ap))
                && below(&n.left)
                && below(&n.right)
        }
        rec(self, None) && ascending(&self.to_sorted_vec())
    }

    /// The root entry of a nonempty treap.
    fn root(&self) -> (&K, u64) {
        match self {
            Treap::Done(t) => t.root(),
            Treap::Pending(n) => (&n.key, n.prio),
        }
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

/// The entries of a subtreap that fits a block — a block's own, none for
/// the empty treap — or `None` for a node.
fn fringe<K>(t: &Complete<K>) -> Option<&[Entry<K>]> {
    match t {
        Complete::Leaf => Some(&[]),
        Complete::Block(b) => Some(b),
        Complete::Node(_) => None,
    }
}

/// The entries of a complete treap in key order: [`fringe`]'s, borrowed,
/// or gathered by one in-order walk of a node.
fn entries<K: Key>(t: &Complete<K>) -> Cow<'_, [Entry<K>]> {
    if let Some(x) = fringe(t) {
        return Cow::Borrowed(x);
    }
    let mut out = Vec::with_capacity(t.size());
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

/// Does root entry `a` win over root entry `b`?
fn wins_over<K: Ord>((ka, pa): (&K, u64), (kb, pb): (&K, u64)) -> bool {
    wins(ka, pa, kb, pb)
}

/// A nonempty complete treap's root entry and its two sides: a node's own,
/// borrowed, or a block's root and the sub-blocks either side of it, built.
#[allow(clippy::type_complexity)]
fn expose<K: Key>(t: &Complete<K>) -> (&K, u64, Cow<'_, Complete<K>>, Cow<'_, Complete<K>>) {
    match t {
        Complete::Node(n) => (
            &n.key,
            n.prio,
            Cow::Borrowed(&n.left),
            Cow::Borrowed(&n.right),
        ),
        Complete::Block(b) => {
            let i = top(b);
            let (left, right) = (sub(b, 0..i), sub(b, i + 1..b.len()));
            (&b[i].0, b[i].1, Cow::Owned(left), Cow::Owned(right))
        }
        Complete::Leaf => unreachable!("the empty treap has no root"),
    }
}

/// [`expose`] for a pipelined step, owned: a pending node gives its
/// children as they are, cells or not.
fn parts<B: PipeBackend, K: Key>(t: &Treap<B, K>) -> (K, u64, Child<B, K>, Child<B, K>) {
    match t {
        Treap::Pending(n) => (n.key.clone(), n.prio, n.left.clone(), n.right.clone()),
        Treap::Done(t) => {
            let (key, prio, l, r) = expose(t);
            let (l, r) = (Child::Done(l.into_owned()), Child::Done(r.into_owned()));
            (key.clone(), prio, l, r)
        }
    }
}

/// `b[span]` as a complete treap: `b` itself if that is all of it.
fn sub<K: Key>(b: &Arc<[Entry<K>]>, span: Range<usize>) -> Complete<K> {
    match span.len() {
        0 => Complete::Leaf,
        n if n == b.len() => Complete::Block(Arc::clone(b)),
        _ => Complete::Block(b[span].into()),
    }
}

/// The complete treap of `n` distinct entries drawn in key order from
/// `next`: a block in one allocation when they fit one.
fn from_run<K: Key>(n: usize, mut next: impl FnMut() -> Entry<K>) -> Complete<K> {
    match n {
        0 => Complete::Leaf,
        // A mapped range has an exact length: one allocation.
        n if n <= LEAF_KEYS => Complete::Block((0..n).map(|_| next()).collect()),
        n => Complete::from_sorted(&(0..n).map(|_| next()).collect::<Vec<_>>()),
    }
}

/// Node `n`'s entry over the complete subtreaps `l` and `r`: `n` itself if
/// those are the children it has.
fn with_kids<K: Key>(n: &Arc<Node<K>>, l: Complete<K>, r: Complete<K>) -> Complete<K> {
    if n.left.ptr_eq(&l) && n.right.ptr_eq(&r) {
        return Complete::Node(Arc::clone(n));
    }
    Complete::node(n.key.clone(), n.prio, l, r)
}

/// Can engine `B` run a set operation on complete operands of `n` and `m`
/// keys as plain code: is its work estimate m·(⌊lg(n/m)⌋+1), m the
/// smaller — the paper's bound (Theorems 3.5 and 3.7) with its constant
/// dropped — within [`PipeBackend::GRAIN`]? The rule of the module docs
/// ("Granularity"), which the pipelined [`union`] and [`diff`] apply at
/// every step to two complete operands; a caller with no engine in hand
/// (pf-service's inline pass) asks it of sizes it knows or bounds, then
/// runs [`apply_run`] or [`plan_run`].
pub fn within_grain<B: PipeBackend>(n: usize, m: usize) -> bool {
    let (m, n) = (m.min(n) as u64, m.max(n) as u64);
    let work = m * u64::from(n.checked_div(m).map_or(0, |q| q.ilog2() + 1));
    B::GRAIN > 0 && work <= B::GRAIN
}

/// `a` and `b`, if both are complete and their set operation is
/// [`within_grain`]: then a pipelined step runs it as plain code.
fn fuses<'a, B: PipeBackend, K: Key>(
    a: &'a Treap<B, K>,
    b: &'a Treap<B, K>,
) -> Option<(&'a Complete<K>, &'a Complete<K>)> {
    match (a, b) {
        (Treap::Done(x), Treap::Done(y)) if within_grain::<B>(x.size(), y.size()) => Some((x, y)),
        _ => None,
    }
}

/// `t`, if it is complete on an engine that cuts at all: then it is split
/// or joined plainly whatever its size, which is O(height), and its pieces
/// stay complete.
fn plainly<B: PipeBackend, K: Key>(t: &Treap<B, K>) -> Option<&Complete<K>> {
    match t {
        Treap::Done(t) if B::GRAIN > 0 => Some(t),
        _ => None,
    }
}

fn split_plain<K: Key>(t: &Complete<K>, s: &K) -> (Complete<K>, Complete<K>, bool) {
    let n = match t {
        Complete::Leaf => return (Complete::Leaf, Complete::Leaf, false),
        Complete::Block(b) => {
            return match b.binary_search_by(|e| e.0.cmp(s)) {
                Ok(i) => (sub(b, 0..i), sub(b, i + 1..b.len()), true),
                Err(i) => (sub(b, 0..i), sub(b, i..b.len()), false),
            }
        }
        Complete::Node(n) => n,
    };
    match s.cmp(&n.key) {
        Ordering::Equal => (n.left.clone(), n.right.clone(), true),
        Ordering::Less => {
            let (l, m, found) = split_plain(&n.left, s);
            if l.is_leaf() && !found {
                return (Complete::Leaf, t.clone(), false); // all of `t` is above `s`
            }
            let r = Complete::node(n.key.clone(), n.prio, m, n.right.clone());
            (l, r, found)
        }
        Ordering::Greater => {
            let (m, r, found) = split_plain(&n.right, s);
            if r.is_leaf() && !found {
                return (t.clone(), Complete::Leaf, false); // all of `t` is below `s`
            }
            let l = Complete::node(n.key.clone(), n.prio, n.left.clone(), m);
            (l, r, found)
        }
    }
}

fn join_plain<K: Key>(l: &Complete<K>, r: &Complete<K>) -> Complete<K> {
    if let (Complete::Leaf, t) | (t, Complete::Leaf) = (l, r) {
        return t.clone();
    }
    if let (Some(x), Some(y)) = (fringe(l), fringe(r)) {
        let mut both = x.iter().chain(y).cloned();
        return from_run(x.len() + y.len(), || both.next().expect("counted"));
    }
    if wins_over(l.root(), r.root()) {
        let (key, prio, ll, lr) = expose(l);
        let j = join_plain(&lr, r);
        Complete::node(key.clone(), prio, ll.into_owned(), j)
    } else {
        let (key, prio, rl, rr) = expose(r);
        let j = join_plain(l, &rl);
        Complete::node(key.clone(), prio, j, rr.into_owned())
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
/// key in both, and `a` itself when `y` adds nothing to it. An empty `x`
/// is `y`'s treap, built once.
fn merge<K: Key>(a: &Complete<K>, x: &[Entry<K>], y: &[Entry<K>]) -> Complete<K> {
    if x.is_empty() {
        return Complete::from_sorted(y);
    }
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
pub fn apply_run<K: Key>(t: &Complete<K>, deletes: &[K], inserts: &[Entry<K>]) -> Complete<K> {
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
pub fn plan_run<K: Key>(
    t: &Complete<K>,
    deletes: &[K],
    inserts: &[Entry<K>],
    owners: usize,
) -> Patch<K> {
    let mut rec = Record::new(owners);
    edit_run(&mut rec, t, deletes, inserts);
    Patch { edits: rec.edits }
}

/// [`plan_run`] of `t`, `deletes` and `inserts`, forked on engine `B`
/// wherever a node's job is not [`within_grain`], its patch written to
/// `out`. Below the grain a job is planned as [`plan_run`] plans it; above,
/// the two sides of a node run as a [`PipeBackend::fork2`], each with a
/// patch of its own that the node then appends, left then right, so the
/// patch is [`plan_run`]'s, edit for edit. `t` is moved in: `owners`
/// counts this handle as well as the caller's.
pub fn plan_run_on<B: PipeBackend, K: Key>(
    bk: &B,
    t: Complete<K>,
    deletes: Arc<[K]>,
    inserts: Arc<[Entry<K>]>,
    owners: usize,
    out: B::Wr<Handoff<Patch<K>>>,
) {
    if matches!(&t, Complete::Node(n) if !merges(n.size, inserts.len())) {
        let (w, f) = bk.cell();
        fork_cut(bk, Record::new(owners), Job::new(t, deletes, inserts), w);
        return bk.touch(&f, move |bk, planned: Handoff<(Record<K>, _)>| {
            let edits = planned.take().0.edits;
            bk.fulfill(out, Handoff::new(Patch { edits }));
        });
    }
    bk.fulfill(out, Handoff::new(plan_run(&t, &deletes, &inserts, owners)));
}

/// A value that crosses a join by move. A touch hands its reader a clone
/// of what the cell holds, so what a forked job answers — a subtreap, a
/// patch — goes into a cell as a handoff, whose clones share one slot,
/// and the one reader takes it out.
pub struct Handoff<T>(Arc<Mutex<Option<T>>>);

impl<T> Handoff<T> {
    fn new(value: T) -> Self {
        Handoff(Arc::new(Mutex::new(Some(value))))
    }

    /// The value, taken out.
    ///
    /// # Panics
    /// If it was taken already.
    pub fn take(&self) -> T {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        slot.take().expect("a handoff is taken once")
    }
}

impl<T> Clone for Handoff<T> {
    fn clone(&self) -> Self {
        Handoff(Arc::clone(&self.0))
    }
}

/// What the run kernel does with a subtreap once it knows its answer:
/// [`Build`] makes the answer now, a complete treap that shares whatever
/// did not change (the path copy every shared operand needs); [`Record`]
/// notes it in a [`Patch`]. The kernel is written once over this trait.
trait Emit<K: Key>: Send + Sized + 'static {
    /// The answer for one subtreap.
    type Out: Send + 'static;
    /// What [`open`](Emit::open) hands to [`leave`](Emit::leave).
    type Mark: Send + 'static;
    /// `t` unchanged.
    fn same(&mut self, t: &Complete<K>) -> Self::Out;
    /// `t` replaced by the complete treap `new`, built now — perhaps `t`
    /// itself.
    fn put(&mut self, t: &Complete<K>, new: Complete<K>) -> Self::Out;
    /// May the kernel answer for node `n` through [`open`](Emit::open) and
    /// [`leave`](Emit::leave)? If not, it builds the answer and
    /// [`put`](Emit::put)s it.
    fn owns(&self, n: &Arc<Node<K>>) -> bool;
    /// The kernel keeps the entry of the node it [`owns`](Emit::owns) and
    /// answers for its two children next, left first.
    fn open(&mut self) -> Self::Mark;
    /// The node `n`, opened, over its children's answers `l` and `r`.
    fn leave(&mut self, at: Self::Mark, n: &Arc<Node<K>>, l: Self::Out, r: Self::Out) -> Self::Out;
    /// The emitter of a forked side of a node this one opened.
    fn side(&self) -> Self;
    /// A forked side's answer `out`, from its emitter `side`, as an answer
    /// of this emitter: sides are grafted left first.
    fn graft(&mut self, side: Self, out: Self::Out) -> Self::Out;
}

/// The emitter that builds: a path copy.
struct Build;

impl<K: Key> Emit<K> for Build {
    type Out = Complete<K>;
    type Mark = ();
    fn same(&mut self, t: &Complete<K>) -> Complete<K> {
        t.clone()
    }
    fn put(&mut self, _: &Complete<K>, new: Complete<K>) -> Complete<K> {
        new
    }
    fn owns(&self, _: &Arc<Node<K>>) -> bool {
        true
    }
    fn open(&mut self) {}
    fn leave(&mut self, _: (), n: &Arc<Node<K>>, l: Complete<K>, r: Complete<K>) -> Complete<K> {
        with_kids(n, l, r)
    }
    fn side(&self) -> Self {
        Build
    }
    fn graft(&mut self, _: Build, out: Complete<K>) -> Complete<K> {
        out
    }
}

/// A recorded edit of a complete treap ([`plan_run`]):
/// one edit per subtreap it changes, in preorder; none if it changes
/// nothing.
pub struct Patch<K> {
    edits: Vec<Edit<K>>,
}

/// What a [`Patch`] does to one subtreap it changes.
enum Edit<K> {
    /// Keep the node's entry over this many keys. The edits of the
    /// children that change follow: the left's if `left`, then the
    /// right's if `right`.
    Resize {
        keys: usize,
        left: bool,
        right: bool,
    },
    /// Replace the subtreap by this complete treap, built while planning.
    Put(Complete<K>),
}

/// The emitter that records. An answer is where the subtreap's edit sits
/// in `edits` — `None` if it is unchanged — and its key count after it.
struct Record<K> {
    edits: Vec<Edit<K>>,
    /// The handles on the root that the planner accounts for.
    owners: usize,
}

impl<K: Key> Record<K> {
    fn new(owners: usize) -> Self {
        Record {
            edits: Vec::with_capacity(32),
            owners,
        }
    }
}

impl<K: Key> Emit<K> for Record<K> {
    type Out = (Option<usize>, usize);
    type Mark = usize;
    fn same(&mut self, t: &Complete<K>) -> (Option<usize>, usize) {
        (None, t.size())
    }
    fn put(&mut self, t: &Complete<K>, new: Complete<K>) -> (Option<usize>, usize) {
        if new.ptr_eq(t) {
            return self.same(t);
        }
        let keys = new.size();
        self.edits.push(Edit::Put(new));
        (Some(self.edits.len() - 1), keys)
    }
    fn owns(&self, n: &Arc<Node<K>>) -> bool {
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
        n: &Arc<Node<K>>,
        (l, lk): (Option<usize>, usize),
        (r, rk): (Option<usize>, usize),
    ) -> (Option<usize>, usize) {
        if l.is_none() && r.is_none() {
            self.edits.truncate(at);
            return (None, n.size);
        }
        let keys = 1 + lk + rk;
        if keys > LEAF_KEYS {
            let (left, right) = (l.is_some(), r.is_some());
            self.edits[at] = Edit::Resize { keys, left, right };
            return (Some(at), keys);
        }
        // A subtreap this small is a block, so each side was a leaf or a
        // block, and its edit, if any, a put: build the block now.
        let mut side = |edit: Option<usize>, old: &Complete<K>| match edit {
            Some(_) => match self.edits.pop() {
                Some(Edit::Put(new)) => new,
                _ => unreachable!("a side of at most 31 keys is put whole"),
            },
            None => old.clone(),
        };
        let right = side(r, &n.right);
        let left = side(l, &n.left);
        self.edits[at] = Edit::Put(Complete::node(n.key.clone(), n.prio, left, right));
        (Some(at), keys)
    }
    fn side(&self) -> Self {
        // A forked side's root is held by its parent and by its job.
        Record::new(2)
    }
    fn graft(
        &mut self,
        mut side: Self,
        (edit, keys): (Option<usize>, usize),
    ) -> (Option<usize>, usize) {
        let at = self.edits.len();
        self.edits.append(&mut side.edits);
        (edit.map(|i| at + i), keys)
    }
}

impl<K: Key> Patch<K> {
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
    pub fn commit(mut self, t: &mut Complete<K>) -> Result<Graveyard<K>, Self> {
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
fn swap_in<K: Key>(
    t: &mut Complete<K>,
    edits: &mut [Edit<K>],
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
            let Complete::Node(n) = t else {
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
    let mut below = |c: Option<&mut Complete<K>>| c.is_none_or(|c| swap_in(c, edits, at, stop));
    below(left) && below(right)
}

/// What a [`Patch::commit`] replaced: dropping it frees every subtreap
/// the commit took out that nothing else holds.
pub struct Graveyard<K> {
    _replaced: Vec<Edit<K>>,
}

/// [`apply_run`], and [`plan_run`] with a [`Record`]: the [`merges`]
/// question, then [`edit_cut`].
fn edit_run<K: Key, E: Emit<K>>(
    e: &mut E,
    t: &Complete<K>,
    keys: &[K],
    run: &[Entry<K>],
) -> E::Out {
    match t {
        Complete::Node(n) if merges(n.size, run.len()) => e.put(t, keep_merge(t, keys, run)),
        _ => edit_cut(e, t, keys, run, None),
    }
}

/// What the run kernel does at subtreap `t` with the sorted `keys` to
/// delete and `run` to insert — decided once, here, for [`edit_cut`] and
/// [`fork_cut`] alike.
enum Step<'a, K: Clone> {
    /// Nothing to do: `t` stays.
    Same,
    /// `t` is the empty treap or a block: kept and merged whole
    /// ([`keep_merge`]).
    Merge,
    /// A node the emitter does not [`own`](Emit::owns): its answer is
    /// built ([`Build`]) and put whole.
    Copy,
    /// Both sides are built, and the node's answer is made over them.
    Build(Whole, [Side<'a, K>; 2]),
    /// The node stays, over its sides' answers ([`Emit::open`]).
    Open(&'a Arc<Node<K>>, [Side<'a, K>; 2]),
}

/// How a [`Step::Build`] makes its answer over its two built sides.
enum Whole {
    /// `run`'s entry at this index beats the node: it is the new root
    /// over `t` split at its key.
    Root(usize),
    /// The node's key is deleted: its sides are joined, and `run`'s
    /// entries in this span — its key, inserted again, if it is — go in.
    Join(Range<usize>),
}

impl Whole {
    fn over<K: Key>(&self, run: &[Entry<K>], l: Complete<K>, r: Complete<K>) -> Complete<K> {
        match self {
            Whole::Root(i) => Complete::node(run[*i].0.clone(), run[*i].1, l, r),
            Whole::Join(again) => {
                let joined = join_plain(&l, &r);
                edit_cut(&mut Build, &joined, &[], &run[again.clone()], None)
            }
        }
    }
}

/// One side of a node's job: its subtreap, the spans of `keys` and `run`
/// that fall on it, and the index of `run`'s winner in its span, if the
/// cut kept it there.
struct Side<'a, K: Clone> {
    t: Cow<'a, Complete<K>>,
    keys: Range<usize>,
    run: Range<usize>,
    winner: Option<usize>,
}

impl<K: Key> Side<'_, K> {
    /// [`edit_cut`] of this side of the job on `keys` and `run`.
    fn cut<E: Emit<K>>(&self, e: &mut E, keys: &[K], run: &[Entry<K>]) -> E::Out {
        let (keys, run) = (&keys[self.keys.clone()], &run[self.run.clone()]);
        edit_cut(e, &self.t, keys, run, self.winner)
    }
}

/// The [`Step`] at `t`. A node stays iff its key is not in `keys` and
/// `run`'s winner — the one at `winner` if a cut left it there, so only
/// the other side rescans — does not beat it; only such a node is opened,
/// and only if `owns` it.
fn step<'a, K: Key>(
    t: &'a Complete<K>,
    keys: &[K],
    run: &[Entry<K>],
    winner: Option<usize>,
    owns: impl FnOnce(&Arc<Node<K>>) -> bool,
) -> Step<'a, K> {
    if keys.is_empty() && run.is_empty() {
        return Step::Same;
    }
    let Complete::Node(n) = t else {
        return Step::Merge;
    };
    if !owns(n) {
        return Step::Copy;
    }
    let side = |t, keys, run, winner| Side {
        t,
        keys,
        run,
        winner,
    };
    let winner = (!run.is_empty()).then(|| winner.unwrap_or_else(|| top(run)));
    if let Some(i) = winner.filter(|&i| wins(&run[i].0, run[i].1, &n.key, n.prio)) {
        let (l, r, _dup) = split_plain(t, &run[i].0);
        let [lk, _, rk] = cut(keys, &run[i].0, |k| k);
        let sides = [
            side(Cow::Owned(l), lk, 0..i, None),
            side(Cow::Owned(r), rk, i + 1..run.len(), None),
        ];
        return Step::Build(Whole::Root(i), sides);
    }
    let [lk, hit, rk] = cut(keys, &n.key, |k| k);
    let [lr, again, rr] = cut(run, &n.key, |e| &e.0);
    let lw = winner.filter(|&i| i < lr.end);
    let rw = winner.and_then(|i| i.checked_sub(rr.start));
    let sides = [
        side(Cow::Borrowed(&n.left), lk, lr, lw),
        side(Cow::Borrowed(&n.right), rk, rr, rw),
    ];
    if !hit.is_empty() {
        return Step::Build(Whole::Join(again), sides);
    }
    Step::Open(n, sides)
}

/// [`edit_run`] below its one [`merges`] question, told the index of
/// `run`'s winner when a cut left it there: the [`Step`] at `t`, taken.
fn edit_cut<K: Key, E: Emit<K>>(
    e: &mut E,
    t: &Complete<K>,
    keys: &[K],
    run: &[Entry<K>],
    winner: Option<usize>,
) -> E::Out {
    match step(t, keys, run, winner, |n| e.owns(n)) {
        Step::Same => e.same(t),
        Step::Merge => e.put(t, keep_merge(t, keys, run)),
        Step::Copy => {
            let built = edit_cut(&mut Build, t, keys, run, winner);
            e.put(t, built)
        }
        Step::Build(whole, [a, b]) => {
            let (l, r) = (a.cut(&mut Build, keys, run), b.cut(&mut Build, keys, run));
            e.put(t, whole.over(run, l, r))
        }
        Step::Open(n, [a, b]) => {
            let at = e.open();
            let l = a.cut(e, keys, run);
            let r = b.cut(e, keys, run);
            e.leave(at, n, l, r)
        }
    }
}

/// A run-kernel job that can cross a fork: a subtreap, and spans of the
/// shared sorted runs of keys to delete and entries to insert.
#[derive(Clone)]
struct Job<K> {
    t: Complete<K>,
    keys: Arc<[K]>,
    k: Range<usize>,
    run: Arc<[Entry<K>]>,
    r: Range<usize>,
    winner: Option<usize>,
}

impl<K: Key> Job<K> {
    fn new(t: Complete<K>, keys: Arc<[K]>, run: Arc<[Entry<K>]>) -> Self {
        let (k, r) = (0..keys.len(), 0..run.len());
        Job {
            t,
            keys,
            k,
            run,
            r,
            winner: None,
        }
    }

    /// The job of one side of this job's node.
    fn side(&self, s: Side<'_, K>) -> Self {
        let within = |at: &Range<usize>, s: Range<usize>| at.start + s.start..at.start + s.end;
        Job {
            t: s.t.into_owned(),
            keys: Arc::clone(&self.keys),
            k: within(&self.k, s.keys),
            run: Arc::clone(&self.run),
            r: within(&self.r, s.run),
            winner: s.winner,
        }
    }
}

/// [`edit_cut`] of `job` with the emitter `e`, forked on engine `B`: a job
/// [`within_grain`] is cut as plain code, and above it the two sides of a
/// built or opened node are [`both`] forked, each answered by an emitter
/// of its own that the node then [`graft`](Emit::graft)s. Writes the
/// emitter and its answer to `out`.
fn fork_cut<B: PipeBackend, K: Key, E: Emit<K>>(
    bk: &B,
    mut e: E,
    job: Job<K>,
    out: B::Wr<Handoff<(E, E::Out)>>,
) {
    let (keys, run) = (&job.keys[job.k.clone()], &job.run[job.r.clone()]);
    let fork = !within_grain::<B>(job.t.size(), keys.len() + run.len());
    match fork.then(|| step(&job.t, keys, run, job.winner, |n| e.owns(n))) {
        Some(Step::Copy) => {
            let (w, built) = bk.cell();
            fork_cut(bk, Build, job.clone(), w);
            bk.touch(&built, move |bk, built: Handoff<_>| {
                let got = e.put(&job.t, built.take().1);
                bk.fulfill(out, Handoff::new((e, got)));
            });
        }
        Some(Step::Build(whole, [a, b])) => {
            let (a, b) = (job.side(a), job.side(b));
            both(bk, (Build, a), (Build, b), move |bk, (_, l), (_, r)| {
                let got = e.put(&job.t, whole.over(&job.run[job.r.clone()], l, r));
                bk.fulfill(out, Handoff::new((e, got)));
            });
        }
        Some(Step::Open(n, [a, b])) => {
            let (n, a, b) = (Arc::clone(n), job.side(a), job.side(b));
            let at = e.open();
            let sides = (e.side(), e.side());
            both(bk, (sides.0, a), (sides.1, b), move |bk, l, r| {
                let (l, r) = (e.graft(l.0, l.1), e.graft(r.0, r.1));
                let got = e.leave(at, &n, l, r);
                bk.fulfill(out, Handoff::new((e, got)));
            });
        }
        _ => {
            let got = edit_cut(&mut e, &job.t, keys, run, job.winner);
            bk.fulfill(out, Handoff::new((e, got)));
        }
    }
}

/// Fork the jobs `a` and `b`, each with its emitter, and run `k` on their
/// emitters and answers once both are in: the run kernel's one join.
#[allow(clippy::type_complexity)]
fn both<B: PipeBackend, K: Key, E: Emit<K>>(
    bk: &B,
    (ea, a): (E, Job<K>),
    (eb, b): (E, Job<K>),
    k: impl FnOnce(&B, (E, E::Out), (E, E::Out)) + Send + 'static,
) {
    let ((wa, fa), (wb, fb)) = (bk.cell(), bk.cell());
    bk.fork2(
        move |bk| fork_cut(bk, ea, a, wa),
        move |bk| fork_cut(bk, eb, b, wb),
    );
    bk.touch(&fa, move |bk, l: Handoff<_>| {
        bk.touch(&fb, move |bk, r: Handoff<_>| k(bk, l.take(), r.take()));
    });
}

/// `xs`, sorted by `key` with no key twice, cut at `at`: the spans of the
/// part below it, of the one element with key `at` if there is one, and of
/// the part above it.
fn cut<T, K: Ord>(xs: &[T], at: &K, key: impl Fn(&T) -> &K) -> [Range<usize>; 3] {
    let below = xs.partition_point(|x| key(x) < at);
    let above = below + usize::from(xs.get(below).is_some_and(|x| key(x) == at));
    [0..below, below..above, above..xs.len()]
}

/// The complete treap of `t`'s entries whose keys are not in `keys`,
/// united with `run` by one two-finger [`merge`]: `t` itself if that
/// changes nothing.
fn keep_merge<K: Key>(t: &Complete<K>, keys: &[K], run: &[Entry<K>]) -> Complete<K> {
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
fn keep<K: Key>(t: &Complete<K>, keeps: impl Fn(&K) -> bool) -> Complete<K> {
    if let Complete::Block(x) = t {
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
    Complete::from_sorted(&x)
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
    if let Some(t) = plainly(&t) {
        let (l, r, found) = split_plain(t, &s);
        bk.fulfill(lout, Treap::Done(l));
        bk.fulfill(rout, Treap::Done(r));
        bk.fulfill(fout, found);
        return;
    }
    bk.tick(1); // match + compare
    if t.is_leaf() {
        bk.fulfill(lout, Treap::Done(Complete::Leaf));
        bk.fulfill(rout, Treap::Done(Complete::Leaf));
        bk.fulfill(fout, false);
        return;
    }
    let (key, prio, left, right) = parts(&t);
    if s == key {
        // Found: both sides are the children, written strictly (a write
        // is strict on the value, so touch first).
        left.touch(bk, move |bk, lv| {
            bk.fulfill(lout, lv);
            right.touch(bk, move |bk, rv| {
                bk.fulfill(rout, rv);
                bk.fulfill(fout, true);
            });
        });
    } else if s < key {
        let (rp1, rf1) = bk.cell();
        bk.fulfill(rout, Treap::pending(key, prio, Child::Cell(rf1), right));
        left.touch(bk, move |bk, lt| splitm(bk, s, lt, lout, rp1, fout));
    } else {
        let (lp1, lf1) = bk.cell();
        bk.fulfill(lout, Treap::pending(key, prio, left, Child::Cell(lf1)));
        right.touch(bk, move |bk, rt| splitm(bk, s, rt, lp1, rout, fout));
    }
}

/// `join(l, r)` (Figure 7): concatenate two treaps where every key of `l`
/// is smaller than every key of `r`. Takes already-touched root values;
/// the recursion forks so the result spine pipelines upward — the
/// ρ-value analysis of Lemma 3.10.
pub fn join<B: PipeBackend, K: Key>(bk: &B, l: Treap<B, K>, r: Treap<B, K>, out: TreapWr<B, K>) {
    if let (Some(l), Some(r)) = (plainly(&l), plainly(&r)) {
        bk.fulfill(out, Treap::Done(join_plain(l, r)));
        return;
    }
    bk.tick(1);
    if l.is_leaf() || r.is_leaf() {
        bk.fulfill(out, if l.is_leaf() { r } else { l });
        return;
    }
    let (jp, jf) = bk.cell();
    if wins_over(l.root(), r.root()) {
        let (key, prio, left, right) = parts(&l);
        bk.fulfill(out, Treap::pending(key, prio, left, Child::Cell(jf)));
        bk.fork(move |bk| {
            right.touch(bk, move |bk, rv| join(bk, rv, r, jp));
        });
    } else {
        let (key, prio, left, right) = parts(&r);
        bk.fulfill(out, Treap::pending(key, prio, Child::Cell(jf), right));
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
            if let Some((x, y)) = fuses(&av, &bv) {
                let (small, big) = if x.size() <= y.size() { (x, y) } else { (y, x) };
                bk.fulfill(out, Treap::Done(apply_run(big, &[], &entries(small))));
                return;
            }
            bk.tick(1);
            if bv.is_leaf() {
                bk.fulfill(out, av);
                return;
            }
            let (w, loser) = if wins_over(av.root(), bv.root()) {
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
            bk.fulfill(out, Treap::Done(Complete::Leaf));
            return;
        }
        bk.touch(&b, move |bk, bv| {
            if let Some((a, b)) = fuses(&av, &bv) {
                let got = if looks_up(a.size(), b.size()) {
                    keep(a, |k| !b.contains(k))
                } else {
                    edit_run(&mut Build, a, &b.to_sorted_vec(), &[])
                };
                bk.fulfill(out, Treap::Done(got));
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
    /// run plain code — both operands complete, the estimate within the
    /// grain, to the key — and a run is merged whole exactly when it is
    /// more than half the treap. (What the plain code builds, the algorithm
    /// suite checks against its oracle: pf-algs' `tests/prop.rs` and the
    /// size-rule pairs of `pf_tests::SetOps`.)
    fn within_grain_is_the_plain_rule<B: PipeBackend>() {
        let t = |n: i64| {
            let e: Vec<Entry<i64>> = (0..n).map(|k| (k, splitmix64(k as u64))).collect();
            Treap::<B, i64>::Done(Complete::from_sorted(&e))
        };
        // Equal sizes make the estimate the size itself.
        let grain = B::GRAIN as usize;
        for (n, fits) in [(120, true), (grain, true), (grain + 1, false)] {
            assert_eq!(within_grain::<B>(n, n), fits, "{n} keys a side");
        }
        // A big operand against a small one still fits; a pending one
        // never does, on either side.
        assert!(within_grain::<B>(50 * grain, 1) && within_grain::<B>(1, 50 * grain));
        let leaf = || Child::Done(Complete::Leaf);
        let pending = Treap::<B, i64>::pending(7, 9, leaf(), leaf());
        assert!(fuses(&t(1), &t(50 * grain as i64)).is_some());
        assert!(fuses(&pending, &t(1)).is_none() && fuses(&t(1), &pending).is_none());
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
    /// counts, more than 32 keys under every node of a complete treap, and
    /// blocks that are nonempty, at most 32 keys, in key order and beaten by
    /// the node above them. A pending node counts nothing and may hold a
    /// written cell, a pending node below it, or a single key. The
    /// simulator, which never cuts, holds no complete subtreap but the
    /// empty one.
    #[test]
    fn check_invariants_rejects_a_false_size() {
        type T = Treap<Seq, i64>;
        type C = Complete<i64>;
        let block = |keys: Range<i64>| C::Block(keys.map(|k| (k, 5)).collect());
        let (lo, hi) = (|| block(0..20), || block(21..41));
        let node = |key, size, left, right| {
            let prio = 9;
            C::Node(Arc::new(Node {
                key,
                prio,
                size,
                left,
                right,
            }))
        };
        let done = Child::Done;
        Seq::run(|bk| {
            assert!(node(20, 41, lo(), hi()).check_invariants());
            assert!(T::pending(20, 9, done(lo()), done(hi())).check_invariants());
            assert!(
                !node(20, 40, lo(), hi()).check_invariants(),
                "inexact count"
            );
            let written = Child::Cell(bk.input(T::Done(hi())));
            assert!(T::pending(20, 9, done(lo()), written).check_invariants());
            let split = T::pending(30, 6, done(block(21..30)), done(block(31..41)));
            let below = Child::Cell(bk.input(split));
            assert!(T::pending(20, 9, done(lo()), below).check_invariants());
            // A node of at most 32 keys is a block by the rule.
            assert!(!node(1, 1, C::Leaf, C::Leaf).check_invariants());
            assert!(T::pending(1, 9, done(C::Leaf), done(C::Leaf)).check_invariants());
            // Blocks: empty, oversize, out of key order, or with an entry
            // that beats the node above it.
            assert!(block(0..32).check_invariants() && !block(0..33).check_invariants());
            assert!(!block(0..0).check_invariants());
            assert!(!C::Block(Arc::from([(2, 5), (1, 5)])).check_invariants());
            let usurper = C::Block((0..20).map(|k| (k, if k == 7 { 10 } else { 5 })).collect());
            assert!(!node(20, 41, usurper, hi()).check_invariants());
        });
        // The simulator, which never cuts, builds no complete subtreap but
        // the empty one: not a block, at the root or below a pending node.
        type S = Treap<Ctx, i64>;
        let one = || Complete::Block(Arc::from([(1, 5)]));
        assert!(!S::Done(one()).check_invariants());
        assert!(!S::pending(2, 9, Child::Done(one()), Child::Done(C::Leaf)).check_invariants());
        assert!(S::pending(2, 9, Child::Done(C::Leaf), Child::Done(C::Leaf)).check_invariants());
    }
}
