//! §3.4 — **2-6 trees**: the top-down variant of Paul–Vishkin–Wagener's
//! pipelined 2-3 trees (Theorem 3.13), written once against the
//! [`PipeBackend`] surface.
//!
//! A 2-6 tree stores one to five keys per node (hence two to six children);
//! every key appears exactly once, either as an internal splitter or in a
//! leaf, and all leaves sit at the same level. Inserting `m` sorted keys
//! proceeds in `lg m` waves of *well-separated* key arrays (the levels of
//! the conceptual balanced binary tree over the keys: median, quartiles,
//! octiles, …). Each wave descends top-down, splitting any child that has
//! grown to three or more keys before recursing into it — which keeps the
//! node being inserted into a 2-3 node and bounds every node at five
//! keys / six children.
//!
//! The pipelining (γ-value argument): a wave's insert writes the new root
//! after a *constant* amount of work, so wave `i + 1` can enter the root
//! while wave `i` is still several levels down — O(lg n + lg m) depth
//! overall versus O(lg n · lg m) for strictly sequential waves.
//!
//! The interesting CPS transcription problem: pass 1 of the node rebuild
//! touches *several* children (those that receive keys) before the new
//! node can be published. That becomes a chain of continuations threading
//! an accumulator (`Builder`) through the touches — one hop per child
//! with keys, constant per level, exactly the γ-value costing of
//! Theorem 3.13. Key arrays are manipulated with the paper's `array_split`
//! primitive (O(1) depth, O(len) work — [`PipeBackend::flat`]).

use std::sync::Arc;

use crate::{fork_call, Key, Mode, PipeBackend, Val};

/// Shorthand for the future of a 2-6 subtree on engine `B`.
pub type TsFut<B, K> = <B as PipeBackend>::Fut<TsTree<B, K>>;
/// Shorthand for the write pointer of a 2-6 subtree cell on engine `B`.
pub type TsWr<B, K> = <B as PipeBackend>::Wr<TsTree<B, K>>;

/// A 2-6 tree with future children on engine `B`.
pub enum TsTree<B: PipeBackend, K: Val> {
    /// A leaf holding 1–5 keys (0 keys only for the empty tree).
    Leaf(Arc<Vec<K>>),
    /// An internal node: 1–5 splitter keys, `keys + 1` children.
    Node(Arc<TsNode<B, K>>),
}

/// An internal node of a [`TsTree`].
pub struct TsNode<B: PipeBackend, K: Val> {
    /// Splitter keys, sorted; these are real keys of the set.
    pub keys: Vec<K>,
    /// Children (`keys.len() + 1` of them), as futures.
    pub children: Vec<TsFut<B, K>>,
}

impl<B: PipeBackend, K: Val> Clone for TsTree<B, K> {
    fn clone(&self) -> Self {
        match self {
            TsTree::Leaf(ks) => TsTree::Leaf(Arc::clone(ks)),
            TsTree::Node(n) => TsTree::Node(Arc::clone(n)),
        }
    }
}

impl<B: PipeBackend, K: Key> TsTree<B, K> {
    /// The empty tree.
    pub fn empty() -> Self {
        TsTree::Leaf(Arc::new(Vec::new()))
    }

    fn key_count(&self) -> usize {
        match self {
            TsTree::Leaf(ks) => ks.len(),
            TsTree::Node(n) => n.keys.len(),
        }
    }

    /// Read a finished cell (post-run inspection).
    ///
    /// # Panics
    /// If the cell is still unwritten.
    pub fn expect(f: &TsFut<B, K>) -> TsTree<B, K> {
        B::peek(f).expect("2-6 tree cell not written: the run has not quiesced")
    }

    /// Post-run inspection: all keys in sorted order (leaf keys and
    /// internal splitters interleaved in symmetric order).
    pub fn to_sorted_vec(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.inorder_into(&mut out);
        out
    }

    fn inorder_into(&self, out: &mut Vec<K>) {
        match self {
            TsTree::Leaf(ks) => out.extend(ks.iter().cloned()),
            TsTree::Node(n) => {
                for i in 0..n.children.len() {
                    Self::expect(&n.children[i]).inorder_into(out);
                    if i < n.keys.len() {
                        out.push(n.keys[i].clone());
                    }
                }
            }
        }
    }

    /// Post-run inspection: number of keys stored.
    pub fn size(&self) -> usize {
        match self {
            TsTree::Leaf(ks) => ks.len(),
            TsTree::Node(n) => {
                n.keys.len()
                    + n.children
                        .iter()
                        .map(|c| Self::expect(c).size())
                        .sum::<usize>()
            }
        }
    }

    /// Post-run inspection: number of levels (a lone leaf is height 0).
    pub fn height(&self) -> usize {
        match self {
            TsTree::Leaf(_) => 0,
            TsTree::Node(n) => 1 + Self::expect(&n.children[0]).height(),
        }
    }

    /// Post-run inspection: check every 2-6 tree invariant. Returns a
    /// description of the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let keys = self.to_sorted_vec();
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err("keys not strictly increasing in symmetric order".into());
        }
        fn rec<B: PipeBackend, K: Key>(t: &TsTree<B, K>, is_root: bool) -> Result<usize, String> {
            match t {
                TsTree::Leaf(ks) => {
                    if ks.is_empty() && !is_root {
                        return Err("empty non-root leaf".into());
                    }
                    if ks.len() > 5 {
                        return Err(format!("leaf with {} keys", ks.len()));
                    }
                    Ok(0)
                }
                TsTree::Node(n) => {
                    if n.keys.is_empty() || n.keys.len() > 5 {
                        return Err(format!("internal node with {} keys", n.keys.len()));
                    }
                    if n.children.len() != n.keys.len() + 1 {
                        return Err(format!(
                            "node with {} keys but {} children",
                            n.keys.len(),
                            n.children.len()
                        ));
                    }
                    let mut depth = None;
                    for c in &n.children {
                        let d = rec(&TsTree::<B, K>::expect(c), false)?;
                        match depth {
                            None => depth = Some(d),
                            Some(prev) if prev != d => {
                                return Err("leaves at different levels".into())
                            }
                            _ => {}
                        }
                    }
                    Ok(depth.expect("at least two children") + 1)
                }
            }
        }
        rec(self, true).map(|_| ())
    }

    /// Build a valid 2-6 tree from sorted distinct keys as **free** input
    /// cells ([`PipeBackend::input`]). Leaves get one or two keys, internal
    /// nodes two or three children — a well-filled tree with insertion
    /// slack.
    pub fn from_sorted(bk: &B, keys: &[K]) -> TsTree<B, K> {
        if keys.is_empty() {
            return TsTree::empty();
        }
        // Height: smallest h with n <= 3^(h+1) - 1 (capacity with <= 2
        // keys per leaf and <= 2 keys per internal node).
        let mut h = 0usize;
        let mut cap = 2usize; // 3^(h+1) - 1 for h = 0
        while keys.len() > cap {
            h += 1;
            cap = cap * 3 + 2;
        }
        Self::build_h(bk, keys, h)
    }

    fn build_h(bk: &B, keys: &[K], h: usize) -> TsTree<B, K> {
        if h == 0 {
            debug_assert!((1..=2).contains(&keys.len()));
            return TsTree::Leaf(Arc::new(keys.to_vec()));
        }
        // min/max keys a subtree of height h-1 can hold:
        let min_keys = (1usize << h) - 1; // 2^h - 1
        let max_keys = 3usize.pow(h as u32) - 1; // 3^h - 1
        let n = keys.len();
        // Prefer 2 children, fall back to 3.
        let c = if n > 2 * min_keys && n <= 2 * max_keys + 1 {
            2
        } else {
            debug_assert!(
                n >= 3 * min_keys + 2 && n <= 3 * max_keys + 2,
                "no feasible fanout for n={n}, h={h}"
            );
            3
        };
        let mut sizes = vec![min_keys; c];
        let mut rem = n - (c - 1) - c * min_keys;
        for s in sizes.iter_mut() {
            let add = rem.min(max_keys - min_keys);
            *s += add;
            rem -= add;
        }
        debug_assert_eq!(rem, 0);
        let mut node_keys = Vec::with_capacity(c - 1);
        let mut children = Vec::with_capacity(c);
        let mut at = 0usize;
        for (i, s) in sizes.iter().enumerate() {
            let sub = Self::build_h(bk, &keys[at..at + s], h - 1);
            children.push(bk.input(sub));
            at += s;
            if i < c - 1 {
                node_keys.push(keys[at].clone());
                at += 1;
            }
        }
        TsTree::Node(Arc::new(TsNode {
            keys: node_keys,
            children,
        }))
    }
}

/// The paper's `array_split` primitive: partition a sorted key array by a
/// splitter in O(1) depth, O(len) work ([`PipeBackend::flat`]). Keys equal
/// to the splitter are dropped (the splitter is already in the tree — set
/// semantics).
pub fn array_split<B: PipeBackend, K: Key>(bk: &B, keys: &[K], s: &K) -> (Vec<K>, Vec<K>) {
    bk.flat(keys.len() as u64);
    let less = keys.iter().filter(|k| *k < s).cloned().collect();
    let greater = keys.iter().filter(|k| *k > s).cloned().collect();
    (less, greater)
}

/// Partition sorted `keys` into `splitters.len() + 1` buckets with repeated
/// `array_split`s (one per splitter — a 2-6 node has at most five).
fn partition_keys<B: PipeBackend, K: Key>(bk: &B, keys: Vec<K>, splitters: &[K]) -> Vec<Vec<K>> {
    let mut parts = Vec::with_capacity(splitters.len() + 1);
    let mut rest = keys;
    for s in splitters {
        let (l, g) = array_split(bk, &rest, s);
        parts.push(l);
        rest = g;
    }
    parts.push(rest);
    parts
}

/// Sorted merge of two sorted key vectors, dropping duplicates.
fn sorted_merge_dedup<K: Key>(a: &[K], b: &[K]) -> Vec<K> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            let k = a[i].clone();
            i += 1;
            k
        } else {
            let k = b[j].clone();
            j += 1;
            k
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
    out
}

/// Does this node need a split before we recurse into it? (It must be a
/// 2-3 node — at most two keys — when a wave enters it.)
fn needs_split<B: PipeBackend, K: Key>(t: &TsTree<B, K>) -> bool {
    t.key_count() >= 3
}

/// Split a node with ≥ 3 keys around its middle key: `(left, middle,
/// right)`; both halves are 2-3 nodes.
fn split_node<B: PipeBackend, K: Key>(t: &TsTree<B, K>) -> (TsTree<B, K>, K, TsTree<B, K>) {
    match t {
        TsTree::Leaf(ks) => {
            let mid = ks.len() / 2;
            (
                TsTree::Leaf(Arc::new(ks[..mid].to_vec())),
                ks[mid].clone(),
                TsTree::Leaf(Arc::new(ks[mid + 1..].to_vec())),
            )
        }
        TsTree::Node(n) => {
            let mid = n.keys.len() / 2;
            (
                TsTree::Node(Arc::new(TsNode {
                    keys: n.keys[..mid].to_vec(),
                    children: n.children[..=mid].to_vec(),
                })),
                n.keys[mid].clone(),
                TsTree::Node(Arc::new(TsNode {
                    keys: n.keys[mid + 1..].to_vec(),
                    children: n.children[mid + 1..].to_vec(),
                })),
            )
        }
    }
}

/// Deferred recursive inserts: `(keys, subtree, output cell)` triples,
/// created in pass 1 and forked in pass 2 — after the new node has been
/// published, so the node is available in constant depth.
type Pending<B, K> = Vec<(Vec<K>, TsTree<B, K>, TsWr<B, K>)>;

fn queue_insert<B: PipeBackend, K: Key>(
    bk: &B,
    part: Vec<K>,
    subtree: TsTree<B, K>,
    pending: &mut Pending<B, K>,
) -> TsFut<B, K> {
    if part.is_empty() {
        bk.ready(subtree)
    } else {
        let (p, f) = bk.cell();
        pending.push((part, subtree, p));
        f
    }
}

/// Accumulator threaded through the CPS chain that rebuilds one node:
/// pass 1 touches the children that receive keys (one continuation hop
/// each) and decides the new node's structure; once all buckets are
/// placed, the node is published and the recursive inserts fork.
struct Builder<B: PipeBackend, K: Val> {
    node: Arc<TsNode<B, K>>,
    parts: Vec<Vec<K>>, // one bucket per original child
    i: usize,
    new_keys: Vec<K>,
    new_children: Vec<TsFut<B, K>>,
    pending: Pending<B, K>,
    out: TsWr<B, K>,
}

fn build_step<B: PipeBackend, K: Key>(bk: &B, mut b: Builder<B, K>) {
    while b.i < b.node.children.len() {
        let i = b.i;
        let part = std::mem::take(&mut b.parts[i]);
        if part.is_empty() {
            // Untouched child: reuse the future as-is.
            b.new_children.push(b.node.children[i].clone());
            if i < b.node.keys.len() {
                b.new_keys.push(b.node.keys[i].clone());
            }
            b.i += 1;
            continue;
        }
        // Touch the child, then continue the chain in the continuation.
        let child = b.node.children[i].clone();
        bk.touch(&child, move |bk, cv| {
            bk.tick(1); // split test on the touched child
            if needs_split(&cv) {
                let (l, sep, r) = split_node(&cv);
                bk.tick(1); // the split itself
                let (pl, pr) = array_split(bk, &part, &sep);
                let lf = queue_insert(bk, pl, l, &mut b.pending);
                b.new_children.push(lf);
                b.new_keys.push(sep);
                let rf = queue_insert(bk, pr, r, &mut b.pending);
                b.new_children.push(rf);
            } else {
                let f = queue_insert(bk, part, cv, &mut b.pending);
                b.new_children.push(f);
            }
            if i < b.node.keys.len() {
                b.new_keys.push(b.node.keys[i].clone());
            }
            b.i += 1;
            build_step(bk, b);
        });
        return;
    }
    // All children processed: publish the node, then fork the recursions.
    debug_assert!(b.new_keys.len() <= 5 && b.new_children.len() == b.new_keys.len() + 1);
    bk.tick(1); // allocate the node
    bk.fulfill(
        b.out,
        TsTree::Node(Arc::new(TsNode {
            keys: b.new_keys,
            children: b.new_children,
        })),
    );
    for (part, subtree, p) in b.pending {
        bk.fork(move |bk| insert_val(bk, part, subtree, p));
    }
}

/// Insert a well-separated key array into the node value `t` (which the
/// caller has already touched and, if necessary, split down to a 2-3
/// node). Writes the new node to `out` in constant depth; children are
/// futures filled by forked recursive inserts.
pub fn insert_val<B: PipeBackend, K: Key>(bk: &B, keys: Vec<K>, t: TsTree<B, K>, out: TsWr<B, K>) {
    bk.tick(1);
    if keys.is_empty() {
        bk.fulfill(out, t);
        return;
    }
    match t {
        TsTree::Leaf(existing) => {
            bk.flat((keys.len() + existing.len()) as u64);
            let merged = sorted_merge_dedup(&existing, &keys);
            assert!(
                merged.len() <= 5,
                "leaf overflow ({} keys): key array not well-separated",
                merged.len()
            );
            bk.fulfill(out, TsTree::Leaf(Arc::new(merged)));
        }
        TsTree::Node(n) => {
            debug_assert!(n.keys.len() <= 2, "must insert into a 2-3 node");
            let parts = partition_keys(bk, keys, &n.keys);
            build_step(
                bk,
                Builder {
                    node: n,
                    parts,
                    i: 0,
                    new_keys: Vec::with_capacity(5),
                    new_children: Vec::with_capacity(6),
                    pending: Vec::new(),
                    out,
                },
            );
        }
    }
}

/// Insert one well-separated wave into the tree rooted at `t`, splitting
/// the root first if needed (the only place the tree grows in height).
pub fn insert_wave<B: PipeBackend, K: Key>(bk: &B, keys: Vec<K>, t: TsFut<B, K>, out: TsWr<B, K>) {
    bk.touch(&t, move |bk, tv| {
        bk.tick(1);
        if keys.is_empty() {
            bk.fulfill(out, tv);
            return;
        }
        let tv = if needs_split(&tv) {
            let (l, sep, r) = split_node(&tv);
            bk.tick(1);
            let lf = bk.ready(l);
            let rf = bk.ready(r);
            TsTree::Node(Arc::new(TsNode {
                keys: vec![sep],
                children: vec![lf, rf],
            }))
        } else {
            tv
        };
        insert_val(bk, keys, tv, out);
    });
}

/// Compute the well-separated wave arrays for a sorted key slice: the
/// levels of the conceptual balanced binary tree (median; quartiles; …).
/// Each wave is sorted, and consecutive keys within a wave are separated
/// by a key from an earlier wave.
pub fn level_arrays<K: Key>(keys: &[K]) -> Vec<Vec<K>> {
    fn rec<K: Key>(keys: &[K], lo: usize, hi: usize, d: usize, out: &mut Vec<Vec<K>>) {
        if lo >= hi {
            return;
        }
        if out.len() == d {
            out.push(Vec::new());
        }
        let mid = lo + (hi - lo) / 2;
        out[d].push(keys[mid].clone());
        rec(keys, lo, mid, d + 1, out);
        rec(keys, mid + 1, hi, d + 1, out);
    }
    let mut out = Vec::new();
    rec(keys, 0, keys.len(), 0, &mut out);
    out
}

/// Insert `m` sorted distinct keys into the 2-6 tree behind `t`, one wave
/// per conceptual level, pipelined (or strictly, wave-after-wave, in
/// [`Mode::Strict`]). Returns the future of the final tree.
pub fn insert_many<B: PipeBackend, K: Key>(
    bk: &B,
    keys: &[K],
    t: TsFut<B, K>,
    mode: Mode,
) -> TsFut<B, K> {
    insert_many_with_waves(bk, keys, t, mode)
        .pop()
        .expect("at least the initial tree")
}

/// Like [`insert_many`], but returns the root future of **every** wave
/// (the last element is the final tree). The successive root write times
/// are the γ-values of Theorem 3.13: the proof shows
/// `γ(i+1) ≤ γ(i) + 3·kb`, i.e. bounded increments — experiment E07
/// checks exactly that on the returned futures.
pub fn insert_many_with_waves<B: PipeBackend, K: Key>(
    bk: &B,
    keys: &[K],
    t: TsFut<B, K>,
    mode: Mode,
) -> Vec<TsFut<B, K>> {
    let mut waves_out = vec![t.clone()];
    let mut cur = t;
    for wave in level_arrays(keys) {
        bk.flat(wave.len() as u64); // forming the next well-separated array
        let (p, f) = bk.cell();
        let prev = cur;
        fork_call(bk, mode, move |bk| insert_wave(bk, wave, prev, p));
        waves_out.push(f.clone());
        cur = f;
    }
    waves_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seq;
    use pf_core::{Ctx, Sim};

    fn evens(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| 2 * i).collect()
    }

    #[test]
    fn builder_valid_on_the_oracle() {
        for n in [0usize, 1, 2, 5, 7, 26, 27, 300] {
            let t = Seq::run(|bk| TsTree::<Seq, i64>::from_sorted(bk, &evens(n)));
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(t.to_sorted_vec(), evens(n));
        }
    }

    #[test]
    fn preload_builds_valid_trees() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 20, 26, 27, 80, 81, 500, 1000] {
            let (t, r) = Sim::new().run(|ctx| TsTree::from_sorted(ctx, &evens(n)));
            assert_eq!(r.work, 0);
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(t.size(), n, "n={n}");
            assert_eq!(t.to_sorted_vec(), evens(n), "n={n}");
        }
    }

    #[test]
    fn empty_tree_is_valid() {
        let t = TsTree::<Ctx, i64>::empty();
        t.validate().unwrap();
        assert_eq!(t.size(), 0);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn level_arrays_are_well_separated() {
        let keys: Vec<i64> = (0..100).collect();
        let waves = level_arrays(&keys);
        assert_eq!(waves.iter().map(|w| w.len()).sum::<usize>(), 100);
        assert_eq!(waves[0].len(), 1);
        // Within each wave, between any two consecutive keys there must be
        // a key from an earlier wave.
        let mut earlier: Vec<i64> = Vec::new();
        for w in &waves {
            assert!(w.windows(2).all(|p| p[0] < p[1]), "wave not sorted");
            for pair in w.windows(2) {
                assert!(
                    earlier.iter().any(|k| *k > pair[0] && *k < pair[1]),
                    "no separator between {} and {}",
                    pair[0],
                    pair[1]
                );
            }
            earlier.extend(w.iter().copied());
        }
    }

    #[test]
    fn array_split_semantics() {
        let (out, r) = Sim::new().run(|ctx| array_split(ctx, &[1i64, 3, 5, 7, 9], &5));
        assert_eq!(out.0, vec![1, 3]);
        assert_eq!(out.1, vec![7, 9]); // 5 dropped
        assert_eq!(r.depth, 2);
        assert_eq!(r.work, 6); // 5 units + sink
    }
}
