//! Binary search trees with **futures as child pointers** — the data
//! representation that makes implicit pipelining possible (§3.1).
//!
//! A consumer holding a [`Tree`] node can read its key and hand each child
//! future to a further consumer *before the producer has materialized the
//! child*: "if an operation examines the head of a linked list to get a
//! pointer to the second element, the operation is strict on the head but
//! not the second or any other element. We make significant use of this
//! property" (§2).
//!
//! The tree is generic over the engine `B`: the children are
//! `B::Fut<Tree<B, K>>` cells, so the same node type is a simulator tree, a
//! runtime tree, or an oracle tree depending on the instantiation.

use std::sync::Arc;

use crate::{Key, PipeBackend, Val};

/// Shorthand for the future of a subtree on engine `B`.
pub type TreeFut<B, K> = <B as PipeBackend>::Fut<Tree<B, K>>;
/// Shorthand for the write pointer of a subtree cell on engine `B`.
pub type TreeWr<B, K> = <B as PipeBackend>::Wr<Tree<B, K>>;

/// A binary search tree whose children are future cells of engine `B`.
pub enum Tree<B: PipeBackend, K: Val> {
    /// The empty tree.
    Leaf,
    /// An interior node (shared, immutable).
    Node(Arc<Node<B, K>>),
}

/// An interior node of a [`Tree`].
pub struct Node<B: PipeBackend, K: Val> {
    /// The key stored at this node.
    pub key: K,
    /// Future of the left subtree (keys `< key`).
    pub left: TreeFut<B, K>,
    /// Future of the right subtree (keys `> key`).
    pub right: TreeFut<B, K>,
}

impl<B: PipeBackend, K: Val> Clone for Tree<B, K> {
    fn clone(&self) -> Self {
        match self {
            Tree::Leaf => Tree::Leaf,
            Tree::Node(n) => Tree::Node(Arc::clone(n)),
        }
    }
}

impl<B: PipeBackend, K: Key> Tree<B, K> {
    /// Construct an interior node.
    pub fn node(key: K, left: TreeFut<B, K>, right: TreeFut<B, K>) -> Self {
        Tree::Node(Arc::new(Node { key, left, right }))
    }

    /// Is this the empty tree?
    pub fn is_leaf(&self) -> bool {
        matches!(self, Tree::Leaf)
    }

    /// Read a finished child cell (post-run inspection).
    ///
    /// # Panics
    /// If the cell is still unwritten.
    pub fn expect(f: &TreeFut<B, K>) -> Tree<B, K> {
        B::peek(f).expect("tree cell not written: the run has not quiesced")
    }

    /// Build a balanced tree from a sorted slice using **free** pre-written
    /// cells ([`PipeBackend::input`]) — input construction must not pollute
    /// the measured cost of the algorithm under test.
    pub fn from_sorted(bk: &B, sorted: &[K]) -> Tree<B, K> {
        if sorted.is_empty() {
            return Tree::Leaf;
        }
        let mid = sorted.len() / 2;
        let left = Self::from_sorted(bk, &sorted[..mid]);
        let right = Self::from_sorted(bk, &sorted[mid + 1..]);
        let lf = bk.input(left);
        let rf = bk.input(right);
        Tree::node(sorted[mid].clone(), lf, rf)
    }

    /// Post-run inspection: collect the keys in symmetric order. Iterative,
    /// so even very tall trees stay clear of the native stack.
    ///
    /// # Panics
    /// If any child cell is still unwritten.
    pub fn to_sorted_vec(&self) -> Vec<K> {
        enum Frame<B: PipeBackend, K: Val> {
            Tree(Tree<B, K>),
            Key(K),
        }
        let mut out = Vec::new();
        let mut stack = vec![Frame::Tree(self.clone())];
        while let Some(f) = stack.pop() {
            match f {
                Frame::Key(k) => out.push(k),
                Frame::Tree(Tree::Leaf) => {}
                Frame::Tree(Tree::Node(n)) => {
                    stack.push(Frame::Tree(Self::expect(&n.right)));
                    stack.push(Frame::Key(n.key.clone()));
                    stack.push(Frame::Tree(Self::expect(&n.left)));
                }
            }
        }
        out
    }

    /// Post-run inspection: number of keys.
    pub fn size(&self) -> usize {
        match self {
            Tree::Leaf => 0,
            Tree::Node(n) => 1 + Self::expect(&n.left).size() + Self::expect(&n.right).size(),
        }
    }

    /// Post-run inspection: height (empty tree has height 0, a single node
    /// height 1) — the paper's `h(T)` up to the off-by-one convention.
    pub fn height(&self) -> usize {
        match self {
            Tree::Leaf => 0,
            Tree::Node(n) => {
                1 + Self::expect(&n.left)
                    .height()
                    .max(Self::expect(&n.right).height())
            }
        }
    }

    /// Post-run inspection: is this a valid BST with strictly increasing
    /// keys in symmetric order?
    pub fn is_search_tree(&self) -> bool {
        let keys = self.to_sorted_vec();
        keys.windows(2).all(|w| w[0] < w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seq;
    use pf_core::{Ctx, Sim};

    fn keys(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| 2 * i).collect()
    }

    #[test]
    fn from_sorted_shape_on_oracle() {
        let t = Seq::run(|bk| Tree::from_sorted(bk, &keys(127)));
        assert_eq!(t.size(), 127);
        assert_eq!(t.height(), 7, "127 nodes must pack into height 7");
        assert!(t.is_search_tree());
        assert_eq!(t.to_sorted_vec(), keys(127));
    }

    #[test]
    fn empty_and_single() {
        let (e, s) = Seq::run(|bk| {
            (
                Tree::<Seq, i64>::from_sorted(bk, &[]),
                Tree::from_sorted(bk, &[5i64]),
            )
        });
        assert!(e.is_leaf());
        assert_eq!(e.height(), 0);
        assert_eq!(s.size(), 1);
        assert_eq!(s.height(), 1);
    }

    #[test]
    fn preload_balanced_shape() {
        let (t, r) = Sim::new().run(|ctx| Tree::from_sorted(ctx, &keys(127)));
        assert_eq!(r.work, 0, "input construction must be free");
        assert_eq!(t.size(), 127);
        assert_eq!(t.height(), 7, "127 nodes must pack into height 7");
        assert!(t.is_search_tree());
        assert_eq!(t.to_sorted_vec(), keys(127));
    }

    #[test]
    fn empty_tree() {
        let (t, _) = Sim::new().run(|ctx| Tree::<Ctx, i64>::from_sorted(ctx, &[]));
        assert!(t.is_leaf());
        assert_eq!(t.size(), 0);
        assert_eq!(t.height(), 0);
        assert!(t.to_sorted_vec().is_empty());
    }

    #[test]
    fn single_node() {
        let (t, _) = Sim::new().run(|ctx| Tree::from_sorted(ctx, &[5i64]));
        assert_eq!(t.size(), 1);
        assert_eq!(t.height(), 1);
    }
}
