//! Treap union and difference (§3.2–3.3) on the real runtime.
//!
//! The algorithm text lives once, engine-generically, in
//! [`pf_algs::treap`]; this module instantiates it at `B = `[`Worker`].
//! Same tie-break rule as the cost-model instantiation, so the result
//! shapes agree across backends — checked by the integration tests.

use pf_algs::Mode;
use pf_rt::{FutRead, FutWrite, Worker};
use pf_trees::seq::{Entry, PlainTreap};

use crate::RKey;

/// A treap on the runtime: complete nodes hold their children directly,
/// nodes published ahead of their children hold runtime future cells.
pub type RTreap<K> = pf_algs::treap::Treap<Worker, K>;

/// Interior node of an [`RTreap`].
pub type RTreapNode<K> = pf_algs::treap::TreapNode<Worker, K>;

/// A child of an [`RTreapNode`].
pub type RChild<K> = pf_algs::treap::Child<Worker, K>;

// A node is one allocation whether its children are held directly or are
// cells: an `Arc<RTreapNode<i64>>` (two counters + key, priority, size and
// two tagged pointers) fits the 72 usable bytes of an 80-byte malloc chunk
// — where a complete node used to be a 64-byte chunk plus a 48-byte born-
// written cell per child.
const _: () =
    assert!(std::mem::size_of::<RTreapNode<i64>>() + 2 * std::mem::size_of::<usize>() <= 72);

/// Offline (no worker) constructors for [`RTreap`].
pub trait RtTreap<K: RKey>: Sized {
    /// Convert a sequential treap: every node complete, one allocation
    /// each, no cell.
    fn from_plain_ready(t: &Option<Box<PlainTreap<K>>>) -> Self;

    /// Build from entries via the sequential treap.
    fn from_entries_ready(entries: &[Entry<K>]) -> Self;
}

impl<K: RKey> RtTreap<K> for RTreap<K> {
    fn from_plain_ready(t: &Option<Box<PlainTreap<K>>>) -> Self {
        match t {
            None => RTreap::Leaf,
            Some(n) => RTreap::node_sized(
                n.key.clone(),
                n.prio,
                Self::from_plain_ready(&n.left),
                Self::from_plain_ready(&n.right),
            ),
        }
    }

    fn from_entries_ready(entries: &[Entry<K>]) -> Self {
        Self::from_plain_ready(&PlainTreap::from_entries(entries))
    }
}

/// `splitm(s, t)` in CPS (Figure 4): keys `< s` to `lout`, keys `> s` to
/// `rout`, `s` excluded; `fout` reports whether `s` was found.
pub fn splitm<K: RKey>(
    wk: &Worker,
    s: K,
    t: RTreap<K>,
    lout: FutWrite<RTreap<K>>,
    rout: FutWrite<RTreap<K>>,
    fout: FutWrite<bool>,
) {
    pf_algs::treap::splitm(wk, s, t, lout, rout, fout);
}

/// `join(l, r)` in CPS (Figure 7): concatenate two touched treap values
/// with all of `l`'s keys below all of `r`'s.
pub fn join<K: RKey>(wk: &Worker, l: RTreap<K>, r: RTreap<K>, out: FutWrite<RTreap<K>>) {
    pf_algs::treap::join(wk, l, r, out);
}

/// `union(a, b)` in CPS (Figure 4).
pub fn union<K: RKey>(
    wk: &Worker,
    a: FutRead<RTreap<K>>,
    b: FutRead<RTreap<K>>,
    out: FutWrite<RTreap<K>>,
) {
    pf_algs::treap::union(wk, a, b, out, Mode::Pipelined);
}

/// `diff(a, b)` in CPS (Figure 7): keys of `a` not in `b`.
pub fn diff<K: RKey>(
    wk: &Worker,
    a: FutRead<RTreap<K>>,
    b: FutRead<RTreap<K>>,
    out: FutWrite<RTreap<K>>,
) {
    pf_algs::treap::diff(wk, a, b, out, Mode::Pipelined);
}

/// Collapse `k` batch treap futures into one with a balanced **union
/// tree** (⌈lg k⌉ levels of pairwise [`union`]s, each pipelining into the
/// next): the apply plan for a coalescing ingress queue — see
/// [`pf_algs::treap::union_many`]. `k = 0` yields a ready `Leaf`.
pub fn union_many<K: RKey>(wk: &Worker, futs: Vec<FutRead<RTreap<K>>>) -> FutRead<RTreap<K>> {
    pf_algs::treap::union_many(wk, futs, Mode::Pipelined)
}

/// `intersect(a, b)` in CPS: keys in both treaps (dual of [`diff`]).
pub fn intersect<K: RKey>(
    wk: &Worker,
    a: FutRead<RTreap<K>>,
    b: FutRead<RTreap<K>>,
    out: FutWrite<RTreap<K>>,
) {
    pf_algs::treap::intersect(wk, a, b, out, Mode::Pipelined);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_rt::{cell, ready, Runtime};
    use pf_trees::seq::splitmix64;

    fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
        keys.into_iter()
            .map(|k| (k, splitmix64(k as u64 ^ 0x5555)))
            .collect()
    }

    fn run_union(a: &[Entry<i64>], b: &[Entry<i64>], threads: usize) -> RTreap<i64> {
        let ta = ready(RTreap::from_entries_ready(a));
        let tb = ready(RTreap::from_entries_ready(b));
        let (op, of) = cell();
        Runtime::new(threads).run(move |wk| union(wk, ta, tb, op));
        of.expect()
    }

    fn run_diff(a: &[Entry<i64>], b: &[Entry<i64>], threads: usize) -> RTreap<i64> {
        let ta = ready(RTreap::from_entries_ready(a));
        let tb = ready(RTreap::from_entries_ready(b));
        let (op, of) = cell();
        Runtime::new(threads).run(move |wk| diff(wk, ta, tb, op));
        of.expect()
    }

    #[test]
    fn union_matches_oracle() {
        let a = entries(0..400);
        let b = entries(200..600);
        let t = run_union(&a, &b, 4);
        assert!(t.check_invariants());
        assert_eq!(t.to_sorted_vec(), (0..600).collect::<Vec<_>>());
        // Shape agreement with the sequential treap.
        let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
        assert_eq!(t.height(), PlainTreap::height(&pu));
    }

    #[test]
    fn union_edge_cases() {
        let e: Vec<Entry<i64>> = vec![];
        let one = entries([3]);
        for (a, b) in [(&e, &e), (&one, &e), (&e, &one)] {
            let t = run_union(a, b, 2);
            let mut expect: Vec<i64> = a.iter().chain(b.iter()).map(|e| e.0).collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(t.to_sorted_vec(), expect);
        }
    }

    #[test]
    fn union_all_thread_counts() {
        let a = entries((0..500).map(|i| 2 * i));
        let b = entries((0..500).map(|i| 2 * i + 1));
        for threads in [1usize, 2, 4, 8] {
            let t = run_union(&a, &b, threads);
            assert_eq!(t.to_sorted_vec().len(), 1000, "threads={threads}");
            assert!(t.check_invariants());
        }
    }

    #[test]
    fn diff_matches_oracle() {
        let a = entries(0..300);
        let b = entries((0..300).filter(|k| k % 3 == 0));
        let t = run_diff(&a, &b, 4);
        assert!(t.check_invariants());
        assert_eq!(
            t.to_sorted_vec(),
            (0..300).filter(|k| k % 3 != 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn diff_complete_overlap() {
        let a = entries(0..100);
        let t = run_diff(&a, &a, 3);
        assert!(t.is_leaf());
    }

    #[test]
    fn intersect_matches_cost_model() {
        let a = entries((0..300).map(|i| 2 * i));
        let b = entries((0..300).map(|i| 3 * i));
        let (model_root, _) = pf_trees::treap::run_intersect(&a, &b, pf_trees::Mode::Pipelined);
        let ta = ready(RTreap::from_entries_ready(&a));
        let tb = ready(RTreap::from_entries_ready(&b));
        let (op, of) = cell();
        Runtime::new(4).run(move |wk| intersect(wk, ta, tb, op));
        let t = of.expect();
        assert!(t.check_invariants());
        assert_eq!(t.to_sorted_vec(), model_root.get().to_sorted_vec());
        assert_eq!(t.height(), model_root.get().height());
    }

    #[test]
    fn union_stress() {
        let a = entries((0..200).map(|i| 3 * i));
        let b = entries((0..200).map(|i| 3 * i + 1));
        let mut expect: Vec<i64> = a.iter().chain(b.iter()).map(|e| e.0).collect();
        expect.sort_unstable();
        for _ in 0..30 {
            let t = run_union(&a, &b, 4);
            assert_eq!(t.to_sorted_vec(), expect);
        }
    }
}
