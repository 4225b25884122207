//! Shared helpers for the cross-crate integration tests.

use std::collections::BTreeSet;
use std::sync::Arc;

use pf_algs::plain::{Entry, PlainTreap};
use pf_algs::treap::{Child, Treap, TreapNode};
use pf_rt::{ready, FutRead, Worker};

/// The generic treap on the runtime's engine.
pub type RTreap<K> = Treap<Worker, K>;

/// A starter at `B = Worker` as one session of a runtime: its finished
/// result and the session's stats.
pub use pf_bench::baselines::on_rt;

/// Sorted union of two entry lists' keys.
pub fn oracle_union(a: &[Entry<i64>], b: &[Entry<i64>]) -> Vec<i64> {
    let s: BTreeSet<i64> = a.iter().chain(b.iter()).map(|e| e.0).collect();
    s.into_iter().collect()
}

/// Sorted difference (a minus b) of two entry lists' keys.
pub fn oracle_diff(a: &[Entry<i64>], b: &[Entry<i64>]) -> Vec<i64> {
    let bs: BTreeSet<i64> = b.iter().map(|e| e.0).collect();
    let s: BTreeSet<i64> = a.iter().map(|e| e.0).filter(|k| !bs.contains(k)).collect();
    s.into_iter().collect()
}

/// Sorted merge of two disjoint sorted key lists.
pub fn oracle_merge(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut v: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
    v.sort_unstable();
    v
}

/// Deterministic entries from a key iterator (priorities hashed from keys).
pub fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
    keys.into_iter()
        .map(|k| (k, pf_algs::plain::splitmix64(k as u64 ^ 0xDEAD_BEEF)))
        .collect()
}

/// A pf-rt treap input with no node sized and every child a written
/// cell, as a pipelined producer would have published it. pf-rt cuts below
/// its grain when its operands are complete, so a test that ties the
/// runtime to the paper's exact fork structure (`spawns` equal to the cost
/// model's `forks`, suspension counts per policy) feeds it these instead
/// of complete ones.
pub fn unsized_ready(entries: &[Entry<i64>]) -> FutRead<RTreap<i64>> {
    crusted_ready(entries, None)
}

/// A complete pf-rt treap input (every node sized, no cell), built with
/// no worker in hand: what `Treap::from_entries` builds inside a session.
pub fn complete_ready(entries: &[Entry<i64>]) -> FutRead<RTreap<i64>> {
    crusted_ready(entries, Some(0))
}

/// A pf-rt treap input whose unsized top reaches `crust` levels deep:
/// `None` is [`unsized_ready`]'s treap, `Some(0)` [`complete_ready`]'s, and
/// `Some(d)` has `d` levels of unsized nodes, each over one written cell
/// and one directly held complete subtree, above complete ones — the mixed
/// shapes a larger-than-grain operation leaves behind.
pub fn crusted_ready(entries: &[Entry<i64>], crust: Option<usize>) -> FutRead<RTreap<i64>> {
    fn convert(t: &Option<Box<PlainTreap<i64>>>, crust: Option<usize>) -> RTreap<i64> {
        let Some(n) = t else { return RTreap::Leaf };
        let cell = |t, crust| Child::Cell(ready(convert(t, crust)));
        let (left, right) = match crust {
            None => (cell(&n.left, None), cell(&n.right, None)),
            Some(0) => return RTreap::from_plain_complete(t),
            Some(d) => {
                let done = |t| Child::Done(RTreap::from_plain_complete(t));
                if d % 2 == 0 {
                    (cell(&n.left, Some(d - 1)), done(&n.right))
                } else {
                    (done(&n.left), cell(&n.right, Some(d - 1)))
                }
            }
        };
        RTreap::Node(Arc::new(TreapNode {
            key: n.key,
            prio: n.prio,
            size: 0,
            left,
            right,
        }))
    }
    ready(convert(&PlainTreap::from_entries(entries), crust))
}
