//! Cole's pipelined (cascading) mergesort — the paper's second flagship
//! example of hand pipelining: "the approach was later used by Cole in
//! the first O(lg n) time sorting algorithm on the PRAM not based on the
//! AKS sorting network" (§1). The conclusions leave open whether futures
//! can express it; experiment E18 puts the two side by side.
//!
//! This is a synchronous **cascade** over a complete binary merge tree,
//! advanced one stage at a time:
//!
//! * a node becomes *complete* three stages after both children are
//!   complete (leaves are complete at stage 0);
//! * every stage, each child sends its parent a **sample** of its current
//!   array: every 4th element while incomplete, then every 4th / 2nd /
//!   1st element in the three stages after completion;
//! * the parent's array for the next stage is the merge of the two
//!   samples — so partial merge results flow up the tree while the lower
//!   merges are still in progress, and the root completes at stage
//!   3·lg n.
//!
//! The cascade runs serially on one thread. A stage has two phases: every
//! merge is computed from the previous stage's arrays, then the results
//! are written back in node order. The stage and work counts are pinned by
//! the `pinned_baselines` test.
//!
//! **Substitution note** (cf. DESIGN.md): Cole's contribution includes
//! maintaining cross-ranks so each stage's merge runs in O(1) PRAM time;
//! this executable performs each stage's merges directly (charging their
//! element operations as work) and counts *stages* as the parallel time,
//! which is exactly the quantity the O(lg n) claim is about. The rank
//! machinery affects the per-stage constant only. Cole's proof bounds the
//! total work at O(n lg n); we measure it.

use crate::Key;

/// Statistics from one cascade run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColeStats {
    /// Synchronous stages until the root completed (the parallel time;
    /// Cole: 3·lg n).
    pub stages: u64,
    /// Total element operations across all stage merges (Cole: O(n lg n)).
    pub work: u64,
    /// Maximum total array length alive in any single stage (space).
    pub max_stage_footprint: usize,
}

struct Node<K> {
    /// Stage at which this node completed (valid once `complete`).
    complete_at: Option<u64>,
    /// Current array (the node's `up` array in Cole's terminology).
    up: Vec<K>,
    /// Children indices (empty for leaves).
    children: Vec<usize>,
}

/// Every `k`-th element, starting so the sample is of the suffix-regular
/// kind Cole uses (positions k-1, 2k-1, ...).
fn sample<K: Clone>(a: &[K], k: usize) -> Vec<K> {
    a.iter().skip(k - 1).step_by(k).cloned().collect()
}

fn merge_count<K: Ord + Clone>(a: &[K], b: &[K], work: &mut u64) -> Vec<K> {
    *work += (a.len() + b.len()) as u64;
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            out.push(a[i].clone());
            i += 1;
        } else {
            out.push(b[j].clone());
            j += 1;
        }
    }
    out
}

/// Sort `keys` with the cascading merge; returns the sorted vector and
/// the cascade statistics.
pub fn cole_sort<K: Key>(keys: &[K]) -> (Vec<K>, ColeStats) {
    if keys.is_empty() {
        return (
            Vec::new(),
            ColeStats {
                stages: 0,
                work: 0,
                max_stage_footprint: 0,
            },
        );
    }
    // Build a complete binary tree over the (padded) leaves; padding uses
    // index-paired sentinels handled by sorting Option-free: we pad by
    // distributing leaves of size 1 and allowing missing siblings.
    let n = keys.len();
    let mut nodes: Vec<Node<K>> = Vec::new();
    // Level 0: leaves, complete at stage 0.
    let mut level: Vec<usize> = (0..n)
        .map(|i| {
            nodes.push(Node {
                complete_at: Some(0),
                up: vec![keys[i].clone()],
                children: Vec::new(),
            });
            nodes.len() - 1
        })
        .collect();
    // Build parents pairwise; odd node promoted.
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0]);
            } else {
                nodes.push(Node {
                    complete_at: None,
                    up: Vec::new(),
                    children: vec![pair[0], pair[1]],
                });
                next.push(nodes.len() - 1);
            }
        }
        level = next;
    }
    let root = level[0];

    let mut stats = ColeStats {
        stages: 0,
        work: 0,
        max_stage_footprint: 0,
    };
    let mut stage: u64 = 0;
    while nodes[root].complete_at.is_none() {
        stage += 1;
        // Compute all sends based on the PREVIOUS stage's state, then
        // apply — the synchronous discipline. Children sit at lower indices
        // than their parent, so writing in place would hand a parent its
        // children's arrays from this very stage.
        let mut updates: Vec<(usize, Vec<K>, bool)> = Vec::new();
        for v in 0..nodes.len() {
            if nodes[v].children.is_empty() || nodes[v].complete_at.is_some() {
                continue;
            }
            let sends: Vec<Vec<K>> = nodes[v]
                .children
                .iter()
                .map(|&c| {
                    let child = &nodes[c];
                    match child.complete_at {
                        None => sample(&child.up, 4),
                        Some(s) => {
                            // Stages after completion: s+1 -> 4, s+2 -> 2,
                            // s+3 and beyond -> 1 (full array).
                            match stage.saturating_sub(s) {
                                0 | 1 => sample(&child.up, 4),
                                2 => sample(&child.up, 2),
                                _ => child.up.clone(),
                            }
                        }
                    }
                })
                .collect();
            let merged = merge_count(&sends[0], &sends[1], &mut stats.work);
            // v completes once both children are complete and it has
            // received their full arrays (3 stages after the later child).
            let full = nodes[v]
                .children
                .iter()
                .all(|&c| matches!(nodes[c].complete_at, Some(s) if stage >= s + 3));
            updates.push((v, merged, full));
        }
        for (v, merged, full) in updates {
            nodes[v].up = merged;
            if full {
                nodes[v].complete_at = Some(stage);
                // Cole's space discipline: once a node holds the full
                // merge of its subtree, the children's arrays are dead.
                let kids = nodes[v].children.clone();
                for c in kids {
                    nodes[c].up = Vec::new();
                }
            }
        }
        let footprint: usize = nodes.iter().map(|nd| nd.up.len()).sum();
        stats.max_stage_footprint = stats.max_stage_footprint.max(footprint);
        assert!(
            stage <= 8 * (64 - (n as u64).leading_zeros() as u64 + 1),
            "cascade failed to converge by stage {stage}"
        );
    }
    stats.stages = stage;
    (nodes[root].up.clone(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled(n: usize, seed: u64) -> Vec<i64> {
        // splitmix-keyed shuffle; self-contained so the crate stays free of
        // the rand dev-dependency.
        let mut v: Vec<i64> = (0..n as i64).collect();
        let mut s = seed;
        for i in (1..v.len()).rev() {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            v.swap(i, (z % (i as u64 + 1)) as usize);
        }
        v
    }

    #[test]
    fn sorts_correctly() {
        for n in [0usize, 1, 2, 3, 5, 8, 13, 64, 100, 1000] {
            let keys = shuffled(n, n as u64 + 7);
            let (sorted, _) = cole_sort(&keys);
            assert_eq!(sorted, (0..n as i64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn stages_are_three_log_n() {
        for lg in [4u32, 6, 8, 10] {
            let n = 1usize << lg;
            let (_, s) = cole_sort(&shuffled(n, 3));
            assert_eq!(
                s.stages,
                3 * lg as u64,
                "power-of-two input must complete at exactly 3·lg n stages"
            );
        }
    }

    #[test]
    fn sorts_with_duplicates() {
        let keys = vec![5i64, 1, 5, 2, 2, 9, 0];
        let (sorted, _) = cole_sort(&keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn work_is_n_log_n() {
        let w = |lg: u32| cole_sort(&shuffled(1 << lg, 5)).1.work as f64;
        let r = w(12) / w(10);
        // n lg n: ratio 4·(12/10) = 4.8.
        assert!((4.0..6.0).contains(&r), "work ratio {r}");
    }

    #[test]
    fn footprint_is_linear() {
        // Cole: total live sample arrays are O(n).
        let f = |lg: u32| cole_sort(&shuffled(1 << lg, 5)).1.max_stage_footprint as f64;
        let r = f(12) / f(10);
        assert!((3.4..4.6).contains(&r), "footprint ratio {r} should be ~4");
    }
}
