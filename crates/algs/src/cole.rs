//! Cole's pipelined (cascading) mergesort — the paper's second flagship
//! example of hand pipelining: "the approach was later used by Cole in
//! the first O(lg n) time sorting algorithm on the PRAM not based on the
//! AKS sorting network" (§1). The conclusions leave open whether futures
//! can express it; experiment E18 puts the two side by side.
//!
//! This is a synchronous **cascade** over a complete binary merge tree,
//! executed one stage per [`RoundExec`] round:
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
//! Each stage's per-node merges are independent (they read only the
//! previous stage's arrays), so a stage is one round of pure jobs: the
//! planning pass samples the children out of the shared arena, the jobs
//! merge, and the sequential apply writes the results back in node order.
//! On [`SeqRounds`] this is bit-identical to the
//! historical single-threaded simulator (pinned by the `pinned_baselines`
//! test); on `pf_rt::rounds::PoolRounds` the same text runs each stage's
//! merges across the worker pool — the hand-pipelined wall-clock baseline
//! for E18.
//!
//! **Substitution note** (cf. DESIGN.md): Cole's contribution includes
//! maintaining cross-ranks so each stage's merge runs in O(1) PRAM time;
//! this executable performs each stage's merges directly (charging their
//! element operations as work) and counts *stages* as the parallel time,
//! which is exactly the quantity the O(lg n) claim is about. The rank
//! machinery affects the per-stage constant only. Cole's proof bounds the
//! total work at O(n lg n); we measure it.

use pf_backend::{Job, RoundExec, SeqRounds};

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

/// Sort `keys` with the cascading merge on the sequential round engine —
/// the virtual-time instantiation whose stage counts E18 reports.
pub fn cole_sort<K: Key>(keys: &[K]) -> (Vec<K>, ColeStats) {
    cole_sort_with(keys, &mut SeqRounds::new())
}

/// Sort `keys` with the cascading merge, one synchronous stage per
/// [`RoundExec`] round; returns the sorted vector and the cascade
/// statistics. Stats are independent of the executor: the jobs read only
/// the previous stage's arrays and the apply phase runs in node order.
pub fn cole_sort_with<K: Key, R: RoundExec>(keys: &[K], exec: &mut R) -> (Vec<K>, ColeStats) {
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
        // Plan: sample every incomplete internal node's children from the
        // PREVIOUS stage's state — the synchronous discipline — so each
        // merge is a pure job over owned inputs.
        let mut who: Vec<(usize, bool)> = Vec::new();
        let mut jobs: Vec<Job<(Vec<K>, u64)>> = Vec::new();
        for v in 0..nodes.len() {
            if nodes[v].children.is_empty() || nodes[v].complete_at.is_some() {
                continue;
            }
            let mut sends: Vec<Vec<K>> = nodes[v]
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
            // v completes once both children are complete and it has
            // received their full arrays (3 stages after the later child).
            let full = nodes[v]
                .children
                .iter()
                .all(|&c| matches!(nodes[c].complete_at, Some(s) if stage >= s + 3));
            who.push((v, full));
            let b = sends.pop().expect("two children");
            let a = sends.pop().expect("two children");
            jobs.push(Box::new(move || {
                let mut w = 0u64;
                let merged = merge_count(&a, &b, &mut w);
                (merged, w)
            }));
        }
        // One synchronous stage across the round engine, then apply the
        // results in node order.
        let results = exec.round(jobs);
        for ((v, full), (merged, w)) in who.into_iter().zip(results) {
            stats.work += w;
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
    fn executor_does_not_change_stats() {
        // The whole point of the compute/apply split: SeqRounds and any
        // other RoundExec observe the same per-round snapshots, so the
        // counted statistics cannot depend on the executor.
        struct Reversed(u64);
        impl RoundExec for Reversed {
            fn round<T: Send + 'static>(&mut self, jobs: Vec<Job<T>>) -> Vec<T> {
                self.0 += 1;
                let mut out: Vec<T> = jobs.into_iter().rev().map(|j| j()).collect();
                out.reverse();
                out
            }
            fn rounds_executed(&self) -> u64 {
                self.0
            }
        }
        let keys = shuffled(256, 9);
        let (v1, s1) = cole_sort(&keys);
        let (v2, s2) = cole_sort_with(&keys, &mut Reversed(0));
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
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
