//! The **hand-pipelined** baseline: a synchronous, round-based, PVW-style
//! execution of the §3.4 bulk insert, with the pipeline managed
//! explicitly — the thing the paper argues futures make unnecessary.
//!
//! Paul–Vishkin–Wagener insert m keys into a 2-3 tree in O(lg n + lg m)
//! *synchronous rounds* by letting the insertion waves chase each other
//! through the tree, each wave a fixed number of levels behind its
//! predecessor. This module reproduces that discipline for the paper's
//! top-down 2-6 variant:
//!
//! * the tree is a mutable arena (indices, no futures);
//! * wave *i* (the i-th well-separated key array) enters the root at round
//!   `2·i`; every round, each active wave advances **one level**;
//! * therefore wave *i + 1* works on level ℓ exactly when wave *i* works
//!   on level ℓ + 2 — the "task i is working on level j of the tree, task
//!   i + 1 can work on level j − 1" schedule of the paper's introduction,
//!   with the extra level of slack needed because a wave mutates its
//!   children (splits) as it descends;
//! * a debug-build check *asserts* non-interference every round (no two
//!   waves within two levels of each other) — the bookkeeping burden that
//!   the futures version discharges onto the runtime.
//!
//! A round runs serially on one thread: each task steps its node in
//! place, in task order. That this equals a synchronous round — in-round
//! tasks read and write disjoint nodes — is exactly the two-level
//! separation invariant the debug check enforces.
//!
//! The measured round count is the hand-pipelined "time":
//! `rounds ≈ 2·lg m + lg n + O(1)`, compared in experiment E16 against
//! the futures version's DAG depth. The point of the reproduction is not
//! that either number is smaller — both are Θ(lg n + lg m) — but that
//! this file needs an explicit schedule, an arena, and an interference
//! proof, while `two_six.rs` is the obvious recursive code.

use crate::two_six::level_arrays;
use crate::Key;

/// Arena node of the mutable 2-6 tree.
#[derive(Debug, Clone)]
enum PvwNode<K> {
    Leaf(Vec<K>),
    Internal { keys: Vec<K>, children: Vec<usize> },
}

/// A mutable 2-6 tree in an index arena (the synchronous-PRAM-style
/// shared memory).
#[derive(Debug, Clone)]
pub struct PvwTree<K> {
    nodes: Vec<PvwNode<K>>,
    root: usize,
}

/// One wave's single descent task: a node and the keys destined for its
/// subtree.
struct Task<K> {
    node: usize,
    keys: Vec<K>,
}

/// Statistics from a synchronous hand-pipelined run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PvwStats {
    /// Synchronous rounds executed (the hand-pipelined parallel time).
    pub rounds: u64,
    /// Total key-moves plus node visits (sequential work, for reference).
    pub work: u64,
    /// Number of waves (lg m + 1).
    pub waves: usize,
    /// Maximum number of waves simultaneously active in any round.
    pub max_concurrent_waves: usize,
}

impl<K: Key> PvwTree<K> {
    /// Build from sorted keys (same shape discipline as
    /// `two_six::preload_from_sorted`: ≤ 2 keys per leaf, 2–3 children per
    /// internal node).
    pub fn from_sorted(keys: &[K]) -> Self {
        let mut t = PvwTree {
            nodes: Vec::new(),
            root: 0,
        };
        if keys.is_empty() {
            t.root = t.alloc(PvwNode::Leaf(Vec::new()));
            return t;
        }
        let mut h = 0usize;
        let mut cap = 2usize;
        while keys.len() > cap {
            h += 1;
            cap = cap * 3 + 2;
        }
        t.root = t.build(keys, h);
        t
    }

    fn alloc(&mut self, n: PvwNode<K>) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    fn build(&mut self, keys: &[K], h: usize) -> usize {
        if h == 0 {
            debug_assert!((1..=2).contains(&keys.len()));
            return self.alloc(PvwNode::Leaf(keys.to_vec()));
        }
        let min_keys = (1usize << h) - 1;
        let max_keys = 3usize.pow(h as u32) - 1;
        let n = keys.len();
        let c = if n > 2 * min_keys && n <= 2 * max_keys + 1 {
            2
        } else {
            3
        };
        let mut sizes = vec![min_keys; c];
        let mut rem = n - (c - 1) - c * min_keys;
        for s in sizes.iter_mut() {
            let add = rem.min(max_keys - min_keys);
            *s += add;
            rem -= add;
        }
        let mut node_keys = Vec::with_capacity(c - 1);
        let mut children = Vec::with_capacity(c);
        let mut at = 0usize;
        for (i, s) in sizes.iter().enumerate() {
            let sub = self.build(&keys[at..at + s], h - 1);
            children.push(sub);
            at += s;
            if i < c - 1 {
                node_keys.push(keys[at].clone());
                at += 1;
            }
        }
        self.alloc(PvwNode::Internal {
            keys: node_keys,
            children,
        })
    }

    /// All keys in symmetric order.
    pub fn to_sorted_vec(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.inorder(self.root, &mut out);
        out
    }

    fn inorder(&self, at: usize, out: &mut Vec<K>) {
        match &self.nodes[at] {
            PvwNode::Leaf(ks) => out.extend(ks.iter().cloned()),
            PvwNode::Internal { keys, children } => {
                for i in 0..children.len() {
                    self.inorder(children[i], out);
                    if i < keys.len() {
                        out.push(keys[i].clone());
                    }
                }
            }
        }
    }

    /// Check all 2-6 invariants (arity, order, uniform leaf depth).
    pub fn validate(&self) -> Result<(), String> {
        let keys = self.to_sorted_vec();
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err("keys not strictly increasing".into());
        }
        self.check(self.root, true).map(|_| ())
    }

    fn check(&self, at: usize, is_root: bool) -> Result<usize, String> {
        match &self.nodes[at] {
            PvwNode::Leaf(ks) => {
                if ks.is_empty() && !is_root {
                    return Err("empty non-root leaf".into());
                }
                if ks.len() > 5 {
                    return Err(format!("leaf with {} keys", ks.len()));
                }
                Ok(0)
            }
            PvwNode::Internal { keys, children } => {
                if keys.is_empty() || keys.len() > 5 {
                    return Err(format!("internal node with {} keys", keys.len()));
                }
                if children.len() != keys.len() + 1 {
                    return Err("child count mismatch".into());
                }
                let mut d = None;
                for &c in children {
                    let dc = self.check(c, false)?;
                    match d {
                        None => d = Some(dc),
                        Some(prev) if prev != dc => return Err("ragged leaves".into()),
                        _ => {}
                    }
                }
                Ok(d.expect("children") + 1)
            }
        }
    }

    fn key_count(&self, at: usize) -> usize {
        match &self.nodes[at] {
            PvwNode::Leaf(ks) => ks.len(),
            PvwNode::Internal { keys, .. } => keys.len(),
        }
    }

    /// Split node `at` (≥ 3 keys) around its middle key; returns
    /// `(left_idx, middle_key, right_idx)`.
    fn split_node(&mut self, at: usize) -> (usize, K, usize) {
        let (l, sep, r) = match &self.nodes[at] {
            PvwNode::Leaf(ks) => {
                let mid = ks.len() / 2;
                (
                    PvwNode::Leaf(ks[..mid].to_vec()),
                    ks[mid].clone(),
                    PvwNode::Leaf(ks[mid + 1..].to_vec()),
                )
            }
            PvwNode::Internal { keys, children } => {
                let mid = keys.len() / 2;
                (
                    PvwNode::Internal {
                        keys: keys[..mid].to_vec(),
                        children: children[..=mid].to_vec(),
                    },
                    keys[mid].clone(),
                    PvwNode::Internal {
                        keys: keys[mid + 1..].to_vec(),
                        children: children[mid + 1..].to_vec(),
                    },
                )
            }
        };
        let li = self.alloc(l);
        let ri = self.alloc(r);
        (li, sep, ri)
    }

    /// Advance one task by one level; returns the tasks for the next level
    /// and adds the key-move cost to `work`.
    fn step_task(&mut self, task: Task<K>, work: &mut u64) -> Vec<Task<K>> {
        let Task { node, keys } = task;
        *work += keys.len() as u64 + 1;
        if keys.is_empty() {
            return Vec::new();
        }
        match std::mem::replace(&mut self.nodes[node], PvwNode::Leaf(Vec::new())) {
            PvwNode::Leaf(mut merged) => {
                for k in keys {
                    if let Err(pos) = merged.binary_search(&k) {
                        merged.insert(pos, k);
                    }
                }
                assert!(merged.len() <= 5, "leaf overflow: separation violated");
                self.nodes[node] = PvwNode::Leaf(merged);
                Vec::new()
            }
            PvwNode::Internal {
                keys: nkeys,
                children,
            } => {
                debug_assert!(nkeys.len() <= 2, "wave entered a non-2-3 node");
                // Partition the wave keys by the node's splitters.
                let mut parts: Vec<Vec<K>> = Vec::with_capacity(nkeys.len() + 1);
                let mut rest = keys;
                for s in &nkeys {
                    let (l, g): (Vec<K>, Vec<K>) =
                        rest.into_iter().filter(|k| k != s).partition(|k| k < s);
                    parts.push(l);
                    rest = g;
                }
                parts.push(rest);
                let mut new_keys: Vec<K> = Vec::with_capacity(5);
                let mut new_children: Vec<usize> = Vec::with_capacity(6);
                let mut next = Vec::new();
                for (i, part) in parts.into_iter().enumerate() {
                    if part.is_empty() {
                        new_children.push(children[i]);
                    } else if self.key_count(children[i]) >= 3 {
                        // The child would overflow: split it before descending.
                        let (l, sep, r) = self.split_node(children[i]);
                        *work += 1;
                        let (pl, pr): (Vec<K>, Vec<K>) = part
                            .into_iter()
                            .filter(|k| *k != sep)
                            .partition(|k| *k < sep);
                        if !pl.is_empty() {
                            next.push(Task { node: l, keys: pl });
                        }
                        new_children.push(l);
                        new_keys.push(sep);
                        if !pr.is_empty() {
                            next.push(Task { node: r, keys: pr });
                        }
                        new_children.push(r);
                    } else {
                        next.push(Task {
                            node: children[i],
                            keys: part,
                        });
                        new_children.push(children[i]);
                    }
                    if i < nkeys.len() {
                        new_keys.push(nkeys[i].clone());
                    }
                }
                debug_assert!(new_keys.len() <= 5);
                self.nodes[node] = PvwNode::Internal {
                    keys: new_keys,
                    children: new_children,
                };
                next
            }
        }
    }

    /// Split the root if needed before a wave enters (the only place the
    /// tree grows).
    fn maybe_split_root(&mut self, work: &mut u64) {
        if self.key_count(self.root) >= 3 {
            let (l, sep, r) = self.split_node(self.root);
            *work += 1;
            self.root = self.alloc(PvwNode::Internal {
                keys: vec![sep],
                children: vec![l, r],
            });
        }
    }
}

/// Insert `m` sorted distinct keys with the **explicit synchronous
/// pipeline**: wave `i` enters at round `2·i`, every wave advances one
/// level per round. Returns the per-run statistics; the tree is updated
/// in place.
pub fn pvw_insert_many<K: Key>(tree: &mut PvwTree<K>, keys: &[K]) -> PvwStats {
    let waves: Vec<Vec<K>> = level_arrays(keys);
    let n_waves = waves.len();
    // Active waves: (current tasks, entry round).
    let mut active: Vec<(Vec<Task<K>>, u64)> = Vec::new();
    let mut next_wave = 0usize;
    let mut round: u64 = 0;
    let mut work: u64 = 0;
    let mut max_conc = 0usize;

    loop {
        // Admit the next wave every second round.
        if next_wave < n_waves && round == 2 * next_wave as u64 {
            tree.maybe_split_root(&mut work);
            active.push((
                vec![Task {
                    node: tree.root,
                    keys: waves[next_wave].clone(),
                }],
                round,
            ));
            next_wave += 1;
        }
        if active.is_empty() && next_wave >= n_waves {
            break;
        }
        max_conc = max_conc.max(active.len());

        // Interference proof (debug builds): wave i is at level
        // round − entry_i; admitted two rounds apart, consecutive active
        // waves are exactly two levels apart — a wave only mutates its own
        // level and (via splits) the level below, which the predecessor
        // left at least two rounds ago. So a round's tasks have disjoint
        // read and write sets, and stepping them one after another is the
        // synchronous round.
        if cfg!(debug_assertions) {
            for pair in active.windows(2) {
                let lead = round - pair[0].1;
                let trail = round - pair[1].1;
                assert!(
                    lead >= trail + 2,
                    "pipeline interference: waves at distance {}",
                    lead - trail
                );
            }
        }

        // One synchronous round: every active wave advances one level.
        for (tasks, _) in active.iter_mut() {
            for t in std::mem::take(tasks) {
                tasks.extend(tree.step_task(t, &mut work));
            }
        }
        active.retain(|(tasks, _)| !tasks.is_empty());
        round += 1;
    }

    PvwStats {
        rounds: round,
        work,
        waves: n_waves,
        max_concurrent_waves: max_conc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start::insert_many_on;
    use crate::Mode;
    use pf_core::Sim;

    fn evens(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| 2 * i).collect()
    }

    #[test]
    fn builds_valid_trees() {
        for n in [0usize, 1, 2, 3, 7, 26, 27, 100, 1000] {
            let t = PvwTree::from_sorted(&evens(n));
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(t.to_sorted_vec(), evens(n));
        }
    }

    #[test]
    fn insert_correct() {
        for (n, m) in [(50usize, 20usize), (200, 64), (1000, 100), (0, 30)] {
            let mut t = PvwTree::from_sorted(&evens(n));
            let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
            let stats = pvw_insert_many(&mut t, &newk);
            t.validate().unwrap_or_else(|e| panic!("n={n} m={m}: {e}"));
            let mut expect = evens(n);
            expect.extend(&newk);
            expect.sort_unstable();
            assert_eq!(t.to_sorted_vec(), expect, "n={n} m={m}");
            assert!(stats.rounds > 0);
        }
    }

    #[test]
    fn rounds_are_lg_n_plus_lg_m() {
        // rounds ≈ 2·waves + height: O(lg n + lg m).
        let rounds = |n: usize, m: usize| {
            let mut t = PvwTree::from_sorted(&evens(n));
            let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
            pvw_insert_many(&mut t, &newk).rounds
        };
        let r1 = rounds(1 << 10, 1 << 6);
        let r2 = rounds(1 << 12, 1 << 6);
        let r3 = rounds(1 << 14, 1 << 6);
        // Doubling n adds O(1) rounds (one tree level per two doublings
        // for 2-6 trees built at ~3x fanout).
        assert!(r2 - r1 <= 4, "{r1} {r2}");
        assert!(r3 - r2 <= 4, "{r2} {r3}");
        // And rounds grow with lg m, roughly 2 per wave.
        let rm1 = rounds(1 << 12, 1 << 4);
        let rm2 = rounds(1 << 12, 1 << 8);
        assert!(rm2 > rm1 + 4);
        assert!(rm2 < rm1 + 24);
    }

    #[test]
    fn pipeline_actually_overlaps() {
        let mut t = PvwTree::from_sorted(&evens(1 << 12));
        let newk: Vec<i64> = (0..256).map(|i| 2 * i + 1).collect();
        let stats = pvw_insert_many(&mut t, &newk);
        assert!(
            stats.max_concurrent_waves >= 3,
            "waves should overlap: {}",
            stats.max_concurrent_waves
        );
        // Strictly sequential waves would need ~waves × height rounds.
        let height_bound = 8; // tree of 4096 keys has ~7 levels
        assert!(
            stats.rounds < (stats.waves as u64) * height_bound / 2 + height_bound,
            "rounds {} suggest no pipelining",
            stats.rounds
        );
    }

    #[test]
    fn repeated_bulk_inserts_stay_valid() {
        let mut t = PvwTree::from_sorted(&evens(100));
        for round in 0..5i64 {
            let keys: Vec<i64> = (0..60).map(|i| i * 11 + round * 2 + 1).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            pvw_insert_many(&mut t, &sorted);
            t.validate().unwrap();
        }
    }

    #[test]
    fn agrees_with_futures_version() {
        let n = 500;
        let initial = evens(n);
        let newk: Vec<i64> = (0..120).map(|i| 5 * i + 1).collect();
        let mut newk_sorted = newk.clone();
        newk_sorted.sort_unstable();
        newk_sorted.dedup();
        let mut t = PvwTree::from_sorted(&initial);
        pvw_insert_many(&mut t, &newk_sorted);
        let (root, _) =
            Sim::new().run(|ctx| insert_many_on(ctx, &initial, &newk_sorted, Mode::Pipelined));
        assert_eq!(t.to_sorted_vec(), root.get().to_sorted_vec());
    }
}
