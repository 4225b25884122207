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
//! A round executes through a [`RoundExec`]: the planning pass clones each
//! task's node (and any children it will split) out of the arena, the jobs
//! compute the node's replacement, fresh nodes, and next-level tasks as
//! pure data, and the sequential apply phase commits them in task order —
//! so the arena layout, the counted work, and the round count are
//! bit-identical between [`SeqRounds`] (the
//! historical simulator, pinned by `pinned_baselines`) and
//! `pf_rt::rounds::PoolRounds` (the worker pool, timed by E16). That the
//! split is *sound* — in-round tasks read and write disjoint nodes — is
//! exactly the two-level separation invariant the debug check enforces.
//!
//! The measured round count is the hand-pipelined "time":
//! `rounds ≈ 2·lg m + lg n + O(1)`, compared in experiment E16 against
//! the futures version's DAG depth. The point of the reproduction is not
//! that either number is smaller — both are Θ(lg n + lg m) — but that
//! this file needs an explicit schedule, an arena, and an interference
//! proof, while `two_six.rs` is the obvious recursive code.

use pf_backend::{Job, RoundExec, SeqRounds};

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

/// A child pointer in a planned update: either an existing arena node or
/// the j-th node freshly allocated by this plan (resolved at apply time).
#[derive(Clone, Copy)]
enum ChildRef {
    Old(usize),
    New(usize),
}

/// The pure result of advancing one task one level: everything
/// [`apply_plan`] needs to commit the step, with no arena access.
struct TaskPlan<K> {
    /// Which wave slot the task belonged to (for regrouping `next`).
    slot: usize,
    /// The arena node the task stepped through.
    node: usize,
    /// Its replacement (children as [`ChildRef`]s), or `None` to leave the
    /// node untouched (empty key set).
    replace: Option<(Vec<K>, Vec<ChildRef>, bool)>,
    /// Nodes to allocate, in order (split halves: left then right).
    allocs: Vec<PvwNode<K>>,
    /// Next-level tasks: target child and its keys.
    next: Vec<(ChildRef, Vec<K>)>,
    /// Key-moves plus node visits charged by this step.
    work: u64,
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
    /// `(left_idx, middle_key, right_idx)`. Used only for the sequential
    /// root split — in-round splits go through [`plan_split`].
    fn split_node(&mut self, at: usize) -> (usize, K, usize) {
        let (l, sep, r) = plan_split(&self.nodes[at]);
        let li = self.alloc(l);
        let ri = self.alloc(r);
        (li, sep, ri)
    }

    /// Split the root if needed before a wave enters (the only place the
    /// tree grows). Runs sequentially between rounds, so it mutates the
    /// arena directly.
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

    /// Commit one planned step: allocate the plan's fresh nodes (in plan
    /// order — apply runs in task order, so the arena layout is identical
    /// to the sequential execution), replace the stepped node, and resolve
    /// the next-level tasks.
    fn apply_plan(&mut self, plan: TaskPlan<K>, work: &mut u64) -> (usize, Vec<Task<K>>) {
        let base = self.nodes.len();
        let resolve = |r: ChildRef| match r {
            ChildRef::Old(i) => i,
            ChildRef::New(j) => base + j,
        };
        self.nodes.extend(plan.allocs);
        *work += plan.work;
        if let Some((keys, children, is_leaf)) = plan.replace {
            self.nodes[plan.node] = if is_leaf {
                PvwNode::Leaf(keys)
            } else {
                PvwNode::Internal {
                    keys,
                    children: children.into_iter().map(resolve).collect(),
                }
            };
        }
        let next = plan
            .next
            .into_iter()
            .map(|(r, keys)| Task {
                node: resolve(r),
                keys,
            })
            .collect();
        (plan.slot, next)
    }
}

/// Split a node snapshot (≥ 3 keys) around its middle key, as pure data:
/// `(left, middle_key, right)`.
fn plan_split<K: Key>(node: &PvwNode<K>) -> (PvwNode<K>, K, PvwNode<K>) {
    match node {
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
    }
}

/// Advance one task one level, as a pure function of the task's node
/// snapshot and the snapshots of the children it may split. Mirrors the
/// historical `step_task` mutation line by line, including the work
/// charges; [`PvwTree::apply_plan`] commits the result.
fn plan_task<K: Key>(
    slot: usize,
    node: usize,
    keys: Vec<K>,
    snapshot: PvwNode<K>,
    children_snap: Vec<Option<PvwNode<K>>>,
) -> TaskPlan<K> {
    let mut plan = TaskPlan {
        slot,
        node,
        replace: None,
        allocs: Vec::new(),
        next: Vec::new(),
        work: keys.len() as u64 + 1,
    };
    if keys.is_empty() {
        return plan;
    }
    match snapshot {
        PvwNode::Leaf(existing) => {
            let mut merged = existing;
            for k in keys {
                if let Err(pos) = merged.binary_search(&k) {
                    merged.insert(pos, k);
                }
            }
            assert!(merged.len() <= 5, "leaf overflow: separation violated");
            plan.replace = Some((merged, Vec::new(), true));
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
            let mut new_children: Vec<ChildRef> = Vec::with_capacity(6);
            for (i, part) in parts.into_iter().enumerate() {
                match &children_snap[i] {
                    Some(child) if !part.is_empty() => {
                        // Child will overflow: split its snapshot. The two
                        // halves are this plan's next allocations — left
                        // then right, matching the sequential order.
                        let (l, sep, r) = plan_split(child);
                        plan.work += 1;
                        let li = ChildRef::New(plan.allocs.len());
                        plan.allocs.push(l);
                        let ri = ChildRef::New(plan.allocs.len());
                        plan.allocs.push(r);
                        let (pl, pr): (Vec<K>, Vec<K>) = part
                            .into_iter()
                            .filter(|k| *k != sep)
                            .partition(|k| *k < sep);
                        if !pl.is_empty() {
                            plan.next.push((li, pl));
                        }
                        new_children.push(li);
                        new_keys.push(sep);
                        if !pr.is_empty() {
                            plan.next.push((ri, pr));
                        }
                        new_children.push(ri);
                    }
                    _ => {
                        if !part.is_empty() {
                            plan.next.push((ChildRef::Old(children[i]), part));
                        }
                        new_children.push(ChildRef::Old(children[i]));
                    }
                }
                if i < nkeys.len() {
                    new_keys.push(nkeys[i].clone());
                }
            }
            debug_assert!(new_keys.len() <= 5);
            plan.replace = Some((new_keys, new_children, false));
        }
    }
    plan
}

/// Insert `m` sorted distinct keys with the explicit synchronous pipeline
/// on the sequential round engine — the virtual-time instantiation whose
/// round counts E16 reports.
pub fn pvw_insert_many<K: Key>(tree: &mut PvwTree<K>, keys: &[K]) -> PvwStats {
    pvw_insert_many_with(tree, keys, &mut SeqRounds::new())
}

/// Insert `m` sorted distinct keys with the **explicit synchronous
/// pipeline**: wave `i` enters at round `2·i`, every wave advances one
/// level per round, and each round's tasks execute as one [`RoundExec`]
/// round. Returns the per-run statistics; the tree is updated in place.
/// Stats and final tree are independent of the executor (see module docs).
pub fn pvw_insert_many_with<K: Key, R: RoundExec>(
    tree: &mut PvwTree<K>,
    keys: &[K],
    exec: &mut R,
) -> PvwStats {
    let waves: Vec<Vec<K>> = level_arrays(keys);
    let n_waves = waves.len();
    // Active waves: (wave index, current tasks, entry round).
    let mut active: Vec<(usize, Vec<Task<K>>, u64)> = Vec::new();
    let mut next_wave = 0usize;
    let mut round: u64 = 0;
    let mut work: u64 = 0;
    let mut max_conc = 0usize;

    loop {
        // Admit the next wave every second round.
        if next_wave < n_waves && round == 2 * next_wave as u64 {
            tree.maybe_split_root(&mut work);
            active.push((
                next_wave,
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
        // left at least two rounds ago. This is also the soundness
        // argument for running a round's tasks in parallel: their read and
        // write sets are disjoint.
        if cfg!(debug_assertions) {
            for pair in active.windows(2) {
                let lead = round - pair[0].2;
                let trail = round - pair[1].2;
                assert!(
                    lead >= trail + 2,
                    "pipeline interference: waves at distance {}",
                    lead - trail
                );
            }
        }

        // One synchronous round: every active wave advances one level.
        // Plan (clone each task's inputs out of the arena), execute the
        // pure jobs through the round engine, apply in task order.
        let mut jobs: Vec<Job<TaskPlan<K>>> = Vec::new();
        for (slot, (_, tasks, _)) in active.iter_mut().enumerate() {
            for t in tasks.drain(..) {
                let Task { node, keys } = t;
                let snapshot = tree.nodes[node].clone();
                let children_snap: Vec<Option<PvwNode<K>>> = match &snapshot {
                    PvwNode::Leaf(_) => Vec::new(),
                    PvwNode::Internal { children, .. } => children
                        .iter()
                        .map(|&c| (tree.key_count(c) >= 3).then(|| tree.nodes[c].clone()))
                        .collect(),
                };
                jobs.push(Box::new(move || {
                    plan_task(slot, node, keys, snapshot, children_snap)
                }));
            }
        }
        for plan in exec.round(jobs) {
            let (slot, next) = tree.apply_plan(plan, &mut work);
            active[slot].1.extend(next);
        }
        active.retain(|(_, tasks, _)| !tasks.is_empty());
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
    use crate::testkit::{evens, run_insert_many};
    use crate::Mode;

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
        let (root, _) = run_insert_many(&initial, &newk_sorted, Mode::Pipelined);
        assert_eq!(t.to_sorted_vec(), root.get().to_sorted_vec());
    }
}
