//! Empirical checkers for the paper's timestamp-bounding definitions —
//! τ-values (Definition 1), ρ-values (Definition 2), and γ-values
//! (Definition 3) — plus small fitting helpers used by the experiment
//! binaries.
//!
//! The simulator stamps every tree node with the exact DAG time `t(v)` at
//! which it was written, so the lemmas' *existence of a bounding constant*
//! can be tested directly: we compute the **smallest constant** that makes
//! the bound hold on a concrete run and check that it stays bounded as the
//! input grows.

use pf_algs::treap::{Child, Treap};
use pf_algs::tree::Tree;
use pf_algs::Key;
use pf_core::{Ctx, Fut};

/// One observed cell: `(write_time, depth_in_tree, subtree_height)`.
/// Produced by the [`walk_tree`] / [`walk_treap`] inspectors.
pub type CellObs = (u64, usize, usize);

/// The visitor the inspectors call once per cell.
pub type Visit<'a> = &'a mut dyn FnMut(u64, usize, usize);

/// Post-run inspection: visit every cell of the tree behind `cell`, the
/// cell itself at `depth`, with its [`CellObs`] triple; returns the height
/// of the subtree in `cell` (leaf = 0).
pub fn walk_tree<K: Key>(cell: &Fut<Tree<Ctx, K>>, depth: usize, f: Visit) -> usize {
    let h = cell.with(|t| match t {
        Tree::Leaf => 0,
        Tree::Node(n) => {
            1 + walk_tree(&n.left, depth + 1, f).max(walk_tree(&n.right, depth + 1, f))
        }
    });
    f(cell.time(), depth, h);
    h
}

/// [`walk_tree`] for a simulator treap. The simulator never cuts
/// (`Ctx::GRAIN` is 0), so no node of its treaps holds a child directly,
/// none of them is a block, and every one has a timestamp.
pub fn walk_treap<K: Key>(cell: &Fut<Treap<Ctx, K>>, depth: usize, f: Visit) -> usize {
    fn below<K: Key>(c: &Child<Ctx, K>, depth: usize, f: Visit) -> usize {
        match c {
            Child::Cell(cell) => walk_treap(cell, depth, f),
            Child::Done(_) => unreachable!("a simulator treap child is always a cell"),
        }
    }
    let h = cell.with(|t| match t {
        Treap::Leaf => 0,
        Treap::Node(n) => 1 + below(&n.left, depth + 1, f).max(below(&n.right, depth + 1, f)),
        Treap::Block(_) => unreachable!("the simulator never builds a block"),
    });
    f(cell.time(), depth, h);
    h
}

/// The largest write time a walker reports: the virtual time at which the
/// structure was fully materialized, its root cell included.
pub fn completion_time<R>(walk: impl FnOnce(Visit) -> R) -> u64 {
    collect(walk).iter().map(|c| c.0).max().unwrap_or(0)
}

/// Collect the observations of a walker into a vector.
pub fn collect<R>(walk: impl FnOnce(Visit) -> R) -> Vec<CellObs> {
    let mut v = Vec::new();
    walk(&mut |t, d, h| v.push((t, d, h)));
    v
}

/// Definition 1 (τ-values): τ is valid for tree `T` if for every node `v`,
/// `t(v) <= τ + ks·(h(T) − h(v))`.
///
/// Given a proposed τ (usually the call time of the operation plus the
/// O(h) slack of the theorem), return the **minimum `ks`** for which the
/// bound holds, or `None` if some node with `h(v) = h(T)` already violates
/// `t(v) <= τ` (no `ks` can fix a violation at height distance zero).
pub fn min_tau_ks(cells: &[CellObs], tau: u64) -> Option<f64> {
    let h_t = cells.iter().map(|c| c.2).max().unwrap_or(0);
    let mut ks: f64 = 0.0;
    for &(t, _d, h) in cells {
        if t <= tau {
            continue;
        }
        let gap = h_t - h;
        if gap == 0 {
            return None;
        }
        ks = ks.max((t - tau) as f64 / gap as f64);
    }
    Some(ks)
}

/// Definition 2 (ρ-values) and Definition 3 (γ-values) share one shape:
/// `t(v) <= ρ + k·d_T(v)` with `d_T` the depth of `v` in the tree. Return
/// the minimum `k` for which the bound holds with the proposed ρ, or
/// `None` if the root itself violates `t(root) <= ρ`.
pub fn min_rho_k(cells: &[CellObs], rho: u64) -> Option<f64> {
    let mut k: f64 = 0.0;
    for &(t, d, _h) in cells {
        if t <= rho {
            continue;
        }
        if d == 0 {
            return None;
        }
        k = k.max((t - rho) as f64 / d as f64);
    }
    Some(k)
}

/// Least-squares fit of `y ≈ a·x + b`; returns `(a, b)`. Used to fit
/// measured depths against `lg n` (Θ(lg n) claims fit with small residual;
/// Θ(lg² n) shows up as a strongly growing slope between windows).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points to fit");
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate x values");
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    (a, b)
}

/// Base-2 logarithm of a positive count, as f64.
pub fn lg(n: usize) -> f64 {
    assert!(n > 0);
    (n as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::Sim;

    #[test]
    fn tau_bound_simple() {
        // Tree of height 2: root (h=2) at t=5, child (h=1) at t=9,
        // grandchild cell (h=0) at t=15.
        let cells = vec![(5, 0, 2), (9, 1, 1), (15, 2, 0)];
        // With τ = 5: child needs ks >= 4, grandchild ks >= 5.
        assert_eq!(min_tau_ks(&cells, 5), Some(5.0));
        // With τ = 15 everything is within τ.
        assert_eq!(min_tau_ks(&cells, 15), Some(0.0));
        // τ = 4 cannot hold at the root (gap 0).
        assert_eq!(min_tau_ks(&cells, 4), None);
    }

    #[test]
    fn rho_bound_simple() {
        let cells = vec![(5, 0, 2), (9, 1, 1), (15, 2, 0)];
        // ρ = 5: child needs k >= 4, grandchild k >= 5.
        assert_eq!(min_rho_k(&cells, 5), Some(5.0));
        assert_eq!(min_rho_k(&cells, 4), None);
    }

    #[test]
    fn leaf_only_tree() {
        let cells = vec![(3, 0, 0)];
        assert_eq!(min_tau_ks(&cells, 3), Some(0.0));
        assert_eq!(min_tau_ks(&cells, 2), None);
    }

    #[test]
    fn fit_recovers_line() {
        let xs: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.5 * x + 2.0).collect();
        let (a, b) = linear_fit(&xs, &ys);
        assert!((a - 3.5).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn completion_time_sees_deep_writes() {
        let (root, _) = Sim::new().run(|ctx| {
            // Build a node whose right child is written late.
            let (rp, rf) = ctx.promise();
            let lf = ctx.preload(Tree::Leaf);
            let root = ctx.preload(Tree::node(1i64, lf, rf));
            ctx.fork_unit(move |c| {
                c.tick(100);
                rp.fulfill(c, Tree::Leaf);
            });
            root
        });
        assert_eq!(root.time(), 0);
        assert!(completion_time(|f| walk_tree(&root, 0, f)) > 100);
    }

    #[test]
    fn walk_cells_heights() {
        let keys: Vec<i64> = (0..7).collect();
        let (root, _) = Sim::new().run(|ctx| ctx.preload(Tree::from_sorted(ctx, &keys)));
        let mut seen = 0usize;
        let h = walk_tree(&root, 0, &mut |_, _, _| seen += 1);
        assert_eq!(h, 3);
        // A tree of 7 nodes has 14 child cells + the root cell = 15,
        // every one visited once.
        assert_eq!(seen, 15);
    }

    #[test]
    fn collect_adapts_walker() {
        let cells = collect(|f| {
            f(1, 0, 1);
            f(2, 1, 0);
        });
        assert_eq!(cells, vec![(1, 0, 1), (2, 1, 0)]);
    }
}
