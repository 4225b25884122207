//! The timestamp lemma as a property: on random inputs the union's result
//! is materialized within the measured depth and admits a bounded τ
//! constant (Definition 1) — checked with this crate's cell walkers. The
//! algorithm suite's own property tests are pf-algs' `tests/prop.rs` and
//! the workspace `tests/it_cost_model.rs`.

use pf_algs::Mode;
use pf_bench::analysis::{collect, completion_time, min_tau_ks, walk_treap};
use pf_bench::sim::run_union;
use pf_bench::workloads::entries_with_random_prios;
use proptest::prelude::*;

/// The union's completion time is at most its depth, and its cells
/// admit τ with `ks <= 64`. τ is anchored at a quarter of the depth, but
/// never below the root's own write time: Definition 1 needs
/// `t(root) <= τ` (the root sits at height distance 0, so no `ks` can
/// cover it), and the union writes its root only after a constant
/// prologue — two touches, the split's fork, the write — which a
/// shallow union's quarter-depth undershoots.
fn union_admits_tau(keys_a: &[i64], keys_b: &[i64]) {
    let a = entries_with_random_prios(keys_a, 1);
    let b = entries_with_random_prios(keys_b, 2);
    let (root, c) = run_union(&a, &b, Mode::Pipelined);
    let done = completion_time(|f| walk_treap(&root, 0, f));
    assert!(done <= c.depth);
    let cells = collect(|f| walk_treap(&root, 0, f));
    let t_root = cells.iter().find(|obs| obs.1 == 0).map_or(0, |obs| obs.0);
    let ks = min_tau_ks(&cells, (c.depth / 4 + 1).max(t_root)).unwrap_or(f64::INFINITY);
    assert!(ks.is_finite() && ks <= 64.0, "ks = {ks}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The union result's completion time equals the computation depth
    /// (the last action of a union IS a tree write), and every node's
    /// timestamp admits a bounded τ constant.
    #[test]
    fn union_timestamps_admit_tau(keys_a in proptest::collection::btree_set(0i64..2000, 1..200),
                                  keys_b in proptest::collection::btree_set(0i64..2000, 1..200)) {
        let (keys_a, keys_b): (Vec<_>, Vec<_>) = (keys_a.into_iter().collect(), keys_b.into_iter().collect());
        union_admits_tau(&keys_a, &keys_b);
    }
}

/// Case 602 of a 2000-case run: a 153-key `a` and `b = {0}`, whose one
/// entry loses to `a`'s root. The union (depth 22) writes its root at
/// t = 7, past the quarter-depth anchor of 6. A one-key `a` shows the
/// same prologue at depth 13 (anchor 4).
#[test]
fn union_tau_covers_the_root_write_of_a_one_key_b_below_a() {
    let case_602: [i64; 153] = [
        22, 24, 32, 47, 74, 77, 98, 111, 125, 142, 150, 153, 155, 163, 173, 197, 211, 220, 225,
        248, 272, 286, 287, 310, 312, 315, 344, 355, 360, 365, 373, 376, 385, 395, 414, 428, 431,
        479, 480, 481, 490, 505, 512, 520, 526, 541, 557, 565, 566, 573, 578, 584, 597, 603, 634,
        636, 646, 649, 663, 679, 710, 744, 770, 788, 795, 800, 881, 900, 905, 908, 915, 943, 966,
        971, 977, 998, 1009, 1076, 1088, 1098, 1166, 1181, 1191, 1199, 1206, 1213, 1228, 1270,
        1273, 1280, 1295, 1297, 1298, 1303, 1305, 1316, 1331, 1367, 1379, 1398, 1399, 1414, 1445,
        1453, 1501, 1503, 1511, 1520, 1539, 1554, 1555, 1570, 1586, 1593, 1626, 1643, 1662, 1668,
        1676, 1679, 1690, 1699, 1713, 1720, 1730, 1736, 1741, 1742, 1745, 1749, 1761, 1765, 1773,
        1775, 1783, 1796, 1802, 1820, 1830, 1842, 1848, 1853, 1859, 1873, 1879, 1888, 1919, 1926,
        1928, 1929, 1951, 1955, 1977,
    ];
    for keys_a in [&case_602[..], &[1]] {
        union_admits_tau(keys_a, &[0]);
    }
}
