//! Smoke-run every experiment at reduced size and assert the *direction*
//! of each paper claim — the full-size numbers live in EXPERIMENTS.md,
//! but the shapes must hold at any size.

use pf_bench::exp_linear::e11_linearity;
use pf_bench::exp_machine::{e09_scheduler, e10_models, e14_space};
use pf_bench::exp_model::*;
use pf_bench::exp_rt::e15_cost_constants;
use pf_machine::INFINITE_P;

fn col(t: &pf_bench::Table, row: usize, name: &str) -> f64 {
    let i = t
        .headers
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("no column {name:?} in {:?}", t.headers));
    t.rows[row][i].parse().unwrap()
}

#[test]
fn e01_pipelining_halves_depth() {
    let t = e01_pipeline(&[500, 1000]);
    for r in 0..t.rows.len() {
        let ratio = col(&t, r, "strict/pipe");
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }
}

#[test]
fn e02_pipelined_increment_constant_strict_grows() {
    let ts = e02_merge(&[7, 8, 9, 10], 11);
    let t = &ts[0];
    // Pipelined depth increments stay flat; strict increments grow with lg n.
    let d = |r: usize| col(t, r, "depth(pipe)");
    let s = |r: usize| col(t, r, "depth(strict)");
    let pipe_incr1 = d(1) - d(0);
    let pipe_incr3 = d(3) - d(2);
    assert!(
        (pipe_incr3 - pipe_incr1).abs() <= 4.0,
        "{pipe_incr1} vs {pipe_incr3}"
    );
    let strict_incr1 = s(1) - s(0);
    let strict_incr3 = s(3) - s(2);
    assert!(
        strict_incr3 > strict_incr1,
        "{strict_incr1} vs {strict_incr3}"
    );
}

#[test]
fn e02_work_ratio_stays_bounded() {
    let ts = e02_merge(&[7, 8], 12);
    let t = &ts[1];
    let ratios: Vec<f64> = (0..t.rows.len()).map(|r| col(t, r, "ratio")).collect();
    let (min, max) = (
        ratios.iter().cloned().fold(f64::MAX, f64::min),
        ratios.iter().cloned().fold(0.0, f64::max),
    );
    assert!(max / min < 2.5, "work/bound ratio drifts: {ratios:?}");
}

#[test]
fn e03_e04_e06_strict_ratio_grows_with_n() {
    let t = e04_union_depth(&[7, 10], &[1, 2, 3]);
    assert!(col(&t, 1, "strict/pipe") > col(&t, 0, "strict/pipe"));
    let t = e06_diff(&[7, 10], &[1, 2, 3]);
    assert!(col(&t, 1, "strict/pipe") > col(&t, 0, "strict/pipe"));
}

#[test]
fn e04_tau_ks_bounded_across_sizes() {
    let t = e04_union_depth(&[7, 9, 11], &[1, 2]);
    let ks: Vec<f64> = (0..3).map(|r| col(&t, r, "min ks")).collect();
    assert!(ks.iter().all(|k| k.is_finite() && *k < 64.0), "{ks:?}");
}

#[test]
fn e05_work_bound_ratio_bounded() {
    let t = e05_union_work(12, &[1, 2]);
    let ratios: Vec<f64> = (0..t.rows.len()).map(|r| col(&t, r, "ratio")).collect();
    let (min, max) = (
        ratios.iter().cloned().fold(f64::MAX, f64::min),
        ratios.iter().cloned().fold(0.0, f64::max),
    );
    assert!(max / min < 3.0, "{ratios:?}");
}

#[test]
fn e07_gamma_increments_bounded() {
    let ts = e07_two_six(&[9, 10, 11], 6);
    let g = &ts[1];
    // Δγ column: all increments below a generous constant.
    for r in &g.rows {
        let dg: i64 = r[3].trim_start_matches('+').parse().unwrap();
        assert!(dg <= 40, "γ increment {dg} too large: {r:?}");
    }
}

#[test]
fn e08_quicksort_depth_linear() {
    let t = e08_quicksort(&[200, 800], &[1, 2]);
    let dn0 = col(&t, 0, "depth/n");
    let dn1 = col(&t, 1, "depth/n");
    // depth/n roughly flat => Θ(n).
    assert!((dn1 / dn0 - 1.0).abs() < 0.35, "{dn0} vs {dn1}");
}

#[test]
fn e09_brent_and_exactness() {
    let t = e09_scheduler(7, &[1, 8, INFINITE_P]);
    for r in 0..t.rows.len() {
        assert!(col(&t, r, "steps/bound") <= 1.0 + 1e-9);
    }
}

#[test]
fn e10_scan_model_beats_erew_at_scale() {
    let t = e10_models(10, 6, &[256]);
    let scan = col(&t, 0, "EREW+scan");
    let erew = col(&t, 0, "EREW");
    assert!(scan < erew);
}

#[test]
fn e11_everything_linear() {
    let t = e11_linearity(7);
    for r in &t.rows {
        assert_eq!(r[4], "yes", "{}", r[0]);
    }
}

#[test]
fn e13_mergesort_subquadratic_in_log() {
    let t = e13_mergesort(&[8, 11], &[1]);
    // d / lg²n should not grow: consistent with the O(lg n lglg n) conjecture.
    let r0 = col(&t, 0, "d/lg² n");
    let r1 = col(&t, 1, "d/lg² n");
    assert!(r1 <= r0 * 1.15, "{r0} vs {r1}");
}

#[test]
fn e14_stack_never_worse_than_queue() {
    let t = e14_space(8, &[4, 16]);
    for r in 0..t.rows.len() {
        assert!(col(&t, r, "queue/stack") >= 1.0);
    }
}

#[test]
fn e16_hand_pipeline_logarithmic() {
    let t = pf_bench::exp_machine::e16_pvw(&[8, 12], 5);
    let r0: f64 = col(&t, 0, "hand rounds");
    let r1: f64 = col(&t, 1, "hand rounds");
    assert!(r1 - r0 <= 4.0, "hand rounds must grow ~O(1) per 16x n");
}

#[test]
fn e17_async_within_constant_of_sync() {
    let t = pf_bench::exp_machine::e17_steal(8, &[4]);
    for r in 0..t.rows.len() {
        let ratio = col(&t, r, "async/sync");
        assert!(ratio < 3.5, "async makespan blew up: {ratio}");
    }
}

#[test]
fn e18_cole_exact_and_futures_close() {
    let t = pf_bench::exp_model::e18_cole(&[7, 9], &[1]);
    for r in 0..t.rows.len() {
        assert_eq!(t.rows[r][1], t.rows[r][2], "cole must be exactly 3 lg n");
        let work_const = col(&t, r, "cole work/(n·lg n)");
        assert!(work_const < 3.0);
    }
}

/// E16's model table at the `pf-bench e16 ci` size, byte for byte.
const E16_CI: &str = concat!(
    "== E16 implicit (futures) vs explicit (PVW-style) pipelining, 2-6 bulk insert ==\n",
    "   n   m  futures depth  hand rounds  depth/rounds  hand max waves\n",
    "------------------------------------------------------------------\n",
    "1024  32            176           17         10.35               4\n",
    "2048  32            178           17         10.47               4\n",
);

/// E18's model table at the `pf-bench e18 ci` size, byte for byte.
const E18_CI: &str = concat!(
    "== E18 Cole cascade (hand pipeline) vs futures mergesort ==\n",
    "  n  cole stages   3·lg n   cole work/(n·lg n)  E[futures depth]  depth/stages\n",
    "------------------------------------------------------------------------------\n",
    "256           24       24                 1.75            216.00          9.00\n",
    "512           27       27                 1.78            273.00         10.11\n",
);

#[test]
fn e16_e18_model_tables_are_golden() {
    // The tables are seeded and single-threaded: any change in a count, a
    // generator or a column is a change in the result, not noise.
    assert_eq!(
        pf_bench::exp_machine::e16_pvw(&[10, 11], 5).render(),
        E16_CI
    );
    assert_eq!(
        pf_bench::exp_model::e18_cole(&[8, 9], &[1]).render(),
        E18_CI
    );
}

/// E04's model table at n = m = 2^7 and 2^10, seeds 1 and 2, byte for byte.
const E04_SMALL: &str = concat!(
    "== E04 Cor 3.6 union expected depth O(lg n + lg m); Lemma 3.4: min valid ks bounded ==\n",
    " n=m  E[depth] pipe  E[depth] strict  strict/pipe  E[h(result)]  min ks\n",
    "-----------------------------------------------------------------------\n",
    " 128         119.50           390.00         3.26         15.00    8.30\n",
    "1024         212.50           793.50         3.73         26.00    7.91\n",
);

/// E06's model table at n = 2^7 and 2^10, seeds 1 and 2, byte for byte.
const E06_SMALL: &str = concat!(
    "== E06 Cor 3.12 difference expected depth O(lg n + lg m); Lemma 3.10: min valid k bounded ==\n",
    "   n  m=n/2  E[depth] pipe  E[depth] strict  strict/pipe   min k(ρ)\n",
    "-------------------------------------------------------------------\n",
    " 128     64         122.00           370.50         3.04      46.00\n",
    "1024    512         196.00           714.00         3.64      50.00\n",
);

/// The treap tables the simulator computes do not see how an engine that
/// cuts stores a complete treap: `Ctx` never cuts, so nothing it runs
/// builds a block, and the union and difference tables are the ones from
/// before blocks existed.
#[test]
fn e04_e06_treap_model_tables_are_golden() {
    assert_eq!(
        pf_bench::exp_model::e04_union_depth(&[7, 10], &[1, 2]).render(),
        E04_SMALL
    );
    assert_eq!(
        pf_bench::exp_model::e06_diff(&[7, 10], &[1, 2]).render(),
        E06_SMALL
    );
}

#[test]
fn e15_depth_scales_with_constants() {
    let t = e15_cost_constants(9, &[1, 3]);
    let d1 = col(&t, 0, "depth");
    let d3 = col(&t, 1, "depth");
    assert!(d3 > 2.0 * d1 && d3 < 3.2 * d1, "{d1} vs {d3}");
}
