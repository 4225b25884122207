//! Cost-model experiments: E01–E08 and E13 (see DESIGN.md §6). Every
//! function is parameterized by input sizes so the integration tests can
//! smoke-run them cheaply; the `eXX_*` binaries use the paper-scale
//! defaults.

use pf_algs::start::{merge_on, pipeline_on, quicksort_on, union_on};
use pf_algs::two_six::{insert_many_with_waves, level_arrays, TsTree};
use pf_algs::Mode;
use pf_core::Sim;

use crate::analysis::{collect, lg, linear_fit, min_rho_k, min_tau_ks, walk_treap};
use crate::sim::{
    run_diff, run_insert_many, run_merge, run_msort, run_pipeline, run_quicksort, run_rebalance,
    run_union,
};
use crate::workloads::{
    diff_entries, interleaved_pair, shuffled_keys, sorted_keys, spread_pair, union_entries,
};
use crate::{f2, u, Table};

/// E01 — Figure 1 producer/consumer: pipelined vs strict depth, both Θ(n)
/// work; pipelined depth ≈ half of strict (consumer overlaps producer).
pub fn e01_pipeline(ns: &[u64]) -> Table {
    let mut t = Table::new(
        "E01 Fig.1 producer/consumer: pipelined consumer trails producer by O(1)",
        &[
            "n",
            "work",
            "depth(pipe)",
            "depth(strict)",
            "strict/pipe",
            "depth/n",
        ],
    );
    for &n in ns {
        let (_, cp) = run_pipeline(n, Mode::Pipelined);
        let (_, cs) = run_pipeline(n, Mode::Strict);
        t.row(vec![
            u(n),
            u(cp.work),
            u(cp.depth),
            u(cs.depth),
            f2(cs.depth as f64 / cp.depth as f64),
            f2(cp.depth as f64 / n as f64),
        ]);
    }
    t
}

/// E02 — Theorem 3.1 merge: depth Θ(lg n + lg m) pipelined vs
/// Θ(lg n · lg m) strict; work O(m·lg(n/m)).
pub fn e02_merge(lgs: &[u32], work_lg_n: u32) -> Vec<Table> {
    let mut depth_t = Table::new(
        "E02a Thm 3.1 merge depth, n = m sweep: pipelined +O(1) per doubling, strict +O(lg n)",
        &[
            "n=m",
            "depth(pipe)",
            "Δ(pipe)",
            "depth(strict)",
            "Δ(strict)",
            "work",
        ],
    );
    let mut prev: Option<(u64, u64)> = None;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &l in lgs {
        let n = 1usize << l;
        let (a, b) = interleaved_pair(n, n);
        let (_, cp) = run_merge(&a, &b, Mode::Pipelined);
        let (_, cs) = run_merge(&a, &b, Mode::Strict);
        let (dp, ds) = (cp.depth, cs.depth);
        let (gp, gs) = match prev {
            Some((pp, ps)) => (
                format!("{:+}", dp as i64 - pp as i64),
                format!("{:+}", ds as i64 - ps as i64),
            ),
            None => ("-".into(), "-".into()),
        };
        prev = Some((dp, ds));
        xs.push(lg(n));
        ys.push(dp as f64);
        depth_t.row(vec![u(n as u64), u(dp), gp, u(ds), gs, u(cp.work)]);
    }
    let (slope, icept) = linear_fit(&xs, &ys);
    depth_t.title += &format!("  [pipelined fit: depth ≈ {slope:.1}·lg n + {icept:.1}]");

    let mut work_t = Table::new(
        "E02b Thm 3.1 merge work, fixed n, m sweep: work / (m·(lg(n/m)+1)) ≈ const",
        &["n", "m", "work", "m(lg(n/m)+1)", "ratio"],
    );
    let n = 1usize << work_lg_n;
    for lm in (2..=work_lg_n).step_by(2) {
        let m = 1usize << lm;
        let (a, b) = spread_pair(n, m);
        let (_, c) = run_merge(&a, &b, Mode::Pipelined);
        let bound = m as f64 * (lg(n / m) + 1.0);
        work_t.row(vec![
            u(n as u64),
            u(m as u64),
            u(c.work),
            f2(bound),
            f2(c.work as f64 / bound),
        ]);
    }
    vec![depth_t, work_t]
}

/// E03 — §3.1 rebalance: depth O(lg n), work O(n), result perfectly
/// balanced.
pub fn e03_rebalance(lgs: &[u32]) -> Table {
    let mut t = Table::new(
        "E03 §3.1 rebalance: depth O(lg n) pipelined vs O(lg² n) strict; work O(n)",
        &[
            "n",
            "h(in)",
            "h(out)",
            "depth(pipe)",
            "depth(strict)",
            "strict/pipe",
            "work/n",
        ],
    );
    for &l in lgs {
        let n = 1usize << l;
        let keys = shuffled_keys(n, 42 + l as u64);
        let (root, cp) = run_rebalance(&keys, Mode::Pipelined);
        let (_, cs) = run_rebalance(&keys, Mode::Strict);
        let out = root.get();
        // Height of the (random BST) input: rebuild it to inspect.
        let (hin, _) =
            Sim::new().run(|ctx| pf_algs::rebalance::unbalanced_from(ctx, &keys).height());
        t.row(vec![
            u(n as u64),
            u(hin as u64),
            u(out.height() as u64),
            u(cp.depth),
            u(cs.depth),
            f2(cs.depth as f64 / cp.depth as f64),
            f2(cp.work as f64 / n as f64),
        ]);
    }
    t
}

/// E04 — Cor 3.6 treap union expected depth O(lg n + lg m), plus the
/// Lemma 3.4 τ-value check: the smallest valid `ks` stays bounded.
pub fn e04_union_depth(lgs: &[u32], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "E04 Cor 3.6 union expected depth O(lg n + lg m); Lemma 3.4: min valid ks bounded",
        &[
            "n=m",
            "E[depth] pipe",
            "E[depth] strict",
            "strict/pipe",
            "E[h(result)]",
            "min ks",
        ],
    );
    for &l in lgs {
        let n = 1usize << l;
        let (mut dp, mut ds, mut hh, mut ks) = (0.0, 0.0, 0.0, 0.0f64);
        for &s in seeds {
            let (a, b) = union_entries(n, n, s);
            let (root, cp) = run_union(&a, &b, Mode::Pipelined);
            let (_, cs) = run_union(&a, &b, Mode::Strict);
            dp += cp.depth as f64;
            ds += cs.depth as f64;
            hh += root.get().sealed().height() as f64;
            let cells = collect(|f| walk_treap(&root, 0, f));
            // Inputs are preloaded at time 0, so τ = 0 at call time; the
            // theorem's slack is O(h), folded into the fitted constant.
            ks = ks.max(min_tau_ks(&cells, cp.depth / 8).unwrap_or(f64::INFINITY));
        }
        let k = seeds.len() as f64;
        t.row(vec![
            u(n as u64),
            f2(dp / k),
            f2(ds / k),
            f2(ds / dp),
            f2(hh / k),
            f2(ks),
        ]);
    }
    t
}

/// E05 — Thm 3.7 union expected work O(m·lg(n/m)).
pub fn e05_union_work(lg_n: u32, seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "E05 Thm 3.7 union expected work O(m·lg(n/m)): ratio ≈ const across m/n",
        &["n", "m", "E[work]", "m(lg(n/m)+1)", "ratio"],
    );
    let n = 1usize << lg_n;
    for lm in (2..=lg_n).step_by(2) {
        let m = 1usize << lm;
        let mut w = 0.0;
        for &s in seeds {
            let (a, b) = union_entries(n, m, s);
            let (_, c) = run_union(&a, &b, Mode::Pipelined);
            w += c.work as f64;
        }
        w /= seeds.len() as f64;
        let bound = m as f64 * (lg(n / m) + 1.0);
        t.row(vec![
            u(n as u64),
            u(m as u64),
            f2(w),
            f2(bound),
            f2(w / bound),
        ]);
    }
    t
}

/// E06 — Cor 3.12 treap difference expected depth, with the ρ-value check
/// of Lemma 3.10 on the result.
pub fn e06_diff(lgs: &[u32], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "E06 Cor 3.12 difference expected depth O(lg n + lg m); Lemma 3.10: min valid k bounded",
        &[
            "n",
            "m=n/2",
            "E[depth] pipe",
            "E[depth] strict",
            "strict/pipe",
            "min k(ρ)",
        ],
    );
    for &l in lgs {
        let n = 1usize << l;
        let m = n / 2;
        let (mut dp, mut ds, mut kr) = (0.0, 0.0, 0.0f64);
        for &s in seeds {
            let (a, b) = diff_entries(n, m, s);
            let (root, cp) = run_diff(&a, &b, Mode::Pipelined);
            let (_, cs) = run_diff(&a, &b, Mode::Strict);
            dp += cp.depth as f64;
            ds += cs.depth as f64;
            let cells = collect(|f| walk_treap(&root, 0, f));
            // ρ anchored at the result root's write time (Thm 3.11 gives
            // ρ = call time + O(h1 + h2), which is what the root write
            // realizes); the minimal k must then stay bounded across sizes.
            let rho = root.time();
            kr = kr.max(min_rho_k(&cells, rho).unwrap_or(f64::INFINITY));
        }
        let k = seeds.len() as f64;
        t.row(vec![
            u(n as u64),
            u(m as u64),
            f2(dp / k),
            f2(ds / k),
            f2(ds / dp),
            f2(kr),
        ]);
    }
    t
}

/// E07 — Thm 3.13 2-6 tree multi-insert: depth O(lg n + lg m) pipelined
/// vs O(lg n · lg m) strict, work O(m lg n), and the γ-value increments
/// γ(i+1) − γ(i) bounded by a constant (3·kb).
pub fn e07_two_six(lgs_n: &[u32], lg_m: u32) -> Vec<Table> {
    let mut depth_t = Table::new(
        "E07a Thm 3.13 2-6 insert depth: pipelined O(lg n + lg m) vs strict O(lg n·lg m)",
        &[
            "n",
            "m",
            "depth(pipe)",
            "depth(strict)",
            "strict/pipe",
            "work/(m·lg n)",
        ],
    );
    let m = 1usize << lg_m;
    for &l in lgs_n {
        let n = 1usize << l;
        let initial = sorted_keys(n, 2);
        let new_keys: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
        let (_, cp) = run_insert_many(&initial, &new_keys, Mode::Pipelined);
        let (_, cs) = run_insert_many(&initial, &new_keys, Mode::Strict);
        depth_t.row(vec![
            u(n as u64),
            u(m as u64),
            u(cp.depth),
            u(cs.depth),
            f2(cs.depth as f64 / cp.depth as f64),
            f2(cp.work as f64 / (m as f64 * lg(n))),
        ]);
    }

    let mut gamma_t = Table::new(
        "E07b γ-value increments per wave (Thm 3.13 proof: γ(i+1) ≤ γ(i) + 3kb)",
        &["wave", "|wave|", "root t(v)", "Δγ"],
    );
    let n = 1usize << lgs_n[lgs_n.len() / 2];
    let initial = sorted_keys(n, 2);
    let new_keys: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
    let (waves, _) = Sim::new().run(|ctx| {
        let ft = ctx.preload(TsTree::from_sorted(ctx, &initial));
        insert_many_with_waves(ctx, &new_keys, ft, Mode::Pipelined)
    });
    let sizes: Vec<usize> = {
        let mut v = vec![0];
        v.extend(level_arrays(&new_keys).iter().map(|w| w.len()));
        v
    };
    let mut prev = 0u64;
    for (i, w) in waves.iter().enumerate() {
        let t = w.time();
        gamma_t.row(vec![
            u(i as u64),
            u(sizes[i] as u64),
            u(t),
            format!("{:+}", t as i64 - prev as i64),
        ]);
        prev = t;
    }
    vec![depth_t, gamma_t]
}

/// E08 — Figure 2 quicksort: pipelining yields only a constant factor;
/// expected depth stays Θ(n) in both modes.
pub fn e08_quicksort(ns: &[usize], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "E08 Fig.2 quicksort: expected depth Θ(n) pipelined AND strict (no asymptotic win)",
        &[
            "n",
            "E[depth] pipe",
            "depth/n",
            "E[depth] strict",
            "strict/pipe",
            "E[work]/n·lg n",
        ],
    );
    for &n in ns {
        let (mut dp, mut ds, mut w) = (0.0, 0.0, 0.0);
        for &s in seeds {
            let keys = shuffled_keys(n, s);
            let (_, cp) = run_quicksort(&keys, Mode::Pipelined);
            let (_, cs) = run_quicksort(&keys, Mode::Strict);
            dp += cp.depth as f64;
            ds += cs.depth as f64;
            w += cp.work as f64;
        }
        let k = seeds.len() as f64;
        t.row(vec![
            u(n as u64),
            f2(dp / k),
            f2(dp / k / n as f64),
            f2(ds / k),
            f2(ds / dp),
            f2(w / k / (n as f64 * lg(n))),
        ]);
    }
    t
}

/// E13 — Conclusions conjecture: pipelined tree mergesort depth, compared
/// against lg n, lg n·lg lg n and lg² n growth.
pub fn e13_mergesort(lgs: &[u32], seeds: &[u64]) -> Table {
    let mut t = Table::new(
        "E13 §5 conjecture: pipelined mergesort depth vs lg n / lg n·lglg n / lg² n (+rebalancing variant)",
        &["n", "E[depth]", "d/lg n", "d/(lg n·lglg n)", "d/lg² n", "strict/pipe", "d(balanced)"],
    );
    for &l in lgs {
        let n = 1usize << l;
        let (mut dp, mut ds, mut db) = (0.0, 0.0, 0.0);
        for &s in seeds {
            let keys = shuffled_keys(n, s);
            let (_, cp) = run_msort(&keys, false, Mode::Pipelined);
            let (_, cs) = run_msort(&keys, false, Mode::Strict);
            let (_, cb) = run_msort(&keys, true, Mode::Pipelined);
            dp += cp.depth as f64;
            ds += cs.depth as f64;
            db += cb.depth as f64;
        }
        let k = seeds.len() as f64;
        let (dp, ds, db) = (dp / k, ds / k, db / k);
        let ln = lg(n);
        t.row(vec![
            u(n as u64),
            f2(dp),
            f2(dp / ln),
            f2(dp / (ln * ln.log2())),
            f2(dp / (ln * ln)),
            f2(ds / dp),
            f2(db),
        ]);
    }
    t
}

/// E18 — Cole's hand-cascaded mergesort (the paper's §1 exemplar,
/// simulated synchronously in `pf_algs::cole`) vs the futures tree
/// mergesort of the conclusions. Cole: exactly 3·lg n stages, O(n lg n)
/// work; the futures version measures Θ(lg n·lg lg n)-looking depth —
/// the gap the conclusions leave open.
pub fn e18_cole(lgs: &[u32], seeds: &[u64]) -> Table {
    use pf_algs::cole::cole_sort;
    let mut t = Table::new(
        "E18 Cole cascade (hand pipeline) vs futures mergesort",
        &[
            "n",
            "cole stages",
            "3·lg n",
            "cole work/(n·lg n)",
            "E[futures depth]",
            "depth/stages",
        ],
    );
    for &l in lgs {
        let n = 1usize << l;
        let keys = shuffled_keys(n, 77);
        let (sorted, cs) = cole_sort(&keys);
        assert_eq!(sorted.len(), n);
        let mut dp = 0.0;
        for &s in seeds {
            let (_, c) = run_msort(&shuffled_keys(n, s), false, Mode::Pipelined);
            dp += c.depth as f64;
        }
        dp /= seeds.len() as f64;
        let ln = lg(n);
        t.row(vec![
            u(n as u64),
            u(cs.stages),
            u(3 * l as u64),
            f2(cs.work as f64 / (n as f64 * ln)),
            f2(dp),
            f2(dp / cs.stages as f64),
        ]);
    }
    t
}

/// E19 — parallelism profiles: the DAG width at every depth, summarized.
/// Shows *where* each algorithm's parallelism lives: the pipelined tree
/// operations are wide almost everywhere, quicksort has a long thin tail
/// (why its depth stays Θ(n)), the producer/consumer pipeline is exactly
/// two wide.
pub fn e19_profiles(lg_n: u32) -> Table {
    let n = 1usize << lg_n;
    let mut t = Table::new(
        "E19 parallelism profiles: DAG width by depth (pipelined variants)",
        &[
            "algorithm",
            "depth",
            "peak width",
            "mean width",
            "%time width>=4",
            "%time width>=64",
        ],
    );
    let mut push = |name: &str, report: pf_core::CostReport, prof: Vec<u64>| {
        let d = prof.len().max(1) as f64;
        let ge4 = prof.iter().filter(|&&w| w >= 4).count() as f64 / d;
        let ge64 = prof.iter().filter(|&&w| w >= 64).count() as f64 / d;
        t.row(vec![
            name.to_string(),
            u(report.depth),
            u(prof.iter().copied().max().unwrap_or(0)),
            f2(report.work as f64 / d),
            f2(100.0 * ge4),
            f2(100.0 * ge64),
        ]);
    };

    let (a, b) = interleaved_pair(n, n);
    let (_, r, prof) = Sim::new().run_profiled(|ctx| merge_on(ctx, &a, &b, Mode::Pipelined));
    push("merge", r, prof);

    let (ea, eb) = union_entries(n, n, 41);
    let (_, r, prof) = Sim::new().run_profiled(|ctx| union_on(ctx, &ea, &eb, Mode::Pipelined));
    push("union", r, prof);

    let qn = n.min(2000);
    let keys = shuffled_keys(qn, 13);
    let (_, r, prof) = Sim::new().run_profiled(|ctx| quicksort_on(ctx, &keys, Mode::Pipelined));
    push("quicksort", r, prof);

    let (_, r, prof) = Sim::new()
        .run_profiled(|ctx| ctx.touch(&pipeline_on(ctx, (n as u64).min(4000), Mode::Pipelined)));
    push("pipeline", r, prof);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_profile_shapes() {
        let t = e19_profiles(9);
        assert_eq!(t.rows.len(), 4);
        let width_ge4 = |row: usize| -> f64 { t.rows[row][4].parse().unwrap() };
        // Tree ops are wide for most of their depth; the two-thread
        // pipeline never reaches width 4.
        assert!(
            width_ge4(0) > 30.0,
            "merge should be wide: {}",
            width_ge4(0)
        );
        assert!(width_ge4(3) < 5.0, "pipeline is ~2 wide: {}", width_ge4(3));
    }

    #[test]
    fn e01_smoke() {
        let t = e01_pipeline(&[100, 200]);
        assert_eq!(t.rows.len(), 2);
        // strict/pipe ratio in a sane band
        let ratio: f64 = t.rows[1][4].parse().unwrap();
        assert!(ratio > 1.2 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn e02_smoke() {
        let ts = e02_merge(&[6, 7, 8], 10);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].rows.len(), 3);
        assert!(!ts[1].rows.is_empty());
    }

    #[test]
    fn e03_smoke() {
        let t = e03_rebalance(&[6, 7]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn e04_smoke() {
        let t = e04_union_depth(&[6, 7], &[1, 2]);
        assert_eq!(t.rows.len(), 2);
        // min ks must be finite.
        for r in &t.rows {
            let ks: f64 = r[5].parse().unwrap();
            assert!(ks.is_finite());
        }
    }

    #[test]
    fn e05_smoke() {
        let t = e05_union_work(8, &[1]);
        assert!(!t.rows.is_empty());
    }

    #[test]
    fn e06_smoke() {
        let t = e06_diff(&[6, 7], &[3]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn e07_smoke() {
        let ts = e07_two_six(&[8, 9], 5);
        assert_eq!(ts.len(), 2);
        // γ increments present for every wave (lg m + 1 rows incl. wave 0).
        assert!(ts[1].rows.len() >= 5);
    }

    #[test]
    fn e08_smoke() {
        let t = e08_quicksort(&[64, 128], &[1, 2]);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn e13_smoke() {
        let t = e13_mergesort(&[7, 8], &[1]);
        assert_eq!(t.rows.len(), 2);
    }
}
