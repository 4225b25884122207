//! depth_explorer: interactive-ish cost exploration for any algorithm in
//! the suite — measure work/depth in the cost model, then project running
//! times onto the paper's machine models.
//!
//! Usage: `cargo run --release -p pf-examples --bin depth_explorer -- \
//!             [merge|union|diff|insert|quicksort|mergesort] [lg_n] [lg_m]`
//!
//! Defaults: `union 12 12`.

use pf_algs::start::{merge_on, union_on};
use pf_algs::Mode;
use pf_bench::sim::{run_diff, run_insert_many, run_merge, run_msort, run_quicksort, run_union};
use pf_bench::workloads::{
    diff_entries, interleaved_pair, shuffled_keys, sorted_keys, union_entries,
};
use pf_core::CostReport;
use pf_examples::banner;
use pf_machine::{predicted_time, Machine};

fn measure(alg: &str, lg_n: u32, lg_m: u32, mode: Mode) -> CostReport {
    let n = 1usize << lg_n;
    let m = 1usize << lg_m;
    match alg {
        "merge" => {
            let (a, b) = interleaved_pair(n, m);
            run_merge(&a, &b, mode).1
        }
        "union" => {
            let (a, b) = union_entries(n, m, 5);
            run_union(&a, &b, mode).1
        }
        "diff" => {
            let (a, b) = diff_entries(n, m.min(n), 5);
            run_diff(&a, &b, mode).1
        }
        "insert" => {
            let initial = sorted_keys(n, 2);
            let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
            run_insert_many(&initial, &newk, mode).1
        }
        "quicksort" => run_quicksort(&shuffled_keys(n, 5), mode).1,
        "mergesort" => run_msort(&shuffled_keys(n, 5), false, mode).1,
        other => {
            panic!("unknown algorithm {other:?} (try merge/union/diff/insert/quicksort/mergesort)")
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let alg = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("union")
        .to_string();
    let lg_n: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(12);
    let lg_m: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(lg_n);

    banner(&format!("{alg}: n = 2^{lg_n}, m = 2^{lg_m}"));
    let p = measure(&alg, lg_n, lg_m, Mode::Pipelined);
    let s = measure(&alg, lg_n, lg_m, Mode::Strict);
    println!(
        "pipelined: work={} depth={} parallelism={:.1}",
        p.work,
        p.depth,
        p.parallelism()
    );
    println!(
        "strict:    work={} depth={} parallelism={:.1}",
        s.work,
        s.depth,
        s.parallelism()
    );
    println!(
        "pipelining depth win: {:.2}x; linear code: {}",
        s.depth as f64 / p.depth as f64,
        p.is_linear()
    );

    banner("projected §4 implementation times (Lemma 4.1 + machine models)");
    println!(
        "{:>6}  {:>12} {:>12} {:>12}",
        "p", "EREW+scan", "EREW", "BSP(2,16)"
    );
    for lgp in [0u32, 2, 4, 6, 8, 10] {
        let procs = 1usize << lgp;
        println!(
            "{:>6}  {:>12.0} {:>12.0} {:>12.0}",
            procs,
            predicted_time(Machine::ErewScan, p.work, p.depth, procs),
            predicted_time(Machine::Erew, p.work, p.depth, procs),
            predicted_time(Machine::Bsp { g: 2.0, l: 16.0 }, p.work, p.depth, procs),
        );
    }
    banner("parallelism profile (DAG width by depth decile)");
    // Re-run the pipelined variant with profiling to show where the
    // parallelism lives.
    let (_, _, prof) = pf_core::Sim::new().run_profiled(|ctx| {
        let n = 1usize << lg_n.min(12);
        match alg.as_str() {
            "union" | "diff" => {
                let (a, b) = union_entries(n, n, 5);
                union_on(ctx, &a, &b, Mode::Pipelined);
            }
            _ => {
                let (a, b) = interleaved_pair(n, n);
                merge_on(ctx, &a, &b, Mode::Pipelined);
            }
        }
    });
    let deciles = 10usize;
    let chunk = prof.len().div_ceil(deciles).max(1);
    for (i, c) in prof.chunks(chunk).enumerate() {
        let avg = c.iter().sum::<u64>() as f64 / c.len() as f64;
        let bar = "#".repeat(((avg.log2().max(0.0)) * 4.0) as usize + 1);
        println!("decile {i}: avg width {avg:>9.1}  {bar}");
    }

    println!(
        "\n(the strict variant bottoms out at {} steps; the pipelined one at {})",
        s.depth, p.depth
    );
}
