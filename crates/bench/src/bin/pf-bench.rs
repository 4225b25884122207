//! `pf-bench <table> [ci]`: print one experiment's tables (DESIGN.md §6
//! has the index, EXPERIMENTS.md the claims they test). `ci` runs E13,
//! E16, E18 and E20 at the small sizes CI smoke-tests; every other table
//! has one size. E20 reads the event timelines of its own traced
//! sessions.
//!
//! ```text
//! cargo run --release -p pf-bench -- e09
//! cargo run --release -p pf-bench -- e16 ci
//! cargo run --release -p pf-bench -- e20 ci
//! ```

use pf_bench::{exp_linear, exp_machine, exp_model, exp_rt, Table};
use pf_core::{run_with_big_stack, DEFAULT_SIM_STACK};
use pf_machine::INFINITE_P;

const TABLES: &str = "e01 e02 e03 e04 e05 e06 e07 e08 e09 e10 e11 e13 e14 e15 e16 e17 e18 e19 e20";

fn main() {
    let mut args = std::env::args().skip(1);
    let table = args.next().unwrap_or_default();
    let ci = args.next().as_deref() == Some("ci");
    let print = |tables: Vec<Table>| tables.iter().for_each(Table::print);
    // The list pipelines nest one native frame per element in the
    // simulator's eager evaluation.
    let big_stack = |f: fn()| run_with_big_stack(DEFAULT_SIM_STACK, f);
    match table.as_str() {
        "e01" => big_stack(|| {
            exp_model::e01_pipeline(&[1_000, 2_000, 4_000, 8_000, 16_000, 32_000]).print()
        }),
        "e02" => print(exp_model::e02_merge(&[8, 9, 10, 11, 12, 13, 14], 16)),
        "e03" => exp_model::e03_rebalance(&[9, 10, 11, 12, 13, 14]).print(),
        "e04" => exp_model::e04_union_depth(&[8, 9, 10, 11, 12, 13], &[1, 2, 3, 4, 5]).print(),
        "e05" => exp_model::e05_union_work(16, &[1, 2, 3]).print(),
        "e06" => exp_model::e06_diff(&[8, 9, 10, 11, 12, 13], &[1, 2, 3, 4, 5]).print(),
        "e07" => print(exp_model::e07_two_six(&[10, 11, 12, 13, 14], 8)),
        "e08" => big_stack(|| {
            exp_model::e08_quicksort(&[500, 1_000, 2_000, 4_000], &[1, 2, 3, 4, 5]).print()
        }),
        "e09" => {
            let ps = [1, 2, 4, 8, 16, 64, 256, 1024, INFINITE_P];
            exp_machine::e09_scheduler(11, &ps).print()
        }
        "e10" => exp_machine::e10_models(16, 10, &[1, 4, 16, 64, 256, 1024, 4096]).print(),
        "e11" => exp_linear::e11_linearity(10).print(),
        "e13" if ci => {
            exp_model::e13_mergesort(&[8, 9], &[1]).print();
            exp_rt::e13_msort_wallclock(&[9], &[1, 4, 8], 1).print();
        }
        "e13" => {
            exp_model::e13_mergesort(&[8, 9, 10, 11, 12, 13], &[1, 2, 3]).print();
            exp_rt::e13_msort_wallclock(&[12, 14, 16], &[1, 4, 8], 3).print();
        }
        "e14" => exp_machine::e14_space(11, &[4, 64]).print(),
        "e15" => {
            exp_rt::e15_cost_constants(12, &[1, 2, 3, 4]).print();
            exp_machine::e15_suspension(10, &[4, 64, INFINITE_P]).print();
        }
        "e16" if ci => {
            exp_machine::e16_pvw(&[10, 11], 5).print();
            exp_rt::e16_pvw_wallclock(10, 5, &[1, 4, 8], 1).print();
        }
        "e16" => {
            exp_machine::e16_pvw(&[10, 11, 12, 13, 14, 15], 8).print();
            exp_rt::e16_pvw_wallclock(16, 10, &[1, 4, 8], 3).print();
        }
        "e17" => exp_machine::e17_steal(11, &[1, 2, 4, 8, 16, 64]).print(),
        "e18" if ci => {
            exp_model::e18_cole(&[8, 9], &[1]).print();
            exp_rt::e18_cole_wallclock(9, &[1, 4, 8], 1).print();
        }
        "e18" => {
            exp_model::e18_cole(&[8, 9, 10, 11, 12, 13], &[1, 2, 3]).print();
            exp_rt::e18_cole_wallclock(14, &[1, 4, 8], 3).print();
        }
        "e19" => big_stack(|| exp_model::e19_profiles(13).print()),
        "e20" => e20(ci),
        _ => {
            eprintln!("usage: pf-bench <table> [ci]\ntables: {TABLES}");
            std::process::exit(2);
        }
    }
}

/// E20: treap union and 2-6 bulk insert traced on the real pool, each
/// session's steal/suspension counts beside the model's predictions over
/// the same DAGs (E09 greedy replay, E17 steal replay); then one sample
/// Perfetto timeline, `results/e20_union_t<width>.trace.json` relative to
/// the working directory, for <https://ui.perfetto.dev>.
fn e20(ci: bool) {
    use pf_algs::Mode;
    use pf_bench::exp_rt::{e20_trace_vs_model, traced};

    let (lg_n, threads, reps): (u32, Vec<usize>, usize) = if ci {
        (9, vec![1, 2], 1)
    } else {
        (14, vec![1, 4, 8], 3)
    };

    for t in e20_trace_vs_model(lg_n, &threads, reps) {
        t.print();
    }

    // Sample timeline export: one traced union session at the widest
    // measured width.
    let sample_t = *threads.last().unwrap();
    let n = 1usize << lg_n;
    let (ea, eb) = pf_bench::workloads::union_entries(n, n, 11);
    let trace = traced(&pf_rt::Runtime::shared(sample_t), move |wk| {
        pf_algs::start::union_on(wk, &ea, &eb, Mode::Pipelined);
    });
    let (events, dropped) = (trace.events(), trace.dropped());
    std::fs::create_dir_all("results").expect("results dir");
    let path = format!("results/e20_union_t{sample_t}.trace.json");
    std::fs::write(&path, trace.to_chrome_trace()).expect("write trace");
    println!(
        "wrote {path} ({events} events, {dropped} dropped to ring wraparound) — \
         open at https://ui.perfetto.dev"
    );
}
