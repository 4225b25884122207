//! E20 — measured scheduler behavior vs pf-machine predictions (the
//! tracing experiment of the observability PR; DESIGN.md §5b).
//!
//! Runs treap union and 2-6 bulk insert *traced* on the real pool and
//! prints each session's steal/suspension counts next to the model's
//! predicted values over the same DAGs (E09 greedy replay for
//! suspensions, E17 work-stealing replay for steals). Also writes one
//! sample Perfetto export — `results/e20_union_t4.trace.json` — open it
//! at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! Requires the runtime's tracing layer:
//!
//! ```text
//! cargo run --release -p pf-bench --features trace --bin e20_trace
//! ```
//!
//! Without `--features trace` the binary prints that rebuild hint and
//! exits successfully (so blanket experiment sweeps don't fail).
//!
//! Usage: `e20_trace [ci]` — `ci` shrinks sizes for the CI smoke.

fn main() {
    #[cfg(not(feature = "trace"))]
    eprintln!(
        "e20_trace needs the runtime's tracing layer compiled in; rebuild with\n  \
         cargo run --release -p pf-bench --features trace --bin e20_trace"
    );
    #[cfg(feature = "trace")]
    run();
}

#[cfg(feature = "trace")]
fn run() {
    use pf_algs::Mode;
    use pf_bench::exp_rt::e20_trace_vs_model;

    let arg = std::env::args().nth(1);
    let ci = matches!(arg.as_deref(), Some("ci") | Some("--ci"));
    let (lg_n, threads, reps): (u32, Vec<usize>, usize) = if ci {
        (9, vec![1, 2], 1)
    } else {
        (14, vec![1, 4, 8], 3)
    };

    for t in e20_trace_vs_model(lg_n, &threads, reps) {
        t.print();
    }

    // Sample timeline export: one traced union session at the widest
    // measured width, straight out of `Runtime::take_last_trace`.
    let sample_t = *threads.last().unwrap();
    let n = 1usize << lg_n;
    let (ea, eb) = pf_bench::workloads::union_entries(n, n, 11);
    let rt = pf_rt::Runtime::shared(sample_t);
    rt.run(move |wk| {
        pf_algs::start::union_on(wk, &ea, &eb, Mode::Pipelined);
    });
    let trace = rt
        .take_last_trace()
        .expect("traced session leaves a timeline");
    let (events, dropped) = (trace.events(), trace.dropped());
    std::fs::create_dir_all("results").expect("results dir");
    let path = format!("results/e20_union_t{sample_t}.trace.json");
    std::fs::write(&path, trace.to_chrome_trace()).expect("write trace");
    println!(
        "wrote {path} ({events} events, {dropped} dropped to ring wraparound) — \
         open at https://ui.perfetto.dev"
    );
}
