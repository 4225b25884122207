//! Quickstart: one algorithm, three engines.
//!
//! The §3 algorithms are written **once**, in `pf-algs`, against the
//! `pf_backend::PipeBackend` trait, and `pf_algs::start` has one starter
//! per algorithm — build the inputs on engine `B`, call it, return the
//! result future. This tour runs the same starters on all three engines:
//!
//! 1. the **virtual-time simulator** (`pf_core::Ctx`) — measure work/depth
//!    of the Figure 1 producer/consumer and see implicit pipelining in the
//!    treap union (Theorem 3.5);
//! 2. the **sequential oracle** (`pf_backend::Seq`) — the same union text,
//!    executed eagerly on one thread: the correctness baseline;
//! 3. the **real work-stealing runtime** (`pf_rt::Worker`) — the same
//!    union again, on four OS threads, producing the identical treap.
//!
//! Run with: `cargo run --release -p pf-examples --bin quickstart`

use pf_algs::start::{pipeline_on, union_on};
use pf_algs::{Mode, Seq};
use pf_bench::workloads::union_entries;
use pf_examples::{banner, cost_line};
use pf_rt::{cell, Runtime};

fn main() {
    banner("1a. the cost model: producer/consumer pipeline (Figure 1)");
    let n = 10_000u64;
    // The generic Figure-1 code (pf_algs::list) instantiated at the
    // simulator: produce forks a future per tail, consume chases them, and
    // the main thread touches the sum.
    let run_fig1 =
        |mode: Mode| pf_core::Sim::new().run(|ctx| ctx.touch(&pipeline_on(ctx, n, mode)));
    let (sum, cp) = run_fig1(Mode::Pipelined);
    let (_, cs) = run_fig1(Mode::Strict);
    assert_eq!(sum, n * (n + 1) / 2);
    println!("{}", cost_line("pipelined sum", &cp));
    println!("{}", cost_line("strict sum   ", &cs));
    println!(
        "the consumer trails the producer by O(1) instead of waiting for the\n\
         whole list, so the pipelined depth stays {:.2}x below the strict one.",
        cs.depth as f64 / cp.depth as f64
    );

    banner("1b. implicit pipelining in treap union (Theorem 3.5)");
    let (a, b) = union_entries(1 << 12, 1 << 12, 42);
    let run_union = |mode| pf_core::Sim::new().run(|ctx| union_on(ctx, &a, &b, mode));
    let (root, pipelined) = run_union(Mode::Pipelined);
    let (_, strict) = run_union(Mode::Strict);
    let result = root.get();
    assert!(result.check_invariants());
    println!("{}", cost_line("pipelined union", &pipelined));
    println!("{}", cost_line("strict union   ", &strict));
    println!(
        "same code, same work — but pipelining the splits cuts the depth {:.1}x\n\
         (O(lg n + lg m) vs O(lg n · lg m)); every cell was read at most once: {}",
        strict.depth as f64 / pipelined.depth as f64,
        pipelined.is_linear()
    );

    banner("2. the same union on the sequential oracle");
    // Identical algorithm text (pf_algs::treap::union), engine = Seq:
    // fork runs inline, touch reads and continues, cost hooks vanish.
    let seq_keys = Seq::run(|bk| {
        union_on(bk, &a, &b, Mode::Pipelined)
            .expect()
            .to_sorted_vec()
    });
    assert_eq!(seq_keys, result.to_sorted_vec());
    println!(
        "sequential oracle produced the identical {}-key set — the generic\n\
         code is engine-independent by construction.",
        seq_keys.len()
    );

    banner("3. the same union on the real work-stealing runtime");
    // A `Worker` exists only inside a session, so the inputs are built
    // there too; the result future comes back through a cell, written by
    // the time the session has quiesced.
    let (op, of) = cell();
    Runtime::new(4).run(move |wk| op.fulfill(wk, union_on(wk, &a, &b, Mode::Pipelined)));
    let rt_result = of.expect().expect();
    assert_eq!(rt_result.to_sorted_vec(), result.to_sorted_vec());
    println!(
        "4-worker runtime produced the identical {}-key treap (height {}).",
        rt_result.to_sorted_vec().len(),
        rt_result.height()
    );
    println!("\nquickstart done.");
}
