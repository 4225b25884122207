//! Quickstart: one algorithm, three engines.
//!
//! The §3 algorithms are written **once**, in `pf-algs`, against the
//! `pf_backend::PipeBackend` trait. This tour runs the same generic code
//! on all three engines:
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

use pf_algs::list::{consume, produce};
use pf_algs::plain::Entry;
use pf_algs::treap::{union, Treap, TreapFut, TreapWr};
use pf_algs::{Mode, PipeBackend, Seq, Val};
use pf_bench::workloads::union_entries;
use pf_examples::{banner, cost_line};
use pf_rt::{cell, Runtime};

/// The union of two entry sets on engine `B`: inputs built with free
/// pre-written cells, then the one generic `union`. The `where` clauses
/// are what pf-algs asks of an engine's cells; all three engines meet them.
fn union_on<B: PipeBackend>(
    bk: &B,
    a: &[Entry<i64>],
    b: &[Entry<i64>],
    mode: Mode,
) -> TreapFut<B, i64>
where
    Treap<B, i64>: Val,
    TreapFut<B, i64>: Val,
    TreapWr<B, i64>: Send,
    B::Fut<bool>: Val,
    B::Wr<bool>: Send,
{
    let fa = bk.input(Treap::from_entries(bk, a));
    let fb = bk.input(Treap::from_entries(bk, b));
    let (out, root) = bk.cell();
    union(bk, fa, fb, out, mode);
    root
}

fn main() {
    banner("1a. the cost model: producer/consumer pipeline (Figure 1)");
    let n = 10_000u64;
    let run_fig1 = |mode: Mode| {
        pf_core::Sim::new().run(|ctx| {
            // The generic Figure-1 code (pf_algs::list) instantiated at
            // the simulator: produce forks a future per tail, consume
            // chases them.
            let (lp, lf) = ctx.promise();
            match mode {
                Mode::Pipelined => produce(ctx, n, lp),
                Mode::Strict => ctx.call_strict(move |ctx| produce(ctx, n, lp)),
            }
            let list = ctx.touch(&lf);
            let (sp, sf) = ctx.promise();
            consume(ctx, list, 0, sp);
            ctx.touch(&sf)
        })
    };
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
    // there too; the result comes back through a cell.
    let (op, of) = cell();
    Runtime::new(4).run(move |wk| {
        let root = union_on(wk, &a, &b, Mode::Pipelined);
        root.touch(wk, move |t, wk| op.fulfill(wk, t));
    });
    let rt_result = of.expect();
    assert_eq!(rt_result.to_sorted_vec(), result.to_sorted_vec());
    println!(
        "4-worker runtime produced the identical {}-key treap (height {}).",
        rt_result.to_sorted_vec().len(),
        rt_result.height()
    );
    println!("\nquickstart done.");
}
