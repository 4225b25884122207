//! What a treap node costs the allocator, counted: a complete node is one
//! block, whichever engine builds it, and the plain below-grain code
//! allocates nothing else — no cell per child. One `#[test]` on purpose:
//! the counters are process-wide, so nothing else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use pf_algs::plain::PlainTreap;
use pf_algs::treap::{diff, union, Treap, TreapFut, TreapNode, TreapWr};
use pf_algs::{Mode, PipeBackend, Seq, Val};
use pf_rt::{cell, ready, Runtime, Worker};
use pf_tests::{entries, RTreap};

/// The block behind an `Arc<TreapNode<_, i64>>` (two counters + node): the
/// same on both engines, and within the 72 usable bytes of an 80-byte
/// malloc chunk.
const NODE: usize = std::mem::size_of::<TreapNode<Worker, i64>>() + 16;
const _: () = assert!(NODE == std::mem::size_of::<TreapNode<Seq, i64>>() + 16 && NODE <= 72);

/// Blocks that are not nodes, per operation: its operand and result cells
/// on `Seq`; on pf-rt those plus the session (root task, latch, stats).
/// Independent of the operands' sizes — a cell per node built would be
/// thousands here.
const SLACK: usize = 16;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);
static NODE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static NODE_FREES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        if layout.size() == NODE {
            NODE_ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        if layout.size() == NODE {
            NODE_FREES.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (blocks allocated, blocks freed, node blocks allocated, node blocks
/// freed) while `f` ran, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> ([usize; 4], R) {
    let read = || [&ALLOCS, &FREES, &NODE_ALLOCS, &NODE_FREES].map(|c| c.load(Relaxed));
    let before = read();
    let r = f();
    let after = read();
    (std::array::from_fn(|i| after[i] - before[i]), r)
}

/// The addresses of `t`'s nodes.
fn nodes<B: PipeBackend>(t: &Treap<B, i64>, out: &mut HashSet<usize>)
where
    Treap<B, i64>: Val,
    TreapFut<B, i64>: Val,
{
    if let Treap::Node(n) = t {
        out.insert(Arc::as_ptr(n) as usize);
        nodes(&n.left.get(), out);
        nodes(&n.right.get(), out);
    }
}

/// How many of `out`'s nodes neither operand holds: the copied paths.
fn fresh<B: PipeBackend>(out: &Treap<B, i64>, a: &Treap<B, i64>, b: &Treap<B, i64>) -> usize
where
    Treap<B, i64>: Val,
    TreapFut<B, i64>: Val,
{
    let (mut old, mut new) = (HashSet::new(), HashSet::new());
    nodes(a, &mut old);
    nodes(b, &mut old);
    nodes(out, &mut new);
    new.difference(&old).count()
}

/// One below-grain operation, counted: `run` applies it to clones of the
/// complete operands `a` and `b`. Every block it allocates beyond a
/// constant is a node, every node it builds and does not keep is freed
/// before it returns, and dropping the result frees exactly the copied
/// paths. With `exact`, no node is built that the result does not keep.
fn check_op<B: PipeBackend>(
    what: &str,
    a: &Treap<B, i64>,
    b: &Treap<B, i64>,
    exact: bool,
    run: impl FnOnce(Treap<B, i64>, Treap<B, i64>) -> Treap<B, i64>,
) where
    Treap<B, i64>: Val,
    TreapFut<B, i64>: Val,
{
    let (a2, b2) = (a.clone(), b.clone());
    let ([allocs, _, node_allocs, node_frees], out) = counted(move || run(a2, b2));
    assert!(out.sized().is_some(), "{what}: ran above the grain");
    let copied = fresh(&out, a, b);
    assert!(copied > 0, "{what}: nothing to count");
    assert!(
        allocs - node_allocs <= SLACK,
        "{what}: {allocs} blocks for {node_allocs} nodes"
    );
    assert_eq!(node_allocs - node_frees, copied, "{what}: nodes kept");
    if exact {
        assert_eq!(node_allocs, copied, "{what}: nodes built");
    }
    let ([_, frees, _, node_frees], ()) = counted(move || drop(out));
    assert_eq!((frees, node_frees), (copied, copied), "{what}: drop");
}

#[test]
fn a_complete_node_is_one_block_and_plain_code_allocates_nothing_else() {
    let k = 10_000usize;
    let big = entries((0..k as i64).map(|i| 3 * i));
    let plain = PlainTreap::from_entries(&big);

    // Input construction: k nodes, k blocks, and k frees to drop them.
    let ([allocs, _, node_allocs, _], t) = counted(|| Treap::from_plain(&Seq, &plain));
    assert_eq!((allocs, node_allocs), (k, k), "Seq from_plain");
    let ([_, frees, _, node_frees], ()) = counted(move || drop(t));
    assert_eq!((frees, node_frees), (k, k), "Seq drop");
    let ([_, _, node_allocs, _], a) = counted(|| Treap::from_entries(&Seq, &big));
    assert_eq!(node_allocs, k, "Seq from_entries");
    let ([allocs, _, node_allocs, _], ra) = counted(|| RTreap::from_plain_complete(&plain));
    assert_eq!((allocs, node_allocs), (k, k), "pf-rt from_plain_complete");
    // The linear-time builder: the same k blocks and one scratch vector,
    // no intermediate `Box` treap.
    let ([allocs, frees, node_allocs, _], sorted) = counted(|| RTreap::from_sorted_complete(&big));
    assert_eq!(
        (allocs, frees, node_allocs),
        (k + 1, 1, k),
        "from_sorted_complete"
    );
    drop(sorted);

    // Below-grain operations: a 100-key batch (its splits build nodes the
    // result does not keep) and a single key (they do not).
    type Op<B> = fn(&B, TreapFut<B, i64>, TreapFut<B, i64>, TreapWr<B, i64>, Mode);
    let rt = Runtime::new(1);
    type Case = (&'static str, Vec<(i64, u64)>, bool, Op<Seq>, Op<Worker>);
    let cases: [Case; 4] = [
        (
            "union of a batch",
            entries((0..100).map(|i| 290 * i + 1)),
            false,
            union,
            union,
        ),
        ("union of one key", entries([4_001]), true, union, union),
        (
            "diff of a batch",
            entries((0..100).map(|i| 291 * i)),
            false,
            diff,
            diff,
        ),
        ("diff of one key", entries([3_000]), true, diff, diff),
    ];
    for (what, b, exact, seq_op, rt_op) in cases {
        let sb = Treap::from_entries(&Seq, &b);
        check_op(&format!("Seq {what}"), &a, &sb, exact, |a, b| {
            Seq::run(|bk| {
                let (p, f) = bk.cell();
                seq_op(bk, bk.input(a), bk.input(b), p, Mode::Pipelined);
                Treap::expect(&f)
            })
        });
        let rb = RTreap::from_plain_complete(&PlainTreap::from_entries(&b));
        check_op(&format!("pf-rt {what}"), &ra, &rb, exact, |a, b| {
            let (p, f) = cell();
            rt.run(move |wk| rt_op(wk, ready(a), ready(b), p, Mode::Pipelined));
            f.expect()
        });
    }
}
