//! What a treap costs the allocator, counted: a complete treap is one
//! allocation per node and one per block — the sorted entries of a
//! complete subtree of at most 32 keys — whichever engine builds it, and
//! the plain below-grain code allocates nothing else: no cell per child.
//! One `#[test]` on purpose: the counters are process-wide, so nothing else
//! may run beside it.
//!
//! A pool's own bookkeeping is not counted: a session's slot is freed by
//! whichever of its client and its worker lets go of it last, and on one
//! core that may be the worker, after `run` has returned and a later window
//! has opened. So the test's thread counts except inside `rt.run`, and a
//! worker counts only while it runs the operation under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use pf_algs::plain::PlainTreap;
use pf_algs::treap::{diff, plan_run, union, Complete, Node, Treap, TreapFut, TreapWr};
use pf_algs::{Mode, PipeBackend, Seq};
use pf_rt::{cell, ready, Runtime, Worker};
use pf_tests::{assert_complete, entries, fold, Plain};

/// The allocation behind an `Arc<Node<i64>>`: two counters and a 72-byte
/// node — key, priority, size and two 24-byte children, since a child may
/// hold a block's slice pointer. A block of k entries is 16 + 16·k bytes,
/// never this.
const NODE: usize = std::mem::size_of::<Node<i64>>() + 16;
const _: () = assert!(NODE == 88);

/// Allocations that are neither nodes nor blocks, per operation: its
/// operand and result cells, on either engine. Independent of the
/// operands' sizes — a cell per node built would be thousands here.
const SLACK: usize = 16;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);
static NODE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static NODE_FREES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations and frees count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with this thread's allocations counted, or not.
fn counting<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let was = COUNTING.replace(on);
    let r = f();
    COUNTING.set(was);
    r
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only, and the
// `COUNTING` flag is const-initialised with no destructor, so reading it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCS.fetch_add(1, Relaxed);
            if layout.size() == NODE {
                NODE_ALLOCS.fetch_add(1, Relaxed);
            }
        }
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.get() {
            FREES.fetch_add(1, Relaxed);
            if layout.size() == NODE {
                NODE_FREES.fetch_add(1, Relaxed);
            }
        }
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations, frees, node allocations, node frees) while `f` ran, and
/// its result.
fn counted<R>(f: impl FnOnce() -> R) -> ([usize; 4], R) {
    let read = || [&ALLOCS, &FREES, &NODE_ALLOCS, &NODE_FREES].map(|c| c.load(Relaxed));
    let before = read();
    let r = f();
    let after = read();
    (std::array::from_fn(|i| after[i] - before[i]), r)
}

/// The addresses of `t`'s nodes (`.0`) and of its blocks (`.1`).
fn parts(t: &Complete<i64>, out: &mut [HashSet<usize>; 2]) {
    match t {
        Complete::Leaf => {}
        Complete::Node(n) => {
            out[0].insert(Arc::as_ptr(n) as usize);
            parts(&n.left, out);
            parts(&n.right, out);
        }
        Complete::Block(b) => {
            out[1].insert(Arc::as_ptr(b) as *const u8 as usize);
        }
    }
}

/// How many of `out`'s nodes and blocks neither operand holds: the copied
/// paths.
fn fresh(out: &Complete<i64>, a: &Complete<i64>, b: &Complete<i64>) -> (usize, usize) {
    let (mut old, mut new) = <[[HashSet<usize>; 2]; 2]>::default().into();
    parts(a, &mut old);
    parts(b, &mut old);
    parts(out, &mut new);
    let count = |i: usize| new[i].difference(&old[i]).count();
    (count(0), count(1))
}

/// The nodes and blocks of the complete treap of `t`'s entries, counted on
/// the plain treap itself: a node per subtree of more than 32 keys, a
/// block per largest subtree of at most 32.
fn canonical(t: &Plain) -> (usize, usize) {
    // (nodes, blocks, keys)
    fn rec(t: &Plain) -> (usize, usize, usize) {
        let Some(n) = t else { return (0, 0, 0) };
        let ((ln, lb, lk), (rn, rb, rk)) = (rec(&n.left), rec(&n.right));
        match 1 + lk + rk {
            keys if keys <= 32 => (0, 1, keys),
            keys => (1 + ln + rn, lb + rb, keys),
        }
    }
    let (nodes, blocks, _) = rec(t);
    (nodes, blocks)
}

/// One below-grain operation, counted: `run` applies it to clones of the
/// complete operands `a` and `b`. It keeps exactly the nodes and blocks
/// the result does not share with them, frees every other node it builds
/// before it returns, allocates nothing else beyond a constant and what it
/// builds and frees at the fringe, and dropping the result frees exactly
/// the copied paths. With `one_key`, no node is built that the result
/// does not keep, and the copied path ends in one block. The result is
/// `want`, complete.
fn check_op<B: PipeBackend>(
    what: &str,
    (a, b): (&Complete<i64>, &Complete<i64>),
    want: &Plain,
    one_key: bool,
    run: impl FnOnce(Treap<B, i64>, Treap<B, i64>) -> Treap<B, i64>,
) {
    let (a2, b2) = (a.clone(), b.clone());
    let ([allocs, frees, node_allocs, node_frees], out) =
        counted(move || run(Treap::Done(a2), Treap::Done(b2)));
    let Treap::Done(out) = out else {
        panic!("{what}: a below-grain operation returns a complete treap")
    };
    assert_complete(&out, want, what);
    let (nodes, blocks) = fresh(&out, a, b);
    assert!(nodes > 0, "{what}: nothing to count");
    assert_eq!(node_allocs - node_frees, nodes, "{what}: nodes kept");
    assert_eq!(allocs - frees, nodes + blocks, "{what}: kept");
    if one_key {
        assert_eq!((node_allocs, blocks), (nodes, 1), "{what}: path copied");
        assert!(
            allocs - nodes - blocks <= SLACK,
            "{what}: {allocs} allocations"
        );
    }
    let ([_, frees, _, node_frees], ()) = counted(move || drop(out));
    assert_eq!((frees, node_frees), (nodes + blocks, nodes), "{what}: drop");
}

/// A 1-key insert, a 1-key delete, and both in one pass, planned against
/// the complete treap of `plain` and committed. Unshared, the commit edits
/// the treap in place: it builds no node and at most one block per key —
/// the one the key lands in or leaves — and allocates nothing else but the
/// patch. With a clone held, the same pass copies each key's path, and the
/// clone keeps its tree.
fn check_in_place(plain: &Plain) {
    let (one, none) = (entries([4_001]), Vec::new());
    for (what, ins, del, paths) in [
        ("insert", &one, vec![], 1),
        ("delete", &none, vec![3_000], 1),
        ("insert and delete", &one, vec![3_000], 2),
    ] {
        let plan = |t: &Complete<i64>| plan_run(t, &del, ins, 1);
        let mut t = Complete::from_plain(plain);
        let mut old = <[HashSet<usize>; 2]>::default();
        parts(&t, &mut old);
        let ([allocs, _, node_allocs, _], graveyard) = counted(|| {
            let patch = plan(&t);
            patch.commit(&mut t).ok().expect("an unshared treap")
        });
        let mut new = <[HashSet<usize>; 2]>::default();
        parts(&t, &mut new);
        let built = |i: usize| new[i].difference(&old[i]).count();
        assert_eq!((node_allocs, built(0)), (0, 0), "{what} in place: nodes");
        assert!(built(1) <= paths, "{what} in place: {} blocks", built(1));
        assert!(
            allocs <= built(1) + 1,
            "{what} in place: {allocs} allocations"
        );
        let want = fold(plain.clone(), &del, ins);
        assert_complete(&t, &want, &format!("{what} in place"));
        drop(graveyard);

        let mut t = Complete::from_plain(plain);
        let held = t.clone();
        let ([_, _, node_allocs, _], graveyard) = counted(|| {
            let patch = plan(&t);
            patch
                .commit(&mut t)
                .ok()
                .expect("a copied root needs no owner")
        });
        let (nodes, blocks) = fresh(&t, &held, &Complete::Leaf);
        assert!(nodes > 0, "{what} with a clone held: nothing copied");
        assert_eq!((node_allocs, blocks), (nodes, paths), "{what}: path copied");
        assert_complete(&t, &want, &format!("{what} with a clone held"));
        assert_complete(&held, plain, &format!("{what}: the clone"));
        drop(graveyard);
    }
}

#[test]
fn a_complete_node_is_one_block_and_plain_code_allocates_nothing_else() {
    COUNTING.set(true);
    let k = 10_000usize;
    let big = entries((0..k as i64).map(|i| 3 * i));
    let plain = PlainTreap::from_entries(&big);
    let (nodes, blocks) = canonical(&plain);
    // 586 nodes and 562 blocks: one allocation per nine keys, not per key.
    assert_eq!((nodes, blocks), (586, 562));

    // Input construction: the canonical nodes and blocks, the entries in
    // key order and the Cartesian tree's index vector as scratch, and the
    // nodes and blocks again to drop them.
    let built = (nodes + blocks + 2, 2, nodes);
    let ([allocs, frees, node_allocs, _], t) = counted(|| Treap::from_plain(&Seq, &plain));
    assert_eq!((allocs, frees, node_allocs), built, "Seq from_plain");
    let ([_, frees, _, node_frees], ()) = counted(move || drop(t));
    assert_eq!((frees, node_frees), (nodes + blocks, nodes), "Seq drop");
    let ([_, _, node_allocs, _], _) = counted(|| Treap::from_entries(&Seq, &big));
    assert_eq!(node_allocs, nodes, "Seq from_entries");
    let ([allocs, frees, node_allocs, _], c) = counted(|| Complete::from_plain(&plain));
    assert_eq!((allocs, frees, node_allocs), built, "Complete::from_plain");
    assert_eq!(fresh(&c, &Complete::Leaf, &Complete::Leaf), (nodes, blocks));
    // The linear-time builder: the same nodes and blocks and one scratch
    // vector, no intermediate `Box` treap.
    let ([allocs, frees, node_allocs, _], sorted) = counted(|| Complete::from_sorted(&big));
    assert_eq!(
        (allocs, frees, node_allocs),
        (nodes + blocks + 1, 1, nodes),
        "Complete::from_sorted"
    );
    drop(sorted);

    // Below-grain operations on the big treap: a 100-key batch (its splits
    // build nodes and blocks the result does not keep) and a single key
    // (they do not). Then the two ends of the size rules: 2 000 keys
    // interleaved with 3 000, more than half, merged whole from both
    // treaps' entries; a 200-key batch minus the big treap, its keys
    // looked up there.
    type Op<B> = fn(&B, TreapFut<B, i64>, TreapFut<B, i64>, TreapWr<B, i64>, Mode);
    let near = entries((0..3000).map(|i| 2 * i));
    let batch = entries((0..200).map(|i| 3 * i + i % 2));
    let rt = Runtime::new(1);
    // (what, a, b, one key, union (or diff))
    type Case<'a> = (&'static str, &'a [(i64, u64)], Vec<(i64, u64)>, bool, bool);
    let cases: [Case<'_>; 6] = [
        (
            "union of a batch",
            &big,
            entries((0..100).map(|i| 290 * i + 1)),
            false,
            true,
        ),
        ("union of one key", &big, entries([4_001]), true, true),
        (
            "diff of a batch",
            &big,
            entries((0..100).map(|i| 291 * i)),
            false,
            false,
        ),
        ("diff of one key", &big, entries([3_000]), true, false),
        (
            "near-equal union",
            &near,
            entries((0..2000).map(|i| 2 * i + 1)),
            false,
            true,
        ),
        (
            "batch minus the big treap",
            &batch,
            big.clone(),
            false,
            false,
        ),
    ];
    for (what, a, b, one_key, is_union) in cases {
        let keys: Vec<i64> = b.iter().map(|e| e.0).collect();
        let (seq_op, rt_op, want): (Op<Seq>, Op<Worker>, _) = match is_union {
            true => (union, union, fold(PlainTreap::from_entries(a), &[], &b)),
            false => (diff, diff, fold(PlainTreap::from_entries(a), &keys, &[])),
        };
        let (ca, cb) = (Complete::from_sorted(a), Complete::from_sorted(&b));
        check_op(
            &format!("Seq {what}"),
            (&ca, &cb),
            &want,
            one_key,
            |a, b| {
                Seq::run(|bk| {
                    let (p, f) = bk.cell();
                    seq_op(bk, bk.input(a), bk.input(b), p, Mode::Pipelined);
                    Treap::expect(&f)
                })
            },
        );
        check_op(
            &format!("pf-rt {what}"),
            (&ca, &cb),
            &want,
            one_key,
            |a, b| {
                let (p, f) = cell();
                counting(false, || {
                    rt.run(move |wk| {
                        counting(true, || rt_op(wk, ready(a), ready(b), p, Mode::Pipelined))
                    })
                });
                f.expect()
            },
        );
    }

    // In place, and the same pass beside a held clone: the plan and the
    // commit allocate the block they change and the patch, no path.
    check_in_place(&plain);
}
