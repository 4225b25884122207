//! The algorithm suite: every §3 algorithm checked against its oracle on
//! every engine, and the helpers every cross-crate test shares.
//!
//! A future changes *when* a value is available, never *what* it is, so
//! the suite states one property: on each engine — the sequential oracle
//! [`Seq`], the cost-model simulator [`Ctx`], and pf-rt ([`Worker`]) at
//! every pool width in [`WIDTHS`] — an algorithm builds its oracle's
//! result. [`Engine`] runs a program on one of them; one check per
//! algorithm states, once, what its results must be:
//!
//! | check | result on every engine |
//! |---|---|
//! | [`SetOps::check`] | union, difference, a union of a pending union: `PlainTreap`'s tree entry for entry, invariants, canonical representation once sealed |
//! | [`check_split_join`] | `splitm` then `join`: `PlainTreap::split`'s trees and flag, then `PlainTreap::join`'s tree |
//! | [`check_split`] | BST `split`: the keys below and from the splitter |
//! | [`check_merge`] | `merge` (`Seq`'s height) and `merge_balanced` (balanced height) |
//! | [`check_rebalance`] | the balanced tree of the keys |
//! | [`check_msort`] | the sorted keys, at `Seq`'s height or balanced |
//! | [`check_insert26`] | a valid 2-6 tree of the union of the keys |
//! | [`check_quicksort`], [`check_pipeline`] | the sorted list, the sum |
//! | [`assert_complete`] of a [`fold`] | a treap set kernel on a complete treap — `apply_run`, a committed patch, a pf-service root: `PlainTreap` folded through the deletes and then the inserts, entry for entry, invariants, canonical representation, [`Treap::sized`] |
//!
//! On pf-rt every run also holds its session to the scheduler's liveness
//! identity, `tasks_executed - suspensions == spawns + 1`; and
//! [`same_spawns_at_every_width`] holds a shallow program's spawn count to
//! its text. Callers choose the engine by type — proptests on `Seq`
//! (pf-algs' `tests/prop.rs`) and on `Ctx` (`it_cost_model.rs`, which adds
//! the cost assertions through [`strict_vs_pipelined`] and [`sim`]), and
//! fixed cases, above the grain among them, on all three: this crate's unit
//! tests, one module per family and engine (`treap::tests::…` on `Seq` and
//! `Ctx`, `rtreap::tests::…` on pf-rt).

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

use pf_algs::list::ListFut;
use pf_algs::merge::split;
use pf_algs::plain::{splitmix64, Entry, PlainTreap};
use pf_algs::start::*;
use pf_algs::treap::{diff, join, splitm, union, within_grain, Child, Treap, TreapNode};
use pf_algs::tree::{Tree, TreeFut};
use pf_algs::two_six::TsFut;
use pf_algs::{Key, Mode, PipeBackend, Seq, Val};
use pf_core::{CostReport, Ctx, Fut, Sim};
use pf_rt::{cell, Runtime, Worker};

/// A starter at `B = Worker` as one session of a runtime: its finished
/// result and the session's stats.
pub use pf_bench::baselines::on_rt;
/// Each starter in a simulation of its own, for the cost assertions.
pub use pf_bench::sim;

/// The generic treap on the runtime's engine.
pub type RTreap<K> = Treap<Worker, K>;

/// A sequential treap: the oracle's side of every treap check.
pub type Plain<K = i64> = Option<Box<PlainTreap<K>>>;

/// The mode every algorithm in the suite runs in; [`strict_vs_pipelined`]
/// alone also runs [`Mode::Strict`], the paper's comparison point.
pub const M: Mode = Mode::Pipelined;

/// The pool widths every pf-rt check runs at.
pub const WIDTHS: [usize; 3] = [1, 2, 4];

/// Deterministic entries from a key iterator (priorities hashed from keys).
pub fn entries(keys: impl IntoIterator<Item = i64>) -> Vec<Entry<i64>> {
    keys.into_iter()
        .map(|k| (k, splitmix64(k as u64 ^ 0xDEAD_BEEF)))
        .collect()
}

/// `0, 2, 4, …` (`n` keys).
pub fn evens(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| 2 * i).collect()
}

/// `1, 3, 5, …` (`n` keys).
pub fn odds(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| 2 * i + 1).collect()
}

/// How deep a treap operand's unsized top reaches: [`ALL`] is no node
/// sized and every child a written cell, as a pipelined producer publishes
/// a treap; [`SIZED`] is the engine's complete input (what
/// `Treap::from_plain` builds); `Some(d)` is `d` levels of unsized nodes,
/// each over one cell and one directly held complete subtree, above
/// complete ones — the mixed shapes a larger-than-grain operation leaves
/// behind.
pub type Crust = Option<usize>;
/// Every node unsized, every child a written cell.
pub const ALL: Crust = None;
/// The complete treap.
pub const SIZED: Crust = Some(0);
/// Complete operands on both sides.
pub const BOTH_SIZED: [(Crust, Crust); 1] = [(SIZED, SIZED)];
/// Both ends, one of each, and mixed tops on either side.
pub const CRUSTS: [(Crust, Crust); 6] = [
    (SIZED, SIZED),
    (ALL, ALL),
    (ALL, SIZED),
    (Some(3), SIZED),
    (SIZED, Some(4)),
    (Some(2), ALL),
];

/// The treap of `t` on `bk` with its unsized top `crust` deep.
pub fn crusted<B: PipeBackend, K: Key>(bk: &B, t: &Plain<K>, crust: Crust) -> Treap<B, K> {
    let Some(n) = t else { return Treap::Leaf };
    let cell = |t, crust| Child::Cell(bk.input(crusted(bk, t, crust)));
    let done = |t| Child::Done(Treap::from_plain(bk, t));
    let (left, right) = match crust {
        SIZED => return Treap::from_plain(bk, t),
        ALL => (cell(&n.left, ALL), cell(&n.right, ALL)),
        Some(d) if d % 2 == 0 => (cell(&n.left, Some(d - 1)), done(&n.right)),
        Some(d) => (done(&n.left), cell(&n.right, Some(d - 1))),
    };
    Treap::Node(Arc::new(TreapNode {
        key: n.key.clone(),
        prio: n.prio,
        size: 0,
        left,
        right,
    }))
}

/// The plain treap's entries in preorder, as `Treap::preorder` lists an
/// engine treap's: with the search order, that fixes the shape.
pub fn plain_preorder<K: Clone>(t: &Plain<K>) -> Vec<Entry<K>> {
    fn rec<K: Clone>(t: &Plain<K>, out: &mut Vec<Entry<K>>) {
        if let Some(n) = t {
            out.push((n.key.clone(), n.prio));
            rec(&n.left, out);
            rec(&n.right, out);
        }
    }
    let mut out = vec![];
    rec(t, &mut out);
    out
}

/// A node with its size, or a block with its entries, in preorder: the
/// representation itself, not just the tree it stands for.
#[derive(Debug, PartialEq)]
enum Part<K> {
    Node(Entry<K>, usize),
    Block(Vec<Entry<K>>),
}

fn layout<B: PipeBackend, K: Key>(t: &Treap<B, K>, out: &mut Vec<Part<K>>) {
    match t {
        Treap::Leaf => {}
        Treap::Node(n) => {
            out.push(Part::Node((n.key.clone(), n.prio), n.size));
            layout(&n.left.get(), out);
            layout(&n.right.get(), out);
        }
        Treap::Block(b) => out.push(Part::Block(b.to_vec())),
    }
}

/// A plain treap as an engine-`B` treap must stand for it: its entries in
/// preorder, and — on an engine that cuts — the layout of the complete
/// treap of them.
struct Expected<K> {
    preorder: Vec<Entry<K>>,
    complete: Vec<Part<K>>,
}

/// The layout of the complete treap of `t`'s entries, read off the plain
/// treap itself by the representation rule: a node with its size over
/// more than 32 keys, one block of the entries in key order for every
/// largest subtree of at most 32.
fn canonical<K: Key>(t: &Plain<K>, out: &mut Vec<Part<K>>) {
    fn in_order<K: Clone>(t: &Plain<K>, out: &mut Vec<Entry<K>>) {
        if let Some(n) = t {
            in_order(&n.left, out);
            out.push((n.key.clone(), n.prio));
            in_order(&n.right, out);
        }
    }
    let Some(n) = t else { return };
    match PlainTreap::size(t) {
        size if size <= 32 => {
            let mut block = vec![];
            in_order(t, &mut block);
            out.push(Part::Block(block));
        }
        size => {
            out.push(Part::Node((n.key.clone(), n.prio), size));
            canonical(&n.left, out);
            canonical(&n.right, out);
        }
    }
}

impl<K: Key + Debug> Expected<K> {
    fn new<B: PipeBackend>(want: &Plain<K>) -> Self {
        let mut complete = vec![];
        if B::GRAIN > 0 {
            canonical(want, &mut complete);
        }
        let preorder = plain_preorder(want);
        Expected { preorder, complete }
    }

    /// With `complete`, `got` must also be sized: a plain kernel's result.
    fn assert<B: PipeBackend>(&self, got: &Treap<B, K>, complete: bool, what: &str) {
        assert_eq!(got.preorder(), self.preorder, "{what}");
        assert!(got.check_invariants(), "{what}");
        if complete {
            assert_eq!(got.sized(), Some(self.preorder.len()), "complete, {what}");
        }
        if B::GRAIN > 0 {
            let (sealed, mut parts) = (got.sealed(), vec![]);
            layout(&sealed, &mut parts);
            assert_eq!(parts, self.complete, "sealed, {what}");
        }
    }
}

/// `got` is `want`'s tree entry for entry and passes `check_invariants`;
/// on an engine that cuts, it also seals to exactly the complete treap of
/// its entries: the nodes, sizes and blocks the representation rule makes,
/// and no cell. (The simulator never cuts, so it has no representation to
/// canonicalise: its every node is unsized, over cells.)
pub fn assert_oracles_tree<B: PipeBackend, K: Key + Debug>(
    got: &Treap<B, K>,
    want: &Plain<K>,
    what: &str,
) {
    Expected::new::<B>(want).assert(got, false, what);
}

/// The set kernels' one oracle: `t` without the keys `deletes`, then
/// united with `inserts`, by `PlainTreap`. A key `inserts` holds twice
/// keeps its [`wins`](pf_algs::plain::wins) winner, as a union of the two
/// keeps it.
pub fn fold<K: Key>(t: Plain<K>, deletes: &[K], inserts: &[Entry<K>]) -> Plain<K> {
    let deletes: Vec<Entry<K>> = (deletes.iter().enumerate())
        .map(|(i, k)| (k.clone(), splitmix64(i as u64)))
        .collect();
    let mut inserts = inserts.to_vec();
    inserts.sort_by_key(|e| std::cmp::Reverse(e.1));
    let without = PlainTreap::diff(t, PlainTreap::from_entries(&deletes));
    PlainTreap::union(without, PlainTreap::from_entries(&inserts))
}

/// [`assert_oracles_tree`], and `got` is complete — its
/// [`sized`](Treap::sized) counts every key — as a plain kernel's result
/// and a committed root are.
pub fn assert_complete<B: PipeBackend, K: Key + Debug>(
    got: &Treap<B, K>,
    want: &Plain<K>,
    what: &str,
) {
    Expected::new::<B>(want).assert(got, true, what);
}

/// A future of engine `B`.
type Out<B, T> = <B as PipeBackend>::Fut<T>;

/// Inline evaluation nests one native frame per fork on the critical path
/// — Θ(n) deep for the list pipelines — so `Seq` and the simulator run on
/// a thread with a big (lazily committed) stack.
const STACK: usize = pf_core::DEFAULT_SIM_STACK;

/// An engine the suite runs on.
pub trait Engine: PipeBackend {
    /// Run `start` to quiescence — on pf-rt, once per width in [`WIDTHS`] —
    /// and hand `check` each run's name and the values of the futures
    /// `start` returned.
    fn check<T: Val>(
        start: impl Fn(&Self) -> Vec<Out<Self, T>> + Send + Sync + 'static,
        check: impl FnMut(&str, Vec<T>),
    );
}

impl Engine for Seq {
    fn check<T: Val>(
        start: impl Fn(&Seq) -> Vec<Out<Seq, T>> + Send + Sync + 'static,
        mut check: impl FnMut(&str, Vec<T>),
    ) {
        let got = Seq::run_with_stack(STACK, |bk| start(bk).iter().map(|f| f.expect()).collect());
        check("Seq", got);
    }
}

impl Engine for Ctx {
    fn check<T: Val>(
        start: impl Fn(&Ctx) -> Vec<Out<Ctx, T>> + Send + Sync + 'static,
        mut check: impl FnMut(&str, Vec<T>),
    ) {
        let got = pf_core::run_with_big_stack(STACK, move || {
            let (futs, _) = Sim::new().run(|ctx| start(ctx));
            futs.iter().map(|f| f.get()).collect()
        });
        check("Ctx", got);
    }
}

impl Engine for Worker {
    fn check<T: Val>(
        start: impl Fn(&Worker) -> Vec<Out<Worker, T>> + Send + Sync + 'static,
        mut check: impl FnMut(&str, Vec<T>),
    ) {
        let start = Arc::new(start);
        for width in WIDTHS {
            let (start, (p, f)) = (Arc::clone(&start), cell());
            let stats = Runtime::shared(width).run_stats(move |wk| p.fulfill(wk, start(wk)));
            let what = format!("pf-rt at width {width}");
            assert_eq!(
                stats.tasks_executed - stats.suspensions,
                stats.spawns + 1,
                "{what}: liveness identity"
            );
            check(&what, f.expect().iter().map(|f| f.expect()).collect());
        }
    }
}

/// `start` spawns as many tasks at every width in [`WIDTHS`]: a fork
/// counts once whether its child ran inline or was pushed, so a program
/// that stays shallower than pf-rt's inline-depth guard spawns what its
/// text forks, however it is scheduled. (Past the guard a ready
/// continuation is spawned rather than nested, and whether a touch finds
/// its cell ready is the schedule's business.)
pub fn same_spawns_at_every_width<T: Val>(
    start: impl Fn(&Worker) -> Out<Worker, T> + Send + Sync + 'static,
) {
    let start = Arc::new(start);
    let spawns = WIDTHS.map(|width| {
        let start = Arc::clone(&start);
        on_rt(&Runtime::shared(width), move |wk| start(wk)).1.spawns
    });
    assert!(
        spawns.iter().all(|&s| s == spawns[0]),
        "spawns at widths {WIDTHS:?}: {spawns:?}"
    );
}

/// A treap set operation, by its plain oracle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SetOp {
    /// `union(a, b)`.
    Union,
    /// `diff(a, b)`: `a` minus `b`.
    Diff,
    /// `union(a, union(b, a))`, the inner union forked and read through
    /// its cell: an upper union whose operand may still be pending.
    UnionChain,
}

/// Every [`SetOp`].
pub const SET_OPS: [SetOp; 3] = [SetOp::Union, SetOp::Diff, SetOp::UnionChain];

/// Two treap operands, as plain treaps, and what each [`SetOp`] of them
/// must build — computed once, however many engines and crusts check it.
pub struct SetOps<K: Val> {
    a: Arc<Plain<K>>,
    b: Arc<Plain<K>>,
    want: [Plain<K>; 3],
}

impl<K: Key + Debug> SetOps<K> {
    /// The operands' treaps and the plain results.
    pub fn new(a: &[Entry<K>], b: &[Entry<K>]) -> Self {
        let (pa, pb) = (PlainTreap::from_entries(a), PlainTreap::from_entries(b));
        let union = PlainTreap::union(pa.clone(), pb.clone());
        let want = [
            union.clone(),
            PlainTreap::diff(pa.clone(), pb.clone()),
            PlainTreap::union(union, pa.clone()),
        ];
        SetOps {
            a: Arc::new(pa),
            b: Arc::new(pb),
            want,
        }
    }

    /// On engine `B`, for every pair of operand crusts, each of `ops`
    /// builds its plain result by [`assert_oracles_tree`]; and where both
    /// operands are complete and the union is within the grain, union and
    /// difference ran as plain code, so their results are complete too.
    pub fn check<B: Engine>(&self, ops: &[SetOp], crusts: &[(Crust, Crust)]) {
        let plain = within_grain::<B>(PlainTreap::size(&self.a), PlainTreap::size(&self.b));
        let want: Vec<Expected<K>> = (ops.iter())
            .map(|&op| Expected::new::<B>(&self.want[op as usize]))
            .collect();
        for &(ca, cb) in crusts {
            let (a, b, run) = (Arc::clone(&self.a), Arc::clone(&self.b), ops.to_vec());
            B::check(
                move |bk| {
                    let (fa, fb) = (bk.input(crusted(bk, &a, ca)), bk.input(crusted(bk, &b, cb)));
                    let set_op = |op| {
                        let (fa, fb) = (fa.clone(), fb.clone());
                        let fb = match op {
                            SetOp::UnionChain => {
                                let (inner, f) = bk.cell();
                                let a = fa.clone();
                                bk.fork(move |bk| union(bk, fb, a, inner, M));
                                f
                            }
                            _ => fb,
                        };
                        let binary = match op {
                            SetOp::Union | SetOp::UnionChain => union,
                            SetOp::Diff => diff,
                        };
                        let (out, f) = bk.cell();
                        binary(bk, fa, fb, out, M);
                        f
                    };
                    run.iter().map(|&op| set_op(op)).collect()
                },
                |engine, got| {
                    for ((&op, want), got) in ops.iter().zip(&want).zip(&got) {
                        let what = format!("{engine}: {op:?}, crusts ({ca:?}, {cb:?})");
                        let complete = plain && (ca, cb) == (SIZED, SIZED);
                        want.assert(got, complete && op != SetOp::UnionChain, &what);
                    }
                },
            );
        }
    }
}

/// Operand pairs either side of the plain kernel's size rules, both ways
/// round: a union merges 600 keys into 1 199 and cuts them into 1 200; 300
/// keys are looked up in 1 201 and meet 1 200 flattened into a key run.
#[cfg(test)]
pub(crate) fn size_rule_pairs() -> Vec<[Vec<Entry<i64>>; 2]> {
    let sizes = [(1199, 600), (1200, 600), (1201, 300), (1200, 300)];
    let pair = |(n, m)| [entries(evens(n)), entries((0..m).map(|i| 3 * i + 1))];
    let orders = |[a, b]: [Vec<Entry<i64>>; 2]| [[a.clone(), b.clone()], [b, a]];
    sizes.into_iter().map(pair).flat_map(orders).collect()
}

/// On engine `B`: `splitm` of `t` (with its unsized top `crust` deep) at
/// `s` builds `PlainTreap::split`'s two trees and reports whether `s` was
/// there; `join` of the two builds `PlainTreap::join`'s tree.
pub fn check_split_join<B: Engine, K: Key + Debug>(t: &Plain<K>, crust: Crust, s: K) {
    let (wl, wr, found) = PlainTreap::split(t.clone(), &s);
    let wj = PlainTreap::join(wl.clone(), wr.clone());
    let t = Arc::new(t.clone());
    B::check(
        move |bk| {
            let [(lp, lf), (rp, rf)] = [bk.cell(), bk.cell()];
            let (fp, ff) = bk.cell();
            splitm(bk, s.clone(), crusted(bk, &t, crust), lp, rp, fp);
            let (out, parts) = bk.cell();
            bk.touch(&lf, move |bk, l: Treap<B, K>| {
                bk.touch(&rf, move |bk, r| {
                    bk.touch(&ff, move |bk, hit| {
                        let (jp, jf) = bk.cell();
                        join(bk, l.clone(), r.clone(), jp);
                        bk.touch(&jf, move |bk, j| bk.fulfill(out, (l, r, j, hit)));
                    });
                });
            });
            vec![parts]
        },
        |engine, got| {
            let (l, r, j, got_found) = &got[0];
            let what = format!("{engine}: split, crust {crust:?}");
            assert_eq!(*got_found, found, "{what}");
            assert_oracles_tree(l, &wl, &format!("left of {what}"));
            assert_oracles_tree(r, &wr, &format!("right of {what}"));
            assert_oracles_tree(j, &wj, &format!("join after {what}"));
        },
    );
}

/// On engine `B`: the BST `split` of the balanced tree of `keys` (sorted)
/// at `s` holds the keys below `s` on the left and the rest on the right.
pub fn check_split<B: Engine>(keys: &[i64], s: i64) {
    let (below, from): (Vec<i64>, Vec<i64>) = keys.iter().partition(|&&k| k < s);
    let keys = keys.to_vec();
    B::check(
        move |bk| {
            let [(lp, lf), (rp, rf)] = [bk.cell(), bk.cell()];
            split(bk, s, Tree::from_sorted(bk, &keys), lp, rp);
            vec![lf, rf]
        },
        |engine, got| {
            let what = format!("{engine}: split at {s}");
            assert!(got.iter().all(Tree::is_search_tree), "{what}");
            assert_eq!(got[0].to_sorted_vec(), below, "{what}");
            assert_eq!(got[1].to_sorted_vec(), from, "{what}");
        },
    );
}

/// A tree's keys and height: with a deterministic shape, what two runs
/// of one algorithm must agree on.
pub fn shape<B: PipeBackend, K: Key>(t: &Tree<B, K>) -> (Vec<K>, usize) {
    (t.to_sorted_vec(), t.height())
}

/// The height of a perfectly balanced tree of `n` keys.
fn balanced_height(n: usize) -> usize {
    n.checked_ilog2().map_or(0, |lg| lg as usize + 1)
}

/// `keys` sorted, each once.
fn sorted<K: Ord + Clone>(keys: impl IntoIterator<Item = K>) -> Vec<K> {
    keys.into_iter()
        .collect::<BTreeSet<K>>()
        .into_iter()
        .collect()
}

/// On engine `B`, each tree `start` builds is a search tree of exactly
/// `keys` at the height that goes with it.
fn check_trees<B: Engine, K: Key + Debug>(
    what: &str,
    start: impl Fn(&B) -> Vec<TreeFut<B, K>> + Send + Sync + 'static,
    keys: &[K],
    heights: &[usize],
) {
    B::check(start, |engine, got| {
        for (i, (t, height)) in got.iter().zip(heights).enumerate() {
            let what = format!("{engine}: {what} #{i}");
            assert!(t.is_search_tree(), "{what}");
            assert_eq!(t.to_sorted_vec(), keys, "{what}");
            assert_eq!(t.height(), *height, "{what}");
        }
    });
}

/// On engine `B`: `merge` of the balanced trees of `a` and `b` (sorted and
/// disjoint) holds their keys at the height `Seq` builds — the shape is
/// deterministic — and `merge_balanced` at the balanced height.
pub fn check_merge<B: Engine, K: Key + Debug>(a: &[K], b: &[K]) {
    let keys = sorted(a.iter().chain(b).cloned());
    let height = Seq::run(|bk| merge_on(bk, a, b, M).expect().height());
    let (a, b) = (a.to_vec(), b.to_vec());
    let start = move |bk: &B| vec![merge_on(bk, &a, &b, M), merge_balanced_on(bk, &a, &b, M)];
    check_trees(
        "merge",
        start,
        &keys,
        &[height, balanced_height(keys.len())],
    );
}

/// On engine `B`: `rebalance` of the search tree that inserting `keys`
/// (distinct) in order builds is the balanced tree of the same keys.
pub fn check_rebalance<B: Engine, K: Key + Debug>(keys: &[K]) {
    let want = sorted(keys.iter().cloned());
    let keys = keys.to_vec();
    let start = move |bk: &B| vec![rebalance_on(bk, &keys, M)];
    check_trees("rebalance", start, &want, &[balanced_height(want.len())]);
}

/// On engine `B`: the §5 mergesort of `keys` (distinct) is the search tree
/// of the sorted keys — balanced if `balanced`, else at `Seq`'s height.
pub fn check_msort<B: Engine, K: Key + Debug>(keys: &[K], balanced: bool) {
    let want = sorted(keys.iter().cloned());
    let height = match balanced {
        true => balanced_height(want.len()),
        false => Seq::run(|bk| msort_on(bk, keys, false, M).expect().height()),
    };
    let keys = keys.to_vec();
    let start = move |bk: &B| vec![msort_on(bk, &keys, balanced, M)];
    check_trees("msort", start, &want, &[height]);
}

/// On engine `B`: the §3.4 bulk insert of `keys` into the 2-6 tree of
/// `initial` (both sorted and distinct) is a valid 2-6 tree of the union
/// of the two.
pub fn check_insert26<B: Engine>(initial: &[i64], keys: &[i64]) {
    let want = sorted(initial.iter().chain(keys).copied());
    let (initial, keys) = (initial.to_vec(), keys.to_vec());
    B::check(
        move |bk| -> Vec<TsFut<B, i64>> { vec![insert_many_on(bk, &initial, &keys, M)] },
        |engine, got| {
            let t = &got[0];
            t.validate().unwrap_or_else(|e| panic!("{engine}: {e}"));
            assert_eq!(t.to_sorted_vec(), want, "{engine}");
        },
    );
}

/// On engine `B`: the Figure 2 quicksort of `keys` is `keys` sorted,
/// duplicates kept.
pub fn check_quicksort<B: Engine>(keys: &[i64]) {
    let mut want = keys.to_vec();
    want.sort_unstable();
    let keys = keys.to_vec();
    B::check(
        move |bk| -> Vec<ListFut<B, i64>> { vec![quicksort_on(bk, &keys, M)] },
        |engine, got| assert_eq!(got[0].collect_vec(), want, "{engine}"),
    );
}

/// On engine `B`: the Figure 1 pipeline of `n` items sums `1..=n`.
pub fn check_pipeline<B: Engine>(n: u64) {
    B::check(
        move |bk| vec![pipeline_on(bk, n, M)],
        |engine, got| assert_eq!(got[0], n * (n + 1) / 2, "{engine}: n = {n}"),
    );
}

/// The simulator's cost rule for one starter, `start` at a mode: its
/// strict and pipelined runs build the same result (as `view` sees it) at
/// the same work, pipelining never deepens the run, and the pipelined run
/// is linear code (every cell read at most once) with its depth within its
/// work. Returns the pipelined and the strict report, for a caller's own
/// bounds.
pub fn strict_vs_pipelined<T: Clone, V: PartialEq + Debug>(
    start: impl Fn(&Ctx, Mode) -> Fut<T>,
    view: impl Fn(&T) -> V,
) -> [CostReport; 2] {
    let run = |mode| {
        let (f, report) = Sim::new().run(|ctx| start(ctx, mode));
        (view(&f.get()), report)
    };
    let ((pv, p), (sv, s)) = (run(Mode::Pipelined), run(Mode::Strict));
    assert_eq!(pv, sv, "strict and pipelined build the same result");
    assert_eq!(p.work, s.work, "strictness preserves work");
    assert!(
        p.depth <= s.depth,
        "pipelined {} > strict {}",
        p.depth,
        s.depth
    );
    assert!(p.is_linear(), "every cell is read at most once");
    assert!(p.depth <= p.work, "depth {} > work {}", p.depth, p.work);
    [p, s]
}

// The fixed cases: each family on `Seq` and the simulator, and the same
// family on pf-rt (`r…`).
#[cfg(test)]
mod list;
#[cfg(test)]
mod merge;
#[cfg(test)]
mod mergesort;
#[cfg(test)]
mod pipeline;
#[cfg(test)]
mod quicksort;
#[cfg(test)]
mod rebalance;
#[cfg(test)]
mod rlist;
#[cfg(test)]
mod rrebalance;
#[cfg(test)]
mod rtreap;
#[cfg(test)]
mod rtree;
#[cfg(test)]
mod rtwosix;
#[cfg(test)]
mod treap;
#[cfg(test)]
mod two_six;
