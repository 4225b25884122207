//! The simulation engine: virtual-clock execution of futures programs.
//!
//! See the crate-level docs for the model. In brief: programs run eagerly on
//! one OS thread, but every thread of the *simulated* computation carries a
//! virtual clock, every future cell records the clock at which it was
//! written, and touches advance the clock across data edges. The maximum
//! clock reached is the DAG depth; the sum of charged actions is the work.
//!
//! All [`Ctx`] methods take `&self`: a context is a per-simulated-thread
//! clock (interior-mutable) over shared simulation state, which is what lets
//! `Ctx` implement the engine-agnostic `pf_backend::PipeBackend` trait —
//! continuations receive a fresh `&Ctx` exactly like the real runtime hands
//! out `&Worker`.

use std::cell::{Cell as StdCell, RefCell};
use std::cmp::max;
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::{CostModel, CostReport};
use crate::fut::{new_cell, Fut, Promise, RestampCell};
use crate::trace::{Ev, ThreadId, Trace, TraceBuilder};

/// Default stack size for [`run_with_big_stack`]: the eager evaluator nests
/// one native frame per simulated fork on the critical path, and list
/// pipelines (Figure 1, quicksort) nest Θ(n) deep.
pub const DEFAULT_SIM_STACK: usize = 1 << 30; // 1 GiB of (lazily committed) stack

/// Run `f` on a dedicated thread with a large stack.
///
/// The simulator evaluates fork bodies by direct recursion, so programs with
/// long sequential fork chains (the producer/consumer pipeline, quicksort)
/// need more than the default 8 MiB stack for large inputs.
pub fn run_with_big_stack<T: Send>(stack: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(stack)
            .name("pf-sim".into())
            .spawn_scoped(scope, f)
            .expect("failed to spawn simulation thread")
            .join()
            .expect("simulation thread panicked")
    })
}

#[derive(Default)]
struct StrictFrame {
    /// Cells written inside the frame; re-stamped to the frame's end time.
    cells: Vec<Arc<dyn RestampCell>>,
    /// Latest end time of any simulated thread that terminated inside the
    /// frame — the completion time of the whole strict sub-computation.
    max_end: u64,
}

pub(crate) struct SimState {
    costs: CostModel,
    work: StdCell<u64>,
    max_time: StdCell<u64>,
    forks: StdCell<u64>,
    touches: StdCell<u64>,
    writes: StdCell<u64>,
    flats: StdCell<u64>,
    next_cell: StdCell<u64>,
    max_reads: StdCell<u32>,
    frames: RefCell<Vec<StrictFrame>>,
    trace: RefCell<Option<TraceBuilder>>,
    pre_written: RefCell<Vec<u64>>,
    /// When profiling: profile[t] = number of unit actions executed at
    /// virtual time t+1 (the DAG's width at each depth).
    profile: RefCell<Option<Vec<u64>>>,
}

impl SimState {
    fn new(costs: CostModel) -> Self {
        costs.validate();
        SimState {
            costs,
            work: StdCell::new(0),
            max_time: StdCell::new(0),
            forks: StdCell::new(0),
            touches: StdCell::new(0),
            writes: StdCell::new(0),
            flats: StdCell::new(0),
            next_cell: StdCell::new(0),
            max_reads: StdCell::new(0),
            frames: RefCell::new(Vec::new()),
            trace: RefCell::new(None),
            pre_written: RefCell::new(Vec::new()),
            profile: RefCell::new(None),
        }
    }

    /// Record `k` unit actions at virtual times `from + 1 ..= from + k`.
    fn record_profile(&self, from: u64, k: u64) {
        if let Some(prof) = self.profile.borrow_mut().as_mut() {
            let end = (from + k) as usize;
            if prof.len() < end {
                prof.resize(end, 0);
            }
            for slot in prof[from as usize..end].iter_mut() {
                *slot += 1;
            }
        }
    }

    fn observe_time(&self, t: u64) {
        if t > self.max_time.get() {
            self.max_time.set(t);
        }
    }

    fn push_trace(&self, thread: ThreadId, ev: Ev) {
        if let Some(tb) = self.trace.borrow_mut().as_mut() {
            tb.push(thread, ev);
        }
    }

    fn report(&self) -> CostReport {
        CostReport {
            work: self.work.get(),
            depth: self.max_time.get(),
            forks: self.forks.get(),
            touches: self.touches.get(),
            writes: self.writes.get(),
            cells: self.next_cell.get(),
            flats: self.flats.get(),
            max_reads_per_cell: self.max_reads.get(),
        }
    }
}

/// A simulation instance. Construct, optionally configure, then consume with
/// [`Sim::run`] or [`Sim::run_traced`].
pub struct Sim {
    st: Rc<SimState>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// A simulator with the default unit cost model.
    pub fn new() -> Self {
        Sim {
            st: Rc::new(SimState::new(CostModel::default())),
        }
    }

    /// A simulator with explicit cost constants.
    pub fn with_costs(costs: CostModel) -> Self {
        Sim {
            st: Rc::new(SimState::new(costs)),
        }
    }

    fn root_ctx(&self) -> Ctx {
        Ctx {
            time: StdCell::new(0),
            thread: 0,
            st: Rc::clone(&self.st),
        }
    }

    /// Run a program and return its result and measured cost.
    pub fn run<T>(self, f: impl FnOnce(&Ctx) -> T) -> (T, CostReport) {
        let ctx = self.root_ctx();
        let r = f(&ctx);
        (r, self.st.report())
    }

    /// Run a program while recording the **parallelism profile**: the
    /// number of unit actions at each depth of the DAG (`profile[t]` =
    /// actions executable at time t+1 with unlimited processors). The
    /// profile integrates to the work, its length is the depth, and its
    /// running maximum bounds the useful processor count at each moment.
    pub fn run_profiled<T>(self, f: impl FnOnce(&Ctx) -> T) -> (T, CostReport, Vec<u64>) {
        *self.st.profile.borrow_mut() = Some(Vec::new());
        let ctx = self.root_ctx();
        let r = f(&ctx);
        let report = self.st.report();
        let profile = self
            .st
            .profile
            .borrow_mut()
            .take()
            .expect("profile vanished");
        (r, report, profile)
    }

    /// Run a program while capturing its computation-DAG trace for machine
    /// replay (see `pf-machine`).
    ///
    /// # Panics
    /// If the program uses [`Ctx::call_strict`]: a strict call re-stamps
    /// cells after the fact, which has no faithful encoding in the replayable
    /// event stream. Trace the pipelined variant instead — that is the one
    /// Lemma 4.1 is about.
    pub fn run_traced<T>(self, f: impl FnOnce(&Ctx) -> T) -> (T, CostReport, Trace) {
        {
            let mut tb = TraceBuilder::default();
            let root = tb.new_thread();
            debug_assert_eq!(root, 0);
            *self.st.trace.borrow_mut() = Some(tb);
        }
        let ctx = self.root_ctx();
        let r = f(&ctx);
        let report = self.st.report();
        let tb = self
            .st
            .trace
            .borrow_mut()
            .take()
            .expect("trace builder vanished");
        let trace = Trace {
            threads: tb.threads,
            n_cells: self.st.next_cell.get(),
            pre_written: self.st.pre_written.borrow().clone(),
            costs: self.st.costs,
            work: report.work,
            depth: report.depth,
        };
        (r, report, trace)
    }
}

/// The per-thread execution context: a virtual clock plus a handle on the
/// shared simulation state. One `Ctx` exists per simulated thread; forking
/// creates a child `Ctx` whose clock starts at the fork action's completion
/// time. The clock is interior-mutable so that every method takes `&self`
/// (the shape the `PipeBackend` trait requires).
pub struct Ctx {
    time: StdCell<u64>,
    thread: ThreadId,
    st: Rc<SimState>,
}

impl Ctx {
    /// The thread's current virtual time (its clock).
    pub fn now(&self) -> u64 {
        self.time.get()
    }

    /// The cost constants in effect.
    pub fn costs(&self) -> CostModel {
        self.st.costs
    }

    fn advance(&self, k: u64) {
        self.st.work.set(self.st.work.get() + k);
        self.st.record_profile(self.time.get(), k);
        self.time.set(self.time.get() + k);
        self.st.observe_time(self.time.get());
    }

    /// Execute `k` plain unit actions (local computation: pattern matches,
    /// comparisons, allocation of a tree node, ...). `tick(0)` is a no-op.
    pub fn tick(&self, k: u64) {
        if k == 0 {
            return;
        }
        self.advance(k);
        self.st.push_trace(self.thread, Ev::Compute(k));
    }

    /// Create an unfilled future cell: the write pointer and the read
    /// pointer. Creation is charged to the enclosing fork (constant per §4),
    /// so the call itself is free.
    pub fn promise<T>(&self) -> (Promise<T>, Fut<T>) {
        let id = self.st.next_cell.get();
        self.st.next_cell.set(id + 1);
        new_cell(id)
    }

    /// Create a future cell that is *already written* with `value`, stamped
    /// at the current time, **free of charge**. This exists solely for
    /// constructing input data (the trees an algorithm is invoked on) so
    /// that input construction does not pollute the measured work and depth.
    /// In traces the cell is recorded as pre-written. Never use it inside a
    /// measured algorithm — use [`Ctx::filled`] there instead.
    pub fn preload<T>(&self, value: T) -> Fut<T> {
        let (p, f) = self.promise();
        self.st.pre_written.borrow_mut().push(p.id());
        p.write(self.time.get(), value);
        f
    }

    /// Create a cell and immediately fulfill it at the current time,
    /// charging the normal write cost. Use when an algorithm produces a
    /// value *now* but must hand it to a consumer expecting a future (e.g.
    /// the ready halves of a freshly split 2-6 tree node).
    pub fn filled<T: 'static>(&self, value: T) -> Fut<T> {
        let (p, f) = self.promise();
        p.fulfill(self, value);
        f
    }

    /// Fork a future thread that runs `body`. The parent is charged the fork
    /// cost and continues immediately; the child's clock starts at the fork
    /// action's completion time (the fork edge). `body` typically fulfills
    /// one or more [`Promise`]s created by the parent.
    pub fn fork_unit(&self, body: impl FnOnce(&Ctx)) {
        self.advance(self.st.costs.fork);
        self.st.forks.set(self.st.forks.get() + 1);
        let child_thread = {
            let mut tr = self.st.trace.borrow_mut();
            match tr.as_mut() {
                Some(tb) => {
                    let child = tb.new_thread();
                    tb.push(self.thread, Ev::Fork(child));
                    child
                }
                None => 0,
            }
        };
        let child = Ctx {
            time: StdCell::new(self.time.get()),
            thread: child_thread,
            st: Rc::clone(&self.st),
        };
        body(&child);
        // The child thread terminates here (eager evaluation). Record its
        // end time in the innermost strict frame, if any, so that
        // `call_strict` can wait for the entire sub-computation.
        if let Some(frame) = self.st.frames.borrow_mut().last_mut() {
            frame.max_end = max(frame.max_end, child.time.get());
        }
    }

    /// Single-result sugar over [`Ctx::fork_unit`]: fork a thread computing
    /// `body` and return the future for its result, written when the body
    /// completes.
    pub fn fork<T: 'static>(&self, body: impl FnOnce(&Ctx) -> T) -> Fut<T> {
        let (p, f) = self.promise();
        self.fork_unit(move |ctx| {
            let v = body(ctx);
            p.fulfill(ctx, v);
        });
        f
    }

    /// Two-result fork (the paper's footnote 1: "the ability to return
    /// multiple values and have separate future cells created for a single
    /// fork is actually quite important"): the body receives both write
    /// pointers and may fulfill them at different times — the essence of
    /// `split` returning each half as soon as its root is known.
    pub fn fork2<A: 'static, B: 'static>(
        &self,
        body: impl FnOnce(&Ctx, Promise<A>, Promise<B>),
    ) -> (Fut<A>, Fut<B>) {
        let (pa, fa) = self.promise();
        let (pb, fb) = self.promise();
        self.fork_unit(move |ctx| body(ctx, pa, pb));
        (fa, fb)
    }

    /// Touch a future: the data edge. Advances this thread's clock to
    /// `max(clock, write_time) + touch_cost` and returns a clone of the
    /// value (values in the model are immutable, so an aliasing clone is
    /// observationally a deep copy).
    ///
    /// # Panics
    /// If the cell has not been written yet. Eager evaluation runs futures
    /// at their creation point, so this means the program touched a cell
    /// created *after* the toucher — outside the class of programs in the
    /// paper (all of which only touch previously created cells).
    pub fn touch<T: Clone>(&self, fut: &Fut<T>) -> T {
        let w = fut.write_time().unwrap_or_else(|| {
            panic!(
                "future cell {} touched before it was written: the program is \
                 not evaluable in eager (creation) order",
                fut.id()
            )
        });
        self.time.set(max(self.time.get(), w));
        self.advance(self.st.costs.touch);
        self.st.touches.set(self.st.touches.get() + 1);
        let reads = fut.record_touch();
        if reads > self.st.max_reads.get() {
            self.st.max_reads.set(reads);
        }
        self.st.push_trace(self.thread, Ev::Touch(fut.id()));
        fut.get()
    }

    /// A flat array primitive of breadth `n` (§3.4): `n` independent unit
    /// actions followed by a unit sink (collect) action — the paper's DAG
    /// of depth 2 and breadth `n`. Used for `array_split` / `array_scan`
    /// in the 2-6 tree algorithm. Work `n + 1`, depth 2.
    pub fn flat(&self, n: u64) {
        let n = max(n, 1);
        self.st.work.set(self.st.work.get() + n + 1);
        let now = self.time.get();
        if let Some(prof) = self.st.profile.borrow_mut().as_mut() {
            let end = (now + 2) as usize;
            if prof.len() < end {
                prof.resize(end, 0);
            }
            prof[now as usize] += n; // the n parallel units
            prof[now as usize + 1] += 1; // the sink
        }
        self.time.set(now + 2);
        self.st.observe_time(self.time.get());
        self.st.flats.set(self.st.flats.get() + 1);
        self.st.push_trace(self.thread, Ev::Flat(n));
    }

    /// Run `body` as a **strict** (non-pipelined) call: the same computation
    /// executes, but every future cell written inside it only becomes
    /// visible at the completion time of the entire sub-computation, and the
    /// caller's clock waits for that completion.
    ///
    /// This is the paper's non-pipelined comparison point: e.g. a `merge`
    /// whose `split` output is only consumed after the split has fully
    /// finished, giving the Θ(lg n · lg m) depth that pipelining improves to
    /// Θ(lg n + lg m).
    ///
    /// # Panics
    /// If the simulation is being traced (see [`Sim::run_traced`]).
    pub fn call_strict<T>(&self, body: impl FnOnce(&Ctx) -> T) -> T {
        assert!(
            self.st.trace.borrow().is_none(),
            "call_strict cannot be used under tracing; trace the pipelined variant"
        );
        self.st.frames.borrow_mut().push(StrictFrame::default());
        let r = body(self);
        let frame = self
            .st
            .frames
            .borrow_mut()
            .pop()
            .expect("strict frame stack underflow");
        let end = max(self.time.get(), frame.max_end);
        for cell in &frame.cells {
            cell.bump_time(end);
        }
        self.time.set(end);
        self.st.observe_time(end);
        if let Some(parent) = self.st.frames.borrow_mut().last_mut() {
            parent.max_end = max(parent.max_end, end);
            parent.cells.extend(frame.cells);
        }
        r
    }
}

impl<T: 'static> Promise<T> {
    /// Write the value into the cell, stamping it with the writing thread's
    /// clock after charging the write cost. Consumes the promise: a future
    /// cell is written exactly once.
    pub fn fulfill(self, ctx: &Ctx, value: T) {
        ctx.advance(ctx.st.costs.write);
        ctx.st.writes.set(ctx.st.writes.get() + 1);
        ctx.st.push_trace(ctx.thread, Ev::Write(self.id()));
        let inner = self.write(ctx.time.get(), value);
        if let Some(frame) = ctx.st.frames.borrow_mut().last_mut() {
            frame.cells.push(inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ticks() {
        let (_, r) = Sim::new().run(|ctx| ctx.tick(5));
        assert_eq!(r.work, 5);
        assert_eq!(r.depth, 5);
    }

    #[test]
    fn fork_and_touch_clock_algebra() {
        let (v, r) = Sim::new().run(|ctx| {
            let f = ctx.fork(|c| {
                c.tick(3);
                7
            });
            // fork action ends at t=1; child runs 1->4; write completes at 5.
            assert_eq!(f.time(), 5);
            assert_eq!(ctx.now(), 1);
            let v = ctx.touch(&f);
            assert_eq!(ctx.now(), 6); // max(1, 5) + 1
            v
        });
        assert_eq!(v, 7);
        assert_eq!(r.work, 1 + 3 + 1 + 1); // fork + ticks + write + touch
        assert_eq!(r.depth, 6);
        assert_eq!(r.forks, 1);
        assert_eq!(r.touches, 1);
        assert_eq!(r.writes, 1);
        assert_eq!(r.cells, 1);
    }

    #[test]
    fn parallel_forks_overlap() {
        let (_, r) = Sim::new().run(|ctx| {
            let f1 = ctx.fork(|c| c.tick(10));
            let f2 = ctx.fork(|c| c.tick(10));
            ctx.touch(&f1);
            ctx.touch(&f2);
        });
        // f1: fork ends 1, child 1..=11, write at 12.
        // f2: fork ends 2, child 2..=12, write at 13.
        // touches: max(2,12)+1 = 13; max(13,13)+1 = 14.
        assert_eq!(r.depth, 14);
        assert_eq!(r.work, 2 + 20 + 2 + 2);
        assert!(r.depth < r.work, "the two forks must overlap in time");
    }

    #[test]
    fn multi_cell_fork_pipelines() {
        let (_, r) = Sim::new().run(|ctx| {
            let (p1, f1) = ctx.promise();
            let (p2, f2) = ctx.promise();
            ctx.fork_unit(move |c| {
                c.tick(1);
                p1.fulfill(c, 1u32);
                c.tick(10);
                p2.fulfill(c, 2u32);
            });
            // f1 available long before f2: the essence of pipelining.
            assert_eq!(f1.time(), 3); // fork 1, tick 2, write 3
            assert_eq!(f2.time(), 14);
            let a = ctx.touch(&f1);
            assert_eq!(ctx.now(), 4);
            let b = ctx.touch(&f2);
            assert_eq!(ctx.now(), 15);
            assert_eq!((a, b), (1, 2));
        });
        assert_eq!(r.depth, 15);
    }

    #[test]
    fn fork2_cells_fill_independently() {
        let (_, r) = Sim::new().run(|ctx| {
            let (fa, fb) = ctx.fork2(|c, pa, pb| {
                c.tick(1);
                pa.fulfill(c, 'a');
                c.tick(30);
                pb.fulfill(c, 'b');
            });
            assert!(fb.time() > fa.time() + 25);
            assert_eq!(ctx.touch(&fa), 'a');
            let early = ctx.now();
            assert_eq!(ctx.touch(&fb), 'b');
            assert!(ctx.now() > early + 25);
        });
        assert!(r.is_linear());
        assert_eq!(r.cells, 2);
    }

    #[test]
    fn strict_call_defers_all_writes() {
        let (_, r) = Sim::new().run(|ctx| {
            let (p1, f1) = ctx.promise();
            let (p2, f2) = ctx.promise();
            ctx.call_strict(|ctx| {
                ctx.fork_unit(move |c| {
                    c.tick(1);
                    p1.fulfill(c, 1u32);
                    c.tick(10);
                    p2.fulfill(c, 2u32);
                });
            });
            // Without pipelining both cells appear at the sub-computation's
            // end (t=14) and the caller has waited for it.
            assert_eq!(ctx.now(), 14);
            assert_eq!(f1.time(), 14);
            assert_eq!(f2.time(), 14);
            ctx.touch(&f1);
            assert_eq!(ctx.now(), 15);
            let _ = f2;
        });
        assert_eq!(r.depth, 15);
    }

    #[test]
    fn strict_vs_pipelined_depth() {
        fn pipeline(ctx: &Ctx, strict: bool) {
            let (p1, f1) = ctx.promise();
            let (p2, f2) = ctx.promise();
            let body = move |c: &Ctx| {
                c.tick(1);
                p1.fulfill(c, ());
                c.tick(50);
                p2.fulfill(c, ());
            };
            if strict {
                ctx.call_strict(move |ctx| ctx.fork_unit(body));
            } else {
                ctx.fork_unit(body);
            }
            // Consumer does 50 units of work after seeing f1.
            ctx.touch(&f1);
            ctx.tick(50);
            ctx.touch(&f2);
        }
        let (_, pipelined) = Sim::new().run(|ctx| pipeline(ctx, false));
        let (_, strict) = Sim::new().run(|ctx| pipeline(ctx, true));
        assert_eq!(pipelined.work, strict.work, "same computation, same work");
        assert!(
            pipelined.depth + 40 < strict.depth,
            "pipelining must overlap producer and consumer: {} vs {}",
            pipelined.depth,
            strict.depth
        );
    }

    #[test]
    fn nested_strict_frames() {
        let (_, _r) = Sim::new().run(|ctx| {
            let (p_out, f_out) = ctx.promise();
            ctx.call_strict(|ctx| {
                let (p_in, f_in) = ctx.promise();
                ctx.call_strict(|ctx| {
                    ctx.fork_unit(move |c| {
                        c.tick(5);
                        p_in.fulfill(c, ());
                    });
                });
                let inner_time = f_in.time();
                ctx.fork_unit(move |c| {
                    c.tick(2);
                    p_out.fulfill(c, ());
                });
                assert!(inner_time >= 6);
            });
            // Outer strict frame re-stamps the outer cell to the outer end.
            let outer_end = ctx.now();
            assert_eq!(f_out.time(), outer_end);
        });
    }

    #[test]
    fn flat_primitive_costs() {
        let (_, r) = Sim::new().run(|ctx| {
            ctx.flat(100);
        });
        assert_eq!(r.work, 101); // 100 units + sink
        assert_eq!(r.depth, 2);
        assert_eq!(r.flats, 1);
    }

    #[test]
    fn flat_zero_breadth_still_unit() {
        let (_, r) = Sim::new().run(|ctx| ctx.flat(0));
        assert_eq!(r.work, 2);
        assert_eq!(r.depth, 2);
    }

    #[test]
    #[should_panic(expected = "touched before it was written")]
    fn touch_before_write_panics() {
        Sim::new().run(|ctx| {
            let (_p, f) = ctx.promise::<u32>();
            ctx.touch(&f);
        });
    }

    #[test]
    fn preload_is_free_and_recorded() {
        let (_, r, trace) = Sim::new().run_traced(|ctx| {
            let f = ctx.preload(41u32);
            assert_eq!(f.time(), 0);
            ctx.touch(&f) + 1
        });
        assert_eq!(r.work, 1); // just the touch
        assert_eq!(r.depth, 1);
        assert_eq!(trace.pre_written, vec![0]);
    }

    #[test]
    fn filled_is_costed() {
        let (_, r) = Sim::new().run(|ctx| {
            let f = ctx.filled(7u32);
            assert_eq!(f.time(), 1); // write cost
            ctx.touch(&f)
        });
        assert_eq!(r.work, 2);
        assert_eq!(r.writes, 1);
    }

    #[test]
    fn linearity_counting() {
        let (_, r) = Sim::new().run(|ctx| {
            let f = ctx.fork(|c| {
                c.tick(1);
                3u32
            });
            ctx.touch(&f);
            ctx.touch(&f); // second read: non-linear
        });
        assert_eq!(r.max_reads_per_cell, 2);
        assert!(!r.is_linear());

        let (_, r) = Sim::new().run(|ctx| {
            let f = ctx.fork(|c| {
                c.tick(1);
                3u32
            });
            ctx.touch(&f);
        });
        assert_eq!(r.max_reads_per_cell, 1);
        assert!(r.is_linear());
    }

    #[test]
    fn scaled_costs_scale_depth() {
        let run = |k| {
            let (_, r) = Sim::with_costs(CostModel::uniform(k)).run(|ctx| {
                let f = ctx.fork(|c| {
                    c.tick(1);
                    1u8
                });
                ctx.touch(&f);
            });
            r
        };
        let r1 = run(1);
        let r3 = run(3);
        // k=1: fork ends 1, child ticks to 2, write at 3, touch at 4.
        assert_eq!(r1.depth, 4);
        // k=3: fork ends 3, child ticks to 4, write at 7, touch at 10.
        assert_eq!(r3.depth, 10);
        assert!(r3.work > r1.work);
    }

    #[test]
    fn profile_integrates_to_work_and_spans_depth() {
        let (_, r, prof) = Sim::new().run_profiled(|ctx| {
            let fs: Vec<_> = (0..4).map(|_| ctx.fork(|c| c.tick(10))).collect();
            for f in &fs {
                ctx.touch(f);
            }
            ctx.flat(20);
        });
        assert_eq!(prof.iter().sum::<u64>(), r.work);
        assert_eq!(prof.len() as u64, r.depth);
        // Peak parallelism: the four forked threads overlap.
        assert!(*prof.iter().max().unwrap() >= 4);
        // The flat spike of 20 parallel units is visible.
        assert!(prof.iter().any(|&w| w >= 20));
    }

    #[test]
    fn profile_of_serial_program_is_flat_ones() {
        let (_, r, prof) = Sim::new().run_profiled(|ctx| ctx.tick(25));
        assert_eq!(prof, vec![1u64; 25]);
        assert_eq!(r.depth, 25);
    }

    #[test]
    fn trace_records_events_and_work_matches() {
        let (_, r, trace) = Sim::new().run_traced(|ctx| {
            let f = ctx.fork(|c| {
                c.tick(2);
                5u32
            });
            ctx.tick(1);
            ctx.touch(&f);
            ctx.flat(10);
        });
        assert_eq!(trace.n_threads(), 2);
        assert_eq!(trace.total_actions(), r.work);
        assert_eq!(trace.work, r.work);
        assert_eq!(trace.depth, r.depth);
        // Root thread: Fork, Compute(1), Touch, Flat(10).
        assert_eq!(
            trace.threads[0].events,
            vec![Ev::Fork(1), Ev::Compute(1), Ev::Touch(0), Ev::Flat(10)]
        );
        // Child thread: Compute(2), Write.
        assert_eq!(trace.threads[1].events, vec![Ev::Compute(2), Ev::Write(0)]);
    }

    #[test]
    #[should_panic(expected = "call_strict cannot be used under tracing")]
    fn strict_under_trace_panics() {
        Sim::new().run_traced(|ctx| {
            ctx.call_strict(|ctx| ctx.tick(1));
        });
    }
}
