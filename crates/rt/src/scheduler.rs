//! The per-worker execution context of the work-stealing scheduler:
//! per-worker LIFO deques (the paper's stack discipline), a global
//! injector, and the liveness accounting that drives quiescence
//! detection. The pool that hosts workers — thread lifecycle, parking,
//! session slots, abort and panic protocols — lives in
//! [`crate::pool`].
//!
//! Every queued task is a `SessionTask`: the closure plus the `Arc` of
//! its owning session's slot. A worker is a *session-free* resource — it
//! executes whatever task it finds, entering that task's session for the
//! duration (`current` below), so tasks of concurrent sessions
//! interleave freely on one pool. All per-session accounting (liveness
//! units, event counters, abort checks) goes through the
//! current slot, never through pool state. Each scheduler event is
//! recorded once, on this worker's lane of the owning slot
//! ([`crate::trace`]).
//!
//! Liveness accounting (the invariant behind termination detection): the
//! owning slot's counter holds the number of closures that are queued,
//! running, or suspended in a future cell. It is incremented by
//! [`Worker::spawn`] and by a touch that suspends (`note_suspend`), and
//! decremented when a task finishes. A write that reactivates a waiter
//! transfers the suspended unit to the queue without changing the count
//! (`resume_transferred`). When the counter reaches zero the session is
//! quiescent and [`Runtime::run`] returns.

use std::cell::Cell;
use std::sync::Arc;

use crate::deque::{LocalQueue, Steal};
use crate::error::SessionError;
use crate::pool::{SessionSlot, SessionTask, Shared};
use crate::task::Task;
use pf_trace::TraceKind;

pub use crate::pool::{RunStats, Runtime};

/// Maximum depth of inline continuation execution before a ready touch is
/// deferred to the queue instead — bounds native stack growth on long
/// ready chains (e.g. list pipelines whose producer runs ahead).
const MAX_INLINE_DEPTH: usize = 128;

/// The per-thread execution context handed to every task.
pub struct Worker {
    shared: Arc<Shared>,
    local: LocalQueue<SessionTask>,
    index: usize,
    /// The slot of the session whose task this worker is currently
    /// executing; null between tasks. A raw pointer, not an `Arc`: the
    /// executing frame ([`Worker::execute`]) keeps the slot alive for as
    /// long as the pointer is published, so
    /// per-task session entry costs two `Cell` stores instead of two
    /// reference-count RMWs.
    current: Cell<*const SessionSlot>,
    inline_depth: Cell<usize>,
    steal_seed: Cell<u64>,
}

impl Worker {
    pub(crate) fn new(shared: Arc<Shared>, local: LocalQueue<SessionTask>, index: usize) -> Worker {
        Worker {
            shared,
            local,
            index,
            current: Cell::new(std::ptr::null()),
            inline_depth: Cell::new(0),
            steal_seed: Cell::new(0x9E3779B97F4A7C15 ^ (index as u64) << 7),
        }
    }

    /// The slot of the session this worker is currently executing a task
    /// of. Callable only from inside a task (spawns, touches, fulfills)
    /// — between tasks there is no current session.
    #[inline]
    pub(crate) fn session(&self) -> &SessionSlot {
        let p = self.current.get();
        debug_assert!(!p.is_null(), "no current session (outside a task body)");
        // SAFETY: non-null only between `execute`'s enter/exit stores,
        // and that frame owns an `Arc` to the slot for the whole window,
        // so the referent outlives the borrow
        // (which cannot escape the task body: tasks don't return borrows).
        unsafe { &*p }
    }

    /// A new `Arc` to the current session's slot (for tagging a task
    /// being pushed to a queue).
    #[inline]
    pub(crate) fn clone_session(&self) -> Arc<SessionSlot> {
        let p = self.current.get();
        debug_assert!(!p.is_null(), "no current session (outside a task body)");
        // SAFETY: `p` came from `Arc::as_ptr` of a live `Arc` (see
        // `session`), so reconstructing a counted handle is sound.
        unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        }
    }

    #[inline]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Skip the wakeup fence when this is the pool's only worker: no
    /// sibling exists to wake, and the client never sleeps on the work
    /// queues (only on the session-done condvar).
    #[inline]
    fn notify_push(&self, n: usize) {
        if self.shared.stealers.len() > 1 {
            self.shared.notify(n);
        }
    }

    /// Execute one found task: enter its session, run the body, retire
    /// its liveness unit; a panic aborts the owning session (only). When
    /// the owning session is already aborting, the task is discarded
    /// unrun — dropped (releasing its captures), its unit retired — so an
    /// abort drains the session's queued work at pop speed without a
    /// worker rendezvous. Returns the slot for the caller's park/unpark
    /// attribution.
    pub(crate) fn execute(&self, st: SessionTask) -> Arc<SessionSlot> {
        let SessionTask { session, task } = st;
        if session.aborting() {
            // A capture's Drop may panic (it may touch a poisoned cell);
            // contain that like any task panic — the session is already
            // aborting, so there is nobody left to tell.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(task)));
            session.task_done();
            return session;
        }
        let prev = self.current.replace(Arc::as_ptr(&session));
        session.events.record(self.index, TraceKind::Exec, 0, 1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Chaos seams: a seeded probability of a spurious panic right
            // here exercises the whole abort path, and a seeded wedge
            // parks this worker mid-task to exercise the stall detector
            // (both off outside pf_chaos).
            crate::chaos::maybe_panic();
            crate::chaos::maybe_wedge(&|| session.aborting());
            task.run(self);
        }));
        self.current.set(prev);
        if let Err(payload) = res {
            // The unwind skipped the inline sites' depth restores; a task
            // always starts at depth 0 (the worker loop is the only caller).
            self.inline_depth.set(0);
            // File the reason before retiring the unit: when this was the
            // session's last queued-or-running task, the client must wake
            // to a filed reason, not to a clean finish.
            session.request_abort(SessionError::Panicked {
                session: session.id,
                payload,
            });
        }
        session.task_done();
        session
    }

    /// Spawn `f` as a new task (a future fork).
    ///
    /// Work-first: the child runs *inline*, right now, and the caller
    /// continues when it returns. The paper's bound charges a touch
    /// constant time and gets there by suspending only when a touch
    /// really finds its cell unwritten; running the future's body before
    /// its parent's continuation makes the written cell the common case
    /// (Herlihy & Liu, *Well-Structured Futures and Cache Locality*,
    /// bound the deviations of exactly this order for the single-touch
    /// futures §4's linearity gives). Pushing the child instead made the
    /// suspension the common case — 359 k suspensions in 894 k tasks on
    /// the §3 algorithms at one worker, against 17 k. Lemma 4.1's
    /// `O(w/p + d)` holds for any greedy order, so this choice moves
    /// constants only.
    ///
    /// An inline child costs no queue traffic and no allocation. Its
    /// accounting is that of a queued task — one spawn and one executed
    /// task — only the liveness counter skips its round-trip (the child
    /// runs inside the caller's unit). A panic in the child unwinds
    /// through the caller's frame, aborting the session exactly as a
    /// panic in a queued child would. Past the inline-depth guard the
    /// child is pushed instead and the caller keeps running: one deque
    /// push, with an allocation only when the closure exceeds the inline
    /// [`Task`] payload.
    ///
    /// A flat loop of `spawn`s therefore runs serially on the spawning
    /// worker. To fork wide, fork with [`Worker::spawn2`] trees.
    pub fn spawn(&self, f: impl FnOnce(&Worker) + Send + 'static) {
        let d = self.inline_depth.get();
        if d < MAX_INLINE_DEPTH {
            let session = self.session();
            session.events.record(self.index, TraceKind::Spawn, 0, 1);
            session.events.record(self.index, TraceKind::Exec, 0, 1);
            self.inline_depth.set(d + 1);
            f(self);
            self.inline_depth.set(d);
            return;
        }
        self.spawn_task(Task::new(f));
    }

    /// Spawn two tasks with one round of liveness/stat accounting — the
    /// two-child fan-out every tree algorithm performs at each internal
    /// node. `f` is pushed (one stealable child per fork, preserving the
    /// paper's parallelism) and `g` runs inline first — the same order a
    /// LIFO owner would pop. Past the inline-depth guard both are pushed
    /// (`g` last, so the owner pops it first) with a single
    /// `fetch_add(2)` on the session's liveness counter.
    pub fn spawn2(
        &self,
        f: impl FnOnce(&Worker) + Send + 'static,
        g: impl FnOnce(&Worker) + Send + 'static,
    ) {
        let d = self.inline_depth.get();
        if d < MAX_INLINE_DEPTH {
            let session = self.clone_session();
            session.add_units(1);
            session.events.record(self.index, TraceKind::Spawn, 0, 2);
            session.events.record(self.index, TraceKind::Exec, 0, 1);
            self.local.push(SessionTask {
                session,
                task: Task::new(f),
            });
            self.notify_push(1);
            self.inline_depth.set(d + 1);
            g(self);
            self.inline_depth.set(d);
            return;
        }
        let session = self.clone_session();
        session.add_units(2);
        session.events.record(self.index, TraceKind::Spawn, 0, 2);
        self.local.push(SessionTask {
            session: Arc::clone(&session),
            task: Task::new(f),
        });
        self.local.push(SessionTask {
            session,
            task: Task::new(g),
        });
        self.notify_push(2);
    }

    /// The push path of [`Worker::spawn`]: queue an already-packaged task.
    fn spawn_task(&self, task: Task) {
        let session = self.clone_session();
        session.add_units(1);
        session.events.record(self.index, TraceKind::Spawn, 0, 1);
        self.local.push(SessionTask { session, task });
        self.notify_push(1);
    }

    /// Resume a reactivated waiter: the fulfill side of every suspended
    /// touch routes through here, and pushes it onto the fulfiller's own
    /// deque — the resume is the newest task there and runs next under
    /// LIFO, with the value it touches hot in the fulfiller's cache.
    ///
    /// The waiter's suspended mark is cleared here, *before* the push:
    /// the abort wait's safe point (`low == high`) must never observe a
    /// queued task it believes suspended.
    pub(crate) fn resume_transferred(&self, st: SessionTask) {
        st.session.transfer_resume();
        // Recorded in the *waiter's* session (not necessarily the one we
        // are executing, under a cross-session fulfill), on this
        // worker's lane — lane i is written only by worker i, whatever
        // slot it lives in.
        st.session
            .events
            .record(self.index, TraceKind::Resume, 0, 1);
        self.local.push(st);
        self.notify_push(1);
    }

    /// Run a ready continuation inline (bounded depth), or spawn it when
    /// the native stack is already deep.
    pub(crate) fn run_inline_or_spawn<T: Send + 'static>(
        &self,
        v: T,
        cont: impl FnOnce(T, &Worker) + Send + 'static,
    ) {
        let d = self.inline_depth.get();
        if d < MAX_INLINE_DEPTH {
            self.inline_depth.set(d + 1);
            cont(v, self);
            self.inline_depth.set(d);
        } else {
            self.spawn(move |wk| cont(v, wk));
        }
    }

    /// [`Worker::run_inline_or_spawn`] for an already-packaged task (a
    /// suspension reclaimed after it raced the write).
    pub(crate) fn run_task_inline_or_spawn(&self, task: Task) {
        let d = self.inline_depth.get();
        if d < MAX_INLINE_DEPTH {
            self.inline_depth.set(d + 1);
            task.run(self);
            self.inline_depth.set(d);
        } else {
            self.spawn_task(task);
        }
    }

    /// This worker's index (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Id of the session whose task this worker is currently executing
    /// (sessions are numbered from 1 per pool; 0 outside any task).
    /// Diagnostic: it names the session in cell panic messages and
    /// [`crate::PoisonInfo`].
    pub fn session_id(&self) -> u64 {
        let p = self.current.get();
        if p.is_null() {
            0
        } else {
            // SAFETY: see `session`.
            unsafe { (*p).id }
        }
    }

    /// Has the current task's session been asked to abort (a panic
    /// elsewhere in it, a fired [`crate::CancelToken`], an expired
    /// deadline)? Long-running task bodies should poll this and return
    /// early: the runtime never preempts a running closure, so
    /// cancellation latency is bounded by the longest closure that
    /// ignores it. Sibling sessions' aborts are invisible here.
    pub fn cancelled(&self) -> bool {
        self.session().aborting()
    }

    pub(crate) fn find_task(&self) -> Option<SessionTask> {
        if let Some(t) = self.local.pop() {
            return Some(t);
        }
        if let Some(t) = self.shared.injector.pop() {
            return Some(t);
        }
        let n = self.shared.stealers.len();
        // Full sweep from a pseudo-random start.
        let mut seed = self.steal_seed.get();
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.steal_seed.set(seed);
        let start = (seed >> 33) as usize % n;
        for k in 0..n {
            let v = (start + k) % n;
            if v == self.index {
                continue;
            }
            // Chaos seam: a denied steal skips this victim, modeling
            // transient steal failure (no-op outside `--cfg pf_chaos`).
            // Safe: denial only delays acquisition, and the sleeper
            // re-check before parking polls the real queues.
            if crate::chaos::steal_denied() {
                continue;
            }
            if let Some(t) = self.try_steal(v) {
                return Some(t);
            }
        }
        None
    }

    /// One steal attempt against victim `v`: take its single oldest task
    /// (the classic Chase–Lev steal), retrying CAS races until the victim
    /// is observed empty. Accounted to the stolen task's session.
    fn try_steal(&self, v: usize) -> Option<SessionTask> {
        loop {
            return match self.shared.stealers[v].steal() {
                Steal::Success(t) => {
                    let ev = &t.session.events;
                    ev.record(self.index, TraceKind::Steal, v as u64, 1);
                    Some(t)
                }
                Steal::Retry => continue,
                Steal::Empty => None,
            };
        }
    }

    // Unused under the seeded lost-wakeup mutation (its only caller is
    // the sleeper re-check that the mutation removes).
    #[cfg_attr(pf_check_lost_wakeup, allow(dead_code))]
    pub(crate) fn work_available(&self) -> bool {
        !self.local.is_empty()
            || !self.shared.injector.is_empty()
            || self
                .shared
                .stealers
                .iter()
                .enumerate()
                .any(|(i, s)| i != self.index && !s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell;
    use crate::sync::atomic::Ordering;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Mutex};

    #[test]
    fn runs_root_to_completion() {
        let (w, r) = cell::<u32>();
        Runtime::new(1).run(move |wk| w.fulfill(wk, 7));
        assert_eq!(r.expect(), 7);
    }

    #[test]
    fn spawns_fan_out() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        Runtime::new(4).run(move |wk| {
            for _ in 0..1000 {
                let c = Arc::clone(&c2);
                wk.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn nested_spawns() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        fn rec(wk: &Worker, depth: usize, c: Arc<AtomicU64>) {
            c.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                let (a, b) = (Arc::clone(&c), c);
                wk.spawn(move |wk| rec(wk, depth - 1, a));
                wk.spawn(move |wk| rec(wk, depth - 1, b));
            }
        }
        Runtime::new(4).run(move |wk| rec(wk, 10, c2));
        assert_eq!(counter.load(Ordering::Relaxed), (1 << 11) - 1);
    }

    #[test]
    fn spawn2_matches_two_spawns() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        fn rec(wk: &Worker, depth: usize, c: Arc<AtomicU64>) {
            c.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                let (a, b) = (Arc::clone(&c), c);
                wk.spawn2(
                    move |wk| rec(wk, depth - 1, a),
                    move |wk| rec(wk, depth - 1, b),
                );
            }
        }
        let stats = Runtime::new(4).run_stats(move |wk| rec(wk, 10, c2));
        assert_eq!(counter.load(Ordering::Relaxed), (1 << 11) - 1);
        assert_eq!(stats.spawns, (1 << 11) - 2);
        assert_eq!(stats.tasks_executed, (1 << 11) - 1);
    }

    #[test]
    fn single_thread_still_terminates() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        Runtime::new(1).run(move |wk| {
            fn rec(wk: &Worker, d: usize, c: Arc<AtomicU64>) {
                c.fetch_add(1, Ordering::Relaxed);
                if d > 0 {
                    wk.spawn(move |wk| rec(wk, d - 1, c));
                }
            }
            rec(wk, 5000, c2);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5001);
    }

    #[test]
    fn worker_indices_cover_pool() {
        let seen = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        // A `spawn2` tree of 4096 leaves: every fork pushes one stealable
        // child, so the leaves spread over the pool.
        fn fork(wk: &Worker, depth: u32, seen: Arc<Mutex<std::collections::BTreeSet<usize>>>) {
            if depth == 0 {
                seen.lock().unwrap().insert(wk.index());
                std::thread::yield_now();
                return;
            }
            let s = Arc::clone(&seen);
            wk.spawn2(
                move |wk| fork(wk, depth - 1, s),
                move |wk| fork(wk, depth - 1, seen),
            );
        }
        let s2 = Arc::clone(&seen);
        Runtime::new(4).run(move |wk| fork(wk, 12, s2));
        // With 4096 tiny tasks, stealing should engage several workers.
        assert!(seen.lock().unwrap().len() >= 2, "stealing never happened");
    }

    #[test]
    fn spawn_past_the_inline_depth_guard_pushes_a_stealable_child() {
        // Nest `spawn` until the next one meets the depth guard: that child
        // is pushed, not run, and the spawning task then waits for it, so
        // only a steal by the pool's other worker can run it.
        fn nest(wk: &Worker, depth: usize, ran_on: Arc<AtomicU64>) {
            if depth < MAX_INLINE_DEPTH {
                wk.spawn(move |wk| nest(wk, depth + 1, ran_on));
                return;
            }
            let probe = Arc::clone(&ran_on);
            wk.spawn(move |wk| probe.store(wk.index() as u64, Ordering::Release));
            assert_eq!(
                ran_on.load(Ordering::Acquire),
                u64::MAX,
                "the child past the guard ran inline"
            );
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while ran_on.load(Ordering::Acquire) == u64::MAX {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the pushed child was never stolen"
                );
                std::thread::yield_now();
            }
            assert_ne!(ran_on.load(Ordering::Acquire), wk.index() as u64);
        }
        let ran_on = Arc::new(AtomicU64::new(u64::MAX));
        let r2 = Arc::clone(&ran_on);
        let stats = Runtime::new(2).run_stats(move |wk| nest(wk, 0, r2));
        assert_ne!(ran_on.load(Ordering::Acquire), u64::MAX);
        // Counted as the inline path counts: one spawn and one executed
        // task per child, whether it ran inline or was pushed.
        let children = MAX_INLINE_DEPTH as u64 + 1;
        assert_eq!(stats.spawns, children);
        assert_eq!(stats.tasks_executed, children + 1);
        assert_eq!(stats.steals, 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates() {
        Runtime::new(3).run(|wk| {
            wk.spawn(|_| panic!("boom"));
        });
    }

    #[test]
    fn pool_survives_a_panicked_run() {
        let rt = Runtime::new(3);
        for round in 0..10 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(move |wk| {
                    for _ in 0..100 {
                        wk.spawn(|_| {});
                    }
                    wk.spawn(|_| panic!("kaboom"));
                    for _ in 0..100 {
                        wk.spawn(|_| {});
                    }
                });
            }));
            assert!(r.is_err(), "round {round}: panic was swallowed");
            // The same pool must keep working after the abort.
            let stats = rt.run_stats(|wk| {
                wk.spawn(|_| {});
            });
            assert_eq!(stats.spawns, 1);
            assert_eq!(stats.tasks_executed, 2);
        }
    }

    #[test]
    #[should_panic(expected = "inside a worker task")]
    fn nested_run_panics() {
        let rt = Runtime::new(2);
        rt.run(|_wk| {
            Runtime::new(1).run(|_| {});
        });
    }

    #[test]
    fn run_stats_account_tasks_and_suspensions() {
        let (w, r) = cell::<u32>();
        let stats = Runtime::new(2).run_stats(move |wk| {
            // Suspend first, write later: exactly one suspension.
            r.touch(wk, |_, _| {});
            for _ in 0..10 {
                wk.spawn(|_| {});
            }
            wk.spawn(move |wk| w.fulfill(wk, 1));
        });
        assert_eq!(stats.spawns, 11);
        assert_eq!(stats.suspensions, 1);
        // root + 11 spawns + 1 reactivated waiter.
        assert_eq!(stats.tasks_executed, 13);
    }

    #[test]
    fn run_stats_zero_suspensions_when_ordered() {
        let (w, r) = cell::<u32>();
        let stats = Runtime::new(1).run_stats(move |wk| {
            w.fulfill(wk, 1);
            r.touch(wk, |_, _| {});
        });
        assert_eq!(stats.suspensions, 0);
        assert_eq!(stats.tasks_executed, 1);
        assert_eq!(stats.steals, 0, "single worker cannot steal");
    }

    #[test]
    fn repeated_runs_are_independent() {
        for i in 0..50 {
            let (w, r) = cell::<usize>();
            Runtime::new(3).run(move |wk| {
                wk.spawn(move |wk| w.fulfill(wk, i));
            });
            assert_eq!(r.expect(), i);
        }
    }

    #[test]
    fn one_pool_many_runs() {
        let rt = Runtime::new(3);
        for i in 0..200 {
            let (w, r) = cell::<usize>();
            rt.run(move |wk| {
                wk.spawn(move |wk| w.fulfill(wk, i));
            });
            assert_eq!(r.expect(), i);
        }
    }

    #[test]
    fn global_and_shared_pools() {
        // One pool per width for the whole process: another OS thread
        // asking for the same width gets the same pool.
        let a = Runtime::shared(2);
        let b = std::thread::spawn(|| Runtime::shared(2)).join().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "shared(2) must return one pool");
        assert!(!Arc::ptr_eq(&a, &Runtime::shared(1)));
        let (w, r) = cell::<u32>();
        a.run(move |wk| w.fulfill(wk, 9));
        assert_eq!(r.expect(), 9);
    }
}
