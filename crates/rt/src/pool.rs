//! Persistent worker pool with per-session slots and exact per-session
//! quiescence detection.
//!
//! [`Runtime::new`] spawns its workers **once**; every [`Runtime::run`]
//! call is a *session* on the same pool, so the per-run cost is one
//! injector push plus one wakeup instead of N thread creations and joins.
//! Workers never exit between sessions — they park and are reused — and
//! **any number of sessions may run concurrently**: each client thread
//! calling [`Runtime::try_run_session`] co-executes with the others on
//! the same workers, with per-session fault containment.
//!
//! # Session slots
//!
//! A session's entire mutable state lives in one `SessionSlot`,
//! allocated at session start and shared (`Arc`) by everything that acts
//! on the session's behalf: every queued task carries its slot (a
//! `SessionTask` is a [`Task`] plus the owning `Arc`), every suspended
//! continuation stores it in its cell, the client holds it while
//! waiting, and cancel tokens hold a `Weak`. The pool keeps no list of
//! slots; a slot dies with its last reference — there is no per-session
//! cleanup of pool state because there is no per-session pool state.
//!
//! Slot contents: the session id, the packed liveness counter (below),
//! the abort slot (open flag + first filed
//! [`SessionError`]), the done flag + condvar the client blocks on, the
//! poison registry of suspended cells, and the session's event counters
//! (one per-kind lane per worker plus the client's — see
//! [`crate::trace`]; for a traced session also the timeline rings).
//!
//! # Per-session quiescence
//!
//! The slot's `units` word packs two 32-bit counters, updated together
//! in one RMW:
//!
//! * **low half** — closures of this session that are queued, running,
//!   or suspended in a future cell (the paper's live count);
//! * **high half** — the suspended subset of those.
//!
//! Spawning adds a unit; a touch that suspends adds a unit and marks it
//! suspended; a write that reactivates a waiter clears the suspended
//! mark *before* the task is pushed (so `low - high`, the number of
//! units that are queued or running, never transiently undercounts);
//! finishing or discarding a task retires its unit. The session is over
//! exactly when `units == 0`, and the worker whose decrement reaches
//! zero signals the slot's condvar. Nothing here needs a timeout, and
//! nothing is pool-global: N sessions quiesce independently.
//!
//! Spawn increments may be `Relaxed` (a spawn happens inside a running
//! task, which holds a unit, so the counter cannot transiently hit
//! zero); decrements are `SeqCst` — see the abort argument below.
//!
//! # Idle strategy: spin → yield → park, with no timeout backstop
//!
//! An idle worker spins briefly (new work usually arrives within a few
//! hundred cycles during a parallel phase), then yields, then publishes
//! its index in the `sleepers` bitmask and parks on its own thread token.
//! The predecessor of this design polled a condvar with a 1 ms timeout —
//! the timeout existed because its wakeup path could miss a sleeper. Here
//! the classic lost-wakeup race (store-buffer/Dekker shape) is closed
//! exactly, so parking is indefinite:
//!
//! * the **sleeper** sets its bit with a `SeqCst` RMW, *then* re-checks
//!   every queue, and only parks if all are empty;
//! * the **producer** pushes its task, *then* executes a `SeqCst` fence,
//!   *then* reads the bitmask, and unparks a claimed sleeper.
//!
//! In any interleaving consistent with the single total order on these
//! `SeqCst` operations, either the producer's mask read observes the
//! sleeper's bit (so the sleeper is unparked — `park` consumes the token
//! even if the unpark arrives first), or the sleeper's queue re-check
//! observes the push (so it does not park). A missed wakeup would require
//! both sides to read state older than the other's write, which the fence
//! pair forbids. Waking is therefore a performance hint everywhere else
//! but a guarantee where it matters. The argument is per-pool, not
//! per-session: a worker woken for one session's push may find another
//! session's task first — either way it does not sleep on available work.
//!
//! # Abort protocol (panic, cancel, deadline, stall)
//!
//! Workers are persistent and shared, so a panicking task must neither
//! kill its thread nor disturb sibling sessions. Panics are one of four
//! abort *reasons* — the others are a fired [`CancelToken`](crate::CancelToken), an expired
//! [`Session`] deadline, and a watchdog-detected stall — and all four
//! share one per-slot protocol:
//!
//! 1. whoever detects the fault files its [`SessionError`] — the one
//!    abort record — in the slot's abort slot (first fault wins; a slot
//!    that is already closed — its session ended — rejects the filing,
//!    so a stale cancel is a no-op),
//!    raises the slot's `aborting` flag (`SeqCst`), and signals the
//!    slot's condvar to wake the client;
//! 2. workers never rendezvous: a popped task whose slot is aborting is
//!    **discarded at pop** (its destructor runs, its unit retires), and
//!    running tasks of the session finish normally (long ones should
//!    poll [`Worker::cancelled`]). Sibling sessions' tasks are executed
//!    as if nothing happened;
//! 3. the client waits until none of the session's units is queued or
//!    running (`low == high`: every survivor is suspended in a cell).
//!    This wait cannot miss its wakeup: unit decrements are `SeqCst`
//!    RMWs, the `aborting` store/load pair is `SeqCst`, and a decrement
//!    that observes `low == high` with `aborting` set signals the
//!    condvar under the slot's `done` mutex — the classic Dekker
//!    argument, client predicate-check under the same mutex;
//! 4. the client then single-handedly **poisons every cell in the
//!    slot's registry that still holds one of this session's suspended
//!    continuations** (dropping the continuation — nothing leaks; any
//!    straggler touch of such a cell fails fast with the error's
//!    rendering as its context), closes the slot, and returns the
//!    error. [`Runtime::run`] re-throws
//!    it; [`Runtime::try_run`] hands it to the caller. The pool needs no
//!    recovery step — sibling sessions never stopped.
//!
//! The poison pass finds its targets through the slot's *suspend
//! registry*: each touch that suspends appends a `Weak` reference to its
//! cell (one uncontended lock on the suspension path — a path that
//! already allocates). A cell holds one waiter, so a registered cell that
//! is still waiting holds a continuation of this session and nobody
//! else's. Touching one *unwritten* cell from two sessions breaks
//! linearity, a documented program error; the cell state machine
//! arbitrates every such race to a panic (never undefined behavior).
//! Writing it from another session is fine: the waiter resumes into its
//! own session.
//!
//! # Quiescence watchdog: per-session progress heartbeats
//!
//! A correct program always drives `units` to zero, but a buggy one — a
//! touch of a cell nobody will ever write, a cyclic touch chain — leaves
//! the session's remaining units suspended forever. The session's
//! **progress epoch** is the sum of its task-attributed event counters
//! (spawn, steal, exec, suspend, resume, fulfill — [`crate::trace`]),
//! so every such event moves it. The client's wait loop (outside the
//! model checker, which has no clock) samples its own session's epoch
//! every 2 ms and declares the session stalled once the epoch has stayed
//! frozen for the session's budget, **however busy or idle the rest of
//! the pool is**:
//!
//! * with [`Session::stall_budget`] set, that budget, whatever the
//!   session's units are doing. This also covers the *running* wedge — a
//!   task spinning forever inside its body; the budget is the caller's
//!   assertion that no legal closure goes that long without a scheduler
//!   event;
//! * otherwise 1 s, once every remaining unit is suspended (progress for
//!   such a session can only arrive through a fulfill, which would bump
//!   its epoch). A running unit with no explicit budget abstains: a
//!   frozen epoch under a running task is indistinguishable from a long,
//!   legitimate compute-only closure, so that case is left to deadlines.
//!
//! An idle pool is no verdict on its own: a session suspended on a cell
//! that a *later* session writes sees every worker parked in between,
//! and is not declared before its budget has passed.
//!
//! The counters are plain owner-only `Relaxed` words. Relaxed suffices:
//! the watchdog only compares successive *sums* for equality, each
//! counter is monotone, and a lagging read can only delay a freeze
//! verdict by one 2 ms sample — noise against any realistic budget. A
//! stall comes back as a [`StallReport`] (last epoch, live count, frozen
//! duration — at least the budget), the slot files it as
//! [`SessionError::Stalled`], and the abort cleanup fills in its stuck
//! cell set — instead of hanging the client forever. The deadline
//! detector is per-session, independent, and unaffected.
//!
//! The same sample recovers from a lost wakeup, which the fence protocol
//! above rules out but which is cheap to defend against: when the epoch
//! is unchanged, every worker is parked and some queue (of any session)
//! is non-empty, it unparks every worker. That is recovery only; it
//! files nothing.
//!
//! # Placement
//!
//! Each worker of a pool of two or more confines itself, before it
//! enters its loop, to **one CPU** of the mask it inherited from the
//! thread that built the runtime: the k-th allowed CPU, k taken from a
//! process-wide round-robin counter (worker *i* of a pool takes position
//! `first + i`, where [`Runtime::new`] reserved `first` for its whole
//! width). A width-w pool on at least w CPUs therefore holds w distinct
//! CPUs, and pools built one after another or side by side
//! ([`Runtime::shared`] widths, tests) continue the rotation instead of
//! piling onto the first CPU. There is nothing to set.
//!
//! Why: Lemma 4.1's `O(w/p + d)` counts p processors, and a pool only
//! has them if its workers are not placed on one. Left to the kernel, a
//! woken worker goes to its waker's CPU whenever no CPU is idle (a
//! benchmark harness's low-priority keep-awake threads are enough), so
//! two workers of a pool shared one CPU in most samples (EXPERIMENTS.md
//! E29, E42). A pinned worker also keeps its deque and the subtrees it
//! stole in one core's cache.
//!
//! Exceptions, all silent: a one-worker pool is left where the kernel
//! puts it (nothing to spread, and pinning its lone worker away from its
//! caller's cache cost `algs-t1` outliers); a thread allowed one CPU
//! only (`taskset -c 0`) leaves every worker there; and when the
//! affinity calls fail the worker stays unpinned — placement has no
//! error path. It is Linux-only and compiled out under the model
//! checker. A thread a worker spawns inherits its one-CPU mask.

use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

#[cfg(not(pf_check))]
use crate::error::StallReport;
use crate::error::{PoisonInfo, PoisonTarget, Session, SessionError, StuckCell};

use crate::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use crate::sync::thread::{JoinHandle, Thread};
use crate::sync::{Condvar, Mutex, MutexGuard};

use crate::deque::{deque, Injector, Stealer};
use crate::scheduler::Worker;
use crate::task::Task;
use crate::trace::{SessionEvents, TraceKind};

/// Maximum pool size (sleeper state is one `u64` bitmask).
pub const MAX_WORKERS: usize = 64;

/// Idle rounds spent spinning before yielding. Each idle round is a full
/// `find_task` sweep (it polls every sibling's deque), so a few rounds
/// suffice; long spins just hammer the busy workers' cache lines.
/// Zero under the model checker: spinning only multiplies schedules
/// without adding behaviors, and parking is what the checker must cover.
#[cfg(not(pf_check))]
const SPIN_ROUNDS: u32 = 4;
#[cfg(pf_check)]
const SPIN_ROUNDS: u32 = 0;
/// Idle rounds spent yielding before parking.
#[cfg(not(pf_check))]
const YIELD_ROUNDS: u32 = 2;
#[cfg(pf_check)]
const YIELD_ROUNDS: u32 = 0;

/// Worker thread stack size. Deep recursive structures (future-tailed
/// lists, tall trees) drop with one native frame per element when their
/// last reference dies on a worker; a large lazily-committed reservation
/// makes that a non-issue for any realistic input.
const WORKER_STACK: usize = 256 << 20;

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Execution statistics of one [`Runtime::run_stats`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Closures executed (root + spawned tasks + reactivated waiters).
    pub tasks_executed: u64,
    /// [`Worker::spawn`] calls (a `spawn2` counts twice).
    pub spawns: u64,
    /// Touches that found their cell unwritten and parked in it.
    pub suspensions: u64,
    /// Tasks obtained by stealing from a sibling worker.
    pub steals: u64,
    /// Wall-clock time of the session, measured by the client from the
    /// root push to the quiescence signal. For a *single* session this
    /// is the one duration to report throughput from (see
    /// [`RunStats::ops_per_sec`]). Accumulated over *concurrent*
    /// sessions it is total session time, which double-counts
    /// overlapping wall-clock — divide by an externally measured window
    /// instead ([`RunStats::ops_per_sec_wall`]).
    pub elapsed: Duration,
}

impl RunStats {
    /// Sustained throughput of this session for a caller-defined notion
    /// of "operation" (keys applied, requests served, …): `ops` divided
    /// by [`RunStats::elapsed`]. Returns 0.0 for a zero-length session
    /// (sub-resolution runs) rather than dividing by zero.
    ///
    /// Meaningful for a single session, or for stats accumulated over
    /// sessions that ran *back to back*. For stats accumulated over
    /// sessions that overlapped in time, `elapsed` is summed busy time
    /// (greater than the wall-clock window that contained them), so this
    /// quotient *understates* throughput — use
    /// [`RunStats::ops_per_sec_wall`] with the real window instead.
    pub fn ops_per_sec(&self, ops: u64) -> f64 {
        Self::ops_per_sec_wall(ops, self.elapsed)
    }

    /// Throughput over an externally measured wall-clock window: `ops`
    /// divided by `wall`. This is the right quotient when sessions run
    /// concurrently — measure the window around the whole batch (as
    /// pf-service's `DrainReport::wall` does) and divide once, instead
    /// of dividing by summed per-session `elapsed`, which double-counts
    /// every overlap. Returns 0.0 for a zero-length window.
    pub fn ops_per_sec_wall(ops: u64, wall: Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            ops as f64 / secs
        } else {
            0.0
        }
    }

    /// Fold another session's counters and elapsed time into this one —
    /// the accumulation a service doing many sessions wants for a
    /// whole-run report. `elapsed` adds: the sum is total time spent
    /// *in* sessions, which equals wall-clock only when the sessions
    /// never overlapped. A service issuing concurrent sessions should
    /// report throughput with [`RunStats::ops_per_sec_wall`] over its
    /// own measured window.
    pub fn accumulate(&mut self, other: &RunStats) {
        self.tasks_executed += other.tasks_executed;
        self.spawns += other.spawns;
        self.suspensions += other.suspensions;
        self.steals += other.steals;
        self.elapsed += other.elapsed;
    }
}

/// Abort state of one session, guarded by its slot's mutex.
struct SlotAbort {
    /// The session is between start and end; reasons are only accepted
    /// while set (a cancel arriving after the session ended must not
    /// poison a finished slot — stale aborts no-op here).
    open: bool,
    /// The filed abort, if any (first fault wins).
    error: Option<SessionError>,
}

// ---------------------------------------------------------------------
// Liveness-unit packing: low 32 bits = queued + running + suspended
// closures of the session, high 32 bits = the suspended subset.
// ---------------------------------------------------------------------

/// One queued/running/suspended closure.
const UNIT: u64 = 1;
/// The suspended-subset mark, packed into the high half.
const SUSP_UNIT: u64 = 1 << 32;
const LOW_MASK: u64 = (1 << 32) - 1;

#[inline]
fn live_of(units: u64) -> u64 {
    units & LOW_MASK
}
#[inline]
fn susp_of(units: u64) -> u64 {
    units >> 32
}

/// One live session's entire mutable state.
///
/// Shared by `Arc`: the client holds one while waiting, every queued
/// [`SessionTask`] carries one, every suspended continuation stores one
/// in its cell, and cancel tokens hold a `Weak`. The pool holds none, so
/// a slot is freed the moment its session's last artifact dies — no
/// cross-session cleanup exists.
pub(crate) struct SessionSlot {
    /// Session id, unique per pool, numbered from 1.
    pub(crate) id: u64,
    /// Packed liveness counters (see module docs): low half = live
    /// units, high half = suspended units. `units == 0` ⇔ quiescent;
    /// `low == high` ⇔ nothing queued or running (the abort safe point).
    units: AtomicU64,
    /// The session is aborting: workers discard its popped tasks.
    aborting: AtomicBool,
    /// Abort slot: open flag + first filed reason.
    abort: Mutex<SlotAbort>,
    /// Session-over flag + condvar the client blocks on. Also signalled
    /// (without setting the flag) when an aborting session's last
    /// queued-or-running unit drains, and when a reason is filed.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Cells this session suspended a continuation into — the poison
    /// pass's work list. One push per suspension (uncontended in the
    /// common case); taken by the client at abort cleanup.
    suspended: Mutex<Vec<Weak<dyn PoisonTarget>>>,
    /// The session's event counters (and, traced, timeline): one lane
    /// per worker plus the client lane; lane *i* is written only by
    /// worker *i*.
    pub(crate) events: SessionEvents,
}

impl SessionSlot {
    fn new(id: u64, events: SessionEvents) -> SessionSlot {
        SessionSlot {
            id,
            // The root task's unit; the slot is born live.
            units: AtomicU64::new(UNIT),
            aborting: AtomicBool::new(false),
            abort: Mutex::new(SlotAbort {
                open: true,
                error: None,
            }),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            suspended: Mutex::new(Vec::new()),
            events,
        }
    }

    /// Is the session aborting? `SeqCst`: pairs with the `SeqCst` unit
    /// decrements for the abort wait's Dekker argument (module docs).
    #[inline]
    pub(crate) fn aborting(&self) -> bool {
        self.aborting.load(Ordering::SeqCst)
    }

    /// Add `n` fresh liveness units (spawn). `Relaxed` is enough: spawns
    /// happen inside a running task, which holds a unit of its own, so
    /// the counter cannot be concurrently observed at a signal point.
    #[inline]
    pub(crate) fn add_units(&self, n: u64) {
        self.units.fetch_add(n * UNIT, Ordering::Relaxed);
    }

    /// Account a continuation suspending into a cell: one more live
    /// unit, marked suspended. (The toucher's own task still holds its
    /// separate running unit.)
    #[inline]
    pub(crate) fn note_suspend(&self) {
        self.units.fetch_add(SUSP_UNIT + UNIT, Ordering::Relaxed);
    }

    /// Undo [`SessionSlot::note_suspend`] when the suspension raced the
    /// write and the continuation runs immediately after all. Cannot
    /// reach a signal point: the toucher's running unit keeps
    /// `low > high`.
    #[inline]
    pub(crate) fn unnote_suspend(&self) {
        self.units.fetch_sub(SUSP_UNIT + UNIT, Ordering::Relaxed);
    }

    /// A fulfilled cell took its waiter out of suspension: clear the
    /// suspended mark, keeping the unit live. Must be called **before**
    /// the resumed task is pushed to any queue, so that
    /// `low - high` — the queued-or-running count the abort wait reads —
    /// never undercounts: the RMW is ordered before the push, and any
    /// pop of the task is ordered after the push.
    #[inline]
    pub(crate) fn transfer_resume(&self) {
        self.units.fetch_sub(SUSP_UNIT, Ordering::SeqCst);
    }

    /// Retire one liveness unit: a task of this session finished or was
    /// discarded. The final unit ends the session; under an abort, the
    /// decrement that drains the last queued-or-running unit wakes the
    /// waiting client (`SeqCst` RMW + `SeqCst` `aborting` load — the
    /// Dekker pair of the abort wait, see module docs).
    pub(crate) fn task_done(&self) {
        let after = self.units.fetch_sub(UNIT, Ordering::SeqCst) - UNIT;
        if after == 0 {
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        } else if live_of(after) == susp_of(after) && self.aborting() {
            // Every remaining unit is suspended: the aborting client's
            // safe point. Signal under the done mutex so the client's
            // predicate re-check cannot race past this wakeup.
            let _g = lock(&self.done);
            self.done_cv.notify_all();
        }
    }

    /// Retire `n` suspended units whose waiters the poison pass just
    /// dropped (client-only; the client is the one being signalled, so
    /// no notify is needed).
    fn retire_poisoned(&self, n: u64) {
        self.units
            .fetch_sub(n * (SUSP_UNIT + UNIT), Ordering::SeqCst);
    }

    /// Record a cell this session suspended a continuation into, so an
    /// abort can poison it.
    pub(crate) fn register_suspend(&self, cell: Weak<dyn PoisonTarget>) {
        lock(&self.suspended).push(cell);
    }

    /// File `error` for this session and start its abort protocol.
    /// Returns whether this call filed it — `false` when the slot is
    /// closed (session already ended: stale cancels no-op) or an error
    /// was already filed (first fault wins; later payloads are dropped).
    pub(crate) fn request_abort(&self, error: SessionError) -> bool {
        {
            let mut slot = lock(&self.abort);
            if !slot.open || slot.error.is_some() {
                return false;
            }
            slot.error = Some(error);
        }
        self.aborting.store(true, Ordering::SeqCst);
        // Wake the client out of its wait (it re-checks `aborting`).
        // Workers need no wakeup: parked workers hold no task of any
        // session, and this session's queued tasks are discarded at pop.
        let _g = lock(&self.done);
        self.done_cv.notify_all();
        true
    }
}

/// A queued unit of work tagged with its owning session: every task in
/// the injector or a deque carries the `Arc` of its
/// session's slot, so accounting, abort checks and trace attribution follow the task wherever it is stolen to. Seven
/// words (the [`Task`] six plus the pointer).
pub(crate) struct SessionTask {
    pub(crate) session: Arc<SessionSlot>,
    pub(crate) task: Task,
}

/// State shared by the clients and every worker of one pool.
pub(crate) struct Shared {
    pub(crate) injector: Injector<SessionTask>,
    pub(crate) stealers: Vec<Stealer<SessionTask>>,
    /// Bit *i* set ⇔ worker *i* is parked (or committing to park).
    sleepers: AtomicU64,
    /// Unpark handles, indexed like `stealers`; set once at pool start.
    threads: OnceLock<Vec<Thread>>,
    /// Pool teardown: workers exit their loop.
    shutdown: AtomicBool,
    /// Session-id allocator (ids start at 1).
    next_session: AtomicU64,
}

/// Ignore mutex poisoning: every guarded invariant here is re-established
/// explicitly by the session/abort protocol, not by the guard scope.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Wake up to `budget` parked workers. Must be called **after** the
    /// corresponding queue push: the fence orders the push before the
    /// mask read (the producer half of the lost-wakeup argument above).
    pub(crate) fn notify(&self, mut budget: usize) {
        // Chaos seam: stretch the push→wakeup window (no-op normally).
        crate::chaos::maybe_delay();
        fence(Ordering::SeqCst);
        while budget > 0 {
            let mask = self.sleepers.load(Ordering::Relaxed);
            if mask == 0 {
                return;
            }
            let bit = mask & mask.wrapping_neg();
            // Claim the sleeper so concurrent producers wake distinct
            // workers; the loser of the race retries on the next bit.
            if self.sleepers.fetch_and(!bit, Ordering::SeqCst) & bit != 0 {
                if let Some(threads) = self.threads.get() {
                    threads[bit.trailing_zeros() as usize].unpark();
                }
                budget -= 1;
            }
        }
    }

    fn unpark_all(&self) {
        if let Some(threads) = self.threads.get() {
            for t in threads {
                t.unpark();
            }
        }
    }
}

// Model builds set SPIN_ROUNDS = YIELD_ROUNDS = 0, making the ladder
// comparisons degenerate (`idle <= 0` on an unsigned counter) — that is
// intended, not a bug, so silence the lint rather than restructure.
#[cfg_attr(pf_check, allow(clippy::absurd_extreme_comparisons))]
fn worker_loop(wk: &Worker) {
    let shared = wk.shared();
    let bit = 1u64 << wk.index();
    let mut idle: u32 = 0;
    // The slot of the last task this worker ran, if that session is
    // traced: park/unpark events are attributed to it (the session whose
    // dry spell parked us).
    let mut last: Option<Arc<SessionSlot>> = None;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(st) = wk.find_task() {
            idle = 0;
            let finished = wk.execute(st);
            last = finished.events.traced().then_some(finished);
            continue;
        }
        idle += 1;
        if idle <= SPIN_ROUNDS {
            std::hint::spin_loop();
        } else if idle <= SPIN_ROUNDS + YIELD_ROUNDS {
            crate::sync::thread::yield_now();
        } else {
            // Publish intent to sleep, then re-check: the sleeper half of
            // the lost-wakeup argument (module docs).
            shared.sleepers.fetch_or(bit, Ordering::SeqCst);
            // `pf_check_lost_wakeup` is a *deliberate seeded bug* for the
            // model checker's non-vacuity test (crates/check/tests): it
            // removes this re-check, reopening the classic race where a
            // producer's push lands between the worker's last sweep and
            // its park — the exact bug the re-check exists to close.
            // Never set outside that test.
            #[cfg(not(pf_check_lost_wakeup))]
            if wk.work_available() || shared.shutdown.load(Ordering::SeqCst) {
                shared.sleepers.fetch_and(!bit, Ordering::SeqCst);
                idle = 0;
                continue;
            }
            if let Some(slot) = &last {
                slot.events.record(wk.index(), TraceKind::Park, 0, 1);
            }
            crate::sync::thread::park();
            if let Some(slot) = &last {
                slot.events.record(wk.index(), TraceKind::Unpark, 0, 1);
            }
            // A claiming producer already cleared our bit; clearing again
            // is harmless and also covers spurious unparks.
            shared.sleepers.fetch_and(!bit, Ordering::SeqCst);
            idle = 0;
        }
    }
}

/// A futures runtime with a fixed pool of persistent worker threads.
///
/// Workers are spawned by [`Runtime::new`] and live until the `Runtime`
/// is dropped; each [`Runtime::run`] call executes one computation to
/// quiescence on the same pool. Results written into future cells can be
/// inspected as soon as `run` returns. Concurrent `run` /
/// [`Runtime::try_run_session`] calls from different threads co-execute
/// on the shared workers, each session isolated in its own slot (see the
/// module docs) — a panic in one session never disturbs another.
pub struct Runtime {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    nthreads: usize,
}

impl Runtime {
    /// A runtime with `nthreads` persistent workers
    /// (`1 ..= 64`).
    pub fn new(nthreads: usize) -> Self {
        assert!(
            (1..=MAX_WORKERS).contains(&nthreads),
            "nthreads must be in 1..={MAX_WORKERS}, got {nthreads}"
        );
        let locals: Vec<_> = (0..nthreads).map(|_| deque()).collect();
        let stealers = locals.iter().map(|d| d.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleepers: AtomicU64::new(0),
            threads: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
        });
        // Placement (module docs): worker `i` of a wider pool takes the
        // `(first + i)`-th CPU of the mask it inherits from this thread.
        #[cfg(all(target_os = "linux", not(pf_check)))]
        let first = (nthreads > 1).then(|| placement::reserve(nthreads));
        let handles: Vec<JoinHandle<()>> = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::Builder::new()
                    .name(format!("pf-rt-worker-{i}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || {
                        #[cfg(all(target_os = "linux", not(pf_check)))]
                        if let Some(first) = first {
                            placement::pin(first + i);
                        }
                        IN_WORKER.with(|f| f.set(true));
                        let worker = Worker::new(shared, local, i);
                        worker_loop(&worker);
                    })
                    .expect("failed to spawn worker")
            })
            .collect();
        shared
            .threads
            .set(handles.iter().map(|h| h.thread().clone()).collect())
            .expect("threads set twice");
        Runtime {
            shared,
            handles: Mutex::new(handles),
            nthreads,
        }
    }

    /// A process-wide shared runtime with exactly `nthreads` workers,
    /// created on first request and reused thereafter. This is what
    /// benchmark drivers sweeping thread counts should use: repeated
    /// timings at the same width hit a warm pool instead of paying
    /// thread creation per measurement. (Unavailable under the model
    /// checker: a process-lifetime pool would leak model threads across
    /// executions.)
    #[cfg(not(pf_check))]
    pub fn shared(nthreads: usize) -> Arc<Runtime> {
        use std::collections::HashMap;
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<Runtime>>>> = OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = lock(pools);
        Arc::clone(
            map.entry(nthreads)
                .or_insert_with(|| Arc::new(Runtime::new(nthreads))),
        )
    }

    /// Number of worker threads.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Execute `root` and every task it transitively spawns; returns when
    /// the computation is quiescent (every closure has run). Panics in
    /// tasks propagate to the caller. Prefer [`Runtime::try_run`] when a
    /// failed session should be a recoverable value instead.
    pub fn run(&self, root: impl FnOnce(&Worker) + Send + 'static) {
        let _ = self.run_stats(root);
    }

    /// [`Runtime::run`], returning execution statistics for this call
    /// only (each session owns its counters).
    pub fn run_stats(&self, root: impl FnOnce(&Worker) + Send + 'static) -> RunStats {
        match self.try_run(root) {
            Ok(stats) => stats,
            Err(e) => e.resume(),
        }
    }

    /// Fault-contained [`Runtime::run`]: execute `root` to quiescence and
    /// return the session's statistics, or a [`SessionError`] when the
    /// session aborted (a task panicked; with [`Runtime::try_run_session`]
    /// options, also cancellation, an expired deadline, or a detected
    /// stall). On `Err` the session has already been cleaned up: its
    /// queued tasks were (or are being) discarded, suspended
    /// continuations dropped — nothing leaks — and their cells poisoned,
    /// so a straggler touch fails fast with this failure's context.
    /// Concurrent sessions on the same pool are untouched by the abort.
    pub fn try_run(
        &self,
        root: impl FnOnce(&Worker) + Send + 'static,
    ) -> Result<RunStats, SessionError> {
        self.try_run_session(Session::new(), root)
    }

    /// [`Runtime::try_run`] with per-session options: a wall-clock
    /// [`Session::deadline`], a [`Session::cancel_token`], a
    /// [`Session::stall_budget`], and/or a [`Session::trace`] timeline. Callable concurrently from any number of
    /// threads; each call is an independent session with its own slot.
    pub fn try_run_session(
        &self,
        opts: Session,
        root: impl FnOnce(&Worker) + Send + 'static,
    ) -> Result<RunStats, SessionError> {
        assert!(
            !IN_WORKER.with(|f| f.get()),
            "Runtime::run called from inside a worker task (would deadlock)"
        );
        let shared = &*self.shared;
        let sid = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = Arc::new(SessionSlot::new(
            sid,
            SessionEvents::new(self.nthreads, opts.trace),
        ));

        // Register the cancel token against the fresh slot. A token
        // fired before registration is caught by the flag re-check; one
        // fired after goes through `request_abort` like any other fault.
        // A stale token can never abort this session: it holds a `Weak`
        // to the slot it was registered with, not to the pool.
        if let Some(tok) = &opts.cancel {
            tok.register(&slot);
            if tok.is_cancelled() {
                slot.request_abort(SessionError::Cancelled { session: sid });
            }
        }

        let started = std::time::Instant::now();
        shared.injector.push(SessionTask {
            session: Arc::clone(&slot),
            task: Task::new(root),
        });
        shared.notify(1);

        self.wait_session(&slot, &opts);
        let elapsed = started.elapsed();

        // Close the slot; an error filed before this point wins even
        // over a clean finish (its filer observed the slot open).
        let error = {
            let mut ab = lock(&slot.abort);
            ab.open = false;
            ab.error.take()
        };
        if let Some(tok) = &opts.cancel {
            tok.unregister();
        }

        if let Some(mut err) = error {
            let ctx = Arc::new(PoisonInfo {
                session: sid,
                reason: err.to_string(),
            });
            let stuck = Self::finish_abort(&slot, &ctx);
            if let SessionError::Stalled { report, .. } = &mut err {
                report.stuck = stuck;
            }
            // Finish *after* the abort cleanup, so the record holds its
            // poison events.
            slot.events.finish(sid);
            return Err(err);
        }

        debug_assert_eq!(slot.units.load(Ordering::SeqCst), 0);
        // Visibility of the slot's counters: each worker's (Relaxed)
        // writes precede its SeqCst `units` decrement in program order;
        // the RMW chain on `units` plus the done-mutex handoff order all
        // of them before this read.
        let ev = &slot.events;
        ev.finish(sid);
        Ok(RunStats {
            tasks_executed: ev.total(TraceKind::Exec),
            spawns: ev.total(TraceKind::Spawn),
            suspensions: ev.total(TraceKind::Suspend),
            steals: ev.total(TraceKind::Steal),
            elapsed,
        })
    }

    /// Block until the session ends (`done`) or an abort begins. Outside
    /// the model checker this loop also enforces the session deadline and
    /// runs the quiescence watchdog (module docs); the model build has no
    /// clock, so it waits indefinitely — model schedules either quiesce
    /// or abort.
    #[cfg(not(pf_check))]
    fn wait_session(&self, slot: &SessionSlot, opts: &Session) {
        use std::time::Instant;
        let deadline = opts.deadline.map(|d| (Instant::now() + d, d));
        // The watchdog's last epoch sample and when it was first seen.
        let mut last = None;
        let mut done = lock(&slot.done);
        loop {
            if *done || slot.aborting() {
                return;
            }
            let mut wait_for = WATCHDOG_POLL;
            if let Some((expires, d)) = deadline {
                let now = Instant::now();
                if now >= expires {
                    // `request_abort` takes the `done` lock to notify;
                    // release it first.
                    drop(done);
                    slot.request_abort(SessionError::DeadlineExceeded {
                        session: slot.id,
                        deadline: d,
                    });
                    done = lock(&slot.done);
                    continue;
                }
                wait_for = wait_for.min(expires - now);
            }
            let (g, timeout) = slot
                .done_cv
                .wait_timeout(done, wait_for)
                .unwrap_or_else(|e| e.into_inner());
            done = g;
            if timeout.timed_out() {
                if let Some(report) = self.watchdog_sample(slot, opts.stall, &mut last) {
                    drop(done);
                    slot.request_abort(SessionError::Stalled {
                        session: slot.id,
                        report,
                    });
                    done = lock(&slot.done);
                }
            }
        }
    }

    /// One watchdog sample of `slot` (module docs). `last` is the epoch
    /// seen before and when it was first seen. Returns the report (its
    /// `stuck` list still empty) once the session's epoch has stayed
    /// frozen for its budget: `stall`, or [`WATCHDOG_SUSPENDED_BUDGET`]
    /// when every remaining unit is suspended. Without an explicit budget
    /// a *running* unit abstains: a frozen epoch under a running task
    /// also describes a long compute-only closure. A frozen sample also
    /// unparks a fully parked pool that has work queued (lost-wakeup
    /// recovery).
    #[cfg(not(pf_check))]
    fn watchdog_sample(
        &self,
        slot: &SessionSlot,
        stall: Option<Duration>,
        last: &mut Option<(u64, std::time::Instant)>,
    ) -> Option<StallReport> {
        let units = slot.units.load(Ordering::SeqCst);
        let live = live_of(units) as usize;
        if live == 0 || slot.aborting() {
            return None;
        }
        let epoch = slot.events.epoch();
        let since = match *last {
            Some((seen, since)) if seen == epoch => since,
            _ => {
                *last = Some((epoch, std::time::Instant::now()));
                return None;
            }
        };
        let shared = &*self.shared;
        let all_parked =
            shared.sleepers.load(Ordering::SeqCst).count_ones() as usize == self.nthreads;
        if all_parked
            && !(shared.injector.is_empty() && shared.stealers.iter().all(|s| s.is_empty()))
        {
            shared.unpark_all();
        }
        let budget = match stall {
            Some(b) => b,
            None if live_of(units) == susp_of(units) => WATCHDOG_SUSPENDED_BUDGET,
            None => return None,
        };
        let frozen_for = since.elapsed();
        (frozen_for >= budget).then(|| StallReport {
            session: slot.id,
            live,
            epoch,
            frozen_for,
            stuck: Vec::new(),
        })
    }

    #[cfg(pf_check)]
    fn wait_session(&self, slot: &SessionSlot, opts: &Session) {
        // Deadlines and the watchdog need a clock; the model has none.
        let _ = (opts.deadline, opts.stall);
        let mut done = lock(&slot.done);
        while !*done && !slot.aborting() {
            done = slot.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Client side of the abort protocol (module docs, steps 3–4).
    /// Returns descriptions of the cells that still held one of this
    /// session's suspended continuations — each such continuation is
    /// dropped and its cell poisoned with `ctx`.
    fn finish_abort(slot: &SessionSlot, ctx: &Arc<PoisonInfo>) -> Vec<StuckCell> {
        // Wait until none of the session's units is queued or running
        // (`low == high`); every queued task is being discarded at pop
        // by whichever worker finds it, and each discarding decrement
        // re-checks this predicate and signals (Dekker argument in the
        // module docs — the plain wait below cannot miss its wakeup; the
        // timed variant outside the model checker is pure defense).
        {
            let mut done = lock(&slot.done);
            loop {
                let u = slot.units.load(Ordering::SeqCst);
                if live_of(u) == susp_of(u) {
                    break;
                }
                #[cfg(not(pf_check))]
                {
                    done = slot
                        .done_cv
                        .wait_timeout(done, WATCHDOG_POLL)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
                #[cfg(pf_check)]
                {
                    done = slot.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        // Poison every registered cell that still holds one of this
        // session's suspended continuations: the continuation is dropped
        // here (zero leaks — each suspension record owns an `Arc` cycle
        // back to its cell that only this pass can break) and the cell
        // remembers `ctx`, so a straggler touch fails fast with the
        // originating failure. Cells of *other* sessions are untouched: a
        // cell holds exactly one waiter (ours — it is in our registry).
        let targets = std::mem::take(&mut *lock(&slot.suspended));
        let mut stuck = Vec::new();
        for weak in targets {
            if let Some(cell) = weak.upgrade() {
                let outcome = cell.poison(ctx);
                if outcome.dropped > 0 {
                    slot.retire_poisoned(outcome.dropped);
                }
                if let Some(desc) = outcome.stuck {
                    let ev = &slot.events;
                    ev.record(ev.client_lane(), TraceKind::Poison, desc.addr as u64, 1);
                    stuck.push(desc);
                }
            }
        }
        stuck
    }
}

/// Worker placement (module docs, *Placement*).
#[cfg(all(target_os = "linux", not(pf_check)))]
mod placement {
    use std::ffi::c_int;
    use std::sync::atomic::{AtomicUsize, Ordering};

    extern "C" {
        /// `sched_getaffinity(2)`; fills `size` bytes at `mask`.
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        /// `sched_setaffinity(2)`; `mask` points at `size` bytes of CPU bits.
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    /// A CPU mask the size of glibc's `cpu_set_t`: 1024 CPUs.
    type CpuSet = [u64; 16];
    const SET_BYTES: usize = std::mem::size_of::<CpuSet>();

    /// The round-robin position of the next pinned worker.
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    /// Reserve `n` consecutive positions; returns the first.
    pub(super) fn reserve(n: usize) -> usize {
        NEXT.fetch_add(n, Ordering::Relaxed)
    }

    /// Confine the calling thread to the `k`-th (modulo their count) CPU
    /// of those it may run on. A thread allowed one CPU stays where it
    /// is, and so does one whose affinity call fails.
    pub(super) fn pin(k: usize) {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: writes at most `SET_BYTES` bytes at a local of that
        // size that outlives the call; `pid == 0` names the calling thread.
        if unsafe { sched_getaffinity(0, SET_BYTES, allowed.as_mut_ptr()) } != 0 {
            return;
        }
        let cpus: Vec<usize> = (0..SET_BYTES * 8)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 != 0)
            .collect();
        if cpus.len() < 2 {
            return;
        }
        let cpu = cpus[k % cpus.len()];
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: reads `SET_BYTES` bytes at a local of that size that
        // outlives the call; `pid == 0` names the calling thread. A
        // failure leaves the thread on its inherited mask.
        unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) };
    }
}

/// Client-side wait-loop poll interval; also the watchdog sample period.
#[cfg(not(pf_check))]
const WATCHDOG_POLL: Duration = Duration::from_millis(2);
/// Stall budget of a suspended-only session with no explicit
/// [`Session::stall_budget`]: how long its progress epoch may stay
/// frozen before the watchdog declares a stall. Generous on purpose — a
/// suspended-only session's epoch can only move through a fulfill, so
/// the sole false-positive risk is a fulfill (from another session or
/// thread) arriving later than this after *every* other event of the
/// session; set an explicit budget to tighten it.
#[cfg(not(pf_check))]
const WATCHDOG_SUSPENDED_BUDGET: Duration = Duration::from_millis(1000);

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.unpark_all();
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_task_is_seven_words() {
        assert_eq!(
            std::mem::size_of::<SessionTask>(),
            7 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn unit_packing_roundtrips() {
        let u = 3 * UNIT + 2 * SUSP_UNIT;
        assert_eq!(live_of(u), 3);
        assert_eq!(susp_of(u), 2);
    }
}
