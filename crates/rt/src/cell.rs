//! Lock-free write-once future cells with in-cell continuation suspension.
//!
//! A cell is two fields: one atomic **state word** and the value slot. The
//! word carries the state in its low two bits and, in the two states that
//! need one, a pointer in the rest:
//!
//! ```text
//!   EMPTY ──write────────────────────────► FULL      (value published)
//!   EMPTY ──touch──► WAITING|susp ──write──► FULL    (waiter reactivated)
//!                    WAITING|susp ──abort──► POISONED|ctx
//! ```
//!
//! Linearity (§4 of the paper) guarantees at most one toucher, so a single
//! waiter pointer suffices and every transition is one CAS that moves the
//! state and the pointer together:
//!
//! * the **toucher** allocates its suspension record and publishes it
//!   with `EMPTY → WAITING|susp`; if the CAS fails the cell filled
//!   concurrently, the record was never shared, and the continuation
//!   runs immediately;
//! * the **writer** stores the value and moves `EMPTY → FULL`; if that
//!   fails because a toucher got there first it moves
//!   `WAITING|susp → FULL`, which takes the record — made visible by the
//!   toucher's CAS — and schedules it.
//!
//! Whoever's CAS removes a pointer from the word owns what it points to;
//! nothing is ever read through the word while another thread may free
//! it. A cell nobody suspended in — all but a few percent of them under
//! the work-first scheduler — therefore carries and initialises
//! no waiter, session or poison words at all.
//!
//! The value itself stays in the cell (the waiter receives a clone), so
//! finished data structures can be inspected after the run with
//! [`FutRead::peek`] / [`FutRead::expect`].
//!
//! The **suspension record** is the one allocation a suspending touch
//! makes: the waiter's session (so a *cross-session* fulfill resumes the
//! waiter into its own session, not the writer's) and the
//! continuation, which captures the cell (an `Arc`) and clones the value
//! out when it runs. The writer hands the record to the scheduler as-is.
//! While a record sits in a cell, the cell keeps itself alive through the
//! record's `Arc` — a deliberate cycle, broken whenever the record is
//! taken out. That happens on every path: a run that reaches quiescence
//! reactivates the waiter, and a session that *aborts* (panic, cancel,
//! deadline, stall) **poisons** the cell during its abort cleanup — a
//! fourth state, `POISONED`, entered only from `WAITING` — which takes
//! the record out and drops it, so nothing leaks. The pointer bits of a
//! poisoned word hold the reason its session died
//! ([`FutRead::poison_info`]); any straggler touch or fulfill of it
//! panics immediately with that context instead of suspending on a value
//! that can never arrive. See the "Failure model" section of DESIGN.md.
//!
//! Under `--cfg pf_chaos` the fulfill/touch entry points also host the
//! chaos layer's delay hook (see [`crate::chaos`]); in normal builds the
//! hook compiles to nothing.

use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::NonNull;
use std::sync::Arc;

use crate::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{PoisonInfo, PoisonOutcome, PoisonTarget, StuckCell};
use crate::pool::{SessionSlot, SessionTask};
use crate::scheduler::Worker;
use crate::task::Task;
use pf_trace::TraceKind;

const EMPTY: usize = 0;
/// A continuation is suspended here; the pointer bits hold its
/// [`Suspension`] record.
const WAITING: usize = 1;
const FULL: usize = 2;
/// The cell's session aborted with a continuation suspended here; the
/// record was dropped and the pointer bits hold an `Arc<PoisonInfo>`
/// (as `Arc::into_raw`). Terminal, entered only from `WAITING`, only by
/// the aborting session's cleanup pass.
const POISONED: usize = 3;
/// The state bits of the word; the rest is the pointer.
const TAG: usize = 0b11;

const _: () = assert!(
    align_of::<SuspHead>() > TAG && align_of::<PoisonInfo>() > TAG,
    "the state lives in the alignment bits of these pointers"
);

struct Inner<T> {
    state: AtomicUsize,
    /// Initialised exactly when the state is `FULL`.
    value: UnsafeCell<MaybeUninit<T>>,
}

// The point of the layout: a pointer-sized payload makes a two-word cell
// (a 32-byte `Arc` allocation), where the six-field layout it replaces
// was 64 bytes before the `Arc` header.
const _: () = assert!(size_of::<Inner<usize>>() == 2 * size_of::<usize>());

/// The type-erased head of a suspension record; the continuation follows
/// it in the same allocation (see [`Suspended`]).
struct SuspHead {
    /// The waiter's session — its accounting/abort identity. Taken by
    /// the writer when it queues the record.
    session: Option<Arc<SessionSlot>>,
    /// Runs the continuation and frees the record.
    run: unsafe fn(NonNull<SuspHead>, &Worker),
    /// Frees the record without running it.
    free: unsafe fn(NonNull<SuspHead>),
}

/// One suspension record. `repr(C)` puts `head` at offset 0, so a
/// pointer to the record is a pointer to its head and the cell can hold
/// it as one thin pointer whatever `F` is.
#[repr(C)]
struct Suspended<F> {
    head: SuspHead,
    cont: F,
}

unsafe fn run_record<F: FnOnce(&Worker)>(p: NonNull<SuspHead>, wk: &Worker) {
    // SAFETY (caller): `p` heads a live `Suspended<F>` from `Box::leak`,
    // consumed exactly once.
    let rec = unsafe { Box::from_raw(p.cast::<Suspended<F>>().as_ptr()) };
    let Suspended { head, cont } = *rec;
    drop(head);
    cont(wk);
}

unsafe fn free_record<F>(p: NonNull<SuspHead>) {
    // SAFETY (caller): as in `run_record`.
    drop(unsafe { Box::from_raw(p.cast::<Suspended<F>>().as_ptr()) });
}

/// Owning handle to a suspension record: what a touch that finds its
/// cell unwritten leaves in it.
struct Suspension(NonNull<SuspHead>);

// SAFETY: the record holds an `Arc<SessionSlot>` (the slot is shared by
// every worker already), two fn pointers, and a continuation
// that `new` requires to be `Send`; the handle owns it exclusively.
unsafe impl Send for Suspension {}

impl Suspension {
    fn new<F>(session: Arc<SessionSlot>, cont: F) -> Suspension
    where
        F: FnOnce(&Worker) + Send + 'static,
    {
        let rec = Box::new(Suspended {
            head: SuspHead {
                session: Some(session),
                run: run_record::<F>,
                free: free_record::<F>,
            },
            cont,
        });
        Suspension(NonNull::from(Box::leak(rec)).cast())
    }

    /// Give the record up as a `WAITING` state word.
    fn into_word(self) -> usize {
        let p = self.0.as_ptr() as usize;
        std::mem::forget(self);
        p | WAITING
    }

    /// Take back the record a `WAITING` word holds.
    ///
    /// # Safety
    /// `word` came from [`Suspension::into_word`] and the caller owns it:
    /// its CAS removed the word from a cell, or never put it there.
    unsafe fn from_word(word: usize) -> Suspension {
        debug_assert_eq!(word & TAG, WAITING);
        // SAFETY: `into_word` tagged a non-null, aligned pointer.
        Suspension(unsafe { NonNull::new_unchecked((word & !TAG) as *mut SuspHead) })
    }

    /// The waiter's session — the one the resume is accounted to. Once
    /// per record.
    fn take_session(&mut self) -> Arc<SessionSlot> {
        // SAFETY: we own the record.
        let head = unsafe { self.0.as_mut() };
        head.session.take().expect("suspension routed twice")
    }

    /// The record as a queueable task (one word: stored inline).
    fn into_task(self) -> Task {
        Task::new(move |wk: &Worker| {
            let p = self.0;
            std::mem::forget(self);
            // SAFETY: we own the record and just gave up the handle, so
            // it is consumed exactly once.
            unsafe { (p.as_ref().run)(p, wk) }
        })
    }
}

impl Drop for Suspension {
    fn drop(&mut self) {
        // SAFETY: we own the record; it is freed exactly once here.
        unsafe { (self.0.as_ref().free)(self.0) }
    }
}

impl<T> Inner<T> {
    /// The value of a `FULL` cell.
    ///
    /// # Safety
    /// The caller observed `FULL` with acquire ordering (or is ordered
    /// after someone who did): the value write is then visible, and the
    /// value is never removed while the cell lives.
    unsafe fn value(&self) -> &T {
        // SAFETY: see above.
        unsafe { (*self.value.get()).assume_init_ref() }
    }

    /// The context a `POISONED` word carries.
    fn poison_ctx(&self, word: usize) -> &PoisonInfo {
        debug_assert_eq!(word & TAG, POISONED);
        // SAFETY: `word` was read from `self.state` with acquire
        // ordering, after the poison pass's CAS published an
        // `Arc::into_raw` pointer in it. POISONED is terminal and the
        // `Arc` is released only by `Drop`, so the context outlives the
        // borrow of `self`.
        unsafe { &*((word & !TAG) as *const PoisonInfo) }
    }

    /// Store `value` and move the cell to `FULL`. `Ok(Some(_))` hands
    /// the caller the suspension that was waiting for the write;
    /// `Err(_)` means the cell is poisoned (the value is dropped).
    fn write(&self, value: T) -> Result<Option<Suspension>, &PoisonInfo> {
        // SAFETY: we are the unique writer (FutWrite is not Clone and is
        // consumed); no reader dereferences `value` until it observes
        // FULL.
        unsafe { (*self.value.get()).write(value) };
        let mut seen =
            match self
                .state
                .compare_exchange(EMPTY, FULL, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(None),
                Err(seen) => seen,
            };
        if seen & TAG == WAITING {
            match self
                .state
                .compare_exchange(seen, FULL, Ordering::AcqRel, Ordering::Acquire)
            {
                // SAFETY: our CAS took the word out of the cell, and the
                // toucher's AcqRel CAS that put it there published the
                // record.
                Ok(_) => return Ok(Some(unsafe { Suspension::from_word(seen) })),
                // Only a poison pass takes a cell out of WAITING
                // besides its writer.
                Err(now) => seen = now,
            }
        }
        assert!(seen & TAG == POISONED, "future cell written twice");
        // SAFETY: written above and never published — FULL was not
        // reached, so no reader can be looking at it.
        unsafe { (*self.value.get()).assume_init_drop() };
        Err(self.poison_ctx(seen))
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let word = *self.state.get_mut();
        match word & TAG {
            // SAFETY: FULL ⇔ the value is initialised; dropped once.
            FULL => unsafe { self.value.get_mut().assume_init_drop() },
            // SAFETY: the poison pass stored `Arc::into_raw` here and
            // nothing else releases it.
            POISONED => drop(unsafe { Arc::from_raw((word & !TAG) as *const PoisonInfo) }),
            // A WAITING cell cannot be dropped: its suspension record
            // holds an `Arc` to it.
            tag => debug_assert_eq!(tag, EMPTY),
        }
    }
}

impl<T: Send> PoisonTarget for Inner<T> {
    fn poison(&self, ctx: &Arc<PoisonInfo>) -> PoisonOutcome {
        let seen = self.state.load(Ordering::Acquire);
        if seen & TAG != WAITING {
            // Nothing suspended here (the suspension was fulfilled
            // after it was registered).
            return PoisonOutcome::none();
        }
        let word = Arc::into_raw(Arc::clone(ctx)) as usize | POISONED;
        match self
            .state
            .compare_exchange(seen, word, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // SAFETY: our CAS took the WAITING word out, so we own
                // its record exactly like a writer would.
                let susp = unsafe { Suspension::from_word(seen) };
                // Dropping the record releases the continuation's
                // captures and breaks the record→cell Arc cycle — the
                // "leak on abort" this state exists to prevent. Its
                // destructor must not wedge the cleanup.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(susp)));
                PoisonOutcome {
                    stuck: Some(StuckCell {
                        addr: self as *const Self as usize,
                        payload_type: std::any::type_name::<T>(),
                    }),
                    dropped: 1,
                }
            }
            Err(_) => {
                // A (cross-session) write won the race: withdraw the
                // context again.
                // SAFETY: `word` was never published; this releases the
                // clone `into_raw` leaked above.
                drop(unsafe { Arc::from_raw((word & !TAG) as *const PoisonInfo) });
                PoisonOutcome::none()
            }
        }
    }
}

// SAFETY: `state` is atomic and arbitrates every other access: `value` is
// written exactly once before the release transition to FULL and only
// read after an acquire load of FULL (or by the writer itself); a pointer
// in the state word is dereferenced only by the thread whose CAS removed
// it (suspension records) or is immutable until `Drop` (poison context).
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

/// The write pointer: consumed by [`FutWrite::fulfill`], so a cell is
/// written at most once by construction.
pub struct FutWrite<T> {
    inner: Arc<Inner<T>>,
}

/// The read pointer. Cloneable (result structures hold them); the paper's
/// linearity restriction — at most one *touch* — is asserted dynamically.
pub struct FutRead<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for FutRead<T> {
    fn clone(&self) -> Self {
        FutRead {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Create an empty future cell.
pub fn cell<T>() -> (FutWrite<T>, FutRead<T>) {
    let inner = Arc::new(Inner {
        state: AtomicUsize::new(EMPTY),
        value: UnsafeCell::new(MaybeUninit::uninit()),
    });
    (
        FutWrite {
            inner: Arc::clone(&inner),
        },
        FutRead { inner },
    )
}

/// Create an already-written cell (input construction).
pub fn ready<T>(value: T) -> FutRead<T> {
    FutRead {
        inner: Arc::new(Inner {
            state: AtomicUsize::new(FULL),
            value: UnsafeCell::new(MaybeUninit::new(value)),
        }),
    }
}

impl<T: Clone + Send + 'static> FutWrite<T> {
    /// Write the value; if a continuation is suspended in the cell, hand it
    /// a clone of the value as a new task on `worker`'s queue.
    pub fn fulfill(self, worker: &Worker, value: T) {
        crate::chaos::maybe_delay();
        // A write moves the session's progress epoch even when it resumes
        // no waiter: a long task fulfilling in a loop reads as alive.
        worker.session().events.record(
            worker.index(),
            TraceKind::Fulfill,
            Arc::as_ptr(&self.inner) as *const () as u64,
            1,
        );
        match self.inner.write(value) {
            Ok(None) => {}
            Ok(Some(mut susp)) => {
                // Waiter hand-off: the record allocated at touch time is
                // enqueued as-is — no re-boxing, no value capture. The
                // waiter reads the value from the cell when it runs; our
                // value write happens-before that read through the deque
                // push/steal pair that delivers the task. Its liveness
                // unit was added by `note_suspend` on *its* session
                // (usually ours; the toucher's under cross-session
                // sharing), so this is a transfer, not a spawn.
                let session = susp.take_session();
                worker.resume_transferred(SessionTask {
                    session,
                    task: susp.into_task(),
                });
            }
            Err(info) => panic!(
                "fulfill of a poisoned future cell (session {}): {info}",
                worker.session_id(),
            ),
        }
    }

    /// Write the value from outside the runtime (input construction only:
    /// panics if a continuation is already suspended, since there is no
    /// worker to hand it to).
    pub fn fulfill_outside(self, value: T) {
        match self.inner.write(value) {
            Ok(None) => {}
            Ok(Some(_)) => panic!("fulfill_outside with a suspended waiter"),
            Err(info) => panic!("fulfill_outside of a poisoned future cell: {info}"),
        }
    }
}

impl<T: Clone + Send + 'static> FutRead<T> {
    /// Touch the cell: run `cont` with the value — immediately (possibly
    /// inline) if written, or suspended in the cell until the write
    /// arrives. At most one touch per cell (the §4 linearity restriction);
    /// a second touch panics.
    pub fn touch(&self, worker: &Worker, cont: impl FnOnce(T, &Worker) + Send + 'static) {
        crate::chaos::maybe_delay();
        let seen = self.inner.state.load(Ordering::Acquire);
        match seen & TAG {
            FULL => {
                // SAFETY: FULL observed with acquire.
                let v = unsafe { self.inner.value() }.clone();
                worker.run_inline_or_spawn(v, cont);
            }
            EMPTY => self.suspend(worker, cont),
            WAITING => panic!(
                "non-linear program: second touch of a future cell \
                 (state=WAITING, session={}, cell={:p})",
                worker.session_id(),
                Arc::as_ptr(&self.inner),
            ),
            _ => panic!(
                "touch of a poisoned future cell (session {}): {}",
                worker.session_id(),
                self.inner.poison_ctx(seen)
            ),
        }
    }

    /// The touch found the cell unwritten: leave `cont` in it.
    fn suspend(&self, worker: &Worker, cont: impl FnOnce(T, &Worker) + Send + 'static) {
        // The record's continuation captures the cell and clones the
        // value out when it eventually runs.
        let cell = Arc::clone(&self.inner);
        let susp = Suspension::new(worker.clone_session(), move |wk: &Worker| {
            // SAFETY: this closure only runs after FULL is established —
            // published by the writer's CAS before it took the record,
            // or observed below on the failed CAS.
            let v = unsafe { cell.value() }.clone();
            cont(v, wk);
        });
        // Account the suspended unit before publishing it: from the CAS
        // on, a writer may resume the waiter at any moment.
        let session = worker.session();
        session.note_suspend();
        let word = susp.into_word();
        match self
            .inner
            .state
            .compare_exchange(EMPTY, word, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // Suspended; the writer will reactivate us. Register
                // with the session so an abort of it can poison the cell
                // and reclaim the continuation (see pool.rs). The weak
                // ref dies with the cell, so completed cells cost
                // nothing.
                session.register_suspend(Arc::downgrade(&self.inner) as _);
                session.events.record(
                    worker.index(),
                    TraceKind::Suspend,
                    Arc::as_ptr(&self.inner) as *const () as u64,
                    1,
                );
            }
            Err(seen) => {
                session.unnote_suspend();
                // SAFETY: the CAS failed, so the word was never shared.
                let susp = unsafe { Suspension::from_word(word) };
                match seen & TAG {
                    // The write raced us: run the continuation now (the
                    // failed CAS's acquire load makes the value visible
                    // to its clone).
                    FULL => worker.run_task_inline_or_spawn(susp.into_task()),
                    // Another toucher (or the poison pass behind it) got
                    // there first.
                    tag => panic!(
                        "non-linear program: concurrent second touch of a future cell \
                         (state={}, session={}, cell={:p})",
                        if tag == WAITING {
                            "WAITING"
                        } else {
                            "POISONED"
                        },
                        worker.session_id(),
                        Arc::as_ptr(&self.inner),
                    ),
                }
            }
        }
    }

    /// Is the cell written?
    pub fn is_written(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) == FULL
    }

    /// Clone the value out without a continuation, if written. Safe at any
    /// time; intended for inspecting finished structures after
    /// [`crate::Runtime::run`] returns.
    pub fn peek(&self) -> Option<T> {
        // SAFETY: FULL observed with acquire.
        self.is_written()
            .then(|| unsafe { self.inner.value() }.clone())
    }

    /// [`FutRead::peek`], panicking on an unwritten cell — with the
    /// poison context when the cell's session aborted under it.
    pub fn expect(&self) -> T {
        match self.peek() {
            Some(v) => v,
            None => match self.poison_info() {
                Some(info) => panic!("future cell not written: {info}"),
                None => panic!("future cell not written"),
            },
        }
    }

    /// The failure context stamped into this cell when its session
    /// aborted with a continuation still suspended here; `None` for
    /// healthy cells. Safe at any time, like [`FutRead::peek`].
    pub fn poison_info(&self) -> Option<PoisonInfo> {
        let seen = self.inner.state.load(Ordering::Acquire);
        (seen & TAG == POISONED).then(|| self.inner.poison_ctx(seen).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn ready_cells() {
        let r = ready(5u32);
        assert!(r.is_written());
        assert_eq!(r.peek(), Some(5));
        assert_eq!(r.expect(), 5);
    }

    #[test]
    fn empty_peek_is_none() {
        let (_w, r) = cell::<u32>();
        assert!(!r.is_written());
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn fulfill_outside_then_peek() {
        let (w, r) = cell::<String>();
        w.fulfill_outside("hi".into());
        assert_eq!(r.expect(), "hi");
    }

    #[test]
    fn value_is_dropped_exactly_once_and_only_if_written() {
        let token = Arc::new(());
        // Never written: the slot is uninitialised and must not be dropped.
        drop(cell::<Arc<()>>());
        let (w, r) = cell::<Arc<()>>();
        w.fulfill_outside(Arc::clone(&token));
        assert_eq!(Arc::strong_count(&token), 2);
        let peeked = r.peek().unwrap();
        assert_eq!(Arc::strong_count(&token), 3);
        drop(r);
        assert_eq!(Arc::strong_count(&token), 2, "the cell released its value");
        drop(peeked);
        drop(ready(Arc::clone(&token)));
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn write_before_touch_runs_inline() {
        let (w, r) = cell::<u32>();
        let (op, of) = cell::<u32>();
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            w.fulfill(wk, 10);
            r.touch(wk, move |v, wk| op.fulfill(wk, v * 2));
        });
        assert_eq!(of.expect(), 20);
    }

    #[test]
    fn touch_before_write_suspends_and_wakes() {
        let (w, r) = cell::<u32>();
        let (op, of) = cell::<u32>();
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            r.touch(wk, move |v, wk| op.fulfill(wk, v + 1));
            // The touch suspended (single worker path would otherwise
            // deadlock — quiescence counting keeps the runtime alive).
            wk.spawn(move |wk| w.fulfill(wk, 99));
        });
        assert_eq!(of.expect(), 100);
    }

    #[test]
    #[should_panic(expected = "non-linear")]
    fn second_touch_panics() {
        let (_w, r) = cell::<u32>();
        let r2 = r.clone();
        let rt = Runtime::new(1);
        rt.run(move |wk| {
            r.touch(wk, |_, _| {});
            r2.touch(wk, |_, _| {});
        });
    }

    #[test]
    fn hammer_racing_write_and_touch() {
        // Cross-thread race: producer and consumer race on many cells.
        // `spawn2` pushes its first closure, where a sibling may steal it,
        // and runs its second inline: the pushed side alternates, so both
        // the toucher and the writer get stolen mid-race.
        for round in 0..200 {
            let n = 64;
            let cells: Vec<_> = (0..n).map(|_| cell::<usize>()).collect();
            let (writes, reads): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
            let outs: Vec<_> = (0..n).map(|_| cell::<usize>()).collect();
            let (out_w, out_r): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
            let rt = Runtime::new(4);
            rt.run(move |wk| {
                for (i, ((r, w), ow)) in reads.into_iter().zip(writes).zip(out_w).enumerate() {
                    let touch = move |wk: &Worker| r.touch(wk, move |v, wk| ow.fulfill(wk, v * 3));
                    let write = move |wk: &Worker| w.fulfill(wk, i + round);
                    if i % 2 == 0 {
                        wk.spawn2(write, touch);
                    } else {
                        wk.spawn2(touch, write);
                    }
                }
            });
            for (i, o) in out_r.iter().enumerate() {
                assert_eq!(o.expect(), (i + round) * 3);
            }
        }
    }
}
