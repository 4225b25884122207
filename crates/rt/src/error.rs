//! First-class session failure: the error surface of [`Runtime::try_run`]
//! and the cancellation/poisoning machinery behind it.
//!
//! The paper's cost model has no panics; a long-running service does. This
//! module makes a failed session a *recoverable value* instead of a
//! process-wide unwind:
//!
//! * [`SessionError`] — why a session ended abnormally: a task panicked,
//!   the session was cancelled, its deadline expired, or the watchdog
//!   found it stalled (a cyclic touch, a dropped write, a wedged task).
//!   It is the abort's only record: whoever detects the fault files the
//!   finished error in the session's slot (first fault wins), the abort
//!   cleanup adds a stall's stuck cells, and its rendering is the
//!   poison context.
//! * [`CancelToken`] — a cloneable handle that cooperatively aborts the
//!   session it is registered with; [`Session`] carries it, an optional
//!   deadline and an optional stall budget into
//!   [`Runtime::try_run_session`].
//! * [`PoisonInfo`] — the context stamped into every future cell whose
//!   continuation was still suspended when its session aborted (the
//!   session id and the error's rendering). A
//!   straggler touch of a poisoned cell fails fast with the *originating*
//!   failure instead of deadlocking on a value that will never arrive.
//!
//! [`Runtime::try_run`]: crate::Runtime::try_run
//! [`Runtime::try_run_session`]: crate::Runtime::try_run_session

use std::any::Any;
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Mutex;

use crate::pool::SessionSlot;

/// Why a session ended abnormally. Returned by
/// [`Runtime::try_run`](crate::Runtime::try_run); every variant leaves the
/// pool reusable — queued tasks were drained, suspended continuations were
/// dropped, and their cells poisoned.
pub enum SessionError {
    /// A task panicked. The abort rendezvous drained the session and this
    /// carries the original panic payload (first panic wins).
    Panicked {
        /// Id of the aborted session.
        session: u64,
        /// The original panic payload, as `catch_unwind` caught it.
        payload: Box<dyn Any + Send>,
    },
    /// The session's [`CancelToken`] fired.
    Cancelled {
        /// Id of the cancelled session.
        session: u64,
    },
    /// The session's deadline expired before quiescence.
    DeadlineExceeded {
        /// Id of the aborted session.
        session: u64,
        /// The deadline that was set.
        deadline: Duration,
    },
    /// The quiescence watchdog found the session stalled: live units
    /// remain, but the session's progress epoch stayed frozen for its
    /// stall budget, however busy or idle the rest of the pool was — a
    /// cyclic touch chain, a dropped write, or (under an explicit
    /// [`Session::stall_budget`]) a task wedged in its body. Without an
    /// explicit budget, a session whose remaining units are all suspended
    /// is declared after 1 s. The report lists the cells it poisoned.
    Stalled {
        /// Id of the aborted session.
        session: u64,
        /// What was stuck: liveness count and the poisoned cells.
        report: StallReport,
    },
}

/// Diagnostic payload of [`SessionError::Stalled`].
#[derive(Debug, Clone, Default)]
pub struct StallReport {
    /// Id of the stalled session (same as the error's `session` field,
    /// repeated here so the report is self-contained when logged alone).
    pub session: u64,
    /// Value of the live-closure counter at detection time (number of
    /// continuations that were queued, running, or suspended — without
    /// an explicit [`Session::stall_budget`] all of them are suspended;
    /// a budget also catches a *running* wedge, where some are not).
    pub live: usize,
    /// The session's last progress epoch — the value that froze.
    pub epoch: u64,
    /// Wall-clock length of the freeze at detection time: at least the
    /// session's stall budget.
    pub frozen_for: Duration,
    /// The cells whose suspended continuations were drained and dropped at
    /// the abort rendezvous.
    pub stuck: Vec<StuckCell>,
}

/// One cell that still held a suspended continuation when its session
/// aborted.
#[derive(Debug, Clone)]
pub struct StuckCell {
    /// Address of the cell's shared state (stable for the cell's lifetime;
    /// correlate with logs or a debugger).
    pub addr: usize,
    /// `type_name` of the cell's payload type.
    pub payload_type: &'static str,
}

impl fmt::Display for StuckCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell<{}>@{:#x}", self.payload_type, self.addr)
    }
}

/// Best-effort human-readable rendering of a panic payload (`&str` and
/// `String` payloads — i.e. every `panic!` with a message — are shown
/// verbatim).
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

impl SessionError {
    /// Id of the session this error aborted.
    pub fn session(&self) -> u64 {
        match self {
            SessionError::Panicked { session, .. }
            | SessionError::Cancelled { session }
            | SessionError::DeadlineExceeded { session, .. }
            | SessionError::Stalled { session, .. } => *session,
        }
    }

    /// The panic message, when this is [`SessionError::Panicked`] with a
    /// string payload.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            SessionError::Panicked { payload, .. } => Some(panic_message(payload.as_ref())),
            _ => None,
        }
    }

    /// Re-raise the failure on the calling thread:
    /// [`std::panic::resume_unwind`] with the original payload for
    /// [`SessionError::Panicked`], a plain `panic!` describing the error
    /// otherwise. This is how [`Runtime::run`](crate::Runtime::run) keeps
    /// its propagate-the-panic contract on top of `try_run`.
    pub fn resume(self) -> ! {
        match self {
            SessionError::Panicked { payload, .. } => std::panic::resume_unwind(payload),
            other => panic!("{other}"),
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Panicked { session, payload } => write!(
                f,
                "session {session} panicked: {}",
                panic_message(payload.as_ref())
            ),
            SessionError::Cancelled { session } => write!(f, "session {session} cancelled"),
            SessionError::DeadlineExceeded { session, deadline } => {
                write!(f, "session {session} exceeded its deadline of {deadline:?}")
            }
            SessionError::Stalled { session, report } => {
                write!(
                    f,
                    "session {session} stalled: {} live unit(s), progress epoch {} \
                     frozen for ~{:?}",
                    report.live, report.epoch, report.frozen_for
                )?;
                // Empty while the abort cleanup (which fills it) renders
                // this error as its poison context.
                for (i, c) in report.stuck.iter().enumerate() {
                    write!(f, "{}{c}", if i == 0 { ", stuck cells: " } else { ", " })?;
                }
                Ok(())
            }
        }
    }
}

// The payload of `Panicked` is not `Debug`, so a derived impl is
// unavailable; one canonical rendering also keeps test assertions simple.
impl fmt::Debug for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for SessionError {}

/// The failure context stamped into a future cell when its session aborted
/// while a continuation was suspended in it. Any later touch of the cell
/// panics with this context (see the cell docs); [`FutRead::poison_info`]
/// exposes it for inspection.
///
/// [`FutRead::poison_info`]: crate::FutRead::poison_info
#[derive(Debug, Clone)]
pub struct PoisonInfo {
    /// The session whose abort poisoned the cell.
    pub session: u64,
    /// Why that session aborted: its [`SessionError`], rendered.
    pub reason: String,
}

impl fmt::Display for PoisonInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "poisoned: {}", self.reason)
    }
}

/// What [`PoisonTarget::poison`] did: the stuck-cell description (when the
/// cell still held suspended continuations of the aborting session) and
/// how many of that session's waiters were dropped — the aborting client
/// retires one liveness unit per dropped waiter.
pub(crate) struct PoisonOutcome {
    pub(crate) stuck: Option<StuckCell>,
    pub(crate) dropped: u64,
}

impl PoisonOutcome {
    pub(crate) fn none() -> Self {
        PoisonOutcome {
            stuck: None,
            dropped: 0,
        }
    }
}

/// Something an abort cleanup can poison: a future cell that may hold a
/// suspended continuation. Implemented by the cell at every payload type
/// (the registry holds them type-erased); each session's slot keeps a
/// registry of `Weak` references to every cell a touch of that
/// session suspended into (see `pool.rs`).
pub(crate) trait PoisonTarget: Send + Sync {
    /// Drop any continuation of session `ctx.session` still suspended
    /// here, stamp `ctx`, and report what happened; do nothing when no
    /// such continuation remains (it was fulfilled after registration).
    /// Called only by the aborting session's client, after that session
    /// has no queued or running task left (only suspended units), so no
    /// worker can race a fulfill of *this session's* waiters;
    /// cross-session fulfills may race and are arbitrated by the cell's
    /// own synchronization.
    fn poison(&self, ctx: &Arc<PoisonInfo>) -> PoisonOutcome;
}

/// Options for one session: an optional deadline, an optional
/// [`CancelToken`], an optional stall budget
/// ([`Session::stall_budget`]) and whether it records its event timeline
/// ([`Session::trace`]). Passed to
/// [`Runtime::try_run_session`](crate::Runtime::try_run_session).
///
/// ```
/// use std::time::Duration;
/// use pf_rt::{Runtime, Session};
///
/// let rt = Runtime::new(2);
/// let stats = rt
///     .try_run_session(Session::new().deadline(Duration::from_secs(5)), |wk| {
///         wk.spawn(|_| { /* ... */ });
///     })
///     .expect("finished well inside the deadline");
/// assert_eq!(stats.spawns, 1);
/// ```
#[derive(Default, Clone)]
pub struct Session {
    pub(crate) deadline: Option<Duration>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) stall: Option<Duration>,
    pub(crate) trace: bool,
}

impl Session {
    /// A session with no deadline, no cancel token, the default stall
    /// detection and no timeline (the [`Runtime::try_run`](crate::Runtime::try_run)
    /// default).
    pub fn new() -> Self {
        Session::default()
    }

    /// Bound the session's wall-clock duration: when it expires before
    /// quiescence the session aborts with
    /// [`SessionError::DeadlineExceeded`]. Enforcement is cooperative —
    /// running tasks finish their current closure (poll
    /// [`Worker::cancelled`](crate::Worker::cancelled) inside long ones);
    /// queued and suspended continuations are dropped at the rendezvous.
    /// (Inert under the model checker, which has no clock.)
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Attach a cancel token: [`CancelToken::cancel`] aborts this session
    /// with [`SessionError::Cancelled`] from any thread.
    pub fn cancel_token(mut self, t: &CancelToken) -> Self {
        self.cancel = Some(t.clone());
        self
    }

    /// Set the session's stall-detection budget: the watchdog declares
    /// [`SessionError::Stalled`] once the session's progress epoch (one
    /// tick per scheduler event attributed to the session — exec, spawn,
    /// steal, suspend, resume, fulfill) stays frozen for `budget` while
    /// live units remain, however busy or idle the rest of the pool is.
    ///
    /// Without an explicit budget, a session whose remaining units are
    /// all *suspended* is declared after a generous 1 s default — an idle
    /// pool alone is no verdict, since the write a suspended session
    /// waits for may come from a later session. A *running* wedge — a
    /// task body spinning forever — is then left to the deadline,
    /// because a frozen epoch under a running task also describes a
    /// long, legitimate compute-only closure. Setting a budget is the
    /// caller's assertion that no legal closure of this session goes
    /// `budget` without a scheduler event, which arms the detector for
    /// running wedges too. (Inert under the model checker, which has no
    /// clock.)
    pub fn stall_budget(mut self, budget: Duration) -> Self {
        self.stall = Some(budget);
        self
    }

    /// Record the session's event timeline. When the session ends, failed
    /// or not, its [`SessionTrace`](crate::SessionTrace) goes back to the
    /// thread that ran it, for [`take_last_trace`](crate::take_last_trace).
    /// Every session counts its events; the timeline adds a clock read and
    /// a ring push to each. (Inert under the model checker, which has no
    /// clock.)
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

pub(crate) struct CancelInner {
    flag: AtomicBool,
    /// The slot of the session currently registered with this token.
    /// Registered by `try_run_session` at session start, cleared at
    /// session end; a `Weak` to the *slot* (not the pool), so a stale
    /// token holds nothing a later session could be confused with — and
    /// even a race with session end lands in the slot's own closed-abort
    /// check and no-ops.
    target: Mutex<Option<Weak<SessionSlot>>>,
}

/// A cloneable cancellation handle for one session.
///
/// Create it, attach it with [`Session::cancel_token`], hand clones to
/// whoever should be able to abort the session (a signal handler, an admin
/// endpoint, a client-disconnect watcher), and call [`CancelToken::cancel`]
/// at any time — before the session starts (it then fails fast) or while it
/// runs (it aborts at the next task boundary).
#[derive(Clone)]
pub struct CancelToken {
    pub(crate) inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                target: Mutex::new(None),
            }),
        }
    }

    /// Request cancellation of the session this token is registered with
    /// (idempotent; safe from any thread, including before the session
    /// starts). Running tasks are not preempted — they finish their current
    /// closure; everything queued or suspended is dropped at the abort
    /// rendezvous and the session returns [`SessionError::Cancelled`].
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::SeqCst);
        let target = crate::pool::lock(&self.inner.target).clone();
        if let Some(slot) = target.and_then(|w| w.upgrade()) {
            slot.request_abort(SessionError::Cancelled { session: slot.id });
        }
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::SeqCst)
    }

    /// Register this token with a live session's slot (session start).
    pub(crate) fn register(&self, slot: &Arc<SessionSlot>) {
        *crate::pool::lock(&self.inner.target) = Some(Arc::downgrade(slot));
    }

    /// Detach from the session (session end, any outcome).
    pub(crate) fn unregister(&self) {
        *crate::pool::lock(&self.inner.target) = None;
    }
}
