//! Mutex-based future cell: the straightforward implementation used as the
//! ablation baseline against the lock-free cell (experiment E15). Same
//! semantics and API shape as [`mod@crate::cell`], but every operation takes a
//! `parking_lot::Mutex`, and the waiter list is unbounded — so this variant
//! also supports **non-linear** programs (multiple touches per cell), like
//! the fetch-and-add based CRCW implementation the paper cites.

use std::sync::Arc;

use crate::sync::Mutex;

use crate::error::{PoisonInfo, PoisonOutcome, PoisonTarget, StuckCell};
use crate::pool::{SessionSlot, SessionTask};
use crate::scheduler::Worker;
use crate::task::Task;

/// A suspended continuation, pre-bound to its cell: it locks the cell and
/// clones the value out when it runs (one allocation per suspension, same
/// hand-off shape as the lock-free cell).
type Waiter = Box<dyn FnOnce(&Worker) + Send>;

enum State<T> {
    /// Unwritten; each suspended waiter carries the index of the worker
    /// whose touch suspended it (the mailbox resume target) and the slot
    /// of its owning session (its accounting/abort identity — waiters of
    /// several concurrent sessions can share one cell).
    Empty(Vec<(usize, Arc<SessionSlot>, Waiter)>),
    Full(T),
    /// A session aborted with waiters suspended here and no other
    /// session's waiters remained; same failure model as the lock-free
    /// cell — see `cell.rs` and DESIGN.md.
    Poisoned(Arc<PoisonInfo>),
}

struct Inner<T> {
    state: Mutex<State<T>>,
}

impl<T: Send> PoisonTarget for Inner<T> {
    fn poison(&self, ctx: &Arc<PoisonInfo>) -> PoisonOutcome {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match &mut *g {
            State::Empty(ws) if ws.iter().any(|(_, s, _)| s.id == ctx.session) => {
                // Drop only the aborting session's waiters. Survivors of
                // *other* sessions keep the cell alive and unpoisoned —
                // their write can still arrive and wake them.
                let all = std::mem::take(ws);
                let (mine, rest): (Vec<_>, Vec<_>) =
                    all.into_iter().partition(|(_, s, _)| s.id == ctx.session);
                if rest.is_empty() {
                    *g = State::Poisoned(Arc::clone(ctx));
                } else {
                    *g = State::Empty(rest);
                }
                drop(g);
                let dropped = mine.len() as u64;
                for (_, _, w) in mine {
                    // A destructor panic must not wedge the abort cleanup.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(w)));
                }
                PoisonOutcome {
                    stuck: Some(StuckCell {
                        addr: self as *const Self as usize,
                        payload_type: std::any::type_name::<T>(),
                        kind: "mutex_cell",
                    }),
                    dropped,
                }
            }
            // No waiter of the aborting session (fulfilled after
            // registration, never touched, foreign waiters only, or
            // already poisoned): leave the state alone.
            _ => PoisonOutcome::none(),
        }
    }
}

/// Write half (consumed on write).
pub struct MxWrite<T> {
    inner: Arc<Inner<T>>,
}

/// Read half (cloneable; any number of touches).
pub struct MxRead<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for MxRead<T> {
    fn clone(&self) -> Self {
        MxRead {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Create an empty mutex-based cell.
pub fn mx_cell<T>() -> (MxWrite<T>, MxRead<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State::Empty(Vec::new())),
    });
    (
        MxWrite {
            inner: Arc::clone(&inner),
        },
        MxRead { inner },
    )
}

impl<T: Clone + Send + 'static> MxWrite<T> {
    /// Write the value and reactivate every suspended continuation.
    pub fn fulfill(self, worker: &Worker, value: T) {
        // Progress of the fulfilling session (see the lock-free cell).
        worker.note_progress();
        crate::trace::fulfill(worker, Arc::as_ptr(&self.inner) as *const () as usize);
        let waiters = {
            let mut g = self.inner.state.lock().unwrap();
            if let State::Poisoned(info) = &*g {
                let info = Arc::clone(info);
                drop(g);
                panic!(
                    "fulfill of a poisoned mutex cell (session {}): {info}",
                    worker.session_id()
                );
            }
            match std::mem::replace(&mut *g, State::Full(value)) {
                State::Empty(ws) => ws,
                State::Full(_) => unreachable!("mutex cell written twice"),
                State::Poisoned(_) => unreachable!("checked above"),
            }
        };
        // Waiter hand-off: each box was allocated at touch time and is
        // enqueued as-is (no re-boxing, no per-waiter clone here — the
        // waiter clones the value out of the cell when it runs). Each
        // waiter's liveness unit was added by `note_suspend` on its own
        // session, where it is now resumed — waiters of several
        // concurrent sessions can share this cell; placement is each
        // waiter's session's resume policy.
        for (owner, session, w) in waiters {
            worker.resume_transferred(
                SessionTask {
                    session,
                    task: Task::from_boxed(w),
                },
                owner,
            );
        }
    }
}

impl<T: Clone + Send + 'static> MxRead<T> {
    /// Touch: run `cont` with the value now or when it arrives.
    pub fn touch(&self, worker: &Worker, cont: impl FnOnce(T, &Worker) + Send + 'static) {
        let immediate = {
            let mut g = self.inner.state.lock().unwrap();
            match &mut *g {
                State::Full(v) => Some(v.clone()),
                State::Poisoned(info) => {
                    let info = Arc::clone(info);
                    drop(g);
                    panic!(
                        "touch of a poisoned mutex cell (session {}): {info}",
                        worker.session_id()
                    );
                }
                State::Empty(ws) => {
                    worker.note_suspend();
                    crate::trace::suspend(worker, Arc::as_ptr(&self.inner) as *const () as usize);
                    let session = worker.clone_session();
                    // First suspension *of this session*: register with
                    // its slot so its abort can poison the cell (one
                    // registry entry covers all of the session's waiters
                    // here; other sessions register independently).
                    if !ws.iter().any(|(_, s, _)| s.id == session.id) {
                        let weak = Arc::downgrade(&self.inner);
                        worker.register_suspend(weak);
                    }
                    let inner = Arc::clone(&self.inner);
                    ws.push((
                        worker.index(),
                        session,
                        Box::new(move |wk: &Worker| {
                            let v = match &*inner.state.lock().unwrap() {
                                State::Full(v) => v.clone(),
                                _ => unreachable!("waiter ran before write"),
                            };
                            cont(v, wk);
                        }),
                    ));
                    return;
                }
            }
        };
        if let Some(v) = immediate {
            worker.run_inline_or_spawn(v, cont);
        }
    }

    /// Clone the value out if written (post-run inspection). `None` for
    /// unwritten *and* poisoned cells.
    pub fn peek(&self) -> Option<T> {
        match &*self.inner.state.lock().unwrap() {
            State::Full(v) => Some(v.clone()),
            State::Empty(_) | State::Poisoned(_) => None,
        }
    }

    /// [`MxRead::peek`], panicking on an unwritten cell.
    pub fn expect(&self) -> T {
        self.peek().expect("mutex cell not written")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn write_then_touch() {
        let (w, r) = mx_cell::<u32>();
        let (ow, or) = mx_cell::<u32>();
        Runtime::new(2).run(move |wk| {
            w.fulfill(wk, 4);
            r.touch(wk, move |v, wk| ow.fulfill(wk, v + 1));
        });
        assert_eq!(or.expect(), 5);
    }

    #[test]
    fn touch_then_write_wakes() {
        let (w, r) = mx_cell::<u32>();
        let (ow, or) = mx_cell::<u32>();
        Runtime::new(2).run(move |wk| {
            r.touch(wk, move |v, wk| ow.fulfill(wk, v * 10));
            wk.spawn(move |wk| w.fulfill(wk, 6));
        });
        assert_eq!(or.expect(), 60);
    }

    #[test]
    fn multiple_waiters_all_wake() {
        // Non-linear: five touches on one cell.
        let (w, r) = mx_cell::<u32>();
        let outs: Vec<_> = (0..5).map(|_| mx_cell::<u32>()).collect();
        let (ows, ors): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
        Runtime::new(3).run(move |wk| {
            for ow in ows {
                let rr = r.clone();
                wk.spawn(move |wk| rr.touch(wk, move |v, wk| ow.fulfill(wk, v)));
            }
            wk.spawn(move |wk| w.fulfill(wk, 123));
        });
        for or in ors {
            assert_eq!(or.expect(), 123);
        }
    }

    #[test]
    fn racing_stress() {
        // Parent-first: both spawns are pushed, so touch and write race.
        let racing = crate::SchedPolicy {
            spawn: crate::SpawnOrder::ParentFirst,
            ..Default::default()
        };
        for i in 0..100 {
            let (w, r) = mx_cell::<usize>();
            let (ow, or) = mx_cell::<usize>();
            Runtime::with_policy(4, racing).run(move |wk| {
                wk.spawn(move |wk| r.touch(wk, move |v, wk| ow.fulfill(wk, v)));
                wk.spawn(move |wk| w.fulfill(wk, i));
            });
            assert_eq!(or.expect(), i);
        }
    }
}
