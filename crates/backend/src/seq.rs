//! The sequential oracle engine: every primitive is the cheapest thing that
//! preserves the semantics.
//!
//! [`Seq`] executes a futures program on one thread in *creation order* —
//! [`PipeBackend::fork`] runs the body inline to completion, exactly like
//! the simulator's eager evaluation but with no clocks, no counters, and no
//! trace. A cell is therefore always written by the time it is touched (for
//! the class of programs in the paper, which only touch previously created
//! cells); touching an unwritten cell panics, because it means the program
//! is outside that class.
//!
//! The oracle is what the other two engines are checked against: same
//! values, same tree shapes, no pipelining anywhere.

use std::sync::{Arc, OnceLock};

use crate::{PipeBackend, Val};

/// A future cell of the sequential engine: a write-once slot. Serves as
/// both the read and the write pointer ([`Seq`] enforces single assignment
/// dynamically; the other engines enforce it by consuming a distinct write
/// pointer).
pub struct SeqFut<T>(Arc<OnceLock<T>>);

impl<T> Clone for SeqFut<T> {
    fn clone(&self) -> Self {
        SeqFut(Arc::clone(&self.0))
    }
}

impl<T: Clone> SeqFut<T> {
    /// Clone the value out, if written.
    pub fn peek(&self) -> Option<T> {
        self.0.get().cloned()
    }

    /// [`SeqFut::peek`], panicking on an unwritten cell.
    pub fn expect(&self) -> T {
        self.peek().expect("future cell not written")
    }
}

/// The sequential oracle engine. A unit type: it carries no state at all.
#[derive(Clone, Copy, Default)]
pub struct Seq;

impl Seq {
    /// Run a program on the sequential engine.
    pub fn run<R>(f: impl FnOnce(&Seq) -> R) -> R {
        f(&Seq)
    }

    /// Run a program on a dedicated thread with a large stack.
    ///
    /// Inline eager evaluation nests one native frame per fork on the
    /// critical path, and list pipelines (Figure 1, quicksort) nest Θ(n)
    /// deep — same reason `pf_core::run_with_big_stack` exists.
    pub fn run_with_stack<R: Send>(stack: usize, f: impl FnOnce(&Seq) -> R + Send) -> R {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(stack)
                .name("pf-seq".into())
                .spawn_scoped(scope, || f(&Seq))
                .expect("failed to spawn sequential-engine thread")
                .join()
                .expect("sequential-engine thread panicked")
        })
    }
}

impl PipeBackend for Seq {
    type Fut<T: Send + Sync + 'static> = SeqFut<T>;
    type Wr<T: Send + Sync + 'static> = SeqFut<T>;

    fn cell<T: Val>(&self) -> (SeqFut<T>, SeqFut<T>) {
        let c = SeqFut(Arc::new(OnceLock::new()));
        (c.clone(), c)
    }

    fn input<T: Val>(&self, value: T) -> SeqFut<T> {
        SeqFut(Arc::new(OnceLock::from(value)))
    }

    fn fulfill<T: Val>(&self, w: SeqFut<T>, value: T) {
        if w.0.set(value).is_err() {
            panic!("future cell written twice");
        }
    }

    fn touch<T: Val>(&self, f: &SeqFut<T>, k: impl FnOnce(&Self, T) + Send + 'static) {
        let v =
            f.0.get()
                .expect(
                    "future cell touched before it was written: the program is \
                 not evaluable in eager (creation) order",
                )
                .clone();
        k(self, v);
    }

    fn fork(&self, body: impl FnOnce(&Self) + Send + 'static) {
        body(self);
    }

    fn peek<T: Val>(f: &SeqFut<T>) -> Option<T> {
        f.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip() {
        Seq::run(|bk| {
            let (w, r) = bk.cell::<u64>();
            bk.fulfill(w, 41);
            let (ow, or) = bk.cell::<u64>();
            bk.touch(&r, move |bk, v| bk.fulfill(ow, v + 1));
            assert_eq!(or.expect(), 42);
        });
    }

    #[test]
    fn fork_runs_inline_in_creation_order() {
        Seq::run(|bk| {
            let (w, r) = bk.cell::<u32>();
            bk.fork(move |bk| bk.fulfill(w, 7));
            // The fork body already ran: creation-order evaluation.
            assert_eq!(r.peek(), Some(7));
        });
    }

    #[test]
    fn fork2_runs_both_in_order() {
        Seq::run(|bk| {
            let (wa, ra) = bk.cell::<u32>();
            let (wb, rb) = bk.cell::<u32>();
            bk.fork2(move |bk| bk.fulfill(wa, 1), move |bk| bk.fulfill(wb, 2));
            assert_eq!((ra.expect(), rb.expect()), (1, 2));
        });
    }

    #[test]
    fn ready_and_peek() {
        Seq::run(|bk| {
            let f = bk.ready("hi".to_string());
            assert_eq!(Seq::peek(&f), Some("hi".to_string()));
        });
    }

    #[test]
    fn cost_hooks_are_noops_and_strict_is_inline() {
        Seq::run(|bk| {
            bk.tick(1_000_000);
            bk.flat(1_000_000);
            let (w, r) = bk.cell::<u8>();
            bk.strict(|bk| bk.fulfill(w, 3));
            assert_eq!(r.expect(), 3);
        });
    }

    #[test]
    #[should_panic(expected = "touched before it was written")]
    fn touch_before_write_panics() {
        Seq::run(|bk| {
            let (_w, r) = bk.cell::<u32>();
            bk.touch(&r, |_, _| {});
        });
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_panics() {
        Seq::run(|bk| {
            let (w, r) = bk.cell::<u32>();
            bk.fulfill(w, 1);
            bk.fulfill(r, 2); // read pointer doubles as a write handle here
        });
    }

    #[test]
    fn big_stack_runner_returns_value() {
        let v = Seq::run_with_stack(16 << 20, |bk| {
            let (w, r) = bk.cell::<u64>();
            bk.fulfill(w, 9);
            r.expect()
        });
        assert_eq!(v, 9);
    }
}
