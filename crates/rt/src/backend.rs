//! [`PipeBackend`] implementation for the real runtime: the five portable
//! primitives mapped onto the §4 work-stealing engine.
//!
//! Monomorphization makes generic CPS algorithms compile to exactly the
//! hand-written runtime code — every mapping below is a direct delegation,
//! with no wrapper state and no extra allocation:
//!
//! * `cell` → [`cell()`](crate::cell::cell) (one `Arc` allocation, same as
//!   before);
//! * `input` → [`ready()`](crate::cell::ready) (one allocation, born
//!   written: no write-pointer, no CAS — what input construction hands
//!   its operands over in, and what a pipelined step wraps a directly held
//!   child in when a recursive call wants a future);
//! * `fulfill` → [`FutWrite::fulfill`] (one CAS; reactivates a
//!   suspended waiter as a task);
//! * `touch` → [`FutRead::touch`] with an argument-order adapter
//!   `|v, wk| k(wk, v)`. The adapter is inlined into the continuation
//!   before it is ever boxed, so a suspending touch still costs the single
//!   waiter allocation of the hand-CPS code;
//! * `fork` → [`Worker::spawn`], `fork2` → [`Worker::spawn2`] (one round
//!   of liveness accounting for the two-child fan-out every tree node
//!   performs);
//! * `tick` / `flat` keep their no-op defaults — the cost hooks exist for
//!   the simulator and compile to nothing here;
//! * `strict` keeps its inline default: the runtime has no clocks to
//!   re-stamp, so pipelined and strict execution coincide (the modes only
//!   differ in the cost model);
//! * `peek` → [`FutRead::peek`] (post-run inspection of finished
//!   structures).

use pf_backend::{PipeBackend, Val};

use crate::cell::{cell, ready, FutRead, FutWrite};
use crate::scheduler::Worker;

impl PipeBackend for Worker {
    type Fut<T: Send + Sync + 'static> = FutRead<T>;
    type Wr<T: Send + Sync + 'static> = FutWrite<T>;

    fn cell<T: Val>(&self) -> (FutWrite<T>, FutRead<T>) {
        cell()
    }

    fn input<T: Val>(&self, value: T) -> FutRead<T> {
        ready(value)
    }

    fn fulfill<T: Val>(&self, w: FutWrite<T>, value: T) {
        w.fulfill(self, value);
    }

    fn touch<T: Val>(&self, f: &FutRead<T>, k: impl FnOnce(&Self, T) + Send + 'static) {
        f.touch(self, move |v, wk| k(wk, v));
    }

    fn fork(&self, body: impl FnOnce(&Self) + Send + 'static) {
        self.spawn(body);
    }

    fn fork2(
        &self,
        f: impl FnOnce(&Self) + Send + 'static,
        g: impl FnOnce(&Self) + Send + 'static,
    ) {
        self.spawn2(f, g);
    }

    fn peek<T: Val>(f: &FutRead<T>) -> Option<T> {
        f.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    /// The trait-level producer/consumer roundtrip, including a suspension:
    /// the consumer touches before the producer writes.
    #[test]
    fn trait_touch_suspends_and_wakes() {
        let rt = Runtime::new(2);
        let (out_w, out_r) = cell::<u64>();
        rt.run(move |wk| {
            let (w, r) = PipeBackend::cell::<u64>(wk);
            PipeBackend::touch(wk, &r, move |wk, v| PipeBackend::fulfill(wk, out_w, v + 1));
            PipeBackend::fork(wk, move |wk| PipeBackend::fulfill(wk, w, 41));
        });
        assert_eq!(out_r.expect(), 42);
    }

    #[test]
    fn trait_fork2_runs_both() {
        let rt = Runtime::new(4);
        let (aw, ar) = cell::<u32>();
        let (bw, br) = cell::<u32>();
        rt.run(move |wk| {
            PipeBackend::fork2(
                wk,
                move |wk| PipeBackend::fulfill(wk, aw, 1),
                move |wk| PipeBackend::fulfill(wk, bw, 2),
            );
        });
        assert_eq!((ar.expect(), br.expect()), (1, 2));
    }

    #[test]
    fn trait_ready_and_cost_hooks() {
        let rt = Runtime::new(1);
        let (ow, or) = cell::<String>();
        rt.run(move |wk| {
            PipeBackend::tick(wk, 1_000); // compiles to nothing
            PipeBackend::flat(wk, 1_000);
            let f = PipeBackend::ready(wk, "hi".to_string());
            assert_eq!(<Worker as PipeBackend>::peek(&f), Some("hi".to_string()));
            PipeBackend::strict(wk, move |wk| {
                PipeBackend::touch(wk, &f, move |wk, v| PipeBackend::fulfill(wk, ow, v));
            });
        });
        assert_eq!(or.expect(), "hi");
    }
}
