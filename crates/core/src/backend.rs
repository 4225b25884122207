//! [`PipeBackend`] implementation for the simulator: the five portable
//! primitives mapped onto the virtual-clock engine.
//!
//! The mapping is exact, not approximate — a generic CPS algorithm charges
//! the same work and depth as its direct-style ancestor:
//!
//! * `cell` → [`Ctx::promise`] (free; creation is charged to the fork);
//! * `ready` → [`Ctx::filled`] (charges the write cost);
//! * `input` → [`Ctx::preload`] (free: input construction must not pollute
//!   the measured cost of the algorithm under test);
//! * `fulfill` → [`Promise::fulfill`] (charges the write, stamps the clock);
//! * `touch` → [`Ctx::touch`] then the continuation runs **inline** on the
//!   toucher's own context. In CPS the touch is always in tail position, so
//!   running `k` inline on a clock already advanced to
//!   `max(clock, write_time) + touch_cost` is precisely the direct-style
//!   data edge;
//! * `fork` → [`Ctx::fork_unit`] (the child runs eagerly, inline, on a
//!   child clock — `fork2` keeps the default two-fork expansion because two
//!   fork actions is exactly what the simulator's tree code has always
//!   charged);
//! * `GRAIN` is 0 — the simulator never takes an algorithm's plain
//!   below-grain path, so work and depth stay those of the paper's DAG;
//! * `tick` / `flat` → the inherent cost hooks; `strict` →
//!   [`Ctx::call_strict`]; `peek` → [`Fut::try_get`] (free post-run
//!   inspection).

use pf_backend::{PipeBackend, Val};

use crate::ctx::Ctx;
use crate::fut::{Fut, Promise};

impl PipeBackend for Ctx {
    type Fut<T: Send + Sync + 'static> = Fut<T>;
    type Wr<T: Send + Sync + 'static> = Promise<T>;

    /// Never cut: the cost model charges the paper's DAG action for action.
    const GRAIN: u64 = 0;

    fn cell<T: Val>(&self) -> (Promise<T>, Fut<T>) {
        self.promise()
    }

    fn ready<T: Val>(&self, value: T) -> Fut<T> {
        self.filled(value)
    }

    fn input<T: Val>(&self, value: T) -> Fut<T> {
        self.preload(value)
    }

    fn fulfill<T: Val>(&self, w: Promise<T>, value: T) {
        w.fulfill(self, value);
    }

    fn touch<T: Val>(&self, f: &Fut<T>, k: impl FnOnce(&Self, T) + Send + 'static) {
        let v = Ctx::touch(self, f);
        k(self, v);
    }

    fn fork(&self, body: impl FnOnce(&Self) + Send + 'static) {
        self.fork_unit(body);
    }

    fn tick(&self, n: u64) {
        Ctx::tick(self, n);
    }

    fn flat(&self, n: u64) {
        Ctx::flat(self, n);
    }

    fn strict(&self, body: impl FnOnce(&Self)) {
        self.call_strict(body);
    }

    fn peek<T: Val>(f: &Fut<T>) -> Option<T> {
        f.try_get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Sim;

    /// The same trait-level program as `pf_backend::seq` runs, here charged
    /// against the clock: the generic surface must reproduce the exact cost
    /// algebra of the inherent API.
    #[test]
    fn trait_touch_matches_inherent_costs() {
        let (_, generic) = Sim::new().run(|ctx| {
            let (w, f) = PipeBackend::cell::<u32>(ctx);
            PipeBackend::fork(ctx, move |c| {
                PipeBackend::tick(c, 3);
                PipeBackend::fulfill(c, w, 7);
            });
            PipeBackend::touch(ctx, &f, |c, v| {
                assert_eq!(v, 7);
                assert_eq!(c.now(), 6); // max(1, 5) + 1, as in the inherent test
            });
        });
        let (_, inherent) = Sim::new().run(|ctx| {
            let f = ctx.fork(|c| {
                c.tick(3);
                7u32
            });
            ctx.touch(&f);
        });
        assert_eq!(generic, inherent, "CPS and direct style must cost the same");
    }

    #[test]
    fn trait_ready_charges_a_write() {
        let (_, r) = Sim::new().run(|ctx| {
            let f = PipeBackend::ready(ctx, 1u8);
            assert_eq!(f.time(), 1);
        });
        assert_eq!(r.writes, 1);
        assert_eq!(r.work, 1);
    }

    #[test]
    fn trait_strict_restamps() {
        let (_, _r) = Sim::new().run(|ctx| {
            let (w, f) = PipeBackend::cell::<()>(ctx);
            PipeBackend::strict(ctx, |ctx| {
                PipeBackend::fork(ctx, move |c| {
                    PipeBackend::tick(c, 9);
                    PipeBackend::fulfill(c, w, ());
                });
            });
            assert_eq!(f.time(), ctx.now(), "strict defers visibility to call end");
        });
    }

    #[test]
    fn trait_input_is_free() {
        let (_, r) = Sim::new().run(|ctx| {
            let f = PipeBackend::input(ctx, 5u64);
            assert_eq!(f.time(), 0);
        });
        assert_eq!(r.work, 0, "input construction must be free");
        assert_eq!(r.writes, 0);
    }

    #[test]
    fn trait_peek_is_free() {
        let (_, r) = Sim::new().run(|ctx| {
            let f = ctx.preload(5u64);
            assert_eq!(<Ctx as PipeBackend>::peek(&f), Some(5));
        });
        assert_eq!(r.work, 0);
    }
}
