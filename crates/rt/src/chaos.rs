//! Deterministic fault injection for the runtime (`--cfg pf_chaos`).
//!
//! Built with `RUSTFLAGS="--cfg pf_chaos"`, this module arms three hook
//! points inside the scheduler — the same seam the `pf_rt::sync` shim
//! gives the model checker:
//!
//! * `maybe_panic` — at every task boundary (just before the task body
//!   runs, inside the worker's `catch_unwind`), modeling an application
//!   bug at an arbitrary point of the computation;
//! * `maybe_delay` — a short bounded spin at cell fulfill/touch and at
//!   the wakeup path, stretching the race windows the abort and
//!   lost-wakeup protocols must tolerate;
//! * `steal_denied` — forces `find_task` to skip a victim, modeling
//!   transient steal failure and pushing sessions through the park/unpark
//!   and watchdog paths far more often than a healthy pool would;
//! * `maybe_wedge` — parks a worker *inside* a task body (a bounded
//!   spin that also releases when the owning session aborts or the chaos
//!   config is reinstalled), modeling the mid-task wedge the progress-
//!   heartbeat stall detector exists to catch under load.
//!
//! Faults are drawn from a per-thread `splitmix64` stream derived from
//! the seed in `ChaosConfig`, so a given seed produces a reproducible
//! fault *pattern* (modulo OS scheduling). Rates are per-10 000 draws;
//! `injected_panics` counts fired panic injections so tests can assert
//! "session failed ⇔ a fault was actually injected".
//!
//! **Zero-cost when off:** without `--cfg pf_chaos` every hook compiles
//! to an empty `#[inline(always)]` function and the config API does not
//! exist, so release binaries carry no branch, no atomic, and no static
//! for any of this.
//!
//! Do not combine with `--cfg pf_check`: chaos uses process-global std
//! synchronization that the model scheduler cannot see.

#[cfg(all(pf_chaos, pf_check))]
compile_error!("pf_chaos and pf_check are mutually exclusive cfgs");

#[cfg(pf_chaos)]
mod imp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// Injection rates (per 10 000 draws) and the stream seed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ChaosConfig {
        /// Seed of the per-thread fault streams.
        pub seed: u64,
        /// Chance (per 10 000) that a task panics at its boundary.
        pub panic_per_10k: u32,
        /// Chance (per 10 000) of a bounded spin at a sync hook.
        pub delay_per_10k: u32,
        /// Length of an injected delay, in spin-loop hints.
        pub delay_spins: u32,
        /// Chance (per 10 000) that a steal attempt is denied.
        pub steal_fail_per_10k: u32,
        /// Chance (per 10 000) that a task wedges at its boundary: the
        /// worker spins inside the task body until the owning session
        /// aborts, the config is reinstalled/disarmed, or
        /// `wedge_hold_ms` elapses — whichever comes first, so a wedge
        /// can never hang a test.
        pub wedge_per_10k: u32,
        /// Upper bound of an injected wedge, in milliseconds.
        pub wedge_hold_ms: u32,
    }

    struct Global {
        cfg: Mutex<Option<ChaosConfig>>,
        /// Bumped by every `install`; threads re-read the config lazily.
        epoch: AtomicU64,
        panics: AtomicU64,
        wedges: AtomicU64,
        /// Distinguishes the per-thread streams of one seed.
        thread_seq: AtomicU64,
    }

    fn global() -> &'static Global {
        static G: OnceLock<Global> = OnceLock::new();
        G.get_or_init(|| Global {
            cfg: Mutex::new(None),
            epoch: AtomicU64::new(1),
            panics: AtomicU64::new(0),
            wedges: AtomicU64::new(0),
            thread_seq: AtomicU64::new(0),
        })
    }

    /// Install (or, with `None`, disarm) the process-wide chaos config.
    pub fn install(cfg: Option<ChaosConfig>) {
        let g = global();
        *g.cfg.lock().unwrap_or_else(|e| e.into_inner()) = cfg;
        g.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Total panic injections fired since process start.
    pub fn injected_panics() -> u64 {
        global().panics.load(Ordering::SeqCst)
    }

    /// Total wedge injections fired since process start.
    pub fn injected_wedges() -> u64 {
        global().wedges.load(Ordering::SeqCst)
    }

    #[derive(Clone, Copy)]
    struct ThreadChaos {
        epoch: u64,
        cfg: Option<ChaosConfig>,
        rng: u64,
    }

    thread_local! {
        static TL: Cell<Option<ThreadChaos>> = const { Cell::new(None) };
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Draw against `rate` per-10k from this thread's stream.
    fn roll(rate: impl Fn(&ChaosConfig) -> u32) -> Option<(ChaosConfig, bool)> {
        let g = global();
        let epoch = g.epoch.load(Ordering::SeqCst);
        TL.with(|tl| {
            let mut tc = match tl.get() {
                Some(tc) if tc.epoch == epoch => tc,
                _ => {
                    let cfg = *g.cfg.lock().unwrap_or_else(|e| e.into_inner());
                    let seq = g.thread_seq.fetch_add(1, Ordering::SeqCst);
                    let mut seed = cfg.map_or(0, |c| c.seed) ^ seq.wrapping_mul(0xA24BAED4963EE407);
                    let _ = splitmix(&mut seed);
                    ThreadChaos {
                        epoch,
                        cfg,
                        rng: seed,
                    }
                }
            };
            let out = tc.cfg.map(|cfg| {
                let r = rate(&cfg);
                let fired = r > 0 && splitmix(&mut tc.rng) % 10_000 < r as u64;
                (cfg, fired)
            });
            tl.set(Some(tc));
            out
        })
    }

    #[inline]
    pub fn maybe_panic() {
        if let Some((_, true)) = roll(|c| c.panic_per_10k) {
            global().panics.fetch_add(1, Ordering::SeqCst);
            panic!("pf-chaos: injected task panic");
        }
    }

    #[inline]
    pub fn maybe_delay() {
        if let Some((cfg, true)) = roll(|c| c.delay_per_10k) {
            for _ in 0..cfg.delay_spins {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    pub fn steal_denied() -> bool {
        matches!(roll(|c| c.steal_fail_per_10k), Some((_, true)))
    }

    #[inline]
    pub fn maybe_wedge(released: &dyn Fn() -> bool) {
        if let Some((cfg, true)) = roll(|c| c.wedge_per_10k) {
            let g = global();
            g.wedges.fetch_add(1, Ordering::SeqCst);
            let entry_epoch = g.epoch.load(Ordering::SeqCst);
            let hold = std::time::Duration::from_millis(cfg.wedge_hold_ms as u64);
            let start = std::time::Instant::now();
            // Disarmable + bounded: an abort of the owning session, a
            // config reinstall, or the hold expiry all end the wedge.
            while !released() && g.epoch.load(Ordering::SeqCst) == entry_epoch {
                if start.elapsed() >= hold {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(pf_chaos)]
pub use imp::{injected_panics, injected_wedges, install, ChaosConfig};

/// Maybe panic at a task boundary (chaos builds only; no-op otherwise).
#[inline(always)]
pub(crate) fn maybe_panic() {
    #[cfg(pf_chaos)]
    imp::maybe_panic();
}

/// Maybe spin briefly at a sync hook (chaos builds only; no-op otherwise).
#[inline(always)]
pub(crate) fn maybe_delay() {
    #[cfg(pf_chaos)]
    imp::maybe_delay();
}

/// Whether to deny this steal attempt (chaos builds only; always `false`
/// otherwise).
#[inline(always)]
pub(crate) fn steal_denied() -> bool {
    #[cfg(pf_chaos)]
    return imp::steal_denied();
    #[cfg(not(pf_chaos))]
    false
}

/// Maybe wedge inside a task body: spin until `released()` holds, the
/// chaos config changes, or the configured hold expires (chaos builds
/// only; no-op otherwise).
#[inline(always)]
pub(crate) fn maybe_wedge(released: &dyn Fn() -> bool) {
    #[cfg(pf_chaos)]
    imp::maybe_wedge(released);
    #[cfg(not(pf_chaos))]
    let _ = released;
}
