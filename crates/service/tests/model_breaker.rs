//! Bounded-exhaustive model test of the circuit breaker and retry
//! backoff — the clock-free halves of the PR-10 self-healing layer.
//!
//! The breaker is a pure state machine over a caller-supplied virtual
//! clock, so we can drive it through *every* event sequence up to a
//! bounded depth (ticks, healthy windows, degraded windows — 3^8
//! sequences per config) and check each transition against the
//! documented spec. No real time, no threads: every assertion is
//! deterministic, the same style as `pf-check`'s schedule-exhaustive
//! runtime models.

use std::time::Duration;

use pf_service::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};

const TICK: Duration = Duration::from_millis(10);

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Advance the virtual clock one tick.
    Tick,
    /// Gate + run one window that ends healthy (`false`) or degraded
    /// (`true`); a shed window skips the run, matching the service.
    Window(bool),
}

/// Drive one breaker through `seq`, checking every step against the
/// documented transition relation. Returns the set of state
/// discriminants visited (for non-vacuity checks).
fn run_seq(cfg: BreakerConfig, seq: &[Ev]) -> [bool; 3] {
    let mut b = CircuitBreaker::new(cfg);
    let mut now = Duration::ZERO;
    let mut visited = [false; 3];
    let note = |s: BreakerState, v: &mut [bool; 3]| match s {
        BreakerState::Closed { .. } => v[0] = true,
        BreakerState::Open { .. } => v[1] = true,
        BreakerState::HalfOpen { .. } => v[2] = true,
    };
    note(b.state(), &mut visited);
    for ev in seq {
        match *ev {
            Ev::Tick => now += TICK,
            Ev::Window(degraded) => {
                let before = b.state();
                let admitted = b.admit(now);
                // Spec: only a still-cooling open breaker sheds; an
                // expired one flips to a fresh half-open probe in the
                // same gate call.
                match before {
                    BreakerState::Open { until } => {
                        assert_eq!(admitted, now >= until, "admit vs until at {now:?}");
                        if admitted {
                            assert_eq!(b.state(), BreakerState::HalfOpen { healthy: 0 });
                        } else {
                            assert_eq!(b.state(), before, "shedding must not change state");
                        }
                    }
                    _ => assert!(admitted, "closed/half-open must always admit"),
                }
                if !admitted {
                    continue;
                }
                let pre = b.state();
                b.on_window(degraded, now);
                let post = b.state();
                let open = BreakerState::Open {
                    until: now + cfg.open_for,
                };
                let want = match (pre, degraded) {
                    // Disabled: the machine is inert.
                    _ if cfg.threshold == 0 => pre,
                    (BreakerState::Closed { consecutive }, true) => {
                        if consecutive + 1 >= cfg.threshold {
                            open
                        } else {
                            BreakerState::Closed {
                                consecutive: consecutive + 1,
                            }
                        }
                    }
                    (BreakerState::Closed { .. }, false) => BreakerState::Closed { consecutive: 0 },
                    (BreakerState::HalfOpen { .. }, true) => open,
                    (BreakerState::HalfOpen { healthy }, false) => {
                        if healthy + 1 >= cfg.probes.max(1) {
                            BreakerState::Closed { consecutive: 0 }
                        } else {
                            BreakerState::HalfOpen {
                                healthy: healthy + 1,
                            }
                        }
                    }
                    (BreakerState::Open { .. }, _) => {
                        unreachable!("admit already flipped an expired open breaker")
                    }
                };
                assert_eq!(post, want, "{pre:?}, degraded {degraded}, at {now:?}");
                note(post, &mut visited);
            }
        }
    }
    visited
}

/// Every event sequence of length `depth` over {Tick, Healthy,
/// Degraded}, checked against the spec, for a grid of configs.
#[test]
fn exhaustive_bounded_sequences_match_the_spec() {
    const DEPTH: u32 = 8;
    let alphabet = [Ev::Tick, Ev::Window(false), Ev::Window(true)];
    let mut any_open = false;
    for threshold in [0u32, 1, 2, 3] {
        for open_ticks in [0u32, 1, 3] {
            for probes in [1u32, 2] {
                let cfg = BreakerConfig {
                    threshold,
                    open_for: TICK * open_ticks,
                    probes,
                };
                for code in 0..3u64.pow(DEPTH) {
                    let mut c = code;
                    let seq: Vec<Ev> = (0..DEPTH)
                        .map(|_| {
                            let ev = alphabet[(c % 3) as usize];
                            c /= 3;
                            ev
                        })
                        .collect();
                    let visited = run_seq(cfg, &seq);
                    any_open |= visited[1];
                }
            }
        }
    }
    // Non-vacuity: the exploration actually reached the open state.
    assert!(any_open, "no sequence ever opened a breaker");
}

/// The canonical healing cycle, spelled out: trip, shed, cool down,
/// probe, close.
#[test]
fn full_cycle_closed_open_halfopen_closed() {
    let cfg = BreakerConfig {
        threshold: 2,
        open_for: TICK * 3,
        probes: 2,
    };
    let mut b = CircuitBreaker::new(cfg);
    let mut now = Duration::ZERO;

    // Two consecutive degraded windows trip it; a healthy one in
    // between resets the count.
    assert!(b.admit(now));
    b.on_window(true, now);
    assert!(b.admit(now));
    b.on_window(false, now);
    assert_eq!(b.state(), BreakerState::Closed { consecutive: 0 });
    for _ in 0..2 {
        assert!(b.admit(now));
        b.on_window(true, now);
    }
    assert_eq!(b.state(), BreakerState::Open { until: TICK * 3 });

    // Cooling: sheds until the virtual clock reaches `until`.
    for _ in 0..3 {
        assert!(!b.admit(now), "must shed while cooling at {now:?}");
        now += TICK;
    }
    // Probe window admitted; first healthy probe is not enough
    // (probes = 2), the second closes it.
    assert!(b.admit(now));
    assert_eq!(b.state(), BreakerState::HalfOpen { healthy: 0 });
    b.on_window(false, now);
    assert_eq!(b.state(), BreakerState::HalfOpen { healthy: 1 });
    assert!(b.admit(now));
    b.on_window(false, now);
    assert_eq!(b.state(), BreakerState::Closed { consecutive: 0 });

    // And a degraded probe would have gone straight back to open.
    for _ in 0..2 {
        assert!(b.admit(now));
        b.on_window(true, now);
    }
    now += TICK * 3;
    assert!(b.admit(now));
    b.on_window(true, now);
    assert_eq!(
        b.state(),
        BreakerState::Open {
            until: now + TICK * 3
        }
    );
}

/// Retry backoff: deterministic per (seed, shard), exponential to the
/// cap, never below half the nominal delay, never above it.
#[test]
fn retry_backoff_is_deterministic_bounded_and_exponential() {
    let policy = RetryPolicy {
        attempts: 8,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        seed: 0xDECAF,
    };

    // Same shard ⇒ identical delay sequence (replayable runs).
    let (mut a, mut b) = (policy.stream(3), policy.stream(3));
    let seq_a: Vec<Duration> = (0..8).map(|n| policy.delay(n, &mut a)).collect();
    let seq_b: Vec<Duration> = (0..8).map(|n| policy.delay(n, &mut b)).collect();
    assert_eq!(seq_a, seq_b);

    // Different shards ⇒ different jitter streams.
    let (mut c, mut d) = (policy.stream(0), policy.stream(1));
    let seq_c: Vec<Duration> = (0..8).map(|n| policy.delay(n, &mut c)).collect();
    let seq_d: Vec<Duration> = (0..8).map(|n| policy.delay(n, &mut d)).collect();
    assert_ne!(seq_c, seq_d, "shard streams must decorrelate");

    // Bounds: delay n ∈ [nominal/2, nominal], nominal = min(base·2ⁿ, cap).
    for (n, &got) in seq_a.iter().enumerate() {
        let nominal = (policy.base * 2u32.pow(n as u32)).min(policy.cap);
        assert!(
            got >= nominal / 2,
            "attempt {n}: {got:?} < {:?}",
            nominal / 2
        );
        assert!(got <= nominal, "attempt {n}: {got:?} > {nominal:?}");
    }
    // The tail is capped, not still growing.
    assert!(seq_a[7] <= policy.cap);

    // Zero-jitter degenerate policy (base == cap, span may be 0) stays
    // well-defined.
    let flat = RetryPolicy {
        base: Duration::from_millis(4),
        cap: Duration::from_millis(4),
        ..policy
    };
    let mut s = flat.stream(0);
    for n in 0..4 {
        let d = flat.delay(n, &mut s);
        assert!(d >= Duration::from_millis(2) && d <= Duration::from_millis(4));
    }
}
