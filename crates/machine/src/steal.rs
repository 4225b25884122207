//! An **asynchronous** machine model: Blumofe–Leiserson-style work
//! stealing over the same computation-DAG traces.
//!
//! The paper's motivation for futures over hand pipelining is that the
//! hand version "forces highly synchronous code execution", which "is
//! less practical on asynchronous machines" (§1), and its cost model is
//! the one used by Blumofe & Leiserson's work-stealing results [12, 13].
//! This module closes that loop: a discrete-event simulator of `p`
//! asynchronous processors, each with a LIFO deque,
//!
//! * executing one action per tick when busy (work-first: a fork dives
//!   into the child and pushes the parent continuation);
//! * stealing from a uniformly random victim when idle, paying
//!   `steal_latency` ticks per attempt, taking the *oldest* thread;
//! * suspending touches of unwritten cells inside the cell (free), the
//!   writer pushing the waiter onto its own deque;
//! * executing flat jobs (`array_split`) as splittable ranges: a thief
//!   takes half the remaining units — the classic parallel-loop
//!   treatment.
//!
//! Unlike the synchronous §4 replayer there is no global step barrier, so
//! the measured makespan reflects steal overhead and load imbalance; the
//! work-stealing theorem's shape — `T ≈ w/p + O(d·steal_latency)` — is
//! checked by the E17 experiment.

use pf_core::{Ev, ThreadId, Trace};

/// Configuration for the asynchronous simulator.
#[derive(Debug, Clone, Copy)]
pub struct StealConfig {
    /// Number of processors.
    pub p: usize,
    /// Ticks consumed by each steal attempt (hit or miss).
    pub steal_latency: u64,
    /// RNG seed for victim selection (runs are deterministic per seed).
    pub seed: u64,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            p: 4,
            steal_latency: 3,
            seed: 0x5EED,
        }
    }
}

/// Measurements from one asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealStats {
    /// Ticks until the last action completed (the asynchronous makespan).
    pub makespan: u64,
    /// Actions executed (must equal the trace work).
    pub work_executed: u64,
    /// Successful steals.
    pub steals: u64,
    /// Failed steal attempts (empty victim).
    pub failed_steals: u64,
    /// Total idle processor-ticks (stealing or waiting).
    pub idle_ticks: u64,
}

impl StealStats {
    /// The work-stealing bound shape: makespan within
    /// `w/p + c·d·steal_latency` for a modest constant `c`.
    pub fn within_steal_bound(&self, work: u64, depth: u64, cfg: &StealConfig, c: u64) -> bool {
        self.makespan <= work.div_ceil(cfg.p as u64) + c * depth * cfg.steal_latency.max(1)
    }
}

#[derive(Clone, Copy)]
enum Item {
    Thread(ThreadId),
    /// Half-open range of remaining flat units, owned by `owner`'s Flat
    /// event (counter index into `flat_remaining`).
    Flat {
        job: usize,
        lo: u64,
        hi: u64,
    },
}

struct ThreadState {
    pc: usize,
    budget: u64,
    flat_dispatched: bool,
}

struct Proc {
    deque: Vec<Item>, // LIFO bottom = index 0, own end = back
    current: Option<Item>,
    /// Tick at which the processor next does something.
    busy_until: u64,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Run the asynchronous work-stealing execution of `trace`.
pub fn steal_replay(trace: &Trace, cfg: StealConfig) -> StealStats {
    assert!(cfg.p >= 1);
    let costs = trace.costs;
    let mut threads: Vec<ThreadState> = (0..trace.threads.len())
        .map(|_| ThreadState {
            pc: 0,
            budget: 0,
            flat_dispatched: false,
        })
        .collect();
    // written[c] = Some(t): visible to touches from tick t + 1 on (unit
    // communication latency — keeps the makespan >= DAG depth).
    let mut written: Vec<Option<u64>> = vec![None; trace.n_cells as usize];
    for &c in &trace.pre_written {
        written[c as usize] = Some(0);
    }
    let mut waiters: Vec<Vec<ThreadId>> = vec![Vec::new(); trace.n_cells as usize];
    // Per-flat-job sink bookkeeping: remaining units before the owner may
    // run the sink action.
    let mut flat_remaining: Vec<u64> = Vec::new();
    let mut flat_owner: Vec<ThreadId> = Vec::new();

    let mut procs: Vec<Proc> = (0..cfg.p)
        .map(|_| Proc {
            deque: Vec::new(),
            current: None,
            busy_until: 0,
        })
        .collect();
    procs[0].current = Some(Item::Thread(0));

    let mut stats = StealStats {
        makespan: 0,
        work_executed: 0,
        steals: 0,
        failed_steals: 0,
        idle_ticks: 0,
    };
    let mut rng = cfg.seed | 1;
    let mut outstanding: u64 = 1; // live schedulable items (root)
    let mut tick: u64 = 1;
    let mut written_this_tick: Vec<(usize, usize)> = Vec::new(); // (cell, proc)

    let ev_cost = |ev: &Ev| -> u64 {
        match ev {
            Ev::Compute(k) => *k,
            Ev::Fork(_) => costs.fork,
            Ev::Write(_) => costs.write,
            Ev::Touch(_) => costs.touch,
            Ev::Flat(_) => 1, // per-unit; handled by ranges
        }
    };

    while outstanding > 0 {
        // Round-robin the processors within one tick; asynchronous in the
        // sense that there is no barrier: each proc acts iff its latency
        // window expired.
        for pi in 0..cfg.p {
            if procs[pi].busy_until > tick {
                continue;
            }
            // Ensure the processor has something current.
            if procs[pi].current.is_none() {
                if let Some(item) = procs[pi].deque.pop() {
                    procs[pi].current = Some(item);
                } else {
                    // Steal: pick a uniformly random victim and take its
                    // oldest item.
                    stats.idle_ticks += 1;
                    let victim = (xorshift(&mut rng) as usize) % cfg.p;
                    procs[pi].busy_until = tick + cfg.steal_latency.max(1);
                    if victim != pi && !procs[victim].deque.is_empty() {
                        let item = procs[victim].deque.remove(0);
                        // Splittable flats: take only half the range.
                        let stolen = match item {
                            Item::Flat { job, lo, hi } if hi - lo > 1 => {
                                let mid = lo + (hi - lo) / 2;
                                procs[victim]
                                    .deque
                                    .insert(0, Item::Flat { job, lo, hi: mid });
                                outstanding += 1; // range split in two
                                Item::Flat { job, lo: mid, hi }
                            }
                            other => other,
                        };
                        procs[pi].current = Some(stolen);
                        stats.steals += 1;
                    } else {
                        stats.failed_steals += 1;
                    }
                    continue;
                }
            }
            // Execute one action of the current item.
            let item = procs[pi].current.take().expect("current");
            match item {
                Item::Flat {
                    job,
                    mut lo,
                    mut hi,
                } => {
                    // Lazy splitting: expose half of a large range whenever
                    // the deque is empty, so thieves always find work.
                    if hi - lo > 1 && procs[pi].deque.is_empty() {
                        let mid = lo + (hi - lo) / 2;
                        procs[pi].deque.push(Item::Flat { job, lo: mid, hi });
                        outstanding += 1;
                        hi = mid;
                    }
                    stats.work_executed += 1;
                    stats.makespan = stats.makespan.max(tick);
                    lo += 1;
                    flat_remaining[job] -= 1;
                    if lo < hi {
                        procs[pi].current = Some(Item::Flat { job, lo, hi });
                    } else {
                        outstanding -= 1;
                        if flat_remaining[job] == 0 {
                            // All units done: the owner resumes (sink next).
                            procs[pi].deque.push(Item::Thread(flat_owner[job]));
                            outstanding += 1;
                        }
                    }
                }
                Item::Thread(tid) => {
                    let t = tid as usize;
                    let log = &trace.threads[t].events;
                    if threads[t].pc >= log.len() {
                        outstanding -= 1;
                        continue;
                    }
                    let ev = &log[threads[t].pc];
                    match ev {
                        Ev::Flat(n) => {
                            if !threads[t].flat_dispatched {
                                threads[t].flat_dispatched = true;
                                flat_remaining.push(*n);
                                flat_owner.push(tid);
                                let job = flat_remaining.len() - 1;
                                // The thread parks; the flat range becomes
                                // the processor's current item.
                                procs[pi].current = Some(Item::Flat { job, lo: 0, hi: *n });
                                // Thread item is consumed; range replaces it
                                // (outstanding unchanged).
                            } else {
                                // Sink action.
                                threads[t].flat_dispatched = false;
                                threads[t].pc += 1;
                                stats.work_executed += 1;
                                stats.makespan = stats.makespan.max(tick);
                                procs[pi].current = Some(Item::Thread(tid));
                            }
                        }
                        Ev::Touch(c) => {
                            let visible = matches!(written[*c as usize], Some(w) if w < tick);
                            if !visible {
                                // Suspend in the cell; the processor idles.
                                waiters[*c as usize].push(tid);
                                outstanding -= 1;
                                continue;
                            }
                            run_one(&mut threads[t], ev_cost(ev));
                            stats.work_executed += 1;
                            stats.makespan = stats.makespan.max(tick);
                            procs[pi].current = Some(Item::Thread(tid));
                        }
                        Ev::Write(c) => {
                            let done = run_one(&mut threads[t], ev_cost(ev));
                            stats.work_executed += 1;
                            stats.makespan = stats.makespan.max(tick);
                            if done {
                                written[*c as usize] = Some(tick);
                                written_this_tick.push((*c as usize, pi));
                            }
                            procs[pi].current = Some(Item::Thread(tid));
                        }
                        Ev::Fork(child) => {
                            let child = *child;
                            let done = run_one(&mut threads[t], ev_cost(ev));
                            stats.work_executed += 1;
                            stats.makespan = stats.makespan.max(tick);
                            if done {
                                // Work-first: continue into the child,
                                // push the parent continuation.
                                procs[pi].deque.push(Item::Thread(tid));
                                procs[pi].current = Some(Item::Thread(child));
                                outstanding += 1;
                            } else {
                                procs[pi].current = Some(Item::Thread(tid));
                            }
                        }
                        Ev::Compute(_) => {
                            run_one(&mut threads[t], ev_cost(ev));
                            stats.work_executed += 1;
                            stats.makespan = stats.makespan.max(tick);
                            procs[pi].current = Some(Item::Thread(tid));
                        }
                    }
                    // Terminated thread: release its slot.
                    if let Some(Item::Thread(tid)) = procs[pi].current {
                        let t = tid as usize;
                        if threads[t].pc >= trace.threads[t].events.len() {
                            procs[pi].current = None;
                            outstanding -= 1;
                        }
                    }
                }
            }
        }
        // End of tick: writes become visible; wake their waiters onto the
        // writer's deque.
        for (c, pi) in written_this_tick.drain(..) {
            for w in waiters[c].drain(..) {
                procs[pi].deque.push(Item::Thread(w));
                outstanding += 1;
            }
        }
        tick += 1;
        if tick > 64 * (trace.work + 1000) {
            panic!("steal_replay runaway: tick {tick} work {}", trace.work);
        }
    }

    assert_eq!(
        stats.work_executed, trace.work,
        "asynchronous replay must execute exactly the trace work"
    );
    stats
}

fn run_one(t: &mut ThreadState, total_cost: u64) -> bool {
    if t.budget == 0 {
        t.budget = total_cost;
    }
    t.budget -= 1;
    if t.budget == 0 {
        t.pc += 1;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_core::Sim;

    fn cfg(p: usize, seed: u64) -> StealConfig {
        StealConfig {
            p,
            steal_latency: 3,
            seed,
        }
    }

    #[test]
    fn serial_trace_runs_exactly_work() {
        let (_, r, trace) = Sim::new().run_traced(|ctx| ctx.tick(50));
        let s = steal_replay(&trace, cfg(1, 1));
        assert_eq!(s.makespan, r.work);
        assert_eq!(s.steals, 0);
    }

    #[test]
    fn parallel_forks_get_stolen() {
        let (_, r, trace) = Sim::new().run_traced(|ctx| {
            let fs: Vec<_> = (0..8).map(|_| ctx.fork(|c| c.tick(200))).collect();
            for f in &fs {
                ctx.touch(f);
            }
        });
        let s1 = steal_replay(&trace, cfg(1, 7));
        let s4 = steal_replay(&trace, cfg(4, 7));
        assert_eq!(s1.work_executed, r.work);
        assert!(s4.steals > 0, "thieves must engage");
        assert!(
            (s4.makespan as f64) < 0.5 * s1.makespan as f64,
            "4 procs should beat 1: {} vs {}",
            s4.makespan,
            s1.makespan
        );
        assert!(s4.within_steal_bound(r.work, r.depth, &cfg(4, 7), 8));
    }

    #[test]
    fn suspension_and_wake() {
        let (_, r, trace) = Sim::new().run_traced(|ctx| {
            let f = ctx.fork(|c| {
                c.tick(100);
                1u8
            });
            ctx.touch(&f);
            ctx.tick(5);
        });
        for p in [1usize, 2] {
            let s = steal_replay(&trace, cfg(p, 3));
            assert_eq!(s.work_executed, r.work, "p={p}");
            assert!(s.makespan >= r.depth);
        }
    }

    #[test]
    fn flat_ranges_are_split_by_thieves() {
        let (_, r, trace) = Sim::new().run_traced(|ctx| {
            ctx.flat(1000);
            ctx.tick(1);
        });
        let s1 = steal_replay(&trace, cfg(1, 5));
        let s4 = steal_replay(&trace, cfg(4, 5));
        assert_eq!(s1.work_executed, r.work);
        assert_eq!(s4.work_executed, r.work);
        assert!(
            (s4.makespan as f64) < 0.45 * s1.makespan as f64,
            "flat range must parallelize: {} vs {}",
            s4.makespan,
            s1.makespan
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, _, trace) = Sim::new().run_traced(|ctx| {
            let fs: Vec<_> = (0..6).map(|i| ctx.fork(move |c| c.tick(30 + i))).collect();
            for f in &fs {
                ctx.touch(f);
            }
        });
        let a = steal_replay(&trace, cfg(3, 42));
        let b = steal_replay(&trace, cfg(3, 42));
        assert_eq!(a, b);
        let c = steal_replay(&trace, cfg(3, 43));
        assert_eq!(a.work_executed, c.work_executed);
    }

    #[test]
    fn makespan_lower_bounds() {
        let (_, r, trace) = Sim::new().run_traced(|ctx| {
            let f = ctx.fork(|c| c.tick(64));
            ctx.tick(64);
            ctx.touch(&f);
        });
        for p in [1usize, 2, 8] {
            let s = steal_replay(&trace, cfg(p, 2));
            assert!(s.makespan as u128 >= (r.work as u128).div_ceil(p as u128));
            assert!(s.makespan >= r.depth);
        }
    }
}
