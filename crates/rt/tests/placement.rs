//! Pool placement (`pool.rs`, *Placement*): each worker of a pool of two
//! or more holds one CPU of the mask it inherited, the k-th allowed one,
//! with k from a process-wide round-robin; a one-worker pool and a
//! one-CPU mask leave workers where they are.
//!
//! One test, so no other runtime in this process moves the round-robin
//! between its cases. It reads each worker's mask from inside a task that
//! worker runs: no clock, no sleep.

#![cfg(target_os = "linux")]

use std::ffi::c_int;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pf_rt::{Runtime, Worker};

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// glibc's `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];
const SET_BYTES: usize = std::mem::size_of::<CpuSet>();

/// The CPUs the calling thread may run on, ascending.
fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: writes at most `SET_BYTES` bytes at a local of that size;
    // `pid == 0` names the calling thread.
    let rc = unsafe { sched_getaffinity(0, SET_BYTES, set.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..SET_BYTES * 8)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 != 0)
        .collect()
}

/// Confine the calling thread to `cpus`.
fn set_allowed(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: reads `SET_BYTES` bytes at a local of that size; `pid == 0`
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, SET_BYTES, set.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Each worker's allowed CPUs, by worker index. One session pushes one
/// task per worker, and each task waits, yielding, until every worker
/// has reported: a worker busy in one cannot take a second, so each
/// worker runs exactly one before any finishes.
fn worker_masks(rt: &Runtime) -> Vec<Vec<usize>> {
    let n = rt.nthreads();
    let masks = Arc::new(Mutex::new(vec![None; n]));
    let reported = Arc::new(AtomicUsize::new(0));
    let (m, r) = (Arc::clone(&masks), reported);
    rt.run(move |wk| {
        for _ in 0..n {
            let (m, r) = (Arc::clone(&m), Arc::clone(&r));
            wk.spawn2(move |wk: &Worker| report(wk, &m, &r, n), |_| {});
        }
    });
    let masks = masks.lock().unwrap();
    masks.iter().map(|m| m.clone().unwrap()).collect()
}

fn report(wk: &Worker, masks: &Mutex<Vec<Option<Vec<usize>>>>, reported: &AtomicUsize, n: usize) {
    {
        let mut masks = masks.lock().unwrap();
        if masks[wk.index()].is_none() {
            masks[wk.index()] = Some(allowed());
            reported.fetch_add(1, Ordering::SeqCst);
        }
    }
    while reported.load(Ordering::SeqCst) < n {
        std::thread::yield_now();
    }
}

#[test]
fn workers_of_a_wider_pool_take_consecutive_cpus_of_the_inherited_mask() {
    let inherited = allowed();

    // A one-worker pool keeps its inherited mask.
    assert_eq!(worker_masks(&Runtime::new(1)), vec![inherited.clone()]);

    // Under a one-CPU mask every worker holds that CPU. The last allowed
    // CPU, so that under a mask of two or more it is not the first.
    let last = *inherited.last().unwrap();
    set_allowed(&[last]);
    let pinned = Runtime::new(3);
    set_allowed(&inherited);
    assert_eq!(worker_masks(&pinned), vec![vec![last]; 3]);
    drop(pinned);

    if inherited.len() < 2 {
        eprintln!("one CPU allowed ({last}): nothing to spread, the spreading cases are skipped");
        return;
    }

    // Worker `i` of each pool, in the order the pools were built, holds
    // the CPU one position past the one before it, wrapping at the end
    // of the inherited mask: two workers hold distinct CPUs, and a pool
    // built right after another continues the rotation (a width-3 pool
    // in the middle, so that on two CPUs the last pool starts on the CPU
    // the first did not).
    let pools = [Runtime::new(2), Runtime::new(3), Runtime::new(2)];
    let masks: Vec<Vec<usize>> = pools.iter().flat_map(worker_masks).collect();
    for (j, m) in masks.iter().enumerate() {
        assert_eq!(m.len(), 1, "worker {j} holds one CPU: {masks:?}");
    }
    let pos = |m: &Vec<usize>| inherited.iter().position(|c| *c == m[0]).unwrap();
    assert_ne!(masks[0], masks[1], "a 2-worker pool holds two CPUs");
    let start = pos(&masks[0]);
    let got: Vec<usize> = masks.iter().map(pos).collect();
    let want: Vec<usize> = (0..masks.len())
        .map(|j| (start + j) % inherited.len())
        .collect();
    assert_eq!(got, want, "positions in {inherited:?}");
}
