//! Holding the host still while a workload runs.
//!
//! The authoring host is a 2-vCPU VM, and what a cross-thread hand-off
//! costs on it is not a constant:
//!
//! * It depends on how busy the VM was during the last minute. A channel
//!   round trip to a parked thread takes about 6 µs after a rest and about
//!   60 µs after half a minute of load, and the algorithms' keys/s drifts
//!   by a quarter the same way. A series of runs drifted from one state to
//!   the other.
//! * It depends on placement. A hand-off to a thread on the *other* vCPU
//!   costs tens of microseconds (an inter-processor interrupt into a VM),
//!   one on the same vCPU about 2 µs, and which of the two a process gets
//!   is luck that sticks for its lifetime.
//!
//! Every pf-rt session wakes a parked worker and then its parked client,
//! so `svc-paced`, whose sessions are a few hundred tasks long, measured a
//! median latency of 0.26 ms or 0.40 ms at one commit, and its `x_seq` read
//! about 325 in seven runs of ten and about 180 in the other three.
//!
//! [`KeepAwake`] removes the first dependence for every workload, and
//! [`Pinned`] the second for `svc-paced`.

use std::ffi::{c_int, c_uint};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    /// `setpriority(2)`; `who` is an `id_t`.
    fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
    /// `sched_setaffinity(2)`; `mask` points at `size` bytes of CPU bits.
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    /// `sched_getaffinity(2)`; fills `size` bytes at `mask`.
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
}

const PRIO_PROCESS: c_int = 0;
const MASK_BYTES: usize = std::mem::size_of::<u64>();

/// The vCPUs (of the first 64) the calling thread may run on, as a bit
/// mask; 0 when the host has more than 64 and the call is refused.
fn affinity() -> u64 {
    let mut mask: u64 = 0;
    // SAFETY: writes `MASK_BYTES` bytes at a local that outlives the call;
    // `pid == 0` names the calling thread.
    let rc = unsafe { sched_getaffinity(0, MASK_BYTES, &mut mask) };
    if rc < 0 {
        0
    } else {
        mask
    }
}

/// Confine the calling thread to the vCPUs in `mask`.
fn set_affinity(mask: u64) -> bool {
    // SAFETY: reads `MASK_BYTES` bytes at a local that outlives the call;
    // `pid == 0` names the calling thread.
    unsafe { sched_setaffinity(0, MASK_BYTES, &mask) == 0 }
}

/// The calling thread confined to one vCPU until dropped; threads it
/// spawns meanwhile inherit the confinement for good.
///
/// `svc-paced` runs this way, client thread and pool together: on one
/// vCPU every hand-off is the cheap kind, `x_seq` reads 190–218 run after
/// run, and it measures what the workload is for — the processor work of
/// the service path from `submit` to commit.
pub struct Pinned {
    before: u64,
}

impl Pinned {
    pub fn to_first_cpu() -> Self {
        let before = affinity();
        let first = before & before.wrapping_neg();
        // Unpinned the workload still runs and checks; it is only noisier.
        Pinned {
            before: if first != 0 && set_affinity(first) {
                before
            } else {
                0
            },
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if self.before != 0 {
            // A failure leaves the thread pinned, which only matters to a
            // later workload in the same process.
            set_affinity(self.before);
        }
    }
}

/// One thread per vCPU the caller may run on that does nothing but yield,
/// at the lowest priority (`nice 19`), until dropped.
///
/// No such vCPU ever goes idle, so to the host the VM is always equally
/// busy and every run finds it in the same state, whatever ran before —
/// what `idle=poll` does on a latency-testing machine. The threads put no
/// load on the system under test: they give the processor up as soon as
/// they get it, and a waking thread of normal priority preempts them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let allowed = affinity();
        let threads = (0..u64::BITS)
            .filter(|cpu| allowed & (1 << cpu) != 0)
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: `setpriority` takes three integers; on Linux
                    // `who == 0` names the calling thread alone.
                    let demoted = unsafe { setpriority(PRIO_PROCESS, 0, 19) == 0 };
                    // At normal priority, or free to roam, the thread would
                    // compete with the workload: better none than that.
                    if demoted && set_affinity(1 << cpu) {
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // The loop above cannot panic; nothing to report from `Drop`.
            let _ = t.join();
        }
    }
}
