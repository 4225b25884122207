//! A native Chase–Lev work-stealing deque (plus a mutexed injector),
//! replacing the external `crossbeam-deque` dependency.
//!
//! The implementation follows the C11 formulation of Lê, Pop, Cohen &
//! Zappa Nardelli, *Correct and Efficient Work-Stealing for Weak Memory
//! Models* (PPoPP '13): the owner pushes and pops at the **bottom** (LIFO,
//! the paper's stack discipline), thieves steal at the **top** (FIFO), and
//! the single contended decision — last-element races and steal claims —
//! is one `compare_exchange` on `top`.
//!
//! ## Memory reclamation without epochs
//!
//! When the ring buffer fills, the owner allocates a doubled buffer,
//! copies the live window, and publishes the new buffer pointer. A
//! concurrent thief may still read an element slot through the *old*
//! buffer pointer; its claim CAS on `top` decides ownership, and the bytes
//! it read stay valid because old buffers are **retired, not freed**: they
//! are kept on an owner-local list until the deque itself is dropped.
//! Because capacities double, the total retired memory is bounded by the
//! size of the final buffer, so this costs at most 2× the peak queue
//! footprint — a deliberate trade that avoids an epoch-GC dependency.
//! (Elements themselves are moved out exactly once, by whichever side wins
//! the claim; retirement only delays freeing the *slots*.)

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::atomic::{fence, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use crate::sync::Mutex;

/// Result of a steal attempt (mirrors `crossbeam_deque::Steal`).
pub enum Steal<T> {
    /// A task was stolen.
    Success(T),
    /// The queue was observed empty.
    Empty,
    /// Lost a race; the caller may retry.
    Retry,
}

/// Fixed-capacity ring buffer; slots are `MaybeUninit` because ownership
/// of the element bytes is tracked by the `top`/`bottom` indices, not by
/// the buffer.
struct Buffer<T> {
    cap: usize,
    slots: *mut MaybeUninit<T>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let mut v: Vec<MaybeUninit<T>> = Vec::with_capacity(cap);
        // SAFETY: MaybeUninit slots need no initialization.
        unsafe { v.set_len(cap) };
        let slots = Box::into_raw(v.into_boxed_slice()) as *mut MaybeUninit<T>;
        Box::into_raw(Box::new(Buffer { cap, slots }))
    }

    /// SAFETY: caller must own the buffer and all remaining element bytes
    /// must have been moved out already.
    unsafe fn free(ptr: *mut Buffer<T>) {
        let b = Box::from_raw(ptr);
        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
            b.slots, b.cap,
        )));
    }

    #[inline]
    unsafe fn write(&self, index: isize, value: T) {
        let slot = self.slots.add(index as usize & (self.cap - 1));
        (*slot).write(value);
    }

    /// Read the element bytes at `index`. May race with an owner
    /// overwrite; the caller must discard the result (via `forget`) unless
    /// its claim CAS succeeds.
    #[inline]
    unsafe fn read(&self, index: isize) -> T {
        let slot = self.slots.add(index as usize & (self.cap - 1));
        (*slot).assume_init_read()
    }
}

struct Inner<T> {
    /// Steal index; monotonically increasing. Claimed by CAS.
    top: AtomicIsize,
    /// Owner index; one past the last pushed element.
    bottom: AtomicIsize,
    /// Current ring buffer.
    buf: AtomicPtr<Buffer<T>>,
    /// Retired buffers (owner-touched only; freed on drop).
    retired: UnsafeCell<Vec<*mut Buffer<T>>>,
}

// SAFETY: the algorithm mediates all cross-thread access; `retired` is
// only touched by the unique owner handle (`LocalQueue` is !Sync and not
// Clone) and by `drop` when no other handle remains.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner now: drop live elements, then all buffers.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        let buf = *self.buf.get_mut();
        for i in t..b {
            // SAFETY: window [top, bottom) holds initialized elements and
            // nobody else can claim them anymore.
            unsafe { drop((*buf).read(i)) };
        }
        // SAFETY: all elements moved out; buffers exclusively ours.
        unsafe {
            Buffer::free(buf);
            for old in self.retired.get_mut().drain(..) {
                Buffer::free(old);
            }
        }
    }
}

/// Owner handle: LIFO push/pop at the bottom. Exactly one per worker.
pub struct LocalQueue<T> {
    inner: Arc<Inner<T>>,
    /// !Sync: the owner operations are single-threaded by construction.
    _not_sync: PhantomData<*mut ()>,
}

// SAFETY: moving the unique owner handle to another thread is fine; only
// concurrent use from two threads is unsound, which !Sync prevents.
unsafe impl<T: Send> Send for LocalQueue<T> {}

/// Thief handle: FIFO steal at the top. Cloneable and shareable.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Initial ring capacity (slots); grows by doubling. Tiny under the model
/// checker so the grow path is reachable with a handful of model pushes.
#[cfg(not(pf_check))]
const INITIAL_CAP: usize = 256;
#[cfg(pf_check)]
const INITIAL_CAP: usize = 2;

/// Create a deque, returning the owner handle.
pub fn deque<T>() -> LocalQueue<T> {
    LocalQueue {
        inner: Arc::new(Inner {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buf: AtomicPtr::new(Buffer::alloc(INITIAL_CAP)),
            retired: UnsafeCell::new(Vec::new()),
        }),
        _not_sync: PhantomData,
    }
}

impl<T> LocalQueue<T> {
    /// A thief handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// True when the deque holds no elements (owner's view).
    pub fn is_empty(&self) -> bool {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        b <= t
    }

    /// Push at the bottom (owner only).
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buf.load(Ordering::Relaxed);
        // SAFETY: owner-exclusive access to bottom and the buffer pointer.
        unsafe {
            if b - t >= (*buf).cap as isize {
                buf = self.grow(b, t, buf);
            }
            (*buf).write(b, value);
        }
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Double the buffer, copying the live window `[t, b)`; retires the
    /// old buffer (see module docs) and publishes the new one.
    ///
    /// SAFETY: owner only.
    unsafe fn grow(&self, b: isize, t: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        let new = Buffer::alloc(((*old).cap * 2).max(INITIAL_CAP));
        for i in t..b {
            // Byte copy: ownership of each element stays with whichever
            // index range claims it; thieves racing on the old buffer read
            // the same bytes (see module docs).
            let slot_old = (*old).slots.add(i as usize & ((*old).cap - 1));
            let slot_new = (*new).slots.add(i as usize & ((*new).cap - 1));
            std::ptr::copy_nonoverlapping(slot_old, slot_new, 1);
        }
        (*self.inner.retired.get()).push(old);
        self.inner.buf.store(new, Ordering::Release);
        new
    }

    /// Pop at the bottom (owner only): LIFO.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buf.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t <= b {
            // Non-empty. SAFETY: slot `b` is initialized; thieves can
            // contend only when t == b, resolved by the CAS below.
            let v = unsafe { (*buf).read(b) };
            if t == b {
                // Last element: race the thieves for it.
                if inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief claimed it; it owns the bytes we read.
                    std::mem::forget(v);
                    inner.bottom.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                inner.bottom.store(b + 1, Ordering::Relaxed);
            }
            Some(v)
        } else {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }
}

impl<T> Stealer<T> {
    /// True when the deque appears empty (thief's view; approximate).
    pub fn is_empty(&self) -> bool {
        let t = self.inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::Acquire);
        b <= t
    }

    /// Try to steal the oldest element.
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t < b {
            let buf = inner.buf.load(Ordering::Acquire);
            // Speculative read; only valid if the claim CAS succeeds (the
            // owner may concurrently pop/overwrite — then the CAS fails
            // and the possibly-torn bytes are discarded).
            let v = unsafe { (*buf).read(t) };
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::mem::forget(v);
                return Steal::Retry;
            }
            Steal::Success(v)
        } else {
            Steal::Empty
        }
    }
}

/// Global injection queue: tasks submitted from outside the worker pool
/// (the root task of each run). A plain mutexed queue — it is off the
/// per-task hot path (workers consult the cheap length counter first).
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// An empty injector.
    pub fn new() -> Self {
        Injector {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// True when no task is queued (cheap: one atomic load).
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::SeqCst) == 0
    }

    /// Enqueue a task.
    pub fn push(&self, value: T) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(value);
        self.len.store(q.len(), Ordering::SeqCst);
    }

    /// Dequeue the oldest task.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.queue.lock().unwrap();
        let v = q.pop_front();
        self.len.store(q.len(), Ordering::SeqCst);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn lifo_owner_order() {
        let q = deque::<u32>();
        for i in 0..10 {
            q.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_steal_order() {
        let q = deque::<u32>();
        let s = q.stealer();
        for i in 0..4 {
            q.push(i);
        }
        assert!(!s.is_empty());
        match s.steal() {
            Steal::Success(v) => assert_eq!(v, 0),
            _ => panic!("steal failed on a populated deque"),
        }
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn growth_preserves_elements() {
        let q = deque::<usize>();
        let n = INITIAL_CAP * 4 + 3;
        for i in 0..n {
            q.push(i);
        }
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        got.reverse();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn drop_releases_undrained_elements() {
        // Arc payloads: leak detection via strong count.
        let payload = Arc::new(());
        let q = deque::<Arc<()>>();
        for _ in 0..100 {
            q.push(Arc::clone(&payload));
        }
        assert_eq!(Arc::strong_count(&payload), 101);
        drop(q);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn concurrent_steal_hammer() {
        // 4 thieves + owner popping; every pushed value claimed once.
        const N: u64 = 100_000;
        let q = deque::<u64>();
        let sum = Arc::new(AtomicU64::new(0));
        let claimed = Arc::new(AtomicU64::new(0));
        let stealers: Vec<_> = (0..4).map(|_| q.stealer()).collect();
        std::thread::scope(|scope| {
            for s in stealers {
                let sum = Arc::clone(&sum);
                let claimed = Arc::clone(&claimed);
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            claimed.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty => {
                            if claimed.load(Ordering::Acquire) >= N {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        Steal::Retry => {}
                    }
                });
            }
            for i in 0..N {
                q.push(i + 1);
                if i % 7 == 0 {
                    if let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        claimed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Owner drains what the thieves left.
            while let Some(v) = q.pop() {
                sum.fetch_add(v, Ordering::Relaxed);
                claimed.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(claimed.load(Ordering::Relaxed), N);
        assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2);
    }

    #[test]
    fn injector_fifo() {
        let inj = Injector::new();
        assert!(inj.is_empty());
        inj.push(1);
        inj.push(2);
        assert!(!inj.is_empty());
        assert_eq!(inj.pop(), Some(1));
        assert_eq!(inj.pop(), Some(2));
        assert_eq!(inj.pop(), None);
    }
}
