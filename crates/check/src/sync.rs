//! Model synchronization primitives: drop-in stand-ins for the subset of
//! `std::sync` / `std::thread` the `pf_rt` runtime uses, with every
//! operation routed through the virtual scheduler as a scheduling point.
//!
//! Memory model: **sequential consistency only.** Each atomic op yields to
//! the scheduler and then acts on a plain value under the scheduler lock,
//! so explorations cover all SC interleavings but no weak-memory
//! reorderings. `Ordering` arguments are accepted and ignored. This is the
//! classic loom-lite trade-off: SC exploration still catches lost wakeups,
//! double-drops, ABA bugs, and protocol races — everything except bugs
//! that *require* a non-SC execution to surface (those are the
//! ThreadSanitizer job's department).
//!
//! Everything here panics when used outside a model execution; the shim
//! layer in `pf_rt::sync` selects std or this module at compile time, so
//! mixed use is impossible by construction.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::exec::{self, Execution, TState};

pub use std::sync::atomic::Ordering;

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

macro_rules! model_atomic_int {
    ($name:ident, $t:ty) => {
        /// Model atomic integer: every operation is a scheduling point.
        #[derive(Default)]
        pub struct $name {
            v: UnsafeCell<$t>,
        }

        // SAFETY: all access is serialized by the virtual scheduler (only
        // one model thread runs at a time, and op_point sequences the
        // accesses), so the UnsafeCell is never aliased mutably.
        unsafe impl Send for $name {}
        unsafe impl Sync for $name {}

        impl $name {
            /// New atomic holding `v`.
            pub const fn new(v: $t) -> Self {
                $name {
                    v: UnsafeCell::new(v),
                }
            }

            fn yield_point(&self) {
                exec::with_current(|e, tid| e.op_point(tid));
            }

            /// Atomic load (SC; ordering ignored).
            pub fn load(&self, _o: Ordering) -> $t {
                self.yield_point();
                unsafe { *self.v.get() }
            }

            /// Atomic store (SC; ordering ignored).
            pub fn store(&self, val: $t, _o: Ordering) {
                self.yield_point();
                unsafe { *self.v.get() = val }
            }

            /// Atomic swap.
            pub fn swap(&self, val: $t, _o: Ordering) -> $t {
                self.yield_point();
                unsafe {
                    let old = *self.v.get();
                    *self.v.get() = val;
                    old
                }
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $t,
                new: $t,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$t, $t> {
                self.yield_point();
                unsafe {
                    let old = *self.v.get();
                    if old == current {
                        *self.v.get() = new;
                        Ok(old)
                    } else {
                        Err(old)
                    }
                }
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, val: $t, _o: Ordering) -> $t {
                self.yield_point();
                unsafe {
                    let old = *self.v.get();
                    *self.v.get() = old.wrapping_add(val);
                    old
                }
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, val: $t, _o: Ordering) -> $t {
                self.yield_point();
                unsafe {
                    let old = *self.v.get();
                    *self.v.get() = old.wrapping_sub(val);
                    old
                }
            }

            /// Atomic bitwise AND, returning the previous value.
            pub fn fetch_and(&self, val: $t, _o: Ordering) -> $t {
                self.yield_point();
                unsafe {
                    let old = *self.v.get();
                    *self.v.get() = old & val;
                    old
                }
            }

            /// Atomic bitwise OR, returning the previous value.
            pub fn fetch_or(&self, val: $t, _o: Ordering) -> $t {
                self.yield_point();
                unsafe {
                    let old = *self.v.get();
                    *self.v.get() = old | val;
                    old
                }
            }

            /// Non-atomic access through `&mut` (no scheduling point: the
            /// exclusive borrow proves no concurrency).
            pub fn get_mut(&mut self) -> &mut $t {
                self.v.get_mut()
            }

            /// Consume, returning the value.
            pub fn into_inner(self) -> $t {
                self.v.into_inner()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Debug-printing must not perturb the schedule: read the
                // value without a scheduling point.
                f.debug_tuple(stringify!($name))
                    .field(unsafe { &*self.v.get() })
                    .finish()
            }
        }
    };
}

model_atomic_int!(AtomicUsize, usize);
model_atomic_int!(AtomicIsize, isize);
model_atomic_int!(AtomicU64, u64);
model_atomic_int!(AtomicU32, u32);
model_atomic_int!(AtomicU8, u8);

/// Model atomic boolean.
#[derive(Default)]
pub struct AtomicBool {
    inner: AtomicU8,
}

impl AtomicBool {
    /// New atomic holding `v`.
    pub const fn new(v: bool) -> Self {
        AtomicBool {
            inner: AtomicU8::new(v as u8),
        }
    }

    /// Atomic load.
    pub fn load(&self, o: Ordering) -> bool {
        self.inner.load(o) != 0
    }

    /// Atomic store.
    pub fn store(&self, v: bool, o: Ordering) {
        self.inner.store(v as u8, o)
    }

    /// Atomic swap.
    pub fn swap(&self, v: bool, o: Ordering) -> bool {
        self.inner.swap(v as u8, o) != 0
    }

    /// Atomic compare-exchange.
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        s: Ordering,
        f: Ordering,
    ) -> Result<bool, bool> {
        self.inner
            .compare_exchange(current as u8, new as u8, s, f)
            .map(|v| v != 0)
            .map_err(|v| v != 0)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Model atomic pointer.
pub struct AtomicPtr<T> {
    inner: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

unsafe impl<T> Send for AtomicPtr<T> {}
unsafe impl<T> Sync for AtomicPtr<T> {}

impl<T> AtomicPtr<T> {
    /// New atomic holding `p`.
    pub fn new(p: *mut T) -> Self {
        AtomicPtr {
            inner: AtomicUsize::new(p as usize),
            _marker: PhantomData,
        }
    }

    /// Atomic load.
    pub fn load(&self, o: Ordering) -> *mut T {
        self.inner.load(o) as *mut T
    }

    /// Atomic store.
    pub fn store(&self, p: *mut T, o: Ordering) {
        self.inner.store(p as usize, o)
    }

    /// Atomic swap.
    pub fn swap(&self, p: *mut T, o: Ordering) -> *mut T {
        self.inner.swap(p as usize, o) as *mut T
    }

    /// Non-atomic access through `&mut`.
    pub fn get_mut(&mut self) -> &mut *mut T {
        // SAFETY: usize and *mut T have identical layout; the exclusive
        // borrow rules out concurrent access.
        unsafe { &mut *(self.inner.get_mut() as *mut usize as *mut *mut T) }
    }
}

impl<T> std::fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Model memory fence: a pure scheduling point (under SC semantics a
/// fence adds no ordering that isn't already present).
pub fn fence(_o: Ordering) {
    exec::with_current(|e, tid| e.op_point(tid));
}

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

/// Mirror of `std::sync::PoisonError` — model locks are never poisoned,
/// so this is never constructed, but the type keeps call sites
/// (`lock().unwrap_or_else(|e| e.into_inner())`) source-compatible.
pub struct PoisonError<G> {
    guard: G,
}

impl<G> PoisonError<G> {
    /// Recover the guard (unreachable: model locks never poison).
    pub fn into_inner(self) -> G {
        self.guard
    }
}

impl<G> std::fmt::Debug for PoisonError<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoisonError")
    }
}

/// Mirror of `std::sync::LockResult`; always `Ok` in the model.
pub type LockResult<G> = Result<G, PoisonError<G>>;

/// Model mutex. Blocking a model thread on it parks the thread in the
/// virtual scheduler (never the OS), so the scheduler sees the full
/// waits-for graph and can report deadlocks.
pub struct Mutex<T: ?Sized> {
    core: OnceId,
    data: UnsafeCell<T>,
}

/// Lazily-allocated scheduler id (model mutexes/condvars can be created
/// outside an execution, e.g. in `const` position or before the model
/// starts, so the id is minted on first use).
struct OnceId {
    id: std::sync::OnceLock<usize>,
    locked: UnsafeCell<bool>,
}

impl OnceId {
    const fn new() -> Self {
        OnceId {
            id: std::sync::OnceLock::new(),
            locked: UnsafeCell::new(false),
        }
    }

    fn id(&self, e: &Arc<Execution>) -> usize {
        *self.id.get_or_init(|| e.alloc_sync_id())
    }
}

unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex`]; unlocking is a scheduling point.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// New unlocked mutex holding `t`.
    pub const fn new(t: T) -> Self {
        Mutex {
            core: OnceId::new(),
            data: UnsafeCell::new(t),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking (in the virtual scheduler) while held
    /// elsewhere.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        exec::with_current(|e, tid| {
            let id = self.core.id(e);
            e.op_point(tid);
            loop {
                // SAFETY: scheduler serializes access to `locked`.
                let held = unsafe { *self.core.locked.get() };
                if !held {
                    unsafe { *self.core.locked.get() = true };
                    return;
                }
                // Block until an unlock wakes every LockWait(id).
                e.block(tid, TState::LockWait(id), |_| {});
            }
        });
        Ok(MutexGuard { lock: self })
    }

    /// Access through `&mut` (no lock needed).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(unsafe { &mut *self.data.get() })
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        exec::with_current(|e, tid| {
            let id = self.lock.core.id(e);
            e.with_state(|st| {
                // SAFETY: scheduler lock serializes this.
                unsafe { *self.lock.core.locked.get() = false };
                Execution::wake_where(st, |s| *s == TState::LockWait(id));
            });
            e.op_point(tid);
        });
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

/// Model condition variable. `wait` atomically releases the mutex and
/// parks in the virtual scheduler; a waiter is eligible to wake only
/// after a `notify_*` that *follows* its wait (no lost wakeups are
/// hidden, no spurious wakeups are injected).
pub struct Condvar {
    id: std::sync::OnceLock<usize>,
}

impl Condvar {
    /// New condvar.
    pub const fn new() -> Self {
        Condvar {
            id: std::sync::OnceLock::new(),
        }
    }

    fn id(&self, e: &Arc<Execution>) -> usize {
        *self.id.get_or_init(|| e.alloc_sync_id())
    }

    /// Release `guard`'s mutex, wait for a notification, reacquire.
    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let mutex = guard.lock;
        exec::with_current(|e, tid| {
            let cv_id = self.id(e);
            let mu_id = mutex.core.id(e);
            // Atomically (under the scheduler lock): unlock + enter CvWait.
            e.block(tid, TState::CvWait(cv_id), |st| {
                unsafe { *mutex.core.locked.get() = false };
                Execution::wake_where(st, |s| *s == TState::LockWait(mu_id));
            });
            // Woken: reacquire.
            loop {
                let held = unsafe { *mutex.core.locked.get() };
                if !held {
                    unsafe { *mutex.core.locked.get() = true };
                    break;
                }
                e.block(tid, TState::LockWait(mu_id), |_| {});
            }
        });
        Ok(MutexGuard { lock: mutex })
    }

    /// Wake every waiter (scheduling point).
    pub fn notify_all(&self) {
        exec::with_current(|e, tid| {
            let cv_id = self.id(e);
            e.with_state(|st| {
                Execution::wake_where(st, |s| *s == TState::CvWait(cv_id));
            });
            e.op_point(tid);
        });
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

/// Model replacement for `std::thread`.
pub mod thread {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Handle to a model thread (mirror of `std::thread::Thread`):
    /// supports `unpark`.
    #[derive(Clone)]
    pub struct Thread {
        exec: Arc<Execution>,
        tid: usize,
    }

    impl Thread {
        /// Wake the thread if parked; otherwise bank the token.
        pub fn unpark(&self) {
            let exec = &self.exec;
            let tid = self.tid;
            // unpark may be called from a non-model thread only if the
            // model has ended; inside a model it is a scheduling point.
            exec.with_state(|st| {
                let t = &mut st.threads[tid];
                if t.state == TState::Parked {
                    t.state = TState::Runnable;
                } else {
                    t.park_token = true;
                }
            });
            if exec::in_model() {
                exec::with_current(|e, me| e.op_point(me));
            }
        }

        /// The thread's id, stringified (for diagnostics).
        pub fn name(&self) -> Option<String> {
            Some(format!("t{}", self.tid))
        }
    }

    impl std::fmt::Debug for Thread {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Thread(t{})", self.tid)
        }
    }

    /// Handle to a spawned model thread's result (mirror of
    /// `std::thread::JoinHandle`).
    pub struct JoinHandle<T> {
        thread: Thread,
        result: Arc<StdMutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        /// The underlying [`Thread`] handle.
        pub fn thread(&self) -> &Thread {
            &self.thread
        }

        /// Wait (in the virtual scheduler) for the thread to finish.
        ///
        /// A panicking model thread aborts the whole execution, so unlike
        /// std this never observes an `Err`.
        pub fn join(self) -> std::thread::Result<T> {
            let target = self.thread.tid;
            exec::with_current(|e, tid| {
                loop {
                    let finished = e.with_state(|st| st.threads[target].state == TState::Finished);
                    if finished {
                        break;
                    }
                    e.block(tid, TState::JoinWait(target), |_| {});
                }
                e.op_point(tid);
            });
            let v = self
                .result
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .expect("model thread finished without storing a result");
            Ok(v)
        }
    }

    /// Mirror of `std::thread::Builder` (name and stack size accepted;
    /// stack size is ignored — model threads run tiny workloads).
    #[derive(Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// New builder.
        pub fn new() -> Self {
            Builder::default()
        }

        /// Name the thread (diagnostics only).
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Accepted and ignored.
        pub fn stack_size(self, _bytes: usize) -> Self {
            self
        }

        /// Spawn a model thread.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
            let slot = Arc::clone(&result);
            let (exec, tid) = exec::with_current(|e, me| {
                let new_tid = e.spawn_model_thread(self.name, move || {
                    let v = f();
                    *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
                });
                // Spawning is a scheduling point (the child may run first).
                e.op_point(me);
                (Arc::clone(e), new_tid)
            });
            Ok(JoinHandle {
                thread: Thread { exec, tid },
                result,
            })
        }
    }

    /// Spawn a model thread with default settings.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("model spawn cannot fail")
    }

    /// Handle to the calling model thread.
    pub fn current() -> Thread {
        exec::with_current(|e, tid| Thread {
            exec: Arc::clone(e),
            tid,
        })
    }

    /// Park until unparked (or return immediately on a banked token).
    pub fn park() {
        exec::with_current(|e, tid| {
            let mut st_parked = false;
            e.with_state(|st| {
                let t = &mut st.threads[tid];
                if t.park_token {
                    t.park_token = false;
                } else {
                    st_parked = true;
                }
            });
            if st_parked {
                e.block(tid, TState::Parked, |_| {});
            } else {
                e.op_point(tid);
            }
        });
    }

    /// Deprioritizing scheduling point: the caller is ineligible at the
    /// next choice if any other thread can run (so spin-wait loops make
    /// progress under every strategy), then eligible again.
    pub fn yield_now() {
        exec::with_current(|e, tid| {
            e.block(tid, TState::Yielded, |_| {});
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, CheckBuilder};
    use std::sync::Arc;

    #[test]
    fn atomics_interleave_and_count() {
        // Two incrementing threads with a racy read-modify-write *split*
        // across a scheduling point would lose updates; fetch_add must not.
        check(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let n = Arc::clone(&n);
                hs.push(thread::spawn(move || {
                    for _ in 0..3 {
                        n.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn naive_load_store_race_is_found() {
        // The classic lost-update: load, then store load+1. The model
        // checker must find an interleaving where the final count < 2.
        let result = CheckBuilder::new().expect_failure().run(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let n = Arc::clone(&n);
                hs.push(thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        });
        let failure = result.expect("expected the lost update to be found");
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn mutex_excludes_and_counts() {
        check(|| {
            let m = Arc::new(Mutex::new(0u32));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let m = Arc::clone(&m);
                hs.push(thread::spawn(move || {
                    for _ in 0..2 {
                        let mut g = m.lock().unwrap();
                        // Non-atomic RMW under the lock is safe.
                        let v = *g;
                        thread::yield_now();
                        *g = v + 1;
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(*m.lock().unwrap(), 4);
        });
    }

    #[test]
    fn condvar_handoff() {
        check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let h = thread::spawn(move || {
                let (m, cv) = &*p2;
                let mut g = m.lock().unwrap();
                while !*g {
                    g = cv.wait(g).unwrap();
                }
            });
            {
                let (m, cv) = &*pair;
                *m.lock().unwrap() = true;
                cv.notify_all();
            }
            h.join().unwrap();
        });
    }

    #[test]
    fn park_unpark_token_semantics() {
        check(|| {
            let h = thread::spawn(|| {
                thread::park();
            });
            h.thread().unpark();
            h.join().unwrap();
        });
    }

    #[test]
    fn deadlock_is_reported() {
        // park with no unpark anywhere: the scheduler must report a
        // deadlock, not hang.
        let result = CheckBuilder::new().expect_failure().run(|| {
            let h = thread::spawn(|| {
                thread::park();
            });
            h.join().unwrap();
        });
        let failure = result.expect("expected a deadlock");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }
}
