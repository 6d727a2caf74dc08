//! Ranked lock wrappers — a lockdep for the DeepLens workspace.
//!
//! Every lock in the engine's concurrent core is tagged with a [`LockRank`].
//! The ranks form a single total order (outermost first); a thread may only
//! acquire a lock whose rank is **strictly greater** than every rank it
//! already holds. Because all threads acquire in ascending rank order, no
//! cycle of waits can form and deadlock is impossible. Same-rank acquisition
//! is also rejected: sharded structures (catalog shards, result-cache shards)
//! allow at most one shard latch per thread at a time.
//!
//! Under `debug_assertions` each thread keeps a stack of `(rank, name)` pairs
//! for the locks it holds; a violating acquisition panics with the offending
//! lock, the conflicting held lock, and the full held stack. In release
//! builds the check is compiled out entirely and [`OrderedMutex`] /
//! [`OrderedRwLock`] are zero-cost passthroughs over `std::sync`.
//!
//! Poisoning is intentionally transparent (a panic while holding a lock does
//! not poison it for other threads), matching the `parking_lot` semantics the
//! workspace previously relied on: guards are recovered with
//! `unwrap_or_else(|e| e.into_inner())`.

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(debug_assertions)]
use std::cell::RefCell;

/// The workspace-wide lock order, outermost (acquired first) to innermost.
///
/// A thread holding a lock of rank `R` may only acquire locks of rank
/// strictly greater than `R`. The discriminants are the single source of
/// truth for the ordering rules documented in `core::shared`,
/// `serve::admission`, `core::cache` and `exec::pool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// `serve::admission` controller state (queue + inflight cost). Held only
    /// within the admission controller, but ranked outermost because a queued
    /// request blocks here before touching any engine state.
    AdmissionQueue = 0,
    /// `serve::server` connection-handle registry. Taken by the accept loop
    /// and `stop()`; never nested inside engine locks.
    ConnectionRegistry = 1,
    /// `core::shared` session-slot allocator (`SharedCatalog::session_slots`).
    SessionSlots = 2,
    /// One shard of the name-sharded `core::shared::SharedCatalog` map. At
    /// most one shard latch per thread (same-rank acquisition panics).
    CatalogShard = 3,
    /// A session's decoded-frame cache (`core::session`). Leaf with respect
    /// to catalog state: never held across catalog acquisitions.
    FrameCache = 4,
    /// `exec::pool` per-dispatch result collector. A worker takes it briefly
    /// at the end of a morsel batch, holding nothing else.
    WorkerResults = 5,
    /// One shard of the `core::cache` snapshot-keyed result cache. Innermost
    /// leaf: lookups and inserts hold exactly this lock, and cached values
    /// are cloned out before any other lock can be wanted.
    ResultCacheShard = 6,
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}(rank {})", *self as u8)
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Stack of locks held by the current thread, in acquisition order.
    static HELD: RefCell<Vec<(LockRank, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Registration of one held lock on the current thread's rank stack.
///
/// Acquired *before* blocking on the underlying primitive (the violation is
/// the attempt to acquire out of order, whether or not it would deadlock this
/// time) and released from the stack when the guard drops.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct HeldToken {
    rank: LockRank,
    name: &'static str,
}

#[cfg(debug_assertions)]
impl HeldToken {
    fn acquire(rank: LockRank, name: &'static str) -> Self {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.iter().max_by_key(|&&(r, _)| r) {
                if top_rank == rank {
                    panic!(
                        "lock-rank violation: double acquisition at rank {rank}: \
                         attempted to lock `{name}` while already holding \
                         `{top_name}` (held stack: {held:?})"
                    );
                }
                if top_rank > rank {
                    panic!(
                        "lock-order inversion: attempted to lock `{name}` ({rank}) \
                         while holding `{top_name}` ({top_rank}); locks must be \
                         acquired in ascending rank order (held stack: {held:?})"
                    );
                }
            }
            held.push((rank, name));
        });
        HeldToken { rank, name }
    }
}

#[cfg(debug_assertions)]
impl Drop for HeldToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards may drop in any order; remove the matching entry from
            // the top down.
            if let Some(pos) = held
                .iter()
                .rposition(|&(r, n)| r == self.rank && std::ptr::eq(n, self.name))
            {
                held.remove(pos);
            }
        });
    }
}

/// Snapshot of the current thread's held-lock stack, for diagnostics and
/// tests. Always empty in release builds (the checker is compiled out).
pub fn held_locks() -> Vec<(LockRank, &'static str)> {
    #[cfg(debug_assertions)]
    {
        HELD.with(|held| held.borrow().clone())
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// A mutex tagged with a [`LockRank`], enforcing the workspace lock order
/// under `debug_assertions`. Poison-transparent, like `parking_lot::Mutex`.
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create a new ordered mutex. `name` appears in violation panics.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        OrderedMutex {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquire the mutex, blocking the current thread. Panics under
    /// `debug_assertions` if the acquisition violates the rank order.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = HeldToken::acquire(self.rank, self.name);
        OrderedMutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            #[cfg(debug_assertions)]
            token,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// The rank this mutex was tagged with.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// The diagnostic name this mutex was tagged with.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for an [`OrderedMutex`]. Dropping it releases the lock and pops the
/// rank from the thread's held stack.
// Note: this struct has no `Drop` impl of its own — each field cleans itself
// up — so `OrderedCondvar::wait` can move the fields apart to release the
// rank token while the thread is parked.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    token: HeldToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock tagged with a [`LockRank`], enforcing the workspace
/// lock order under `debug_assertions`. Both `read()` and `write()` are
/// rank-checked: a read acquisition out of order is just as much a potential
/// deadlock as a write. Poison-transparent.
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a new ordered rwlock. `name` appears in violation panics.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        OrderedRwLock {
            rank,
            name,
            inner: RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Acquire shared (read) access. Rank-checked under `debug_assertions`.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = HeldToken::acquire(self.rank, self.name);
        OrderedReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Acquire exclusive (write) access. Rank-checked under
    /// `debug_assertions`.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = HeldToken::acquire(self.rank, self.name);
        OrderedWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// The rank this lock was tagged with.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// The diagnostic name this lock was tagged with.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared-access guard for an [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T: ?Sized> {
    inner: RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: HeldToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive-access guard for an [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T: ?Sized> {
    inner: RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: HeldToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with [`OrderedMutex`].
///
/// While a thread is parked in [`wait`](OrderedCondvar::wait) it does not
/// hold the mutex, so the wrapper pops the rank token for the duration of
/// the wait and re-registers it when the thread wakes holding the lock
/// again. Without this, a long wait would wedge the waiting thread's rank
/// stack and produce false "double acquisition" reports on wake-ups that
/// re-enter the same controller.
#[derive(Debug, Default)]
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Block the current thread until notified, releasing `guard` while
    /// parked. Returns a guard for the re-acquired lock.
    pub fn wait<'a, T>(&self, guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        // Move the fields apart: the std guard goes to Condvar::wait, the
        // rank token is dropped so the stack reflects "not held" while
        // parked.
        let OrderedMutexGuard {
            inner,
            #[cfg(debug_assertions)]
            token,
        } = guard;
        #[cfg(debug_assertions)]
        let (rank, name) = (token.rank, token.name);
        #[cfg(debug_assertions)]
        drop(token);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        OrderedMutexGuard {
            inner,
            #[cfg(debug_assertions)]
            token: HeldToken::acquire(rank, name),
        }
    }

    /// Wake one thread blocked on this condition variable.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all threads blocked on this condition variable.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_legal() {
        let outer = OrderedMutex::new(LockRank::SessionSlots, "slots", 1u32);
        let mid = OrderedRwLock::new(LockRank::CatalogShard, "shard-0", 2u32);
        let inner = OrderedMutex::new(LockRank::ResultCacheShard, "cache-shard-0", 3u32);
        let a = outer.lock();
        let b = mid.read();
        let c = inner.lock();
        assert_eq!(*a + *b + *c, 6);
        drop((a, b, c));
        assert!(held_locks().is_empty());
    }

    #[test]
    fn out_of_order_release_keeps_stack_consistent() {
        let a = OrderedMutex::new(LockRank::CatalogShard, "shard-0", ());
        let b = OrderedMutex::new(LockRank::FrameCache, "frame-cache", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release outer first
        drop(gb);
        assert!(held_locks().is_empty());
        // Stack is clean: a fresh low-rank acquisition must succeed.
        let _ = a.lock();
    }

    #[test]
    fn reacquire_after_release_is_legal() {
        let shard = OrderedRwLock::new(LockRank::CatalogShard, "shard-0", 0u32);
        for _ in 0..3 {
            let g = shard.write();
            drop(g);
        }
        assert!(held_locks().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn rank_inversion_panics() {
        let cache = OrderedMutex::new(LockRank::ResultCacheShard, "cache-shard-0", ());
        let shard = OrderedRwLock::new(LockRank::CatalogShard, "shard-0", ());
        let _g = cache.lock();
        let _h = shard.write(); // ResultCacheShard > CatalogShard: inversion
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double acquisition")]
    fn double_same_rank_panics() {
        let s0 = OrderedRwLock::new(LockRank::CatalogShard, "shard-0", ());
        let s1 = OrderedRwLock::new(LockRank::CatalogShard, "shard-1", ());
        let _g = s0.read();
        let _h = s1.read(); // two shard latches on one thread
    }

    #[test]
    fn condvar_wait_releases_rank_token() {
        use std::sync::Arc;
        let pair = Arc::new((
            OrderedMutex::new(LockRank::AdmissionQueue, "admission", false),
            OrderedCondvar::new(),
        ));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
            })
        };
        // Give the waiter time to park, then flip the flag. If `wait` failed
        // to release the mutex this would deadlock.
        std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        waiter.join().expect("waiter thread");
        assert!(held_locks().is_empty());
    }

    #[test]
    fn poisoned_lock_is_transparent() {
        use std::sync::Arc;
        let m = Arc::new(OrderedMutex::new(LockRank::FrameCache, "cache", 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A panic while holding the lock must not wedge other threads.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn rank_order_matches_discriminants() {
        use LockRank::*;
        let order = [
            AdmissionQueue,
            ConnectionRegistry,
            SessionSlots,
            CatalogShard,
            FrameCache,
            WorkerResults,
            ResultCacheShard,
        ];
        for pair in order.windows(2) {
            assert!(pair[0] < pair[1], "{} must precede {}", pair[0], pair[1]);
        }
    }
}
