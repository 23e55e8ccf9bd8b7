//! Ranked lock wrappers: the workspace lock hierarchy, enforced at runtime
//! in debug builds.
//!
//! Every mutex and condvar in `crates/service` and `crates/parallel` is an
//! [`OrderedMutex`] / [`OrderedCondvar`] carrying a static [`Rank`] from the
//! single hierarchy below. A thread may only acquire a lock whose rank is
//! **strictly greater** than every rank it already holds; equal ranks are a
//! violation too (so re-entrancy and holding two same-ranked locks — e.g.
//! two different jobs' progress locks — are both caught). Debug builds keep
//! a thread-local stack of held ranks and panic with a `lock-order
//! violation` message on the first out-of-order acquisition, which turns
//! the whole test suite into a deterministic deadlock detector: any cycle
//! in the lock graph must contain at least one edge that goes *down* the
//! hierarchy, and that edge panics the moment it is exercised — no
//! unlucky interleaving required. Release builds compile the tracking out;
//! the wrappers cost one enum field per lock.
//!
//! # The hierarchy
//!
//! | Rank | Lock | Held while |
//! |-----:|------|------------|
//! | 10 | `RouterNodes` (`router.rs` backend list) | snapshotting live backends; never while talking to a backend |
//! | 20 | `RouterJobs` (`router.rs` routing table) | recording placements; backend snapshots are taken **before** this lock |
//! | 30 | `ServerConns` (`server.rs` open connections) | registering/severing sockets at teardown |
//! | 40 | `ServerQueue` (`server.rs` admission queue + reservation count) | admission control and runner dispatch |
//! | 50 | `ServerJobs` (`server.rs` job table) | the submit path holds `ServerQueue` while inserting here (two-phase admission), hence Queue < Jobs |
//! | 60 | `JobProgress` (`job.rs` per-job state) | the submit path inspects per-job state (eviction filter) under `ServerJobs`, hence Jobs < Progress; engine workers (appending results) and a deadline watchdog take it holding no other lock |
//! | 70 | `CacheInner` (`cache.rs` graph-cache slots) | single-flight bookkeeping; builds run with the lock released |
//! | 80 | `JournalDelivered` (`journal.rs` delivered-offset map) | terminal hooks journal under `JobProgress`, hence Progress < Journal* |
//! | 90 | `JournalFile` (`journal.rs` append handle) | the delivered map is consulted before appending, hence Delivered < File |
//! | 100 | `Channel` (leaf: `!Sync` channel ends shared across threads) | never while acquiring anything else |
//!
//! # Adding a lock
//!
//! 1. Find every path that can hold the new lock together with an existing
//!    one, in either order; those paths dictate its position.
//! 2. Add a `Rank` variant at that position — the discriminants are spaced
//!    by 10 so a new rank slots in without renumbering — and document the
//!    edge in the table above and in ARCHITECTURE.md.
//! 3. Construct the lock with `OrderedMutex::new(Rank::…, "name", value)`.
//!    Never use `std::sync::Mutex`/`Condvar` directly; `kplex-lint`'s
//!    `raw-sync` rule rejects it everywhere outside this module.
//!
//! # Poisoning policy
//!
//! Lock poisoning has exactly one policy here: panic, naming the lock. A
//! poisoned lock means a thread panicked while holding it, so shared state
//! may be torn mid-update; limping on would trade a loud failure for a
//! silent corruption. This is why call sites carry no per-site
//! `.expect("… poisoned")` strings — [`OrderedMutex::lock`] owns the
//! message.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Static position of a lock in the workspace hierarchy (module docs).
///
/// A thread may only acquire a rank strictly greater than every rank it
/// currently holds. Discriminants are spaced by 10 so future locks can
/// slot between existing ones without renumbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
pub enum Rank {
    /// `kplexr` backend list: snapshotted (and released) before any other
    /// lock is taken, so backend probes never serialize routing.
    RouterNodes = 10,
    /// `kplexr` routing table; always after `RouterNodes` because failover
    /// consults the live-backend snapshot while rerouting jobs.
    RouterJobs = 20,
    /// `kplexd` open-connection registry, used only by accept/teardown.
    ServerConns = 30,
    /// `kplexd` admission queue plus its in-flight reservation count; the
    /// two-phase submit holds this while inserting into the job table.
    ServerQueue = 40,
    /// `kplexd` job table; above `ServerQueue` (two-phase admission) and
    /// below `JobProgress` (the eviction filter reads per-job state).
    ServerJobs = 50,
    /// Per-job progress state. Two jobs' locks share this rank, so holding
    /// two at once is (deliberately) a violation — no path needs it.
    JobProgress = 60,
    /// Graph-cache slot map; graph builds run with this released, only the
    /// single-flight bookkeeping happens under it.
    CacheInner = 70,
    /// Journal delivered-offset map; terminal hooks run under
    /// `JobProgress`, which is why the journal ranks sit above it.
    JournalDelivered = 80,
    /// Journal append handle; consulted after `JournalDelivered` when a
    /// record needs the delivered map (e.g. `END` compaction bookkeeping).
    JournalFile = 90,
    /// Leaf rank for `!Sync` channel ends (e.g. an `mpsc::Receiver`)
    /// shared across threads in tests and hooks; never held while
    /// acquiring anything else.
    Channel = 100,
}

#[cfg(debug_assertions)]
mod held {
    //! Thread-local stack of held ranks. Every push is strictly greater
    //! than the current top, so the stack is always sorted ascending and
    //! checking the top suffices.

    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        static STACK: RefCell<Vec<(Rank, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: Rank, name: &'static str) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&(top, top_name)) = stack.last() {
                assert!(
                    rank > top,
                    "lock-order violation: acquiring {name:?} ({rank:?}={rv}) while holding \
                     {top_name:?} ({top:?}={tv}); see the hierarchy in \
                     crates/service/src/sync.rs",
                    rv = rank as u32,
                    tv = top as u32,
                );
            }
            stack.push((rank, name));
        });
    }

    pub(super) fn release(rank: Rank, name: &'static str) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards may drop out of LIFO order; remove the topmost match.
            if let Some(pos) = stack.iter().rposition(|&(r, n)| r == rank && n == name) {
                stack.remove(pos);
            }
        });
    }
}

/// A [`std::sync::Mutex`] that participates in the workspace lock
/// hierarchy (module docs): acquisitions that violate the rank order
/// panic in debug builds, and poisoning always panics with the lock's
/// name (the single poisoning policy).
pub struct OrderedMutex<T> {
    rank: Rank,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex at position `rank` of the hierarchy.
    /// `name` identifies the lock in violation and poisoning panics.
    pub const fn new(rank: Rank, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking like [`std::sync::Mutex::lock`].
    ///
    /// Debug builds first check the rank against this thread's held set —
    /// *before* blocking, so an ordering violation panics instead of
    /// deadlocking. Panics if the lock is poisoned.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::acquire(self.rank, self.name);
        match self.inner.lock() {
            Ok(guard) => OrderedGuard {
                inner: Some(guard),
                rank: self.rank,
                name: self.name,
            },
            Err(_) => {
                #[cfg(debug_assertions)]
                held::release(self.rank, self.name);
                panic!(
                    "lock {:?} ({:?}) poisoned: a thread panicked while holding it",
                    self.name, self.rank
                );
            }
        }
    }

    /// The lock's rank in the hierarchy.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard returned by [`OrderedMutex::lock`]; releases the lock and
/// unregisters its rank on drop.
pub struct OrderedGuard<'a, T> {
    /// `None` only transiently, while the guard is parked in an
    /// [`OrderedCondvar`] wait (the rank stays registered: the thread is
    /// blocked and cannot acquire elsewhere).
    inner: Option<MutexGuard<'a, T>>,
    rank: Rank,
    name: &'static str,
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the mutex")
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the mutex")
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if self.inner.is_some() {
            held::release(self.rank, self.name);
        }
    }
}

/// A [`std::sync::Condvar`] that waits on [`OrderedGuard`]s, keeping the
/// guard's rank registered for the duration of the wait (the parked
/// thread cannot acquire other locks, so the wait itself cannot create a
/// cycle).
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        Self {
            inner: Condvar::new(),
        }
    }

    /// Wakes one waiter, like [`std::sync::Condvar::notify_one`].
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters, like [`std::sync::Condvar::notify_all`].
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically releases `guard` and parks until notified, then
    /// reacquires the same mutex. Panics if the mutex was poisoned while
    /// parked.
    pub fn wait<'a, T>(&self, mut guard: OrderedGuard<'a, T>) -> OrderedGuard<'a, T> {
        let (rank, name) = (guard.rank, guard.name);
        let std_guard = guard.inner.take().expect("guard holds the mutex");
        // `guard` now drops as a no-op; the rank stays on the held stack
        // while we are parked, and the reacquired guard below takes over
        // that same entry — exactly one live registration throughout.
        match self.inner.wait(std_guard) {
            Ok(reacquired) => OrderedGuard {
                inner: Some(reacquired),
                rank,
                name,
            },
            Err(_) => {
                #[cfg(debug_assertions)]
                held::release(rank, name);
                panic!("lock {name:?} ({rank:?}) poisoned during a condvar wait");
            }
        }
    }

    /// Like [`OrderedCondvar::wait`] with a timeout; the boolean is `true`
    /// if the wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: OrderedGuard<'a, T>,
        dur: Duration,
    ) -> (OrderedGuard<'a, T>, bool) {
        let (rank, name) = (guard.rank, guard.name);
        let std_guard = guard.inner.take().expect("guard holds the mutex");
        match self.inner.wait_timeout(std_guard, dur) {
            Ok((reacquired, timeout)) => (
                OrderedGuard {
                    inner: Some(reacquired),
                    rank,
                    name,
                },
                timeout.timed_out(),
            ),
            Err(_) => {
                #[cfg(debug_assertions)]
                held::release(rank, name);
                panic!("lock {name:?} ({rank:?}) poisoned during a condvar wait");
            }
        }
    }
}

impl Default for OrderedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedCondvar").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn in_order_acquisition_and_access() {
        let a = OrderedMutex::new(Rank::ServerQueue, "t-queue", 1u32);
        let b = OrderedMutex::new(Rank::ServerJobs, "t-jobs", 2u32);
        let ga = a.lock();
        let mut gb = b.lock();
        *gb += *ga;
        assert_eq!(*gb, 3);
        assert_eq!(a.rank(), Rank::ServerQueue);
        assert_eq!(b.name(), "t-jobs");
    }

    #[test]
    fn reacquiring_lower_rank_after_release_is_fine() {
        let low = OrderedMutex::new(Rank::RouterNodes, "t-low", ());
        let high = OrderedMutex::new(Rank::JournalFile, "t-high", ());
        drop(high.lock());
        // The stack is empty again, so going back down is legal.
        drop(low.lock());
        drop(high.lock());
    }

    #[test]
    fn non_lifo_guard_drop_unregisters_the_right_entry() {
        let a = OrderedMutex::new(Rank::ServerQueue, "t-a", ());
        let b = OrderedMutex::new(Rank::ServerJobs, "t-b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // out of LIFO order
        let c = OrderedMutex::new(Rank::JobProgress, "t-c", ());
        let gc = c.lock(); // must still see only t-b as held
        drop(gb);
        drop(gc);
        // Everything released: the lowest rank must be acquirable again.
        drop(a.lock());
    }

    // The detector itself only exists in debug builds; the release suite
    // still runs every other test through the same wrappers.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn two_lock_inversion_panics() {
        let jobs = OrderedMutex::new(Rank::ServerJobs, "t-jobs", ());
        let queue = OrderedMutex::new(Rank::ServerQueue, "t-queue", ());
        let _g = jobs.lock();
        let _h = queue.lock(); // Queue < Jobs: inverted, must panic
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn equal_rank_acquisition_panics() {
        let a = OrderedMutex::new(Rank::JobProgress, "t-job-a", ());
        let b = OrderedMutex::new(Rank::JobProgress, "t-job-b", ());
        let _g = a.lock();
        let _h = b.lock(); // same rank: two jobs' locks on one thread
    }

    #[test]
    fn condvar_wait_roundtrip() {
        let pair = std::sync::Arc::new((
            OrderedMutex::new(Rank::ServerQueue, "t-cv", false),
            OrderedCondvar::new(),
        ));
        let (tx, rx) = mpsc::channel();
        let remote = std::sync::Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (lock, cv) = &*remote;
            let mut ready = lock.lock();
            tx.send(()).expect("main waits for this");
            while !*ready {
                ready = cv.wait(ready);
            }
            // The reacquired guard still owns the rank entry: a higher
            // lock must be acquirable, and dropping must clean up fully.
            let extra = OrderedMutex::new(Rank::ServerJobs, "t-cv-high", ());
            drop(extra.lock());
        });
        rx.recv().expect("waiter started");
        *pair.0.lock() = true;
        pair.1.notify_all();
        waiter.join().expect("waiter clean exit");
    }

    #[test]
    fn condvar_timeout_does_not_leak_rank_registrations() {
        let lock = OrderedMutex::new(Rank::ServerJobs, "t-timeout", ());
        let cv = OrderedCondvar::new();
        let guard = lock.lock();
        let (guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(5));
        assert!(timed_out);
        drop(guard);
        // If the wait had double-registered, this lower-rank acquisition
        // would trip the detector.
        let lower = OrderedMutex::new(Rank::ServerQueue, "t-lower", ());
        drop(lower.lock());
    }
}
