//! Offline stand-in for `crossbeam` (deque + sync subsets).
//!
//! The parallel engine needs a per-worker deque with owner-side LIFO pop
//! and thief-side FIFO steal — the crossbeam-deque `Worker`/`Stealer` API —
//! plus a global [`deque::Injector`] for initial injection and overflow,
//! and the token-based [`sync::Parker`]/[`sync::Unparker`] pair for
//! blocking idle workers. This shim reproduces those APIs; the queues keep
//! crossbeam's ordering semantics over a `Mutex<VecDeque>`, correct under
//! arbitrary interleavings and fast enough for test-scale workloads. Swap
//! the workspace path dependency for crates.io `crossbeam = "0.8"` to get
//! the lock-free versions unchanged.

pub mod sync {
    //! Subset of `crossbeam-utils::sync`: the token-based thread parker.

    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    struct Inner {
        /// The wakeup token: set by [`Unparker::unpark`], consumed by one
        /// [`Parker::park`]. Saturates at one — an unpark delivered while
        /// the owner is awake makes exactly the next park return
        /// immediately, which is what closes the push-vs-park race.
        token: Mutex<bool>,
        cvar: Condvar,
    }

    /// Blocks the owning thread until its [`Unparker`] delivers a token.
    ///
    /// Unlike `std::thread::park`, the pair has no spurious wakeups: `park`
    /// returns only after an `unpark` (current or already banked). One
    /// `Parker` belongs to one thread; hand out [`Unparker`] clones.
    pub struct Parker {
        inner: Arc<Inner>,
        unparker: Unparker,
    }

    /// Wakes the paired [`Parker`]'s thread. Cloneable, `Send + Sync`.
    pub struct Unparker {
        inner: Arc<Inner>,
    }

    impl Parker {
        /// A fresh parker with no banked token.
        pub fn new() -> Self {
            let inner = Arc::new(Inner {
                token: Mutex::new(false),
                cvar: Condvar::new(),
            });
            Parker {
                unparker: Unparker {
                    inner: Arc::clone(&inner),
                },
                inner,
            }
        }

        /// Blocks until a token is available, then consumes it.
        pub fn park(&self) {
            let mut token = self.inner.token.lock().expect("parker poisoned");
            while !*token {
                token = self.inner.cvar.wait(token).expect("parker poisoned");
            }
            *token = false;
        }

        /// Blocks until a token is available or `timeout` elapses; a token
        /// found in time is consumed.
        pub fn park_timeout(&self, timeout: Duration) {
            let deadline = std::time::Instant::now() + timeout;
            let mut token = self.inner.token.lock().expect("parker poisoned");
            while !*token {
                let now = std::time::Instant::now();
                let Some(left) = deadline.checked_duration_since(now) else {
                    return;
                };
                let (guard, res) = self
                    .inner
                    .cvar
                    .wait_timeout(token, left)
                    .expect("parker poisoned");
                token = guard;
                if res.timed_out() && !*token {
                    return;
                }
            }
            *token = false;
        }

        /// The handle other threads use to wake this parker.
        pub fn unparker(&self) -> &Unparker {
            &self.unparker
        }
    }

    impl Default for Parker {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Unparker {
        /// Banks a wakeup token and wakes the parked owner, if any.
        pub fn unpark(&self) {
            let mut token = self.inner.token.lock().expect("parker poisoned");
            *token = true;
            self.inner.cvar.notify_one();
        }
    }

    impl Clone for Unparker {
        fn clone(&self) -> Self {
            Unparker {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unpark_before_park_is_banked() {
            let p = Parker::new();
            p.unparker().unpark();
            p.park(); // returns immediately on the banked token
        }

        #[test]
        fn token_saturates_at_one() {
            let p = Parker::new();
            p.unparker().unpark();
            p.unparker().unpark();
            p.park();
            // Second park would block: only a timeout gets us out.
            p.park_timeout(Duration::from_millis(10));
        }

        #[test]
        fn cross_thread_unpark_wakes() {
            let p = Parker::new();
            let u = p.unparker().clone();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    u.unpark();
                });
                p.park();
            });
        }

        #[test]
        fn park_timeout_returns_without_token() {
            let p = Parker::new();
            let t0 = std::time::Instant::now();
            p.park_timeout(Duration::from_millis(10));
            assert!(t0.elapsed() >= Duration::from_millis(5));
        }
    }
}

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Owner side of a work-stealing deque.
    ///
    /// LIFO flavour: the owner pushes and pops at the back (depth-first,
    /// cache-warm), thieves steal from the front (breadth-first, coarse
    /// tasks). FIFO flavour: the owner also pops from the front.
    pub struct Worker<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
        lifo: bool,
    }

    /// Thief side; clone one per sibling worker.
    pub struct Stealer<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
    }

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The deque was observed empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// A race was lost; retrying may succeed.
        Retry,
    }

    impl<T> Worker<T> {
        /// New deque whose owner pops most-recently-pushed first.
        pub fn new_lifo() -> Self {
            Worker {
                inner: Arc::new(Mutex::new(VecDeque::new())),
                lifo: true,
            }
        }

        /// New deque whose owner pops oldest-first.
        pub fn new_fifo() -> Self {
            Worker {
                inner: Arc::new(Mutex::new(VecDeque::new())),
                lifo: false,
            }
        }

        /// Enqueues a task on the owner's end.
        pub fn push(&self, task: T) {
            self.inner.lock().expect("deque poisoned").push_back(task);
        }

        /// Dequeues the owner's next task.
        pub fn pop(&self) -> Option<T> {
            let mut q = self.inner.lock().expect("deque poisoned");
            if self.lifo {
                q.pop_back()
            } else {
                q.pop_front()
            }
        }

        /// Whether the deque is currently empty.
        pub fn is_empty(&self) -> bool {
            self.inner.lock().expect("deque poisoned").is_empty()
        }

        /// Creates a thief handle to this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Attempts to steal the oldest task. The locked implementation
        /// never races, so [`Steal::Retry`] is never returned; callers
        /// written against crossbeam's lock-free deque handle it anyway.
        pub fn steal(&self) -> Steal<T> {
            match self.inner.lock().expect("deque poisoned").pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    /// A global FIFO task queue every worker can push to and steal from —
    /// crossbeam-deque's `Injector`. Used for injecting the initial task
    /// set and as an overflow target when a worker wants to publish work
    /// to parked peers instead of hoarding it on its own deque.
    pub struct Injector<T> {
        inner: Mutex<VecDeque<T>>,
    }

    /// Most tasks one `steal_batch_and_pop` moves (crossbeam's cap).
    const MAX_BATCH: usize = 32;

    impl<T> Injector<T> {
        /// A new, empty injector.
        pub fn new() -> Self {
            Injector {
                inner: Mutex::new(VecDeque::new()),
            }
        }

        /// Enqueues a task at the back of the global queue.
        pub fn push(&self, task: T) {
            self.inner
                .lock()
                .expect("injector poisoned")
                .push_back(task);
        }

        /// Steals the oldest task, if any.
        pub fn steal(&self) -> Steal<T> {
            match self.inner.lock().expect("injector poisoned").pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// Steals up to half the queue (capped at an internal batch limit),
        /// moving all but the first stolen task onto `dest` and returning
        /// the first — the crossbeam `steal_batch_and_pop` contract.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = self.inner.lock().expect("injector poisoned");
            let Some(first) = q.pop_front() else {
                return Steal::Empty;
            };
            let extra = (q.len() / 2).min(MAX_BATCH - 1);
            for _ in 0..extra {
                let t = q.pop_front().expect("len checked");
                dest.push(t);
            }
            Steal::Success(first)
        }

        /// Whether the global queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.inner.lock().expect("injector poisoned").is_empty()
        }

        /// Number of queued tasks (racy by nature; a load-balancing hint).
        pub fn len(&self) -> usize {
            self.inner.lock().expect("injector poisoned").len()
        }
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn lifo_owner_fifo_thief() {
            let w = Worker::new_lifo();
            let s = w.stealer();
            w.push(1);
            w.push(2);
            w.push(3);
            assert_eq!(w.pop(), Some(3));
            assert_eq!(s.steal(), Steal::Success(1));
            assert_eq!(w.pop(), Some(2));
            assert_eq!(w.pop(), None);
            assert_eq!(s.steal(), Steal::Empty);
        }

        #[test]
        fn injector_batch_steal_splits_work() {
            let inj = Injector::new();
            for i in 0..10 {
                inj.push(i);
            }
            let w = Worker::new_lifo();
            // First stolen task pops out; roughly half the rest lands on w.
            assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(0));
            let mut moved = Vec::new();
            while let Some(v) = w.pop() {
                moved.push(v);
            }
            moved.sort_unstable();
            assert_eq!(moved, vec![1, 2, 3, 4]);
            assert_eq!(inj.len(), 5);
            assert_eq!(inj.steal(), Steal::Success(5));
        }

        #[test]
        fn injector_drains_to_empty() {
            let inj: Injector<u32> = Injector::new();
            assert!(inj.is_empty());
            assert_eq!(inj.steal(), Steal::Empty);
            let w = Worker::new_fifo();
            assert_eq!(inj.steal_batch_and_pop(&w), Steal::Empty);
        }

        #[test]
        fn cross_thread_stealing_loses_nothing() {
            let w = Worker::new_lifo();
            for i in 0..1000 {
                w.push(i);
            }
            let stealers: Vec<Stealer<i32>> = (0..4).map(|_| w.stealer()).collect();
            let total: i32 = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for s in &stealers {
                    handles.push(scope.spawn(move || {
                        let mut sum = 0;
                        loop {
                            match s.steal() {
                                Steal::Success(v) => sum += v,
                                Steal::Retry => continue,
                                Steal::Empty => break,
                            }
                        }
                        sum
                    }));
                }
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(total, (0..1000).sum::<i32>());
        }
    }
}
