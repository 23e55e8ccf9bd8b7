//! The work-stealing scheduler substrate: global injector, per-worker
//! deques, park/unpark wakeup discipline, and the deterministic test seam.
//!
//! This module owns the *scheduling* half of the engine — where tasks wait
//! and how idle workers sleep. The *enumeration* half is kplex-core's seed
//! loop ([`kplex_core::driver`]), which every worker runs over its
//! [`WorkerHandle`] as a [`TaskQueue`]; the scheduler stays here so that
//! kplex-core depends on nothing but `kplex-graph`. The topology is
//! crossbeam's: a global [`Injector`] for initial injection and overflow,
//! one [`Deque`] per worker with owner-LIFO pop, and peer [`Stealer`]s
//! consulted in an order rotated by the thief's index (`steal_order`).
//! Idle workers *park* on a token [`Parker`] instead of sleep-polling.
//!
//! The seed loop puts one step of its own into the find order: a worker
//! whose own deque is empty (`WorkerHandle::pop`) builds the next seed and
//! pushes that seed's tasks before it falls through to
//! [`WorkerHandle::next`] (injector, peer steals, parking). It does that
//! only while it holds a construction token (below).
//!
//! ## The wakeup invariant (no lost wakeups)
//!
//! A parking worker and a pushing worker synchronise through two shared
//! objects: the task queues and the `parked` bitmask. The protocol is
//! Dekker-style — each side writes its own signal, fences, then reads the
//! other side's:
//!
//! * **Consumer** (worker going idle): set own bit in `parked` with a
//!   `SeqCst` RMW → re-check termination and *re-run the full find* (own
//!   deque, injector, every peer) → only then park.
//! * **Producer** (worker pushing a task): push → `SeqCst` fence → scan
//!   `parked` → CAS-clear one bit → unpark that worker.
//!
//! In the single total order that `SeqCst` guarantees, either the
//! producer's mask scan observes the consumer's bit (and unparks it), or
//! the consumer's re-find observes the push (and never parks). The parker
//! token banks an unpark delivered in the window between the re-check and
//! the actual `park()`, closing the last race. This argument only uses the
//! fence/RMW total order plus the deque's own push→steal visibility, so it
//! survives swapping the mutex-based shim for lock-free crossbeam.
//!
//! **WakeAtMostNThreads**: each push wakes at most one parked peer (the
//! CAS-clear hands out each sleeping worker once), so a worker publishing
//! N children wakes at most N peers — no thundering herd, and no wakeup
//! deficit either, because each woken worker steals before it can re-park.
//!
//! ## The termination handshake
//!
//! `pending` counts tasks that exist anywhere (queued or running) plus any
//! outstanding *construction tokens*. The engine counts in one token per
//! worker; a worker holds it while the shared seed cursor may still hand it
//! a vertex, and counts it out once the cursor is exhausted (or the run is
//! stopped). A worker parks only after releasing its token, so nobody
//! sleeps while a seed is left to build. Invariants, all on this one
//! atomic:
//!
//! * a task is counted in (`count_in`) before it is pushed, so it is
//!   counted before it can be observed;
//! * a task's children are counted in before the parent counts out
//!   (`count_out`), and RMW coherence keeps one thread's operations on one
//!   atomic in program order within the modification order — so `pending`
//!   reaches 0 only after every transitively spawned task is in and out.
//!
//! The *last* `count_out` (the decrement that hits 0) wakes every parked
//! worker; a worker observing `pending == 0` after setting its parked bit
//! exits instead of parking. Together: no worker sleeps past termination,
//! and no worker exits while work can still appear.

use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use crossbeam::sync::{Parker, Unparker};
use kplex_core::TaskQueue;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Scheduler lifecycle events, delivered to the [`SchedHook`] test seam
/// from the worker thread the event happens on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// Worker `wid` attached to the pool.
    Registered(usize),
    /// Worker `wid` is committed to parking: its parked bit is set, the
    /// final re-check found nothing, and `park()` is the next call. An
    /// injection from here on is guaranteed to wake somebody.
    Parking(usize),
    /// Worker `wid` returned from `park()`.
    Unparked(usize),
    /// Worker `wid` observed termination and is leaving the pool.
    Exiting(usize),
}

/// Test-only observation seam, the scheduler analogue of
/// `ServerConfig::cold_load_hook`: a callback invoked at the
/// [`SchedEvent`] points, *on the worker thread*. Deterministic harness
/// tests use it to know when workers are parked and to freeze/step them
/// (by blocking inside the callback) so races like lost-wakeup and
/// park-vs-push can be provoked on purpose instead of waited for.
/// Production runs leave it `None`; the events are not a public API.
pub type SchedHook = Arc<dyn Fn(SchedEvent) + Send + Sync>;

/// Monotonic scheduler counters, shared across jobs when the caller keeps
/// the `Arc` (the service aggregates one per process; perfbench gives each
/// run its own). All counters are cumulative totals.
#[derive(Debug, Default)]
pub struct SchedMetrics {
    steals: AtomicU64,
    injector_steals: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
}

impl SchedMetrics {
    /// Tasks taken from a *peer's* deque.
    pub fn steals(&self) -> u64 {
        // ordering: monotonic counter read for reporting; no ordering
        // relative to other memory is needed.
        self.steals.load(Ordering::Relaxed)
    }

    /// Tasks (batches count once) taken from the global injector.
    pub fn injector_steals(&self) -> u64 {
        // ordering: monotonic counter read for reporting only.
        self.injector_steals.load(Ordering::Relaxed)
    }

    /// Times a worker parked (blocked idle).
    pub fn parks(&self) -> u64 {
        // ordering: monotonic counter read for reporting only.
        self.parks.load(Ordering::Relaxed)
    }

    /// Times a worker returned from park.
    pub fn unparks(&self) -> u64 {
        // ordering: monotonic counter read for reporting only.
        self.unparks.load(Ordering::Relaxed)
    }

    fn bump(counter: &AtomicU64) {
        // ordering: statistics only; the count itself synchronises nothing.
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Configuration for [`Scheduler::new`].
pub struct SchedConfig {
    /// Number of workers `M`.
    pub workers: usize,
    /// Deterministic-test observation seam; `None` in production.
    pub hook: Option<SchedHook>,
    /// Counter sink; `None` counts into a scheduler-private instance.
    pub metrics: Option<Arc<SchedMetrics>>,
}

/// The shared half of the scheduler: everything workers reach through a
/// `&Scheduler` — the injector, peer stealers, the parked mask and
/// `pending`. Created once per stage together with the per-worker
/// [`WorkerCtx`]s.
pub struct Scheduler<T> {
    injector: Injector<T>,
    stealers: Vec<Stealer<T>>,
    unparkers: Vec<Unparker>,
    /// Bit `w` of word `w / 64` is set while worker `w` is parked or
    /// committed to parking. Plain atomics — the raw-sync lint bans locks
    /// in this crate, and the wakeup protocol needs RMW ordering anyway.
    parked: Vec<AtomicU64>,
    /// Queued + running tasks + outstanding construction tokens (one per
    /// worker that may still build a seed off the engine's cursor).
    pending: AtomicUsize,
    hook: Option<SchedHook>,
    metrics: Arc<SchedMetrics>,
}

/// The private half of one worker: its deque and its parker. Moved into
/// the worker thread and attached there.
pub struct WorkerCtx<T> {
    wid: usize,
    deque: Deque<T>,
    parker: Parker,
}

/// The peers worker `wid` of `m` tries to steal from, in order: every
/// other worker exactly once, rotated by the thief's index so concurrent
/// thieves fan out over different victims instead of all hammering
/// worker 0.
fn steal_order(wid: usize, m: usize) -> impl Iterator<Item = usize> {
    (1..m).map(move |off| (wid + off) % m)
}

impl<T> Scheduler<T> {
    /// Builds a scheduler and its `M` worker contexts.
    pub fn new(cfg: SchedConfig) -> (Scheduler<T>, Vec<WorkerCtx<T>>) {
        let m = cfg.workers.max(1);
        let deques: Vec<Deque<T>> = (0..m).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let mut unparkers = Vec::with_capacity(m);
        let mut ctxs = Vec::with_capacity(m);
        for (wid, deque) in deques.into_iter().enumerate() {
            let parker = Parker::new();
            unparkers.push(parker.unparker().clone());
            ctxs.push(WorkerCtx { wid, deque, parker });
        }
        let sched = Scheduler {
            injector: Injector::new(),
            stealers,
            unparkers,
            parked: (0..m.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            pending: AtomicUsize::new(0),
            hook: cfg.hook,
            metrics: cfg.metrics.unwrap_or_default(),
        };
        (sched, ctxs)
    }

    /// The metrics sink this scheduler counts into.
    pub fn metrics(&self) -> &Arc<SchedMetrics> {
        &self.metrics
    }

    /// Current pending count (tasks + tokens). Exact only once all workers
    /// have exited; a load-balancing/termination hint before that.
    pub fn pending(&self) -> usize {
        // ordering: Acquire so a caller that observes 0 also observes the
        // writes of every task that ran (pairs with count_out's Release).
        self.pending.load(Ordering::Acquire)
    }

    /// Counts `n` units (tasks about to be pushed, or construction tokens)
    /// into `pending`. Must happen before the corresponding push.
    pub fn count_in(&self, n: usize) {
        // ordering: Relaxed suffices — the count-in precedes the matching
        // push in program order and RMW coherence keeps this thread's
        // operations on `pending` ordered, so a task is always counted
        // before any thread can observe it (module invariant above).
        self.pending.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one unit out. The decrement that reaches 0 wakes every
    /// parked worker so they can observe termination and exit.
    pub fn count_out(&self) {
        // ordering: Release so the worker that observes pending == 0 (with
        // Acquire) also observes all writes made by this task; the RMW
        // also keeps children counted in (program order) before the parent
        // counts out.
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            self.wake_all();
        }
    }

    /// Injects a task from outside the pool (the dealer, a test, a future
    /// external submitter): counted in, pushed to the global injector, one
    /// parked worker woken.
    pub fn inject(&self, task: T) {
        self.count_in(1);
        self.injector.push(task);
        // ordering: SeqCst fence after the push, before the parked-mask
        // scan — pairs with the consumer's SeqCst bit-set + re-find (see
        // the wakeup invariant in the module docs).
        fence(Ordering::SeqCst);
        self.wake_one();
    }

    /// Wakes at most one parked worker: scan the mask, CAS-clear one bit,
    /// unpark its owner. The CAS hands each sleeper out exactly once, so N
    /// concurrent pushes wake at most (and, while sleepers last, exactly)
    /// N distinct workers.
    fn wake_one(&self) {
        for (word_idx, word) in self.parked.iter().enumerate() {
            // ordering: the scan races with parkers by design; the SeqCst
            // fence before this call already ordered the push against the
            // mask read, so Relaxed loads here only affect which (if any)
            // sleeper is chosen, never correctness.
            let mut cur = word.load(Ordering::Relaxed);
            while cur != 0 {
                let bit = cur & cur.wrapping_neg();
                // ordering: SeqCst RMW (success and failure-load alike) so
                // clearing the bit is in the single total order with the
                // owner's bit-set; a successful clear means this sleeper is
                // ours alone to wake.
                let res = word.compare_exchange(
                    cur,
                    cur & !bit,
                    // ordering: see the compare_exchange comment above.
                    Ordering::SeqCst,
                    // ordering: see the compare_exchange comment above.
                    Ordering::SeqCst,
                );
                match res {
                    Ok(_) => {
                        let wid = word_idx * 64 + bit.trailing_zeros() as usize;
                        self.unparkers[wid].unpark();
                        return;
                    }
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Unparks every worker (termination, or an external stop that wants
    /// prompt quiescence). Bits are left for the owners to clear — each
    /// woken worker re-runs its idle loop and re-decides.
    pub fn wake_all(&self) {
        for u in &self.unparkers {
            u.unpark();
        }
    }

    fn emit(&self, ev: SchedEvent) {
        if let Some(h) = &self.hook {
            h(ev);
        }
    }
}

impl<T> WorkerCtx<T> {
    /// Worker index of this context.
    pub fn wid(&self) -> usize {
        self.wid
    }

    /// Attaches to the scheduler *on the worker thread*: emits
    /// [`SchedEvent::Registered`] and returns the handle the worker loop
    /// drives.
    pub fn attach(self, sched: &Scheduler<T>) -> WorkerHandle<'_, T> {
        sched.emit(SchedEvent::Registered(self.wid));
        WorkerHandle { sched, ctx: self }
    }
}

/// One worker's view of the scheduler: the [`TaskQueue`] calls, with the
/// park protocol inside `next`. All methods take `&self`, so a searcher's
/// spawn hook can hold a shared borrow while the worker loop keeps driving
/// the handle.
pub struct WorkerHandle<'s, T> {
    sched: &'s Scheduler<T>,
    ctx: WorkerCtx<T>,
}

impl<'s, T> WorkerHandle<'s, T> {
    /// Worker index of this handle.
    pub fn wid(&self) -> usize {
        self.ctx.wid
    }

    /// The scheduler this handle is attached to.
    pub fn scheduler(&self) -> &'s Scheduler<T> {
        self.sched
    }
}

/// The queue calls of one worker, as the seed loop
/// ([`kplex_core::driver`]) makes them.
impl<T> TaskQueue<T> for WorkerHandle<'_, T> {
    /// Pops the newest task off this worker's own deque, without looking
    /// anywhere else and without parking. The seed loop uses it to keep
    /// running one seed's tasks, and to learn that its deque is empty
    /// before it builds the next seed.
    fn pop(&self) -> Option<T> {
        self.ctx.deque.pop()
    }

    /// Returns the next task to run, parking while there is nothing to do,
    /// or `None` once the stage has terminated (`pending == 0`). The
    /// caller owns the task until it calls [`WorkerHandle::count_out`].
    fn next(&self) -> Option<T> {
        loop {
            if let Some(t) = self.find() {
                return Some(t);
            }
            let (word, bit) = self.mask_slot();
            // ordering: SeqCst RMW publishes the parked bit into the single
            // total order before the re-checks below — pairs with the
            // producer's push → SeqCst fence → mask scan (wakeup invariant
            // in the module docs).
            word.fetch_or(bit, Ordering::SeqCst);
            // Re-check termination: the last count_out may have raced past
            // the find above. The bit must be cleared on every exit path.
            // ordering: Acquire pairs with count_out's Release so an
            // observed 0 also carries every finished task's writes.
            if self.sched.pending.load(Ordering::Acquire) == 0 {
                self.clear_parked();
                self.sched.emit(SchedEvent::Exiting(self.ctx.wid));
                return None;
            }
            // Re-find: any push that missed our bit in its mask scan
            // happened before our bit-set in the total order, so its task
            // is visible to this sweep.
            if let Some(t) = self.find() {
                self.clear_parked();
                return Some(t);
            }
            self.sched.emit(SchedEvent::Parking(self.ctx.wid));
            SchedMetrics::bump(&self.sched.metrics.parks);
            self.ctx.parker.park();
            self.clear_parked();
            SchedMetrics::bump(&self.sched.metrics.unparks);
            self.sched.emit(SchedEvent::Unparked(self.ctx.wid));
        }
    }

    /// Publishes one new task from this worker: counted in, pushed on the
    /// own deque (LIFO — children run next, cache-warm), then at most one
    /// parked peer is woken to come steal.
    fn push(&self, task: T) {
        self.sched.count_in(1);
        self.ctx.deque.push(task);
        // ordering: SeqCst fence after the push, before the parked-mask
        // scan in wake_one — the producer half of the wakeup invariant.
        fence(Ordering::SeqCst);
        self.sched.wake_one();
    }

    /// Publishes one new task *for the pool* rather than for this worker:
    /// while any peer is parked the task goes to the global injector
    /// (where the woken peer finds it immediately, instead of having to
    /// win a steal against this worker's own pops); otherwise it lands on
    /// the own deque like [`WorkerHandle::push`]. This is the overflow
    /// path the searcher's mid-run spawn hook uses: deferred branches
    /// become pool-wide work the moment anyone is idle.
    fn push_overflow(&self, task: T) {
        self.sched.count_in(1);
        if self.any_parked() {
            self.sched.injector.push(task);
        } else {
            self.ctx.deque.push(task);
        }
        // ordering: SeqCst fence after the push, before the parked-mask
        // scan in wake_one — the producer half of the wakeup invariant.
        fence(Ordering::SeqCst);
        self.sched.wake_one();
    }

    /// Counts one task (or construction token) out; see
    /// [`Scheduler::count_out`].
    fn count_out(&self) {
        self.sched.count_out();
    }
}

impl<T> WorkerHandle<'_, T> {
    /// One full find sweep: own deque (LIFO, cache-warm), then the global
    /// injector (batched: spare tasks land on the own deque), then every
    /// peer in [`steal_order`].
    fn find(&self) -> Option<T> {
        if let Some(t) = self.pop() {
            return Some(t);
        }
        loop {
            match self.sched.injector.steal_batch_and_pop(&self.ctx.deque) {
                Steal::Success(t) => {
                    SchedMetrics::bump(&self.sched.metrics.injector_steals);
                    return Some(t);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        for victim in steal_order(self.ctx.wid, self.sched.stealers.len()) {
            // Bounded retries per victim: a CAS-contended victim must not
            // pin this thief while other deques sit full; the outer idle
            // loop sweeps again.
            for _ in 0..8 {
                match self.sched.stealers[victim].steal() {
                    Steal::Success(t) => {
                        SchedMetrics::bump(&self.sched.metrics.steals);
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Whether any worker (possibly this one, mid-idle-loop) has its
    /// parked bit set. A routing hint for [`WorkerHandle::push_overflow`];
    /// correctness never depends on it.
    fn any_parked(&self) -> bool {
        // ordering: hint only — a stale read routes a task to the deque
        // instead of the injector (or vice versa); wake_one's own fencing
        // still guarantees the wakeup itself.
        self.sched
            .parked
            .iter()
            // ordering: routing hint only; see the method comment above.
            .any(|w| w.load(Ordering::Relaxed) != 0)
    }

    fn mask_slot(&self) -> (&AtomicU64, u64) {
        (
            &self.sched.parked[self.ctx.wid / 64],
            1u64 << (self.ctx.wid % 64),
        )
    }

    /// Clears the own parked bit (idempotent — a producer's CAS may have
    /// cleared it already while handing out the wakeup).
    fn clear_parked(&self) {
        let (word, bit) = self.mask_slot();
        // ordering: SeqCst RMW keeps the clear in the same total order as
        // the set and the producers' CAS — the owner's next bit-set must
        // not be reorderable ahead of this clear.
        word.fetch_and(!bit, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn config(workers: usize) -> SchedConfig {
        SchedConfig {
            workers,
            hook: None,
            metrics: None,
        }
    }

    #[test]
    fn drains_injected_tasks_to_termination() {
        let (sched, ctxs) = Scheduler::<u32>::new(config(3));
        for i in 0..100 {
            sched.inject(i);
        }
        let ran = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for ctx in ctxs {
                let sched = &sched;
                let ran = &ran;
                scope.spawn(move || {
                    let h = ctx.attach(sched);
                    while let Some(_t) = h.next() {
                        // ordering: test counter; assertions run after join.
                        ran.fetch_add(1, Ordering::Relaxed);
                        h.count_out();
                    }
                });
            }
        });
        // ordering: read after the scope joined every worker.
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn children_pushed_mid_task_all_run() {
        // Each injected root spawns a binary tree of depth 6 through the
        // worker push path: 2^7 - 1 tasks per root.
        let (sched, ctxs) = Scheduler::<u32>::new(config(4));
        for _ in 0..8 {
            sched.inject(0);
        }
        let ran = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for ctx in ctxs {
                let sched = &sched;
                let ran = &ran;
                scope.spawn(move || {
                    let h = ctx.attach(sched);
                    while let Some(depth) = h.next() {
                        // ordering: test counter; assertions run after join.
                        ran.fetch_add(1, Ordering::Relaxed);
                        if depth < 6 {
                            h.push(depth + 1);
                            h.push_overflow(depth + 1);
                        }
                        h.count_out();
                    }
                });
            }
        });
        // ordering: read after the scope joined every worker.
        assert_eq!(ran.load(Ordering::Relaxed), 8 * 127);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn hook_sees_lifecycle_in_order_per_worker() {
        let (tx, rx) = mpsc::channel();
        let hook: SchedHook = Arc::new(move |ev| {
            let _ = tx.send(ev);
        });
        let (sched, ctxs) = Scheduler::<u32>::new(SchedConfig {
            workers: 1,
            hook: Some(hook),
            metrics: None,
        });
        sched.inject(7);
        std::thread::scope(|scope| {
            for ctx in ctxs {
                let sched = &sched;
                scope.spawn(move || {
                    let h = ctx.attach(sched);
                    while let Some(_t) = h.next() {
                        h.count_out();
                    }
                });
            }
        });
        let events: Vec<SchedEvent> = rx.try_iter().collect();
        assert_eq!(events.first(), Some(&SchedEvent::Registered(0)));
        assert_eq!(events.last(), Some(&SchedEvent::Exiting(0)));
        // With one task pre-injected the single worker never needs to park.
        assert!(!events.contains(&SchedEvent::Parking(0)));
    }

    #[test]
    fn metrics_count_parks_and_steals() {
        let metrics = Arc::new(SchedMetrics::default());
        let (sched, ctxs) = Scheduler::<u32>::new(SchedConfig {
            workers: 2,
            hook: None,
            metrics: Some(metrics.clone()),
        });
        for i in 0..50 {
            sched.inject(i);
        }
        std::thread::scope(|scope| {
            for ctx in ctxs {
                let sched = &sched;
                scope.spawn(move || {
                    let h = ctx.attach(sched);
                    while let Some(_t) = h.next() {
                        h.count_out();
                    }
                });
            }
        });
        assert!(metrics.injector_steals() > 0);
        assert_eq!(metrics.parks(), metrics.unparks());
    }

    #[test]
    fn steal_order_rotation_spreads_thieves() {
        let orders: Vec<Vec<usize>> = (0..4).map(|w| steal_order(w, 4).collect()).collect();
        // A pure rotation, so first victims differ.
        let firsts: Vec<usize> = orders.iter().map(|o| o[0]).collect();
        assert_eq!(firsts, vec![1, 2, 3, 0]);
        // Every worker sees every other exactly once.
        for (w, o) in orders.iter().enumerate() {
            let mut all = o.clone();
            all.push(w);
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3]);
        }
        assert_eq!(steal_order(0, 1).count(), 0);
    }

    #[test]
    fn wake_one_hands_each_sleeper_out_once() {
        // Directly exercise the mask handshake: set two bits, wake twice,
        // both bits must clear and both parkers hold a token.
        let (sched, ctxs) = Scheduler::<u32>::new(config(2));
        // ordering: single-threaded test setup; SeqCst to mirror the
        // protocol's real sites.
        sched.parked[0].fetch_or(0b11, Ordering::SeqCst);
        sched.wake_one();
        sched.wake_one();
        // ordering: single-threaded test readback.
        assert_eq!(sched.parked[0].load(Ordering::SeqCst), 0);
        // A third wake with nobody parked is a no-op.
        sched.wake_one();
        for ctx in &ctxs {
            // Banked tokens: park returns immediately instead of hanging.
            ctx.parker.park();
        }
    }
}
