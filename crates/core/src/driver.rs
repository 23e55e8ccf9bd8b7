//! The one seed loop (Algorithm 2), run by [`crate::enumerate()`] on the
//! caller's thread and by every worker of the parallel engine
//! (`kplex-parallel`, Section 6).
//!
//! A [`Driver`] hands seed vertices out through one shared cursor, in
//! degeneracy order, last first: the dense core, where plexes of at least
//! `q` vertices live, comes first. A worker whose own queue is empty takes
//! the next vertex, builds its seed subgraph, splits it into initial tasks
//! (the configuration's [`TaskLayout`]) and pushes them onto its own queue,
//! so the first result does not wait for the other seeds and only a few
//! seeds are alive at once. Every task holds its seed, so a seed is freed
//! with its last task.
//!
//! The loop is written against [`TaskQueue`], the five calls a worker makes
//! on its queue. A run on one thread uses a stack on the caller's thread;
//! the engine gives each of its workers a handle on its work-stealing
//! scheduler.

use crate::branch::{SavedTask, Searcher};
use crate::config::{AlgoConfig, Params, TaskLayout};
use crate::enumerate::{MapSink, Prepared};
use crate::pairs::PairMatrix;
use crate::seed::{SeedBuilder, SeedGraph, XOUT_FLAG};
use crate::sink::{PlexSink, SinkFlow};
use crate::stats::SearchStats;
use crate::subtask::collect_subtasks;
use kplex_graph::{GraphStore, VertexId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The five calls a [`Driver`] loop makes on its worker's queue. All take
/// `&self`, so a searcher's spawn hook can hold a shared borrow while the
/// loop keeps driving the queue.
///
/// Termination is counted: a pushed task is counted in by the push and out
/// by the loop once it has run or dropped it, and each worker holds one
/// construction token, counted out once the seed cursor is exhausted.
pub trait TaskQueue<T> {
    /// Publishes a task on this worker's own queue, where it pops next.
    fn push(&self, task: T);
    /// Pops the newest task off this worker's own queue, without looking
    /// anywhere else and without waiting.
    fn pop(&self) -> Option<T>;
    /// Publishes a branch split off a running task, for an idle peer if
    /// there is one; by default like [`TaskQueue::push`].
    fn push_overflow(&self, task: T) {
        self.push(task);
    }
    /// The next task from anywhere, waiting while there is none, or `None`
    /// once nothing is counted in.
    fn next(&self) -> Option<T>;
    /// Counts one task, or this worker's construction token, out.
    fn count_out(&self);
}

/// The queue of a run on one thread: a stack on the caller's thread. No
/// other worker can add work, so `next` is `pop` and nothing is counted.
struct LocalStack<T>(RefCell<Vec<T>>);

impl<T> TaskQueue<T> for LocalStack<T> {
    fn push(&self, task: T) {
        self.0.borrow_mut().push(task);
    }

    fn pop(&self) -> Option<T> {
        self.0.borrow_mut().pop()
    }

    fn next(&self) -> Option<T> {
        self.pop()
    }

    fn count_out(&self) {}
}

/// One seed's shared state. Every task on the seed — its initial tasks and
/// their timeout-split children alike — holds an `Arc` of it, as does a
/// worker's searcher while it runs them, so the slot is freed with the
/// seed's last task.
struct Slot {
    seed: SeedGraph,
    pairs: Option<PairMatrix>,
}

/// A unit of work: a branch ⟨P, C, X⟩ on a seed subgraph. The snapshot is
/// a single-buffer POD ([`SavedTask`]), so queueing, stealing and
/// re-queueing a task moves one allocation, never three.
pub struct Task {
    slot: Arc<Slot>,
    snap: SavedTask,
}

/// What every worker of one run shares: the prepared problem, the seed
/// cursor, the configuration and the stop flag.
pub struct Driver<'r> {
    prep: &'r Prepared,
    /// Seed vertices to build, handed out one at a time by `cursor`, last
    /// first.
    seeds: &'r [VertexId],
    cursor: AtomicUsize,
    params: Params,
    cfg: &'r AlgoConfig,
    budget: Option<Duration>,
    stop: Arc<AtomicBool>,
}

impl<'r> Driver<'r> {
    /// A driver over `prep`, built with the same `q − k` as `params`.
    /// `budget` is the straggler timeout τ (`None`: tasks never split).
    /// `stop` stops every worker once raised; a sink returning
    /// [`SinkFlow::Stop`] raises it.
    pub fn new(
        prep: &'r Prepared,
        params: Params,
        cfg: &'r AlgoConfig,
        budget: Option<Duration>,
        stop: Arc<AtomicBool>,
    ) -> Self {
        let seeds: &[VertexId] = if prep.graph.num_vertices() < params.q {
            &[]
        } else {
            &prep.decomp.order
        };
        Self {
            prep,
            seeds,
            cursor: AtomicUsize::new(0),
            params,
            cfg,
            budget,
            stop,
        }
    }

    /// Builds every seed on the calling thread, in degeneracy order, and
    /// returns their initial tasks, leaving no seed for the workers to
    /// build: the serial construction of parallel FP that the paper
    /// identifies as its bottleneck.
    pub fn build_all(&mut self, stats: &mut SearchStats) -> Vec<Task> {
        let mut builder = SeedBuilder::new(self.prep.graph.num_vertices());
        let mut tasks = Vec::new();
        for &v in std::mem::take(&mut self.seeds) {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            if let Some(slot) = self.build_slot(&mut builder, v, stats) {
                for snap in self.initial_snaps(&slot, stats) {
                    let slot = Arc::clone(&slot);
                    tasks.push(Task { slot, snap });
                }
            }
        }
        tasks
    }

    /// Runs the loop on the caller's thread, over a stack that starts with
    /// `tasks` (they run first, in order).
    pub fn run_local(
        &self,
        mut tasks: Vec<Task>,
        sink: &mut dyn PlexSink,
        stats: &mut SearchStats,
    ) {
        tasks.reverse();
        self.work(&LocalStack(RefCell::new(tasks)), sink, stats);
    }

    /// One worker's loop over `queue`. Consecutive tasks on one seed share
    /// a searcher, which keeps the seed's slot alive; the run of tasks ends
    /// at the first task on another seed or when the own queue is empty,
    /// so the slot is released before the worker builds its next seed.
    pub fn work<Q: TaskQueue<Task>>(
        &self,
        queue: &Q,
        sink: &mut dyn PlexSink,
        stats: &mut SearchStats,
    ) {
        let mut sink = MapSink::new(sink, &self.prep.map);
        // `Some` while this worker holds its construction token.
        let mut builder = Some(SeedBuilder::new(self.prep.graph.num_vertices()));
        let mut carry = None;
        while let Some(first) = self.fetch(queue, &mut builder, carry.take(), stats) {
            let slot = Arc::clone(&first.slot);
            let mut searcher = self.searcher(&slot, queue);
            let mut next = Some(first);
            while let Some(task) = next.take() {
                let flow =
                    searcher.run_task(task.snap.p(), task.snap.c(), task.snap.x(), &mut sink);
                if flow == SinkFlow::Stop {
                    // Propagate an early-stopping sink to every worker, not
                    // just this one: siblings observe the flag inside their
                    // own branch recursion (via the searcher's polled
                    // check), before their next task, and before they build
                    // another seed.
                    self.stop.store(true, Ordering::Release);
                }
                // Children were counted in by the spawn hook during
                // run_task, so they precede this count-out in program
                // order — the termination invariant holds.
                queue.count_out();
                if self.stop.load(Ordering::Acquire) {
                    break; // `fetch` drains the rest unrun
                }
                match queue.pop() {
                    Some(t) if Arc::ptr_eq(&t.slot, &slot) => next = Some(t),
                    other => carry = other,
                }
            }
            stats.merge(&searcher.stats);
        }
    }

    /// The next task to run, or `None` once the run has terminated: the
    /// carried-over task, else the own queue, else a freshly pulled seed's
    /// first task, else — with the construction token released — whatever
    /// [`TaskQueue::next`] finds elsewhere. While the stop flag is raised,
    /// tasks are counted out unrun, so the count still reaches 0 exactly.
    fn fetch<Q: TaskQueue<Task>>(
        &self,
        queue: &Q,
        builder: &mut Option<SeedBuilder>,
        mut carry: Option<Task>,
        stats: &mut SearchStats,
    ) -> Option<Task> {
        loop {
            let task = if let Some(t) = carry.take().or_else(|| queue.pop()) {
                t
            } else if let Some(b) = builder {
                if !self.pull(b, queue, stats) {
                    *builder = None;
                    queue.count_out(); // the construction token
                }
                continue;
            } else {
                queue.next()?
            };
            if !self.stop.load(Ordering::Acquire) {
                return Some(task);
            }
            drop(task);
            queue.count_out();
        }
    }

    /// Takes vertices off the cursor until one builds a seed with at least
    /// one initial task, and pushes its tasks onto the own queue so that
    /// they pop in order. Returns false once the cursor is exhausted or the
    /// stop flag is raised.
    fn pull<Q: TaskQueue<Task>>(
        &self,
        builder: &mut SeedBuilder,
        queue: &Q,
        stats: &mut SearchStats,
    ) -> bool {
        while !self.stop.load(Ordering::Acquire) {
            // ordering: the cursor only hands out distinct indices; the
            // vertices it indexes are immutable, so nothing else is
            // published through it.
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&v) = self.seeds.iter().nth_back(i) else {
                return false;
            };
            let Some(slot) = self.build_slot(builder, v, stats) else {
                continue;
            };
            let snaps = self.initial_snaps(&slot, stats);
            if snaps.is_empty() {
                continue;
            }
            for snap in snaps.into_iter().rev() {
                let slot = Arc::clone(&slot);
                queue.push(Task { slot, snap });
            }
            return true;
        }
        false
    }

    /// A searcher over `slot`'s seed. Its spawn hook publishes deferred
    /// branches (timeout splits) mid-task through
    /// [`TaskQueue::push_overflow`], so a straggler's spill-off can be
    /// picked up while the straggler is still running. Each child holds
    /// the slot like its parent.
    fn searcher<'a, Q: TaskQueue<Task>>(
        &'a self,
        slot: &'a Arc<Slot>,
        queue: &'a Q,
    ) -> Searcher<'a> {
        let mut s = Searcher::new(&slot.seed, self.params, self.cfg, slot.pairs.as_ref());
        s.set_time_budget(self.budget);
        s.set_stop_flag(Some(self.stop.clone()));
        s.set_spawn_hook(Some(Box::new(move |snap| {
            let slot = Arc::clone(slot);
            queue.push_overflow(Task { slot, snap });
        })));
        s
    }

    /// Builds the slot of seed vertex `v`, counting it into `stats`, or
    /// `None` when the builder rejects `v`.
    fn build_slot(
        &self,
        builder: &mut SeedBuilder,
        v: VertexId,
        stats: &mut SearchStats,
    ) -> Option<Arc<Slot>> {
        let (prep, params) = (self.prep, self.params);
        let seed = builder.build(&prep.graph, &prep.decomp, v, params, self.cfg)?;
        stats.seed_graphs += 1;
        stats.seed_pruned_vertices += seed.pruned_vertices;
        let pairs = self.cfg.use_r2.then(|| PairMatrix::build(&seed, params));
        Some(Arc::new(Slot { seed, pairs }))
    }

    /// The initial task snapshots of one slot in the configuration's
    /// layout, accumulating sub-task counters (generated / R1-pruned) into
    /// `stats`.
    fn initial_snaps(&self, slot: &Slot, stats: &mut SearchStats) -> Vec<SavedTask> {
        let seed = &slot.seed;
        match self.cfg.task_layout {
            TaskLayout::SubTasks => {
                collect_subtasks(seed, self.params, self.cfg, slot.pairs.as_ref(), stats)
            }
            TaskLayout::WholeSeed => {
                // P = {seed}, C = every other local vertex, X = the outside
                // witnesses.
                stats.subtasks += 1;
                let c: Vec<u32> = (1..seed.len() as u32).collect();
                let x: Vec<u32> = (0..seed.xout.len() as u32).map(|i| i | XOUT_FLAG).collect();
                vec![SavedTask::new(&[0], &c, &x)]
            }
        }
    }
}
