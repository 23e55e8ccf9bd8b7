//! The parallel engine: seeds pulled on demand by idle workers.

use crate::sched::{SchedConfig, SchedHook, SchedMetrics, Scheduler, WorkerHandle};
use kplex_core::enumerate::{prepare, MapSink};
use kplex_core::{
    collect_subtasks, AlgoConfig, CollectSink, CountSink, PairMatrix, Params, PlexSink, Prepared,
    SavedTask, SearchStats, Searcher, SeedBuilder, SeedGraph, SinkFlow, XOUT_FLAG,
};
use kplex_graph::{GraphStore, VertexId};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Knobs of the parallel engine.
#[derive(Clone)]
pub struct EngineOptions {
    /// Number of worker threads `M`.
    pub threads: usize,
    /// Straggler timeout `τ_time`; tasks running longer re-queue their
    /// remaining branches. `None` disables splitting (ListPlex/FP style).
    /// Ignored with one worker: there is no peer to take split work, so a
    /// split would only re-queue branches on the same deque and make the
    /// emission order depend on timing.
    pub timeout: Option<Duration>,
    /// Build every seed subgraph up-front on one thread before any task
    /// runs — the behaviour of parallel FP that the paper identifies as its
    /// bottleneck. When false (default), an idle worker builds the next
    /// seed itself (see [`run_parallel_prepared`]).
    pub serial_construction: bool,
    /// One task per seed with the full two-hop candidate set (FP's layout)
    /// instead of S-sub-tasks.
    pub single_task_per_seed: bool,
    /// Shared cooperative-cancellation flag. When raised (by any thread —
    /// a service cancelling a job, a deadline, a result cap), workers stop
    /// mid-task: the flag is plumbed into every [`Searcher`] (polled inside
    /// the branch recursion and checked on every report) and consulted
    /// before each seed is built and before each dequeued task. The engine
    /// also raises it itself whenever any worker's sink returns
    /// [`SinkFlow::Stop`], so an early-stopping sink halts *all* workers
    /// promptly rather than one.
    pub stop_flag: Option<Arc<AtomicBool>>,
    /// Deterministic-scheduler test seam (see [`crate::sched::SchedHook`]);
    /// `None` in production.
    pub sched_hook: Option<SchedHook>,
    /// Scheduler counter sink. The service passes one long-lived instance
    /// so STATS can report cumulative steal/park counts; `None` counts
    /// into a run-private instance that is dropped with the run.
    pub metrics: Option<Arc<SchedMetrics>>,
}

impl EngineOptions {
    /// Default options for `t` threads with the paper's default timeout
    /// (τ_time = 0.1 ms).
    pub fn with_threads(t: usize) -> Self {
        Self {
            threads: t.max(1),
            timeout: Some(Duration::from_micros(100)),
            serial_construction: false,
            single_task_per_seed: false,
            stop_flag: None,
            sched_hook: None,
            metrics: None,
        }
    }
}

impl std::fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineOptions")
            .field("threads", &self.threads)
            .field("timeout", &self.timeout)
            .field("serial_construction", &self.serial_construction)
            .field("single_task_per_seed", &self.single_task_per_seed)
            .field("stop_flag", &self.stop_flag)
            .field("sched_hook", &self.sched_hook.as_ref().map(|_| ".."))
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// One seed's shared state. Every task on the seed — its initial sub-tasks
/// and their timeout-split children alike — holds an `Arc` of it, as does
/// a worker's searcher while it runs them, so the slot is freed with the
/// seed's last task.
struct Slot {
    seed: SeedGraph,
    pairs: Option<PairMatrix>,
}

/// A unit of work: a branch ⟨P, C, X⟩ on a slot's seed subgraph. The
/// snapshot is a single-buffer POD ([`SavedTask`]), so queueing, stealing
/// and re-queueing a task moves one allocation, never three.
struct Task {
    slot: Arc<Slot>,
    snap: SavedTask,
}

/// Counts maximal k-plexes in parallel. Returns the count and merged stats.
/// Accepts any [`GraphStore`] backend, same as the serial entry points.
pub fn par_enumerate_count<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    cfg: &AlgoConfig,
    opts: &EngineOptions,
) -> (u64, SearchStats) {
    let (sinks, stats) = run_parallel(g, params, cfg, opts, CountSink::default);
    (sinks.into_iter().map(|s| s.count).sum(), stats)
}

/// Collects all maximal k-plexes in parallel, in canonical sorted order.
pub fn par_enumerate_collect<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    cfg: &AlgoConfig,
    opts: &EngineOptions,
) -> (Vec<Vec<VertexId>>, SearchStats) {
    let (sinks, stats) = run_parallel(g, params, cfg, opts, CollectSink::default);
    let mut all: Vec<Vec<VertexId>> = sinks.into_iter().flat_map(|s| s.plexes).collect();
    all.sort();
    (all, stats)
}

/// The generic engine: one sink per worker, merged stats.
pub fn run_parallel<G, S, F>(
    g: &G,
    params: Params,
    cfg: &AlgoConfig,
    opts: &EngineOptions,
    make_sink: F,
) -> (Vec<S>, SearchStats)
where
    G: GraphStore + ?Sized,
    S: PlexSink + Send,
    F: Fn() -> S + Sync,
{
    let prep = prepare(g, params);
    run_parallel_prepared(&prep, params, cfg, opts, make_sink)
}

/// The engine over an already [`prepare`]d problem. Long-lived callers (the
/// service front-end) cache the `Prepared` value — the expensive load +
/// (q−k)-core reduction + degeneracy ordering — and re-enter the engine once
/// per job; `prep` must have been built with the same `q − k` as `params`.
///
/// Seeds are built on demand: a worker whose own deque runs dry takes the
/// next vertex off a shared cursor, builds its seed and runs its sub-tasks
/// (see `run_stage`), so the first result does not wait for the other
/// seeds and only a few seeds are alive at once. The cursor walks the
/// degeneracy order backwards: the densest seeds, where plexes of at least
/// `q` vertices live, come first. [`EngineOptions::serial_construction`]
/// instead builds every seed on the calling thread, in degeneracy order,
/// before any task runs.
pub fn run_parallel_prepared<S, F>(
    prep: &Prepared,
    params: Params,
    cfg: &AlgoConfig,
    opts: &EngineOptions,
    make_sink: F,
) -> (Vec<S>, SearchStats)
where
    S: PlexSink + Send,
    F: Fn() -> S + Sync,
{
    let m = opts.threads.max(1);
    let stop = opts
        .stop_flag
        .clone()
        .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
    let n = prep.graph.num_vertices();
    let mut total = SearchStats::default();
    let mut sinks: Vec<S> = (0..m).map(|_| make_sink()).collect();
    if n < params.q {
        return (sinks, total);
    }
    let mut stage = Stage {
        prep,
        seeds: &prep.decomp.order,
        cursor: AtomicUsize::new(0),
        params,
        cfg,
        opts,
        stop,
    };
    let mut injected = Vec::new();
    if opts.serial_construction {
        // FP-style: build every slot up front on this thread and inject its
        // tasks; the workers then find no seed left to pull and only drain
        // the injector.
        let mut builder = SeedBuilder::new(n);
        for &v in stage.seeds {
            if stage.stop.load(Ordering::Acquire) {
                break;
            }
            if let Some(slot) = stage.build_slot(&mut builder, v, &mut total) {
                for snap in stage.initial_snaps(&slot, &mut total) {
                    let slot = Arc::clone(&slot);
                    injected.push(Task { slot, snap });
                }
            }
        }
        stage.seeds = &[];
    }
    total.merge(&run_stage(&stage, injected, &mut sinks));
    (sinks, total)
}

/// What every worker of one run shares.
struct Stage<'r> {
    prep: &'r Prepared,
    /// Seed vertices to build, handed out one at a time by `cursor`, last
    /// first.
    seeds: &'r [VertexId],
    cursor: AtomicUsize,
    params: Params,
    cfg: &'r AlgoConfig,
    opts: &'r EngineOptions,
    stop: Arc<AtomicBool>,
}

/// Runs the enumeration on the work-stealing scheduler ([`crate::sched`]),
/// one worker per sink.
///
/// A worker finds work in this order: its own deque (LIFO); then, while
/// the shared cursor over `stage.seeds` has vertices left, the next vertex,
/// whose seed it builds and whose sub-tasks it pushes onto its own deque;
/// then the global injector and peer steals, parking while neither has
/// work. Each worker holds a *construction token* in the scheduler's
/// `pending` count until it finds the cursor exhausted (or the stop flag
/// raised), so the run cannot terminate while a seed may still be built,
/// and no worker parks while it could build one. Split children go to the
/// injector only while some worker is parked, so the injector stays empty
/// while the cursor is live and the pull may as well come before it.
/// `injected` tasks (the pre-built seeds of
/// [`EngineOptions::serial_construction`]) start in the injector, where
/// workers spread them via batched steals.
fn run_stage<S: PlexSink + Send>(
    stage: &Stage<'_>,
    injected: Vec<Task>,
    sinks: &mut [S],
) -> SearchStats {
    let m = sinks.len();
    let (sched, ctxs) = Scheduler::new(SchedConfig {
        workers: m,
        hook: stage.opts.sched_hook.clone(),
        metrics: stage.opts.metrics.clone(),
    });
    for t in injected {
        sched.inject(t);
    }
    // One construction token per worker (see above).
    sched.count_in(m);

    let mut worker_stats: Vec<SearchStats> = (0..m).map(|_| SearchStats::default()).collect();
    std::thread::scope(|scope| {
        let sched = &sched;
        let mut join_handles = Vec::new();
        for ((ctx, sink), wstats) in ctxs
            .into_iter()
            .zip(sinks.iter_mut())
            .zip(worker_stats.iter_mut())
        {
            join_handles.push(scope.spawn(move || {
                let handle = ctx.attach(sched);
                stage.work(&handle, sink, wstats);
            }));
        }
        for h in join_handles {
            h.join().expect("worker panicked");
        }
    });

    let mut merged = SearchStats::default();
    for ws in &worker_stats {
        merged.merge(ws);
    }
    merged
}

impl Stage<'_> {
    /// One worker's loop. Consecutive tasks on one seed share a searcher,
    /// which keeps the seed's slot alive; the run of tasks ends at the
    /// first task on another seed or when the own deque is empty, so the
    /// slot is released before the worker builds its next seed.
    fn work<S: PlexSink>(
        &self,
        handle: &WorkerHandle<'_, Task>,
        sink: &mut S,
        stats: &mut SearchStats,
    ) {
        let mut sink = MapSink::new(sink, &self.prep.map);
        // `Some` while this worker holds its construction token.
        let mut builder = Some(SeedBuilder::new(self.prep.graph.num_vertices()));
        let mut carry = None;
        while let Some(first) = self.fetch(handle, &mut builder, carry.take(), stats) {
            let slot = Arc::clone(&first.slot);
            let mut searcher = self.searcher(&slot, handle);
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
                handle.count_out();
                if self.stop.load(Ordering::Acquire) {
                    break; // `fetch` drains the rest unrun
                }
                match handle.pop() {
                    Some(t) if Arc::ptr_eq(&t.slot, &slot) => next = Some(t),
                    other => carry = other,
                }
            }
            stats.merge(&searcher.stats);
        }
    }

    /// The next task to run, or `None` once the run has terminated: the
    /// carried-over task, else the own deque, else a freshly pulled seed's
    /// first sub-task, else — with the construction token released — the
    /// scheduler's injector and peer steals, parking while there is none.
    /// While the stop flag is raised, tasks are counted out unrun, so
    /// `pending` still reaches 0 exactly and parked workers get their final
    /// wake.
    fn fetch(
        &self,
        handle: &WorkerHandle<'_, Task>,
        builder: &mut Option<SeedBuilder>,
        mut carry: Option<Task>,
        stats: &mut SearchStats,
    ) -> Option<Task> {
        loop {
            let task = if let Some(t) = carry.take().or_else(|| handle.pop()) {
                t
            } else if let Some(b) = builder {
                if !self.pull(b, handle, stats) {
                    *builder = None;
                    handle.count_out(); // the construction token
                }
                continue;
            } else {
                handle.next()?
            };
            if !self.stop.load(Ordering::Acquire) {
                return Some(task);
            }
            drop(task);
            handle.count_out();
        }
    }

    /// Takes vertices off the cursor until one builds a seed with at least
    /// one initial task, and pushes its tasks onto the own deque so that
    /// they pop in sub-task order. Returns false once the cursor is
    /// exhausted or the stop flag is raised.
    fn pull(
        &self,
        builder: &mut SeedBuilder,
        handle: &WorkerHandle<'_, Task>,
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
                handle.push(Task { slot, snap });
            }
            return true;
        }
        false
    }

    /// A searcher over `slot`'s seed. Its spawn hook publishes deferred
    /// branches (timeout splits) mid-task: while peers are parked they
    /// overflow to the global injector and wake one, so a straggler's
    /// spill-off is picked up while the straggler is still running. Each
    /// child holds the slot like its parent.
    fn searcher<'a>(
        &'a self,
        slot: &'a Arc<Slot>,
        handle: &'a WorkerHandle<'_, Task>,
    ) -> Searcher<'a> {
        let mut s = Searcher::new(&slot.seed, self.params, self.cfg, slot.pairs.as_ref());
        // With one worker a split would only re-queue branches on the same
        // deque (see `EngineOptions::timeout`).
        s.set_time_budget(self.opts.timeout.filter(|_| self.opts.threads > 1));
        s.set_stop_flag(Some(self.stop.clone()));
        s.set_spawn_hook(Some(Box::new(move |snap| {
            let slot = Arc::clone(slot);
            handle.push_overflow(Task { slot, snap });
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

    /// The initial task snapshots of one slot, accumulating sub-task
    /// counters (generated / R1-pruned) into `stats`.
    fn initial_snaps(&self, slot: &Slot, stats: &mut SearchStats) -> Vec<SavedTask> {
        let seed = &slot.seed;
        if self.opts.single_task_per_seed {
            stats.subtasks += 1;
            let c: Vec<u32> = (1..seed.len() as u32).collect();
            let x: Vec<u32> = (0..seed.xout.len() as u32).map(|i| i | XOUT_FLAG).collect();
            return vec![SavedTask::new(&[0], &c, &x)];
        }
        collect_subtasks(seed, self.params, self.cfg, slot.pairs.as_ref(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplex_core::{enumerate_collect, FirstN};
    use kplex_graph::{gen, CsrGraph};
    use std::sync::atomic::AtomicU64;

    fn check_parallel_matches_serial(g: &CsrGraph, k: usize, q: usize, opts: &EngineOptions) {
        let params = Params::new(k, q).unwrap();
        let cfg = AlgoConfig::ours();
        let (serial, _) = enumerate_collect(g, params, &cfg);
        let (par, _) = par_enumerate_collect(g, params, &cfg, opts);
        assert_eq!(par, serial);
    }

    #[test]
    fn two_threads_match_serial() {
        let g = gen::gnp(40, 0.3, 5);
        check_parallel_matches_serial(&g, 2, 4, &EngineOptions::with_threads(2));
    }

    #[test]
    fn four_threads_match_serial_on_clustered_graph() {
        let g = gen::powerlaw_cluster(200, 5, 0.7, 8);
        check_parallel_matches_serial(&g, 3, 6, &EngineOptions::with_threads(4));
    }

    #[test]
    fn tiny_timeout_still_correct() {
        // A 0ns timeout forces maximal task splitting; results must not
        // change, only the split count.
        let g = gen::powerlaw_cluster(120, 5, 0.7, 3);
        let params = Params::new(2, 5).unwrap();
        let cfg = AlgoConfig::ours();
        let (serial, _) = enumerate_collect(&g, params, &cfg);
        let mut opts = EngineOptions::with_threads(3);
        opts.timeout = Some(Duration::from_nanos(0));
        let (par, stats) = par_enumerate_collect(&g, params, &cfg, &opts);
        assert_eq!(par, serial);
        assert!(stats.timeout_splits > 0, "expected task splitting");
    }

    #[test]
    fn tiny_timeout_still_correct_on_deep_planted_plexes() {
        // Large planted plexes make the search tree deep, so a 0ns timeout
        // produces long defer → re-queue → defer chains: every branch of the
        // plex-sized subtree goes through a SavedTask at least once. This is
        // the worst case for the save path (the legacy kernel re-cloned the
        // O(depth) plex vector per save, O(depth²) per chain; the arena
        // kernel snapshots it into one buffer per save).
        // A dense background keeps the (q−k)-core alive around the plexes,
        // so the searcher genuinely branches instead of terminating on the
        // whole-set shortcut.
        let bg = gen::gnm(150, 1100, 17);
        let plant = gen::PlantedPlexConfig {
            count: 3,
            size_lo: 12,
            size_hi: 14,
            missing: 1,
            overlap: true,
        };
        let (g, _) = gen::planted_plexes(&bg, &plant, 23);
        let params = Params::new(2, 8).unwrap();
        let cfg = AlgoConfig::ours();
        let (serial, serial_stats) = enumerate_collect(&g, params, &cfg);
        assert!(!serial.is_empty(), "planted instance must have results");
        assert!(
            serial_stats.branch_calls > serial_stats.subtasks,
            "instance must actually recurse (got {} branches over {} tasks)",
            serial_stats.branch_calls,
            serial_stats.subtasks
        );
        let mut opts = EngineOptions::with_threads(4);
        opts.timeout = Some(Duration::from_nanos(0));
        let (par, stats) = par_enumerate_collect(&g, params, &cfg, &opts);
        assert_eq!(par, serial);
        assert!(stats.timeout_splits > 0, "expected task splitting");
        // Deferral is transparent: the re-run branches re-tighten, so the
        // total outputs stay exactly the serial ones.
        assert_eq!(stats.outputs, serial_stats.outputs);
    }

    #[test]
    fn no_timeout_matches_serial() {
        let g = gen::gnp(50, 0.3, 9);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let (serial, _) = enumerate_collect(&g, params, &cfg);
        let mut opts = EngineOptions::with_threads(4);
        opts.timeout = None;
        let (par, stats) = par_enumerate_collect(&g, params, &cfg, &opts);
        assert_eq!(par, serial);
        assert_eq!(stats.timeout_splits, 0);
    }

    #[test]
    fn fp_layout_parallel_matches() {
        let g = gen::gnp(40, 0.3, 11);
        let params = Params::new(2, 4).unwrap();
        let fp_cfg = kplex_baselines::fp_config();
        let mut sink = CollectSink::default();
        kplex_baselines::enumerate_fp(&g, params, &mut sink);
        let serial = sink.into_sorted();
        let opts = EngineOptions {
            timeout: None,
            serial_construction: true,
            single_task_per_seed: true,
            ..EngineOptions::with_threads(3)
        };
        let (par, _) = par_enumerate_collect(&g, params, &fp_cfg, &opts);
        assert_eq!(par, serial);
    }

    #[test]
    fn single_thread_engine_equals_serial_stats_outputs() {
        let g = gen::gnp(30, 0.35, 2);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let (serial, s1) = enumerate_collect(&g, params, &cfg);
        let mut opts = EngineOptions::with_threads(1);
        opts.timeout = None;
        let (par, s2) = par_enumerate_collect(&g, params, &cfg, &opts);
        assert_eq!(par, serial);
        assert_eq!(s1.outputs, s2.outputs);
        assert_eq!(s1.subtasks, s2.subtasks);
    }

    /// Sink enforcing a *global* result cap across all workers.
    struct CapSink {
        seen: Arc<AtomicU64>,
        cap: u64,
        mine: u64,
    }

    impl PlexSink for CapSink {
        fn report(&mut self, _vertices: &[VertexId]) -> SinkFlow {
            self.mine += 1;
            // ordering: approximate global cap in a test sink; overshoot by
            // a few results is tolerated by the assertions.
            if self.seen.fetch_add(1, Ordering::Relaxed) + 1 >= self.cap {
                SinkFlow::Stop
            } else {
                SinkFlow::Continue
            }
        }
    }

    /// A deep planted instance whose serial search does real branching work.
    fn deep_instance() -> (CsrGraph, Params) {
        let bg = gen::gnm(150, 1100, 17);
        let plant = gen::PlantedPlexConfig {
            count: 3,
            size_lo: 12,
            size_hi: 14,
            missing: 1,
            overlap: true,
        };
        let (g, _) = gen::planted_plexes(&bg, &plant, 23);
        (g, Params::new(2, 8).unwrap())
    }

    #[test]
    fn result_cap_stops_all_workers_promptly() {
        // A dense random graph with sparse results: ~18k serial branch
        // calls for 185 results, so each of the 4 workers has ~70 stop
        // strides (64 recursions each) of work. How many tasks happen to
        // be in flight when the cap is hit then moves the capped run's
        // work by a few strides at most, never near half the serial work.
        let g = gen::gnp(50, 0.6, 5);
        let params = Params::new(2, 11).unwrap();
        let cfg = AlgoConfig::ours();
        let (_, serial_stats) = enumerate_collect(&g, params, &cfg);
        assert!(serial_stats.outputs > 4, "instance must have results");
        let m = 4;
        assert!(
            serial_stats.branch_calls > 50 * 64 * m as u64,
            "instance too small to measure promptness: {} serial branch calls",
            serial_stats.branch_calls
        );
        let mut opts = EngineOptions::with_threads(m);
        opts.timeout = None; // tasks are whole subtrees: stop must land *inside* them
        let seen = Arc::new(AtomicU64::new(0));
        let cap = 1u64;
        let (sinks, stats) = run_parallel(&g, params, &cfg, &opts, || CapSink {
            seen: seen.clone(),
            cap,
            mine: 0,
        });
        let total: u64 = sinks.iter().map(|s| s.mine).sum();
        // The cap plus at most one in-flight report per worker.
        assert!(total >= cap, "the cap itself must be reached");
        assert!(
            total <= cap + m as u64,
            "stop did not propagate across workers: {total} results for cap {cap}"
        );
        // Promptness: once the cap is hit, every worker stops within a
        // stop stride, at its next report or before its next task, so the
        // capped run does a small fraction of the full work.
        assert!(
            stats.branch_calls < serial_stats.branch_calls / 2,
            "workers kept searching after the cap: {} vs serial {}",
            stats.branch_calls,
            serial_stats.branch_calls
        );
    }

    #[test]
    fn pre_raised_stop_flag_yields_nothing() {
        let (g, params) = deep_instance();
        let cfg = AlgoConfig::ours();
        let mut opts = EngineOptions::with_threads(3);
        opts.stop_flag = Some(Arc::new(AtomicBool::new(true)));
        let (count, stats) = par_enumerate_count(&g, params, &cfg, &opts);
        assert_eq!(count, 0);
        assert_eq!(stats.seed_graphs, 0, "construction must be skipped");
    }

    #[test]
    fn channel_sink_cancel_mid_run_stops_early() {
        // Many results (low q) plus a paced sink: the full run would take
        // >> the drainer's reaction time, so the cancel cannot lose the
        // race even on a loaded machine.
        let g = gen::gnp(60, 0.5, 21);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let (serial, _) = enumerate_collect(&g, params, &cfg);
        assert!(serial.len() > 1000, "need a large result set");
        let flag = Arc::new(AtomicBool::new(false));
        let mut opts = EngineOptions::with_threads(4);
        opts.stop_flag = Some(flag.clone());
        let (tx, rx) = std::sync::mpsc::channel::<Vec<VertexId>>();
        let drainer = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                let mut received = 0u64;
                while rx.recv().is_ok() {
                    received += 1;
                    flag.store(true, Ordering::Release);
                }
                received
            })
        };
        // Each worker's sink sleeps briefly per report, so the cancel
        // reliably lands mid-run, and sends nothing once the flag is up.
        let (_, stats) = run_parallel(&g, params, &cfg, &opts, || {
            let (tx, flag) = (tx.clone(), flag.clone());
            kplex_core::FnSink(move |vertices: &[VertexId]| {
                std::thread::sleep(Duration::from_micros(200));
                // ordering: the flag is a latch polled as a hint; the
                // channel send carries the delivered results.
                if flag.load(Ordering::Relaxed) || tx.send(vertices.to_vec()).is_err() {
                    SinkFlow::Stop
                } else {
                    SinkFlow::Continue
                }
            })
        });
        drop(tx);
        let received = drainer.join().expect("drainer panicked");
        assert!(
            received >= 1,
            "cancellation raced ahead of the first result"
        );
        assert!(
            (received as usize) < serial.len(),
            "cancel mid-run did not stop the engine early"
        );
        // The sink re-checks the flag after the kernel counted the output, so
        // a report can be counted but dropped — never the other way round.
        assert!(stats.outputs >= received, "streamed more than was reported");
    }

    #[test]
    fn prepared_reuse_matches_fresh_runs() {
        let g = gen::powerlaw_cluster(150, 4, 0.6, 7);
        let params = Params::new(2, 5).unwrap();
        let cfg = AlgoConfig::ours();
        let opts = EngineOptions::with_threads(3);
        let (reference, _) = par_enumerate_count(&g, params, &cfg, &opts);
        let prep = kplex_core::prepare(&g, params);
        for _ in 0..3 {
            let (sinks, _) = run_parallel_prepared(&prep, params, &cfg, &opts, CountSink::default);
            let count: u64 = sinks.iter().map(|s| s.count).sum();
            assert_eq!(
                count, reference,
                "re-entering on a cached Prepared diverged"
            );
        }
    }

    #[test]
    fn count_and_collect_agree() {
        let g = gen::powerlaw_cluster(150, 4, 0.6, 7);
        let params = Params::new(2, 5).unwrap();
        let cfg = AlgoConfig::ours();
        let opts = EngineOptions::with_threads(4);
        let (count, _) = par_enumerate_count(&g, params, &cfg, &opts);
        let (collected, _) = par_enumerate_collect(&g, params, &cfg, &opts);
        assert_eq!(count as usize, collected.len());
    }

    #[test]
    fn first_result_does_not_wait_for_the_other_seeds() {
        // A worker builds a seed only when it runs out of work, so a run
        // capped at one result builds the seeds up to its first result, not
        // every seed of the graph. Counted, not timed.
        let g = gen::powerlaw_cluster(200, 5, 0.7, 8);
        let params = Params::new(3, 6).unwrap();
        let cfg = AlgoConfig::ours();
        // The sequential driver, which walks seeds in the engine's pull
        // order (degeneracy order, last first), stopped at its first result.
        let mut first = FirstN::new(1);
        let serial = kplex_core::enumerate(&g, params, &cfg, &mut first);
        assert_eq!(first.plexes.len(), 1, "instance must have results");
        let (_, full) = par_enumerate_count(&g, params, &cfg, &EngineOptions::with_threads(2));
        let capped_seeds = |threads: usize| {
            let seen = Arc::new(AtomicU64::new(0));
            let opts = EngineOptions::with_threads(threads);
            let (_, stats) = run_parallel(&g, params, &cfg, &opts, || CapSink {
                seen: seen.clone(),
                cap: 1,
                mine: 0,
            });
            stats.seed_graphs
        };
        assert_eq!(capped_seeds(1), serial.seed_graphs);
        let two = capped_seeds(2);
        assert!(
            two < full.seed_graphs / 2,
            "2 workers built {two} of {} seeds for one result",
            full.seed_graphs
        );
    }

    #[test]
    fn one_worker_emits_the_sequential_drivers_sequence() {
        // `enumerate` walks seeds last-first, the order the engine's
        // cursor hands them out, and one worker runs each seed's sub-tasks
        // in `run_seed`'s order: the two emit the same unsorted sequence.
        let g = gen::powerlaw_cluster(200, 5, 0.7, 8);
        let params = Params::new(3, 6).unwrap();
        let cfg = AlgoConfig::ours();
        let mut serial = CollectSink::default();
        kplex_core::enumerate(&g, params, &cfg, &mut serial);
        let opts = EngineOptions::with_threads(1);
        let (mut sinks, _) = run_parallel(&g, params, &cfg, &opts, CollectSink::default);
        let engine = sinks.pop().expect("one sink").plexes;
        assert!(serial.plexes.len() > 1, "instance must have results");
        assert_eq!(engine, serial.plexes);
    }

    #[test]
    fn one_worker_never_splits_and_repeats_its_order() {
        // Default options arm τ, but one worker has no peer to hand split
        // work to: the engine leaves the budget unset, so a 1-thread run
        // (every kplexd job with threads=1) emits the same sequence every
        // time, which resume-by-seq across a re-run relies on.
        // Dense with few results: its tasks outlast τ = 100 µs, so a worker
        // that armed τ would split them.
        let g = gen::gnp(50, 0.6, 5);
        let params = Params::new(2, 11).unwrap();
        let cfg = AlgoConfig::ours();
        let opts = EngineOptions::with_threads(1);
        assert!(opts.timeout.is_some(), "default options arm τ");
        let emitted = || {
            let (mut sinks, stats) = run_parallel(&g, params, &cfg, &opts, CollectSink::default);
            assert_eq!(stats.timeout_splits, 0, "one worker split its tasks");
            sinks.pop().expect("one sink").plexes
        };
        let (a, b) = (emitted(), emitted());
        assert!(!a.is_empty(), "instance must have results");
        assert_eq!(a, b, "two 1-thread runs emitted different sequences");
    }
}
