//! The stage-based parallel engine.

use crate::sched::{SchedConfig, SchedHook, SchedMetrics, Scheduler};
use kplex_core::enumerate::{prepare, MapSink};
use kplex_core::{
    collect_subtasks, AlgoConfig, CollectSink, CountSink, PairMatrix, Params, PlexSink, Prepared,
    SavedTask, SearchStats, Searcher, SeedBuilder, SeedGraph, SinkFlow, XOUT_FLAG,
};
use kplex_graph::{GraphStore, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Knobs of the parallel engine.
#[derive(Clone)]
pub struct EngineOptions {
    /// Number of worker threads `M`.
    pub threads: usize,
    /// Straggler timeout `τ_time`; tasks running longer re-queue their
    /// remaining branches. `None` disables splitting (ListPlex/FP style).
    pub timeout: Option<Duration>,
    /// Build every seed subgraph up-front on one thread before any task
    /// runs — the behaviour of parallel FP that the paper identifies as its
    /// bottleneck. When false (default), construction is part of each stage.
    pub serial_construction: bool,
    /// One task per seed with the full two-hop candidate set (FP's layout)
    /// instead of S-sub-tasks.
    pub single_task_per_seed: bool,
    /// Shared cooperative-cancellation flag. When raised (by any thread —
    /// a service cancelling a job, a deadline, a result cap), workers stop
    /// mid-task: the flag is plumbed into every [`Searcher`] (polled inside
    /// the branch recursion and checked on every report) and consulted
    /// before construction and before each dequeued task. The engine also
    /// raises it itself whenever any worker's sink returns
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

/// Per-seed shared state for one stage.
struct Slot {
    seed: SeedGraph,
    pairs: Option<PairMatrix>,
}

/// A unit of work: a branch ⟨P, C, X⟩ on a stage slot's seed subgraph. The
/// snapshot is a single-buffer POD ([`SavedTask`]), so queueing, stealing
/// and re-queueing a task moves one allocation, never three.
struct Task {
    slot: usize,
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

    if opts.serial_construction {
        // FP-style: build every slot up-front, one big stage.
        let mut builder = SeedBuilder::new(n);
        let mut slots = Vec::new();
        for &sv in &prep.decomp.order {
            if stop.load(Ordering::Acquire) {
                break;
            }
            if let Some(seed) = builder.build(&prep.graph, &prep.decomp, sv, params, cfg) {
                total.seed_graphs += 1;
                total.seed_pruned_vertices += seed.pruned_vertices;
                let pairs = cfg.use_r2.then(|| PairMatrix::build(&seed, params));
                slots.push(Slot { seed, pairs });
            }
        }
        let filled: Vec<OnceLock<Slot>> = slots
            .into_iter()
            .map(|s| {
                let cell = OnceLock::new();
                cell.set(s).ok().expect("fresh cell");
                cell
            })
            .collect();
        let stage_stats = run_stage(
            &prep.map, params, cfg, opts, &filled, None, &stop, &mut sinks,
        );
        total.merge(&stage_stats);
        return (sinks, total);
    }

    // Eligibility pre-filter: the builder's cheapest gate (enough later
    // neighbours to host a q-plex) rejects the vast majority of vertices
    // without building anything.
    let mut eligible: Vec<VertexId> = Vec::new();
    let mut scratch = Vec::new();
    for &v in &prep.decomp.order {
        let later = prep
            .graph
            .row(v, &mut scratch)
            .iter()
            .filter(|&&w| prep.decomp.before(v, w))
            .count();
        if later + params.k >= params.q {
            eligible.push(v);
        }
    }
    // One spawn for the whole run: worker w builds eligible seeds w, w+M,
    // w+2M, … (parallel construction, per-worker task locality) and all
    // workers then drain with stealing. Spawning fresh threads per batch of
    // M seeds would cost thousands of thread spawns on large inputs.
    let slots: Vec<OnceLock<Slot>> = (0..eligible.len()).map(|_| OnceLock::new()).collect();
    let stage_stats = run_stage(
        &prep.map,
        params,
        cfg,
        opts,
        &slots,
        Some((prep, &eligible)),
        &stop,
        &mut sinks,
    );
    total.merge(&stage_stats);
    for slot in &slots {
        if let Some(s) = slot.get() {
            total.seed_graphs += 1;
            total.seed_pruned_vertices += s.seed.pruned_vertices;
        }
    }
    (sinks, total)
}

/// Runs one stage to completion on the work-stealing scheduler
/// ([`crate::sched`]): a global injector, per-worker LIFO deques with
/// local-pop → injector-batch-steal → peer-steal find order, and
/// park/unpark idling (no sleep-polling — `kplex-lint` enforces that).
///
/// When `construct` is provided, worker `i` builds seeds `i, i+M, …` and
/// publishes their sub-tasks as it goes; each worker holds a *construction
/// token* in the scheduler's `pending` count while it may still create
/// tasks, so early finishers start stealing immediately (no barrier) and
/// the stage cannot terminate under a still-constructing worker. With
/// `None` the slots are pre-filled and all tasks go through the injector,
/// where workers spread them via batched steals.
#[allow(clippy::too_many_arguments)]
fn run_stage<S: PlexSink + Send>(
    id_map: &[VertexId],
    params: Params,
    cfg: &AlgoConfig,
    opts: &EngineOptions,
    slots: &[OnceLock<Slot>],
    construct: Option<(&Prepared, &[VertexId])>,
    stop: &Arc<AtomicBool>,
    sinks: &mut [S],
) -> SearchStats {
    let m = sinks.len();
    let (sched, ctxs) = Scheduler::new(SchedConfig {
        workers: m,
        hook: opts.sched_hook.clone(),
        metrics: opts.metrics.clone(),
    });

    let mut dealer_stats = SearchStats::default();
    if construct.is_none() {
        // Pre-filled slots: inject everything before spawning workers.
        for (si, slot) in slots.iter().enumerate() {
            let slot_ref = slot.get().expect("pre-filled");
            for t in make_tasks(si, slot_ref, params, cfg, opts, &mut dealer_stats) {
                sched.inject(t);
            }
        }
    } else {
        // One construction token per worker, released when that worker's
        // construction loop ends (see the doc comment above).
        sched.count_in(m);
    }

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
                let wid = ctx.wid();
                let handle = ctx.attach(sched);
                // Phase 1: construction (when not pre-filled). Worker w
                // builds every M-th eligible seed and publishes its tasks
                // as it goes — parked siblings are woken to steal them, so
                // a skewed seed no longer idles the rest of the pool.
                if let Some((prep, seeds)) = construct {
                    let mut builder = SeedBuilder::new(prep.graph.num_vertices());
                    let mut idx = wid;
                    while idx < seeds.len() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        if let Some(seed) =
                            builder.build(&prep.graph, &prep.decomp, seeds[idx], params, cfg)
                        {
                            let pairs = cfg.use_r2.then(|| PairMatrix::build(&seed, params));
                            slots[idx]
                                .set(Slot { seed, pairs })
                                .ok()
                                .expect("slot filled once");
                            let slot_ref = slots[idx].get().expect("just set");
                            for t in make_tasks(idx, slot_ref, params, cfg, opts, wstats) {
                                handle.push(t);
                            }
                        }
                        idx += m;
                    }
                    handle.count_out();
                }
                // Phase 2: drain. `next()` finds work (own deque → injector
                // → peers, in rotated order) and parks while there is
                // none; `None` is the termination handshake (pending == 0).
                let mut sink = MapSink::new(sink, id_map);
                let handle = &handle;
                // Cache the searcher across consecutive tasks on one slot.
                let mut cur: Option<(usize, Searcher)> = None;
                while let Some(task) = handle.next() {
                    // A raised stop flag (external cancel or a sibling's
                    // early-stopping sink) drains the queues without
                    // running: tasks still count out so stage termination
                    // stays exact and parked workers get their final wake.
                    if stop.load(Ordering::Acquire) {
                        handle.count_out();
                        continue;
                    }
                    let slot_ref = slots[task.slot].get().expect("slot set before tasks");
                    let searcher = match &mut cur {
                        Some((sid, s)) if *sid == task.slot => s,
                        _ => {
                            if let Some((_, old)) = cur.take() {
                                wstats.merge(&old.stats);
                            }
                            let mut s =
                                Searcher::new(&slot_ref.seed, params, cfg, slot_ref.pairs.as_ref());
                            s.set_time_budget(opts.timeout);
                            s.set_stop_flag(Some(stop.clone()));
                            // Deferred branches (timeout splits) are
                            // published mid-task: while peers are parked
                            // they overflow to the global injector and wake
                            // one, so a straggler's spill-off is picked up
                            // while the straggler is still running.
                            let slot_id = task.slot;
                            s.set_spawn_hook(Some(Box::new(move |snap| {
                                handle.push_overflow(Task {
                                    slot: slot_id,
                                    snap,
                                });
                            })));
                            cur = Some((task.slot, s));
                            &mut cur.as_mut().expect("just set").1
                        }
                    };
                    let flow =
                        searcher.run_task(task.snap.p(), task.snap.c(), task.snap.x(), &mut sink);
                    if flow == SinkFlow::Stop {
                        // Propagate an early-stopping sink to every worker,
                        // not just this one: siblings observe the flag inside
                        // their own branch recursion (via the searcher's
                        // polled check), before their next task, and in the
                        // construction phase.
                        stop.store(true, Ordering::Release);
                    }
                    // Children were counted in by the spawn hook during
                    // run_task, so they precede this count-out in program
                    // order — the termination invariant holds.
                    handle.count_out();
                }
                if let Some((_, old)) = cur.take() {
                    wstats.merge(&old.stats);
                };
            }));
        }
        for h in join_handles {
            h.join().expect("worker panicked");
        }
    });

    let mut merged = dealer_stats;
    for ws in &worker_stats {
        merged.merge(ws);
    }
    merged
}

/// Builds the initial tasks for one slot, accumulating sub-task counters
/// (generated / R1-pruned) into `stats`.
fn make_tasks(
    slot: usize,
    s: &Slot,
    params: Params,
    cfg: &AlgoConfig,
    opts: &EngineOptions,
    stats: &mut SearchStats,
) -> Vec<Task> {
    if opts.single_task_per_seed {
        stats.subtasks += 1;
        let c: Vec<u32> = (1..s.seed.len() as u32).collect();
        let x: Vec<u32> = (0..s.seed.xout.len() as u32)
            .map(|i| i | XOUT_FLAG)
            .collect();
        return vec![Task {
            slot,
            snap: SavedTask::new(&[0], &c, &x),
        }];
    }
    collect_subtasks(&s.seed, params, cfg, s.pairs.as_ref(), stats)
        .into_iter()
        .map(|snap| Task { slot, snap })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplex_core::enumerate_collect;
    use kplex_graph::{gen, CsrGraph};

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
        seen: Arc<std::sync::atomic::AtomicU64>,
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
        let (g, params) = deep_instance();
        let cfg = AlgoConfig::ours();
        let (_, serial_stats) = enumerate_collect(&g, params, &cfg);
        assert!(serial_stats.outputs > 4, "instance must have results");
        let m = 4;
        let mut opts = EngineOptions::with_threads(m);
        opts.timeout = None; // tasks are whole subtrees: stop must land *inside* them
        let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
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
        // Promptness: the polled in-kernel stop check must abort result-free
        // subtrees too, so the capped run does a fraction of the full work.
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
}
