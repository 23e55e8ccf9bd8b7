//! The parallel engine: the seed loop of [`kplex_core::driver`] on every
//! worker of a work-stealing scheduler.

use crate::sched::{SchedConfig, SchedHook, SchedMetrics, Scheduler};
use kplex_core::enumerate::prepare;
use kplex_core::{
    AlgoConfig, Algorithm, CollectSink, CountSink, Driver, Params, PlexSink, Prepared, SearchStats,
    Task,
};
use kplex_graph::{GraphStore, VertexId};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Knobs of the parallel engine.
#[derive(Clone)]
pub struct EngineOptions {
    /// Number of worker threads `M`. With one, the loop runs on the calling
    /// thread with no scheduler, so `sched_hook` and `metrics` see nothing.
    pub threads: usize,
    /// Straggler timeout `τ_time`; tasks running longer re-queue their
    /// remaining branches. `None` disables splitting (ListPlex/FP style).
    /// Ignored with one worker: there is no peer to take split work, so a
    /// split would only re-queue branches on the same queue and make the
    /// emission order depend on timing.
    pub timeout: Option<Duration>,
    /// Build every seed subgraph up-front on one thread before any task
    /// runs — the behaviour of parallel FP that the paper identifies as its
    /// bottleneck. When false (default), an idle worker builds the next
    /// seed itself (see [`run_parallel_prepared`]).
    pub serial_construction: bool,
    /// Shared cooperative-cancellation flag. When raised (by any thread —
    /// a service cancelling a job, a deadline, a result cap), workers stop
    /// mid-task: the flag is plumbed into every searcher (polled inside
    /// the branch recursion and checked on every report) and consulted
    /// before each seed is built and before each dequeued task. The engine
    /// also raises it itself whenever any worker's sink returns
    /// [`kplex_core::SinkFlow::Stop`], so an early-stopping sink halts *all*
    /// workers promptly rather than one.
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
            stop_flag: None,
            sched_hook: None,
            metrics: None,
        }
    }

    /// These options as the paper's parallel baselines run (Table 4): FP
    /// builds every seed serially before any task runs, and FP and ListPlex
    /// split no stragglers. Other algorithms keep the options as they are.
    pub fn for_algorithm(mut self, algo: Algorithm) -> Self {
        if algo == Algorithm::Fp {
            self.serial_construction = true;
        }
        if matches!(algo, Algorithm::Fp | Algorithm::ListPlex) {
            self.timeout = None;
        }
        self
    }
}

impl std::fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineOptions")
            .field("threads", &self.threads)
            .field("timeout", &self.timeout)
            .field("serial_construction", &self.serial_construction)
            .field("stop_flag", &self.stop_flag)
            .field("sched_hook", &self.sched_hook.as_ref().map(|_| ".."))
            .field("metrics", &self.metrics)
            .finish()
    }
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
/// next vertex off the driver's shared cursor, builds its seed and runs its
/// tasks (see [`kplex_core::driver`]), so the first result does not wait
/// for the other seeds and only a few seeds are alive at once.
/// [`EngineOptions::serial_construction`] instead builds every seed on the
/// calling thread, in degeneracy order, before any task runs. With one
/// thread the loop runs on the calling thread.
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
    let stop = opts.stop_flag.clone().unwrap_or_default();
    // With one worker a split would only re-queue branches on the same
    // queue (see `EngineOptions::timeout`).
    let budget = opts.timeout.filter(|_| m > 1);
    let mut driver = Driver::new(prep, params, cfg, budget, stop);
    let mut total = SearchStats::default();
    let mut sinks: Vec<S> = (0..m).map(|_| make_sink()).collect();
    let prebuilt = if opts.serial_construction {
        driver.build_all(&mut total)
    } else {
        Vec::new()
    };
    if m == 1 {
        driver.run_local(prebuilt, &mut sinks[0], &mut total);
    } else {
        total.merge(&run_stage(&driver, prebuilt, &mut sinks, opts));
    }
    (sinks, total)
}

/// Runs the driver's loop on the work-stealing scheduler ([`crate::sched`]),
/// one worker per sink.
///
/// A worker finds work in this order: its own deque (LIFO); then, while
/// the driver's seed cursor has vertices left, the next vertex, whose seed
/// it builds and whose tasks it pushes onto its own deque; then the global
/// injector and peer steals, parking while neither has work. Each worker
/// holds a *construction token* in the scheduler's `pending` count until it
/// finds the cursor exhausted (or the stop flag raised), so the run cannot
/// terminate while a seed may still be built, and no worker parks while it
/// could build one. Split children go to the injector only while some
/// worker is parked, so the injector stays empty while the cursor is live
/// and the pull may as well come before it. `prebuilt` tasks (the seeds of
/// [`EngineOptions::serial_construction`]) start in the injector, where
/// workers spread them via batched steals.
fn run_stage<S: PlexSink + Send>(
    driver: &Driver<'_>,
    prebuilt: Vec<Task>,
    sinks: &mut [S],
    opts: &EngineOptions,
) -> SearchStats {
    let m = sinks.len();
    let (sched, ctxs) = Scheduler::new(SchedConfig {
        workers: m,
        hook: opts.sched_hook.clone(),
        metrics: opts.metrics.clone(),
    });
    for t in prebuilt {
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
                driver.work(&handle, sink, wstats);
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

#[cfg(test)]
mod tests {
    use super::*;
    use kplex_core::{enumerate_collect, FirstN, SinkFlow};
    use kplex_graph::{gen, CsrGraph};
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let fp_cfg = kplex_core::fp_config();
        let mut sink = CollectSink::default();
        kplex_core::enumerate_fp(&g, params, &mut sink);
        let serial = sink.into_sorted();
        let opts = EngineOptions {
            timeout: None,
            serial_construction: true,
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
        // `enumerate` and a 1-thread engine run are one loop: for every
        // algorithm, task layout included, the two emit the same unsorted
        // sequence.
        let g = gen::powerlaw_cluster(200, 5, 0.7, 8);
        let params = Params::new(3, 6).unwrap();
        let opts = EngineOptions::with_threads(1);
        for algo in Algorithm::ALL {
            let cfg = algo.config();
            let mut serial = CollectSink::default();
            kplex_core::enumerate(&g, params, &cfg, &mut serial);
            let (mut sinks, _) = run_parallel(&g, params, &cfg, &opts, CollectSink::default);
            let engine = sinks.pop().expect("one sink").plexes;
            assert!(
                serial.plexes.len() > 1,
                "{algo}: instance must have results"
            );
            assert_eq!(engine, serial.plexes, "{algo}");
        }
    }

    #[test]
    fn one_thread_reports_from_the_callers_thread() {
        // A threads=1 run (every many-small kplexd job) spawns no worker:
        // its sink sees every result on the thread that called the engine.
        let g = gen::powerlaw_cluster(200, 5, 0.7, 8);
        let params = Params::new(3, 6).unwrap();
        let caller = std::thread::current().id();
        let foreign = AtomicU64::new(0);
        let opts = EngineOptions::with_threads(1);
        let (_, stats) = run_parallel(&g, params, &AlgoConfig::ours(), &opts, || {
            kplex_core::FnSink(|_: &[VertexId]| {
                if std::thread::current().id() != caller {
                    // ordering: test counter, read after the run returned.
                    foreign.fetch_add(1, Ordering::Relaxed);
                }
                SinkFlow::Continue
            })
        });
        // ordering: the run has returned; nothing races this read.
        let foreign = foreign.load(Ordering::Relaxed);
        assert_eq!(foreign, 0, "results came from a spawned thread");
        assert!(stats.outputs > 0, "instance must have results");
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
