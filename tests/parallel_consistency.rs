//! Consistency of the parallel engine (Section 6) against the sequential
//! driver across thread counts, timeouts and task layouts.

use kplex_baselines::{fp_config, listplex_config};
use kplex_core::{enumerate_collect, AlgoConfig, CollectSink, Params};
use kplex_graph::gen;
use kplex_parallel::{par_enumerate_collect, par_enumerate_count, EngineOptions, SchedMetrics};
use std::sync::Arc;
use std::time::Duration;

/// Every thread count yields the serial result set, and once a run
/// returns, every park has been matched by an unpark: no worker sleeps
/// past termination.
#[test]
fn thread_counts_all_agree() {
    let g = gen::powerlaw_cluster(300, 6, 0.6, 21);
    let params = Params::new(2, 7).unwrap();
    let cfg = AlgoConfig::ours();
    let (reference, _) = enumerate_collect(&g, params, &cfg);
    let metrics = Arc::new(SchedMetrics::default());
    for threads in [1usize, 2, 3, 4, 7, 8] {
        let mut opts = EngineOptions::with_threads(threads);
        opts.metrics = Some(Arc::clone(&metrics));
        let (got, _) = par_enumerate_collect(&g, params, &cfg, &opts);
        assert_eq!(got, reference, "diverged at {threads} threads");
        assert_eq!(
            metrics.parks(),
            metrics.unparks(),
            "a worker was still parked after the {threads}-thread run"
        );
    }
}

#[test]
fn timeout_values_all_agree() {
    let g = gen::powerlaw_cluster(250, 6, 0.6, 23);
    let params = Params::new(3, 8).unwrap();
    let cfg = AlgoConfig::ours();
    let (reference, _) = enumerate_collect(&g, params, &cfg);
    for timeout in [
        None,
        Some(Duration::ZERO),
        Some(Duration::from_micros(1)),
        Some(Duration::from_micros(100)),
        Some(Duration::from_millis(10)),
    ] {
        let mut opts = EngineOptions::with_threads(2);
        opts.timeout = timeout;
        let (got, stats) = par_enumerate_collect(&g, params, &cfg, &opts);
        assert_eq!(got, reference, "diverged at timeout {timeout:?}");
        if timeout == Some(Duration::ZERO) {
            assert!(stats.timeout_splits > 0, "zero timeout must split tasks");
        }
        if timeout.is_none() {
            assert_eq!(stats.timeout_splits, 0);
        }
    }
}

#[test]
fn parallel_listplex_matches_serial_listplex() {
    let g = gen::caveman(200, 14, 6, 10, 120, 25);
    let params = Params::new(2, 6).unwrap();
    let cfg = listplex_config();
    let mut sink = CollectSink::default();
    kplex_baselines::enumerate_listplex(&g, params, &mut sink);
    let serial = sink.into_sorted();
    let mut opts = EngineOptions::with_threads(3);
    opts.timeout = None; // ListPlex has no straggler elimination
    let (par, _) = par_enumerate_collect(&g, params, &cfg, &opts);
    assert_eq!(par, serial);
}

#[test]
fn parallel_fp_matches_serial_fp() {
    let g = gen::powerlaw_cluster(200, 5, 0.6, 27);
    let params = Params::new(2, 6).unwrap();
    let mut sink = CollectSink::default();
    kplex_baselines::enumerate_fp(&g, params, &mut sink);
    let serial = sink.into_sorted();
    let opts = EngineOptions {
        timeout: None,
        serial_construction: true,
        single_task_per_seed: true,
        ..EngineOptions::with_threads(3)
    };
    let (par, _) = par_enumerate_collect(&g, params, &fp_config(), &opts);
    assert_eq!(par, serial);
}

#[test]
fn oversubscription_is_safe() {
    // More threads than seeds / cores: still exact.
    let g = gen::gnp(60, 0.3, 29);
    let params = Params::new(2, 5).unwrap();
    let cfg = AlgoConfig::ours();
    let (reference, _) = enumerate_collect(&g, params, &cfg);
    let opts = EngineOptions::with_threads(16);
    let (got, _) = par_enumerate_collect(&g, params, &cfg, &opts);
    assert_eq!(got, reference);
}

#[test]
fn empty_and_tiny_inputs_parallel() {
    let cfg = AlgoConfig::ours();
    let opts = EngineOptions::with_threads(4);
    let params = Params::new(2, 4).unwrap();
    let (c0, _) = par_enumerate_count(&gen::empty(0), params, &cfg, &opts);
    assert_eq!(c0, 0);
    let (c1, _) = par_enumerate_count(&gen::empty(50), params, &cfg, &opts);
    assert_eq!(c1, 0);
    let (c2, _) = par_enumerate_count(&gen::complete(6), params, &cfg, &opts);
    assert_eq!(c2, 1);
}

#[test]
fn stats_outputs_match_counts() {
    let g = gen::powerlaw_cluster(200, 6, 0.5, 31);
    let params = Params::new(2, 7).unwrap();
    let cfg = AlgoConfig::ours();
    let opts = EngineOptions::with_threads(3);
    let (count, stats) = par_enumerate_count(&g, params, &cfg, &opts);
    assert_eq!(count, stats.outputs);
}

// ---------------------------------------------------------------------------
// Task conservation through the scheduler substrate.
//
// Random task trees (fan-out 0–8 per node, depth ≤ 12), pushed through the
// Injector/deque topology directly: every spawned task must run exactly
// once and `pending` must return to 0, at every thread count. This pins
// the counting half of the termination handshake independently of the
// enumeration workload — a task double-run, a drop, or a pending
// imbalance shows up as an exact count mismatch here.
// ---------------------------------------------------------------------------

mod task_conservation {
    use kplex_parallel::sched::{SchedConfig, Scheduler};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const MAX_DEPTH: u32 = 12;

    /// One node of a synthetic task tree, identified by a path hash.
    #[derive(Clone, Copy)]
    struct Node {
        id: u64,
        depth: u32,
    }

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Deterministic fan-out in 0..=8, biased subcritical (mean ≈ 0.9) so
    /// trees stay test-sized; 0 at the depth cap.
    fn fanout(n: Node, seed: u64) -> u64 {
        if n.depth >= MAX_DEPTH {
            return 0;
        }
        let h = splitmix(n.id ^ seed) % 40;
        if h <= 8 {
            h
        } else {
            0
        }
    }

    fn child(n: Node, i: u64) -> Node {
        Node {
            id: splitmix(n.id.wrapping_mul(9).wrapping_add(i + 1)),
            depth: n.depth + 1,
        }
    }

    fn roots(count: u64, seed: u64) -> impl Iterator<Item = Node> {
        (0..count).map(move |i| Node {
            id: splitmix(seed.wrapping_add(i)),
            depth: 0,
        })
    }

    /// Reference count: a serial walk of the same deterministic tree.
    fn count_serial(root_count: u64, seed: u64) -> u64 {
        let mut stack: Vec<Node> = roots(root_count, seed).collect();
        let mut total = 0u64;
        while let Some(n) = stack.pop() {
            total += 1;
            for i in 0..fanout(n, seed) {
                stack.push(child(n, i));
            }
        }
        total
    }

    /// Runs the same tree through the scheduler: roots via the injector,
    /// children via the worker push paths (alternating own-deque push and
    /// injector overflow, to cover both producer sides of the wakeup
    /// protocol). Returns (tasks executed, pending after the run).
    fn run_parallel_tree(root_count: u64, seed: u64, threads: usize) -> (u64, usize) {
        let (sched, ctxs) = Scheduler::<Node>::new(SchedConfig {
            workers: threads,
            hook: None,
            metrics: None,
        });
        for r in roots(root_count, seed) {
            sched.inject(r);
        }
        let executed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for ctx in ctxs {
                let sched = &sched;
                let executed = &executed;
                scope.spawn(move || {
                    let h = ctx.attach(sched);
                    while let Some(n) = h.next() {
                        // ordering: test counter; read after the join.
                        executed.fetch_add(1, Ordering::Relaxed);
                        for i in 0..fanout(n, seed) {
                            if i % 2 == 0 {
                                h.push(child(n, i));
                            } else {
                                h.push_overflow(child(n, i));
                            }
                        }
                        h.count_out();
                    }
                });
            }
        });
        // ordering: workers joined; plain readback.
        (executed.load(Ordering::Relaxed), sched.pending())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn every_task_runs_exactly_once(seed in 0u64..u64::MAX, root_count in 1u64..6) {
            let expected = count_serial(root_count, seed);
            for threads in [1usize, 2, 4, 8] {
                let (executed, pending) = run_parallel_tree(root_count, seed, threads);
                prop_assert_eq!(
                    executed, expected,
                    "task conservation broke at {} threads: ran {} of {}",
                    threads, executed, expected
                );
                prop_assert_eq!(pending, 0usize, "pending nonzero at {} threads", threads);
            }
        }
    }
}
