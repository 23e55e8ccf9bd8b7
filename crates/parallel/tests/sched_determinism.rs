//! Deterministic scheduler harness tests.
//!
//! The `SchedHook` seam reports, from the worker threads themselves, when a
//! worker is *committed* to parking (bit set, final re-check done, `park()`
//! next). That lets these tests construct the exact interleavings the old
//! sleep-poll engine papered over — all-parked + inject (lost wakeup),
//! park/inject churn (push-vs-park race), stop with sleepers (termination
//! handshake) — instead of hoping a stress run stumbles into them.
//!
//! Coordination here uses channels and atomics only: the raw-sync lint
//! bans `Mutex`/`Condvar` in this crate, tests included.

use kplex_core::{AlgoConfig, FnSink, Params, SinkFlow};
use kplex_graph::{gen, VertexId};
use kplex_parallel::sched::{SchedConfig, SchedEvent, SchedHook, SchedMetrics, Scheduler};
use kplex_parallel::{run_parallel, EngineOptions};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Spin-waits (yielding) until `cond` holds, panicking after `budget`.
/// The budget is the test's liveness assertion: a lost wakeup turns into
/// this panic instead of a hung CI job.
fn wait_until(budget: Duration, what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < budget, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// A hook that counts `Parking` events and forwards them to a channel.
fn parking_hook() -> (SchedHook, mpsc::Receiver<usize>, Arc<AtomicUsize>) {
    let (tx, rx) = mpsc::channel();
    let parks = Arc::new(AtomicUsize::new(0));
    let parks_in_hook = parks.clone();
    let hook: SchedHook = Arc::new(move |ev| {
        if let SchedEvent::Parking(w) = ev {
            // ordering: event counter read by the orchestrator's spin
            // waits; no ordering against other memory is needed.
            parks_in_hook.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(w);
        }
    });
    (hook, rx, parks)
}

/// Lost-wakeup regression: park every worker, inject one task, and require
/// a worker to unpark and run it within a bounded wall-clock budget. Under
/// the old sleep-poll engine this property held only because sleepers
/// re-polled every 50µs; under park/unpark it holds only if the
/// push→fence→scan / set-bit→fence→re-find protocol has no hole — a lost
/// wakeup hangs the injected task until the timeout panic.
#[test]
fn parked_workers_wake_on_inject_within_budget() {
    const WORKERS: usize = 2;
    let (hook, park_rx, _parks) = parking_hook();
    let (sched, ctxs) = Scheduler::<u32>::new(SchedConfig {
        workers: WORKERS,
        hook: Some(hook),
        metrics: None,
    });
    // The orchestrator holds one pending token so the pool cannot
    // terminate while we line the workers up.
    sched.count_in(1);
    let ran = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for ctx in ctxs {
            let sched = &sched;
            let ran = &ran;
            scope.spawn(move || {
                let h = ctx.attach(sched);
                while let Some(_task) = h.next() {
                    // ordering: test counter; the orchestrator spin-reads
                    // it and the final assert runs after join.
                    ran.fetch_add(1, Ordering::Relaxed);
                    h.count_out();
                }
            });
        }
        // Both workers committed to parking.
        for _ in 0..WORKERS {
            park_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("workers never parked");
        }
        sched.inject(42);
        wait_until(Duration::from_secs(2), "injected task to run", || {
            // ordering: spin-read of the test counter.
            ran.load(Ordering::Relaxed) == 1
        });
        // Release the orchestration token: pending hits 0, everyone exits.
        sched.count_out();
    });
    assert_eq!(sched.pending(), 0);
}

/// Stress variant: 10k rounds of wait-for-park → inject → wait-for-run on
/// a single worker. Every round re-crosses the push-vs-park race window
/// from a different phase of the worker's idle loop; one lost wakeup
/// anywhere in 10k rounds fails the round's bounded wait.
#[test]
fn park_inject_stress_10k_rounds() {
    const ROUNDS: usize = 10_000;
    let parks = Arc::new(AtomicUsize::new(0));
    let parks_in_hook = parks.clone();
    let hook: SchedHook = Arc::new(move |ev| {
        if let SchedEvent::Parking(_) = ev {
            // ordering: event counter for the orchestrator's spin waits.
            parks_in_hook.fetch_add(1, Ordering::Relaxed);
        }
    });
    let (sched, ctxs) = Scheduler::<usize>::new(SchedConfig {
        workers: 1,
        hook: Some(hook),
        metrics: None,
    });
    sched.count_in(1); // orchestration token
    let ran = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for ctx in ctxs {
            let sched = &sched;
            let ran = &ran;
            scope.spawn(move || {
                let h = ctx.attach(sched);
                while let Some(_task) = h.next() {
                    // ordering: test counter, spin-read by the orchestrator.
                    ran.fetch_add(1, Ordering::Relaxed);
                    h.count_out();
                }
            });
        }
        for round in 0..ROUNDS {
            // The worker has committed to parking at least once more than
            // the tasks it has run — i.e. it is parked (or about to be,
            // with its bit set, which the wake protocol treats the same).
            wait_until(Duration::from_secs(10), "worker to park", || {
                // ordering: spin-read of the hook's event counter.
                parks.load(Ordering::Relaxed) > round
            });
            sched.inject(round);
            wait_until(Duration::from_secs(2), "round's task to run", || {
                // ordering: spin-read of the test counter.
                ran.load(Ordering::Relaxed) == round + 1
            });
        }
        sched.count_out();
    });
    // ordering: workers joined; plain readback.
    assert_eq!(ran.load(Ordering::Relaxed), ROUNDS);
    assert_eq!(sched.pending(), 0);
}

/// Termination handshake with sleepers: park all workers, then feed them
/// a drain-only workload (the engine's stop path: count tasks out without
/// running them). The last count-out must wake every parked worker so the
/// pool quiesces; nobody may sleep past termination.
#[test]
fn stop_drain_wakes_all_parked_workers() {
    const WORKERS: usize = 3;
    let (hook, park_rx, _parks) = parking_hook();
    let (sched, ctxs) = Scheduler::<u32>::new(SchedConfig {
        workers: WORKERS,
        hook: Some(hook),
        metrics: None,
    });
    sched.count_in(1); // orchestration token
    let stop = AtomicBool::new(true); // raised before any task exists
    let drained = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for ctx in ctxs {
            let sched = &sched;
            let stop = &stop;
            let drained = &drained;
            scope.spawn(move || {
                let h = ctx.attach(sched);
                while let Some(_task) = h.next() {
                    // Engine stop path: drain without running.
                    if stop.load(Ordering::Acquire) {
                        // ordering: test counter read after join.
                        drained.fetch_add(1, Ordering::Relaxed);
                        h.count_out();
                        continue;
                    }
                    unreachable!("stop was raised before any inject");
                }
            });
        }
        for _ in 0..WORKERS {
            park_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("workers never parked");
        }
        // A burst of cancelled work plus the token release: everyone must
        // wake, drain, observe pending == 0, and exit — bounded by the
        // scope join itself (a sleeper would hang it).
        for i in 0..32 {
            sched.inject(i);
        }
        sched.count_out();
    });
    // ordering: workers joined; plain readback.
    assert_eq!(drained.load(Ordering::Relaxed), 32);
    assert_eq!(sched.pending(), 0);
}

/// Cancellation latency, end to end through the engine: with some workers
/// parked mid-run (more threads than heavy seeds), raise the job stop
/// flag and require the whole pool — busy *and* parked workers — to
/// quiesce within a bounded budget. Pins that the idle path re-checks
/// termination rather than re-parking into a sleep no one will end, and
/// that the stop drain counts queued tasks out exactly.
#[test]
fn engine_cancellation_with_parked_workers_quiesces_promptly() {
    // Few heavy seeds + 8 threads: the surplus workers park mid-run.
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

    let (hook, park_rx, _parks) = parking_hook();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_main = stop.clone();
    let metrics = Arc::new(SchedMetrics::default());
    let mut opts = EngineOptions::with_threads(8);
    opts.timeout = None; // whole-subtree tasks: the stop must land inside one
    opts.stop_flag = Some(stop.clone());
    opts.sched_hook = Some(hook);
    opts.metrics = Some(metrics.clone());

    let (result_tx, result_rx) = mpsc::channel::<()>();
    let pace = Duration::from_millis(5);
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // Each report is paced, keeping the run alive long enough for
            // the orchestrator to act mid-run, and announced on a channel.
            let _ = run_parallel(&g, params, &cfg, &opts, || {
                let (result_tx, stop) = (result_tx.clone(), stop.clone());
                FnSink(move |_: &[VertexId]| {
                    std::thread::sleep(pace);
                    // ordering: the stop flag is a latch polled as a hint.
                    if stop.load(Ordering::Relaxed) || result_tx.send(()).is_err() {
                        SinkFlow::Stop
                    } else {
                        SinkFlow::Continue
                    }
                })
            });
            let _ = done_tx.send(Instant::now());
        });
        // Mid-run: at least one worker parked and at least one result out
        // (so the paced heavy subtrees are demonstrably still running).
        park_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("no worker ever parked mid-run");
        result_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("no result before cancellation");
        let raised_at = Instant::now();
        stop_main.store(true, Ordering::Release);
        let finished_at = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("engine never quiesced after stop");
        let latency = finished_at.saturating_duration_since(raised_at);
        assert!(
            latency < Duration::from_secs(5),
            "cancellation took {latency:?}: parked workers were not woken promptly"
        );
    });
    assert_eq!(
        metrics.parks(),
        metrics.unparks(),
        "a worker is still parked"
    );
}
