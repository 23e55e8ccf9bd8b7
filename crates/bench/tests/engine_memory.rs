//! Engine memory is bounded by a few seeds, not by the job: with
//! [`PeakAlloc`] installed as the global allocator, the parallel engine's
//! heap high-water mark stays within twice the sequential driver's per
//! engine thread. A worker builds a seed only when its own deque is empty,
//! and a seed is freed with its last task, so each worker holds about one
//! seed at a time, as the sequential driver does.
//!
//! This binary holds one test, because `PeakAlloc`'s byte gauges are
//! process-wide: a second test running alongside would move them.

use kplex_bench::peak_alloc::PeakAlloc;
use kplex_core::{enumerate_count, AlgoConfig, Params};
use kplex_parallel::{par_enumerate_count, EngineOptions};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `run` and returns its result with the heap high-water mark it
/// reached above the live set it started from.
fn peak_above_start(run: impl FnOnce() -> u64) -> (u64, usize) {
    PeakAlloc::reset_peak();
    let start = PeakAlloc::current_bytes();
    let out = run();
    (out, PeakAlloc::peak_bytes() - start)
}

#[test]
fn engine_heap_stays_within_twice_sequential_per_thread() {
    let g = kplex_datasets::by_name("jazz").expect("jazz").load();
    let params = Params::new(3, 8).unwrap();
    let cfg = AlgoConfig::ours();
    let (serial, serial_peak) = peak_above_start(|| enumerate_count(&g, params, &cfg).0);
    assert!(serial > 0, "instance must have results");
    for threads in [1, 2] {
        let opts = EngineOptions::with_threads(threads);
        let (count, peak) = peak_above_start(|| par_enumerate_count(&g, params, &cfg, &opts).0);
        assert_eq!(count, serial, "engine at {threads} threads miscounted");
        assert!(
            peak <= 2 * threads * serial_peak,
            "engine at {threads} threads peaked {peak} B above its start, \
             sequential {serial_peak} B"
        );
    }
}
