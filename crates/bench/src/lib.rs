//! # kplex-bench
//!
//! The paper-reproduction harness: experiment specifications for every
//! table and figure of the paper's Section 7 / Appendix B, a peak-memory
//! tracking allocator (Table 7), markdown reporting, and the `repro` binary
//! that regenerates each artifact, running each grid once with wall-clock
//! timing, like the paper.
//!
//! It does not time the system for regressions: that is `perfbench/`, the
//! one benchmark, which drives jobs end to end through `kplexr` → `kplexd`
//! → engine.

#![deny(missing_docs)]

pub mod experiments;
pub mod peak_alloc;
pub mod report;

use kplex_baselines::Algorithm;
use kplex_core::Params;
use kplex_graph::CsrGraph;
use std::time::Instant;

/// Runs an algorithm once, returning (seconds, result count).
pub fn time_algorithm(algo: Algorithm, g: &CsrGraph, k: usize, q: usize) -> (f64, u64) {
    let params = Params::new(k, q).expect("valid experiment parameters");
    let start = Instant::now();
    let (count, _) = algo.run_count(g, params);
    (start.elapsed().as_secs_f64(), count)
}

/// Loads a registry dataset by name (panicking on unknown names — the specs
/// are validated by tests).
pub fn load(dataset: &str) -> CsrGraph {
    kplex_datasets::by_name(dataset)
        .unwrap_or_else(|| panic!("unknown dataset {dataset}"))
        .load()
}
