//! # kplex-parallel
//!
//! Task-based parallel enumeration (Section 6 of the paper).
//!
//! Worker `w` builds every `M`-th eligible seed subgraph and publishes
//! that seed's initial sub-tasks as it goes; all workers concurrently
//! drain through the work-stealing scheduler ([`sched`]): own deque first
//! (cache locality: tasks of one deque share a seed subgraph), then the
//! global injector, then peers in an order rotated by the thief's index.
//! Idle workers park on a token parker and are woken by
//! the next push (at most one wakeup per push); termination is a
//! pending==0 handshake, not timed polling.
//!
//! Straggler elimination: every task carries a time budget `τ_time`; when a
//! task runs past it, the searcher stops recursing and re-packages its
//! pending branches as new tasks ([`kplex_core::SavedTask`]) — published
//! mid-task through the searcher's spawn hook, overflowing to the global
//! injector whenever a peer is parked — so one deep sub-tree cannot
//! serialise the stage tail.
//!
//! ```
//! use kplex_core::{enumerate_count, AlgoConfig, Params};
//! use kplex_graph::gen;
//! use kplex_parallel::{par_enumerate_count, EngineOptions};
//!
//! let g = gen::powerlaw_cluster(100, 4, 0.6, 1);
//! let params = Params::new(2, 5).unwrap();
//! let cfg = AlgoConfig::ours();
//! let (serial, _) = enumerate_count(&g, params, &cfg);
//! let (parallel, _) = par_enumerate_count(&g, params, &cfg, &EngineOptions::with_threads(2));
//! assert_eq!(parallel, serial);
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod sched;

pub use engine::{
    par_enumerate_collect, par_enumerate_count, run_parallel, run_parallel_prepared, EngineOptions,
};
pub use sched::{SchedEvent, SchedHook, SchedMetrics};
