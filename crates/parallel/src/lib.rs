//! # kplex-parallel
//!
//! Task-based parallel enumeration (Section 6 of the paper).
//!
//! Every worker runs kplex-core's one seed loop ([`kplex_core::driver`])
//! over its handle on a work-stealing scheduler ([`sched`]): a worker whose
//! own deque is empty takes the next vertex off the shared cursor
//! (degeneracy order, last first), builds its seed subgraph and pushes
//! that seed's initial tasks onto its own deque. Once the cursor is
//! exhausted, workers fall through to the rest of the scheduler: the
//! global injector, then peers in an order rotated by the thief's index.
//! Every task holds its seed, so a seed is freed with its last task, and
//! the first result does not wait for the other seeds to be built. Idle
//! workers park on a token parker and are woken by the next push (at most
//! one wakeup per push); termination is a pending==0 handshake, not timed
//! polling. A one-thread run spawns no thread: the loop runs on the
//! calling thread, as in [`kplex_core::enumerate()`].
//!
//! Straggler elimination: every task carries a time budget `τ_time`; when a
//! task runs past it, the searcher stops recursing and re-packages its
//! pending branches as new tasks ([`kplex_core::SavedTask`]) — published
//! mid-task through the searcher's spawn hook, overflowing to the global
//! injector whenever a peer is parked — so one deep sub-tree cannot
//! serialise the stage tail. With one worker there is no peer to take
//! split work, so τ is not armed and a 1-thread run emits the same
//! sequence every time.
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
