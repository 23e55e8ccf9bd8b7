//! # kplex-core
//!
//! Branch-and-bound enumeration of all maximal k-plexes with at least `q`
//! vertices — the primary contribution of *"Efficient Enumeration of Large
//! Maximal k-Plexes"* (EDBT 2025).
//!
//! The pipeline (Algorithm 2 of the paper):
//! 1. shrink the input to its (q−k)-core ([`enumerate::prepare`]);
//! 2. walk seed vertices in degeneracy order, building one dense
//!    [`seed::SeedGraph`] per seed (Eq (1) + Corollary 5.2);
//! 3. split each seed graph into disjoint initial sub-tasks over subsets of
//!    its two-hop vertices ([`subtask::collect_subtasks`], Theorems 5.7 and
//!    5.13/5.14 pruning);
//! 4. run the branch-and-bound [`branch::Searcher`] on every sub-task
//!    (Algorithm 3, upper bounds of Theorems 5.3/5.5, pair rule 5.15).
//!
//! Entry points: [`enumerate::enumerate`], [`enumerate::enumerate_count`],
//! [`enumerate::enumerate_collect`].
//!
//! ```
//! use kplex_core::{enumerate_count, AlgoConfig, Params};
//! use kplex_graph::gen;
//!
//! // K6: the only maximal 2-plex with at least 5 vertices is K6 itself.
//! let g = gen::complete(6);
//! let params = Params::new(2, 5).unwrap();
//! let (count, stats) = enumerate_count(&g, params, &AlgoConfig::ours());
//! assert_eq!(count, 1);
//! assert_eq!(stats.outputs, 1);
//! ```

#![deny(missing_docs)]

pub mod bounds;
pub mod branch;
pub mod branch_ref;
pub mod config;
pub mod enumerate;
pub mod maximum;
pub mod naive;
pub mod pairs;
pub mod plex;
pub mod reduce;
pub mod seed;
pub mod sink;
pub mod stats;
pub mod subtask;
pub mod verify;

pub use branch::{SavedTask, Searcher};
pub use branch_ref::RefSearcher;
pub use config::{AlgoConfig, BranchingKind, ParamError, Params, PivotKind, UpperBoundKind};
pub use enumerate::{enumerate, enumerate_collect, enumerate_count, prepare, MapSink, Prepared};
pub use maximum::{maximum_kplex, MaximumResult};
pub use pairs::PairMatrix;
pub use reduce::{ctcp_reduce, CtcpReduction};
pub use seed::{SeedBuilder, SeedGraph, XOUT_FLAG};
pub use sink::{CollectSink, CountSink, FirstN, FnSink, LargestN, PlexSink, SinkFlow};
pub use stats::SearchStats;
pub use subtask::collect_subtasks;
pub use verify::{verify_complete, verify_results, Violation};
