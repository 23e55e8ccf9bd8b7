//! # maximal-kplex
//!
//! A production-quality Rust implementation of *"Efficient Enumeration of
//! Large Maximal k-Plexes"* (EDBT 2025): a branch-and-bound enumerator for
//! all maximal k-plexes with at least `q` vertices, its task-based parallel
//! runtime, the ListPlex and FP baselines it is evaluated against, and the
//! synthetic datasets + harness that regenerate the paper's experiments.
//!
//! This crate is a facade re-exporting the workspace's public API. The
//! crate map, the enumeration dataflow (load → reduce → seed fixpoint →
//! arena branch kernel → sinks) and the service topology (client →
//! `kplexr` → `kplexd` → engine) are described in `ARCHITECTURE.md` at
//! the repository root.
//!
//! ## Quick start
//!
//! ```
//! use maximal_kplex::prelude::*;
//!
//! // A graph with a planted near-clique: {0,1,2,3,4} minus the edge (0,1).
//! let g = CsrGraph::from_edges(6, [
//!     (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
//!     (2, 3), (2, 4), (3, 4), (4, 5),
//! ]).unwrap();
//!
//! // Every vertex of {0..4} misses at most 2 links (itself + one other):
//! // it is a maximal 2-plex with 5 vertices.
//! let params = Params::new(2, 5).unwrap();
//! let (plexes, stats) = enumerate_collect(&g, params, &AlgoConfig::ours());
//! assert_eq!(plexes, vec![vec![0, 1, 2, 3, 4]]);
//! assert_eq!(stats.outputs, 1);
//! ```

pub use kplex_core as core;
pub use kplex_datasets as datasets;
pub use kplex_graph as graph;
pub use kplex_parallel as parallel;
pub use kplex_service as service;

/// The most common imports for library users.
pub mod prelude {
    pub use kplex_core::{
        enumerate, enumerate_collect, enumerate_count, AlgoConfig, Algorithm, CollectSink,
        CountSink, Params, PlexSink, SearchStats, SinkFlow,
    };
    pub use kplex_graph::{CsrGraph, GraphBuilder, GraphStats, VertexId};
    pub use kplex_parallel::{par_enumerate_collect, par_enumerate_count, EngineOptions};
}
