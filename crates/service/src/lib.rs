//! # kplex-service
//!
//! A multi-client enumeration server (`kplexd`) over the k-plex engine:
//! clients submit jobs over TCP, the server queues them onto a runner pool,
//! streams results back as NDJSON lines, and supports cooperative
//! cancellation, per-job result caps and deadlines, and an LRU cache of
//! prepared (loaded + core-reduced) graphs so repeat jobs on the same graph
//! skip the load/reduce phase.
//!
//! The paper's result sets can exceed 10^9 plexes, so nothing here
//! materialises results beyond the per-job cap: the engine's workers
//! append each result straight into the job's flat buffer and stop the
//! enumeration once it holds the cap.
//!
//! Wire protocol reference: `crates/service/PROTOCOL.md`. Line-delimited
//! requests (`SUBMIT`, `STATUS`, `STREAM`, `CANCEL`, `LIST`, `STATS`,
//! `PING`, `QUIT`), single-line `OK`/`ERR` responses, multi-line responses
//! terminated by `END`.
//!
//! Scale-out: [`router::Router`] (the `kplexr` binary) fronts N `kplexd`
//! backends behind the same wire protocol, rendezvous-hashing submissions
//! by (graph cache key, `q − k`) so each graph's prepared cache stays hot
//! on its owning backend, and failing queued jobs over when a backend dies.
//! The cluster is self-healing: the router's background prober
//! ([`router::ProbeConfig`]) marks backends dead/alive proactively with
//! flap suppression, topology changes actively rebalance queued jobs back
//! onto their rendezvous owners, and a `kplexd` started with a
//! [`journal`] replays queued and orphaned-running jobs after a restart.
//!
//! The crate map and the end-to-end dataflow (client → `kplexr` → `kplexd`
//! → engine) are described in `ARCHITECTURE.md` at the repository root;
//! operational guidance (deployment, crash recovery, the at-least-once
//! caveat) lives in the README's "Operations runbook".
//!
//! ```
//! use kplex_service::protocol::{parse_request, Request, SubmitArgs};
//!
//! let line = SubmitArgs::dataset("jazz", 2, 9).to_line();
//! assert!(matches!(parse_request(&line), Ok(Request::Submit(_))));
//! ```

#![deny(missing_docs)]

pub mod auth;
pub mod cache;
pub mod client;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod router;
pub mod server;
pub mod sync;

pub use auth::{Principal, PrincipalStore};
pub use cache::{CacheStats, Fetched, GraphCache};
pub use client::{Client, ClientError};
pub use job::{GraphSource, Job, JobSnapshot, JobSpec, JobState};
pub use journal::{Journal, RecoveredJob, Replay};
pub use protocol::{JobId, Request, SubmitArgs};
pub use router::{ProbeConfig, Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerConfig, ServerHandle};
pub use sync::{OrderedCondvar, OrderedGuard, OrderedMutex, Rank};

/// A shared callback invoked with the cache key at the start of every cold
/// graph load (see [`ServerConfig::cold_load_hook`]). Wrapped in a newtype
/// so `ServerConfig` stays `Clone` and the hook stays nameable in tests.
#[derive(Clone)]
pub struct LoadHook(pub std::sync::Arc<dyn Fn(&str) + Send + Sync>);

impl LoadHook {
    /// Wraps a closure as a load hook.
    pub fn new(f: impl Fn(&str) + Send + Sync + 'static) -> Self {
        LoadHook(std::sync::Arc::new(f))
    }
}

/// A shared callback invoked with a job id and its new delivered floor just
/// before each `DELIVERED` journal record is appended (see
/// [`ServerConfig::delivered_hook`]). A newtype for the same reasons as
/// [`LoadHook`].
#[derive(Clone)]
pub struct DeliveredHook(pub std::sync::Arc<dyn Fn(JobId, u64) + Send + Sync>);

impl DeliveredHook {
    /// Wraps a closure as a delivered-floor hook.
    pub fn new(f: impl Fn(JobId, u64) + Send + Sync + 'static) -> Self {
        DeliveredHook(std::sync::Arc::new(f))
    }
}
