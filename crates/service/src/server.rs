//! The `kplexd` server: accept loop, bounded job queue, runner pool.
//!
//! Thread layout (no async runtime — the offline build has std only):
//!
//! * the **accept loop** spawns one handler thread per client connection;
//! * handlers parse line requests; `SUBMIT` pushes onto a **bounded queue**
//!   (full queue → immediate `ERR`, the back-pressure signal);
//! * a fixed pool of **runner** threads pops jobs and executes them on the
//!   parallel engine ([`kplex_parallel::run_parallel_prepared`]), each with
//!   its own per-job thread count; the engine's workers append every
//!   result straight into the job's buffer and stop the job at its result
//!   cap;
//! * only a job with a wall-clock deadline (`timeout-ms`) gets one more
//!   thread while it runs: a **watchdog** that sleeps until the deadline
//!   or the job's end, and at the deadline raises the job's stop flag.
//!
//! Cancellation (`CANCEL`, cap, deadline) is cooperative end to end: one
//! `Arc<AtomicBool>` per job is observed by the engine's workers inside the
//! branch recursion, so a cancelled job's workers stop mid-task while other
//! jobs keep running undisturbed.
//!
//! ## Tenancy
//!
//! With [`ServerConfig::principals`] set the server is **multi-tenant**:
//! clients must `AUTH <token>` before any other verb, submissions are
//! attributed to the authenticated principal, per-tenant quotas
//! (max-queued, max-running) are enforced at admission and dispatch, and
//! the admission queue becomes per-tenant lanes drained by deficit-weighted
//! round-robin (see `JobQueue`) — a flooding tenant keeps its throughput
//! share but can never starve another tenant's submit. `STATUS` / `STREAM`
//! / `CANCEL` / `LIST` are scoped to the owning principal (admin sees all),
//! and every reply line is scrubbed of registered tokens
//! ([`protocol::redact_secrets`]). Without `--principals` none of this
//! exists: one anonymous FIFO lane, no `AUTH`, byte-for-byte the previous
//! behavior.

use crate::cache::{CacheStats, GraphCache};
use crate::job::{GraphSource, Job, JobSpec, PlexBuf, StreamStep};
use crate::journal::Journal;
use crate::protocol::{self, JobId, Request, SubmitArgs};
use crate::sync::{OrderedCondvar, OrderedMutex, Rank};
use crate::LoadHook;
use kplex_core::{prepare, Params, PlexSink, SinkFlow};
use kplex_graph::io;
use kplex_parallel::{run_parallel_prepared, EngineOptions, SchedMetrics};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long blocking waits (queue pop, stream follow) sleep between
/// shutdown-flag checks.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// Default for [`ServerConfig::retain_terminal`]: terminal jobs retained
/// for `STATUS`/`STREAM` replay. Beyond this, the oldest finished jobs —
/// and their result buffers — are evicted at submission time, so a
/// long-lived server's memory is bounded by live jobs + this backlog, not
/// by its lifetime. Retention is also the resume window: `STREAM <id>
/// FROM <seq>` of a terminal job works until the job is evicted, after
/// which a resuming client gets `ERR no such job`.
const RETAIN_TERMINAL_JOBS: usize = 64;

/// Default for [`ServerConfig::delivery_batch`]: streamed results per
/// journaled `DELIVERED` offset record. The floor is also flushed whenever
/// a stream goes idle (caught up with the producer), so a live follower's
/// floor tracks closely; the batch bounds the fsync rate on the
/// catch-up/burst path.
const DELIVERY_BATCH: usize = 4096;

/// Server construction knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7711` (port 0 for ephemeral).
    pub addr: String,
    /// Concurrent jobs (runner threads).
    pub runners: usize,
    /// Bounded queue capacity; a full queue rejects `SUBMIT`.
    pub queue_cap: usize,
    /// Prepared-graph LRU capacity.
    pub cache_cap: usize,
    /// Default per-job engine threads when `SUBMIT` omits `threads=`.
    pub default_threads: usize,
    /// Default graph storage backend when `SUBMIT` omits `store=`
    /// (`kplexd --store`): how prepared graphs are held in the cache.
    pub default_store: kplex_graph::StoreKind,
    /// Terminal jobs retained for `STATUS`/`STREAM` replay before eviction.
    pub retain_terminal: usize,
    /// Append-only job journal path (`kplexd --journal`). When set, every
    /// accepted job is fsync'd to this file before its `SUBMIT` is
    /// acknowledged, and a restarted server replays queued and
    /// orphaned-running jobs back into the queue (see [`crate::journal`]
    /// for the recovery semantics). `None` disables persistence.
    pub journal: Option<std::path::PathBuf>,
    /// Streamed results between journaled `DELIVERED` offset records
    /// (`kplexd --delivery-batch`). Smaller = tighter exactly-once window
    /// across a crash, more fsyncs; the offset is never journaled per
    /// result. Ignored without a journal.
    pub delivery_batch: usize,
    /// Principal store (`kplexd --principals`): enables tenancy — `AUTH`,
    /// per-tenant quotas, fair-share lanes, scoped verbs, token redaction.
    /// `None` preserves the anonymous single-queue behavior exactly.
    pub principals: Option<crate::auth::PrincipalStore>,
    /// Test-only: called with the cache key at the start of every cold
    /// load, *outside* the cache's map lock. Tests install a hook that
    /// blocks on a channel to hold a cold load open deterministically (no
    /// sleeps) while asserting warm jobs and `STATS` still complete.
    pub cold_load_hook: Option<LoadHook>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("runners", &self.runners)
            .field("queue_cap", &self.queue_cap)
            .field("cache_cap", &self.cache_cap)
            .field("default_threads", &self.default_threads)
            .field("default_store", &self.default_store)
            .field("retain_terminal", &self.retain_terminal)
            .field("journal", &self.journal)
            .field("delivery_batch", &self.delivery_batch)
            .field("principals", &self.principals.as_ref().map(|s| s.len()))
            .field("cold_load_hook", &self.cold_load_hook.is_some())
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        Self {
            addr: "127.0.0.1:7711".to_string(),
            runners: 2,
            queue_cap: 64,
            cache_cap: 4,
            default_threads: hw.clamp(1, 8),
            default_store: kplex_graph::StoreKind::Csr,
            retain_terminal: RETAIN_TERMINAL_JOBS,
            journal: None,
            delivery_batch: DELIVERY_BATCH,
            principals: None,
            cold_load_hook: None,
        }
    }
}

/// One tenant's sub-queue inside the fair-share admission queue.
struct TenantLane {
    /// Queued job ids, FIFO within the lane.
    deque: VecDeque<JobId>,
    /// Remaining dispatches in this lane's current scheduler turn. Refilled
    /// to `weight` when the lane's turn starts; the lane rotates to the
    /// back of the order when it hits 0.
    deficit: u64,
    /// Fair-share weight (dispatches per rotation), from the principal
    /// store; 1 for the anonymous lane.
    weight: u64,
    /// Max concurrently running jobs (0 = unlimited): a lane at its limit
    /// is skipped by the scheduler until a job finishes.
    max_running: usize,
    /// Jobs of this lane currently held by runners.
    running: usize,
    /// Slots held by submissions whose journal fsync is in flight (the
    /// fsync runs outside the queue lock); counted against both the global
    /// capacity and the lane's max-queued quota so neither can be
    /// oversubscribed while the lock is released.
    reserved: usize,
}

/// The admission queue: per-tenant lanes drained by **deficit-weighted
/// round-robin**, one mutex-protected unit (including the reservation
/// counts — see [`TenantLane::reserved`]).
///
/// Lanes are keyed by principal name; the anonymous lane (servers without
/// `--principals`, and pre-tenancy journal replays) is keyed `""` — not a
/// legal principal name, so it can never collide. With a single lane of
/// weight 1 the scheduler degenerates to exactly the previous FIFO.
///
/// Anti-starvation: a lane with queued work is visited once per rotation
/// and a lane's turn spends at most `weight` dispatches, so a job at the
/// head of its lane starts within `Σ other lanes' weights` dispatches of
/// its lane's turn — however deep any other lane's backlog is. The
/// fairness integration test pins this bound.
#[derive(Default)]
struct JobQueue {
    /// Lane per tenant, created on first use and kept for the server's
    /// lifetime (bounded by the principal count + 1).
    lanes: BTreeMap<String, TenantLane>,
    /// Round-robin rotation order of lane keys. The lane whose turn is in
    /// progress sits at the front.
    order: VecDeque<String>,
}

impl JobQueue {
    /// The lane for `key`, created with the given scheduling parameters if
    /// absent (parameters of an existing lane are left untouched).
    fn lane_mut(&mut self, key: &str, weight: u64, max_running: usize) -> &mut TenantLane {
        if !self.lanes.contains_key(key) {
            self.order.push_back(key.to_string());
        }
        self.lanes
            .entry(key.to_string())
            .or_insert_with(|| TenantLane {
                deque: VecDeque::new(),
                deficit: 0,
                weight: weight.max(1),
                max_running,
                running: 0,
                reserved: 0,
            })
    }

    /// Total queued jobs across all lanes (`STATS queue-depth=`).
    fn depth(&self) -> usize {
        self.lanes.values().map(|l| l.deque.len()).sum()
    }

    /// Total in-flight reservations across all lanes.
    fn reserved_total(&self) -> usize {
        self.lanes.values().map(|l| l.reserved).sum()
    }

    /// Removes a queued job wherever it sits (the `CANCEL` path: a dead job
    /// must not hold queue capacity until a runner pops it).
    fn remove_queued(&mut self, id: JobId) {
        for lane in self.lanes.values_mut() {
            lane.deque.retain(|&qid| qid != id);
        }
    }

    /// Pops the next job to run under deficit-weighted round-robin, or
    /// `None` when every lane is empty or blocked at its max-running limit.
    /// The caller owns the returned lane's running slot and must release it
    /// (decrement `running`, then notify) when the job leaves the runner.
    fn pop_next(&mut self) -> Option<(JobId, String)> {
        // One full rotation suffices: with unit job cost a refilled deficit
        // (weight >= 1) always covers a dispatch, so any lane that is
        // non-empty and under its running limit dispatches when visited.
        for _ in 0..self.order.len() {
            let Some(key) = self.order.pop_front() else {
                break;
            };
            let Some(lane) = self.lanes.get_mut(&key) else {
                continue;
            };
            if lane.max_running != 0 && lane.running >= lane.max_running {
                // At quota: skip without spending deficit; a finishing job
                // notifies the condvar so this lane is revisited.
                self.order.push_back(key);
                continue;
            }
            let Some(&id) = lane.deque.front() else {
                // Empty lane forfeits its turn — deficits must not be
                // hoarded while idle, or a returning flood would burst.
                lane.deficit = 0;
                self.order.push_back(key);
                continue;
            };
            if lane.deficit == 0 {
                lane.deficit = lane.weight;
            }
            lane.deficit -= 1;
            lane.deque.pop_front();
            lane.running += 1;
            if lane.deficit == 0 {
                self.order.push_back(key.clone());
            } else {
                // Turn still in progress: stay at the front for the next pop.
                self.order.push_front(key.clone());
            }
            return Some((id, key));
        }
        None
    }

    /// Returns a lane's running slot after its job left the runner.
    fn release_running(&mut self, key: &str) {
        if let Some(lane) = self.lanes.get_mut(key) {
            lane.running = lane.running.saturating_sub(1);
        }
    }
}

struct SharedState {
    jobs: OrderedMutex<BTreeMap<JobId, Arc<Job>>>,
    next_id: AtomicU64,
    queue: OrderedMutex<JobQueue>,
    queue_cond: OrderedCondvar,
    queue_cap: usize,
    cache: GraphCache,
    shutdown: AtomicBool,
    default_threads: usize,
    default_store: kplex_graph::StoreKind,
    retain_terminal: usize,
    /// Streamed results per journaled `DELIVERED` record (see
    /// [`ServerConfig::delivery_batch`]).
    delivery_batch: usize,
    /// Crash-recovery journal; `None` when the server is ephemeral.
    journal: Option<Journal>,
    /// Jobs replayed from the journal at startup (`STATS recovered=`).
    recovered: usize,
    /// Live client connections, keyed by an accept-order id. Each handler
    /// thread removes its own entry on exit, so the map tracks only open
    /// connections. Exists so [`ServerHandle::kill`] can sever them
    /// abruptly (crash simulation); the graceful shutdown ignores it.
    conns: OrderedMutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Principal store; `None` = tenancy disabled (anonymous server).
    principals: Option<crate::auth::PrincipalStore>,
    /// Every registered token — scrubbed from every reply line
    /// ([`protocol::redact_secrets`]). Empty when tenancy is disabled.
    secrets: Vec<String>,
    /// Cumulative result bytes per principal name (the anonymous key is
    /// `""`). Atomics with a key set **fixed at bind** (principals file ∪
    /// journal replay ∪ anonymous), because the job-terminal hook that
    /// updates them runs under the `JobProgress` lock — below the rank of
    /// the jobs/queue mutexes, which therefore must not be taken there.
    tenant_bytes: BTreeMap<String, AtomicU64>,
    cold_load_hook: Option<LoadHook>,
    /// Scheduler counters aggregated across every job this server has
    /// run (`STATS sched-*=`). One shared instance: the engine's workers
    /// bump it with relaxed atomics, so cross-job sharing costs nothing.
    sched_metrics: Arc<SchedMetrics>,
}

impl SharedState {
    /// Appends a journal record unless the server is shutting down. A
    /// shutdown is deliberately crash-equivalent for the journal: nothing
    /// written after it begins, so jobs interrupted by it (queued or
    /// running) replay on the next start instead of being recorded as
    /// cancelled. Append failures on a live server are logged, not fatal —
    /// the job still runs; only its restart durability degrades.
    fn journal_record(&self, write: impl FnOnce(&Journal) -> std::io::Result<()>) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(journal) = &self.journal {
            if let Err(e) = write(journal) {
                eprintln!("kplexd: journal append failed: {e}");
            }
        }
    }
}

/// One connection's authentication state: which principal (if any) has
/// presented a valid token on this connection.
#[derive(Clone, Debug, Default)]
struct ConnAuth {
    /// `None` before a successful `AUTH` — and always, on a server without
    /// a principal store (where nothing is gated on it).
    principal: Option<crate::auth::Principal>,
}

impl ConnAuth {
    /// May this connection observe a job owned by `owner`? Only meaningful
    /// after the auth gate: on a tenancy-enabled server an unauthenticated
    /// connection never reaches a job-reading verb.
    fn may_see(&self, owner: Option<&str>) -> bool {
        match &self.principal {
            None => true, // tenancy disabled: every job is visible
            Some(p) => p.admin || owner == Some(p.name.as_str()),
        }
    }
}

impl SharedState {
    /// Principal-scoped job lookup — the only jobs-map read path handlers
    /// may use (enforced by the `tenant-scoped` lint rule). A job outside
    /// the caller's scope is indistinguishable from a missing one, so
    /// cross-tenant probes cannot enumerate ids.
    fn job_for(&self, id: JobId, auth: &ConnAuth) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .get(&id)
            .filter(|job| auth.may_see(job.spec.principal.as_deref()))
            .cloned()
    }

    /// Principal-scoped job listing (see [`SharedState::job_for`]).
    fn jobs_for(&self, auth: &ConnAuth) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .values()
            .filter(|job| auth.may_see(job.spec.principal.as_deref()))
            .cloned()
            .collect()
    }

    /// Unscoped lookup for the runner pool, which dispatches every
    /// tenant's jobs and is not a client handler.
    fn job_unscoped(&self, id: JobId) -> Option<Arc<Job>> {
        // tenant: runner-internal dispatch path, not reachable from a
        // client verb — handlers must go through job_for/jobs_for.
        self.jobs.lock().get(&id).cloned()
    }
}

/// The deficit-round-robin parameters for a lane key: the principal's
/// weight and max-running quota, or `(1, unlimited)` for the anonymous
/// lane and for principals no longer in the store (a journal can outlive a
/// provisioning change).
fn lane_params(store: &Option<crate::auth::PrincipalStore>, key: &str) -> (u64, usize) {
    store
        .as_ref()
        .and_then(|s| s.by_name(key))
        .map(|p| (p.weight, p.max_running))
        .unwrap_or((1, 0))
}

/// The terminal hook installed on every job: writes the journal `END`
/// record the instant the job's terminal transition is performed — under
/// the job's lock, *before* any `STATUS`/`STREAM` reader can observe it.
/// Write-ahead matters: once a client has seen a job terminal (and
/// consumed its results), a restart must not resurrect it. It then folds
/// the job's accounted result bytes into the owning tenant's cumulative
/// counter and journals the new total (`TENANT` record, named principals
/// only — an anonymous server's journal stays byte-identical to before
/// tenancy existed). The hook runs under the `JobProgress` lock, so it may
/// only touch atomics and journal-ranked locks — see the field doc on
/// `SharedState::tenant_bytes`. The state handle is weak so the jobs map
/// and the state do not form an `Arc` cycle.
fn terminal_journal_hook(
    state: std::sync::Weak<SharedState>,
    principal: Option<String>,
) -> crate::job::TerminalHook {
    Arc::new(move |id, label, bytes| {
        if let Some(state) = state.upgrade() {
            state.journal_record(|j| j.record_end(id, label));
            if bytes == 0 {
                return;
            }
            let key = principal.as_deref().unwrap_or("");
            let Some(counter) = state.tenant_bytes.get(key) else {
                return;
            };
            // ordering: AcqRel/Acquire publish the advanced total before the
            // journal write below reads it; the counter is a monotone
            // statistic with no other data hanging off it.
            let prev = match counter.fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                Some(crate::auth::add_bytes(t, bytes))
            }) {
                Ok(prev) | Err(prev) => prev,
            };
            let total = crate::auth::add_bytes(prev, bytes);
            if let Some(name) = &principal {
                // Coalesced in the journal: racing terminals can only
                // advance the on-disk total (max wins on replay anyway).
                state.journal_record(|j| j.record_tenant(name, total));
            }
        }
    })
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<SharedState>,
    runners: usize,
}

/// Handle to a server whose accept loop runs in a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<SharedState>,
    accept: Option<std::thread::JoinHandle<()>>,
    runners: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and prepares the shared state. With
    /// [`ServerConfig::journal`] set, this replays the journal first:
    /// queued and orphaned-running jobs from the previous lifetime re-enter
    /// the queue under their original ids (flagged `recovered=true` in
    /// `STATUS`), the id counter resumes past every id ever issued, and a
    /// corrupt journal fails the bind loudly.
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let default_threads = cfg.default_threads.max(1);
        let default_store = cfg.default_store;
        let (journal, replayed) = match &cfg.journal {
            Some(path) => {
                let (journal, replay) = Journal::open(path)?;
                (Some(journal), Some(replay))
            }
            None => (None, None),
        };
        let next_id = replayed.as_ref().map_or(1, |r| r.next_id);
        let principals = cfg.principals.clone();
        let secrets = principals.as_ref().map(|s| s.tokens()).unwrap_or_default();
        // Per-tenant byte counters: the key set is fixed here — principals
        // file ∪ journaled totals ∪ the anonymous key — because the
        // terminal hook that updates them may not allocate map entries
        // under its lock rank. Journaled totals seed the counters, so
        // cumulative accounting survives restarts.
        let mut tenant_bytes: BTreeMap<String, AtomicU64> = BTreeMap::new();
        tenant_bytes.insert(String::new(), AtomicU64::new(0));
        if let Some(store) = &principals {
            for p in store.principals() {
                tenant_bytes.entry(p.name.clone()).or_default();
            }
        }
        for (name, &bytes) in replayed.iter().flat_map(|r| &r.tenant_bytes) {
            tenant_bytes.insert(name.clone(), AtomicU64::new(bytes));
        }
        // `new_cyclic`: replayed jobs need the terminal hook, and the hook
        // needs a (weak — jobs must not keep the state alive in a cycle)
        // handle to the state being built.
        let state = Arc::new_cyclic(|weak: &std::sync::Weak<SharedState>| {
            let mut jobs = BTreeMap::new();
            let mut queue = JobQueue::default();
            for recovered in replayed.into_iter().flat_map(|r| r.jobs) {
                // Re-validate against *this* lifetime's registry: a journal
                // may outlive a dataset or an algorithm preset. An invalid
                // replayed job is failed in the journal (not resurrected
                // forever), not silently dropped.
                match validate(default_threads, default_store, &recovered.args) {
                    Ok(spec) => {
                        // The journaled delivery floor travels with the job:
                        // a client consumed results below it in the previous
                        // lifetime, so streams of the replayed job skip them.
                        // The journaled principal tag travels with it too —
                        // back into its owner's fair-share lane and byte
                        // accounting.
                        let principal = spec.principal.clone();
                        let job = Job::new_recovered(recovered.id, spec)
                            .with_delivered_floor(recovered.delivered)
                            .with_terminal_hook(terminal_journal_hook(
                                weak.clone(),
                                principal.clone(),
                            ));
                        jobs.insert(recovered.id, Arc::new(job));
                        let key = principal.unwrap_or_default();
                        let (weight, max_running) = lane_params(&principals, &key);
                        queue
                            .lane_mut(&key, weight, max_running)
                            .deque
                            .push_back(recovered.id);
                    }
                    Err(reason) => {
                        eprintln!(
                            "kplexd: journal replay: job {} no longer valid ({reason}), failing it",
                            recovered.id
                        );
                        if let Some(journal) = &journal {
                            let _ = journal.record_end(recovered.id, "failed");
                        }
                    }
                }
            }
            let recovered = queue.depth();
            SharedState {
                jobs: OrderedMutex::new(Rank::ServerJobs, "server-jobs", jobs),
                next_id: AtomicU64::new(next_id),
                queue: OrderedMutex::new(Rank::ServerQueue, "server-queue", queue),
                queue_cond: OrderedCondvar::new(),
                queue_cap: cfg.queue_cap.max(1),
                cache: GraphCache::new(cfg.cache_cap),
                shutdown: AtomicBool::new(false),
                default_threads,
                default_store,
                retain_terminal: cfg.retain_terminal,
                delivery_batch: cfg.delivery_batch.max(1),
                journal,
                recovered,
                conns: OrderedMutex::new(Rank::ServerConns, "server-conns", BTreeMap::new()),
                next_conn: AtomicU64::new(0),
                principals,
                secrets,
                tenant_bytes,
                cold_load_hook: cfg.cold_load_hook.clone(),
                sched_metrics: Arc::new(SchedMetrics::default()),
            }
        });
        Ok(Server {
            listener,
            runners: cfg.runners.max(1),
            state,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    fn spawn_runners(&self) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.runners)
            .map(|_| {
                let state = self.state.clone();
                std::thread::spawn(move || runner_loop(&state))
            })
            .collect()
    }

    /// Runs the accept loop on the current thread (the `kplexd` entry),
    /// with the runner pool sized by [`ServerConfig::runners`].
    pub fn run(self) -> std::io::Result<()> {
        let _runners = self.spawn_runners();
        accept_loop(&self.listener, &self.state);
        Ok(())
    }

    /// Runs the accept loop in a background thread and returns a handle
    /// (used by tests and the CLI smoke).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let runner_handles = self.spawn_runners();
        let state = self.state.clone();
        let listener = self.listener;
        let accept_state = state.clone();
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(ServerHandle {
            addr,
            state,
            accept: Some(accept),
            runners: runner_handles,
        })
    }
}

impl ServerHandle {
    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, cancels every live job, and joins the accept loop
    /// and runner pool. Connection handler threads are detached; they exit
    /// as their clients disconnect or their streams observe the shutdown.
    pub fn shutdown(self) {
        self.teardown(false);
    }

    /// Crash-equivalent teardown for tests and smoke suites: severs every
    /// open client connection mid-line — in-flight streams break with a
    /// transport error on the peer, with no graceful `ERR`/`END` — then
    /// stops like [`ServerHandle::shutdown`]. Journal-wise the two are
    /// already identical (nothing is written once shutdown begins), so the
    /// only observable difference is how abruptly clients are cut off:
    /// exactly what failover and resume paths need to exercise.
    pub fn kill(self) {
        self.teardown(true);
    }

    fn teardown(mut self, sever: bool) {
        self.state.shutdown.store(true, Ordering::Release);
        if sever {
            let conns = self.state.conns.lock();
            for conn in conns.values() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
        // Cancel live jobs so runners and streamers unblock quickly.
        // tenant: teardown spans every tenant by design.
        let jobs: Vec<Arc<Job>> = self.state.jobs.lock().values().cloned().collect();
        for job in jobs {
            if !job.state().is_terminal() {
                job.request_cancel();
            }
        }
        self.state.queue_cond.notify_all();
        // Poke the accept loop out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<SharedState>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Register the connection so `kill()` can sever it; the
                // handler thread deregisters itself on exit, keeping the
                // registry bounded by *open* connections.
                // ordering: connection ids only need uniqueness, nothing
                // else is published through this counter.
                let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    state.conns.lock().insert(conn_id, clone);
                }
                let state = state.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &state);
                    state.conns.lock().remove(&conn_id);
                });
            }
            Err(_) if state.shutdown.load(Ordering::Acquire) => return,
            Err(_) => continue,
        }
    }
}

// --- connection handling ----------------------------------------------------

fn write_line<W: Write>(stream: &mut W, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn handle_connection(stream: TcpStream, state: &Arc<SharedState>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    let mut auth = ConnAuth::default();
    // Every reply line leaves through this chokepoint, scrubbed of every
    // registered token — the no-token-ever-echoed guarantee does not rely
    // on each handler remembering to redact. (Result NDJSON lines stream
    // through `stream_job`'s buffered fast path instead; they are vertex
    // id arrays and framing, with no client- or operator-supplied text.)
    let reply = |writer: &mut TcpStream, line: &str| -> std::io::Result<()> {
        if state.secrets.is_empty() {
            write_line(writer, line)
        } else {
            write_line(writer, &protocol::redact_secrets(line, &state.secrets))
        }
    };
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let req = match protocol::parse_request(&line) {
            Ok(req) => req,
            Err(e) => {
                reply(&mut writer, &format!("ERR {e}"))?;
                continue;
            }
        };
        // The auth gate: with tenancy enabled, every verb except
        // PING/QUIT/AUTH requires a successful AUTH on this connection.
        if state.principals.is_some()
            && auth.principal.is_none()
            && !matches!(req, Request::Ping | Request::Quit | Request::Auth(_))
        {
            reply(&mut writer, "ERR authentication required (AUTH <token>)")?;
            continue;
        }
        match req {
            Request::Quit => {
                reply(&mut writer, "OK bye")?;
                return Ok(());
            }
            Request::Ping => reply(&mut writer, "OK pong")?,
            Request::Auth(token) => {
                let resp = match &state.principals {
                    None => {
                        "ERR authentication disabled (start kplexd with --principals)".to_string()
                    }
                    Some(store) => match store.authenticate(&token) {
                        Some(p) => {
                            auth.principal = Some(p.clone());
                            format!(
                                "OK principal={} weight={} admin={}",
                                p.name, p.weight, p.admin
                            )
                        }
                        // Deliberately does not echo the presented token.
                        None => "ERR unknown token".to_string(),
                    },
                };
                reply(&mut writer, &resp)?;
            }
            Request::Submit(args) => {
                let resp = match submit(state, &args, &auth) {
                    Ok(id) => format!("OK id={id} state=queued"),
                    Err(e) => format!("ERR {e}"),
                };
                reply(&mut writer, &resp)?;
            }
            Request::Status(id) => {
                let resp = match state.job_for(id, &auth) {
                    Some(job) => status_line(&job, &state.secrets),
                    None => format!("ERR no such job {id}"),
                };
                reply(&mut writer, &resp)?;
            }
            Request::Cancel(id) => {
                let resp = match state.job_for(id, &auth) {
                    Some(job) => {
                        job.request_cancel();
                        // A job cancelled while queued must also free its
                        // bounded-queue slot, or dead jobs hold capacity
                        // against new submissions until a runner pops them.
                        state.queue.lock().remove_queued(id);
                        // A queued job dies inside `request_cancel`, which
                        // fires the terminal hook — the journal END record
                        // is already written by the time we reply.
                        let snap = job.snapshot();
                        format!("OK id={id} state={}", snap.state.label())
                    }
                    None => format!("ERR no such job {id}"),
                };
                reply(&mut writer, &resp)?;
            }
            Request::List => {
                let jobs = state.jobs_for(&auth);
                for job in &jobs {
                    let s = job.snapshot();
                    let mut line = format!(
                        "JOB id={} state={} source={} k={} q={} results={}",
                        s.id,
                        s.state.label(),
                        s.source,
                        s.params.k,
                        s.params.q,
                        s.results
                    );
                    if let Some(owner) = &job.spec.principal {
                        line.push_str(&format!(" principal={owner}"));
                    }
                    reply(&mut writer, &line)?;
                }
                reply(&mut writer, &format!("END count={}", jobs.len()))?;
            }
            Request::Stats => {
                let CacheStats {
                    hits,
                    coalesced,
                    misses,
                    entries,
                    pending,
                    waiting,
                } = state.cache.stats();
                // tenant: STATS is an aggregate view; it exposes counts and
                // principal *names* (public), never job details or tokens.
                let jobs = state.jobs.lock().len();
                let depth = state.queue.lock().depth();
                let recovered = state.recovered;
                // Per-backend cache residency: total bytes plus a
                // `label:entries:bytes` breakdown ("-" when the cache is
                // empty — the grammar rejects empty values).
                let agg = state.cache.store_stats();
                let graph_bytes: u64 = agg.iter().map(|&(_, _, b)| b).sum();
                let store = if agg.is_empty() {
                    "-".to_string()
                } else {
                    agg.iter()
                        .map(|&(l, c, b)| format!("{l}:{c}:{b}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                // Work-stealing engine counters, cumulative over every job
                // this server lifetime has run (they do not survive
                // restarts — unlike tenant bytes they are not journaled).
                let sm = &state.sched_metrics;
                let mut line = format!(
                    "OK jobs={jobs} queue-depth={depth} recovered={recovered} \
                     cache-hits={hits} cache-coalesced={coalesced} \
                     cache-misses={misses} cache-entries={entries} \
                     cache-pending={pending} cache-waiting={waiting} \
                     graph-bytes={graph_bytes} store={store} \
                     sched-steals={} sched-injector-steals={} \
                     sched-parks={} sched-unparks={}",
                    sm.steals(),
                    sm.injector_steals(),
                    sm.parks(),
                    sm.unparks()
                );
                // Tenant accounting block, present only with a principal
                // store (an anonymous server's STATS stays byte-identical).
                if let Some(store) = &state.principals {
                    line.push_str(&format!(" tenants={}", store.len()));
                    let queue = state.queue.lock();
                    for (i, p) in store.principals().iter().enumerate() {
                        let (queued, running) = queue
                            .lanes
                            .get(&p.name)
                            .map(|l| (l.deque.len() + l.reserved, l.running))
                            .unwrap_or((0, 0));
                        // ordering: the counter is a standalone monotone
                        // statistic; Acquire pairs with the hook's AcqRel.
                        let bytes = state
                            .tenant_bytes
                            .get(&p.name)
                            .map(|c| c.load(Ordering::Acquire))
                            .unwrap_or(0);
                        line.push_str(&format!(
                            " tenant{i}-name={} tenant{i}-queued={queued} \
                             tenant{i}-running={running} tenant{i}-bytes={bytes}",
                            p.name
                        ));
                    }
                }
                reply(&mut writer, &line)?;
            }
            Request::AddNode(_) | Request::DropNode(_) | Request::Nodes | Request::Rebalance => {
                reply(
                    &mut writer,
                    "ERR router-only verb (this is a kplexd backend, not a kplexr router)",
                )?;
            }
            Request::Stream(id, from) => match state.job_for(id, &auth) {
                Some(job) => stream_job(&mut writer, state, &job, from)?,
                None => reply(&mut writer, &format!("ERR no such job {id}"))?,
            },
        }
    }
    Ok(())
}

fn status_line(job: &Job, secrets: &[String]) -> String {
    let s = job.snapshot();
    let mut line = format!(
        "OK id={} state={} source={} k={} q={} results={} elapsed-ms={}",
        s.id,
        s.state.label(),
        s.source,
        s.params.k,
        s.params.q,
        s.results,
        s.elapsed_ms
    );
    match s.cache_hit {
        Some(true) => line.push_str(" cache=hit"),
        Some(false) => line.push_str(" cache=miss"),
        None => line.push_str(" cache=-"),
    }
    if s.recovered {
        line.push_str(" recovered=true");
    }
    if let Some(owner) = &job.spec.principal {
        line.push_str(&format!(" principal={owner}"));
    }
    if let Some(stats) = &s.stats {
        line.push_str(&format!(
            " branches={} outputs={}",
            stats.branch_calls, stats.outputs
        ));
    }
    if let Some(err) = &s.error {
        // Full sanitization, not just spaces: an io::Error message can
        // carry tabs or newlines, which would corrupt the line protocol —
        // and redaction, because an error can embed operator- or
        // client-supplied text (a path, say) that contains a token.
        line.push_str(&format!(
            " error={}",
            protocol::sanitize_value_redacted(err, secrets)
        ));
    }
    line
}

/// Streams buffered results (NDJSON) from `from` — raised to the job's
/// journaled delivery floor — and follows the job until it is terminal,
/// then writes the `END` line.
///
/// The `END` line reports the **actually-sent** high-water position
/// (`results=` is the next undelivered seq), not the job's buffered total:
/// if the two ever disagree — a short delivery, or a `FROM` past the end —
/// a `truncated=true total=<buffered>` marker surfaces the gap instead of
/// silently claiming completeness.
fn stream_job(
    writer: &mut TcpStream,
    state: &SharedState,
    job: &Arc<Job>,
    from: u64,
) -> std::io::Result<()> {
    // Result lines go through a buffer (one syscall per ~8 KiB instead of
    // two per plex — this is the 10^6-results path). The buffer is flushed
    // whenever the job has nothing new (Idle) and at the end, so a live
    // follower still sees results promptly.
    let mut out = std::io::BufWriter::new(writer);
    // `sent` is the next seq to deliver: it starts at the client's resume
    // point, never below the journaled floor (results under it were
    // consumed in a previous server lifetime — re-delivering them would
    // break exactly-once across the restart).
    let mut sent = from.max(job.delivered_floor) as usize;
    // Offset journaling is batched (every `delivery_batch` results) and
    // flushed at idle points — never one fsync per result.
    let mut journaled = sent;
    let note_delivered = |sent: usize, journaled: &mut usize| {
        if sent > *journaled {
            state.journal_record(|j| j.record_delivered(job.id, sent as u64));
            *journaled = sent;
        }
    };
    let mut buf = PlexBuf::default();
    loop {
        buf.clear();
        match job.next_results(sent, &mut buf, WAIT_TICK) {
            StreamStep::Items => {
                for plex in buf.iter() {
                    write_line(
                        &mut out,
                        &protocol::render_plex_line(job.id, sent as u64, plex),
                    )?;
                    sent += 1;
                    if sent - journaled >= state.delivery_batch {
                        note_delivered(sent, &mut journaled);
                    }
                }
            }
            StreamStep::Ended(job_state, total) => {
                // No floor record here: the job is terminal, its journal
                // END is already on disk (write-ahead), and replay never
                // resurrects it — a floor would be dead weight.
                let mut end = format!(
                    "END id={} state={} results={sent}",
                    job.id,
                    job_state.label()
                );
                if let Some(owner) = &job.spec.principal {
                    // Tenant-tagged terminal frame, same as `STATUS`.
                    end.push_str(&format!(" principal={owner}"));
                }
                if sent as u64 != total {
                    end.push_str(&format!(" truncated=true total={total}"));
                }
                write_line(&mut out, &end)?;
                return out.flush();
            }
            StreamStep::Idle => {
                note_delivered(sent, &mut journaled);
                out.flush()?;
                if state.shutdown.load(Ordering::Acquire) {
                    return write_line(&mut out, "ERR server shutting down")
                        .and_then(|()| out.flush());
                }
            }
        }
    }
}

// --- submission -------------------------------------------------------------

/// Resolves the principal a submission runs **as**: the authenticated one,
/// unless an admin tags another principal's name (the router's proxy
/// path). Returns the effective principal, or `None` for the anonymous
/// server.
fn effective_principal(
    state: &SharedState,
    args: &SubmitArgs,
    auth: &ConnAuth,
) -> Result<Option<crate::auth::Principal>, String> {
    let Some(store) = &state.principals else {
        if args.principal.is_some() {
            return Err("principal= requires a server started with --principals".into());
        }
        return Ok(None);
    };
    let Some(me) = &auth.principal else {
        // Unreachable past the connection's auth gate; kept as defense.
        return Err("authentication required (AUTH <token>)".into());
    };
    match &args.principal {
        None => Ok(Some(me.clone())),
        Some(tag) if *tag == me.name => Ok(Some(me.clone())),
        Some(tag) => {
            if !me.admin {
                return Err(
                    "only an admin principal may submit on another principal's behalf".into(),
                );
            }
            store
                .by_name(tag)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("unknown principal {tag:?}"))
        }
    }
}

fn submit(state: &Arc<SharedState>, args: &SubmitArgs, auth: &ConnAuth) -> Result<JobId, String> {
    if state.shutdown.load(Ordering::Acquire) {
        // The runner pool is gone; accepting would queue the job forever.
        return Err("server shutting down".into());
    }
    let principal = effective_principal(state, args, auth)?;
    let mut spec = validate(state.default_threads, state.default_store, args)?;
    spec.principal = principal.as_ref().map(|p| p.name.clone());
    // What the journal must remember is the *effective* principal — an
    // untagged submit by an authenticated tenant replays into that
    // tenant's lane, not the anonymous one.
    let journal_args = {
        let mut a = args.clone();
        a.principal = spec.principal.clone();
        a
    };
    let lane_key = spec.principal.clone().unwrap_or_default();
    let (weight, max_running) = principal
        .as_ref()
        .map(|p| (p.weight, p.max_running))
        .unwrap_or((1, 0));
    let max_queued = principal.as_ref().map_or(0, |p| p.max_queued);
    // ordering: id allocation only needs uniqueness; publication of the job
    // itself happens under the queue/jobs locks in phase 2.
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let hook = terminal_journal_hook(Arc::downgrade(state), spec.principal.clone());
    let job = Arc::new(Job::new(id, spec).with_terminal_hook(hook));
    // Phase 1: reserve a queue slot, checking the global capacity *and*
    // the tenant's max-queued quota. Both checks count slots held by
    // submissions whose journal fsync is still in flight, so neither limit
    // can be oversubscribed while the lock is released below.
    {
        let mut queue = state.queue.lock();
        let waiting = queue.depth() + queue.reserved_total();
        if waiting >= state.queue_cap {
            return Err(format!("queue full ({waiting} jobs waiting), retry later"));
        }
        let lane = queue.lane_mut(&lane_key, weight, max_running);
        let lane_waiting = lane.deque.len() + lane.reserved;
        if max_queued != 0 && lane_waiting >= max_queued {
            return Err(format!(
                "quota exceeded: principal {lane_key} has {lane_waiting} jobs \
                 queued (max-queued={max_queued})"
            ));
        }
        lane.reserved += 1;
    }
    // Journal-before-ack, with the fsync OUTSIDE the queue lock —
    // submissions must not serialize runner pops behind disk latency. A
    // journal failure rejects the submission (the job would not survive a
    // restart); a crash right after the fsync replays a job no client was
    // ever promised — the at-least-once side of the contract. Ordering per
    // id still holds: the job is invisible to runners until phase 2.
    let journaled = match &state.journal {
        Some(journal) => journal
            .record_submit(id, &journal_args)
            .map_err(|e| format!("journal write failed: {e}")),
        None => Ok(()),
    };
    // Phase 2: publish (always releasing the reservation first).
    {
        let mut queue = state.queue.lock();
        queue.lane_mut(&lane_key, weight, max_running).reserved -= 1;
        journaled?;
        {
            // tenant: terminal-job eviction walks every tenant's jobs —
            // retention is a global memory bound, not a per-tenant view.
            let mut jobs = state.jobs.lock();
            jobs.insert(id, job);
            // Evict the oldest terminal jobs beyond the retention backlog
            // (BTreeMap iterates in id = submission order).
            let stale: Vec<JobId> = jobs
                .iter()
                .filter(|(_, j)| j.state().is_terminal())
                .map(|(&jid, _)| jid)
                .collect();
            if stale.len() > state.retain_terminal {
                for jid in &stale[..stale.len() - state.retain_terminal] {
                    jobs.remove(jid);
                }
            }
        }
        queue
            .lane_mut(&lane_key, weight, max_running)
            .deque
            .push_back(id);
    }
    state.queue_cond.notify_one();
    Ok(id)
}

fn validate(
    default_threads: usize,
    default_store: kplex_graph::StoreKind,
    args: &SubmitArgs,
) -> Result<JobSpec, String> {
    let params = Params::new(args.k, args.q).map_err(|e| e.to_string())?;
    let store = match &args.store {
        None => default_store,
        Some(s) => kplex_graph::StoreKind::parse(s)
            .ok_or_else(|| format!("unknown store {s:?} (expected csr, compressed or mmap)"))?,
    };
    let source = match (&args.dataset, &args.path) {
        (Some(name), None) => {
            kplex_datasets::by_name(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
            GraphSource::Dataset(name.clone())
        }
        (None, Some(path)) => GraphSource::Path(path.clone()),
        _ => return Err("exactly one of dataset= or path= required".into()),
    };
    let algo = args.algo.clone().unwrap_or_else(|| "ours".to_string());
    kplex_core::AlgoConfig::by_name(&algo).ok_or_else(|| format!("unknown algo {algo:?}"))?;
    Ok(JobSpec {
        source,
        params,
        threads: args.threads.unwrap_or(default_threads).clamp(1, 128),
        algo,
        limit: args.limit.unwrap_or(1_000_000).max(1),
        timeout: args
            .timeout_ms
            .filter(|&t| t > 0)
            .map(Duration::from_millis),
        throttle: Duration::from_micros(args.throttle_us.unwrap_or(0)),
        tau: Some(Duration::from_micros(args.tau_us.unwrap_or(100))),
        store,
        // The tag as submitted (journal replay path); the live submit path
        // overwrites this with the connection's effective principal.
        principal: args.principal.clone(),
    })
}

// --- job execution ----------------------------------------------------------

fn runner_loop(state: &Arc<SharedState>) {
    loop {
        let (id, lane_key) = {
            let mut queue = state.queue.lock();
            loop {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Deficit-round-robin pop; `None` also covers the
                // jobs-queued-but-every-lane-at-max-running case, where
                // this runner waits for a finishing job's notify.
                if let Some(popped) = queue.pop_next() {
                    break popped;
                }
                let (q, _timed_out) = state.queue_cond.wait_timeout(queue, WAIT_TICK);
                queue = q;
            }
        };
        if let Some(job) = state.job_unscoped(id) {
            execute(state, &job);
        }
        // Release the lane's running slot and wake every waiter: a lane
        // blocked at its max-running quota may just have become eligible,
        // and which runner sleeps on the condvar is arbitrary.
        state.queue.lock().release_running(&lane_key);
        state.queue_cond.notify_all();
    }
}

/// Per-worker engine sink: paces reports (the ops throttle knob) and
/// appends each one to the job's result buffer, stopping the enumeration
/// once the buffer holds the job's `limit` results.
struct JobSink<'a> {
    job: &'a Job,
    throttle: Duration,
}

impl PlexSink for JobSink<'_> {
    fn report(&mut self, vertices: &[u32]) -> SinkFlow {
        if !self.throttle.is_zero() {
            std::thread::sleep(self.throttle);
            // A cancel or deadline that landed during the pause keeps this
            // result out of the buffer.
            if self.job.cancel.load(Ordering::Acquire) {
                return SinkFlow::Stop;
            }
        }
        if self.job.append_result(vertices) >= self.job.spec.limit {
            SinkFlow::Stop
        } else {
            SinkFlow::Continue
        }
    }
}

fn load_graph(source: &GraphSource) -> Result<kplex_graph::CsrGraph, String> {
    match source {
        GraphSource::Dataset(name) => kplex_datasets::by_name(name)
            .map(|d| d.load())
            .ok_or_else(|| format!("unknown dataset {name:?}")),
        GraphSource::Path(path) => io::read_edge_list(path)
            .map(|(g, _)| g)
            .map_err(|e| format!("loading {path:?}: {e}")),
    }
}

/// Resolves the `.kpx` file backing an `mmap` job: datasets convert into
/// the data cache once ([`kplex_datasets::Dataset::ensure_kpx`]); a path
/// already ending in `.kpx` opens as-is; any other path converts to a
/// sibling `<path>.kpx`, refreshed whenever the source file is newer.
fn kpx_path_for(source: &GraphSource) -> Result<std::path::PathBuf, String> {
    match source {
        GraphSource::Dataset(name) => kplex_datasets::by_name(name)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?
            .ensure_kpx()
            .map_err(|e| format!("converting dataset {name:?} to .kpx: {e}")),
        GraphSource::Path(path) => {
            let src = std::path::Path::new(path);
            if src.extension().is_some_and(|e| e == "kpx") {
                return Ok(src.to_path_buf());
            }
            let out = std::path::PathBuf::from(format!("{path}.kpx"));
            let fresh = match (std::fs::metadata(&out), std::fs::metadata(src)) {
                (Ok(o), Ok(s)) => match (o.modified(), s.modified()) {
                    (Ok(om), Ok(sm)) => om >= sm,
                    _ => false,
                },
                _ => false,
            };
            if !fresh {
                let (g, _) =
                    io::read_edge_list(src).map_err(|e| format!("loading {path:?}: {e}"))?;
                kplex_graph::write_kpx(&g, &out)
                    .map_err(|e| format!("converting {path:?} to .kpx: {e}"))?;
            }
            Ok(out)
        }
    }
}

/// Loads `source` as the requested backend and runs [`prepare`] on it.
/// `prepare` keeps the reduced working set resident in the backend the
/// input's [`kplex_graph::StoreKind::resident`] rule selects, so an `mmap`
/// job never materialises the full graph uncompressed in RAM.
fn build_prepared(
    source: &GraphSource,
    kind: kplex_graph::StoreKind,
    params: Params,
) -> Result<kplex_core::Prepared, String> {
    use kplex_graph::{CompressedStore, StoreBackend, StoreKind};
    match kind {
        StoreKind::Csr => Ok(prepare(&load_graph(source)?, params)),
        StoreKind::Compressed => {
            let g = load_graph(source)?;
            Ok(prepare(&CompressedStore::from_graph(&g), params))
        }
        StoreKind::Mmap => {
            let path = kpx_path_for(source)?;
            let backend = StoreBackend::open_mmap(&path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            Ok(prepare(&backend, params))
        }
    }
}

/// Runs one popped job end to end. The journal's `START` record is written
/// here; the terminal `END` record is written by the job's terminal hook
/// (inside the transition itself, so it is on disk before any client can
/// observe the job terminal). Both are suppressed during shutdown (see
/// [`SharedState::journal_record`]) so interrupted jobs replay on restart
/// instead of being recorded as cancelled.
fn execute(state: &Arc<SharedState>, job: &Arc<Job>) {
    if !job.mark_running() {
        return; // cancelled while queued; the terminal hook journaled it
    }
    state.journal_record(|j| j.record_start(job.id));
    // The wall-clock deadline covers the whole running phase, including a
    // cold graph load/prepare (which may also wait on the cache's
    // single-flight lock) — not just the enumeration. A deadline raised
    // before the engine starts makes it skip construction. `run_job` always
    // ends the job terminal, which releases the watchdog.
    std::thread::scope(|scope| {
        if let Some(timeout) = job.spec.timeout {
            let deadline = Instant::now() + timeout;
            scope.spawn(move || job.enforce_deadline(deadline));
        }
        run_job(state, job);
    });
}

fn run_job(state: &Arc<SharedState>, job: &Job) {
    let spec = &job.spec;
    let Some(cfg) = spec.config() else {
        job.fail(format!("unknown algo {:?}", spec.algo));
        return;
    };
    // Load + (q−k)-core reduce through the LRU, keyed by graph content and
    // the shrink threshold — a warm resubmit skips this phase entirely.
    // The build runs outside the cache's map lock (per-entry single-flight):
    // a slow cold load here blocks only jobs for the *same* key, while warm
    // jobs and `STATS` proceed.
    let shrink = spec.params.q - spec.params.k;
    // The storage backend is part of the cache identity: the same graph
    // held as CSR and as compressed rows are different resident objects.
    let key = format!("{}!{}", spec.source.cache_key(), spec.store.label());
    let hook = state.cold_load_hook.clone();
    let prep = state.cache.get_or_build(&key, shrink, || {
        if let Some(hook) = &hook {
            hook.0(&key);
        }
        build_prepared(&spec.source, spec.store, spec.params)
    });
    let prep = match prep {
        Ok((prep, fetched)) => {
            job.set_cache_hit(fetched.is_warm());
            prep
        }
        Err(e) => {
            job.fail(e);
            return;
        }
    };

    let mut opts = EngineOptions::with_threads(spec.threads);
    opts.timeout = spec.tau;
    opts.stop_flag = Some(job.cancel.clone());
    opts.metrics = Some(state.sched_metrics.clone());
    let (_, stats) = run_parallel_prepared(&prep, spec.params, &cfg, &opts, || JobSink {
        job,
        throttle: spec.throttle,
    });
    job.finish(stats);
}
