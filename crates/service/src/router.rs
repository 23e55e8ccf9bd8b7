//! `kplexr` — a shard router fronting N `kplexd` backends.
//!
//! The router speaks the same line protocol as `kplexd` to its clients and
//! owns a registry of backends (a static list at startup plus the
//! `ADDNODE`/`DROPNODE` admin verbs). It places every `SUBMIT` by
//! **rendezvous hashing** the job's (graph cache key, `q − k`) over the
//! live backends, so all jobs touching one prepared graph land on the same
//! backend and its prepared-graph LRU stays hot — the k-plex workloads of
//! the paper are dominated by a few heavy graphs, exactly the shape where
//! cache affinity pays.
//!
//! Job ids are **router-assigned**: clients see one dense id namespace and
//! never learn backend-local ids. `STATUS`/`STREAM`/`CANCEL`/`LIST` are
//! proxied to the owning backend with ids rewritten in both directions;
//! replies gain a `backend=` field naming the owner.
//!
//! With `--replicas R` (R > 1) every submission is additionally placed on
//! the next R − 1 live backends in the key's rendezvous order. The first
//! copy is the **primary** and owns the authoritative job state; the rest
//! are best-effort read replicas: `STATUS`/`STREAM` reads fan out across
//! primary + live replicas round-robin, and a primary lost mid-stream is
//! promoted to a live replica instead of being recomputed from scratch.
//!
//! Failover: any transport failure towards a backend marks it dead. Jobs
//! placed on it fail over to the survivors: one with a live replica is
//! promoted to it in place; the rest — queued *and* running — are
//! transparently resubmitted under their original router ids. Re-running
//! is safe because result streams are resumable ([`crate::protocol`]'s
//! `STREAM … FROM <seq>`): a client consuming a stream when the backend
//! died is continued on the new placement from the first seq it has not
//! received, so every result is delivered exactly once. (Cross-backend
//! resume assumes deterministic result order — submit single-threaded
//! jobs where that matters; see PROTOCOL.md.) `DROPNODE` drains a healthy
//! backend gracefully: its queued jobs are cancelled remotely and
//! rerouted, running jobs finish in place and remain reachable through
//! the router.

use crate::client::{Client, ClientError};
use crate::protocol::{self, JobId, Request, SubmitArgs};
use crate::sync::{OrderedMutex, Rank};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on proxy retries for one request: each retry follows a
/// failover (which kills at least one backend), so this never spins.
const MAX_PROXY_ATTEMPTS: usize = 8;

/// Pause between proxy retries after a transport failure, long enough for
/// a concurrent recovery claim ([`REQUEUEING`]) to publish its outcome.
const RETRY_PAUSE: std::time::Duration = std::time::Duration::from_millis(5);

/// Bound on establishing a backend connection. A wedged (not crashed)
/// backend must surface as a transport failure, not a stalled router.
const CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Bound on each reply to a unary backend call (`SUBMIT`/`STATUS`/
/// `CANCEL`/`STATS`) — these are trivial for a healthy `kplexd`, so an
/// overrun means the backend is wedged and drives failover. Streams are
/// deliberately unbounded: a live `STREAM` is legitimately silent while
/// the job computes.
const UNARY_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// A backend connection for one-shot request/response calls (bounded). On
/// a tenancy-enabled router this authenticates to the backend as the admin
/// principal — proxied jobs are tagged `principal=`, which backends accept
/// only from an admin connection.
fn unary(state: &RouterState, addr: &str) -> Result<Client, ClientError> {
    let mut c = Client::connect_timeout(addr, CONNECT_TIMEOUT, Some(UNARY_READ_TIMEOUT))?;
    if let Some(token) = &state.admin_token {
        c.auth(token)?;
    }
    Ok(c)
}

/// A backend connection for `STREAM` proxying (bounded connect only),
/// admin-authenticated like [`unary`].
fn streaming(state: &RouterState, addr: &str) -> Result<Client, ClientError> {
    let mut c = Client::connect_timeout(addr, CONNECT_TIMEOUT, None)?;
    if let Some(token) = &state.admin_token {
        c.auth(token)?;
    }
    Ok(c)
}

/// Router construction knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address, e.g. `127.0.0.1:7710` (port 0 for ephemeral).
    pub addr: String,
    /// Initial backend registry (`host:port` of running `kplexd` servers).
    pub backends: Vec<String>,
    /// Background health prober; `None` disables it (backends are then
    /// only marked dead reactively, when a proxied request fails).
    pub probe: Option<ProbeConfig>,
    /// Copies of each job placed across distinct backends (the rendezvous
    /// top-R for its key). The first is the primary; the rest are
    /// best-effort read replicas (see the module docs). `1` — the
    /// default — disables replication.
    pub replicas: usize,
    /// Principal store (`kplexr --principals`, same file as the backends):
    /// enables edge tenancy — clients `AUTH` to the router, over-quota
    /// submits are rejected before any backend sees them, proxied jobs are
    /// tagged with the owning principal, and proxied verbs are scoped to
    /// it. Requires the file to contain an admin principal: the router
    /// authenticates its backend connections with the first admin token.
    /// `None` preserves the anonymous router exactly.
    pub principals: Option<crate::auth::PrincipalStore>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7710".to_string(),
            backends: Vec::new(),
            probe: None,
            replicas: 1,
            principals: None,
        }
    }
}

/// Health-prober knobs: how often every registered backend is `PING`ed and
/// the flap-suppression thresholds. Detection latency for a hard-down
/// backend is at most `fall × interval + timeout`; with the defaults
/// (3 × 1 s + 500 ms) a corpse leaves the routing set within ~3.5 s without
/// any client traffic towards it.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// Pause between probe rounds (each round pings every registered node).
    pub interval: Duration,
    /// Per-probe connect + reply budget; an overrun counts as a failure.
    pub timeout: Duration,
    /// Consecutive probe failures before a live node is marked dead (flap
    /// suppression: one dropped probe must not trigger a failover storm).
    pub fall: u32,
    /// Consecutive probe successes before a dead node rejoins the routing
    /// set (a flapping node must prove itself before taking jobs again).
    pub rise: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(1000),
            timeout: Duration::from_millis(500),
            fall: 3,
            rise: 2,
        }
    }
}

struct Node {
    addr: String,
    /// Live nodes receive new submissions and failover traffic. A node goes
    /// dead on any transport failure towards it (or `fall` consecutive
    /// probe failures); `ADDNODE` or `rise` consecutive probe successes
    /// revive it.
    alive: bool,
    /// Consecutive probe failures (reset by a successful probe or revival).
    probe_fails: u32,
    /// Consecutive probe successes (reset by a failed probe or revival).
    probe_oks: u32,
}

impl Node {
    fn new(addr: String) -> Node {
        Node {
            addr,
            alive: true,
            probe_fails: 0,
            probe_oks: 0,
        }
    }
}

/// Router-side record of one routed job.
#[derive(Clone)]
struct Routed {
    backend: String,
    remote_id: JobId,
    /// Best-effort replica placements, `(backend, backend-local id)` each.
    /// Replicas run the same job independently; they serve reads and stand
    /// by for promotion when the primary's backend dies. Entries are
    /// scrubbed as their backends die.
    replicas: Vec<(String, JobId)>,
    /// Kept for failover resubmission of queued jobs.
    args: SubmitArgs,
    /// Last state observed from the backend (`queued` until seen otherwise).
    last_state: String,
    /// Set when the router itself terminated the job (backend lost).
    error: Option<String>,
    /// Placement attempts (1 = original submission).
    attempts: u32,
}

struct RouterState {
    nodes: OrderedMutex<Vec<Node>>,
    jobs: OrderedMutex<BTreeMap<JobId, Routed>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// The prober's configuration (also surfaced in `STATS`); `None` when
    /// probing is disabled.
    probe: Option<ProbeConfig>,
    /// [`RouterConfig::replicas`], clamped to ≥ 1.
    replicas: usize,
    /// Round-robin cursor spreading `STATUS`/`STREAM` reads over a job's
    /// primary + live replicas.
    read_rr: AtomicU64,
    /// Principal store; `None` = tenancy disabled.
    principals: Option<crate::auth::PrincipalStore>,
    /// Registered tokens, scrubbed from every reply line.
    secrets: Vec<String>,
    /// The admin token the router presents to backends (first admin in the
    /// store); `None` = anonymous backend connections.
    admin_token: Option<String>,
}

// --- rendezvous hashing -----------------------------------------------------

/// FNV-1a over (backend, separator, key), finished with a 64-bit avalanche
/// mix: the per-(backend, key) score for highest-random-weight (rendezvous)
/// hashing.
///
/// The finalizer is load-bearing. Raw FNV-1a state barely avalanches its
/// final input bytes: for two fixed backends the score difference is
/// dominated by `(state_a − state_b) × PRIME` from the common key prefix,
/// and a last-byte change perturbs it by at most `~2⁹ × PRIME ≈ 2⁴⁹` — so
/// keys differing only in their trailing characters (exactly the shape of
/// this router's keys: one graph under many `q − k` values) would almost
/// always pick the same backend, defeating the load spreading. The
/// MurmurHash3 `fmix64` finalizer avalanches every input bit into every
/// output bit, making each key an independent draw.
fn score(backend: &str, key: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in backend.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h = (h ^ 0xff).wrapping_mul(PRIME); // separator: "ab"+"c" != "a"+"bc"
    for &b in key.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    // MurmurHash3 fmix64.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The routing key a submission is rendezvous-hashed by: the graph's cache
/// key plus the core-reduction threshold `q − k` — the same pair the
/// backend's prepared-graph LRU keys on, so equal keys reuse one backend's
/// warm cache. Dataset sources share [`crate::job::GraphSource`]'s cache
/// key verbatim (placement must never diverge from the backends' LRU key);
/// `path=` sources hash the path string alone — the file lives on the
/// backends and its metadata (which `GraphSource::cache_key` folds in) is
/// not visible from the router.
pub fn routing_key(args: &SubmitArgs) -> String {
    let source = match (&args.dataset, &args.path) {
        (Some(name), _) => crate::job::GraphSource::Dataset(name.clone()).cache_key(),
        (None, Some(p)) => format!("path:{p}"),
        (None, None) => "invalid".to_string(),
    };
    format!("{source}|{}", args.q.saturating_sub(args.k))
}

/// The backend rendezvous hashing assigns `key` among `backends` (highest
/// score wins; ties break towards the lexicographically larger address, so
/// the choice is deterministic). Exposed so tests — and capacity tooling —
/// can predict placements.
pub fn pick_backend<'a>(backends: &'a [String], key: &str) -> Option<&'a str> {
    backends
        .iter()
        .max_by_key(|b| (score(b, key), (*b).clone()))
        .map(String::as_str)
}

/// All of `backends` ranked by descending preference for `key`: the head is
/// [`pick_backend`]'s choice, the rest are the failover order.
fn ranked_backends(backends: &[String], key: &str) -> Vec<String> {
    let mut ranked: Vec<String> = backends.to_vec();
    ranked.sort_by_key(|b| std::cmp::Reverse((score(b, key), b.clone())));
    ranked
}

// --- construction -----------------------------------------------------------

/// A bound, not-yet-running router.
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
}

/// Handle to a router whose accept loop runs in a background thread.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    accept: Option<std::thread::JoinHandle<()>>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Binds the listener and seeds the backend registry.
    pub fn bind(cfg: &RouterConfig) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut nodes: Vec<Node> = Vec::new();
        for addr in &cfg.backends {
            if !nodes.iter().any(|n| n.addr == *addr) {
                nodes.push(Node::new(addr.clone()));
            }
        }
        let principals = cfg.principals.clone();
        let secrets = principals.as_ref().map(|s| s.tokens()).unwrap_or_default();
        let admin_token = principals
            .as_ref()
            .and_then(|s| s.admin_token())
            .map(String::from);
        if principals.is_some() && admin_token.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "principals file has no admin principal — the router needs one \
                 to authenticate its backend connections",
            ));
        }
        Ok(Router {
            listener,
            state: Arc::new(RouterState {
                nodes: OrderedMutex::new(Rank::RouterNodes, "router-nodes", nodes),
                jobs: OrderedMutex::new(Rank::RouterJobs, "router-jobs", BTreeMap::new()),
                next_id: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                probe: cfg.probe.clone(),
                replicas: cfg.replicas.max(1),
                read_rr: AtomicU64::new(0),
                principals,
                secrets,
                admin_token,
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the background health prober, if configured.
    fn spawn_prober(&self) -> Option<std::thread::JoinHandle<()>> {
        let cfg = self.state.probe.clone()?;
        let state = self.state.clone();
        Some(std::thread::spawn(move || probe_loop(&state, &cfg)))
    }

    /// Runs the accept loop on the current thread (the `kplexr` entry),
    /// with the health prober (if configured) in the background.
    pub fn run(self) -> std::io::Result<()> {
        let _prober = self.spawn_prober();
        accept_loop(&self.listener, &self.state);
        Ok(())
    }

    /// Runs the accept loop in a background thread and returns a handle
    /// (used by tests).
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let addr = self.local_addr()?;
        let prober = self.spawn_prober();
        let state = self.state.clone();
        let listener = self.listener;
        let accept_state = state.clone();
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(RouterHandle {
            addr,
            state,
            accept: Some(accept),
            prober,
        })
    }
}

impl RouterHandle {
    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop and the prober.
    /// Connection handler threads are detached; they exit as their clients
    /// disconnect. Backends are not touched — they keep running their jobs.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

// --- health probing ----------------------------------------------------------

/// The prober: every [`ProbeConfig::interval`], `PING` every registered
/// node (alive *and* dead — dead ones are probed so they can rejoin).
/// Transitions apply the flap-suppression thresholds and reuse the exact
/// failover/rebalance machinery of the reactive paths, so a probe-detected
/// death requeues queued jobs before any client ever touches the corpse.
fn probe_loop(state: &Arc<RouterState>, cfg: &ProbeConfig) {
    /// Granularity of shutdown checks while sleeping out the interval.
    const TICK: Duration = Duration::from_millis(10);
    loop {
        let mut slept = Duration::ZERO;
        while slept < cfg.interval {
            if state.shutdown.load(Ordering::Acquire) {
                return;
            }
            let step = TICK.min(cfg.interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let targets: Vec<String> = {
            let nodes = state.nodes.lock();
            nodes.iter().map(|n| n.addr.clone()).collect()
        };
        for addr in targets {
            if state.shutdown.load(Ordering::Acquire) {
                return;
            }
            let ok = Client::connect_timeout(addr.as_str(), cfg.timeout, Some(cfg.timeout))
                .and_then(|mut c| c.ping())
                .is_ok();
            match note_probe(state, &addr, ok, cfg) {
                Some(ProbeTransition::Died) => reroute_jobs_of(
                    state,
                    &addr,
                    &Reroute {
                        backend_lost: true,
                        cancel_remote: false,
                    },
                ),
                Some(ProbeTransition::Rejoined) => {
                    rebalance_queued(state);
                }
                None => {}
            }
        }
    }
}

/// A probe outcome that changed a node's liveness.
enum ProbeTransition {
    /// `fall` consecutive failures: the node left the routing set.
    Died,
    /// `rise` consecutive successes: the node rejoined the routing set.
    Rejoined,
}

/// Folds one probe outcome into the node's consecutive-outcome counters
/// and applies the flap-suppression thresholds. Returns the transition to
/// act on, if any (acting happens outside the registry lock).
fn note_probe(
    state: &RouterState,
    addr: &str,
    ok: bool,
    cfg: &ProbeConfig,
) -> Option<ProbeTransition> {
    let mut nodes = state.nodes.lock();
    let node = nodes.iter_mut().find(|n| n.addr == addr)?; // DROPNODEd mid-round
    if ok {
        node.probe_oks = node.probe_oks.saturating_add(1);
        node.probe_fails = 0;
        if !node.alive && node.probe_oks >= cfg.rise.max(1) {
            node.alive = true;
            Some(ProbeTransition::Rejoined)
        } else {
            None
        }
    } else {
        node.probe_fails = node.probe_fails.saturating_add(1);
        node.probe_oks = 0;
        if node.alive && node.probe_fails >= cfg.fall.max(1) {
            node.alive = false;
            Some(ProbeTransition::Died)
        } else {
            None
        }
    }
}

/// Recomputes the rendezvous placement of every **queued** job over the
/// current live set and migrates the ones whose owner changed: the old
/// copy is cancelled remotely (best-effort — the old backend is usually
/// alive, it just lost the key) and the job is resubmitted under its
/// original router id. Running jobs are never moved — their partial result
/// streams live on their backend. Called on `ADDNODE`, on a probe-driven
/// rejoin, and by the `REBALANCE` admin verb; returns how many jobs moved.
fn rebalance_queued(state: &Arc<RouterState>) -> usize {
    let live = live_backends(state);
    if live.is_empty() {
        return 0;
    }
    let mut moves: Vec<(JobId, String, JobId, SubmitArgs)> = Vec::new();
    {
        let mut jobs = state.jobs.lock();
        for (&rid, job) in jobs.iter_mut() {
            if job.error.is_some() || job.last_state != "queued" {
                continue;
            }
            let owner = pick_backend(&live, &routing_key(&job.args));
            if owner.is_some_and(|o| o != job.backend) {
                // Claim under the lock (same protocol as failover): only
                // this thread may resubmit the job.
                job.last_state = REQUEUEING.to_string();
                moves.push((rid, job.backend.clone(), job.remote_id, job.args.clone()));
            }
        }
    }
    let moved = moves.len();
    for (rid, old_backend, old_remote, args) in moves {
        // Stop the old queued copy so the job cannot run twice.
        if let Ok(mut c) = unary(state, &old_backend) {
            let _ = c.cancel(old_remote);
        }
        finish_requeue(state, rid, &args);
    }
    moved
}

fn accept_loop(listener: &TcpListener, state: &Arc<RouterState>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Replies leave whole and streams flush when nothing more
                // is ready, so Nagle could only delay a reply's tail.
                stream.set_nodelay(true).ok();
                let state = state.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &state);
                });
            }
            Err(_) if state.shutdown.load(Ordering::Acquire) => return,
            Err(_) => continue,
        }
    }
}

// --- failover ---------------------------------------------------------------

/// Transient `last_state` of a job claimed for resubmission. The claim is
/// what makes recovery idempotent: only the thread that flips a job from
/// `queued` to this state resubmits it, so a fleet-wide reroute pass racing
/// a per-job recovery can never place two copies.
const REQUEUEING: &str = "requeueing";

/// What to do with a backend's routed jobs when it leaves the routing set.
struct Reroute {
    /// The backend is gone (crash or probe death): promote each of its
    /// jobs to a live replica when one exists, requeue the rest — running
    /// jobs included. Re-running is safe because streams are resumable:
    /// the router continues a consuming client on the new placement with
    /// `FROM <first undelivered seq>`, so nothing is double-delivered.
    /// `false` is the graceful drain (`DROPNODE`): queued jobs move,
    /// running jobs finish in place.
    backend_lost: bool,
    /// Best-effort `CANCEL` of the old copy before resubmitting (only
    /// meaningful while the backend is still alive, i.e. `DROPNODE`).
    cancel_remote: bool,
}

/// Marks `addr` dead (idempotent) and fails over its jobs: each is
/// promoted to a live replica when it has one, otherwise resubmitted to
/// the surviving backends under its original router id — running jobs
/// included (their streams resume via `FROM`). Only acts on the
/// alive → dead transition; [`recover_job`] covers jobs stranded on
/// backends that are already dead or no longer registered.
fn mark_backend_dead(state: &Arc<RouterState>, addr: &str) {
    {
        let mut nodes = state.nodes.lock();
        match nodes.iter_mut().find(|n| n.addr == addr) {
            Some(node) if node.alive => {
                node.alive = false;
                // The prober's rejoin threshold starts from scratch: a
                // node that just dropped a live connection must prove
                // itself with `rise` clean probes before taking jobs.
                node.probe_oks = 0;
            }
            _ => return, // unknown or already handled
        }
    }
    reroute_jobs_of(
        state,
        addr,
        &Reroute {
            backend_lost: true,
            cancel_remote: false,
        },
    );
}

/// Promotes a live replica to primary, in place, under the jobs lock.
/// Promotion is atomic — placement fields flip in one critical section, no
/// [`REQUEUEING`] claim window — so concurrent readers either still see
/// the old placement (and fail towards the corpse, harmlessly retrying) or
/// already see the new one. Returns `false` when no replica is live.
fn promote_replica(job: &mut Routed, live: &[String]) -> bool {
    let Some(pos) = job.replicas.iter().position(|(b, _)| live.contains(b)) else {
        return false;
    };
    let (backend, remote_id) = job.replicas.remove(pos);
    job.backend = backend;
    job.remote_id = remote_id;
    job.attempts += 1;
    true
}

/// Recovers one routed job after a transport failure towards `observed`,
/// the backend it was recorded on: the job is promoted to a live replica
/// when it has one, otherwise claimed and resubmitted to the survivors —
/// whether it was queued or already running (resumable streams make
/// re-running safe). This is the per-job complement to
/// [`mark_backend_dead`]'s fleet-wide transition pass — it also rescues
/// jobs recorded against a backend that was *already* dead or had left the
/// registry when the record was written (a submit racing a failover pass,
/// or a `DROPNODE`d backend crashing later), which the transition pass can
/// never see again.
fn recover_job(state: &Arc<RouterState>, rid: JobId, observed: &str) {
    // Live-set snapshot before the jobs lock (lock order: never nodes
    // inside jobs). `observed` was marked dead by every caller, so it is
    // not a promotion candidate.
    let live = live_backends(state);
    let claimed = {
        let mut jobs = state.jobs.lock();
        match jobs.get_mut(&rid) {
            Some(job) if job.backend == observed && job.error.is_none() => {
                job.replicas.retain(|(b, _)| b != observed);
                match job.last_state.as_str() {
                    "queued" | "running" => {
                        if promote_replica(job, &live) {
                            None
                        } else {
                            job.last_state = REQUEUEING.to_string();
                            Some(job.args.clone())
                        }
                    }
                    _ => None,
                }
            }
            _ => None, // moved, terminal, or claimed by someone else
        }
    };
    if let Some(args) = claimed {
        finish_requeue(state, rid, &args);
    }
}

fn live_backends(state: &RouterState) -> Vec<String> {
    state
        .nodes
        .lock()
        .iter()
        .filter(|n| n.alive)
        .map(|n| n.addr.clone())
        .collect()
}

/// Moves `addr`'s jobs to the surviving backends (keeping their router
/// ids): live replicas are promoted in place; the rest are requeued —
/// queued jobs always, running jobs only when the backend is lost
/// ([`Reroute::backend_lost`]). Jobs are claimed ([`REQUEUEING`]) under
/// the lock before resubmission, so a concurrent [`recover_job`] cannot
/// place a second copy. On loss, `addr` is also scrubbed from every job's
/// replica list — including jobs whose primary lives elsewhere.
fn reroute_jobs_of(state: &Arc<RouterState>, addr: &str, opts: &Reroute) {
    // Lock order: live-set snapshot before the jobs lock.
    let live = live_backends(state);
    let mut to_requeue: Vec<(JobId, JobId, SubmitArgs)> = Vec::new();
    {
        let mut jobs = state.jobs.lock();
        for (&rid, job) in jobs.iter_mut() {
            if opts.backend_lost {
                job.replicas.retain(|(b, _)| b != addr);
            }
            if job.backend != addr || job.error.is_some() {
                continue;
            }
            let queued = job.last_state == "queued";
            let running = job.last_state == "running";
            if !(queued || running) {
                continue; // terminal, or claimed by a concurrent recovery
            }
            if opts.backend_lost && promote_replica(job, &live) {
                continue;
            }
            if queued || opts.backend_lost {
                job.last_state = REQUEUEING.to_string();
                to_requeue.push((rid, job.remote_id, job.args.clone()));
            }
            // else: graceful drain — running jobs finish in place.
        }
    }
    for (rid, old_remote, args) in to_requeue {
        if opts.cancel_remote {
            // Drain: stop the old copy so the job cannot run twice.
            if let Ok(mut c) = unary(state, addr) {
                let _ = c.cancel(old_remote);
            }
        }
        finish_requeue(state, rid, &args);
    }
}

/// Places a claimed job on a surviving backend and publishes the outcome —
/// but only if the claim is still intact: a state written during the
/// requeue window (e.g. a client `CANCEL` acknowledged by the old, still
/// reachable copy) wins, and the freshly placed copy is cancelled instead
/// of silently superseding it.
fn finish_requeue(state: &Arc<RouterState>, rid: JobId, args: &SubmitArgs) {
    let placed = place(state, args);
    let mut orphan: Option<(String, JobId)> = None;
    {
        let mut jobs = state.jobs.lock();
        match (jobs.get_mut(&rid), placed) {
            (Some(job), Ok((backend, remote_id))) => {
                if job.last_state == REQUEUEING {
                    // A leftover replica on the new primary's backend would
                    // be a duplicate copy there; forget it (reads find the
                    // primary anyway).
                    job.replicas.retain(|(b, _)| *b != backend);
                    job.backend = backend;
                    job.remote_id = remote_id;
                    job.last_state = "queued".to_string();
                    job.attempts += 1;
                } else {
                    orphan = Some((backend, remote_id));
                }
            }
            (Some(job), Err(e)) => {
                if job.last_state == REQUEUEING {
                    job.last_state = "failed".to_string();
                    job.error = Some(format!("failover: {}", protocol::sanitize_value(&e)));
                }
            }
            (None, Ok(fresh)) => orphan = Some(fresh),
            (None, Err(_)) => {}
        }
    }
    if let Some((backend, remote_id)) = orphan {
        // Best-effort: stop the superfluous copy.
        if let Ok(mut c) = unary(state, &backend) {
            let _ = c.cancel(remote_id);
        }
    }
}

/// Rendezvous-places `args` on a live backend, failing over down the
/// preference order on transport errors (each one marks that backend dead).
/// Remote `ERR` replies (validation, queue full) are returned to the caller
/// verbatim — they are answers, not outages.
fn place(state: &Arc<RouterState>, args: &SubmitArgs) -> Result<(String, JobId), String> {
    let key = routing_key(args);
    for backend in ranked_backends(&live_backends(state), &key) {
        let submitted = unary(state, &backend).and_then(|mut c| c.submit(args));
        match submitted {
            Ok(remote_id) => return Ok((backend, remote_id)),
            Err(ClientError::Remote(msg)) => return Err(msg),
            Err(_) => mark_backend_dead(state, &backend),
        }
    }
    Err("no live backends".to_string())
}

// --- connection handling ----------------------------------------------------

/// One reply line through the token-redaction chokepoint: with a
/// principal store loaded, every registered token is scrubbed before the
/// line hits the wire. Streamed NDJSON plex lines deliberately bypass this
/// — [`proxy_stream`] forwards only lines that pass the strict result-line
/// grammar, so they are numeric-only, and they form the hot path.
fn reply_line<W: Write>(writer: &mut W, state: &RouterState, line: &str) -> std::io::Result<()> {
    if state.secrets.is_empty() {
        protocol::write_line(writer, line)
    } else {
        protocol::write_line(writer, &protocol::redact_secrets(line, &state.secrets))
    }
}

/// Pre-proxy visibility check for `STATUS`/`CANCEL`/`STREAM`: an unknown
/// job is `true` so the proxy path emits its own (identical) error — a
/// denied tenant cannot distinguish "hidden" from "nonexistent".
fn visible(state: &RouterState, rid: JobId, auth: &Option<crate::auth::Principal>) -> bool {
    match lookup(state, rid) {
        Some(job) => crate::auth::may_see(auth.as_ref(), job.args.principal.as_deref()),
        None => true,
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<RouterState>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    // Per-connection authentication state (`AUTH <token>`); `None` until
    // the client authenticates. On a tenancy-disabled router it stays
    // `None` and every verb passes the gate below.
    let mut auth: Option<crate::auth::Principal> = None;
    // Every reply line leaves through this chokepoint so a registered
    // token can never be echoed back — not in errors, not in proxied
    // backend messages. Streamed NDJSON plex lines bypass it (the strict
    // grammar check keeps them numeric-only, and the stream is the hot
    // path).
    let reply = |writer: &mut TcpStream, line: &str| -> std::io::Result<()> {
        reply_line(writer, state, line)
    };
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let req = match protocol::parse_request(&line) {
            Err(e) => {
                reply(&mut writer, &format!("ERR {e}"))?;
                continue;
            }
            Ok(req) => req,
        };
        // Tenancy gate: with a principal store loaded, everything except
        // liveness checks and the handshake itself requires `AUTH` first.
        if state.principals.is_some()
            && auth.is_none()
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
                        "ERR authentication disabled (start kplexr with --principals)".to_string()
                    }
                    Some(store) => match store.authenticate(&token) {
                        Some(p) => {
                            auth = Some(p.clone());
                            format!(
                                "OK principal={} weight={} admin={}",
                                p.name, p.weight, p.admin
                            )
                        }
                        // Deliberately does not echo the attempted token.
                        None => "ERR unknown token".to_string(),
                    },
                };
                reply(&mut writer, &resp)?;
            }
            Request::Submit(args) => {
                let resp = match submit(state, &args, &auth) {
                    Ok((rid, backend, replicas)) => {
                        let mut line = format!("OK id={rid} state=queued backend={backend}");
                        if replicas > 0 {
                            line.push_str(&format!(" replicas={replicas}"));
                        }
                        line
                    }
                    Err(e) => format!("ERR {e}"),
                };
                reply(&mut writer, &resp)?;
            }
            Request::Status(rid) => {
                let resp = if visible(state, rid, &auth) {
                    proxy_status(state, rid)
                } else {
                    format!("ERR no such job {rid}")
                };
                reply(&mut writer, &resp)?;
            }
            Request::Cancel(rid) => {
                let resp = if visible(state, rid, &auth) {
                    proxy_cancel(state, rid)
                } else {
                    format!("ERR no such job {rid}")
                };
                reply(&mut writer, &resp)?;
            }
            Request::Stream(rid, from) => {
                if visible(state, rid, &auth) {
                    proxy_stream(&mut writer, state, rid, from)?;
                } else {
                    reply(&mut writer, &format!("ERR no such job {rid}"))?;
                }
            }
            Request::List => list(&mut writer, state, &auth)?,
            Request::Stats => {
                let resp = stats(state);
                reply(&mut writer, &resp)?;
            }
            Request::AddNode(addr) => {
                let resp = if admin_only(&auth) {
                    add_node(state, &addr)
                } else {
                    "ERR topology changes require an admin principal".to_string()
                };
                reply(&mut writer, &resp)?;
            }
            Request::DropNode(addr) => {
                let resp = if admin_only(&auth) {
                    drop_node(state, &addr)
                } else {
                    "ERR topology changes require an admin principal".to_string()
                };
                reply(&mut writer, &resp)?;
            }
            Request::Nodes => nodes(&mut writer, state)?,
            Request::Rebalance => {
                if admin_only(&auth) {
                    let moved = rebalance_queued(state);
                    reply(&mut writer, &format!("OK rebalanced={moved}"))?;
                } else {
                    reply(
                        &mut writer,
                        "ERR topology changes require an admin principal",
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// Topology mutations (`ADDNODE`/`DROPNODE`/`REBALANCE`) are admin-only
/// once tenancy is on: a non-admin tenant must not be able to drain or
/// repoint the cluster. Without a store, `auth` is always `None` and
/// everything is allowed, as before.
fn admin_only(auth: &Option<crate::auth::Principal>) -> bool {
    match auth {
        None => true,
        Some(p) => p.admin,
    }
}

// --- request implementations ------------------------------------------------

/// This tenant's routed jobs the router still believes are waiting to run
/// — the population the edge `max-queued` quota counts. `max-running` is
/// deliberately *not* checked here: it is a dispatch-rate constraint the
/// backends' fair-share runners enforce, and rejecting submits on it would
/// turn a throughput limit into an availability outage.
fn queued_jobs_of(state: &RouterState, principal: &str) -> usize {
    state
        .jobs
        .lock()
        .values()
        .filter(|j| {
            j.error.is_none()
                && j.args.principal.as_deref() == Some(principal)
                && (j.last_state == "queued" || j.last_state == REQUEUEING)
        })
        .count()
}

fn submit(
    state: &Arc<RouterState>,
    args: &SubmitArgs,
    auth: &Option<crate::auth::Principal>,
) -> Result<(JobId, String, usize), String> {
    if state.shutdown.load(Ordering::Acquire) {
        return Err("router shutting down".into());
    }
    let mut args = args.clone();
    let principal = crate::auth::effective_principal(
        state.principals.as_ref(),
        auth.as_ref(),
        args.principal.as_deref(),
    )?;
    if let Some(p) = principal {
        // Edge quota: reject before any backend sees the job. Checked
        // against the router's own routed-job records, so a saturating
        // tenant is cut off even when its jobs are spread over many
        // backends whose per-lane counts are each under quota. The check
        // and the placement are not atomic — concurrent submits can
        // overshoot by the race width — but the backends' per-lane check
        // backstops it authoritatively.
        if p.max_queued != 0 {
            let queued = queued_jobs_of(state, &p.name);
            if queued >= p.max_queued {
                return Err(format!(
                    "quota exceeded: principal {} has {queued} jobs queued (max-queued={})",
                    p.name, p.max_queued
                ));
            }
        }
        // Tag the proxied copy with the *effective* principal so backends
        // account it to the right tenant lane (they accept the tag because
        // the router's connection is admin-authenticated).
        args.principal = Some(p.name.clone());
    }
    let args = &args;
    let (backend, remote_id) = place(state, args)?;
    let replicas = place_replicas(state, args, &backend);
    let placed = replicas.len();
    // ordering: routed-job ids only need uniqueness; the entry itself is
    // published under the jobs lock right below.
    let rid = state.next_id.fetch_add(1, Ordering::Relaxed);
    state.jobs.lock().insert(
        rid,
        Routed {
            backend: backend.clone(),
            remote_id,
            replicas,
            args: args.clone(),
            last_state: "queued".to_string(),
            error: None,
            attempts: 1,
        },
    );
    Ok((rid, backend, placed))
}

/// Best-effort replica placements: the next `replicas − 1` live backends
/// in the key's rendezvous order (primary excluded) each get their own
/// copy of the job. Failures — transport or remote `ERR` — are simply
/// skipped: replicas are an availability optimisation, never a
/// prerequisite for accepting the submission.
fn place_replicas(
    state: &Arc<RouterState>,
    args: &SubmitArgs,
    primary: &str,
) -> Vec<(String, JobId)> {
    if state.replicas <= 1 {
        return Vec::new();
    }
    let key = routing_key(args);
    let mut out = Vec::new();
    for backend in ranked_backends(&live_backends(state), &key) {
        if out.len() + 1 >= state.replicas {
            break;
        }
        if backend == primary {
            continue;
        }
        if let Ok(remote_id) = unary(state, &backend).and_then(|mut c| c.submit(args)) {
            out.push((backend, remote_id));
        }
    }
    out
}

/// The read targets of a routed job — `(backend, backend-local id)` for
/// the primary plus every replica whose backend is currently live.
/// `STATUS` and `STREAM` rotate over these ([`RouterState::read_rr`]) so
/// read load fans out; only a reply obtained through the *primary* feeds
/// [`note_state`] — replica copies advance independently, and their states
/// must not clobber the authoritative record.
fn read_targets(state: &RouterState, job: &Routed) -> Vec<(String, JobId)> {
    let mut targets = vec![(job.backend.clone(), job.remote_id)];
    if !job.replicas.is_empty() {
        let live = live_backends(state);
        targets.extend(
            job.replicas
                .iter()
                .filter(|(b, _)| live.contains(b))
                .cloned(),
        );
    }
    targets
}

fn lookup(state: &RouterState, rid: JobId) -> Option<Routed> {
    state.jobs.lock().get(&rid).cloned()
}

/// Records the backend-observed state of a routed job. `via` is the
/// snapshot the reply was obtained through: the write only lands if the
/// job is still placed there — a reply from a superseded placement (e.g. a
/// `cancelled` from the drained copy of a job that was just requeued
/// elsewhere) must not clobber the live record, or the job would be
/// reported terminal while it runs, and failover would skip it for good.
/// A job claimed for requeueing is also off-limits: the placement fields
/// still name the *old* copy during the claim window, so a reply obtained
/// through it (say the `cancelled` ack of a rebalance's remote-cancel)
/// would break the claim and terminally cancel a job that is merely
/// moving — only the claim owner ([`finish_requeue`]) publishes its
/// outcome.
fn note_state(state: &RouterState, rid: JobId, observed: &str, via: &Routed) {
    let mut jobs = state.jobs.lock();
    if let Some(job) = jobs.get_mut(&rid) {
        if job.error.is_none()
            && job.last_state != REQUEUEING
            && job.backend == via.backend
            && job.remote_id == via.remote_id
        {
            job.last_state = observed.to_string();
        }
    }
}

/// A `STATUS`-shaped line rendered from the router's own record (the
/// backend is unreachable or the router terminated the job locally). The
/// `error=` field appears only when the router actually failed the job.
fn local_status_line(rid: JobId, job: &Routed) -> String {
    let source = job
        .args
        .dataset
        .as_deref()
        .or(job.args.path.as_deref())
        .unwrap_or("?");
    let mut line = format!(
        "OK id={rid} state={} source={source} k={} q={} results=0 backend={}",
        job.last_state, job.args.k, job.args.q, job.backend
    );
    if let Some(principal) = &job.args.principal {
        line.push_str(&format!(" principal={principal}"));
    }
    if let Some(error) = &job.error {
        line.push_str(&format!(" error={error}"));
    }
    line
}

/// Re-renders a backend `STATUS`/`END` field map under the router job id,
/// tagging the owning backend. Known fields keep the canonical order;
/// unknown ones follow alphabetically (forward compatibility).
fn rewrite_fields(
    prefix: &str,
    rid: JobId,
    fields: &BTreeMap<String, String>,
    backend: &str,
) -> String {
    const ORDER: [&str; 12] = [
        "state",
        "source",
        "k",
        "q",
        "results",
        "elapsed-ms",
        "cache",
        "branches",
        "outputs",
        "principal",
        "error",
        "count",
    ];
    let mut line = format!("{prefix} id={rid}");
    for key in ORDER {
        if let Some(v) = fields.get(key) {
            line.push_str(&format!(" {key}={v}"));
        }
    }
    for (k, v) in fields {
        if k != "id" && !ORDER.contains(&k.as_str()) {
            line.push_str(&format!(" {k}={v}"));
        }
    }
    line.push_str(&format!(" backend={backend}"));
    line
}

fn proxy_status(state: &Arc<RouterState>, rid: JobId) -> String {
    for _ in 0..MAX_PROXY_ATTEMPTS {
        let Some(job) = lookup(state, rid) else {
            return format!("ERR no such job {rid}");
        };
        if job.error.is_some() {
            return local_status_line(rid, &job);
        }
        // Reads rotate over primary + live replicas.
        let targets = read_targets(state, &job);
        // ordering: round-robin cursor — only read fairness, no data is
        // published through it.
        let turn = state.read_rr.fetch_add(1, Ordering::Relaxed) as usize % targets.len();
        let (t_backend, t_remote) = targets[turn].clone();
        let primary = t_backend == job.backend && t_remote == job.remote_id;
        match unary(state, &t_backend).and_then(|mut c| c.status(t_remote)) {
            Ok(fields) => {
                if primary {
                    if let Some(observed) = fields.get("state") {
                        note_state(state, rid, observed, &job);
                    }
                }
                return rewrite_fields("OK", rid, &fields, &t_backend);
            }
            // The backend evicted its copy past its retention backlog:
            // answer from the router's own record instead of leaking the
            // backend-local id embedded in the remote message. A replica
            // eviction just rotates to the next target.
            Err(ClientError::Remote(msg)) if msg.starts_with("no such job") => {
                if primary {
                    return local_status_line(rid, &job);
                }
            }
            Err(ClientError::Remote(msg)) => return format!("ERR {msg}"),
            // Transport failure: fail the backend over and retry — the job
            // either moved (promotion/requeue) or was terminated locally.
            Err(_) => {
                mark_backend_dead(state, &t_backend);
                if primary {
                    recover_job(state, rid, &job.backend);
                }
                std::thread::sleep(RETRY_PAUSE);
            }
        }
    }
    format!("ERR job {rid} unreachable (backends flapping)")
}

fn proxy_cancel(state: &Arc<RouterState>, rid: JobId) -> String {
    for _ in 0..MAX_PROXY_ATTEMPTS {
        let Some(job) = lookup(state, rid) else {
            return format!("ERR no such job {rid}");
        };
        if job.error.is_some() {
            return format!(
                "OK id={rid} state={} backend={}",
                job.last_state, job.backend
            );
        }
        match unary(state, &job.backend).and_then(|mut c| c.cancel(job.remote_id)) {
            Ok(observed) => {
                note_state(state, rid, &observed, &job);
                // Best-effort: stop the replica copies too — a cancelled
                // job must not keep computing on R − 1 other backends.
                for (backend, remote_id) in &job.replicas {
                    if let Ok(mut c) = unary(state, backend) {
                        let _ = c.cancel(*remote_id);
                    }
                }
                return format!("OK id={rid} state={observed} backend={}", job.backend);
            }
            // Evicted on the backend ⇒ long terminal; cancel is idempotent.
            Err(ClientError::Remote(msg)) if msg.starts_with("no such job") => {
                return format!(
                    "OK id={rid} state={} backend={}",
                    job.last_state, job.backend
                );
            }
            Err(ClientError::Remote(msg)) => return format!("ERR {msg}"),
            Err(_) => {
                mark_backend_dead(state, &job.backend);
                recover_job(state, rid, &job.backend);
                std::thread::sleep(RETRY_PAUSE);
            }
        }
    }
    format!("ERR job {rid} unreachable (backends flapping)")
}

/// Proxies one result stream, starting at `from`, with **transparent
/// mid-stream failover**: `next_seq` tracks the first seq the downstream
/// client has not received, and a backend lost mid-stream is retried on
/// the job's new placement — a promoted replica or the requeued copy —
/// with `STREAM … FROM next_seq`. The client sees one stream; the only
/// surviving failure mode is every placement dying
/// ([`MAX_PROXY_ATTEMPTS`] times over). The stream is gapless and
/// duplicate-free for a `threads=1` job; at higher thread counts the new
/// placement may order its results differently, so the resumed suffix
/// can repeat some results and miss others.
///
/// Lines reach the client through one `BufWriter`, flushed whenever the
/// backend connection has nothing more buffered and before the closing
/// `END` or `ERR`: a backlog is forwarded in full buffers, and a trickle
/// line by line as it arrives. Because the backend already batches a busy
/// job's results, the router wakes once per batch too.
fn proxy_stream(
    writer: &mut TcpStream,
    state: &Arc<RouterState>,
    rid: JobId,
    from: u64,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(writer);
    let last = forward_results(&mut out, state, rid, from)?;
    reply_line(&mut out, state, &last)?;
    out.flush()
}

/// The body of [`proxy_stream`]: forwards results into `out` and returns
/// the closing `END` or `ERR` line. An `Err` means the downstream client
/// went away.
///
/// Result lines are spliced, not re-rendered: each backend line is read as
/// bytes, checked against the exact result-line grammar
/// ([`protocol::splice_plex_line`]), and copied with only its id rewritten;
/// its `seq` drives the exactly-once resume. The strict check is what
/// keeps forwarded result lines numeric-only, so they may bypass reply
/// redaction. A line that fails it ends the attempt as a protocol error,
/// which fails the backend over like a broken connection.
fn forward_results(
    out: &mut impl Write,
    state: &Arc<RouterState>,
    rid: JobId,
    from: u64,
) -> std::io::Result<String> {
    let mut next_seq = from;
    let mut line = Vec::new();
    for _ in 0..MAX_PROXY_ATTEMPTS {
        let Some(job) = lookup(state, rid) else {
            return Ok(format!("ERR no such job {rid}"));
        };
        if let Some(error) = &job.error {
            // Locally terminated: an empty, well-formed stream.
            return Ok(format!(
                "END id={rid} state={} results=0 error={error}",
                job.last_state
            ));
        }
        // Reads rotate over primary + live replicas (each replica runs the
        // same job, so any of them can serve the suffix from `next_seq`).
        let targets = read_targets(state, &job);
        // ordering: round-robin cursor — only read fairness, no data is
        // published through it.
        let turn = state.read_rr.fetch_add(1, Ordering::Relaxed) as usize % targets.len();
        let (t_backend, t_remote) = targets[turn].clone();
        let primary = t_backend == job.backend && t_remote == job.remote_id;
        let mut forwarded = 0u64;
        let mut write_err: Option<std::io::Error> = None;
        // The backend stream is abandoned (and the connection dropped,
        // stopping the backend's producer) as soon as a downstream write
        // fails — the router must not drain a 10^9-result stream nobody is
        // reading.
        let streamed = streaming(state, &t_backend).and_then(|mut c| {
            c.stream_lines_from(t_remote, next_seq, |backend_line, more| {
                // Spliced: the backend's bytes with the id rewritten to
                // the router namespace, once the line passed the strict
                // result-line check.
                line.clear();
                let seq = protocol::splice_plex_line(&mut line, rid, backend_line)?;
                line.push(b'\n');
                let written =
                    out.write_all(&line)
                        .and_then(|()| if more { Ok(()) } else { out.flush() });
                match written {
                    Ok(()) => {
                        next_seq = seq + 1;
                        forwarded += 1;
                        if forwarded == 1 && primary {
                            // A streamed result proves the job left the
                            // queue: record it, so failover treats it as
                            // running rather than still queued.
                            note_state(state, rid, "running", &job);
                        }
                        Ok(true)
                    }
                    Err(e) => {
                        write_err = Some(e);
                        Ok(false)
                    }
                }
            })
        });
        if let Some(e) = write_err {
            return Err(e);
        }
        match streamed {
            Ok(None) => unreachable!("an aborted stream sets write_err"),
            Ok(Some(end)) => {
                if primary {
                    if let Some(observed) = end.get("state") {
                        note_state(state, rid, observed, &job);
                    }
                }
                return Ok(rewrite_fields("END", rid, &end, &t_backend));
            }
            Err(ClientError::Remote(msg)) if msg.starts_with("no such job") => {
                if primary {
                    return Ok(format!(
                        "ERR results for job {rid} were evicted on {t_backend}"
                    ));
                }
                // A replica evicted its copy: rotate to the next target.
            }
            Err(ClientError::Remote(msg)) => return Ok(format!("ERR {msg}")),
            Err(_) => {
                // Transport failure mid-stream. Write out every buffered
                // line first, so the client has received exactly
                // [from, next_seq); then fail the backend over and resume
                // the missing suffix on the job's next placement.
                out.flush()?;
                mark_backend_dead(state, &t_backend);
                if primary {
                    recover_job(state, rid, &job.backend);
                }
                std::thread::sleep(RETRY_PAUSE);
            }
        }
    }
    Ok(format!("ERR job {rid} unreachable"))
}

fn list(
    writer: &mut TcpStream,
    state: &Arc<RouterState>,
    auth: &Option<crate::auth::Principal>,
) -> std::io::Result<()> {
    // Tenant scoping happens on the router's own records before any
    // backend is contacted: a non-admin principal only ever sees (and the
    // router only ever proxies status for) its own jobs.
    let snapshot: Vec<(JobId, Routed)> = {
        let jobs = state.jobs.lock();
        jobs.iter()
            .filter(|(_, j)| crate::auth::may_see(auth.as_ref(), j.args.principal.as_deref()))
            .map(|(&rid, j)| (rid, j.clone()))
            .collect()
    };
    // One backend connection per group, not per job.
    let mut groups: BTreeMap<String, Vec<(JobId, Routed)>> = BTreeMap::new();
    for (rid, job) in snapshot {
        groups
            .entry(job.backend.clone())
            .or_default()
            .push((rid, job));
    }
    let mut count = 0usize;
    for (backend, group) in groups {
        let mut client = unary(state, &backend).ok();
        if client.is_none() {
            mark_backend_dead(state, &backend);
            for (rid, _) in &group {
                recover_job(state, *rid, &backend);
            }
        }
        for (rid, job) in group {
            count += 1;
            let proxied = client.as_mut().and_then(|c| c.status(job.remote_id).ok());
            let line = match proxied {
                Some(fields) => {
                    if let Some(observed) = fields.get("state") {
                        note_state(state, rid, observed, &job);
                    }
                    rewrite_fields("JOB", rid, &fields, &backend)
                }
                None => {
                    // Point-in-time fallback from the router's own record.
                    let job = lookup(state, rid).unwrap_or(job);
                    local_status_line(rid, &job).replacen("OK", "JOB", 1)
                }
            };
            reply_line(writer, state, &line)?;
        }
    }
    reply_line(writer, state, &format!("END count={count}"))
}

fn stats(state: &Arc<RouterState>) -> String {
    let nodes: Vec<(String, bool, u32, u32)> = {
        let nodes = state.nodes.lock();
        nodes
            .iter()
            .map(|n| (n.addr.clone(), n.alive, n.probe_fails, n.probe_oks))
            .collect()
    };
    let jobs = state.jobs.lock().len();
    let alive = nodes.iter().filter(|(_, a, _, _)| *a).count();
    let probe = state
        .probe
        .as_ref()
        .map_or("off".to_string(), |p| p.interval.as_millis().to_string());
    let mut line = format!(
        "OK backends={alive}/{} jobs={jobs} probe-ms={probe} replicas={}",
        nodes.len(),
        state.replicas
    );
    // Cluster-wide per-tenant result bytes, summed from every live
    // backend's own `tenant{j}-bytes` counters (tenancy only).
    let mut tenant_bytes: BTreeMap<String, u64> = BTreeMap::new();
    for (i, (addr, alive, fails, oks)) in nodes.iter().enumerate() {
        line.push_str(&format!(
            " node{i}-addr={addr} node{i}-alive={alive} \
             node{i}-probe-fails={fails} node{i}-probe-oks={oks}"
        ));
        if !alive {
            continue;
        }
        match unary(state, addr).and_then(|mut c| c.stats()) {
            Ok(fields) => {
                for key in [
                    "jobs",
                    "queue-depth",
                    "cache-hits",
                    "cache-coalesced",
                    "cache-misses",
                    "cache-entries",
                    "cache-pending",
                    "cache-waiting",
                    "graph-bytes",
                    "store",
                    "sched-steals",
                    "sched-injector-steals",
                    "sched-parks",
                    "sched-unparks",
                ] {
                    if let Some(v) = fields.get(key) {
                        line.push_str(&format!(" node{i}-{key}={v}"));
                    }
                }
                if state.principals.is_some() {
                    let mut j = 0usize;
                    while let Some(name) = fields.get(&format!("tenant{j}-name")) {
                        let bytes = fields
                            .get(&format!("tenant{j}-bytes"))
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                        let total = tenant_bytes.entry(name.clone()).or_insert(0);
                        *total = crate::auth::add_bytes(*total, bytes);
                        j += 1;
                    }
                }
            }
            Err(ClientError::Remote(_)) => {}
            Err(_) => mark_backend_dead(state, addr),
        }
    }
    if let Some(store) = &state.principals {
        // Per-tenant cluster view: queued/running from the router's own
        // routed-job records (the edge-quota population), bytes from the
        // backends' journalled counters summed above.
        let mut queued: BTreeMap<&str, usize> = BTreeMap::new();
        let mut running: BTreeMap<&str, usize> = BTreeMap::new();
        let routed = state.jobs.lock();
        for job in routed.values() {
            let Some(owner) = job.args.principal.as_deref() else {
                continue;
            };
            let Some(p) = store.by_name(owner) else {
                continue;
            };
            if job.error.is_some() {
                continue;
            }
            match job.last_state.as_str() {
                "queued" | REQUEUEING => *queued.entry(p.name.as_str()).or_insert(0) += 1,
                "running" => *running.entry(p.name.as_str()).or_insert(0) += 1,
                _ => {}
            }
        }
        line.push_str(&format!(" tenants={}", store.len()));
        for (i, p) in store.principals().iter().enumerate() {
            line.push_str(&format!(
                " tenant{i}-name={} tenant{i}-queued={} tenant{i}-running={} tenant{i}-bytes={}",
                p.name,
                queued.get(p.name.as_str()).copied().unwrap_or(0),
                running.get(p.name.as_str()).copied().unwrap_or(0),
                tenant_bytes.get(&p.name).copied().unwrap_or(0),
            ));
        }
    }
    line
}

fn add_node(state: &Arc<RouterState>, addr: &str) -> String {
    {
        let mut nodes = state.nodes.lock();
        match nodes.iter_mut().find(|n| n.addr == addr) {
            Some(node) => {
                // Revive: the operator vouches for it, so the prober's
                // consecutive-outcome counters restart clean.
                node.alive = true;
                node.probe_fails = 0;
                node.probe_oks = 0;
            }
            None => nodes.push(Node::new(addr.to_string())),
        }
    }
    // The registry changed: queued jobs whose rendezvous owner is now the
    // new node migrate to it immediately, instead of waiting for caches to
    // cool behind skewed placement.
    let moved = rebalance_queued(state);
    let nodes = state.nodes.lock();
    let alive = nodes.iter().filter(|n| n.alive).count();
    format!("OK backends={alive}/{} rebalanced={moved}", nodes.len())
}

fn drop_node(state: &Arc<RouterState>, addr: &str) -> String {
    let removed = {
        let mut nodes = state.nodes.lock();
        let before = nodes.len();
        nodes.retain(|n| n.addr != addr);
        before != nodes.len()
    };
    if !removed {
        return format!("ERR unknown backend {addr}");
    }
    // Graceful drain: queued jobs are cancelled on the (healthy) node and
    // rerouted; running jobs finish in place and stay reachable by address.
    reroute_jobs_of(
        state,
        addr,
        &Reroute {
            backend_lost: false,
            cancel_remote: true,
        },
    );
    let nodes = state.nodes.lock();
    let alive = nodes.iter().filter(|n| n.alive).count();
    format!("OK backends={alive}/{}", nodes.len())
}

fn nodes(writer: &mut TcpStream, state: &Arc<RouterState>) -> std::io::Result<()> {
    let snapshot: Vec<(String, bool, u32, u32)> = {
        let nodes = state.nodes.lock();
        nodes
            .iter()
            .map(|n| (n.addr.clone(), n.alive, n.probe_fails, n.probe_oks))
            .collect()
    };
    let per_backend: BTreeMap<String, usize> = {
        let jobs = state.jobs.lock();
        let mut m = BTreeMap::new();
        for job in jobs.values() {
            *m.entry(job.backend.clone()).or_insert(0) += 1;
        }
        m
    };
    for (addr, alive, fails, oks) in &snapshot {
        let jobs = per_backend.get(addr).copied().unwrap_or(0);
        reply_line(
            writer,
            state,
            &format!(
                "NODE addr={addr} alive={alive} jobs={jobs} \
                 probe-fails={fails} probe-oks={oks}"
            ),
        )?;
    }
    reply_line(writer, state, &format!("END count={}", snapshot.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rendezvous_is_stable_and_minimally_disruptive() {
        let three = addrs(&["h1:1", "h2:2", "h3:3"]);
        let keys: Vec<String> = (0..50).map(|i| format!("graph-{i}|2")).collect();
        let placed: Vec<&str> = keys
            .iter()
            .map(|k| pick_backend(&three, k).unwrap())
            .collect();
        // Deterministic: same inputs, same placement.
        for (k, &p) in keys.iter().zip(&placed) {
            assert_eq!(pick_backend(&three, k), Some(p));
        }
        // Every backend owns some keys (rendezvous spreads load).
        for b in &three {
            assert!(placed.iter().any(|&p| p == b), "{b} owns no keys");
        }
        // Removing one backend only moves the keys it owned (the rendezvous
        // property that matters for cache warmth: survivors keep theirs).
        let two = addrs(&["h1:1", "h3:3"]);
        for (k, &p) in keys.iter().zip(&placed) {
            if p != "h2:2" {
                assert_eq!(pick_backend(&two, k), Some(p), "key {k} moved needlessly");
            }
        }
    }

    /// Real routing keys differ only in their trailing `q − k` digits; each
    /// such key must be an independent placement draw. (Raw FNV-1a state
    /// fails this badly — see the finalizer note on [`score`].)
    #[test]
    fn suffix_only_key_variation_spreads_load() {
        let two = addrs(&["10.0.0.1:7711", "10.0.0.2:7711"]);
        let mut winners = std::collections::BTreeSet::new();
        for qk in 2..30 {
            let key = format!("dataset:jazz@1|{qk}");
            winners.insert(pick_backend(&two, &key).unwrap().to_string());
        }
        assert_eq!(
            winners.len(),
            2,
            "28 suffix-only keys all landed on one backend"
        );
    }

    #[test]
    fn ranked_backends_head_is_the_pick() {
        let three = addrs(&["h1:1", "h2:2", "h3:3"]);
        for i in 0..20 {
            let key = format!("g{i}|3");
            let ranked = ranked_backends(&three, &key);
            assert_eq!(ranked.len(), 3);
            assert_eq!(ranked[0].as_str(), pick_backend(&three, &key).unwrap());
        }
    }

    #[test]
    fn routing_key_separates_shrink_and_source() {
        let a = SubmitArgs::dataset("jazz", 2, 9); // q-k = 7
        let b = SubmitArgs::dataset("jazz", 3, 10); // q-k = 7 → same key
        let c = SubmitArgs::dataset("jazz", 2, 10); // q-k = 8 → different
        assert_eq!(routing_key(&a), routing_key(&b));
        assert_ne!(routing_key(&a), routing_key(&c));
        let p = SubmitArgs {
            path: Some("/data/x.txt".into()),
            k: 2,
            q: 9,
            ..SubmitArgs::default()
        };
        assert_ne!(routing_key(&a), routing_key(&p));
    }
}
