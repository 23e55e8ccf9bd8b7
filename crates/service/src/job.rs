//! Job lifecycle: specification, state machine, result buffer.
//!
//! A job moves `queued → running → done | cancelled | failed`. The engine's
//! workers append results straight into the job's buffer (bounded by the
//! job's result cap, stored flat as a `PlexBuf`) under a mutex + condvar,
//! so any number of `STREAM` readers can follow a running job from the
//! beginning and late subscribers replay everything. Cancellation is
//! cooperative: the shared [`Job::cancel`] flag is the same `Arc` the
//! engine's workers poll, so raising it stops the enumeration mid-task.

use crate::protocol::JobId;
use crate::sync::{OrderedCondvar, OrderedGuard, OrderedMutex, Rank};
use kplex_core::{AlgoConfig, Params, SearchStats};
use kplex_graph::VertexId;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a job's graph comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSource {
    /// A built-in stand-in dataset (`kplex_datasets`).
    Dataset(String),
    /// A server-local edge-list file.
    Path(String),
}

impl GraphSource {
    /// Cache key of the *loaded graph content* (preprocessing is keyed
    /// separately by the core shrink threshold).
    pub fn cache_key(&self) -> String {
        match self {
            // Versioned via the dataset registry so generator changes
            // invalidate cached graphs.
            GraphSource::Dataset(name) => kplex_datasets::by_name(name)
                .map(|d| d.cache_key())
                .unwrap_or_else(|| format!("dataset:{name}")),
            // File size + mtime in the key: editing the file between
            // submissions must not serve the stale cached graph. When the
            // metadata is unreadable the load will fail anyway.
            GraphSource::Path(p) => {
                let stamp = std::fs::metadata(p)
                    .map(|m| {
                        let mtime = m
                            .modified()
                            .ok()
                            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                            .map(|d| d.as_nanos())
                            .unwrap_or(0);
                        format!("{}:{mtime}", m.len())
                    })
                    .unwrap_or_else(|_| "unreadable".to_string());
                format!("path:{p}@{stamp}")
            }
        }
    }

    /// Display name for `STATUS`/`LIST` lines.
    pub fn label(&self) -> &str {
        match self {
            GraphSource::Dataset(name) => name,
            GraphSource::Path(p) => p,
        }
    }
}

/// A validated job configuration.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Input graph.
    pub source: GraphSource,
    /// (k, q), already validated.
    pub params: Params,
    /// Engine worker threads.
    pub threads: usize,
    /// Algorithm preset name (resolved per run via [`AlgoConfig::by_name`]).
    pub algo: String,
    /// Stop after this many buffered results.
    pub limit: u64,
    /// Wall-clock deadline for the running phase.
    pub timeout: Option<Duration>,
    /// Sleep per reported result (pacing knob; also makes cancellation
    /// deterministic to test).
    pub throttle: Duration,
    /// Straggler-splitting timeout τ_time for the engine.
    pub tau: Option<Duration>,
    /// Storage backend the prepared graph is held in.
    pub store: kplex_graph::StoreKind,
    /// Owning principal's name (`None` = anonymous). Set from the `SUBMIT`
    /// tag or the submitting connection's authenticated identity; drives
    /// quota accounting, fair-share lane assignment and `STATUS`/`STREAM`/
    /// `CANCEL` scoping.
    pub principal: Option<String>,
}

impl JobSpec {
    /// Resolves the algorithm preset.
    pub fn config(&self) -> Option<AlgoConfig> {
        AlgoConfig::by_name(&self.algo)
    }
}

/// Lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// Executing on a runner.
    Running,
    /// Finished normally (possibly truncated by the result cap).
    Done,
    /// Stopped by a client `CANCEL`.
    Cancelled,
    /// Aborted: load error, invalid config, or deadline exceeded.
    Failed,
}

impl JobState {
    /// Wire label (also used by `STATUS`).
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// Why the stop flag was raised (distinguishes the terminal state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopCause {
    /// Client cancel — terminal state `cancelled`.
    Cancel,
    /// Result cap reached — still `done`.
    Cap,
    /// Deadline exceeded — terminal state `failed`.
    Deadline,
}

/// Plexes stored flat: every plex's vertex ids back to back in one
/// buffer, plus the offset where each plex ends. A job's result buffer and
/// a `STREAM` chunk share this layout, so buffering a result grows two
/// vectors instead of allocating one per plex.
#[derive(Default)]
pub(crate) struct PlexBuf {
    verts: Vec<VertexId>,
    ends: Vec<usize>,
}

impl PlexBuf {
    /// Number of plexes.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends one plex.
    pub(crate) fn push(&mut self, plex: &[VertexId]) {
        self.verts.extend_from_slice(plex);
        self.ends.push(self.verts.len());
    }

    /// Removes every plex, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.verts.clear();
        self.ends.clear();
    }

    /// The plexes, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        (0..self.len()).map(|i| &self.verts[self.start(i)..self.ends[i]])
    }

    /// Offset in `verts` where plex `i` starts (`i == len()` gives the
    /// end of the last plex).
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// Appends plexes `range` of `src`.
    fn extend_from(&mut self, src: &PlexBuf, range: Range<usize>) {
        let base = src.start(range.start);
        let offset = self.verts.len();
        self.verts
            .extend_from_slice(&src.verts[base..src.start(range.end)]);
        self.ends
            .extend(src.ends[range].iter().map(|&end| end - base + offset));
    }
}

struct Progress {
    state: JobState,
    results: PlexBuf,
    stats: Option<SearchStats>,
    cache_hit: Option<bool>,
    error: Option<String>,
    stop_cause: Option<StopCause>,
    started: Option<Instant>,
    elapsed: Option<Duration>,
}

impl Progress {
    /// Notes why the stop flag is being raised. The first cause wins: a cap
    /// racing a client cancel must not flip the terminal state.
    fn note_stop_cause(&mut self, cause: StopCause) {
        if self.stop_cause.is_none() {
            self.stop_cause = Some(cause);
        }
    }
}

/// One submitted job. Shared between connection handlers (status, stream,
/// cancel), the runner executing it, its engine workers (which append
/// results) and, when it has a deadline, its watchdog thread.
pub struct Job {
    /// Server-assigned id.
    pub id: JobId,
    /// The validated configuration.
    pub spec: JobSpec,
    /// Cooperative stop flag, plumbed into the engine.
    pub cancel: Arc<AtomicBool>,
    /// True when this job was replayed from the journal after a restart
    /// rather than submitted on this server lifetime — surfaced in
    /// `STATUS` (`recovered=true`) because a replayed job re-runs work a
    /// previous lifetime already did (its result buffer died with the
    /// process; re-delivery below [`Job::delivered_floor`] is suppressed).
    pub recovered: bool,
    /// Journaled delivery high-water mark: every result with
    /// `seq < delivered_floor` was already consumed by a client in a
    /// previous server lifetime. Streams of this job start at
    /// `max(requested_from, delivered_floor)` so a replayed job never
    /// re-delivers a consumed prefix. Always 0 for fresh jobs.
    pub delivered_floor: u64,
    /// Invoked on the terminal transition (see [`TerminalHook`]).
    on_terminal: Option<TerminalHook>,
    inner: OrderedMutex<Progress>,
    cond: OrderedCondvar,
}

/// A point-in-time copy of a job's observable state (one `STATUS` line).
#[derive(Clone, Debug)]
pub struct JobSnapshot {
    /// Job id.
    pub id: JobId,
    /// Current state.
    pub state: JobState,
    /// Graph label.
    pub source: String,
    /// (k, q).
    pub params: Params,
    /// Results buffered so far.
    pub results: u64,
    /// True when the job was replayed from the journal (see
    /// [`Job::recovered`]).
    pub recovered: bool,
    /// Whether the prepared graph came from the cache (`None` until known).
    pub cache_hit: Option<bool>,
    /// Milliseconds spent running (live for running jobs, final otherwise).
    pub elapsed_ms: u64,
    /// Merged engine stats, once finished.
    pub stats: Option<SearchStats>,
    /// Failure reason, if failed.
    pub error: Option<String>,
}

/// Callback fired with `(id, terminal label, accounted result bytes)` at
/// the exact moment a job transitions to a terminal state — under the
/// job's lock, *before* the transition becomes observable to any
/// `STATUS`/`STREAM` reader. The server installs one to write the
/// journal's `END` record write-ahead (once a client has seen a job
/// terminal, a restart will not resurrect it) and to fold the job's result
/// bytes into its tenant's cumulative counter. Because it runs under the
/// job lock (rank `JobProgress`), a hook may only touch higher-ranked
/// locks (the journal's) or lock-free state (atomics).
pub type TerminalHook = Arc<dyn Fn(JobId, &str, u64) + Send + Sync>;

/// One step of a streaming read.
pub enum StreamStep {
    /// New results were appended to the caller's buffer.
    Items,
    /// The job is terminal and everything has been delivered.
    Ended(JobState, u64),
    /// The wait timed out with nothing new (caller re-checks shutdown).
    Idle,
}

impl Job {
    /// A freshly queued job.
    pub fn new(id: JobId, spec: JobSpec) -> Self {
        Self::with_provenance(id, spec, false)
    }

    /// A job replayed from the journal after a restart: queued like a new
    /// one, but flagged `recovered` for `STATUS`.
    pub fn new_recovered(id: JobId, spec: JobSpec) -> Self {
        Self::with_provenance(id, spec, true)
    }

    /// Installs the terminal-transition hook (builder style, before the
    /// job is shared). The hook fires exactly once per job.
    pub fn with_terminal_hook(mut self, hook: TerminalHook) -> Self {
        self.on_terminal = Some(hook);
        self
    }

    /// Sets the journaled delivery floor (builder style, for replayed
    /// jobs): streams skip every result below it. See
    /// [`Job::delivered_floor`].
    pub fn with_delivered_floor(mut self, floor: u64) -> Self {
        self.delivered_floor = floor;
        self
    }

    /// Fires the terminal hook. Must be called with the state lock held,
    /// right after the transition to a terminal state — before any
    /// observer can see it — and only from the single place that performed
    /// the transition. The job's accounted result bytes ([`crate::auth::plex_bytes`] of
    /// every buffered vertex id) are final by now: the engine, whose
    /// workers feed `append_result`, has returned before `finish`, and the
    /// other terminal paths buffer nothing further.
    fn fire_terminal(&self, p: &Progress) {
        debug_assert!(p.state.is_terminal());
        if let Some(hook) = &self.on_terminal {
            hook(
                self.id,
                p.state.label(),
                crate::auth::plex_bytes(p.results.verts.len()),
            );
        }
    }

    fn with_provenance(id: JobId, spec: JobSpec, recovered: bool) -> Self {
        Self {
            id,
            spec,
            cancel: Arc::new(AtomicBool::new(false)),
            recovered,
            delivered_floor: 0,
            on_terminal: None,
            inner: OrderedMutex::new(
                Rank::JobProgress,
                "job-progress",
                Progress {
                    state: JobState::Queued,
                    results: PlexBuf::default(),
                    stats: None,
                    cache_hit: None,
                    error: None,
                    stop_cause: None,
                    started: None,
                    elapsed: None,
                },
            ),
            cond: OrderedCondvar::new(),
        }
    }

    fn lock(&self) -> OrderedGuard<'_, Progress> {
        self.inner.lock()
    }

    /// Queued → Running. Returns false when the job was cancelled while
    /// queued (the runner skips it).
    pub fn mark_running(&self) -> bool {
        let mut p = self.lock();
        if p.state != JobState::Queued {
            return false;
        }
        p.state = JobState::Running;
        p.started = Some(Instant::now());
        true
    }

    /// Records whether the prepared graph was served from the cache.
    pub fn set_cache_hit(&self, hit: bool) {
        self.lock().cache_hit = Some(hit);
    }

    /// Current state alone — no string/stats clones. For hot scans (job
    /// eviction, shutdown) where a full [`Job::snapshot`] would allocate.
    pub fn state(&self) -> JobState {
        self.lock().state
    }

    /// Appends one result unless the cap is reached; returns the buffered
    /// count. The append that fills the buffer to the cap notes the cap as
    /// the job's stop cause, so a caller seeing `limit` back only has to
    /// stop reporting. Called by every engine worker of a running job.
    pub fn append_result(&self, plex: impl AsRef<[VertexId]>) -> u64 {
        let mut p = self.lock();
        if (p.results.len() as u64) < self.spec.limit {
            p.results.push(plex.as_ref());
            if p.results.len() as u64 == self.spec.limit {
                p.note_stop_cause(StopCause::Cap);
            }
            self.cond.notify_all();
        }
        p.results.len() as u64
    }

    /// Notes why the stop flag is being raised (see
    /// [`Progress::note_stop_cause`]).
    pub(crate) fn note_stop_cause(&self, cause: StopCause) {
        self.lock().note_stop_cause(cause);
    }

    /// The watchdog of a job with a deadline: blocks until the job is
    /// terminal or `deadline` passes. At the deadline it notes
    /// [`StopCause::Deadline`] and raises the stop flag, so a job fails at
    /// its deadline whether or not it is reporting results. It sleeps on
    /// the job's condvar, which every terminal transition notifies, so it
    /// returns as soon as the job ends.
    pub(crate) fn enforce_deadline(&self, deadline: Instant) {
        let mut p = self.lock();
        while !p.state.is_terminal() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                p.note_stop_cause(StopCause::Deadline);
                self.cancel.store(true, Ordering::Release);
                return;
            }
            p = self.cond.wait_timeout(p, left).0;
        }
    }

    /// Client-facing cancel: raises the flag; a queued job dies immediately,
    /// a running one stops cooperatively.
    pub fn request_cancel(&self) {
        self.note_stop_cause(StopCause::Cancel);
        self.cancel.store(true, Ordering::Release);
        let mut p = self.lock();
        if p.state == JobState::Queued {
            p.state = JobState::Cancelled;
            p.elapsed = Some(Duration::ZERO);
            self.fire_terminal(&p);
            self.cond.notify_all();
        }
    }

    /// Running → terminal, with the engine's merged stats.
    pub fn finish(&self, stats: SearchStats) {
        let mut p = self.lock();
        let (state, error) = match p.stop_cause {
            None | Some(StopCause::Cap) => (JobState::Done, None),
            Some(StopCause::Cancel) => (JobState::Cancelled, None),
            Some(StopCause::Deadline) => (JobState::Failed, Some("deadline exceeded".to_string())),
        };
        p.state = state;
        p.error = error;
        p.stats = Some(stats);
        p.elapsed = p.started.map(|s| s.elapsed());
        self.fire_terminal(&p);
        self.cond.notify_all();
    }

    /// Any non-terminal state → Failed with a reason (load error, bad
    /// preset, …). A no-op on an already-terminal job (the first terminal
    /// transition wins, and the terminal hook fires exactly once).
    pub fn fail(&self, reason: String) {
        let mut p = self.lock();
        if p.state.is_terminal() {
            return;
        }
        p.state = JobState::Failed;
        p.error = Some(reason);
        p.elapsed = p.started.map(|s| s.elapsed());
        self.fire_terminal(&p);
        self.cond.notify_all();
    }

    /// Observable state for `STATUS` / `LIST`.
    pub fn snapshot(&self) -> JobSnapshot {
        let p = self.lock();
        let elapsed = p
            .elapsed
            .or_else(|| p.started.map(|s| s.elapsed()))
            .unwrap_or(Duration::ZERO);
        JobSnapshot {
            id: self.id,
            state: p.state,
            source: self.spec.source.label().to_string(),
            params: self.spec.params,
            results: p.results.len() as u64,
            recovered: self.recovered,
            cache_hit: p.cache_hit,
            elapsed_ms: elapsed.as_millis() as u64,
            stats: p.stats.clone(),
            error: p.error.clone(),
        }
    }

    /// Appends results `[from, from + CHUNK)` to `buf`, waiting up to
    /// `wait` for something to happen first. Drives the `STREAM` loop. The
    /// copy is chunked so a late subscriber catching up on a large backlog
    /// holds the job lock for O(chunk), never O(backlog) — the engine
    /// workers' `append_result` and `STATUS` snapshots stay responsive.
    pub(crate) fn next_results(
        &self,
        from: usize,
        buf: &mut PlexBuf,
        wait: Duration,
    ) -> StreamStep {
        /// Results copied out per lock acquisition.
        const CHUNK: usize = 1024;
        let copy = |p: &Progress, buf: &mut PlexBuf| {
            let to = p.results.len().min(from + CHUNK);
            buf.extend_from(&p.results, from..to);
        };
        let mut p = self.lock();
        if p.results.len() > from {
            copy(&p, buf);
            return StreamStep::Items;
        }
        if p.state.is_terminal() {
            return StreamStep::Ended(p.state, p.results.len() as u64);
        }
        let (p2, _timed_out) = self.cond.wait_timeout(p, wait);
        p = p2;
        if p.results.len() > from {
            copy(&p, buf);
            StreamStep::Items
        } else if p.state.is_terminal() {
            StreamStep::Ended(p.state, p.results.len() as u64)
        } else {
            StreamStep::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            source: GraphSource::Dataset("jazz".into()),
            params: Params::new(2, 9).unwrap(),
            threads: 1,
            algo: "ours".into(),
            limit: 2,
            timeout: None,
            throttle: Duration::ZERO,
            tau: None,
            store: kplex_graph::StoreKind::Csr,
            principal: None,
        }
    }

    #[test]
    fn lifecycle_and_result_cap() {
        let job = Job::new(1, spec());
        assert_eq!(job.snapshot().state, JobState::Queued);
        assert!(job.mark_running());
        assert_eq!(job.append_result(vec![1, 2]), 1);
        assert_eq!(job.append_result(vec![3, 4]), 2);
        // Beyond the cap nothing is buffered.
        assert_eq!(job.append_result(vec![5, 6]), 2);
        job.note_stop_cause(StopCause::Cap);
        job.finish(SearchStats::default());
        let snap = job.snapshot();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.results, 2);
    }

    #[test]
    fn queued_cancel_is_immediate_and_cause_is_sticky() {
        let job = Job::new(2, spec());
        job.request_cancel();
        assert_eq!(job.snapshot().state, JobState::Cancelled);
        assert!(job.cancel.load(Ordering::Acquire));
        assert!(!job.mark_running(), "cancelled jobs must not run");
        // A later cap cannot overwrite the cancel cause.
        job.note_stop_cause(StopCause::Cap);
        let p = job.lock();
        assert_eq!(p.stop_cause, Some(StopCause::Cancel));
    }

    #[test]
    fn terminal_hook_reports_accounted_bytes() {
        use std::sync::atomic::AtomicU64;
        let seen = Arc::new(AtomicU64::new(0));
        let hook_seen = seen.clone();
        let job = Job::new(4, spec()).with_terminal_hook(Arc::new(move |_, _, bytes| {
            // ordering: test observation, read after finish() returns.
            hook_seen.store(bytes, Ordering::SeqCst);
        }));
        job.mark_running();
        job.append_result(vec![1, 2, 3]); // 12 accounted bytes
        job.append_result(vec![4]); // 4 accounted bytes
        job.finish(SearchStats::default());
        // ordering: test observation, written before finish() returned.
        assert_eq!(seen.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn watchdog_stops_at_the_deadline_and_leaves_with_the_job() {
        // A deadline that has passed fails the job, results or not.
        let job = Job::new(5, spec());
        job.mark_running();
        job.enforce_deadline(Instant::now());
        assert!(job.cancel.load(Ordering::Acquire));
        job.finish(SearchStats::default());
        assert_eq!(job.snapshot().state, JobState::Failed);

        // A job that ends first releases its watchdog without a stop: the
        // terminal transition wakes it long before the deadline.
        let job = Job::new(6, spec());
        job.mark_running();
        let far = Instant::now() + Duration::from_secs(600);
        std::thread::scope(|scope| {
            let watchdog = scope.spawn(|| job.enforce_deadline(far));
            job.finish(SearchStats::default());
            watchdog.join().expect("watchdog panicked");
        });
        assert!(!job.cancel.load(Ordering::Acquire));
        assert_eq!(job.snapshot().state, JobState::Done);
    }

    #[test]
    fn recovered_jobs_are_flagged() {
        let job = Job::new_recovered(9, spec());
        assert!(job.recovered);
        assert!(job.snapshot().recovered);
        assert!(!Job::new(1, spec()).snapshot().recovered);
    }

    #[test]
    fn streaming_replays_and_ends() {
        let job = Job::new(3, JobSpec { limit: 4, ..spec() });
        job.mark_running();
        job.append_result(vec![1]);
        job.append_result(vec![2, 3, 4]);
        job.append_result(vec![5, 6]);
        let mut buf = PlexBuf::default();
        assert!(matches!(
            job.next_results(0, &mut buf, Duration::from_millis(1)),
            StreamStep::Items
        ));
        assert_eq!(buf.len(), 3);
        // A read from a non-zero offset starts at that plex's first vertex,
        // and appending to a non-empty buffer rebases the copied offsets.
        buf.clear();
        buf.push(&[9, 9]);
        assert!(matches!(
            job.next_results(1, &mut buf, Duration::from_millis(1)),
            StreamStep::Items
        ));
        let plexes: Vec<&[VertexId]> = buf.iter().collect();
        assert_eq!(plexes, [&[9, 9][..], &[2, 3, 4], &[5, 6]]);
        assert!(matches!(
            job.next_results(3, &mut buf, Duration::from_millis(1)),
            StreamStep::Idle
        ));
        job.finish(SearchStats::default());
        match job.next_results(3, &mut buf, Duration::from_millis(1)) {
            StreamStep::Ended(state, total) => {
                assert_eq!(state, JobState::Done);
                assert_eq!(total, 3);
            }
            _ => panic!("expected end of stream"),
        }
    }
}
