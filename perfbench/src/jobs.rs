//! Client-visible jobs: the correctness reference, one timed job through
//! the wire protocol, the closed-loop client loop, and the in-process
//! server + router stack the jobs run against.

use crate::trace::Tracer;
use crate::util::{mix64, plex_hash};
use crate::workload::{Cell, Workload};
use kplex_core::{enumerate_collect, AlgoConfig, Params};
use kplex_service::{Client, Router, RouterHandle, Server, ServerHandle, SubmitArgs};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// The expected result set of a cell: its size and order-independent hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub count: u64,
    pub hash: u64,
}

/// Computes a cell's reference with the sequential `enumerate_collect` on a
/// freshly generated copy of the graph.
pub fn reference(cell: &Cell) -> Result<Reference, String> {
    let ds = kplex_datasets::by_name(cell.dataset)
        .ok_or_else(|| format!("unknown dataset {}", cell.dataset))?;
    let params = Params::new(cell.k, cell.q).map_err(|e| e.to_string())?;
    let (mut plexes, _) = enumerate_collect(&ds.generate(), params, &AlgoConfig::ours());
    let hash = plexes
        .iter_mut()
        .fold(0u64, |h, p| h.wrapping_add(plex_hash(p)));
    Ok(Reference {
        count: plexes.len() as u64,
        hash,
    })
}

/// A job the server answered and the benchmark verified, as the instants
/// the client saw.
#[derive(Clone, Debug)]
pub struct JobTiming {
    /// SUBMIT sent.
    pub sent: Instant,
    /// `OK` received.
    pub acked: Instant,
    /// First NDJSON line received; `None` for an empty result set.
    pub first: Option<Instant>,
    /// `END` received.
    pub ended: Instant,
    /// The `STATUS` reply received, when one was requested.
    pub statused: Option<Instant>,
    pub results: u64,
    /// NDJSON bytes received (lines and newlines); counted only on request.
    pub bytes: u64,
    /// The server's own `elapsed-ms` for the job; fetched only on request.
    pub server_s: Option<f64>,
    /// Peak RSS of the process while the job ran; sampled only on request.
    pub peak_rss_mib: Option<f64>,
}

impl JobTiming {
    /// SUBMIT sent → `OK` received.
    pub fn ack_s(&self) -> f64 {
        (self.acked - self.sent).as_secs_f64()
    }

    /// SUBMIT sent → first NDJSON line.
    pub fn ttfr_s(&self) -> Option<f64> {
        self.first.map(|f| (f - self.sent).as_secs_f64())
    }

    /// SUBMIT sent → `END` received.
    pub fn job_s(&self) -> f64 {
        (self.ended - self.sent).as_secs_f64()
    }

    /// First NDJSON line → `END` received.
    pub fn stream_s(&self) -> f64 {
        self.first.map_or(0.0, |f| (self.ended - f).as_secs_f64())
    }

    /// Records the job's spans: a `root` span around `service.submit`,
    /// `service.stream` and, when fetched, `service.status`.
    pub fn trace(&self, tr: &mut Tracer, job: u64, root: &'static str) {
        let end = self.statused.unwrap_or(self.ended);
        let root = tr.record(None, root, job, self.sent, end);
        tr.record(Some(root), "service.submit", job, self.sent, self.acked);
        tr.record(Some(root), "service.stream", job, self.acked, self.ended);
        if let Some(s) = self.statused {
            tr.record(Some(root), "service.status", job, self.ended, s);
        }
    }
}

/// What to measure beyond the job time.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobOpts {
    pub count_bytes: bool,
    pub status: bool,
    /// Reset the process's peak-RSS mark before the job and read it after.
    /// Process-wide, so only one client of a pass may ask for it.
    pub peak_rss: bool,
}

/// Length of the NDJSON line `render_plex_line` sends for one result,
/// including its newline, computed without rendering it.
fn ndjson_len(id: u64, seq: u64, plex: &[u32]) -> u64 {
    fn digits(mut x: u64) -> u64 {
        let mut d = 1;
        while x >= 10 {
            x /= 10;
            d += 1;
        }
        d
    }
    // {"id":…,"seq":…,"plex":[…]}\n
    let fixed = 6 + 7 + 9 + 2 + 1;
    let commas = plex.len().saturating_sub(1) as u64;
    fixed + digits(id) + digits(seq) + commas + plex.iter().map(|&v| digits(v.into())).sum::<u64>()
}

/// Runs one job on `client` — SUBMIT, then STREAM to `END` — and verifies
/// the delivered result set against `reference`. Any `ERR`, transport
/// failure, non-`done` end state or wrong result set is an `Err`.
pub fn run_job(
    client: &mut Client,
    args: &SubmitArgs,
    reference: Reference,
    opts: JobOpts,
) -> Result<JobTiming, String> {
    if opts.peak_rss {
        crate::util::reset_peak_rss();
    }
    let sent = Instant::now();
    let id = client.submit(args).map_err(|e| format!("submit: {e}"))?;
    let acked = Instant::now();
    let (mut first, mut n, mut hash, mut bytes) = (None, 0u64, 0u64, 0u64);
    let end = client
        .stream(id, |seq, mut plex| {
            if first.is_none() {
                first = Some(Instant::now());
            }
            if opts.count_bytes {
                bytes += ndjson_len(id, seq, &plex);
            }
            n += 1;
            hash = hash.wrapping_add(plex_hash(&mut plex));
        })
        .map_err(|e| format!("stream: {e}"))?;
    let ended = Instant::now();
    let peak_rss_mib = opts.peak_rss.then(crate::util::peak_rss_mib).flatten();
    let (statused, server_s) = if opts.status {
        let fields = client.status(id).map_err(|e| format!("status: {e}"))?;
        let ms = fields.get("elapsed-ms").and_then(|v| v.parse::<f64>().ok());
        (Some(Instant::now()), ms.map(|ms| ms / 1000.0))
    } else {
        (None, None)
    };
    let state = end.get("state").map(String::as_str).unwrap_or("-");
    if state != "done" {
        return Err(format!("job {id} ended in state {state}"));
    }
    if n != reference.count || hash != reference.hash {
        return Err(format!(
            "job {id}: {n} results (hash {hash:016x}), expected {} (hash {:016x})",
            reference.count, reference.hash
        ));
    }
    Ok(JobTiming {
        sent,
        acked,
        first,
        ended,
        statused,
        results: n,
        bytes,
        server_s,
        peak_rss_mib,
    })
}

/// One attempted job: verified timings, or why it failed.
type JobOutcome = Result<JobTiming, String>;

/// How a closed-loop pass stops: at a deadline, after a number of jobs per
/// client, or whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    pub deadline: Option<Instant>,
    pub max_jobs: Option<usize>,
}

/// Result of [`drive`].
pub struct Pass {
    /// Every attempted job, in client order.
    pub records: Vec<JobOutcome>,
    pub wall_s: f64,
    pub tracers: Vec<Tracer>,
}

/// Runs the workload's closed loop against `addr`: one connection per
/// client, each submitting its seeded job sequence one job at a time until
/// `stop`. A job that fails on the transport gets a fresh connection.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    wl: Workload,
    addr: SocketAddr,
    nproc: usize,
    seed: u64,
    refs: &[Reference],
    stop: Stop,
    opts: JobOpts,
    traced: Option<Instant>,
) -> Pass {
    let t0 = Instant::now();
    let per_client: Vec<(Vec<JobOutcome>, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..wl.clients(nproc))
            .map(|c| {
                s.spawn(move || {
                    let mut tracer = traced.map(Tracer::new);
                    let mut records = Vec::new();
                    let mut client = None;
                    for (i, (cell, store)) in wl.sequence(seed, c).enumerate() {
                        if stop.max_jobs.is_some_and(|m| i >= m)
                            || stop.deadline.is_some_and(|d| Instant::now() >= d)
                        {
                            break;
                        }
                        if client.is_none() {
                            client = Client::connect(addr).ok();
                        }
                        let args = wl.submit_args(cell, store, nproc);
                        let job = ((c as u64) << 32) | i as u64;
                        let outcome = match client.as_mut() {
                            Some(cl) => {
                                let opts = JobOpts {
                                    peak_rss: opts.peak_rss && c == 0,
                                    ..opts
                                };
                                run_job(cl, &args, refs[cell], opts)
                            }
                            None => Err(format!("cannot connect to {addr}")),
                        };
                        if let (Some(t), Ok(timing)) = (tracer.as_mut(), &outcome) {
                            timing.trace(t, job, "client.job");
                        }
                        if outcome.is_err() {
                            client = None;
                        }
                        records.push(outcome);
                    }
                    (records, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        records: Vec::new(),
        wall_s,
        tracers: Vec::new(),
    };
    for (records, tracer) in per_client {
        pass.records.extend(records);
        pass.tracers.extend(tracer);
    }
    pass
}

impl Pass {
    pub fn ok(&self) -> impl Iterator<Item = &JobTiming> {
        self.records.iter().filter_map(|r| r.as_ref().ok())
    }

    pub fn failures(&self) -> impl Iterator<Item = &str> {
        self.records
            .iter()
            .filter_map(|r| r.as_ref().err().map(String::as_str))
    }
}

/// The system under test: one `kplexd` and one `kplexr` in front of it,
/// both in this process on ephemeral loopback ports.
pub struct Stack {
    pub server: ServerHandle,
    pub router: RouterHandle,
}

impl Stack {
    pub fn start(wl: Workload, nproc: usize) -> std::io::Result<Stack> {
        let server = Server::bind(&wl.server_config(nproc))?.spawn()?;
        let router = Router::bind(&wl.router_config(server.addr().to_string()))?.spawn()?;
        for addr in [server.addr(), router.addr()] {
            Client::connect(addr)
                .and_then(|mut c| c.ping())
                .map_err(|e| std::io::Error::other(format!("{addr}: {e}")))?;
        }
        Ok(Stack { server, router })
    }

    pub fn stop(self) {
        self.router.shutdown();
        self.server.shutdown();
    }

    /// The backend's `STATS` counters.
    pub fn server_stats(&self) -> Result<BTreeMap<String, String>, String> {
        Client::connect(self.server.addr())
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("STATS: {e}"))
    }
}

/// Reads a numeric `STATS` field (0 when absent).
pub fn stat(stats: &BTreeMap<String, String>, key: &str) -> u64 {
    stats.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Combines per-cell references into one tag for the provenance record.
pub fn references_tag(refs: &[Reference]) -> u64 {
    refs.iter()
        .fold(0, |h, r| mix64(h ^ mix64(r.count ^ r.hash)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_len_matches_the_wire_rendering() {
        for (id, seq, plex) in [
            (1u64, 0u64, vec![4u32, 8, 15]),
            (12345, 987_654, vec![0, 10, 4_000_000_000]),
            (7, 3, vec![]),
        ] {
            let line = kplex_service::protocol::render_plex_line(id, seq, &plex);
            assert_eq!(ndjson_len(id, seq, &plex), line.len() as u64 + 1);
        }
    }
}
