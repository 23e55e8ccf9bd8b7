//! The traced run: per-layer metrics, measured from outside by timing calls
//! into each module's public entry points.
//!
//! - `kplex-core`: the traced copy of `enumerate` (see [`crate::trace`]),
//!   guarded against plain `enumerate_count`, over the CSR store and again
//!   over the compressed and mmap stores;
//! - `kplex-parallel`: `par_enumerate_count` at 1 and nproc threads with a
//!   benchmark-owned `SchedMetrics`;
//! - `kplex-service`: jobs straight to `kplexd` and through `kplexr`, plus
//!   the server's `STATUS` and `STATS` fields.
//!
//! For many-small, core and parallel figures are sums over its four cells
//! and service figures are means over them.

use crate::jobs::{self, drive, run_job, JobOpts, JobTiming, Reference, Stack, Stop};
use crate::trace::{self, traced_enumerate, Tracer};
use crate::util::{mean, median};
use crate::workload::{Cell, Workload};
use crate::Report;
use kplex_core::{enumerate_count, AlgoConfig, Params};
use kplex_graph::{StoreBackend, StoreKind};
use kplex_parallel::{par_enumerate_count, EngineOptions, SchedMetrics};
use kplex_service::Client;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One cell's core and parallel figures from one repetition.
type Figures = BTreeMap<&'static str, f64>;

/// Rounds of (direct, routed, routed untraced) jobs per cell in the service
/// pass: at least the minimum, more while the run's budget lasts.
const MIN_SERVICE_ROUNDS: usize = 2;
const MAX_SERVICE_ROUNDS: usize = 10;

/// Runs the traced measurements for `budget` (core and parallel layers are
/// repeated while it lasts; the service pass runs once) and puts every
/// per-layer metric into `report`. Returns the recorded spans.
pub fn run(
    wl: Workload,
    nproc: usize,
    seed: u64,
    stack: &Stack,
    refs: &[Reference],
    budget: Duration,
    report: &mut Report,
) -> Result<Vec<Tracer>, String> {
    let epoch = Instant::now();
    let cfg = AlgoConfig::ours();
    let mut tracers = Vec::new();
    let mut job = 0u64;

    // --- core + parallel, repeated; per-metric medians over repetitions ---
    let mut reps: Vec<Vec<Figures>> = Vec::new();
    while reps.is_empty() || epoch.elapsed() < budget / 2 {
        let mut tr = Tracer::new(epoch);
        let mut rep = Vec::new();
        for (cell, &r) in wl.cells().iter().zip(refs) {
            job += 1;
            rep.push(core_and_parallel(
                cell, r, nproc, &cfg, &mut tr, job, report,
            )?);
        }
        reps.push(rep);
        if tracers.is_empty() {
            tracers.push(tr);
        }
    }
    let per_cell: Vec<Figures> = (0..wl.cells().len())
        .map(|c| {
            let keys = reps[0][c].keys().copied();
            keys.map(|k| {
                let v: Vec<f64> = reps.iter().map(|rep| rep[c][k]).collect();
                (k, median(&v).expect("at least one repetition"))
            })
            .collect()
        })
        .collect();
    let total = |k: &str| per_cell.iter().map(|f| f[k]).sum::<f64>();
    for &name in per_cell[0].keys() {
        report.put(name, total(name), unit_of(name));
    }
    report.put(
        "core.seed_yield",
        total("core.seeds_built") / total("core.seed_visits").max(1.0),
        "ratio",
    );
    report.put(
        "core.branches_per_s",
        total("core.branch_calls") / total("core.branch_s"),
        "1/s",
    );
    report.put(
        "core.ub_prune_ratio",
        total("core.ub_pruned") / total("core.branch_calls").max(1.0),
        "ratio",
    );
    report.put(
        "parallel.speedup",
        total("parallel.engine_1t_s") / total("parallel.engine_nt_s"),
        "ratio",
    );
    report.put(
        "parallel.m1_overhead_s",
        total("parallel.engine_1t_s") - total("core.sequential_s"),
        "s",
    );
    report.put(
        "trace.core_overhead_s",
        total("core.traced_s") - total("core.sequential_s"),
        "s",
    );
    report.put(
        "trace.core_overhead_frac",
        total("core.traced_s") / total("core.sequential_s") - 1.0,
        "ratio",
    );

    // --- service: one pass ---
    let mut tr = Tracer::new(epoch);
    let deadline = epoch + budget;
    service(
        wl, nproc, seed, stack, refs, &per_cell, &mut tr, epoch, deadline, report,
    )?;
    tracers.push(tr);
    Ok(tracers)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") || name.contains("_s.") {
        "s"
    } else {
        "count"
    }
}

/// One repetition of the core and parallel layers on one cell.
fn core_and_parallel(
    cell: &Cell,
    reference: Reference,
    nproc: usize,
    cfg: &AlgoConfig,
    tr: &mut Tracer,
    job: u64,
    report: &mut Report,
) -> Result<Figures, String> {
    let ds = kplex_datasets::by_name(cell.dataset)
        .ok_or_else(|| format!("unknown dataset {}", cell.dataset))?;
    let params = Params::new(cell.k, cell.q).map_err(|e| e.to_string())?;
    let g = ds.load();
    let mut f = Figures::new();
    let label = cell.label();

    // An untimed first call warms the heap and caches, so neither of the
    // timed calls below pays for going first; it is also the guard's
    // reference for the traced copy.
    let (count, stats) = enumerate_count(&g, params, cfg);
    report.check(count == reference.count, || {
        format!(
            "{label}: enumerate_count gave {count}, reference {}",
            reference.count
        )
    });
    // Plain calls before and after the traced copy: their mean cancels
    // drift in the host's speed that is linear over the three calls.
    let plain = |tr: &mut Tracer| {
        let t = Instant::now();
        tr.span("core.enumerate_count", job, || {
            enumerate_count(&g, params, cfg)
        });
        t.elapsed().as_secs_f64()
    };
    let before = plain(tr);
    let run = traced_enumerate(&g, params, cfg, tr, job);
    f.insert("core.sequential_s", (before + plain(tr)) / 2.0);
    report.check(
        run.count == count && run.stats.kernel_fingerprint() == stats.kernel_fingerprint(),
        || {
            format!(
                "{label}: traced core copy gave {} {:?}, enumerate_count {count} {:?}",
                run.count,
                run.stats.kernel_fingerprint(),
                stats.kernel_fingerprint()
            )
        },
    );
    let phase = |name| tr.total(name, job);
    f.insert("core.prepare_s", phase(trace::CORE_PREPARE));
    f.insert("core.seed_build_s", phase(trace::CORE_SEED_BUILD));
    f.insert("core.pair_matrix_s", phase(trace::CORE_PAIR_MATRIX));
    f.insert("core.split_s", phase(trace::CORE_SPLIT));
    f.insert("core.branch_s", phase(trace::CORE_BRANCH));
    f.insert("core.traced_s", phase(trace::CORE_ENUMERATE));
    f.insert(
        "core.loop_self_s",
        phase(trace::CORE_ENUMERATE)
            - [
                trace::CORE_PREPARE,
                trace::CORE_SEED_BUILD,
                trace::CORE_PAIR_MATRIX,
                trace::CORE_SPLIT,
                trace::CORE_BRANCH,
            ]
            .iter()
            .map(|&n| phase(n))
            .sum::<f64>(),
    );
    f.insert("core.core_vertices", run.core_vertices as f64);
    f.insert("core.seed_visits", run.seed_visits as f64);
    f.insert("core.seeds_built", run.seeds_built as f64);
    f.insert("core.subtasks", run.stats.subtasks as f64);
    f.insert("core.r1_pruned", run.stats.r1_pruned as f64);
    f.insert("core.branch_calls", run.stats.branch_calls as f64);
    f.insert("core.ub_pruned", run.stats.ub_pruned as f64);
    f.insert("core.pair_pruned", run.stats.pair_pruned as f64);
    f.insert("core.outputs", run.stats.outputs as f64);

    // The same phases over the compressed and mmap stores, each on its own
    // job id so its spans stay apart from the CSR run's.
    let compressed = StoreBackend::from_graph(g.clone(), StoreKind::Compressed);
    let kpx = ds.ensure_kpx().map_err(|e| format!("{label}: .kpx: {e}"))?;
    let mapped = StoreBackend::open_mmap(&kpx).map_err(|e| format!("{label}: mmap: {e}"))?;
    for (i, (store, backend, keys)) in [
        (
            "compressed",
            &compressed,
            [
                "core.seed_build_s.compressed",
                "core.branch_s.compressed",
                "core.traced_s.compressed",
            ],
        ),
        (
            "mmap",
            &mapped,
            [
                "core.seed_build_s.mmap",
                "core.branch_s.mmap",
                "core.traced_s.mmap",
            ],
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let sjob = job + ((i as u64 + 1) << 48);
        let r = traced_enumerate(backend, params, cfg, tr, sjob);
        report.check(r.count == count, || {
            format!(
                "{label}: {store} store gave {} plexes, csr {count}",
                r.count
            )
        });
        f.insert(keys[0], tr.total(trace::CORE_SEED_BUILD, sjob));
        f.insert(keys[1], tr.total(trace::CORE_BRANCH, sjob));
        f.insert(keys[2], tr.total(trace::CORE_ENUMERATE, sjob));
    }

    for (threads, key) in [(1, "parallel.engine_1t_s"), (nproc, "parallel.engine_nt_s")] {
        let metrics = Arc::new(SchedMetrics::default());
        let opts = EngineOptions {
            metrics: Some(metrics.clone()),
            ..EngineOptions::with_threads(threads)
        };
        let t = Instant::now();
        let (n, pstats) = tr.span("parallel.par_enumerate_count", job, || {
            par_enumerate_count(&g, params, cfg, &opts)
        });
        f.insert(key, t.elapsed().as_secs_f64());
        report.check(n == count, || {
            format!("{label}: par_enumerate_count({threads}) gave {n}, sequential {count}")
        });
        if threads == nproc {
            f.insert("parallel.steals", metrics.steals() as f64);
            f.insert("parallel.injector_steals", metrics.injector_steals() as f64);
            f.insert("parallel.parks", metrics.parks() as f64);
            f.insert("parallel.timeout_splits", pstats.timeout_splits as f64);
        }
    }
    Ok(f)
}

/// Jobs straight to `kplexd` and through `kplexr`, per cell, plus the
/// workload's own mix when it has more than one (cell, store) pair.
#[allow(clippy::too_many_arguments)]
fn service(
    wl: Workload,
    nproc: usize,
    seed: u64,
    stack: &Stack,
    refs: &[Reference],
    per_cell: &[Figures],
    tr: &mut Tracer,
    epoch: Instant,
    deadline: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let before = stack.server_stats()?;
    let mut routed: Vec<JobTiming> = Vec::new();

    // The workload's mix through the router, one block per client, so the
    // cache sees the workload's own churn.
    let pairs = wl.cells().len() * wl.stores().len();
    if pairs > 1 {
        let pass = drive(
            wl,
            stack.router.addr(),
            nproc,
            seed,
            refs,
            Stop {
                deadline: None,
                max_jobs: Some(pairs),
            },
            JobOpts {
                status: true,
                ..JobOpts::default()
            },
            Some(epoch),
        );
        for f in pass.failures() {
            report.check(false, || format!("mix job: {f}"));
        }
        report.attempted += pass.ok().count() as u64;
        routed.extend(pass.ok().cloned());
        // Client threads traced on their own tracers; fold them into ours.
        for t in pass.tracers {
            tr.absorb(t);
        }
    }

    // Per cell on the CSR store: a warm-up job, then rounds of a direct job,
    // a traced routed job and an untraced routed job.
    let mut direct = Client::connect(stack.server.addr()).map_err(|e| e.to_string())?;
    let mut router = Client::connect(stack.router.addr()).map_err(|e| e.to_string())?;
    let (mut path_s, mut hop_s, mut overhead_s, mut bytes) = (vec![], vec![], vec![], vec![]);
    let (mut stream_bytes, mut stream_s) = (0u64, 0.0);
    let threads = wl.job_threads(nproc);
    let cells = refs.len();
    for (c, (&r, figures)) in refs.iter().zip(per_cell).enumerate() {
        // This cell's share of the time left.
        let cell_deadline = Instant::now()
            + deadline.saturating_duration_since(Instant::now()) / (cells - c) as u32;
        let args = wl.submit_args(c, "csr", nproc);
        let label = wl.cells()[c].label();
        let job = |client: &mut Client, opts: JobOpts, report: &mut Report| {
            let out = run_job(client, &args, r, opts);
            report.check(out.is_ok(), || format!("{label}: {:?}", out.as_ref().err()));
            out.ok()
        };
        let full = JobOpts {
            count_bytes: true,
            status: true,
            peak_rss: false,
        };
        job(&mut direct, JobOpts::default(), report);
        let (mut d, mut rt, mut rp) = (vec![], vec![], vec![]);
        for round in 0..MAX_SERVICE_ROUNDS {
            if round >= MIN_SERVICE_ROUNDS && Instant::now() >= cell_deadline {
                break;
            }
            let id = ((c as u64 + 1) << 40) | (round as u64) << 2;
            if let Some(t) = job(&mut direct, full, report) {
                t.trace(tr, id, "server.job");
                d.push(t.job_s());
                bytes.push(t.bytes as f64);
                stream_bytes += t.bytes;
                stream_s += t.stream_s();
            }
            // Alternate which routed job goes first, so neither the traced
            // nor the untraced one always follows the direct job.
            for traced in [round % 2 == 0, round % 2 == 1] {
                if traced {
                    if let Some(t) = job(&mut router, full, report) {
                        t.trace(tr, id | 1, "router.job");
                        rt.push(t.job_s());
                        routed.push(t);
                    }
                } else if let Some(t) = job(&mut router, JobOpts::default(), report) {
                    rp.push(t.job_s());
                }
            }
        }
        let (Some(d), Some(rt), Some(rp)) = (median(&d), median(&rt), median(&rp)) else {
            return Err(format!("{label}: no successful service job"));
        };
        // A warm job skips prepare, so the engine time it is compared with
        // excludes prepare as well.
        let engine_key = if threads == 1 {
            "parallel.engine_1t_s"
        } else {
            "parallel.engine_nt_s"
        };
        path_s.push(d - (figures[engine_key] - figures["core.prepare_s"]));
        hop_s.push(rt - d);
        overhead_s.push(rt - rp);
    }
    let after = stack.server_stats()?;

    let delta = |k| jobs::stat(&after, k).saturating_sub(jobs::stat(&before, k)) as f64;
    let (hits, misses) = (
        delta("cache-hits") + delta("cache-coalesced"),
        delta("cache-misses"),
    );
    let acks: Vec<f64> = routed.iter().map(JobTiming::ack_s).collect();
    let outside: Vec<f64> = routed
        .iter()
        .filter_map(|t| t.server_s.map(|s| t.job_s() - s))
        .collect();
    let m = |v: Option<f64>| v.unwrap_or(f64::NAN);
    report.put("service.submit_ack_s", m(median(&acks)), "s");
    report.put("service.outside_run_s", m(median(&outside)), "s");
    report.put(
        "service.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    report.put("service.cache_misses", misses, "count");
    report.put("service.result_path_s", m(mean(&path_s)), "s");
    report.put("service.stream_bytes", m(mean(&bytes)), "bytes");
    report.put(
        "service.stream_mib_per_s",
        stream_bytes as f64 / (1024.0 * 1024.0) / stream_s,
        "MiB/s",
    );
    report.put("router.hop_s", m(mean(&hop_s)), "s");
    report.put("trace.job_overhead_s", m(mean(&overhead_s)), "s");
    Ok(())
}
