//! `kplex-perfbench`: the repository's benchmark.
//!
//! One run drives one workload through an in-process `kplexr` → `kplexd` →
//! engine stack from a closed-loop client and prints, as its last stdout
//! line, one JSON object with the workload's end-to-end metrics
//! (`--trace 0`) or, from a separate traced run, its per-layer metrics
//! (`--trace 1`). Every job's result set is checked against a sequential
//! reference. `run.py` builds this binary and is the entry point; README.md
//! describes the workloads, the metrics and the predictions they serve.

mod jobs;
mod layers;
mod trace;
mod util;
mod workload;

use jobs::{drive, reference, JobOpts, JobTiming, Reference, Stack, Stop};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use util::{json_num, json_str, median, percentile};
use workload::Workload;

/// Set-ups per timed run, `setup_s` being their median: at least
/// `MIN_SETUPS`, more while they have taken less than `SETUP_BUDGET`
/// together, so a set-up of a few milliseconds still gets a steady median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Metrics and correctness checks of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let (mut work_dir, mut rev) = (
        PathBuf::from(".bench_build/perfbench"),
        "unknown".to_string(),
    );
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--rev" => rev = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work_dir,
        rev,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2)
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let wl = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    let data_dir = args.work_dir.join("data");
    // Graph caches and `.kpx` files of this run live in the work directory;
    // set before any thread exists.
    std::env::set_var("KPLEX_DATA_DIR", &data_dir);

    // The reference comes first, so its memory is freed before the server
    // and router start.
    let t = Instant::now();
    let refs: Vec<Reference> = wl.cells().iter().map(reference).collect::<Result<_, _>>()?;
    eprintln!(
        "perfbench: {} reference(s) in {:.2}s, rss {:.0} MiB",
        refs.len(),
        t.elapsed().as_secs_f64(),
        util::rss_mib().unwrap_or(0.0)
    );

    let (stack, setup_times) = setup(wl, nproc, &data_dir, !args.trace)?;
    let mut report = Report::default();

    // Warm-up: every (cell, store) pair once per client, so lazy set-up and
    // the first cold prepare are out of the measured window.
    let pairs = wl.cells().len() * wl.stores().len();
    let warm = drive(
        wl,
        stack.router.addr(),
        nproc,
        args.seed,
        &refs,
        Stop {
            deadline: None,
            max_jobs: Some(pairs),
        },
        JobOpts::default(),
        None,
    );
    for f in warm.failures() {
        report.check(false, || format!("warm-up job: {f}"));
    }
    report.attempted += warm.ok().count() as u64;

    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = if args.trace {
        traced(args, nproc, &stack, &refs, budget, &mut report)
    } else {
        timed(
            args,
            nproc,
            &stack,
            &refs,
            budget,
            &setup_times,
            &mut report,
        )
    };
    stack.stop();
    outcome?;

    let provenance = provenance(args, nproc, &stack_config(wl, nproc), &refs);
    println!("provenance {provenance}");
    let result = report.to_json();
    record(&args.work_dir, nproc, &provenance, &result);
    println!("{result}");
    Ok(())
}

/// Makes the workload's graphs loadable (generated into the data cache,
/// converted to `.kpx` where jobs use the mmap store) and starts the server
/// and router from scratch — once, or `repeat`ed as [`MIN_SETUPS`] says;
/// returns the last stack and every set-up's duration.
fn setup(
    wl: Workload,
    nproc: usize,
    data_dir: &Path,
    repeat: bool,
) -> Result<(Stack, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut stack: Option<Stack> = None;
    let start = Instant::now();
    while times.is_empty()
        || repeat
            && times.len() < MAX_SETUPS
            && (times.len() < MIN_SETUPS || start.elapsed() < SETUP_BUDGET)
    {
        if let Some(s) = stack.take() {
            s.stop();
        }
        // Clearing the previous set-up's files is not part of set-up.
        if data_dir.exists() {
            std::fs::remove_dir_all(data_dir).map_err(|e| format!("{data_dir:?}: {e}"))?;
        }
        let t0 = Instant::now();
        for cell in wl.cells() {
            let ds = kplex_datasets::by_name(cell.dataset)
                .ok_or_else(|| format!("unknown dataset {}", cell.dataset))?;
            ds.load();
            if wl.stores().contains(&"mmap") {
                ds.ensure_kpx()
                    .map_err(|e| format!("{}: {e}", cell.dataset))?;
            }
        }
        stack = Some(Stack::start(wl, nproc).map_err(|e| format!("start: {e}"))?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((stack.expect("at least one set-up"), times))
}

/// The timed run: the workload's closed loop for `budget`, untraced.
fn timed(
    args: &Args,
    nproc: usize,
    stack: &Stack,
    refs: &[Reference],
    budget: Duration,
    setup_times: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let pass = drive(
        args.workload,
        stack.router.addr(),
        nproc,
        args.seed,
        refs,
        Stop {
            deadline: Some(Instant::now() + budget),
            max_jobs: None,
        },
        JobOpts {
            peak_rss: true,
            ..JobOpts::default()
        },
        None,
    );
    for f in pass.failures() {
        report.check(false, || format!("job: {f}"));
    }
    let ok: Vec<&JobTiming> = pass.ok().collect();
    report.attempted += ok.len() as u64;
    let jobs: Vec<f64> = ok.iter().map(|t| t.job_s()).collect();
    let ttfr: Vec<f64> = ok.iter().filter_map(|t| t.ttfr_s()).collect();
    let rss: Vec<f64> = ok.iter().filter_map(|t| t.peak_rss_mib).collect();
    let results: u64 = ok.iter().map(|t| t.results).sum();
    let (Some(p50), Some(ttfr50)) = (median(&jobs), median(&ttfr)) else {
        return Err("no job completed in the measured window".into());
    };
    let quartiles = |v: &[f64]| {
        [0.0, 0.25, 0.5, 0.75, 1.0]
            .map(|p| format!("{:.4}", percentile(v, p).unwrap_or(f64::NAN)))
            .join("/")
    };
    let failed = pass.records.len() - ok.len();
    eprintln!(
        "perfbench: {} jobs ({failed} failed) in {:.2}s; failed_frac {}",
        pass.records.len(),
        pass.wall_s,
        failed as f64 / pass.records.len() as f64
    );
    eprintln!("perfbench: job_s min/q1/median/q3/max {}", quartiles(&jobs));
    eprintln!(
        "perfbench: ttfr_s min/q1/median/q3/max {}",
        quartiles(&ttfr)
    );
    // p90 is gated only where ten or more jobs lie beyond it; see README.md.
    eprintln!(
        "perfbench: job_p90_s {:.4} ({} jobs beyond it)",
        percentile(&jobs, 0.9).unwrap_or(f64::NAN),
        jobs.len() / 10
    );
    report.put("job_p50_s", p50, "s");
    report.put("ttfr_p50_s", ttfr50, "s");
    report.put(
        "results_per_s",
        results as f64 / jobs.iter().sum::<f64>(),
        "1/s",
    );
    report.put("jobs_per_s", ok.len() as f64 / pass.wall_s, "1/s");
    report.put(
        "peak_rss_mib",
        median(&rss).ok_or("no peak RSS in /proc/self/status")?,
        "MiB",
    );
    report.put(
        "setup_s",
        median(setup_times).expect("at least one set-up"),
        "s",
    );
    Ok(())
}

/// The traced run: per-layer metrics, with the spans written to
/// `trace-<workload>.csv` in the work directory.
fn traced(
    args: &Args,
    nproc: usize,
    stack: &Stack,
    refs: &[Reference],
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let tracers = layers::run(args.workload, nproc, args.seed, stack, refs, budget, report)?;
    let path = args
        .work_dir
        .join(format!("trace-{}.csv", args.workload.name()));
    trace::write_csv(&path, &tracers).map_err(|e| format!("{path:?}: {e}"))?;
    // Parents index within their own tracer, so summarise tracer by tracer.
    let mut by_name = std::collections::BTreeMap::<&str, (u64, f64, f64)>::new();
    for tr in &tracers {
        for (name, (n, total, own)) in trace::summarise(tr.spans()) {
            let e = by_name.entry(name).or_default();
            e.0 += n;
            e.1 += total;
            e.2 += own;
        }
    }
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
    eprintln!("perfbench: {spans} spans written to {}", path.display());
    eprintln!(
        "perfbench: {:<30} {:>9} {:>10} {:>10}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (n, total, own)) in by_name {
        eprintln!("perfbench: {name:<30} {n:>9} {total:>10.4} {own:>10.4}");
    }
    Ok(())
}

/// Server and router configuration as recorded in the provenance.
fn stack_config(wl: Workload, nproc: usize) -> String {
    let s = wl.server_config(nproc);
    let r = wl.router_config(String::new());
    format!(
        "\"server\": {{\"runners\": {}, \"queue_cap\": {}, \"cache_cap\": {}, \"default_threads\": {}, \
         \"default_store\": {}, \"retain_terminal\": {}, \"journal\": {}, \"principals\": {}}}, \
         \"router\": {{\"backends\": 1, \"probe\": {}, \"replicas\": {}, \"principals\": {}}}",
        s.runners,
        s.queue_cap,
        s.cache_cap,
        s.default_threads,
        json_str(s.default_store.label()),
        s.retain_terminal,
        s.journal.is_some(),
        s.principals.is_some(),
        r.probe.is_some(),
        r.replicas,
        r.principals.is_some()
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, nproc: usize, stack: &str, refs: &[Reference]) -> String {
    let wl = args.workload;
    let cells: Vec<String> = wl.cells().iter().map(|c| json_str(&c.label())).collect();
    let stores: Vec<String> = wl.stores().iter().map(|s| json_str(s)).collect();
    format!(
        "{{\"bench\": \"kplex-perfbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"rev\": {}, \"registry_rev\": {}, \"clients\": {}, \
         \"job_threads\": {}, \"cells\": [{}], \"stores\": [{}], \"references\": \"{:016x}\", {stack}}}",
        json_str(wl.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model()),
        json_str(&args.rev),
        kplex_datasets::REGISTRY_REV,
        wl.clients(nproc),
        wl.job_threads(nproc),
        cells.join(", "),
        stores.join(", "),
        jobs::references_tag(refs),
    )
}

/// Appends this run to `results.ndjson` in the work directory, warning when
/// earlier records there came from a host with another core count or CPU:
/// such results must not be compared as if they were alike.
fn record(work_dir: &Path, nproc: usize, provenance: &str, result: &str) {
    let path = work_dir.join("results.ndjson");
    let cpu = json_str(&cpu_model());
    if let Ok(old) = std::fs::read_to_string(&path) {
        let host = format!("\"nproc\": {nproc}, \"cpu\": {cpu}");
        if let Some(other) = old.lines().find(|l| !l.contains(&host)) {
            eprintln!(
                "perfbench: WARNING: {} holds results from another host \
                 (nproc/cpu differ); do not compare them with this run: {}",
                path.display(),
                other.chars().take(160).collect::<String>()
            );
        }
    }
    let line = format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot record to {}: {e}", path.display());
    }
}
