//! CLI subcommands.

use crate::args::Args;
use kplex_core::{Algorithm, CountSink, FnSink, Params, SinkFlow};
use kplex_datasets::all_datasets;
use kplex_graph::{io, CsrGraph, GraphStats};
use kplex_parallel::{par_enumerate_count, EngineOptions};
use kplex_service::{Client, SubmitArgs};
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "\
kplex — enumeration of large maximal k-plexes (EDBT 2025 reproduction)

USAGE:
  kplex enumerate --k K --q Q (--input FILE | --dataset NAME)
                  [--algo ALGO] [--threads N] [--timeout-us U]
                  [--count-only] [--limit N]
  kplex maximum   --k K [--q-floor Q] (--input FILE | --dataset NAME)
  kplex verify    --k K --q Q --results FILE (--input FILE | --dataset NAME)
  kplex stats     (--input FILE | --dataset NAME)
  kplex generate  --dataset NAME --output FILE
  kplex convert   (--input FILE | --dataset NAME) --output FILE.kpx
  kplex submit    --addr HOST:PORT --k K --q Q
                  (--dataset NAME | --input FILE) [--threads N] [--algo ALGO]
                  [--store KIND] [--limit N] [--timeout-ms N]
                  [--throttle-us N] [--tau-us N] [--count-only]
                  [--token TOKEN]
  kplex auth      check --addr HOST:PORT --token TOKEN
  kplex datasets
  kplex help

OPTIONS:
  --k K            plex slack (every member may miss up to k links)
  --q Q            minimum plex size (requires q >= 2k-1)
  --input FILE     graph file (see --format)
  --format FMT     edges (default) | dimacs | metis
  --dataset NAME   one of the built-in Table 2 stand-ins (see `kplex datasets`)
  --algo ALGO      ours | ours_p | ours-ub | ours-ub+fp | basic | basic+r1 |
                   basic+r2 | listplex | fp          (default: ours)
  --threads N      parallel engine with N workers    (default: sequential)
  --timeout-us U   straggler timeout in microseconds (default: 100)
  --store KIND     graph storage backend: csr (in-RAM, fastest), compressed
                   (varint rows, ~half the bytes) or mmap (out-of-core .kpx
                   file; graphs larger than RAM)     (default: csr)
  --count-only     print only the number of k-plexes
  --limit N        stop after N results

`convert` writes a graph into the chunked `.kpx` on-disk format that the
mmap store serves without loading the graph into RAM; `submit` sends a job
to a running `kplexd` server or `kplexr` router and streams its results
(see crates/service/PROTOCOL.md).

Against a server started with `--principals FILE` (multi-tenancy: a
passwd-style file of token:name:weight:max-queued:max-running:flags lines,
see PROTOCOL.md \"Authentication & quotas\") `submit` needs --token TOKEN,
and `auth check` verifies a token and prints its principal without
submitting anything.

EXIT CODES: 0 success, 1 runtime failure, 2 usage error (bad arguments).
";

/// A dispatch failure, split by exit code: bad arguments (2) vs failures of
/// a well-formed invocation (1).
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// The invocation itself is wrong (unknown flag/command, bad value).
    Usage(String),
    /// The invocation was valid but the work failed (I/O, server error, …).
    Runtime(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }

    /// The message to print on stderr.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }
}

// Bare-string errors from helpers default to runtime failures; argument
// parsing wraps explicitly with `usage`.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn usage(e: impl std::fmt::Display) -> CliError {
    CliError::Usage(e.to_string())
}

/// Entry point shared with the binary's `main`.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv);
    let cmd = args
        .positional()
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    match cmd {
        "enumerate" => cmd_enumerate(&args),
        "maximum" => cmd_maximum(&args),
        "verify" => cmd_verify(&args),
        "stats" => cmd_stats(&args),
        "generate" => cmd_generate(&args),
        "convert" => cmd_convert(&args),
        "submit" => cmd_submit(&args),
        "auth" => cmd_auth(&args),
        "datasets" => cmd_datasets(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(usage(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn load_graph(args: &Args) -> Result<(CsrGraph, String), CliError> {
    let format = args.get("format").unwrap_or("edges").to_string();
    match (args.get("input"), args.get("dataset")) {
        (Some(path), None) => {
            let g = match format.as_str() {
                "edges" => {
                    io::read_edge_list(path)
                        .map_err(|e| CliError::Runtime(e.to_string()))?
                        .0
                }
                "dimacs" => {
                    let f =
                        std::fs::File::open(path).map_err(|e| CliError::Runtime(e.to_string()))?;
                    kplex_graph::io_formats::parse_dimacs(f)
                        .map_err(|e| CliError::Runtime(e.to_string()))?
                }
                "metis" => {
                    let f =
                        std::fs::File::open(path).map_err(|e| CliError::Runtime(e.to_string()))?;
                    kplex_graph::io_formats::parse_metis(f)
                        .map_err(|e| CliError::Runtime(e.to_string()))?
                }
                other => {
                    return Err(usage(format!(
                        "unknown --format {other:?} (edges|dimacs|metis)"
                    )))
                }
            };
            Ok((g, path.to_string()))
        }
        (None, Some(name)) => {
            let ds = kplex_datasets::by_name(name)
                .ok_or_else(|| usage(format!("unknown dataset {name:?} (try `kplex datasets`)")))?;
            Ok((ds.load(), name.to_string()))
        }
        _ => Err(usage(
            "provide exactly one of --input FILE or --dataset NAME",
        )),
    }
}

fn cmd_enumerate(args: &Args) -> Result<(), CliError> {
    let k: usize = args.require("k").map_err(usage)?;
    let q: usize = args.require("q").map_err(usage)?;
    let params = Params::new(k, q).map_err(usage)?;
    let algo_name = args.get("algo").unwrap_or("ours").to_string();
    let algo = Algorithm::parse(&algo_name)
        .ok_or_else(|| usage(format!("unknown algorithm {algo_name:?}")))?;
    let threads: usize = args.get_parse("threads", 0).map_err(usage)?;
    let timeout_us: u64 = args.get_parse("timeout-us", 100).map_err(usage)?;
    let count_only = args.flag("count-only");
    let limit: u64 = args.get_parse("limit", u64::MAX).map_err(usage)?;
    let (g, source) = load_graph(args)?;
    args.reject_unknown().map_err(usage)?;

    eprintln!(
        "# {source}: n={} m={} | algo={} k={k} q={q}{}",
        g.num_vertices(),
        g.num_edges(),
        algo.name(),
        if threads > 0 {
            format!(" threads={threads}")
        } else {
            String::new()
        }
    );
    let start = Instant::now();
    if threads > 0 {
        if !count_only {
            return Err(usage(
                "parallel mode currently supports --count-only output",
            ));
        }
        let opts = EngineOptions {
            timeout: (timeout_us > 0).then(|| std::time::Duration::from_micros(timeout_us)),
            ..EngineOptions::with_threads(threads)
        }
        .for_algorithm(algo);
        let (count, stats) = par_enumerate_count(&g, params, &algo.config(), &opts);
        println!("{count}");
        eprintln!(
            "# {} in {:.3}s | {stats}",
            count,
            start.elapsed().as_secs_f64()
        );
        return Ok(());
    }
    if count_only {
        let mut sink = CountSink::default();
        let stats = algo.run(&g, params, &mut sink);
        println!("{}", sink.count);
        eprintln!(
            "# {} maximal {k}-plexes (q={q}) in {:.3}s | {stats}",
            sink.count,
            start.elapsed().as_secs_f64()
        );
    } else {
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        let mut printed = 0u64;
        let mut failed = false;
        {
            let mut sink = FnSink(|vs: &[u32]| {
                let line = vs
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                if writeln!(out, "{line}").is_err() {
                    failed = true;
                    return SinkFlow::Stop;
                }
                printed += 1;
                if printed >= limit {
                    SinkFlow::Stop
                } else {
                    SinkFlow::Continue
                }
            });
            let stats = algo.run(&g, params, &mut sink);
            eprintln!(
                "# {} maximal {k}-plexes (q={q}) in {:.3}s | {stats}",
                stats.outputs,
                start.elapsed().as_secs_f64()
            );
        }
        out.flush().map_err(|e| CliError::Runtime(e.to_string()))?;
        if failed {
            return Err(CliError::Runtime("failed writing results to stdout".into()));
        }
    }
    Ok(())
}

fn cmd_maximum(args: &Args) -> Result<(), CliError> {
    let k: usize = args.require("k").map_err(usage)?;
    let q_floor: usize = args.get_parse("q-floor", 2 * k.max(1) - 1).map_err(usage)?;
    let (g, source) = load_graph(args)?;
    args.reject_unknown().map_err(usage)?;
    let start = Instant::now();
    let result = kplex_core::maximum_kplex(&g, k, q_floor, &kplex_core::AlgoConfig::ours());
    match &result.plex {
        Some(p) => {
            let line = p
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            println!("{line}");
            eprintln!(
                "# maximum {k}-plex of {source} has {} vertices (floor q={q_floor}) in {:.3}s | {}",
                p.len(),
                start.elapsed().as_secs_f64(),
                result.stats
            );
        }
        None => {
            eprintln!(
                "# no {k}-plex with >= {q_floor} vertices in {source} ({:.3}s)",
                start.elapsed().as_secs_f64()
            );
        }
    }
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), CliError> {
    let k: usize = args.require("k").map_err(usage)?;
    let q: usize = args.require("q").map_err(usage)?;
    let results_path: String = args.require("results").map_err(usage)?;
    let (g, source) = load_graph(args)?;
    args.reject_unknown().map_err(usage)?;
    // One plex per line, whitespace-separated vertex ids.
    let text =
        std::fs::read_to_string(&results_path).map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut results: Vec<Vec<u32>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut set = Vec::new();
        for tok in line.split_whitespace() {
            let v: u32 = tok.parse().map_err(|e| {
                CliError::Runtime(format!("{results_path}:{}: bad vertex id: {e}", lineno + 1))
            })?;
            set.push(v);
        }
        results.push(set);
    }
    let violations = if g.num_vertices() <= 200 {
        kplex_core::verify_complete(&g, k, q, &results)
    } else {
        kplex_core::verify_results(&g, k, q, &results)
    };
    if violations.is_empty() {
        println!(
            "OK: {} result(s) verified against {source} (k={k}, q={q})",
            results.len()
        );
        Ok(())
    } else {
        for v in violations.iter().take(20) {
            eprintln!("violation: {v}");
        }
        Err(CliError::Runtime(format!(
            "{} violation(s) found",
            violations.len()
        )))
    }
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let (g, source) = load_graph(args)?;
    args.reject_unknown().map_err(usage)?;
    let s = GraphStats::compute(&g);
    println!("{source}: {s}");
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    let name = args
        .get("dataset")
        .ok_or_else(|| usage("generate requires --dataset NAME"))?
        .to_string();
    let output = args
        .get("output")
        .ok_or_else(|| usage("generate requires --output FILE"))?
        .to_string();
    args.reject_unknown().map_err(usage)?;
    let ds =
        kplex_datasets::by_name(&name).ok_or_else(|| usage(format!("unknown dataset {name:?}")))?;
    let g = ds.load();
    let f = std::fs::File::create(&output).map_err(|e| CliError::Runtime(e.to_string()))?;
    io::write_edge_list(&g, f).map_err(|e| CliError::Runtime(e.to_string()))?;
    eprintln!(
        "# wrote {} ({} vertices, {} edges)",
        output,
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

/// Converts a graph into the chunked `.kpx` on-disk format served by the
/// mmap store (`--store mmap`): written atomically, verified by re-opening.
fn cmd_convert(args: &Args) -> Result<(), CliError> {
    let output = args
        .get("output")
        .ok_or_else(|| usage("convert requires --output FILE.kpx"))?
        .to_string();
    let (g, source) = load_graph(args)?;
    args.reject_unknown().map_err(usage)?;
    kplex_graph::write_kpx(&g, &output).map_err(|e| CliError::Runtime(e.to_string()))?;
    // Re-open what we just wrote: a truncated or unmappable file should fail
    // here, at convert time, not later when a server tries to serve it.
    let store = kplex_graph::StoreBackend::open_mmap(&output)
        .map_err(|e| CliError::Runtime(format!("verifying {output}: {e}")))?;
    use kplex_graph::GraphStore;
    let bytes = std::fs::metadata(&output)
        .map(|m| m.len())
        .unwrap_or_default();
    eprintln!(
        "# {source} -> {output} ({} vertices, {} edges, {bytes} bytes on disk)",
        store.num_vertices(),
        store.num_edges(),
    );
    Ok(())
}

/// Submits a job to a running kplexd and streams its results to stdout.
fn cmd_submit(args: &Args) -> Result<(), CliError> {
    let addr: String = args.require("addr").map_err(usage)?;
    let k: usize = args.require("k").map_err(usage)?;
    let q: usize = args.require("q").map_err(usage)?;
    Params::new(k, q).map_err(usage)?;
    let mut submit = SubmitArgs {
        k,
        q,
        ..SubmitArgs::default()
    };
    match (args.get("dataset"), args.get("input")) {
        (Some(name), None) => submit.dataset = Some(name.to_string()),
        (None, Some(path)) => submit.path = Some(path.to_string()),
        _ => {
            return Err(usage(
                "provide exactly one of --dataset NAME or --input FILE",
            ))
        }
    }
    // The wire format is whitespace-delimited key=value tokens, so a value
    // with spaces would be malformed at best and inject extra protocol
    // keys at worst. Reject it here as a clean usage error.
    for value in [&submit.dataset, &submit.path].into_iter().flatten() {
        if value.chars().any(char::is_whitespace) {
            return Err(usage(format!(
                "{value:?} contains whitespace, which the wire protocol cannot carry"
            )));
        }
    }
    let threads: usize = args.get_parse("threads", 0).map_err(usage)?;
    if threads > 0 {
        submit.threads = Some(threads);
    }
    if let Some(algo) = args.get("algo") {
        submit.algo = Some(algo.to_string());
    }
    if let Some(store) = args.get("store") {
        // Validate locally so a typo is a usage error, not a server reject.
        kplex_graph::StoreKind::parse(store).ok_or_else(|| {
            usage(format!(
                "invalid --store {store:?} (csr, compressed or mmap)"
            ))
        })?;
        submit.store = Some(store.to_string());
    }
    let limit: u64 = args.get_parse("limit", 0).map_err(usage)?;
    if limit > 0 {
        submit.limit = Some(limit);
    }
    let timeout_ms: u64 = args.get_parse("timeout-ms", 0).map_err(usage)?;
    if timeout_ms > 0 {
        submit.timeout_ms = Some(timeout_ms);
    }
    let throttle_us: u64 = args.get_parse("throttle-us", 0).map_err(usage)?;
    if throttle_us > 0 {
        submit.throttle_us = Some(throttle_us);
    }
    let tau_us: u64 = args.get_parse("tau-us", 0).map_err(usage)?;
    if tau_us > 0 {
        submit.tau_us = Some(tau_us);
    }
    let count_only = args.flag("count-only");
    let token = args.get("token").map(str::to_string);
    args.reject_unknown().map_err(usage)?;

    let rt = |e: kplex_service::ClientError| CliError::Runtime(e.to_string());
    let mut client = Client::connect(addr.as_str()).map_err(rt)?;
    if let Some(token) = &token {
        // Tenancy-enabled servers require AUTH before SUBMIT; the reply
        // names the principal, never the token.
        let who = client.auth(token).map_err(rt)?;
        eprintln!(
            "# authenticated as {}",
            who.get("principal").map(String::as_str).unwrap_or("?")
        );
    }
    let id = client.submit(&submit).map_err(rt)?;
    eprintln!("# submitted job {id} to {addr}");
    let start = Instant::now();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut streamed = 0u64;
    let mut write_failed = false;
    let end = client
        .stream(id, |_seq, plex| {
            streamed += 1;
            if !count_only && !write_failed {
                let line = plex
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                write_failed = writeln!(out, "{line}").is_err();
            }
        })
        .map_err(rt)?;
    out.flush().map_err(|e| CliError::Runtime(e.to_string()))?;
    if write_failed {
        return Err(CliError::Runtime("failed writing results to stdout".into()));
    }
    if count_only {
        println!("{streamed}");
    }
    let state = end.get("state").map(String::as_str).unwrap_or("?");
    eprintln!(
        "# job {id} {state}: {streamed} plexes in {:.3}s",
        start.elapsed().as_secs_f64()
    );
    match state {
        "done" => Ok(()),
        other => Err(CliError::Runtime(format!("job {id} ended {other}"))),
    }
}

/// `kplex auth check --addr … --token …`: authenticates one connection and
/// prints the principal the server resolves the token to — an operator's
/// credential sanity check that never submits work.
fn cmd_auth(args: &Args) -> Result<(), CliError> {
    match args.positional().get(1).map(String::as_str) {
        Some("check") => {}
        other => return Err(usage(format!("unknown auth subcommand {other:?} (check)"))),
    }
    let addr: String = args.require("addr").map_err(usage)?;
    let token: String = args.require("token").map_err(usage)?;
    args.reject_unknown().map_err(usage)?;
    let rt = |e: kplex_service::ClientError| CliError::Runtime(e.to_string());
    let mut client = Client::connect(addr.as_str()).map_err(rt)?;
    let who = client.auth(&token).map_err(rt)?;
    println!(
        "principal={} weight={} admin={}",
        who.get("principal").map(String::as_str).unwrap_or("?"),
        who.get("weight").map(String::as_str).unwrap_or("?"),
        who.get("admin").map(String::as_str).unwrap_or("?"),
    );
    Ok(())
}

fn cmd_datasets(args: &Args) -> Result<(), CliError> {
    args.reject_unknown().map_err(usage)?;
    println!(
        "{:<14} {:<7} {:>22} {:>14}  family",
        "name", "class", "paper (n, m)", "stand-in n"
    );
    for d in all_datasets() {
        let g = d.load();
        println!(
            "{:<14} {:<7} {:>10} {:>11} {:>14}  {}",
            d.name,
            format!("{:?}", d.class),
            d.paper.n,
            d.paper.m,
            g.num_vertices(),
            d.family
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<(), CliError> {
        dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn is_usage(r: Result<(), CliError>) -> bool {
        matches!(r, Err(CliError::Usage(_)))
    }

    #[test]
    fn help_succeeds() {
        run(&["help"]).unwrap();
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert!(is_usage(run(&["frobnicate"])));
    }

    #[test]
    fn enumerate_requires_k_and_q() {
        assert!(is_usage(run(&["enumerate", "--dataset", "jazz"])));
    }

    #[test]
    fn enumerate_rejects_bad_params() {
        assert!(is_usage(run(&[
            "enumerate",
            "--dataset",
            "jazz",
            "--k",
            "3",
            "--q",
            "2"
        ])));
        assert!(is_usage(run(&[
            "enumerate",
            "--dataset",
            "nope",
            "--k",
            "2",
            "--q",
            "4"
        ])));
        assert!(is_usage(run(&[
            "enumerate",
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "4",
            "--algo",
            "bogus"
        ])));
    }

    #[test]
    fn exit_codes_distinguish_usage_from_runtime() {
        // Usage error: malformed invocation → exit code 2.
        let e = run(&["enumerate", "--dataset", "jazz"]).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        // Runtime error: well-formed invocation, missing file → exit code 1.
        let e = run(&[
            "enumerate",
            "--k",
            "2",
            "--q",
            "4",
            "--input",
            "/no/such/file.txt",
        ])
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);
        // Submitting to a server that is not there is a runtime failure too.
        let e = run(&[
            "submit",
            "--addr",
            "127.0.0.1:1",
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "9",
        ])
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn submit_validates_arguments_before_connecting() {
        // No --addr, no source, bad params: all usage errors (exit 2),
        // detected without any server running.
        assert!(is_usage(run(&[
            "submit",
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "9"
        ])));
        assert!(is_usage(run(&[
            "submit", "--addr", "x:1", "--k", "2", "--q", "9"
        ])));
        assert!(is_usage(run(&[
            "submit",
            "--addr",
            "x:1",
            "--dataset",
            "jazz",
            "--k",
            "3",
            "--q",
            "2"
        ])));
    }

    #[test]
    fn submit_streams_from_a_live_server() {
        // End-to-end over loopback: in-process server, submit with
        // --threads, count-only output.
        let handle = kplex_service::Server::bind(&kplex_service::ServerConfig {
            addr: "127.0.0.1:0".into(),
            runners: 1,
            queue_cap: 4,
            cache_cap: 2,
            default_threads: 1,
            ..kplex_service::ServerConfig::default()
        })
        .expect("bind")
        .spawn()
        .expect("spawn");
        let addr = handle.addr().to_string();
        run(&[
            "submit",
            "--addr",
            &addr,
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "9",
            "--threads",
            "2",
            "--count-only",
        ])
        .expect("submit against live server");
        handle.shutdown();
    }

    #[test]
    fn submit_streams_through_a_router() {
        // Full path: kplexd backend behind a kplexr router, submitted to via
        // the CLI — all on ephemeral ports.
        let backend = kplex_service::Server::bind(&kplex_service::ServerConfig {
            addr: "127.0.0.1:0".into(),
            runners: 1,
            queue_cap: 4,
            cache_cap: 2,
            default_threads: 1,
            ..kplex_service::ServerConfig::default()
        })
        .expect("bind backend")
        .spawn()
        .expect("spawn backend");
        let router = kplex_service::Router::bind(&kplex_service::RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![backend.addr().to_string()],
            ..kplex_service::RouterConfig::default()
        })
        .expect("bind router")
        .spawn()
        .expect("spawn router");
        let addr = router.addr().to_string();
        run(&[
            "submit",
            "--addr",
            &addr,
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "9",
            "--tau-us",
            "50",
            "--count-only",
        ])
        .expect("submit through router");
        router.shutdown();
        backend.shutdown();
    }

    #[test]
    fn enumerate_counts_on_dataset() {
        run(&[
            "enumerate",
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "9",
            "--count-only",
        ])
        .unwrap();
    }

    #[test]
    fn maximum_works_on_dataset() {
        run(&["maximum", "--dataset", "jazz", "--k", "2"]).unwrap();
        assert!(run(&["maximum", "--dataset", "jazz"]).is_err());
    }

    #[test]
    fn verify_accepts_engine_output_and_rejects_junk() {
        let dir = std::env::temp_dir().join(format!("kplex-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Produce results for a tiny synthetic file.
        let graph_path = dir.join("g.txt");
        std::fs::write(&graph_path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n").unwrap();
        let results_path = dir.join("res.txt");
        std::fs::write(&results_path, "0 1 2 3\n").unwrap();
        run(&[
            "verify",
            "--k",
            "2",
            "--q",
            "4",
            "--input",
            graph_path.to_str().unwrap(),
            "--results",
            results_path.to_str().unwrap(),
        ])
        .unwrap();
        // A non-maximal claim must fail.
        std::fs::write(&results_path, "0 1 2\n").unwrap();
        assert!(run(&[
            "verify",
            "--k",
            "2",
            "--q",
            "3",
            "--input",
            graph_path.to_str().unwrap(),
            "--results",
            results_path.to_str().unwrap(),
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_works_on_dataset() {
        run(&["stats", "--dataset", "jazz"]).unwrap();
    }

    #[test]
    fn convert_writes_a_servable_kpx() {
        let dir = std::env::temp_dir().join(format!("kplex-cli-cv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("jazz.kpx");
        run(&[
            "convert",
            "--dataset",
            "jazz",
            "--output",
            out.to_str().unwrap(),
        ])
        .unwrap();
        // The written file must open as an mmap store identical to the CSR.
        let store = kplex_graph::StoreBackend::open_mmap(&out).expect("open converted file");
        let g = kplex_datasets::by_name("jazz").unwrap().load();
        use kplex_graph::GraphStore;
        assert_eq!(store.num_vertices(), g.num_vertices());
        assert_eq!(store.num_edges(), g.num_edges());
        // Missing --output is a usage error; an unwritable path is runtime.
        assert!(is_usage(run(&["convert", "--dataset", "jazz"])));
        assert_eq!(
            run(&[
                "convert",
                "--dataset",
                "jazz",
                "--output",
                "/no/such/dir/x.kpx"
            ])
            .unwrap_err()
            .exit_code(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_rejects_bad_store_locally() {
        // Never touches the network: --store is validated before connecting.
        assert!(is_usage(run(&[
            "submit",
            "--addr",
            "x:1",
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "9",
            "--store",
            "ramdisk"
        ])));
    }

    #[test]
    fn submit_streams_with_compressed_store() {
        let handle = kplex_service::Server::bind(&kplex_service::ServerConfig {
            addr: "127.0.0.1:0".into(),
            runners: 1,
            queue_cap: 4,
            cache_cap: 2,
            default_threads: 1,
            ..kplex_service::ServerConfig::default()
        })
        .expect("bind")
        .spawn()
        .expect("spawn");
        let addr = handle.addr().to_string();
        run(&[
            "submit",
            "--addr",
            &addr,
            "--dataset",
            "jazz",
            "--k",
            "2",
            "--q",
            "9",
            "--store",
            "compressed",
            "--count-only",
        ])
        .expect("submit with --store compressed");
        handle.shutdown();
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(run(&["stats", "--dataset", "jazz", "--wat", "1"]).is_err());
    }
}
