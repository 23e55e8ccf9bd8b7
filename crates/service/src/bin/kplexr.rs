//! `kplexr` — the k-plex shard router.
//!
//! ```text
//! kplexr [--addr HOST:PORT] --backend HOST:PORT [--backend HOST:PORT ...]
//!        [--probe-ms N] [--probe-timeout-ms N] [--probe-fails N] [--probe-rises N]
//!        [--replicas N] [--principals FILE]
//! kplexr help
//! ```

use kplex_service::{ProbeConfig, Router, RouterConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
kplexr — shard router for kplexd backends (see crates/service/PROTOCOL.md)

USAGE:
  kplexr [OPTIONS]        run the router (Ctrl-C to stop)
  kplexr help

OPTIONS:
  --addr HOST:PORT      listen address                (default 127.0.0.1:7710)
  --backend HOST:PORT   a kplexd backend (repeatable; ADDNODE/DROPNODE at runtime)
  --probe-ms N          health-probe interval in ms; 0 disables (default 1000)
  --probe-timeout-ms N  per-probe connect+reply budget (default 500)
  --probe-fails N       consecutive failures before a backend is marked dead
                        (default 3)
  --probe-rises N       consecutive successes before a dead backend rejoins
                        (default 2)
  --replicas N          copies of each job placed across distinct backends
                        (rendezvous top-N per key); the extras stand by for
                        mid-stream promotion when the primary dies, which
                        alone serves STATUS/STREAM (default 1 = off)
  --principals FILE     enable edge tenancy: the same passwd-style principal
                        file the backends run with. Clients AUTH to the
                        router, over-quota submits are rejected at the edge,
                        proxied jobs are tagged with their principal, and
                        LIST/STATUS/STREAM/CANCEL are tenant-scoped. The
                        file must contain an admin principal — the router
                        authenticates its backend connections with it.
";

fn parse_config(args: &[String]) -> Result<RouterConfig, String> {
    let mut cfg = RouterConfig::default();
    let mut probe = ProbeConfig::default();
    let mut probe_ms: u64 = probe.interval.as_millis() as u64;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} requires a value", args[i]))
        };
        let parse_u64 = |i: usize| -> Result<u64, String> {
            value(i)?
                .parse()
                .map_err(|_| format!("invalid value for {}", args[i]))
        };
        match args[i].as_str() {
            "--addr" => cfg.addr = value(i)?.clone(),
            "--backend" => cfg.backends.push(value(i)?.clone()),
            "--probe-ms" => probe_ms = parse_u64(i)?,
            "--probe-timeout-ms" => probe.timeout = Duration::from_millis(parse_u64(i)?.max(1)),
            "--probe-fails" => probe.fall = parse_u64(i)?.max(1) as u32,
            "--probe-rises" => probe.rise = parse_u64(i)?.max(1) as u32,
            "--replicas" => cfg.replicas = parse_u64(i)?.max(1) as usize,
            "--principals" => {
                let path = std::path::PathBuf::from(value(i)?);
                cfg.principals = Some(
                    kplex_service::PrincipalStore::load(&path)
                        .map_err(|e| format!("--principals: {e}"))?,
                );
            }
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 2;
    }
    if cfg.backends.is_empty() {
        return Err(format!("at least one --backend is required\n\n{USAGE}"));
    }
    if probe_ms > 0 {
        probe.interval = Duration::from_millis(probe_ms);
        cfg.probe = Some(probe);
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("help" | "--help" | "-h")
    ) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cfg = match parse_config(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let router = match Router::bind(&cfg) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = router.local_addr().expect("bound listener has an address");
    eprintln!(
        "kplexr listening on {addr}, routing over {} backend(s): {} (probe {})",
        cfg.backends.len(),
        cfg.backends.join(", "),
        cfg.probe.as_ref().map_or("off".to_string(), |p| format!(
            "every {}ms",
            p.interval.as_millis()
        ))
    );
    match router.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RouterConfig, String> {
        parse_config(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn at_least_one_backend_is_required() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--addr", "127.0.0.1:0"]).is_err());
    }

    #[test]
    fn repeated_backends_collect_in_order() {
        let cfg = parse(&["--backend", "h1:1", "--backend", "h2:2"]).unwrap();
        assert_eq!(cfg.backends, ["h1:1", "h2:2"]);
        assert!(cfg.probe.is_some(), "probing is on by default");
    }

    #[test]
    fn probe_ms_zero_disables_probing() {
        let cfg = parse(&["--backend", "h1:1", "--probe-ms", "0"]).unwrap();
        assert!(cfg.probe.is_none());
    }
}
