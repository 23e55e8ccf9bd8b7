//! `kplexd` — the k-plex enumeration server.
//!
//! ```text
//! kplexd [--addr HOST:PORT] [--runners N] [--queue-cap N] [--cache-cap N]
//!        [--threads N] [--store csr|compressed|mmap] [--journal PATH]
//!        [--delivery-batch N] [--principals FILE]
//! kplexd help
//! ```

use kplex_service::{Server, ServerConfig};
use std::process::ExitCode;

const USAGE: &str = "\
kplexd — k-plex enumeration server (see crates/service/PROTOCOL.md)

USAGE:
  kplexd [OPTIONS]        run the server (Ctrl-C to stop)
  kplexd help

OPTIONS:
  --addr HOST:PORT   listen address           (default 127.0.0.1:7711)
  --runners N        concurrent jobs          (default 2)
  --queue-cap N      bounded job queue size   (default 64)
  --cache-cap N      prepared-graph LRU size  (default 4)
  --threads N        default per-job engine threads
  --store KIND       default graph storage backend when SUBMIT omits store=:
                     csr (in-RAM, fastest), compressed (varint rows, ~half
                     the bytes) or mmap (out-of-core .kpx file; graphs
                     larger than RAM)        (default csr)
  --retain N         terminal jobs kept for STATUS/STREAM replay (default 64)
  --journal PATH     append-only job journal: accepted jobs are fsync'd
                     before the SUBMIT is acknowledged, and a restart with
                     the same path replays queued + interrupted jobs and
                     remembers delivered-stream offsets so a restart does
                     not re-deliver consumed results (see PROTOCOL.md
                     \"Job persistence\")
  --delivery-batch N journal the delivery offset every N streamed results
                     (default 4096; smaller = tighter exactly-once window
                     across crashes, more fsyncs — never one per result)
  --principals FILE  enable multi-tenancy: a passwd-style file of
                     token:name:weight:max-queued:max-running:flags lines
                     (see PROTOCOL.md \"Authentication & quotas\"). Clients
                     must AUTH, per-tenant quotas are enforced, and the
                     runner pool drains tenants by weighted fair share.
                     Omitted = anonymous single-queue behavior, unchanged.
";

fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} requires a value", args[i]))
        };
        match args[i].as_str() {
            "--addr" => cfg.addr = value(i)?.clone(),
            "--runners" => {
                cfg.runners = value(i)?
                    .parse()
                    .map_err(|_| "invalid --runners".to_string())?
            }
            "--queue-cap" => {
                cfg.queue_cap = value(i)?
                    .parse()
                    .map_err(|_| "invalid --queue-cap".to_string())?
            }
            "--cache-cap" => {
                cfg.cache_cap = value(i)?
                    .parse()
                    .map_err(|_| "invalid --cache-cap".to_string())?
            }
            "--threads" => {
                cfg.default_threads = value(i)?
                    .parse()
                    .map_err(|_| "invalid --threads".to_string())?
            }
            "--store" => {
                let v = value(i)?;
                cfg.default_store = kplex_graph::StoreKind::parse(v)
                    .ok_or_else(|| format!("invalid --store {v:?} (csr, compressed or mmap)"))?
            }
            "--retain" => {
                cfg.retain_terminal = value(i)?
                    .parse()
                    .map_err(|_| "invalid --retain".to_string())?
            }
            "--journal" => cfg.journal = Some(std::path::PathBuf::from(value(i)?)),
            "--principals" => {
                let path = std::path::PathBuf::from(value(i)?);
                cfg.principals = Some(
                    kplex_service::PrincipalStore::load(&path)
                        .map_err(|e| format!("--principals: {e}"))?,
                );
            }
            "--delivery-batch" => {
                cfg.delivery_batch = value(i)?
                    .parse()
                    .map_err(|_| "invalid --delivery-batch".to_string())?
            }
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 2;
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
    let server = match Server::bind(&cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    eprintln!(
        "kplexd listening on {addr} ({} runners, queue {}, cache {}, journal {})",
        cfg.runners,
        cfg.queue_cap,
        cfg.cache_cap,
        cfg.journal
            .as_ref()
            .map_or("off".to_string(), |p| p.display().to_string())
    );
    match server.run() {
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

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        parse_config(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_options_are_errors() {
        assert!(parse(&["--store", "ramdisk"]).is_err());
        assert!(parse(&["--runners"]).is_err());
        assert!(parse(&["--queue-cap", "many"]).is_err());
        assert!(parse(&["--principals", "/no/such/principals"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&["smoke"]).is_err());
    }

    #[test]
    fn set_options_reach_the_config() {
        let cfg = parse(&[
            "--addr",
            "127.0.0.1:0",
            "--runners",
            "3",
            "--queue-cap",
            "5",
            "--cache-cap",
            "6",
            "--threads",
            "7",
            "--store",
            "compressed",
            "--retain",
            "8",
            "--journal",
            "jobs.journal",
            "--delivery-batch",
            "9",
        ])
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(
            (
                cfg.runners,
                cfg.queue_cap,
                cfg.cache_cap,
                cfg.default_threads
            ),
            (3, 5, 6, 7)
        );
        assert_eq!(cfg.default_store, kplex_graph::StoreKind::Compressed);
        assert_eq!((cfg.retain_terminal, cfg.delivery_batch), (8, 9));
        assert_eq!(cfg.journal, Some(std::path::PathBuf::from("jobs.journal")));
        // Unset options keep their defaults.
        assert!(parse(&[]).unwrap().journal.is_none());
    }
}
