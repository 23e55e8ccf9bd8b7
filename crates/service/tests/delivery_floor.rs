//! The journaled delivery floor never runs ahead of the socket: every
//! result a `DELIVERED` record counts has already been flushed to the
//! client when the record is appended. A floor that counted lines still
//! sitting in the server's write buffer would make a server restarted after
//! a crash skip results that no client received.
//!
//! The `delivered_hook` seam holds each append open while the test checks
//! that the client, reading on its own thread, can already read every line
//! the floor counts. The listener binds port 0.

use kplex_service::{Client, DeliveredHook, Server, ServerConfig, SubmitArgs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long an append waits for the client to read the lines it counts.
/// Flushed lines arrive over loopback in microseconds; lines left in the
/// server's buffer never arrive while the append is held.
const REACH: Duration = Duration::from_secs(3);

#[test]
fn journaled_floor_counts_only_lines_flushed_to_the_client() {
    let journal =
        std::env::temp_dir().join(format!("kplex-delivery-floor-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    // Lines the client has read so far, and whether an append ever gave up
    // waiting for them (later appends then skip the wait).
    let received = Arc::new(AtomicU64::new(0));
    let stalled = Arc::new(AtomicBool::new(false));
    let (floors_tx, floors_rx) = mpsc::channel::<(u64, u64)>();
    let hook = {
        let (received, stalled) = (received.clone(), stalled.clone());
        DeliveredHook::new(move |_id, floor| {
            let t0 = Instant::now();
            while received.load(Ordering::Acquire) < floor && !stalled.load(Ordering::Acquire) {
                if t0.elapsed() > REACH {
                    stalled.store(true, Ordering::Release);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = floors_tx.send((floor, received.load(Ordering::Acquire)));
        })
    };
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        runners: 1,
        queue_cap: 4,
        cache_cap: 2,
        journal: Some(journal.clone()),
        delivery_batch: 8,
        delivered_hook: Some(hook),
        ..ServerConfig::default()
    })
    .expect("bind server")
    .spawn()
    .expect("spawn server");

    // A finished job, so the stream writes its whole backlog in one burst:
    // many batch boundaries fall between two flushes of the server's buffer.
    let mut c = Client::connect(server.addr()).expect("connect");
    let mut args = SubmitArgs::dataset("jazz", 2, 9);
    args.threads = Some(1);
    let id = c.submit(&args).expect("submit");
    let t0 = Instant::now();
    while c
        .status(id)
        .expect("status")
        .get("state")
        .map(String::as_str)
        != Some("done")
    {
        assert!(t0.elapsed() < Duration::from_secs(60), "job never finished");
        std::thread::sleep(Duration::from_millis(5));
    }

    let reader = {
        let (addr, received) = (server.addr().to_string(), received.clone());
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect reader");
            c.stream(id, |seq, _| received.store(seq + 1, Ordering::Release))
                .expect("stream")
        })
    };
    let end = reader.join().expect("reader panicked");
    let total: u64 = end
        .get("results")
        .expect("END results")
        .parse()
        .expect("count");
    assert!(total > 64, "need many batches, got {total} results");

    let floors: Vec<(u64, u64)> = floors_rx.try_iter().collect();
    assert!(!floors.is_empty(), "no DELIVERED record was appended");
    for (floor, read) in floors {
        assert!(
            read >= floor,
            "journaled floor {floor} while the client could read only {read} lines"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
}
