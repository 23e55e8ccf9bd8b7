//! Resumable-stream integration tests against a single `kplexd` backend:
//! a stream cut at an arbitrary point and resumed with `STREAM … FROM`
//! equals the uninterrupted stream (each seq exactly once, property-based
//! over the cut point), `FROM` at or beyond the end is answered explicitly
//! rather than hanging, and a restart with `--journal` replays the job with
//! its delivered-offset floor so consumed results are never re-delivered.
//! All listeners bind port 0.

use kplex_service::{Client, Server, ServerConfig, ServerHandle, SubmitArgs};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A completed, deterministic job on a long-lived backend, streamed once in
/// full. Shared by the cut/resume property (many cases, one enumeration)
/// and the beyond-the-end test.
struct Fixture {
    addr: String,
    id: u64,
    full: Vec<(u64, Vec<u32>)>,
    _server: ServerHandle,
}

fn fixture() -> &'static Fixture {
    static SETUP: OnceLock<Fixture> = OnceLock::new();
    SETUP.get_or_init(|| {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            runners: 1,
            queue_cap: 4,
            cache_cap: 2,
            ..ServerConfig::default()
        })
        .expect("bind server")
        .spawn()
        .expect("spawn server");
        let mut c = Client::connect(server.addr()).expect("connect");
        // threads = 1 pins the result order, so every re-read of the
        // buffered stream yields the same (seq, plex) pairs.
        let mut args = SubmitArgs::dataset("jazz", 2, 8);
        args.threads = Some(1);
        let id = c.submit(&args).expect("submit");
        let mut full = Vec::new();
        let end = c
            .stream(id, |seq, plex| full.push((seq, plex.to_vec())))
            .expect("stream fixture job");
        assert_eq!(end.get("state").map(String::as_str), Some("done"));
        assert!(!full.is_empty(), "fixture job must produce results");
        Fixture {
            addr: server.addr().to_string(),
            id,
            full,
            _server: server,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The resume identity: for any cut point `p`, consuming `p` results
    /// from `STREAM … FROM 0`, abandoning the connection (the crash model —
    /// the `p`-th result may already be in flight, but the client has not
    /// consumed it), and re-streaming `FROM p` on a fresh connection yields
    /// exactly the uninterrupted stream — every seq once, nothing skipped,
    /// nothing re-delivered.
    #[test]
    fn cut_and_resume_equals_uninterrupted(cut in any::<u64>()) {
        let fx = fixture();
        let total = fx.full.len() as u64;
        let p = cut % (total + 1); // 0 ..= total inclusive

        let mut prefix = Vec::new();
        let mut c = Client::connect(&fx.addr).expect("connect");
        let _ = c
            .stream_while_from(fx.id, 0, |seq, plex| {
                if prefix.len() as u64 == p {
                    return false; // delivered but never consumed: resume at p
                }
                prefix.push((seq, plex.to_vec()));
                true
            })
            .expect("prefix stream");
        drop(c); // abandon the connection mid-stream

        let mut resumed = prefix.clone();
        let mut c = Client::connect(&fx.addr).expect("reconnect");
        let end = c
            .stream_from(fx.id, p, |seq, plex| resumed.push((seq, plex.to_vec())))
            .expect("resumed stream");
        prop_assert_eq!(end.get("state").map(String::as_str), Some("done"));
        prop_assert_eq!(end.get("results"), Some(&total.to_string()));
        prop_assert!(!end.contains_key("truncated"), "complete resume: {:?}", end);
        prop_assert_eq!(&resumed, &fx.full, "cut at {} broke the identity", p);
    }
}

/// `FROM` at the exact end of a finished job is an empty stream with the
/// job's true count; `FROM` beyond the end answers immediately too, but
/// carries the `truncated=true total=` marker so the client can tell its
/// offset never existed.
#[test]
fn from_at_or_beyond_the_end_is_explicit() {
    let fx = fixture();
    let total = fx.full.len() as u64;
    let mut c = Client::connect(&fx.addr).expect("connect");

    let mut got = 0u64;
    let end = c
        .stream_from(fx.id, total, |_, _| got += 1)
        .expect("stream from the end");
    assert_eq!(got, 0, "nothing left to deliver");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(end.get("results"), Some(&total.to_string()));
    assert!(!end.contains_key("truncated"), "{end:?}");

    let beyond = total + 5;
    let end = c
        .stream_from(fx.id, beyond, |_, _| got += 1)
        .expect("stream from beyond the end");
    assert_eq!(got, 0, "nothing delivered for an offset past the end");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(end.get("results"), Some(&beyond.to_string()));
    assert_eq!(
        end.get("truncated").map(String::as_str),
        Some("true"),
        "an impossible offset must be flagged: {end:?}"
    );
    assert_eq!(end.get("total"), Some(&total.to_string()), "{end:?}");
}

fn journal_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "kplex-stream-resume-{}-{tag}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn start_batched(journal: &Path, delivery_batch: usize) -> ServerHandle {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        runners: 1,
        queue_cap: 4,
        cache_cap: 2,
        journal: Some(journal.to_path_buf()),
        delivery_batch,
        ..ServerConfig::default()
    })
    .expect("bind server")
    .spawn()
    .expect("spawn server")
}

/// The durability acceptance scenario: a journaled backend streams a
/// throttled job to a client that consumes 20 results and walks away; the
/// server is stopped mid-job (crash-equivalent for the journal) and
/// restarted with the same `--journal`. The replayed job re-runs, but a
/// plain `STREAM <id>` (FROM 0) must start at the journaled delivery floor
/// — at least the last full `delivery_batch` boundary the client got past,
/// never back at seq 0 — and run contiguously to a clean `END`.
#[test]
fn restart_does_not_redeliver_below_the_journaled_offset() {
    let journal = journal_path("floor");
    let total = 200u64;

    let first = start_batched(&journal, 8);
    let mut c = Client::connect(first.addr()).expect("connect");
    let mut slow = SubmitArgs::dataset("jazz", 2, 9);
    slow.threads = Some(1);
    slow.throttle_us = Some(5000); // ~1 s of production: outlives the stop
    slow.limit = Some(total);
    let id = c.submit(&slow).expect("submit");

    // Consume exactly 20 results, then abandon the stream and the server.
    let mut consumed = 0u64;
    let end = c
        .stream_while(id, |_, _| {
            consumed += 1;
            consumed < 20
        })
        .expect("partial stream");
    assert!(end.is_none(), "stream was abandoned, not ended");
    assert_eq!(consumed, 20);
    drop(c);
    first.shutdown(); // crash-equivalent: the cancel is not journaled

    // Restart on a fresh port with the same journal: the job replays and
    // re-runs, but delivery resumes at the journaled floor.
    let second = start_batched(&journal, 8);
    let mut c = Client::connect(second.addr()).expect("connect restarted");
    let mut seqs = Vec::new();
    let end = c
        .stream(id, |seq, _| seqs.push(seq))
        .expect("stream after restart");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(end.get("results"), Some(&total.to_string()));
    let floor = *seqs.first().expect("the floor is below the total");
    assert!(
        floor >= 16,
        "20 consumed results cross two 8-batches; delivery restarted at {floor}"
    );
    for (i, seq) in seqs.iter().enumerate() {
        assert_eq!(*seq, floor + i as u64, "gap in post-restart delivery");
    }
    assert_eq!(
        floor + seqs.len() as u64,
        total,
        "post-restart stream must run to the end"
    );

    second.shutdown();
    let _ = std::fs::remove_file(&journal);
}
