//! End-to-end tests over real TCP connections: concurrent jobs, mid-stream
//! cancellation, the prepared-graph cache (including per-entry
//! single-flight under a deterministically blocked cold load), deadlines
//! (with and without results), throttling, queue back-pressure, and error
//! paths. Counts are cross-checked against in-process `CountSink` runs.
//!
//! Every server binds port 0 and the tests read the resolved address back,
//! so parallel test runs can never collide on a port.

use kplex_core::{enumerate_count, AlgoConfig, Params};
use kplex_service::{
    Client, ClientError, LoadHook, Server, ServerConfig, ServerHandle, SubmitArgs,
};

fn start_server(runners: usize, queue_cap: usize) -> ServerHandle {
    start_server_with(runners, queue_cap, None)
}

fn start_server_with(runners: usize, queue_cap: usize, hook: Option<LoadHook>) -> ServerHandle {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        runners,
        queue_cap,
        cache_cap: 4,
        default_threads: 2,
        cold_load_hook: hook,
        ..ServerConfig::default()
    };
    Server::bind(&cfg)
        .expect("bind ephemeral")
        .spawn()
        .expect("spawn server")
}

fn ground_truth(dataset: &str, k: usize, q: usize) -> u64 {
    let g = kplex_datasets::by_name(dataset).expect("dataset").load();
    let params = Params::new(k, q).expect("valid params");
    enumerate_count(&g, params, &AlgoConfig::ours()).0
}

/// The acceptance scenario: two clients stream different jobs concurrently;
/// one is cancelled mid-stream without affecting the other; counts match
/// `CountSink`; a warm resubmit is served from the cache.
#[test]
fn concurrent_jobs_cancel_and_warm_cache() {
    let expected_jazz = ground_truth("jazz", 2, 9);
    assert!(expected_jazz > 0, "jazz (2, 9) must have results");
    let total_lastfm = ground_truth("lastfm", 2, 9);
    assert!(
        total_lastfm > 10,
        "lastfm (2, 9) needs enough results to cancel mid-stream"
    );

    let handle = start_server(2, 16);
    let addr = handle.addr();

    // Client A: full streaming job on jazz.
    let full = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect A");
        let mut args = SubmitArgs::dataset("jazz", 2, 9);
        args.threads = Some(2);
        let id = c.submit(&args).expect("submit jazz");
        let mut seqs = Vec::new();
        let mut sizes_ok = true;
        let end = c
            .stream(id, |seq, plex| {
                seqs.push(seq);
                sizes_ok &= plex.len() >= 9;
            })
            .expect("stream jazz");
        assert_eq!(end.get("state").map(String::as_str), Some("done"));
        assert!(sizes_ok, "every streamed plex must have >= q vertices");
        // seq is a contiguous replay from 0.
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
        (id, seqs.len() as u64)
    });

    // Client B: throttled job on lastfm, cancelled after a few results.
    let cancelled = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect B");
        let mut args = SubmitArgs::dataset("lastfm", 2, 9);
        args.threads = Some(2);
        args.throttle_us = Some(3000); // ~3ms per result: plenty of time to cancel
        let id = c.submit(&args).expect("submit lastfm");
        let mut canceller = Client::connect(addr).expect("connect canceller");
        let mut seen = 0u64;
        let end = c
            .stream(id, |_, _| {
                seen += 1;
                if seen == 3 {
                    canceller.cancel(id).expect("cancel");
                }
            })
            .expect("stream lastfm");
        assert_eq!(
            end.get("state").map(String::as_str),
            Some("cancelled"),
            "mid-stream cancel must end the stream with state=cancelled"
        );
        let streamed: u64 = end
            .get("results")
            .and_then(|s| s.parse().ok())
            .expect("results=");
        (id, streamed)
    });

    let (jazz_id, jazz_streamed) = full.join().expect("jazz thread");
    let (lastfm_id, lastfm_streamed) = cancelled.join().expect("lastfm thread");

    // The full job is unaffected by the sibling cancellation and matches
    // the in-process count exactly.
    assert_eq!(jazz_streamed, expected_jazz);

    // The cancelled job stopped early; its engine stats show partial work.
    assert!(
        lastfm_streamed < total_lastfm,
        "cancelled job delivered all {total_lastfm} results"
    );
    let mut c = Client::connect(addr).expect("connect check");
    let status = c.status(lastfm_id).expect("status");
    assert_eq!(status.get("state").map(String::as_str), Some("cancelled"));
    let outputs: u64 = status
        .get("outputs")
        .and_then(|s| s.parse().ok())
        .expect("finished jobs report outputs=");
    assert!(
        outputs < total_lastfm,
        "cancelled workers kept enumerating: {outputs} outputs of {total_lastfm}"
    );

    // Warm cache: resubmitting the jazz cell skips load/reduce.
    let first = c.status(jazz_id).expect("status jazz");
    assert_eq!(first.get("cache").map(String::as_str), Some("miss"));
    let hits_before: u64 = c.stats().expect("stats")["cache-hits"].parse().unwrap();
    let id = c
        .submit(&SubmitArgs::dataset("jazz", 2, 9))
        .expect("resubmit");
    let end = c.stream(id, |_, _| ()).expect("stream resubmit");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    let status = c.status(id).expect("status resubmit");
    assert_eq!(
        status.get("cache").map(String::as_str),
        Some("hit"),
        "warm resubmit must be served from the prepared-graph cache"
    );
    let hits_after: u64 = c.stats().expect("stats")["cache-hits"].parse().unwrap();
    assert!(hits_after > hits_before);

    // Work-stealing counters are exposed and balanced between jobs: with
    // every pool quiesced, each park has a matching unpark.
    let stats = c.stats().expect("stats");
    let parks: u64 = stats["sched-parks"].parse().unwrap();
    let unparks: u64 = stats["sched-unparks"].parse().unwrap();
    assert_eq!(
        parks, unparks,
        "a worker is still parked after all jobs ended"
    );

    handle.shutdown();
}

/// The cap holds exactly at the server's default thread count and with
/// four engine workers appending into the buffer concurrently.
#[test]
fn result_cap_truncates_the_stream() {
    let total = ground_truth("jazz", 2, 8);
    assert!(total > 5);
    let handle = start_server(1, 8);
    let mut c = Client::connect(handle.addr()).expect("connect");
    for threads in [None, Some(4)] {
        let mut args = SubmitArgs::dataset("jazz", 2, 8);
        args.limit = Some(5);
        args.threads = threads;
        let id = c.submit(&args).expect("submit");
        let mut streamed = 0u64;
        let end = c.stream(id, |_, _| streamed += 1).expect("stream");
        // A capped job still finishes as done — truncated, not failed.
        assert_eq!(end.get("state").map(String::as_str), Some("done"));
        assert_eq!(
            streamed, 5,
            "the cap bounds the buffered results exactly (threads={threads:?})"
        );
    }
    handle.shutdown();
}

#[test]
fn queue_backpressure_rejects_when_full() {
    let handle = start_server(1, 1);
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Occupy the single runner with a slow job...
    let mut slow = SubmitArgs::dataset("jazz", 2, 7);
    slow.throttle_us = Some(5000);
    let slow_id = c.submit(&slow).expect("submit slow");
    // Wait until it actually left the queue for the runner.
    loop {
        let st = c.status(slow_id).expect("status");
        if st.get("state").map(String::as_str) != Some("queued") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // ... fill the queue (capacity 1) ...
    c.submit(&SubmitArgs::dataset("jazz", 2, 9))
        .expect("fills queue");
    // ... and the next submission bounces.
    match c.submit(&SubmitArgs::dataset("jazz", 2, 9)) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("queue full"), "{msg}"),
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    c.cancel(slow_id).expect("cancel slow");
    handle.shutdown();
}

/// The deadline path: a throttled job with a short `timeout-ms` must end
/// `failed` with `error=deadline_exceeded`, and its stream must terminate
/// with that state rather than hanging.
#[test]
fn deadline_fails_a_slow_job() {
    let total = ground_truth("jazz", 2, 7);
    assert!(total > 50, "jazz (2, 7) must be big enough to outlive 30ms");
    let handle = start_server(1, 8);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let mut args = SubmitArgs::dataset("jazz", 2, 7);
    args.threads = Some(1);
    args.throttle_us = Some(2000); // ~2ms per result: total >> deadline
    args.timeout_ms = Some(30);
    let id = c.submit(&args).expect("submit");
    let mut streamed = 0u64;
    let end = c.stream(id, |_, _| streamed += 1).expect("stream");
    assert_eq!(
        end.get("state").map(String::as_str),
        Some("failed"),
        "deadline must fail the job"
    );
    assert!(
        streamed < total,
        "the deadline stopped nothing: {streamed} of {total} results"
    );
    let status = c.status(id).expect("status");
    assert_eq!(status.get("state").map(String::as_str), Some("failed"));
    assert_eq!(
        status.get("error").map(String::as_str),
        Some("deadline_exceeded"),
        "STATUS must carry the deadline error: {status:?}"
    );
    handle.shutdown();
}

/// The deadline path of a job that reports nothing: enforcement must not
/// depend on results arriving. G(400, 0.35) holds no 2-plex of 12 or more
/// vertices, but proving that takes seconds of search even in release
/// builds, so only the deadline can end this job within the bound.
#[test]
fn deadline_fails_a_job_without_results() {
    use std::time::{Duration, Instant};
    let path = std::env::temp_dir().join(format!(
        "kplex-deadline-no-results-{}.txt",
        std::process::id()
    ));
    let g = kplex_graph::gen::gnp(400, 0.35, 1);
    let file = std::fs::File::create(&path).expect("create graph file");
    kplex_graph::io::write_edge_list(&g, std::io::BufWriter::new(file)).expect("write graph");
    let handle = start_server(1, 8);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let args = SubmitArgs {
        path: Some(path.to_string_lossy().into_owned()),
        k: 2,
        q: 12,
        threads: Some(2),
        timeout_ms: Some(50),
        ..SubmitArgs::default()
    };
    let submitted = Instant::now();
    let id = c.submit(&args).expect("submit");
    let mut streamed = 0u64;
    let end = c.stream(id, |_, _| streamed += 1).expect("stream");
    let took = submitted.elapsed();
    assert_eq!(
        end.get("state").map(String::as_str),
        Some("failed"),
        "deadline must fail the job: {end:?}"
    );
    assert_eq!(streamed, 0, "the instance has no results to stream");
    assert!(
        took < Duration::from_secs(5),
        "a 50ms deadline ended the job only after {took:?}"
    );
    let status = c.status(id).expect("status");
    assert_eq!(
        status.get("error").map(String::as_str),
        Some("deadline_exceeded"),
        "STATUS must carry the deadline error: {status:?}"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The throttle path: with one engine thread, every reported result sleeps
/// `throttle-us` first, so elapsed wall-clock is bounded below by
/// `results × throttle` — a deterministic floor, no sleeps in the test.
#[test]
fn throttle_paces_the_stream() {
    let handle = start_server(1, 8);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let mut args = SubmitArgs::dataset("jazz", 2, 9);
    args.threads = Some(1);
    args.limit = Some(5);
    args.throttle_us = Some(4000);
    let id = c.submit(&args).expect("submit");
    let end = c.stream(id, |_, _| ()).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    let status = c.status(id).expect("status");
    let elapsed_ms: u64 = status
        .get("elapsed-ms")
        .and_then(|s| s.parse().ok())
        .expect("elapsed-ms=");
    assert!(
        elapsed_ms >= 5 * 4,
        "5 results at 4ms throttle ran in {elapsed_ms}ms (< 20ms floor)"
    );
    handle.shutdown();
}

/// The straggler-splitting (`tau-us`) path: an explicit τ must not change
/// the result count.
#[test]
fn tau_override_preserves_counts() {
    let expected = ground_truth("jazz", 2, 9);
    let handle = start_server(1, 8);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let mut args = SubmitArgs::dataset("jazz", 2, 9);
    args.threads = Some(2);
    args.tau_us = Some(50);
    let id = c.submit(&args).expect("submit");
    let mut streamed = 0u64;
    let end = c.stream(id, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected, "tau-us must not change the result set");
    handle.shutdown();
}

/// The regression the per-entry single-flight cache fixes: while one job's
/// cold graph load is deterministically blocked (via the test-only load
/// hook — no sleeps), a warm job for a *different* key and `STATS` both
/// complete, and a second submit for the *same* cold key coalesces onto
/// the in-flight load instead of loading again.
#[test]
fn warm_jobs_and_stats_proceed_while_a_cold_load_is_blocked() {
    use kplex_service::sync::{OrderedMutex, Rank};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    let lastfm_loads = Arc::new(AtomicUsize::new(0));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let hook = {
        let lastfm_loads = lastfm_loads.clone();
        // `Sender` is `Sync`; the `Receiver` is not, so it rides in an
        // OrderedMutex at the leaf rank (never held while locking else).
        let release_rx = OrderedMutex::new(Rank::Channel, "test-release-rx", release_rx);
        LoadHook::new(move |key: &str| {
            if key.contains("lastfm") {
                // ordering: test counter read after both jobs finish; SeqCst
                // for simplicity in test code.
                lastfm_loads.fetch_add(1, Ordering::SeqCst);
                started_tx.send(()).unwrap();
                // Hold the cold load open until the test releases it.
                release_rx.lock().recv().unwrap();
            }
        })
    };
    // Runners: 2 for the coldly-blocked lastfm jobs + 1 free for the warm
    // jazz job that must overtake them.
    let handle = start_server_with(3, 16, Some(hook));
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");

    // Warm up jazz so its later resubmit is a pure cache hit.
    let id = c
        .submit(&SubmitArgs::dataset("jazz", 2, 9))
        .expect("warm-up submit");
    let end = c.stream(id, |_, _| ()).expect("warm-up stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));

    // Open the blocked cold load, plus a second submit for the same key
    // that must coalesce (not load again).
    let cold_a = c
        .submit(&SubmitArgs::dataset("lastfm", 2, 9))
        .expect("cold");
    let cold_b = c
        .submit(&SubmitArgs::dataset("lastfm", 2, 9))
        .expect("cold twin");
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the cold load never started");
    // Deterministic rendezvous: wait until the twin is observably parked on
    // the in-flight load (it would otherwise race the release below and be
    // served as a plain hit).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = c.stats().expect("stats while blocked");
        if stats["cache-waiting"].parse::<u64>().unwrap() == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "twin submit never parked on the in-flight load: {stats:?}"
        );
        std::thread::yield_now();
    }

    // With the load still blocked, a warm job and STATS must complete.
    // Run them in a thread so a regression shows up as a clean panic (via
    // the timeout below), not a hung test suite.
    let (done_tx, done_rx) = mpsc::channel::<(u64, u64)>();
    let prober = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("prober connect");
        let stats = c.stats().expect("STATS while cold load blocked");
        let pending: u64 = stats["cache-pending"].parse().unwrap();
        let id = c
            .submit(&SubmitArgs::dataset("jazz", 2, 9))
            .expect("warm submit");
        let end = c.stream(id, |_, _| ()).expect("warm stream");
        assert_eq!(end.get("state").map(String::as_str), Some("done"));
        let status = c.status(id).expect("warm status");
        assert_eq!(
            status.get("cache").map(String::as_str),
            Some("hit"),
            "the overtaking job must be the warm one"
        );
        let results: u64 = status["results"].parse().unwrap();
        done_tx.send((pending, results)).unwrap();
    });
    let (pending, warm_results) = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("warm job or STATS blocked behind the cold load");
    prober.join().expect("prober thread");
    assert_eq!(pending, 1, "STATS must see the in-flight cold load");
    assert_eq!(warm_results, ground_truth("jazz", 2, 9));

    // Release the cold load; both lastfm jobs finish off one single load.
    release_tx.send(()).unwrap();
    let expected_lastfm = ground_truth("lastfm", 2, 9);
    for id in [cold_a, cold_b] {
        let mut streamed = 0u64;
        let end = c.stream(id, |_, _| streamed += 1).expect("cold stream");
        assert_eq!(end.get("state").map(String::as_str), Some("done"));
        assert_eq!(streamed, expected_lastfm);
    }
    assert_eq!(
        // ordering: read after both cold streams completed; SeqCst for
        // simplicity in test code.
        lastfm_loads.load(Ordering::SeqCst),
        1,
        "two concurrent cold submits must run exactly one load (single-flight)"
    );
    let stats = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let coalesced: u64 = stats["cache-coalesced"].parse().unwrap();
    assert!(
        coalesced >= 1,
        "the twin submit must have coalesced onto the in-flight load: {stats:?}"
    );
    handle.shutdown();
}

#[test]
fn invalid_requests_are_rejected() {
    let handle = start_server(1, 4);
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.ping().expect("ping");
    // Unknown dataset, bad params, unknown algo — all rejected at submit.
    for args in [
        SubmitArgs::dataset("no-such-graph", 2, 9),
        SubmitArgs::dataset("jazz", 3, 2), // q < 2k - 1
        {
            let mut a = SubmitArgs::dataset("jazz", 2, 9);
            a.algo = Some("bogus".into());
            a
        },
    ] {
        assert!(
            matches!(c.submit(&args), Err(ClientError::Remote(_))),
            "{args:?} must be rejected"
        );
    }
    // Unknown job ids.
    assert!(matches!(c.status(999), Err(ClientError::Remote(_))));
    assert!(matches!(c.cancel(999), Err(ClientError::Remote(_))));
    // Jobs survive across connections: submit here, observe elsewhere.
    let id = c
        .submit(&SubmitArgs::dataset("jazz", 2, 9))
        .expect("submit");
    let mut c2 = Client::connect(handle.addr()).expect("second connection");
    let end = c2.stream(id, |_, _| ()).expect("stream from second conn");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    let jobs = c2.list().expect("list");
    assert!(jobs.iter().any(|j| j["id"] == id.to_string()));
    handle.shutdown();
}
