//! Multi-tenant fairness and attribution tests over real TCP: a flooding
//! tenant queues 50 slow jobs on a single-runner server and an interactive
//! tenant's submit must still reach the runner within the deficit-round-
//! robin anti-starvation bound — *without* draining the flood first. A
//! second scenario restarts a journaled tenant server and proves that
//! journaled principal attribution and the cumulative `TENANT` byte
//! counters replay correctly (max-wins) into `STATS`, and that replayed
//! jobs stay scoped to their owner.
//!
//! Every server binds port 0 so parallel test runs never collide.

use kplex_core::{enumerate_count, AlgoConfig, Params};
use kplex_service::{
    Client, ClientError, PrincipalStore, Server, ServerConfig, ServerHandle, SubmitArgs,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The provisioning fixture: a weight-1 batch tenant, a weight-4
/// interactive tenant, a bystander, and an admin. All quotas unlimited —
/// these tests exercise *fair share*, not rejection (the quota paths are
/// covered by the server unit tests and by
/// `router_integration.rs::router_enforces_tenancy_at_the_edge`).
const PRINCIPALS: &str = "\
tok-flood:flood:1:0:0:-
tok-alice:alice:4:0:0:-
tok-bob:bob:1:0:0:-
tok-root:root:1:0:0:admin
";

fn store() -> PrincipalStore {
    PrincipalStore::parse(PRINCIPALS).expect("principal fixture parses")
}

fn start_tenant_server(runners: usize, queue_cap: usize, journal: Option<&Path>) -> ServerHandle {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        runners,
        queue_cap,
        cache_cap: 4,
        default_threads: 2,
        journal: journal.map(Path::to_path_buf),
        principals: Some(store()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral")
    .spawn()
    .expect("spawn server")
}

fn ground_truth(dataset: &str, k: usize, q: usize) -> u64 {
    let g = kplex_datasets::by_name(dataset).expect("dataset").load();
    let params = Params::new(k, q).expect("valid params");
    enumerate_count(&g, params, &AlgoConfig::ours()).0
}

fn connect_as(addr: std::net::SocketAddr, token: &str) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    let who = c.auth(token).expect("auth");
    assert_eq!(who.get("admin").map(String::as_str), Some("false"));
    c
}

/// `STATS` exposes one `tenant{i}-*` group per provisioned principal;
/// find `name`'s cumulative byte counter.
fn tenant_bytes(stats: &BTreeMap<String, String>, name: &str) -> u64 {
    for i in 0.. {
        match stats.get(&format!("tenant{i}-name")) {
            None => break,
            Some(n) if n == name => {
                return stats
                    .get(&format!("tenant{i}-bytes"))
                    .expect("bytes field next to name field")
                    .parse()
                    .expect("numeric byte counter");
            }
            Some(_) => {}
        }
    }
    panic!("tenant {name} missing from STATS: {stats:?}");
}

fn wait_dispatched(c: &mut Client, id: u64) -> String {
    // ordering: poll until the runner picks the job up; a fast job may
    // pass straight through "running" between polls, so terminal states
    // count as dispatched too.
    for _ in 0..2000 {
        let st = c.status(id).expect("status");
        let state = st.get("state").cloned().expect("state field");
        if state != "queued" {
            return state;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("job {id} never left the queue");
}

/// The acceptance scenario: with one runner, tenant `flood` queues 50
/// slow (throttled, result-limited) jobs; once the first is running,
/// tenant `alice` submits interactively. Deficit-weighted round-robin
/// must dispatch alice's job after at most the anti-starvation bound of
/// further flood dispatches (Σ other lanes' weights = 1, plus the job
/// already occupying the runner) — nowhere near draining the flood.
#[test]
fn flooding_tenant_cannot_starve_interactive_submit() {
    let expected28 = ground_truth("jazz", 2, 8);
    let handle = start_tenant_server(1, 64, None);
    let addr = handle.addr();

    let mut flood = connect_as(addr, "tok-flood");
    let mut slow = SubmitArgs::dataset("jazz", 2, 9);
    slow.threads = Some(1);
    slow.limit = Some(20);
    // >= 40ms per result: each flood job runs long enough that the
    // post-dispatch status sweep below cannot race extra dispatches in.
    slow.throttle_us = Some(40_000);
    let flood_ids: Vec<u64> = (0..50)
        .map(|_| flood.submit(&slow).expect("flood submit"))
        .collect();
    wait_dispatched(&mut flood, flood_ids[0]);

    let mut alice = connect_as(addr, "tok-alice");
    let fast = SubmitArgs::dataset("jazz", 2, 8);
    let interactive = alice.submit(&fast).expect("interactive submit");
    let state = wait_dispatched(&mut alice, interactive);
    assert!(
        state == "running" || state == "done",
        "interactive job in unexpected state {state}"
    );

    // The starvation pin: when alice's job reaches the runner, the flood
    // must be essentially untouched. FIFO admission would need all 50
    // flood jobs (~5s of throttled work) dispatched first; DRR allows the
    // in-flight one plus the anti-starvation bound. 5 leaves slack for
    // dispatch races without weakening the property.
    let dispatched = flood_ids
        .iter()
        .filter(|&&id| {
            let st = flood.status(id).expect("flood status");
            st.get("state").map(String::as_str) != Some("queued")
        })
        .count();
    assert!(
        dispatched <= 5,
        "{dispatched} flood jobs dispatched before the interactive job ran \
         — fair-share admission is starving the interactive tenant"
    );

    // The interactive job is a real job, not a priority stub: it streams
    // to completion with the exact in-process count.
    let mut streamed = 0u64;
    let end = alice
        .stream(interactive, |_, _| streamed += 1)
        .expect("stream interactive");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected28);
    assert_eq!(
        end.get("principal").map(String::as_str),
        Some("alice"),
        "terminal status must carry tenant attribution"
    );

    // Tenancy scoping rides along: flood cannot observe alice's job, and
    // the denial is indistinguishable from a missing id.
    match flood.status(interactive) {
        Err(ClientError::Remote(msg)) => {
            assert!(msg.contains("no such job"), "unexpected denial: {msg}")
        }
        other => panic!("cross-tenant STATUS must be denied, got {other:?}"),
    }

    for id in flood_ids {
        let _ = flood.cancel(id);
    }
    handle.shutdown();
}

fn journal_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "kplex-tenant-fairness-{}-{tag}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Restart scenario: a journaled tenant server completes one alice job
/// (journaling a cumulative `TENANT` byte record), then is stopped with
/// an alice job running and another queued. The restarted server must
/// (a) replay alice's byte counter into `STATS` via the max-wins merge,
/// (b) replay both interrupted jobs with their principal attribution
/// intact and scoped — bob still gets `no such job` — and (c) keep
/// accumulating on top of the replayed counter, never resetting it.
#[test]
fn restart_replays_tenant_attribution_and_byte_counters() {
    let journal = journal_path("replay");
    let expected29 = ground_truth("jazz", 2, 9);
    let expected28 = ground_truth("jazz", 2, 8);

    let first = start_tenant_server(1, 16, Some(&journal));
    let mut alice = connect_as(first.addr(), "tok-alice");

    // Job 1 completes organically: its result bytes land in alice's
    // cumulative counter and are journaled as a TENANT record.
    let done_id = alice
        .submit(&SubmitArgs::dataset("jazz", 2, 9))
        .expect("submit");
    let mut streamed = 0u64;
    let end = alice.stream(done_id, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected29);
    let bytes_before = tenant_bytes(&alice.stats().expect("stats"), "alice");
    assert!(bytes_before > 0, "completed job must account result bytes");

    // Job 2 occupies the single runner (throttled so it outlives the
    // stop); job 3 queues behind it. Both die with the server.
    let mut slow = SubmitArgs::dataset("jazz", 2, 9);
    slow.throttle_us = Some(3_000);
    let running_id = alice.submit(&slow).expect("submit slow");
    wait_dispatched(&mut alice, running_id);
    let queued_id = alice
        .submit(&SubmitArgs::dataset("jazz", 2, 8))
        .expect("submit queued");
    drop(alice);
    first.shutdown(); // crash-equivalent: nothing is journaled past here

    let second = start_tenant_server(1, 16, Some(&journal));
    let mut alice = connect_as(second.addr(), "tok-alice");

    // (a) The byte counter survived the restart via the TENANT replay.
    let bytes_replayed = tenant_bytes(&alice.stats().expect("stats"), "alice");
    assert!(
        bytes_replayed >= bytes_before,
        "replayed counter {bytes_replayed} regressed below journaled {bytes_before}"
    );

    // (b) Both interrupted jobs replayed under their original ids with
    // alice's attribution — visible to alice, invisible to bob.
    for id in [running_id, queued_id] {
        let st = alice.status(id).expect("replayed status");
        assert_eq!(
            st.get("principal").map(String::as_str),
            Some("alice"),
            "replayed job {id} lost its tenant attribution: {st:?}"
        );
        assert_eq!(
            st.get("recovered").map(String::as_str),
            Some("true"),
            "replayed job {id} must be flagged recovered: {st:?}"
        );
    }
    let mut bob = connect_as(second.addr(), "tok-bob");
    match bob.status(running_id) {
        Err(ClientError::Remote(msg)) => {
            assert!(msg.contains("no such job"), "unexpected denial: {msg}")
        }
        other => panic!("cross-tenant STATUS after replay must be denied, got {other:?}"),
    }

    // (c) Replayed jobs run to completion and keep accumulating on top of
    // the replayed counter.
    let mut streamed = 0u64;
    let end = alice
        .stream(queued_id, |_, _| streamed += 1)
        .expect("stream replayed");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected28);
    let bytes_after = tenant_bytes(&alice.stats().expect("stats"), "alice");
    assert!(
        bytes_after > bytes_replayed,
        "post-restart completion must grow the counter ({bytes_replayed} -> {bytes_after})"
    );

    // Cleanup: let the still-running replayed job finish or die with the
    // server; the journal file is ours to remove.
    let _ = alice.cancel(running_id);
    second.shutdown();
    let _ = std::fs::remove_file(&journal);
}
