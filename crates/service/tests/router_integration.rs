//! End-to-end router tests over real TCP: rendezvous-stable placement
//! (asserted against the exported placement function), warm-cache affinity
//! across resubmissions, queued-job failover when a backend dies, the
//! ADDNODE/DROPNODE admin surface, proactive health probing with flap
//! suppression, active rebalancing of queued jobs on topology changes,
//! tenancy enforced at the router edge, prompt delivery to a live
//! follower from both tiers, and a bounded backlog of finished jobs. All
//! listeners bind port 0.

use kplex_core::{enumerate_collect, enumerate_count, AlgoConfig, Params};
use kplex_service::router::{pick_backend, routing_key};
use kplex_service::server::RETAIN_TERMINAL_JOBS;
use kplex_service::{
    Client, ClientError, PrincipalStore, ProbeConfig, Router, RouterConfig, Server, ServerConfig,
    ServerHandle, SubmitArgs,
};
use std::time::{Duration, Instant};

fn start_backend(runners: usize) -> ServerHandle {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        runners,
        queue_cap: 16,
        cache_cap: 4,
        default_threads: 2,
        ..ServerConfig::default()
    };
    Server::bind(&cfg)
        .expect("bind backend")
        .spawn()
        .expect("spawn backend")
}

fn start_router(backends: &[String]) -> kplex_service::RouterHandle {
    start_router_probed(backends, None)
}

fn start_router_probed(
    backends: &[String],
    probe: Option<ProbeConfig>,
) -> kplex_service::RouterHandle {
    Router::bind(&RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.to_vec(),
        probe,
        ..RouterConfig::default()
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router")
}

/// A probe-less router that places `replicas` copies of every job.
fn start_router_replicated(backends: &[String], replicas: usize) -> kplex_service::RouterHandle {
    Router::bind(&RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.to_vec(),
        probe: None,
        replicas,
        principals: None,
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router")
}

/// Submits jobs until one is observably `running` (occupying the single
/// runner of its backend); returns its (router id, backend).
fn occupy_backend(c: &mut Client, args: &SubmitArgs) -> (u64, String) {
    let (id, owner) = submit_owner(c, args);
    loop {
        let st = c.status(id).expect("status of occupying job");
        match st.get("state").map(String::as_str) {
            Some("queued") => std::thread::sleep(Duration::from_millis(5)),
            Some("running") => return (id, owner),
            other => panic!("occupying job in unexpected state {other:?}"),
        }
    }
}

/// A jazz submission whose routing key rendezvous-prefers `want` among
/// `backends`. Scans `q` (distinct `q − k` = distinct keys) — with a dozen
/// candidates the probability that none prefers `want` is ~2⁻¹².
fn args_preferring(backends: &[String], want: &str) -> SubmitArgs {
    for q in 7..24 {
        let args = SubmitArgs::dataset("jazz", 2, q);
        if pick_backend(backends, &routing_key(&args)) == Some(want) {
            return args;
        }
    }
    panic!("no jazz key prefers {want} among {backends:?}");
}

fn ground_truth(dataset: &str, k: usize, q: usize) -> u64 {
    let g = kplex_datasets::by_name(dataset).expect("dataset").load();
    let params = Params::new(k, q).expect("valid params");
    enumerate_count(&g, params, &AlgoConfig::ours()).0
}

fn submit_owner(c: &mut Client, args: &SubmitArgs) -> (u64, String) {
    let fields = c.submit_fields(args).expect("submit");
    let id = fields
        .get("id")
        .and_then(|s| s.parse().ok())
        .expect("id= in submit reply");
    let backend = fields
        .get("backend")
        .cloned()
        .expect("backend= in submit reply");
    (id, backend)
}

/// Placement is exactly what rendezvous hashing predicts, stable across
/// resubmission, and the resubmit of a cell is served from the owning
/// backend's warm prepared-graph cache.
#[test]
fn routing_is_rendezvous_stable_and_cache_affine() {
    let a = start_backend(2);
    let b = start_backend(2);
    let backends = vec![a.addr().to_string(), b.addr().to_string()];
    let router = start_router(&backends);
    let mut c = Client::connect(router.addr()).expect("connect");

    // Distinct (dataset, q−k) cells may land anywhere — but exactly where
    // the exported placement function says, twice in a row.
    for (k, q) in [(2, 9), (2, 8), (2, 7), (3, 9)] {
        let args = SubmitArgs::dataset("jazz", k, q);
        let predicted = pick_backend(&backends, &routing_key(&args))
            .expect("non-empty backend set")
            .to_string();
        let (id1, owner1) = submit_owner(&mut c, &args);
        let (id2, owner2) = submit_owner(&mut c, &args);
        assert_eq!(owner1, predicted, "({k},{q}) placed off-prediction");
        assert_eq!(owner2, predicted, "({k},{q}) resubmit moved backends");
        // Drain both so the cache assertions below are deterministic.
        for id in [id1, id2] {
            let end = c.stream(id, |_, _| ()).expect("stream");
            assert_eq!(end.get("state").map(String::as_str), Some("done"));
        }
        // The second job of the pair must be warm: same graph, same q−k,
        // same backend (either a cache hit or coalesced onto job 1's load).
        let status = c.status(id2).expect("status");
        assert_eq!(
            status.get("cache").map(String::as_str),
            Some("hit"),
            "resubmit of ({k},{q}) was not served warm: {status:?}"
        );
        assert_eq!(status.get("backend"), Some(&predicted));
    }

    // Router-wide id namespace: LIST shows every routed job exactly once,
    // with router ids and backend attribution.
    let jobs = c.list().expect("list");
    assert_eq!(jobs.len(), 8, "8 jobs routed: {jobs:?}");
    let mut ids: Vec<u64> = jobs
        .iter()
        .map(|j| j["id"].parse().expect("numeric id"))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=8).collect::<Vec<_>>(), "dense router id space");
    for job in &jobs {
        assert!(
            backends.contains(&job["backend"]),
            "job attributed to unknown backend: {job:?}"
        );
    }

    // The router's STATS forwards each backend's cache counters: the four
    // warm resubmits show up there. A resubmit that started while its
    // twin's load was still in flight counts as coalesced, not as a hit.
    let stats = c.stats().expect("stats");
    let warm: u64 = (0..backends.len())
        .flat_map(|i| {
            [
                format!("node{i}-cache-hits"),
                format!("node{i}-cache-coalesced"),
            ]
        })
        .map(|key| stats[&key].parse::<u64>().expect("numeric cache counter"))
        .sum();
    assert!(warm >= 4, "4 warm resubmits, per-node STATS: {stats:?}");

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// The acceptance scenario: a job queued behind a busy runner fails over to
/// the surviving backend when its owner dies, completes there with the full
/// result set. The job that was *running* on the dead backend is requeued
/// too — resumable streams (`STREAM … FROM`) make the re-run safe, so the
/// old failed/backend_lost policy no longer applies.
#[test]
fn queued_jobs_fail_over_when_a_backend_dies() {
    let expected = ground_truth("jazz", 2, 7);
    let a = start_backend(1); // single runner: one job occupies the backend
    let b = start_backend(1);
    let backends = vec![a.addr().to_string(), b.addr().to_string()];
    let router = start_router(&backends);
    let mut c = Client::connect(router.addr()).expect("connect");

    // Occupy the owner of jazz(2,7)'s routing key with a throttled job...
    let mut slow = SubmitArgs::dataset("jazz", 2, 7);
    slow.throttle_us = Some(3000);
    let (slow_id, owner) = submit_owner(&mut c, &slow);
    loop {
        let st = c.status(slow_id).expect("status slow");
        match st.get("state").map(String::as_str) {
            Some("queued") => std::thread::sleep(std::time::Duration::from_millis(5)),
            Some("running") => break,
            other => panic!("slow job in unexpected state {other:?}"),
        }
    }
    // ... queue a second job with the same key (same backend, by design) ...
    let (queued_id, owner2) = submit_owner(&mut c, &SubmitArgs::dataset("jazz", 2, 7));
    assert_eq!(owner2, owner, "equal keys must share a backend");

    // ... and kill that backend. The other one survives.
    let (victim, survivor) = if owner == a.addr().to_string() {
        (a, b)
    } else {
        (b, a)
    };
    victim.shutdown();

    // The next proxied request notices the outage: both jobs — queued and
    // running alike — are requeued to the survivor under their original
    // router ids.
    let status = c.status(queued_id).expect("status after kill");
    let new_owner = status.get("backend").cloned().expect("backend=");
    assert_ne!(new_owner, owner, "queued job still on the dead backend");
    assert_eq!(new_owner, survivor.addr().to_string());
    let status = c.status(slow_id).expect("status slow after kill");
    assert_eq!(
        status.get("backend"),
        Some(&survivor.addr().to_string()),
        "running job must be requeued off the corpse: {status:?}"
    );
    assert!(
        matches!(
            status.get("state").map(String::as_str),
            Some("queued") | Some("running")
        ),
        "requeued job must be live again, not failed: {status:?}"
    );
    assert!(
        !status.contains_key("error"),
        "no failure recorded: {status:?}"
    );

    // Free the survivor's single runner (the requeued throttled job may be
    // occupying it), then the queued job completes there with the full,
    // correct result set.
    c.cancel(slow_id).expect("cancel requeued job");
    let mut streamed = 0u64;
    let end = c.stream(queued_id, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected, "failover lost or duplicated results");

    router.shutdown();
    survivor.shutdown();
}

/// A backend that was `DROPNODE`d (graceful drain) and *then* crashes must
/// not strand the jobs still attributed to it: the registry can no longer
/// observe an alive → dead transition for it, so recovery has to happen
/// per-job on the next proxied request that sees the transport failure.
#[test]
fn jobs_on_a_dropped_backend_recover_after_it_dies() {
    let expected = ground_truth("jazz", 2, 7);
    let a = start_backend(1);
    let b = start_backend(1);
    let backends = vec![a.addr().to_string(), b.addr().to_string()];
    let router = start_router(&backends);
    let mut c = Client::connect(router.addr()).expect("connect");

    // A running job and a queued job on the same owner.
    let mut slow = SubmitArgs::dataset("jazz", 2, 7);
    slow.throttle_us = Some(3000);
    let (slow_id, owner) = submit_owner(&mut c, &slow);
    loop {
        let st = c.status(slow_id).expect("status slow");
        if st.get("state").map(String::as_str) == Some("running") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let (queued_id, owner2) = submit_owner(&mut c, &SubmitArgs::dataset("jazz", 2, 7));
    assert_eq!(owner2, owner);
    let (victim, survivor) = if owner == a.addr().to_string() {
        (a, b)
    } else {
        (b, a)
    };

    // Graceful drain: the queued job is rerouted to the survivor right
    // away; the running job finishes in place (still reachable by addr).
    c.drop_node(&owner).expect("dropnode");
    let status = c.status(queued_id).expect("status after drain");
    assert_eq!(
        status.get("backend"),
        Some(&survivor.addr().to_string()),
        "drain must move the queued job: {status:?}"
    );
    let mut streamed = 0u64;
    let end = c.stream(queued_id, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected);
    let status = c.status(slow_id).expect("status slow after drain");
    assert_eq!(
        status.get("state").map(String::as_str),
        Some("running"),
        "drain must leave the running job in place: {status:?}"
    );

    // Now the dropped (unregistered) backend crashes. The running job must
    // still be recovered by the next STATUS — requeued onto a live backend,
    // not stranded and not failed.
    victim.shutdown();
    let status = c.status(slow_id).expect("status after crash");
    assert_eq!(
        status.get("backend"),
        Some(&survivor.addr().to_string()),
        "job stranded on a dropped+dead backend: {status:?}"
    );
    assert!(
        matches!(
            status.get("state").map(String::as_str),
            Some("queued") | Some("running")
        ),
        "recovered job must be live again: {status:?}"
    );
    assert!(
        !status.contains_key("error"),
        "no failure recorded: {status:?}"
    );
    c.cancel(slow_id).expect("cancel recovered job");

    router.shutdown();
    survivor.shutdown();
}

/// The tentpole acceptance scenario: with two backends and `--replicas 2`,
/// killing the owning backend mid-stream is invisible to the client. The
/// router promotes the replica and resumes with `STREAM … FROM` at the
/// first unforwarded seq, so every result arrives exactly once, in order,
/// ending in a clean `END state=done` — no `ERR … lost mid-stream`.
/// `threads = 1` pins the deterministic result order that makes the
/// cross-backend seq space line up (see the module docs in `router.rs`).
#[test]
fn stream_resumes_exactly_once_when_owner_dies_mid_stream() {
    let expected = ground_truth("jazz", 2, 8);
    assert!(expected >= 8, "need enough results to cut mid-stream");
    let a = start_backend(1);
    let b = start_backend(1);
    let addr_a = a.addr().to_string();
    let addr_b = b.addr().to_string();
    let backends = vec![addr_a.clone(), addr_b.clone()];
    let router = start_router_replicated(&backends, 2);
    let mut c = Client::connect(router.addr()).expect("connect");

    let mut args = SubmitArgs::dataset("jazz", 2, 8);
    args.threads = Some(1); // deterministic result order across replicas
    args.throttle_us = Some(1000); // keep the job alive long enough to kill
    let fields = c.submit_fields(&args).expect("submit");
    assert_eq!(
        fields.get("replicas").map(String::as_str),
        Some("1"),
        "a replica copy must have been placed: {fields:?}"
    );
    let id: u64 = fields
        .get("id")
        .and_then(|s| s.parse().ok())
        .expect("id= in submit reply");
    let owner = fields.get("backend").cloned().expect("backend=");

    let mut handles = std::collections::BTreeMap::new();
    handles.insert(addr_a, a);
    handles.insert(addr_b, b);
    let mut victim = Some(handles.remove(&owner).expect("owner is one of ours"));

    // Crash the primary from inside the stream callback: `kill()` severs
    // the router's in-flight connection exactly like a SIGKILL would.
    let mut seqs = Vec::new();
    let end = c
        .stream(id, |seq, _| {
            seqs.push(seq);
            if seqs.len() == 3 {
                if let Some(h) = victim.take() {
                    h.kill();
                }
            }
        })
        .expect("stream must survive the owner's death");
    assert!(victim.is_none(), "stream ended before the cut point");
    assert_eq!(
        end.get("state").map(String::as_str),
        Some("done"),
        "{end:?}"
    );
    assert!(
        !end.contains_key("truncated"),
        "resumed stream must be complete: {end:?}"
    );
    assert_eq!(seqs.len() as u64, expected, "lost or duplicated results");
    for (i, seq) in seqs.iter().enumerate() {
        assert_eq!(*seq, i as u64, "gap or duplicate at position {i}");
    }

    router.shutdown();
    for (_, h) in handles {
        h.shutdown();
    }
}

/// With `--replicas 2`, the primary alone serves `STATUS` and `STREAM`. A
/// replica runs its own copy of the job, whose result order differs from
/// the primary's above `threads=1`; a plain `STREAM … FROM n` resume of a
/// `threads=2` job served by the replica would repeat some results and
/// miss others, silently. Every reply must name the primary, and the
/// prefix plus the resumed suffix must be exactly the job's result set.
#[test]
fn replicated_reads_are_served_by_the_primary() {
    let (k, q) = (2, 7);
    let expected = {
        let g = kplex_datasets::by_name("jazz").expect("dataset").load();
        let params = Params::new(k, q).expect("valid params");
        enumerate_collect(&g, params, &AlgoConfig::ours()).0
    };
    assert!(expected.len() >= 100, "need enough results to split");
    let a = start_backend(1);
    let b = start_backend(1);
    let backends = vec![a.addr().to_string(), b.addr().to_string()];
    let router = start_router_replicated(&backends, 2);
    let mut c = Client::connect(router.addr()).expect("connect");

    let mut args = SubmitArgs::dataset("jazz", k, q);
    args.threads = Some(2);
    let fields = c.submit_fields(&args).expect("submit");
    assert_eq!(fields.get("replicas").map(String::as_str), Some("1"));
    let id: u64 = fields["id"].parse().expect("id= in submit reply");
    let primary = fields["backend"].clone();

    // Consecutive STATUS replies, through to done and beyond.
    let mut done_seen = 0;
    while done_seen < 4 {
        let st = c.status(id).expect("status");
        assert_eq!(
            st.get("backend"),
            Some(&primary),
            "STATUS left the primary: {st:?}"
        );
        match st.get("state").map(String::as_str) {
            Some("done") => done_seen += 1,
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("job in unexpected state {other:?}"),
        }
    }

    // A prefix on one connection, the suffix resumed on another.
    let half = expected.len() / 2;
    let mut got: Vec<Vec<u32>> = Vec::new();
    let aborted = c
        .stream_while(id, |_, plex| {
            got.push(plex.to_vec());
            got.len() < half
        })
        .expect("prefix stream");
    assert!(aborted.is_none(), "the prefix must stop mid-stream");
    drop(c);
    let mut c = Client::connect(router.addr()).expect("reconnect");
    let end = c
        .stream_from(id, half as u64, |_, plex| got.push(plex.to_vec()))
        .expect("resumed stream");
    assert_eq!(
        end.get("backend"),
        Some(&primary),
        "resume left the primary: {end:?}"
    );
    assert_eq!(
        end.get("state").map(String::as_str),
        Some("done"),
        "{end:?}"
    );
    assert!(!end.contains_key("truncated"), "{end:?}");
    for plex in &mut got {
        plex.sort_unstable();
    }
    got.sort();
    assert_eq!(
        got, expected,
        "prefix + resumed suffix is not the job's result set"
    );

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// ADDNODE grows the registry at runtime, DROPNODE drains a backend
/// (new submissions avoid it), and unknown nodes are rejected.
#[test]
fn addnode_and_dropnode_administer_the_registry() {
    let a = start_backend(2);
    let b = start_backend(2);
    let addr_a = a.addr().to_string();
    let addr_b = b.addr().to_string();
    let router = start_router(std::slice::from_ref(&addr_a));
    let mut c = Client::connect(router.addr()).expect("connect");

    // One node at first; ADDNODE brings in the second.
    assert_eq!(c.nodes().expect("nodes").len(), 1);
    c.add_node(&addr_b).expect("addnode");
    let nodes = c.nodes().expect("nodes");
    assert_eq!(nodes.len(), 2);
    assert!(nodes.iter().all(|n| n["alive"] == "true"));

    // DROPNODE removes a backend from the routing set entirely: every new
    // submission lands on the remaining one, whatever the key prefers.
    c.drop_node(&addr_a).expect("dropnode");
    assert_eq!(c.nodes().expect("nodes").len(), 1);
    for (k, q) in [(2, 9), (2, 8), (1, 5)] {
        let (_, owner) = submit_owner(&mut c, &SubmitArgs::dataset("jazz", k, q));
        assert_eq!(owner, addr_b, "dropped node still receiving jobs");
    }
    // Dropping an unknown backend is an error.
    match c.drop_node("203.0.113.9:1") {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("unknown backend"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// The probe acceptance scenario: with the prober on, a stopped backend is
/// marked dead within ~2× the probe interval (`fall = 2`, and a connect to
/// a closed port fails immediately) with **zero** job requests towards it —
/// the only client traffic before detection is `NODES`, which is answered
/// from the router's own registry. The queued job on the corpse is already
/// failed over by the time the client asks, so it never sees a transport
/// error.
#[test]
fn probe_marks_a_stopped_backend_dead_without_client_traffic() {
    let interval = Duration::from_millis(200);
    let expected = ground_truth("jazz", 2, 7);
    let a = start_backend(1);
    let b = start_backend(1);
    let backends = vec![a.addr().to_string(), b.addr().to_string()];
    let router = start_router_probed(
        &backends,
        Some(ProbeConfig {
            interval,
            timeout: Duration::from_secs(1),
            fall: 2,
            rise: 2,
        }),
    );
    let mut c = Client::connect(router.addr()).expect("connect");

    // A running job occupies the owner's single runner; a second job with
    // the same key queues behind it.
    let mut slow = SubmitArgs::dataset("jazz", 2, 7);
    slow.throttle_us = Some(3000);
    let (_, owner) = occupy_backend(&mut c, &slow);
    let (queued_id, owner2) = submit_owner(&mut c, &SubmitArgs::dataset("jazz", 2, 7));
    assert_eq!(owner2, owner);
    let (victim, survivor) = if owner == a.addr().to_string() {
        (a, b)
    } else {
        (b, a)
    };

    // Kill the owner and watch the *registry* only — no STATUS, STREAM or
    // SUBMIT touches the corpse, so detection is purely probe-driven.
    victim.shutdown();
    let killed_at = Instant::now();
    let detected = loop {
        let nodes = c.nodes().expect("nodes");
        let dead = nodes
            .iter()
            .find(|n| n["addr"] == owner)
            .is_some_and(|n| n["alive"] == "false");
        if dead {
            break killed_at.elapsed();
        }
        assert!(
            killed_at.elapsed() < Duration::from_secs(10),
            "probe never marked the stopped backend dead: {nodes:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    // fall = 2 ⇒ two probe rounds; generous scheduling slack for CI.
    assert!(
        detected <= 2 * interval + Duration::from_secs(1),
        "probe detection took {detected:?}, want <= ~2x interval ({interval:?})"
    );

    // The queued job was failed over by the probe transition itself: the
    // first client request about it already names the survivor, and the
    // stream completes with the full result set — no transport errors.
    let status = c.status(queued_id).expect("status after probe failover");
    assert_eq!(
        status.get("backend"),
        Some(&survivor.addr().to_string()),
        "queued job not failed over by the prober: {status:?}"
    );
    let mut streamed = 0u64;
    let end = c.stream(queued_id, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected);

    // Flap suppression is observable: the dead node keeps accumulating
    // consecutive probe failures in NODES.
    let nodes = c.nodes().expect("nodes");
    let dead = nodes
        .iter()
        .find(|n| n["addr"] == owner)
        .expect("registered");
    assert!(
        dead["probe-fails"].parse::<u32>().expect("numeric") >= 2,
        "dead node must show its consecutive probe failures: {dead:?}"
    );

    router.shutdown();
    survivor.shutdown();
}

/// `ADDNODE` actively rebalances: a queued job whose rendezvous owner is
/// the newly added backend migrates to it (remote-cancel + resubmit under
/// the original router id), while the running job stays where it runs. The
/// manual `REBALANCE` verb then reports a steady state.
#[test]
fn addnode_actively_rebalances_queued_jobs() {
    let a = start_backend(1);
    let b = start_backend(1);
    let addr_a = a.addr().to_string();
    let addr_b = b.addr().to_string();
    let both = vec![addr_a.clone(), addr_b.clone()];
    // Router knows only `a` at first.
    let router = start_router(std::slice::from_ref(&addr_a));
    let mut c = Client::connect(router.addr()).expect("connect");

    // Occupy a's runner, then queue a job whose key will prefer `b` once
    // `b` joins. With only `a` registered, it must land on `a`.
    let mut slow = SubmitArgs::dataset("jazz", 2, 7);
    slow.throttle_us = Some(3000);
    let (slow_id, _) = occupy_backend(&mut c, &slow);
    let wants_b = args_preferring(&both, &addr_b);
    let expected = ground_truth("jazz", wants_b.k, wants_b.q);
    let (moving_id, owner) = submit_owner(&mut c, &wants_b);
    assert_eq!(owner, addr_a, "with one backend every key lands on it");

    // ADDNODE triggers the rebalance: the queued job moves to its owner.
    c.add_node(&addr_b).expect("addnode");
    let status = c.status(moving_id).expect("status after addnode");
    assert_eq!(
        status.get("backend"),
        Some(&addr_b),
        "queued job must migrate to its rendezvous owner: {status:?}"
    );

    // It completes on the new owner with the full result set, under its
    // original router id.
    let mut streamed = 0u64;
    let end = c.stream(moving_id, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected, "migration lost or duplicated results");

    // The running job never moved.
    let status = c.status(slow_id).expect("status slow");
    assert_eq!(status.get("backend"), Some(&addr_a));
    assert_eq!(status.get("state").map(String::as_str), Some("running"));

    // Placement now matches rendezvous for every queued job: a manual
    // REBALANCE is a no-op.
    assert_eq!(c.rebalance().expect("rebalance"), 0);

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// Probe-driven rejoin: a backend that was dead (its port closed) starts
/// answering probes again, rejoins after `rise` consecutive successes, and
/// the rejoin actively rebalances queued jobs onto it.
#[test]
fn probe_rejoin_revives_a_backend_and_rebalances() {
    let interval = Duration::from_millis(50);
    let a = start_backend(1);
    let addr_a = a.addr().to_string();
    // Reserve an address for the not-yet-started backend: bind, read the
    // port, drop the listener (probes towards it then fail instantly).
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr_r = reserved.local_addr().expect("addr").to_string();
    drop(reserved);

    let both = vec![addr_a.clone(), addr_r.clone()];
    let router = start_router_probed(
        &both,
        Some(ProbeConfig {
            interval,
            timeout: Duration::from_secs(1),
            fall: 1,
            rise: 2,
        }),
    );
    let mut c = Client::connect(router.addr()).expect("connect");

    // The reserved (closed) address dies on the first probe.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let nodes = c.nodes().expect("nodes");
        if nodes
            .iter()
            .find(|n| n["addr"] == addr_r)
            .is_some_and(|n| n["alive"] == "false")
        {
            break;
        }
        assert!(Instant::now() < deadline, "probe never killed {addr_r}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Occupy `a`, then queue a job that prefers the (currently dead) node.
    let mut slow = SubmitArgs::dataset("jazz", 2, 7);
    slow.throttle_us = Some(5000);
    let (slow_id, slow_owner) = occupy_backend(&mut c, &slow);
    assert_eq!(slow_owner, addr_a, "only one backend is alive");
    let wants_r = args_preferring(&both, &addr_r);
    let expected = ground_truth("jazz", wants_r.k, wants_r.q);
    let (moving_id, owner) = submit_owner(&mut c, &wants_r);
    assert_eq!(owner, addr_a, "dead nodes must not receive submissions");

    // Bring the real backend up on the reserved address. The prober needs
    // `rise = 2` clean rounds before it rejoins and rebalances.
    let mut revived = None;
    for _ in 0..50 {
        match Server::bind(&ServerConfig {
            addr: addr_r.clone(),
            runners: 1,
            ..ServerConfig::default()
        }) {
            Ok(server) => {
                revived = Some(server.spawn().expect("spawn revived backend"));
                break;
            }
            // The just-released port can be briefly contended; retry.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let revived = revived.expect("rebind the reserved address");

    // The queued job migrates to the revived owner, without any admin verb.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = c.status(moving_id).expect("status while rejoining");
        if status.get("backend") == Some(&addr_r) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rejoin never rebalanced the queued job: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let nodes = c.nodes().expect("nodes");
    assert!(
        nodes
            .iter()
            .find(|n| n["addr"] == addr_r)
            .is_some_and(|n| n["alive"] == "true"),
        "revived node must be alive in NODES: {nodes:?}"
    );
    let mut streamed = 0u64;
    let end = c.stream(moving_id, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected);
    // The running job stayed put through the whole dance.
    let status = c.status(slow_id).expect("status slow");
    assert_eq!(status.get("backend"), Some(&addr_a));

    router.shutdown();
    a.shutdown();
    revived.shutdown();
}

/// Tenancy at the router edge: two tenancy-enabled backends behind a
/// tenancy-enabled router, all three sharing one principal file. The
/// router gates verbs on AUTH, rejects over-quota submits itself, hides
/// other tenants' jobs, scopes LIST, aggregates per-tenant STATS across
/// backends, and never echoes a registered token, not even one an admin
/// registered as a node address.
#[test]
fn router_enforces_tenancy_at_the_edge() {
    let pfile = std::env::temp_dir().join(format!(
        "kplex-router-tenancy-{}.principals",
        std::process::id()
    ));
    std::fs::write(
        &pfile,
        "tok-alice:alice:4:2:1:-\ntok-batch:batch:1:64:8:-\ntok-root:root:1:0:0:admin\n",
    )
    .expect("write principals");
    let store = PrincipalStore::load(&pfile).expect("load principals");
    std::fs::remove_file(&pfile).ok();
    let start = || {
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            runners: 1,
            principals: Some(store.clone()),
            ..ServerConfig::default()
        })
        .expect("bind backend")
        .spawn()
        .expect("spawn backend")
    };
    let (a, b) = (start(), start());
    let router = Router::bind(&RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: vec![a.addr().to_string(), b.addr().to_string()],
        principals: Some(store.clone()),
        ..RouterConfig::default()
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router");
    let remote_err = |r: Result<_, ClientError>| match r {
        Err(ClientError::Remote(msg)) => msg,
        other => panic!("expected a remote error, got {other:?}"),
    };

    // The auth gate: PING passes, anything else needs a valid token.
    let mut alice = Client::connect(router.addr()).expect("connect alice");
    alice.ping().expect("PING is exempt from the auth gate");
    let msg = remote_err(alice.stats().map(|_| ()));
    assert!(msg.contains("authentication required"), "{msg}");
    assert_eq!(
        remote_err(alice.auth("tok-nobody").map(|_| ())),
        "unknown token"
    );
    let who = alice.auth("tok-alice").expect("auth alice");
    assert_eq!(who.get("principal").map(String::as_str), Some("alice"));

    // Edge quota: alice's max-queued is 2. The router's records stay
    // `queued` until observed, so her third submit bounces off the router
    // itself, deterministically.
    let slow = SubmitArgs {
        threads: Some(1),
        throttle_us: Some(3000),
        ..SubmitArgs::dataset("jazz", 2, 7)
    };
    let id1 = alice.submit(&slow).expect("first submit");
    let id2 = alice.submit(&slow).expect("second submit");
    let msg = remote_err(alice.submit(&slow).map(|_| ()));
    assert!(msg.contains("quota exceeded"), "{msg}");

    // Another tenant cannot see alice's jobs: they look nonexistent.
    let mut batch = Client::connect(router.addr()).expect("connect batch");
    batch.auth("tok-batch").expect("auth batch");
    let msg = remote_err(batch.status(id1).map(|_| ()));
    assert!(msg.starts_with("no such job"), "{msg}");
    let msg = remote_err(batch.stream_while(id1, |_, _| true).map(|_| ()));
    assert!(msg.starts_with("no such job"), "{msg}");

    // The owner can cancel; batch's own job streams the in-process count.
    alice.cancel(id1).expect("owner cancels");
    alice.cancel(id2).expect("owner cancels");
    let expected = ground_truth("jazz", 2, 9);
    let bid = batch
        .submit(&SubmitArgs {
            threads: Some(1),
            ..SubmitArgs::dataset("jazz", 2, 9)
        })
        .expect("batch submit");
    let mut streamed = 0u64;
    let end = batch.stream(bid, |_, _| streamed += 1).expect("stream");
    assert_eq!(end.get("state").map(String::as_str), Some("done"));
    assert_eq!(streamed, expected);

    // LIST is scoped: batch sees only its own jobs, the admin sees more.
    let mine = batch.list().expect("batch list");
    assert!(!mine.is_empty());
    assert!(
        mine.iter().all(|j| j["principal"] == "batch"),
        "batch's LIST leaked foreign jobs: {mine:?}"
    );
    let mut root = Client::connect(router.addr()).expect("connect root");
    root.auth("tok-root").expect("auth root");
    let all = root.list().expect("root list");
    assert!(all.len() > mine.len(), "admin LIST: {all:?}");

    // STATS sums every backend's per-tenant byte counters.
    let stats = root.stats().expect("stats");
    assert_eq!(stats.get("tenants").map(String::as_str), Some("3"));
    let batch_bytes: u64 = (0..3)
        .find(|i| stats[&format!("tenant{i}-name")] == "batch")
        .map(|i| stats[&format!("tenant{i}-bytes")].parse().expect("numeric"))
        .expect("batch in STATS");
    assert!(batch_bytes > 0, "{stats:?}");

    // ADDNODE takes any single word as an address and NODES is open to
    // every tenant, so a token pasted as an address must come back
    // redacted like every other reply line.
    root.add_node("tok-batch").expect("addnode");
    let nodes = alice.nodes().expect("nodes");
    assert!(
        nodes
            .iter()
            .flat_map(|n| n.values())
            .all(|v| !v.contains("tok-batch")),
        "NODES echoed a registered token: {nodes:?}"
    );

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// A live follower of a slow job gets its first result as soon as that
/// result is buffered, straight from `kplexd` and through `kplexr`: no tier
/// holds a ready line back to fill a write buffer or to wait out a timer.
/// Counted, not timed, so a slow host cannot fail it: when the first line
/// arrives, `STATUS` on a second connection must still report only a few
/// buffered results. A tier that held lines until an 8 KiB buffer filled
/// would first deliver after ~140 of these.
#[test]
fn a_live_follower_gets_each_result_without_batching_delay() {
    let backend = start_backend(1);
    let router = start_router(&[backend.addr().to_string()]);
    for addr in [backend.addr(), router.addr()] {
        let mut c = Client::connect(addr).expect("connect");
        let mut probe = Client::connect(addr).expect("connect probe");
        let mut args = SubmitArgs::dataset("jazz", 2, 9);
        args.threads = Some(1);
        args.throttle_us = Some(10_000); // one result per 10 ms
        let id = c.submit(&args).expect("submit");
        let mut buffered_at_first = None;
        let end = c
            .stream_while(id, |_, _| {
                let status = probe.status(id).expect("status at the first line");
                buffered_at_first = status.get("results").and_then(|r| r.parse::<u64>().ok());
                false
            })
            .expect("stream");
        assert!(end.is_none(), "jazz (2, 9) must stream results first");
        probe.cancel(id).expect("cancel");
        let buffered = buffered_at_first.expect("STATUS reports results=");
        assert!(
            buffered < 32,
            "{addr}: the first line arrived after {buffered} results were buffered"
        );
    }
    router.shutdown();
    backend.shutdown();
}

/// The router keeps the records of jobs it has seen finish only up to the
/// backends' own backlog: `STATS jobs=` stays bounded however many jobs
/// pass through, and the oldest id answers `ERR no such job`, as a
/// backend's evicted id does.
#[test]
fn the_router_retains_a_bounded_backlog_of_finished_jobs() {
    let backend = start_backend(1);
    let router = start_router(&[backend.addr().to_string()]);
    let mut c = Client::connect(router.addr()).expect("connect");
    // q above jazz's degeneracy: an empty core, so each job is quick.
    let mut args = SubmitArgs::dataset("jazz", 2, 40);
    args.threads = Some(1);
    let mut ids = Vec::new();
    for _ in 0..RETAIN_TERMINAL_JOBS + 8 {
        let id = c.submit(&args).expect("submit");
        let end = c.stream(id, |_, _| {}).expect("stream");
        assert_eq!(end.get("state").map(String::as_str), Some("done"));
        ids.push(id);
    }
    let jobs: usize = c.stats().expect("stats")["jobs"].parse().expect("jobs=");
    assert!(
        jobs <= RETAIN_TERMINAL_JOBS + 1,
        "{jobs} routed-job records after {} jobs",
        ids.len()
    );
    match c.status(ids[0]) {
        Err(ClientError::Remote(msg)) => assert_eq!(msg, format!("no such job {}", ids[0])),
        other => panic!("the oldest finished job is still served: {other:?}"),
    }
    let newest = c
        .status(*ids.last().unwrap())
        .expect("the newest job is kept");
    assert_eq!(newest.get("state").map(String::as_str), Some("done"));
    router.shutdown();
    backend.shutdown();
}
