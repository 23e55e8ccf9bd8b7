//! End-to-end pipeline tests: graph I/O → reduction → enumeration →
//! verification, plus dataset registry integration.

use kplex_core::plex::is_maximal_kplex;
use kplex_core::{enumerate_collect, AlgoConfig, Algorithm, Params};
use kplex_graph::{gen, io};

#[test]
fn edge_list_roundtrip_preserves_results() {
    let g = gen::powerlaw_cluster(120, 4, 0.7, 3);
    let params = Params::new(2, 6).unwrap();
    let (before, _) = enumerate_collect(&g, params, &AlgoConfig::ours());

    // Serialise to the text format and parse back.
    let mut buf = Vec::new();
    io::write_edge_list(&g, &mut buf).unwrap();
    let (g2, labels) = io::parse_edge_list(buf.as_slice()).unwrap();
    let (after_raw, _) = enumerate_collect(&g2, params, &AlgoConfig::ours());
    // Map the re-parsed ids back through the label table.
    let mut after: Vec<Vec<u32>> = after_raw
        .into_iter()
        .map(|p| {
            let mut m: Vec<u32> = p.iter().map(|&v| labels[v as usize] as u32).collect();
            m.sort_unstable();
            m
        })
        .collect();
    after.sort();
    assert_eq!(before, after);
}

#[test]
fn binary_roundtrip_preserves_results() {
    let g = gen::caveman(150, 10, 6, 9, 80, 7);
    let params = Params::new(3, 6).unwrap();
    let (before, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
    let bytes = io::encode_binary(&g);
    let g2 = io::decode_binary(&bytes).unwrap();
    let (after, _) = enumerate_collect(&g2, params, &AlgoConfig::ours());
    assert_eq!(before, after);
}

#[test]
fn registry_datasets_yield_verified_plexes() {
    // The `jazz` stand-in end to end: results are maximal k-plexes.
    let g = kplex_datasets::by_name("jazz").unwrap().load();
    let params = Params::new(2, 9).unwrap();
    let (plexes, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
    assert!(
        !plexes.is_empty(),
        "jazz must contain 2-plexes of size >= 9"
    );
    for p in plexes.iter().take(50) {
        assert!(is_maximal_kplex(&g, p, 2));
        assert!(p.len() >= 9);
    }
}

#[test]
fn algorithms_agree_on_registry_dataset() {
    let g = kplex_datasets::by_name("lastfm").unwrap().load();
    let params = Params::new(3, 10).unwrap();
    let (reference, _) = Algorithm::Ours.run_collect(&g, params);
    for algo in [Algorithm::ListPlex, Algorithm::Fp, Algorithm::OursP] {
        let (got, _) = algo.run_collect(&g, params);
        assert_eq!(got, reference, "{}", algo.name());
    }
}

#[test]
fn larger_q_results_nest_into_smaller_q_results() {
    // Every maximal plex of size >= q2 (q2 > q1) is also reported at q1.
    let g = gen::powerlaw_cluster(200, 5, 0.7, 13);
    let k = 2usize;
    let (loose, _) = enumerate_collect(&g, Params::new(k, 5).unwrap(), &AlgoConfig::ours());
    let (strict, _) = enumerate_collect(&g, Params::new(k, 8).unwrap(), &AlgoConfig::ours());
    for p in &strict {
        assert!(p.len() >= 8);
        assert!(loose.contains(p), "{p:?} missing at q=5");
    }
    // And the q=5 run contains nothing >= 8 that the strict run missed.
    for p in loose.iter().filter(|p| p.len() >= 8) {
        assert!(strict.contains(p), "{p:?} missing at q=8");
    }
}

#[test]
fn growing_k_relaxes_the_model() {
    // Every maximal 1-plex (clique) of size >= q is contained in some
    // maximal 2-plex of size >= q.
    let g = gen::powerlaw_cluster(150, 5, 0.8, 17);
    let q = 6usize;
    let (cliques, _) = enumerate_collect(&g, Params::new(1, q).unwrap(), &AlgoConfig::ours());
    let (plexes2, _) = enumerate_collect(&g, Params::new(2, q).unwrap(), &AlgoConfig::ours());
    for c in &cliques {
        assert!(
            plexes2.iter().any(|p| c.iter().all(|v| p.contains(v))),
            "clique {c:?} not covered by any 2-plex"
        );
    }
}

#[test]
fn stats_counters_are_consistent() {
    let g = gen::powerlaw_cluster(180, 5, 0.7, 19);
    let params = Params::new(3, 8).unwrap();
    let (plexes, stats) = enumerate_collect(&g, params, &AlgoConfig::ours());
    assert_eq!(stats.outputs as usize, plexes.len());
    assert!(stats.branch_calls >= stats.subtasks - stats.r1_pruned);
    assert!(stats.seed_graphs > 0);
}
