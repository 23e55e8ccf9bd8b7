//! Cross-validation of every algorithm variant against the brute-force and
//! naive Bron–Kerbosch oracles, across graph families and (k, q) settings.
//!
//! This is the repository's ground-truth test: the paper's Table 3 property
//! that "all algorithms return the same result set" must hold all the way
//! down to an exhaustive subset scan.

use kplex_core::naive::{brute_force, naive_bron_kerbosch};
use kplex_core::{Algorithm, Params};
use kplex_graph::{gen, CsrGraph};

fn check_all_algorithms(g: &CsrGraph, k: usize, q: usize, oracle: &[Vec<u32>], label: &str) {
    let params = Params::new(k, q).unwrap();
    for algo in Algorithm::ALL {
        let (got, _) = algo.run_collect(g, params);
        assert_eq!(
            got,
            oracle,
            "{} diverged from oracle on {label} (k={k}, q={q})",
            algo.name()
        );
    }
}

#[test]
fn every_algorithm_matches_brute_force_on_random_graphs() {
    for seed in 0..15 {
        let g = gen::gnp(13, 0.45, seed);
        for (k, q) in [(1usize, 3usize), (2, 3), (2, 4), (3, 5), (4, 7)] {
            let oracle = brute_force(&g, k, q);
            check_all_algorithms(&g, k, q, &oracle, &format!("gnp(13,0.45,{seed})"));
        }
    }
}

#[test]
fn every_algorithm_matches_brute_force_on_dense_graphs() {
    for seed in 0..8 {
        let g = gen::gnp(12, 0.7, 100 + seed);
        for (k, q) in [(2usize, 4usize), (3, 5), (4, 7)] {
            let oracle = brute_force(&g, k, q);
            check_all_algorithms(&g, k, q, &oracle, &format!("gnp(12,0.7,{seed})"));
        }
    }
}

#[test]
fn every_algorithm_matches_naive_bk_on_sparse_structures() {
    let graphs: Vec<(String, CsrGraph)> = vec![
        ("path".into(), gen::path(30)),
        ("cycle".into(), gen::cycle(30)),
        ("star".into(), gen::star(30)),
        ("turan(12,3)".into(), gen::turan(12, 3)),
        ("complete(10)".into(), gen::complete(10)),
        ("caveman".into(), gen::caveman(40, 4, 5, 7, 15, 3)),
        ("ws".into(), gen::watts_strogatz(40, 3, 0.2, 5)),
        ("ba".into(), gen::barabasi_albert(40, 3, 7)),
    ];
    for (name, g) in &graphs {
        for (k, q) in [(2usize, 3usize), (3, 5)] {
            let oracle = naive_bron_kerbosch(g, k, q);
            check_all_algorithms(g, k, q, &oracle, name);
        }
    }
}

#[test]
fn every_algorithm_matches_naive_bk_on_clustered_graphs() {
    for seed in 0..4 {
        let g = gen::powerlaw_cluster(60, 4, 0.8, seed);
        for (k, q) in [(2usize, 4usize), (3, 5), (4, 7)] {
            let oracle = naive_bron_kerbosch(&g, k, q);
            check_all_algorithms(&g, k, q, &oracle, &format!("plc({seed})"));
        }
    }
}

#[test]
fn planted_plexes_recovered_by_all_algorithms() {
    let bg = gen::gnm(80, 120, 11);
    let cfg = gen::PlantedPlexConfig {
        count: 3,
        size_lo: 8,
        size_hi: 10,
        missing: 1,
        overlap: false,
    };
    let (g, report) = gen::planted_plexes(&bg, &cfg, 5);
    let params = Params::new(2, 8).unwrap();
    for algo in Algorithm::ALL {
        let (res, _) = algo.run_collect(&g, params);
        for planted in &report.plexes {
            assert!(
                res.iter().any(|p| planted.iter().all(|v| p.contains(v))),
                "{} missed planted plex {planted:?}",
                algo.name()
            );
        }
    }
}

#[test]
fn turan_graph_plex_structure() {
    // Turán T(9,3): complete tripartite with parts of size 3. For k = 3 and
    // q = 6, unions of two parts are... every vertex misses its own part
    // (2 others + itself = 3 <= k): the whole graph is a 3-plex.
    let g = gen::turan(9, 3);
    let oracle = brute_force(&g, 3, 6);
    assert_eq!(oracle, vec![(0..9u32).collect::<Vec<_>>()]);
    check_all_algorithms(&g, 3, 6, &oracle, "turan(9,3)");
}

#[test]
fn disconnected_components_are_mined_independently() {
    // Two K5s with no connection: each is the unique maximal 2-plex >= 4 in
    // its component.
    let mut edges = Vec::new();
    for base in [0u32, 5] {
        for i in 0..5 {
            for j in (i + 1)..5 {
                edges.push((base + i, base + j));
            }
        }
    }
    let g = CsrGraph::from_edges(10, edges).unwrap();
    let oracle = brute_force(&g, 2, 4);
    assert_eq!(oracle.len(), 2);
    check_all_algorithms(&g, 2, 4, &oracle, "two K5s");
}

#[test]
fn high_q_returns_empty_like_paper_q100_rows() {
    // The paper's as-skitter q=100 rows return zero plexes; the algorithms
    // must agree on emptiness quickly.
    let g = gen::powerlaw_cluster(200, 5, 0.6, 9);
    let params = Params::new(2, 50).unwrap();
    for algo in Algorithm::ALL {
        let (count, _) = algo.run_count(&g, params);
        assert_eq!(count, 0, "{}", algo.name());
    }
}
