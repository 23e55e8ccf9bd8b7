//! Differential cross-validation: `enumerate_collect` (ours) against the
//! naive Bron–Kerbosch oracle and the ListPlex / FP baselines, over the
//! (k, q) grid k ∈ {1, 2, 3} × q ∈ {3, …, 6} on a fixed battery of random
//! G(n, p) and planted-plex instances.
//!
//! This is the methodology ListPlex (Wang & Xiao 2022) and FP (Dai et al.
//! 2022) themselves use to validate their implementations: independent
//! enumerators must produce byte-identical sorted result sets. k = 1
//! degenerates to maximal clique listing, so that row doubles as a clique
//! sanity check against a well-understood problem.

use kplex_core::naive::naive_bron_kerbosch;
use kplex_core::plex::is_kplex;
use kplex_core::{enumerate_collect, AlgoConfig, Algorithm, Params};
use kplex_graph::{gen, CsrGraph};

/// The (k, q) grid of the differential suite. Combinations violating the
/// paper's q >= 2k - 1 precondition are skipped by `Params::new`.
const KQ_GRID: [(usize, usize); 12] = [
    (1, 3),
    (1, 4),
    (1, 5),
    (1, 6),
    (2, 3),
    (2, 4),
    (2, 5),
    (2, 6),
    (3, 3), // rejected: q < 2k - 1
    (3, 4), // rejected: q < 2k - 1
    (3, 5),
    (3, 6),
];

/// Runs the full differential comparison on one instance. Returns the
/// number of (k, q) cells exercised.
fn differential_check(g: &CsrGraph, label: &str) -> usize {
    let mut cells = 0;
    for (k, q) in KQ_GRID {
        let Ok(params) = Params::new(k, q) else {
            continue;
        };
        cells += 1;
        let oracle = naive_bron_kerbosch(g, k, q);
        let (ours, stats) = enumerate_collect(g, params, &AlgoConfig::ours());
        assert_eq!(
            ours, oracle,
            "ours diverged from naive on {label} (k={k}, q={q})"
        );
        assert_eq!(
            stats.outputs as usize,
            oracle.len(),
            "{label} stats.outputs"
        );
        for baseline in [Algorithm::ListPlex, Algorithm::Fp] {
            let (got, _) = baseline.run_collect(g, params);
            assert_eq!(
                got,
                oracle,
                "{} diverged from naive on {label} (k={k}, q={q})",
                baseline.name()
            );
        }
    }
    cells
}

/// The random-graph battery: G(n, p) across sizes, densities and seeds.
fn gnp_instances() -> Vec<(String, CsrGraph)> {
    let mut graphs = Vec::new();
    for &n in &[12usize, 14, 16] {
        for &(p, tag) in &[(0.3f64, "sparse"), (0.45, "medium"), (0.6, "dense")] {
            for seed in 0..2u64 {
                let label = format!("gnp(n={n}, p={tag}, seed={seed})");
                graphs.push((label, gen::gnp(n, p, 1000 + n as u64 * 10 + seed)));
            }
        }
    }
    graphs
}

/// The planted-plex battery: noisy k-plexes of known location embedded in
/// sparse G(n, m) background noise.
fn planted_instances() -> Vec<(String, CsrGraph, Vec<Vec<u32>>)> {
    let mut graphs = Vec::new();
    for seed in 0..6u64 {
        let bg = gen::gnm(36, 48, 2000 + seed);
        let cfg = gen::PlantedPlexConfig {
            count: 2,
            size_lo: 6,
            size_hi: 7,
            missing: 1,
            overlap: seed % 2 == 1,
        };
        let (g, report) = gen::planted_plexes(&bg, &cfg, 3000 + seed);
        graphs.push((format!("planted(seed={seed})"), g, report.plexes));
    }
    graphs
}

#[test]
fn differential_gnp_battery() {
    let graphs = gnp_instances();
    assert!(graphs.len() >= 14, "battery too small: {}", graphs.len());
    let mut cells = 0;
    for (label, g) in &graphs {
        cells += differential_check(g, label);
    }
    // 10 valid (k, q) cells per instance.
    assert_eq!(cells, graphs.len() * 10);
}

#[test]
fn differential_planted_battery() {
    let graphs = planted_instances();
    assert_eq!(graphs.len(), 6);
    for (label, g, planted) in &graphs {
        differential_check(g, label);
        // Every planted 2-plex of size >= 6 must appear inside some reported
        // maximal 2-plex (the planting may merge with background edges).
        let params = Params::new(2, 6).unwrap();
        let (ours, _) = enumerate_collect(g, params, &AlgoConfig::ours());
        for plex in planted {
            assert!(
                is_kplex(g, plex, 2),
                "{label}: planted set {plex:?} is not a 2-plex"
            );
            assert!(
                ours.iter().any(|p| plex.iter().all(|v| p.contains(v))),
                "{label}: planted plex {plex:?} not covered by any result"
            );
        }
    }
}

#[test]
fn differential_battery_is_at_least_twenty_instances() {
    // The acceptance bar of the suite: >= 20 independently generated
    // instances flow through the full ours-vs-naive-vs-ListPlex-vs-FP
    // comparison.
    let total = gnp_instances().len() + planted_instances().len();
    assert!(total >= 20, "only {total} differential instances");
}

#[test]
fn k1_row_equals_maximal_clique_listing() {
    // For k = 1 a k-plex is exactly a clique: cross-check the k = 1 row of
    // the grid against easily verifiable clique structure.
    let g = gen::turan(12, 4); // complete 4-partite, parts of size 3
    let params = Params::new(1, 4).unwrap();
    let (cliques, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
    // Maximal cliques of Turán T(12, 4) pick one vertex per part: 3^4 = 81.
    assert_eq!(cliques.len(), 81);
    for c in &cliques {
        assert_eq!(c.len(), 4);
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                assert!(g.has_edge(u, v));
            }
        }
    }
    assert_eq!(cliques, naive_bron_kerbosch(&g, 1, 4));
}
