//! End-to-end tests of the extension APIs: maximum k-plex solving, CTCP
//! reduction, the result verifier, and the pivot-rule ablation variants.

use kplex_core::{
    ctcp_reduce, enumerate_collect, maximum_kplex, verify_complete, verify_results, AlgoConfig,
    Algorithm, Params,
};
use kplex_graph::{gen, induced_diameter, GraphStore};

#[test]
fn maximum_agrees_with_enumeration_on_every_generator() {
    let graphs = [
        gen::gnp(40, 0.4, 1),
        gen::powerlaw_cluster(80, 5, 0.7, 2),
        gen::caveman(60, 5, 6, 9, 40, 3),
        gen::watts_strogatz(50, 4, 0.2, 4),
    ];
    for (i, g) in graphs.iter().enumerate() {
        for k in [2usize, 3] {
            let q = 2 * k - 1;
            let params = Params::new(k, q).unwrap();
            let (all, _) = enumerate_collect(g, params, &AlgoConfig::ours());
            let expected = all.iter().map(Vec::len).max();
            let got = maximum_kplex(g, k, q, &AlgoConfig::ours());
            assert_eq!(got.plex.as_ref().map(Vec::len), expected, "graph {i} k {k}");
            // The reported maximum is among the enumerated maximal plexes.
            if let Some(p) = got.plex {
                assert!(all.contains(&p), "graph {i} k {k}: {p:?} not maximal");
            }
        }
    }
}

#[test]
fn ctcp_composes_with_every_algorithm() {
    let g = gen::powerlaw_cluster(150, 5, 0.7, 9);
    let params = Params::new(2, 7).unwrap();
    let red = ctcp_reduce(&g, params);
    assert!(red.graph.num_vertices() <= g.num_vertices());
    let (direct, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
    // A CSR input keeps its reduction resident as CSR, which is what the
    // baseline algorithms (still CSR-typed) consume.
    let reduced = red.graph.as_csr().expect("csr input stays csr");
    for algo in [
        Algorithm::Ours,
        Algorithm::ListPlex,
        Algorithm::Fp,
        Algorithm::D2k,
    ] {
        let (on_reduced, _) = algo.run_collect(reduced, params);
        let mut mapped: Vec<Vec<u32>> = on_reduced
            .into_iter()
            .map(|p| p.iter().map(|&v| red.map[v as usize]).collect())
            .collect();
        mapped.sort();
        assert_eq!(mapped, direct, "{} on CTCP-reduced graph", algo.name());
    }
}

#[test]
fn verifier_certifies_every_algorithm_end_to_end() {
    let g = gen::caveman(120, 9, 6, 9, 60, 17);
    let (k, q) = (2usize, 6usize);
    let params = Params::new(k, q).unwrap();
    for algo in Algorithm::ALL {
        let (res, _) = algo.run_collect(&g, params);
        let violations = verify_complete(&g, k, q, &res);
        assert!(
            violations.is_empty(),
            "{}: {} violation(s), first: {}",
            algo.name(),
            violations.len(),
            violations[0]
        );
    }
}

#[test]
fn verifier_rejects_perturbed_outputs() {
    let g = gen::powerlaw_cluster(100, 5, 0.8, 21);
    let params = Params::new(2, 6).unwrap();
    let (mut res, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
    if res.is_empty() {
        return;
    }
    // Drop a vertex from one plex: either no longer maximal or not a plex.
    res[0].pop();
    let violations = verify_results(&g, 2, 6, &res);
    assert!(!violations.is_empty());
}

#[test]
fn results_satisfy_theorem_3_3_diameter_bound() {
    // Independent check of Theorem 3.3 on real outputs: plexes of size
    // >= 2k-1 have induced diameter <= 2.
    let g = gen::powerlaw_cluster(200, 6, 0.6, 23);
    for k in [2usize, 3] {
        let params = Params::new(k, 2 * k - 1).unwrap();
        let (res, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
        for p in res.iter().take(200) {
            let d = induced_diameter(&g, p);
            assert!(
                matches!(d, Some(d) if d <= 2),
                "plex {p:?} (k={k}) has induced diameter {d:?}"
            );
        }
    }
}

#[test]
fn pivot_ablation_variants_agree_and_order_by_work() {
    let g = gen::powerlaw_cluster(150, 6, 0.7, 27);
    let params = Params::new(3, 7).unwrap();
    let (reference, s_ours) = Algorithm::Ours.run_collect(&g, params);
    let (first, s_first) = Algorithm::OursFirstPivot.run_collect(&g, params);
    let (mindeg, s_mindeg) = Algorithm::OursMinDegPivot.run_collect(&g, params);
    assert_eq!(first, reference);
    assert_eq!(mindeg, reference);
    // Weaker pivots never branch less than the full rule.
    assert!(s_first.branch_calls >= s_ours.branch_calls);
    assert!(s_mindeg.branch_calls >= s_ours.branch_calls);
}

#[test]
fn lfr_communities_are_mined_as_plexes() {
    // Low-mixing LFR graphs have dense communities; the miner must find
    // large plexes inside them and the verifier must accept the output.
    let cfg = gen::LfrConfig {
        n: 300,
        avg_degree: 12,
        max_degree: 30,
        community_lo: 10,
        community_hi: 16,
        mu: 0.1,
        ..gen::LfrConfig::default()
    };
    let lfr = gen::lfr(&cfg, 31);
    let params = Params::new(3, 6).unwrap();
    let (res, _) = enumerate_collect(&lfr.graph, params, &AlgoConfig::ours());
    assert!(
        !res.is_empty(),
        "LFR communities should contain 3-plexes of size 6"
    );
    // Most results should be community-pure (all members share a community).
    let pure = res
        .iter()
        .filter(|p| {
            let c0 = lfr.community[p[0] as usize];
            p.iter().all(|&v| lfr.community[v as usize] == c0)
        })
        .count();
    assert!(
        pure * 2 >= res.len(),
        "only {pure}/{} plexes are community-pure",
        res.len()
    );
}
