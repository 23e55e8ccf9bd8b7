//! Property-based tests (proptest) over the enumeration invariants.
//!
//! For arbitrary random graphs and parameters:
//! * every reported set is a k-plex with at least q vertices,
//! * every reported set is maximal in the input graph,
//! * no set is reported twice,
//! * all algorithm variants and the parallel engine report the same sets,
//! * disabling pruning rules never changes the result set.

use kplex_core::plex::{is_kplex, is_maximal_kplex};
use kplex_core::{enumerate_collect, enumerate_count, AlgoConfig, Algorithm, Params};
use kplex_graph::{CsrGraph, VertexId};
use kplex_parallel::{par_enumerate_collect, par_enumerate_count, EngineOptions};
use proptest::prelude::*;

/// Strategy: a random simple graph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (4usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=max_edges.min(160))
            .prop_map(move |pairs| CsrGraph::from_edges(n, pairs).expect("in range"))
    })
}

/// Strategy: valid (k, q) pairs in the paper's regime.
fn arb_params() -> impl Strategy<Value = Params> {
    (1usize..=4).prop_flat_map(|k| {
        let min_q = 2 * k - 1;
        (min_q..=min_q + 4).prop_map(move |q| Params::new(k, q).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn outputs_are_maximal_kplexes_of_size_q(g in arb_graph(18), params in arb_params()) {
        let (plexes, stats) = enumerate_collect(&g, params, &AlgoConfig::ours());
        prop_assert_eq!(plexes.len() as u64, stats.outputs);
        for p in &plexes {
            prop_assert!(p.len() >= params.q, "too small: {:?}", p);
            prop_assert!(is_kplex(&g, p, params.k), "not a k-plex: {:?}", p);
            prop_assert!(is_maximal_kplex(&g, p, params.k), "not maximal: {:?}", p);
        }
        // No duplicates (plexes are sorted by enumerate_collect).
        let mut dedup = plexes.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), plexes.len());
    }

    #[test]
    fn all_variants_agree(g in arb_graph(16), params in arb_params()) {
        let (reference, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
        for algo in Algorithm::ALL {
            let (got, _) = algo.run_collect(&g, params);
            prop_assert_eq!(&got, &reference, "{} diverged", algo.name());
        }
    }

    #[test]
    fn parallel_engine_agrees(g in arb_graph(20), params in arb_params()) {
        let (reference, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
        let opts = EngineOptions::with_threads(3);
        let (par, _) = par_enumerate_collect(&g, params, &AlgoConfig::ours(), &opts);
        prop_assert_eq!(par, reference);
    }

    #[test]
    fn parallel_count_matches_serial_under_1_2_4_threads(g in arb_graph(20), params in arb_params()) {
        let (serial, _) = enumerate_count(&g, params, &AlgoConfig::ours());
        for threads in [1usize, 2, 4] {
            let opts = EngineOptions::with_threads(threads);
            let (par, _) = par_enumerate_count(&g, params, &AlgoConfig::ours(), &opts);
            prop_assert_eq!(par, serial, "count diverged at {} threads: {} != {}", threads, par, serial);
        }
    }

    #[test]
    fn pruning_flags_never_change_results(g in arb_graph(16), params in arb_params()) {
        let (reference, s_ours) = enumerate_collect(&g, params, &AlgoConfig::ours());
        let (basic, s_basic) = enumerate_collect(&g, params, &AlgoConfig::basic());
        prop_assert_eq!(&basic, &reference);
        // Pruning can only reduce explored branches.
        prop_assert!(s_ours.branch_calls <= s_basic.branch_calls);
        let (no_ub, s_no_ub) = enumerate_collect(&g, params, &AlgoConfig::ours_no_ub());
        prop_assert_eq!(&no_ub, &reference);
        prop_assert!(s_ours.ub_pruned >= s_no_ub.ub_pruned);
    }

    #[test]
    fn every_output_extends_no_further(g in arb_graph(14), params in arb_params()) {
        // Complementary check through the public verification API: adding
        // any outside vertex to a reported plex breaks the k-plex property.
        let (plexes, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
        for p in plexes.iter().take(10) {
            for v in g.vertices() {
                if p.contains(&v) {
                    continue;
                }
                let mut bigger = p.clone();
                bigger.push(v);
                bigger.sort_unstable();
                prop_assert!(
                    !is_kplex(&g, &bigger, params.k),
                    "{:?} + {v} is still a k-plex",
                    p
                );
            }
        }
    }

    #[test]
    fn core_reduction_is_lossless(g in arb_graph(18), params in arb_params()) {
        // Theorem 3.5: mining the (q-k)-core finds exactly the same plexes
        // as mining the whole graph. The naive oracle mines the whole graph.
        if g.num_vertices() <= 14 {
            let oracle = kplex_core::naive::brute_force(&g, params.k, params.q);
            let (got, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
            prop_assert_eq!(got, oracle);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn timeout_splitting_preserves_results(g in arb_graph(24), k in 2usize..=3) {
        let params = Params::new(k, 2 * k - 1).expect("valid");
        let (reference, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
        let mut opts = EngineOptions::with_threads(2);
        opts.timeout = Some(std::time::Duration::from_nanos(0));
        let (split, _) = par_enumerate_collect(&g, params, &AlgoConfig::ours(), &opts);
        prop_assert_eq!(split, reference);
    }
}
