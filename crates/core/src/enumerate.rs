//! Top-level sequential driver (Algorithm 2).
//!
//! `enumerate` wires the full pipeline together: shrink the input to its
//! (q−k)-core (Theorem 3.5), compute the degeneracy ordering, then run the
//! seed loop ([`crate::driver`]) on the caller's thread: build one seed
//! subgraph per seed vertex, split it into initial tasks, and run the
//! branch-and-bound searcher on each. [`prepare`] is public so the parallel
//! runtime (crate `kplex-parallel`) and long-lived callers can reuse it.

use crate::config::{AlgoConfig, Params};
use crate::driver::Driver;
use crate::sink::{CollectSink, CountSink, PlexSink, SinkFlow};
use crate::stats::SearchStats;
use kplex_graph::{
    core_decomposition, kcore_backend, CoreDecomposition, GraphStore, StoreBackend, VertexId,
};
use std::sync::Arc;

/// The preprocessed problem: core-reduced graph plus its degeneracy ordering.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The (q−k)-core of the input, densely renumbered, resident as the
    /// backend the input's [`StoreKind::resident`] rule selects (CSR inputs
    /// stay CSR; compressed and mmap inputs keep the working set compressed).
    ///
    /// [`StoreKind::resident`]: kplex_graph::StoreKind::resident
    pub graph: StoreBackend,
    /// Reduced id -> original id (strictly increasing).
    pub map: Vec<VertexId>,
    /// Core decomposition of the reduced graph.
    pub decomp: CoreDecomposition,
}

/// Applies Theorem 3.5 and computes the degeneracy ordering. Accepts any
/// [`GraphStore`] backend; the reduced rows are streamed straight into the
/// resident form, so an out-of-core input is never copied uncompressed.
pub fn prepare<G: GraphStore + ?Sized>(g: &G, params: Params) -> Prepared {
    let shrink_to = (params.q - params.k) as u32;
    let (graph, map) = kcore_backend(g, shrink_to, g.kind());
    let decomp = core_decomposition(&graph);
    Prepared { graph, map, decomp }
}

/// A sink adapter translating reduced ids back to the caller's ids. The
/// reduction map is strictly increasing, so sortedness is preserved.
pub struct MapSink<'a> {
    inner: &'a mut dyn PlexSink,
    map: &'a [VertexId],
    buf: Vec<VertexId>,
}

impl<'a> MapSink<'a> {
    /// Wraps `inner` with the id translation `map`.
    pub fn new(inner: &'a mut dyn PlexSink, map: &'a [VertexId]) -> Self {
        Self {
            inner,
            map,
            buf: Vec::new(),
        }
    }
}

impl PlexSink for MapSink<'_> {
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow {
        self.buf.clear();
        self.buf
            .extend(vertices.iter().map(|&v| self.map[v as usize]));
        self.inner.report(&self.buf)
    }
}

/// Enumerates all maximal k-plexes of `g` with at least `q` vertices,
/// streaming them into `sink` from the caller's thread. Returns the search
/// statistics. Works over any [`GraphStore`] backend.
///
/// Seeds are walked in degeneracy order, last first (see
/// [`crate::driver`]): the dense core, where large plexes sit, comes first,
/// so the first result does not wait for every sparse seed. A 1-thread
/// engine run is this same loop and emits the same sequence.
pub fn enumerate<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    cfg: &AlgoConfig,
    sink: &mut dyn PlexSink,
) -> SearchStats {
    let prep = prepare(g, params);
    let mut stats = SearchStats::default();
    let driver = Driver::new(&prep, params, cfg, None, Arc::default());
    driver.run_local(Vec::new(), sink, &mut stats);
    stats
}

/// Convenience: count results.
pub fn enumerate_count<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    cfg: &AlgoConfig,
) -> (u64, SearchStats) {
    let mut sink = CountSink::default();
    let stats = enumerate(g, params, cfg, &mut sink);
    (sink.count, stats)
}

/// Convenience: collect results in canonical (sorted) order.
pub fn enumerate_collect<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    cfg: &AlgoConfig,
) -> (Vec<Vec<VertexId>>, SearchStats) {
    let mut sink = CollectSink::default();
    let stats = enumerate(g, params, cfg, &mut sink);
    (sink.into_sorted(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{brute_force, naive_bron_kerbosch};
    use kplex_graph::gen;

    #[test]
    fn clique_enumeration() {
        let g = gen::complete(7);
        let params = Params::new(2, 4).unwrap();
        let (res, stats) = enumerate_collect(&g, params, &AlgoConfig::ours());
        assert_eq!(res, vec![vec![0, 1, 2, 3, 4, 5, 6]]);
        assert_eq!(stats.outputs, 1);
    }

    #[test]
    fn matches_brute_force_on_tiny_graphs() {
        for seed in 0..40 {
            let g = gen::gnp(12, 0.45, seed);
            for (k, q) in [(1, 3), (2, 3), (2, 4), (3, 5)] {
                let params = Params::new(k, q).unwrap();
                let expected = brute_force(&g, k, q);
                let (got, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
                assert_eq!(got, expected, "seed {seed} k {k} q {q}");
            }
        }
    }

    #[test]
    fn matches_naive_bk_on_mid_graphs() {
        for seed in 0..8 {
            let g = gen::gnp(28, 0.3, 100 + seed);
            for (k, q) in [(2, 4), (3, 5)] {
                let params = Params::new(k, q).unwrap();
                let expected = naive_bron_kerbosch(&g, k, q);
                let (got, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
                assert_eq!(got, expected, "seed {seed} k {k} q {q}");
            }
        }
    }

    #[test]
    fn all_variants_agree() {
        let variants = [
            AlgoConfig::ours(),
            AlgoConfig::ours_p(),
            AlgoConfig::ours_no_ub(),
            AlgoConfig::ours_fp_ub(),
            AlgoConfig::basic(),
            AlgoConfig::basic_r1(),
            AlgoConfig::basic_r2(),
        ];
        for seed in 0..6 {
            let g = gen::gnp(24, 0.4, 200 + seed);
            let params = Params::new(2, 4).unwrap();
            let (reference, _) = enumerate_collect(&g, params, &variants[0]);
            for (i, cfg) in variants.iter().enumerate().skip(1) {
                let (got, _) = enumerate_collect(&g, params, cfg);
                assert_eq!(got, reference, "variant {i} diverged on seed {seed}");
            }
        }
    }

    #[test]
    fn pruning_reduces_branch_calls() {
        let g = gen::powerlaw_cluster(150, 6, 0.7, 3);
        let params = Params::new(3, 6).unwrap();
        let (r_ours, s_ours) = enumerate_collect(&g, params, &AlgoConfig::ours());
        let (r_basic, s_basic) = enumerate_collect(&g, params, &AlgoConfig::basic());
        assert_eq!(r_ours, r_basic);
        assert!(
            s_ours.branch_calls <= s_basic.branch_calls,
            "pruning must not increase work: {} vs {}",
            s_ours.branch_calls,
            s_basic.branch_calls
        );
    }

    #[test]
    fn early_stop_via_sink() {
        let g = gen::gnp(20, 0.6, 5);
        let params = Params::new(2, 3).unwrap();
        let mut sink = crate::sink::FirstN::new(1);
        enumerate(&g, params, &AlgoConfig::ours(), &mut sink);
        assert_eq!(sink.plexes.len(), 1);
    }

    #[test]
    fn planted_plexes_are_found() {
        let bg = gen::gnm(120, 200, 9);
        let cfg = gen::PlantedPlexConfig {
            count: 4,
            size_lo: 9,
            size_hi: 11,
            missing: 1,
            overlap: false,
        };
        let (g, report) = gen::planted_plexes(&bg, &cfg, 77);
        let params = Params::new(2, 8).unwrap();
        let (res, _) = enumerate_collect(&g, params, &AlgoConfig::ours());
        // Every planted 2-plex must be contained in some reported plex.
        for planted in &report.plexes {
            let found = res.iter().any(|r| planted.iter().all(|v| r.contains(v)));
            assert!(found, "planted plex {planted:?} not covered by any result");
        }
    }

    #[test]
    fn empty_and_trivial_inputs() {
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        assert_eq!(enumerate_count(&gen::empty(0), params, &cfg).0, 0);
        assert_eq!(enumerate_count(&gen::empty(10), params, &cfg).0, 0);
        assert_eq!(enumerate_count(&gen::path(10), params, &cfg).0, 0);
    }
}
