//! D2K baseline \[15] (Conte et al., KDD 2018), reimplemented from its
//! published description.
//!
//! D2K introduced the decomposition this whole line of work builds on:
//! seed vertices in degeneracy order, each mined over its diameter-2
//! subgraph. Its branching uses only a *simple* pivoting technique (the
//! paper credits FaPlexen with the first effective pivot rule), no
//! upper-bound pruning, and no vertex-pair rules. Like FP — and unlike
//! ListPlex — it does not split seeds into `S`-sub-tasks.

use crate::config::{AlgoConfig, BranchingKind, Params, PivotKind, TaskLayout, UpperBoundKind};
use crate::enumerate::enumerate;
use crate::sink::PlexSink;
use crate::stats::SearchStats;
use kplex_graph::GraphStore;

/// The engine configuration that realises D2K.
pub fn d2k_config() -> AlgoConfig {
    AlgoConfig {
        pivot: PivotKind::FirstCandidate,
        upper_bound: UpperBoundKind::None,
        use_r1: false,
        use_r2: false,
        branching: BranchingKind::RepickPivot, // unreachable with First pivots
        // D2K prunes candidates by the common-neighbour rule once.
        seed_prune_rounds: 1,
        prune_xout: true,
        task_layout: TaskLayout::WholeSeed,
    }
}

/// Enumerates all maximal k-plexes with `|P| >= q` using D2K.
pub fn enumerate_d2k<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    sink: &mut dyn PlexSink,
) -> SearchStats {
    enumerate(g, params, &d2k_config(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, CollectSink};
    use kplex_graph::gen;

    #[test]
    fn d2k_matches_oracle() {
        for seed in 0..10 {
            let g = gen::gnp(14, 0.4, 300 + seed);
            for (k, q) in [(2, 3), (3, 5)] {
                let params = Params::new(k, q).unwrap();
                let mut sink = CollectSink::default();
                enumerate_d2k(&g, params, &mut sink);
                assert_eq!(
                    sink.into_sorted(),
                    naive::brute_force(&g, k, q),
                    "seed {seed} k {k} q {q}"
                );
            }
        }
    }

    #[test]
    fn d2k_is_slower_than_ours() {
        // Simple pivoting explores at least as many branches.
        let g = gen::powerlaw_cluster(120, 5, 0.7, 9);
        let params = Params::new(2, 5).unwrap();
        let (ours, s_ours) = crate::enumerate_collect(&g, params, &AlgoConfig::ours());
        let mut sink = CollectSink::default();
        let s_d2k = enumerate_d2k(&g, params, &mut sink);
        assert_eq!(sink.into_sorted(), ours);
        assert!(s_d2k.branch_calls >= s_ours.branch_calls);
    }
}
