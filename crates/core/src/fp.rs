//! FP baseline [\[16\]](https://arxiv.org/abs/2203.10760) (Dai et al.,
//! CIKM 2022), reimplemented from its published description.
//!
//! FP enumerates over seed subgraphs like the other algorithms but does
//! **not** partition them into `S`-sub-tasks: each seed spawns a single
//! branch-and-bound task whose candidate set contains the full later
//! two-hop ball. Pruning relies on an upper bound computed with a sorting
//! pass per recursion ([\[16\], Lemma 5](https://arxiv.org/abs/2203.10760);
//! `UpperBoundKind::FpSorting` in the engine). FP performs weaker subgraph
//! reduction, which is also why its memory footprint is larger (Table 7 of
//! the paper). Its whole-seed tasks are [`TaskLayout::WholeSeed`], so FP is
//! the configuration below, run by the same seed loop as every algorithm.

use crate::config::{AlgoConfig, BranchingKind, Params, PivotKind, TaskLayout, UpperBoundKind};
use crate::enumerate::enumerate;
use crate::sink::PlexSink;
use crate::stats::SearchStats;
use kplex_graph::GraphStore;

/// The engine configuration that realises FP.
pub fn fp_config() -> AlgoConfig {
    AlgoConfig {
        pivot: PivotKind::MinDegree,
        upper_bound: UpperBoundKind::FpSorting,
        use_r1: false,
        use_r2: false,
        branching: BranchingKind::RepickPivot,
        // FP applies one pass of second-order reduction when building
        // subgraphs (weaker than the iterated CTCP-style reduction of
        // kPlexS/ListPlex) and keeps full exclusive sets, which is also why
        // its memory footprint is larger (Table 7).
        seed_prune_rounds: 1,
        prune_xout: false,
        task_layout: TaskLayout::WholeSeed,
    }
}

/// Enumerates all maximal k-plexes with `|P| >= q` using FP: one task per
/// seed vertex, candidates = the entire later two-hop ball.
pub fn enumerate_fp<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    sink: &mut dyn PlexSink,
) -> SearchStats {
    enumerate(g, params, &fp_config(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, CollectSink};
    use kplex_graph::gen;

    #[test]
    fn fp_matches_oracle() {
        for seed in 0..10 {
            let g = gen::gnp(14, 0.4, 100 + seed);
            for (k, q) in [(2, 3), (2, 4), (3, 5)] {
                let params = Params::new(k, q).unwrap();
                let mut sink = CollectSink::default();
                enumerate_fp(&g, params, &mut sink);
                assert_eq!(
                    sink.into_sorted(),
                    naive::brute_force(&g, k, q),
                    "seed {seed} k {k} q {q}"
                );
            }
        }
    }

    #[test]
    fn fp_matches_ours_on_larger_graphs() {
        let g = gen::powerlaw_cluster(150, 5, 0.7, 4);
        let params = Params::new(2, 5).unwrap();
        let (ours, _) = crate::enumerate_collect(&g, params, &AlgoConfig::ours());
        let mut sink = CollectSink::default();
        let stats = enumerate_fp(&g, params, &mut sink);
        assert_eq!(sink.into_sorted(), ours);
        // One task per seed graph, never more.
        assert_eq!(stats.subtasks, stats.seed_graphs);
    }

    #[test]
    fn fp_single_task_covers_two_hop_candidates() {
        // A graph with significant two-hop structure: FP has no S-subtasks,
        // so its subtask count equals its seed count, unlike ListPlex.
        let g = gen::gnp(40, 0.25, 9);
        let params = Params::new(3, 5).unwrap();
        let mut sink = CollectSink::default();
        let fp_stats = enumerate_fp(&g, params, &mut sink);
        let mut sink2 = CollectSink::default();
        let lp_stats = crate::listplex::enumerate_listplex(&g, params, &mut sink2);
        assert_eq!(sink.into_sorted(), sink2.into_sorted());
        assert!(fp_stats.subtasks <= lp_stats.subtasks);
    }
}
