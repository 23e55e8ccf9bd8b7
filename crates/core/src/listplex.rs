//! ListPlex baseline [\[39\]](https://arxiv.org/abs/2202.08737) (Wang et
//! al., WWW 2022), reimplemented from its published description.
//!
//! ListPlex introduced the sub-task partitioning scheme that the paper
//! builds on (seed subgraphs over the degeneracy ordering, split by subsets
//! `S` of the seed's two-hop vertices), but pairs it with FaPlexen's pivoting
//! and multi-way branching (Eq (4)–(6) of the paper), and uses **no**
//! upper-bound pruning and **no** vertex-pair rules. In this repository all
//! of those mechanisms live in one engine (this crate), so ListPlex is the
//! exact engine configuration below — which is also what makes the paper's
//! Table 3 comparison an apples-to-apples measurement of the mechanisms.

use crate::config::{AlgoConfig, BranchingKind, Params, PivotKind, TaskLayout, UpperBoundKind};
use crate::enumerate::enumerate;
use crate::sink::PlexSink;
use crate::stats::SearchStats;
use kplex_graph::GraphStore;

/// The engine configuration that realises ListPlex.
pub fn listplex_config() -> AlgoConfig {
    AlgoConfig {
        pivot: PivotKind::MinDegree,
        upper_bound: UpperBoundKind::None,
        use_r1: false,
        use_r2: false,
        branching: BranchingKind::MultiWay,
        // ListPlex reduces seed subgraphs with the same second-order
        // (common-neighbour) rules; that machinery predates this paper.
        seed_prune_rounds: usize::MAX,
        prune_xout: true,
        task_layout: TaskLayout::SubTasks,
    }
}

/// Enumerates all maximal k-plexes with `|P| >= q` using ListPlex.
pub fn enumerate_listplex<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    sink: &mut dyn PlexSink,
) -> SearchStats {
    enumerate(g, params, &listplex_config(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, CollectSink};
    use kplex_graph::gen;

    #[test]
    fn listplex_matches_oracle() {
        for seed in 0..10 {
            let g = gen::gnp(14, 0.4, seed);
            for (k, q) in [(2, 3), (3, 5)] {
                let params = Params::new(k, q).unwrap();
                let mut sink = CollectSink::default();
                enumerate_listplex(&g, params, &mut sink);
                assert_eq!(
                    sink.into_sorted(),
                    naive::brute_force(&g, k, q),
                    "seed {seed} k {k} q {q}"
                );
            }
        }
    }

    #[test]
    fn listplex_visits_more_branches_than_ours() {
        // Without upper bounds and pair rules ListPlex must do at least as
        // much branching as the optimised algorithm.
        let g = gen::powerlaw_cluster(200, 5, 0.7, 11);
        let params = Params::new(3, 6).unwrap();
        let (ours, s_ours) = crate::enumerate_collect(&g, params, &AlgoConfig::ours());
        let mut sink = CollectSink::default();
        let s_lp = enumerate_listplex(&g, params, &mut sink);
        assert_eq!(sink.into_sorted(), ours);
        assert!(s_lp.branch_calls >= s_ours.branch_calls);
        assert_eq!(s_lp.ub_pruned, 0);
        assert_eq!(s_lp.pair_pruned, 0);
        assert_eq!(s_lp.r1_pruned, 0);
    }
}
