//! Problem parameters and algorithm configuration.
//!
//! Every named variant in the paper's evaluation (`Ours`, `Ours_P`,
//! `Ours\ub`, `Ours\ub+fp`, `Basic`, `Basic+R1`, `Basic+R2`, and the
//! FP, ListPlex and D2K baselines) is a different [`AlgoConfig`] over the
//! same search engine, which is what makes the comparisons of Tables 3, 5
//! and 6 exact apples-to-apples comparisons.

use crate::algorithms::Algorithm;
use std::fmt;

/// The problem instance parameters of Definition 3.4: enumerate all maximal
/// k-plexes with at least `q` vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Params {
    /// Plex slack: every member may miss up to `k` links (itself included).
    pub k: usize,
    /// Minimum output size; must satisfy `q >= 2k - 1` (Theorem 3.3) so that
    /// results are connected with diameter at most two.
    pub q: usize,
}

/// Parameter validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// `k` must be at least 1.
    KTooSmall,
    /// `q < 2k - 1` breaks the diameter-2 property the search relies on.
    QTooSmall {
        /// Provided q.
        q: usize,
        /// Minimum admissible q for the provided k.
        min_q: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::KTooSmall => write!(f, "k must be >= 1"),
            ParamError::QTooSmall { q, min_q } => {
                write!(
                    f,
                    "q = {q} too small: the algorithm requires q >= 2k-1 = {min_q}"
                )
            }
        }
    }
}

impl std::error::Error for ParamError {}

impl Params {
    /// Validated constructor.
    pub fn new(k: usize, q: usize) -> Result<Self, ParamError> {
        if k == 0 {
            return Err(ParamError::KTooSmall);
        }
        let min_q = 2 * k - 1;
        if q < min_q {
            return Err(ParamError::QTooSmall { q, min_q });
        }
        Ok(Self { k, q })
    }
}

/// Which upper bound is applied at line 17 of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UpperBoundKind {
    /// No upper-bound pruning (the `Ours\ub` ablation).
    None,
    /// The paper's Eq (3): min of Theorem 5.5 (Algorithm 4) and Theorem 5.3.
    #[default]
    Ours,
    /// FP's sorting-based bound [16, Lemma 5] (the `Ours\ub+fp` ablation).
    FpSorting,
}

/// How the pivot vertex is selected (Algorithm 3 lines 7–10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PivotKind {
    /// The paper's rule: minimum degree in G[P ∪ C], ties broken towards
    /// the most saturated vertex, preferring P-side pivots (lines 7–10).
    #[default]
    SaturationTieBreak,
    /// Minimum degree only, no saturation tie-break — FaPlexen/ListPlex's
    /// "less effective pivoting" the paper improves on.
    MinDegree,
    /// No pivot intelligence: branch on the first candidate (D2K-style
    /// simple pivoting).
    FirstCandidate,
}

/// How a pivot that lands inside `P` is handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BranchingKind {
    /// Re-pick a pivot among the P-pivot's candidate non-neighbours
    /// (Algorithm 3 lines 15–16) and branch binarily — the default `Ours`.
    #[default]
    RepickPivot,
    /// FaPlexen's multi-way branching Eq (4)–(6) — `Ours_P` and ListPlex.
    MultiWay,
}

/// How a seed subgraph is split into initial tasks (Algorithm 2 line 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TaskLayout {
    /// Disjoint sub-tasks over subsets `S` of the seed's two-hop vertices,
    /// pruned by R1 when enabled — ListPlex's partition and the paper's.
    #[default]
    SubTasks,
    /// One task per seed whose candidates are the whole later two-hop ball
    /// — the layout of FP and D2K.
    WholeSeed,
}

/// Full algorithm configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlgoConfig {
    /// Pivot selection rule.
    pub pivot: PivotKind,
    /// Upper bound used for branch pruning.
    pub upper_bound: UpperBoundKind,
    /// R1: prune initial sub-tasks via Theorem 5.7.
    pub use_r1: bool,
    /// R2: vertex-pair pruning via Theorems 5.13–5.15 (the T matrix).
    pub use_r2: bool,
    /// Branching scheme for P-side pivots.
    pub branching: BranchingKind,
    /// Rounds of Corollary 5.2 seed-subgraph pruning (0 disables; 2+ gives
    /// the cascade effect; usize::MAX iterates to fixpoint).
    pub seed_prune_rounds: usize,
    /// Also prune outside exclusive-set vertices with Theorem 5.1 thresholds.
    pub prune_xout: bool,
    /// How each seed subgraph is split into initial tasks.
    pub task_layout: TaskLayout,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        Self::ours()
    }
}

impl AlgoConfig {
    /// The paper's default algorithm `Ours`.
    pub fn ours() -> Self {
        Self {
            pivot: PivotKind::SaturationTieBreak,
            upper_bound: UpperBoundKind::Ours,
            use_r1: true,
            use_r2: true,
            branching: BranchingKind::RepickPivot,
            seed_prune_rounds: usize::MAX,
            prune_xout: true,
            task_layout: TaskLayout::SubTasks,
        }
    }

    /// The `Ours_P` variant: multi-way branching instead of pivot re-picking.
    pub fn ours_p() -> Self {
        Self {
            branching: BranchingKind::MultiWay,
            ..Self::ours()
        }
    }

    /// `Ours\ub` — upper-bound pruning disabled (Table 5).
    pub fn ours_no_ub() -> Self {
        Self {
            upper_bound: UpperBoundKind::None,
            ..Self::ours()
        }
    }

    /// `Ours\ub+fp` — FP's sorting-based upper bound (Table 5).
    pub fn ours_fp_ub() -> Self {
        Self {
            upper_bound: UpperBoundKind::FpSorting,
            ..Self::ours()
        }
    }

    /// `Basic` — no R1, no R2 (Table 6).
    pub fn basic() -> Self {
        Self {
            use_r1: false,
            use_r2: false,
            ..Self::ours()
        }
    }

    /// `Basic+R1` (Table 6).
    pub fn basic_r1() -> Self {
        Self {
            use_r1: true,
            use_r2: false,
            ..Self::ours()
        }
    }

    /// `Basic+R2` (Table 6).
    pub fn basic_r2() -> Self {
        Self {
            use_r1: false,
            use_r2: true,
            ..Self::ours()
        }
    }

    /// Pivot ablation: the paper's algorithm with the saturation tie-break
    /// removed (plain minimum-degree pivoting).
    pub fn ours_min_degree_pivot() -> Self {
        Self {
            pivot: PivotKind::MinDegree,
            ..Self::ours()
        }
    }

    /// Pivot ablation: no pivot intelligence at all.
    pub fn ours_first_pivot() -> Self {
        Self {
            pivot: PivotKind::FirstCandidate,
            ..Self::ours()
        }
    }

    /// Returns the named preset, if it exists: any spelling
    /// [`Algorithm::parse`] accepts.
    pub fn by_name(name: &str) -> Option<Self> {
        Algorithm::parse(name).map(Algorithm::config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(Params::new(2, 3).is_ok());
        assert!(Params::new(2, 2).is_err());
        assert!(Params::new(0, 5).is_err());
        assert_eq!(
            Params::new(3, 4),
            Err(ParamError::QTooSmall { q: 4, min_q: 5 })
        );
        let msg = Params::new(3, 4).unwrap_err().to_string();
        assert!(msg.contains("q >= 2k-1"));
    }

    #[test]
    fn presets_differ_in_the_documented_flags() {
        let ours = AlgoConfig::ours();
        assert!(ours.use_r1 && ours.use_r2);
        assert_eq!(ours.upper_bound, UpperBoundKind::Ours);

        let basic = AlgoConfig::basic();
        assert!(!basic.use_r1 && !basic.use_r2);
        assert_eq!(basic.upper_bound, UpperBoundKind::Ours);

        assert_eq!(AlgoConfig::ours_no_ub().upper_bound, UpperBoundKind::None);
        assert_eq!(
            AlgoConfig::ours_fp_ub().upper_bound,
            UpperBoundKind::FpSorting
        );
        assert_eq!(AlgoConfig::ours_p().branching, BranchingKind::MultiWay);
        assert_eq!(
            AlgoConfig::ours_min_degree_pivot().pivot,
            PivotKind::MinDegree
        );
        assert_eq!(
            AlgoConfig::ours_first_pivot().pivot,
            PivotKind::FirstCandidate
        );
    }

    #[test]
    fn by_name_resolves_all_presets() {
        for name in [
            "ours",
            "ours_p",
            "ours-ub",
            "ours-ub+fp",
            "basic",
            "basic+r1",
            "basic+r2",
            "ours-mindeg",
            "ours-firstpivot",
        ] {
            assert!(AlgoConfig::by_name(name).is_some(), "{name}");
        }
        assert!(AlgoConfig::by_name("OURS").is_some());
        assert!(AlgoConfig::by_name("nope").is_none());
    }
}
