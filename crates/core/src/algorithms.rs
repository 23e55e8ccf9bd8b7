//! A uniform handle over every algorithm in the paper's evaluation, and the
//! one table of their names: the CLI's `--algo`, the server's `SUBMIT
//! algo=` and journal replay all resolve names through [`Algorithm::parse`].

use crate::config::{AlgoConfig, Params};
use crate::enumerate::enumerate;
use crate::sink::{CollectSink, CountSink, PlexSink};
use crate::stats::SearchStats;
use crate::{d2k_config, fp_config, listplex_config};
use kplex_graph::{GraphStore, VertexId};

/// Every named algorithm of Section 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's default algorithm.
    Ours,
    /// The Eq (4)–(6) branching variant.
    OursP,
    /// `Ours` without upper-bound pruning (Table 5).
    OursNoUb,
    /// `Ours` with FP's sorting upper bound (Table 5).
    OursFpUb,
    /// `Ours` without R1/R2 (Table 6).
    Basic,
    /// `Basic` plus Theorem 5.7 (Table 6).
    BasicR1,
    /// `Basic` plus Theorems 5.13–5.15 (Table 6).
    BasicR2,
    /// The ListPlex baseline [\[39\]](https://arxiv.org/abs/2202.08737).
    ListPlex,
    /// The FP baseline [\[16\]](https://arxiv.org/abs/2203.10760).
    Fp,
    /// The D2K baseline \[15].
    D2k,
    /// Pivot ablation: minimum-degree pivot without the saturation
    /// tie-break (extension; not a paper table).
    OursMinDegPivot,
    /// Pivot ablation: no pivot intelligence (extension).
    OursFirstPivot,
}

impl Algorithm {
    /// All algorithms, in the order the paper's tables list them.
    pub const ALL: [Algorithm; 12] = [
        Algorithm::Fp,
        Algorithm::ListPlex,
        Algorithm::D2k,
        Algorithm::OursP,
        Algorithm::Ours,
        Algorithm::OursNoUb,
        Algorithm::OursFpUb,
        Algorithm::Basic,
        Algorithm::BasicR1,
        Algorithm::BasicR2,
        Algorithm::OursMinDegPivot,
        Algorithm::OursFirstPivot,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ours => "Ours",
            Algorithm::OursP => "Ours_P",
            Algorithm::OursNoUb => "Ours\\ub",
            Algorithm::OursFpUb => "Ours\\ub+fp",
            Algorithm::Basic => "Basic",
            Algorithm::BasicR1 => "Basic+R1",
            Algorithm::BasicR2 => "Basic+R2",
            Algorithm::ListPlex => "ListPlex",
            Algorithm::Fp => "FP",
            Algorithm::D2k => "D2K",
            Algorithm::OursMinDegPivot => "Ours\\satpivot",
            Algorithm::OursFirstPivot => "Ours\\pivot",
        }
    }

    /// Parses an algorithm name: the display name or a spelling with `-`
    /// for `\` (case-insensitive). The pivot ablations also answer to
    /// `ours-mindeg` and `ours-firstpivot`.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s.to_ascii_lowercase().replace('\\', "-").as_str() {
            "ours" => Some(Algorithm::Ours),
            "ours_p" | "ours-p" => Some(Algorithm::OursP),
            "ours-ub" => Some(Algorithm::OursNoUb),
            "ours-ub+fp" => Some(Algorithm::OursFpUb),
            "basic" => Some(Algorithm::Basic),
            "basic+r1" => Some(Algorithm::BasicR1),
            "basic+r2" => Some(Algorithm::BasicR2),
            "listplex" => Some(Algorithm::ListPlex),
            "fp" => Some(Algorithm::Fp),
            "d2k" => Some(Algorithm::D2k),
            "ours-satpivot" | "ours-mindeg" => Some(Algorithm::OursMinDegPivot),
            "ours-pivot" | "ours-firstpivot" => Some(Algorithm::OursFirstPivot),
            _ => None,
        }
    }

    /// The engine configuration, task layout included.
    pub fn config(self) -> AlgoConfig {
        match self {
            Algorithm::Ours => AlgoConfig::ours(),
            Algorithm::OursP => AlgoConfig::ours_p(),
            Algorithm::OursNoUb => AlgoConfig::ours_no_ub(),
            Algorithm::OursFpUb => AlgoConfig::ours_fp_ub(),
            Algorithm::Basic => AlgoConfig::basic(),
            Algorithm::BasicR1 => AlgoConfig::basic_r1(),
            Algorithm::BasicR2 => AlgoConfig::basic_r2(),
            Algorithm::ListPlex => listplex_config(),
            Algorithm::Fp => fp_config(),
            Algorithm::D2k => d2k_config(),
            Algorithm::OursMinDegPivot => AlgoConfig::ours_min_degree_pivot(),
            Algorithm::OursFirstPivot => AlgoConfig::ours_first_pivot(),
        }
    }

    /// Runs the algorithm, streaming results into `sink`.
    pub fn run<G: GraphStore + ?Sized>(
        self,
        g: &G,
        params: Params,
        sink: &mut dyn PlexSink,
    ) -> SearchStats {
        enumerate(g, params, &self.config(), sink)
    }

    /// Runs and counts results.
    pub fn run_count<G: GraphStore + ?Sized>(self, g: &G, params: Params) -> (u64, SearchStats) {
        let mut sink = CountSink::default();
        let stats = self.run(g, params, &mut sink);
        (sink.count, stats)
    }

    /// Runs and collects results in canonical order.
    pub fn run_collect<G: GraphStore + ?Sized>(
        self,
        g: &G,
        params: Params,
    ) -> (Vec<Vec<VertexId>>, SearchStats) {
        let mut sink = CollectSink::default();
        let stats = self.run(g, params, &mut sink);
        (sink.into_sorted(), stats)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplex_graph::gen;

    #[test]
    fn parse_roundtrips_names() {
        for a in Algorithm::ALL {
            let spelled = a.name();
            assert_eq!(Algorithm::parse(spelled), Some(a), "{spelled}");
        }
        assert_eq!(Algorithm::parse("fp"), Some(Algorithm::Fp));
        assert_eq!(Algorithm::parse("nope"), None);
    }

    #[test]
    fn every_spelling_of_both_former_tables_resolves() {
        // The CLI's `--algo`, the server's `algo=` and journal replay all
        // resolve names here, so every spelling any of them has accepted
        // must keep its configuration: a journaled `algo=ours-mindeg` must
        // still replay.
        let spellings = [
            ("ours", AlgoConfig::ours()),
            ("OURS", AlgoConfig::ours()),
            ("ours_p", AlgoConfig::ours_p()),
            ("ours-p", AlgoConfig::ours_p()),
            ("ours-ub", AlgoConfig::ours_no_ub()),
            ("ours\\ub", AlgoConfig::ours_no_ub()),
            ("ours-ub+fp", AlgoConfig::ours_fp_ub()),
            ("ours\\ub+fp", AlgoConfig::ours_fp_ub()),
            ("basic", AlgoConfig::basic()),
            ("basic+r1", AlgoConfig::basic_r1()),
            ("basic+r2", AlgoConfig::basic_r2()),
            ("ours-mindeg", AlgoConfig::ours_min_degree_pivot()),
            ("ours-satpivot", AlgoConfig::ours_min_degree_pivot()),
            ("ours-firstpivot", AlgoConfig::ours_first_pivot()),
            ("ours-pivot", AlgoConfig::ours_first_pivot()),
            ("listplex", listplex_config()),
            ("fp", fp_config()),
            ("d2k", d2k_config()),
        ];
        for (name, cfg) in spellings {
            assert_eq!(
                Algorithm::parse(name).map(Algorithm::config),
                Some(cfg.clone()),
                "{name}"
            );
            assert_eq!(AlgoConfig::by_name(name), Some(cfg), "{name}");
        }
    }

    #[test]
    fn every_algorithm_agrees_on_counts() {
        let g = gen::gnp(22, 0.45, 7);
        let params = Params::new(2, 4).unwrap();
        let (reference, _) = Algorithm::Ours.run_collect(&g, params);
        for a in Algorithm::ALL {
            let (got, _) = a.run_collect(&g, params);
            assert_eq!(got, reference, "{a} diverged");
        }
    }
}
