//! The legacy clone-based branch kernel, kept as a *reference semantics*
//! implementation.
//!
//! This is the Algorithm-3 searcher exactly as it shipped before the
//! arena/undo-journal rewrite of [`crate::branch`]: every include / exclude /
//! multi-way step clones fresh `Vec<u32>` candidate and exclusive sets, and
//! the lines 2–3 tightening pass tests candidates one vertex at a time. It is
//! deliberately simple and allocation-heavy.
//!
//! It exists as the oracle of the kernel-equivalence suite
//! (`tests/kernel_equivalence.rs`), which asserts that the production arena
//! kernel visits a byte-identical search tree (`branch_calls`, `ub_pruned`,
//! `pair_pruned`, `outputs`, …) on the differential grid, and as the
//! allocating contrast cell in `crates/bench/tests/alloc_free.rs`.
//!
//! Do not extend this module with new features; it tracks the legacy
//! behaviour, not the production searcher.

use crate::bounds::{ub_fp_sorting, ub_support, BoundScratch};
use crate::branch::SavedTask;
use crate::config::{AlgoConfig, BranchingKind, Params, UpperBoundKind};
use crate::pairs::PairMatrix;
use crate::seed::{SeedGraph, XOUT_FLAG};
use crate::sink::{PlexSink, SinkFlow};
use crate::stats::SearchStats;
use kplex_graph::{BitSet, VertexId};
use std::time::{Duration, Instant};

/// The legacy recursive searcher over one seed subgraph (clone-based).
pub struct RefSearcher<'a> {
    seed: &'a SeedGraph,
    params: Params,
    cfg: &'a AlgoConfig,
    pairs: Option<&'a PairMatrix>,
    // Dynamic search state.
    p: Vec<u32>,
    d_p: Vec<u32>,
    p_bits: BitSet,
    c_bits: BitSet,
    pc_bits: BitSet,
    sat: Vec<u32>,
    scratch: BoundScratch,
    out_buf: Vec<VertexId>,
    /// Counters for this searcher (merge into run totals when done).
    pub stats: SearchStats,
    stop: bool,
    // Timeout splitting (legacy: the clock is polled on every recursion).
    budget: Option<Duration>,
    deadline: Option<Instant>,
    saved: Vec<SavedTask>,
}

impl<'a> RefSearcher<'a> {
    /// Creates a searcher; `pairs` must be `Some` when `cfg.use_r2` is set.
    pub fn new(
        seed: &'a SeedGraph,
        params: Params,
        cfg: &'a AlgoConfig,
        pairs: Option<&'a PairMatrix>,
    ) -> Self {
        debug_assert!(!cfg.use_r2 || pairs.is_some(), "R2 requires a pair matrix");
        let n = seed.len();
        Self {
            seed,
            params,
            cfg,
            pairs: if cfg.use_r2 { pairs } else { None },
            p: Vec::with_capacity(64),
            d_p: vec![0; n],
            p_bits: BitSet::new(n),
            c_bits: BitSet::new(n),
            pc_bits: BitSet::new(n),
            sat: Vec::new(),
            scratch: BoundScratch::new(n),
            out_buf: Vec::new(),
            stats: SearchStats::default(),
            stop: false,
            budget: None,
            deadline: None,
            saved: Vec::new(),
        }
    }

    /// Arms the straggler timeout (see [`crate::branch::Searcher`]).
    pub fn set_time_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    /// Takes the branches deferred by timeout splitting since the last call.
    pub fn take_saved(&mut self) -> Vec<SavedTask> {
        std::mem::take(&mut self.saved)
    }

    /// Runs one task ⟨P, C, X⟩ (same contract as
    /// [`crate::branch::Searcher::run_task`]).
    pub fn run_task(
        &mut self,
        init_p: &[u32],
        c: &[u32],
        x: &[u32],
        sink: &mut dyn PlexSink,
    ) -> SinkFlow {
        debug_assert!(self.p.is_empty(), "searcher state must be clean");
        self.deadline = self.budget.map(|b| Instant::now() + b);
        self.branch(init_p, c.to_vec(), x.to_vec(), sink);
        debug_assert!(self.p.is_empty(), "unbalanced push/pop");
        if self.stop {
            SinkFlow::Stop
        } else {
            SinkFlow::Continue
        }
    }

    // --- dynamic state maintenance -----------------------------------------

    fn push_p(&mut self, v: u32) {
        debug_assert!(!self.p_bits.contains(v as usize));
        self.p.push(v);
        self.p_bits.insert(v as usize);
        for w in self.seed.adj.row(v as usize).iter() {
            self.d_p[w] += 1;
        }
    }

    fn pop_p(&mut self, v: u32) {
        debug_assert_eq!(self.p.last(), Some(&v));
        self.p.pop();
        self.p_bits.remove(v as usize);
        for w in self.seed.adj.row(v as usize).iter() {
            self.d_p[w] -= 1;
        }
    }

    fn pop_added(&mut self, added: &[u32]) {
        for &v in added.iter().rev() {
            self.pop_p(v);
        }
    }

    /// Rebuilds `self.sat` = saturated members of P (those already missing k).
    fn collect_saturated(&mut self) {
        self.sat.clear();
        let psz = self.p.len();
        let k = self.params.k;
        for &u in &self.p {
            if psz - self.d_p[u as usize] as usize == k {
                self.sat.push(u);
            }
        }
    }

    /// k-plex admission test for a local vertex against the current P,
    /// plus R2 pair filtering against the newly added vertices.
    fn keep_local(&mut self, v: u32, need: usize, added: &[u32]) -> bool {
        if (self.d_p[v as usize] as usize) < need {
            return false;
        }
        for &u in &self.sat {
            if !self.seed.adj.has_edge(u as usize, v as usize) {
                return false;
            }
        }
        if let Some(pm) = self.pairs {
            for &a in added {
                if !pm.allowed(a, v) {
                    self.stats.pair_pruned += 1;
                    return false;
                }
            }
        }
        true
    }

    /// Same admission test for an exclusive-set entry (local or outside).
    fn keep_x(&mut self, entry: u32, need: usize, added: &[u32]) -> bool {
        if entry & XOUT_FLAG == 0 {
            return self.keep_local(entry, need, added);
        }
        let row = self.seed.xout_rows.row((entry & !XOUT_FLAG) as usize);
        if row.intersection_count(&self.p_bits) < need {
            return false;
        }
        self.sat.iter().all(|&u| row.contains(u as usize))
    }

    /// Degree of a local vertex within P ∪ C (C given by `c_bits`).
    #[inline]
    fn deg_pc(&self, v: u32) -> usize {
        self.d_p[v as usize] as usize
            + self
                .seed
                .adj
                .row(v as usize)
                .intersection_count(&self.c_bits)
    }

    // --- output paths -------------------------------------------------------

    fn emit(&mut self, extra: &[u32], sink: &mut dyn PlexSink) {
        self.out_buf.clear();
        self.out_buf
            .extend(self.p.iter().map(|&v| self.seed.verts[v as usize]));
        self.out_buf
            .extend(extra.iter().map(|&v| self.seed.verts[v as usize]));
        self.out_buf.sort_unstable();
        self.stats.outputs += 1;
        if sink.report(&self.out_buf) == SinkFlow::Stop {
            self.stop = true;
        }
    }

    // --- the branch procedure (Algorithm 3) ---------------------------------

    fn branch(&mut self, added: &[u32], mut c: Vec<u32>, mut x: Vec<u32>, sink: &mut dyn PlexSink) {
        if self.stop {
            return;
        }
        self.stats.branch_calls += 1;
        for &v in added {
            self.push_p(v);
        }
        let k = self.params.k;
        let q = self.params.q;

        // Lines 2–3: tighten C and X, one candidate at a time.
        if !added.is_empty() {
            self.collect_saturated();
            let need = (self.p.len() + 1).saturating_sub(k);
            let mut w = 0;
            for r in 0..c.len() {
                let v = c[r];
                if self.keep_local(v, need, added) {
                    c[w] = v;
                    w += 1;
                }
            }
            c.truncate(w);
            let mut w = 0;
            for r in 0..x.len() {
                let e = x[r];
                if self.keep_x(e, need, added) {
                    x[w] = e;
                    w += 1;
                }
            }
            x.truncate(w);
        }

        // Lines 4–6: no candidates left.
        if c.is_empty() {
            if x.is_empty() && self.p.len() >= q {
                self.emit(&[], sink);
            }
            self.pop_added(added);
            return;
        }

        // Lines 7–10: pivot selection (see the production kernel for the
        // rule description).
        self.c_bits.clear();
        for &v in &c {
            self.c_bits.insert(v as usize);
        }
        let psz = self.p.len();
        let mut best_key = (usize::MAX, i64::MIN, 2u8);
        let mut min_deg_pc = usize::MAX;
        let mut pivot = u32::MAX;
        let mut pivot_in_p = false;
        for (&v, side) in self
            .p
            .iter()
            .map(|v| (v, 0u8))
            .chain(c.iter().map(|v| (v, 1u8)))
        {
            let d = self.deg_pc(v);
            min_deg_pc = min_deg_pc.min(d);
            let key = match self.cfg.pivot {
                crate::config::PivotKind::SaturationTieBreak => {
                    let dbar = psz as i64 - self.d_p[v as usize] as i64;
                    (d, -dbar, side)
                }
                crate::config::PivotKind::MinDegree => (d, 0, side),
                crate::config::PivotKind::FirstCandidate => (d, 0, side),
            };
            if key < best_key {
                best_key = key;
                pivot = v;
                pivot_in_p = side == 0;
            }
        }
        if self.cfg.pivot == crate::config::PivotKind::FirstCandidate {
            pivot = c[0];
            pivot_in_p = false;
        }
        let pivot_orig = pivot;

        // Lines 11–14: whole-set k-plex check.
        if min_deg_pc + k >= psz + c.len() {
            self.stats.whole_set_plex += 1;
            if psz + c.len() >= q && self.whole_is_maximal(&c, &x) {
                self.emit(&c, sink);
            }
            self.pop_added(added);
            return;
        }

        // Lines 15–16 (or the multi-way alternative).
        if pivot_in_p {
            if self.cfg.branching == BranchingKind::MultiWay {
                self.branch_multiway(pivot, c, x, sink);
                self.pop_added(added);
                return;
            }
            pivot = self.repick(pivot, &c);
        }

        // Line 17: upper bound of any plex extending P ∪ {pivot} (Eq (3)).
        let ub = match self.cfg.upper_bound {
            UpperBoundKind::None => usize::MAX,
            UpperBoundKind::Ours => {
                let a = ub_support(
                    self.seed,
                    k,
                    &self.p,
                    &self.d_p,
                    pivot,
                    &self.c_bits,
                    &mut self.scratch,
                );
                a.min(self.seed.deg[pivot_orig as usize] as usize + k)
            }
            UpperBoundKind::FpSorting => {
                let a = ub_fp_sorting(
                    self.seed,
                    k,
                    &self.p,
                    &self.d_p,
                    pivot,
                    &self.c_bits,
                    &mut self.scratch,
                );
                a.min(self.seed.deg[pivot_orig as usize] as usize + k)
            }
        };

        // Lines 18–19: include branch — the per-branch clone churn the arena
        // kernel eliminates.
        if ub >= q {
            let c_child: Vec<u32> = c.iter().copied().filter(|&w| w != pivot).collect();
            let x_child = x.clone();
            self.recurse_or_save(&[pivot], c_child, x_child, sink);
        } else {
            self.stats.ub_pruned += 1;
        }

        // Line 20: exclude branch.
        if !self.stop {
            c.retain(|&w| w != pivot);
            x.push(pivot);
            self.recurse_or_save(&[], c, x, sink);
        }
        self.pop_added(added);
    }

    /// Lines 15–16: re-pick the pivot among the P-pivot's non-neighbours in
    /// C, with the same (min degree, max saturation) rule.
    fn repick(&self, p_pivot: u32, c: &[u32]) -> u32 {
        let psz = self.p.len();
        let mut best_key = (usize::MAX, i64::MIN);
        let mut best = u32::MAX;
        for &w in c {
            if self.seed.adj.has_edge(p_pivot as usize, w as usize) {
                continue;
            }
            let d = self.deg_pc(w);
            let dbar = psz as i64 - self.d_p[w as usize] as i64;
            let key = (d, -dbar);
            if key < best_key {
                best_key = key;
                best = w;
            }
        }
        debug_assert_ne!(
            best,
            u32::MAX,
            "P-pivot must have a candidate non-neighbour"
        );
        best
    }

    /// FaPlexen branching Eq (4)–(6) for a pivot inside P.
    fn branch_multiway(&mut self, pivot: u32, c: Vec<u32>, x: Vec<u32>, sink: &mut dyn PlexSink) {
        let k = self.params.k;
        let psz = self.p.len();
        let s_budget = k - (psz - self.d_p[pivot as usize] as usize);
        let w_list: Vec<u32> = c
            .iter()
            .copied()
            .filter(|&w| !self.seed.adj.has_edge(pivot as usize, w as usize))
            .collect();
        debug_assert!(s_budget >= 1, "saturated P-pivots are caught earlier");
        debug_assert!(
            w_list.len() > s_budget,
            "otherwise P ∪ C would have been a k-plex"
        );
        for i in 1..=s_budget {
            if self.stop {
                return;
            }
            if i >= 2 && !self.prefix_is_plex(&w_list[..i - 1]) {
                return;
            }
            let removed = &w_list[..i];
            let c_i: Vec<u32> = c.iter().copied().filter(|w| !removed.contains(w)).collect();
            let mut x_i = x.clone();
            x_i.push(w_list[i - 1]);
            let included = w_list[..i - 1].to_vec();
            self.recurse_or_save(&included, c_i, x_i, sink);
        }
        if self.stop || !self.prefix_is_plex(&w_list[..s_budget]) {
            return;
        }
        let c_f: Vec<u32> = c.iter().copied().filter(|w| !w_list.contains(w)).collect();
        let included = w_list[..s_budget].to_vec();
        self.recurse_or_save(&included, c_f, x, sink);
    }

    /// True iff `P ∪ prefix` is a k-plex.
    fn prefix_is_plex(&self, prefix: &[u32]) -> bool {
        let k = self.params.k;
        for &u in &self.p {
            let mut miss = self.p.len() - self.d_p[u as usize] as usize; // self + P
            for &w in prefix {
                if !self.seed.adj.has_edge(u as usize, w as usize) {
                    miss += 1;
                }
            }
            if miss > k {
                return false;
            }
        }
        for (j, &w) in prefix.iter().enumerate() {
            let mut miss = 1 + (self.p.len() - self.d_p[w as usize] as usize);
            for (j2, &y) in prefix.iter().enumerate() {
                if j2 != j && !self.seed.adj.has_edge(w as usize, y as usize) {
                    miss += 1;
                }
            }
            if miss > k {
                return false;
            }
        }
        true
    }

    /// Maximality check of P ∪ C against X (Algorithm 3 line 12).
    fn whole_is_maximal(&mut self, c: &[u32], x: &[u32]) -> bool {
        let k = self.params.k;
        let total = self.p.len() + c.len();
        self.pc_bits.copy_from(&self.p_bits);
        for &v in c {
            self.pc_bits.insert(v as usize);
        }
        self.sat.clear();
        for &v in self.p.iter().chain(c.iter()) {
            let d = self
                .seed
                .adj
                .row(v as usize)
                .intersection_count(&self.pc_bits);
            if total - d == k {
                self.sat.push(v);
            }
        }
        let need = (total + 1).saturating_sub(k);
        for &e in x {
            let fits = if e & XOUT_FLAG == 0 {
                let d = self
                    .seed
                    .adj
                    .row(e as usize)
                    .intersection_count(&self.pc_bits);
                d >= need
                    && self
                        .sat
                        .iter()
                        .all(|&u| self.seed.adj.has_edge(u as usize, e as usize))
            } else {
                let row = self.seed.xout_rows.row((e & !XOUT_FLAG) as usize);
                row.intersection_count(&self.pc_bits) >= need
                    && self.sat.iter().all(|&u| row.contains(u as usize))
            };
            if fits {
                return false; // e extends P ∪ C: not maximal
            }
        }
        true
    }

    /// Recurse, unless the timeout budget is spent — then defer the branch.
    /// Legacy behaviour: `Instant::now()` on every single recursion.
    fn recurse_or_save(
        &mut self,
        added_next: &[u32],
        c: Vec<u32>,
        x: Vec<u32>,
        sink: &mut dyn PlexSink,
    ) {
        if let Some(dl) = self.deadline {
            if Instant::now() > dl {
                let mut p_full = self.p.clone();
                p_full.extend_from_slice(added_next);
                self.saved.push(SavedTask::new(&p_full, &c, &x));
                self.stats.timeout_splits += 1;
                return;
            }
        }
        self.branch(added_next, c, x, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Params;
    use crate::seed::SeedBuilder;
    use crate::sink::CollectSink;
    use kplex_graph::{core_decomposition, gen};

    #[test]
    fn reference_kernel_finds_the_clique() {
        let g = gen::complete(6);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(6);
        let sg = b.build(&g, &decomp, decomp.order[0], params, &cfg).unwrap();
        let pm = PairMatrix::build(&sg, params);
        let mut searcher = RefSearcher::new(&sg, params, &cfg, Some(&pm));
        let mut sink = CollectSink::default();
        searcher.run_task(&[0], &sg.hop1.clone(), &[], &mut sink);
        let res = sink.into_sorted();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].len(), 6);
        assert_eq!(searcher.stats.outputs, 1);
    }
}
