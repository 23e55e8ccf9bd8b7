//! The branch-and-bound search procedure (Algorithm 3), allocation-free
//! branch kernel.
//!
//! One engine implements every variant of the paper: the pivot selection of
//! lines 7–10, the re-picking of lines 15–16 (`Ours`), the FaPlexen multi-way
//! branching Eq (4)–(6) (`Ours_P` / ListPlex), the Eq (3) upper bound, the
//! FP sorting bound, and the pair-matrix filtering of rule R2. Flags on
//! [`AlgoConfig`] choose the combination.
//!
//! # The arena kernel
//!
//! The paper's speedups depend on the branch loop staying cheap inside the
//! dense seed subgraphs (Section 4), so the searcher's dynamic state lives in
//! **depth-indexed scratch arenas** with an undo journal instead of the
//! per-branch `Vec` clones of the legacy kernel (kept for comparison in
//! [`crate::branch_ref`]):
//!
//! * the candidate set `C` is a compact ascending array — the top segment of
//!   `c_arena` — mirrored by the `c_bits` indicator, which is kept in sync
//!   incrementally (pivot removals) and snapshotted word-wise into
//!   `bits_arena` whenever a frame tightens, so unwinding is a `memcpy`;
//! * the exclusive set `X` is a segmented stack in `x_arena`: tightening
//!   pushes a filtered child segment, exclude steps append the pivot to the
//!   current segment, and frame exit truncates;
//! * the lines 2–3 tightening pass is **word-parallel**: the candidate words
//!   are intersected with the saturated members' adjacency rows and the R2
//!   [`PairMatrix`] rows of the newly added vertices
//!   ([`kplex_graph::BitSet::intersect_rows`]), leaving only the per-vertex
//!   degree threshold as a scalar check;
//! * `added` vertex lists and multi-way `W`-lists live in their own arenas
//!   (`added_arena`, `w_arena`).
//!
//! Heap allocation therefore happens only when a branch is actually deferred
//! into a [`SavedTask`] (one buffer per save); the steady-state
//! include/exclude recursion allocates nothing, which
//! `crates/bench/tests/alloc_free.rs` asserts with a counting allocator. The
//! [`SearchStats::arena_recursions`] and [`SearchStats::tighten_words`]
//! counters expose the kernel's work.
//!
//! The searcher also supports the parallel runtime's straggler timeout
//! (Section 6): when a time budget is armed and exceeded, recursion sites
//! stop descending and instead package their child branches as [`SavedTask`]
//! values for re-queueing. The deadline clock is polled on the first and
//! every 64th recursion (and latched once hit), so small τ budgets do not
//! degenerate into an `Instant::now` per branch.

use crate::bounds::{ub_fp_sorting, ub_support, BoundScratch};
use crate::config::{AlgoConfig, BranchingKind, Params, UpperBoundKind};
use crate::pairs::PairMatrix;
use crate::seed::{SeedGraph, XOUT_FLAG};
use crate::sink::{PlexSink, SinkFlow};
use crate::stats::SearchStats;
use kplex_graph::{BitSet, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deadline clock is polled on the first and every `DEADLINE_STRIDE`-th
/// recursion; once it fires, the hit is latched and every further recursion
/// defers without touching the clock again.
const DEADLINE_STRIDE: u32 = 64;

/// An external stop flag ([`Searcher::set_stop_flag`]) is polled on every
/// `STOP_STRIDE`-th recursion, in addition to the always-on check in the
/// report path. Keeps cancellation latency bounded inside result-free
/// subtrees without paying an atomic load per branch.
const STOP_STRIDE: u32 = 64;

/// A branch packaged for deferred execution (timeout splitting, Section 6)
/// or initial sub-task dispatch.
///
/// The three sets share **one** heap buffer (`[P | C | X]`), so saving or
/// re-queueing a task costs a single allocation — tasks are cheap POD
/// snapshots. All ids are local to the seed subgraph; [`SavedTask::p`] lists
/// the full current plex, `X` entries may carry [`XOUT_FLAG`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedTask {
    buf: Vec<u32>,
    p_len: u32,
    c_len: u32,
}

impl SavedTask {
    /// Packs ⟨P, C, X⟩ into one buffer (single allocation).
    pub fn new(p: &[u32], c: &[u32], x: &[u32]) -> Self {
        let mut buf = Vec::with_capacity(p.len() + c.len() + x.len());
        buf.extend_from_slice(p);
        buf.extend_from_slice(c);
        buf.extend_from_slice(x);
        Self {
            buf,
            p_len: p.len() as u32,
            c_len: c.len() as u32,
        }
    }

    /// Wraps an already-packed `[P | C | X]` buffer.
    pub(crate) fn from_buf(buf: Vec<u32>, p_len: u32, c_len: u32) -> Self {
        debug_assert!((p_len + c_len) as usize <= buf.len());
        Self { buf, p_len, c_len }
    }

    /// The plex built so far (local ids, includes the seed).
    #[inline]
    pub fn p(&self) -> &[u32] {
        &self.buf[..self.p_len as usize]
    }

    /// Remaining candidates (ascending local ids).
    #[inline]
    pub fn c(&self) -> &[u32] {
        &self.buf[self.p_len as usize..(self.p_len + self.c_len) as usize]
    }

    /// Exclusive set (local ids, or `XOUT_FLAG`-tagged outside row indices).
    #[inline]
    pub fn x(&self) -> &[u32] {
        &self.buf[(self.p_len + self.c_len) as usize..]
    }
}

/// Undo record for one arena frame: every length the frame extended and the
/// segment starts it replaced. Dropping the frame is truncate + `memcpy`.
struct FrameUndo {
    c_arena_len: usize,
    x_arena_len: usize,
    bits_len: usize,
    prev_c_start: usize,
    prev_x_start: usize,
}

/// Recursive searcher over one seed subgraph.
pub struct Searcher<'a> {
    seed: &'a SeedGraph,
    params: Params,
    cfg: &'a AlgoConfig,
    pairs: Option<&'a PairMatrix>,
    // Dynamic search state.
    p: Vec<u32>,
    d_p: Vec<u32>,
    p_bits: BitSet,
    /// Indicator of the current candidate segment (always in sync with it).
    c_bits: BitSet,
    pc_bits: BitSet,
    sat: Vec<u32>,
    scratch: BoundScratch,
    out_buf: Vec<VertexId>,
    // Depth-indexed arenas (see the module docs).
    c_arena: Vec<u32>,
    x_arena: Vec<u32>,
    added_arena: Vec<u32>,
    w_arena: Vec<u32>,
    /// Undo journal: word snapshots of `c_bits`, one per tightened frame.
    bits_arena: Vec<u64>,
    /// Start of the current candidate segment in `c_arena`.
    c_start: usize,
    /// Start of the current exclusive segment in `x_arena`.
    x_start: usize,
    // Word-parallel tighten scratch.
    tight_keep: BitSet,
    tight_pair: BitSet,
    /// Counters for this searcher (merge into run totals when done).
    pub stats: SearchStats,
    stop: bool,
    // Cooperative external cancellation (service jobs, global result caps).
    stop_flag: Option<Arc<AtomicBool>>,
    stop_tick: u32,
    // Timeout splitting.
    budget: Option<Duration>,
    deadline: Option<Instant>,
    deadline_tick: u32,
    deadline_hit: bool,
    saved: Vec<SavedTask>,
    /// When set, deferred branches are published here the moment they are
    /// split off instead of accumulating in `saved` — the parallel engine
    /// uses this to hand work to idle workers mid-task.
    spawn_hook: Option<Box<dyn FnMut(SavedTask) + 'a>>,
}

impl<'a> Searcher<'a> {
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
            c_arena: Vec::with_capacity(4 * n),
            x_arena: Vec::with_capacity(4 * n),
            added_arena: Vec::with_capacity(n),
            w_arena: Vec::with_capacity(n),
            bits_arena: Vec::with_capacity(4 * n.div_ceil(64)),
            c_start: 0,
            x_start: 0,
            tight_keep: BitSet::new(n),
            tight_pair: BitSet::new(n),
            stats: SearchStats::default(),
            stop: false,
            stop_flag: None,
            stop_tick: 0,
            budget: None,
            deadline: None,
            deadline_tick: 0,
            deadline_hit: false,
            saved: Vec::new(),
            spawn_hook: None,
        }
    }

    /// Arms the straggler timeout: subsequent tasks split once they run
    /// longer than `budget` (`None` disables splitting).
    pub fn set_time_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    /// Arms an external stop flag: when raised (by another thread — a
    /// cancelled job, a globally capped sink), the search aborts
    /// cooperatively. The flag is checked on every report (so no result is
    /// delivered after cancellation) and polled every `STOP_STRIDE`-th
    /// recursion (so result-free subtrees also stop promptly, not only at
    /// task boundaries).
    pub fn set_stop_flag(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.stop_flag = flag;
    }

    /// Raises the size threshold q mid-search (used by maximum-k-plex
    /// solving: once a plex of size s is known, only plexes with at least
    /// s + 1 vertices are of interest). Lowering q is rejected — candidate
    /// sets may already have been pruned under the old threshold.
    pub fn raise_q(&mut self, q: usize) {
        assert!(q >= self.params.q, "q can only be tightened");
        self.params.q = q;
    }

    /// Current size threshold (see [`Searcher::raise_q`]).
    pub fn params_q(&self) -> usize {
        self.params.q
    }

    /// Takes the branches deferred by timeout splitting since the last call.
    /// Empty while a spawn hook is installed — deferred branches go to the
    /// hook instead.
    pub fn take_saved(&mut self) -> Vec<SavedTask> {
        std::mem::take(&mut self.saved)
    }

    /// Routes deferred branches to `hook` as they are split off, instead of
    /// accumulating them for [`Searcher::take_saved`]. The parallel engine
    /// installs a hook that publishes the branch to its scheduler
    /// immediately, so parked workers can pick a straggler's spill-off up
    /// *while the straggler is still running* rather than after its task
    /// ends. `None` restores the accumulate-and-take behaviour.
    pub fn set_spawn_hook(&mut self, hook: Option<Box<dyn FnMut(SavedTask) + 'a>>) {
        self.spawn_hook = hook;
    }

    /// Runs one task ⟨P, C, X⟩. `init_p` is the full plex-so-far (e.g.
    /// `{seed} ∪ S` for an initial sub-task, or a [`SavedTask::p`]); `c`
    /// must be strictly ascending (the set-enumeration order every task
    /// producer in this crate emits).
    pub fn run_task(
        &mut self,
        init_p: &[u32],
        c: &[u32],
        x: &[u32],
        sink: &mut dyn PlexSink,
    ) -> SinkFlow {
        debug_assert!(self.p.is_empty(), "searcher state must be clean");
        debug_assert!(
            c.windows(2).all(|w| w[0] < w[1]),
            "candidates must be strictly ascending"
        );
        // timing: one clock read per search entry to arm the deadline.
        self.deadline = self.budget.map(|b| Instant::now() + b);
        self.deadline_tick = 0;
        self.deadline_hit = false;
        // Seed the arenas: segment 0 is the task input.
        self.c_arena.clear();
        self.c_arena.extend_from_slice(c);
        self.x_arena.clear();
        self.x_arena.extend_from_slice(x);
        self.c_start = 0;
        self.x_start = 0;
        self.c_bits.clear();
        for &v in c {
            self.c_bits.insert(v as usize);
        }
        self.added_arena.clear();
        self.added_arena.extend_from_slice(init_p);
        self.branch(0, sink);
        self.added_arena.clear();
        debug_assert!(self.p.is_empty(), "unbalanced push/pop");
        debug_assert!(self.bits_arena.is_empty(), "unbalanced undo journal");
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

    fn pop_added(&mut self, added_start: usize, added_len: usize) {
        for i in (0..added_len).rev() {
            let v = self.added_arena[added_start + i];
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

    /// Lines 2–3: snapshot `c_bits` into the undo journal, then filter `C`
    /// into a fresh compact segment. Two equivalent paths, chosen by a cost
    /// model per frame:
    ///
    /// * **word-parallel** (large C): intersect the candidate words with the
    ///   saturated members' adjacency rows and the added vertices' R2 rows,
    ///   leaving only the scalar degree threshold per surviving bit;
    /// * **scalar** (small C, the deep-tree common case): the per-vertex
    ///   admission test over the parent's compact segment, dropping losers
    ///   from `c_bits` individually — word work stays O(snapshot).
    ///
    /// Both test degree → saturation → R2 in the legacy order, so
    /// `pair_pruned` is identical either way. `X` is filtered per-entry (it
    /// is small) into a new segment. Returns the undo record.
    fn tighten(&mut self, added_start: usize) -> FrameUndo {
        let undo = FrameUndo {
            c_arena_len: self.c_arena.len(),
            x_arena_len: self.x_arena.len(),
            bits_len: self.bits_arena.len(),
            prev_c_start: self.c_start,
            prev_x_start: self.x_start,
        };
        self.collect_saturated();
        let need = (self.p.len() + 1).saturating_sub(self.params.k);
        // Journal the parent's candidate indicator (restored by memcpy).
        self.bits_arena.extend_from_slice(self.c_bits.words());
        // Cost model: the scalar path probes every parent candidate against
        // each saturation/R2 row; the word path touches every word of those
        // rows plus three full mask passes. Pick whichever reads less.
        let c_len = undo.c_arena_len - self.c_start;
        let nwords = self.c_bits.words().len();
        let rows = self.sat.len()
            + if self.pairs.is_some() {
                self.added_arena.len() - added_start
            } else {
                0
            };
        if c_len * (1 + rows) > nwords * (3 + rows) {
            let Self {
                c_bits,
                tight_keep,
                tight_pair,
                sat,
                seed,
                pairs,
                added_arena,
                c_arena,
                d_p,
                stats,
                ..
            } = self;
            // keep-mask: candidates adjacent to every saturated member.
            tight_keep.copy_from(c_bits);
            let mut words = 2 * nwords;
            words += tight_keep.intersect_rows(sat.iter().map(|&u| seed.adj.row(u as usize)));
            // pair-mask: additionally R2-compatible with every added vertex.
            tight_pair.copy_from(tight_keep);
            if let Some(pm) = *pairs {
                words += tight_pair
                    .intersect_rows(added_arena[added_start..].iter().map(|&a| pm.row(a)));
            }
            stats.tighten_words += words as u64;
            // Rebuild the compact segment (ascending) and its indicator,
            // applying the scalar degree threshold; candidates that pass the
            // degree and saturation gates but fail R2 are the pair-pruned
            // ones (the legacy kernel tested in exactly this order).
            c_bits.copy_from(tight_pair);
            for wi in 0..nwords {
                let mut w = tight_keep.words()[wi];
                let pw = tight_pair.words()[wi];
                while w != 0 {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    let v = wi * 64 + b as usize;
                    if (d_p[v] as usize) < need {
                        if (pw >> b) & 1 != 0 {
                            c_bits.remove(v);
                        }
                        continue;
                    }
                    if (pw >> b) & 1 != 0 {
                        c_arena.push(v as u32);
                    } else {
                        stats.pair_pruned += 1;
                    }
                }
            }
        } else {
            // Scalar path: same admission test the exclusive set uses. The
            // parent's compact segment may still list vertices its frame
            // already moved out of C (an included pivot, staged multi-way
            // removals) — the indicator is authoritative, so skip those.
            self.stats.tighten_words += nwords as u64; // the journal snapshot
            for i in self.c_start..undo.c_arena_len {
                let v = self.c_arena[i];
                if !self.c_bits.contains(v as usize) {
                    continue;
                }
                if self.keep_local(v, need, added_start) {
                    self.c_arena.push(v);
                } else {
                    self.c_bits.remove(v as usize);
                }
            }
        }
        // X: per-entry admission test into a fresh segment.
        let x_end = undo.x_arena_len;
        for i in self.x_start..x_end {
            let e = self.x_arena[i];
            if self.keep_x(e, need, added_start) {
                self.x_arena.push(e);
            }
        }
        self.c_start = undo.c_arena_len;
        self.x_start = x_end;
        undo
    }

    /// Unwinds one tightened frame: truncate the arenas and restore the
    /// parent's candidate indicator from the journal snapshot.
    fn untighten(&mut self, undo: FrameUndo) {
        self.c_arena.truncate(undo.c_arena_len);
        self.x_arena.truncate(undo.x_arena_len);
        self.c_start = undo.prev_c_start;
        self.x_start = undo.prev_x_start;
        let Self {
            c_bits, bits_arena, ..
        } = self;
        c_bits
            .words_mut()
            .copy_from_slice(&bits_arena[undo.bits_len..]);
        bits_arena.truncate(undo.bits_len);
    }

    /// k-plex admission test for a local vertex against the current P,
    /// plus R2 pair filtering against the newly added vertices. Used for the
    /// (small) exclusive set; candidates go through the word-parallel path.
    fn keep_local(&mut self, v: u32, need: usize, added_start: usize) -> bool {
        if (self.d_p[v as usize] as usize) < need {
            return false;
        }
        for &u in &self.sat {
            if !self.seed.adj.has_edge(u as usize, v as usize) {
                return false;
            }
        }
        if let Some(pm) = self.pairs {
            for i in added_start..self.added_arena.len() {
                let a = self.added_arena[i];
                if !pm.allowed(a, v) {
                    self.stats.pair_pruned += 1;
                    return false;
                }
            }
        }
        true
    }

    /// Same admission test for an exclusive-set entry (local or outside).
    fn keep_x(&mut self, entry: u32, need: usize, added_start: usize) -> bool {
        if entry & XOUT_FLAG == 0 {
            return self.keep_local(entry, need, added_start);
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

    /// Removes `v` from the compact candidate segment, preserving the
    /// ascending order (`v` must be present). `c_bits` is updated by the
    /// caller, which may need the bit cleared earlier (include branch).
    fn remove_from_c_segment(&mut self, v: u32) {
        let pos = self.c_arena[self.c_start..]
            .binary_search(&v)
            .expect("pivot must be a candidate");
        self.c_arena.remove(self.c_start + pos);
    }

    // --- output paths -------------------------------------------------------

    /// Reports P (plus the whole candidate segment when `with_candidates`)
    /// through the sink, in input-graph ids.
    fn emit(&mut self, with_candidates: bool, sink: &mut dyn PlexSink) {
        let Self {
            out_buf,
            p,
            c_bits,
            seed,
            ..
        } = self;
        out_buf.clear();
        out_buf.extend(p.iter().map(|&v| seed.verts[v as usize]));
        if with_candidates {
            out_buf.extend(c_bits.iter().map(|i| seed.verts[i]));
        }
        out_buf.sort_unstable();
        // Report-path cancellation check: once the external flag is raised,
        // no further result leaves the kernel.
        if let Some(flag) = &self.stop_flag {
            // ordering: cancellation latch polled as a hint on the report
            // path; no data is transferred through the flag.
            if flag.load(Ordering::Relaxed) {
                self.stop = true;
                return;
            }
        }
        self.stats.outputs += 1;
        if sink.report(&self.out_buf) == SinkFlow::Stop {
            self.stop = true;
        }
    }

    // --- the branch procedure (Algorithm 3) ---------------------------------

    /// One branch frame: push the added vertices, tighten (when the frame
    /// grew P), run the kernel, then unwind the arenas and P. `added_start`
    /// indexes the segment of `added_arena` the caller pushed.
    fn branch(&mut self, added_start: usize, sink: &mut dyn PlexSink) {
        if self.stop || self.external_stop_due() {
            return;
        }
        self.stats.branch_calls += 1;
        let added_len = self.added_arena.len() - added_start;
        for i in 0..added_len {
            let v = self.added_arena[added_start + i];
            self.push_p(v);
        }
        // Lines 2–3 only strengthen when P grows, so exclude-only frames
        // (added empty) skip the pass — and need no undo record: their
        // in-place mutations are unwound by the nearest tightened ancestor.
        let undo = (added_len > 0).then(|| self.tighten(added_start));
        self.branch_kernel(sink);
        if let Some(u) = undo {
            self.untighten(u);
        }
        self.pop_added(added_start, added_len);
    }

    /// Lines 4–20, operating on the current arena segments.
    fn branch_kernel(&mut self, sink: &mut dyn PlexSink) {
        let k = self.params.k;
        let q = self.params.q;
        let psz = self.p.len();
        let c_len = self.c_arena.len() - self.c_start;

        // Lines 4–6: no candidates left.
        if c_len == 0 {
            if self.x_arena.len() == self.x_start && psz >= q {
                self.emit(false, sink);
            }
            return;
        }

        // Lines 7–10: pivot = min degree in G[P ∪ C], tie-broken by maximal
        // non-neighbour count in P, preferring P-side vertices. Ablation
        // configurations weaken the rule (see `PivotKind`); the minimum
        // degree itself is always tracked because the whole-set k-plex check
        // below depends on it.
        let mut best_key = (usize::MAX, i64::MIN, 2u8);
        let mut min_deg_pc = usize::MAX;
        let mut pivot = u32::MAX;
        let mut pivot_in_p = false;
        for idx in 0..psz + c_len {
            let (v, side) = if idx < psz {
                (self.p[idx], 0u8)
            } else {
                (self.c_arena[self.c_start + idx - psz], 1u8)
            };
            let d = self.deg_pc(v);
            min_deg_pc = min_deg_pc.min(d);
            let key = match self.cfg.pivot {
                crate::config::PivotKind::SaturationTieBreak => {
                    let dbar = psz as i64 - self.d_p[v as usize] as i64;
                    (d, -dbar, side)
                }
                // No saturation tie-break: keep the first min-degree vertex
                // of the P-then-C scan.
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
            // Ignore the computed pivot entirely; branch on the first
            // candidate. The min-degree scan above still feeds the check.
            pivot = self.c_arena[self.c_start];
            pivot_in_p = false;
        }
        let pivot_orig = pivot;

        // Lines 11–14: if even the min-degree vertex tolerates P ∪ C, the
        // whole set is a k-plex — check maximality and stop this branch.
        if min_deg_pc + k >= psz + c_len {
            self.stats.whole_set_plex += 1;
            if psz + c_len >= q && self.whole_is_maximal() {
                self.emit(true, sink);
            }
            return;
        }

        // Lines 15–16 (or the Ours_P / ListPlex multi-way alternative).
        if pivot_in_p {
            if self.cfg.branching == BranchingKind::MultiWay {
                let w_start = self.w_arena.len();
                self.branch_multiway(pivot, w_start, sink);
                self.w_arena.truncate(w_start);
                return;
            }
            pivot = self.repick(pivot);
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

        // The pivot leaves C in both children (the indicator first — the
        // include child rebuilds its own segment from it; the compact
        // segment follows before the exclude child, which reads it raw).
        self.c_bits.remove(pivot as usize);

        // Lines 18–19: include branch (pruned when the bound falls below q).
        if ub >= q {
            let a_start = self.added_arena.len();
            self.added_arena.push(pivot);
            self.recurse_or_save(a_start, sink);
            self.added_arena.truncate(a_start);
        } else {
            self.stats.ub_pruned += 1;
        }

        // Line 20: exclude branch — a tail frame: it mutates the current
        // segments in place and is unwound by the nearest tightened
        // ancestor's `untighten`.
        if !self.stop {
            self.remove_from_c_segment(pivot);
            self.x_arena.push(pivot);
            let a_start = self.added_arena.len();
            self.recurse_or_save(a_start, sink);
        }
    }

    /// Lines 15–16: re-pick the pivot among the P-pivot's non-neighbours in
    /// C, with the same (min degree, max saturation) rule.
    fn repick(&self, p_pivot: u32) -> u32 {
        let psz = self.p.len();
        let mut best_key = (usize::MAX, i64::MIN);
        let mut best = u32::MAX;
        for i in self.c_start..self.c_arena.len() {
            let w = self.c_arena[i];
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

    /// FaPlexen branching Eq (4)–(6) for a pivot inside P. `w_start` marks
    /// the caller's `w_arena` watermark (the caller truncates it back).
    fn branch_multiway(&mut self, pivot: u32, w_start: usize, sink: &mut dyn PlexSink) {
        let k = self.params.k;
        let psz = self.p.len();
        let s_budget = k - (psz - self.d_p[pivot as usize] as usize);
        // W = non-neighbours of the pivot among the candidates, ascending.
        for i in self.c_start..self.c_arena.len() {
            let w = self.c_arena[i];
            if !self.seed.adj.has_edge(pivot as usize, w as usize) {
                self.w_arena.push(w);
            }
        }
        let w_len = self.w_arena.len() - w_start;
        debug_assert!(s_budget >= 1, "saturated P-pivots are caught earlier");
        debug_assert!(w_len > s_budget, "otherwise P ∪ C would have been a k-plex");
        // Branch i (1-based): include W[..i-1], exclude W[i-1]. A branch is
        // only viable if P ∪ W[..i-1] is still a k-plex; once a prefix turns
        // infeasible every later branch (which contains it) is empty, by the
        // hereditary property.
        for i in 1..=s_budget {
            if self.stop {
                return;
            }
            if i >= 2 && !self.prefix_is_plex(w_start, i - 1) {
                return;
            }
            let wi = self.w_arena[w_start + i - 1];
            // Branch i's candidate set is C \ W[..i]: drop w_i cumulatively.
            self.c_bits.remove(wi as usize);
            if i == 1 {
                // This child adds nothing to P, so it consumes the compact
                // segments directly — give it private arena copies and a
                // journal snapshot, exactly like a tightened frame.
                let undo = self.push_sibling_frame(wi);
                let a_start = self.added_arena.len();
                self.recurse_or_save(a_start, sink);
                self.untighten(undo);
            } else {
                // The child re-tightens from the indicator, so only `c_bits`
                // and the X segment top need to be staged.
                self.x_arena.push(wi);
                let a_start = self.added_arena.len();
                for j in 0..i - 1 {
                    let w = self.w_arena[w_start + j];
                    self.added_arena.push(w);
                }
                self.recurse_or_save(a_start, sink);
                self.added_arena.truncate(a_start);
                self.x_arena.pop();
            }
        }
        if self.stop || !self.prefix_is_plex(w_start, s_budget) {
            return;
        }
        // Final branch: include W[..s_budget]; the rest of W can never join
        // (the pivot saturates) and cannot witness non-maximality either.
        for j in s_budget..w_len {
            let w = self.w_arena[w_start + j];
            self.c_bits.remove(w as usize);
        }
        let a_start = self.added_arena.len();
        for j in 0..s_budget {
            let w = self.w_arena[w_start + j];
            self.added_arena.push(w);
        }
        self.recurse_or_save(a_start, sink);
        self.added_arena.truncate(a_start);
    }

    /// Pushes a private frame for a sibling branch that grows X but not P:
    /// copies of the current segments with `exclude` moved from C to X, plus
    /// a journal snapshot of the (already updated) candidate indicator.
    /// Undone with [`Searcher::untighten`].
    fn push_sibling_frame(&mut self, exclude: u32) -> FrameUndo {
        let undo = FrameUndo {
            c_arena_len: self.c_arena.len(),
            x_arena_len: self.x_arena.len(),
            bits_len: self.bits_arena.len(),
            prev_c_start: self.c_start,
            prev_x_start: self.x_start,
        };
        self.bits_arena.extend_from_slice(self.c_bits.words());
        for i in self.c_start..undo.c_arena_len {
            let v = self.c_arena[i];
            if v != exclude {
                self.c_arena.push(v);
            }
        }
        self.x_arena
            .extend_from_within(self.x_start..undo.x_arena_len);
        self.x_arena.push(exclude);
        self.c_start = undo.c_arena_len;
        self.x_start = undo.x_arena_len;
        undo
    }

    /// True iff `P ∪ W[w_start .. w_start + len]` is a k-plex. The prefix is
    /// small (at most k vertices), so the quadratic part is negligible.
    fn prefix_is_plex(&self, w_start: usize, len: usize) -> bool {
        let k = self.params.k;
        let prefix = &self.w_arena[w_start..w_start + len];
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

    /// Maximality check of P ∪ C against X (Algorithm 3 line 12), over the
    /// current arena segments (`pc_bits = p_bits | c_bits`, word-parallel).
    fn whole_is_maximal(&mut self) -> bool {
        let k = self.params.k;
        let psz = self.p.len();
        let total = psz + (self.c_arena.len() - self.c_start);
        self.pc_bits.copy_from(&self.p_bits);
        self.pc_bits.union_with(&self.c_bits);
        // Saturated members of P ∪ C.
        self.sat.clear();
        for idx in 0..total {
            let v = if idx < psz {
                self.p[idx]
            } else {
                self.c_arena[self.c_start + idx - psz]
            };
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
        for i in self.x_start..self.x_arena.len() {
            let e = self.x_arena[i];
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

    /// Recurse, unless the timeout budget is spent — then defer the branch
    /// as a [`SavedTask`] snapshot of the current arena state (the one
    /// allocation site of the search loop).
    fn recurse_or_save(&mut self, added_start: usize, sink: &mut dyn PlexSink) {
        if self.deadline_due() {
            self.save_current(added_start);
            return;
        }
        self.stats.arena_recursions += 1;
        self.branch(added_start, sink);
    }

    /// Amortized external-cancellation poll: load the shared flag on every
    /// [`STOP_STRIDE`]-th recursion and latch it into `self.stop`.
    #[inline]
    fn external_stop_due(&mut self) -> bool {
        let Some(flag) = &self.stop_flag else {
            return false;
        };
        self.stop_tick = self.stop_tick.wrapping_add(1);
        // ordering: cancellation latch polled every STOP_STRIDE recursions;
        // a slightly stale read only delays the stop by one stride.
        if self.stop_tick & (STOP_STRIDE - 1) == 0 && flag.load(Ordering::Relaxed) {
            self.stop = true;
            return true;
        }
        false
    }

    /// Amortized deadline test: poll the clock on the first and every
    /// [`DEADLINE_STRIDE`]-th recursion, and latch once hit.
    #[inline]
    fn deadline_due(&mut self) -> bool {
        let Some(dl) = self.deadline else {
            return false;
        };
        if self.deadline_hit {
            return true;
        }
        self.deadline_tick = self.deadline_tick.wrapping_add(1);
        // timing: amortized clock poll, one read per DEADLINE_STRIDE.
        if self.deadline_tick & (DEADLINE_STRIDE - 1) == 1 && Instant::now() > dl {
            self.deadline_hit = true;
            return true;
        }
        false
    }

    /// Packages the child branch ⟨P ∪ added, C, X⟩ at the current arena
    /// state into a single-buffer [`SavedTask`].
    fn save_current(&mut self, added_start: usize) {
        let added_len = self.added_arena.len() - added_start;
        let p_len = self.p.len() + added_len;
        let c_len = self.c_bits.count();
        let x_len = self.x_arena.len() - self.x_start;
        let mut buf = Vec::with_capacity(p_len + c_len + x_len);
        buf.extend_from_slice(&self.p);
        buf.extend_from_slice(&self.added_arena[added_start..]);
        self.c_bits.collect_into(&mut buf);
        buf.extend_from_slice(&self.x_arena[self.x_start..]);
        let snap = SavedTask::from_buf(buf, p_len as u32, c_len as u32);
        match &mut self.spawn_hook {
            Some(hook) => hook(snap),
            None => self.saved.push(snap),
        }
        self.stats.timeout_splits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Params;
    use crate::seed::{SeedBuilder, SeedGraph};
    use crate::sink::{CollectSink, CountSink};
    use kplex_graph::{core_decomposition, gen, GraphStore};
    use proptest::prelude::*;

    /// Minimal end-to-end run over one seed graph of a clique.
    #[test]
    fn clique_single_seed_finds_the_clique() {
        let g = gen::complete(6);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(6);
        let sg = b.build(&g, &decomp, decomp.order[0], params, &cfg).unwrap();
        let pm = PairMatrix::build(&sg, params);
        let mut searcher = Searcher::new(&sg, params, &cfg, Some(&pm));
        let mut sink = CollectSink::default();
        // Initial task: P = {seed}, C = hop1, X = hop2 (none) + xout (none).
        searcher.run_task(&[0], &sg.hop1, &[], &mut sink);
        let res = sink.into_sorted();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].len(), 6);
        assert_eq!(searcher.stats.outputs, 1);
        assert!(searcher.stats.arena_recursions > 0 || searcher.stats.branch_calls == 1);
    }

    #[test]
    fn timeout_splitting_defers_branches() {
        let g = gen::gnp(40, 0.4, 3);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(40);
        let Some(sg) = decomp
            .order
            .iter()
            .find_map(|&s| b.build(&g, &decomp, s, params, &cfg))
        else {
            return;
        };
        let pm = PairMatrix::build(&sg, params);
        let mut searcher = Searcher::new(&sg, params, &cfg, Some(&pm));
        searcher.set_time_budget(Some(Duration::from_nanos(1)));
        let mut sink = CollectSink::default();
        searcher.run_task(&[0], &sg.hop1.clone(), &[], &mut sink);
        // With a 1ns budget the first *polled* recursion (the very first,
        // by the stride-64 schedule) defers and the hit is latched, so every
        // later recursion defers too.
        let saved = searcher.take_saved();
        assert!(
            !saved.is_empty() || searcher.stats.branch_calls <= 2,
            "expected deferred branches"
        );
        for t in &saved {
            assert!(!t.p().is_empty());
            // The packed snapshot round-trips through its accessors.
            assert_eq!(
                t.p().len() + t.c().len() + t.x().len(),
                t.buf.len(),
                "buffer fully covered"
            );
        }
    }

    #[test]
    fn raised_stop_flag_suppresses_all_reports() {
        let g = gen::complete(6);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(6);
        let sg = b.build(&g, &decomp, decomp.order[0], params, &cfg).unwrap();
        let pm = PairMatrix::build(&sg, params);
        let mut searcher = Searcher::new(&sg, params, &cfg, Some(&pm));
        let flag = Arc::new(AtomicBool::new(true));
        searcher.set_stop_flag(Some(flag));
        let mut sink = CollectSink::default();
        let flow = searcher.run_task(&[0], &sg.hop1, &[], &mut sink);
        assert_eq!(flow, SinkFlow::Stop);
        assert!(sink.plexes.is_empty(), "no result may pass a raised flag");
        assert_eq!(searcher.stats.outputs, 0);
    }

    #[test]
    fn the_stop_poll_stops_a_result_free_subtask() {
        // A sub-task that finds nothing never reaches the report path's
        // check, so only the amortized poll in `branch` can stop it. Rerun
        // the largest result-free sub-task of a dense instance with the
        // flag raised before it starts: it must stop within one stride.
        let g = gen::gnp(50, 0.6, 5);
        let params = Params::new(2, 11).unwrap();
        let cfg = AlgoConfig::ours();
        let prep = crate::enumerate::prepare(&g, params);
        let mut builder = SeedBuilder::new(prep.graph.num_vertices());
        let mut stats = SearchStats::default();
        // (calls unflagged, calls flagged) of the largest result-free task.
        let mut largest = (0, 0);
        for &v in &prep.decomp.order {
            let Some(seed) = builder.build(&prep.graph, &prep.decomp, v, params, &cfg) else {
                continue;
            };
            let pm = PairMatrix::build(&seed, params);
            for task in crate::subtask::collect_subtasks(&seed, params, &cfg, Some(&pm), &mut stats)
            {
                let run = |flag: Option<Arc<AtomicBool>>| {
                    let mut searcher = Searcher::new(&seed, params, &cfg, Some(&pm));
                    searcher.set_stop_flag(flag);
                    let mut sink = CountSink::default();
                    searcher.run_task(task.p(), task.c(), task.x(), &mut sink);
                    (sink.count, searcher.stats.branch_calls)
                };
                let (found, calls) = run(None);
                if found == 0 && calls > largest.0 {
                    let (found, flagged) = run(Some(Arc::new(AtomicBool::new(true))));
                    assert_eq!(found, 0);
                    largest = (calls, flagged);
                }
            }
        }
        let (calls, flagged) = largest;
        let stride = u64::from(STOP_STRIDE);
        assert!(
            calls > 4 * stride,
            "the largest result-free task took {calls} calls"
        );
        assert!(
            flagged <= stride,
            "a raised flag stopped the {calls}-call task only after {flagged} calls"
        );
    }

    #[test]
    fn saved_task_accessors_partition_the_buffer() {
        let t = SavedTask::new(&[0, 3], &[5, 7, 9], &[2, 1 | XOUT_FLAG]);
        assert_eq!(t.p(), &[0, 3]);
        assert_eq!(t.c(), &[5, 7, 9]);
        assert_eq!(t.x(), &[2, 1 | XOUT_FLAG]);
    }

    /// Builds the first usable seed graph of a G(n, p) instance.
    fn any_seed(n: usize, p: f64, rng_seed: u64, params: Params) -> Option<SeedGraph> {
        let g = gen::gnp(n, p, rng_seed);
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(n);
        decomp
            .order
            .iter()
            .find_map(|&s| b.build(&g, &decomp, s, params, &cfg))
    }

    /// Full observable snapshot of the searcher's dynamic state.
    #[allow(clippy::type_complexity)]
    fn state_snapshot(
        s: &Searcher<'_>,
    ) -> (
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
        BitSet,
        BitSet,
        usize,
        usize,
        usize,
    ) {
        (
            s.p.clone(),
            s.d_p.clone(),
            s.c_arena.clone(),
            s.x_arena.clone(),
            s.p_bits.clone(),
            s.c_bits.clone(),
            s.c_start,
            s.x_start,
            s.bits_arena.len(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]
        /// The frame round-trip is exact: pushing an arbitrary candidate
        /// prefix into P, tightening, then unwinding restores `C`, `X`,
        /// `d_p`, both indicator bitsets, the segment starts and the undo
        /// journal bit-for-bit.
        fn push_tighten_undo_roundtrip(
            n in 10usize..32,
            p in 0.25f64..0.6,
            rng_seed in 0u64..500,
            take in 1usize..4,
        ) {
            let params = Params::new(2, 4).unwrap();
            let Some(sg) = any_seed(n, p, rng_seed, params) else {
                return Ok(());
            };
            let cfg = AlgoConfig::ours();
            let pm = PairMatrix::build(&sg, params);
            let mut s = Searcher::new(&sg, params, &cfg, Some(&pm));
            // Seed the arenas exactly like run_task for the initial task.
            s.c_arena.extend_from_slice(&sg.hop1);
            for &v in &sg.hop1 {
                s.c_bits.insert(v as usize);
            }
            s.x_arena.extend_from_slice(&sg.hop2);
            s.push_p(0);
            let before = state_snapshot(&s);

            // Frame: add up to `take` candidates to P, tighten, undo.
            let added_start = s.added_arena.len();
            let grab: Vec<u32> = sg.hop1.iter().copied().take(take).collect();
            for &v in &grab {
                s.added_arena.push(v);
                s.push_p(v);
            }
            let undo = s.tighten(added_start);
            // The tightened segments must mirror the indicator.
            prop_assert_eq!(
                s.c_arena[s.c_start..].to_vec(),
                s.c_bits.to_vec()
            );
            s.untighten(undo);
            s.pop_added(added_start, grab.len());
            s.added_arena.truncate(added_start);

            let after = state_snapshot(&s);
            prop_assert_eq!(before, after);
        }
    }
}
