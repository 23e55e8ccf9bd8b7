//! Seed subgraph construction (Algorithm 2 lines 4–6 and Corollary 5.2).
//!
//! For a seed vertex `v_i`, the seed subgraph `G_i` is the subgraph induced
//! by the vertices that (a) come at or after `v_i` in the degeneracy ordering
//! and (b) lie within two hops of `v_i` (Eq (1)). Because any k-plex of size
//! `>= q >= 2k-1` containing `v_i` has diameter at most two (Theorem 3.3),
//! `G_i` contains every plex whose η-minimal vertex is `v_i`.
//!
//! `G_i` is dense, so it is stored as an adjacency bitset matrix with local
//! ids (`0` is always the seed). Earlier vertices within two hops — needed
//! only as maximality witnesses — are kept outside the matrix as bitset rows
//! over the local columns (`xout`).
//!
//! Most seed vertices cannot host a plex of `q` vertices, so
//! [`SeedBuilder::build`] rejects them as early as it can: first by the
//! number of the seed's later neighbours, then by Corollary 5.2 on those
//! neighbours alone, reading only their rows. Only a seed that passes both
//! pays for the two-hop ball, its rows, the local matrix and the pruning
//! fixpoint. Its doc lists the gates and why the early ones change no
//! built seed.

use crate::config::{AlgoConfig, Params};
use kplex_graph::matrix::AdjMatrix;
use kplex_graph::{BitSet, CoreDecomposition, GraphStore, RectBitMatrix, VertexId};

/// Encoding for exclusive-set entries: local vertices are plain indices,
/// outside vertices carry this flag over their `xout` row index.
pub const XOUT_FLAG: u32 = 1 << 31;

/// A fully materialised seed subgraph, ready for sub-task enumeration.
#[derive(Clone, Debug)]
pub struct SeedGraph {
    /// The seed vertex, as an id of the (reduced) input graph.
    pub seed: VertexId,
    /// Local id -> input-graph id; `verts[0] == seed`.
    pub verts: Vec<VertexId>,
    /// Local adjacency matrix of `G_i`.
    pub adj: AdjMatrix,
    /// Static degree `d_{G_i}(v)` of every local vertex.
    pub deg: Vec<u32>,
    /// Local ids adjacent to the seed (the initial candidate set `C_S`).
    pub hop1: Vec<u32>,
    /// Local ids at distance two from the seed within `G_i` — the pool the
    /// sub-task sets `S` are drawn from.
    pub hop2: Vec<u32>,
    /// Indicator of `hop1` over local ids.
    pub hop1_bits: BitSet,
    /// Earlier-ordered vertices within two hops (maximality witnesses only).
    pub xout: Vec<VertexId>,
    /// Adjacency of each `xout` vertex towards the local vertices.
    pub xout_rows: RectBitMatrix,
    /// Number of vertices Corollary 5.2 removed during construction.
    pub pruned_vertices: u64,
}

impl SeedGraph {
    /// Number of local vertices `|V_i|`.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// True when only the seed itself remains.
    pub fn is_empty(&self) -> bool {
        self.verts.len() <= 1
    }
}

/// Reusable scratch for building seed subgraphs over one (reduced) graph.
///
/// Every per-build intermediate — the two-hop ball lists, the
/// pre-compaction adjacency matrix, the Corollary 5.2 pruning state — is
/// pooled here and recycled across builds, because on real workloads the
/// builder runs for thousands of eligible seeds that end up rejected: a
/// `malloc` per matrix row per attempt used to dominate the whole
/// sequential pipeline. Only the structures moved into the returned
/// [`SeedGraph`] are freshly allocated, and only for seeds that survive.
pub struct SeedBuilder {
    /// input id -> local id (u32::MAX = absent); reset after each build.
    map: Vec<u32>,
    touched: Vec<VertexId>,
    // --- pooled per-build scratch ---
    later: Vec<VertexId>,
    earlier: Vec<VertexId>,
    verts: Vec<VertexId>,
    adj: AdjMatrix,
    alive: BitSet,
    seed_row: BitSet,
    check: Vec<u32>,
    old_to_new: Vec<u32>,
    /// Input-graph-sized indicator of the seed's later neighbours, used by
    /// the pre-matrix common-neighbour gates. Cleared after every build.
    gate_mark: BitSet,
    /// The later neighbours the first common-neighbour gate pruned,
    /// ascending, so the ball's gate can replay them.
    dropped: Vec<VertexId>,
    /// Pooled row-decode scratch for [`GraphStore::row`]. Zero-copy backends
    /// never touch these; compressed backends decode into them, and pooling
    /// keeps that to at most two live rows with no per-build allocation.
    row_a: Vec<VertexId>,
    row_b: Vec<VertexId>,
}

impl SeedBuilder {
    /// Scratch for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            map: vec![u32::MAX; n],
            touched: Vec::new(),
            later: Vec::new(),
            earlier: Vec::new(),
            verts: Vec::new(),
            adj: AdjMatrix::new(0),
            alive: BitSet::new(0),
            seed_row: BitSet::new(0),
            check: Vec::new(),
            old_to_new: Vec::new(),
            gate_mark: BitSet::new(n),
            dropped: Vec::new(),
            row_a: Vec::new(),
            row_b: Vec::new(),
        }
    }

    /// Builds the seed subgraph for `seed`, or `None` when it provably cannot
    /// host a plex of size `q`. Accepts any [`GraphStore`] backend.
    ///
    /// A plex `P` of at least `q` vertices whose η-minimal vertex is `seed`
    /// holds at least `q − k` later neighbours of the seed (the seed misses
    /// at most `k − 1` others), and by Corollary 5.2 each of them has at
    /// least `q − 2k` common neighbours with the seed inside `P`, so inside
    /// those later neighbours. The gates, in order:
    ///
    /// 1. fewer than `q − k` later neighbours: rejected after reading the
    ///    seed's row alone;
    /// 2. round 0 of Corollary 5.2 on the later neighbours alone, in
    ///    ascending id order with the in-round cascade, leaves fewer than
    ///    `q − k` of them: rejected after reading only their rows;
    /// 3. the later two-hop ball, walked through the later neighbours,
    ///    holds fewer than `q` vertices;
    /// 4. round 0 on the whole ball, which takes each later neighbour's
    ///    verdict from gate 2 at its ascending position instead of reading
    ///    its row a third time;
    /// 5. the fixpoint's later rounds on the local matrix, then fewer than
    ///    `q` survivors or fewer than `q − k` of them adjacent to the seed.
    ///
    /// Gate 2 prunes exactly the later neighbours that gate 4 prunes: a
    /// pruned two-hop vertex never counts as a common neighbour, so the
    /// cascade among later neighbours does not depend on it. Its survivors
    /// therefore bound the built seed's `hop1`, so gate 2 rejects only
    /// seeds that a later gate rejects anyway, and every built
    /// [`SeedGraph`] is the same as without it. A built seed reads each row
    /// no more often than without gate 2: a later neighbour's row twice
    /// before the matrix (gate 2 and the ball walk), any other ball
    /// vertex's row once (gate 4).
    pub fn build<G: GraphStore + ?Sized>(
        &mut self,
        g: &G,
        decomp: &CoreDecomposition,
        seed: VertexId,
        params: Params,
        cfg: &AlgoConfig,
    ) -> Option<SeedGraph> {
        // Detach the row scratch so rows can stay borrowed while the rest of
        // the builder state is mutated.
        let mut row_a = std::mem::take(&mut self.row_a);
        let mut row_b = std::mem::take(&mut self.row_b);
        let out = self.build_inner(g, decomp, seed, params, cfg, &mut row_a, &mut row_b);
        self.row_a = row_a;
        self.row_b = row_b;
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn build_inner<G: GraphStore + ?Sized>(
        &mut self,
        g: &G,
        decomp: &CoreDecomposition,
        seed: VertexId,
        params: Params,
        cfg: &AlgoConfig,
        row_a: &mut Vec<VertexId>,
        row_b: &mut Vec<VertexId>,
    ) -> Option<SeedGraph> {
        let (k, q) = (params.k, params.q);
        // Gate 1, in O(deg). The seed's row stays in `row_a` until gate 4
        // is done.
        let seed_row = g.row(seed, row_a);
        let direct_later = seed_row.iter().filter(|&&w| decomp.before(seed, w)).count();
        if direct_later + k < q {
            return None;
        }

        // Round 0 of Corollary 5.2, run against the raw rows before the
        // local matrix exists, so on hub seeds most of the ball dies before
        // the O(|ball|²) matrix build is paid. It matches the fixpoint's
        // first pass exactly — same thresholds, same ascending scan order,
        // and the same in-round cascade the matrix loop got from `isolate`:
        // a pruned seed neighbour stops counting as a common neighbour for
        // every vertex tested after it (`gate_mark` removal). Round-limited
        // presets (FP, D2K use one threshold round) therefore prune
        // identically, and the matrix fixpoint starts at round 1.
        let thr_adj = q as i64 - 2 * k as i64;
        let thr_two = q as i64 - 2 * k as i64 + 2;
        let threshold_round = cfg.seed_prune_rounds > 0;

        // --- gate 2: round 0 on the later neighbours alone ------------------
        // It only counts: walking the ball here as well made a rejected
        // hub seed pay for the ball it never uses. `dropped` records the
        // neighbours it prunes, ascending, for gate 4.
        let Self {
            gate_mark, dropped, ..
        } = self;
        dropped.clear();
        for &w in seed_row {
            if decomp.before(seed, w) {
                gate_mark.insert(w as usize);
            }
        }
        let mut unscanned = direct_later;
        let mut kept = 0;
        for &w in seed_row {
            if !decomp.before(seed, w) {
                continue;
            }
            unscanned -= 1;
            let common = g
                .row(w, row_b)
                .iter()
                .filter(|&&x| gate_mark.contains(x as usize))
                .count() as i64;
            if threshold_round && common < thr_adj {
                gate_mark.remove(w as usize); // cascade within the round
                dropped.push(w);
            } else {
                kept += 1;
            }
            if kept + unscanned + k < q {
                break; // the rest of the scan cannot save the seed
            }
        }
        if kept + k < q {
            self.clear_gate(seed_row);
            return None;
        }

        // --- collect the two-hop ball, split by ordering position ---------
        // Two-hop expansion only walks through *later* hop-1 middles: any
        // plex member (or maximality witness) at distance two from the seed
        // shares a common neighbour *inside the plex*, and all plex members
        // other than the seed are later in η. Middles that gate 2 dropped
        // are walked too: their other neighbours can still be witnesses.
        let Self {
            map: mark,
            touched,
            later,
            earlier,
            ..
        } = self;
        later.clear();
        earlier.clear();
        mark[seed as usize] = 0;
        touched.push(seed);
        let mut visit = |v: VertexId| {
            if mark[v as usize] == u32::MAX {
                mark[v as usize] = 0; // provisional marker
                touched.push(v);
                if decomp.before(seed, v) {
                    later.push(v);
                } else {
                    earlier.push(v);
                }
            }
        };
        for &w in seed_row {
            visit(w);
        }
        for &w in seed_row {
            if !decomp.before(seed, w) {
                continue; // earlier middles cannot occur inside a plex
            }
            for &x in g.row(w, row_b) {
                if x != seed {
                    visit(x);
                }
            }
        }
        if 1 + self.later.len() < q {
            self.clear_gate(seed_row);
            self.reset();
            return None;
        }

        self.later.sort_unstable();
        self.earlier.sort_unstable();

        // --- gate 4: round 0 on the whole ball ------------------------------
        // `gate_mark` starts again from every later neighbour; a later
        // neighbour is removed at its own position when gate 2 dropped it,
        // without reading its row again. While the walk has not reached a
        // later neighbour it is still marked, which is how this walk tells
        // it from a two-hop vertex.
        let Self {
            gate_mark,
            dropped,
            later,
            ..
        } = self;
        for &w in dropped.iter() {
            gate_mark.insert(w as usize);
        }
        let mut pruned_vertices = 0u64;
        let mut dropped_iter = dropped.iter().peekable();
        let mut kept = 0;
        for i in 0..later.len() {
            let u = later[i];
            let prune = if gate_mark.contains(u as usize) {
                dropped_iter.next_if_eq(&&u).is_some()
            } else {
                let common = g
                    .row(u, row_b)
                    .iter()
                    .filter(|&&w| gate_mark.contains(w as usize))
                    .count() as i64;
                k == 1 || common < 1 || (threshold_round && common < thr_two)
            };
            if prune {
                pruned_vertices += 1;
                gate_mark.remove(u as usize);
            } else {
                later[kept] = u;
                kept += 1;
            }
        }
        later.truncate(kept);
        self.clear_gate(seed_row);
        if 1 + self.later.len() < q {
            self.reset();
            return None;
        }

        // --- local matrix over {seed} ∪ later ------------------------------
        // Clear the provisional ball markers first so that earlier-ordered
        // vertices read as "absent" (u32::MAX) during the adjacency build.
        for &t in self.touched.iter() {
            self.map[t as usize] = u32::MAX;
        }
        self.verts.clear();
        self.verts.push(seed);
        self.verts.extend_from_slice(&self.later);
        for (i, &v) in self.verts.iter().enumerate() {
            self.map[v as usize] = i as u32;
        }
        let n_local = self.verts.len();
        self.adj.reset(n_local);
        for i in 0..n_local {
            let v = self.verts[i];
            for &w in g.row(v, row_a) {
                let j = self.map[w as usize];
                if j != u32::MAX && (j as usize) > i {
                    self.adj.add_edge(i, j as usize);
                }
            }
        }

        // --- Corollary 5.2 pruning to fixpoint -----------------------------
        // thresholds: adjacent to seed -> q - 2k; two hops -> q - 2k + 2.
        // Round 0 already ran as the pre-matrix gate above.
        self.alive.reset(n_local);
        self.alive.set_all();
        let mut round = 1usize;
        loop {
            let mut changed = false;
            // Current seed row restricted to alive.
            self.seed_row.assign_from(self.adj.row(0));
            self.seed_row.intersect_with(&self.alive);
            for u in 1..n_local {
                if !self.alive.contains(u) {
                    continue;
                }
                let adjacent = self.adj.has_edge(0, u);
                let common = self.adj.row(u).intersection_count(&self.seed_row) as i64;
                let prune = if adjacent {
                    // Structural: nothing extra (already at distance 1).
                    round < cfg.seed_prune_rounds && common < thr_adj
                } else {
                    // Structural: a two-hop vertex must share a later common
                    // neighbour with the seed (always required, Theorem 3.3),
                    // and for k = 1 plexes are cliques so two-hop vertices
                    // can never join the seed. Corollary 5.2 strengthens the
                    // threshold.
                    k == 1 || common < 1 || (round < cfg.seed_prune_rounds && common < thr_two)
                };
                if prune {
                    self.alive.remove(u);
                    self.adj.isolate(u);
                    pruned_vertices += 1;
                    changed = true;
                }
            }
            round += 1;
            if !changed {
                break;
            }
        }

        // --- compact into the final local numbering ------------------------
        self.check.clear();
        self.alive.collect_into(&mut self.check);
        let survivors = &self.check;
        debug_assert_eq!(survivors.first(), Some(&0), "seed must survive pruning");
        if survivors.len() < q {
            self.reset();
            return None;
        }
        let mut final_verts = Vec::with_capacity(survivors.len());
        self.old_to_new.clear();
        self.old_to_new.resize(n_local, u32::MAX);
        for (new, &old) in survivors.iter().enumerate() {
            self.old_to_new[old as usize] = new as u32;
            final_verts.push(self.verts[old as usize]);
        }
        let nf = final_verts.len();
        let mut fadj = AdjMatrix::new(nf);
        for (new, &old) in survivors.iter().enumerate() {
            for w in self.adj.row(old as usize).iter() {
                let nw = self.old_to_new[w];
                if nw != u32::MAX && (nw as usize) > new {
                    fadj.add_edge(new, nw as usize);
                }
            }
        }
        let deg: Vec<u32> = (0..nf).map(|v| fadj.degree(v) as u32).collect();
        let mut hop1 = Vec::new();
        let mut hop2 = Vec::new();
        let mut hop1_bits = BitSet::new(nf);
        for v in 1..nf {
            if fadj.has_edge(0, v) {
                hop1.push(v as u32);
                hop1_bits.insert(v);
            } else {
                hop2.push(v as u32);
            }
        }
        if hop1.len() + k < q {
            self.reset();
            return None;
        }

        // --- outside exclusive vertices ------------------------------------
        // Update the mark table to the final local numbering. Every touched
        // vertex (including the earlier-ordered ones, which carry the
        // provisional marker 0) must be cleared first, otherwise earlier
        // ball vertices masquerade as local id 0.
        for &v in self.touched.iter() {
            self.map[v as usize] = u32::MAX;
        }
        for (i, &v) in final_verts.iter().enumerate() {
            self.map[v as usize] = i as u32;
        }
        let mut xout: Vec<VertexId> = Vec::new();
        let mut rows: Vec<BitSet> = Vec::new();
        let need_deg = (q + 1).saturating_sub(k); // |N(x) ∩ P| >= q+1-k
        for xi in 0..self.earlier.len() {
            let x = self.earlier[xi];
            let mut row = BitSet::new(nf);
            for &w in g.row(x, row_a) {
                let lw = self.map[w as usize];
                if lw != u32::MAX {
                    row.insert(lw as usize);
                }
            }
            if cfg.prune_xout {
                if row.count() < need_deg {
                    continue;
                }
                let adjacent = row.contains(0);
                let common = row.intersection_count(&hop1_bits) as i64;
                let thr = if adjacent { thr_adj } else { thr_two };
                if common < thr.max(if adjacent { i64::MIN } else { 1 }) {
                    continue;
                }
            }
            xout.push(x);
            rows.push(row);
        }
        let mut xout_rows = RectBitMatrix::new(rows.len(), nf);
        for (r, row) in rows.iter().enumerate() {
            for c in row.iter() {
                xout_rows.set(r, c);
            }
        }

        self.reset();
        Some(SeedGraph {
            seed,
            verts: final_verts,
            adj: fadj,
            deg,
            hop1,
            hop2,
            hop1_bits,
            xout,
            xout_rows,
            pruned_vertices,
        })
    }

    /// Unmarks the seed's neighbours in `gate_mark`.
    fn clear_gate(&mut self, seed_row: &[VertexId]) {
        for &w in seed_row {
            self.gate_mark.remove(w as usize);
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.map[v as usize] = u32::MAX;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplex_graph::{core_decomposition, gen, CsrGraph};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn build_all(g: &CsrGraph, params: Params, cfg: &AlgoConfig) -> Vec<SeedGraph> {
        let decomp = core_decomposition(g);
        let mut b = SeedBuilder::new(g.num_vertices());
        decomp
            .order
            .iter()
            .filter_map(|&s| b.build(g, &decomp, s, params, cfg))
            .collect()
    }

    #[test]
    fn clique_first_seed_contains_everything() {
        let g = gen::complete(6);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let first = decomp.order[0];
        let mut b = SeedBuilder::new(6);
        let sg = b.build(&g, &decomp, first, params, &cfg).unwrap();
        assert_eq!(sg.len(), 6);
        assert_eq!(sg.verts[0], first);
        assert_eq!(sg.hop1.len(), 5);
        assert!(sg.hop2.is_empty());
        assert!(sg.xout.is_empty());
        assert_eq!(sg.deg[0], 5);
    }

    #[test]
    fn later_seeds_keep_earlier_vertices_as_xout() {
        let g = gen::complete(6);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(6);
        // The second seed sees 4 later vertices + itself; the first seed is
        // an outside witness.
        let sg = b.build(&g, &decomp, decomp.order[1], params, &cfg);
        // |V_i| = 5 >= q = 4, so it builds.
        let sg = sg.unwrap();
        assert_eq!(sg.len(), 5);
        assert_eq!(sg.xout.len(), 1);
        assert_eq!(sg.xout[0], decomp.order[0]);
        // The witness is adjacent to every local vertex (clique).
        assert_eq!(sg.xout_rows.row(0).count(), 5);
    }

    #[test]
    fn small_seeds_are_rejected() {
        let g = gen::path(10);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig::ours();
        assert!(build_all(&g, params, &cfg).is_empty());
    }

    #[test]
    fn two_hop_vertices_without_common_neighbor_are_dropped() {
        // Star with center 8 (late id so the leaves come first in η? use
        // explicit construction): seed 0 adjacent to 1; 1 adjacent to 2; 2 is
        // two hops from 0 with exactly one common neighbour (vertex 1).
        // With q = 3, k = 1: thr_two = 3 - 2 + 2 = 3 > 1, so vertex 2 gets
        // pruned from seed 0's subgraph; the subgraph then dies (< q).
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let params = Params::new(1, 3).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(3);
        for s in g.vertices() {
            assert!(b.build(&g, &decomp, s, params, &cfg).is_none());
        }
    }

    #[test]
    fn pruning_disabled_keeps_structural_filter_only() {
        // Triangle 0-1-2 plus 2-3: vertex 3 is two hops from 0 via 2.
        // q = 3, k = 2: thr_two = 1, so even full pruning keeps 3 iff it has
        // one common neighbour — it does (vertex 2).
        let g = CsrGraph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let params = Params::new(2, 3).unwrap();
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(4);
        // The pendant vertex 3 peels first, so its seed graph holds all four
        // vertices: hop1 = {2}, hop2 = {0, 1} (each shares neighbour 2).
        let mut found = false;
        for s in g.vertices() {
            if let Some(sg) = b.build(&g, &decomp, s, params, &AlgoConfig::ours()) {
                if sg.len() == 4 {
                    found = true;
                    assert_eq!(sg.hop1.len(), 1);
                    assert_eq!(sg.hop2.len(), 2);
                }
            }
        }
        assert!(found, "expected one 4-vertex seed subgraph");
    }

    #[test]
    fn seed_graphs_cover_later_two_hop_ball() {
        let g = gen::gnp(40, 0.25, 3);
        let params = Params::new(2, 4).unwrap();
        let cfg = AlgoConfig {
            seed_prune_rounds: 0,
            prune_xout: false,
            ..AlgoConfig::ours()
        };
        let decomp = core_decomposition(&g);
        let mut b = SeedBuilder::new(40);
        for s in g.vertices() {
            let Some(sg) = b.build(&g, &decomp, s, params, &cfg) else {
                continue;
            };
            // Every kept local vertex is later than the seed and within two
            // hops in G_i (hop1 or hop2 with a hop1 neighbour).
            assert_eq!(sg.verts[0], s);
            for (i, &v) in sg.verts.iter().enumerate().skip(1) {
                assert!(decomp.before(s, v));
                let i = i as u32;
                assert!(sg.hop1.contains(&i) || sg.hop2.contains(&i));
            }
            for &h2 in &sg.hop2 {
                let row = sg.adj.row(h2 as usize);
                assert!(row.intersection_count(&sg.hop1_bits) >= 1);
            }
            // Degrees match the matrix.
            for i in 0..sg.len() {
                assert_eq!(sg.deg[i] as usize, sg.adj.degree(i));
            }
        }
    }

    /// A CSR graph that counts how often each vertex's row is read.
    struct RowCounter {
        g: CsrGraph,
        reads: Vec<AtomicU32>,
    }

    impl RowCounter {
        fn new(g: CsrGraph) -> Self {
            let reads = (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect();
            Self { g, reads }
        }

        /// Every vertex's read count since the last call, zeroing them.
        fn take(&self) -> Vec<u32> {
            let reads = self.reads.iter();
            // ordering: counters of one thread's reads, read by it.
            reads.map(|r| r.swap(0, Ordering::Relaxed)).collect()
        }
    }

    impl GraphStore for RowCounter {
        fn num_vertices(&self) -> usize {
            self.g.num_vertices()
        }
        fn num_edges(&self) -> usize {
            self.g.num_edges()
        }
        fn degree(&self, v: VertexId) -> usize {
            self.g.degree(v)
        }
        fn row<'a>(&'a self, v: VertexId, scratch: &'a mut Vec<VertexId>) -> &'a [VertexId] {
            // ordering: as in `take`.
            self.reads[v as usize].fetch_add(1, Ordering::Relaxed);
            self.g.row(v, scratch)
        }
        fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
            self.g.has_edge(u, v)
        }
        fn kind(&self) -> kplex_graph::StoreKind {
            self.g.kind()
        }
        fn resident_bytes(&self) -> usize {
            self.g.resident_bytes()
        }
    }

    /// Seed 0 with later neighbours 1, 2, 3, each joined to all of 4, 5, 6
    /// (a triangle); with `triangle` the neighbours 1, 2, 3 form one too.
    fn seed_with_ball(triangle: bool) -> RowCounter {
        let mut edges = vec![(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)];
        for a in 1..=3 {
            for x in 4..=6 {
                edges.push((a, x));
            }
        }
        if triangle {
            edges.extend([(1, 2), (1, 3), (2, 3)]);
        }
        RowCounter::new(CsrGraph::from_edges(7, edges).unwrap())
    }

    #[test]
    fn a_seed_rejected_on_its_later_neighbours_reads_only_their_rows() {
        // k = 2, q = 5: the seed needs q − k = 3 later neighbours with
        // q − 2k = 1 common neighbour among them each. Its three are
        // pairwise non-adjacent, while its later two-hop ball holds 7 ≥ q
        // vertices, so rejecting it needs none of the rows of 4, 5, 6.
        let g = seed_with_ball(false);
        let decomp = core_decomposition(&g);
        assert_eq!(decomp.order[0], 0, "the seed must come first in η");
        let mut b = SeedBuilder::new(7);
        g.take();
        let params = Params::new(2, 5).unwrap();
        assert!(b
            .build(&g, &decomp, 0, params, &AlgoConfig::ours())
            .is_none());
        let reads = g.take();
        assert_eq!(reads[0], 1, "the seed's row is read once: {reads:?}");
        assert_eq!(&reads[4..], &[0, 0, 0], "two-hop rows read: {reads:?}");
    }

    #[test]
    fn a_built_seed_reads_no_row_more_often() {
        // With the triangle on 1, 2, 3 the seed builds, keeping all seven
        // vertices. Per vertex, the reads the builder made before the
        // later-neighbour gate existed: the seed's row six times, each
        // later neighbour's three times (ball walk, common-neighbour gate,
        // matrix), each two-hop vertex's twice (gate, matrix).
        const BEFORE: [u32; 7] = [6, 3, 3, 3, 2, 2, 2];
        let g = seed_with_ball(true);
        let decomp = core_decomposition(&g);
        assert_eq!(decomp.order[0], 0, "the seed must come first in η");
        let mut b = SeedBuilder::new(7);
        g.take();
        let params = Params::new(2, 5).unwrap();
        let sg = b
            .build(&g, &decomp, 0, params, &AlgoConfig::ours())
            .unwrap();
        assert_eq!(sg.verts.len(), 7);
        let reads = g.take();
        assert!(
            reads.iter().zip(BEFORE).all(|(&now, before)| now <= before),
            "reads {reads:?} exceed {BEFORE:?}"
        );
    }

    #[test]
    fn builder_scratch_is_clean_between_seeds() {
        let g = gen::gnm(30, 90, 1);
        let params = Params::new(2, 3).unwrap();
        let cfg = AlgoConfig::ours();
        let decomp = core_decomposition(&g);
        let mut b1 = SeedBuilder::new(30);
        for s in g.vertices() {
            let a = b1.build(&g, &decomp, s, params, &cfg);
            // A fresh builder only ever builds this seed; results must agree.
            let mut fresh = SeedBuilder::new(30);
            let c = fresh.build(&g, &decomp, s, params, &cfg);
            assert_eq!(a.map(|x| x.verts), c.map(|x| x.verts));
        }
    }
}
