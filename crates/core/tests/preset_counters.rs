//! Exact counters of every algorithm preset on three seeded generated
//! graphs: the result count, [`SearchStats::kernel_fingerprint`] and the
//! number of seed subgraphs built.
//!
//! The seed gates and the pruning rules may change how fast a preset runs,
//! but not which seeds it builds or the tree it walks on them. A change
//! that moves one of these numbers on purpose updates it here and says why.
//!
//! The graphs cover three regimes: a power-law graph whose hubs pass the
//! later-degree gate but rarely host a plex (most seeds rejected by the
//! common-neighbour gate), dense blobs on a sparse background, where the
//! one-round presets (FP, D2K) build one seed more than the fixpoint ones,
//! and a uniform random graph where nearly every seed builds.

use kplex_core::{Algorithm, Params, SearchStats};
use kplex_graph::{gen, CsrGraph};

/// (preset, result count, kernel fingerprint, seed graphs built).
type Pin = (Algorithm, u64, [u64; 5], u64);

fn check(name: &str, g: &CsrGraph, k: usize, q: usize, pins: &[Pin]) {
    let params = Params::new(k, q).unwrap();
    assert_eq!(
        pins.len(),
        Algorithm::ALL.len(),
        "{name}: one pin per preset"
    );
    for &(algo, count, fingerprint, seeds) in pins {
        let (got, stats): (u64, SearchStats) = algo.run_count(g, params);
        assert_eq!(
            (got, stats.kernel_fingerprint(), stats.seed_graphs),
            (count, fingerprint, seeds),
            "{name} ({k},{q}) {algo}"
        );
    }
}

#[test]
fn power_law_hubs() {
    use Algorithm::*;
    let g = gen::powerlaw_cluster(400, 5, 0.3, 2);
    check(
        "powerlaw_cluster(400, 5, 0.3, 2)",
        &g,
        2,
        7,
        &[
            (Fp, 5, [6, 0, 0, 5, 5], 4),
            (ListPlex, 5, [9, 0, 0, 5, 9], 4),
            (D2k, 5, [18, 0, 0, 5, 11], 4),
            (OursP, 5, [9, 0, 0, 5, 9], 4),
            (Ours, 5, [9, 0, 0, 5, 9], 4),
            (OursNoUb, 5, [9, 0, 0, 5, 9], 4),
            (OursFpUb, 5, [9, 0, 0, 5, 9], 4),
            (Basic, 5, [9, 0, 0, 5, 9], 4),
            (BasicR1, 5, [9, 0, 0, 5, 9], 4),
            (BasicR2, 5, [9, 0, 0, 5, 9], 4),
            (OursMinDegPivot, 5, [9, 0, 0, 5, 9], 4),
            (OursFirstPivot, 5, [9, 0, 0, 5, 9], 4),
        ],
    );
}

#[test]
fn dense_blobs_on_a_sparse_background() {
    use Algorithm::*;
    let g = gen::dense_blobs(&gen::gnm(300, 1200, 5), 8, 8, 14, 0.6, 6);
    check(
        "dense_blobs(gnm(300, 1200, 5), 8, 8, 14, 0.6, 6)",
        &g,
        3,
        8,
        &[
            (Fp, 24, [97, 28, 0, 24, 44], 19),
            (ListPlex, 24, [432, 0, 0, 24, 257], 18),
            (D2k, 24, [1803, 0, 0, 24, 655], 19),
            (OursP, 24, [77, 12, 1, 24, 59], 18),
            (Ours, 24, [77, 12, 1, 24, 59], 18),
            (OursNoUb, 24, [139, 0, 17, 24, 93], 18),
            (OursFpUb, 24, [87, 10, 4, 24, 65], 18),
            (Basic, 24, [180, 64, 0, 24, 109], 18),
            (BasicR1, 24, [117, 39, 0, 24, 72], 18),
            (BasicR2, 24, [123, 17, 20, 24, 99], 18),
            (OursMinDegPivot, 24, [77, 12, 1, 24, 59], 18),
            (OursFirstPivot, 24, [185, 28, 1, 24, 93], 18),
        ],
    );
}

#[test]
fn uniform_random() {
    use Algorithm::*;
    let g = gen::gnp(120, 0.15, 4);
    check(
        "gnp(120, 0.15, 4)",
        &g,
        2,
        5,
        &[
            (Fp, 885, [10946, 4771, 0, 885, 3042], 105),
            (ListPlex, 885, [20969, 0, 0, 885, 6007], 105),
            (D2k, 885, [29435, 0, 0, 885, 7951], 105),
            (OursP, 885, [3077, 812, 1528, 885, 1425], 105),
            (Ours, 885, [3072, 745, 1547, 885, 1447], 105),
            (OursNoUb, 885, [4515, 0, 6207, 885, 2355], 105),
            (OursFpUb, 885, [4049, 456, 5557, 885, 2112], 105),
            (Basic, 885, [7141, 2980, 0, 885, 2796], 105),
            (BasicR1, 885, [7141, 2980, 0, 885, 2796], 105),
            (BasicR2, 885, [4364, 745, 1547, 885, 2168], 105),
            (OursMinDegPivot, 885, [3072, 745, 1546, 885, 1447], 105),
            (OursFirstPivot, 885, [5165, 1470, 2101, 885, 1946], 105),
        ],
    );
}
