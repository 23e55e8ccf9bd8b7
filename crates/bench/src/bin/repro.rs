//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `repro [--threads N] <experiment>` where experiment is one of
//! `table2 table3 table4 table5 table6 table7 fig7 fig8 fig9 fig13 pivot
//! ctcp all`.
//!
//! Each experiment prints a markdown artifact and stores it under
//! `results/<id>.md`. Absolute numbers are from the synthetic stand-in
//! datasets (`kplex-datasets`); what is compared against the paper is the
//! *shape*: who wins, by what factor, and where the crossovers fall.

use kplex_bench::experiments::{self, SeqSetting, Sweep};
use kplex_bench::peak_alloc::PeakAlloc;
use kplex_bench::report::{fmt_mib, fmt_ratio, fmt_secs, publish, Table};
use kplex_bench::{load, time_algorithm};
use kplex_core::{Algorithm, Params};
use kplex_graph::GraphStore;
use kplex_parallel::{par_enumerate_count, EngineOptions};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` caps the worker count of every parallel experiment
    // (default: all hardware threads); accepted anywhere on the line.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                eprintln!("error: --threads requires a positive integer");
                std::process::exit(2);
            });
        THREAD_OVERRIDE.set(n).expect("parsed once");
        args.drain(i..=i + 1);
    }
    let what = args.first().map(String::as_str).unwrap_or("help");
    let t0 = Instant::now();
    match what {
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(),
        "table6" => table6(),
        "table7" => table7(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig13" => fig13(),
        "pivot" => pivot_ablation(),
        "ctcp" => ctcp_ablation(),
        "all" => {
            table2();
            table3();
            fig7();
            table4();
            fig8();
            fig13();
            table5();
            table6();
            fig9();
            table7();
            pivot_ablation();
            ctcp_ablation();
        }
        _ => {
            eprintln!(
                "usage: repro [--threads N] \
                 <table2|table3|table4|table5|table6|table7|fig7|fig8|fig9|fig13|pivot|ctcp|all>"
            );
            std::process::exit(2);
        }
    }
    eprintln!("\n[repro] finished in {:.1}s", t0.elapsed().as_secs_f64());
}

static THREAD_OVERRIDE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

fn threads() -> usize {
    *THREAD_OVERRIDE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    })
}

// --- Table 2: dataset statistics -------------------------------------------

fn table2() {
    let mut t = Table::new(&[
        "network", "class", "paper n", "paper m", "paper Δ", "paper D", "ours n", "ours m",
        "ours Δ", "ours D",
    ]);
    for d in kplex_datasets::all_datasets() {
        let s = d.stats();
        t.row(vec![
            d.name.into(),
            format!("{:?}", d.class),
            d.paper.n.to_string(),
            d.paper.m.to_string(),
            d.paper.max_degree.to_string(),
            d.paper.degeneracy.to_string(),
            s.n.to_string(),
            s.m.to_string(),
            s.max_degree.to_string(),
            s.degeneracy.to_string(),
        ]);
    }
    publish(
        "table2",
        "Table 2 — datasets (paper originals vs synthetic stand-ins)",
        &t.render(),
    );
}

// --- Table 3: sequential comparison ----------------------------------------

fn seq_table(id: &str, title: &str, settings: &[SeqSetting], algos: &[Algorithm]) {
    let mut header: Vec<&str> = vec!["network", "k", "q", "#k-plexes"];
    let names: Vec<String> = algos.iter().map(|a| a.name().to_string()).collect();
    header.extend(names.iter().map(String::as_str));
    header.push("best");
    let mut t = Table::new(&header);
    for s in settings {
        let g = load(s.dataset);
        let mut counts = Vec::new();
        let mut times = Vec::new();
        for &a in algos {
            let (secs, count) = time_algorithm(a, &g, s.k, s.q);
            counts.push(count);
            times.push(secs);
            eprintln!(
                "[{id}] {} k={} q={} {}: {} plexes in {}s",
                s.dataset,
                s.k,
                s.q,
                a.name(),
                count,
                fmt_secs(secs)
            );
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "algorithms disagree on {} k={} q={}: {counts:?}",
            s.dataset,
            s.k,
            s.q
        );
        let best = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| algos[i].name().to_string())
            .unwrap_or_default();
        let mut row = vec![
            s.dataset.to_string(),
            s.k.to_string(),
            s.q.to_string(),
            counts[0].to_string(),
        ];
        row.extend(times.iter().map(|&x| fmt_secs(x)));
        row.push(best);
        t.row(row);
    }
    publish(id, title, &t.render());
}

fn table3() {
    seq_table(
        "table3",
        "Table 3 — sequential running time (s), small & medium graphs",
        &experiments::table3(),
        &[
            Algorithm::Fp,
            Algorithm::ListPlex,
            Algorithm::OursP,
            Algorithm::Ours,
        ],
    );
}

fn table5() {
    seq_table(
        "table5",
        "Table 5 — effect of the upper-bounding technique (s)",
        &experiments::ablation(),
        &[Algorithm::OursNoUb, Algorithm::OursFpUb, Algorithm::Ours],
    );
}

fn table6() {
    seq_table(
        "table6",
        "Table 6 — effect of pruning rules R1/R2 (s)",
        &experiments::ablation(),
        &[
            Algorithm::Basic,
            Algorithm::BasicR1,
            Algorithm::BasicR2,
            Algorithm::Ours,
        ],
    );
}

fn pivot_ablation() {
    // Extension: quantifies the paper's second contribution (the
    // saturation-maximising pivot rule) by downgrading only the pivot.
    seq_table(
        "pivot",
        "Extension — pivot-rule ablation (s): first-candidate vs min-degree vs saturation tie-break",
        &experiments::ablation(),
        &[Algorithm::OursFirstPivot, Algorithm::OursMinDegPivot, Algorithm::Ours],
    );
}

fn ctcp_ablation() {
    // Extension: CTCP global reduction (kPlexS [12]) ahead of the standard
    // (q-k)-core preprocessing.
    use kplex_core::{ctcp_reduce, enumerate_count, prepare, AlgoConfig, Params};
    let mut t = Table::new(&[
        "network",
        "k",
        "q",
        "core n/m",
        "ctcp n/m",
        "rounds",
        "enum (s)",
        "ctcp+enum (s)",
    ]);
    for s in experiments::ablation().iter().step_by(2) {
        let g = load(s.dataset);
        let params = Params::new(s.k, s.q).expect("valid");
        let prep = prepare(&g, params);
        let t0 = Instant::now();
        let (count_direct, _) = enumerate_count(&g, params, &AlgoConfig::ours());
        let secs_direct = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let red = ctcp_reduce(&g, params);
        let (count_ctcp, _) = enumerate_count(&red.graph, params, &AlgoConfig::ours());
        let secs_ctcp = t1.elapsed().as_secs_f64();
        assert_eq!(count_direct, count_ctcp, "CTCP changed the result count");
        t.row(vec![
            s.dataset.into(),
            s.k.to_string(),
            s.q.to_string(),
            format!("{}/{}", prep.graph.num_vertices(), prep.graph.num_edges()),
            format!("{}/{}", red.graph.num_vertices(), red.graph.num_edges()),
            red.rounds.to_string(),
            fmt_secs(secs_direct),
            fmt_secs(secs_ctcp),
        ]);
        eprintln!("[ctcp] {} k={} q={} done", s.dataset, s.k, s.q);
    }
    publish(
        "ctcp",
        "Extension — CTCP global reduction (kPlexS-style) vs plain core reduction",
        &t.render(),
    );
}

// --- figures 7 & 9: q sweeps -------------------------------------------------

fn sweep_figure(id: &str, title: &str, sweeps: &[Sweep], algos: &[Algorithm]) {
    let mut body = String::new();
    for sw in sweeps {
        let g = load(sw.dataset);
        let mut header: Vec<String> = vec!["q".into(), "#k-plexes".into()];
        header.extend(algos.iter().map(|a| format!("{} (s)", a.name())));
        let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        for &q in &sw.qs {
            let mut row = vec![q.to_string()];
            let mut count0 = None;
            let mut cells = Vec::new();
            for &a in algos {
                let (secs, count) = time_algorithm(a, &g, sw.k, q);
                if let Some(c0) = count0 {
                    assert_eq!(c0, count, "{} disagrees at q={q}", a.name());
                } else {
                    count0 = Some(count);
                }
                cells.push(fmt_secs(secs));
            }
            row.push(count0.unwrap_or(0).to_string());
            row.extend(cells);
            t.row(row);
            eprintln!("[{id}] {} k={} q={q} done", sw.dataset, sw.k);
        }
        body.push_str(&format!(
            "\n### {} (k = {})\n\n{}",
            sw.dataset,
            sw.k,
            t.render()
        ));
    }
    publish(id, title, &body);
}

fn fig7() {
    sweep_figure(
        "fig7",
        "Figures 7 & 14 — running time vs q (FP / ListPlex / Ours)",
        &experiments::fig7(),
        &[Algorithm::Fp, Algorithm::ListPlex, Algorithm::Ours],
    );
}

fn fig9() {
    sweep_figure(
        "fig9",
        "Figures 9 & 15 — Basic vs Ours over q",
        &experiments::fig9(),
        &[Algorithm::Basic, Algorithm::Ours],
    );
}

// --- Table 4: parallel comparison -------------------------------------------

/// Runs one parallel configuration, returning (seconds, count).
fn run_parallel(
    g: &kplex_graph::CsrGraph,
    k: usize,
    q: usize,
    algo: Algorithm,
    nthreads: usize,
    timeout: Option<Duration>,
) -> (f64, u64) {
    let params = Params::new(k, q).expect("valid parameters");
    let opts = EngineOptions {
        timeout,
        ..EngineOptions::with_threads(nthreads)
    }
    .for_algorithm(algo);
    let start = Instant::now();
    let (count, _) = par_enumerate_count(g, params, &algo.config(), &opts);
    (start.elapsed().as_secs_f64(), count)
}

fn table4() {
    let m = threads();
    let mut t = Table::new(&[
        "network",
        "k",
        "q",
        "#k-plexes",
        "FP",
        "ListPlex",
        "Ours (τ=0.1ms)",
        "τ_best(µs)",
        "Ours (τ_best)",
    ]);
    for s in experiments::table4() {
        let g = load(s.dataset);
        let (t_fp, c1) = run_parallel(&g, s.k, s.q, Algorithm::Fp, m, None);
        let (t_lp, c2) = run_parallel(&g, s.k, s.q, Algorithm::ListPlex, m, None);
        let (t_ours, c3) = run_parallel(
            &g,
            s.k,
            s.q,
            Algorithm::Ours,
            m,
            Some(Duration::from_micros(100)),
        );
        assert_eq!(c1, c2);
        assert_eq!(c2, c3);
        // Tune τ over the sweep to find τ_best.
        let mut best = (100u64, t_ours);
        for tau in experiments::tau_sweep_us() {
            if tau == 100 {
                continue;
            }
            let (secs, c) = run_parallel(
                &g,
                s.k,
                s.q,
                Algorithm::Ours,
                m,
                Some(Duration::from_micros(tau)),
            );
            assert_eq!(c, c1);
            if secs < best.1 {
                best = (tau, secs);
            }
        }
        eprintln!(
            "[table4] {} k={} q={}: FP {} LP {} Ours {} best(τ={}µs) {}",
            s.dataset,
            s.k,
            s.q,
            fmt_secs(t_fp),
            fmt_secs(t_lp),
            fmt_secs(t_ours),
            best.0,
            fmt_secs(best.1)
        );
        t.row(vec![
            s.dataset.into(),
            s.k.to_string(),
            s.q.to_string(),
            c1.to_string(),
            fmt_secs(t_fp),
            fmt_secs(t_lp),
            fmt_secs(t_ours),
            best.0.to_string(),
            fmt_secs(best.1),
        ]);
    }
    publish(
        "table4",
        &format!("Table 4 — parallel running time (s), {m} threads, large graphs"),
        &t.render(),
    );
}

// --- Figure 8: speedup -------------------------------------------------------

fn fig8() {
    let counts = experiments::thread_counts();
    let mut header: Vec<String> = vec!["network".into(), "k".into(), "q".into()];
    header.extend(counts.iter().map(|c| format!("{c} thr (s)")));
    header.extend(counts.iter().skip(1).map(|c| format!("S({c})")));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for s in experiments::table4() {
        let g = load(s.dataset);
        let mut times = Vec::new();
        for &c in &counts {
            let (secs, _) = run_parallel(
                &g,
                s.k,
                s.q,
                Algorithm::Ours,
                c,
                Some(Duration::from_micros(100)),
            );
            times.push(secs);
            eprintln!(
                "[fig8] {} k={} {c} threads: {}s",
                s.dataset,
                s.k,
                fmt_secs(secs)
            );
        }
        let mut row = vec![s.dataset.to_string(), s.k.to_string(), s.q.to_string()];
        row.extend(times.iter().map(|&x| fmt_secs(x)));
        row.extend(times.iter().skip(1).map(|&x| fmt_ratio(times[0] / x)));
        t.row(row);
    }
    publish(
        "fig8",
        &format!(
            "Figure 8 — speedup of parallel Ours (host limit: {} threads)",
            threads()
        ),
        &t.render(),
    );
}

// --- Figure 13: τ sweep -------------------------------------------------------

fn fig13() {
    let m = threads();
    let taus = experiments::tau_sweep_us();
    let mut header: Vec<String> = vec!["network".into(), "k".into(), "q".into()];
    header.extend(taus.iter().map(|t| format!("τ={t}µs (s)")));
    header.push("no timeout (s)".into());
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for s in experiments::table4() {
        let g = load(s.dataset);
        let mut row = vec![s.dataset.to_string(), s.k.to_string(), s.q.to_string()];
        for &tau in &taus {
            let (secs, _) = run_parallel(
                &g,
                s.k,
                s.q,
                Algorithm::Ours,
                m,
                Some(Duration::from_micros(tau)),
            );
            row.push(fmt_secs(secs));
        }
        let (secs, _) = run_parallel(&g, s.k, s.q, Algorithm::Ours, m, None);
        row.push(fmt_secs(secs));
        t.row(row);
        eprintln!("[fig13] {} k={} done", s.dataset, s.k);
    }
    publish(
        "fig13",
        &format!("Figure 13 — effect of the straggler timeout τ_time ({m} threads)"),
        &t.render(),
    );
}

// --- Table 7: memory ----------------------------------------------------------

fn table7() {
    let mut t = Table::new(&[
        "network",
        "k",
        "q",
        "FP (MiB)",
        "ListPlex (MiB)",
        "Ours (MiB)",
    ]);
    for s in experiments::table7() {
        let g = load(s.dataset);
        let mut cells = Vec::new();
        for algo in [Algorithm::Fp, Algorithm::ListPlex, Algorithm::Ours] {
            PeakAlloc::reset_peak();
            let base = PeakAlloc::current_bytes();
            let (_, _) = time_algorithm(algo, &g, s.k, s.q);
            let peak = PeakAlloc::peak_bytes().saturating_sub(base);
            cells.push(fmt_mib(peak));
            eprintln!(
                "[table7] {} k={} q={} {}: peak {} MiB over baseline",
                s.dataset,
                s.k,
                s.q,
                algo.name(),
                fmt_mib(peak)
            );
        }
        t.row(vec![
            s.dataset.into(),
            s.k.to_string(),
            s.q.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    publish(
        "table7",
        "Table 7 (App. B.2) — peak enumeration memory over graph baseline",
        &t.render(),
    );
}
