//! Spans recorded by the benchmark around its calls into the program's
//! public entry points, and the traced copy of `kplex_core::enumerate`.
//!
//! A span is a name, a start, an end and a parent, tagged with one id per
//! job. Spans stay in memory and are written out when the run ends; a
//! span's self time is its duration minus the part its child spans cover.

use kplex_core::{
    collect_subtasks, prepare, AlgoConfig, CountSink, PairMatrix, Params, SearchStats, Searcher,
    SeedBuilder,
};
use kplex_graph::GraphStore;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    parent: Option<usize>,
    job: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span recorder. Spans nest: a span entered while another is
/// open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, job: u64) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            job,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, span: Open) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(span.0),
            "spans must close innermost first"
        );
        self.spans[span.0].end_ns = end;
    }

    /// Records a span that has already ended; returns its index for use as
    /// a parent.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            parent,
            job,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Moves `other`'s spans (recorded against the same epoch, e.g. on
    /// another thread) into this tracer as extra roots.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, job);
        let out = f();
        self.exit(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name` whose job is `job`, in seconds.
    pub fn total(&self, name: &str, job: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.job == job)
            .map(Span::secs)
            .sum()
    }
}

/// Per span name: (count, total seconds, self seconds) over `spans`.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += s.secs() - c;
    }
    out
}

/// Writes every tracer's spans as CSV (`tracer,id,parent,job,name,start_ns,
/// end_ns`; ids index spans within their tracer, parent is empty at a root).
pub fn write_csv(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "tracer,id,parent,job,name,start_ns,end_ns")?;
    for (t, tracer) in tracers.iter().enumerate() {
        for (i, s) in tracer.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{t},{i},{parent},{},{},{},{}",
                s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

/// What the traced core copy observed besides its spans.
#[derive(Clone, Debug, Default)]
pub struct CoreRun {
    pub count: u64,
    pub stats: SearchStats,
    pub core_vertices: u64,
    pub seed_visits: u64,
    pub seeds_built: u64,
}

/// Span names of the traced core copy.
pub const CORE_ENUMERATE: &str = "core.enumerate";
pub const CORE_PREPARE: &str = "core.prepare";
pub const CORE_SEED_BUILD: &str = "core.seed_build";
pub const CORE_PAIR_MATRIX: &str = "core.pair_matrix";
pub const CORE_SPLIT: &str = "core.split";
pub const CORE_BRANCH: &str = "core.branch";

/// A traced copy of `kplex_core::enumerate_count`'s loop: `prepare` →
/// `SeedBuilder::build` per seed vertex → `PairMatrix::build` →
/// `collect_subtasks` → `Searcher::run_task` per sub-task, each call inside
/// a span. Its count and `kernel_fingerprint()` must equal
/// `enumerate_count`'s before its timings are reported.
pub fn traced_enumerate<G: GraphStore + ?Sized>(
    g: &G,
    params: Params,
    cfg: &AlgoConfig,
    tr: &mut Tracer,
    job: u64,
) -> CoreRun {
    let root = tr.enter(CORE_ENUMERATE, job);
    let mut run = CoreRun::default();
    let mut sink = CountSink::default();
    let prep = tr.span(CORE_PREPARE, job, || prepare(g, params));
    let n = prep.graph.num_vertices();
    run.core_vertices = n as u64;
    if n >= params.q {
        let mut builder = SeedBuilder::new(n);
        for &sv in &prep.decomp.order {
            run.seed_visits += 1;
            let seed = tr.span(CORE_SEED_BUILD, job, || {
                builder.build(&prep.graph, &prep.decomp, sv, params, cfg)
            });
            let Some(seed) = seed else {
                continue;
            };
            run.seeds_built += 1;
            run.stats.seed_graphs += 1;
            run.stats.seed_pruned_vertices += seed.pruned_vertices;
            let pairs = cfg
                .use_r2
                .then(|| tr.span(CORE_PAIR_MATRIX, job, || PairMatrix::build(&seed, params)));
            let tasks = tr.span(CORE_SPLIT, job, || {
                collect_subtasks(&seed, params, cfg, pairs.as_ref(), &mut run.stats)
            });
            let mut searcher = Searcher::new(&seed, params, cfg, pairs.as_ref());
            for t in &tasks {
                tr.span(CORE_BRANCH, job, || {
                    searcher.run_task(t.p(), t.c(), t.x(), &mut sink)
                });
            }
            run.stats.merge(&searcher.stats);
        }
    }
    tr.exit(root);
    run.count = sink.count;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplex_core::enumerate_count;
    use kplex_graph::gen;

    #[test]
    fn traced_copy_matches_enumerate_count() {
        let g = gen::powerlaw_cluster(150, 6, 0.7, 3);
        let params = Params::new(3, 6).unwrap();
        let cfg = AlgoConfig::ours();
        let (count, stats) = enumerate_count(&g, params, &cfg);
        let mut tr = Tracer::new(Instant::now());
        let run = traced_enumerate(&g, params, &cfg, &mut tr, 1);
        assert_eq!(run.count, count);
        assert_eq!(run.stats.kernel_fingerprint(), stats.kernel_fingerprint());
        assert_eq!(run.stats, stats);
        assert_eq!(run.seed_visits, run.core_vertices);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(Instant::now());
        let outer = tr.enter("outer", 1);
        tr.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.exit(outer);
        let sum = summarise(tr.spans());
        let (n, total, self_s) = sum["outer"];
        assert_eq!(n, 1);
        assert!(total >= 0.005);
        assert!(self_s < total - 0.004);
        assert_eq!(tr.total("inner", 1), sum["inner"].1);
    }
}
