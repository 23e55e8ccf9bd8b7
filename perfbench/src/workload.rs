//! The three workloads. Each names the cells (dataset, k, q) its jobs draw
//! from, the store backends and engine threads of those jobs, and the shape
//! of the server it runs against. README.md records why each was chosen and
//! which layer metric is predicted to move which end-to-end metric on it.

use crate::util::SplitMix;
use kplex_service::{RouterConfig, ServerConfig, SubmitArgs};

/// One enumeration problem on a registry dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub dataset: &'static str,
    pub k: usize,
    pub q: usize,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}({},{})", self.dataset, self.k, self.q)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// it-2004(2,11): almost all sequential time is seed construction.
    SeedBound,
    /// jazz(3,6): 842,006 results from 3.6 M branches — the branch kernel,
    /// result hand-off, NDJSON and the router hop.
    ResultBound,
    /// nproc clients cycling short threads=1 jobs over four graphs and three
    /// stores, with more cache keys than the server caches.
    ManySmall,
}

const ALL: [Workload; 3] = [
    Workload::SeedBound,
    Workload::ResultBound,
    Workload::ManySmall,
];

const fn cell(dataset: &'static str, k: usize, q: usize) -> Cell {
    Cell { dataset, k, q }
}

const SEED_BOUND: [Cell; 1] = [cell("it-2004", 2, 11)];
const RESULT_BOUND: [Cell; 1] = [cell("jazz", 3, 6)];
const MANY_SMALL: [Cell; 4] = [
    cell("wiki-vote", 3, 9),
    cell("lastfm", 4, 9),
    cell("com-dblp", 3, 9),
    cell("soc-epinions", 3, 11),
];

/// Store backends as spelled on the wire (`SUBMIT store=`).
const STORES: [&str; 3] = ["csr", "compressed", "mmap"];

/// Prepared graphs the server's LRU holds. many-small has 4 × 3 = 12
/// distinct cache keys, so both warm hits and cold prepares occur.
const CACHE_CAP: usize = 4;

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeedBound => "seed-bound",
            Workload::ResultBound => "result-bound",
            Workload::ManySmall => "many-small",
        }
    }

    pub fn cells(self) -> &'static [Cell] {
        match self {
            Workload::SeedBound => &SEED_BOUND,
            Workload::ResultBound => &RESULT_BOUND,
            Workload::ManySmall => &MANY_SMALL,
        }
    }

    pub fn stores(self) -> &'static [&'static str] {
        match self {
            Workload::ManySmall => &STORES,
            _ => &STORES[..1],
        }
    }

    /// Engine threads per job.
    pub fn job_threads(self, nproc: usize) -> usize {
        match self {
            Workload::ManySmall => 1,
            _ => nproc,
        }
    }

    /// Client connections, each a closed loop with one job in flight.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::ManySmall => nproc,
            _ => 1,
        }
    }

    /// The server shape: runners × engine threads per job ≤ nproc.
    pub fn server_config(self, nproc: usize) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            runners: (nproc / self.job_threads(nproc)).max(1),
            cache_cap: CACHE_CAP,
            default_threads: self.job_threads(nproc),
            // Finished jobs kept for STATUS: one per client plus one, so a
            // client's STATUS right after its END always finds the job. Each
            // retained result-bound job holds 842,006 plexes, so the default
            // backlog of 64 would need gigabytes.
            retain_terminal: self.clients(nproc) + 1,
            ..ServerConfig::default()
        }
    }

    pub fn router_config(self, backend: String) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: vec![backend],
            ..RouterConfig::default()
        }
    }

    /// The `SUBMIT` of one job of this workload.
    pub fn submit_args(self, cell: usize, store: &str, nproc: usize) -> SubmitArgs {
        let c = self.cells()[cell];
        SubmitArgs {
            threads: Some(self.job_threads(nproc)),
            store: Some(store.to_string()),
            ..SubmitArgs::dataset(c.dataset, c.k, c.q)
        }
    }

    /// The job sequence of client `client`: blocks that each hold every
    /// (cell, store) pair once, every block in its own seeded order. Every
    /// seed therefore gives the same job mix; it changes the order, and so
    /// which submissions hit the server's cache.
    pub fn sequence(self, seed: u64, client: usize) -> JobSequence {
        let pairs = (0..self.cells().len())
            .flat_map(|c| self.stores().iter().map(move |&s| (c, s)))
            .collect();
        JobSequence {
            rng: SplitMix::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            block: pairs,
            pos: usize::MAX,
        }
    }
}

/// An endless seeded stream of (cell index, store) pairs.
pub struct JobSequence {
    rng: SplitMix,
    block: Vec<(usize, &'static str)>,
    pos: usize,
}

impl Iterator for JobSequence {
    type Item = (usize, &'static str);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.block.len() {
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.block[self.pos - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_never_oversubscribes_cores() {
        for nproc in [1, 2, 8] {
            for w in ALL {
                let cfg = w.server_config(nproc);
                assert!(cfg.runners * w.job_threads(nproc) <= nproc.max(1));
                assert!(w.clients(nproc) <= nproc);
            }
        }
    }

    #[test]
    fn many_small_blocks_cover_every_key_once() {
        let w = Workload::ManySmall;
        let mut block: Vec<_> = w.sequence(3, 0).take(12).collect();
        block.sort();
        block.dedup();
        assert_eq!(block.len(), 12);
        assert!(block.len() > CACHE_CAP);
        let a: Vec<_> = w.sequence(3, 0).take(30).collect();
        assert_eq!(a, w.sequence(3, 0).take(30).collect::<Vec<_>>());
        assert_ne!(a, w.sequence(3, 1).take(30).collect::<Vec<_>>());
    }
}
