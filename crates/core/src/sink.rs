//! Result sinks.
//!
//! Enumerations can produce hundreds of millions of k-plexes (Table 3 of the
//! paper reports result counts beyond 3·10^9), so materialising results is
//! opt-in: the engine pushes each maximal plex to a [`PlexSink`], and callers
//! choose whether to count, collect, stream, or stop early.

use kplex_graph::VertexId;

/// Whether enumeration should continue after a reported plex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkFlow {
    /// Keep enumerating.
    Continue,
    /// Stop the whole enumeration as soon as practical.
    Stop,
}

/// Receiver for maximal k-plexes. `vertices` is sorted ascending and uses the
/// vertex ids of the *input* graph.
pub trait PlexSink {
    /// Called once per maximal k-plex.
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow;
}

/// Counts results without storing them.
#[derive(Clone, Debug, Default)]
pub struct CountSink {
    /// Number of plexes reported so far.
    pub count: u64,
    /// Largest plex size seen.
    pub max_size: usize,
}

impl PlexSink for CountSink {
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow {
        self.count += 1;
        self.max_size = self.max_size.max(vertices.len());
        SinkFlow::Continue
    }
}

/// Stores every result.
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    /// All reported plexes, in discovery order.
    pub plexes: Vec<Vec<VertexId>>,
}

impl CollectSink {
    /// Results in a canonical order (sorted lexicographically) for
    /// set-equality comparisons across algorithms.
    pub fn into_sorted(mut self) -> Vec<Vec<VertexId>> {
        self.plexes.sort();
        self.plexes
    }
}

impl PlexSink for CollectSink {
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow {
        self.plexes.push(vertices.to_vec());
        SinkFlow::Continue
    }
}

/// Stops after `limit` results, keeping them.
#[derive(Clone, Debug)]
pub struct FirstN {
    /// Collected plexes (at most `limit`).
    pub plexes: Vec<Vec<VertexId>>,
    limit: usize,
}

impl FirstN {
    /// Collect at most `limit` plexes, then stop enumeration.
    pub fn new(limit: usize) -> Self {
        Self {
            plexes: Vec::new(),
            limit,
        }
    }
}

impl PlexSink for FirstN {
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow {
        self.plexes.push(vertices.to_vec());
        if self.plexes.len() >= self.limit {
            SinkFlow::Stop
        } else {
            SinkFlow::Continue
        }
    }
}

/// Keeps only the `n` largest plexes seen (ties broken lexicographically,
/// smallest first). Useful for "show me the top communities" workflows.
#[derive(Clone, Debug)]
pub struct LargestN {
    /// The current top plexes, largest first.
    pub plexes: Vec<Vec<VertexId>>,
    n: usize,
}

impl LargestN {
    /// Keeps the `n` largest results.
    pub fn new(n: usize) -> Self {
        Self {
            plexes: Vec::new(),
            n,
        }
    }

    /// The single largest plex, if any was reported.
    pub fn best(&self) -> Option<&[VertexId]> {
        self.plexes.first().map(Vec::as_slice)
    }
}

impl PlexSink for LargestN {
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow {
        let pos = self.plexes.partition_point(|p| {
            p.len() > vertices.len() || (p.len() == vertices.len() && p.as_slice() <= vertices)
        });
        self.plexes.insert(pos, vertices.to_vec());
        self.plexes.truncate(self.n);
        SinkFlow::Continue
    }
}

/// Adapts a closure into a sink.
pub struct FnSink<F: FnMut(&[VertexId]) -> SinkFlow>(pub F);

impl<F: FnMut(&[VertexId]) -> SinkFlow> PlexSink for FnSink<F> {
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow {
        (self.0)(vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_counts_and_tracks_max() {
        let mut s = CountSink::default();
        assert_eq!(s.report(&[1, 2, 3]), SinkFlow::Continue);
        assert_eq!(s.report(&[4, 5]), SinkFlow::Continue);
        assert_eq!(s.count, 2);
        assert_eq!(s.max_size, 3);
    }

    #[test]
    fn collect_sink_sorts_canonically() {
        let mut s = CollectSink::default();
        s.report(&[3, 4]);
        s.report(&[1, 2]);
        assert_eq!(s.into_sorted(), vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn first_n_stops() {
        let mut s = FirstN::new(2);
        assert_eq!(s.report(&[1]), SinkFlow::Continue);
        assert_eq!(s.report(&[2]), SinkFlow::Stop);
        assert_eq!(s.plexes.len(), 2);
    }

    #[test]
    fn largest_n_keeps_top_results() {
        let mut s = LargestN::new(2);
        s.report(&[1, 2, 3]);
        s.report(&[4, 5]);
        s.report(&[1, 2, 3, 4]);
        s.report(&[7, 8, 9]);
        assert_eq!(s.plexes.len(), 2);
        assert_eq!(s.best(), Some(&[1, 2, 3, 4][..]));
        assert_eq!(s.plexes[1], vec![1, 2, 3]);
    }

    #[test]
    fn largest_n_tie_break_is_lexicographic() {
        let mut s = LargestN::new(3);
        s.report(&[5, 6]);
        s.report(&[1, 2]);
        s.report(&[3, 4]);
        assert_eq!(s.plexes, vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn fn_sink_delegates() {
        let mut seen = Vec::new();
        {
            let mut s = FnSink(|v: &[VertexId]| {
                seen.push(v.len());
                SinkFlow::Continue
            });
            s.report(&[9, 9, 9]);
        }
        assert_eq!(seen, vec![3]);
    }
}
