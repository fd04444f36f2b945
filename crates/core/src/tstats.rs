//! Traversal instrumentation for the census algorithms.
//!
//! The paper's prototype ran on a disk-resident graph store, where edge
//! traversals dominate cost; every pattern-driven optimization (Section
//! IV-B) is justified as reducing traversals and node re-expansions. On
//! this crate's in-memory store, raw wall-clock can rank algorithms
//! differently (bookkeeping is no longer free relative to traversal), so
//! the benchmarks report both: wall time for this substrate, and these
//! counters as the disk-I/O proxy that reproduces the paper's orderings.

/// Counters for one census run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Adjacency-list entries examined (BFS scans + PMD relaxations).
    pub edges_traversed: u64,
    /// Nodes expanded (dequeued and processed).
    pub nodes_expanded: u64,
    /// Node re-insertions into the traversal queue — what best-first
    /// ordering (Section IV-B3) and centers (IV-B4) exist to eliminate.
    pub reinsertions: u64,
    /// Edge scans spent building per-graph indexes (center distances) —
    /// amortized across queries, reported separately per the paper's
    /// "pre-compute the distances d(c, n)" framing. Zero for a run that
    /// was handed an index built earlier.
    pub index_edges: u64,
}

impl TraversalStats {
    /// Element-wise sum.
    pub fn add(&mut self, other: &TraversalStats) {
        self.edges_traversed += other.edges_traversed;
        self.nodes_expanded += other.nodes_expanded;
        self.reinsertions += other.reinsertions;
        self.index_edges += other.index_edges;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut a = TraversalStats {
            edges_traversed: 1,
            nodes_expanded: 2,
            reinsertions: 3,
            index_edges: 4,
        };
        a.add(&TraversalStats {
            edges_traversed: 10,
            nodes_expanded: 20,
            reinsertions: 30,
            index_edges: 40,
        });
        assert_eq!(a.edges_traversed, 11);
        assert_eq!(a.nodes_expanded, 22);
        assert_eq!(a.reinsertions, 33);
        assert_eq!(a.index_edges, 44);
    }
}
