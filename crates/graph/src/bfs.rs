//! Breadth-first traversal with reusable scratch space.
//!
//! Every census algorithm runs BFS over many (often overlapping)
//! neighborhoods. Allocating a visited array per traversal would dominate
//! runtime on large graphs, so [`BfsScratch`] uses *epoch-stamped* marks:
//! clearing between traversals is a single counter increment. There is no
//! separate queue: a traversal's output vector is its queue, read with a
//! cursor, because BFS emits nodes in exactly the order it expands them.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Reusable BFS workspace sized for one graph.
#[derive(Clone, Debug)]
pub struct BfsScratch {
    /// Epoch stamp per node; a node is visited in the current traversal iff
    /// `stamp[n] == epoch`.
    stamp: Vec<u32>,
    /// Distance per node, valid only where `stamp[n] == epoch`.
    dist: Vec<u32>,
    epoch: u32,
    /// Cumulative count of neighbor-list entries examined across all
    /// traversals — the disk-I/O proxy metric the paper's pattern-driven
    /// optimizations minimize.
    edges_scanned: u64,
}

impl BfsScratch {
    /// Create scratch for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        BfsScratch {
            stamp: vec![0; num_nodes],
            dist: vec![0; num_nodes],
            epoch: 0,
            edges_scanned: 0,
        }
    }

    /// Total neighbor-list entries examined since construction (or the
    /// last [`Self::reset_edges_scanned`]).
    pub fn edges_scanned(&self) -> u64 {
        self.edges_scanned
    }

    /// Zero the edge-scan counter.
    pub fn reset_edges_scanned(&mut self) {
        self.edges_scanned = 0;
    }

    /// Begin a new traversal: invalidate all marks in O(1) (amortized; a
    /// full clear happens only on epoch wrap-around, every 2^32 calls).
    pub fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Whether `n` was visited in the current traversal.
    #[inline(always)]
    pub fn visited(&self, n: NodeId) -> bool {
        self.stamp[n.index()] == self.epoch
    }

    /// Distance of `n` from the source set, valid only if [`Self::visited`].
    #[inline(always)]
    pub fn distance(&self, n: NodeId) -> u32 {
        debug_assert!(self.visited(n));
        self.dist[n.index()]
    }

    /// Mark `n` visited at distance `d` in the current traversal. A caller
    /// that builds a node set itself (a pairwise ball, say) can stamp it
    /// here and read it back through [`Self::visited`] / [`Self::distance`].
    #[inline(always)]
    pub fn mark(&mut self, n: NodeId, d: u32) {
        self.stamp[n.index()] = self.epoch;
        self.dist[n.index()] = d;
    }

    /// BFS from `source` up to depth `k` (inclusive) over the undirected
    /// view. Appends every visited node (including `source`, at distance 0)
    /// to `out` in nondecreasing distance order. Distances are queryable via
    /// [`Self::distance`] until the next [`Self::begin`].
    pub fn bounded_bfs(&mut self, g: &Graph, source: NodeId, k: u32, out: &mut Vec<NodeId>) {
        self.begin();
        let head = out.len();
        self.mark(source, 0);
        out.push(source);
        self.expand(g, k, head, out);
    }

    /// Multi-source bounded BFS: distance is the minimum over all sources.
    /// Appends visited nodes to `out` in nondecreasing distance order.
    pub fn bounded_bfs_multi(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        k: u32,
        out: &mut Vec<NodeId>,
    ) {
        self.begin();
        let head = out.len();
        for &s in sources {
            if !self.visited(s) {
                self.mark(s, 0);
                out.push(s);
            }
        }
        self.expand(g, k, head, out);
    }

    /// Expand `out[head..]` breadth-first to depth `k`, appending what it
    /// discovers: `out` is the queue. Its nodes are in nondecreasing
    /// distance order, so the first one at depth `k` ends the traversal —
    /// nothing after it is expanded either.
    fn expand(&mut self, g: &Graph, k: u32, mut head: usize, out: &mut Vec<NodeId>) {
        while let Some(&n) = out.get(head) {
            head += 1;
            let d = self.dist[n.index()];
            if d == k {
                break;
            }
            self.edges_scanned += g.degree(n) as u64;
            for &m in g.neighbors(n) {
                if !self.visited(m) {
                    self.mark(m, d + 1);
                    out.push(m);
                }
            }
        }
    }

    /// Unbounded single-source BFS distances to every reachable node,
    /// written into `dist_out` as `u32` (unreachable = `u32::MAX`).
    /// Used to precompute center distance indexes.
    pub fn full_bfs_distances(&mut self, g: &Graph, source: NodeId, dist_out: &mut [u32]) {
        debug_assert_eq!(dist_out.len(), g.num_nodes());
        dist_out.iter_mut().for_each(|d| *d = u32::MAX);
        let mut order = Vec::new();
        self.bounded_bfs(g, source, u32::MAX, &mut order);
        for n in order {
            dist_out[n.index()] = self.dist[n.index()];
        }
    }
}

/// One-shot convenience: nodes within `k` hops of `source` (including it),
/// in nondecreasing distance order.
pub fn khop(g: &Graph, source: NodeId, k: u32) -> Vec<NodeId> {
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut out = Vec::new();
    scratch.bounded_bfs(g, source, k, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::Label;

    /// Path 0-1-2-3-4 plus a branch 2-5.
    fn path_with_branch() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(6, Label(0));
        for (a, c) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (2, 5)] {
            b.add_edge(NodeId(a), NodeId(c));
        }
        b.build()
    }

    #[test]
    fn bounded_bfs_distances_and_frontier() {
        let g = path_with_branch();
        let mut s = BfsScratch::new(g.num_nodes());
        let mut out = Vec::new();
        s.bounded_bfs(&g, NodeId(0), 2, &mut out);
        let got: Vec<(u32, u32)> = out.iter().map(|&n| (n.0, s.distance(n))).collect();
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2)]);
        assert!(!s.visited(NodeId(3)));
        assert!(!s.visited(NodeId(5)));
    }

    #[test]
    fn k_zero_visits_only_source() {
        let g = path_with_branch();
        assert_eq!(khop(&g, NodeId(2), 0), vec![NodeId(2)]);
    }

    #[test]
    fn full_coverage_with_large_k() {
        let g = path_with_branch();
        let mut nodes = khop(&g, NodeId(0), 10);
        nodes.sort();
        assert_eq!(nodes.len(), 6);
    }

    #[test]
    fn scratch_reuse_across_traversals() {
        let g = path_with_branch();
        let mut s = BfsScratch::new(g.num_nodes());
        let mut out = Vec::new();
        s.bounded_bfs(&g, NodeId(0), 1, &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        s.bounded_bfs(&g, NodeId(4), 1, &mut out);
        let got: Vec<u32> = out.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![4, 3]);
        // Marks from the first traversal are gone.
        assert!(!s.visited(NodeId(0)));
        assert!(!s.visited(NodeId(1)));
    }

    #[test]
    fn multi_source_takes_min_distance() {
        let g = path_with_branch();
        let mut s = BfsScratch::new(g.num_nodes());
        let mut out = Vec::new();
        s.bounded_bfs_multi(&g, &[NodeId(0), NodeId(4)], 2, &mut out);
        // Node 2 is distance 2 from both ends; node 3 is 1 from node 4.
        assert!(s.visited(NodeId(2)));
        assert_eq!(s.distance(NodeId(2)), 2);
        assert_eq!(s.distance(NodeId(3)), 1);
        assert_eq!(s.distance(NodeId(0)), 0);
        assert_eq!(s.distance(NodeId(4)), 0);
    }

    #[test]
    fn multi_source_duplicate_sources_ok() {
        let g = path_with_branch();
        let mut s = BfsScratch::new(g.num_nodes());
        let mut out = Vec::new();
        s.bounded_bfs_multi(&g, &[NodeId(1), NodeId(1)], 1, &mut out);
        let mut got: Vec<u32> = out.iter().map(|n| n.0).collect();
        got.sort();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn full_bfs_distances_unreachable_is_max() {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let mut s = BfsScratch::new(3);
        let mut dist = vec![0u32; 3];
        s.full_bfs_distances(&g, NodeId(0), &mut dist);
        assert_eq!(dist, vec![0, 1, u32::MAX]);
    }

    #[test]
    fn directed_graph_bfs_ignores_orientation() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(1), NodeId(0)); // 1 -> 0
        b.add_edge(NodeId(1), NodeId(2)); // 1 -> 2
        let g = b.build();
        // From node 0 we can still reach 1 and 2 through the undirected view.
        let mut nodes = khop(&g, NodeId(0), 2);
        nodes.sort();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
