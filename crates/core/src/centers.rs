//! Center-based expansion support (Section IV-B4).
//!
//! A small set of *center* nodes is chosen apriori and their distances to
//! every node are precomputed. During PT-OPT traversal the triangle
//! inequality `d(m, n') ≤ d(m, c) + d(c, n')` yields initialization bounds
//! that can stop expansions early; the same distances feed the K-means
//! feature vectors of match clustering.
//!
//! The index depends only on the graph and the center count, so a caller
//! that serves many queries over one graph builds it once and hands it to
//! [`crate::run_batch_exec`]; the handle is cheap to clone (shared storage).

use crate::spec::PtConfig;
use ego_graph::bfs::BfsScratch;
use ego_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// How centers are picked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CenterStrategy {
    /// Highest-degree nodes (the paper's DEG-CNTR; "primarily due to its
    /// low computation cost compared to other centrality measures").
    #[default]
    Degree,
    /// Uniformly random nodes (the RND-CNTR ablation of Fig 4(f)).
    Random,
}

/// Stored distance of a node no center path reaches — and of any node
/// 65 535 or more hops away, which PMD (saturating at `k + 1 ≤ 65 535`)
/// cannot tell apart from unreachable.
pub const FAR: u16 = u16::MAX;

/// Precomputed exact BFS distances from each center to every node: a
/// prefix view (the first `len` centers) over storage shared by every
/// clone and every [`CenterIndex::take`].
#[derive(Clone, Debug)]
pub struct CenterIndex {
    store: Arc<Store>,
    len: usize,
}

#[derive(Debug)]
struct Store {
    centers: Vec<NodeId>,
    /// Node-major: `dist[n * centers.len() + ci]`, saturated at [`FAR`],
    /// so the first-touch bound of one node reads one short row.
    dist: Vec<u16>,
    /// Edge scans spent building the index (traversal-cost accounting).
    build_edges: u64,
}

impl CenterIndex {
    /// Build an index with `count` centers chosen by `strategy`.
    pub fn build<R: Rng>(g: &Graph, count: usize, strategy: CenterStrategy, rng: &mut R) -> Self {
        let count = count.min(g.num_nodes());
        if count == 0 {
            // Before the strategy runs: drawing no centers draws nothing.
            return CenterIndex::empty();
        }
        let centers = match strategy {
            CenterStrategy::Degree => g.top_degree_nodes(count),
            CenterStrategy::Random => {
                let mut nodes: Vec<NodeId> = g.node_ids().collect();
                nodes.shuffle(rng);
                nodes.truncate(count);
                nodes
            }
        };
        let mut scratch = BfsScratch::new(g.num_nodes());
        let mut dist = vec![FAR; g.num_nodes() * count];
        let mut from_center = vec![0u32; g.num_nodes()];
        for (ci, &c) in centers.iter().enumerate() {
            scratch.full_bfs_distances(g, c, &mut from_center);
            for (n, &d) in from_center.iter().enumerate() {
                dist[n * count + ci] = u16::try_from(d).unwrap_or(FAR);
            }
        }
        CenterIndex {
            len: count,
            store: Arc::new(Store {
                centers,
                dist,
                build_edges: scratch.edges_scanned(),
            }),
        }
    }

    /// How many centers a run under `config` needs: PMD initialization
    /// and clustering features read prefixes of one index this long.
    pub fn count_for(config: &PtConfig) -> usize {
        config
            .num_centers
            .max(config.clustering_centers.unwrap_or(config.num_centers))
    }

    /// Build the one index a run under `config` reads.
    pub fn for_config<R: Rng>(g: &Graph, config: &PtConfig, rng: &mut R) -> Self {
        Self::build(g, Self::count_for(config), config.center_strategy, rng)
    }

    /// The two prefixes a run under `config` reads: the centers that
    /// initialize PMD, and the centers clustering features are taken over
    /// (Fig 4(f) varies the former while pinning the latter).
    pub fn views_for(&self, config: &PtConfig) -> (CenterIndex, CenterIndex) {
        (
            self.take(config.num_centers),
            self.take(config.clustering_centers.unwrap_or(config.num_centers)),
        )
    }

    /// Edge scans spent precomputing the center distances.
    pub fn build_edges(&self) -> u64 {
        self.store.build_edges
    }

    /// An index with no centers (disables center bounds).
    pub fn empty() -> Self {
        CenterIndex {
            store: Arc::new(Store {
                centers: Vec::new(),
                dist: Vec::new(),
                build_edges: 0,
            }),
            len: 0,
        }
    }

    /// The chosen centers.
    pub fn centers(&self) -> &[NodeId] {
        &self.store.centers[..self.len]
    }

    /// Number of centers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no centers were built.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distances from every center to `n`, in center order ([`FAR`] =
    /// unreachable).
    #[inline]
    pub fn row(&self, n: NodeId) -> &[u16] {
        let stride = self.store.centers.len();
        &self.store.dist[n.index() * stride..][..self.len]
    }

    /// Exact distance from center `ci` to `n` (`u32::MAX` if unreachable).
    #[inline]
    pub fn distance(&self, ci: usize, n: NodeId) -> u32 {
        match self.row(n)[ci] {
            FAR => u32::MAX,
            d => d as u32,
        }
    }

    /// Triangle-inequality upper bound on `d(a, b)` through the best
    /// center: `min_c d(a, c) + d(c, b)`. `u32::MAX` when no center
    /// reaches both.
    pub fn bound(&self, a: NodeId, b: NodeId) -> u32 {
        self.row(a)
            .iter()
            .zip(self.row(b))
            .filter(|&(&da, &db)| da != FAR && db != FAR)
            .map(|(&da, &db)| da as u32 + db as u32)
            .min()
            .unwrap_or(u32::MAX)
    }

    /// A restricted view using only the first `count` centers (used by the
    /// Fig 4(f) experiment to vary PMD centers while keeping clustering
    /// features fixed). Shares this index's storage.
    pub fn take(&self, count: usize) -> CenterIndex {
        CenterIndex {
            store: self.store.clone(),
            len: count.min(self.len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Path 0-1-2-3-4 with a hub 5 connected to 1, 2, 3.
    fn graph() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(6, Label(0));
        for (x, y) in [(0u32, 1), (1, 2), (2, 3), (3, 4)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        for t in [1u32, 2, 3] {
            b.add_edge(NodeId(5), NodeId(t));
        }
        b.build()
    }

    #[test]
    fn degree_strategy_picks_hubs() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(0);
        let idx = CenterIndex::build(&g, 2, CenterStrategy::Degree, &mut rng);
        // Degrees: 1,2,3 have 3 (2 also 3?). 0:1, 1:3, 2:3, 3:3, 4:1, 5:3.
        // Top 2 by (degree, low id): nodes 1 and 2.
        assert_eq!(idx.centers(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn distances_are_exact() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(0);
        let idx = CenterIndex::build(&g, 1, CenterStrategy::Degree, &mut rng);
        // Center = node 1. Distances: 0:1, 1:0, 2:1, 3:2, 4:3, 5:1.
        let want = [1u32, 0, 1, 2, 3, 1];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(idx.distance(0, NodeId(i as u32)), w, "node {i}");
        }
    }

    #[test]
    fn bound_is_valid_upper_bound() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(0);
        let idx = CenterIndex::build(&g, 3, CenterStrategy::Degree, &mut rng);
        // True d(0, 4) = 4; any center bound must be >= 4.
        assert!(idx.bound(NodeId(0), NodeId(4)) >= 4);
        // Bound through node 1 (center) for (0, 5): d(0,1)+d(1,5) = 2.
        assert!(idx.bound(NodeId(0), NodeId(5)) <= 2);
    }

    #[test]
    fn random_strategy_is_seeded() {
        let g = graph();
        let a = CenterIndex::build(&g, 3, CenterStrategy::Random, &mut StdRng::seed_from_u64(7));
        let b = CenterIndex::build(&g, 3, CenterStrategy::Random, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.centers(), b.centers());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_and_take() {
        let g = graph();
        let idx = CenterIndex::build(&g, 4, CenterStrategy::Degree, &mut StdRng::seed_from_u64(0));
        let sub = idx.take(2);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.centers(), &idx.centers()[..2]);
        let empty = CenterIndex::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.bound(NodeId(0), NodeId(1)), u32::MAX);
    }

    #[test]
    fn disconnected_unreachable() {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let idx = CenterIndex::build(&g, 1, CenterStrategy::Degree, &mut StdRng::seed_from_u64(0));
        assert_eq!(idx.distance(0, NodeId(2)), u32::MAX);
        assert_eq!(idx.bound(NodeId(0), NodeId(2)), u32::MAX);
    }

    #[test]
    fn count_larger_than_graph_is_clamped() {
        let g = graph();
        let idx = CenterIndex::build(
            &g,
            100,
            CenterStrategy::Degree,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(idx.len(), 6);
    }
}
