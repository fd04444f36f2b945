//! Census query specifications and tuning parameters.

use crate::result::CensusError;
use ego_graph::{Graph, NodeId};
use ego_pattern::{PNode, Pattern, PatternAnalysis};

/// Which nodes to run the census for (the SQL `WHERE` clause's result,
/// `V_σ(G)` in the paper).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum FocalNodes {
    /// All nodes of the graph.
    #[default]
    All,
    /// An explicit node set.
    Set(Vec<NodeId>),
}

impl FocalNodes {
    /// Materialize as a boolean mask over the graph's nodes.
    pub fn mask(&self, g: &Graph) -> Vec<bool> {
        match self {
            FocalNodes::All => vec![true; g.num_nodes()],
            FocalNodes::Set(nodes) => {
                let mut m = vec![false; g.num_nodes()];
                for &n in nodes {
                    m[n.index()] = true;
                }
                m
            }
        }
    }

    /// Materialize as a sorted node list.
    pub fn nodes(&self, g: &Graph) -> Vec<NodeId> {
        match self {
            FocalNodes::All => g.node_ids().collect(),
            FocalNodes::Set(nodes) => {
                let mut v = nodes.clone();
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }

    /// Number of distinct focal nodes. An explicit set may contain
    /// duplicates (e.g. a SQL WHERE materialization); they must not be
    /// double-counted, or this disagrees with `mask`/`nodes` and skews
    /// both `Auto`'s cost model and per-node instrumentation.
    pub fn count(&self, g: &Graph) -> usize {
        match self {
            FocalNodes::All => g.num_nodes(),
            FocalNodes::Set(_) => self.nodes(g).len(),
        }
    }
}

/// A single-node census query: count matches of `pattern` (or of the
/// subgraphs anchored at `subpattern`) in `SUBGRAPH(n, k)` for each focal
/// node `n`.
#[derive(Clone, Debug)]
pub struct CensusSpec<'a> {
    pattern: &'a Pattern,
    k: u32,
    focal: FocalNodes,
    subpattern: Option<String>,
}

impl<'a> CensusSpec<'a> {
    /// `COUNTP(pattern, SUBGRAPH(ID, k))` over all nodes.
    pub fn single(pattern: &'a Pattern, k: u32) -> Self {
        CensusSpec {
            pattern,
            k,
            focal: FocalNodes::All,
            subpattern: None,
        }
    }

    /// Restrict to an explicit focal set.
    pub fn with_focal(mut self, focal: FocalNodes) -> Self {
        self.focal = focal;
        self
    }

    /// `COUNTSP(subpattern, pattern, SUBGRAPH(ID, k))`: only the images of
    /// the named subpattern must fall inside the neighborhood.
    pub fn with_subpattern(mut self, name: &str) -> Self {
        self.subpattern = Some(name.to_string());
        self
    }

    /// The pattern.
    pub fn pattern(&self) -> &'a Pattern {
        self.pattern
    }

    /// Neighborhood radius `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The focal node selection.
    pub fn focal(&self) -> &FocalNodes {
        &self.focal
    }

    /// The subpattern name, if this is a COUNTSP query.
    pub fn subpattern_name(&self) -> Option<&str> {
        self.subpattern.as_deref()
    }

    /// How far (in union-graph hops from a touched endpoint) an edge
    /// mutation can perturb this spec's counts: `k` for plain `COUNTP`,
    /// `k` plus the pattern's diameter ([`PatternAnalysis::diameter`])
    /// for `COUNTSP` over a connected pattern — a changed match has an
    /// edge image on a touched pair, so its subpattern images lie within
    /// the diameter of a touched endpoint — and unbounded (`None` —
    /// every focal node is dirty) for `COUNTSP` over a disconnected
    /// pattern.
    pub fn dirty_radius(&self) -> Option<u32> {
        if self.subpattern.is_none() {
            return Some(self.k);
        }
        if !self.pattern.is_connected() {
            return None;
        }
        Some(self.k + PatternAnalysis::new(self.pattern).diameter())
    }

    /// The pattern nodes whose images must lie inside the neighborhood:
    /// the subpattern's nodes for COUNTSP, every pattern node for COUNTP.
    pub fn anchor_nodes(&self) -> Result<Vec<PNode>, CensusError> {
        match &self.subpattern {
            None => Ok(self.pattern.nodes().collect()),
            Some(name) => self
                .pattern
                .subpattern(name)
                .map(|sp| sp.nodes.clone())
                .ok_or_else(|| CensusError::UnknownSubpattern(name.clone())),
        }
    }

    /// Check spec consistency against a graph.
    pub fn validate(&self, g: &Graph) -> Result<(), CensusError> {
        self.anchor_nodes()?;
        if let FocalNodes::Set(nodes) = &self.focal {
            for &n in nodes {
                if n.index() >= g.num_nodes() {
                    return Err(CensusError::FocalOutOfRange(n));
                }
            }
        }
        Ok(())
    }
}

/// How PT-OPT orders its traversal queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PtOrdering {
    /// Best-first: pop the node with minimum `score(n) = Σ_m PMD_m[n]`
    /// via the array-based bucket queue (Section IV-B3).
    #[default]
    BestFirst,
    /// Random pop (the PT-RND ablation).
    Random,
}

/// How pattern matches are grouped before traversal (Section IV-B5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Clustering {
    /// The paper's default: K-means with `K = |M| / 4` (capped by
    /// `max_auto_clusters`), using center-distance feature vectors.
    #[default]
    Auto,
    /// No clustering: every match processed independently (NO-CLUST).
    None,
    /// Random assignment into `k` groups (RND-CLUST).
    Random(usize),
    /// K-means into `k` clusters (OPT-CLUST with an explicit K).
    KMeans(usize),
}

/// Tuning parameters for the pattern-driven algorithms.
#[derive(Clone, Debug)]
pub struct PtConfig {
    /// Number of centers used for PMD distance initialization (paper
    /// default: 12). Zero disables center bounds.
    pub num_centers: usize,
    /// How centers are chosen (paper default: highest degree).
    pub center_strategy: crate::centers::CenterStrategy,
    /// Number of centers used to build clustering feature vectors. The
    /// Fig 4(f) experiment varies `num_centers` while pinning this, "to
    /// study (2) in isolation of (1)". `None` means: same as
    /// `num_centers`.
    pub clustering_centers: Option<usize>,
    /// Match grouping strategy.
    pub clustering: Clustering,
    /// Cap applied to the automatic `|M| / 4` cluster count so huge match
    /// sets cannot make K-means itself the bottleneck.
    pub max_auto_clusters: usize,
    /// K-means iterations (paper default: 10).
    pub kmeans_iters: usize,
    /// Queue ordering (best-first vs random).
    pub ordering: PtOrdering,
    /// Initialize anchor-to-anchor PMD entries from pattern distances
    /// (Section IV-B2). Disable only for ablation studies.
    pub use_distance_shortcuts: bool,
    /// RNG seed for random clustering / random ordering / K-means init.
    pub seed: u64,
}

impl Default for PtConfig {
    fn default() -> Self {
        PtConfig {
            num_centers: 12,
            center_strategy: crate::centers::CenterStrategy::Degree,
            clustering_centers: None,
            clustering: Clustering::Auto,
            max_auto_clusters: 256,
            kmeans_iters: 10,
            ordering: PtOrdering::BestFirst,
            use_distance_shortcuts: true,
            seed: 0x5eed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.build()
    }

    #[test]
    fn focal_mask_and_nodes() {
        let g = tiny_graph();
        let all = FocalNodes::All;
        assert_eq!(all.mask(&g), vec![true; 3]);
        assert_eq!(all.count(&g), 3);
        let set = FocalNodes::Set(vec![NodeId(2), NodeId(0), NodeId(2)]);
        assert_eq!(set.mask(&g), vec![true, false, true]);
        assert_eq!(set.nodes(&g), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn count_deduplicates_explicit_sets() {
        let g = tiny_graph();
        // A duplicated set must agree with mask/nodes: 2 distinct nodes.
        let set = FocalNodes::Set(vec![NodeId(2), NodeId(0), NodeId(2)]);
        assert_eq!(set.count(&g), set.nodes(&g).len());
        assert_eq!(set.count(&g), 2);
        assert_eq!(FocalNodes::Set(vec![]).count(&g), 0);
    }

    #[test]
    fn anchors_default_to_all_nodes() {
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; }").unwrap();
        let spec = CensusSpec::single(&p, 2);
        assert_eq!(spec.anchor_nodes().unwrap().len(), 3);
        assert_eq!(spec.k(), 2);
        assert!(spec.subpattern_name().is_none());
    }

    #[test]
    fn subpattern_anchors() {
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; SUBPATTERN mid {?B;} }").unwrap();
        let spec = CensusSpec::single(&p, 0).with_subpattern("mid");
        let anchors = spec.anchor_nodes().unwrap();
        assert_eq!(anchors, vec![p.node_by_name("B").unwrap()]);
    }

    #[test]
    fn unknown_subpattern_rejected() {
        let p = Pattern::parse("PATTERN t { ?A-?B; }").unwrap();
        let g = tiny_graph();
        let spec = CensusSpec::single(&p, 1).with_subpattern("nope");
        assert_eq!(
            spec.validate(&g),
            Err(CensusError::UnknownSubpattern("nope".into()))
        );
    }

    #[test]
    fn out_of_range_focal_rejected() {
        let p = Pattern::parse("PATTERN t { ?A-?B; }").unwrap();
        let g = tiny_graph();
        let spec = CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(vec![NodeId(7)]));
        assert_eq!(
            spec.validate(&g),
            Err(CensusError::FocalOutOfRange(NodeId(7)))
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = PtConfig::default();
        assert_eq!(c.num_centers, 12);
        assert_eq!(c.kmeans_iters, 10);
        assert_eq!(c.ordering, PtOrdering::BestFirst);
        assert_eq!(c.clustering, Clustering::Auto);
    }
}
