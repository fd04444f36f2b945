//! The nine pairwise census measures of the DBLP experiment.
//!
//! Each measure is a query of the form (Section V-B):
//!
//! ```sql
//! SELECT n1.ID, n2.ID,
//!        COUNTP(struct, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, r))
//! FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID
//! ```
//!
//! with `struct` ∈ {node, edge, triangle} and `r` ∈ {1, 2, 3}.

use ego_census::{run, Algorithm, Census, Job, PairCensusSpec, PairCounts, PairSelector};
use ego_graph::bfs::BfsScratch;
use ego_graph::{Graph, NodeId};
use ego_pattern::Pattern;

/// The structural pattern of a measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureKind {
    /// Common nodes.
    Node,
    /// Common edges.
    Edge,
    /// Common triangles.
    Triangle,
}

impl MeasureKind {
    /// The pattern counted by this measure.
    pub fn pattern(self) -> Pattern {
        let text = match self {
            MeasureKind::Node => "PATTERN m_node { ?A; }",
            MeasureKind::Edge => "PATTERN m_edge { ?A-?B; }",
            MeasureKind::Triangle => "PATTERN m_tri { ?A-?B; ?B-?C; ?A-?C; }",
        };
        Pattern::parse(text).expect("measure pattern parses")
    }

    /// Short name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            MeasureKind::Node => "nodes",
            MeasureKind::Edge => "edges",
            MeasureKind::Triangle => "triangles",
        }
    }

    /// All three kinds.
    pub fn all() -> [MeasureKind; 3] {
        [MeasureKind::Node, MeasureKind::Edge, MeasureKind::Triangle]
    }
}

/// One of the nine measures: a pattern kind and a radius.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CensusMeasure {
    /// Structure counted.
    pub kind: MeasureKind,
    /// Common-neighborhood radius (1, 2, or 3 in the paper).
    pub r: u32,
}

impl CensusMeasure {
    /// `"<kind>@<r>"`, e.g. `"nodes@2"`.
    pub fn name(&self) -> String {
        format!("{}@{}", self.kind.name(), self.r)
    }

    /// The paper's nine configurations.
    pub fn paper_set() -> Vec<CensusMeasure> {
        let mut v = Vec::new();
        for kind in MeasureKind::all() {
            for r in 1..=3 {
                v.push(CensusMeasure { kind, r });
            }
        }
        v
    }
}

/// Candidate pairs for a measure: only pairs within `2r` hops can have a
/// nonempty common `r`-hop neighborhood, so everything else scores zero
/// and never enters the top-K. Pairs already linked in `g` are excluded —
/// link prediction ranks *new* collaborations.
pub fn candidate_pairs(g: &Graph, r: u32) -> Vec<(NodeId, NodeId)> {
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut ball = Vec::new();
    let mut pairs = Vec::new();
    for a in g.node_ids() {
        ball.clear();
        scratch.bounded_bfs(g, a, 2 * r, &mut ball);
        for &b in &ball {
            if b > a && !g.has_undirected_edge(a, b) {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// Compute one measure over its candidate pairs.
pub fn census_measure(g: &Graph, measure: CensusMeasure) -> PairCounts {
    let pattern = measure.kind.pattern();
    let pairs = candidate_pairs(g, measure.r);
    let spec = PairCensusSpec::intersection(&pattern, measure.r, PairSelector::Pairs(pairs));
    // ND-PVOT's pairwise form precomputes per-node k-hop lists once and
    // merges per pair — the right shape when every candidate pair is
    // evaluated (pattern-driven shines when matches are rare; common-
    // neighborhood node/edge counts are anything but).
    let job = Job::new(Census::Pair(&spec), Algorithm::NdPivot);
    run(g, &job).expect("measure query is supported").pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};

    /// Two triangles sharing node 2, chain 4-5-6.
    fn fixture() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(7, Label(0));
        for (x, y) in [
            (0u32, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (3, 4),
            (2, 4),
            (4, 5),
            (5, 6),
        ] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        b.build()
    }

    #[test]
    fn paper_set_is_nine() {
        let set = CensusMeasure::paper_set();
        assert_eq!(set.len(), 9);
        let names: Vec<String> = set.iter().map(CensusMeasure::name).collect();
        assert!(names.contains(&"nodes@2".to_string()));
        assert!(names.contains(&"triangles@3".to_string()));
    }

    #[test]
    fn candidate_pairs_exclude_linked_and_distant() {
        let g = fixture();
        let pairs = candidate_pairs(&g, 1);
        // (0,1) is an edge: excluded. (0,6) is 4 hops apart (> 2): excluded.
        assert!(!pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(!pairs.contains(&(NodeId(0), NodeId(6))));
        // (0,3): distance 2, no edge: included.
        assert!(pairs.contains(&(NodeId(0), NodeId(3))));
    }

    #[test]
    fn common_node_counts() {
        let g = fixture();
        let m = census_measure(
            &g,
            CensusMeasure {
                kind: MeasureKind::Node,
                r: 1,
            },
        );
        // N1(0) = {0,1,2}, N1(3) = {2,3,4}: common node {2}.
        assert_eq!(m.get(NodeId(0), NodeId(3)), 1);
        // N1(1) and N1(4) share {2}.
        assert_eq!(m.get(NodeId(1), NodeId(4)), 1);
    }

    #[test]
    fn common_triangle_counts() {
        let g = fixture();
        let m = census_measure(
            &g,
            CensusMeasure {
                kind: MeasureKind::Triangle,
                r: 2,
            },
        );
        // Pair (1, 3): N2(1) ⊇ {0,1,2,3,4}, N2(3) = all but 6. The common
        // 2-hop neighborhood contains both triangles.
        assert_eq!(m.get(NodeId(1), NodeId(3)), 2);
    }

    #[test]
    fn larger_radius_dominates() {
        let g = fixture();
        let m1 = census_measure(
            &g,
            CensusMeasure {
                kind: MeasureKind::Node,
                r: 1,
            },
        );
        let m2 = census_measure(
            &g,
            CensusMeasure {
                kind: MeasureKind::Node,
                r: 2,
            },
        );
        for (a, b, c) in m1.iter() {
            assert!(m2.get(a, b) >= c, "pair ({a},{b})");
        }
    }
}
