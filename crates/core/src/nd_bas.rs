//! ND-BAS: the node-driven baseline (Section IV-A).
//!
//! For every focal node, extract the `k`-hop neighborhood subgraph
//! `S(n, k)` and run the pattern matcher inside it. Correct but "suffers
//! from repeated and overlapping computations, especially for k ≥ 2, and
//! is computationally infeasible in practice" — it exists as the paper's
//! strawman and as a differential-testing oracle for the fast algorithms.

use crate::result::{CensusError, CountVector};
use crate::spec::CensusSpec;
use crate::tstats::TraversalStats;
use ego_graph::bfs::BfsScratch;
use ego_graph::subgraph::InducedSubgraph;
use ego_graph::Graph;
use ego_matcher::{find_matches, MatcherKind};

/// Run the baseline. Subpattern queries are rejected: a COUNTSP match may
/// extend beyond `S(n, k)`, which per-neighborhood matching cannot see.
pub fn run(g: &Graph, spec: &CensusSpec<'_>) -> Result<CountVector, CensusError> {
    run_instrumented(g, spec).map(|(cv, _)| cv)
}

/// [`run`] with traversal-cost instrumentation: the edges its
/// neighborhood BFSs scan, one expansion per focal node.
pub fn run_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
) -> Result<(CountVector, TraversalStats), CensusError> {
    check(spec)?;
    let p = spec.pattern();
    let focal = spec.focal().nodes(g);
    let mut counts = CountVector::new(g.num_nodes(), spec.focal().mask(g));
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut nodes = Vec::new();
    for &n in &focal {
        nodes.clear();
        scratch.bounded_bfs(g, n, spec.k(), &mut nodes);
        nodes.sort_unstable();
        let sub = InducedSubgraph::extract(g, &nodes);
        let matches = find_matches(&sub.graph, p, MatcherKind::CandidateNeighbors);
        counts.set(n, matches.len() as u64);
    }
    let tstats = TraversalStats {
        edges_traversed: scratch.edges_scanned(),
        nodes_expanded: focal.len() as u64,
        ..TraversalStats::default()
    };
    Ok((counts, tstats))
}

/// The specs the baseline refuses.
pub(crate) fn check(spec: &CensusSpec<'_>) -> Result<(), CensusError> {
    if spec.subpattern_name().is_some() {
        return Err(CensusError::Unsupported(
            "ND-BAS cannot evaluate COUNTSP queries; use ND-PVOT or PT-OPT".into(),
        ));
    }
    // Attribute predicates reference the ORIGINAL graph; extracted
    // subgraphs carry labels but not attributes, so patterns with
    // attribute/edge predicates must translate ids. We handle this by
    // rejecting them here (the other algorithms support them); label-only
    // patterns — the common case and everything in the paper's
    // evaluation — run directly on the subgraph.
    let p = spec.pattern();
    if !p.node_predicates().is_empty() || !p.edge_predicates().is_empty() {
        return Err(CensusError::Unsupported(
            "ND-BAS supports structural/label patterns only; \
             use ND-PVOT or PT-OPT for attribute predicates"
                .into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FocalNodes;
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;

    /// Two triangles sharing node 2 plus a pendant chain 4-5-6.
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
    fn triangle_counts_k1() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let spec = CensusSpec::single(&p, 1);
        let counts = run(&g, &spec).unwrap();
        assert_eq!(counts.get(NodeId(0)), 1);
        assert_eq!(counts.get(NodeId(2)), 2); // sees both triangles
        assert_eq!(counts.get(NodeId(4)), 1);
        assert_eq!(counts.get(NodeId(6)), 0);
    }

    #[test]
    fn triangle_counts_k2() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let spec = CensusSpec::single(&p, 2);
        let counts = run(&g, &spec).unwrap();
        assert_eq!(counts.get(NodeId(0)), 2); // both triangles within 2 hops
        assert_eq!(counts.get(NodeId(5)), 1);
        assert_eq!(counts.get(NodeId(6)), 0);
    }

    #[test]
    fn k0_counts_single_nodes_only() {
        let g = fixture();
        let node = Pattern::parse("PATTERN n { ?A; }").unwrap();
        let spec = CensusSpec::single(&node, 0);
        let counts = run(&g, &spec).unwrap();
        for n in g.node_ids() {
            assert_eq!(counts.get(n), 1);
        }
    }

    #[test]
    fn focal_subset() {
        let g = fixture();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let spec = CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(vec![NodeId(5)]));
        let counts = run(&g, &spec).unwrap();
        // S(5,1) = {4,5,6}: edges 4-5 and 5-6.
        assert_eq!(counts.get(NodeId(5)), 2);
        assert_eq!(counts.get(NodeId(2)), 0); // not focal
        assert!(!counts.is_focal(NodeId(2)));
    }

    #[test]
    fn subpattern_rejected() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; SUBPATTERN m {?B;} }").unwrap();
        let spec = CensusSpec::single(&p, 1).with_subpattern("m");
        assert!(matches!(run(&g, &spec), Err(CensusError::Unsupported(_))));
    }

    #[test]
    fn attribute_predicates_rejected() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; [?A.age>3]; }").unwrap();
        let spec = CensusSpec::single(&p, 1);
        assert!(matches!(run(&g, &spec), Err(CensusError::Unsupported(_))));
    }

    #[test]
    fn labels_respected_in_subgraphs() {
        let mut b = GraphBuilder::undirected();
        b.add_node(Label(0));
        b.add_node(Label(1));
        b.add_node(Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        let p = Pattern::parse("PATTERN e { ?A-?B; [?A.LABEL=0]; [?B.LABEL=1]; }").unwrap();
        let counts = run(&g, &CensusSpec::single(&p, 1)).unwrap();
        assert_eq!(counts.get(NodeId(0)), 1);
        assert_eq!(counts.get(NodeId(1)), 2);
        assert_eq!(counts.get(NodeId(2)), 1);
    }
}
