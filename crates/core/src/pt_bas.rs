//! PT-BAS: the pattern-driven baseline (Section IV-B).
//!
//! Each match is processed independently: BFS to depth `k` from every
//! match node, pick the match node with the fewest `k`-hop neighbors, and
//! check each of its neighbors for reachability (within `k`) from every
//! other match node. No shared traversals, no shortcuts, no ordering, no
//! centers, no clustering.

use crate::result::{CensusError, CountVector};
use crate::spec::CensusSpec;
use crate::tstats::TraversalStats;
use ego_graph::bfs::BfsScratch;
use ego_graph::{Graph, NodeId};
use ego_matcher::{MatchList, PatternMatch};

/// Run PT-BAS over precomputed global matches.
pub fn run(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
) -> Result<CountVector, CensusError> {
    run_instrumented(g, spec, matches).map(|(cv, _)| cv)
}

/// [`run`] with traversal-cost instrumentation.
pub fn run_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
) -> Result<(CountVector, TraversalStats), CensusError> {
    run_slice(g, spec, matches.matches())
}

/// [`run_instrumented`] over a contiguous run of the matches — the
/// building block of the parallel layer. Every match contributes
/// independently (pure `counts.increment`), so running disjoint runs and
/// summing their counts reproduces the full run exactly.
pub(crate) fn run_slice(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &[PatternMatch],
) -> Result<(CountVector, TraversalStats), CensusError> {
    let k = spec.k();
    let anchors = spec.anchor_nodes()?;
    let mask = spec.focal().mask(g);
    let mut counts = CountVector::new(g.num_nodes(), mask.clone());
    let mut scratch = BfsScratch::new(g.num_nodes());

    // Per-anchor k-hop membership, rebuilt per match (the baseline's
    // repeated work). Sorted vectors; containment via binary search.
    let mut khops: Vec<Vec<NodeId>> = Vec::new();
    let mut buf = Vec::new();

    for m in matches {
        // Distinct anchor images (anchors of one match are distinct nodes,
        // but COUNTSP anchors may be a subset).
        let anchor_imgs: Vec<NodeId> = anchors.iter().map(|&a| m.image(a)).collect();

        khops.clear();
        for &mi in &anchor_imgs {
            buf.clear();
            scratch.bounded_bfs(g, mi, k, &mut buf);
            buf.sort_unstable();
            khops.push(buf.clone());
        }
        // m_min: the anchor with the fewest k-hop neighbors.
        let (min_idx, _) = khops
            .iter()
            .enumerate()
            .min_by_key(|(_, h)| h.len())
            .expect("pattern has at least one anchor");
        for &cand in &khops[min_idx] {
            if !mask[cand.index()] {
                continue;
            }
            let ok = khops
                .iter()
                .enumerate()
                .all(|(i, h)| i == min_idx || h.binary_search(&cand).is_ok());
            if ok {
                counts.increment(cand);
            }
        }
    }
    let tstats = TraversalStats {
        edges_traversed: scratch.edges_scanned(),
        nodes_expanded: (matches.len() * anchors.len()) as u64,
        reinsertions: 0,
        index_edges: 0,
    };
    Ok((counts, tstats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FocalNodes;
    use crate::{global_matches, nd_bas, nd_pivot};
    use ego_graph::{GraphBuilder, Label};
    use ego_pattern::Pattern;

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
    fn agrees_with_nd_bas() {
        let g = fixture();
        for pat_text in [
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
            "PATTERN e { ?A-?B; }",
            "PATTERN p3 { ?A-?B; ?B-?C; }",
        ] {
            let p = Pattern::parse(pat_text).unwrap();
            for k in 0..4 {
                let spec = CensusSpec::single(&p, k);
                let m = global_matches(&g, &p);
                let fast = run(&g, &spec, &m).unwrap();
                let slow = nd_bas::run(&g, &spec).unwrap();
                for n in g.node_ids() {
                    assert_eq!(fast.get(n), slow.get(n), "{pat_text} k={k} node={n:?}");
                }
            }
        }
    }

    #[test]
    fn subpattern_agrees_with_nd_pivot() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }").unwrap();
        for k in 0..3 {
            let spec = CensusSpec::single(&p, k).with_subpattern("one");
            let m = global_matches(&g, &p);
            let a = run(&g, &spec, &m).unwrap();
            let b = nd_pivot::run(&g, &spec, &m).unwrap();
            for n in g.node_ids() {
                assert_eq!(a.get(n), b.get(n), "k={k} node={n:?}");
            }
        }
    }

    #[test]
    fn focal_mask_respected() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let spec = CensusSpec::single(&p, 2).with_focal(FocalNodes::Set(vec![NodeId(6)]));
        let m = global_matches(&g, &p);
        let counts = run(&g, &spec, &m).unwrap();
        assert_eq!(counts.get(NodeId(6)), 0);
        assert_eq!(counts.get(NodeId(0)), 0); // non-focal stays zero
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn no_matches_yields_zeroes() {
        let g = fixture();
        let p = Pattern::parse("PATTERN k4 { ?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D; }").unwrap();
        let spec = CensusSpec::single(&p, 3);
        let m = global_matches(&g, &p);
        assert!(m.is_empty());
        let counts = run(&g, &spec, &m).unwrap();
        assert_eq!(counts.total(), 0);
    }
}
