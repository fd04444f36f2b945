//! Incremental global match-list maintenance under an edge delta.
//!
//! Every census algorithm except ND-BAS starts from the pattern's global
//! match list, and recomputing it from scratch on each mutation would
//! put a full extraction (`census_bench`'s `matcher.extract_ms`) under
//! every update, however small the delta. This module maintains the list
//! as a delta structure instead (`dynamic.incremental_ms`):
//!
//! 1. **Survivor scan** — a match is *suspicious* iff the image of any
//!    pattern edge (positive *or* negative) lands on a touched pair (an
//!    inserted or deleted edge, as an unordered endpoint pair). Every
//!    match invalidated by the delta is suspicious: a valid match dies
//!    only when a positive-edge image is removed or a negative-edge image
//!    appears, and both events touch exactly such a pair. All suspicious
//!    previous matches are dropped wholesale — no matcher semantics are
//!    re-implemented here — and the rest survive.
//! 2. **Discovery** — the same test read the other way: a match that is
//!    valid *now* but not a survivor is suspicious (it was either created
//!    through a touched pair or dropped as suspicious), and a suspicious
//!    tuple can never be a survivor. So the discoveries are exactly the
//!    suspicious matches of the new graph, and survivors and discoveries
//!    are disjoint by construction. A suspicious match has a touched
//!    endpoint among its images, and every other image lies within the
//!    pattern's diameter ([`ego_pattern::PatternAnalysis::diameter`]) of
//!    it. The matcher therefore runs only on the induced subgraph of the
//!    ball of that radius around the touched endpoints, keeps the
//!    suspicious matches, and maps them back through the (strictly
//!    monotone) id mapping, which preserves automorphism-canonical forms.
//!
//! The maintained list equals the from-scratch list as a *set* (order
//! may differ: survivors keep their previous order, discoveries are
//! appended), and census counts are order-invariant sums over it, so
//! spliced counts stay bit-identical to a full recompute.
//!
//! Two pattern classes fall back to recomputation (`None`):
//! disconnected patterns (no locality bound for discoveries) and
//! patterns with node/edge attribute predicates (the ball's induced
//! subgraph does not carry attributes, so in-ball enumeration cannot
//! evaluate them).

use crate::delta::DeltaGraph;
use ego_census::exec_matches;
use ego_graph::{khop_nodes, FastHashSet, Graph, InducedSubgraph, NodeId};
use ego_matcher::{MatchList, PatternMatch};
use ego_pattern::{Pattern, PatternAnalysis};

/// Work accounting for one maintained pattern.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Previous matches kept without re-verification.
    pub survivors: usize,
    /// Previous matches dropped as suspicious (their edges touched the
    /// delta; still-valid ones are re-found as discoveries).
    pub dropped: usize,
    /// Matches found by the ball enumeration that are suspicious, hence
    /// not among the survivors.
    pub discovered: usize,
    /// Size of the re-enumeration ball (nodes), the |delta|-scaled cost.
    pub ball_nodes: usize,
}

impl MaintainStats {
    /// Accumulate another pattern's accounting into this one.
    pub fn absorb(&mut self, other: &MaintainStats) {
        self.survivors += other.survivors;
        self.dropped += other.dropped;
        self.discovered += other.discovered;
        self.ball_nodes += other.ball_nodes;
    }
}

/// Can `maintain_match_list` handle this pattern, or must the caller
/// recompute from scratch?
pub fn supports_match_maintenance(p: &Pattern) -> bool {
    p.is_connected() && p.node_predicates().is_empty() && p.edge_predicates().is_empty()
}

/// Maintain `previous` (the global match list of `pattern` on
/// `delta.base()`) into the global match list on `new_graph` (which must
/// be `delta.compact()` — the caller typically already compacted).
/// Returns `None` when the pattern is unsupported
/// ([`supports_match_maintenance`]); the caller falls back to a full
/// recomputation.
pub fn maintain_match_list(
    delta: &DeltaGraph,
    new_graph: &Graph,
    pattern: &Pattern,
    previous: &MatchList,
    threads: usize,
) -> Option<(MatchList, MaintainStats)> {
    if !supports_match_maintenance(pattern) {
        return None;
    }
    // Unordered touched pairs: every inserted or deleted edge, as
    // (min, max). Directed deltas are unordered here on purpose — the
    // suspicion test is conservative, and dropped-but-valid matches are
    // re-found as discoveries.
    let mut touched_pairs: FastHashSet<(u32, u32)> = FastHashSet::default();
    for (a, b) in delta.added().chain(delta.removed()) {
        touched_pairs.insert((a.0.min(b.0), a.0.max(b.0)));
    }
    if touched_pairs.is_empty() {
        return Some((previous.clone(), MaintainStats::default()));
    }
    let suspicious = |nodes: &[NodeId]| {
        pattern
            .positive_edges()
            .iter()
            .chain(pattern.negative_edges())
            .any(|e| {
                let a = nodes[e.a.index()].0;
                let b = nodes[e.b.index()].0;
                touched_pairs.contains(&(a.min(b), a.max(b)))
            })
    };

    let mut stats = MaintainStats::default();
    let mut kept: Vec<PatternMatch> = previous
        .iter()
        .filter(|m| !suspicious(&m.nodes))
        .cloned()
        .collect();
    stats.survivors = kept.len();
    stats.dropped = previous.len() - kept.len();

    // The ball: all nodes within the pattern's diameter (new-graph hops)
    // of a touched endpoint. Every suspicious valid match has a touched
    // endpoint among its images, so it lies entirely inside.
    let radius = PatternAnalysis::new(pattern).diameter();
    let mut ball: Vec<NodeId> = Vec::new();
    for t in delta.touched_endpoints() {
        ball.extend(khop_nodes(new_graph, t, radius));
    }
    ball.sort_unstable();
    ball.dedup();
    stats.ball_nodes = ball.len();

    // Enumerate inside the ball's induced subgraph (labels carry over;
    // negative edges between ball members are present exactly when they
    // are in the full graph, so filtering is faithful for matches fully
    // inside — which all of these are) and keep the suspicious ones. The
    // local→global mapping is strictly increasing, so canonical
    // representatives stay canonical.
    let sub = InducedSubgraph::extract(new_graph, &ball);
    let local = exec_matches(&sub.graph, pattern, threads);
    for m in local.iter() {
        let global: Vec<NodeId> = m.nodes.iter().map(|&v| sub.to_global(v)).collect();
        if suspicious(&global) {
            kept.push(PatternMatch { nodes: global });
            stats.discovered += 1;
        }
    }
    Some((MatchList::from_matches(kept), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};
    use std::sync::Arc;

    fn ring(n: u32) -> Arc<Graph> {
        let mut b = GraphBuilder::undirected();
        for _ in 0..n {
            b.add_node(Label(0));
        }
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        Arc::new(b.build())
    }

    /// Canonical node-vector set of a list, for order-insensitive equality.
    fn as_set(list: &MatchList) -> std::collections::BTreeSet<Vec<NodeId>> {
        list.iter().map(|m| m.nodes.clone()).collect()
    }

    #[test]
    fn insert_discovers_and_delete_drops() {
        let g = ring(32);
        let tri = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let prev = exec_matches(&g, &tri, 1);
        assert_eq!(prev.len(), 0);

        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();
        let new_graph = d.compact();
        let (list, stats) = maintain_match_list(&d, &new_graph, &tri, &prev, 1).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(stats.discovered, 1);
        assert_eq!(as_set(&list), as_set(&exec_matches(&new_graph, &tri, 1)));

        // Now delete a triangle edge from the chorded graph.
        let base2 = Arc::new(new_graph);
        let mut d2 = DeltaGraph::new(base2.clone());
        d2.delete_edge(NodeId(1), NodeId(2)).unwrap();
        let g2 = d2.compact();
        let (list2, stats2) = maintain_match_list(&d2, &g2, &tri, &list, 1).unwrap();
        assert_eq!(list2.len(), 0);
        assert_eq!(stats2.dropped, 1);
    }

    #[test]
    fn distant_matches_survive_untouched() {
        // Two chords far apart: maintain across a delta touching only one.
        let g = ring(64);
        let mut d0 = DeltaGraph::new(g.clone());
        d0.insert_edge(NodeId(0), NodeId(2)).unwrap();
        d0.insert_edge(NodeId(30), NodeId(32)).unwrap();
        let base = Arc::new(d0.compact());
        let tri = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let prev = exec_matches(&base, &tri, 1);
        assert_eq!(prev.len(), 2);

        let mut d = DeltaGraph::new(base.clone());
        d.delete_edge(NodeId(0), NodeId(2)).unwrap();
        let new_graph = d.compact();
        let (list, stats) = maintain_match_list(&d, &new_graph, &tri, &prev, 1).unwrap();
        assert_eq!(stats.survivors, 1);
        assert_eq!(stats.dropped, 1);
        assert!(stats.ball_nodes < base.num_nodes());
        assert_eq!(as_set(&list), as_set(&exec_matches(&new_graph, &tri, 1)));
    }

    #[test]
    fn negative_edge_pattern_is_maintained() {
        // Open wedge A-B-C with A!-C: deleting a chord *creates* matches,
        // inserting one kills them. Both flows must stay exact.
        let g = ring(16);
        let wedge = Pattern::parse("PATTERN w { ?A-?B; ?B-?C; ?A!-?C; }").unwrap();
        let prev = exec_matches(&g, &wedge, 1);

        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();
        let g1 = d.compact();
        let (list1, _) = maintain_match_list(&d, &g1, &wedge, &prev, 1).unwrap();
        assert_eq!(as_set(&list1), as_set(&exec_matches(&g1, &wedge, 1)));

        let base1 = Arc::new(g1);
        let mut d2 = DeltaGraph::new(base1.clone());
        d2.delete_edge(NodeId(0), NodeId(2)).unwrap();
        let g2 = d2.compact();
        let (list2, _) = maintain_match_list(&d2, &g2, &wedge, &list1, 1).unwrap();
        assert_eq!(as_set(&list2), as_set(&exec_matches(&g2, &wedge, 1)));
    }

    #[test]
    fn directed_patterns_and_graphs() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(8, Label(0));
        for i in 0..7u32 {
            b.add_edge(NodeId(i), NodeId(i + 1));
        }
        let g = Arc::new(b.build());
        let path2 = Pattern::parse("PATTERN p { ?A->?B; ?B->?C; }").unwrap();
        let prev = exec_matches(&g, &path2, 1);
        assert_eq!(prev.len(), 6);

        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(7), NodeId(0)).unwrap();
        d.delete_edge(NodeId(3), NodeId(4)).unwrap();
        let new_graph = d.compact();
        let (list, _) = maintain_match_list(&d, &new_graph, &path2, &prev, 1).unwrap();
        assert_eq!(as_set(&list), as_set(&exec_matches(&new_graph, &path2, 1)));
    }

    #[test]
    fn unsupported_patterns_fall_back() {
        let g = ring(8);
        let disconnected = Pattern::parse("PATTERN d { ?A-?B; ?C-?D; }").unwrap();
        let d = DeltaGraph::new(g.clone());
        let prev = MatchList::default();
        assert!(maintain_match_list(&d, &g, &disconnected, &prev, 1).is_none());
        assert!(!supports_match_maintenance(&disconnected));
    }

    #[test]
    fn clean_delta_returns_previous() {
        let g = ring(8);
        let edge = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let prev = exec_matches(&g, &edge, 1);
        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();
        d.delete_edge(NodeId(0), NodeId(2)).unwrap();
        let (list, stats) = maintain_match_list(&d, &g, &edge, &prev, 1).unwrap();
        assert_eq!(list.len(), prev.len());
        assert_eq!(stats, MaintainStats::default());
    }
}
