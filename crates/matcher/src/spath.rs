//! SPath-style matcher: neighborhood-signature candidate filtering.
//!
//! The paper's related work singles out SPath (Zhao & Han, VLDB 2010) —
//! "an indexing technique that is based on neighborhood signatures and
//! shortest paths" — and lists a comprehensive comparison as future work.
//! This module provides that comparator: a matcher whose candidate filter
//! is the *d-bounded neighborhood signature*
//!
//! ```text
//! sig(n)[d][l] = |{ m : d(n, m) ≤ d, label(m) = l }|      d = 1..=D
//! ```
//!
//! a strictly stronger filter than the 1-hop profiles of Section III-A:
//! a database node `n` can host pattern node `v` only if, for every
//! radius `d` and label `l`, the pattern's own d-bounded signature is
//! contained in `n`'s (pattern distances upper-bound match distances, so
//! containment is a sound necessary condition). Extraction then follows
//! the same candidate-set scan as the GQL baseline — isolating the
//! *filtering* contribution of signatures, which is what SPath's index
//! brings relative to profiles.

use crate::candidates::CandidateSpace;
use crate::stats::MatchStats;
use ego_graph::bfs::BfsScratch;
use ego_graph::profile::ProfileIndex;
use ego_graph::{Graph, Label, NodeId};
use ego_pattern::analysis::{PatternAnalysis, UNREACHABLE};
use ego_pattern::{PNode, Pattern};

/// Signature radius. SPath uses small radii (index size grows fast);
/// D = 2 captures most of the pruning power on labeled graphs.
pub const SIGNATURE_RADIUS: u32 = 2;

/// The d-bounded neighborhood signature index: for every node, label
/// counts of the ball of radius 1..=D (cumulative).
pub struct SignatureIndex {
    num_labels: usize,
    radius: u32,
    /// Row-major: `sig[((n * D) + (d-1)) * L + l]`.
    sig: Vec<u32>,
}

impl SignatureIndex {
    /// Build the index with radius `radius`. O(Σ_n |ball_D(n)|).
    pub fn build(g: &Graph, radius: u32) -> Self {
        let num_labels = g.num_labels() as usize;
        let d_max = radius as usize;
        let mut sig = vec![0u32; g.num_nodes() * d_max * num_labels];
        let mut scratch = BfsScratch::new(g.num_nodes());
        let mut ball = Vec::new();
        for n in g.node_ids() {
            ball.clear();
            scratch.bounded_bfs(g, n, radius, &mut ball);
            let base = n.index() * d_max * num_labels;
            for &m in &ball {
                if m == n {
                    continue;
                }
                let d = scratch.distance(m) as usize; // 1..=D
                let l = g.label(m).index();
                // Cumulative: a node at distance d is inside every ball of
                // radius >= d.
                for dd in d..=d_max {
                    sig[base + (dd - 1) * num_labels + l] += 1;
                }
            }
        }
        SignatureIndex {
            num_labels,
            radius,
            sig,
        }
    }

    /// Count of label-`l` nodes within distance `d` (1-based) of `n`.
    #[inline]
    pub fn count(&self, n: NodeId, d: u32, l: Label) -> u32 {
        debug_assert!(d >= 1 && d <= self.radius);
        let d_max = self.radius as usize;
        self.sig[(n.index() * d_max + (d as usize - 1)) * self.num_labels + l.index()]
    }
}

/// The pattern-side requirement: for pattern node `v`, how many
/// label-constrained pattern nodes sit within pattern distance `d`.
/// Unconstrained pattern nodes contribute no label requirement (they can
/// match anything), mirroring the profile filter's conservatism.
fn pattern_signature(
    p: &Pattern,
    analysis: &PatternAnalysis,
    v: PNode,
    radius: u32,
    num_labels: usize,
) -> Vec<u32> {
    let d_max = radius as usize;
    let mut req = vec![0u32; d_max * num_labels];
    for u in p.nodes() {
        if u == v {
            continue;
        }
        let Some(l) = p.label(u) else { continue };
        if l.index() >= num_labels {
            // A label absent from the graph: handled by the candidate
            // filter rejecting everything (requirement can't be met).
            continue;
        }
        let d = analysis.distance(v, u);
        if d == UNREACHABLE || d > radius {
            continue;
        }
        let d = d.max(1) as usize;
        for dd in d..=d_max {
            req[(dd - 1) * num_labels + l.index()] += 1;
        }
    }
    req
}

/// Enumerate all embeddings of `p` in `g` with signature-filtered
/// candidates and GQL-style extraction.
pub fn enumerate(g: &Graph, p: &Pattern, stats: &mut MatchStats) -> Vec<Vec<NodeId>> {
    let profiles = ProfileIndex::build(g);
    enumerate_with_profiles(g, p, &profiles, stats)
}

/// [`enumerate`] reusing a prebuilt profile index. The signature index is
/// built here at the pattern's needed radius; for repeated queries over
/// one graph build it once and call [`enumerate_with_index`].
pub fn enumerate_with_profiles(
    g: &Graph,
    p: &Pattern,
    profiles: &ProfileIndex,
    stats: &mut MatchStats,
) -> Vec<Vec<NodeId>> {
    let sig_radius = SIGNATURE_RADIUS.min(longest_pattern_distance(p).max(1));
    let sigs = SignatureIndex::build(g, sig_radius);
    enumerate_with_index(g, p, profiles, &sigs, stats)
}

/// Enumerate with a prebuilt signature index (the production shape:
/// SPath's index is computed once per graph and persisted).
pub fn enumerate_with_index(
    g: &Graph,
    p: &Pattern,
    profiles: &ProfileIndex,
    sigs: &SignatureIndex,
    stats: &mut MatchStats,
) -> Vec<Vec<NodeId>> {
    // Start from the profile-filtered candidates...
    let mut cs = CandidateSpace::enumerate(g, p, profiles, stats, 1);
    // ...then tighten with d-bounded signatures.
    let sig_radius = sigs.radius.min(longest_pattern_distance(p).max(1));
    let analysis = PatternAnalysis::new(p);
    let num_labels = g.num_labels() as usize;
    for v in p.nodes() {
        let req = pattern_signature(p, &analysis, v, sig_radius, num_labels);
        let vi = v.index();
        for ci in 0..cs.cands[vi].len() {
            if !cs.alive[vi][ci] {
                continue;
            }
            let n = cs.cands[vi][ci];
            let ok = (1..=sig_radius).all(|d| {
                (0..num_labels).all(|l| {
                    let need = req[(d as usize - 1) * num_labels + l];
                    need == 0 || sigs.count(n, d, Label(l as u16)) >= need
                })
            });
            if !ok {
                cs.alive[vi][ci] = false;
                cs.alive_bits[vi].remove(n);
            }
        }
    }
    stats.pruned_candidates = cs
        .alive
        .iter()
        .map(|a| a.iter().filter(|&&x| x).count())
        .sum();
    // Extraction identical to the GQL baseline (candidate-set scans), so
    // any performance difference against GQL isolates the signature
    // filter's effect.
    crate::gql::search_over(g, p, &cs, stats)
}

fn longest_pattern_distance(p: &Pattern) -> u32 {
    let analysis = PatternAnalysis::new(p);
    let mut best = 0;
    for a in p.nodes() {
        for b in p.nodes() {
            let d = analysis.distance(a, b);
            if d != UNREACHABLE {
                best = best.max(d);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatcherKind;
    use ego_graph::GraphBuilder;

    fn labeled_graph() -> Graph {
        // Triangle 0(L0)-1(L1)-2(L2), pendant 3(L1) on 0, far pair 4(L0)-5(L1).
        let mut b = GraphBuilder::undirected();
        for l in [0u16, 1, 2, 1, 0, 1] {
            b.add_node(Label(l));
        }
        for (x, y) in [(0u32, 1), (1, 2), (0, 2), (0, 3), (4, 5)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        b.build()
    }

    #[test]
    fn signature_counts() {
        let g = labeled_graph();
        let idx = SignatureIndex::build(&g, 2);
        // Node 3 at d=1 sees {0 (L0)}; at d<=2 sees {0, 1(L1), 2(L2)}.
        assert_eq!(idx.count(NodeId(3), 1, Label(0)), 1);
        assert_eq!(idx.count(NodeId(3), 1, Label(1)), 0);
        assert_eq!(idx.count(NodeId(3), 2, Label(1)), 1);
        assert_eq!(idx.count(NodeId(3), 2, Label(2)), 1);
        // Node 4 sees only node 5 at any radius.
        assert_eq!(idx.count(NodeId(4), 2, Label(1)), 1);
        assert_eq!(idx.count(NodeId(4), 2, Label(0)), 0);
    }

    #[test]
    fn agrees_with_cn_on_labeled_patterns() {
        let g = labeled_graph();
        for text in [
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL=0]; [?B.LABEL=1]; [?C.LABEL=2]; }",
            "PATTERN e { ?A-?B; [?A.LABEL=0]; [?B.LABEL=1]; }",
            "PATTERN p { ?A-?B; ?B-?C; }",
            "PATTERN n { ?A; }",
        ] {
            let p = Pattern::parse(text).unwrap();
            let mut a = crate::find_embeddings(&g, &p, MatcherKind::SPathStyle);
            let mut b = crate::find_embeddings(&g, &p, MatcherKind::CandidateNeighbors);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{text}");
        }
    }

    #[test]
    fn signatures_prune_beyond_profiles() {
        // Pattern: L0 node with an L2 node two hops away. Node 4 (L0)
        // passes the 1-hop profile filter for ?A (it has an L1 neighbor,
        // like node 0) but its 2-ball contains no L2 — the signature
        // filter kills it before search.
        let g = labeled_graph();
        let p = Pattern::parse(
            "PATTERN far { ?A-?B; ?B-?C; [?A.LABEL=0]; [?B.LABEL=1]; [?C.LABEL=2]; }",
        )
        .unwrap();
        let mut stats_sig = MatchStats::default();
        let embs =
            crate::find_embeddings_with_stats(&g, &p, MatcherKind::SPathStyle, &mut stats_sig);
        assert_eq!(embs.len(), 1); // 0-1-2 only
        let mut stats_gql = MatchStats::default();
        crate::find_embeddings_with_stats(&g, &p, MatcherKind::GqlStyle, &mut stats_gql);
        assert!(
            stats_sig.pruned_candidates <= stats_gql.initial_candidates,
            "signature filter should not add candidates"
        );
    }

    #[test]
    fn directed_and_negated_agree() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(5, Label(0));
        for (x, y) in [(0u32, 1), (1, 2), (0, 2), (3, 4)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        let g = b.build();
        let p = Pattern::parse("PATTERN d { ?A->?B; ?B->?C; ?A!->?C; }").unwrap();
        let mut a = crate::find_embeddings(&g, &p, MatcherKind::SPathStyle);
        let mut c = crate::find_embeddings(&g, &p, MatcherKind::CandidateNeighbors);
        a.sort();
        c.sort();
        assert_eq!(a, c);
    }
}
