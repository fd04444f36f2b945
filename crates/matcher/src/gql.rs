//! GraphQL-style baseline matcher.
//!
//! Reimplements the essence of He & Singh's GraphQL (SIGMOD 2008), the
//! comparator of the paper's Figures 4(a)/4(b), whose binaries are not
//! available:
//!
//! 1. profile-based candidate filtering (identical front end to CN);
//! 2. iterative refinement by **semi-perfect matching**: candidate `n`
//!    for pattern node `v` survives only if a bipartite matching exists
//!    that assigns every pattern neighbor `v'` of `v` a *distinct*
//!    graph neighbor of `n` drawn from `C(v')`;
//! 3. backtracking search that, at each extension step, scans the full
//!    candidate set `C(v_{i+1})` and tests adjacency against the already
//!    matched nodes — the cost the paper's candidate-neighbor sets avoid
//!    ("this check requires scanning over comparatively large candidate
//!    sets").
//!
//! The semi-perfect-matching refinement prunes *more aggressively per
//! candidate* than CN's emptiness test (matching vs. mere non-emptiness),
//! mirroring the paper's remark that their approach "does not prune as
//! aggressively for some types of query patterns" yet wins overall.

use crate::bipartite::has_perfect_left_matching;
use crate::candidates::CandidateSpace;
use crate::filter::passes_filters;
use crate::stats::MatchStats;
use ego_graph::profile::ProfileIndex;
use ego_graph::{Graph, NodeId};
use ego_pattern::{Pattern, SearchOrder};

/// Enumerate all embeddings of `p` in `g` with the GQL-style algorithm.
pub fn enumerate(g: &Graph, p: &Pattern, stats: &mut MatchStats) -> Vec<Vec<NodeId>> {
    let profiles = ProfileIndex::build(g);
    enumerate_with_profiles(g, p, &profiles, stats)
}

/// [`enumerate`] reusing a prebuilt profile index.
pub fn enumerate_with_profiles(
    g: &Graph,
    p: &Pattern,
    profiles: &ProfileIndex,
    stats: &mut MatchStats,
) -> Vec<Vec<NodeId>> {
    let mut cs = CandidateSpace::enumerate(g, p, profiles, stats, 1);
    refine(g, p, &mut cs, stats);
    search_over(g, p, &cs, stats)
}

/// Semi-perfect-matching refinement to a fixpoint.
fn refine(g: &Graph, p: &Pattern, cs: &mut CandidateSpace, stats: &mut MatchStats) {
    let mut passes = 0;
    loop {
        passes += 1;
        let mut changed = false;
        for v in p.nodes() {
            let vi = v.index();
            let pn = cs.pneigh[vi].clone();
            if pn.is_empty() {
                continue;
            }
            for ci in 0..cs.cands[vi].len() {
                if !cs.alive[vi][ci] {
                    continue;
                }
                let n = cs.cands[vi][ci];
                // Bipartite graph: left = pattern neighbors, right = graph
                // neighbors of n; edge when the graph neighbor is an alive
                // candidate for that pattern neighbor.
                let gneigh = g.neighbors(n);
                let adj: Vec<Vec<usize>> = pn
                    .iter()
                    .map(|&vp| {
                        gneigh
                            .iter()
                            .enumerate()
                            .filter(|&(_, &m)| cs.is_alive(vp, m))
                            .map(|(ri, _)| ri)
                            .collect()
                    })
                    .collect();
                if !has_perfect_left_matching(&adj, gneigh.len()) {
                    cs.alive[vi][ci] = false;
                    cs.alive_bits[vi].remove(n);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats.prune_iterations = passes;
    stats.pruned_candidates = cs
        .alive
        .iter()
        .map(|a| a.iter().filter(|&&x| x).count())
        .sum();
}

/// Backtracking search over full candidate sets. Exposed for the
/// SPath-style matcher, which shares this extraction.
pub(crate) fn search_over(
    g: &Graph,
    p: &Pattern,
    cs: &CandidateSpace,
    stats: &mut MatchStats,
) -> Vec<Vec<NodeId>> {
    let order = SearchOrder::new(p);
    let np = p.num_nodes();
    let mut out = Vec::new();
    let mut assignment = vec![NodeId(0); np];
    // Pre-collect alive candidate lists per pattern node.
    let alive_lists: Vec<Vec<NodeId>> = p
        .nodes()
        .map(|v| cs.alive_candidates(v).collect())
        .collect();

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        g: &Graph,
        p: &Pattern,
        order: &SearchOrder,
        alive_lists: &[Vec<NodeId>],
        depth: usize,
        assignment: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
        stats: &mut MatchStats,
    ) {
        let np = p.num_nodes();
        let v = order.order[depth];
        // Scan the FULL candidate set of v (the GQL extension cost).
        for &n in &alive_lists[v.index()] {
            stats.extension_candidates_scanned += 1;
            // Injectivity.
            if (0..depth).any(|d| assignment[order.order[d].index()] == n) {
                continue;
            }
            // Adjacency (with direction) to every already-matched pattern
            // neighbor.
            let ok = order.backward[depth].iter().all(|&j| {
                let vj = order.order[j];
                let nj = assignment[vj.index()];
                edge_satisfied(g, p, vj, nj, v, n)
            });
            if !ok {
                continue;
            }
            assignment[v.index()] = n;
            if depth + 1 == np {
                stats.raw_embeddings += 1;
                if passes_filters(g, p, assignment) {
                    stats.filtered_embeddings += 1;
                    out.push(assignment.clone());
                }
            } else {
                stats.partial_matches += 1;
                dfs(g, p, order, alive_lists, depth + 1, assignment, out, stats);
            }
        }
    }

    dfs(
        g,
        p,
        &order,
        &alive_lists,
        0,
        &mut assignment,
        &mut out,
        stats,
    );
    out
}

/// Is the pattern edge between `vj` (matched to `nj`) and `v` (tentatively
/// `n`) satisfied in the graph, including direction?
fn edge_satisfied(
    g: &Graph,
    p: &Pattern,
    vj: ego_pattern::PNode,
    nj: NodeId,
    v: ego_pattern::PNode,
    n: NodeId,
) -> bool {
    if !g.is_directed() {
        return g.has_undirected_edge(nj, n);
    }
    let (jv, vj_rev) = p.directed_requirements(vj, v);
    match (jv, vj_rev) {
        (true, true) => g.has_directed_edge(nj, n) && g.has_directed_edge(n, nj),
        (true, false) => g.has_directed_edge(nj, n),
        (false, true) => g.has_directed_edge(n, nj),
        (false, false) => g.has_undirected_edge(nj, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatcherKind;
    use ego_graph::{GraphBuilder, Label};
    use ego_pattern::builtin;

    fn two_triangles() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(5, Label(0));
        for (x, y) in [(0u32, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        b.build()
    }

    #[test]
    fn agrees_with_cn_on_triangles() {
        let g = two_triangles();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let mut a = crate::find_embeddings(&g, &p, MatcherKind::GqlStyle);
        let mut b = crate::find_embeddings(&g, &p, MatcherKind::CandidateNeighbors);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn agrees_with_cn_on_builtins_random_graph() {
        // Deterministic pseudo-random graph without pulling in `rand`:
        // a circulant graph with labels from a modular rule.
        let n = 60u32;
        let mut b = GraphBuilder::undirected();
        for i in 0..n {
            b.add_node(Label((i % 4) as u16));
        }
        for i in 0..n {
            for &d in &[1u32, 2, 5, 9] {
                b.add_edge(NodeId(i), NodeId((i + d) % n));
            }
        }
        let g = b.build();
        for p in builtin::figure3() {
            let mut e1 = crate::find_embeddings(&g, &p, MatcherKind::GqlStyle);
            let mut e2 = crate::find_embeddings(&g, &p, MatcherKind::CandidateNeighbors);
            e1.sort();
            e2.sort();
            assert_eq!(e1, e2, "pattern {}", p.name());
        }
    }

    #[test]
    fn semi_perfect_matching_prunes_multiplicity() {
        // Pattern: node with two distinct label-1 neighbors. Graph node 0
        // has only ONE label-1 neighbor but two label-0 ones.
        let mut b = GraphBuilder::undirected();
        b.add_node(Label(0)); // 0
        b.add_node(Label(1)); // 1
        b.add_node(Label(0)); // 2
        b.add_node(Label(0)); // 3
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(0), NodeId(3));
        let g = b.build();
        let p = Pattern::parse("PATTERN p { ?H-?X; ?H-?Y; [?X.LABEL=1]; [?Y.LABEL=1]; }").unwrap();
        let embs = crate::find_embeddings(&g, &p, MatcherKind::GqlStyle);
        assert!(embs.is_empty());
    }

    #[test]
    fn directed_agreement() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(6, Label(0));
        for (x, y) in [(0u32, 1), (1, 2), (0, 2), (3, 4), (4, 5)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        let g = b.build();
        let p = Pattern::parse("PATTERN d { ?A->?B; ?B->?C; ?A!->?C; }").unwrap();
        let mut e1 = crate::find_embeddings(&g, &p, MatcherKind::GqlStyle);
        let mut e2 = crate::find_embeddings(&g, &p, MatcherKind::CandidateNeighbors);
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
        assert_eq!(e1.len(), 1); // only 3->4->5 lacks the closing edge
    }

    #[test]
    fn gql_scans_more_extension_candidates_than_cn() {
        let g = two_triangles();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let mut s_gql = MatchStats::default();
        let mut s_cn = MatchStats::default();
        crate::find_embeddings_with_stats(&g, &p, MatcherKind::GqlStyle, &mut s_gql);
        crate::find_embeddings_with_stats(&g, &p, MatcherKind::CandidateNeighbors, &mut s_cn);
        assert!(
            s_gql.extension_candidates_scanned >= s_cn.extension_candidates_scanned,
            "gql {} < cn {}",
            s_gql.extension_candidates_scanned,
            s_cn.extension_candidates_scanned
        );
    }
}
