//! Top-k census queries — the paper's first "future work" item:
//! "top-k query evaluation techniques to more efficiently identify the
//! nodes with the highest pattern census counts."
//!
//! Strategy: a cheap, monotone **upper bound** on every node's count,
//! then lazy exact evaluation in decreasing bound order with
//! threshold-based early termination (NRA-style):
//!
//! 1. Let `f(n)` be the number of matches whose image of the pivot `v`
//!    is `n` (a histogram of `v`'s images, not the plan's index, which
//!    keys some matches at other tied pivots). A contained match has its
//!    `v` image in the ball, so a node's true count is at most
//!    `Σ_{n' ∈ N_k(n)} f(n')`.
//! 2. The k-round neighbor aggregation `g_0 = f`,
//!    `g_{i+1}(n) = g_i(n) + Σ_{m ∈ N(n)} g_i(m)` dominates that sum
//!    (every node within k hops contributes at least once), so `g_k` is
//!    a valid upper bound computable in `k` passes over the edges —
//!    no per-node BFS.
//! 3. Evaluate nodes exactly (ND-PVOT's per-node step, the same
//!    `PivotPlan` the census sweep counts with) in decreasing `g_k`
//!    order; stop when the k-th best exact count ≥ the next bound.

use crate::nd_pivot::PivotPlan;
use crate::result::CensusError;
use crate::spec::CensusSpec;
use ego_graph::bfs::BfsScratch;
use ego_graph::{Graph, NodeId};
use ego_matcher::MatchList;

/// Result of a top-k census: the k highest-count focal nodes (exact
/// counts, sorted descending; ties broken by lower node id) plus how many
/// nodes needed exact evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopKResult {
    /// `(node, exact count)` in descending count order.
    pub top: Vec<(NodeId, u64)>,
    /// Number of focal nodes that were evaluated exactly.
    pub evaluated: usize,
}

/// Find the `k_results` focal nodes with the highest census counts.
pub fn top_k_census(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    k_results: usize,
) -> Result<TopKResult, CensusError> {
    let k = spec.k();
    let plan = PivotPlan::new(g, spec, matches)?;

    // Upper bound g_k via k rounds of neighbor aggregation, from the
    // pivot-image histogram f.
    let n = g.num_nodes();
    let mut bound = vec![0u64; n];
    for m in matches.iter() {
        bound[m.image(plan.pivot()).index()] += 1;
    }
    let mut next = vec![0u64; n];
    for _ in 0..k {
        for node in g.node_ids() {
            let mut acc = bound[node.index()];
            for &m in g.neighbors(node) {
                acc = acc.saturating_add(bound[m.index()]);
            }
            next[node.index()] = acc;
        }
        std::mem::swap(&mut bound, &mut next);
    }

    // Candidates in decreasing bound order.
    let mut order: Vec<NodeId> = spec.focal().nodes(g);
    order.sort_by_key(|&nd| (std::cmp::Reverse(bound[nd.index()]), nd));

    // Exact evaluation with threshold cutoff.
    let mut scratch = BfsScratch::new(n);
    let mut visited = Vec::new();
    let mut top: Vec<(NodeId, u64)> = Vec::new();
    let mut evaluated = 0usize;

    for &node in &order {
        let threshold = if top.len() >= k_results {
            top.last().map(|&(_, c)| c).unwrap_or(0)
        } else {
            0
        };
        if top.len() >= k_results && bound[node.index()] <= threshold {
            // No remaining node can beat the current k-th best: bounds are
            // sorted descending, so everything after is ≤ too. (Ties at the
            // threshold cannot displace an equal-count incumbent under our
            // lower-id tie-break only if the incumbent id is lower; to keep
            // determinism simple and results exact we keep scanning equal
            // bounds.)
            if bound[node.index()] < threshold {
                break;
            }
        }
        evaluated += 1;
        visited.clear();
        scratch.bounded_bfs(g, node, k, &mut visited);
        let count = plan.count_focal(&scratch, &visited, k);
        insert_top(&mut top, (node, count), k_results);
    }

    Ok(TopKResult { top, evaluated })
}

fn insert_top(top: &mut Vec<(NodeId, u64)>, entry: (NodeId, u64), k: usize) {
    top.push(entry);
    top.sort_by_key(|&(nd, c)| (std::cmp::Reverse(c), nd));
    top.truncate(k);
}

/// Convenience: run the full census and take its top-k (the brute-force
/// reference used in tests and benches).
pub fn top_k_exhaustive(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    k_results: usize,
) -> Result<Vec<(NodeId, u64)>, CensusError> {
    let (counts, _) = crate::nd_pivot::run(g, spec, matches, 1)?;
    Ok(counts.top_k(k_results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_matches;
    use crate::spec::FocalNodes;
    use ego_graph::{GraphBuilder, Label};
    use ego_pattern::Pattern;

    fn fixture() -> Graph {
        // Two triangles sharing node 2 plus chain 4-5-6.
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
    fn matches_exhaustive_top_k() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        for k in 0..4u32 {
            let spec = CensusSpec::single(&p, k);
            for k_results in [1usize, 3, 10] {
                let fast = top_k_census(&g, &spec, &m, k_results).unwrap();
                let slow = top_k_exhaustive(&g, &spec, &m, k_results).unwrap();
                assert_eq!(fast.top, slow, "k={k} k_results={k_results}");
            }
        }
    }

    #[test]
    fn early_termination_on_skewed_graph() {
        // A hub-rich graph: the hub region dominates counts, so low-bound
        // peripheral nodes are never evaluated.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(64, Label(0));
        // Dense core on nodes 0..8.
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                b.add_edge(NodeId(i), NodeId(j));
            }
        }
        // Long pendant path 8..64.
        b.add_edge(NodeId(0), NodeId(8));
        for i in 8..63u32 {
            b.add_edge(NodeId(i), NodeId(i + 1));
        }
        let g = b.build();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec = CensusSpec::single(&p, 1);
        let res = top_k_census(&g, &spec, &m, 3).unwrap();
        assert_eq!(res.top, top_k_exhaustive(&g, &spec, &m, 3).unwrap());
        assert!(
            res.evaluated < g.num_nodes(),
            "expected early termination, evaluated {}",
            res.evaluated
        );
    }

    #[test]
    fn respects_focal_subset() {
        let g = fixture();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec =
            CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(vec![NodeId(5), NodeId(6)]));
        let res = top_k_census(&g, &spec, &m, 1).unwrap();
        assert_eq!(res.top.len(), 1);
        assert_eq!(res.top[0].0, NodeId(5));
    }

    #[test]
    fn k_results_larger_than_focal() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec = CensusSpec::single(&p, 2);
        let res = top_k_census(&g, &spec, &m, 100).unwrap();
        assert_eq!(res.top.len(), 7);
        assert_eq!(res.evaluated, 7);
    }

    #[test]
    fn subpattern_top_k() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN me {?A;} }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec = CensusSpec::single(&p, 0).with_subpattern("me");
        let res = top_k_census(&g, &spec, &m, 1).unwrap();
        // Node 2 is in both triangles.
        assert_eq!(res.top, vec![(NodeId(2), 2)]);
    }
}
