//! ND-DIFF: differential counting (Section IV-A2, Algorithm 3).
//!
//! Adjacent nodes share most of their `k`-hop neighborhoods, so the match
//! set `M[n']` of a neighbor `n'` is derived from `M[n]` by (1) adding
//! matches that touch `N_k(n') − N_k(n)` and are fully contained in
//! `S(n', k)`, and (2) removing matches that touch `N_k(n) − N_k(n')`.
//! The match index here is keyed by **all** nodes of each match
//! (GADDI-style), not just the pivot.

use crate::result::{CensusError, CountVector};
use crate::spec::CensusSpec;
use crate::tstats::TraversalStats;
use ego_graph::bfs::BfsScratch;
use ego_graph::{neighborhood, FastHashMap, FastHashSet, Graph, NodeId};
use ego_matcher::MatchList;

/// Match index over all member nodes: `PMI[n]` = matches containing `n`.
pub struct FullIndex {
    map: FastHashMap<u32, Vec<u32>>,
}

impl FullIndex {
    /// Build from a match list.
    pub fn build(matches: &MatchList) -> Self {
        let mut map: FastHashMap<u32, Vec<u32>> = FastHashMap::default();
        for (i, m) in matches.iter().enumerate() {
            for &n in &m.nodes {
                map.entry(n.0).or_default().push(i as u32);
            }
        }
        FullIndex { map }
    }

    /// Matches containing `n`.
    pub fn get(&self, n: NodeId) -> &[u32] {
        self.map.get(&n.0).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Run ND-DIFF over precomputed global matches, with traversal-cost
/// instrumentation. Subpattern queries are rejected: differential
/// maintenance tracks full containment only.
pub(crate) fn run(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
) -> Result<(CountVector, TraversalStats), CensusError> {
    check(spec)?;
    let k = spec.k();
    let pmi = FullIndex::build(matches);
    let mask = spec.focal().mask(g);
    let mut counts = CountVector::new(g.num_nodes(), mask.clone());

    // Remaining focal set; chained traversal prefers a neighbor of the
    // current node so neighborhoods overlap.
    let mut remaining: FastHashSet<u32> = spec.focal().nodes(g).iter().map(|n| n.0).collect();
    let mut scratch = BfsScratch::new(g.num_nodes());

    let mut current = match spec.focal().nodes(g).first() {
        Some(&n) => n,
        None => return Ok((counts, TraversalStats::default())),
    };
    let mut prev_nodes: Vec<NodeId> = Vec::new();
    let mut have_prev = false;
    let mut current_set: FastHashSet<u32> = FastHashSet::default();
    let mut buf = Vec::new();

    while !remaining.is_empty() {
        remaining.remove(&current.0);

        buf.clear();
        scratch.bounded_bfs(g, current, k, &mut buf);
        buf.sort_unstable();
        let cur_nodes = buf.clone();

        if !have_prev {
            current_set.clear();
            // Full computation: every match touching the neighborhood,
            // filtered for containment.
            for &n in &cur_nodes {
                for &mi in pmi.get(n) {
                    if current_set.contains(&mi) {
                        continue;
                    }
                    let m = &matches[mi as usize];
                    if m.nodes.iter().all(|x| cur_nodes.binary_search(x).is_ok()) {
                        current_set.insert(mi);
                    }
                }
            }
        } else {
            let added = neighborhood::difference_sorted(&cur_nodes, &prev_nodes);
            let removed = neighborhood::difference_sorted(&prev_nodes, &cur_nodes);
            // Insertions first (paper order); removals then evict anything
            // that slid out of the neighborhood.
            for &n in &added {
                for &mi in pmi.get(n) {
                    if current_set.contains(&mi) {
                        continue;
                    }
                    let m = &matches[mi as usize];
                    if m.nodes.iter().all(|x| cur_nodes.binary_search(x).is_ok()) {
                        current_set.insert(mi);
                    }
                }
            }
            for &n in &removed {
                for &mi in pmi.get(n) {
                    current_set.remove(&mi);
                }
            }
        }

        counts.set(current, current_set.len() as u64);

        // Next: prefer an unprocessed neighbor (keeps the diff small).
        let next_neighbor = g
            .neighbors(current)
            .iter()
            .copied()
            .find(|m| remaining.contains(&m.0));
        match next_neighbor {
            Some(nb) => {
                prev_nodes = cur_nodes;
                have_prev = true;
                current = nb;
            }
            None => {
                // Jump to an arbitrary remaining node; restart from scratch.
                match remaining.iter().next().copied() {
                    Some(raw) => {
                        current = NodeId(raw);
                        have_prev = false;
                    }
                    None => break,
                }
            }
        }
    }
    let tstats = TraversalStats {
        edges_traversed: scratch.edges_scanned(),
        nodes_expanded: spec.focal().count(g) as u64,
        reinsertions: 0,
        index_edges: 0,
    };
    Ok((counts, tstats))
}

/// The specs differential counting refuses.
pub(crate) fn check(spec: &CensusSpec<'_>) -> Result<(), CensusError> {
    match spec.subpattern_name() {
        Some(_) => Err(CensusError::Unsupported(
            "ND-DIFF cannot evaluate COUNTSP queries; use ND-PVOT or PT-OPT".into(),
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FocalNodes;
    use crate::{exec_matches, nd_bas};
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
            "PATTERN n { ?A; }",
        ] {
            let p = Pattern::parse(pat_text).unwrap();
            for k in 0..3 {
                let spec = CensusSpec::single(&p, k);
                let m = exec_matches(&g, &p, 1);
                let (fast, _) = run(&g, &spec, &m).unwrap();
                let (slow, _) = nd_bas::run(&g, &spec).unwrap();
                for n in g.node_ids() {
                    assert_eq!(fast.get(n), slow.get(n), "{pat_text} k={k} node={n:?}");
                }
            }
        }
    }

    #[test]
    fn full_index_covers_all_members() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let idx = FullIndex::build(&m);
        // Triangle node 2 participates in both triangles.
        assert_eq!(idx.get(NodeId(2)).len(), 2);
        assert_eq!(idx.get(NodeId(6)).len(), 0);
    }

    #[test]
    fn sparse_focal_set_with_jumps() {
        // Focal nodes in different components force prev = NULL restarts.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(6, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(3), NodeId(4));
        b.add_edge(NodeId(4), NodeId(5));
        let g = b.build();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let spec =
            CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(vec![NodeId(1), NodeId(4)]));
        let m = exec_matches(&g, &p, 1);
        let (counts, _) = run(&g, &spec, &m).unwrap();
        assert_eq!(counts.get(NodeId(1)), 2);
        assert_eq!(counts.get(NodeId(4)), 2);
    }

    #[test]
    fn subpattern_rejected() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; SUBPATTERN s {?A;} }").unwrap();
        let spec = CensusSpec::single(&p, 1).with_subpattern("s");
        let m = exec_matches(&g, &p, 1);
        assert!(matches!(
            run(&g, &spec, &m),
            Err(CensusError::Unsupported(_))
        ));
    }

    #[test]
    fn empty_focal_set() {
        let g = fixture();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let spec = CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(vec![]));
        let m = exec_matches(&g, &p, 1);
        let (counts, _) = run(&g, &spec, &m).unwrap();
        assert_eq!(counts.total(), 0);
    }
}
