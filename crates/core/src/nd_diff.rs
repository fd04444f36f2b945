//! ND-DIFF: differential counting (Section IV-A2, Algorithm 3).
//!
//! Adjacent nodes share most of their `k`-hop neighborhoods, so the match
//! set `M[n']` of a neighbor `n'` is derived from `M[n]` by (1) adding
//! matches that touch `N_k(n') − N_k(n)` and are fully contained in
//! `S(n', k)`, and (2) removing matches that touch `N_k(n) − N_k(n')`.
//! The match index here is keyed by **all** nodes of each match
//! (GADDI-style), not just the pivot: a [`MatchIndex`] with one entry
//! per image. The working sets are flat too: the focal nodes still to
//! count are a [`NodeBitset`], and `M[n]` an epoch-stamped array over
//! match ids, emptied in O(1) when the chain restarts.

use crate::nd_pivot::MatchIndex;
use crate::result::{CensusError, CountVector};
use crate::spec::CensusSpec;
use crate::tstats::TraversalStats;
use ego_graph::bfs::BfsScratch;
use ego_graph::{neighborhood, Graph, NodeBitset, NodeId};
use ego_matcher::MatchList;

/// The match index over all member nodes: `get(n)` = matches containing `n`.
pub fn full_index(num_nodes: usize, matches: &MatchList) -> MatchIndex {
    let entries = matches.matches().iter().enumerate();
    MatchIndex::build(
        num_nodes,
        entries.flat_map(|(i, m)| m.nodes.iter().map(move |&n| (n, i as u32))),
    )
}

/// A set of match ids: `id` is in it iff `stamp[id] == epoch`.
struct MatchSet {
    stamp: Vec<u32>,
    epoch: u32,
    len: u64,
}

impl MatchSet {
    fn new(universe: usize) -> Self {
        MatchSet {
            stamp: vec![0; universe],
            epoch: 0,
            len: 0,
        }
    }

    /// Empty the set. Called once per chain start, so at most once per
    /// focal node: the epoch never wraps.
    fn clear(&mut self) {
        self.epoch += 1;
        self.len = 0;
    }

    fn contains(&self, id: u32) -> bool {
        self.stamp[id as usize] == self.epoch
    }

    /// Add `id`, which must not be in the set yet.
    fn insert(&mut self, id: u32) {
        debug_assert!(!self.contains(id));
        self.stamp[id as usize] = self.epoch;
        self.len += 1;
    }

    fn remove(&mut self, id: u32) {
        if self.contains(id) {
            self.stamp[id as usize] = 0;
            self.len -= 1;
        }
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
    let pmi = full_index(g.num_nodes(), matches);
    let focal = spec.focal().nodes(g);
    let mut counts = CountVector::new(g.num_nodes(), spec.focal().mask(g));

    // Focal nodes not yet counted; a restart jumps to the first of them
    // in focal order, at or after `jump`.
    let mut remaining = NodeBitset::from_sorted(g.num_nodes(), &focal);
    let mut jump = 0;
    let mut current_set = MatchSet::new(matches.len());
    let mut scratch = BfsScratch::new(g.num_nodes());
    let (mut cur_nodes, mut prev_nodes) = (Vec::new(), Vec::new());
    let mut have_prev = false;

    let mut current = match focal.first() {
        Some(&n) => n,
        None => return Ok((counts, TraversalStats::default())),
    };
    loop {
        remaining.remove(current);
        cur_nodes.clear();
        scratch.bounded_bfs(g, current, k, &mut cur_nodes);
        cur_nodes.sort_unstable();

        // Admit every match touching `nodes` that the ball holds.
        let admit = |nodes: &[NodeId], set: &mut MatchSet| {
            for &n in nodes {
                for &mi in pmi.get(n) {
                    let inside = |x: &NodeId| scratch.visited(*x);
                    if !set.contains(mi) && matches[mi as usize].nodes.iter().all(inside) {
                        set.insert(mi);
                    }
                }
            }
        };
        if have_prev {
            // Insertions first (paper order); removals then evict
            // anything that slid out of the neighborhood.
            admit(
                &neighborhood::difference_sorted(&cur_nodes, &prev_nodes),
                &mut current_set,
            );
            for n in neighborhood::difference_sorted(&prev_nodes, &cur_nodes) {
                for &mi in pmi.get(n) {
                    current_set.remove(mi);
                }
            }
        } else {
            // Full computation: every match touching the neighborhood,
            // filtered for containment.
            current_set.clear();
            admit(&cur_nodes, &mut current_set);
        }
        counts.set(current, current_set.len);

        // Next: prefer an unprocessed neighbor (keeps the diff small);
        // otherwise jump and restart from scratch.
        let next_neighbor = g
            .neighbors(current)
            .iter()
            .copied()
            .find(|&m| remaining.contains(m));
        if let Some(nb) = next_neighbor {
            std::mem::swap(&mut prev_nodes, &mut cur_nodes);
            have_prev = true;
            current = nb;
            continue;
        }
        while jump < focal.len() && !remaining.contains(focal[jump]) {
            jump += 1;
        }
        match focal.get(jump) {
            Some(&n) => {
                current = n;
                have_prev = false;
            }
            None => break,
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
        let idx = full_index(g.num_nodes(), &m);
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
