//! The candidate-neighbor (CN) matching algorithm — Algorithm 1.
//!
//! After candidate enumeration, CN-set initialization, and simultaneous
//! pruning (all in [`crate::candidates`]), matches are extracted in a
//! forward manner along a connected-prefix order: the possible images of
//! `v_{i+1}` are the intersection of the candidate-neighbor sets
//! `CN(n_{j}, v_{j}, v_{i+1})` over the already-matched pattern neighbors
//! `v_j` of `v_{i+1}`. These sets are *small* after pruning, which is
//! where the orders-of-magnitude win over candidate-set scanning comes
//! from.

use crate::candidates::CandidateSpace;
use crate::filter::passes_filters;
use crate::stats::MatchStats;
use ego_graph::profile::ProfileIndex;
use ego_graph::{setops, Graph, NodeId};
use ego_pattern::{Pattern, SearchOrder};

/// Reusable buffers for the forward-extraction phase: a pool of per-depth
/// candidate lists (returned on backtrack, taken on descent) and a
/// ping-pong buffer for chained intersections. One extraction allocates
/// at most `pattern depth + 1` vectors over its whole lifetime; parallel
/// extraction gives each worker one scratch for all its subtrees.
#[derive(Default)]
pub struct ExtractScratch {
    pool: Vec<Vec<NodeId>>,
    pub(crate) tmp: Vec<NodeId>,
}

impl ExtractScratch {
    /// Take a cleared buffer from the pool (or allocate one).
    pub(crate) fn take(&mut self) -> Vec<NodeId> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Return a buffer to the pool for reuse.
    pub(crate) fn give(&mut self, v: Vec<NodeId>) {
        self.pool.push(v);
    }
}

/// Enumerate all embeddings of `p` in `g` using the CN algorithm.
pub fn enumerate(g: &Graph, p: &Pattern, stats: &mut MatchStats) -> Vec<Vec<NodeId>> {
    let profiles = ProfileIndex::build(g);
    enumerate_with_profiles(g, p, &profiles, stats)
}

/// [`enumerate`] reusing a prebuilt profile index (the index depends only
/// on the graph, so census algorithms build it once per graph).
pub fn enumerate_with_profiles(
    g: &Graph,
    p: &Pattern,
    profiles: &ProfileIndex,
    stats: &mut MatchStats,
) -> Vec<Vec<NodeId>> {
    enumerate_with_profiles_threads(g, p, profiles, stats, 1)
}

/// [`enumerate_with_profiles`] with the candidate-enumeration and CN-set
/// initialization phases sharded over `threads` workers (extraction runs
/// on the calling thread; [`crate::parallel`] shards that phase).
/// Results are bit-identical at any thread count.
pub fn enumerate_with_profiles_threads(
    g: &Graph,
    p: &Pattern,
    profiles: &ProfileIndex,
    stats: &mut MatchStats,
    threads: usize,
) -> Vec<Vec<NodeId>> {
    let mut cs = CandidateSpace::enumerate_threads(g, p, profiles, stats, threads);
    cs.init_candidate_neighbors_threads(g, p, stats, threads);
    cs.prune(p, stats);
    let out = extract(g, p, &cs, stats);
    setops::record_global(&stats.setops);
    out
}

/// Step 4: forward extraction over the pruned candidate space.
fn extract(
    g: &Graph,
    p: &Pattern,
    cs: &CandidateSpace,
    stats: &mut MatchStats,
) -> Vec<Vec<NodeId>> {
    let order = SearchOrder::new(p);
    let mut scratch = ExtractScratch::default();
    let np = p.num_nodes();
    let mut out = Vec::new();
    // assignment indexed by pattern node id; usize::MAX sentinel via Option
    // avoided: track assigned prefix through `depth`.
    let mut assignment: Vec<NodeId> = vec![NodeId(0); np];
    let mut stack_iters: Vec<Vec<NodeId>> = Vec::with_capacity(np);

    // Depth-first product over per-depth candidate lists.
    let first = candidates_for_depth(cs, &order, 0, &assignment, stats, &mut scratch);
    stack_iters.push(first);
    let mut cursor = vec![0usize; 1];

    while let Some(&depth_pos) = cursor.last() {
        let depth = cursor.len() - 1;
        let options = &stack_iters[depth];
        if depth_pos >= options.len() {
            if let Some(done) = stack_iters.pop() {
                scratch.give(done);
            }
            cursor.pop();
            if let Some(c) = cursor.last_mut() {
                *c += 1;
            }
            continue;
        }
        let n = options[depth_pos];
        // Injectivity: n must not already appear in the partial assignment.
        let v = order.order[depth];
        let dup = (0..depth).any(|d| assignment[order.order[d].index()] == n);
        if dup {
            *cursor.last_mut().unwrap() += 1;
            continue;
        }
        assignment[v.index()] = n;
        if depth + 1 == np {
            stats.raw_embeddings += 1;
            if passes_filters(g, p, &assignment) {
                stats.filtered_embeddings += 1;
                out.push(assignment.clone());
            }
            *cursor.last_mut().unwrap() += 1;
        } else {
            stats.partial_matches += 1;
            let next =
                candidates_for_depth(cs, &order, depth + 1, &assignment, stats, &mut scratch);
            stack_iters.push(next);
            cursor.push(0);
        }
    }
    while let Some(done) = stack_iters.pop() {
        scratch.give(done);
    }
    out
}

/// Possible images for the pattern node at `depth`: the intersection of
/// the candidate-neighbor sets of its already-matched pattern neighbors
/// (or the full alive candidate list when it has none — the first node,
/// or a new component of a disconnected pattern).
fn candidates_for_depth(
    cs: &CandidateSpace,
    order: &SearchOrder,
    depth: usize,
    assignment: &[NodeId],
    stats: &mut MatchStats,
    scratch: &mut ExtractScratch,
) -> Vec<NodeId> {
    let v = order.order[depth];
    let back = &order.backward[depth];
    if back.is_empty() {
        let mut all = scratch.take();
        all.extend(cs.alive_candidates(v));
        stats.extension_candidates_scanned += all.len();
        return all;
    }
    // Start from the smallest CN list, then intersect with the rest
    // through the kernel layer, ping-ponging between two pooled buffers.
    let mut lists: Vec<&[NodeId]> = Vec::with_capacity(back.len());
    for &j in back {
        let vj = order.order[j];
        let nj = assignment[vj.index()];
        lists.push(cs.cn_list(vj, nj, v));
    }
    lists.sort_by_key(|l| l.len());
    let mut current = scratch.take();
    stats.extension_candidates_scanned += lists[0].len();
    if let [first, second, ..] = lists[..] {
        // Fuse the first two lists into one kernel call, skipping the
        // copy of lists[0] into `current`.
        stats.extension_candidates_scanned += second.len().min(first.len());
        setops::intersect_into(first, second, &mut current, &mut stats.setops);
    } else {
        current.extend_from_slice(lists[0]);
    }
    for l in lists.iter().skip(2) {
        if current.is_empty() {
            break;
        }
        stats.extension_candidates_scanned += l.len().min(current.len());
        setops::intersect_into(&current, l, &mut scratch.tmp, &mut stats.setops);
        std::mem::swap(&mut current, &mut scratch.tmp);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatcherKind;
    use ego_graph::{GraphBuilder, Label};

    fn run(g: &Graph, p: &Pattern) -> Vec<Vec<NodeId>> {
        crate::find_embeddings(g, p, MatcherKind::CandidateNeighbors)
    }

    /// Two triangles sharing node 2: {0,1,2} and {2,3,4}.
    fn two_triangles() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(5, Label(0));
        for (x, y) in [(0u32, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        b.build()
    }

    #[test]
    fn triangle_embeddings() {
        let g = two_triangles();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let embs = run(&g, &p);
        // 2 triangles × 6 automorphic embeddings.
        assert_eq!(embs.len(), 12);
        let matches = crate::find_matches(&g, &p, MatcherKind::CandidateNeighbors);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn single_node_pattern_matches_every_node() {
        let g = two_triangles();
        let p = Pattern::parse("PATTERN n { ?A; }").unwrap();
        assert_eq!(run(&g, &p).len(), 5);
    }

    #[test]
    fn single_edge_counts() {
        let g = two_triangles();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        // 6 edges × 2 orientations.
        assert_eq!(run(&g, &p).len(), 12);
        assert_eq!(
            crate::find_matches(&g, &p, MatcherKind::CandidateNeighbors).len(),
            6
        );
    }

    #[test]
    fn labeled_triangle() {
        let mut b = GraphBuilder::undirected();
        b.add_node(Label(0));
        b.add_node(Label(1));
        b.add_node(Label(2));
        b.add_node(Label(1)); // decoy
        for (x, y) in [(0u32, 1), (1, 2), (0, 2), (0, 3)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        let g = b.build();
        let p = Pattern::parse(
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL=0]; [?B.LABEL=1]; [?C.LABEL=2]; }",
        )
        .unwrap();
        let embs = run(&g, &p);
        assert_eq!(embs.len(), 1);
        assert_eq!(embs[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn directed_two_path() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0)); // cycle
        let g = b.build();
        let p = Pattern::parse("PATTERN d { ?A->?B; ?B->?C; }").unwrap();
        let embs = run(&g, &p);
        // Directed 2-paths in a 3-cycle: 0-1-2, 1-2-0, 2-0-1.
        assert_eq!(embs.len(), 3);
    }

    #[test]
    fn coordinator_triad_with_negation() {
        // 0->1->2 (open) and 3->4->5 with 3->5 (closed).
        let mut b = GraphBuilder::directed();
        b.add_nodes(6, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(3), NodeId(4));
        b.add_edge(NodeId(4), NodeId(5));
        b.add_edge(NodeId(3), NodeId(5));
        let g = b.build();
        let p = Pattern::parse("PATTERN t { ?A->?B; ?B->?C; ?A!->?C; }").unwrap();
        let embs = run(&g, &p);
        assert_eq!(embs.len(), 1);
        assert_eq!(embs[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn square_no_diagonals() {
        // 4-cycle 0-1-2-3 plus a diagonal-free structure; add one chord in a
        // second square to ensure only induced-4-cycle... note: pattern
        // census squares are NOT induced (chords allowed) per standard
        // subgraph-isomorphism semantics; verify chorded square still counts.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(4, Label(0));
        for (x, y) in [(0u32, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        let g = b.build();
        let p = Pattern::parse("PATTERN s { ?A-?B; ?B-?C; ?C-?D; ?D-?A; }").unwrap();
        let m = crate::find_matches(&g, &p, MatcherKind::CandidateNeighbors);
        // The 4-cycle 0-1-2-3 exists; with the chord, cycles 0-1-2-0? that's
        // a triangle, not a square. Subgraph (non-induced) squares: 0123 only.
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn no_matches_in_sparse_graph() {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(4, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        assert!(run(&g, &p).is_empty());
    }

    #[test]
    fn disconnected_pattern_cross_product() {
        // Pattern: an edge plus an isolated node.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let p = Pattern::parse("PATTERN p { ?A-?B; ?C; }").unwrap();
        let embs = run(&g, &p);
        // Edge images: (0,1) and (1,0); C can be any remaining node: 1 each.
        assert_eq!(embs.len(), 2);
        for e in &embs {
            let c = p.node_by_name("C").unwrap();
            assert_eq!(e[c.index()], NodeId(2));
        }
    }

    #[test]
    fn stats_populated() {
        let g = two_triangles();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let mut stats = MatchStats::default();
        let embs =
            crate::find_embeddings_with_stats(&g, &p, MatcherKind::CandidateNeighbors, &mut stats);
        assert_eq!(stats.raw_embeddings, embs.len());
        assert_eq!(stats.filtered_embeddings, embs.len());
        assert!(stats.initial_candidates > 0);
        assert!(stats.extension_candidates_scanned > 0);
        assert!(stats.prune_iterations >= 1);
    }

    #[test]
    fn injectivity_enforced() {
        // A path pattern of 3 in a single-edge graph could map A and C to
        // the same node without injectivity.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(2, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let p = Pattern::parse("PATTERN p { ?A-?B; ?B-?C; }").unwrap();
        assert!(run(&g, &p).is_empty());
    }
}
