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
//!
//! [`enumerate`] is the one entry point, at any thread count. Each phase
//! splits into contiguous chunks through `ego_graph::parallel::fan_out`
//! and concatenates them in order; extraction runs one depth-first
//! subtree per first-level root, so root chunks concatenated in root
//! order are exactly the sequential depth-first order. Embeddings and
//! every work counter in [`MatchStats`] are therefore the same at every
//! thread count. The exception is `setops.saved_allocs`, a buffer-reuse
//! tally: each worker warms its own buffers.

use crate::candidates::CandidateSpace;
use crate::filter::passes_filters;
use crate::stats::MatchStats;
use ego_graph::parallel::{fan_out, workers_for};
use ego_graph::profile::ProfileIndex;
use ego_graph::{setops, Graph, NodeId};
use ego_pattern::{Pattern, SearchOrder};

/// Enumerate all embeddings of `p` in `g` using the CN algorithm, on
/// `threads` workers (`0` counts as one). Every phase splits into
/// contiguous chunks that concatenate in order, so the embeddings (order
/// included) and the work counters in `stats` are the same at every
/// thread count.
pub fn enumerate(
    g: &Graph,
    p: &Pattern,
    stats: &mut MatchStats,
    threads: usize,
) -> Vec<Vec<NodeId>> {
    let profiles = ProfileIndex::build(g);
    let mut cs = CandidateSpace::enumerate(g, p, &profiles, stats, threads);
    cs.init_candidate_neighbors(g, p, stats, threads);
    cs.prune(p, stats);

    // Step 4: forward extraction, one depth-first subtree per first-level
    // root. Root chunks concatenate in root order, which is the order a
    // single depth-first walk visits them in.
    let order = SearchOrder::new(p);
    let roots: Vec<NodeId> = cs.alive_candidates(order.order[0]).collect();
    stats.extension_candidates_scanned += roots.len();
    let extract = |chunk: &[NodeId]| {
        let mut x = Extraction::new(g, p, &cs, &order);
        for &root in chunk {
            x.place(0, root);
        }
        (x.out, x.stats)
    };
    let (out, extracted) = fan_out(
        &roots,
        workers_for(roots.len(), threads),
        extract,
        |acc, (out, part)| {
            acc.0.extend(out);
            add_extraction(&mut acc.1, &part);
        },
    );
    add_extraction(stats, &extracted);
    setops::record_global(&stats.setops);
    out
}

/// Fold the extraction-phase counters of `part` into `acc`.
fn add_extraction(acc: &mut MatchStats, part: &MatchStats) {
    acc.extension_candidates_scanned += part.extension_candidates_scanned;
    acc.partial_matches += part.partial_matches;
    acc.raw_embeddings += part.raw_embeddings;
    acc.filtered_embeddings += part.filtered_embeddings;
    acc.setops.add(&part.setops);
}

/// One worker's extraction state over the pruned candidate space: the
/// partial assignment (indexed by pattern node), a pool of per-depth
/// candidate lists (taken on descent, returned on backtrack), a
/// ping-pong buffer for chained intersections, and what it found.
struct Extraction<'a> {
    g: &'a Graph,
    p: &'a Pattern,
    cs: &'a CandidateSpace,
    order: &'a SearchOrder,
    assignment: Vec<NodeId>,
    pool: Vec<Vec<NodeId>>,
    tmp: Vec<NodeId>,
    out: Vec<Vec<NodeId>>,
    stats: MatchStats,
}

impl<'a> Extraction<'a> {
    fn new(g: &'a Graph, p: &'a Pattern, cs: &'a CandidateSpace, order: &'a SearchOrder) -> Self {
        Extraction {
            g,
            p,
            cs,
            order,
            assignment: vec![NodeId(0); p.num_nodes()],
            pool: Vec::new(),
            tmp: Vec::new(),
            out: Vec::new(),
            stats: MatchStats::default(),
        }
    }

    /// Map the pattern node at `depth` to `n` (unless `n` already appears
    /// in the partial assignment) and extend depth-first.
    fn place(&mut self, depth: usize, n: NodeId) {
        let order = self.order;
        if (0..depth).any(|d| self.assignment[order.order[d].index()] == n) {
            return;
        }
        self.assignment[order.order[depth].index()] = n;
        if depth + 1 == self.p.num_nodes() {
            self.stats.raw_embeddings += 1;
            if passes_filters(self.g, self.p, &self.assignment) {
                self.stats.filtered_embeddings += 1;
                self.out.push(self.assignment.clone());
            }
            return;
        }
        self.stats.partial_matches += 1;
        let options = self.candidates(depth + 1);
        for &m in &options {
            self.place(depth + 1, m);
        }
        self.pool.push(options);
    }

    /// Possible images for the pattern node at `depth`: the intersection
    /// of the candidate-neighbor sets of its already-matched pattern
    /// neighbors (or the full alive candidate list when it has none — a
    /// new component of a disconnected pattern).
    fn candidates(&mut self, depth: usize) -> Vec<NodeId> {
        let (cs, order) = (self.cs, self.order);
        let v = order.order[depth];
        let back = &order.backward[depth];
        let mut current = self.pool.pop().unwrap_or_default();
        current.clear();
        if back.is_empty() {
            current.extend(cs.alive_candidates(v));
            self.stats.extension_candidates_scanned += current.len();
            return current;
        }
        // Start from the smallest CN list, then intersect with the rest
        // through the kernel layer, ping-ponging between two buffers.
        let mut lists: Vec<&[NodeId]> = back
            .iter()
            .map(|&j| {
                let vj = order.order[j];
                cs.cn_list(vj, self.assignment[vj.index()], v)
            })
            .collect();
        lists.sort_by_key(|l| l.len());
        let stats = &mut self.stats;
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
            setops::intersect_into(&current, l, &mut self.tmp, &mut stats.setops);
            std::mem::swap(&mut current, &mut self.tmp);
        }
        current
    }
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
