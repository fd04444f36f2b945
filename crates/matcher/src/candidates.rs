//! Candidate enumeration and candidate-neighbor sets (Sections III-A/B/C).
//!
//! Both phases run on the `ego_graph::setops` kernel layer: CN-set
//! initialization intersects each candidate's adjacency with the neighbor
//! candidate set through a build-once/intersect-many [`NodeBitset`] (or
//! the merge/gallop kernels when the set is too small to amortize a
//! build), and the prune fixpoint filters CN lists through per-node alive
//! bitsets instead of hash lookups. Both phases take a thread count and
//! split through `ego_graph::parallel::fan_out` into contiguous chunks —
//! node ranges for enumeration, runs of candidate-range tasks for CN
//! initialization — concatenated in order, so the results are
//! bit-identical to the sequential order at any thread count. The GQL
//! and SPath matchers call them with one thread.

use crate::stats::MatchStats;
use ego_graph::parallel::fan_out;
use ego_graph::profile::{NodeProfile, ProfileIndex};
use ego_graph::setops::{self, NodeBitset, SetOpStats};
use ego_graph::{Graph, NodeId};
use ego_pattern::{PNode, Pattern};
use std::ops::Range;

/// Below this many graph nodes the parallel enumeration shards are not
/// worth their thread spawns.
const PAR_MIN_NODES: usize = 4096;

/// Minimum candidates per CN-initialization task.
const CN_TASK_MIN: usize = 256;

/// The candidate space shared by both matchers: per pattern node `v`, the
/// candidate list `C(v)`; for the CN matcher additionally the candidate
/// neighbor sets `CN(n, v, v')`.
pub struct CandidateSpace {
    /// Pattern neighbor lists: `pneigh[v.index()]` = sorted pattern
    /// neighbors of `v` through positive edges.
    pub pneigh: Vec<Vec<PNode>>,
    /// `cands[v.index()]` = sorted candidate node list `C(v)`.
    pub cands: Vec<Vec<NodeId>>,
    /// `alive[v.index()][ci]` = candidate at position `ci` still viable.
    pub alive: Vec<Vec<bool>>,
    /// Bitset membership of alive candidates, for O(1) `n ∈ C(v)` checks
    /// and kernel-level CN filtering during the prune fixpoint.
    pub alive_bits: Vec<NodeBitset>,
    /// `cn[v.index()][j][ci]` = CN(cands\[v\]\[ci\], v, pneigh\[v\]\[j\]),
    /// sorted. Populated only by [`CandidateSpace::init_candidate_neighbors`].
    pub cn: Vec<Vec<Vec<Vec<NodeId>>>>,
}

impl CandidateSpace {
    /// Step 1 (Section III-A): enumerate candidates per pattern node using
    /// label constraints, degree, and profile containment. On a large
    /// graph each of `threads` workers filters a contiguous node-id range
    /// for every pattern node, and the per-range lists concatenate in
    /// range order, so the lists are the same at every thread count.
    pub fn enumerate(
        g: &Graph,
        p: &Pattern,
        profiles: &ProfileIndex,
        stats: &mut MatchStats,
        threads: usize,
    ) -> Self {
        let np = p.num_nodes();
        let pneigh: Vec<Vec<PNode>> = p.nodes().map(|v| p.neighbors(v)).collect();

        // Pattern node profiles over *label-constrained* neighbors only:
        // an unconstrained pattern neighbor can match any label, so it
        // contributes to the degree requirement but not to any label bucket.
        let pattern_profiles: Vec<NodeProfile> = p
            .nodes()
            .map(|v| {
                NodeProfile::from_neighbor_labels(
                    pneigh[v.index()].iter().filter_map(|&w| p.label(w)),
                )
            })
            .collect();

        let n = g.num_nodes();
        let workers = if n < PAR_MIN_NODES { 1 } else { threads.max(1) };
        let step = n.div_ceil(workers).max(1);
        let ranges: Vec<Range<u32>> = (0..n)
            .step_by(step)
            .map(|start| start as u32..(start + step).min(n) as u32)
            .collect();
        let cands = fan_out(
            &ranges,
            workers,
            |chunk| {
                let span = chunk.first().map_or(0, |r| r.start)..chunk.last().map_or(0, |r| r.end);
                enumerate_range(g, p, &pneigh, &pattern_profiles, profiles, span)
            },
            |acc: &mut Vec<Vec<NodeId>>, part| {
                for (list, more) in acc.iter_mut().zip(part) {
                    list.extend(more);
                }
            },
        );
        for list in &cands {
            stats.initial_candidates += list.len();
        }

        let alive: Vec<Vec<bool>> = cands.iter().map(|c| vec![true; c.len()]).collect();
        let alive_bits: Vec<NodeBitset> = cands
            .iter()
            .map(|c| NodeBitset::from_sorted(g.num_nodes(), c))
            .collect();

        CandidateSpace {
            pneigh,
            cands,
            alive,
            alive_bits,
            cn: vec![Vec::new(); np],
        }
    }

    /// The adjacency list of `n` relevant for the pattern pair `(v, v')`,
    /// honoring edge direction: if the pattern requires `v -> v'`, images
    /// of `v'` must be out-neighbors of `n`; `v' -> v` requires
    /// in-neighbors; both require both; an undirected pattern edge accepts
    /// any adjacency. Borrows straight from the CSR except for the
    /// both-directions case, which intersects into `scratch`.
    fn relation_adjacency<'a>(
        g: &'a Graph,
        p: &Pattern,
        n: NodeId,
        v: PNode,
        vp: PNode,
        scratch: &'a mut Vec<NodeId>,
        stats: &mut SetOpStats,
    ) -> &'a [NodeId] {
        if !g.is_directed() {
            return g.neighbors(n);
        }
        let (ab, ba) = p.directed_requirements(v, vp);
        match (ab, ba) {
            (true, true) => {
                setops::intersect_into(g.out_neighbors(n), g.in_neighbors(n), scratch, stats);
                scratch
            }
            (true, false) => g.out_neighbors(n),
            (false, true) => g.in_neighbors(n),
            (false, false) => g.neighbors(n),
        }
    }

    /// Step 2 (Section III-B): initialize `CN(n, v, v') = C(v') ∩ N(n)`
    /// for every candidate and pattern-neighbor pair, on the kernel layer.
    /// Candidate sets that get intersected many times are materialized
    /// once as [`NodeBitset`]s (shared read-only across workers). The work
    /// is a list of tasks — contiguous candidate ranges of one `(v, v')`
    /// pair — split over `threads` workers in contiguous chunks, so the
    /// CN lists are the same at every thread count.
    pub fn init_candidate_neighbors(
        &mut self,
        g: &Graph,
        p: &Pattern,
        stats: &mut MatchStats,
        threads: usize,
    ) {
        // Build-once bitsets per pattern node whose candidate set is
        // reused enough: reuse count = how many intersections will hit
        // C(v'), summed over pattern nodes that neighbor v'.
        let np = p.num_nodes();
        let mut reuse = vec![0usize; np];
        for vi in 0..np {
            for &vp in &self.pneigh[vi] {
                reuse[vp.index()] += self.cands[vi].len();
            }
        }
        let vp_bits: Vec<Option<NodeBitset>> = (0..np)
            .map(|vpi| {
                if reuse[vpi] > 0 && setops::bitset_pays_off(reuse[vpi], self.cands[vpi].len()) {
                    Some(NodeBitset::from_sorted(g.num_nodes(), &self.cands[vpi]))
                } else {
                    None
                }
            })
            .collect();

        // Flatten the work into tasks: (v, pattern-neighbor index,
        // contiguous candidate range).
        struct Task {
            vi: usize,
            j: usize,
            range: Range<usize>,
        }
        let threads = threads.max(1);
        let total: usize = (0..np)
            .map(|vi| self.cands[vi].len() * self.pneigh[vi].len())
            .sum();
        let task_size = (total.div_ceil(threads * 4)).max(CN_TASK_MIN);
        let mut tasks = Vec::new();
        for vi in 0..np {
            for j in 0..self.pneigh[vi].len() {
                let len = self.cands[vi].len();
                let mut start = 0;
                loop {
                    let end = (start + task_size).min(len);
                    tasks.push(Task {
                        vi,
                        j,
                        range: start..end,
                    });
                    if end == len {
                        break;
                    }
                    start = end;
                }
            }
        }

        // One list of CN lists per task, in task order.
        let run_tasks = |chunk: &[Task]| {
            let mut sstats = SetOpStats::default();
            let mut lists: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(chunk.len());
            for t in chunk {
                let mut adj_scratch = Vec::new();
                let v = PNode(t.vi as u8);
                let vp = self.pneigh[t.vi][t.j];
                let cvp = &self.cands[vp.index()];
                let bits = vp_bits[vp.index()].as_ref();
                let task_lists = self.cands[t.vi][t.range.clone()]
                    .iter()
                    .map(|&n| {
                        let adj =
                            Self::relation_adjacency(g, p, n, v, vp, &mut adj_scratch, &mut sstats);
                        let mut out = Vec::new();
                        if let Some(bits) = bits {
                            sstats.bitset_calls += 1;
                            bits.filter_into(adj, &mut out);
                        } else {
                            setops::intersect_into(adj, cvp, &mut out, &mut sstats);
                        }
                        out
                    })
                    .collect();
                lists.push(task_lists);
            }
            (lists, sstats)
        };
        let (lists, sstats) = fan_out(&tasks, threads, run_tasks, |acc, (lists, sstats)| {
            acc.0.extend(lists);
            acc.1.add(&sstats);
        });
        stats.setops.add(&sstats);

        // A pair's tasks cover its candidates in order: the first one's
        // lists move in whole, later ones append.
        let mut cn: Vec<Vec<Vec<Vec<NodeId>>>> = self
            .pneigh
            .iter()
            .map(|pn| vec![Vec::new(); pn.len()])
            .collect();
        for (t, task_lists) in tasks.iter().zip(lists) {
            let slot = &mut cn[t.vi][t.j];
            if slot.is_empty() {
                *slot = task_lists;
            } else {
                slot.extend(task_lists);
            }
        }
        self.cn = cn;
    }

    /// Step 3 (Section III-C): simultaneously prune candidates whose CN
    /// sets are empty and CN entries that left the candidate sets, until a
    /// fixpoint. Returns the number of passes.
    ///
    /// CN filtering runs through the per-node alive bitsets — a
    /// 2-instruction membership test per entry, in place, no allocation.
    pub fn prune(&mut self, p: &Pattern, stats: &mut MatchStats) -> usize {
        let mut passes = 0;
        loop {
            passes += 1;
            let mut changed = false;

            // Kill candidates with an empty CN set for some pattern neighbor.
            for v in p.nodes() {
                let vi = v.index();
                for ci in 0..self.cands[vi].len() {
                    if !self.alive[vi][ci] {
                        continue;
                    }
                    let dead = self.cn[vi].iter().any(|lists| lists[ci].is_empty());
                    if dead {
                        self.alive[vi][ci] = false;
                        self.alive_bits[vi].remove(self.cands[vi][ci]);
                        changed = true;
                    }
                }
            }

            // Drop CN entries that are no longer candidates for v'.
            for v in p.nodes() {
                let vi = v.index();
                for (j, &vp) in self.pneigh[vi].iter().enumerate() {
                    let bits = &self.alive_bits[vp.index()];
                    for ci in 0..self.cands[vi].len() {
                        if !self.alive[vi][ci] {
                            continue;
                        }
                        let list = &mut self.cn[vi][j][ci];
                        stats.setops.bitset_calls += 1;
                        stats.setops.saved_allocs += 1; // in-place, no realloc
                        if bits.retain_sorted(list) > 0 {
                            changed = true;
                        }
                    }
                }
            }

            if !changed {
                break;
            }
        }
        stats.prune_iterations = passes;
        stats.pruned_candidates = self
            .alive
            .iter()
            .map(|a| a.iter().filter(|&&x| x).count())
            .sum();
        passes
    }

    /// Alive candidates of `v`, in sorted order.
    pub fn alive_candidates(&self, v: PNode) -> impl Iterator<Item = NodeId> + '_ {
        let vi = v.index();
        self.cands[vi]
            .iter()
            .zip(&self.alive[vi])
            .filter(|&(_, &a)| a)
            .map(|(&n, _)| n)
    }

    /// Position of `n` within `C(v)` (None if absent).
    pub fn position(&self, v: PNode, n: NodeId) -> Option<usize> {
        self.cands[v.index()].binary_search(&n).ok()
    }

    /// Index of `vp` within `v`'s pattern-neighbor list.
    pub fn neighbor_index(&self, v: PNode, vp: PNode) -> Option<usize> {
        self.pneigh[v.index()].iter().position(|&w| w == vp)
    }

    /// The pruned `CN(n, v, v')` list. Panics if `n ∉ C(v)` or `v'` is not
    /// a pattern neighbor of `v`.
    pub fn cn_list(&self, v: PNode, n: NodeId, vp: PNode) -> &[NodeId] {
        let ci = self.position(v, n).expect("n is a candidate of v");
        let j = self
            .neighbor_index(v, vp)
            .expect("v' is a pattern neighbor");
        &self.cn[v.index()][j][ci]
    }

    /// Is `n` an alive candidate for `v`?
    pub fn is_alive(&self, v: PNode, n: NodeId) -> bool {
        self.alive_bits[v.index()].contains(n)
    }
}

/// Filter the node-id range `[range.start, range.end)` against every
/// pattern node's label/degree/profile constraints, returning per-pattern-
/// node candidate lists for that range (sorted, since ids scan in order).
fn enumerate_range(
    g: &Graph,
    p: &Pattern,
    pneigh: &[Vec<PNode>],
    pattern_profiles: &[NodeProfile],
    profiles: &ProfileIndex,
    range: Range<u32>,
) -> Vec<Vec<NodeId>> {
    let mut cands: Vec<Vec<NodeId>> = vec![Vec::new(); p.num_nodes()];
    for v in p.nodes() {
        let vi = v.index();
        let need_label = p.label(v);
        let need_degree = pneigh[vi].len();
        let needle = &pattern_profiles[vi];
        let list = &mut cands[vi];
        for id in range.clone() {
            let n = NodeId(id);
            if let Some(l) = need_label {
                if g.label(n) != l {
                    continue;
                }
            }
            if g.degree(n) < need_degree {
                continue;
            }
            if !profiles.contains(n, needle) {
                continue;
            }
            list.push(n);
        }
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};

    /// Triangle 0(L0)-1(L1)-2(L2) plus pendant 3(L1) on node 0.
    fn labeled_graph() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_node(Label(0));
        b.add_node(Label(1));
        b.add_node(Label(2));
        b.add_node(Label(1));
        for (x, y) in [(0u32, 1u32), (1, 2), (0, 2), (0, 3)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        b.build()
    }

    fn space(g: &Graph, p: &Pattern) -> (CandidateSpace, MatchStats) {
        let profiles = ProfileIndex::build(g);
        let mut stats = MatchStats::default();
        let mut cs = CandidateSpace::enumerate(g, p, &profiles, &mut stats, 1);
        cs.init_candidate_neighbors(g, p, &mut stats, 1);
        cs.prune(p, &mut stats);
        (cs, stats)
    }

    #[test]
    fn label_constraint_filters_candidates() {
        let g = labeled_graph();
        let p = Pattern::parse("PATTERN p { ?A-?B; [?A.LABEL=1]; [?B.LABEL=2]; }").unwrap();
        let (cs, _) = space(&g, &p);
        let a = p.node_by_name("A").unwrap();
        let b = p.node_by_name("B").unwrap();
        // ?A must be label 1 AND adjacent to a label-2 node: only node 1.
        assert_eq!(cs.alive_candidates(a).collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(cs.alive_candidates(b).collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn profile_filter_counts_multiplicity() {
        // Pattern: hub with two label-1 neighbors. Node 0 has exactly two
        // label-1 neighbors (1 and 3); node 2 has only one.
        let g = labeled_graph();
        let p = Pattern::parse("PATTERN p { ?H-?X; ?H-?Y; [?X.LABEL=1]; [?Y.LABEL=1]; }").unwrap();
        let (cs, _) = space(&g, &p);
        let h = p.node_by_name("H").unwrap();
        assert_eq!(cs.alive_candidates(h).collect::<Vec<_>>(), vec![NodeId(0)]);
    }

    #[test]
    fn cn_sets_contain_only_viable_neighbors() {
        let g = labeled_graph();
        let p = Pattern::parse("PATTERN p { ?A-?B; [?B.LABEL=2]; }").unwrap();
        let (cs, _) = space(&g, &p);
        let a = p.node_by_name("A").unwrap();
        let b = p.node_by_name("B").unwrap();
        // CN(0, A, B) = neighbors of 0 that are candidates for B (= {2}).
        assert_eq!(cs.cn_list(a, NodeId(0), b), &[NodeId(2)]);
        // Node 3 (pendant, only neighbor is 0 with label 0) dies for A.
        assert!(!cs.is_alive(a, NodeId(3)));
    }

    #[test]
    fn pruning_cascades() {
        // Path graph 0-1-2 all label 0; pattern = triangle (unlabeled):
        // initially every node with degree>=2 is a candidate (node 1), but
        // pruning must empty everything (no triangle exists).
        let mut bld = GraphBuilder::undirected();
        bld.add_nodes(3, Label(0));
        bld.add_edge(NodeId(0), NodeId(1));
        bld.add_edge(NodeId(1), NodeId(2));
        let g = bld.build();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let (cs, stats) = space(&g, &p);
        for v in p.nodes() {
            assert_eq!(cs.alive_candidates(v).count(), 0, "node {v:?}");
        }
        assert!(stats.prune_iterations >= 1);
        assert_eq!(stats.pruned_candidates, 0);
    }

    #[test]
    fn directed_relation_neighbors() {
        // 0 -> 1, 2 -> 1. Pattern ?A->?B.
        let mut bld = GraphBuilder::directed();
        bld.add_nodes(3, Label(0));
        bld.add_edge(NodeId(0), NodeId(1));
        bld.add_edge(NodeId(2), NodeId(1));
        let g = bld.build();
        let p = Pattern::parse("PATTERN d { ?A->?B; }").unwrap();
        let (cs, _) = space(&g, &p);
        let a = p.node_by_name("A").unwrap();
        let b = p.node_by_name("B").unwrap();
        let a_cands: Vec<_> = cs.alive_candidates(a).collect();
        assert_eq!(a_cands, vec![NodeId(0), NodeId(2)]);
        assert_eq!(cs.alive_candidates(b).collect::<Vec<_>>(), vec![NodeId(1)]);
        // CN of A-candidates towards B only contains out-neighbors.
        assert_eq!(cs.cn_list(a, NodeId(0), b), &[NodeId(1)]);
    }

    #[test]
    fn neighbor_and_position_lookups() {
        let g = labeled_graph();
        let p = Pattern::parse("PATTERN p { ?A-?B; }").unwrap();
        let (cs, _) = space(&g, &p);
        let a = p.node_by_name("A").unwrap();
        let b = p.node_by_name("B").unwrap();
        assert_eq!(cs.neighbor_index(a, b), Some(0));
        assert!(cs.position(a, NodeId(0)).is_some());
        assert_eq!(cs.position(a, NodeId(99)), None);
    }
}
