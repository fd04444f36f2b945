//! ND-PVOT: pivot indexing (Section IV-A1, Algorithm 2).
//!
//! 1. Find all matches `M` once, globally.
//! 2. Pick the pattern's *pivot* `v` (minimum eccentricity; for COUNTSP,
//!    drawn from the subpattern nodes) and index `M` by the image of a
//!    pivot — the pattern match index `PMI_v`.
//! 3. For each focal node `n`, BFS to depth `k`. For every visited node
//!    `n'` at distance `d`, the matches in `PMI_v(n')` are candidates:
//!    * if `d + max_v ≤ k`, **every** such match is fully contained in
//!      `S(n, k)` (pattern distances upper-bound graph distances) — add
//!      `|PMI_v(n')|` without looking at the matches;
//!    * otherwise only anchor nodes at pattern distance `> k - d` from
//!      the pivot can stick out — check just those (`distant[k-d+1]`).
//!
//! Any anchor whose distances to the other anchors reach as far as the
//! pivot's (the same largest finite distance, the same disconnected
//! flag) serves as the pivot just as well: step 3's argument uses only
//! those distances. So each match is keyed at whichever of these *tied*
//! pivots has the lowest-degree image. Canonical embeddings put the
//! pivot's image on hubs, and a hub lies within `k` of most focal nodes;
//! keyed at a low-degree image, a match that needs the explicit check is
//! met by far fewer balls. A contained match has its key image in the
//! ball, so it is still counted exactly once.
//!
//! That rule is written once, in `PivotPlan::count`, and the per-focal
//! loop once, in `sweep`: single-pattern ND-PVOT is the sweep of one
//! plan, the batch engine sweeps several plans off one BFS per focal
//! node, and top-k and pairwise census count through the same plan.

use crate::parallel::add_censuses;
use crate::result::{CensusError, CountVector};
use crate::spec::CensusSpec;
use crate::tstats::TraversalStats;
use ego_graph::bfs::BfsScratch;
use ego_graph::parallel::{fan_out, workers_for};
use ego_graph::{Graph, NodeId};
use ego_matcher::MatchList;
use ego_pattern::analysis::{PatternAnalysis, UNREACHABLE};
use ego_pattern::{PNode, Pattern};
use std::cmp::Reverse;
use std::ops::Range;

/// A pattern match index: match ids bucketed by graph node, as a CSR —
/// the entries keyed at `n` are `ids()[range(n)]`, in the order they were
/// handed to [`Self::build`]. A probe is two array reads.
pub struct MatchIndex {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl MatchIndex {
    /// Bucket `(key, match id)` entries over `num_nodes` nodes by one
    /// counting sort. `entries` is walked twice (count, then place).
    ///
    /// # Panics
    ///
    /// If there are `2^32` entries or more: offsets are `u32`, like the
    /// match ids.
    pub fn build<I>(num_nodes: usize, entries: I) -> Self
    where
        I: Iterator<Item = (NodeId, u32)> + Clone,
    {
        let mut offsets = vec![0u32; num_nodes + 1];
        let mut total = 0usize;
        for (n, _) in entries.clone() {
            offsets[n.index() + 1] = offsets[n.index() + 1].wrapping_add(1);
            total += 1;
        }
        assert!(
            u32::try_from(total).is_ok(),
            "a match index holds fewer than 2^32 entries"
        );
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0u32; offsets[num_nodes] as usize];
        for (n, id) in entries {
            let at = &mut next[n.index()];
            ids[*at as usize] = id;
            *at += 1;
        }
        MatchIndex { offsets, ids }
    }

    /// Where the entries keyed at `n` sit in [`Self::ids`].
    #[inline(always)]
    pub fn range(&self, n: NodeId) -> Range<usize> {
        self.offsets[n.index()] as usize..self.offsets[n.index() + 1] as usize
    }

    /// Matches keyed at `n`.
    pub fn get(&self, n: NodeId) -> &[u32] {
        &self.ids[self.range(n)]
    }

    /// Every entry's match id, bucket after bucket.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

/// Algorithm 2's containment rule for one spec, set up once from the
/// spec's pattern, anchors and radius and its global matches.
pub(crate) struct PivotPlan {
    k: u32,
    pivot: PNode,
    /// Each match keyed at the image of its key pivot: the tied pivot
    /// (see the module docs) with the lowest-degree image, the first
    /// in tie order among equals.
    index: MatchIndex,
    /// Per index entry, its match's anchor images far-first from its key
    /// pivot: disconnected anchors, then decreasing pattern distance.
    /// Entry `e`'s row is `images[e * stride..][..stride]`.
    images: Vec<NodeId>,
    /// Per index entry, its key pivot's position in the tie order.
    key: Vec<u8>,
    /// The number of anchors.
    stride: usize,
    /// The largest pattern distance from the pivot to an anchor. Taken
    /// over anchors only: non-anchor images may fall outside `S(n, k)`.
    max_v: u32,
    /// Some anchor is disconnected from the pivot, so no distance proves
    /// containment and every bucket takes the explicit check.
    has_unreachable: bool,
    /// The number of tied pivots.
    ties: usize,
    /// `far[(i - 1) * ties + t]`: how many anchors are at pattern
    /// distance `≥ i` from tied pivot `t`, or disconnected from it — the
    /// head of its far-first row that can stick out of a ball — for `i`
    /// in `1..=max_v + 1` (the extra slot keeps `i = k - d + 1` in range
    /// when `d + max_v = k + 1`).
    far: Vec<u32>,
}

impl PivotPlan {
    /// The plan for a single-node census spec.
    pub(crate) fn new(
        g: &Graph,
        spec: &CensusSpec<'_>,
        matches: &MatchList,
    ) -> Result<Self, CensusError> {
        Ok(Self::for_anchors(
            g,
            spec.pattern(),
            &spec.anchor_nodes()?,
            spec.k(),
            matches,
        ))
    }

    /// The plan for `anchors` of `pattern` at radius `k`; the pivot is
    /// drawn from the anchors.
    pub(crate) fn for_anchors(
        g: &Graph,
        pattern: &Pattern,
        anchors: &[PNode],
        k: u32,
        matches: &MatchList,
    ) -> Self {
        let analysis = PatternAnalysis::with_pivot_candidates(pattern, Some(anchors));
        let pivot = analysis.pivot();
        let dist = |t: PNode, a: PNode| analysis.distance(t, a);
        // How far an anchor's matches reach: the largest finite pattern
        // distance to an anchor, and whether some anchor is out of reach.
        let reach = |t: PNode| {
            let finite = anchors
                .iter()
                .map(|&a| dist(t, a))
                .filter(|&d| d != UNREACHABLE);
            let unreachable = anchors.iter().any(|&a| dist(t, a) == UNREACHABLE);
            (finite.max().unwrap_or(0), unreachable)
        };
        let (max_v, has_unreachable) = reach(pivot);
        let ties: Vec<PNode> = std::iter::once(pivot)
            .chain(
                anchors
                    .iter()
                    .copied()
                    .filter(|&t| t != pivot && reach(t) == (max_v, has_unreachable)),
            )
            .take(usize::from(u8::MAX) + 1)
            .collect();
        // UNREACHABLE is u32::MAX: disconnected anchors sort first and
        // count as far at every distance.
        let rows: Vec<Vec<PNode>> = ties
            .iter()
            .map(|&t| {
                let mut row = anchors.to_vec();
                row.sort_by_key(|&a| Reverse(dist(t, a)));
                row
            })
            .collect();
        let far = (1..=max_v.max(1) + 1)
            .flat_map(|i| {
                let far_from = move |t| anchors.iter().filter(|&&a| dist(t, a) >= i).count();
                ties.iter().map(move |&t| far_from(t) as u32)
            })
            .collect();
        // Per match, its key pivot: `min_by_key` keeps the first of equal
        // degrees, i.e. tie order.
        let tie_of: Vec<u8> = matches
            .iter()
            .map(|m| {
                let degree = |&t: &usize| g.degree(m.image(ties[t]));
                (0..ties.len()).min_by_key(degree).unwrap_or(0) as u8
            })
            .collect();
        let keyed = matches.matches().iter().zip(&tie_of).enumerate();
        let index = MatchIndex::build(
            g.num_nodes(),
            keyed.map(|(i, (m, &t))| (m.image(ties[t as usize]), i as u32)),
        );
        let key: Vec<u8> = index.ids().iter().map(|&mi| tie_of[mi as usize]).collect();
        let mut images = Vec::with_capacity(key.len() * anchors.len());
        for (&mi, &t) in index.ids().iter().zip(&key) {
            let m = &matches[mi as usize];
            images.extend(rows[t as usize].iter().map(|&a| m.image(a)));
        }
        PivotPlan {
            k,
            pivot,
            index,
            images,
            key,
            stride: anchors.len(),
            max_v,
            has_unreachable,
            ties: ties.len(),
            far,
        }
    }

    /// The pivot: the anchor the pattern analysis picked. Every match's
    /// image of it bounds the matches a ball can hold (top-k's bound).
    pub(crate) fn pivot(&self) -> PNode {
        self.pivot
    }

    /// The matches contained in one ball: `ball` lists its nodes, all
    /// within the plan's radius; `dist` gives a node's distance from the
    /// ball's center, and `inside` says whether an anchor image lies in
    /// the ball.
    pub(crate) fn count(
        &self,
        ball: impl IntoIterator<Item = NodeId>,
        dist: impl Fn(NodeId) -> u32,
        inside: impl Fn(NodeId) -> bool,
    ) -> u64 {
        let k = self.k;
        let slots = self.far.len() / self.ties;
        let mut total = 0u64;
        for np in ball {
            let bucket = self.index.range(np);
            if bucket.is_empty() {
                continue;
            }
            let d = dist(np);
            if !self.has_unreachable && d + self.max_v <= k {
                // Containment guaranteed: count without checking.
                total += bucket.len() as u64;
                continue;
            }
            // Only anchors that can stick out need checking: pattern
            // distance > k - d, i.e. >= k - d + 1 — the head of each
            // far-first row. Clamping to the last slot (max_v + 1) leaves
            // exactly the disconnected anchors, which must always be
            // checked.
            let i = ((k - d) as usize + 1).min(slots);
            let far = &self.far[(i - 1) * self.ties..][..self.ties];
            for e in bucket {
                let head = far[usize::from(self.key[e])] as usize;
                let row = &self.images[e * self.stride..][..head];
                // No early exit: the rows are short, and a branch per
                // image costs more than the images left to read.
                total += row.iter().fold(true, |ok, &img| ok & inside(img)) as u64;
            }
        }
        total
    }

    /// [`Self::count`] for the focal node whose BFS at radius
    /// `k_max ≥ k` is in `scratch`, with its frontier in `visited`.
    pub(crate) fn count_focal(&self, scratch: &BfsScratch, visited: &[NodeId], k_max: u32) -> u64 {
        let k = self.k;
        let dist = |n: NodeId| scratch.distance(n);
        if k >= k_max {
            return self.count(visited.iter().copied(), dist, |img| scratch.visited(img));
        }
        // The frontier is in nondecreasing distance order, so the ball is
        // a prefix of it; "visited" proves containment only at k_max, so
        // an image's own distance is re-checked.
        let ball = &visited[..visited.partition_point(|&n| dist(n) <= k)];
        self.count(ball.iter().copied(), dist, |img| {
            scratch.visited(img) && dist(img) <= k
        })
    }
}

/// Run ND-PVOT over precomputed global matches on `threads` workers,
/// with traversal-cost instrumentation: the sweep of one plan.
pub(crate) fn run(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    let plans = [PivotPlan::new(g, spec, matches)?];
    let focal = spec.focal();
    let (mut counts, tstats) = sweep(
        g,
        &focal.nodes(g),
        &focal.mask(g),
        spec.k(),
        &plans,
        threads,
    );
    Ok((counts.pop().expect("one plan"), tstats))
}

/// One bounded BFS at `k_max` per focal node, from which every plan
/// counts at its own radius (each at most `k_max`); the focal nodes are
/// split over `threads` workers. Returns one count vector per plan.
pub(crate) fn sweep(
    g: &Graph,
    focal: &[NodeId],
    mask: &[bool],
    k_max: u32,
    plans: &[PivotPlan],
    threads: usize,
) -> (Vec<CountVector>, TraversalStats) {
    let shard = |shard: &[NodeId]| {
        let mut counts: Vec<CountVector> = plans
            .iter()
            .map(|_| CountVector::new(g.num_nodes(), mask.to_vec()))
            .collect();
        let mut scratch = BfsScratch::new(g.num_nodes());
        let mut visited = Vec::new();
        for &n in shard {
            visited.clear();
            scratch.bounded_bfs(g, n, k_max, &mut visited);
            for (cv, plan) in counts.iter_mut().zip(plans) {
                cv.set(n, plan.count_focal(&scratch, &visited, k_max));
            }
        }
        let tstats = TraversalStats {
            edges_traversed: scratch.edges_scanned(),
            nodes_expanded: shard.len() as u64,
            ..TraversalStats::default()
        };
        (counts, tstats)
    };
    fan_out(
        focal,
        workers_for(focal.len(), threads),
        shard,
        add_censuses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FocalNodes;
    use crate::{exec_matches, nd_bas};
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

    fn run_spec(g: &Graph, spec: &CensusSpec<'_>) -> CountVector {
        let m = exec_matches(g, spec.pattern(), 1);
        run(g, spec, &m, 1).unwrap().0
    }

    #[test]
    fn agrees_with_nd_bas_on_triangles() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        for k in 0..4 {
            let spec = CensusSpec::single(&p, k);
            let fast = run_spec(&g, &spec);
            let (slow, _) = nd_bas::run(&g, &spec).unwrap();
            for n in g.node_ids() {
                assert_eq!(fast.get(n), slow.get(n), "k={k} node={n:?}");
            }
        }
    }

    #[test]
    fn match_index_buckets() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let idx = MatchIndex::build(
            g.num_nodes(),
            m.matches()
                .iter()
                .enumerate()
                .map(|(i, mt)| (mt.image(PNode(0)), i as u32)),
        );
        let total: usize = g.node_ids().map(|n| idx.get(n).len()).sum();
        assert_eq!(total, m.len());
        for n in g.node_ids() {
            assert!(idx
                .get(n)
                .iter()
                .all(|&i| m[i as usize].image(PNode(0)) == n));
        }
    }

    #[test]
    fn matches_are_keyed_off_the_hub() {
        // A fan: hub 0 closes a triangle with each pair (2i + 1, 2i + 2).
        // Every canonical triangle puts its pivot image on the hub; all
        // three nodes are tied pivots, so each match is keyed at a
        // degree-2 rim node instead and the hub's bucket stays empty.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(13, Label(0));
        for i in 0..6u32 {
            let (x, y) = (NodeId(2 * i + 1), NodeId(2 * i + 2));
            b.add_edge(NodeId(0), x);
            b.add_edge(NodeId(0), y);
            b.add_edge(x, y);
        }
        let g = b.build();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        assert_eq!(m.len(), 6);
        let spec = CensusSpec::single(&p, 1);
        let plan = PivotPlan::new(&g, &spec, &m).unwrap();
        assert!(m.iter().all(|mt| mt.image(plan.pivot()) == NodeId(0)));
        assert!(plan.index.get(NodeId(0)).is_empty());
        let keyed: usize = g.node_ids().map(|n| plan.index.get(n).len()).sum();
        assert_eq!(keyed, m.len());
        for k in 0..3 {
            let spec = CensusSpec::single(&p, k);
            let (slow, _) = nd_bas::run(&g, &spec).unwrap();
            assert_eq!(run_spec(&g, &spec), slow, "k={k}");
        }
    }

    #[test]
    fn subpattern_census_k0() {
        // Count triangles anchored at each node: COUNTSP with a single-node
        // subpattern and k = 0 counts the triangles the node participates in.
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN me {?A;} }").unwrap();
        let spec = CensusSpec::single(&p, 0).with_subpattern("me");
        let counts = run_spec(&g, &spec);
        // The subpattern pins ?A, so the automorphism group only swaps
        // B and C: each triangle yields 3 distinct matches, one per
        // choice of A-image. COUNTSP(me, t, SUBGRAPH(ID, 0)) therefore
        // counts exactly the triangles each node participates in.
        let want = [1u64, 1, 2, 1, 1, 0, 0];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(counts.get(NodeId(i as u32)), w, "node {i}");
        }
    }

    #[test]
    fn directed_subpattern_middle_node() {
        // Coordinator triads: 0->1->2 without 0->2.
        let mut b = GraphBuilder::directed();
        b.add_nodes(4, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let p = Pattern::parse("PATTERN triad { ?A->?B; ?B->?C; ?A!->?C; SUBPATTERN mid {?B;} }")
            .unwrap();
        let spec = CensusSpec::single(&p, 0).with_subpattern("mid");
        let counts = run_spec(&g, &spec);
        // Middle of 0->1->2 is 1; middle of 1->2->3 is 2.
        assert_eq!(counts.get(NodeId(0)), 0);
        assert_eq!(counts.get(NodeId(1)), 1);
        assert_eq!(counts.get(NodeId(2)), 1);
        assert_eq!(counts.get(NodeId(3)), 0);
    }

    #[test]
    fn focal_subset_only() {
        let g = fixture();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let spec =
            CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(vec![NodeId(5), NodeId(0)]));
        let counts = run_spec(&g, &spec);
        assert_eq!(counts.get(NodeId(5)), 2);
        assert_eq!(counts.get(NodeId(0)), 3); // edges 0-1, 0-2, 1-2
        assert!(!counts.is_focal(NodeId(2)));
    }

    #[test]
    fn large_k_counts_everything() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let spec = CensusSpec::single(&p, 10);
        let counts = run_spec(&g, &spec);
        for n in g.node_ids() {
            assert_eq!(counts.get(n), 2, "node {n:?}");
        }
    }

    #[test]
    fn disconnected_pattern_anchor_checks() {
        // Pattern: edge + isolated node. The isolated node's image can be
        // anywhere; containment needs the explicit check path.
        let g = fixture();
        let p = Pattern::parse("PATTERN p { ?A-?B; ?C; }").unwrap();
        let spec = CensusSpec::single(&p, 1);
        let fast = run_spec(&g, &spec);
        let (slow, _) = nd_bas::run(&g, &spec).unwrap();
        for n in g.node_ids() {
            assert_eq!(fast.get(n), slow.get(n), "node {n:?}");
        }
    }
}
