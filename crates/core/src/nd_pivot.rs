//! ND-PVOT: pivot indexing (Section IV-A1, Algorithm 2).
//!
//! 1. Find all matches `M` once, globally.
//! 2. Pick the pattern's *pivot* `v` (minimum eccentricity; for COUNTSP,
//!    drawn from the subpattern nodes) and index `M` by the image of `v`
//!    — the pattern match index `PMI_v`.
//! 3. For each focal node `n`, BFS to depth `k`. For every visited node
//!    `n'` at distance `d`, the matches in `PMI_v(n')` are candidates:
//!    * if `d + max_v ≤ k`, **every** such match is fully contained in
//!      `S(n, k)` (pattern distances upper-bound graph distances) — add
//!      `|PMI_v(n')|` without looking at the matches;
//!    * otherwise only anchor nodes at pattern distance `> k - d` from
//!      the pivot can stick out — check just those (`distant[k-d+1]`).
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
use ego_graph::{FastHashMap, Graph, NodeId};
use ego_matcher::MatchList;
use ego_pattern::analysis::{PatternAnalysis, UNREACHABLE};
use ego_pattern::{PNode, Pattern};

/// The pattern match index: match indices keyed by the pivot's image.
pub struct PivotIndex {
    map: FastHashMap<u32, Vec<u32>>,
    pivot: PNode,
}

impl PivotIndex {
    /// Index `matches` by the image of `pivot`.
    pub fn build(matches: &MatchList, pivot: PNode) -> Self {
        let mut map: FastHashMap<u32, Vec<u32>> = FastHashMap::default();
        for (i, m) in matches.iter().enumerate() {
            map.entry(m.image(pivot).0).or_default().push(i as u32);
        }
        PivotIndex { map, pivot }
    }

    /// Matches whose pivot image is `n`.
    pub fn get(&self, n: NodeId) -> &[u32] {
        self.map.get(&n.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The pivot this index is keyed on.
    pub fn pivot(&self) -> PNode {
        self.pivot
    }
}

/// Algorithm 2's containment rule for one spec, set up once from the
/// spec's pattern, anchors and radius and its global matches.
pub(crate) struct PivotPlan<'m> {
    k: u32,
    matches: &'m MatchList,
    index: PivotIndex,
    /// The largest pattern distance from the pivot to an anchor. Taken
    /// over anchors only: non-anchor images may fall outside `S(n, k)`.
    max_v: u32,
    /// Some anchor is disconnected from the pivot, so no distance proves
    /// containment and every bucket takes the explicit check.
    has_unreachable: bool,
    /// `distant[i - 1]`: the anchors at pattern distance `≥ i` from the
    /// pivot, or disconnected from it, for `i` in `1..=max_v + 1` (the
    /// extra slot keeps `i = k - d + 1` in range when `d + max_v = k + 1`).
    distant: Vec<Vec<PNode>>,
}

impl<'m> PivotPlan<'m> {
    /// The plan for a single-node census spec.
    pub(crate) fn new(spec: &CensusSpec<'_>, matches: &'m MatchList) -> Result<Self, CensusError> {
        Ok(Self::for_anchors(
            spec.pattern(),
            &spec.anchor_nodes()?,
            spec.k(),
            matches,
        ))
    }

    /// The plan for `anchors` of `pattern` at radius `k`; the pivot is
    /// drawn from the anchors.
    pub(crate) fn for_anchors(
        pattern: &Pattern,
        anchors: &[PNode],
        k: u32,
        matches: &'m MatchList,
    ) -> Self {
        let analysis = PatternAnalysis::with_pivot_candidates(pattern, Some(anchors));
        let pivot = analysis.pivot();
        let dist = |a: PNode| analysis.distance(pivot, a);
        let has_unreachable = anchors.iter().any(|&a| dist(a) == UNREACHABLE);
        let max_v = anchors
            .iter()
            .map(|&a| dist(a))
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0);
        let distant = (1..=max_v.max(1) + 1)
            .map(|i| {
                let far = |&a: &PNode| dist(a) == UNREACHABLE || dist(a) >= i;
                anchors.iter().copied().filter(far).collect()
            })
            .collect();
        PivotPlan {
            k,
            matches,
            index: PivotIndex::build(matches, pivot),
            max_v,
            has_unreachable,
            distant,
        }
    }

    /// The pattern match index the plan counts from.
    pub(crate) fn index(&self) -> &PivotIndex {
        &self.index
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
        let mut total = 0u64;
        for np in ball {
            let bucket = self.index.get(np);
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
            // distance > k - d, i.e. >= k - d + 1. Clamping to the last
            // slot (max_v + 1) leaves exactly the disconnected anchors,
            // which must always be checked.
            let i = ((k - d) as usize + 1).min(self.distant.len());
            let to_check = &self.distant[i - 1];
            let contained = |&&mi: &&u32| {
                let m = &self.matches[mi as usize];
                to_check.iter().all(|&a| inside(m.image(a)))
            };
            total += bucket.iter().filter(contained).count() as u64;
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

/// Run ND-PVOT over precomputed global matches.
pub fn run(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
) -> Result<CountVector, CensusError> {
    run_threads(g, spec, matches, 1).map(|(cv, _)| cv)
}

/// [`run`] with traversal-cost instrumentation, over `threads` workers:
/// the sweep of one plan.
pub(crate) fn run_threads(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    let plans = [PivotPlan::new(spec, matches)?];
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
    plans: &[PivotPlan<'_>],
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
    use crate::{global_matches, nd_bas};
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
        let m = global_matches(g, spec.pattern());
        run(g, spec, &m).unwrap()
    }

    #[test]
    fn agrees_with_nd_bas_on_triangles() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        for k in 0..4 {
            let spec = CensusSpec::single(&p, k);
            let fast = run_spec(&g, &spec);
            let slow = nd_bas::run(&g, &spec).unwrap();
            for n in g.node_ids() {
                assert_eq!(fast.get(n), slow.get(n), "k={k} node={n:?}");
            }
        }
    }

    #[test]
    fn pivot_index_buckets() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = global_matches(&g, &p);
        let idx = PivotIndex::build(&m, PNode(0));
        let total: usize = g.node_ids().map(|n| idx.get(n).len()).sum();
        assert_eq!(total, m.len());
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
        let slow = nd_bas::run(&g, &spec).unwrap();
        for n in g.node_ids() {
            assert_eq!(fast.get(n), slow.get(n), "node {n:?}");
        }
    }
}
