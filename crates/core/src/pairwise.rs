//! Pairwise census queries over `SUBGRAPH-INTERSECTION` and
//! `SUBGRAPH-UNION` neighborhoods (Section II + Appendix B).
//!
//! A pairwise query counts, for pairs of nodes `(n1, n2)`, the matches
//! contained in `N_k(n1) ∩ N_k(n2)` (intersection) or `N_k(n1) ∪ N_k(n2)`
//! (union). Used for link prediction and entity resolution; the paper's
//! DBLP experiment (Fig 4(h)) is nine such queries.
//!
//! Algorithms (mirroring the single-node suite):
//! * **ND-BAS** — extract the intersection/union subgraph per pair, match
//!   inside it.
//! * **ND-PVOT** — per the appendix: the per-node BFS is replaced by
//!   per-pair combined distances `max(d1, d2)` (intersection) or
//!   `min(d1, d2)` (union); the pivot index and distance shortcuts apply
//!   unchanged. Per-node `k`-hop lists are computed once and merged per
//!   pair.
//! * **PT-BAS / PT-OPT** — per the appendix: after the match-centric
//!   traversal, a match is credited to every pair in `N[M] × N[M]` for
//!   intersection; for union, visited nodes are grouped by the *coverage
//!   mask* of anchors they reach, and mask pairs whose union covers all
//!   anchors contribute their node pairs.

use crate::centers::CenterIndex;
use crate::cost::{refusal, Census};
use crate::nd_pivot::PivotPlan;
use crate::parallel::ExecConfig;
use crate::result::{CensusError, CountVector};
use crate::spec::{FocalNodes, PtConfig};
use ego_graph::bfs::BfsScratch;
use ego_graph::subgraph::InducedSubgraph;
use ego_graph::{neighborhood, FastHashMap, FastHashSet, Graph, NodeId};
use ego_matcher::{find_matches, MatchList, MatcherKind};
use ego_pattern::{PNode, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Intersection or union semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairKind {
    /// `SUBGRAPH-INTERSECTION(n1, n2, k)`.
    Intersection,
    /// `SUBGRAPH-UNION(n1, n2, k)`.
    Union,
}

/// Which pairs to census.
#[derive(Clone, Debug)]
pub enum PairSelector {
    /// Every unordered pair of distinct nodes (`n1.ID > n2.ID` in SQL).
    AllPairs,
    /// Every unordered pair within a node subset.
    Among(Vec<NodeId>),
    /// An explicit list of pairs (normalized to unordered).
    Pairs(Vec<(NodeId, NodeId)>),
}

impl PairSelector {
    /// Enumerate the selected pairs, normalized `(lo, hi)`, deduplicated.
    pub fn pairs(&self, g: &Graph) -> Vec<(NodeId, NodeId)> {
        let mut out = match self {
            PairSelector::AllPairs => {
                let n = g.num_nodes() as u32;
                let mut v = Vec::with_capacity((n as usize * (n as usize - 1)) / 2);
                for a in 0..n {
                    for b in (a + 1)..n {
                        v.push((NodeId(a), NodeId(b)));
                    }
                }
                v
            }
            PairSelector::Among(nodes) => {
                let mut ns = nodes.clone();
                ns.sort_unstable();
                ns.dedup();
                let mut v = Vec::new();
                for i in 0..ns.len() {
                    for j in (i + 1)..ns.len() {
                        v.push((ns[i], ns[j]));
                    }
                }
                v
            }
            PairSelector::Pairs(ps) => ps
                .iter()
                .filter(|(a, b)| a != b)
                .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
                .collect(),
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The set of nodes participating in any selected pair.
    pub fn participants(&self, g: &Graph) -> Vec<NodeId> {
        match self {
            PairSelector::AllPairs => g.node_ids().collect(),
            PairSelector::Among(nodes) => {
                let mut v = nodes.clone();
                v.sort_unstable();
                v.dedup();
                v
            }
            PairSelector::Pairs(ps) => {
                let mut v: Vec<NodeId> = ps.iter().flat_map(|&(a, b)| [a, b]).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }
}

/// A pairwise census query.
#[derive(Clone, Debug)]
pub struct PairCensusSpec<'a> {
    pattern: &'a Pattern,
    k: u32,
    kind: PairKind,
    selector: PairSelector,
    subpattern: Option<String>,
}

impl<'a> PairCensusSpec<'a> {
    /// `COUNTP(pattern, SUBGRAPH-INTERSECTION(n1, n2, k))`.
    pub fn intersection(pattern: &'a Pattern, k: u32, selector: PairSelector) -> Self {
        PairCensusSpec {
            pattern,
            k,
            kind: PairKind::Intersection,
            selector,
            subpattern: None,
        }
    }

    /// `COUNTP(pattern, SUBGRAPH-UNION(n1, n2, k))`.
    pub fn union(pattern: &'a Pattern, k: u32, selector: PairSelector) -> Self {
        PairCensusSpec {
            pattern,
            k,
            kind: PairKind::Union,
            selector,
            subpattern: None,
        }
    }

    /// The pattern.
    pub fn pattern(&self) -> &'a Pattern {
        self.pattern
    }

    /// Radius.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Intersection or union.
    pub fn kind(&self) -> PairKind {
        self.kind
    }

    /// Pair selection.
    pub fn selector(&self) -> &PairSelector {
        &self.selector
    }

    /// Replace the pair selection (used by the parallel layer to restrict
    /// a clone of the spec to one shard of pairs).
    pub fn with_selector(mut self, selector: PairSelector) -> Self {
        self.selector = selector;
        self
    }

    /// `COUNTSP` over pairwise neighborhoods: only the named subpattern's
    /// images must fall inside the intersection/union.
    pub fn with_subpattern(mut self, name: &str) -> Self {
        self.subpattern = Some(name.to_string());
        self
    }

    /// The subpattern name, if any.
    pub fn subpattern_name(&self) -> Option<&str> {
        self.subpattern.as_deref()
    }

    /// Anchor pattern nodes (subpattern members, or all nodes).
    pub fn anchor_nodes(&self) -> Result<Vec<PNode>, CensusError> {
        match &self.subpattern {
            None => Ok(self.pattern.nodes().collect()),
            Some(name) => self
                .pattern
                .subpattern(name)
                .map(|sp| sp.nodes.clone())
                .ok_or_else(|| CensusError::UnknownSubpattern(name.clone())),
        }
    }
}

/// Per-pair counts, keyed by the normalized pair.
#[derive(Clone, Debug, Default)]
pub struct PairCounts {
    map: FastHashMap<u64, u64>,
}

fn pair_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo.0 as u64) << 32) | hi.0 as u64
}

impl PairCounts {
    /// The count for `(a, b)` (order-insensitive, 0 if never incremented).
    pub fn get(&self, a: NodeId, b: NodeId) -> u64 {
        self.map.get(&pair_key(a, b)).copied().unwrap_or(0)
    }

    /// Add `delta` to the pair's count.
    pub fn add(&mut self, a: NodeId, b: NodeId, delta: u64) {
        *self.map.entry(pair_key(a, b)).or_insert(0) += delta;
    }

    /// Number of pairs with nonzero counts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no pair has a count.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate `(a, b, count)` with `a < b`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.map.iter().map(|(&key, &c)| {
            (
                NodeId((key >> 32) as u32),
                NodeId((key & 0xFFFF_FFFF) as u32),
                c,
            )
        })
    }

    /// Add every count of `other` into `self`. Pair shards are disjoint,
    /// so the parallel merge is a plain additive union of the maps.
    pub fn merge_add(&mut self, other: &PairCounts) {
        for (&key, &c) in &other.map {
            *self.map.entry(key).or_insert(0) += c;
        }
    }

    /// The `k` highest-count pairs (ties by pair order).
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, NodeId, u64)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_by_key(|&(a, b, c)| (std::cmp::Reverse(c), a, b));
        v.truncate(k);
        v
    }
}

/// Run a pairwise census query.
pub fn run_pair_census(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    algorithm: crate::Algorithm,
) -> Result<PairCounts, CensusError> {
    run_pair_census_with(g, spec, algorithm, &PtConfig::default())
}

/// [`run_pair_census`] with explicit pattern-driven tuning: the
/// single-threaded case of [`crate::run_pair_census_exec`].
pub fn run_pair_census_with(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    algorithm: crate::Algorithm,
    config: &PtConfig,
) -> Result<PairCounts, CensusError> {
    crate::run_pair_census_exec(g, spec, algorithm, config, &ExecConfig::sequential())
}

/// Run `algorithm` over the global `matches` (ignored by ND-BAS).
pub(crate) fn run_with_matches(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    matches: &MatchList,
    algorithm: crate::Algorithm,
    config: &PtConfig,
) -> Result<PairCounts, CensusError> {
    use crate::Algorithm::*;
    match algorithm {
        NdBaseline => nd_bas_pairwise(g, spec),
        NdPivot | NdDiff => nd_pivot_pairwise(g, spec, matches),
        PtBaseline => pt_pairwise(
            g,
            spec,
            matches,
            &PtConfig {
                num_centers: 0,
                clustering: crate::spec::Clustering::None,
                ..config.clone()
            },
        ),
        // Pairwise census is not priced: `Auto` is PT-OPT unless the
        // refusal rule turns it away.
        Auto if refusal(g, Census::Pair(spec), PtOpt).is_err() => {
            nd_pivot_pairwise(g, spec, matches)
        }
        PtOpt | Auto => pt_pairwise(g, spec, matches, config),
        PtRandom => pt_pairwise(
            g,
            spec,
            matches,
            &PtConfig {
                ordering: crate::spec::PtOrdering::Random,
                ..config.clone()
            },
        ),
    }
}

/// ND-BAS, pairwise: extract each pair's neighborhood subgraph and match.
fn nd_bas_pairwise(g: &Graph, spec: &PairCensusSpec<'_>) -> Result<PairCounts, CensusError> {
    check_nd_bas(spec)?;
    let p = spec.pattern();
    let mut counts = PairCounts::default();
    let mut scratch = BfsScratch::new(g.num_nodes());
    for (a, b) in spec.selector().pairs(g) {
        let nodes = match spec.kind() {
            PairKind::Intersection => {
                neighborhood::khop_intersection(g, &mut scratch, a, b, spec.k())
            }
            PairKind::Union => neighborhood::khop_union(g, &mut scratch, a, b, spec.k()),
        };
        if nodes.len() < p.num_nodes() {
            continue;
        }
        let sub = InducedSubgraph::extract(g, &nodes);
        let m = find_matches(&sub.graph, p, MatcherKind::CandidateNeighbors);
        if !m.is_empty() {
            counts.add(a, b, m.len() as u64);
        }
    }
    Ok(counts)
}

/// ND-PVOT, pairwise (Appendix B): per-node k-hop lists computed once,
/// combined per pair with max/min distances, and counted by the same
/// `PivotPlan` as a single-node ball.
fn nd_pivot_pairwise(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    matches: &MatchList,
) -> Result<PairCounts, CensusError> {
    let k = spec.k();
    let plan = PivotPlan::for_anchors(spec.pattern(), &spec.anchor_nodes()?, k, matches);

    // Per participant: sorted (node, dist) k-hop list.
    let participants = spec.selector().participants(g);
    let mut khop: FastHashMap<u32, Vec<(NodeId, u16)>> = FastHashMap::default();
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut buf = Vec::new();
    for &n in &participants {
        buf.clear();
        scratch.bounded_bfs(g, n, k, &mut buf);
        let mut list: Vec<(NodeId, u16)> = buf
            .iter()
            .map(|&m| (m, scratch.distance(m) as u16))
            .collect();
        list.sort_unstable();
        khop.insert(n.0, list);
    }

    let mut counts = PairCounts::default();
    let mut combined: Vec<(NodeId, u16)> = Vec::new();
    for (a, b) in spec.selector().pairs(g) {
        let la = &khop[&a.0];
        let lb = &khop[&b.0];
        combined.clear();
        merge_pair(la, lb, spec.kind(), &mut combined);
        if combined.is_empty() {
            continue;
        }
        // Membership in the combined set is exact containment for both
        // kinds: within k of both balls, or of either.
        let member: FastHashMap<u32, u32> =
            combined.iter().map(|&(n, d)| (n.0, d as u32)).collect();
        let ball = combined.iter().map(|&(n, _)| n);
        let total = plan.count(ball, |n| member[&n.0], |img| member.contains_key(&img.0));
        if total > 0 {
            counts.add(a, b, total);
        }
    }
    Ok(counts)
}

/// Merge two sorted (node, dist) lists under intersection (max) or union
/// (min) distance semantics.
fn merge_pair(
    la: &[(NodeId, u16)],
    lb: &[(NodeId, u16)],
    kind: PairKind,
    out: &mut Vec<(NodeId, u16)>,
) {
    let (mut i, mut j) = (0, 0);
    match kind {
        PairKind::Intersection => {
            while i < la.len() && j < lb.len() {
                match la[i].0.cmp(&lb[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        out.push((la[i].0, la[i].1.max(lb[j].1)));
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        PairKind::Union => {
            while i < la.len() || j < lb.len() {
                if j >= lb.len() || (i < la.len() && la[i].0 < lb[j].0) {
                    out.push(la[i]);
                    i += 1;
                } else if i >= la.len() || lb[j].0 < la[i].0 {
                    out.push(lb[j]);
                    j += 1;
                } else {
                    out.push((la[i].0, la[i].1.min(lb[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// The specs the pairwise baseline refuses.
pub(crate) fn check_nd_bas(spec: &PairCensusSpec<'_>) -> Result<(), CensusError> {
    let p = spec.pattern();
    if spec.subpattern_name().is_some() {
        return Err(CensusError::Unsupported(
            "pairwise ND-BAS cannot evaluate COUNTSP; use ND-PVOT or PT".into(),
        ));
    }
    if !p.node_predicates().is_empty() || !p.edge_predicates().is_empty() {
        return Err(CensusError::Unsupported(
            "pairwise ND-BAS supports structural/label patterns only".into(),
        ));
    }
    Ok(())
}

/// The pattern-driven pairwise census tracks a match's anchors in 32-bit
/// coverage masks.
pub(crate) fn check_anchors(spec: &PairCensusSpec<'_>) -> Result<(), CensusError> {
    match spec.anchor_nodes()?.len() {
        n if n > 32 => Err(CensusError::Unsupported(format!(
            "the pattern-driven pairwise census tracks at most 32 anchors \
             per match in its coverage masks, this query has {n}; use ND-PVOT"
        ))),
        _ => Ok(()),
    }
}

/// Pattern-driven pairwise evaluation: run the single-node PT machinery to
/// get per-node anchor distances, then credit pairs.
fn pt_pairwise(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    matches: &MatchList,
    config: &PtConfig,
) -> Result<PairCounts, CensusError> {
    check_anchors(spec)?;
    let k = spec.k();
    let anchors: Vec<PNode> = spec.anchor_nodes()?;
    let mut counts = PairCounts::default();
    if matches.is_empty() {
        return Ok(counts);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let centers = if config.num_centers > 0 {
        CenterIndex::build(g, config.num_centers, config.center_strategy, &mut rng)
    } else {
        CenterIndex::empty()
    };
    let groups = crate::clustering::cluster_matches(
        matches,
        &centers,
        config.clustering,
        config.max_auto_clusters,
        config.kmeans_iters,
        &mut rng,
    );

    // Allowed participants & explicit pair restriction.
    let allowed: FastHashSet<u32> = spec
        .selector()
        .participants(g)
        .iter()
        .map(|n| n.0)
        .collect();
    let explicit_pairs: Option<FastHashSet<u64>> = match spec.selector() {
        PairSelector::Pairs(ps) => Some(ps.iter().map(|&(a, b)| pair_key(a, b)).collect()),
        _ => None,
    };
    let pair_ok = |a: NodeId, b: NodeId| -> bool {
        match &explicit_pairs {
            Some(set) => set.contains(&pair_key(a, b)),
            None => true,
        }
    };

    // Reuse the single-node PT-OPT counting by running its traversal per
    // cluster via the CensusSpec plumbing is not possible (it aggregates);
    // instead run a local traversal per match group.
    let full_mask: u32 = if anchors.len() == 32 {
        u32::MAX
    } else {
        (1u32 << anchors.len()) - 1
    };

    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut buf = Vec::new();
    for group in &groups {
        // Shared traversal within the cluster: matches grouped by the
        // K-means step overlap heavily, so each distinct anchor image is
        // BFSed once for the whole group instead of once per match —
        // this is where clustering pays off for pairwise queries.
        let mut ball_cache: FastHashMap<u32, Vec<NodeId>> = FastHashMap::default();
        for &mi in group {
            let m = &matches[mi as usize];
            for &a in &anchors {
                let img = m.image(a);
                if let std::collections::hash_map::Entry::Vacant(vac) = ball_cache.entry(img.0) {
                    buf.clear();
                    scratch.bounded_bfs(g, img, k, &mut buf);
                    let mut ball: Vec<NodeId> = buf
                        .iter()
                        .copied()
                        .filter(|n| allowed.contains(&n.0))
                        .collect();
                    ball.sort_unstable();
                    vac.insert(ball);
                }
            }
        }
        for &mi in group {
            let m = &matches[mi as usize];
            match spec.kind() {
                PairKind::Intersection => {
                    // Chain of sorted intersections over the anchor balls —
                    // no per-node hashing needed for this kind.
                    let mut balls: Vec<&[NodeId]> = anchors
                        .iter()
                        .map(|&a| ball_cache[&m.image(a).0].as_slice())
                        .collect();
                    // Anchor images within a match are distinct, so the
                    // balls are distinct; start from the smallest.
                    balls.sort_by_key(|b| b.len());
                    let mut full: Vec<NodeId> = balls[0].to_vec();
                    let mut tmp: Vec<NodeId> = Vec::new();
                    let mut sstats = ego_graph::setops::SetOpStats::default();
                    for b in &balls[1..] {
                        if full.is_empty() {
                            break;
                        }
                        ego_graph::setops::intersect_into(&full, b, &mut tmp, &mut sstats);
                        std::mem::swap(&mut full, &mut tmp);
                    }
                    for i in 0..full.len() {
                        for j in (i + 1)..full.len() {
                            if pair_ok(full[i], full[j]) {
                                counts.add(full[i], full[j], 1);
                            }
                        }
                    }
                }
                PairKind::Union => {
                    let mut cover: FastHashMap<u32, u32> = FastHashMap::default();
                    for (ai, &a) in anchors.iter().enumerate() {
                        let img = m.image(a);
                        for &n in &ball_cache[&img.0] {
                            *cover.entry(n.0).or_insert(0) |= 1 << ai;
                        }
                    }
                    // Group nodes by coverage mask; pairs of masks whose
                    // union covers every anchor contribute. Nodes covering
                    // NO anchor still pair with full-coverage nodes (the
                    // other endpoint alone satisfies the union), so the
                    // implicit mask-0 group must be materialized.
                    let mut by_mask: FastHashMap<u32, Vec<NodeId>> = FastHashMap::default();
                    for (&n, &mask) in &cover {
                        by_mask.entry(mask).or_default().push(NodeId(n));
                    }
                    if by_mask.contains_key(&full_mask) && full_mask != 0 {
                        let zero_group: Vec<NodeId> = allowed
                            .iter()
                            .filter(|raw| !cover.contains_key(raw))
                            .map(|&raw| NodeId(raw))
                            .collect();
                        if !zero_group.is_empty() {
                            by_mask.entry(0).or_default().extend(zero_group);
                        }
                    }
                    let mut masks: Vec<u32> = by_mask.keys().copied().collect();
                    masks.sort_unstable();
                    for (i, &ma) in masks.iter().enumerate() {
                        for &mb in &masks[i..] {
                            if ma | mb != full_mask {
                                continue;
                            }
                            let ga = &by_mask[&ma];
                            if ma == mb {
                                for x in 0..ga.len() {
                                    for y in (x + 1)..ga.len() {
                                        if pair_ok(ga[x], ga[y]) {
                                            counts.add(ga[x], ga[y], 1);
                                        }
                                    }
                                }
                            } else {
                                let gb = &by_mask[&mb];
                                for &x in ga {
                                    for &y in gb {
                                        if x != y && pair_ok(x, y) {
                                            counts.add(x, y, 1);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(counts)
}

/// Convenience wrapper: the Jaccard coefficient of two nodes' 1-hop
/// neighborhoods, expressible as two census queries (node-pattern counts
/// over intersection and union), computed directly (Section I notes this
/// equivalence).
pub fn jaccard(g: &Graph, a: NodeId, b: NodeId) -> f64 {
    let na = g.neighbors(a);
    let nb = g.neighbors(b);
    let inter = neighborhood::intersect_sorted(na, nb).len();
    let uni = na.len() + nb.len() - inter;
    if uni == 0 {
        0.0
    } else {
        inter as f64 / uni as f64
    }
}

/// Single-node-census view of a pairwise result: fix `a` and produce the
/// counts of `(a, x)` for all `x` as a [`CountVector`] (useful for tests).
pub fn slice_for(g: &Graph, counts: &PairCounts, a: NodeId) -> CountVector {
    let spec_mask = FocalNodes::All.mask(g);
    let mut cv = CountVector::new(g.num_nodes(), spec_mask);
    for n in g.node_ids() {
        if n != a {
            cv.set(n, counts.get(a, n));
        }
    }
    cv
}

/// Validation helper shared by tests: a CensusSpec whose neighborhood is
/// the pair's intersection/union — evaluated by brute force (used as the
/// differential-testing oracle for the fast paths).
pub fn brute_force_pair(
    g: &Graph,
    p: &Pattern,
    k: u32,
    kind: PairKind,
    a: NodeId,
    b: NodeId,
) -> u64 {
    brute_force_pair_anchored(g, p, k, kind, a, b, &p.nodes().collect::<Vec<_>>())
}

/// [`brute_force_pair`] restricted to subpattern anchors.
pub fn brute_force_pair_anchored(
    g: &Graph,
    p: &Pattern,
    k: u32,
    kind: PairKind,
    a: NodeId,
    b: NodeId,
    anchors: &[PNode],
) -> u64 {
    let mut scratch = BfsScratch::new(g.num_nodes());
    let nodes = match kind {
        PairKind::Intersection => neighborhood::khop_intersection(g, &mut scratch, a, b, k),
        PairKind::Union => neighborhood::khop_union(g, &mut scratch, a, b, k),
    };
    let member: FastHashSet<u32> = nodes.iter().map(|n| n.0).collect();
    let matches = find_matches(g, p, MatcherKind::CandidateNeighbors);
    matches
        .iter()
        .filter(|m| anchors.iter().all(|&v| member.contains(&m.image(v).0)))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use ego_graph::{GraphBuilder, Label};

    /// Two triangles sharing node 2 plus chain 4-5-6.
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
    fn all_algorithms_agree_with_brute_force() {
        let g = fixture();
        for pat_text in [
            "PATTERN n { ?A; }",
            "PATTERN e { ?A-?B; }",
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
        ] {
            let p = Pattern::parse(pat_text).unwrap();
            for kind in [PairKind::Intersection, PairKind::Union] {
                for k in 1..3u32 {
                    let spec = match kind {
                        PairKind::Intersection => {
                            PairCensusSpec::intersection(&p, k, PairSelector::AllPairs)
                        }
                        PairKind::Union => PairCensusSpec::union(&p, k, PairSelector::AllPairs),
                    };
                    for algo in [
                        Algorithm::NdBaseline,
                        Algorithm::NdPivot,
                        Algorithm::PtBaseline,
                        Algorithm::PtOpt,
                    ] {
                        let counts = run_pair_census(&g, &spec, algo).unwrap();
                        for a in g.node_ids() {
                            for b in g.node_ids() {
                                if b <= a {
                                    continue;
                                }
                                let want = brute_force_pair(&g, &p, k, kind, a, b);
                                assert_eq!(
                                    counts.get(a, b),
                                    want,
                                    "{pat_text} {kind:?} k={k} {algo:?} pair=({a},{b})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_pair_selector() {
        let g = fixture();
        let p = Pattern::parse("PATTERN n { ?A; }").unwrap();
        let spec = PairCensusSpec::intersection(
            &p,
            1,
            PairSelector::Pairs(vec![(NodeId(1), NodeId(3)), (NodeId(3), NodeId(1))]),
        );
        let counts = run_pair_census(&g, &spec, Algorithm::NdPivot).unwrap();
        // N_1(1) = {0,1,2}, N_1(3) = {2,3,4} -> intersection {2}.
        assert_eq!(counts.get(NodeId(1), NodeId(3)), 1);
        assert_eq!(counts.get(NodeId(3), NodeId(1)), 1);
        assert_eq!(counts.len(), 1); // dedup of the reversed pair
    }

    #[test]
    fn among_selector_counts_only_members() {
        let g = fixture();
        let p = Pattern::parse("PATTERN n { ?A; }").unwrap();
        let spec = PairCensusSpec::intersection(
            &p,
            1,
            PairSelector::Among(vec![NodeId(0), NodeId(1), NodeId(2)]),
        );
        let counts = run_pair_census(&g, &spec, Algorithm::PtOpt).unwrap();
        for (a, b, _) in counts.iter() {
            assert!(a.0 <= 2 && b.0 <= 2, "unexpected pair ({a},{b})");
        }
        assert!(counts.get(NodeId(0), NodeId(1)) > 0);
    }

    #[test]
    fn top_k_pairs() {
        let g = fixture();
        let p = Pattern::parse("PATTERN n { ?A; }").unwrap();
        let spec = PairCensusSpec::intersection(&p, 1, PairSelector::AllPairs);
        let counts = run_pair_census(&g, &spec, Algorithm::NdPivot).unwrap();
        let top = counts.top_k(3);
        assert_eq!(top.len(), 3);
        assert!(top[0].2 >= top[1].2 && top[1].2 >= top[2].2);
    }

    #[test]
    fn jaccard_values() {
        let g = fixture();
        // N(0) = {1,2}, N(4) = {2,3,5}: intersection {2}, union {1,2,3,5}.
        assert!((jaccard(&g, NodeId(0), NodeId(4)) - 0.25).abs() < 1e-12);
        assert_eq!(jaccard(&g, NodeId(6), NodeId(6)), 1.0);
        // Disconnected singleton vs anything.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(2, Label(0));
        let g2 = b.build();
        assert_eq!(jaccard(&g2, NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn pairwise_countsp_agrees_with_brute_force() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }").unwrap();
        let anchors = vec![p.node_by_name("A").unwrap()];
        for kind in [PairKind::Intersection, PairKind::Union] {
            let spec = match kind {
                PairKind::Intersection => {
                    PairCensusSpec::intersection(&p, 1, PairSelector::AllPairs)
                }
                PairKind::Union => PairCensusSpec::union(&p, 1, PairSelector::AllPairs),
            }
            .with_subpattern("one");
            for algo in [Algorithm::NdPivot, Algorithm::PtOpt, Algorithm::PtBaseline] {
                let counts = run_pair_census(&g, &spec, algo).unwrap();
                for a in g.node_ids() {
                    for b in g.node_ids() {
                        if b <= a {
                            continue;
                        }
                        let want = brute_force_pair_anchored(&g, &p, 1, kind, a, b, &anchors);
                        assert_eq!(counts.get(a, b), want, "{kind:?} {algo:?} pair=({a},{b})");
                    }
                }
            }
        }
        // ND-BAS rejects COUNTSP.
        let spec =
            PairCensusSpec::intersection(&p, 1, PairSelector::AllPairs).with_subpattern("one");
        assert!(run_pair_census(&g, &spec, Algorithm::NdBaseline).is_err());
        // Unknown subpattern rejected.
        let bad =
            PairCensusSpec::intersection(&p, 1, PairSelector::AllPairs).with_subpattern("nope");
        assert!(run_pair_census(&g, &bad, Algorithm::NdPivot).is_err());
    }

    #[test]
    fn union_counts_superset_of_intersection() {
        let g = fixture();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let si = PairCensusSpec::intersection(&p, 1, PairSelector::AllPairs);
        let su = PairCensusSpec::union(&p, 1, PairSelector::AllPairs);
        let ci = run_pair_census(&g, &si, Algorithm::NdPivot).unwrap();
        let cu = run_pair_census(&g, &su, Algorithm::NdPivot).unwrap();
        for a in g.node_ids() {
            for b in g.node_ids() {
                if b <= a {
                    continue;
                }
                assert!(cu.get(a, b) >= ci.get(a, b), "pair ({a},{b})");
            }
        }
    }
}
