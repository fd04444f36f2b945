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
//! * **PT-BAS / PT-RND / PT-OPT** — per the appendix: the single-node
//!   match-centric traversal (PT-OPT's cluster kernel, whose PMD rows
//!   hold every distance up to `k` exactly), then one crediting step per
//!   match. Intersection credits every pair in `N[M] × N[M]`. Union
//!   groups the participants by the *coverage* bit-vector of anchors
//!   within `k` — as many `u64` words as the match has anchors — and
//!   every pair of groups whose coverages together hold all anchors
//!   credits its node pairs. PT-BAS is the kernel with no centers and no
//!   clustering; PT-RND pops its queue at random.

use crate::cost::{refusal, Census};
use crate::nd_pivot::PivotPlan;
use crate::parallel::{pair_shards, ExecConfig};
use crate::pt_opt::{self, ClusterSink, PtContext, PtSlot, PtWorker};
use crate::result::{CensusError, CountVector};
use crate::spec::{Clustering, FocalNodes, PtConfig, PtOrdering};
use crate::tstats::TraversalStats;
use ego_graph::bfs::BfsScratch;
use ego_graph::subgraph::InducedSubgraph;
use ego_graph::{neighborhood, FastHashMap, FastHashSet, Graph, NodeId};
use ego_matcher::{find_matches, MatchList, MatcherKind};
use ego_pattern::analysis::PatternAnalysis;
use ego_pattern::{PNode, Pattern};

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
                let mut v = Vec::with_capacity(n as usize * (n as usize).saturating_sub(1) / 2);
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

/// Run `algorithm` over the global `matches` (ignored by ND-BAS) with
/// `threads` workers: the node-driven kernels over shards of the pair
/// list, the pattern-driven ones over chunks of their clusters.
pub(crate) fn run_with_matches(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    matches: &MatchList,
    algorithm: crate::Algorithm,
    config: &PtConfig,
    threads: usize,
) -> Result<PairCounts, CensusError> {
    use crate::Algorithm::*;
    let pt = |config: &PtConfig| run_pt(g, spec, matches, config, threads).map(|(c, _)| c);
    match algorithm {
        NdBaseline => pair_shards(g, spec, threads, |s| nd_bas_pairwise(g, s)),
        NdPivot | NdDiff => pair_shards(g, spec, threads, |s| nd_pivot_pairwise(g, s, matches)),
        // Pairwise census is not priced: `Auto` is PT-OPT unless the
        // refusal rule turns it away.
        Auto if refusal(g, Census::Pair(spec), PtOpt).is_err() => {
            run_with_matches(g, spec, matches, NdPivot, config, threads)
        }
        PtOpt | Auto => pt(config),
        PtBaseline => pt(&PtConfig {
            num_centers: 0,
            clustering: Clustering::None,
            ..config.clone()
        }),
        PtRandom => pt(&PtConfig {
            ordering: PtOrdering::Random,
            ..config.clone()
        }),
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
    let mut khop: FastHashMap<u32, Vec<(NodeId, u32)>> = FastHashMap::default();
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut buf = Vec::new();
    for &n in &participants {
        buf.clear();
        scratch.bounded_bfs(g, n, k, &mut buf);
        let mut list: Vec<(NodeId, u32)> = buf.iter().map(|&m| (m, scratch.distance(m))).collect();
        list.sort_unstable();
        khop.insert(n.0, list);
    }

    let mut counts = PairCounts::default();
    let mut combined: Vec<(NodeId, u32)> = Vec::new();
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
        let member: FastHashMap<u32, u32> = combined.iter().map(|&(n, d)| (n.0, d)).collect();
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
    la: &[(NodeId, u32)],
    lb: &[(NodeId, u32)],
    kind: PairKind,
    out: &mut Vec<(NodeId, u32)>,
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

/// Pattern-driven pairwise census: PT-OPT's set-up and cluster kernel,
/// with the selector's participants as the slot's mask and a
/// [`PairSink`] crediting pairs from the converged rows.
pub(crate) fn run_pt(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    matches: &MatchList,
    config: &PtConfig,
    threads: usize,
) -> Result<(PairCounts, TraversalStats), CensusError> {
    let participants = spec.selector().participants(g);
    let explicit: Option<FastHashSet<u64>> = match spec.selector() {
        PairSelector::Pairs(ps) => Some(ps.iter().map(|&(a, b)| pair_key(a, b)).collect()),
        _ => None,
    };
    let slot = PtSlot {
        spec: 0,
        anchors: spec.anchor_nodes()?,
        analysis: PatternAnalysis::new(spec.pattern()),
        matches,
        mask: FocalNodes::Set(participants.clone()).mask(g),
    };
    let sink = |_: &[PtSlot<'_>]| PairSink {
        kind: spec.kind(),
        participants: &participants,
        explicit: explicit.as_ref(),
        counts: PairCounts::default(),
    };
    let (sink, tstats) = pt_opt::run_slot(g, spec.k(), slot, config, threads, sink)?;
    Ok((sink.counts, tstats))
}

/// Credits the selected pairs of each item of a converged cluster.
struct PairSink<'s> {
    kind: PairKind,
    participants: &'s [NodeId],
    /// The keys of an explicit [`PairSelector::Pairs`] list.
    explicit: Option<&'s FastHashSet<u64>>,
    counts: PairCounts,
}

impl ClusterSink for PairSink<'_> {
    /// Per item, every participant's coverage: the bit-vector of the
    /// item's anchors within k, `words` to a participant. Intersection
    /// keeps the full ones, union every non-empty one; the kept are
    /// grouped by coverage, and every pair of groups whose coverages
    /// together hold all anchors credits its node pairs. Union also pairs
    /// each full group with group 0, the participants within k of no
    /// anchor, which is built only then.
    fn credit(&mut self, ctx: &PtContext<'_>, _group: &[u32], pmd: &PtWorker) {
        let (k, mask) = (ctx.k, &ctx.slots[0].mask);
        let na = ctx.slots[0].anchors.len();
        let words = na.div_ceil(64);
        let full = |a: &[u64], b: &[u64]| {
            (0..words).all(|w| a[w] | b[w] == u64::MAX >> (64 * (w + 1)).saturating_sub(na))
        };
        let (mut members, mut cover) = (Vec::new(), Vec::new());
        for cols in pmd.positions.chunks_exact(na) {
            members.clear();
            cover.clear();
            for (s, &n) in pmd.nodes.iter().enumerate() {
                if !mask[n as usize] {
                    continue;
                }
                let (row, at) = (pmd.row(s), cover.len());
                cover.resize(at + words, 0);
                for (i, &c) in cols.iter().enumerate() {
                    cover[at + i / 64] |= u64::from(row[c as usize] as u32 <= k) << (i % 64);
                }
                let c = &cover[at..];
                match self.kind {
                    PairKind::Intersection if full(c, c) => members.push(NodeId(n)),
                    PairKind::Union if c.iter().any(|&w| w != 0) => members.push(NodeId(n)),
                    _ => cover.truncate(at),
                }
            }
            let key = |i: usize| &cover[i * words..][..words];
            let mut order: Vec<usize> = (0..members.len()).collect();
            order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
            let groups: Vec<(&[u64], Vec<NodeId>)> = order
                .chunk_by(|&a, &b| key(a) == key(b))
                .map(|run| (key(run[0]), run.iter().map(|&i| members[i]).collect()))
                .collect();
            for (a, (ka, ga)) in groups.iter().enumerate() {
                for (kb, gb) in &groups[a + 1..] {
                    if full(ka, kb) {
                        self.across(ga, gb);
                    }
                }
                if full(ka, ka) {
                    for (i, &x) in ga.iter().enumerate() {
                        self.across(&[x], &ga[i + 1..]);
                    }
                    if self.kind == PairKind::Union {
                        let mut covered = members.clone();
                        covered.sort_unstable();
                        let zero: Vec<NodeId> = self
                            .participants
                            .iter()
                            .filter(|p| covered.binary_search(p).is_err())
                            .copied()
                            .collect();
                        self.across(ga, &zero);
                    }
                }
            }
        }
    }

    fn merge(&mut self, next: Self) {
        self.counts.merge_add(&next.counts);
    }
}

impl PairSink<'_> {
    /// Credit every selected pair of `xs × ys` (disjoint node lists).
    fn across(&mut self, xs: &[NodeId], ys: &[NodeId]) {
        for &a in xs {
            for &b in ys {
                if self
                    .explicit
                    .is_none_or(|set| set.contains(&pair_key(a, b)))
                {
                    self.counts.add(a, b, 1);
                }
            }
        }
    }
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
        for (g, pat_text) in [
            (fixture(), "PATTERN n { ?A; }"),
            (fixture(), "PATTERN e { ?A-?B; }"),
            (fixture(), "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }"),
            (GraphBuilder::undirected().build(), "PATTERN n { ?A; }"),
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
                        Algorithm::PtRandom,
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

    /// A path whose pattern is the whole path: one match with `n`
    /// anchors, more than one `u64` of union coverage past 64 (checked
    /// against ND-PVOT there: matching a 70-node path per pair is slow).
    #[test]
    fn pattern_driven_census_has_no_anchor_cap() {
        for n in [33u32, 70] {
            let mut b = GraphBuilder::undirected();
            b.add_nodes(n as usize, Label(0));
            for i in 0..n - 1 {
                b.add_edge(NodeId(i), NodeId(i + 1));
            }
            let g = b.build();
            let edges: String = (0..n - 1).map(|i| format!("?V{i}-?V{}; ", i + 1)).collect();
            let p = Pattern::parse(&format!("PATTERN path {{ {edges}}}")).unwrap();
            for k in [n / 2 + 2, n + 7] {
                for spec in [
                    PairCensusSpec::intersection(&p, k, PairSelector::AllPairs),
                    PairCensusSpec::union(&p, k, PairSelector::AllPairs),
                ] {
                    let pairs = spec.selector().pairs(&g);
                    let nd = run_pair_census(&g, &spec, Algorithm::NdPivot).unwrap();
                    let want: Vec<u64> = pairs
                        .iter()
                        .map(|&(a, b)| match n {
                            33 => brute_force_pair(&g, &p, k, spec.kind(), a, b),
                            _ => nd.get(a, b),
                        })
                        .collect();
                    assert!(want.contains(&1) && (k > n || want.contains(&0)));
                    for algo in [Algorithm::PtBaseline, Algorithm::PtRandom, Algorithm::PtOpt] {
                        let counts = run_pair_census(&g, &spec, algo).unwrap();
                        let got: Vec<u64> = pairs.iter().map(|&(a, b)| counts.get(a, b)).collect();
                        assert_eq!(got, want, "n={n} k={k} {:?} {algo:?}", spec.kind());
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_pt_honours_its_ordering() {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(48, Label(0));
        for i in 0..48u32 {
            b.add_edge(NodeId(i), NodeId((i + 1) % 48));
            b.add_edge(NodeId(i), NodeId((i + 2) % 48));
        }
        let g = b.build();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = crate::global_matches(&g, &p);
        let spec = PairCensusSpec::union(&p, 2, PairSelector::AllPairs);
        let run = |ordering| {
            let config = PtConfig {
                ordering,
                ..PtConfig::default()
            };
            run_pt(&g, &spec, &m, &config, 1).unwrap()
        };
        let (opt, opt_stats) = run(PtOrdering::BestFirst);
        let (rnd, rnd_stats) = run(PtOrdering::Random);
        assert_ne!(opt_stats, rnd_stats);
        let sorted = |c: &PairCounts| {
            let mut v: Vec<_> = c.iter().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&opt), sorted(&rnd));
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

    /// Past `u16` radii the PT family is refused and `Auto` is ND-PVOT,
    /// whose distances must not wrap: the far triangle sits at distance
    /// 69 998 from node 0.
    #[test]
    fn nd_pivot_reads_distances_past_u16() {
        let n = 70_000u32;
        let mut b = GraphBuilder::undirected();
        b.add_nodes(n as usize, Label(0));
        for i in 0..n - 1 {
            b.add_edge(NodeId(i), NodeId(i + 1));
        }
        b.add_edge(NodeId(n - 3), NodeId(n - 1));
        let g = b.build();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        for k in [69_997u32, 69_998] {
            let pair = PairSelector::Pairs(vec![(NodeId(0), NodeId(1))]);
            let spec = PairCensusSpec::intersection(&p, k, pair);
            let want = brute_force_pair(&g, &p, k, PairKind::Intersection, NodeId(0), NodeId(1));
            assert_eq!(want, u64::from(k == 69_998));
            for algo in [Algorithm::NdPivot, Algorithm::Auto] {
                let counts = run_pair_census(&g, &spec, algo).unwrap();
                assert_eq!(counts.get(NodeId(0), NodeId(1)), want, "k={k} {algo:?}");
            }
        }
    }
}
