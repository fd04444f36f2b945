//! PT-OPT: the optimized pattern-driven algorithm (Section IV-B,
//! Algorithm 4) with all five optimizations:
//!
//! 1. **Simultaneous traversal** — one relaxation-based expansion per
//!    cluster of matches maintains `PMD_m[n]`, an upper bound on
//!    `d(m, n)` for every anchor node `m`, instead of one BFS per anchor.
//! 2. **Distance shortcuts** — `PMD` between two anchors of the same
//!    match is initialized from the pattern distance
//!    `d(μ⁻¹(m), μ⁻¹(m'))`, which upper-bounds the graph distance.
//! 3. **Best-first ordering** — the node with minimum
//!    `score(n) = Σ_m PMD_m[n]` is expanded next, via the O(1)
//!    array-bucket queue (scores are bounded by `(k+1)·|anchors|`).
//! 4. **Center-based expansion** — precomputed center distances seed
//!    exact values for the centers and triangle-inequality bounds
//!    `min_c d(m,c) + d(c,n')` for first-touched nodes.
//! 5. **Pattern match clustering** — K-means over center-distance
//!    feature vectors groups overlapping matches into shared traversals.
//!
//! PMD lives in flat memory (`PtWorker`): one contiguous `u16` slab of
//! rows addressed through an n-sized node→slot array, the best score per
//! slot beside it, and a node-major center table ([`CenterIndex::row`])
//! for the first-touch bound. `PtWorker::process_cluster` is the only
//! relaxation loop in the crate; the batch engine pools several patterns
//! into the same call. It hands each converged cluster to a
//! `ClusterSink`: the single-node census counts focal nodes from the
//! PMD rows, the pairwise census credits node pairs from the same rows.

use crate::bucket_queue::BucketQueue;
use crate::centers::CenterIndex;
use crate::clustering::cluster_matches;
use crate::result::{CensusError, CountVector};
use crate::spec::{CensusSpec, PtConfig, PtOrdering};
use crate::tstats::TraversalStats;
use ego_graph::parallel::fan_out;
use ego_graph::{Graph, NodeId};
use ego_matcher::MatchList;
use ego_pattern::analysis::{PatternAnalysis, UNREACHABLE};
use ego_pattern::PNode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run PT-OPT (or PT-RND, via `config.ordering`) over precomputed
/// matches, with traversal-cost instrumentation (edge scans, node
/// expansions, queue reinsertions — the disk-I/O proxy metrics the
/// paper's optimizations target). The match groups are partitioned over
/// `threads` workers; the seeded plan (centers + clustering) is built
/// once, on the calling thread, consuming RNG state identically at every
/// thread count.
pub(crate) fn run(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    config: &PtConfig,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    let slot = PtSlot {
        spec: 0,
        anchors: spec.anchor_nodes()?,
        analysis: PatternAnalysis::new(spec.pattern()),
        matches,
        mask: spec.focal().mask(g),
    };
    let (mut counts, tstats) = run_slot(g, spec.k(), slot, config, threads, counts)?;
    Ok((counts.pop().expect("one slot"), tstats))
}

/// One pattern's traversal at radius `k`: the seeded plan (centers, then
/// clustering) is built once, on the calling thread, and every cluster
/// runs through [`run_groups`] into sinks made by `sink`.
pub(crate) fn run_slot<S: ClusterSink>(
    g: &Graph,
    k: u32,
    slot: PtSlot<'_>,
    config: &PtConfig,
    threads: usize,
    sink: impl Fn(&[PtSlot<'_>]) -> S + Sync,
) -> Result<(S, TraversalStats), CensusError> {
    let matches = slot.matches;
    let slots = [slot];
    if matches.is_empty() {
        return Ok((sink(&slots), TraversalStats::default()));
    }
    let k = pmd_radius(g, k)?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // One center index serves both PMD initialization and clustering
    // features.
    let full_centers = CenterIndex::for_config(g, config, &mut rng);
    let mut tstats = TraversalStats {
        index_edges: full_centers.build_edges(),
        ..TraversalStats::default()
    };
    let (pmd_centers, cluster_centers) = full_centers.views_for(config);
    let groups = cluster_matches(
        matches,
        &cluster_centers,
        config.clustering,
        config.max_auto_clusters,
        config.kmeans_iters,
        &mut rng,
    );

    let items: Vec<PtItem> = (0..matches.len() as u32)
        .map(|mi| PtItem { si: 0, mi })
        .collect();
    let ctx = PtContext {
        g,
        k,
        slots: &slots,
        items: &items,
        centers: &pmd_centers,
        use_distance_shortcuts: config.use_distance_shortcuts,
    };
    let (out, ts) = run_groups(&ctx, &groups, config.ordering, config.seed, threads, sink);
    tstats.add(&ts);
    Ok((out, tstats))
}

/// The radius PMD runs at. No distance in an n-node graph exceeds n − 1,
/// so radii past n are all the same query; what is left must leave room
/// for the saturation value `k + 1` in a `u16` row.
pub(crate) fn pmd_radius(g: &Graph, k: u32) -> Result<u32, CensusError> {
    let k = k.min(u32::try_from(g.num_nodes()).unwrap_or(u32::MAX));
    if k >= u16::MAX as u32 {
        return Err(CensusError::Unsupported(format!(
            "radius {k} is too large for the pattern-driven algorithms \
             (PMD rows hold distances below {}); use ND-PVOT",
            u16::MAX
        )));
    }
    Ok(k)
}

/// One member pattern of a PT traversal: its anchors, its matches, and
/// the focal mask it counts under.
pub(crate) struct PtSlot<'a> {
    /// Index of the caller's spec this slot serves.
    pub(crate) spec: usize,
    pub(crate) anchors: Vec<PNode>,
    pub(crate) analysis: PatternAnalysis,
    pub(crate) matches: &'a MatchList,
    pub(crate) mask: Vec<bool>,
}

/// One traversal seed: match `mi` of slot `si`.
#[derive(Clone, Copy)]
pub(crate) struct PtItem {
    pub(crate) si: u32,
    pub(crate) mi: u32,
}

/// What every cluster of one traversal group shares.
pub(crate) struct PtContext<'a> {
    pub(crate) g: &'a Graph,
    /// PMD radius, already through [`pmd_radius`].
    pub(crate) k: u32,
    pub(crate) slots: &'a [PtSlot<'a>],
    /// Clusters are lists of indices into this pool.
    pub(crate) items: &'a [PtItem],
    pub(crate) centers: &'a CenterIndex,
    pub(crate) use_distance_shortcuts: bool,
}

/// Where [`PtWorker::process_cluster`] hands each converged cluster: the
/// worker's slot→node list, PMD rows and item anchor columns. A column is
/// ≤ k exactly when its anchor is within k of the row's node: relaxation
/// only lowers an upper bound, and it converges on every distance up to
/// k. Each `fan_out` chunk owns one sink, and the sinks merge in chunk
/// order.
pub(crate) trait ClusterSink: Send {
    /// Credit the items of `group` from the cluster's converged rows.
    fn credit(&mut self, ctx: &PtContext<'_>, group: &[u32], pmd: &PtWorker);
    /// Add the sink of the next chunk into this one.
    fn merge(&mut self, next: Self);
}

/// The single-node sink: one zeroed count vector per slot, under the
/// slot's focal mask.
pub(crate) fn counts(slots: &[PtSlot<'_>]) -> Vec<CountVector> {
    slots
        .iter()
        .map(|st| CountVector::new(st.mask.len(), st.mask.clone()))
        .collect()
}

impl ClusterSink for Vec<CountVector> {
    /// N[M] = visited nodes within k of every anchor of M, intersected
    /// with the focal set of M's slot.
    fn credit(&mut self, ctx: &PtContext<'_>, group: &[u32], pmd: &PtWorker) {
        let k = ctx.k;
        for (s, &nraw) in pmd.nodes.iter().enumerate() {
            let n = NodeId(nraw);
            if !ctx.slots.iter().any(|st| st.mask[n.index()]) {
                continue;
            }
            let row = pmd.row(s);
            let mut rest = &pmd.positions[..];
            for &gi in group {
                let si = ctx.items[gi as usize].si as usize;
                let st = &ctx.slots[si];
                let (positions, tail) = rest.split_at(st.anchors.len());
                rest = tail;
                if st.mask[n.index()] && positions.iter().all(|&p| row[p as usize] as u32 <= k) {
                    self[si].increment(n);
                }
            }
        }
    }

    fn merge(&mut self, next: Self) {
        for (cv, p) in self.iter_mut().zip(&next) {
            cv.merge_add(p);
        }
    }
}

/// Traverse every cluster in `groups`, partitioned over up to `threads`
/// workers; returns the merged sinks and traversal statistics. Each
/// cluster's contribution is additive and independent of every other
/// cluster, so any partition sums to the sequential result. The RNG only
/// drives pop order under [`PtOrdering::Random`], which cannot change
/// what a sink sees (the relaxation converges to the same fixed point in
/// any order).
pub(crate) fn run_groups<S: ClusterSink>(
    ctx: &PtContext<'_>,
    groups: &[Vec<u32>],
    ordering: PtOrdering,
    seed: u64,
    threads: usize,
    sink: impl Fn(&[PtSlot<'_>]) -> S + Sync,
) -> (S, TraversalStats) {
    let run_chunk = |chunk: &[Vec<u32>]| {
        let mut worker = PtWorker::new(ctx.g.num_nodes(), ordering, seed);
        let mut out = sink(ctx.slots);
        let mut ts = TraversalStats::default();
        for group in chunk {
            worker.process_cluster(ctx, group, &mut out, &mut ts);
        }
        (out, ts)
    };
    let merge = |acc: &mut (S, TraversalStats), (out, ts): (S, TraversalStats)| {
        acc.0.merge(out);
        acc.1.add(&ts);
    };
    fan_out(groups, threads.min(groups.len()), run_chunk, merge)
}

/// Queue abstraction: bucket best-first (PT-OPT) or random pop (PT-RND).
struct TraversalQueue {
    ordering: PtOrdering,
    bucket: BucketQueue,
    random: Vec<u32>,
    rng: StdRng,
}

impl TraversalQueue {
    fn reset(&mut self, max_score: usize) {
        match self.ordering {
            PtOrdering::BestFirst => self.bucket.reset(max_score),
            PtOrdering::Random => self.random.clear(),
        }
    }

    fn push(&mut self, score: usize, item: u32) {
        match self.ordering {
            PtOrdering::BestFirst => self.bucket.push(score, item),
            PtOrdering::Random => self.random.push(item),
        }
    }

    fn pop(&mut self) -> Option<(usize, u32)> {
        match self.ordering {
            PtOrdering::BestFirst => self.bucket.pop_min(),
            PtOrdering::Random => {
                if self.random.is_empty() {
                    None
                } else {
                    let i = self.rng.gen_range(0..self.random.len());
                    Some((0, self.random.swap_remove(i)))
                }
            }
        }
    }
}

const NO_SLOT: u32 = u32::MAX;

/// One thread's traversal state, allocated once and reused by every
/// cluster it processes.
pub(crate) struct PtWorker {
    queue: TraversalQueue,
    /// Node → slab slot; [`NO_SLOT`] outside the current cluster.
    slot_of: Vec<u32>,
    /// Slot → node, in slot order. Anchors take the first slots, so an
    /// anchor's slot is also its PMD column; the list doubles as the
    /// touched set that resets `slot_of` for the next cluster.
    pub(crate) nodes: Vec<u32>,
    /// Distinct anchor images of the cluster: the width of a PMD row.
    na: usize,
    /// PMD: slot `s`, column `pos` at `rows[s * na + pos]` — the current
    /// upper bound on `d(anchor pos, node of s)`, saturated at `k + 1`.
    rows: Vec<u16>,
    /// Sum of each slot's row: the score it was last queued at, for lazy
    /// stale-entry skipping.
    score: Vec<usize>,
    /// `d(anchor, center)`, center-major (`[ci * na + pos]`) so the
    /// first-touch bound runs over anchors innermost.
    anchor_center: Vec<u16>,
    /// Anchor columns of the cluster's items, concatenated in group order.
    pub(crate) positions: Vec<u32>,
    /// The expanding node's row plus one hop.
    cand: Vec<u16>,
    seeds: Vec<u32>,
}

impl PtWorker {
    fn new(num_nodes: usize, ordering: PtOrdering, seed: u64) -> Self {
        PtWorker {
            queue: TraversalQueue {
                ordering,
                bucket: BucketQueue::new(0),
                random: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
            },
            slot_of: vec![NO_SLOT; num_nodes],
            nodes: Vec::new(),
            na: 0,
            rows: Vec::new(),
            score: Vec::new(),
            anchor_center: Vec::new(),
            positions: Vec::new(),
            cand: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// The slot of `n`, assigning the next free one on first sight.
    fn slot(&mut self, n: NodeId) -> (usize, bool) {
        match self.slot_of[n.index()] {
            NO_SLOT => {
                // Slots number distinct nodes, so they fit a node id.
                let s = self.nodes.len();
                self.slot_of[n.index()] = s as u32;
                self.nodes.push(n.0);
                (s, true)
            }
            s => (s as usize, false),
        }
    }

    /// The PMD row of slot `s`.
    pub(crate) fn row(&self, s: usize) -> &[u16] {
        &self.rows[s * self.na..][..self.na]
    }

    /// One relaxation-based simultaneous traversal for a cluster of items
    /// (matches, possibly of several patterns), then the converged rows go
    /// to `out`. PMD columns span the **union** of the cluster's anchor
    /// images; the expansion gate is an OR over that union, so pooling
    /// patterns only widens it — per-anchor convergence (and hence exact
    /// crediting) is preserved for every member.
    fn process_cluster<S: ClusterSink>(
        &mut self,
        ctx: &PtContext<'_>,
        group: &[u32],
        out: &mut S,
        tstats: &mut TraversalStats,
    ) {
        let (g, k) = (ctx.g, ctx.k);
        let inf = (k + 1) as u16;
        for &n in &self.nodes {
            self.slot_of[n as usize] = NO_SLOT;
        }
        self.nodes.clear();
        self.positions.clear();

        // Unique anchor images across the cluster, each with a column.
        for &gi in group {
            let item = ctx.items[gi as usize];
            let st = &ctx.slots[item.si as usize];
            let m = &st.matches[item.mi as usize];
            for &a in &st.anchors {
                let (pos, _) = self.slot(m.image(a));
                self.positions.push(pos as u32);
            }
        }
        let na = self.nodes.len();
        self.na = na;
        self.queue.reset(inf as usize * na);

        // --- Initialization ---
        // Anchors: distance 0 to themselves, pattern-distance shortcuts to
        // co-match anchors.
        self.rows.clear();
        self.rows.resize(na * na, inf);
        for pos in 0..na {
            self.rows[pos * na + pos] = 0;
        }
        if ctx.use_distance_shortcuts {
            let mut rest = &self.positions[..];
            for &gi in group {
                let st = &ctx.slots[ctx.items[gi as usize].si as usize];
                let (positions, tail) = rest.split_at(st.anchors.len());
                rest = tail;
                for (ai, &pa) in st.anchors.iter().enumerate() {
                    let row = &mut self.rows[positions[ai] as usize * na..][..na];
                    for (bi, &pb) in st.anchors.iter().enumerate() {
                        if ai == bi {
                            continue;
                        }
                        let d = st.analysis.distance(pb, pa);
                        let cell = &mut row[positions[bi] as usize];
                        if d != UNREACHABLE && d < *cell as u32 {
                            // PMD_{m_b}[img_a] bound from the pattern graph.
                            *cell = d as u16;
                        }
                    }
                }
            }
        }
        // Centers: exact distances (never reinserted — relaxation cannot
        // beat an exact value). A center may coincide with an anchor.
        let nc = ctx.centers.len();
        self.anchor_center.clear();
        self.anchor_center.resize(nc * na, inf);
        for pos in 0..na {
            let to_centers = ctx.centers.row(NodeId(self.nodes[pos]));
            for (ci, &d) in to_centers.iter().enumerate() {
                self.anchor_center[ci * na + pos] = d;
            }
        }
        for (ci, &c) in ctx.centers.centers().iter().enumerate() {
            let (s, fresh) = self.slot(c);
            if fresh {
                self.rows.resize((s + 1) * na, inf);
            }
            let row = &mut self.rows[s * na..][..na];
            for (v, &d) in row.iter_mut().zip(&self.anchor_center[ci * na..][..na]) {
                *v = (*v).min(d);
            }
        }

        // Queue everything initialized, in node order (determinism).
        self.score.clear();
        self.score
            .extend((0..self.nodes.len()).map(|s| row_score(&self.rows[s * na..][..na])));
        self.seeds.clear();
        self.seeds.extend_from_slice(&self.nodes);
        self.seeds.sort_unstable();
        for &n in &self.seeds {
            let s = self.slot_of[n as usize] as usize;
            self.queue.push(self.score[s], n);
        }

        // --- Traversal ---
        let best_first = matches!(self.queue.ordering, PtOrdering::BestFirst);
        while let Some((popped_score, nraw)) = self.queue.pop() {
            let s = self.slot_of[nraw as usize] as usize;
            // Lazy stale check (best-first only; random pops carry score 0).
            if best_first && self.score[s] != popped_score {
                continue;
            }
            let row = &self.rows[s * na..][..na];
            // Expansion gate: expand only if some anchor is strictly closer
            // than k (otherwise neighbors cannot be within k of anything new).
            if !row.iter().any(|&v| (v as u32) < k) {
                continue;
            }
            tstats.nodes_expanded += 1;
            tstats.edges_traversed += g.degree(NodeId(nraw)) as u64;
            self.cand.clear();
            self.cand
                .extend(row.iter().map(|&v| v.saturating_add(1).min(inf)));

            for &nb in g.neighbors(NodeId(nraw)) {
                let (t, fresh) = self.slot(nb);
                if fresh {
                    // First touch: combine relaxation with center bounds
                    // `d(anchor, c) + d(c, nb)`. A center farther than k
                    // from nb bounds nothing below saturation.
                    self.rows.extend_from_slice(&self.cand);
                    let row_nb = &mut self.rows[t * na..];
                    for (ci, &dcn) in ctx.centers.row(nb).iter().enumerate() {
                        if dcn as u32 > k {
                            continue;
                        }
                        for (v, &dac) in row_nb.iter_mut().zip(&self.anchor_center[ci * na..]) {
                            *v = (*v).min(dac.saturating_add(dcn));
                        }
                    }
                    let sc = row_score(row_nb);
                    self.score.push(sc);
                    self.queue.push(sc, nb.0);
                    continue;
                }
                let mut sc = 0usize;
                let mut changed = false;
                for (v, &c) in self.rows[t * na..][..na].iter_mut().zip(&self.cand) {
                    let new = (*v).min(c);
                    changed |= new != *v;
                    *v = new;
                    sc += new as usize;
                }
                if changed {
                    // Decrease-key on an already-seen node: a
                    // reinsertion in the paper's Figure 2 sense.
                    self.score[t] = sc;
                    tstats.reinsertions += 1;
                    self.queue.push(sc, nb.0);
                }
            }
        }

        out.credit(ctx, group, self);
    }
}

fn row_score(row: &[u16]) -> usize {
    row.iter().map(|&v| v as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Clustering, FocalNodes};
    use crate::{exec_matches, nd_bas, nd_pivot, CenterStrategy};
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

    fn configs() -> Vec<PtConfig> {
        vec![
            PtConfig::default(),
            PtConfig {
                num_centers: 0,
                clustering: Clustering::None,
                ..PtConfig::default()
            },
            PtConfig {
                num_centers: 3,
                center_strategy: CenterStrategy::Random,
                clustering: Clustering::Random(2),
                ..PtConfig::default()
            },
            PtConfig {
                ordering: PtOrdering::Random,
                ..PtConfig::default()
            },
            PtConfig {
                num_centers: 2,
                clustering: Clustering::KMeans(2),
                ..PtConfig::default()
            },
        ]
    }

    #[test]
    fn agrees_with_nd_bas_across_configs() {
        let g = fixture();
        for pat_text in [
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
            "PATTERN e { ?A-?B; }",
            "PATTERN p3 { ?A-?B; ?B-?C; }",
        ] {
            let p = Pattern::parse(pat_text).unwrap();
            let m = exec_matches(&g, &p, 1);
            for k in 0..4 {
                let spec = CensusSpec::single(&p, k);
                let (oracle, _) = nd_bas::run(&g, &spec).unwrap();
                for (ci, cfg) in configs().iter().enumerate() {
                    let (fast, _) = run(&g, &spec, &m, cfg, 1).unwrap();
                    for n in g.node_ids() {
                        assert_eq!(
                            fast.get(n),
                            oracle.get(n),
                            "{pat_text} k={k} cfg={ci} node={n:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn subpattern_agrees_with_nd_pivot() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }").unwrap();
        let m = exec_matches(&g, &p, 1);
        for k in 0..3 {
            let spec = CensusSpec::single(&p, k).with_subpattern("one");
            let (expect, _) = nd_pivot::run(&g, &spec, &m, 1).unwrap();
            let (got, _) = run(&g, &spec, &m, &PtConfig::default(), 1).unwrap();
            for n in g.node_ids() {
                assert_eq!(got.get(n), expect.get(n), "k={k} node={n:?}");
            }
        }
    }

    #[test]
    fn focal_mask_respected() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec =
            CensusSpec::single(&p, 2).with_focal(FocalNodes::Set(vec![NodeId(0), NodeId(6)]));
        let (counts, _) = run(&g, &spec, &m, &PtConfig::default(), 1).unwrap();
        assert_eq!(counts.get(NodeId(0)), 2);
        assert_eq!(counts.get(NodeId(6)), 0);
        assert_eq!(counts.get(NodeId(2)), 0); // non-focal
    }

    #[test]
    fn empty_matches_short_circuits() {
        let g = fixture();
        let p = Pattern::parse("PATTERN k4 { ?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec = CensusSpec::single(&p, 2);
        let (counts, _) = run(&g, &spec, &m, &PtConfig::default(), 1).unwrap();
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn disconnected_graph_components() {
        // Matches in one component must not leak counts into another.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(6, Label(0));
        for (x, y) in [(0u32, 1), (1, 2), (0, 2)] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        b.add_edge(NodeId(3), NodeId(4));
        let g = b.build();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec = CensusSpec::single(&p, 3);
        let (counts, _) = run(&g, &spec, &m, &PtConfig::default(), 1).unwrap();
        assert_eq!(counts.get(NodeId(0)), 1);
        assert_eq!(counts.get(NodeId(3)), 0);
        assert_eq!(counts.get(NodeId(5)), 0);
    }

    #[test]
    fn k_zero_single_anchor() {
        let g = fixture();
        let p = Pattern::parse("PATTERN n { ?A; }").unwrap();
        let m = exec_matches(&g, &p, 1);
        let spec = CensusSpec::single(&p, 0);
        let (counts, _) = run(&g, &spec, &m, &PtConfig::default(), 1).unwrap();
        for n in g.node_ids() {
            assert_eq!(counts.get(n), 1);
        }
    }
}
