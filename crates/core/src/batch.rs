//! Batched census execution: evaluate many patterns over one shared
//! neighborhood sweep (an extension beyond the paper).
//!
//! Every census algorithm re-walks the same CSR adjacency per pattern:
//! the node-driven family re-extracts each focal node's k-hop
//! neighborhood once per pattern, and the pattern-driven family re-runs
//! the simultaneous traversal per pattern.
//! A [`Census::Batch`](crate::Census::Batch) job plans N specs together
//! and shares that work:
//!
//! * **ND side** — specs resolving to ND-PVOT (or ND-DIFF) are grouped by
//!   focal set. Each group runs **one** BFS sweep per focal node at
//!   `k_max = max(k_i)` — the same [`crate::nd_pivot`] sweep a single
//!   ND-PVOT census runs, with one `PivotPlan` per member;
//!   [`ego_graph::bfs::BfsScratch::bounded_bfs`] emits nodes in
//!   nondecreasing distance order, so every plan reads its own radius as
//!   a prefix of the shared frontier.
//! * **PT side** — specs resolving to a pattern-driven algorithm are
//!   grouped by equal radius (the PMD saturation value `inf = k + 1` is
//!   per-group) and share **one** center index across all groups — built
//!   here, or handed in by a caller that kept the one an earlier batch
//!   over the same graph returned ([`Outcome::centers`]). Within a
//!   group, the matches of all patterns are pooled and clustered
//!   together, so one simultaneous traversal (the single-pattern kernel,
//!   `pt_opt`'s `process_cluster`) relaxes the distance bounds for
//!   anchors of *different* patterns at once; each spec then counts from
//!   the shared PMD rows under its own focal mask.
//! * **ND-BAS** — a forced ND-BAS batch shares nothing: its stage runs
//!   the reference [`crate::nd_bas`] census per spec, over the same focal
//!   fan-out as a single ND-BAS census.
//!
//! Counts are bit-identical to N [`Census::Single`](crate::Census::Single)
//! runs for every algorithm and thread count (property-tested in
//! `tests/batch_equivalence.rs`). Two documented promotions keep that
//! guarantee while maximizing sharing: ND-DIFF specs run through the
//! shared pivot sweep and PT-BAS specs through the shared PT executor —
//! all algorithms are exact, so the counts cannot differ (the same
//! rationale that lets the server cache results across algorithms).
//! Rejections are preserved for parity: ND-BAS still refuses COUNTSP and
//! attribute/edge predicates, ND-DIFF still refuses COUNTSP.

use crate::centers::{CenterIndex, CenterStrategy};
use crate::cost::{self, GraphShape};
use crate::job::{Job, Outcome};
use crate::kmeans::kmeans;
use crate::nd_pivot::{self, PivotPlan};
use crate::parallel::run_with_matches;
use crate::pt_opt::{self, PtContext, PtItem, PtSlot};
use crate::result::{CensusError, CountVector};
use crate::spec::{CensusSpec, Clustering, PtConfig, PtOrdering};
use crate::tstats::TraversalStats;
use crate::Algorithm;
use ego_graph::Graph;
use ego_matcher::MatchList;
use ego_pattern::analysis::PatternAnalysis;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One shared-work unit of a batch plan. Spec indices refer to the order
/// of the batch's specs (the `specs` slice passed to [`plan_stages`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchStage {
    /// One BFS sweep per focal node at `k_max`, serving every listed
    /// spec through the pattern-match index.
    NdSweep {
        /// Specs served by the pivot-index containment check.
        pivot: Vec<usize>,
        /// The shared sweep radius (max over member radii).
        k_max: u32,
    },
    /// The reference ND-BAS census of each listed spec: extract every
    /// focal node's neighborhood and match inside it, one spec at a time.
    NdBaseline {
        /// Member spec indices.
        specs: Vec<usize>,
    },
    /// One shared simultaneous traversal (per merged cluster) for all
    /// listed specs, which share the radius `k`.
    PtGroup {
        /// Member spec indices.
        specs: Vec<usize>,
        /// The group's common radius.
        k: u32,
    },
}

/// How a spec is served inside a batch that shares work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// ND-PVOT semantics (also serves ND-DIFF): pivot-index containment.
    Pivot,
    /// Pattern-driven simultaneous traversal (serves PT-BAS/PT-RND/PT-OPT).
    Pt,
}

/// Evaluate `specs` as one batch under `job`'s algorithm (applied per
/// spec; `Auto` resolves per spec, on each spec's exact match count)
/// over the front's match lists (see [`crate::job`]). A center index in
/// [`Job::centers`] is used when it is this config's `Degree` index;
/// one built here is returned in [`Outcome::centers`].
pub(crate) fn run(
    g: &Graph,
    specs: &[CensusSpec<'_>],
    matches: &[Option<Arc<MatchList>>],
    job: &Job<'_, '_>,
    threads: usize,
) -> Result<Outcome, CensusError> {
    let (algorithm, config) = (job.algorithm, &job.config);
    let mut stats = TraversalStats::default();
    let stages = plan_stages(g, specs, algorithm, matches)?;

    let mut counts: Vec<CountVector> = specs
        .iter()
        .map(|s| CountVector::new(g.num_nodes(), s.focal().mask(g)))
        .collect();

    // One center index serves every PT group in the batch (it is
    // k-independent). Building one consumes RNG state the way the
    // single-pattern path does, and under `Random` that draw *is* the
    // index, so only a `Degree` index can come from or go to the caller.
    let has_pt = stages
        .iter()
        .any(|s| matches!(s, BatchStage::PtGroup { .. }));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let shareable = config.center_strategy == CenterStrategy::Degree;
    let want = CenterIndex::count_for(config).min(g.num_nodes());
    let mut built = None;
    let full_centers = match &job.centers {
        _ if !has_pt => CenterIndex::empty(),
        Some(c) if shareable && c.len() == want => c.clone(),
        _ => {
            let c = CenterIndex::for_config(g, config, &mut rng);
            stats.index_edges += c.build_edges();
            built = (shareable && !c.is_empty()).then(|| c.clone());
            c
        }
    };
    let (pmd_centers, cluster_centers) = full_centers.views_for(config);
    let ordering = if algorithm == Algorithm::PtRandom {
        PtOrdering::Random
    } else {
        config.ordering
    };

    for stage in &stages {
        match stage {
            BatchStage::NdSweep { pivot, k_max } => {
                let plans = pivot
                    .iter()
                    .map(|&i| {
                        let m = matches[i].as_deref().expect("pivot mode requires matches");
                        PivotPlan::new(g, &specs[i], m)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                // All members share the focal set (grouping invariant).
                let focal = specs[pivot[0]].focal();
                let (local, ts) =
                    nd_pivot::sweep(g, &focal.nodes(g), &focal.mask(g), *k_max, &plans, threads);
                stats.add(&ts);
                for (&i, cv) in pivot.iter().zip(local) {
                    counts[i] = cv;
                }
            }
            BatchStage::NdBaseline { specs: idxs } => {
                let none = MatchList::default();
                for &i in idxs {
                    let nd_bas = Algorithm::NdBaseline;
                    let (cv, ts) = run_with_matches(g, &specs[i], &none, nd_bas, config, threads)?;
                    stats.add(&ts);
                    counts[i] = cv;
                }
            }
            BatchStage::PtGroup { specs: idxs, k } => pt_group_run(
                g,
                specs,
                matches,
                idxs,
                *k,
                &pmd_centers,
                &cluster_centers,
                config,
                ordering,
                &mut rng,
                threads,
                &mut counts,
                &mut stats,
            )?,
        }
    }

    Ok(Outcome {
        counts,
        stats,
        centers: built,
        stages,
        ..Outcome::default()
    })
}

/// Plan (but do not execute) a batch: which specs share an ND sweep,
/// which share a PT traversal group, which run ND-BAS. `matches[i]` is
/// required for specs only when `algorithm` is `Auto`, which
/// [`cost::choose`] resolves per spec on its exact match count. Used by
/// `EXPLAIN` to describe the batch plan.
pub fn plan_stages<'a>(
    g: &Graph,
    specs: &[CensusSpec<'a>],
    algorithm: Algorithm,
    matches: &[Option<Arc<MatchList>>],
) -> Result<Vec<BatchStage>, CensusError> {
    if algorithm == Algorithm::NdBaseline {
        // ND-BAS shares no work: its one stage runs each spec's census.
        for spec in specs {
            crate::nd_bas::check(spec)?;
        }
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let specs = (0..specs.len()).collect();
        return Ok(vec![BatchStage::NdBaseline { specs }]);
    }
    // Measured once per call, and only if the specs are left to `Auto`.
    let shape = (algorithm == Algorithm::Auto).then(|| GraphShape::of(g));
    let modes = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let m = matches.get(i).and_then(|o| o.as_deref());
            resolve_mode(g, shape.as_ref(), spec, algorithm, m)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(group_stages(specs, &modes))
}

fn resolve_mode(
    g: &Graph,
    shape: Option<&GraphShape>,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
    matches: Option<&MatchList>,
) -> Result<Mode, CensusError> {
    match algorithm {
        Algorithm::NdBaseline => unreachable!("ND-BAS batches are planned without modes"),
        Algorithm::NdDiff => {
            // Parity with crate::nd_diff::run's rejection; supported specs
            // are served by the shared pivot sweep (exact, so identical).
            crate::nd_diff::check(spec)?;
            Ok(Mode::Pivot)
        }
        Algorithm::NdPivot => Ok(Mode::Pivot),
        Algorithm::PtBaseline | Algorithm::PtOpt | Algorithm::PtRandom => Ok(Mode::Pt),
        Algorithm::Auto => {
            let m = matches.ok_or_else(|| {
                CensusError::Unsupported(
                    "batch planning for Auto requires precomputed match lists".into(),
                )
            })?;
            let shape = shape.expect("measured for Auto");
            Ok(match cost::choose(g, shape, spec, m.len()) {
                Algorithm::PtBaseline | Algorithm::PtRandom | Algorithm::PtOpt => Mode::Pt,
                _ => Mode::Pivot,
            })
        }
    }
}

/// Group resolved specs into shared-work stages: ND specs by focal set
/// (a sweep shares BFS frontiers, so the focal sets must coincide), PT
/// specs by radius (the PMD saturation bound is per-k).
fn group_stages(specs: &[CensusSpec<'_>], modes: &[Mode]) -> Vec<BatchStage> {
    let mut stages = Vec::new();

    // (representative spec index, members)
    let mut nd_groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, mode) in modes.iter().enumerate() {
        if *mode == Mode::Pt {
            continue;
        }
        match nd_groups
            .iter_mut()
            .find(|(rep, _)| specs[*rep].focal() == specs[i].focal())
        {
            Some((_, members)) => members.push(i),
            None => nd_groups.push((i, vec![i])),
        }
    }
    for (_, pivot) in nd_groups {
        let k_max = pivot
            .iter()
            .map(|&i| specs[i].k())
            .max()
            .expect("non-empty ND group");
        stages.push(BatchStage::NdSweep { pivot, k_max });
    }

    let mut pt_groups: Vec<(u32, Vec<usize>)> = Vec::new();
    for (i, mode) in modes.iter().enumerate() {
        if *mode != Mode::Pt {
            continue;
        }
        let k = specs[i].k();
        match pt_groups.iter_mut().find(|(gk, _)| *gk == k) {
            Some((_, v)) => v.push(i),
            None => pt_groups.push((k, vec![i])),
        }
    }
    for (k, idxs) in pt_groups {
        stages.push(BatchStage::PtGroup { specs: idxs, k });
    }
    stages
}

// ---------------------------------------------------------------------
// PT side: pool the matches of same-radius specs into shared traversals.
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn pt_group_run(
    g: &Graph,
    specs: &[CensusSpec<'_>],
    matches: &[Option<Arc<MatchList>>],
    idxs: &[usize],
    k: u32,
    pmd_centers: &CenterIndex,
    cluster_centers: &CenterIndex,
    config: &PtConfig,
    ordering: PtOrdering,
    rng: &mut StdRng,
    threads: usize,
    counts: &mut [CountVector],
    stats: &mut TraversalStats,
) -> Result<(), CensusError> {
    let k = pt_opt::pmd_radius(g, k)?;
    let mut slots: Vec<PtSlot<'_>> = Vec::new();
    let mut items: Vec<PtItem> = Vec::new();
    for &i in idxs {
        let spec = &specs[i];
        let m = matches[i].as_deref().expect("PT mode requires matches");
        if m.is_empty() {
            continue;
        }
        let si = slots.len() as u32;
        items.extend((0..m.len() as u32).map(|mi| PtItem { si, mi }));
        slots.push(PtSlot {
            spec: i,
            anchors: spec.anchor_nodes()?,
            analysis: PatternAnalysis::new(spec.pattern()),
            matches: m,
            mask: spec.focal().mask(g),
        });
    }
    if items.is_empty() {
        return Ok(());
    }

    let groups = cluster_items(&items, &slots, cluster_centers, config, rng);
    let ctx = PtContext {
        g,
        k,
        slots: &slots,
        items: &items,
        centers: pmd_centers,
        use_distance_shortcuts: config.use_distance_shortcuts,
    };
    let (local, ts) = pt_opt::run_groups(
        &ctx,
        &groups,
        ordering,
        config.seed,
        threads,
        pt_opt::counts,
    );
    stats.add(&ts);
    for (st, cv) in slots.iter().zip(&local) {
        counts[st.spec].merge_add(cv);
    }
    Ok(())
}

/// Cluster pooled items. The per-pattern K-means of
/// [`crate::clustering::cluster_matches`] embeds a match as a
/// `|C| × |V_P|` vector, which is pattern-arity-dependent; pooled items
/// use the pattern-independent `|C|`-dimensional embedding
/// `F(item)[c] = min over anchor images of d(c, image)` instead.
/// Clustering only groups traversals — it can never change the counts —
/// so the cross-pattern feature space is safe.
fn cluster_items(
    items: &[PtItem],
    slots: &[PtSlot<'_>],
    centers: &CenterIndex,
    config: &PtConfig,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let n = items.len();
    match config.clustering {
        Clustering::None => (0..n as u32).map(|i| vec![i]).collect(),
        Clustering::Random(kc) => {
            let kc = kc.clamp(1, n);
            let mut groups: Vec<Vec<u32>> = vec![Vec::new(); kc];
            for i in 0..n as u32 {
                groups[rng.gen_range(0..kc)].push(i);
            }
            groups.retain(|g| !g.is_empty());
            groups
        }
        Clustering::KMeans(kc) => {
            kmeans_item_groups(items, slots, centers, kc, config.kmeans_iters, rng)
        }
        Clustering::Auto => {
            let kc = (n / 4).clamp(1, config.max_auto_clusters);
            kmeans_item_groups(items, slots, centers, kc, config.kmeans_iters, rng)
        }
    }
}

fn kmeans_item_groups(
    items: &[PtItem],
    slots: &[PtSlot<'_>],
    centers: &CenterIndex,
    kc: usize,
    iters: usize,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let n = items.len();
    let kc = kc.clamp(1, n);
    if centers.is_empty() || kc == 1 {
        return vec![(0..n as u32).collect()];
    }
    let dim = centers.len();
    let mut points = Vec::with_capacity(n * dim);
    for item in items {
        let st = &slots[item.si as usize];
        let m = &st.matches[item.mi as usize];
        for ci in 0..dim {
            let mut best = f32::INFINITY;
            for &a in &st.anchors {
                let d = centers.distance(ci, m.image(a));
                if d != u32::MAX {
                    best = best.min(d as f32);
                }
            }
            // Unreachable/anchorless → large sentinel, as in cluster_matches.
            points.push(if best.is_finite() { best } else { 1e6 });
        }
    }
    let assign = kmeans(&points, dim, kc, iters, rng);
    let k_eff = assign.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); k_eff];
    for (i, &c) in assign.iter().enumerate() {
        groups[c as usize].push(i as u32);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Census;
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;

    /// A batch job on one thread.
    fn batch_job(
        g: &Graph,
        specs: &[CensusSpec<'_>],
        algorithm: Algorithm,
        config: &PtConfig,
    ) -> Result<Outcome, CensusError> {
        let job = Job {
            config: config.clone(),
            ..Job::new(Census::Batch(specs), algorithm)
        };
        crate::run(g, &job)
    }

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

    fn patterns() -> Vec<Pattern> {
        [
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
            "PATTERN e { ?A-?B; }",
            "PATTERN p3 { ?A-?B; ?B-?C; }",
            "PATTERN n { ?A; }",
        ]
        .iter()
        .map(|s| Pattern::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn batch_counts_equal_sequential_runs() {
        let g = fixture();
        let pats = patterns();
        let specs: Vec<CensusSpec<'_>> = pats
            .iter()
            .zip([2u32, 1, 2, 0])
            .map(|(p, k)| CensusSpec::single(p, k))
            .collect();
        let config = PtConfig::default();
        for algo in [
            Algorithm::NdBaseline,
            Algorithm::NdPivot,
            Algorithm::NdDiff,
            Algorithm::PtBaseline,
            Algorithm::PtOpt,
            Algorithm::PtRandom,
            Algorithm::Auto,
        ] {
            let batch = batch_job(&g, &specs, algo, &config).unwrap();
            for (i, spec) in specs.iter().enumerate() {
                let seq = crate::run(&g, &Job::new(Census::Single(spec), algo)).unwrap();
                assert_eq!(batch.counts[i], seq.counts[0], "{algo:?} spec {i}");
            }
        }
    }

    #[test]
    fn shared_sweep_does_strictly_less_expansion() {
        let g = fixture();
        let pats = patterns();
        let specs: Vec<CensusSpec<'_>> = pats.iter().map(|p| CensusSpec::single(p, 2)).collect();
        let batch = batch_job(&g, &specs, Algorithm::NdPivot, &PtConfig::default()).unwrap();
        // One sweep for 4 specs: nodes_expanded = |V|, not 4·|V|.
        assert_eq!(batch.stats.nodes_expanded, g.num_nodes() as u64);
        assert_eq!(batch.stages.len(), 1);
        match &batch.stages[0] {
            BatchStage::NdSweep { pivot, k_max, .. } => {
                assert_eq!(pivot.len(), 4);
                assert_eq!(*k_max, 2);
            }
            other => panic!("unexpected stage {other:?}"),
        }
    }

    #[test]
    fn pt_groups_split_by_radius() {
        let g = fixture();
        let pats = patterns();
        let specs = vec![
            CensusSpec::single(&pats[0], 1),
            CensusSpec::single(&pats[0], 2),
            CensusSpec::single(&pats[3], 1),
        ];
        let batch = batch_job(&g, &specs, Algorithm::PtOpt, &PtConfig::default()).unwrap();
        let mut ks: Vec<u32> = batch
            .stages
            .iter()
            .map(|s| match s {
                BatchStage::PtGroup { k, .. } => *k,
                other => panic!("unexpected stage {other:?}"),
            })
            .collect();
        ks.sort_unstable();
        assert_eq!(ks, vec![1, 2]);
        // Specs 0 and 2 share k=1 ⇒ one group serves both.
        let k1 = batch
            .stages
            .iter()
            .find_map(|s| match s {
                BatchStage::PtGroup { specs, k: 1 } => Some(specs.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(k1, vec![0, 2]);
    }

    #[test]
    fn shared_pattern_matches_computed_once() {
        let g = fixture();
        let pats = patterns();
        let specs = vec![
            CensusSpec::single(&pats[0], 1),
            CensusSpec::single(&pats[0], 2),
        ];
        let batch = batch_job(&g, &specs, Algorithm::NdPivot, &PtConfig::default()).unwrap();
        let a = batch.matches[0].as_ref().unwrap();
        let b = batch.matches[1].as_ref().unwrap();
        assert!(Arc::ptr_eq(a, b), "same pattern must share one MatchList");
    }

    #[test]
    fn provided_matches_are_reused() {
        let g = fixture();
        let pats = patterns();
        let specs = vec![CensusSpec::single(&pats[0], 1)];
        let pre = Arc::new(crate::exec_matches(&g, &pats[0], 1));
        let job = Job {
            matches: vec![Some(pre.clone())],
            ..Job::new(Census::Batch(&specs), Algorithm::NdPivot)
        };
        let batch = crate::run(&g, &job).unwrap();
        assert!(Arc::ptr_eq(batch.matches[0].as_ref().unwrap(), &pre));
    }

    #[test]
    fn center_index_is_built_once_and_reported_once() {
        let g = fixture();
        let pats = patterns();
        let specs = vec![CensusSpec::single(&pats[0], 2)];
        let run = |config: &PtConfig, centers| {
            let job = Job {
                config: config.clone(),
                centers,
                ..Job::new(Census::Batch(&specs), Algorithm::PtOpt)
            };
            crate::run(&g, &job).unwrap()
        };
        let config = PtConfig::default();
        let first = run(&config, None);
        assert!(first.stats.index_edges > 0);
        let built = first.centers.clone().expect("a Degree index is returned");

        let second = run(&config, Some(built.clone()));
        assert_eq!(second.counts, first.counts);
        assert_eq!(second.stats.index_edges, 0, "nothing was built");
        assert!(second.centers.is_none());
        assert_eq!(
            second.stats.edges_traversed, first.stats.edges_traversed,
            "same index, same traversal"
        );

        // An index of the wrong size is not this config's index.
        let third = run(&config, Some(built.take(1)));
        assert_eq!(third.stats.index_edges, first.stats.index_edges);
        // A Random index is a draw from the run's RNG: never taken,
        // never handed back.
        let random = PtConfig {
            center_strategy: CenterStrategy::Random,
            ..PtConfig::default()
        };
        let fourth = run(&random, Some(built));
        assert!(fourth.stats.index_edges > 0);
        assert!(fourth.centers.is_none());
        assert_eq!(fourth.counts, first.counts);
        // ND stages never build one.
        let nd = batch_job(&g, &specs, Algorithm::NdPivot, &config).unwrap();
        assert_eq!(nd.stats.index_edges, 0);
        assert!(nd.centers.is_none());
    }

    #[test]
    fn rejections_preserved() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }").unwrap();
        let specs = vec![CensusSpec::single(&p, 1).with_subpattern("s")];
        for algo in [Algorithm::NdBaseline, Algorithm::NdDiff] {
            assert!(
                batch_job(&g, &specs, algo, &PtConfig::default()).is_err(),
                "{algo:?} must reject COUNTSP"
            );
        }
        // NdPivot accepts it.
        assert!(batch_job(&g, &specs, Algorithm::NdPivot, &PtConfig::default()).is_ok());
    }

    #[test]
    fn empty_batch() {
        let g = fixture();
        let batch = batch_job(&g, &[], Algorithm::Auto, &PtConfig::default()).unwrap();
        assert!(batch.counts.is_empty());
        assert!(batch.stages.is_empty());
    }
}
