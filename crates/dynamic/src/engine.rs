//! Incremental census: re-census the dirty focal set, splice the rest.

use crate::delta::DeltaGraph;
use crate::dirty::DirtyIndex;
use crate::matches::{maintain_match_list, MaintainStats};
use ego_census::{
    run_batch_exec, Algorithm, CensusError, CensusSpec, CountVector, ExecConfig, FocalNodes,
    PtConfig,
};
use ego_graph::{Graph, NodeId};
use ego_matcher::MatchList;
use std::sync::Arc;

/// What an incremental update had to do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Touched delta endpoints seeding the dirty BFS.
    pub touched_endpoints: usize,
    /// Focal nodes re-censused (summed over specs).
    pub dirty_focal: usize,
    /// Focal nodes whose previous count was spliced through unchanged
    /// (summed over specs).
    pub clean_focal: usize,
}

/// Result of an incremental update: the compacted graph, the refreshed
/// per-spec counts, and how much work was avoided.
#[derive(Clone, Debug)]
pub struct IncrementalUpdate {
    /// The base graph with the delta batch applied, frozen back to CSR.
    pub graph: Graph,
    /// Per-spec counts, bit-identical to a full recompute on `graph`.
    pub counts: Vec<CountVector>,
    /// Per-spec global match lists on the new graph, when available —
    /// maintained incrementally from the caller's previous lists or
    /// computed by the fresh run (`None` for ND-BAS, which never
    /// materializes them). Feed these back on the next update.
    pub matches: Vec<Option<Arc<MatchList>>>,
    /// Work accounting.
    pub stats: UpdateStats,
    /// Match-list maintenance accounting (summed over specs).
    pub match_stats: MaintainStats,
}

/// Incrementally maintain a batch of census results under an edge-delta
/// batch.
///
/// `previous[i]` must be the counts of `specs[i]` on `delta.base()` (same
/// pattern, radius, and focal set). The delta is compacted into a new
/// graph, the dirty focal set is derived by one bounded BFS at the
/// largest spec radius, and only dirty focal nodes are re-censused —
/// through the ordinary [`run_batch_exec`] path, so every algorithm
/// family and thread count yields counts bit-identical to a full
/// recompute. Counts for clean focal nodes are spliced from `previous`.
///
/// A plain `COUNTP` count for focal node `n` at radius `k` depends only
/// on `S(n, k)`, the subgraph induced by nodes within `k` of `n`. If no
/// touched endpoint is within `k` of `n` (in old or new graph — the
/// dirty BFS union view covers both), `S(n, k)` is unchanged, hence so
/// is the count. `COUNTSP` counts are *not* that local: the pattern
/// match is global and only the subpattern image must land in
/// `S(n, k)`, so a changed match can affect focal nodes up to the
/// pattern diameter further out. Its dirty radius is therefore widened
/// to `k` plus the pattern's diameter (every changed match has an edge
/// image on a touched pair, and — for a connected pattern — its image
/// nodes lie within the diameter of either endpoint, in union-graph
/// hops); a disconnected pattern has no such bound, so every focal node
/// of that spec goes dirty. Without
/// previous match lists, global match lists are recomputed on the new
/// graph; see [`update_batch_exec_with_matches`] to maintain them
/// incrementally instead.
pub fn update_batch_exec(
    delta: &DeltaGraph,
    specs: &[CensusSpec<'_>],
    previous: &[CountVector],
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<IncrementalUpdate, CensusError> {
    let none = vec![None; specs.len()];
    update_batch_exec_with_matches(delta, specs, previous, &none, algorithm, config, exec)
}

/// [`update_batch_exec`] plus incremental **match-list maintenance**:
/// `previous_matches[i]`, when given, must be the global match list of
/// `specs[i]`'s pattern on `delta.base()`. Supported patterns
/// ([`crate::matches::supports_match_maintenance`]) are maintained in
/// |delta|-scaled work (survivor scan + re-enumeration of the ball one
/// pattern diameter around the touched endpoints, see
/// [`crate::matches`]) and fed to [`run_batch_exec`] as provided
/// lists, so the fresh run skips global matching entirely; unsupported
/// patterns (or `None` slots) recompute as before. The returned
/// [`IncrementalUpdate::matches`] carries each spec's list on the new
/// graph for the caller to feed back on the next update.
pub fn update_batch_exec_with_matches(
    delta: &DeltaGraph,
    specs: &[CensusSpec<'_>],
    previous: &[CountVector],
    previous_matches: &[Option<Arc<MatchList>>],
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<IncrementalUpdate, CensusError> {
    let graph = delta.compact();
    let out = update_batch_on(
        delta,
        &graph,
        specs,
        previous,
        previous_matches,
        algorithm,
        config,
        exec,
    )?;
    Ok(IncrementalUpdate {
        graph,
        counts: out.counts,
        matches: out.matches,
        stats: out.stats,
        match_stats: out.match_stats,
    })
}

/// [`update_batch_exec_with_matches`] minus the compaction: `graph` must
/// be `delta.compact()` (or byte-identical). Callers maintaining many
/// independent batches over one mutation — the continuous subscription
/// engine, where every subscription updates against the same new graph —
/// compact once and share it.
#[allow(clippy::too_many_arguments)]
pub fn update_batch_on(
    delta: &DeltaGraph,
    graph: &Graph,
    specs: &[CensusSpec<'_>],
    previous: &[CountVector],
    previous_matches: &[Option<Arc<MatchList>>],
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<UpdateOutcome, CensusError> {
    assert_eq!(
        specs.len(),
        previous_matches.len(),
        "one previous match-list slot per spec"
    );
    assert_eq!(
        specs.len(),
        previous.len(),
        "one previous CountVector per spec"
    );
    for (spec, prev) in specs.iter().zip(previous) {
        spec.validate(graph)?;
        assert_eq!(
            prev.len(),
            graph.num_nodes(),
            "previous counts cover a different node set"
        );
    }

    let radii: Vec<Option<u32>> = specs.iter().map(CensusSpec::dirty_radius).collect();
    let k_max = radii.iter().flatten().copied().max().unwrap_or(0);
    let index = DirtyIndex::build(delta, k_max);

    // Per-spec dirty focal sets: focal ∩ within(dirty radius).
    let mut stats = UpdateStats {
        touched_endpoints: delta.touched_endpoints().len(),
        ..UpdateStats::default()
    };
    let mut dirty_sets: Vec<Vec<NodeId>> = Vec::with_capacity(specs.len());
    let mut restricted: Vec<CensusSpec<'_>> = Vec::with_capacity(specs.len());
    for (spec, radius) in specs.iter().zip(&radii) {
        let focal = spec.focal().nodes(graph);
        let dirty: Vec<NodeId> = focal
            .iter()
            .copied()
            .filter(|&n| match radius {
                Some(r) => index.is_dirty(n, *r),
                None => true,
            })
            .collect();
        stats.dirty_focal += dirty.len();
        stats.clean_focal += focal.len() - dirty.len();
        let mut r =
            CensusSpec::single(spec.pattern(), spec.k()).with_focal(FocalNodes::Set(dirty.clone()));
        if let Some(sp) = spec.subpattern_name() {
            r = r.with_subpattern(sp);
        }
        dirty_sets.push(dirty);
        restricted.push(r);
    }

    // Maintain the global match lists the caller handed in. One
    // maintained list per distinct pattern: specs sharing a pattern
    // (by pointer, as in `run_batch_exec`) share the work.
    let mut match_stats = MaintainStats::default();
    let mut maintained: Vec<Option<Arc<MatchList>>> = vec![None; specs.len()];
    for i in 0..specs.len() {
        let Some(prev_list) = &previous_matches[i] else {
            continue;
        };
        if let Some(j) = (0..i).find(|&j| {
            maintained[j].is_some() && std::ptr::eq(specs[j].pattern(), specs[i].pattern())
        }) {
            maintained[i] = maintained[j].clone();
            continue;
        }
        if let Some((list, st)) =
            maintain_match_list(delta, graph, specs[i].pattern(), prev_list, exec.resolve())
        {
            match_stats.absorb(&st);
            maintained[i] = Some(Arc::new(list));
        }
    }

    // Re-census the dirty nodes only. With an all-clean batch there is
    // nothing to run (maintained lists still carry over).
    let fresh = if stats.dirty_focal == 0 {
        None
    } else {
        let provided: Vec<Option<Arc<MatchList>>> = maintained.clone();
        Some(run_batch_exec(
            graph,
            &restricted,
            algorithm,
            config,
            exec,
            &provided,
            None,
        )?)
    };

    // Splice: dirty nodes take the fresh count, clean focal nodes keep
    // their previous one. The focal mask matches a full recompute's.
    let mut counts = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let mask = spec.focal().mask(graph);
        let mut dirty_mask = vec![false; graph.num_nodes()];
        for &n in &dirty_sets[i] {
            dirty_mask[n.index()] = true;
        }
        let mut cv = CountVector::new(graph.num_nodes(), mask);
        for n in graph.node_ids() {
            if !cv.is_focal(n) {
                continue;
            }
            let v = if dirty_mask[n.index()] {
                fresh
                    .as_ref()
                    .expect("dirty nodes imply a fresh run")
                    .counts[i]
                    .get(n)
            } else {
                previous[i].get(n)
            };
            cv.set(n, v);
        }
        counts.push(cv);
    }

    // Lists for the caller's next round: prefer the fresh run's (for
    // slots it filled — it echoes provided lists and computes missing
    // ones), falling back to maintained lists (e.g. ND-BAS never
    // materializes lists, and an all-clean batch skips the run).
    let matches: Vec<Option<Arc<MatchList>>> = match &fresh {
        Some(batch) => batch
            .matches
            .iter()
            .zip(&maintained)
            .map(|(f, m)| f.clone().or_else(|| m.clone()))
            .collect(),
        None => maintained,
    };

    Ok(UpdateOutcome {
        counts,
        matches,
        stats,
        match_stats,
    })
}

/// Counts, match lists, and accounting of one [`update_batch_on`] call
/// (an [`IncrementalUpdate`] without the graph, which the caller owns).
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Per-spec counts, bit-identical to a full recompute.
    pub counts: Vec<CountVector>,
    /// Per-spec global match lists on the new graph, when available.
    pub matches: Vec<Option<Arc<MatchList>>>,
    /// Work accounting.
    pub stats: UpdateStats,
    /// Match-list maintenance accounting (summed over specs).
    pub match_stats: MaintainStats,
}

/// Single-spec convenience wrapper around [`update_batch_exec`].
pub fn update_census_exec(
    delta: &DeltaGraph,
    spec: &CensusSpec<'_>,
    previous: &CountVector,
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<IncrementalUpdate, CensusError> {
    update_batch_exec(
        delta,
        std::slice::from_ref(spec),
        std::slice::from_ref(previous),
        algorithm,
        config,
        exec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_census::run_census_exec;
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;
    use std::sync::Arc;

    fn ring(n: u32) -> Arc<Graph> {
        let mut b = GraphBuilder::undirected();
        for _ in 0..n {
            b.add_node(Label(0));
        }
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        Arc::new(b.build())
    }

    #[test]
    fn localized_delta_dirties_a_strict_subset_and_counts_match_full() {
        let g = ring(64);
        let mut d = DeltaGraph::new(g.clone());
        // One chord far from most of the ring.
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();

        let p = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let spec = CensusSpec::single(&p, 1);
        let prev = run_census_exec(
            &g,
            &spec,
            Algorithm::NdPivot,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();

        let up = update_census_exec(
            &d,
            &spec,
            &prev,
            Algorithm::NdPivot,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();

        assert!(up.stats.dirty_focal > 0);
        assert!(
            up.stats.dirty_focal < g.num_nodes(),
            "localized delta must not dirty every node"
        );
        let full = run_census_exec(
            &up.graph,
            &spec,
            Algorithm::NdPivot,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        assert_eq!(up.counts[0], full);
        // The chord creates exactly one triangle 0-1-2.
        assert_eq!(up.counts[0].get(NodeId(1)), 1);
    }

    #[test]
    fn countsp_dirty_radius_extends_beyond_k() {
        // Regression: COUNTSP matches are global — only the subpattern
        // image must land in S(n, k) — so the chord 0-2 (creating
        // triangle 0-1-2) changes node 1's k=0 count even though node 1
        // is 1 > k hops from both touched endpoints. The dirty radius
        // must be widened by the pattern diameter bound.
        let g = ring(16);
        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();

        let p =
            Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }").unwrap();
        let spec = CensusSpec::single(&p, 0).with_subpattern("one");
        let prev = run_census_exec(
            &g,
            &spec,
            Algorithm::NdPivot,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        assert_eq!(prev.get(NodeId(1)), 0);
        let up = update_census_exec(
            &d,
            &spec,
            &prev,
            Algorithm::NdPivot,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        let full = run_census_exec(
            &up.graph,
            &spec,
            Algorithm::NdPivot,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        assert_eq!(up.counts[0], full);
        assert!(up.counts[0].get(NodeId(1)) > 0);
        // Still a strict subset of the ring.
        assert!(up.stats.dirty_focal < g.num_nodes());
    }

    #[test]
    fn countsp_dirty_radius_is_k_plus_the_diameter() {
        // A 4-node star has diameter 2, one less than |V(p)| - 1: a
        // changed match holds a touched pair, so its leaf images lie
        // within 2 of a touched endpoint and k + 2 hops bound the dirty
        // set. A ring with a chord every 8 nodes gives the star centers.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(64, Label(0));
        for i in 0..64 {
            b.add_edge(NodeId(i), NodeId((i + 1) % 64));
            if i % 8 == 0 {
                b.add_edge(NodeId(i), NodeId((i + 3) % 64));
            }
        }
        let g = Arc::new(b.build());
        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(20), NodeId(22)).unwrap();
        d.delete_edge(NodeId(40), NodeId(43)).unwrap();

        let p =
            Pattern::parse("PATTERN star { ?A-?B; ?A-?C; ?A-?D; SUBPATTERN leaf {?B;} }").unwrap();
        let k = 1;
        let spec = CensusSpec::single(&p, k).with_subpattern("leaf");
        assert_eq!(spec.dirty_radius(), Some(k + 2));
        for algorithm in [Algorithm::NdPivot, Algorithm::PtOpt] {
            let run = |g: &Graph| {
                run_census_exec(
                    g,
                    &spec,
                    algorithm,
                    &PtConfig::default(),
                    &ExecConfig::sequential(),
                )
                .unwrap()
            };
            let prev = run(&g);
            let up = update_census_exec(
                &d,
                &spec,
                &prev,
                algorithm,
                &PtConfig::default(),
                &ExecConfig::sequential(),
            )
            .unwrap();
            assert_eq!(up.counts[0], run(&up.graph));
            assert_ne!(up.counts[0], prev, "the delta must change some count");
            let index = DirtyIndex::build(&d, k + 3);
            let wider = g.node_ids().filter(|&n| index.is_dirty(n, k + 3)).count();
            assert!(
                up.stats.dirty_focal < wider,
                "k + diameter dirtied {} nodes, k + |V(p)| - 1 would dirty {wider}",
                up.stats.dirty_focal
            );
        }
    }

    #[test]
    fn clean_delta_is_a_cheap_no_op() {
        let g = ring(16);
        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();
        d.delete_edge(NodeId(0), NodeId(2)).unwrap();

        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let spec = CensusSpec::single(&p, 2);
        let prev = run_census_exec(
            &g,
            &spec,
            Algorithm::PtBaseline,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        let up = update_census_exec(
            &d,
            &spec,
            &prev,
            Algorithm::PtBaseline,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        assert_eq!(up.stats.dirty_focal, 0);
        assert_eq!(up.stats.clean_focal, 16);
        assert_eq!(up.counts[0], prev);
        assert_eq!(up.graph.fingerprint(), g.fingerprint());
    }

    #[test]
    fn explicit_focal_sets_are_respected() {
        let g = ring(32);
        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(4), NodeId(6)).unwrap();

        let p = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let focal: Vec<NodeId> = (0..10).map(NodeId).collect();
        let spec = CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(focal));
        let prev = run_census_exec(
            &g,
            &spec,
            Algorithm::PtOpt,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        let up = update_census_exec(
            &d,
            &spec,
            &prev,
            Algorithm::PtOpt,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        let full = run_census_exec(
            &up.graph,
            &spec,
            Algorithm::PtOpt,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        assert_eq!(up.counts[0], full);
        // Only focal nodes near the chord were re-censused.
        assert!(up.stats.dirty_focal <= 5);
    }
}
