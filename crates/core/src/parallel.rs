//! Unified parallel census execution (an extension beyond the paper).
//!
//! Every algorithm family has a natural unit of independent work, and all
//! of them merge by plain addition — so each gains a deterministic
//! parallel path whose counts are **bit-identical** to the sequential run:
//!
//! * **ND-BAS / ND-PVOT / ND-DIFF** — per-focal-node counts depend only on
//!   that node's neighborhood, so the focal set is sharded and each worker
//!   runs the sequential algorithm on a shard-restricted clone of the
//!   spec (all other spec fields — subpattern, radius, pattern —
//!   preserved verbatim). ND-DIFF keeps its differential chain *within*
//!   each shard, with a per-worker BFS scratch.
//! * **PT-BAS** — each match contributes independent `+1`s, so the match
//!   list is split into contiguous ranges and per-range counts are summed.
//! * **PT-OPT / PT-RND** — the seeded plan (centers + clustering) is built
//!   once; each match *group*'s traversal contribution is additive, so
//!   groups are partitioned across workers. The PMD relaxation converges
//!   to the same fixed point in any pop order, so even PT-RND's
//!   thread-local RNGs cannot change the counts (only queue-order cost
//!   metrics such as reinsertions may shift).
//! * **Pairwise INTERSECTION / UNION** — per-pair counts are independent
//!   of which other pairs are in the selector, so the normalized pair list
//!   is sharded into explicit [`PairSelector::Pairs`] sub-queries.
//!
//! Traversal statistics merge with [`TraversalStats::add`]. For the
//! shard/range/group parallel paths the totals equal the sequential run's
//! (the same work is done, just partitioned); ND-DIFF is the exception —
//! restarting the chain at each shard boundary does genuinely different
//! (slightly more) traversal work, which the stats report faithfully.
//!
//! Uses `std::thread::scope` — no extra dependencies.

use crate::result::{CensusError, CountVector};
use crate::spec::{CensusSpec, FocalNodes, PtConfig, PtOrdering};
use crate::tstats::TraversalStats;
use crate::Algorithm;
use ego_graph::{Graph, NodeId};
use ego_matcher::MatchList;
use ego_pattern::Pattern;

/// How a census query is executed: thread count (and room for future
/// execution knobs such as shard granularity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads. `0` means "auto": resolve to
    /// `std::thread::available_parallelism()` at run time.
    pub threads: usize,
}

impl ExecConfig {
    /// Single-threaded execution (exactly the sequential code paths).
    pub fn sequential() -> Self {
        ExecConfig { threads: 1 }
    }

    /// Use every available hardware thread.
    pub fn auto() -> Self {
        ExecConfig { threads: 0 }
    }

    /// Use exactly `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig { threads }
    }

    /// The concrete worker count this config resolves to.
    pub fn resolve(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::auto()
    }
}

/// Compute the global match list, using the parallel matcher when more
/// than one thread is available. The embedding set (and hence the
/// deduplicated match list) is identical to the sequential matcher's.
pub fn exec_matches(g: &Graph, p: &Pattern, threads: usize) -> MatchList {
    if threads > 1 {
        MatchList::from_embeddings(p, ego_matcher::parallel::enumerate_parallel(g, p, threads))
    } else {
        crate::global_matches(g, p)
    }
}

/// Run any census algorithm under an [`ExecConfig`]. Counts are identical
/// to [`crate::run_census_with`] for every algorithm and thread count.
pub fn run_census_exec(
    g: &Graph,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<CountVector, CensusError> {
    run_census_exec_instrumented(g, spec, algorithm, config, exec).map(|(cv, _)| cv)
}

/// [`run_census_exec`] with merged per-thread traversal statistics.
pub fn run_census_exec_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<(CountVector, TraversalStats), CensusError> {
    spec.validate(g)?;
    let threads = exec.resolve();
    if algorithm == Algorithm::NdBaseline {
        // ND-BAS needs no global match phase.
        return run_nd_bas_parallel(g, spec, threads).map(|cv| (cv, TraversalStats::default()));
    }
    let matches = exec_matches(g, spec.pattern(), threads);
    match algorithm {
        Algorithm::NdBaseline => unreachable!("handled above"),
        Algorithm::NdPivot => run_nd_pivot_parallel_instrumented(g, spec, &matches, threads),
        Algorithm::NdDiff => run_nd_diff_parallel_instrumented(g, spec, &matches, threads),
        Algorithm::PtBaseline => run_pt_bas_parallel_instrumented(g, spec, &matches, threads),
        Algorithm::PtOpt => run_pt_opt_parallel_instrumented(g, spec, &matches, config, threads),
        Algorithm::PtRandom => {
            let cfg = PtConfig {
                ordering: PtOrdering::Random,
                ..config.clone()
            };
            run_pt_opt_parallel_instrumented(g, spec, &matches, &cfg, threads)
        }
        Algorithm::Auto => match crate::chooser::choose(g, spec, &matches) {
            Algorithm::PtOpt => {
                run_pt_opt_parallel_instrumented(g, spec, &matches, config, threads)
            }
            _ => run_nd_pivot_parallel_instrumented(g, spec, &matches, threads),
        },
    }
}

/// Shard the focal set and run `run_shard` on a spec clone restricted to
/// each shard. `run_shard(spec)` must produce counts that depend only on
/// the spec's own focal nodes; shard counts then merge by addition
/// (shards are disjoint, so each node is written by exactly one worker).
fn focal_shard_run<F>(
    g: &Graph,
    spec: &CensusSpec<'_>,
    threads: usize,
    run_shard: F,
) -> Result<(CountVector, TraversalStats), CensusError>
where
    F: Fn(&CensusSpec<'_>) -> Result<(CountVector, TraversalStats), CensusError> + Sync,
{
    let threads = threads.max(1);
    let focal = spec.focal().nodes(g);
    if threads == 1 || focal.len() < 2 * threads {
        return run_shard(spec);
    }
    spec.validate(g)?;

    let chunk = focal.len().div_ceil(threads);
    let shards: Vec<&[NodeId]> = focal.chunks(chunk).collect();

    let results: Vec<Result<(CountVector, TraversalStats), CensusError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| {
                    // Clone the whole spec so every field (subpattern,
                    // radius, pattern — and anything added later) carries
                    // over; only the focal set is overridden.
                    let shard_spec = spec.clone().with_focal(FocalNodes::Set(shard.to_vec()));
                    let run_shard = &run_shard;
                    scope.spawn(move || run_shard(&shard_spec))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("census worker panicked"))
                .collect()
        });

    let mask = spec.focal().mask(g);
    let mut merged = CountVector::new(g.num_nodes(), mask);
    let mut tstats = TraversalStats::default();
    for r in results {
        let (cv, ts) = r?;
        merged.merge_add(&cv);
        tstats.add(&ts);
    }
    Ok((merged, tstats))
}

/// Run ND-BAS with `threads` workers over focal shards. Identical counts
/// to the sequential [`crate::nd_bas::run`].
pub fn run_nd_bas_parallel(
    g: &Graph,
    spec: &CensusSpec<'_>,
    threads: usize,
) -> Result<CountVector, CensusError> {
    focal_shard_run(g, spec, threads, |s| {
        crate::nd_bas::run(g, s).map(|cv| (cv, TraversalStats::default()))
    })
    .map(|(cv, _)| cv)
}

/// Run ND-PVOT with `threads` worker threads. Results are identical to
/// the sequential [`crate::nd_pivot::run`].
pub fn run_nd_pivot_parallel(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<CountVector, CensusError> {
    run_nd_pivot_parallel_instrumented(g, spec, matches, threads).map(|(cv, _)| cv)
}

/// [`run_nd_pivot_parallel`] with merged per-thread traversal statistics.
pub fn run_nd_pivot_parallel_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    focal_shard_run(g, spec, threads, |s| {
        crate::nd_pivot::run_instrumented(g, s, matches)
    })
}

/// Run ND-DIFF with `threads` workers: each shard runs its own
/// differential chain (per-worker BFS scratch), which restarts at the
/// shard boundary but produces exactly the sequential counts — each
/// node's count is its neighborhood's match total regardless of how the
/// chain reached it.
pub fn run_nd_diff_parallel(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<CountVector, CensusError> {
    run_nd_diff_parallel_instrumented(g, spec, matches, threads).map(|(cv, _)| cv)
}

/// [`run_nd_diff_parallel`] with merged per-thread traversal statistics.
pub fn run_nd_diff_parallel_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    focal_shard_run(g, spec, threads, |s| {
        crate::nd_diff::run_instrumented(g, s, matches)
    })
}

/// Run PT-BAS with `threads` workers over contiguous match ranges.
/// Identical counts to the sequential [`crate::pt_bas::run`].
pub fn run_pt_bas_parallel(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<CountVector, CensusError> {
    run_pt_bas_parallel_instrumented(g, spec, matches, threads).map(|(cv, _)| cv)
}

/// [`run_pt_bas_parallel`] with merged per-thread traversal statistics.
pub fn run_pt_bas_parallel_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    let threads = threads.max(1);
    let n = matches.len();
    if threads == 1 || n < 2 * threads {
        return crate::pt_bas::run_instrumented(g, spec, matches);
    }
    spec.validate(g)?;

    let chunk = n.div_ceil(threads);
    let ranges: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect();

    let results: Vec<Result<(CountVector, TraversalStats), CensusError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        crate::pt_bas::run_range_instrumented(g, spec, matches, range)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("census worker panicked"))
                .collect()
        });

    let mut merged = CountVector::new(g.num_nodes(), spec.focal().mask(g));
    let mut tstats = TraversalStats::default();
    for r in results {
        let (cv, ts) = r?;
        merged.merge_add(&cv);
        tstats.add(&ts);
    }
    Ok((merged, tstats))
}

/// Run PT-OPT (or PT-RND via `config.ordering`) with `threads` workers
/// over partitions of the match clustering. The seeded plan (centers +
/// K-means groups) is built once, exactly as the sequential path builds
/// it; group traversals then contribute additively. Identical counts to
/// the sequential [`crate::pt_opt::run`].
pub fn run_pt_opt_parallel(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    config: &PtConfig,
    threads: usize,
) -> Result<CountVector, CensusError> {
    run_pt_opt_parallel_instrumented(g, spec, matches, config, threads).map(|(cv, _)| cv)
}

/// [`run_pt_opt_parallel`] with merged per-thread traversal statistics.
pub fn run_pt_opt_parallel_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    config: &PtConfig,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    crate::pt_opt::run_threads(g, spec, matches, config, threads)
}

/// Run a pairwise census query under an [`ExecConfig`]: the normalized
/// pair list is sharded into explicit [`crate::pairwise::PairSelector::Pairs`]
/// sub-queries evaluated sequentially per worker. Per-pair counts do not
/// depend on which other pairs are selected, so the merged result is
/// identical to [`crate::pairwise::run_pair_census_with`].
pub fn run_pair_census_exec(
    g: &Graph,
    spec: &crate::pairwise::PairCensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<crate::pairwise::PairCounts, CensusError> {
    use crate::pairwise::{run_pair_census_with, PairCounts, PairSelector};
    let threads = exec.resolve().max(1);
    let pairs = spec.selector().pairs(g);
    if threads == 1 || pairs.len() < 2 * threads {
        return run_pair_census_with(g, spec, algorithm, config);
    }

    let chunk = pairs.len().div_ceil(threads);
    let shards: Vec<&[(NodeId, NodeId)]> = pairs.chunks(chunk).collect();

    let results: Vec<Result<PairCounts, CensusError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let shard_spec = spec
                    .clone()
                    .with_selector(PairSelector::Pairs(shard.to_vec()));
                scope.spawn(move || run_pair_census_with(g, &shard_spec, algorithm, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("census worker panicked"))
            .collect()
    });

    let mut merged = PairCounts::default();
    for r in results {
        merged.merge_add(&r?);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_matches;
    use crate::pairwise::{PairCensusSpec, PairSelector};
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;

    fn ring_with_chords(n: u32) -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(n as usize, Label(0));
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n));
            b.add_edge(NodeId(i), NodeId((i + 2) % n));
        }
        b.build()
    }

    #[test]
    fn matches_sequential_results() {
        let g = ring_with_chords(64);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = global_matches(&g, &p);
        let spec = CensusSpec::single(&p, 2);
        let seq = crate::nd_pivot::run(&g, &spec, &m).unwrap();
        for threads in [2, 3, 8] {
            let par = run_nd_pivot_parallel(&g, &spec, &m, threads).unwrap();
            for n in g.node_ids() {
                assert_eq!(par.get(n), seq.get(n), "threads={threads} node={n:?}");
            }
        }
    }

    #[test]
    fn small_focal_set_falls_back() {
        let g = ring_with_chords(16);
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let m = global_matches(&g, &p);
        let spec = CensusSpec::single(&p, 1).with_focal(FocalNodes::Set(vec![NodeId(3)]));
        let cv = run_nd_pivot_parallel(&g, &spec, &m, 8).unwrap();
        assert!(cv.get(NodeId(3)) > 0);
    }

    #[test]
    fn subpattern_parallel() {
        let g = ring_with_chords(32);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }").unwrap();
        let m = global_matches(&g, &p);
        let spec = CensusSpec::single(&p, 1).with_subpattern("s");
        let seq = crate::nd_pivot::run(&g, &spec, &m).unwrap();
        let par = run_nd_pivot_parallel(&g, &spec, &m, 4).unwrap();
        for n in g.node_ids() {
            assert_eq!(par.get(n), seq.get(n));
        }
    }

    #[test]
    fn every_family_matches_sequential() {
        let g = ring_with_chords(48);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = global_matches(&g, &p);
        let spec = CensusSpec::single(&p, 2);
        let config = PtConfig::default();
        for threads in [2, 4, 7] {
            let seq = crate::nd_bas::run(&g, &spec).unwrap();
            let par = run_nd_bas_parallel(&g, &spec, threads).unwrap();
            assert_eq!(par, seq, "nd_bas threads={threads}");

            let seq = crate::nd_diff::run(&g, &spec, &m).unwrap();
            let par = run_nd_diff_parallel(&g, &spec, &m, threads).unwrap();
            assert_eq!(par, seq, "nd_diff threads={threads}");

            let seq = crate::pt_bas::run(&g, &spec, &m).unwrap();
            let par = run_pt_bas_parallel(&g, &spec, &m, threads).unwrap();
            assert_eq!(par, seq, "pt_bas threads={threads}");

            let seq = crate::pt_opt::run(&g, &spec, &m, &config).unwrap();
            let par = run_pt_opt_parallel(&g, &spec, &m, &config, threads).unwrap();
            assert_eq!(par, seq, "pt_opt threads={threads}");
        }
    }

    #[test]
    fn pt_bas_stats_are_thread_invariant() {
        let g = ring_with_chords(40);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = global_matches(&g, &p);
        let spec = CensusSpec::single(&p, 1);
        let (_, seq) = crate::pt_bas::run_instrumented(&g, &spec, &m).unwrap();
        for threads in [2, 5] {
            let (_, par) = run_pt_bas_parallel_instrumented(&g, &spec, &m, threads).unwrap();
            assert_eq!(
                par.edges_traversed, seq.edges_traversed,
                "threads={threads}"
            );
            assert_eq!(par.nodes_expanded, seq.nodes_expanded, "threads={threads}");
        }
    }

    #[test]
    fn exec_dispatch_matches_run_census() {
        let g = ring_with_chords(40);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let spec = CensusSpec::single(&p, 1);
        let config = PtConfig::default();
        for algo in [
            Algorithm::NdBaseline,
            Algorithm::NdPivot,
            Algorithm::NdDiff,
            Algorithm::PtBaseline,
            Algorithm::PtRandom,
            Algorithm::PtOpt,
            Algorithm::Auto,
        ] {
            let seq = crate::run_census_with(&g, &spec, algo, &config).unwrap();
            for exec in [ExecConfig::sequential(), ExecConfig::with_threads(4)] {
                let par = run_census_exec(&g, &spec, algo, &config, &exec).unwrap();
                assert_eq!(par, seq, "{algo:?} exec={exec:?}");
            }
        }
    }

    #[test]
    fn exec_config_resolution() {
        assert_eq!(ExecConfig::sequential().resolve(), 1);
        assert_eq!(ExecConfig::with_threads(3).resolve(), 3);
        assert!(ExecConfig::auto().resolve() >= 1);
        assert_eq!(ExecConfig::default(), ExecConfig::auto());
    }

    #[test]
    fn pairwise_exec_matches_sequential() {
        let g = ring_with_chords(20);
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        for spec in [
            PairCensusSpec::intersection(&p, 1, PairSelector::AllPairs),
            PairCensusSpec::union(&p, 1, PairSelector::AllPairs),
        ] {
            for algo in [Algorithm::NdPivot, Algorithm::PtOpt] {
                let seq =
                    crate::pairwise::run_pair_census_with(&g, &spec, algo, &PtConfig::default())
                        .unwrap();
                let par = run_pair_census_exec(
                    &g,
                    &spec,
                    algo,
                    &PtConfig::default(),
                    &ExecConfig::with_threads(4),
                )
                .unwrap();
                assert_eq!(par.len(), seq.len(), "{algo:?}");
                for (a, b, c) in seq.iter() {
                    assert_eq!(par.get(a, b), c, "{algo:?} pair=({a},{b})");
                }
            }
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        let g = ring_with_chords(32);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = global_matches(&g, &p);
        // ND-DIFF rejects COUNTSP; the subpattern must survive the shard
        // spec cloning for the rejection to fire on every worker.
        let p2 = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }").unwrap();
        let spec = CensusSpec::single(&p2, 1).with_subpattern("s");
        assert!(run_nd_diff_parallel(&g, &spec, &m, 4).is_err());
    }
}
