//! Unified parallel census execution (an extension beyond the paper).
//!
//! [`run_with_matches`] is the one entry point for every algorithm. Each
//! family has a natural unit of independent work, and all of them merge
//! by plain addition — so each has a deterministic parallel path whose
//! counts are **bit-identical** to the sequential run:
//!
//! * **ND-PVOT** — per-focal-node counts depend only on that node's
//!   neighborhood, so the focal set is sharded over the one pivot sweep
//!   (`nd_pivot::sweep`, which the batch engine runs too).
//! * **ND-BAS / ND-DIFF** — the focal set is sharded and each worker runs
//!   the sequential algorithm on a shard-restricted clone of the spec
//!   (all other spec fields — subpattern, radius, pattern — preserved
//!   verbatim). ND-DIFF keeps its differential chain *within* each shard.
//! * **PT-BAS** — each match contributes independent `+1`s, so the match
//!   list is split into contiguous runs and their counts are summed.
//! * **PT-OPT / PT-RND** — the seeded plan (centers + clustering) is built
//!   once; each match *group*'s traversal contribution is additive, so
//!   groups are partitioned across workers. The PMD relaxation converges
//!   to the same fixed point in any pop order, so even PT-RND's
//!   thread-local RNGs cannot change the counts (only queue-order cost
//!   metrics such as reinsertions may shift).
//! * **Pairwise INTERSECTION / UNION** — the global match list is
//!   enumerated once. ND-BAS and ND-PVOT count each pair independently of
//!   which other pairs are in the selector, so the normalized pair list is
//!   sharded into explicit [`PairSelector::Pairs`] sub-queries. Pairwise
//!   PT-BAS / PT-RND / PT-OPT run PT-OPT's cluster kernel once, with its
//!   clusters partitioned as above; each chunk credits pairs into its own
//!   [`PairCounts`].
//!
//! All of them split their work with `ego_graph::parallel::fan_out`,
//! the one place the census and the matcher spawn threads: one chunk runs
//! on the calling thread, more run on scoped threads and merge in chunk
//! order. Traversal statistics merge with [`TraversalStats::add`], and
//! their totals equal the sequential run's (the same work is done, just
//! partitioned); ND-DIFF's restarted chains redo match-set work the
//! counters do not measure. [`exec_matches`] runs the CN matcher at the
//! same thread count; its match list, order included, does not depend
//! on it.

use crate::cost::{self, GraphShape};
use crate::pairwise::{PairCensusSpec, PairCounts, PairSelector};
use crate::result::{CensusError, CountVector};
use crate::spec::{CensusSpec, FocalNodes, PtConfig, PtOrdering};
use crate::tstats::TraversalStats;
use crate::Algorithm;
use ego_graph::parallel::{fan_out, workers_for};
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

/// Compute the global match list with the CN matcher on `threads`
/// workers. The list, order included, is the same at every thread count.
pub fn exec_matches(g: &Graph, p: &Pattern, threads: usize) -> MatchList {
    let mut stats = ego_matcher::MatchStats::default();
    MatchList::from_embeddings(p, ego_matcher::cn::enumerate(g, p, &mut stats, threads))
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
    let threads = exec.resolve();
    let matches = match algorithm {
        // ND-BAS needs no global match phase.
        Algorithm::NdBaseline => MatchList::default(),
        _ => exec_matches(g, spec.pattern(), threads),
    };
    run_with_matches(g, spec, &matches, algorithm, config, threads)
}

/// Run `algorithm` over precomputed global `matches` (ignored by ND-BAS)
/// with `threads` workers. Counts are identical at every thread count.
pub fn run_with_matches(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    algorithm: Algorithm,
    config: &PtConfig,
    threads: usize,
) -> Result<(CountVector, TraversalStats), CensusError> {
    spec.validate(g)?;
    match algorithm {
        Algorithm::NdBaseline => {
            focal_shards(g, spec, threads, |s| crate::nd_bas::run_instrumented(g, s))
        }
        Algorithm::NdPivot => crate::nd_pivot::run_threads(g, spec, matches, threads),
        Algorithm::NdDiff => focal_shards(g, spec, threads, |s| {
            crate::nd_diff::run_instrumented(g, s, matches)
        }),
        Algorithm::PtBaseline => fan_out(
            matches.matches(),
            workers_for(matches.len(), threads),
            |part| crate::pt_bas::run_slice(g, spec, part),
            first_error(add_census),
        ),
        Algorithm::PtOpt => crate::pt_opt::run_threads(g, spec, matches, config, threads),
        Algorithm::PtRandom => {
            let cfg = PtConfig {
                ordering: PtOrdering::Random,
                ..config.clone()
            };
            crate::pt_opt::run_threads(g, spec, matches, &cfg, threads)
        }
        Algorithm::Auto => {
            let chosen = cost::choose(g, &GraphShape::of(g), spec, matches.len());
            run_with_matches(g, spec, matches, chosen, config, threads)
        }
    }
}

/// Run `run` on clones of `spec` restricted to shards of its focal set.
/// Its counts must depend only on the spec's own focal nodes; shards are
/// disjoint, so each node is written by exactly one worker.
fn focal_shards<F>(
    g: &Graph,
    spec: &CensusSpec<'_>,
    threads: usize,
    run: F,
) -> Result<(CountVector, TraversalStats), CensusError>
where
    F: Fn(&CensusSpec<'_>) -> Result<(CountVector, TraversalStats), CensusError> + Sync,
{
    let focal = spec.focal().nodes(g);
    let shard = |shard: &[NodeId]| {
        if shard.len() == focal.len() {
            return run(spec); // one chunk: the spec as given
        }
        // Clone the whole spec so every field (subpattern, radius,
        // pattern — and anything added later) carries over; only the
        // focal set is overridden.
        run(&spec.clone().with_focal(FocalNodes::Set(shard.to_vec())))
    };
    fan_out(
        &focal,
        workers_for(focal.len(), threads),
        shard,
        first_error(add_census),
    )
}

/// Run a pairwise census query under an [`ExecConfig`]: the global match
/// list is enumerated once and handed to the algorithm's kernel, which
/// splits its own work (see [`pair_shards`]). The merged result is
/// identical at every thread count.
pub fn run_pair_census_exec(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<PairCounts, CensusError> {
    let threads = exec.resolve().max(1);
    let matches = match algorithm {
        Algorithm::NdBaseline => MatchList::default(),
        _ => exec_matches(g, spec.pattern(), threads),
    };
    crate::pairwise::run_with_matches(g, spec, &matches, algorithm, config, threads)
}

/// Run `run` on clones of `spec` restricted to shards of its normalized
/// pair list, as explicit [`PairSelector::Pairs`] sub-queries. Its counts
/// must not depend on which other pairs are selected; shards are
/// disjoint, so the merge is a plain addition.
pub(crate) fn pair_shards(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    threads: usize,
    run: impl Fn(&PairCensusSpec<'_>) -> Result<PairCounts, CensusError> + Sync,
) -> Result<PairCounts, CensusError> {
    let pairs = spec.selector().pairs(g);
    let shard = |shard: &[(NodeId, NodeId)]| {
        if shard.len() == pairs.len() {
            // One chunk: the spec as given, never a copy of every pair.
            return run(spec);
        }
        run(&spec
            .clone()
            .with_selector(PairSelector::Pairs(shard.to_vec())))
    };
    fan_out(
        &pairs,
        workers_for(pairs.len(), threads),
        shard,
        first_error(|acc: &mut PairCounts, part| acc.merge_add(&part)),
    )
}

/// Lift a merge of values to a merge of results: the first error (in
/// chunk order) wins.
fn first_error<T>(
    add: impl Fn(&mut T, T),
) -> impl FnMut(&mut Result<T, CensusError>, Result<T, CensusError>) {
    move |acc, part| match (acc.as_mut(), part) {
        (Ok(a), Ok(b)) => add(a, b),
        (Ok(_), Err(e)) => *acc = Err(e),
        (Err(_), _) => {}
    }
}

/// Merge a single-spec census by addition.
fn add_census(acc: &mut (CountVector, TraversalStats), part: (CountVector, TraversalStats)) {
    acc.0.merge_add(&part.0);
    acc.1.add(&part.1);
}

/// Merge a multi-spec census (one count vector per spec) by addition.
pub(crate) fn add_censuses(
    acc: &mut (Vec<CountVector>, TraversalStats),
    part: (Vec<CountVector>, TraversalStats),
) {
    for (cv, p) in acc.0.iter_mut().zip(&part.0) {
        cv.merge_add(p);
    }
    acc.1.add(&part.1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_matches;
    use crate::pairwise::{PairCensusSpec, PairSelector};
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;

    /// [`run_with_matches`]'s counts under the default config.
    fn counts(
        g: &Graph,
        spec: &CensusSpec<'_>,
        m: &MatchList,
        algorithm: Algorithm,
        threads: usize,
    ) -> Result<CountVector, CensusError> {
        run_with_matches(g, spec, m, algorithm, &PtConfig::default(), threads).map(|(cv, _)| cv)
    }

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
            let par = counts(&g, &spec, &m, Algorithm::NdPivot, threads).unwrap();
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
        let cv = counts(&g, &spec, &m, Algorithm::NdPivot, 8).unwrap();
        assert!(cv.get(NodeId(3)) > 0);
    }

    #[test]
    fn subpattern_parallel() {
        let g = ring_with_chords(32);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }").unwrap();
        let m = global_matches(&g, &p);
        let spec = CensusSpec::single(&p, 1).with_subpattern("s");
        let seq = crate::nd_pivot::run(&g, &spec, &m).unwrap();
        let par = counts(&g, &spec, &m, Algorithm::NdPivot, 4).unwrap();
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
            let par = counts(&g, &spec, &m, Algorithm::NdBaseline, threads).unwrap();
            assert_eq!(par, seq, "nd_bas threads={threads}");

            let seq = crate::nd_diff::run(&g, &spec, &m).unwrap();
            let par = counts(&g, &spec, &m, Algorithm::NdDiff, threads).unwrap();
            assert_eq!(par, seq, "nd_diff threads={threads}");

            let seq = crate::pt_bas::run(&g, &spec, &m).unwrap();
            let par = counts(&g, &spec, &m, Algorithm::PtBaseline, threads).unwrap();
            assert_eq!(par, seq, "pt_bas threads={threads}");

            let seq = crate::pt_opt::run(&g, &spec, &m, &config).unwrap();
            let par = counts(&g, &spec, &m, Algorithm::PtOpt, threads).unwrap();
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
            let (_, par) = run_with_matches(
                &g,
                &spec,
                &m,
                Algorithm::PtBaseline,
                &PtConfig::default(),
                threads,
            )
            .unwrap();
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
        assert!(counts(&g, &spec, &m, Algorithm::NdDiff, 4).is_err());
    }
}
