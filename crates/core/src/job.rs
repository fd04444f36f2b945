//! The one census entry point: [`run`] evaluates a [`Job`] — a single,
//! batched or pairwise census under one algorithm — and returns its
//! [`Outcome`].
//!
//! Every census shape goes through one front. It validates the specs,
//! resolves the thread count, and fills the global match lists once:
//! none for ND-BAS, which never materializes them; a provided list as
//! given; otherwise one [`exec_matches`] per distinct pattern (patterns
//! compared by pointer, so specs sharing one share its list). It then
//! hands the lists to the census's dispatcher:
//!
//! * [`Census::Single`] runs the named kernel exactly
//!   ([`crate::parallel`]) — what the figures and the CLI time;
//! * [`Census::Batch`] runs the batch planner ([`crate::batch`]), with
//!   its documented promotions — the served path;
//! * [`Census::Pair`] runs the pairwise kernels ([`crate::pairwise`]).

use crate::batch::{self, BatchStage};
use crate::centers::CenterIndex;
use crate::cost::Census;
use crate::pairwise::PairCounts;
use crate::parallel::{exec_matches, ExecConfig};
use crate::result::{CensusError, CountVector};
use crate::spec::PtConfig;
use crate::tstats::TraversalStats;
use crate::Algorithm;
use ego_graph::Graph;
use ego_matcher::MatchList;
use std::sync::Arc;

/// One census evaluation: what to count, how, and what the caller
/// already holds. [`Job::new`] fills the defaults; override fields with
/// struct-update syntax.
#[derive(Debug)]
pub struct Job<'s, 'a> {
    /// The census: one spec, a batch of specs, or a pairwise spec.
    pub census: Census<'s, 'a>,
    /// The algorithm every spec runs under (`Auto` resolves per spec).
    pub algorithm: Algorithm,
    /// Pattern-driven tuning.
    pub config: PtConfig,
    /// Worker threads.
    pub exec: ExecConfig,
    /// Global match lists the caller already holds, one slot per spec
    /// (a missing slot is `None`). Each must be the match list of its
    /// spec's pattern on the graph the job runs over.
    pub matches: Vec<Option<Arc<MatchList>>>,
    /// A center index an earlier batch built for the same graph under
    /// this config's center count ([`Outcome::centers`]). Only a batch's
    /// pattern-driven stages read it; the caller owns its freshness
    /// (exact center distances are a correctness input).
    pub centers: Option<CenterIndex>,
}

impl<'s, 'a> Job<'s, 'a> {
    /// `census` under `algorithm` with the default [`PtConfig`], one
    /// thread, and nothing provided.
    pub fn new(census: Census<'s, 'a>, algorithm: Algorithm) -> Self {
        Job {
            census,
            algorithm,
            config: PtConfig::default(),
            exec: ExecConfig::sequential(),
            matches: Vec::new(),
            centers: None,
        }
    }
}

/// What a [`run`] did, in the job's spec order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One count vector per spec (empty for a pairwise job).
    pub counts: Vec<CountVector>,
    /// A pairwise job's counts (empty otherwise).
    pub pairs: PairCounts,
    /// Traversal statistics merged over every thread and stage.
    pub stats: TraversalStats,
    /// The global match list of each spec (`None` under ND-BAS). Specs
    /// sharing a pattern share the `Arc`; a provided list comes back as
    /// given. Callers can keep them for later jobs over the same graph.
    pub matches: Vec<Option<Arc<MatchList>>>,
    /// The center index this run **built**, for the caller to hand to
    /// later batches over the same graph. `None` for single and pairwise
    /// jobs, when no pattern-driven stage ran, when the caller's index
    /// was used, and under [`crate::CenterStrategy::Random`] (whose
    /// centers are a draw from the run's RNG stream, not a property of
    /// the graph).
    pub centers: Option<CenterIndex>,
    /// A batch's executed plan (empty otherwise).
    pub stages: Vec<BatchStage>,
}

/// Run a census [`Job`] on `g`. Counts are identical at every thread
/// count, and for a given census equal across algorithms.
pub fn run(g: &Graph, job: &Job<'_, '_>) -> Result<Outcome, CensusError> {
    let patterns = match job.census {
        Census::Single(spec) => {
            spec.validate(g)?;
            vec![spec.pattern()]
        }
        Census::Batch(specs) => specs
            .iter()
            .map(|spec| spec.validate(g).map(|()| spec.pattern()))
            .collect::<Result<_, _>>()?,
        Census::Pair(spec) => {
            spec.validate(g)?;
            vec![spec.pattern()]
        }
    };
    let threads = job.exec.resolve().max(1);

    let mut matches: Vec<Option<Arc<MatchList>>> = vec![None; patterns.len()];
    if job.algorithm != Algorithm::NdBaseline {
        for (slot, provided) in matches.iter_mut().zip(&job.matches) {
            slot.clone_from(provided);
        }
        for i in 0..patterns.len() {
            if matches[i].is_some() {
                continue;
            }
            let same = (0..patterns.len())
                .find(|&j| matches[j].is_some() && std::ptr::eq(patterns[j], patterns[i]));
            matches[i] = match same {
                Some(j) => matches[j].clone(),
                None => Some(Arc::new(exec_matches(g, patterns[i], threads))),
            };
        }
    }

    let none = MatchList::default();
    let list = matches.first().and_then(Option::as_deref).unwrap_or(&none);
    let (algorithm, config) = (job.algorithm, &job.config);
    let mut outcome = match job.census {
        Census::Single(spec) => {
            let (cv, stats) =
                crate::parallel::run_with_matches(g, spec, list, algorithm, config, threads)?;
            Outcome {
                counts: vec![cv],
                stats,
                ..Outcome::default()
            }
        }
        Census::Batch(specs) => batch::run(g, specs, &matches, job, threads)?,
        Census::Pair(spec) => {
            let (pairs, stats) =
                crate::pairwise::run_with_matches(g, spec, list, algorithm, config, threads)?;
            Outcome {
                pairs,
                stats,
                ..Outcome::default()
            }
        }
    };
    outcome.matches = matches;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::GraphShape;
    use crate::pairwise::{PairCensusSpec, PairSelector};
    use crate::spec::CensusSpec;
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;

    const ALL: [Algorithm; 7] = [
        Algorithm::NdBaseline,
        Algorithm::NdPivot,
        Algorithm::NdDiff,
        Algorithm::PtBaseline,
        Algorithm::PtRandom,
        Algorithm::PtOpt,
        Algorithm::Auto,
    ];

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

    fn tri() -> Pattern {
        Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap()
    }

    #[test]
    fn a_provided_list_comes_back_as_given() {
        let (g, p) = (fixture(), tri());
        let pre = Arc::new(exec_matches(&g, &p, 1));
        let single = CensusSpec::single(&p, 1);
        let batch = [CensusSpec::single(&p, 1), CensusSpec::single(&p, 2)];
        let pair = PairCensusSpec::union(&p, 1, PairSelector::AllPairs);
        for census in [
            Census::Single(&single),
            Census::Batch(&batch),
            Census::Pair(&pair),
        ] {
            for algorithm in [Algorithm::NdPivot, Algorithm::PtOpt, Algorithm::Auto] {
                let job = Job {
                    matches: vec![Some(pre.clone())],
                    ..Job::new(census, algorithm)
                };
                let out = run(&g, &job).unwrap();
                for m in &out.matches {
                    let m = m.as_ref().expect("a list");
                    assert!(Arc::ptr_eq(m, &pre), "{census:?} {algorithm:?}");
                }
            }
        }
    }

    #[test]
    fn nd_bas_never_matches() {
        let (g, p) = (fixture(), tri());
        // A wrong list: ND-BAS must neither read nor return it.
        let bogus = Arc::new(MatchList::default());
        let single = CensusSpec::single(&p, 1);
        let batch = [CensusSpec::single(&p, 1), CensusSpec::single(&p, 2)];
        let pair = PairCensusSpec::intersection(&p, 1, PairSelector::AllPairs);
        for census in [
            Census::Single(&single),
            Census::Batch(&batch),
            Census::Pair(&pair),
        ] {
            let fresh = run(&g, &Job::new(census, Algorithm::NdBaseline)).unwrap();
            let job = Job {
                matches: vec![Some(bogus.clone()), Some(bogus.clone())],
                ..Job::new(census, Algorithm::NdBaseline)
            };
            let out = run(&g, &job).unwrap();
            assert!(out.matches.iter().all(Option::is_none), "{census:?}");
            assert!(!out.matches.is_empty(), "{census:?}");
            assert_eq!(out.counts, fresh.counts, "{census:?}");
            let sorted = |o: &Outcome| {
                let mut v: Vec<_> = o.pairs.iter().collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(&out), sorted(&fresh), "{census:?}");
        }
    }

    #[test]
    fn batch_specs_with_one_pattern_share_one_list() {
        let (g, p) = (fixture(), tri());
        let e = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let specs = [
            CensusSpec::single(&p, 1),
            CensusSpec::single(&e, 1),
            CensusSpec::single(&p, 2),
        ];
        for algorithm in [Algorithm::NdPivot, Algorithm::PtOpt, Algorithm::Auto] {
            let out = run(&g, &Job::new(Census::Batch(&specs), algorithm)).unwrap();
            let m: Vec<&Arc<MatchList>> = out.matches.iter().map(|m| m.as_ref().unwrap()).collect();
            assert!(Arc::ptr_eq(m[0], m[2]), "{algorithm:?}");
            assert!(!Arc::ptr_eq(m[0], m[1]), "{algorithm:?}");
            assert_eq!(m[0].len(), 2);
        }
    }

    #[test]
    fn single_stats_are_the_kernels_at_one_thread() {
        let (g, p) = (fixture(), tri());
        let spec = CensusSpec::single(&p, 2);
        let m = exec_matches(&g, &p, 1);
        let config = PtConfig::default();
        let random = PtConfig {
            ordering: crate::spec::PtOrdering::Random,
            ..PtConfig::default()
        };
        for algorithm in ALL {
            let out = run(&g, &Job::new(Census::Single(&spec), algorithm)).unwrap();
            let resolved = match algorithm {
                Algorithm::Auto => crate::cost::choose(&g, &GraphShape::of(&g), &spec, m.len()),
                named => named,
            };
            let kernel = match resolved {
                Algorithm::NdBaseline => crate::nd_bas::run(&g, &spec),
                Algorithm::NdPivot => crate::nd_pivot::run(&g, &spec, &m, 1),
                Algorithm::NdDiff => crate::nd_diff::run(&g, &spec, &m),
                Algorithm::PtBaseline => crate::pt_bas::run(&g, &spec, m.matches()),
                Algorithm::PtRandom => crate::pt_opt::run(&g, &spec, &m, &random, 1),
                Algorithm::PtOpt => crate::pt_opt::run(&g, &spec, &m, &config, 1),
                Algorithm::Auto => unreachable!("resolved above"),
            }
            .unwrap();
            assert_eq!(out.counts, vec![kernel.0], "{algorithm:?}");
            assert_eq!(out.stats, kernel.1, "{algorithm:?}");
        }
    }
}
