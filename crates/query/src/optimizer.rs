//! The optimizer: an ordered list of rewrite passes folded over the
//! logical plan (toydb-style `OPTIMIZERS.iter().try_fold`).
//!
//! The passes run over a bound tree: the engine has already placed and
//! run its relation operators (scan, filter, and the `Shard` that
//! restricts a sharded engine's rows), so the passes read the focal set
//! those operators bound. Pass order is load-bearing:
//!
//! 1. **cache-substitution** — probe the census cache (peek only, no
//!    LRU promotion, no hit/miss accounting) so later passes know which
//!    match lists exist — and exactly how long they are — and which
//!    count vectors will short-circuit execution entirely.
//! 2. **view-substitution** — if *every* census job has a fresh
//!    materialized view whose coverage matches the engine's focal shard,
//!    rewrite the census node into a [`PlanNode::ViewProbe`]: execution
//!    becomes a pure gather over pinned count vectors, zero traversal.
//!    Runs after cache-substitution so EXPLAIN still shows what the
//!    ordinary caches held, before algorithm-selection so no algorithm
//!    is ranked for work that will not run.
//! 3. **algorithm-selection** — rank every algorithm the kernels accept
//!    for the statement by estimated cost ([`ego_census::cost`], the same
//!    function the census core resolves `Auto` with) and resolve `Auto`
//!    to a concrete choice; cached match-list lengths from pass 1
//!    replace the estimator's `m` term, and a forced algorithm the
//!    kernels refuse fails here with the kernel's error.
//! 4. **batch-grouping** — group the statement's aggregates into shared
//!    sweeps/traversals ([`ego_census::plan_stages`]) under the chosen
//!    algorithm; needs pass 3's concrete algorithm to resolve modes.
//!
//! Every pass is a semantic no-op on result tables: passes annotate and
//! restructure, the executor computes.

use crate::catalog::Catalog;
use crate::census_cache::CensusCache;
use crate::error::QueryError;
use crate::plan::{
    AlgoChoice, CensusNode, CountHint, MatchHint, Plan, PlanNode, StatsBasis, ViewProbeJob,
};
use crate::shard::ShardSpec;
use crate::stats::{GraphStats, PlannerCounters};
use crate::views::ViewRegistry;
use ego_census::cost::{rank_algorithms, refusal, Census, CostJob, CONSIDERED};
use ego_census::{plan_stages, Algorithm, CensusSpec};
use ego_graph::{Graph, NodeId};
use std::sync::atomic::Ordering;

/// Everything a pass may consult. Built by the engine per statement.
pub struct PassContext<'a> {
    /// The live graph.
    pub graph: &'a Graph,
    /// Pattern catalog (session layer over base).
    pub catalog: &'a Catalog,
    /// Statistics backing the cost model (an `ANALYZE` snapshot when
    /// fresh, otherwise the engine's memoized structural heuristic).
    pub stats: &'a GraphStats,
    /// Where `stats` came from, for EXPLAIN and the counters.
    pub stats_basis: StatsBasis,
    /// Live-graph fingerprint (cache keys).
    pub fingerprint: u64,
    /// Census cache to probe, if attached.
    pub cache: Option<&'a CensusCache>,
    /// Materialized-view registry to probe, if attached.
    pub views: Option<&'a ViewRegistry>,
    /// The statement's evaluated focal set (execution and EXPLAIN both
    /// supply it for single-table statements); `None` leaves count-cache
    /// probes `Unknown` and prices all `n` nodes.
    pub focal: Option<&'a [NodeId]>,
    /// The engine's focal shard: the coverage a view must have to serve
    /// the statement.
    pub shard: Option<ShardSpec>,
    /// The engine's configured algorithm; `Auto` frees the planner.
    pub forced: Algorithm,
    /// Planner counters to tally into, if attached.
    pub counters: Option<&'a PlannerCounters>,
    /// Passes that modified or annotated the plan during this optimize
    /// run (flushed into `counters.passes_fired`).
    pub fired: u64,
}

/// One rewrite pass: owns the tree, returns the rewritten tree.
pub type Pass = fn(PlanNode, &mut PassContext<'_>) -> Result<PlanNode, QueryError>;

/// The pass pipeline, in execution order.
pub const OPTIMIZERS: &[(&str, Pass)] = &[
    ("cache-substitution", cache_substitution),
    ("view-substitution", view_substitution),
    ("algorithm-selection", algorithm_selection),
    ("batch-grouping", batch_grouping),
];

/// Run the full pass pipeline over a logical plan.
pub fn optimize(plan: Plan, ctx: &mut PassContext<'_>) -> Result<Plan, QueryError> {
    optimize_with(plan, ctx, OPTIMIZERS)
}

/// Run a subset of passes (tests prove each pass is a semantic no-op by
/// diffing result tables with and without it).
pub fn optimize_with(
    plan: Plan,
    ctx: &mut PassContext<'_>,
    passes: &[(&str, Pass)],
) -> Result<Plan, QueryError> {
    let Plan { stmt, root } = plan;
    let root = passes
        .iter()
        .try_fold(root, |node, (_name, pass)| pass(node, ctx))?;
    if let Some(c) = ctx.counters {
        c.plans_built.fetch_add(1, Ordering::Relaxed);
        if ctx.fired != 0 {
            c.passes_fired.fetch_add(ctx.fired, Ordering::Relaxed);
        }
    }
    Ok(Plan { stmt, root })
}

/// One algorithm to serve every statement in a script: with the engine
/// forced, that; otherwise the [`CONSIDERED`] algorithm every
/// statement's choice ranked (i.e. it can serve all of them) with the
/// lowest summed cost. Ties break in `CONSIDERED` order, matching the
/// per-statement ranking.
pub(crate) fn union_algorithm(choices: &[&AlgoChoice], engine: Algorithm) -> Algorithm {
    if engine != Algorithm::Auto || choices.is_empty() {
        return engine;
    }
    let mut best: Option<(Algorithm, f64)> = None;
    for a in CONSIDERED {
        let mut total = 0.0;
        let mut ok = true;
        for choice in choices {
            match choice.considered.iter().find(|(c, _)| *c == a) {
                Some((_, cost)) => total += cost,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && best.is_none_or(|(_, c)| total < c) {
            best = Some((a, total));
        }
    }
    // ND-PVOT serves everything, so some algorithm always qualifies.
    best.map_or(Algorithm::NdPivot, |(a, _)| a)
}

/// Pass 1: probe the census cache for every job's match list and (when
/// the focal set is known) count vector. Peek-only: the executor's real
/// lookups still drive the cache's hit/miss counters and LRU order.
fn cache_substitution(
    mut node: PlanNode,
    ctx: &mut PassContext<'_>,
) -> Result<PlanNode, QueryError> {
    if let (Some(cache), Some(c)) = (ctx.cache, node.census_mut()) {
        let fp = ctx.fingerprint;
        for job in &mut c.jobs {
            let dsl = ego_pattern::to_dsl(ctx.catalog.require(&job.pattern)?);
            job.cached_matches = match cache.peek_matches(&CensusCache::match_key(&dsl, fp)) {
                Some(m) => MatchHint::Hit(m.len()),
                None => MatchHint::Miss,
            };
            job.cached_counts = match ctx.focal {
                Some(f) => {
                    let key = CensusCache::count_key(&dsl, job.k, job.subpattern.as_deref(), f, fp);
                    if cache.peek_counts(&key) {
                        CountHint::Hit
                    } else {
                        CountHint::Miss
                    }
                }
                None => CountHint::Unknown,
            };
        }
        ctx.fired += 1;
    }
    Ok(node)
}

/// Pass 2: view substitution. When *every* census job resolves to a
/// fresh materialized view whose coverage equals the engine's focal
/// shard, the census node becomes a [`PlanNode::ViewProbe`] — a pure
/// gather with zero traversal. Arbitrary focal subsets (WHERE filters,
/// explicit focal lists) are fine: execution only reads the focal
/// positions, and the `Shard` operator already restricts focal nodes to
/// the shard range the view covers. Peek-only, like cache-substitution:
/// the executor's real probe drives hit counters.
fn view_substitution(
    mut node: PlanNode,
    ctx: &mut PassContext<'_>,
) -> Result<PlanNode, QueryError> {
    let Some(views) = ctx.views else {
        return Ok(node);
    };
    let shard = ctx.shard.filter(|s| !s.is_whole());
    let Some(slot) = node.find_mut(|n| matches!(n, PlanNode::Census(_))) else {
        return Ok(node);
    };
    let PlanNode::Census(c) = slot else {
        unreachable!("found by its variant")
    };
    // One unservable job keeps the whole census: a mixed probe/traverse
    // split would break batch sharing for the remainder.
    let probes = c
        .jobs
        .iter()
        .map(|job| {
            let dsl = ego_pattern::to_dsl(ctx.catalog.require(&job.pattern)?);
            let entry = views.peek(
                &dsl,
                job.k,
                job.subpattern.as_deref(),
                ctx.fingerprint,
                shard,
            );
            Ok(entry.map(|entry| ViewProbeJob {
                projection: job.projection,
                pattern: job.pattern.clone(),
                k: job.k,
                subpattern: job.subpattern.clone(),
                matches: entry.matches.as_ref().map(|m| m.len()),
                coverage: entry.shard,
                dsl,
            }))
        })
        .collect::<Result<Option<Vec<_>>, QueryError>>()?;
    if let Some(probes) = probes.filter(|p| !p.is_empty()) {
        slot.replace_with(|census| match census {
            PlanNode::Census(c) => PlanNode::ViewProbe {
                probes,
                input: c.input,
            },
            _ => unreachable!("found by its variant"),
        });
        ctx.fired += 1;
    }
    Ok(node)
}

/// Pass 3: cost-based algorithm selection. Ranks every algorithm the
/// refusal rule admits for all of the statement's jobs
/// ([`ego_census::cost`]) and resolves `Auto` to the cheapest; a concrete
/// engine algorithm is honored (`forced`) but the alternatives are still
/// ranked so EXPLAIN can show the road not taken — and when the rule
/// refuses it, the pass fails with that kernel's own error, so EXPLAIN
/// and execution fail alike.
fn algorithm_selection(
    mut node: PlanNode,
    ctx: &mut PassContext<'_>,
) -> Result<PlanNode, QueryError> {
    let Some(c) = node.census_mut() else {
        return Ok(node);
    };
    let (graph, stats, basis) = (ctx.graph, ctx.stats, ctx.stats_basis);
    let specs = job_specs(c, ctx.catalog)?;
    let cost_jobs: Vec<CostJob<'_, '_>> = c
        .jobs
        .iter()
        .zip(&specs)
        .map(|(job, spec)| CostJob {
            spec,
            matches: match job.cached_matches {
                MatchHint::Hit(len) => len as f64,
                MatchHint::Miss | MatchHint::Unknown => stats.est_matches(spec.pattern()),
            },
        })
        .collect();
    let focal_count = ctx.focal.map_or(graph.num_nodes(), <[NodeId]>::len);
    let considered = rank_algorithms(graph, &stats.shape(), &cost_jobs, focal_count);
    let (algorithm, forced) = if ctx.forced == Algorithm::Auto {
        if let Some(counters) = ctx.counters {
            let slot = if basis == StatsBasis::Analyzed {
                &counters.cost_model_hits
            } else {
                &counters.heuristic_fallbacks
            };
            slot.fetch_add(1, Ordering::Relaxed);
        }
        (considered[0].0, false)
    } else {
        specs
            .iter()
            .try_for_each(|spec| refusal(graph, Census::Single(spec), ctx.forced))?;
        (ctx.forced, true)
    };
    c.choice = Some(AlgoChoice {
        algorithm,
        forced,
        stats: basis,
        considered,
    });
    ctx.fired += 1;
    Ok(node)
}

/// Pass 4: group the statement's aggregates into shared batch stages
/// under the chosen algorithm (the same `plan_stages` the batch
/// executor uses, so the annotation is exactly what will run). Needs a
/// concrete algorithm: with pass 3 skipped and the engine on `Auto`,
/// grouping stays undecided and the pass does nothing.
fn batch_grouping(mut node: PlanNode, ctx: &mut PassContext<'_>) -> Result<PlanNode, QueryError> {
    let Some(c) = node.census_mut() else {
        return Ok(node);
    };
    let algorithm = match (&c.choice, ctx.forced) {
        (Some(choice), _) => choice.algorithm,
        (None, Algorithm::Auto) => return Ok(node),
        (None, concrete) => concrete,
    };
    if c.jobs.len() < 2 {
        return Ok(node); // nothing to share
    }
    let specs = job_specs(c, ctx.catalog)?;
    let none_matches = vec![None; specs.len()];
    c.stages = plan_stages(ctx.graph, &specs, algorithm, &none_matches)?;
    ctx.fired += 1;
    Ok(node)
}

/// One whole-graph spec per census job, patterns resolved against the
/// catalog: what the cost model prices and the kernels' checks read.
fn job_specs<'c>(c: &CensusNode, catalog: &'c Catalog) -> Result<Vec<CensusSpec<'c>>, QueryError> {
    c.jobs
        .iter()
        .map(|job| {
            let spec = CensusSpec::single(catalog.require(&job.pattern)?, job.k);
            Ok(match &job.subpattern {
                Some(sp) => spec.with_subpattern(sp),
                None => spec,
            })
        })
        .collect()
}
