//! The optimizer: an ordered list of rewrite passes folded over the
//! logical plan (toydb-style `OPTIMIZERS.iter().try_fold`).
//!
//! Pass order is load-bearing:
//!
//! 1. **shard-pushdown** — materialize the engine's focal-shard
//!    restriction as a plan node *below* the census (and above the
//!    filter: sharding applies after the full WHERE pass so the `RND()`
//!    stream stays aligned across shards).
//! 2. **cache-substitution** — probe the census cache (peek only, no
//!    LRU promotion, no hit/miss accounting) so later passes know which
//!    match lists exist — and exactly how long they are — and which
//!    count vectors will short-circuit execution entirely.
//! 3. **view-substitution** — if *every* census job has a fresh
//!    materialized view whose coverage matches the engine's focal shard,
//!    rewrite the census node into a [`PlanNode::ViewProbe`]: execution
//!    becomes a pure gather over pinned count vectors, zero traversal.
//!    Runs after cache-substitution so EXPLAIN still shows what the
//!    ordinary caches held, before algorithm-selection so no algorithm
//!    is ranked for work that will not run.
//! 4. **algorithm-selection** — rank every algorithm the kernels accept
//!    for the statement by estimated cost ([`ego_census::cost`], the same
//!    function the census core resolves `Auto` with) and resolve `Auto`
//!    to a concrete choice; cached match-list lengths from pass 2
//!    replace the estimator's `m` term, and a forced algorithm the
//!    kernels refuse fails here with the kernel's error.
//! 5. **batch-grouping** — group the statement's aggregates into shared
//!    sweeps/traversals ([`ego_census::plan_stages`]) under the chosen
//!    algorithm; needs pass 4's concrete algorithm to resolve modes.
//!
//! Every pass is a semantic no-op on result tables: passes annotate and
//! restructure, the executor computes.

use crate::catalog::Catalog;
use crate::census_cache::CensusCache;
use crate::error::QueryError;
use crate::plan::{AlgoChoice, CountHint, MatchHint, Plan, PlanNode, StatsBasis, ViewProbeJob};
use crate::shard::ShardSpec;
use crate::stats::{GraphStats, PlannerCounters};
use crate::views::ViewRegistry;
use ego_census::cost::{rank_algorithms, refusal, Census, CostJob};
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
    /// Engine focal-shard restriction to push into the plan.
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
    ("shard-pushdown", shard_pushdown),
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

/// Pass 1: materialize the engine's focal-shard restriction as a plan
/// node directly above the filter (sharding happens after the full
/// WHERE pass). Pairwise census is never sharded — the router only
/// scatters single-table statements — so pair trees are left alone.
fn shard_pushdown(node: PlanNode, ctx: &mut PassContext<'_>) -> Result<PlanNode, QueryError> {
    let Some(spec) = ctx.shard else {
        return Ok(node);
    };
    if spec.is_whole() {
        return Ok(node);
    }
    fn insert(node: PlanNode, spec: ShardSpec) -> (PlanNode, bool) {
        match node {
            PlanNode::Census(mut c) => {
                c.input = Box::new(PlanNode::Shard {
                    spec,
                    input: c.input,
                });
                (PlanNode::Census(c), true)
            }
            PlanNode::PairCensus { .. } => (node, false),
            PlanNode::Project { input } => {
                let (inner, fired) = insert(*input, spec);
                match inner {
                    // No census below: the shard applies to the scanned
                    // focal list itself.
                    n @ (PlanNode::Scan { .. } | PlanNode::Filter { .. }) => (
                        PlanNode::Project {
                            input: Box::new(PlanNode::Shard {
                                spec,
                                input: Box::new(n),
                            }),
                        },
                        true,
                    ),
                    n => (PlanNode::Project { input: Box::new(n) }, fired),
                }
            }
            PlanNode::Order { keys, input } => {
                let (inner, fired) = insert(*input, spec);
                (
                    PlanNode::Order {
                        keys,
                        input: Box::new(inner),
                    },
                    fired,
                )
            }
            PlanNode::Limit { n, input } => {
                let (inner, fired) = insert(*input, spec);
                (
                    PlanNode::Limit {
                        n,
                        input: Box::new(inner),
                    },
                    fired,
                )
            }
            other => (other, false),
        }
    }
    let (node, fired) = insert(node, spec);
    if fired {
        ctx.fired += 1;
    }
    Ok(node)
}

/// Pass 2: probe the census cache for every job's match list and (when
/// the focal set is known) count vector. Peek-only: the executor's real
/// lookups still drive the cache's hit/miss counters and LRU order.
fn cache_substitution(node: PlanNode, ctx: &mut PassContext<'_>) -> Result<PlanNode, QueryError> {
    let Some(cache) = ctx.cache else {
        return Ok(node);
    };
    let fp = ctx.fingerprint;
    let catalog = ctx.catalog;
    let focal = ctx.focal;
    let mut fired = false;
    let node = node.map_census(&mut |mut c| {
        for job in &mut c.jobs {
            let pattern = catalog.require(&job.pattern)?;
            let dsl = ego_pattern::to_dsl(pattern);
            job.cached_matches = match cache.peek_matches(&CensusCache::match_key(&dsl, fp)) {
                Some(m) => MatchHint::Hit(m.len()),
                None => MatchHint::Miss,
            };
            job.cached_counts = match focal {
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
            fired = true;
        }
        Ok(c)
    })?;
    if fired {
        ctx.fired += 1;
    }
    Ok(node)
}

/// Pass 3: view substitution. When *every* census job resolves to a
/// fresh materialized view whose coverage equals the engine's focal
/// shard, the census node becomes a [`PlanNode::ViewProbe`] — a pure
/// gather with zero traversal. Arbitrary focal subsets (WHERE filters,
/// explicit focal lists) are fine: execution only reads the focal
/// positions, and the engine's focal computation already restricts
/// focal nodes to the shard range the view covers. Peek-only, like
/// cache-substitution: the executor's real probe drives hit counters.
fn view_substitution(node: PlanNode, ctx: &mut PassContext<'_>) -> Result<PlanNode, QueryError> {
    let Some(views) = ctx.views else {
        return Ok(node);
    };
    let shard = ctx.shard.filter(|s| !s.is_whole());
    fn rewrite(
        node: PlanNode,
        views: &ViewRegistry,
        catalog: &Catalog,
        fp: u64,
        shard: Option<ShardSpec>,
        fired: &mut bool,
    ) -> Result<PlanNode, QueryError> {
        Ok(match node {
            PlanNode::Census(c) => {
                let mut probes = Vec::with_capacity(c.jobs.len());
                for job in &c.jobs {
                    let pattern = catalog.require(&job.pattern)?;
                    let dsl = ego_pattern::to_dsl(pattern);
                    match views.peek(&dsl, job.k, job.subpattern.as_deref(), fp, shard) {
                        Some(entry) => probes.push(ViewProbeJob {
                            projection: job.projection,
                            pattern: job.pattern.clone(),
                            dsl,
                            k: job.k,
                            subpattern: job.subpattern.clone(),
                            matches: entry.matches.as_ref().map(|m| m.len()),
                            coverage: entry.shard,
                        }),
                        // One unservable job keeps the whole census: a
                        // mixed probe/traverse split would break batch
                        // sharing for the remainder.
                        None => return Ok(PlanNode::Census(c)),
                    }
                }
                if probes.is_empty() {
                    return Ok(PlanNode::Census(c));
                }
                *fired = true;
                PlanNode::ViewProbe {
                    probes,
                    input: c.input,
                }
            }
            PlanNode::Filter { input } => PlanNode::Filter {
                input: Box::new(rewrite(*input, views, catalog, fp, shard, fired)?),
            },
            PlanNode::Shard { spec, input } => PlanNode::Shard {
                spec,
                input: Box::new(rewrite(*input, views, catalog, fp, shard, fired)?),
            },
            PlanNode::Project { input } => PlanNode::Project {
                input: Box::new(rewrite(*input, views, catalog, fp, shard, fired)?),
            },
            PlanNode::Order { keys, input } => PlanNode::Order {
                keys,
                input: Box::new(rewrite(*input, views, catalog, fp, shard, fired)?),
            },
            PlanNode::Limit { n, input } => PlanNode::Limit {
                n,
                input: Box::new(rewrite(*input, views, catalog, fp, shard, fired)?),
            },
            // Pairwise census has no per-focal count vector to probe.
            leaf => leaf,
        })
    }
    let mut fired = false;
    let node = rewrite(node, views, ctx.catalog, ctx.fingerprint, shard, &mut fired)?;
    if fired {
        ctx.fired += 1;
    }
    Ok(node)
}

/// Pass 4: cost-based algorithm selection. Ranks every algorithm the
/// refusal rule admits for all of the statement's jobs
/// ([`ego_census::cost`]) and resolves `Auto` to the cheapest; a concrete
/// engine algorithm is honored (`forced`) but the alternatives are still
/// ranked so EXPLAIN can show the road not taken — and when the rule
/// refuses it, the pass fails with that kernel's own error, so EXPLAIN
/// and execution fail alike.
fn algorithm_selection(node: PlanNode, ctx: &mut PassContext<'_>) -> Result<PlanNode, QueryError> {
    let graph = ctx.graph;
    let stats = ctx.stats;
    let basis = ctx.stats_basis;
    let catalog = ctx.catalog;
    let focal_count = ctx.focal.map_or(graph.num_nodes(), <[NodeId]>::len);
    let forced = ctx.forced;
    let mut fired = false;
    let mut auto_choices = 0u64;
    let node = node.map_census(&mut |mut c| {
        let specs = job_specs(&c, catalog)?;
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
        let considered = rank_algorithms(graph, &stats.shape(), &cost_jobs, focal_count);
        let (algorithm, is_forced) = if forced == Algorithm::Auto {
            auto_choices += 1;
            (considered[0].0, false)
        } else {
            specs
                .iter()
                .try_for_each(|spec| refusal(graph, Census::Single(spec), forced))?;
            (forced, true)
        };
        c.choice = Some(AlgoChoice {
            algorithm,
            forced: is_forced,
            stats: basis,
            considered,
        });
        fired = true;
        Ok(c)
    })?;
    if fired {
        ctx.fired += 1;
    }
    if auto_choices != 0 {
        if let Some(counters) = ctx.counters {
            let slot = if basis == StatsBasis::Analyzed {
                &counters.cost_model_hits
            } else {
                &counters.heuristic_fallbacks
            };
            slot.fetch_add(auto_choices, Ordering::Relaxed);
        }
    }
    Ok(node)
}

/// Pass 5: group the statement's aggregates into shared batch stages
/// under the chosen algorithm (the same `plan_stages` the batch
/// executor uses, so the annotation is exactly what will run). Needs a
/// concrete algorithm: with pass 4 skipped and the engine on `Auto`,
/// grouping stays undecided and the pass does nothing.
fn batch_grouping(node: PlanNode, ctx: &mut PassContext<'_>) -> Result<PlanNode, QueryError> {
    let graph = ctx.graph;
    let catalog = ctx.catalog;
    let forced = ctx.forced;
    let mut fired = false;
    let node = node.map_census(&mut |mut c| {
        let algorithm = match (&c.choice, forced) {
            (Some(choice), _) => choice.algorithm,
            (None, Algorithm::Auto) => return Ok(c),
            (None, concrete) => concrete,
        };
        if c.jobs.len() < 2 {
            return Ok(c); // nothing to share
        }
        let specs = job_specs(&c, catalog)?;
        let none_matches = vec![None; specs.len()];
        c.stages = plan_stages(graph, &specs, algorithm, &none_matches)?;
        fired = true;
        Ok(c)
    })?;
    if fired {
        ctx.fired += 1;
    }
    Ok(node)
}

/// One whole-graph spec per census job, patterns resolved against the
/// catalog: what the cost model prices and the kernels' checks read.
fn job_specs<'c>(
    c: &crate::plan::CensusNode,
    catalog: &'c Catalog,
) -> Result<Vec<CensusSpec<'c>>, QueryError> {
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
