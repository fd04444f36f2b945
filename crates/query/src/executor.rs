//! Query execution: the end of the `parse → plan → optimize → execute`
//! pipeline.
//!
//! A `SELECT` runs in two halves over one operator tree. The engine first
//! *binds* it: the semantic checks, the logical plan
//! ([`crate::plan::build_plan`]), the relation operators (scan, filter and
//! — on a sharded engine, for one table — shard bind the statement's
//! rows), and the optimizer ([`crate::optimizer`]) over those rows. Then
//! one `match` over [`PlanNode`] runs the tree an operator at a time,
//! after every census of the script has run as one batch. `EXPLAIN` binds the same way and
//! walks the same tree with `PlanNode::describe`, so it fails exactly
//! where execution does.

use crate::ast::{
    AggCall, ColumnRef, Expr, NeighborhoodAst, OrderKey, Projection, SelectStmt, SortDir,
};
use crate::catalog::Catalog;
use crate::census_cache::CensusCache;
use crate::error::QueryError;
use crate::expr::{eval_predicate, id_range, RowContext};
use crate::optimizer::{self, union_algorithm, Pass, PassContext, OPTIMIZERS};
use crate::parser::{parse_query, split_statements, Statement};
use crate::plan::{build_plan, Plan, PlanNode, StatsBasis, ViewProbeJob};
use crate::stats::{GraphStats, PlannerCounters, StatsSlot};
use crate::table::Table;
use crate::value::Value;
use crate::views::{ViewEntry, ViewRegistry, DEFAULT_VIEW_BUDGET};
use ego_census::cost::{refusal, Census};
use ego_census::{
    exec_matches, run, Algorithm, CensusError, CensusSpec, CenterIndex, CenterStrategy,
    CountVector, ExecConfig, FocalNodes, Job, PairCensusSpec, PairCounts, PairSelector, PtConfig,
};
use ego_graph::io::IoError;
use ego_graph::{Graph, NodeId};
use ego_matcher::MatchList;
use ego_pattern::Pattern;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Where an engine's graph lives: borrowed from the caller (the
/// original in-process API) or shared behind an [`Arc`] (server
/// sessions on many threads over one loaded graph).
///
/// The *storage* backend underneath is orthogonal and chosen by file
/// extension when loading through [`QueryEngine::open`]: a `.egb` file
/// arrives on the read-only mmap store (O(1) open, pages shared across
/// processes), anything else on the heap-backed `Vec` store. Either
/// way the engine sees one `Graph` type.
enum GraphSource<'g> {
    Borrowed(&'g Graph),
    Shared(Arc<Graph>),
}

impl GraphSource<'_> {
    #[inline]
    fn get(&self) -> &Graph {
        match self {
            GraphSource::Borrowed(g) => g,
            GraphSource::Shared(g) => g,
        }
    }
}

/// Executes census SQL against one graph.
///
/// The engine owns a [`Catalog`] of named patterns, an [`Algorithm`]
/// choice (default [`Algorithm::Auto`]), pattern-driven tuning, an
/// [`ExecConfig`] (default: all available hardware threads), and the
/// RNG seed that makes `RND()` deterministic across runs.
///
/// Engines either borrow their graph ([`QueryEngine::new`]) or share an
/// [`Arc`]-owned one ([`QueryEngine::shared`]); the latter has a
/// `'static` lifetime, so per-connection sessions on different threads
/// can each hold an engine over one loaded graph without re-parsing it
/// or resorting to `unsafe`.
pub struct QueryEngine<'g> {
    graph: GraphSource<'g>,
    catalog: Catalog,
    algorithm: Algorithm,
    pt_config: PtConfig,
    exec: ExecConfig,
    seed: u64,
    census_cache: Option<Arc<CensusCache>>,
    focal_shard: Option<crate::shard::ShardSpec>,
    /// Latest `ANALYZE` snapshot. A shared slot: server sessions point
    /// their engines at one slot so an `analyze` on any connection feeds
    /// every session's planner immediately.
    graph_stats: StatsSlot,
    /// Where `ANALYZE` persists its snapshot (the graph file's `.stats`
    /// sidecar when the engine was opened from a path).
    stats_path: Option<PathBuf>,
    /// Memoized structural heuristic for the current fingerprint, so
    /// planning without a snapshot costs one degree-histogram pass per
    /// graph, not per statement.
    heuristic_stats: Mutex<Option<Arc<GraphStats>>>,
    /// Planner bookkeeping (plans built, passes fired, ...), surfaced by
    /// the server `stats` op when attached.
    planner: Option<Arc<PlannerCounters>>,
    /// Materialized-view registry (`MATERIALIZE` / `DROP VIEW` / the
    /// view-substitution pass). Shared across server sessions like the
    /// census cache.
    views: Option<Arc<ViewRegistry>>,
    /// Where view maintenance persists the registry (the graph file's
    /// `.views` sidecar when the engine was opened from a path).
    views_path: Option<PathBuf>,
}

impl<'g> QueryEngine<'g> {
    /// Engine with an empty catalog and default settings.
    pub fn new(graph: &'g Graph) -> Self {
        Self::from_source(GraphSource::Borrowed(graph))
    }

    /// Engine preloaded with the paper's built-in patterns.
    pub fn with_builtins(graph: &'g Graph) -> Self {
        let mut e = Self::new(graph);
        e.catalog = Catalog::with_builtins();
        e
    }

    /// Engine over a shared, `Arc`-owned graph. The resulting engine is
    /// `'static`: it can move into a connection-handler thread while
    /// sibling sessions share the same graph.
    pub fn shared(graph: Arc<Graph>) -> QueryEngine<'static> {
        QueryEngine::from_source(GraphSource::Shared(graph))
    }

    /// Engine over a graph file, picking the storage backend by
    /// extension (`.egb` → read-only mmap store, anything else → text
    /// formats on the heap store; see `ego_graph::io::load_path`).
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<QueryEngine<'static>, IoError> {
        let path = path.as_ref();
        let mut e = QueryEngine::shared(Arc::new(ego_graph::io::load_path(path)?));
        // Adopt the graph's stats sidecar: a previous ANALYZE feeds the
        // planner immediately (staleness is detected per statement by
        // fingerprint). A missing or malformed sidecar must not block
        // opening the graph — the planner falls back to its structural
        // heuristic until the next ANALYZE rewrites the file.
        let sidecar = GraphStats::sidecar_path(path);
        if let Ok(Some(stats)) = GraphStats::load(&sidecar) {
            *e.graph_stats.write().unwrap() = Some(Arc::new(stats));
        }
        e.stats_path = Some(sidecar);
        // Adopt the `.views` sidecar the same way: views materialized by
        // a previous process are warm immediately, a stale fingerprint
        // silently yields a cold registry, and a malformed sidecar never
        // blocks the open.
        let views = Arc::new(ViewRegistry::new(DEFAULT_VIEW_BUDGET));
        let vpath = ViewRegistry::sidecar_path(path);
        let _ = views.adopt_sidecar(&vpath, e.graph().fingerprint(), e.graph().num_nodes());
        e.views = Some(views);
        e.views_path = Some(vpath);
        Ok(e)
    }

    /// [`QueryEngine::open`] preloaded with the paper's built-in patterns.
    pub fn open_with_builtins(
        path: impl AsRef<std::path::Path>,
    ) -> Result<QueryEngine<'static>, IoError> {
        let mut e = Self::open(path)?;
        e.catalog = Catalog::with_builtins();
        Ok(e)
    }

    fn from_source(graph: GraphSource<'g>) -> Self {
        QueryEngine {
            graph,
            catalog: Catalog::new(),
            algorithm: Algorithm::Auto,
            pt_config: PtConfig::default(),
            exec: ExecConfig::auto(),
            seed: 0xC0FFEE,
            census_cache: None,
            focal_shard: None,
            graph_stats: StatsSlot::default(),
            stats_path: None,
            heuristic_stats: Mutex::new(None),
            planner: None,
            views: None,
            views_path: None,
        }
    }

    /// The graph this engine executes against.
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// Swap in a new shared graph (after a mutation compacted one), keeping
    /// catalog, algorithm, seed, and cache wiring. Returns `true` if the
    /// fingerprint changed; in that case an attached [`CensusCache`] is
    /// invalidated so entries keyed on the old graph's fingerprint do not
    /// linger (they could never be *returned* — every key embeds the
    /// fingerprint — but they would pin memory until evicted).
    pub fn swap_graph(&mut self, graph: Arc<Graph>) -> bool {
        let changed = self.graph.get().fingerprint() != graph.fingerprint();
        self.graph = GraphSource::Shared(graph);
        if changed {
            if let Some(cache) = &self.census_cache {
                cache.invalidate();
            }
            // Materialized views are deliberately NOT invalidated: the
            // mutation host refreshes them in place through the
            // incremental engine (`install_refreshed`), and a view whose
            // fingerprint has not yet been refreshed simply stops
            // matching probes until it is.
        }
        changed
    }

    /// Replace the engine's catalog (e.g. with a session catalog layered
    /// over a shared base; see [`Catalog::layered`]).
    pub fn set_catalog(&mut self, catalog: Catalog) {
        self.catalog = catalog;
    }

    /// Mutable access to the pattern catalog.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The pattern catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Force a specific census algorithm (default: `Auto`).
    pub fn set_algorithm(&mut self, a: Algorithm) {
        self.algorithm = a;
    }

    /// Tune the pattern-driven algorithms.
    pub fn set_pt_config(&mut self, c: PtConfig) {
        self.pt_config = c;
    }

    /// Set the worker thread count (`0` = all available hardware threads,
    /// the default). Results are identical for every thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.exec = ExecConfig::with_threads(threads);
    }

    /// The current execution configuration.
    pub fn exec_config(&self) -> &ExecConfig {
        &self.exec
    }

    /// Seed for `RND()` (deterministic per execution).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Attach a shared [`CensusCache`]: match lists and finished count
    /// vectors are reused across statements (and across sessions when
    /// the cache is shared, as the server does). Counts are
    /// algorithm-invariant, so caching never changes results.
    pub fn set_census_cache(&mut self, cache: Arc<CensusCache>) {
        self.census_cache = Some(cache);
    }

    /// The attached census cache, if any.
    pub fn census_cache(&self) -> Option<&Arc<CensusCache>> {
        self.census_cache.as_ref()
    }

    /// Restrict single-table census statements to one focal shard: the
    /// WHERE clause (and its `RND()` stream) still evaluates over every
    /// node exactly as an unsharded engine would, then only focal nodes
    /// inside the shard's contiguous node-ID range are kept. A fleet of
    /// engines covering all shards of a partition therefore produces,
    /// by concatenation in shard order, exactly the unsharded result —
    /// the invariant the sharded server tier is built on.
    ///
    /// `None` (the default) and the whole-range shard `0/1` are
    /// equivalent. Pairwise (two-table) statements ignore the shard:
    /// the router routes those to a single worker unsharded.
    pub fn set_focal_shard(&mut self, shard: Option<crate::shard::ShardSpec>) {
        self.focal_shard = shard.filter(|s| !s.is_whole());
    }

    /// The focal shard this engine is restricted to, if any.
    pub fn focal_shard(&self) -> Option<crate::shard::ShardSpec> {
        self.focal_shard
    }

    /// Attach planner counters (plans built, passes fired, cost-model
    /// vs heuristic choices); the server shares one set across sessions
    /// and surfaces them through the `stats` op.
    pub fn set_planner_counters(&mut self, counters: Arc<PlannerCounters>) {
        self.planner = Some(counters);
    }

    /// The attached planner counters, if any.
    pub fn planner_counters(&self) -> Option<&Arc<PlannerCounters>> {
        self.planner.as_ref()
    }

    /// Attach a materialized-view registry: `MATERIALIZE` / `DROP VIEW`
    /// statements become available and the view-substitution pass starts
    /// rewriting eligible census statements into pure view probes. The
    /// server shares one registry across sessions.
    pub fn set_views(&mut self, views: Arc<ViewRegistry>) {
        self.views = Some(views);
    }

    /// The attached view registry, if any.
    pub fn views(&self) -> Option<&Arc<ViewRegistry>> {
        self.views.as_ref()
    }

    /// Where view maintenance persists the registry (`None` disables
    /// persistence; [`QueryEngine::open`] defaults to the graph file's
    /// `.views` sidecar).
    pub fn set_views_path(&mut self, path: Option<PathBuf>) {
        self.views_path = path;
    }

    /// The view persistence path, if set.
    pub fn views_path(&self) -> Option<&Path> {
        self.views_path.as_deref()
    }

    /// Share an `ANALYZE`-snapshot slot with other engines (server
    /// sessions over one graph share one slot).
    pub fn set_stats_slot(&mut self, slot: StatsSlot) {
        self.graph_stats = slot;
    }

    /// The engine's snapshot slot, for sharing with sibling engines.
    pub fn stats_slot(&self) -> StatsSlot {
        Arc::clone(&self.graph_stats)
    }

    /// Where `ANALYZE` persists its snapshot (`None` disables
    /// persistence; [`QueryEngine::open`] defaults to the graph file's
    /// `.stats` sidecar).
    pub fn set_stats_path(&mut self, path: Option<PathBuf>) {
        self.stats_path = path;
    }

    /// The snapshot persistence path, if set.
    pub fn stats_path(&self) -> Option<&Path> {
        self.stats_path.as_deref()
    }

    /// The current `ANALYZE` snapshot, if one was taken or loaded (it
    /// may be stale; the planner checks the fingerprint per statement).
    pub fn graph_stats(&self) -> Option<Arc<GraphStats>> {
        self.graph_stats.read().unwrap().clone()
    }

    /// `ANALYZE`: profile the live graph ([`GraphStats::analyze`]),
    /// install the snapshot for the planner (and every engine sharing
    /// this slot), persist the sidecar when a stats path is set, and
    /// return the snapshot as a key/value table.
    pub fn analyze(&self) -> Result<Table, QueryError> {
        let stats = Arc::new(GraphStats::analyze(self.graph()));
        if let Some(path) = &self.stats_path {
            stats.save(path)?;
        }
        *self.graph_stats.write().unwrap() = Some(Arc::clone(&stats));
        Ok(stats.to_table())
    }

    /// The statistics the planner should use right now, plus where they
    /// came from: a fresh snapshot when its fingerprint matches the live
    /// graph, otherwise the memoized structural heuristic (reported as
    /// `Stale` when a mismatched snapshot exists, `Heuristic` when none
    /// does).
    fn planning_stats(&self) -> (Arc<GraphStats>, StatsBasis) {
        let fp = self.graph().fingerprint();
        let snapshot = self.graph_stats.read().unwrap().clone();
        match snapshot {
            Some(s) if !s.is_stale(fp) => (s, StatsBasis::Analyzed),
            Some(_) => (self.heuristic_stats(fp), StatsBasis::Stale),
            None => (self.heuristic_stats(fp), StatsBasis::Heuristic),
        }
    }

    /// Memoized [`GraphStats::heuristic`] for the current fingerprint.
    fn heuristic_stats(&self, fingerprint: u64) -> Arc<GraphStats> {
        let mut slot = self.heuristic_stats.lock().unwrap();
        if let Some(s) = slot.as_ref() {
            if s.fingerprint == fingerprint {
                return Arc::clone(s);
            }
        }
        let s = Arc::new(GraphStats::heuristic(self.graph()));
        *slot = Some(Arc::clone(&s));
        s
    }

    /// The pass context for one statement, planning over `stats`.
    fn pass_context<'a>(&'a self, stats: &'a GraphStats, basis: StatsBasis) -> PassContext<'a> {
        PassContext {
            graph: self.graph(),
            catalog: &self.catalog,
            stats,
            stats_basis: basis,
            fingerprint: self.graph().fingerprint(),
            cache: self.census_cache.as_deref(),
            views: self.views.as_deref(),
            focal: None,
            shard: self.focal_shard,
            forced: self.algorithm,
            counters: self.planner.as_deref(),
            fired: 0,
        }
    }

    /// Bind a SELECT to this engine — the first half of execution and of
    /// `EXPLAIN` alike: run the semantic checks, place and run the
    /// relation operators, then fold `passes` over the rows they bound
    /// (the cost model prices that focal set and the count-cache probe
    /// keys on it). Counts one plan built.
    fn bind(&self, stmt: &SelectStmt, passes: &[(&str, Pass)]) -> Result<Bound, QueryError> {
        self.check(stmt)?;
        let Plan { stmt, root } = build_plan(stmt);
        let (root, rows) = self.relate(root, &stmt)?;
        let (stats, basis) = self.planning_stats();
        let mut ctx = self.pass_context(&stats, basis);
        ctx.focal = (stmt.tables.len() == 1).then_some(&rows[..]);
        let plan = optimizer::optimize_with(Plan { stmt, root }, &mut ctx, passes)?;
        Ok(Bound { plan, rows })
    }

    /// Place the engine's focal shard over a single-table tree's filter (or
    /// scan), so it restricts the rows after the full WHERE pass and the
    /// `RND()` stream stays aligned across shards, then run the relation
    /// operators: the rows every pass prices and every census operator
    /// reads. Node pairs cross shard boundaries, so a two-table tree is
    /// never sharded.
    fn relate(
        &self,
        mut root: PlanNode,
        stmt: &SelectStmt,
    ) -> Result<(PlanNode, Vec<NodeId>), QueryError> {
        if let (Some(spec), [_]) = (self.focal_shard, &stmt.tables[..]) {
            root.find_mut(PlanNode::is_relation)
                .expect("every tree ends in a scan")
                .replace_with(|input| PlanNode::Shard {
                    spec,
                    input: Box::new(input),
                });
        }
        let unbound = Exec {
            stmt,
            rows: None,
            batch: &[],
        };
        let rows = self.run(root.relation(), &unbound)?.0.into_owned();
        Ok((root, rows))
    }

    /// The semantic checks, run once where a SELECT is bound to the
    /// catalog and its aliases: the aliases are distinct, projected
    /// columns name them, every neighborhood has its table count's shape
    /// over ID columns of those aliases, every pattern and subpattern is
    /// defined, and the engine's algorithm serves every pairwise aggregate
    /// (pairwise census is not cost-planned, so no pass refuses it). A
    /// failure here fails `EXPLAIN` and execution alike, before anything
    /// runs.
    fn check(&self, stmt: &SelectStmt) -> Result<(), QueryError> {
        let aliases: Vec<&str> = stmt.tables.iter().map(|t| t.alias.as_str()).collect();
        if let [a1, a2] = aliases[..] {
            if a1.eq_ignore_ascii_case(a2) {
                return Err(QueryError::Semantic(format!(
                    "duplicate table alias `{a1}`"
                )));
            }
        }
        let columns = self.row_context(stmt);
        for proj in &stmt.projections {
            let agg = match proj {
                Projection::Column(c) => {
                    columns.resolve_node(c)?;
                    continue;
                }
                Projection::Agg(agg) => agg,
            };
            match (&agg.neighborhood, &aliases[..]) {
                (NeighborhoodAst::Subgraph { node, .. }, [_]) => check_id_column(node, &aliases)?,
                (NeighborhoodAst::Subgraph { .. }, _) => {
                    return Err(QueryError::Semantic(
                        "SUBGRAPH(ID, k) is ambiguous in a two-table query; \
                         use SUBGRAPH-INTERSECTION or SUBGRAPH-UNION"
                            .into(),
                    ))
                }
                (
                    NeighborhoodAst::Intersection { n1, n2, .. }
                    | NeighborhoodAst::Union { n1, n2, .. },
                    &[a1, a2],
                ) => {
                    check_id_column(n1, &aliases)?;
                    check_id_column(n2, &aliases)?;
                    let t1 = n1.table.as_deref().unwrap_or(a1);
                    if t1.eq_ignore_ascii_case(n2.table.as_deref().unwrap_or(a2)) {
                        return Err(QueryError::Semantic(
                            "pairwise neighborhood must reference both table aliases".into(),
                        ));
                    }
                }
                _ => {
                    return Err(QueryError::Semantic(
                        "SUBGRAPH-INTERSECTION/UNION require two `nodes` tables".into(),
                    ))
                }
            }
            let pattern = self.catalog.require(&agg.pattern)?;
            if let Some(sp) = &agg.subpattern {
                if pattern.subpattern(sp).is_none() {
                    return Err(CensusError::UnknownSubpattern(sp.clone()).into());
                }
            }
            if aliases.len() == 2 {
                let spec = self.pair_spec(agg, PairSelector::Pairs(Vec::new()))?;
                refusal(self.graph(), Census::Pair(&spec), self.algorithm)?;
            }
        }
        Ok(())
    }

    /// Run the operator tree under `node`, up to `Project`: one arm per
    /// operator. The relation operators (scan, filter, shard) bind the
    /// rows; they run once, while the statement binds, because the census
    /// passes price those rows — a later walk is handed them in `x.rows`
    /// and reads them back. Census operators add one count column per
    /// aggregate. [`Self::output`] runs the rest.
    fn run<'a>(&self, node: &PlanNode, x: &Exec<'a>) -> Result<Rows<'a>, QueryError> {
        if let Some(rows) = x.rows.filter(|_| node.is_relation()) {
            return Ok((Cow::Borrowed(rows), Vec::new()));
        }
        Ok(match node {
            PlanNode::Scan { .. } => (Cow::Owned(self.scan(x.stmt, None)?), Vec::new()),
            PlanNode::Filter { .. } => {
                let filter = x.stmt.where_clause.as_ref();
                (Cow::Owned(self.scan(x.stmt, filter)?), Vec::new())
            }
            PlanNode::Shard { spec, input } => {
                let (mut rows, counts) = self.run(input, x)?;
                let range = spec.range(self.graph().num_nodes());
                rows.to_mut().retain(|n| range.contains(&n.index()));
                (rows, counts)
            }
            PlanNode::Census(c) => {
                let rows = self.run(&c.input, x)?.0;
                let counts = x.batch.iter().map(|(cv, _)| Counts::Focal(Arc::clone(cv)));
                (rows, counts.collect())
            }
            PlanNode::ViewProbe { probes, input } => {
                let rows = self.run(input, x)?.0;
                let counts = match self.probe_views(probes) {
                    Some(pinned) => pinned.into_iter().map(Counts::Focal).collect(),
                    // A probed view vanished since binding (a concurrent
                    // DROP VIEW or refresh race): bind again. With the view
                    // gone the substitution pass no longer fires.
                    None => {
                        let bound = self.bind(x.stmt, OPTIMIZERS)?;
                        let batch = self.traverse(&bound)?;
                        let census = bound
                            .plan
                            .root
                            .nodes()
                            .find(|n| matches!(n, PlanNode::Census(_) | PlanNode::ViewProbe { .. }))
                            .expect("an aggregate statement binds to a census");
                        let again = Exec {
                            stmt: x.stmt,
                            rows: Some(&bound.rows),
                            batch: &batch,
                        };
                        self.run(census, &again)?.1
                    }
                };
                (rows, counts)
            }
            PlanNode::PairCensus { input, .. } => {
                let rows = self.run(input, x)?.0;
                let pairs: Vec<_> = rows.chunks_exact(2).map(|p| (p[0], p[1])).collect();
                let mut counts = Vec::new();
                for p in &x.stmt.projections {
                    if let Projection::Agg(agg) = p {
                        let spec = self.pair_spec(agg, PairSelector::Pairs(pairs.clone()))?;
                        let job = Job {
                            config: self.pt_config.clone(),
                            exec: self.exec,
                            ..Job::new(Census::Pair(&spec), self.algorithm)
                        };
                        counts.push(Counts::Pair(run(self.graph(), &job)?.pairs));
                    }
                }
                (rows, counts)
            }
            PlanNode::Project { .. } | PlanNode::Order { .. } | PlanNode::Limit { .. } => {
                unreachable!("output runs the operators from Project up")
            }
        })
    }

    /// Run a statement's whole tree into its result table. `Limit` and
    /// `Order` work on the bound rows before `Project` does: every ORDER
    /// BY key becomes one sort word per row ([`Self::sort_words`]), the
    /// rows are selected down to the LIMIT by those words and their
    /// position ([`top_rows`]), and only the kept rows are projected, in
    /// order. The table is the one a stable sort of every projected row
    /// followed by a truncation would give.
    fn output(&self, root: &PlanNode, x: &Exec<'_>) -> Result<Table, QueryError> {
        let (mut limit, mut keys, mut node) = (usize::MAX, &[][..], root);
        let input = loop {
            match node {
                PlanNode::Limit { n, input } => (limit, node) = (*n, input),
                PlanNode::Order { keys: k, input } => (keys, node) = (&k[..], input),
                PlanNode::Project { input } => break input,
                _ => unreachable!("every SELECT tree ends in project, order, limit"),
            }
        };
        let (rows, counts) = self.run(input, x)?;
        let num_rows = rows.len() / x.stmt.tables.len();
        let kept = if keys.is_empty() {
            (0..num_rows.min(limit)).collect()
        } else {
            let words = keys
                .iter()
                .map(|&key| self.sort_words(x.stmt, key, &rows, &counts))
                .collect::<Result<Vec<_>, _>>()?;
            top_rows(&words, limit)
        };
        self.project(x.stmt, &rows, &counts, &kept)
    }

    /// One ORDER BY key's sort word per bound row, so that ordering rows
    /// by the word orders them by the key: `ID`, `LABEL` and aggregate keys
    /// are their integer value, an attribute is its value's rank among the
    /// column's values under [`Value::total_cmp`], and `DESC` flips the
    /// word (`!w`). A NULL attribute is `i64::MAX` either way, so it sorts
    /// last in both directions.
    fn sort_words(
        &self,
        stmt: &SelectStmt,
        key: OrderKey,
        rows: &[NodeId],
        counts: &[Counts],
    ) -> Result<Vec<i64>, QueryError> {
        let desc = key.dir == SortDir::Desc;
        let word = |w: i64| if desc { !w } else { w };
        let projection = key.ordinal - 1;
        let c = match &stmt.projections[projection] {
            Projection::Agg(_) => {
                let aggs_before = stmt.projections[..projection]
                    .iter()
                    .filter(|p| matches!(p, Projection::Agg(_)))
                    .count();
                let column = counts[aggs_before].column(rows);
                return Ok(column.into_iter().map(|n| word(n as i64)).collect());
            }
            Projection::Column(c) => c,
        };
        let mut ctx = self.row_context(stmt);
        let values = rows
            .chunks_exact(stmt.tables.len())
            .map(|row| {
                ctx.bind(row);
                ctx.column_value(c)
            })
            .collect::<Result<Vec<_>, _>>()?;
        if c.is_id() || c.is_label() {
            let int = |v: &Value| v.as_int().expect("ID and LABEL are integers");
            return Ok(values.iter().map(|v| word(int(v))).collect());
        }
        let mut order: Vec<usize> = (0..values.len())
            .filter(|&i| !values[i].is_null())
            .collect();
        order.sort_unstable_by(|&a, &b| values[a].total_cmp(&values[b]));
        let mut words = vec![i64::MAX; values.len()];
        let mut rank = 0;
        for (j, &i) in order.iter().enumerate() {
            if j > 0 && values[order[j - 1]].total_cmp(&values[i]).is_ne() {
                rank += 1;
            }
            words[i] = word(rank);
        }
        Ok(words)
    }

    /// The scan, with the WHERE `filter` over it when given: bind each row
    /// of the FROM list — every node, or every ordered pair of distinct
    /// nodes — and keep the rows the filter accepts. One seeded `RND()`
    /// stream runs in scan order, so every evaluation keeps the same rows.
    /// Rows come back flattened, one node per alias. A single-table filter
    /// that is only a node-id range ([`id_range`]) binds that range,
    /// clipped to the graph, and evaluates nothing.
    fn scan(&self, stmt: &SelectStmt, filter: Option<&Expr>) -> Result<Vec<NodeId>, QueryError> {
        let g = self.graph();
        let width = stmt.tables.len();
        if let (1, Some(range)) = (
            width,
            filter.and_then(|f| id_range(f, &stmt.tables[0].alias)),
        ) {
            let n = g.num_nodes() as i128;
            let ids = range.start.max(0)..range.end.min(n);
            return Ok(ids.map(|i| NodeId(i as u32)).collect());
        }
        let mut ctx = self.row_context(stmt);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut rows = Vec::new();
        // A node paired with itself is just SUBGRAPH: pairs are distinct.
        let inner = if width == 2 { g.num_nodes() as u32 } else { 1 };
        for x in g.node_ids() {
            for y in (0..inner).map(NodeId).filter(|&y| width == 1 || y != x) {
                let row = &[x, y][..width];
                ctx.bind(row);
                let keep = match filter {
                    Some(expr) => eval_predicate(expr, &ctx, &mut rng)?,
                    None => true,
                };
                if keep {
                    rows.extend_from_slice(row);
                }
            }
        }
        Ok(rows)
    }

    /// Project: one result row per `kept` bound row (positions, in
    /// order), the SELECT list in order, each aggregate reading the next
    /// count column.
    fn project(
        &self,
        stmt: &SelectStmt,
        rows: &[NodeId],
        counts: &[Counts],
        kept: &[usize],
    ) -> Result<Table, QueryError> {
        let mut table = Table::new(stmt.projections.iter().map(Projection::name).collect());
        let mut ctx = self.row_context(stmt);
        let width = stmt.tables.len();
        for &i in kept {
            let row = &rows[i * width..(i + 1) * width];
            ctx.bind(row);
            let mut values = Vec::with_capacity(stmt.projections.len());
            let mut counts = counts.iter();
            for p in &stmt.projections {
                values.push(match p {
                    Projection::Column(c) => ctx.column_value(c)?,
                    Projection::Agg(_) => {
                        let column = counts.next().expect("one count column per aggregate");
                        Value::Int(column.get(row) as i64)
                    }
                });
            }
            table.push_row(values);
        }
        Ok(table)
    }

    /// A row context over `stmt`'s aliases.
    fn row_context<'s>(&'s self, stmt: &'s SelectStmt) -> RowContext<'s> {
        RowContext::new(self.graph(), stmt.tables.iter().map(|t| t.alias.as_str()))
    }

    /// Parse and execute a statement. `EXPLAIN SELECT ...` returns the
    /// optimized plan tree instead of results; `ANALYZE` profiles the
    /// graph and returns the statistics snapshot.
    pub fn execute(&self, sql: &str) -> Result<Table, QueryError> {
        match Statement::classify(sql) {
            Statement::Explain(inner) => self.explain(inner),
            Statement::Analyze(args) if args.trim().is_empty() => self.analyze(),
            Statement::Analyze(_) => Err(QueryError::Semantic(
                "ANALYZE takes no arguments; it profiles the whole graph".into(),
            )),
            Statement::Mutation => Err(QueryError::Semantic(
                "the query engine is read-only; INSERT EDGE / DELETE EDGE must go through a \
                 mutation host (the server `update` op or `egocensus mutate`)"
                    .into(),
            )),
            Statement::Materialize => self.execute_materialize(sql),
            Statement::DropView => self.execute_drop_view(sql),
            Statement::Subscribe(_) => Err(QueryError::Semantic(
                "SUBSCRIBE registers a standing query; it must go through a subscription \
                 host (the server `subscribe` op)"
                    .into(),
            )),
            Statement::Select(sql) => Ok(self.run_script(vec![sql.to_string()])?.remove(0)),
        }
    }

    /// Describe how a SELECT would run: the optimized plan tree, one row
    /// per operator (indented by depth), with the algorithm decision,
    /// every considered alternative's estimated cost, per-aggregate
    /// match estimates (`estimated:` from the cost model, `cached:` when
    /// the census cache holds the exact list), expected cache reuse,
    /// batch-stage grouping, and the set-intersection kernel plan. The
    /// statement binds exactly as execution binds it.
    pub fn explain(&self, sql: &str) -> Result<Table, QueryError> {
        let Bound { plan, .. } = self.bind(&parse_query(sql)?, OPTIMIZERS)?;
        let (stats, basis) = self.planning_stats();
        let mut table = Table::new(vec!["node".into(), "detail".into(), "est_cost".into()]);
        let ctx = self.pass_context(&stats, basis);
        plan.root.describe(&plan.stmt, &ctx, 0, &mut table)?;
        Ok(table)
    }

    // --- materialized views ---

    /// `MATERIALIZE <pattern> RADIUS k [SUBPATTERN sp] [MATCHES]`:
    /// eagerly compute the full per-focal count vector over this
    /// engine's focal coverage (the whole graph, or its focal shard's
    /// range) and pin it in the view registry; with `MATCHES`, pin the
    /// global match list too. The census is the equivalent
    /// `SELECT ID, COUNTP(…) FROM nodes`, bound and run like one (with
    /// the census cache's match lists and center index), except that no
    /// view may serve it. Persists the `.views` sidecar when a views path
    /// is set. The ack table is identical on every shard of a fleet, so
    /// the router's broadcast divergence check applies.
    fn execute_materialize(&self, sql: &str) -> Result<Table, QueryError> {
        let m = crate::parser::parse_materialize(sql)?;
        let Some(views) = self.views.as_deref() else {
            return Err(QueryError::Semantic(
                "no view registry attached; MATERIALIZE is unavailable in this context".into(),
            ));
        };
        let pattern = self.catalog.require(&m.pattern)?;
        let g = self.graph();
        let agg = match &m.subpattern {
            Some(sp) => format!("COUNTSP({sp}, {}, SUBGRAPH(ID, {}))", m.pattern, m.k),
            None => format!("COUNTP({}, SUBGRAPH(ID, {}))", m.pattern, m.k),
        };
        // A census, never a view: every pass but view substitution.
        let passes: Vec<_> = OPTIMIZERS
            .iter()
            .copied()
            .filter(|(name, _)| *name != "view-substitution")
            .collect();
        let bound = self.bind(
            &parse_query(&format!("SELECT ID, {agg} FROM nodes"))?,
            &passes,
        )?;
        let (counts, matches) = self.traverse(&bound)?.remove(0);
        // Counts served from the census cache come without their list.
        let matches = m
            .matches
            .then(|| matches.unwrap_or_else(|| Arc::new(exec_matches(g, pattern, 1))));
        let dsl = ego_pattern::to_dsl(pattern);
        let bytes = ViewEntry::estimate_bytes(&counts, matches.as_deref());
        views.insert(ViewEntry {
            pattern: pattern.clone(),
            dsl,
            k: m.k,
            subpattern: m.subpattern.clone(),
            counts,
            matches: matches.clone(),
            fingerprint: g.fingerprint(),
            shard: self.focal_shard,
            bytes,
        })?;
        self.persist_views()?;
        let mut t = Table::new(vec!["key".into(), "value".into()]);
        t.push_row(vec![Value::Str("pattern".into()), Value::Str(m.pattern)]);
        t.push_row(vec![Value::Str("radius".into()), Value::Int(m.k as i64)]);
        t.push_row(vec![
            Value::Str("subpattern".into()),
            Value::Str(m.subpattern.unwrap_or_else(|| "-".into())),
        ]);
        t.push_row(vec![
            Value::Str("matches".into()),
            Value::Str(if m.matches { "on".into() } else { "off".into() }),
        ]);
        t.push_row(vec![
            Value::Str("status".into()),
            Value::Str("materialized".into()),
        ]);
        Ok(t)
    }

    /// `DROP VIEW <pattern> RADIUS k [SUBPATTERN sp]`: unpin and remove
    /// the view; errors if no such view exists.
    fn execute_drop_view(&self, sql: &str) -> Result<Table, QueryError> {
        let d = crate::parser::parse_drop_view(sql)?;
        let Some(views) = self.views.as_deref() else {
            return Err(QueryError::Semantic(
                "no view registry attached; DROP VIEW is unavailable in this context".into(),
            ));
        };
        let pattern = self.catalog.require(&d.pattern)?;
        let dsl = ego_pattern::to_dsl(pattern);
        if views.remove(&dsl, d.k, d.subpattern.as_deref()).is_none() {
            return Err(QueryError::Semantic(format!(
                "no materialized view for `{}` RADIUS {}{}",
                d.pattern,
                d.k,
                d.subpattern
                    .as_deref()
                    .map(|sp| format!(" SUBPATTERN {sp}"))
                    .unwrap_or_default()
            )));
        }
        self.persist_views()?;
        let mut t = Table::new(vec!["key".into(), "value".into()]);
        t.push_row(vec![Value::Str("pattern".into()), Value::Str(d.pattern)]);
        t.push_row(vec![Value::Str("radius".into()), Value::Int(d.k as i64)]);
        t.push_row(vec![
            Value::Str("subpattern".into()),
            Value::Str(d.subpattern.unwrap_or_else(|| "-".into())),
        ]);
        t.push_row(vec![
            Value::Str("status".into()),
            Value::Str("dropped".into()),
        ]);
        Ok(t)
    }

    /// Persist the view registry to its sidecar, if both are attached.
    fn persist_views(&self) -> Result<(), QueryError> {
        if let (Some(views), Some(path)) = (self.views.as_deref(), self.views_path.as_deref()) {
            views.save(path, self.graph().fingerprint())?;
        }
        Ok(())
    }

    /// Serve a view-probe plan's count vectors straight from the
    /// registry (counting hits). `None` if any probed view vanished or
    /// went stale since planning — the caller recomputes.
    fn probe_views(&self, probes: &[ViewProbeJob]) -> Option<Vec<Arc<CountVector>>> {
        let views = self.views.as_deref()?;
        let fp = self.graph().fingerprint();
        probes
            .iter()
            .map(|p| {
                views
                    .get(&p.dsl, p.k, p.subpattern.as_deref(), fp, self.focal_shard)
                    .map(|e| Arc::clone(&e.counts))
            })
            .collect()
    }

    // --- scripts and census batches ---

    /// Execute every statement in a `;`-separated script, returning one
    /// result table per statement (in order). All census aggregates of
    /// the script's `SELECT`s are compiled into **one**
    /// [`Census::Batch`] job, so statements over the same patterns,
    /// radii, or focal sets share neighborhood sweeps, traversal groups,
    /// and global match lists; every other statement runs individually.
    /// The script aborts on the first error.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<Table>, QueryError> {
        self.run_script(split_statements(sql))
    }

    /// Run a script (a lone `SELECT` is a script of one): bind each
    /// `SELECT`, run all their census jobs as one [`Self::run_batched`]
    /// call under [`union_algorithm`]'s choice, then run each tree with its
    /// slice of the batch; every other statement runs through
    /// [`Self::execute`] in its turn.
    fn run_script(&self, statements: Vec<String>) -> Result<Vec<Table>, QueryError> {
        enum Item {
            Direct(String),
            /// A bound `SELECT` and its jobs' range in the shared batch.
            Select(Box<Bound>, Range<usize>),
        }
        let mut items = Vec::with_capacity(statements.len());
        let mut jobs: Vec<BatchAgg<'_>> = Vec::new();
        for text in statements {
            if !matches!(Statement::classify(&text), Statement::Select(_)) {
                items.push(Item::Direct(text));
                continue;
            }
            let bound = self.bind(&parse_query(&text)?, OPTIMIZERS)?;
            let start = jobs.len();
            // Only a census node adds jobs: a view probe reads pinned
            // vectors, and a pair census runs per statement.
            jobs.extend(self.census_jobs(&bound)?);
            items.push(Item::Select(Box::new(bound), start..jobs.len()));
        }
        // One algorithm decision spanning the whole script preserves
        // cross-statement sharing: statements over the same patterns and
        // radii still land in one sweep or traversal group.
        let choices: Vec<&crate::plan::AlgoChoice> = items
            .iter()
            .filter_map(|item| match item {
                Item::Select(bound, _) => bound.plan.choice(),
                Item::Direct(_) => None,
            })
            .collect();
        let algorithm = union_algorithm(&choices, self.algorithm);
        let results = self.run_batched(&jobs, algorithm)?;
        items
            .into_iter()
            .map(|item| match item {
                Item::Direct(text) => self.execute(&text),
                Item::Select(bound, range) => {
                    let x = Exec {
                        stmt: &bound.plan.stmt,
                        rows: Some(&bound.rows),
                        batch: &results[range],
                    };
                    self.output(&bound.plan.root, &x)
                }
            })
            .collect()
    }

    /// Run one bound statement's census on its own, under its plan's
    /// algorithm choice.
    fn traverse(&self, bound: &Bound) -> Result<Vec<CensusResult>, QueryError> {
        let algorithm = bound.plan.choice().map_or(self.algorithm, |c| c.algorithm);
        self.run_batched(&self.census_jobs(bound)?, algorithm)
    }

    /// A bound statement's census jobs over its rows, patterns resolved
    /// (none for a plan without a census node).
    fn census_jobs(&self, bound: &Bound) -> Result<Vec<BatchAgg<'_>>, QueryError> {
        let jobs = bound.plan.census().map_or(&[][..], |c| &c.jobs[..]);
        jobs.iter()
            .map(|job| {
                Ok(BatchAgg {
                    pattern: self.catalog.require(&job.pattern)?,
                    k: job.k,
                    subpattern: job.subpattern.clone(),
                    focal: bound.rows.clone(),
                })
            })
            .collect()
    }

    /// Evaluate a set of census aggregates as one batch under the
    /// planned `algorithm`, consulting the census cache (when attached)
    /// for finished counts and global match lists; results come back in
    /// job order. The one place the engine runs a census: the planner
    /// already refused algorithms a job's kernel would, so a cached count
    /// vector never masks an error.
    fn run_batched(
        &self,
        jobs: &[BatchAgg<'_>],
        algorithm: Algorithm,
    ) -> Result<Vec<CensusResult>, QueryError> {
        let g = self.graph();
        let mut results: Vec<Option<CensusResult>> = vec![None; jobs.len()];
        let cache = self.census_cache.as_deref();
        let fp = if cache.is_some() { g.fingerprint() } else { 0 };
        let mut count_keys: Vec<Option<String>> = vec![None; jobs.len()];
        if let Some(c) = cache {
            for (i, job) in jobs.iter().enumerate() {
                let key = CensusCache::count_key(
                    &ego_pattern::to_dsl(job.pattern),
                    job.k,
                    job.subpattern.as_deref(),
                    &job.focal,
                    fp,
                );
                results[i] = c.get_counts(&key).map(|cv| (cv, None));
                count_keys[i] = Some(key);
            }
        }

        let miss: Vec<usize> = (0..jobs.len()).filter(|&i| results[i].is_none()).collect();
        if !miss.is_empty() {
            let mut specs = Vec::with_capacity(miss.len());
            let mut provided: Vec<Option<Arc<MatchList>>> = Vec::with_capacity(miss.len());
            let mut match_keys: Vec<String> = Vec::with_capacity(miss.len());
            for &i in &miss {
                let job = &jobs[i];
                let mut spec = CensusSpec::single(job.pattern, job.k)
                    .with_focal(FocalNodes::Set(job.focal.clone()));
                if let Some(sp) = &job.subpattern {
                    spec = spec.with_subpattern(sp);
                }
                specs.push(spec);
                let mkey = CensusCache::match_key(&ego_pattern::to_dsl(job.pattern), fp);
                // ND-BAS never uses global match lists; don't skew the
                // hit/miss counters with lookups it would ignore.
                provided.push(match cache {
                    Some(c) if algorithm != Algorithm::NdBaseline => c.get_matches(&mkey),
                    _ => None,
                });
                match_keys.push(mkey);
            }
            // The center index is a property of the graph: every
            // pattern-driven batch over one fingerprint shares one build.
            // A `Random` index is a draw from this run's RNG stream and
            // never enters the cache; ND algorithms never read one.
            let pattern_driven = matches!(
                algorithm,
                Algorithm::PtBaseline | Algorithm::PtRandom | Algorithm::PtOpt | Algorithm::Auto
            );
            let center_cache = cache.filter(|_| {
                pattern_driven && self.pt_config.center_strategy == CenterStrategy::Degree
            });
            let center_key = CensusCache::center_key(CenterIndex::count_for(&self.pt_config), fp);
            let job = Job {
                config: self.pt_config.clone(),
                exec: self.exec,
                matches: provided,
                centers: center_cache.and_then(|c| c.get_centers(&center_key)),
                ..Job::new(Census::Batch(&specs), algorithm)
            };
            let batch = run(g, &job)?;
            if let (Some(c), Some(built)) = (center_cache, batch.centers) {
                c.put_centers(center_key, built);
            }
            for (j, (&i, cv)) in miss.iter().zip(batch.counts).enumerate() {
                let cv = Arc::new(cv);
                let matches = batch.matches[j].clone();
                if let Some(c) = cache {
                    if let Some(m) = &matches {
                        c.put_matches(match_keys[j].clone(), m.clone());
                    }
                    if let Some(key) = &count_keys[i] {
                        let job = &jobs[i];
                        // Provenance: the dirty radius bound under which
                        // these counts stay exact across a mutation, so a
                        // localized update can keep the entry instead of
                        // dropping it.
                        let radius = specs[j].dirty_radius();
                        c.put_counts_with_meta(
                            key.clone(),
                            cv.clone(),
                            crate::census_cache::CountMeta {
                                dsl: ego_pattern::to_dsl(job.pattern),
                                k: job.k,
                                subpattern: job.subpattern.clone(),
                                focal: Arc::new(job.focal.clone()),
                                radius,
                            },
                        );
                    }
                }
                results[i] = Some((cv, matches));
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect())
    }

    /// Compile a `SUBSCRIBE` statement (or bare SELECT) into a standing
    /// query: validate the shape (single table; projections are `ID`
    /// and at least one aggregate; no ORDER BY / LIMIT), freeze the
    /// focal set (the relation operators — WHERE, `RND()`, focal shard —
    /// exactly as a query runs them), and resolve each aggregate's
    /// pattern into an owned copy detached from this engine's catalog.
    pub fn compile_subscription(
        &self,
        sql: &str,
    ) -> Result<crate::subscribe::SubscriptionSpec, QueryError> {
        let body = crate::subscribe::strip_subscribe(sql);
        let stmt = parse_query(body)?;
        if stmt.tables.len() != 1 {
            return Err(QueryError::Semantic(
                "SUBSCRIBE takes a single-table census statement".into(),
            ));
        }
        if !stmt.order_by.is_empty() || stmt.limit.is_some() {
            return Err(QueryError::Semantic(
                "SUBSCRIBE does not allow ORDER BY or LIMIT: notifications are \
                 per-focal row deltas, not an ordered result"
                    .into(),
            ));
        }
        self.check(&stmt)?;
        let mut aggs = Vec::new();
        for proj in &stmt.projections {
            match proj {
                Projection::Column(c) if !c.is_id() => {
                    return Err(QueryError::Semantic(format!(
                        "SUBSCRIBE projections must be `ID` or census aggregates; \
                         found column `{}`",
                        c.column
                    )));
                }
                Projection::Column(_) => {}
                Projection::Agg(agg) => {
                    let pattern = self.catalog.require(&agg.pattern)?;
                    let NeighborhoodAst::Subgraph { k, .. } = agg.neighborhood else {
                        unreachable!("the checks admit only SUBGRAPH over one table");
                    };
                    aggs.push(crate::subscribe::SubscriptionAgg {
                        column: proj.name(),
                        pattern: pattern.clone(),
                        pattern_dsl: ego_pattern::to_dsl(pattern),
                        k,
                        subpattern: agg.subpattern.clone(),
                    });
                }
            }
        }
        if aggs.is_empty() {
            return Err(QueryError::Semantic(
                "SUBSCRIBE needs at least one census aggregate".into(),
            ));
        }
        let (_, focal) = self.relate(build_plan(&stmt).root, &stmt)?;
        Ok(crate::subscribe::SubscriptionSpec {
            statement: body.trim().to_string(),
            focal,
            aggs,
        })
    }

    /// One pairwise aggregate's census over `pairs`.
    fn pair_spec(
        &self,
        agg: &AggCall,
        pairs: PairSelector,
    ) -> Result<PairCensusSpec<'_>, QueryError> {
        let pattern = self.catalog.require(&agg.pattern)?;
        let spec = match agg.neighborhood {
            NeighborhoodAst::Intersection { k, .. } => {
                PairCensusSpec::intersection(pattern, k, pairs)
            }
            NeighborhoodAst::Union { k, .. } => PairCensusSpec::union(pattern, k, pairs),
            NeighborhoodAst::Subgraph { .. } => {
                unreachable!("the checks admit no SUBGRAPH over two tables")
            }
        };
        Ok(match &agg.subpattern {
            Some(sp) => spec.with_subpattern(sp),
            None => spec,
        })
    }
}

/// A `SELECT` bound to an engine: checked, planned, and holding the rows
/// its relation operators bound.
struct Bound {
    plan: Plan,
    /// The bound rows, flattened: one node per FROM alias per row.
    rows: Vec<NodeId>,
}

/// What a walk of the operator tree reads besides the tree.
struct Exec<'a> {
    stmt: &'a SelectStmt,
    /// The rows the relation operators bound, once they have run.
    rows: Option<&'a [NodeId]>,
    /// The statement's census results: its slice of the script's batch.
    batch: &'a [CensusResult],
}

/// What an operator under `Project` hands the one above it: the bound
/// rows and one count column per census aggregate.
type Rows<'a> = (Cow<'a, [NodeId]>, Vec<Counts>);

/// The positions of the first `limit` rows in ORDER BY order, given one
/// sort word per key per row.
///
/// Each row becomes a record `(first word, tie rank)`, where the tie rank
/// is the row's place in the order of the remaining keys, position last
/// (the identity for one key). Records then compare as plain integer
/// pairs, and no two are equal, so the order is strict and total: keeping
/// the smallest `limit` and sorting only those gives exactly what a
/// stable sort of every row followed by a truncation gives. A buffer of up
/// to `2 * limit` records is cut back to the best `limit` whenever it
/// fills, and a record no better than the worst one kept after a cut is
/// skipped with one comparison, so a small LIMIT costs one pass over the
/// rows.
fn top_rows(words: &[Vec<i64>], limit: usize) -> Vec<usize> {
    let (first, rest) = words.split_first().expect("ORDER BY has a key");
    // Rows in tie order; empty for one key, where tie order is position.
    let mut order: Vec<usize> = Vec::new();
    if !rest.is_empty() {
        order.extend(0..first.len());
        order.sort_by(|&a, &b| {
            let mut keys = rest.iter().map(|w| w[a].cmp(&w[b]));
            keys.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
    }
    let row = |tie: usize| if order.is_empty() { tie } else { order[tie] };
    let limit = limit.min(first.len());
    if limit == 0 {
        return Vec::new();
    }
    let mut kept: Vec<(i64, usize)> = Vec::with_capacity((2 * limit).min(first.len()));
    let mut worst = None;
    for record in (0..first.len()).map(|tie| (first[row(tie)], tie)) {
        if worst.is_some_and(|w| record >= w) {
            continue;
        }
        kept.push(record);
        if kept.len() == 2 * limit {
            kept.select_nth_unstable(limit - 1);
            kept.truncate(limit);
            worst = kept.last().copied();
        }
    }
    kept.sort_unstable();
    kept.truncate(limit);
    kept.into_iter().map(|(_, tie)| row(tie)).collect()
}

/// One aggregate's count column: per focal node, or per node pair.
enum Counts {
    Focal(Arc<CountVector>),
    Pair(PairCounts),
}

impl Counts {
    /// The count for one bound row.
    fn get(&self, row: &[NodeId]) -> u64 {
        match self {
            Counts::Focal(cv) => cv.get(row[0]),
            Counts::Pair(pc) => pc.get(row[0], row[1]),
        }
    }

    /// The count for every bound row, in order (`rows` flattened, one
    /// node per alias).
    fn column(&self, rows: &[NodeId]) -> Vec<u64> {
        match self {
            Counts::Focal(cv) => rows.iter().map(|&n| cv.get(n)).collect(),
            Counts::Pair(pc) => rows.chunks_exact(2).map(|p| pc.get(p[0], p[1])).collect(),
        }
    }
}

/// One census job's outcome: its counts, and the global match list the
/// census used (`None` when the counts came from the census cache, or
/// under ND-BAS).
type CensusResult = (Arc<CountVector>, Option<Arc<MatchList>>);

/// One validated single-table census aggregate, ready for batching.
struct BatchAgg<'e> {
    pattern: &'e Pattern,
    k: u32,
    subpattern: Option<String>,
    focal: Vec<NodeId>,
}

/// A neighborhood argument must be the ID of one of `aliases`.
fn check_id_column(col: &ColumnRef, aliases: &[&str]) -> Result<(), QueryError> {
    if !col.is_id() {
        return Err(QueryError::Semantic(format!(
            "neighborhood argument must be an ID column, found `{}`",
            col.column
        )));
    }
    if let Some(t) = &col.table {
        if !aliases.iter().any(|a| a.eq_ignore_ascii_case(t)) {
            return Err(QueryError::Semantic(format!("unknown table alias `{t}`")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{AttrValue, GraphBuilder, Label};

    /// Two triangles sharing node 2, chain 4-5-6.
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
        for i in 0..7u32 {
            // age attribute = 10 * id, for WHERE tests.
            // (builder consumed later; set here)
            b.set_node_attr(NodeId(i), "age", (10 * i) as i64);
        }
        b.build()
    }

    fn engine(g: &Graph) -> QueryEngine<'_> {
        let mut e = QueryEngine::new(g);
        e.catalog_mut()
            .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
            .unwrap();
        e.catalog_mut().define("PATTERN node1 { ?A; }").unwrap();
        e
    }

    #[test]
    fn simple_census_query() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
            .unwrap();
        assert_eq!(t.num_rows(), 7);
        assert_eq!(t.rows()[2][1], Value::Int(2));
        assert_eq!(t.rows()[6][1], Value::Int(0));
        assert_eq!(t.columns()[1], "COUNTP(tri, SUBGRAPH(ID, 1))");
    }

    #[test]
    fn where_filters_rows() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE age >= 40")
            .unwrap();
        assert_eq!(t.num_rows(), 3); // nodes 4, 5, 6
        assert_eq!(t.rows()[0][0], Value::Int(4));
    }

    #[test]
    fn attribute_projection() {
        let g = fixture();
        let e = engine(&g);
        let t = e.execute("SELECT ID, age FROM nodes WHERE ID < 2").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows()[1][1], Value::Int(10));
    }

    #[test]
    fn a_foreign_alias_in_a_range_still_errors() {
        let g = fixture();
        let e = engine(&g);
        let err = e
            .execute("SELECT ID FROM nodes n WHERE m.ID >= 1 AND n.ID < 3")
            .unwrap_err();
        assert!(err.to_string().contains("unknown table alias `m`"), "{err}");
        let t = e
            .execute("SELECT ID FROM nodes n WHERE N.ID >= 1 AND n.ID < 3")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn non_integer_range_literals_evaluate_per_row() {
        let g = fixture();
        let e = engine(&g);
        let ids = |sql: &str| -> Vec<Value> {
            let t = e.execute(sql).unwrap();
            t.rows().iter().map(|r| r[0].clone()).collect()
        };
        assert_eq!(
            ids("SELECT ID FROM nodes WHERE ID < 2.5"),
            [0, 1, 2].map(Value::Int)
        );
        assert_eq!(
            ids("SELECT ID FROM nodes WHERE ID >= 5 AND ID != 6"),
            [Value::Int(5)]
        );
        assert!(ids("SELECT ID FROM nodes WHERE ID = '3'").is_empty());
    }

    #[test]
    fn integer_attributes_compare_exactly() {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(2, Label(0));
        b.set_node_attr(NodeId(0), "x", 1i64 << 53);
        b.set_node_attr(NodeId(1), "x", (1i64 << 53) + 1);
        let g = b.build();
        let e = engine(&g);
        let t = e
            .execute("SELECT ID FROM nodes WHERE x = 9007199254740993")
            .unwrap();
        assert_eq!(t.rows(), [vec![Value::Int(1)]]);
        let t = e
            .execute("SELECT ID, x FROM nodes ORDER BY 2 DESC")
            .unwrap();
        assert_eq!(t.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn a_mixed_type_column_orders_by_type_then_value() {
        let values: [Option<AttrValue>; 9] = [
            Some(AttrValue::Int(3)),
            Some(AttrValue::Str("b".into())),
            Some(AttrValue::Float(1.5)),
            Some(AttrValue::Bool(true)),
            None,
            Some(AttrValue::Int(1)),
            Some(AttrValue::Float(f64::NAN)),
            Some(AttrValue::Str("a".into())),
            Some(AttrValue::Float(3.0)),
        ];
        let mut b = GraphBuilder::undirected();
        b.add_nodes(values.len(), Label(0));
        for (i, v) in values.iter().enumerate() {
            if let Some(v) = v {
                b.set_node_attr(NodeId(i as u32), "m", v.clone());
            }
        }
        let g = b.build();
        let e = engine(&g);
        let order = |dir: &str| -> Vec<Value> {
            let sql = format!("SELECT ID, m FROM nodes ORDER BY 2 {dir}");
            let t = e.execute(&sql).unwrap();
            assert_eq!(
                e.execute(&sql).unwrap().to_csv(),
                t.to_csv(),
                "deterministic"
            );
            t.rows().iter().map(|r| r[0].clone()).collect()
        };
        // Numbers (3 and 3.0 tie, so by position), NaN, strings,
        // booleans; NULL last either way.
        assert_eq!(order("ASC"), [5, 2, 0, 8, 6, 7, 1, 3, 4].map(Value::Int));
        assert_eq!(order("DESC"), [3, 1, 7, 6, 0, 8, 2, 5, 4].map(Value::Int));
    }

    #[test]
    fn multiple_aggregates() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute(
                "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)), COUNTP(node1, SUBGRAPH(ID, 1)) \
                 FROM nodes WHERE ID = 2",
            )
            .unwrap();
        assert_eq!(t.rows()[0][1], Value::Int(2));
        // 1-hop ball of node 2 = {0,1,2,3,4}: 5 single-node matches.
        assert_eq!(t.rows()[0][2], Value::Int(5));
    }

    #[test]
    fn pairwise_intersection_query() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute(
                "SELECT n1.ID, n2.ID, \
                 COUNTP(node1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
                 FROM nodes AS n1, nodes AS n2 WHERE n1.ID < n2.ID AND n2.ID < 3",
            )
            .unwrap();
        // pairs: (0,1), (0,2), (1,2)
        assert_eq!(t.num_rows(), 3);
        // N1(0)={0,1,2}, N1(1)={0,1,2}: intersection 3 nodes.
        assert_eq!(t.rows()[0][2], Value::Int(3));
    }

    #[test]
    fn rnd_selectivity_is_seeded() {
        let g = fixture();
        let mut e = engine(&g);
        e.set_seed(7);
        let t1 = e.execute("SELECT ID FROM nodes WHERE RND() < 0.5").unwrap();
        let t2 = e.execute("SELECT ID FROM nodes WHERE RND() < 0.5").unwrap();
        assert_eq!(t1, t2);
        assert!(t1.num_rows() < 7); // almost surely with this seed
    }

    #[test]
    fn countsp_query() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        let mut e = QueryEngine::new(&g);
        e.catalog_mut()
            .define("PATTERN triad { ?A->?B; ?B->?C; ?A!->?C; SUBPATTERN mid {?B;} }")
            .unwrap();
        let t = e
            .execute("SELECT ID, COUNTSP(mid, triad, SUBGRAPH(ID, 0)) FROM nodes")
            .unwrap();
        assert_eq!(t.rows()[1][1], Value::Int(1));
        assert_eq!(t.rows()[0][1], Value::Int(0));
    }

    #[test]
    fn semantic_errors() {
        let g = fixture();
        let e = engine(&g);
        assert!(matches!(
            e.execute("SELECT ID, COUNTP(ghost, SUBGRAPH(ID, 1)) FROM nodes"),
            Err(QueryError::UnknownPattern(_))
        ));
        assert!(e
            .execute("SELECT ID, COUNTP(tri, SUBGRAPH(age, 1)) FROM nodes")
            .is_err());
        assert!(e
            .execute(
                "SELECT n1.ID, COUNTP(tri, SUBGRAPH-INTERSECTION(n1.ID, n1.ID, 1)) \
                 FROM nodes AS n1, nodes AS n2"
            )
            .is_err());
        assert!(e
            .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes AS a, nodes AS a")
            .is_err());
        // EXPLAIN fails exactly where execution fails, message for message.
        for sql in [
            "SELECT ID, COUNTP(ghost, SUBGRAPH(ID, 1)) FROM nodes",
            "SELECT ID, COUNTP(tri, SUBGRAPH-INTERSECTION(ID, ID, 1)) FROM nodes",
            "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes AS a, nodes AS a",
            "SELECT ID, COUNTP(tri, SUBGRAPH(age, 1)) FROM nodes",
            "SELECT ID, COUNTP(tri, SUBGRAPH(x.ID, 1)) FROM nodes",
            "SELECT a.ID, COUNTP(tri, SUBGRAPH(a.ID, 1)) FROM nodes a, nodes b",
            "SELECT a.ID, COUNTP(tri, SUBGRAPH-INTERSECTION(a.ID, a.ID, 1)) FROM nodes a, nodes b",
            "SELECT n1.ID, COUNTP(tri, SUBGRAPH-INTERSECTION(n1.ID, n1.ID, 1)) \
             FROM nodes AS n1, nodes AS n2",
            "SELECT ID, COUNTSP(hub, tri, SUBGRAPH(ID, 1)) FROM nodes",
            "SELECT ID FROM nodes a, nodes b",
            "SELECT ID FROM nodes WHERE FOO(ID) > 1",
            "SELECT ID FROM nodes ORDER BY 5",
        ] {
            let want = e.execute(sql).unwrap_err().to_string();
            let got = e.execute(&format!("EXPLAIN {sql}")).unwrap_err();
            assert_eq!(got.to_string(), want, "{sql}");
        }
        // Pairwise census is not cost-planned, yet a forced algorithm its
        // kernel refuses fails EXPLAIN too. (Forced PT is refused pairwise
        // only past PMD's radius bound, on graphs this fixture is not.)
        let mut forced = engine(&g);
        forced
            .catalog_mut()
            .define("PATTERN t { ?A-?B; SUBPATTERN one {?A;} }")
            .unwrap();
        forced.set_algorithm(Algorithm::NdBaseline);
        let sql = "SELECT a.ID, b.ID, COUNTSP(one, t, SUBGRAPH-UNION(a.ID, b.ID, 1)) \
                   FROM nodes a, nodes b";
        let want = forced.execute(sql).unwrap_err().to_string();
        let got = forced.execute(&format!("EXPLAIN {sql}")).unwrap_err();
        assert_eq!(got.to_string(), want, "{sql}");
    }

    #[test]
    fn algorithms_agree_through_sql() {
        let g = fixture();
        let mut e = engine(&g);
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes";
        let mut results = Vec::new();
        for algo in [
            Algorithm::NdBaseline,
            Algorithm::NdPivot,
            Algorithm::NdDiff,
            Algorithm::PtBaseline,
            Algorithm::PtOpt,
            Algorithm::Auto,
        ] {
            e.set_algorithm(algo);
            results.push(e.execute(sql).unwrap());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = fixture();
        let mut e = engine(&g);
        let single = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes";
        let pair = "SELECT n1.ID, n2.ID, \
                    COUNTP(node1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
                    FROM nodes AS n1, nodes AS n2 WHERE n1.ID < n2.ID";
        e.set_threads(1);
        let base_single = e.execute(single).unwrap();
        let base_pair = e.execute(pair).unwrap();
        for threads in [2, 4, 0] {
            e.set_threads(threads);
            assert_eq!(e.execute(single).unwrap(), base_single, "threads={threads}");
            assert_eq!(e.execute(pair).unwrap(), base_pair, "threads={threads}");
        }
    }

    #[test]
    fn order_by_and_limit() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute(
                "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes                  ORDER BY 2 DESC LIMIT 3",
            )
            .unwrap();
        assert_eq!(t.num_rows(), 3);
        // Node 2 (2 triangles) first; ties on 1 broken stably by prior
        // (id) order.
        assert_eq!(t.rows()[0][0], Value::Int(2));
        assert_eq!(t.rows()[0][1], Value::Int(2));
        let counts: Vec<i64> = t.rows().iter().map(|r| r[1].as_int().unwrap()).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn order_by_multi_key_asc() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute(
                "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes                  ORDER BY 2 ASC, 1 DESC",
            )
            .unwrap();
        // Counts ascending; within equal counts, ids descending.
        let rows: Vec<(i64, i64)> = t
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        for w in rows.windows(2) {
            assert!(
                w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 > w[1].0),
                "bad order: {rows:?}"
            );
        }
    }

    #[test]
    fn order_by_errors() {
        let g = fixture();
        let e = engine(&g);
        assert!(e.execute("SELECT ID FROM nodes ORDER BY 0").is_err());
        assert_eq!(
            e.execute("SELECT ID FROM nodes ORDER BY 5")
                .unwrap_err()
                .to_string(),
            "syntax error at 1:31: ORDER BY takes a 1-based projection ordinal (1..=1), \
             found `5`"
        );
        assert!(e.execute("SELECT ID FROM nodes LIMIT x").is_err());
        // LIMIT 0 is legal and empty.
        let t = e.execute("SELECT ID FROM nodes LIMIT 0").unwrap();
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn pairwise_countsp_query() {
        let g = fixture();
        let mut e = QueryEngine::new(&g);
        e.catalog_mut()
            .define("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }")
            .unwrap();
        let t = e
            .execute(
                "SELECT n1.ID, n2.ID, \
                 COUNTSP(one, t, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
                 FROM nodes AS n1, nodes AS n2 WHERE n1.ID = 0 AND n2.ID = 1",
            )
            .unwrap();
        // Common 1-hop neighborhood of 0 and 1 is {0,1,2}. Anchored
        // matches with ?A there: all three of triangle {0,1,2} plus
        // triangle {2,3,4} anchored at A=2 (its B/C images may lie
        // outside the neighborhood — that is the point of COUNTSP).
        assert_eq!(t.rows()[0][2], Value::Int(4));
    }

    /// Node pairs cross shard boundaries: a sharded engine runs a two-table
    /// statement whole, exactly as an unsharded one does.
    #[test]
    fn sharded_engine_runs_pairs_whole() {
        let g = fixture();
        let mut e = engine(&g);
        e.set_focal_shard(Some(crate::shard::ShardSpec::new(1, 2).unwrap()));
        let sql = "SELECT a.ID, b.ID FROM nodes a, nodes b WHERE a.ID < 3";
        let whole = engine(&g).execute(sql).unwrap();
        assert_eq!(whole.num_rows(), 18);
        assert_eq!(e.execute(sql).unwrap(), whole);
        let pair = "SELECT a.ID, b.ID, COUNTP(node1, SUBGRAPH-UNION(a.ID, b.ID, 1)) \
                    FROM nodes a, nodes b WHERE a.ID < 3";
        assert_eq!(e.execute(pair).unwrap(), engine(&g).execute(pair).unwrap());
        let ex = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(explain_rows(&ex, "shard").is_empty(), "{ex:?}");
    }

    #[test]
    fn pairwise_union_query() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute(
                "SELECT n1.ID, n2.ID, \
                 COUNTP(node1, SUBGRAPH-UNION(n1.ID, n2.ID, 1)) \
                 FROM nodes AS n1, nodes AS n2 WHERE n1.ID = 0 AND n2.ID = 6",
            )
            .unwrap();
        assert_eq!(t.num_rows(), 1);
        // N1(0) = {0,1,2}, N1(6) = {5,6}: union has 5 nodes.
        assert_eq!(t.rows()[0][2], Value::Int(5));
    }

    #[test]
    fn pairwise_order_by_count() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute(
                "SELECT n1.ID, n2.ID, \
                 COUNTP(node1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
                 FROM nodes AS n1, nodes AS n2 WHERE n1.ID < n2.ID AND n2.ID < 4 \
                 ORDER BY 3 DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        let c0 = t.rows()[0][2].as_int().unwrap();
        let c1 = t.rows()[1][2].as_int().unwrap();
        assert!(c0 >= c1);
    }

    /// EXPLAIN rows by (trimmed) node name.
    fn explain_rows(t: &Table, name: &str) -> Vec<Vec<Value>> {
        t.rows()
            .iter()
            .filter(|r| r[0].to_string().trim_start() == name)
            .cloned()
            .collect()
    }

    #[test]
    fn explain_describes_plan() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute("EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes")
            .unwrap();
        assert_eq!(t.columns(), ["node", "detail", "est_cost"]);
        // Tree shape: project at the root, scan at the leaf.
        assert_eq!(t.rows()[0][0], Value::Str("project".into()));
        let scan = explain_rows(&t, "scan");
        assert_eq!(scan.len(), 1);
        assert_eq!(scan[0][2], Value::Int(7));
        // The census row carries the decision, its basis, and a numeric
        // cost estimate.
        let census = explain_rows(&t, "census");
        assert_eq!(census.len(), 1);
        let detail = census[0][1].to_string();
        assert!(detail.contains("algo="), "{detail}");
        assert!(detail.contains("stats=heuristic"), "{detail}");
        assert!(matches!(census[0][2], Value::Float(c) if c.is_finite()));
        // The road not taken: at least two considered alternatives, each
        // with a numeric cost, exactly one marked chosen.
        let choices = explain_rows(&t, "choice");
        assert!(choices.len() >= 2, "choices: {choices:?}");
        assert!(choices.iter().all(|r| matches!(r[2], Value::Float(_))));
        let chosen: Vec<_> = choices
            .iter()
            .filter(|r| r[1].to_string().contains("(chosen)"))
            .collect();
        assert_eq!(chosen.len(), 1);
        // Costs come out cheapest-first, and the cheapest is the choice.
        let costs: Vec<f64> = choices
            .iter()
            .map(|r| match r[2] {
                Value::Float(c) => c,
                _ => unreachable!(),
            })
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        assert!(choices[0][1].to_string().contains("(chosen)"));
        // Aggregate detail: pattern shape, radius, match estimate
        // (labelled), candidate counts.
        let aggs = explain_rows(&t, "agg");
        assert_eq!(aggs.len(), 1);
        let agg = aggs[0][1].to_string();
        assert!(agg.contains("COUNTP(tri"), "{agg}");
        assert!(agg.contains("PATTERN tri"), "{agg}");
        assert!(agg.contains("3/3"), "{agg}");
        assert!(agg.contains("k=2"), "{agg}");
        assert!(agg.contains("matches=estimated:"), "{agg}");
        assert!(agg.contains("?A:"), "{agg}");
        // Kernel plan row.
        let setops = explain_rows(&t, "setops");
        assert_eq!(setops.len(), 1);
        assert!(setops[0][1].to_string().contains("kernel="));
        assert!(setops[0][1].to_string().contains("gallop_ratio:"));
        // EXPLAIN of a bad query errors like the query would.
        assert!(e
            .execute("EXPLAIN SELECT ID, COUNTP(ghost, SUBGRAPH(ID, 1)) FROM nodes")
            .is_err());
    }

    #[test]
    fn explain_renders_filter_shard_order_limit_nodes() {
        let g = fixture();
        let mut e = engine(&g);
        e.set_focal_shard(Some(crate::shard::ShardSpec::new(1, 2).unwrap()));
        let t = e
            .execute(
                "EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes \
                 WHERE age >= 0 ORDER BY 2 DESC LIMIT 3",
            )
            .unwrap();
        let names: Vec<String> = t
            .rows()
            .iter()
            .map(|r| r[0].to_string().trim_start().to_string())
            .collect();
        for expected in [
            "limit", "order", "project", "census", "shard", "filter", "scan",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected}: {names:?}"
            );
        }
        // Shard lands between census and filter: WHERE runs over every
        // node, the shard restriction afterwards.
        let shard_pos = names.iter().position(|n| n == "shard").unwrap();
        let filter_pos = names.iter().position(|n| n == "filter").unwrap();
        let census_pos = names.iter().position(|n| n == "census").unwrap();
        assert!(census_pos < shard_pos && shard_pos < filter_pos);
        // No cache attached: no cache rows at all.
        assert!(explain_rows(&t, "cache").is_empty());
    }

    /// EXPLAIN plans a `WHERE` statement over the focal set execution
    /// plans with, so the two name the same algorithm on both sides of the
    /// ND/PT crossover (`m·|V_P|` vs the focal count).
    #[test]
    fn explain_chooses_the_way_execution_does() {
        // A 300-node path with 50 disjoint triangles closed along it.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(300, Label(0));
        for x in 0..299u32 {
            b.add_edge(NodeId(x), NodeId(x + 1));
        }
        for i in 0..50u32 {
            b.add_edge(NodeId(3 * i), NodeId(3 * i + 2));
        }
        let g = b.build();
        let e = engine(&g);
        let mut picks = Vec::new();
        for sql in [
            "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 5",
            "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes",
        ] {
            let bound = e.bind(&parse_query(sql).unwrap(), OPTIMIZERS).unwrap();
            let executed = bound.plan.choice().unwrap().algorithm;
            let t = e.execute(&format!("EXPLAIN {sql}")).unwrap();
            let detail = explain_rows(&t, "census")[0][1].to_string();
            assert!(
                detail.starts_with(&format!("algo={executed:?} ")),
                "{sql}: EXPLAIN says `{detail}`, execution plans {executed:?}"
            );
            picks.push(executed);
        }
        assert_eq!(picks, [Algorithm::NdPivot, Algorithm::PtOpt]);
    }

    #[test]
    fn explain_costs_separate_dense_from_sparse() {
        // Dense clique: huge match list, every ball is the whole graph →
        // the ND side wins. Sparse path: few matches, selective balls →
        // the PT side wins.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(8, Label(0));
        for x in 0..8u32 {
            for y in (x + 1)..8 {
                b.add_edge(NodeId(x), NodeId(y));
            }
        }
        let dense = b.build();
        let mut b = GraphBuilder::undirected();
        b.add_nodes(30, Label(0));
        for x in 0..29u32 {
            b.add_edge(NodeId(x), NodeId(x + 1));
        }
        let sparse = b.build();
        let algo_of = |g: &Graph| {
            let e = engine(g);
            e.execute("ANALYZE").unwrap();
            let t = e
                .execute("EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes")
                .unwrap();
            let census = explain_rows(&t, "census");
            let detail = census[0][1].to_string();
            assert!(detail.contains("stats=analyzed"), "{detail}");
            detail
        };
        let dense_algo = algo_of(&dense);
        let sparse_algo = algo_of(&sparse);
        assert!(dense_algo.contains("algo=Nd"), "{dense_algo}");
        assert!(sparse_algo.contains("algo=Pt"), "{sparse_algo}");
    }

    #[test]
    fn execute_script_matches_individual_statements() {
        let g = fixture();
        let e = engine(&g);
        let script = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes; \
                      SELECT ID, COUNTP(node1, SUBGRAPH(ID, 2)) FROM nodes WHERE age >= 40; \
                      EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes;";
        let tables = e.execute_script(script).unwrap();
        assert_eq!(tables.len(), 3);
        assert_eq!(
            tables[0],
            e.execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
                .unwrap()
        );
        assert_eq!(
            tables[1],
            e.execute("SELECT ID, COUNTP(node1, SUBGRAPH(ID, 2)) FROM nodes WHERE age >= 40")
                .unwrap()
        );
        assert_eq!(
            tables[2],
            e.execute("EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
                .unwrap()
        );
    }

    #[test]
    fn execute_script_propagates_errors() {
        let g = fixture();
        let e = engine(&g);
        assert!(e
            .execute_script(
                "SELECT ID FROM nodes; SELECT ID, COUNTP(ghost, SUBGRAPH(ID, 1)) FROM nodes"
            )
            .is_err());
    }

    #[test]
    fn census_cache_reuses_counts_and_matches() {
        use crate::census_cache::CensusCache;
        let g = fixture();
        let mut e = engine(&g);
        let cache = Arc::new(CensusCache::new(16));
        e.set_census_cache(cache.clone());
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        let first = e.execute(sql).unwrap();
        let s1 = cache.stats();
        assert_eq!(s1.count_hits, 0);
        assert_eq!(s1.count_entries, 1);
        assert_eq!(s1.match_entries, 1);
        // Same statement again: finished counts served from cache.
        let second = e.execute(sql).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats().count_hits, 1);
        // Different radius, same pattern: count miss but match-list hit.
        e.execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes")
            .unwrap();
        let s3 = cache.stats();
        assert_eq!(s3.match_hits, 1);
        assert_eq!(s3.count_entries, 2);
        // Cached results are bit-identical to an uncached engine's.
        let plain = engine(&g);
        assert_eq!(second, plain.execute(sql).unwrap());
    }

    #[test]
    fn swap_graph_invalidates_census_cache_on_fingerprint_change() {
        use crate::census_cache::CensusCache;
        let g = Arc::new(fixture());
        let mut e = QueryEngine::shared(g.clone());
        e.catalog_mut()
            .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
            .unwrap();
        let cache = Arc::new(CensusCache::new(16));
        e.set_census_cache(cache.clone());
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        e.execute(sql).unwrap();
        assert_eq!(cache.stats().count_entries, 1);
        // Swapping in the same graph (same fingerprint) is a no-op.
        assert!(!e.swap_graph(g.clone()));
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().count_entries, 1);
        // A genuinely different graph invalidates the cache.
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
            (4, 6), // closes the 4-5-6 triangle
        ] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        assert!(e.swap_graph(Arc::new(b.build())));
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.count_entries, 0);
        assert_eq!(s.match_entries, 0);
        // The engine now queries the new graph.
        let t = e.execute(sql).unwrap();
        assert_eq!(t.rows()[5][1], Value::Int(1));
        assert_eq!(t.rows()[2][1], Value::Int(2));
    }

    #[test]
    fn census_cache_respects_where_focal_sets() {
        use crate::census_cache::CensusCache;
        let g = fixture();
        let mut e = engine(&g);
        e.set_census_cache(Arc::new(CensusCache::new(16)));
        let all = e
            .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
            .unwrap();
        // Different focal set must NOT hit the cached full-graph counts.
        let filtered = e
            .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE age < 30")
            .unwrap();
        assert_eq!(filtered.num_rows(), 3);
        assert_eq!(all.rows()[2][1], filtered.rows()[2][1]);
    }

    #[test]
    fn explain_shows_batch_plan_for_multi_agg() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute(
                "EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)), \
                 COUNTP(node1, SUBGRAPH(ID, 1)) FROM nodes",
            )
            .unwrap();
        // 2 aggregate rows + at least one batch-stage row.
        let aggs = explain_rows(&t, "agg");
        assert_eq!(aggs.len(), 2);
        let stages = explain_rows(&t, "stage");
        assert!(!stages.is_empty(), "rows: {:?}", t.rows());
        // Auto on this fixture plans as ND: one shared sweep at the max
        // radius covering both patterns.
        let detail = stages[0][1].to_string();
        assert!(detail.contains("nd-sweep"), "{detail}");
        assert!(detail.contains("tri"), "{detail}");
        assert!(detail.contains("node1"), "{detail}");
        assert!(detail.contains("@k=2"), "{detail}");
    }

    #[test]
    fn explain_shows_cache_reuse_when_cache_attached() {
        use crate::census_cache::CensusCache;
        let g = fixture();
        let mut e = engine(&g);
        e.set_census_cache(Arc::new(CensusCache::new(16)));
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        let before = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        let cold: Vec<String> = explain_rows(&before, "cache")
            .iter()
            .map(|r| r[1].to_string())
            .collect();
        assert_eq!(cold, vec!["tri: matches=miss counts=miss"]);
        e.execute(sql).unwrap();
        let after = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        let warm: Vec<String> = explain_rows(&after, "cache")
            .iter()
            .map(|r| r[1].to_string())
            .collect();
        assert_eq!(warm, vec!["tri: matches=hit counts=hit"]);
        // A warm cached match list also upgrades the aggregate row's
        // match term from an estimate to the exact cached length.
        let aggs = explain_rows(&after, "agg");
        assert!(
            aggs[0][1].to_string().contains("matches=cached:"),
            "{:?}",
            aggs[0][1]
        );
    }

    #[test]
    fn analyze_statement_and_stale_detection() {
        let g = fixture();
        let mut e = engine(&g);
        let explain_sql = "EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        fn basis(e: &QueryEngine<'_>, sql: &str) -> String {
            let t = e.execute(sql).unwrap();
            explain_rows(&t, "census")[0][1].to_string()
        }
        assert!(basis(&e, explain_sql).contains("stats=heuristic"));
        // ANALYZE is a statement (case-insensitive), returns the profile.
        let t = e.execute("analyze").unwrap();
        assert_eq!(t.columns(), ["statistic", "value"]);
        assert!(t
            .rows()
            .iter()
            .any(|r| r[0] == Value::Str("fingerprint".into())));
        assert!(e.graph_stats().is_some());
        // ...and takes no arguments.
        assert!(matches!(
            e.execute("ANALYZE nodes"),
            Err(QueryError::Semantic(_))
        ));
        assert!(basis(&e, explain_sql).contains("stats=analyzed"));
        // A different graph invalidates the snapshot: the planner reports
        // stale and falls back to the heuristic basis.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(4, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        e.swap_graph(Arc::new(b.build()));
        assert!(basis(&e, explain_sql).contains("stats=stale"));
    }

    #[test]
    fn analyze_leaves_the_setops_plan_alone() {
        // A star: max/avg degree ≈ 100, the shape that used to halve the
        // gallop ratio process-wide once ANALYZE had run.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(200, Label(0));
        for x in 1..200u32 {
            b.add_edge(NodeId(0), NodeId(x));
        }
        let g = b.build();
        let e = engine(&g);
        let setops = |e: &QueryEngine<'_>| {
            let t = e
                .execute("EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
                .unwrap();
            explain_rows(&t, "setops")[0][1].to_string()
        };
        let before = setops(&e);
        e.analyze().unwrap();
        assert_eq!(setops(&e), before);
        let ratio = format!("gallop_ratio:{}", ego_graph::setops::GALLOP_RATIO);
        assert!(before.contains(&ratio), "{before}");
    }

    #[test]
    fn analyze_persists_sidecar_adopted_by_open() {
        let dir = std::env::temp_dir().join(format!("ego-query-sidecar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixture.eg");
        ego_graph::io::save_path(&fixture(), &path).unwrap();
        {
            let e = QueryEngine::open(&path).unwrap();
            assert!(e.graph_stats().is_none());
            e.execute("ANALYZE").unwrap();
        }
        // A fresh engine on the same file adopts the sidecar: the planner
        // starts out analyzed without re-running ANALYZE.
        let mut e = QueryEngine::open(&path).unwrap();
        let adopted = e.graph_stats().expect("sidecar adopted on open");
        assert_eq!(adopted.fingerprint, e.graph().fingerprint());
        e.catalog_mut()
            .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
            .unwrap();
        let t = e
            .execute("EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
            .unwrap();
        assert!(explain_rows(&t, "census")[0][1]
            .to_string()
            .contains("stats=analyzed"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn planner_counters_tally_plans_and_basis() {
        use std::collections::HashMap;
        let g = fixture();
        let mut e = engine(&g);
        let counters = Arc::new(PlannerCounters::default());
        e.set_planner_counters(Arc::clone(&counters));
        e.execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
            .unwrap();
        let snap: HashMap<_, _> = counters.snapshot().into_iter().collect();
        assert_eq!(snap["planner_plans_built"], 1);
        assert_eq!(snap["planner_heuristic_fallbacks"], 1);
        assert_eq!(snap["planner_cost_model_hits"], 0);
        assert!(snap["planner_passes_fired"] >= 1);
        e.execute("ANALYZE").unwrap();
        e.execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
            .unwrap();
        let snap: HashMap<_, _> = counters.snapshot().into_iter().collect();
        assert_eq!(snap["planner_plans_built"], 2);
        assert_eq!(snap["planner_cost_model_hits"], 1);
    }

    /// Run a bound statement the way a one-statement script does.
    fn run_bound(e: &QueryEngine<'_>, bound: &Bound) -> Result<Table, QueryError> {
        let batch = e.traverse(bound)?;
        let x = Exec {
            stmt: &bound.plan.stmt,
            rows: Some(&bound.rows),
            batch: &batch,
        };
        e.output(&bound.plan.root, &x)
    }

    /// Bind and run `sql` under an explicit pass list (the engine's
    /// normal single-statement path, minus the pass pipeline knob).
    fn run_with_passes(
        e: &QueryEngine<'_>,
        sql: &str,
        passes: &[(&str, crate::optimizer::Pass)],
    ) -> Table {
        let bound = e.bind(&parse_query(sql).unwrap(), passes).unwrap();
        run_bound(e, &bound).unwrap()
    }

    #[test]
    fn each_optimizer_pass_is_a_semantic_noop() {
        use crate::census_cache::CensusCache;
        let g = fixture();
        let mut e = engine(&g);
        e.set_census_cache(Arc::new(CensusCache::new(16)));
        e.set_focal_shard(Some(crate::shard::ShardSpec::new(0, 2).unwrap()));
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)), COUNTP(node1, SUBGRAPH(ID, 1)) \
                   FROM nodes WHERE age >= 10";
        let baseline = run_with_passes(&e, sql, OPTIMIZERS);
        // Warm the cache so cache-substitution has real hits to inject.
        e.execute(sql).unwrap();
        for (i, dropped) in OPTIMIZERS.iter().enumerate() {
            let subset: Vec<_> = OPTIMIZERS
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, p)| *p)
                .collect();
            let t = run_with_passes(&e, sql, &subset);
            assert_eq!(t, baseline, "dropping pass {} changed results", dropped.0);
        }
        // The bare logical plan (no passes at all) still computes the
        // same table: passes annotate, the executor computes.
        assert_eq!(run_with_passes(&e, sql, &[]), baseline);
    }

    #[test]
    fn split_statements_respects_quotes() {
        let parts =
            split_statements("SELECT ID FROM nodes WHERE name = 'a;b'; SELECT ID FROM nodes;");
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("'a;b'"));
    }

    #[test]
    fn multi_agg_batch_matches_sequential_for_all_algorithms() {
        let g = fixture();
        let mut e = engine(&g);
        let multi = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)), COUNTP(node1, SUBGRAPH(ID, 1)) \
                     FROM nodes";
        for algo in [
            Algorithm::NdBaseline,
            Algorithm::NdPivot,
            Algorithm::NdDiff,
            Algorithm::PtBaseline,
            Algorithm::PtOpt,
            Algorithm::Auto,
        ] {
            e.set_algorithm(algo);
            let batched = e.execute(multi).unwrap();
            let a = e
                .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes")
                .unwrap();
            let b = e
                .execute("SELECT ID, COUNTP(node1, SUBGRAPH(ID, 1)) FROM nodes")
                .unwrap();
            for (i, row) in batched.rows().iter().enumerate() {
                assert_eq!(row[1], a.rows()[i][1], "{algo:?}");
                assert_eq!(row[2], b.rows()[i][1], "{algo:?}");
            }
        }
    }

    #[test]
    fn csv_export_of_query() {
        let g = fixture();
        let e = engine(&g);
        let t = e
            .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 3")
            .unwrap();
        let csv = t.to_csv();
        assert!(csv.starts_with("ID,"));
        assert_eq!(csv.lines().count(), 4);
    }

    // --- materialized views ---

    fn view_engine(g: &Graph) -> QueryEngine<'_> {
        let mut e = engine(g);
        e.set_views(Arc::new(ViewRegistry::new(DEFAULT_VIEW_BUDGET)));
        e
    }

    #[test]
    fn materialize_serves_identical_rows_as_pure_probe() {
        let g = fixture();
        let e = view_engine(&g);
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        let direct = e.execute(sql).unwrap();
        let ack = e.execute("MATERIALIZE tri RADIUS 1").unwrap();
        assert!(ack
            .rows()
            .iter()
            .any(|r| r[1] == Value::Str("materialized".into())));
        // The plan rewrites to a view probe with `view:` provenance and
        // zero estimated cost.
        let ex = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        let probe = explain_rows(&ex, "view-probe");
        assert_eq!(probe.len(), 1, "{ex:?}");
        assert_eq!(probe[0][2], Value::Float(0.0));
        let view = explain_rows(&ex, "view");
        assert!(view[0][1].to_string().starts_with("view: "), "{view:?}");
        assert!(explain_rows(&ex, "census").is_empty(), "{ex:?}");
        // Serving is a pure gather: a fresh census cache attached after
        // materialization sees zero traffic, yet rows are identical —
        // including over a WHERE-filtered focal subset.
        let served = e.execute(sql).unwrap();
        assert_eq!(served.rows(), direct.rows());
        let subset = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE age >= 40";
        let direct_subset = {
            let e2 = engine(&g);
            e2.execute(subset).unwrap()
        };
        assert_eq!(e.execute(subset).unwrap().rows(), direct_subset.rows());
        let stats = e.views().unwrap().stats();
        assert!(stats.hits >= 2, "{stats:?}");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn view_probe_bypasses_census_machinery() {
        let g = fixture();
        let mut e = view_engine(&g);
        let cache = Arc::new(CensusCache::new(64));
        e.set_census_cache(Arc::clone(&cache));
        e.execute("MATERIALIZE tri RADIUS 1 MATCHES").unwrap();
        let lookups = |cs: crate::census_cache::CensusCacheStats| {
            (
                cs.count_hits + cs.count_misses,
                cs.match_hits + cs.match_misses,
            )
        };
        let before = lookups(cache.stats());
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        e.execute(sql).unwrap();
        // No count/match lookups: the statement never reached
        // run_batched.
        assert_eq!(lookups(cache.stats()), before);
        // The pinned match list shows in EXPLAIN provenance.
        let ex = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        let view = explain_rows(&ex, "view");
        assert!(view[0][1].to_string().contains("matches=2"), "{view:?}");
    }

    #[test]
    fn drop_view_restores_census_execution() {
        let g = fixture();
        let e = view_engine(&g);
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        let direct = e.execute(sql).unwrap();
        e.execute("MATERIALIZE tri RADIUS 1").unwrap();
        let ack = e.execute("DROP VIEW tri RADIUS 1").unwrap();
        assert!(ack
            .rows()
            .iter()
            .any(|r| r[1] == Value::Str("dropped".into())));
        let ex = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(explain_rows(&ex, "view-probe").is_empty());
        assert_eq!(explain_rows(&ex, "census").len(), 1);
        assert_eq!(e.execute(sql).unwrap().rows(), direct.rows());
        // Dropping again errors with a clear message.
        let err = e.execute("DROP VIEW tri RADIUS 1").unwrap_err();
        assert!(err.to_string().contains("no materialized view"), "{err}");
    }

    #[test]
    fn view_dropped_after_planning_replans_to_census() {
        let g = fixture();
        let e = view_engine(&g);
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE age >= 40";
        let cold = engine(&g).execute(sql).unwrap();
        e.execute("MATERIALIZE tri RADIUS 1").unwrap();
        let bound = e.bind(&parse_query(sql).unwrap(), OPTIMIZERS).unwrap();
        assert!(bound.plan.view_probe().is_some());
        e.execute("DROP VIEW tri RADIUS 1").unwrap();
        assert_eq!(run_bound(&e, &bound).unwrap().rows(), cold.rows());
    }

    #[test]
    fn view_matching_is_exact_on_radius_and_subpattern() {
        let g = fixture();
        let e = view_engine(&g);
        e.execute("MATERIALIZE tri RADIUS 1").unwrap();
        // Different radius: not substituted.
        let ex = e
            .execute("EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes")
            .unwrap();
        assert!(explain_rows(&ex, "view-probe").is_empty());
        // COUNTSP over a COUNTP view: not substituted (and the statement
        // still errors on the unknown subpattern exactly as before).
        assert!(e
            .execute("SELECT ID, COUNTSP(hub, tri, SUBGRAPH(ID, 1)) FROM nodes")
            .is_err());
        // A multi-aggregate statement with one unservable job keeps the
        // whole census.
        let ex = e
            .execute(
                "EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)), \
                 COUNTP(node1, SUBGRAPH(ID, 1)) FROM nodes",
            )
            .unwrap();
        assert!(explain_rows(&ex, "view-probe").is_empty());
        assert_eq!(explain_rows(&ex, "census").len(), 1);
    }

    #[test]
    fn materialize_validates_inputs() {
        let g = fixture();
        let e = view_engine(&g);
        assert!(e.execute("MATERIALIZE nosuch RADIUS 1").is_err());
        assert!(e
            .execute("MATERIALIZE tri RADIUS 1 SUBPATTERN nosuch")
            .is_err());
        // Without a registry, view statements are rejected cleanly.
        let bare = engine(&g);
        let err = bare.execute("MATERIALIZE tri RADIUS 1").unwrap_err();
        assert!(err.to_string().contains("no view registry"), "{err}");
        assert!(bare.execute("DROP VIEW tri RADIUS 1").is_err());
    }

    #[test]
    fn script_mixes_materialize_and_view_served_statements() {
        let g = fixture();
        let e = view_engine(&g);
        e.execute("MATERIALIZE tri RADIUS 1").unwrap();
        let tables = e
            .execute_script(
                "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes; \
                 SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 3; \
                 DROP VIEW tri RADIUS 1;",
            )
            .unwrap();
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].num_rows(), 7);
        assert_eq!(tables[1].num_rows(), 3);
        assert_eq!(tables[0].rows()[2][1], Value::Int(2));
        assert_eq!(e.views().unwrap().stats().entries, 0);
    }

    #[test]
    fn sharded_views_compose_like_scatter() {
        let g = fixture();
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        let whole = engine(&g).execute(sql).unwrap();
        let mut concat: Vec<Vec<Value>> = Vec::new();
        for i in 0..2 {
            let mut e = view_engine(&g);
            e.set_focal_shard(Some(crate::shard::ShardSpec::new(i, 2).unwrap()));
            e.execute("MATERIALIZE tri RADIUS 1").unwrap();
            let ex = e.execute(&format!("EXPLAIN {sql}")).unwrap();
            assert_eq!(explain_rows(&ex, "view-probe").len(), 1, "shard {i}");
            let t = e.execute(sql).unwrap();
            concat.extend(t.rows().iter().cloned());
        }
        assert_eq!(concat, whole.rows());
        // A whole-coverage engine never probes a shard-covered view.
        let mut e = view_engine(&g);
        e.set_focal_shard(Some(crate::shard::ShardSpec::new(0, 2).unwrap()));
        e.execute("MATERIALIZE tri RADIUS 1").unwrap();
        e.set_focal_shard(None);
        let ex = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(explain_rows(&ex, "view-probe").is_empty());
    }

    #[test]
    fn open_adopts_views_sidecar() {
        let dir = std::env::temp_dir().join(format!("egoq-views-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.graph");
        ego_graph::io::save_path(&fixture(), &path).unwrap();
        let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes";
        let define = "PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }";
        let direct = {
            let mut e = QueryEngine::open(&path).unwrap();
            e.catalog_mut().define(define).unwrap();
            e.execute("MATERIALIZE tri RADIUS 1 MATCHES").unwrap();
            e.execute(sql).unwrap()
        };
        // A fresh engine over the same file adopts the sidecar: warm
        // views, same rows, view-probe plan.
        let mut e = QueryEngine::open(&path).unwrap();
        e.catalog_mut().define(define).unwrap();
        let stats = e.views().unwrap().stats();
        assert_eq!(stats.entries, 1, "{stats:?}");
        assert_eq!(stats.sidecar_loads, 1);
        let ex = e.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(explain_rows(&ex, "view-probe").len(), 1);
        assert_eq!(e.execute(sql).unwrap().rows(), direct.rows());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
