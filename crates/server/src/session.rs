//! Per-connection sessions.
//!
//! Each accepted connection gets a [`Session`]: its own
//! [`ego_query::QueryEngine`] over the server's shared `Arc<Graph>`,
//! with a pattern catalog *layered* over the shared base catalog —
//! `define` requests are visible only to that session and can never
//! shadow a shared built-in (that's a `pattern already defined` error).
//! All sessions share one result cache and one set of counters.

use crate::cache::{CacheStats, QueryCache};
use crate::protocol::{NotifyFrame, Request, Response, OPS};
use crate::server::{LineHandler, ServerConfig};
use ego_continuous::{
    CensusSpec, ContinuousEngine, CountVector, ExecConfig, FocalNodes, MatchList, Notification,
    PtConfig, SubscribeAck,
};
use ego_dynamic::{update_batch_on, DeltaGraph, DirtyIndex};
use ego_graph::{Graph, NodeId};
use ego_query::{
    canonical_query_key, parse_mutations, Algorithm, Catalog, CensusCache, MutationKind,
    PlannerCounters, QueryEngine, ShardSpec, Statement, StatsSlot, SubscriptionSpec, Table, Value,
    ViewRegistry,
};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Entries held per side (match lists / count vectors) of the shared
/// [`CensusCache`]. Entry-count budgeted, unlike the byte-budgeted
/// result cache: values are `Arc`-shared intermediates whose byte size
/// the executor shouldn't have to estimate. Disabled together with the
/// result cache (`--cache-mb 0`).
const CENSUS_CACHE_ENTRIES: usize = 256;

/// Bound on a connection's outbound notify queue. A subscriber that
/// stops reading loses the *oldest* frames first (counted in
/// `notifications_dropped`); the newest frame per subscription carries
/// the freshest counts.
const NOTIFY_QUEUE_FRAMES: usize = 1024;

/// Request-duration accounting for one protocol op, so router-vs-direct
/// overhead (and per-op cost in general) is measurable from `stats`.
#[derive(Debug)]
pub struct OpLatency {
    /// Requests measured.
    pub count: AtomicU64,
    /// Summed duration in microseconds (mean = total / count).
    pub total_us: AtomicU64,
    /// Fastest request in microseconds (`u64::MAX` until the first
    /// request is recorded).
    pub min_us: AtomicU64,
    /// Slowest request in microseconds.
    pub max_us: AtomicU64,
}

impl Default for OpLatency {
    fn default() -> Self {
        OpLatency {
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

impl OpLatency {
    fn record(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.min_us.fetch_min(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }
}

/// Whole-server counters (beyond the cache's own).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests parsed and dispatched (any op).
    pub requests: AtomicU64,
    /// Queries that actually ran on the engine (cache misses + uncached
    /// ops). A cache hit does not increment this — nor any traversal
    /// underneath it.
    pub queries_executed: AtomicU64,
    /// Session-local patterns defined.
    pub patterns_defined: AtomicU64,
    /// `update` requests that changed the graph (no-op scripts excluded).
    pub graph_updates: AtomicU64,
    /// Net edges inserted across all graph updates.
    pub edges_inserted: AtomicU64,
    /// Net edges deleted across all graph updates.
    pub edges_deleted: AtomicU64,
    /// Notify frames dropped because a subscriber's outbound queue was
    /// full (drop-oldest; see [`NOTIFY_QUEUE_FRAMES`]).
    pub notifications_dropped: AtomicU64,
    /// Incremental evaluations that errored. Every live subscription is
    /// dropped when this happens — silence a client can observe and
    /// respond to by re-subscribing — rather than pushing deltas off a
    /// stale baseline.
    pub continuous_errors: AtomicU64,
    /// View refreshes that errored. The whole view tier is cleared when
    /// this happens — later probes miss and fall back to direct census —
    /// rather than serving counts off a stale baseline.
    pub view_refresh_errors: AtomicU64,
    /// Connections closed because their handler panicked (caught by
    /// [`crate::serve_lines`]; the pool thread survives).
    pub panics: AtomicU64,
    /// Per-op request durations, indexed like [`OPS`].
    pub latency: [OpLatency; OPS.len()],
}

/// A connection's outbound notify-frame queue.
///
/// The mutating connection's update handler produces frames for *every*
/// subscriber, but can only write to its own socket — so frames are
/// parked here, per connection, as pre-encoded lines. The owning
/// connection's serve loop drains them: before each of its own
/// responses (frames for generation `G` always precede the response
/// that acknowledged `G` on the same connection), and on idle poll
/// ticks for connections that merely listen.
#[derive(Debug, Default)]
pub struct NotifyQueue {
    frames: Mutex<VecDeque<String>>,
    dropped: AtomicU64,
}

impl NotifyQueue {
    /// Park one encoded frame, dropping the oldest beyond the bound.
    /// Returns how many frames were dropped to make room.
    fn push(&self, frame: String) -> u64 {
        let mut frames = self.frames.lock().unwrap();
        let mut dropped = 0;
        while frames.len() >= NOTIFY_QUEUE_FRAMES {
            frames.pop_front();
            dropped += 1;
        }
        frames.push_back(frame);
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    /// Take every parked frame, oldest first.
    pub fn drain(&self) -> Vec<String> {
        self.frames.lock().unwrap().drain(..).collect()
    }
}

/// Outcome of one applied mutation script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateSummary {
    /// Net edges inserted by this script.
    pub inserted: u64,
    /// Net edges deleted by this script.
    pub deleted: u64,
    /// Edge count of the (possibly unchanged) current graph.
    pub num_edges: usize,
    /// Graph generation after the script (unchanged for no-ops).
    pub generation: u64,
    /// Fingerprint of the current graph.
    pub fingerprint: u64,
}

/// State shared by every session: the current graph, the base catalog,
/// the result cache, counters, and the shutdown flag.
#[derive(Clone)]
pub struct Shared {
    /// The current graph. Mutations swap in a freshly compacted CSR;
    /// sessions re-read it when the generation counter moves.
    graph: Arc<RwLock<Arc<Graph>>>,
    /// Bumped on every applied (non-no-op) mutation script. Sessions
    /// compare it against their own copy to detect a swapped graph
    /// without taking the `RwLock` on every request.
    generation: Arc<AtomicU64>,
    /// Serializes mutation scripts: each script reads the current graph,
    /// builds its delta, and swaps atomically with respect to others.
    update_lock: Arc<Mutex<()>>,
    /// Patterns every session sees (e.g. the paper's built-ins).
    pub base_catalog: Arc<Catalog>,
    /// The pattern-keyed result cache.
    pub cache: Arc<QueryCache>,
    /// The census intermediate cache (match lists + count vectors),
    /// shared by every session's engine: different statements over the
    /// same patterns share traversal work even when the whole-result
    /// cache misses.
    pub census: Arc<CensusCache>,
    /// Server counters.
    pub stats: Arc<ServerStats>,
    /// Planner counters, shared by every session's engine and surfaced
    /// as `planner_*` rows in `stats`.
    pub planner: Arc<PlannerCounters>,
    /// The graph-statistics slot every session's planner reads:
    /// `analyze` on any connection feeds all of them.
    pub graph_stats: StatsSlot,
    /// Where `analyze` persists its snapshot (`None` = memory only).
    pub stats_path: Option<PathBuf>,
    /// Set to stop the accept loop and drain workers.
    pub shutdown: Arc<AtomicBool>,
    /// Worker threads per census execution (`0` = all hardware threads).
    pub exec_threads: usize,
    /// `RND()` seed for every session (part of the cache key).
    pub seed: u64,
    /// Default focal shard (`--shard-of`): applied to queries that do
    /// not carry their own shard. `None` = whole range.
    pub shard: Option<ShardSpec>,
    /// Census algorithm every session executes with.
    pub algorithm: Algorithm,
    /// The materialized-view tier: pinned per-focal count vectors (and
    /// optional global match lists) served as pure lookups, refreshed in
    /// place through every mutation instead of invalidated.
    pub views: Arc<ViewRegistry>,
    /// Where view maintenance persists the `.views` sidecar (`None` =
    /// memory only).
    pub views_path: Option<PathBuf>,
    /// The continuous-census registry: standing queries whose counts
    /// and match lists are maintained through every mutation.
    pub continuous: Arc<ContinuousEngine>,
    /// Subscription id -> the owning connection's outbound frame queue.
    routes: Arc<Mutex<HashMap<u64, Arc<NotifyQueue>>>>,
}

impl Shared {
    /// Build shared state around the startup graph.
    pub fn new(graph: Arc<Graph>, base_catalog: Arc<Catalog>, config: &ServerConfig) -> Shared {
        // Adopt a persisted statistics sidecar so the planner starts on
        // measured numbers; a missing or malformed file just means the
        // heuristic basis until the first `analyze`.
        let graph_stats = StatsSlot::default();
        if let Some(path) = &config.stats_path {
            if let Ok(Some(stats)) = ego_query::GraphStats::load(path) {
                *graph_stats.write().unwrap() = Some(Arc::new(stats));
            }
        }
        // Re-adopt persisted views so restarts are warm; a missing or
        // stale-fingerprint sidecar just means an empty tier until the
        // first `materialize`.
        let views = Arc::new(ViewRegistry::new(config.view_budget_bytes));
        if let Some(path) = &config.views_path {
            let _ = views.adopt_sidecar(path, graph.fingerprint(), graph.num_nodes());
        }
        Shared {
            graph: Arc::new(RwLock::new(graph)),
            generation: Arc::new(AtomicU64::new(0)),
            update_lock: Arc::new(Mutex::new(())),
            base_catalog,
            cache: Arc::new(QueryCache::new(config.cache_bytes)),
            census: Arc::new(CensusCache::new(if config.cache_bytes == 0 {
                0
            } else {
                CENSUS_CACHE_ENTRIES
            })),
            stats: Arc::new(ServerStats::default()),
            planner: Arc::new(PlannerCounters::default()),
            graph_stats,
            stats_path: config.stats_path.clone(),
            shutdown: Arc::new(AtomicBool::new(false)),
            exec_threads: config.exec_threads,
            seed: config.seed,
            shard: config.shard.filter(|s| !s.is_whole()),
            algorithm: config.algorithm,
            views,
            views_path: config.views_path.clone(),
            continuous: Arc::new(ContinuousEngine::new()),
            routes: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The mutation lock, for ops that must serialize with `update`
    /// without going through [`Shared::apply_mutations`]: `materialize`
    /// computes against a stable graph and installs + persists its view
    /// before any later `update` refreshes the tier, so a view is never
    /// stamped with a fingerprint the refresh path has already moved
    /// past.
    fn update_lock(&self) -> Arc<Mutex<()>> {
        self.update_lock.clone()
    }

    /// The current graph (cheap: clones the inner `Arc`).
    pub fn current_graph(&self) -> Arc<Graph> {
        self.graph.read().unwrap().clone()
    }

    /// The current graph generation (0 at startup, +1 per applied
    /// mutation script).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Fingerprint of the current graph.
    pub fn fingerprint(&self) -> u64 {
        self.graph.read().unwrap().fingerprint()
    }

    /// Parse and apply a mutation script (`INSERT EDGE (a, b); DELETE
    /// EDGE (a, b); ...`) against the current graph, swapping in the
    /// compacted result and invalidating both caches. Scripts whose net
    /// delta is empty (edge already present, insert/delete pairs that
    /// cancel) leave the graph, the generation, and the caches alone.
    ///
    /// Errors (parse failures, out-of-range nodes, self loops) reject
    /// the whole script: mutations are applied atomically or not at all.
    pub fn apply_mutations(&self, script: &str) -> Result<UpdateSummary, String> {
        let stmts = parse_mutations(script).map_err(|e| e.to_string())?;
        let _guard = self.update_lock.lock().unwrap();
        let base = self.current_graph();
        let mut delta = DeltaGraph::new(base);
        for stmt in &stmts {
            let (a, b) = (NodeId(stmt.a), NodeId(stmt.b));
            match stmt.kind {
                MutationKind::InsertEdge => delta.insert_edge(a, b),
                MutationKind::DeleteEdge => delta.delete_edge(a, b),
            }
            .map_err(|e| e.to_string())?;
        }
        if delta.is_clean() {
            let g = delta.base();
            return Ok(UpdateSummary {
                inserted: 0,
                deleted: 0,
                num_edges: g.num_edges(),
                generation: self.generation(),
                fingerprint: g.fingerprint(),
            });
        }
        let inserted = delta.added().count() as u64;
        let deleted = delta.removed().count() as u64;
        let new_graph = Arc::new(delta.compact());
        let num_edges = new_graph.num_edges();
        let fingerprint = new_graph.fingerprint();
        *self.graph.write().unwrap() = new_graph.clone();
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        // Whole-result entries key on the statement + fingerprint; they
        // go stale wholesale.
        self.cache.invalidate();
        // The census cache is invalidated *dirty-set aware*: a cached
        // count vector whose every focal node sits outside the delta's
        // dirty set at the entry's radius is provably untouched by this
        // mutation, so it is rekeyed to the new fingerprint and kept.
        // Global match lists depend on the whole graph and always drop.
        let dirty = DirtyIndex::build(&delta, self.census.max_count_radius());
        self.census
            .retain_counts(fingerprint, |meta| match meta.radius {
                Some(r) => meta.focal.iter().all(|&n| !dirty.is_dirty(n, r)),
                None => false,
            });
        self.census.invalidate_matches();
        // Materialized views are *refreshed*, never invalidated: one
        // incremental batch over every pinned view (dirty-focal
        // re-census plus |delta|-scaled match-list maintenance),
        // installed in place under this same update lock, keeps
        // view-served rows bit-identical to a full recompute without
        // re-materializing. A refresh failure clears the tier —
        // probes then miss and fall back to direct census — rather
        // than serving counts off a stale baseline.
        let pinned = self.views.snapshot();
        if !pinned.is_empty() {
            let specs: Vec<CensusSpec<'_>> = pinned
                .iter()
                .map(|e| {
                    let focal: Vec<NodeId> = e.counts.iter_focal().map(|(n, _)| n).collect();
                    let mut s =
                        CensusSpec::single(&e.pattern, e.k).with_focal(FocalNodes::Set(focal));
                    if let Some(sp) = &e.subpattern {
                        s = s.with_subpattern(sp);
                    }
                    s
                })
                .collect();
            let previous: Vec<CountVector> = pinned.iter().map(|e| (*e.counts).clone()).collect();
            let previous_matches: Vec<Option<Arc<MatchList>>> =
                pinned.iter().map(|e| e.matches.clone()).collect();
            match update_batch_on(
                &delta,
                &new_graph,
                &specs,
                &previous,
                &previous_matches,
                self.algorithm,
                &PtConfig::default(),
                &self.exec_config(),
            ) {
                Ok(outcome) => {
                    for ((entry, counts), matches) in
                        pinned.iter().zip(outcome.counts).zip(outcome.matches)
                    {
                        // A view materialized without MATCHES stays
                        // without: presence is part of its definition.
                        let matches = if entry.matches.is_some() {
                            matches
                        } else {
                            None
                        };
                        self.views.install_refreshed(
                            &entry.dsl,
                            entry.k,
                            entry.subpattern.as_deref(),
                            Arc::new(counts),
                            matches,
                            fingerprint,
                        );
                    }
                    if let Some(path) = &self.views_path {
                        let _ = self.views.save(path, fingerprint);
                    }
                }
                Err(_) => {
                    self.stats
                        .view_refresh_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.views.clear();
                }
            }
        }
        // Push changed rows to every standing query while the update
        // lock is still held, so subscribers see generations in order.
        if !self.continuous.is_empty() {
            match self.continuous.apply_update(
                &delta,
                &new_graph,
                generation,
                self.algorithm,
                &PtConfig::default(),
                &self.exec_config(),
            ) {
                Ok(notifications) => self.route_notifications(&notifications),
                Err(_) => {
                    // The registry's baselines are now unreliable; drop
                    // every subscription rather than diff against them.
                    self.stats.continuous_errors.fetch_add(1, Ordering::Relaxed);
                    let mut routes = self.routes.lock().unwrap();
                    for (id, _) in self.continuous.subscriptions() {
                        self.continuous.unsubscribe(id);
                        routes.remove(&id);
                    }
                }
            }
        }
        self.stats.graph_updates.fetch_add(1, Ordering::Relaxed);
        self.stats
            .edges_inserted
            .fetch_add(inserted, Ordering::Relaxed);
        self.stats
            .edges_deleted
            .fetch_add(deleted, Ordering::Relaxed);
        Ok(UpdateSummary {
            inserted,
            deleted,
            num_edges,
            generation,
            fingerprint,
        })
    }

    /// An engine over the current graph, wired to every shared tier,
    /// executing with a session's `catalog`.
    fn engine(&self, catalog: Catalog) -> QueryEngine<'static> {
        let mut engine = QueryEngine::shared(self.current_graph());
        engine.set_catalog(catalog);
        engine.set_threads(self.exec_threads);
        engine.set_seed(self.seed);
        engine.set_algorithm(self.algorithm);
        engine.set_focal_shard(self.shard);
        engine.set_census_cache(self.census.clone());
        engine.set_planner_counters(self.planner.clone());
        engine.set_stats_slot(self.graph_stats.clone());
        engine.set_stats_path(self.stats_path.clone());
        engine.set_views(self.views.clone());
        engine.set_views_path(self.views_path.clone());
        engine
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The execution configuration sessions evaluate with.
    fn exec_config(&self) -> ExecConfig {
        ExecConfig::with_threads(self.exec_threads)
    }

    /// Register a compiled standing query and route its frames to
    /// `queue`. Takes the update lock so the initial evaluation and the
    /// generation it is stamped with cannot straddle a mutation.
    ///
    /// `shard` is the effective focal shard the statement was compiled
    /// under: when a materialized view with the same coverage holds a
    /// maintained match list for an aggregate's (pattern, radius), that
    /// list seeds the subscription's baseline and the initial evaluation
    /// skips global enumeration for it — the view is refreshed on this
    /// same lock, so it is current by construction.
    pub fn subscribe(
        &self,
        spec: SubscriptionSpec,
        shard: Option<ShardSpec>,
        queue: &Arc<NotifyQueue>,
    ) -> Result<SubscribeAck, String> {
        let _guard = self.update_lock.lock().unwrap();
        let graph = self.current_graph();
        let fingerprint = graph.fingerprint();
        let provided: Vec<Option<Arc<MatchList>>> = spec
            .aggs
            .iter()
            .map(|a| {
                self.views
                    .peek(
                        &a.pattern_dsl,
                        a.k,
                        a.subpattern.as_deref(),
                        fingerprint,
                        shard.filter(|s| !s.is_whole()),
                    )
                    .and_then(|e| e.matches.clone())
            })
            .collect();
        let ack = self
            .continuous
            .subscribe_seeded(
                &graph,
                spec,
                self.generation(),
                self.algorithm,
                &PtConfig::default(),
                &self.exec_config(),
                &provided,
            )
            .map_err(|e| e.to_string())?;
        self.routes.lock().unwrap().insert(ack.id, queue.clone());
        Ok(ack)
    }

    /// Drop a subscription and its route. Returns `false` for unknown
    /// ids.
    pub fn unsubscribe(&self, id: u64) -> bool {
        self.routes.lock().unwrap().remove(&id);
        self.continuous.unsubscribe(id)
    }

    /// Encode each notification as a wire frame and park it on the
    /// owning connection's queue (dropping unrouted ones — their session
    /// closed between evaluation and routing).
    fn route_notifications(&self, notifications: &[Notification]) {
        let routes = self.routes.lock().unwrap();
        for n in notifications {
            let Some(queue) = routes.get(&n.subscription) else {
                continue;
            };
            let frame = Response::Notify(NotifyFrame {
                subscription: n.subscription,
                generation: n.generation,
                columns: n.columns.as_ref().clone(),
                rows: n.rows.iter().map(|r| r.to_values(&n.columns)).collect(),
            })
            .encode();
            let dropped = queue.push(frame);
            if dropped > 0 {
                self.stats
                    .notifications_dropped
                    .fetch_add(dropped, Ordering::Relaxed);
            }
        }
    }
}

/// One connection's execution context.
pub struct Session {
    shared: Shared,
    engine: QueryEngine<'static>,
    /// Generation of the graph this session's engine was built over.
    generation: u64,
    /// This connection's outbound notify queue (shared with the routing
    /// table while subscriptions are live).
    queue: Arc<NotifyQueue>,
    /// Subscription ids owned by this connection; dropped with it.
    subs: Vec<u64>,
}

impl Session {
    /// A fresh session over the shared graph and base catalog.
    pub fn new(shared: &Shared) -> Session {
        let generation = shared.generation();
        let engine = shared.engine(Catalog::layered(shared.base_catalog.clone()));
        Session {
            shared: shared.clone(),
            engine,
            generation,
            queue: Arc::new(NotifyQueue::default()),
            subs: Vec::new(),
        }
    }

    /// Take the notify frames parked for this connection, oldest first,
    /// as encoded lines.
    pub fn drain_notifications(&self) -> Vec<String> {
        self.queue.drain()
    }

    /// Does this connection own any live subscriptions?
    pub fn has_subscriptions(&self) -> bool {
        !self.subs.is_empty()
    }

    /// Rebuild the engine over the current graph if another session
    /// applied a mutation since this one last looked. Cheap when nothing
    /// changed (one atomic load). The session's defined patterns carry
    /// over; the engine does *not* invalidate the shared census cache
    /// here — entries repopulated since the update are still valid.
    fn refresh(&mut self) {
        let generation = self.shared.generation();
        if generation == self.generation {
            return;
        }
        let catalog = std::mem::replace(
            self.engine.catalog_mut(),
            Catalog::layered(self.shared.base_catalog.clone()),
        );
        self.engine = self.shared.engine(catalog);
        self.generation = generation;
    }

    /// Handle one request line, returning one encoded response line
    /// (no trailing newline). Never panics on malformed input.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        match Request::decode(line) {
            Ok(req) => {
                let start = Instant::now();
                let response = self.handle(&req);
                let us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                self.shared.stats.latency[req.op_index()].record(us);
                response
            }
            Err(message) => Response::error(message).encode(),
        }
    }

    /// Handle one decoded request.
    pub fn handle(&mut self, req: &Request) -> String {
        self.refresh();
        match req {
            Request::Ping => Response::cell("reply", Value::Str("pong".into())).encode(),
            Request::Define { pattern } => self.handle_define(pattern),
            Request::Query { sql, shard } => self.handle_query(sql, *shard),
            Request::Explain { sql } => self.encode_execution(|e| e.explain(sql)),
            Request::Analyze => self.encode_execution(|e| e.analyze()),
            Request::Update { mutations } => self.handle_update(mutations),
            Request::Subscribe { sql, shard } => self.handle_subscribe(sql, *shard),
            Request::Unsubscribe { id } => self.handle_unsubscribe(*id),
            Request::Materialize { sql, shard } => self.handle_materialize(sql, *shard),
            Request::DropView { sql } => self.handle_drop_view(sql),
            Request::Stats => self.handle_stats(),
            Request::Shutdown => {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                Response::cell("reply", Value::Str("shutting down".into())).encode()
            }
        }
    }

    fn handle_define(&mut self, pattern: &str) -> String {
        match self.engine.catalog_mut().define(pattern) {
            Ok(p) => {
                self.shared
                    .stats
                    .patterns_defined
                    .fetch_add(1, Ordering::Relaxed);
                Response::cell("defined", Value::Str(p.name().to_string())).encode()
            }
            Err(e) => Response::error(e.to_string()).encode(),
        }
    }

    fn handle_query(&mut self, sql: &str, shard: Option<ShardSpec>) -> String {
        // A per-request shard overrides the server's `--shard-of`
        // default; `0/1` normalizes to the whole range, so a router
        // proxying an unsharded statement shares cache entries with
        // direct clients.
        let effective = shard.filter(|s| !s.is_whole()).or(self.shared.shard);
        self.engine.set_focal_shard(effective);
        let stmt = Statement::classify(sql);
        if !matches!(stmt, Statement::Select(_)) {
            return match Request::dedicated(stmt, sql, shard) {
                // A statement with an op of its own is served as that op.
                Some(op) => self.handle(&op),
                // `EXPLAIN` describes a plan — cheap and algorithm-
                // dependent — and everything else is a rejection: none
                // of it is worth a cache entry.
                None => self.encode_execution(|e| e.execute(sql)),
            };
        }
        let shard_suffix = match self.engine.focal_shard() {
            Some(s) => format!("|shard={s}"),
            None => String::new(),
        };
        let key = match canonical_query_key(sql, self.engine.catalog()) {
            Ok(canonical) => format!(
                "{canonical}|fp={:016x}|seed={}{shard_suffix}",
                self.engine.graph().fingerprint(),
                self.shared.seed
            ),
            // The statement won't execute either; report that error.
            Err(e) => return Response::error(e.to_string()).encode(),
        };
        if let Some(cached) = self.shared.cache.get(&key) {
            return cached;
        }
        let encoded = self.encode_execution(|e| e.execute(sql));
        if !encoded.starts_with(r#"{"ok":false"#) {
            self.shared.cache.insert(key, encoded.clone());
        }
        encoded
    }

    fn handle_update(&mut self, mutations: &str) -> String {
        match self.shared.apply_mutations(mutations) {
            Ok(s) => {
                // Serve the new graph immediately on this connection.
                self.refresh();
                Response::key_values([
                    ("edges_inserted", Value::Int(s.inserted as i64)),
                    ("edges_deleted", Value::Int(s.deleted as i64)),
                    ("num_edges", Value::Int(s.num_edges as i64)),
                    ("generation", Value::Int(s.generation as i64)),
                    ("fingerprint", Value::Str(format!("{:016x}", s.fingerprint))),
                ])
                .encode()
            }
            Err(message) => Response::error(message).encode(),
        }
    }

    fn handle_subscribe(&mut self, sql: &str, shard: Option<ShardSpec>) -> String {
        // Same shard resolution as `query`: a per-request shard beats
        // the server default, and the frozen focal set respects it.
        let effective = shard.filter(|s| !s.is_whole()).or(self.shared.shard);
        self.engine.set_focal_shard(effective);
        let spec = match self.engine.compile_subscription(sql) {
            Ok(spec) => spec,
            Err(e) => return Response::error(e.to_string()).encode(),
        };
        match self.shared.subscribe(spec, effective, &self.queue) {
            Ok(ack) => {
                self.subs.push(ack.id);
                Response::key_values([
                    ("subscription", Value::Int(ack.id as i64)),
                    ("generation", Value::Int(ack.generation as i64)),
                    ("focal", Value::Int(ack.focal as i64)),
                    ("columns", Value::Str(ack.columns.join("|"))),
                ])
                .encode()
            }
            Err(message) => Response::error(message).encode(),
        }
    }

    fn handle_materialize(&mut self, sql: &str, shard: Option<ShardSpec>) -> String {
        // Under the update lock: the census runs against a graph no
        // mutation can swap mid-flight, so the installed view's
        // fingerprint is current when the lock is released and the next
        // `update`'s refresh pass will find it. Re-refresh the engine
        // inside the lock in case a mutation landed since dispatch.
        let lock = self.shared.update_lock();
        let _guard = lock.lock().unwrap();
        self.refresh();
        let effective = shard.filter(|s| !s.is_whole()).or(self.shared.shard);
        self.engine.set_focal_shard(effective);
        self.encode_execution(|e| e.execute(sql))
    }

    fn handle_drop_view(&mut self, sql: &str) -> String {
        // The lock serializes the drop and its sidecar re-persist with
        // concurrent materialize/update persists.
        let lock = self.shared.update_lock();
        let _guard = lock.lock().unwrap();
        self.encode_execution(|e| e.execute(sql))
    }

    fn handle_unsubscribe(&mut self, id: u64) -> String {
        // Subscriptions are connection-scoped: a session can cancel only
        // its own (ids are never reused, so this cannot misfire).
        if !self.subs.contains(&id) {
            return Response::error(format!("unknown subscription id {id}")).encode();
        }
        self.shared.unsubscribe(id);
        self.subs.retain(|&s| s != id);
        Response::cell("unsubscribed", Value::Int(id as i64)).encode()
    }

    fn encode_execution(
        &mut self,
        run: impl FnOnce(&QueryEngine<'static>) -> Result<Table, ego_query::QueryError>,
    ) -> String {
        self.shared
            .stats
            .queries_executed
            .fetch_add(1, Ordering::Relaxed);
        match run(&self.engine) {
            Ok(t) => Response::table(&t).encode(),
            Err(e) => Response::error(e.to_string()).encode(),
        }
    }

    fn handle_stats(&self) -> String {
        let cache = self.shared.cache.stats();
        let census = self.shared.census.stats();
        let views = self.shared.views.stats();
        let cont = self.shared.continuous.stats();
        let setops = ego_graph::setops::global_snapshot();
        let stats = &self.shared.stats;
        let mut rows: Vec<(String, u64)> = vec![
            ("cache_bytes", cache.bytes),
            ("cache_capacity_bytes", cache.capacity_bytes),
            ("cache_entries", cache.entries),
            ("cache_evictions", cache.evictions),
            ("cache_hits", cache.hits),
            ("cache_insertions", cache.insertions),
            ("cache_invalidations", cache.invalidations),
            ("cache_misses", cache.misses),
            ("census_center_hits", census.center_hits),
            ("census_center_misses", census.center_misses),
            ("census_count_bytes", census.count_bytes as u64),
            ("census_count_entries", census.count_entries as u64),
            ("census_count_hits", census.count_hits),
            ("census_count_misses", census.count_misses),
            ("census_count_retained", census.count_retained),
            ("census_invalidations", census.invalidations),
            ("census_match_bytes", census.match_bytes as u64),
            ("census_match_entries", census.match_entries as u64),
            ("census_match_hits", census.match_hits),
            ("census_match_misses", census.match_misses),
            ("connections", stats.connections.load(Ordering::Relaxed)),
            ("continuous_clean_focal", cont.clean_focal),
            ("continuous_created", cont.created),
            ("continuous_dirty_focal", cont.dirty_focal),
            (
                "continuous_errors",
                stats.continuous_errors.load(Ordering::Relaxed),
            ),
            ("continuous_match_discovered", cont.match_discovered),
            ("continuous_match_survivors", cont.match_survivors),
            ("continuous_notifications", cont.notifications),
            ("continuous_rows_pushed", cont.rows_pushed),
            ("continuous_seeded", cont.seeded),
            ("continuous_subscriptions", cont.subscriptions as u64),
            ("continuous_updates", cont.updates),
            (
                "notifications_dropped",
                stats.notifications_dropped.load(Ordering::Relaxed),
            ),
            ("edges_deleted", stats.edges_deleted.load(Ordering::Relaxed)),
            (
                "edges_inserted",
                stats.edges_inserted.load(Ordering::Relaxed),
            ),
            ("graph_generation", self.shared.generation()),
            (
                "graph_mmap_backed",
                (self.shared.current_graph().storage_kind() == "mmap") as u64,
            ),
            ("graph_updates", stats.graph_updates.load(Ordering::Relaxed)),
            ("panics", stats.panics.load(Ordering::Relaxed)),
            (
                "patterns_defined",
                stats.patterns_defined.load(Ordering::Relaxed),
            ),
            (
                "queries_executed",
                stats.queries_executed.load(Ordering::Relaxed),
            ),
            ("requests", stats.requests.load(Ordering::Relaxed)),
            ("setops_bitset_calls", setops.bitset_calls),
            ("setops_gallop_calls", setops.gallop_calls),
            ("setops_merge_calls", setops.merge_calls),
            ("setops_saved_allocs", setops.saved_allocs),
            ("view_budget_bytes", views.budget_bytes as u64),
            ("view_bytes", views.bytes as u64),
            ("view_drops", views.drops),
            ("view_entries", views.entries as u64),
            ("view_evictions", views.evictions),
            ("view_hits", views.hits),
            ("view_materializations", views.materializations),
            (
                "view_refresh_errors",
                stats.view_refresh_errors.load(Ordering::Relaxed),
            ),
            ("view_refreshes", views.refreshes),
            ("view_sidecar_loads", views.sidecar_loads),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
        // Planner counters (the shard router's default suffix rule sums
        // these across workers).
        for (name, value) in self.shared.planner.snapshot() {
            rows.push((name.to_string(), value));
        }
        // Per-op request-duration breakdown: only ops that have run, so
        // the table stays compact. The current `stats` request records
        // itself only after this response is built.
        for (op, lat) in OPS.iter().zip(&stats.latency) {
            let name = op.name;
            let count = lat.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let total = lat.total_us.load(Ordering::Relaxed);
            rows.push((format!("latency_{name}_count"), count));
            rows.push((
                format!("latency_{name}_max_us"),
                lat.max_us.load(Ordering::Relaxed),
            ));
            rows.push((format!("latency_{name}_mean_us"), total / count));
            rows.push((
                format!("latency_{name}_min_us"),
                lat.min_us.load(Ordering::Relaxed),
            ));
            rows.push((format!("latency_{name}_total_us"), total));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Response::key_values(rows.into_iter().map(|(k, v)| (k, Value::Int(v as i64)))).encode()
    }
}

impl Drop for Session {
    /// Subscriptions are connection-scoped: when the connection ends,
    /// its standing queries end with it.
    fn drop(&mut self) {
        for &id in &self.subs {
            self.shared.unsubscribe(id);
        }
    }
}

impl LineHandler for Session {
    fn handle_line(&mut self, line: &str) -> String {
        Session::handle_line(self, line)
    }

    /// Frames parked by any connection's `update` for this subscriber.
    fn take_frames(&mut self) -> Vec<String> {
        self.drain_notifications()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Response, TableData};
    use ego_graph::{GraphBuilder, Label, NodeId};

    /// Two triangles sharing node 2, chain 4-5-6 (the executor fixture).
    fn fixture() -> Arc<Graph> {
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
        Arc::new(b.build())
    }

    fn shared() -> Shared {
        Shared::new(
            fixture(),
            Arc::new(Catalog::with_builtins()),
            &ServerConfig {
                cache_bytes: 1 << 20,
                exec_threads: 1,
                seed: 0xC0FFEE,
                ..ServerConfig::default()
            },
        )
    }

    fn table(encoded: &str) -> TableData {
        match Response::decode(encoded).unwrap() {
            Response::Table(t) => t,
            Response::Error { message } => panic!("unexpected error: {message}"),
            Response::Notify(f) => panic!("unexpected notify frame: {f:?}"),
        }
    }

    #[test]
    fn ping_and_malformed_lines() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let t = table(&s.handle_line(r#"{"op":"ping"}"#));
        assert_eq!(t.rows[0][0], Value::Str("pong".into()));
        let r = Response::decode(&s.handle_line("this is not json")).unwrap();
        assert!(r.is_error());
        // The session survives malformed input.
        assert!(!Response::decode(&s.handle_line(r#"{"op":"ping"}"#))
            .unwrap()
            .is_error());
    }

    #[test]
    fn query_caching_is_byte_identical_and_skips_execution() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let sql =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let first = s.handle_line(sql);
        let executed_after_first = sh.stats.queries_executed.load(Ordering::Relaxed);
        let second = s.handle_line(sql);
        assert_eq!(first, second, "cache hit must be byte-identical");
        assert_eq!(
            sh.stats.queries_executed.load(Ordering::Relaxed),
            executed_after_first,
            "cache hit must not execute"
        );
        assert_eq!(sh.cache_stats().hits, 1);
        assert_eq!(sh.cache_stats().misses, 1);
        // Node 2 sees both triangles.
        assert_eq!(table(&first).rows[2][1], Value::Int(2));
    }

    #[test]
    fn stats_report_per_op_latency_only_for_ops_that_ran() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let _ = s.handle_line(r#"{"op":"ping"}"#);
        let _ = s.handle_line(r#"{"op":"ping"}"#);
        let _ = s.handle_line(
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#,
        );
        let t = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(t.stat("latency_ping_count"), Some(2));
        assert_eq!(t.stat("latency_query_count"), Some(1));
        let min = t.stat("latency_query_min_us").expect("min row");
        let mean = t.stat("latency_query_mean_us").expect("mean row");
        let max = t.stat("latency_query_max_us").expect("max row");
        let total = t.stat("latency_query_total_us").expect("total row");
        assert!(min <= mean && mean <= max && max <= total.max(max));
        // Ops that never ran stay out of the table (the stats request
        // itself records only after its own response is built).
        assert_eq!(t.stat("latency_update_count"), None);
        assert_eq!(t.stat("latency_stats_count"), None);
        // The next stats call sees the previous one recorded.
        let t2 = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(t2.stat("latency_stats_count"), Some(1));
    }

    #[test]
    fn cache_is_shared_across_sessions_and_spellings() {
        let sh = shared();
        let mut s1 = Session::new(&sh);
        let mut s2 = Session::new(&sh);
        let a = s1.handle_line(
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#,
        );
        // Different session, different keyword case and spacing: still a hit.
        let b = s2.handle_line(
            r#"{"op":"query","sql":"select  id, countp(clq3_unlb, subgraph(id, 1))  from nodes"}"#,
        );
        assert_eq!(a, b);
        assert_eq!(sh.cache_stats().hits, 1);
    }

    #[test]
    fn session_defines_are_isolated_and_duplicates_rejected() {
        let sh = shared();
        let mut s1 = Session::new(&sh);
        let mut s2 = Session::new(&sh);
        let def = r#"{"op":"define","pattern":"PATTERN mine { ?A-?B; }"}"#;
        let t = table(&s1.handle_line(def));
        assert_eq!(t.rows[0][0], Value::Str("mine".into()));
        // Redefining in the same session errors...
        let r = Response::decode(&s1.handle_line(def)).unwrap();
        match r {
            Response::Error { message } => {
                assert!(message.contains("already defined"), "{message}")
            }
            _ => panic!("expected error"),
        }
        // ...but another session has its own layer.
        assert!(!Response::decode(&s2.handle_line(def)).unwrap().is_error());
        // Shadowing a shared builtin is also rejected.
        let r = Response::decode(
            &s1.handle_line(r#"{"op":"define","pattern":"PATTERN clq3 { ?A-?B; }"}"#),
        )
        .unwrap();
        assert!(r.is_error());
    }

    #[test]
    fn stats_and_explain_are_uncached() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let t = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(t.stat("cache_hits"), Some(0));
        assert_eq!(t.stat("cache_capacity_bytes"), Some(1 << 20));
        let q =
            r#"{"op":"explain","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let e1 = s.handle_line(q);
        let _e2 = s.handle_line(q);
        assert!(!Response::decode(&e1).unwrap().is_error());
        assert_eq!(sh.cache_stats().hits, 0, "explain must not touch the cache");
        // Query errors are not cached either.
        let bad = r#"{"op":"query","sql":"SELECT ID, COUNTP(ghost, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        assert!(Response::decode(&s.handle_line(bad)).unwrap().is_error());
        assert!(Response::decode(&s.handle_line(bad)).unwrap().is_error());
        assert_eq!(sh.cache_stats().insertions, 0);
    }

    #[test]
    fn distinct_statements_share_census_work() {
        let sh = shared();
        let mut s = Session::new(&sh);
        // Two different statements (different radii -> result-cache
        // misses for both) over the same pattern: the second reuses the
        // first's global match list through the census cache.
        let q1 =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let q2 =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)) FROM nodes"}"#;
        assert!(!Response::decode(&s.handle_line(q1)).unwrap().is_error());
        assert!(!Response::decode(&s.handle_line(q2)).unwrap().is_error());
        assert_eq!(sh.cache_stats().hits, 0, "different statements");
        let census = sh.census.stats();
        assert_eq!(census.match_hits, 1, "match list reused across statements");
        assert_eq!(census.count_entries, 2);
        // The counters surface through the stats op, sorted by name.
        let t = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(t.stat("census_match_hits"), Some(1));
        assert_eq!(t.stat("census_count_entries"), Some(2));
    }

    #[test]
    fn update_changes_results_and_never_serves_stale_cache() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let q =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let before = table(&s.handle_line(q));
        // Node 5 sits on the 4-5-6 chain: no triangle yet.
        assert_eq!(before.rows[5][1], Value::Int(0));

        let upd = table(&s.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#));
        assert_eq!(upd.stat("edges_inserted"), Some(1));
        assert_eq!(upd.stat("edges_deleted"), Some(0));
        assert_eq!(upd.stat("num_edges"), Some(9));
        assert_eq!(upd.stat("generation"), Some(1));

        // The same query now sees the 4-5-6 triangle; the pre-update
        // cached answer must not be served.
        let after = table(&s.handle_line(q));
        assert_eq!(after.rows[5][1], Value::Int(1));
        assert_eq!(after.rows[4][1], Value::Int(2));
        let st = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("graph_updates"), Some(1));
        assert_eq!(st.stat("cache_invalidations"), Some(1));
        assert_eq!(st.stat("census_invalidations"), Some(1));
        assert_eq!(st.stat("graph_generation"), Some(1));
    }

    #[test]
    fn update_refreshes_other_sessions_without_reinvalidating() {
        let sh = shared();
        let mut s1 = Session::new(&sh);
        let mut s2 = Session::new(&sh);
        let q =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        // s2 warms its engine on the startup graph first.
        assert_eq!(table(&s2.handle_line(q)).rows[5][1], Value::Int(0));
        assert!(!Response::decode(
            &s1.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        // s1 repopulates the shared caches post-update...
        assert_eq!(table(&s1.handle_line(q)).rows[5][1], Value::Int(1));
        let census_entries = sh.census.stats().count_entries;
        assert!(census_entries > 0);
        // ...and s2's lazy refresh picks up the new graph as a cache hit
        // without clearing what s1 just repopulated.
        assert_eq!(table(&s2.handle_line(q)).rows[5][1], Value::Int(1));
        assert_eq!(sh.census.stats().count_entries, census_entries);
        assert_eq!(sh.cache_stats().invalidations, 1);
    }

    #[test]
    fn noop_and_cancelling_updates_leave_everything_alone() {
        let sh = shared();
        let mut s = Session::new(&sh);
        // Edge (0, 1) already exists; the insert/delete pair cancels.
        for script in [
            "INSERT EDGE (0, 1)",
            "INSERT EDGE (3, 5); DELETE EDGE (3, 5)",
        ] {
            let line = format!(r#"{{"op":"update","mutations":"{script}"}}"#);
            let t = table(&s.handle_line(&line));
            assert_eq!(t.stat("edges_inserted"), Some(0), "{script}");
            assert_eq!(t.stat("edges_deleted"), Some(0), "{script}");
            assert_eq!(t.stat("generation"), Some(0), "{script}");
        }
        assert_eq!(sh.generation(), 0);
        assert_eq!(sh.cache_stats().invalidations, 0);
        assert_eq!(sh.stats.graph_updates.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bad_mutation_scripts_are_rejected_atomically() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let fp = sh.fingerprint();
        for script in [
            "UPDATE EDGE (0, 1)",             // unknown verb
            "INSERT EDGE (0, 99)",            // node out of range
            "INSERT EDGE (3, 3)",             // self loop
            "INSERT EDGE (3, 5); DELETE (1)", // later statement malformed
            "",
        ] {
            let line = format!(r#"{{"op":"update","mutations":"{script}"}}"#);
            let r = Response::decode(&s.handle_line(&line)).unwrap();
            assert!(r.is_error(), "script {script:?} should be rejected");
        }
        // Nothing was applied, even for the script whose first statement
        // was valid.
        assert_eq!(sh.fingerprint(), fp);
        assert_eq!(sh.generation(), 0);
        assert_eq!(sh.stats.graph_updates.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn session_patterns_survive_an_update() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let def = r#"{"op":"define","pattern":"PATTERN mine { ?A-?B; ?B-?C; ?A-?C; }"}"#;
        assert!(!Response::decode(&s.handle_line(def)).unwrap().is_error());
        assert!(!Response::decode(
            &s.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        // The session-local pattern still resolves on the new engine.
        let q = r#"{"op":"query","sql":"SELECT ID, COUNTP(mine, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let t = table(&s.handle_line(q));
        assert_eq!(t.rows[5][1], Value::Int(1));
    }

    #[test]
    fn analyze_feeds_every_sessions_planner() {
        let sh = shared();
        let mut s1 = Session::new(&sh);
        let mut s2 = Session::new(&sh);
        let explain =
            r#"{"op":"explain","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let census_detail = |encoded: &str| {
            table(encoded)
                .rows
                .iter()
                .find(|r| matches!(&r[0], Value::Str(s) if s.trim_start() == "census"))
                .map(|r| r[1].to_string())
                .expect("census row")
        };
        assert!(census_detail(&s1.handle_line(explain)).contains("stats=heuristic"));
        // Analyze on one connection...
        let t = table(&s1.handle_line(r#"{"op":"analyze"}"#));
        assert_eq!(t.columns, vec!["statistic", "value"]);
        assert!(t
            .rows
            .iter()
            .any(|r| r[0] == Value::Str("num_nodes".into())));
        // ...upgrades the planner basis on every other connection.
        assert!(census_detail(&s2.handle_line(explain)).contains("stats=analyzed"));
        // Planner counters surface through stats (2 explains + 1 query
        // below = 3 plans; the analyzed explain counts as a cost-model
        // hit, the heuristic one as a fallback).
        let q =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        assert!(!Response::decode(&s2.handle_line(q)).unwrap().is_error());
        let st = table(&s1.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("planner_plans_built"), Some(3));
        assert_eq!(st.stat("planner_heuristic_fallbacks"), Some(1));
        assert_eq!(st.stat("planner_cost_model_hits"), Some(2));
        assert_eq!(st.stat("latency_analyze_count"), Some(1));
    }

    #[test]
    fn analyze_snapshot_goes_stale_after_update() {
        let sh = shared();
        let mut s = Session::new(&sh);
        assert!(!Response::decode(&s.handle_line(r#"{"op":"analyze"}"#))
            .unwrap()
            .is_error());
        assert!(!Response::decode(
            &s.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        let explain =
            r#"{"op":"explain","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let t = table(&s.handle_line(explain));
        let detail = t
            .rows
            .iter()
            .find(|r| matches!(&r[0], Value::Str(s) if s.trim_start() == "census"))
            .map(|r| r[1].to_string())
            .expect("census row");
        assert!(detail.contains("stats=stale"), "{detail}");
        // Re-analyzing the mutated graph restores the cost-model basis.
        assert!(!Response::decode(&s.handle_line(r#"{"op":"analyze"}"#))
            .unwrap()
            .is_error());
        let t = table(&s.handle_line(explain));
        let detail = t
            .rows
            .iter()
            .find(|r| matches!(&r[0], Value::Str(s) if s.trim_start() == "census"))
            .map(|r| r[1].to_string())
            .expect("census row");
        assert!(detail.contains("stats=analyzed"), "{detail}");
    }

    fn notify(encoded: &str) -> crate::protocol::NotifyFrame {
        match Response::decode(encoded).unwrap() {
            Response::Notify(f) => f,
            other => panic!("expected a notify frame, got {other:?}"),
        }
    }

    #[test]
    fn subscribe_routes_changed_rows_to_the_subscribing_session() {
        let sh = shared();
        let mut sub = Session::new(&sh);
        let mut mutator = Session::new(&sh);
        let ack = table(&sub.handle_line(
            r#"{"op":"subscribe","sql":"SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#,
        ));
        assert_eq!(ack.stat("subscription"), Some(1));
        assert_eq!(ack.stat("generation"), Some(0));
        assert_eq!(ack.stat("focal"), Some(7));
        assert!(sub.has_subscriptions());

        // A mutation on *another* connection parks a frame on the
        // subscriber's queue, not the mutator's.
        assert!(!Response::decode(
            &mutator.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        assert!(mutator.drain_notifications().is_empty());
        let frames = sub.drain_notifications();
        assert_eq!(frames.len(), 1);
        let f = notify(&frames[0]);
        assert_eq!((f.subscription, f.generation), (1, 1));
        // The new 4-5-6 triangle: node 4 goes 1 -> 2, nodes 5 and 6 go
        // 0 -> 1, focal-ascending.
        let rows: Vec<(i64, i64, i64)> = f
            .rows
            .iter()
            .map(|r| match (&r[0], &r[2], &r[3]) {
                (Value::Int(n), Value::Int(old), Value::Int(new)) => (*n, *old, *new),
                other => panic!("unexpected row shape: {other:?}"),
            })
            .collect();
        assert_eq!(rows, vec![(4, 1, 2), (5, 0, 1), (6, 0, 1)]);
        // Draining is destructive; no frames remain.
        assert!(sub.drain_notifications().is_empty());

        // A no-op update produces no frame (the graph never changed).
        assert!(!Response::decode(
            &mutator.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        assert!(sub.drain_notifications().is_empty());

        let st = table(&sub.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("continuous_subscriptions"), Some(1));
        assert_eq!(st.stat("continuous_updates"), Some(1));
        assert_eq!(st.stat("continuous_rows_pushed"), Some(3));
        assert_eq!(st.stat("notifications_dropped"), Some(0));
    }

    #[test]
    fn empty_frames_acknowledge_generations_for_unaffected_focal_sets() {
        let sh = shared();
        let mut sub = Session::new(&sh);
        let mut mutator = Session::new(&sh);
        // Focal frozen to {0, 1}: the far-side mutation can't touch it.
        let ack = table(&sub.handle_line(
            r#"{"op":"subscribe","sql":"SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 2"}"#,
        ));
        assert_eq!(ack.stat("focal"), Some(2));
        assert!(!Response::decode(
            &mutator.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        let frames = sub.drain_notifications();
        assert_eq!(frames.len(), 1, "generation ack even with no changes");
        let f = notify(&frames[0]);
        assert_eq!(f.generation, 1);
        assert!(f.rows.is_empty());
    }

    #[test]
    fn unsubscribe_is_connection_scoped_and_stops_frames() {
        let sh = shared();
        let mut sub = Session::new(&sh);
        let mut other = Session::new(&sh);
        let ack = table(&sub.handle_line(
            r#"{"op":"subscribe","sql":"SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#,
        ));
        let id = ack.stat("subscription").unwrap();
        // Another connection cannot cancel it...
        let r =
            Response::decode(&other.handle_line(&format!(r#"{{"op":"unsubscribe","id":{id}}}"#)))
                .unwrap();
        assert!(r.is_error());
        // ...the owner can, and frames stop.
        let t = table(&sub.handle_line(&format!(r#"{{"op":"unsubscribe","id":{id}}}"#)));
        assert_eq!(t.rows[0][0], Value::Int(id));
        assert!(!sub.has_subscriptions());
        assert!(!Response::decode(
            &other.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        assert!(sub.drain_notifications().is_empty());
        assert_eq!(sh.continuous.stats().subscriptions, 0);
        // Unknown ids error without side effects.
        assert!(
            Response::decode(&sub.handle_line(r#"{"op":"unsubscribe","id":99}"#))
                .unwrap()
                .is_error()
        );
    }

    #[test]
    fn dropping_a_session_drops_its_subscriptions() {
        let sh = shared();
        {
            let mut sub = Session::new(&sh);
            let _ = sub.handle_line(
                r#"{"op":"subscribe","sql":"SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#,
            );
            assert_eq!(sh.continuous.stats().subscriptions, 1);
        }
        assert_eq!(sh.continuous.stats().subscriptions, 0);
        // Updates after the drop evaluate nothing.
        let mut s = Session::new(&sh);
        assert!(!Response::decode(
            &s.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        assert_eq!(sh.continuous.stats().updates, 0);
    }

    #[test]
    fn subscribe_rejects_malformed_standing_queries() {
        let sh = shared();
        let mut s = Session::new(&sh);
        for sql in [
            "SELECT ID FROM nodes", // no aggregate
            "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes LIMIT 3", // LIMIT
            "SELECT ID, COUNTP(ghost, SUBGRAPH(ID, 1)) FROM nodes", // unknown pattern
        ] {
            let line = format!(r#"{{"op":"subscribe","sql":"{sql}"}}"#);
            let r = Response::decode(&s.handle_line(&line)).unwrap();
            assert!(r.is_error(), "{sql} should be rejected");
        }
        assert_eq!(sh.continuous.stats().created, 0);
    }

    #[test]
    fn clean_census_count_entries_survive_a_localized_mutation() {
        let sh = shared();
        let mut s = Session::new(&sh);
        // Focal {0, 1} at radius 1 — two hops clear of the 4-5-6 chain.
        let q = r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 2"}"#;
        let before = table(&s.handle_line(q));
        assert_eq!(before.rows[0][1], Value::Int(1));
        let hits_before = sh.census.stats().count_hits;
        assert_eq!(sh.census.stats().count_entries, 1);

        // INSERT (4, 6) dirties {2, 3, 4, 5, 6} at radius 1 — not the
        // cached entry's focal set, so the entry is rekeyed and kept.
        assert!(!Response::decode(
            &s.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        let census = sh.census.stats();
        assert_eq!(census.count_retained, 1, "clean entry must survive");
        assert_eq!(census.count_entries, 1);
        assert_eq!(census.invalidations, 1);
        assert_eq!(census.match_entries, 0, "match lists always drop");

        // Re-running the query hits the retained entry under the *new*
        // fingerprint (the whole-result cache was invalidated, so this
        // exercises the census cache, and the counts are still right).
        let after = table(&s.handle_line(q));
        assert_eq!(after.rows[0][1], Value::Int(1));
        assert_eq!(after.rows[1][1], Value::Int(1));
        assert!(sh.census.stats().count_hits > hits_before);

        // A mutation *inside* the focal neighborhood drops the entry.
        assert!(!Response::decode(
            &s.handle_line(r#"{"op":"update","mutations":"DELETE EDGE (0, 2)"}"#)
        )
        .unwrap()
        .is_error());
        assert_eq!(sh.census.stats().count_entries, 0);
        assert_eq!(sh.census.stats().count_retained, 1, "no new retention");
        let t = table(&s.handle_line(q));
        assert_eq!(t.rows[0][1], Value::Int(0), "triangle gone");
        // The retention counter surfaces through the stats op.
        let st = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("census_count_retained"), Some(1));
    }

    /// Find a labeled row in an EXPLAIN table (rows are indented).
    fn explain_has_row(t: &TableData, label: &str) -> bool {
        t.rows
            .iter()
            .any(|r| matches!(&r[0], Value::Str(s) if s.trim_start() == label))
    }

    #[test]
    fn materialize_pins_a_view_served_as_pure_probe() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let m = r#"{"op":"materialize","sql":"MATERIALIZE clq3_unlb RADIUS 1 MATCHES"}"#;
        let ack = table(&s.handle_line(m));
        assert!(ack
            .rows
            .iter()
            .any(|r| r.contains(&Value::Str("materialized".into()))));
        // The plan rewrites to a pure view probe...
        let explain =
            r#"{"op":"explain","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let t = table(&s.handle_line(explain));
        assert!(explain_has_row(&t, "view-probe"), "{t:?}");
        assert!(!explain_has_row(&t, "census"), "{t:?}");
        // ...and the served rows are the census answer.
        let q =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let t = table(&s.handle_line(q));
        assert_eq!(t.rows[2][1], Value::Int(2));
        assert_eq!(t.rows[5][1], Value::Int(0));
        let st = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("view_entries"), Some(1));
        assert_eq!(st.stat("view_materializations"), Some(1));
        assert!(st.stat("view_hits").unwrap() >= 1);
        assert!(st.stat("view_bytes").unwrap() > 0);
        assert_eq!(st.stat("latency_materialize_count"), Some(1));
        // Another session sees the same shared tier.
        let mut s2 = Session::new(&sh);
        let t = table(&s2.handle_line(explain));
        assert!(explain_has_row(&t, "view-probe"));
    }

    #[test]
    fn drop_view_restores_census_execution_and_unknown_drop_errors() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let _ = s.handle_line(r#"{"op":"materialize","sql":"MATERIALIZE clq3_unlb RADIUS 1"}"#);
        let d = r#"{"op":"drop_view","sql":"DROP VIEW clq3_unlb RADIUS 1"}"#;
        let ack = table(&s.handle_line(d));
        assert!(ack
            .rows
            .iter()
            .any(|r| r.contains(&Value::Str("dropped".into()))));
        let explain =
            r#"{"op":"explain","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let t = table(&s.handle_line(explain));
        assert!(explain_has_row(&t, "census"), "{t:?}");
        // Dropping again is an error naming the view.
        let r = Response::decode(&s.handle_line(d)).unwrap();
        assert!(r.is_error());
        let st = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("view_entries"), Some(0));
        assert_eq!(st.stat("view_drops"), Some(1));
    }

    #[test]
    fn update_refreshes_views_in_place_and_serves_fresh_counts() {
        let sh = shared();
        let mut s = Session::new(&sh);
        let _ =
            s.handle_line(r#"{"op":"materialize","sql":"MATERIALIZE clq3_unlb RADIUS 1 MATCHES"}"#);
        let q =
            r#"{"op":"query","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let before = table(&s.handle_line(q));
        assert_eq!(before.rows[5][1], Value::Int(0));
        assert!(!Response::decode(
            &s.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        // The view was refreshed through the incremental engine — not
        // invalidated — so the statement still plans as a pure probe and
        // the served counts match the full recompute on the new graph.
        let explain =
            r#"{"op":"explain","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let t = table(&s.handle_line(explain));
        assert!(explain_has_row(&t, "view-probe"), "view survives updates");
        let after = table(&s.handle_line(q));
        let counts: Vec<Value> = after.rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(
            counts,
            [1, 1, 2, 1, 2, 1, 1].map(Value::Int).to_vec(),
            "view-served counts equal the recompute on the mutated graph"
        );
        let st = table(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("view_refreshes"), Some(1));
        assert_eq!(st.stat("view_refresh_errors"), Some(0));
        assert_eq!(st.stat("view_entries"), Some(1));
    }

    #[test]
    fn subscribe_seeds_its_baseline_from_a_materialized_view() {
        let sh = shared();
        let mut sub = Session::new(&sh);
        let mut mutator = Session::new(&sh);
        let _ = sub
            .handle_line(r#"{"op":"materialize","sql":"MATERIALIZE clq3_unlb RADIUS 1 MATCHES"}"#);
        let ack = table(&sub.handle_line(
            r#"{"op":"subscribe","sql":"SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#,
        ));
        assert_eq!(ack.stat("focal"), Some(7));
        let st = table(&sub.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(
            st.stat("continuous_seeded"),
            Some(1),
            "the view's maintained match list is the baseline"
        );
        // The seeded baseline diffs exactly like an enumerated one.
        assert!(!Response::decode(
            &mutator.handle_line(r#"{"op":"update","mutations":"INSERT EDGE (4, 6)"}"#)
        )
        .unwrap()
        .is_error());
        let frames = sub.drain_notifications();
        assert_eq!(frames.len(), 1);
        let f = notify(&frames[0]);
        let rows: Vec<(i64, i64, i64)> = f
            .rows
            .iter()
            .map(|r| match (&r[0], &r[2], &r[3]) {
                (Value::Int(n), Value::Int(old), Value::Int(new)) => (*n, *old, *new),
                other => panic!("unexpected row shape: {other:?}"),
            })
            .collect();
        assert_eq!(rows, vec![(4, 1, 2), (5, 0, 1), (6, 0, 1)]);
    }

    #[test]
    fn views_sidecar_warms_a_restart() {
        let dir = std::env::temp_dir().join(format!("ego_server_views_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixture.egb.views");
        let _ = std::fs::remove_file(&path);
        let config = ServerConfig {
            cache_bytes: 1 << 20,
            exec_threads: 1,
            views_path: Some(path.clone()),
            ..ServerConfig::default()
        };
        let sh = Shared::new(fixture(), Arc::new(Catalog::with_builtins()), &config);
        let mut s = Session::new(&sh);
        let _ =
            s.handle_line(r#"{"op":"materialize","sql":"MATERIALIZE clq3_unlb RADIUS 1 MATCHES"}"#);
        assert!(path.exists(), "materialize persists the sidecar");
        drop(s);
        // A fresh Shared over the same graph re-adopts the sidecar.
        let sh2 = Shared::new(fixture(), Arc::new(Catalog::with_builtins()), &config);
        let mut s2 = Session::new(&sh2);
        let st = table(&s2.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(st.stat("view_entries"), Some(1));
        assert_eq!(st.stat("view_sidecar_loads"), Some(1));
        let explain =
            r#"{"op":"explain","sql":"SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes"}"#;
        let t = table(&s2.handle_line(explain));
        assert!(explain_has_row(&t, "view-probe"), "restart is warm");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let sh = shared();
        let mut s = Session::new(&sh);
        assert!(!sh.shutdown.load(Ordering::SeqCst));
        let t = table(&s.handle_line(r#"{"op":"shutdown"}"#));
        assert_eq!(t.rows[0][0], Value::Str("shutting down".into()));
        assert!(sh.shutdown.load(Ordering::SeqCst));
    }
}
