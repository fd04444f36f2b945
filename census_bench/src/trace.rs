//! The traced run: a fixed number of the workload's ops replayed by one
//! thread, with a span recorded around each public call into a layer.
//!
//! Spans are taken from outside the program (spans inside it are a later
//! change). An op that is cold only once cannot be timed twice on one
//! server, so the same op is sent to three instances in the same warm
//! state: a real server over loopback (end to end), an in-process
//! `Session` (everything but the socket), and a bare `QueryEngine`
//! (everything below the session). A layer's self time is its span minus
//! its child spans; per-layer metrics are self times averaged over the
//! traced ops, so on one workload they add up to its single-client
//! end-to-end latency. End-to-end numbers never come from this run.

use crate::check::replayed_graph;
use crate::deck::{Deck, ReadOp, Shape, STANDING_QUERY};
use crate::fleet::{server_config, Fleet};
use crate::load;
use crate::report::{Input, RunResult};
use crate::spec::{Workload, EXEC_THREADS};
use crate::stats;
use crate::timed::SPARE_CONNECTIONS;
use ego_census::{
    global_matches, run_census_exec_instrumented, Algorithm, CensusSpec, CountVector, ExecConfig,
    FocalNodes, PtConfig,
};
use ego_continuous::{ContinuousEngine, MatchList};
use ego_dynamic::{update_batch_on, DeltaGraph};
use ego_graph::{Graph, NodeId};
use ego_query::optimizer::{optimize, PassContext};
use ego_query::{
    build_plan, parse_mutations, Catalog, CensusCache, GraphStats, MutationKind, QueryEngine,
    StatsBasis, ViewRegistry,
};
use ego_server::json::Json;
use ego_server::{Client, Request, Response, Session, Shared, TableData};
use ego_shard::{RouterSession, ShardSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval around a public call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one, by name, within the same op.
    pub parent: Option<&'static str>,
    /// Spans of one op share this identifier.
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ran beside a slower sibling, so it does not block the parent and
    /// is not subtracted from it.
    pub overlapped: bool,
}

impl Span {
    fn dur_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// In-memory span log, written out when the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
            overlapped: false,
        });
        out
    }

    /// Record a span whose duration is derived from two measured calls
    /// (plan = explain − parse; traversal = census − match extraction).
    fn derived(&mut self, name: &'static str, parent: &'static str, op: usize, dur_ns: f64) {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            op,
            start_ns,
            end_ns: start_ns + dur_ns.max(0.0) as u64,
            overlapped: false,
        });
    }

    fn last_dur_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::dur_ns)
    }

    /// Self time of every span: its duration minus the part its blocking
    /// children cover, floored at zero. Summed by span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.overlapped) {
            if let Some(parent) = s.parent {
                *children.entry((s.op, parent)).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.overlapped) {
            let covered = children.get(&(s.op, s.name)).copied().unwrap_or(0.0);
            *out.entry(s.name).or_default() += (s.dur_ns() - covered).max(0.0);
        }
        out
    }

    /// Total duration of root spans called `name`.
    fn total_ns(&self, name: &str) -> f64 {
        // `fold`, not `sum`: an empty f64 sum is -0.0.
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_ns())
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Str(p.into())),
                    ),
                    ("op".into(), Json::Int(s.op as i64)),
                    ("start_ns".into(), Json::Int(s.start_ns as i64)),
                    ("end_ns".into(), Json::Int(s.end_ns as i64)),
                    ("overlapped".into(), Json::Bool(s.overlapped)),
                ])
            })
            .collect(),
    )
}

const CLIENT_QUERY: &str = "client.query";
const CLIENT_UPDATE: &str = "client.update";
const CLIENT_DECODE: &str = "client.decode";
const SESSION: &str = "session.handle_line";
const DECODE: &str = "server.decode";
const ENCODE: &str = "server.encode";
const EXECUTE: &str = "query.execute";
const PARSE: &str = "query.parse";
const PLAN: &str = "query.plan";
const TRAVERSE: &str = "census.traverse";
const COMPACT: &str = "dynamic.compact";
const INCREMENTAL: &str = "dynamic.incremental";
const CONTINUOUS: &str = "continuous.apply";
const ROUTE: &str = "router.handle_line";
const LEG: &str = "shard.leg";

/// A session-less engine wired like a server session's — shared-style
/// census cache and view registry, the served algorithm and seed — and
/// taken through the workload's read-side warm-up.
fn session_like_engine(graph: Arc<Graph>, deck: &Deck) -> QueryEngine<'static> {
    let config = server_config(1);
    let mut engine = QueryEngine::shared(graph);
    engine.set_catalog(Catalog::layered(Arc::new(Catalog::with_builtins())));
    engine.set_threads(config.exec_threads);
    engine.set_seed(config.seed);
    engine.set_algorithm(config.algorithm);
    engine.set_census_cache(Arc::new(CensusCache::new(256)));
    engine.set_views(Arc::new(ViewRegistry::new(config.view_budget_bytes)));
    for req in deck.warmup() {
        if let Request::Query { sql, .. } | Request::Materialize { sql, .. } = req {
            engine.execute(&sql).expect("warm engine");
        }
    }
    engine
}

/// Sums the traced run keeps beside its spans.
#[derive(Default)]
struct Tally {
    read_ops: usize,
    update_ops: usize,
    failed: usize,
    bytes_out: usize,
    edges: u64,
    focal: u64,
    dirty_focal: usize,
    rows_pushed: usize,
    shape_ms: BTreeMap<Shape, Vec<f64>>,
    leg_skew: Vec<f64>,
}

/// The traced run's state: the span log, the sums kept beside it, and
/// what every traced op needs and none changes.
struct Probe {
    tracer: Tracer,
    tally: Tally,
    /// The structural heuristic a server that never ran `ANALYZE` plans
    /// with (sessions memoize it, so it is computed outside the spans).
    stats: GraphStats,
}

impl Probe {
    /// Send one statement over loopback and decode the reply: the
    /// end-to-end span, with the client's own decode as its child.
    fn client(&mut self, op: usize, read: &ReadOp, client: &mut Client) -> Option<String> {
        let line = Request::Query {
            sql: read.sql.clone(),
            shard: None,
        }
        .encode();
        let raw = self.tracer.time(CLIENT_QUERY, None, op, || {
            client
                .send_line(&line)
                .and_then(|()| client.recv_line())
                .map(|raw| (Response::decode(&raw), raw))
        });
        let e2e_ms = self.tracer.last_dur_ns() / 1e6;
        self.tally.read_ops += 1;
        self.tally
            .shape_ms
            .entry(read.shape)
            .or_default()
            .push(e2e_ms);
        let Ok((Ok(Response::Table(_)), raw)) = raw else {
            self.tally.failed += 1;
            return None;
        };
        self.tally.bytes_out += raw.len();
        self.tracer
            .time(CLIENT_DECODE, Some(CLIENT_QUERY), op, || {
                Response::decode(&raw)
            })
            .ok();
        Some(line)
    }

    /// Engine-level spans of one statement: parse, plan (the optimizer's own
    /// passes over the statement's real focal set, in the cache state the
    /// statement meets), execute, and — where the census runs — its
    /// traversal, as the cold execution minus a repeat that finds the count
    /// vector cached. Exact traversal counts come from the same census
    /// issued straight at `ego_census` under the planned algorithm.
    fn engine(
        &mut self,
        op: usize,
        read: &ReadOp,
        engine: &QueryEngine<'static>,
        parent: &'static str,
    ) -> Option<ego_query::Table> {
        let graph = engine.graph();
        let stmt = self
            .tracer
            .time(PARSE, Some(EXECUTE), op, || {
                ego_query::parser::parse_query(&read.sql)
            })
            .ok()?;
        let shard = engine.focal_shard();
        let range = shard.map_or(0..graph.num_nodes(), |s| s.range(graph.num_nodes()));
        let focal: Vec<NodeId> = (read.lo..=read.hi)
            .filter(|n| range.contains(n))
            .map(|n| NodeId(n as u32))
            .collect();
        let plan = self.tracer.time(PLAN, Some(EXECUTE), op, || {
            let mut pass = PassContext {
                graph,
                catalog: engine.catalog(),
                stats: &self.stats,
                stats_basis: StatsBasis::Heuristic,
                fingerprint: graph.fingerprint(),
                cache: engine.census_cache().map(|c| &**c),
                views: engine.views().map(|v| &**v),
                focal: Some(&focal),
                shard,
                forced: Algorithm::Auto,
                counters: None,
                fired: 0,
            };
            optimize(build_plan(&stmt), &mut pass)
        });
        let algorithm = plan.ok().and_then(|p| p.choice().map(|c| c.algorithm));

        let table = self
            .tracer
            .time(EXECUTE, Some(parent), op, || engine.execute(&read.sql))
            .ok();
        let cold_ns = self.tracer.last_dur_ns();
        if table.is_none() {
            self.tally.failed += 1;
        }
        if matches!(read.shape, Shape::Cold | Shape::Scatter) {
            let started = Instant::now();
            let _ = engine.execute(&read.sql);
            let repeat_ns = started.elapsed().as_nanos() as f64;
            self.tracer
                .derived(TRAVERSE, EXECUTE, op, cold_ns - repeat_ns);
            if let (Some(algorithm), Ok(pattern)) =
                (algorithm, engine.catalog().require(read.pattern))
            {
                // Counted over the op's whole focal range, not this
                // engine's shard of it: which shard is traced depends on
                // timing, and a count must repeat exactly.
                let focal: Vec<NodeId> = (read.lo..=read.hi).map(|n| NodeId(n as u32)).collect();
                self.tally.focal += focal.len() as u64;
                let spec = CensusSpec::single(pattern, read.k).with_focal(FocalNodes::Set(focal));
                if let Ok((_, ts)) = run_census_exec_instrumented(
                    graph,
                    &spec,
                    algorithm,
                    &PtConfig::default(),
                    &ExecConfig::with_threads(EXEC_THREADS),
                ) {
                    self.tally.edges += ts.edges_traversed;
                }
            }
        }
        table
    }

    /// Trace one read: end to end on the served instance, then layer by
    /// layer on the in-process ones.
    fn read(
        &mut self,
        op: usize,
        read: &ReadOp,
        client: &mut Client,
        session: &mut Session,
        engine: Option<&QueryEngine<'static>>,
    ) {
        let Some(line) = self.client(op, read, client) else {
            return;
        };
        self.tracer.time(SESSION, Some(CLIENT_QUERY), op, || {
            session.handle_line(&line)
        });
        self.tracer
            .time(DECODE, Some(SESSION), op, || Request::decode(&line))
            .ok();
        // A result-cache hit never reaches the engine; nor is there an
        // engine mirror once updates have moved the served graph on.
        let Some(engine) = engine.filter(|_| read.shape != Shape::ResultHit) else {
            return;
        };
        if let Some(table) = self.engine(op, read, engine, SESSION) {
            self.tracer.time(ENCODE, Some(SESSION), op, || {
                Response::table(&table).encode()
            });
        }
    }
}

/// The state an update maintains, mirrored so each maintenance step can
/// be called — and timed — on its own: the graph, the pinned view's
/// counts, and the standing query.
struct UpdateMirror {
    graph: Arc<Graph>,
    view_counts: CountVector,
    /// The view's maintained global match list (`... MATCHES`).
    view_matches: Option<Arc<MatchList>>,
    continuous: ContinuousEngine,
    generation: u64,
    exec: ExecConfig,
    /// The pinned view's pattern (`clq3_unlb`).
    pattern: ego_pattern::Pattern,
}

impl UpdateMirror {
    fn new(base: &Arc<Graph>, deck: &Deck) -> UpdateMirror {
        let graph = Arc::new(replayed_graph(base, deck, 0));
        let exec = ExecConfig::with_threads(EXEC_THREADS);
        let catalog = Catalog::with_builtins();
        let pattern = catalog
            .require("clq3_unlb")
            .expect("builtin pattern")
            .clone();
        let (view_counts, _) = run_census_exec_instrumented(
            &graph,
            &CensusSpec::single(&pattern, 1),
            Algorithm::Auto,
            &PtConfig::default(),
            &exec,
        )
        .expect("view census");
        let mut engine = QueryEngine::shared(graph.clone());
        engine.set_catalog(catalog);
        let continuous = ContinuousEngine::new();
        continuous
            .subscribe(
                &graph,
                engine
                    .compile_subscription(STANDING_QUERY)
                    .expect("compile subscription"),
                1,
                Algorithm::Auto,
                &PtConfig::default(),
                &exec,
            )
            .expect("mirror subscription");
        UpdateMirror {
            view_matches: Some(Arc::new(global_matches(&graph, &pattern))),
            graph,
            view_counts,
            continuous,
            generation: 1,
            exec,
            pattern,
        }
    }

    /// Apply `script` step by step, one span per maintenance layer.
    fn apply(&mut self, tracer: &mut Tracer, tally: &mut Tally, op: usize, script: &str) {
        let mut delta = DeltaGraph::new(self.graph.clone());
        for stmt in parse_mutations(script).expect("deck script parses") {
            let (a, b) = (NodeId(stmt.a), NodeId(stmt.b));
            match stmt.kind {
                MutationKind::InsertEdge => delta.insert_edge(a, b),
                MutationKind::DeleteEdge => delta.delete_edge(a, b),
            }
            .expect("deck script applies");
        }
        let new_graph = Arc::new(tracer.time(COMPACT, Some(SESSION), op, || delta.compact()));
        let focal: Vec<NodeId> = self.view_counts.iter_focal().map(|(n, _)| n).collect();
        let spec = [CensusSpec::single(&self.pattern, 1).with_focal(FocalNodes::Set(focal))];
        let outcome = tracer
            .time(INCREMENTAL, Some(SESSION), op, || {
                update_batch_on(
                    &delta,
                    &new_graph,
                    &spec,
                    std::slice::from_ref(&self.view_counts),
                    std::slice::from_ref(&self.view_matches),
                    Algorithm::Auto,
                    &PtConfig::default(),
                    &self.exec,
                )
            })
            .expect("view refresh");
        tally.dirty_focal += outcome.stats.dirty_focal;
        self.view_counts = outcome.counts.into_iter().next().expect("one spec");
        self.view_matches = outcome.matches.into_iter().next().expect("one spec");
        self.generation += 1;
        let frames = tracer
            .time(CONTINUOUS, Some(SESSION), op, || {
                self.continuous.apply_update(
                    &delta,
                    &new_graph,
                    self.generation,
                    Algorithm::Auto,
                    &PtConfig::default(),
                    &self.exec,
                )
            })
            .expect("standing query");
        tally.rows_pushed += frames.iter().map(|f| f.rows.len()).sum::<usize>();
        self.graph = new_graph;
    }
}

impl Probe {
    /// Trace one update: end to end on the served instance, through the
    /// in-process session, then step by step on the mirror.
    fn update(
        &mut self,
        op: usize,
        script: &str,
        writer: &mut Client,
        session: &mut Session,
        mirror: &mut UpdateMirror,
    ) {
        let req = Request::Update {
            mutations: script.to_string(),
        };
        let line = req.encode();
        let reply = self
            .tracer
            .time(CLIENT_UPDATE, None, op, || writer.request(&req));
        writer.drain_notifications();
        self.tally.update_ops += 1;
        if !matches!(reply, Ok(Response::Table(_))) {
            self.tally.failed += 1;
        }
        self.tracer.time(SESSION, Some(CLIENT_UPDATE), op, || {
            session.handle_line(&line)
        });
        session.drain_notifications();
        self.tracer
            .time(DECODE, Some(SESSION), op, || Request::decode(&line))
            .ok();
        mirror.apply(&mut self.tracer, &mut self.tally, op, script);
    }

    /// One scatter op: end to end through the served router, then through an
    /// in-process `RouterSession`, then each shard leg on its own, then the
    /// slowest leg's statement on a bare engine restricted to that shard.
    fn scatter(
        &mut self,
        op: usize,
        read: &ReadOp,
        client: &mut Client,
        route: &mut RouterSession,
        legs: &mut [Client],
        engine: &mut QueryEngine<'static>,
    ) {
        let Some(line) = self.client(op, read, client) else {
            return;
        };
        self.tracer
            .time(ROUTE, Some(CLIENT_QUERY), op, || route.handle_line(&line));
        let shards = legs.len() as u32;
        let first_leg = self.tracer.spans.len();
        for (s, leg) in legs.iter_mut().enumerate() {
            let spec = ShardSpec::new(s as u32, shards).expect("shard spec");
            let reply = self
                .tracer
                .time(LEG, Some(ROUTE), op, || leg.query_sharded(&read.sql, spec));
            if !matches!(reply, Ok(Response::Table(_))) {
                self.tally.failed += 1;
            }
        }
        // The router waits for every leg, so the slowest one blocks it and
        // the rest overlap.
        let durs: Vec<f64> = self.tracer.spans[first_leg..]
            .iter()
            .map(Span::dur_ns)
            .collect();
        let slowest = durs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        for (i, span) in self.tracer.spans[first_leg..].iter_mut().enumerate() {
            span.overlapped = i != slowest;
        }
        self.tally
            .leg_skew
            .push(durs[slowest] / stats::mean(&durs).max(1.0));
        engine.set_focal_shard(Some(
            ShardSpec::new(slowest as u32, shards).expect("shard spec"),
        ));
        self.engine(op, read, engine, LEG);
    }
}

/// `Auto` against the fastest forced algorithm family on one statement:
/// 1.0 means the planner chose as well as hindsight. Each timing is on a
/// fresh engine whose census cache has met the pattern but not the focal
/// set — the state a served cold statement finds, and the one in which
/// the planner knows the exact match-list length.
fn regret_ratio(graph: &Arc<Graph>, warm_sql: &str, sql: &str) -> f64 {
    let time_once = |algorithm: Algorithm| {
        let mut engine = QueryEngine::shared(graph.clone());
        engine.set_catalog(Catalog::with_builtins());
        engine.set_threads(EXEC_THREADS);
        engine.set_algorithm(algorithm);
        engine.set_census_cache(Arc::new(CensusCache::new(256)));
        engine.execute(warm_sql).expect("regret warm-up");
        let started = Instant::now();
        engine.execute(sql).expect("regret statement");
        started.elapsed().as_secs_f64()
    };
    // A slow family is slow by a wide margin; only close calls are worth
    // repeating for a median.
    let time_with = |algorithm: Algorithm| {
        let first = time_once(algorithm);
        if first > 0.1 {
            return first;
        }
        stats::median(&[first, time_once(algorithm), time_once(algorithm)])
    };
    let auto = time_with(Algorithm::Auto);
    let best = [Algorithm::NdPivot, Algorithm::PtOpt]
        .into_iter()
        .map(time_with)
        .fold(auto, f64::min);
    auto / best
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn stat_delta(before: &TableData, after: &TableData, name: &str) -> f64 {
    (after.stat(name).unwrap_or(0) - before.stat(name).unwrap_or(0)) as f64
}

pub fn run(input: &Input, workload: Workload, seconds: f64) -> (RunResult, Vec<Span>) {
    let budget = Duration::from_secs_f64(seconds);
    let run_started = Instant::now();
    let deck = Deck::new(workload, input.seed, &input.graph);
    let connections = workload.clients(input.nproc) + SPARE_CONNECTIONS;

    // Instance A: the served system, for end-to-end spans.
    let mut fleet = Fleet::start(workload, &input.egb, &deck, connections);
    let graph = fleet.graph.clone();
    let egb_bytes = std::fs::metadata(&input.egb).map_or(0, |m| m.len());

    let mut probe = Probe {
        tracer: Tracer::new(),
        tally: Tally::default(),
        stats: GraphStats::heuristic(&graph),
    };

    // First touch of each pattern's global match list, timed on its own
    // (the set-up pays it; a served statement then finds it cached).
    let catalog = Catalog::with_builtins();
    let patterns: &[&str] = match workload {
        Workload::ColdCensus | Workload::FullTable | Workload::RouterScatter => &["clq3_unlb"],
        Workload::ColdSelective => &["clq3"],
        _ => &["clq3_unlb", "clq3"],
    };
    let mut matches = 0usize;
    let extract_started = Instant::now();
    for name in patterns {
        let pattern = catalog.require(name).expect("builtin pattern");
        matches += global_matches(&graph, pattern).len();
    }
    let extract_ms = extract_started.elapsed().as_secs_f64() * 1e3;

    let before = fleet.stats();
    let mut client = Client::connect(fleet.addr).expect("connect traced client");
    let mut others: Vec<Fleet> = Vec::new();
    // Tier counters as they stand once the traced ops are done.
    let mut after_spans = None;
    let mut writer_p50_ms = 0.0;
    let mut writer_late_ms = 0.0;

    if workload == Workload::RouterScatter {
        // B: an in-process RouterSession over its own workers. C: workers
        // queried leg by leg. Separate fleets, so every instance sees
        // each op cold exactly once.
        let b = Fleet::start(workload, &input.egb, &deck, connections);
        let c = Fleet::start(workload, &input.egb, &deck, connections);
        let mut route = RouterSession::new(b.router.clone().expect("routed fleet"));
        let mut legs: Vec<Client> = c
            .worker_addrs
            .iter()
            .map(|&a| Client::connect(a).expect("connect leg"))
            .collect();
        let mut engine = session_like_engine(graph.clone(), &deck);
        for op in 0..input.scale.trace_ops {
            if run_started.elapsed() > budget {
                break;
            }
            probe.scatter(
                op,
                &deck.read(op),
                &mut client,
                &mut route,
                &mut legs,
                &mut engine,
            );
        }
        drop(route);
        drop(legs);
        others.push(b);
        others.push(c);
    } else {
        // B: an in-process Session over its own Shared, warmed like A.
        let shared = Shared::new(
            graph.clone(),
            Arc::new(Catalog::with_builtins()),
            &server_config(connections),
        );
        let mut session = Session::new(&shared);
        for req in deck.warmup() {
            let reply = session.handle(&req);
            assert!(!reply.starts_with(r#"{"ok":false"#), "warm-up: {reply}");
        }
        session.drain_notifications();
        // C: a bare engine in the same warm state (read-only workloads).
        let engine = (!workload.mutates()).then(|| session_like_engine(graph.clone(), &deck));
        let mut mirror = workload
            .mutates()
            .then(|| UpdateMirror::new(&input.graph, &deck));
        let mut writer = fleet.writer.take();
        let (mut reads, mut updates) = (0usize, 0usize);
        for op in 0..input.scale.trace_ops {
            if run_started.elapsed() > budget {
                break;
            }
            let update = match workload {
                Workload::UpdateStream => true,
                Workload::ReadAfterWrite => op % 4 == 3,
                _ => false,
            };
            if update {
                probe.update(
                    op,
                    &deck.update(updates),
                    writer.as_mut().expect("writer connection"),
                    &mut session,
                    mirror.as_mut().expect("update mirror"),
                );
                updates += 1;
            } else {
                probe.read(
                    op,
                    &deck.read(reads),
                    &mut client,
                    &mut session,
                    engine.as_ref(),
                );
                reads += 1;
            }
        }
        after_spans = Some(fleet.stats());
        if workload == Workload::ReadAfterWrite {
            // The open-loop writer's own numbers need real concurrency:
            // a short window of the real traffic, after the spans.
            let window = load::run(
                workload,
                fleet.addr,
                &deck,
                writer.as_mut().map(|w| (w, updates)),
                input.nproc,
                budget.min(Duration::from_secs(2)).mul_f64(0.75),
            );
            let lat: Vec<f64> = window
                .updates
                .iter()
                .map(|u| u.timing.latency_ms())
                .collect();
            if !lat.is_empty() {
                writer_p50_ms = stats::median(&lat);
                writer_late_ms = window
                    .updates
                    .iter()
                    .map(|u| u.late_ns as f64 / 1e6)
                    .fold(0.0, f64::max);
            }
            probe.tally.failed += window.updates.iter().filter(|u| !u.ok).count();
        }
        fleet.writer = writer;
    }
    drop(client);
    let after = after_spans.unwrap_or_else(|| fleet.stats());

    let mut regret = 0.0;
    let mut regret_whole = 0.0;
    if workload.is_cold() && run_started.elapsed() < budget {
        let read = deck.read(0);
        let warm_sql = deck
            .warmup()
            .into_iter()
            .find_map(|req| match req {
                Request::Query { sql, .. } => Some(sql),
                _ => None,
            })
            .expect("cold workloads warm with a query");
        regret = regret_ratio(&graph, &warm_sql, &read.sql);
        regret_whole = regret_ratio(
            &graph,
            &warm_sql,
            &format!(
                "SELECT ID, COUNTP({}, SUBGRAPH(ID, {})) FROM nodes ORDER BY 2 DESC LIMIT 20",
                read.pattern, read.k
            ),
        );
    }

    let open_ms = fleet.open_secs * 1e3;
    fleet.stop();
    for f in others {
        f.stop();
    }

    let Probe { tracer, tally, .. } = probe;
    // Reduce spans to per-layer metrics: self time per traced op.
    let selfs = tracer.self_ns_by_name();
    let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let reads = tally.read_ops.max(1) as f64;
    let updates = tally.update_ops.max(1) as f64;
    let ops = (tally.read_ops + tally.update_ops).max(1) as f64;
    let per_op_us = |name: &str| self_of(name) / ops / 1e3;
    let per_op_ms = |name: &str| self_of(name) / ops / 1e6;
    let e2e_ns = tracer.total_ns(CLIENT_QUERY) + tracer.total_ns(CLIENT_UPDATE);
    let share = |names: &[&str]| {
        if e2e_ns > 0.0 {
            names.iter().map(|n| self_of(n)).sum::<f64>() / e2e_ns
        } else {
            0.0
        }
    };
    let attributed: f64 = selfs.values().sum();
    let shape_ms = |shape: Shape| tally.shape_ms.get(&shape).map_or(0.0, |v| stats::mean(v));
    let sent = |shape: Shape| tally.shape_ms.get(&shape).map_or(0, Vec::len) as f64;
    // Useful outcomes over attempts, per tier. A repeat that misses the
    // result cache (after an update) falls through to the view, so it is
    // an attempt on the view tier too.
    let ratio = |counter: &str, attempts: f64| {
        if attempts > 0.0 {
            stat_delta(&before, &after, counter) / attempts
        } else {
            0.0
        }
    };
    let view_attempts =
        sent(Shape::ViewHit) + sent(Shape::ResultHit) - stat_delta(&before, &after, "cache_hits");
    let leg_max_ns: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == LEG && !s.overlapped)
        .fold(0.0, |acc, s| acc + s.dur_ns());

    let metrics: Vec<(&'static str, f64)> = vec![
        ("graph.open_ms", open_ms),
        ("graph.egb_bytes", egb_bytes as f64),
        ("query.parse_us", per_op_us(PARSE)),
        ("query.plan_us", per_op_us(PLAN)),
        ("query.exec_self_us", per_op_us(EXECUTE)),
        ("matcher.extract_ms", extract_ms),
        ("matcher.matches", matches as f64),
        ("census.traverse_ms", per_op_ms(TRAVERSE)),
        (
            "census.edges_per_focal",
            tally.edges as f64 / tally.focal.max(1) as f64,
        ),
        ("planner.regret_ratio", regret),
        ("planner.regret_whole_ratio", regret_whole),
        ("server.decode_us", per_op_us(DECODE)),
        ("server.encode_us", per_op_us(ENCODE)),
        ("server.bytes_out", tally.bytes_out as f64 / reads),
        ("server.session_self_us", per_op_us(SESSION)),
        (
            "server.socket_us",
            (self_of(CLIENT_QUERY) + self_of(CLIENT_UPDATE)) / ops / 1e3,
        ),
        ("client.decode_us", per_op_us(CLIENT_DECODE)),
        ("tier.result_hit_ms", shape_ms(Shape::ResultHit)),
        ("tier.census_hit_ms", shape_ms(Shape::CensusHit)),
        ("tier.view_hit_ms", shape_ms(Shape::ViewHit)),
        (
            "tier.result_hit_ratio",
            ratio("cache_hits", sent(Shape::ResultHit)),
        ),
        (
            "tier.census_hit_ratio",
            ratio("census_count_hits", sent(Shape::CensusHit)),
        ),
        ("tier.view_hit_ratio", ratio("view_hits", view_attempts)),
        (
            "tier.evictions",
            stat_delta(&before, &after, "cache_evictions")
                + stat_delta(&before, &after, "view_evictions"),
        ),
        (
            "tier.pinned_bytes",
            after.stat("view_bytes").unwrap_or(0) as f64,
        ),
        ("dynamic.compact_ms", self_of(COMPACT) / updates / 1e6),
        (
            "dynamic.incremental_ms",
            self_of(INCREMENTAL) / updates / 1e6,
        ),
        ("dynamic.dirty_focal", tally.dirty_focal as f64 / updates),
        ("continuous.apply_ms", self_of(CONTINUOUS) / updates / 1e6),
        ("continuous.rows_pushed", tally.rows_pushed as f64 / updates),
        ("shard.route_self_us", per_op_us(ROUTE)),
        ("shard.leg_max_ms", leg_max_ns / ops / 1e6),
        ("shard.leg_skew", stats::mean(&tally.leg_skew)),
        ("writer.update_p50_ms", writer_p50_ms),
        ("writer.lateness_ms", writer_late_ms),
        ("proc.peak_rss_mb", peak_rss_mb()),
        ("trace.ops", tally.read_ops as f64 + tally.update_ops as f64),
        (
            "trace.read_e2e_us",
            tracer.total_ns(CLIENT_QUERY) / tracer.count(CLIENT_QUERY).max(1) as f64 / 1e3,
        ),
        (
            "trace.update_e2e_us",
            tracer.total_ns(CLIENT_UPDATE) / tracer.count(CLIENT_UPDATE).max(1) as f64 / 1e3,
        ),
        ("trace.census_share", share(&[TRAVERSE])),
        (
            "trace.output_share",
            share(&[EXECUTE, ENCODE, CLIENT_QUERY, CLIENT_DECODE]),
        ),
        (
            "trace.unattributed_share",
            if e2e_ns > 0.0 {
                (e2e_ns - attributed).abs() / e2e_ns
            } else {
                0.0
            },
        ),
    ];

    let mut notes = Vec::new();
    if tally.read_ops + tally.update_ops < input.scale.trace_ops {
        notes.push(format!(
            "warning: traced {} of {} ops before the {seconds} s budget ran out; counts will not repeat",
            tally.read_ops + tally.update_ops,
            input.scale.trace_ops
        ));
    }
    let detail = vec![
        ("spans".to_string(), Json::Int(tracer.spans.len() as i64)),
        (
            "self_time_ms_by_span".to_string(),
            Json::Obj(
                selfs
                    .iter()
                    .map(|(name, ns)| (name.to_string(), Json::Float(ns / 1e6)))
                    .collect(),
            ),
        ),
    ];
    let result = RunResult {
        workload,
        traced: true,
        correct: tally.failed == 0,
        attempted: tally.read_ops + tally.update_ops,
        failed: tally.failed,
        metrics,
        detail,
        notes,
    };
    (result, tracer.spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, op: usize, ms: u64) -> Span {
        Span {
            name,
            parent,
            op,
            start_ns: 0,
            end_ns: ms * 1_000_000,
            overlapped: false,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new();
        tracer.spans = vec![
            span(CLIENT_QUERY, None, 0, 10),
            span(SESSION, Some(CLIENT_QUERY), 0, 8),
            span(DECODE, Some(SESSION), 0, 1),
            span(EXECUTE, Some(SESSION), 0, 5),
            span(TRAVERSE, Some(EXECUTE), 0, 4),
            // A second op: children never cross ops.
            span(CLIENT_QUERY, None, 1, 3),
            span(SESSION, Some(CLIENT_QUERY), 1, 2),
        ];
        let selfs = tracer.self_ns_by_name();
        let ms = |name: &str| selfs[name] / 1e6;
        assert_eq!(ms(CLIENT_QUERY), 2.0 + 1.0);
        assert_eq!(ms(SESSION), 2.0 + 2.0);
        assert_eq!(ms(DECODE), 1.0);
        assert_eq!(ms(EXECUTE), 1.0);
        assert_eq!(ms(TRAVERSE), 4.0);
        // Self times add up to the end-to-end time.
        let total: f64 = selfs.values().sum();
        assert_eq!(total / 1e6, 13.0);
        assert_eq!(tracer.total_ns(CLIENT_QUERY) / 1e6, 13.0);
        assert_eq!(tracer.count(CLIENT_QUERY), 2);
    }

    #[test]
    fn only_the_slowest_parallel_leg_blocks_its_parent() {
        let mut tracer = Tracer::new();
        let mut fast = span(LEG, Some(ROUTE), 0, 3);
        fast.overlapped = true;
        tracer.spans = vec![span(ROUTE, None, 0, 10), fast, span(LEG, Some(ROUTE), 0, 7)];
        let selfs = tracer.self_ns_by_name();
        assert_eq!(selfs[ROUTE] / 1e6, 3.0);
        assert_eq!(selfs[LEG] / 1e6, 7.0);
    }

    #[test]
    fn a_child_measured_longer_than_its_parent_floors_at_zero() {
        let mut tracer = Tracer::new();
        tracer.spans = vec![
            span(EXECUTE, None, 0, 2),
            span(TRAVERSE, Some(EXECUTE), 0, 3),
        ];
        assert_eq!(tracer.self_ns_by_name()[EXECUTE], 0.0);
    }
}
