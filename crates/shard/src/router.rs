//! The scatter/gather router: a protocol-compatible front end over a
//! fleet of `ego-server` workers that share one mmap'd graph.
//!
//! The router speaks the same line-delimited JSON protocol as a single
//! server, so clients cannot tell the difference — the correctness bar
//! is *byte-identical* responses. The front end *is* `ego-server`'s
//! ([`ego_server::serve_lines`]); only the per-connection handler
//! differs. Each op is dispatched by the routing class of its row in
//! [`ego_server::OPS`]:
//!
//! * **scatter** — `query` (single-table, no `ORDER BY`/`LIMIT`): the
//!   focal node-ID space is partitioned into one contiguous shard per
//!   live worker; each worker runs the statement with a `shard: "j/n"`
//!   annotation (the full `WHERE`/`RND()` pass runs unsharded, then the
//!   focal list is restricted, so random sampling stays aligned), and
//!   the per-shard tables concatenate in shard order. Any other `query`
//!   (pairwise, `ORDER BY`, `LIMIT`, `EXPLAIN`-prefixed, unparsable) goes
//!   whole to one worker — per-shard sort/truncate would not compose —
//!   except a statement with an op of its own (`ANALYZE`,
//!   `MATERIALIZE`, `DROP VIEW`), which is served as that op. `stats` is
//!   gathered from every worker, aggregated by
//!   [`crate::merge::merge_stats`], with `router_*` counters appended.
//! * **proxy** — `explain`: forwarded whole to one worker, round-robin.
//! * **broadcast** — `define`, `analyze`, `update`, `materialize`,
//!   `drop_view`: sent to every live worker, and the acknowledgments
//!   must agree byte-for-byte — a divergent worker would silently
//!   corrupt merges, so divergence is surfaced as an error
//!   (`RouterSession::handle_broadcast` has the per-op rules).
//! * **local** — `ping`, `unsubscribe`, `shutdown`: answered from the
//!   router's own state (`shutdown` also tells the workers).
//! * **scatter**, with state — `subscribe`: the standing query is
//!   registered once per live worker, leg `j` covering focal shard
//!   `j/n` (`n` frozen at subscribe time, like a scattered query), and
//!   the legs' initial counts are scattered into a per-subscription
//!   *baseline*. On every update each leg pushes its shard's changed
//!   rows; the router merges the per-leg `notify` frames of one
//!   generation in shard order (contiguous ID ranges, so concatenation
//!   is globally focal-ascending) and pushes one frame to the client.
//!   When a leg's worker dies, the leg is re-subscribed on a survivor
//!   and one **coalesced** frame is synthesized by diffing a fresh
//!   scatter of the statement against the baseline — the client's view
//!   stays exact even across the lost frames.
//!
//! **Failure model**: a worker that times out or drops its connection
//! is marked down *permanently* (it may have missed an `update`; a
//! rejoin protocol is out of scope). The shard count `n` is fixed at
//! scatter time, so a dead worker's shard `j/n` is re-sent verbatim to
//! a survivor — every worker maps the whole graph, so any of them can
//! answer any shard, and the merged bytes are unchanged.

use crate::merge::{merge_replies, merge_stats};
use ego_query::{strip_subscribe, ShardSpec, Statement, Value};
use ego_server::{
    serve_lines, Client, LineHandler, LineLimits, NotifyFrame, Request, Response, RetryPolicy,
    Route, ShutdownHandle, TableData,
};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Tunables for [`Router`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Client-connection handler threads (the concurrency bound).
    pub pool_threads: usize,
    /// Per-request bound on each worker connection; a worker that
    /// exceeds it is treated as failed and its shard re-scattered.
    pub worker_timeout: Duration,
    /// Connect retry/backoff for worker connections (a worker may still
    /// be binding its socket when the router first dials it).
    pub connect_retry: RetryPolicy,
    /// How long a half-received client request may dribble in.
    pub request_timeout: Duration,
    /// Write timeout per client response.
    pub write_timeout: Duration,
    /// Accept/read poll tick; bounds shutdown latency.
    pub poll_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            pool_threads: 4,
            worker_timeout: Duration::from_secs(120),
            connect_retry: RetryPolicy::default(),
            request_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// Router-level counters, exposed as `router_*` rows in `stats`.
#[derive(Default)]
pub struct RouterStats {
    /// Client connections accepted.
    pub connections: AtomicU64,
    /// Request lines received from clients.
    pub requests: AtomicU64,
    /// Queries fanned out across the worker fleet.
    pub scattered_queries: AtomicU64,
    /// Requests forwarded whole to a single worker.
    pub proxied_requests: AtomicU64,
    /// Workers marked down (timeout or connection failure).
    pub worker_failures: AtomicU64,
    /// Shards re-sent to a survivor after their worker failed.
    pub rescattered_shards: AtomicU64,
    /// Subscriptions registered through the router.
    pub subscriptions_created: AtomicU64,
    /// Merged notify frames pushed to clients.
    pub frames_pushed: AtomicU64,
    /// Subscription legs re-homed onto a survivor after their worker
    /// died (each re-home also pushes one coalesced frame).
    pub legs_recovered: AtomicU64,
    /// Client connections closed because their handler panicked. Not a
    /// `router_*` row: it is added into the fleet-wide `panics` row.
    pub panics: AtomicU64,
}

struct WorkerSlot {
    addr: SocketAddr,
    up: AtomicBool,
}

/// State shared by every router session: the worker roster, the
/// update/query coherence lock, counters, and the shutdown flag.
pub struct RouterShared {
    workers: Vec<WorkerSlot>,
    /// Queries (scatter or proxy) hold the read side; `update` holds
    /// the write side so a mutation is never interleaved with a
    /// scattered query that would merge rows from two generations.
    coherence: RwLock<()>,
    /// Router-level counters.
    pub stats: RouterStats,
    /// Set by a `shutdown` request or a [`RouterShutdownHandle`].
    pub shutdown: Arc<AtomicBool>,
    config: RouterConfig,
    next_proxy: AtomicUsize,
    /// Client-facing subscription ids (unique fleet-wide, never reused).
    next_sub: AtomicU64,
}

impl RouterShared {
    /// Indices of workers currently believed alive.
    pub fn up_indices(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&i| self.workers[i].up.load(Ordering::SeqCst))
            .collect()
    }

    /// Number of workers currently believed alive.
    pub fn workers_up(&self) -> usize {
        self.up_indices().len()
    }

    /// Total fleet size (up or down).
    pub fn workers_total(&self) -> usize {
        self.workers.len()
    }

    /// Mark a worker down permanently (idempotent; counts the first
    /// transition only).
    fn mark_down(&self, index: usize) {
        if self.workers[index].up.swap(false, Ordering::SeqCst) {
            self.stats.worker_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Sets the router shutdown flag from another thread.
pub type RouterShutdownHandle = ShutdownHandle;

/// One shard leg of a router-level subscription: the worker currently
/// serving shard `j` and the worker-side subscription id there.
#[derive(Clone)]
struct Leg {
    worker: usize,
    sub_id: u64,
}

/// One standing query registered through the router, fanned out as one
/// leg per worker that was alive at subscribe time.
struct RouterSub {
    /// Client-facing id (router-assigned, never reused).
    id: u64,
    /// The statement body (SELECT, `SUBSCRIBE` verb stripped) — re-sent
    /// verbatim when a leg is re-homed.
    sql: String,
    /// Aggregate column names, projection order.
    columns: Vec<String>,
    /// Shard legs, indexed by shard `j`; the count is frozen at
    /// subscribe time.
    legs: Vec<Leg>,
    /// The counts last pushed to the client: focal node -> per-aggregate
    /// values. Recovery diffs a fresh scatter against this, so the
    /// synthesized frame's `old` values are exactly what the client
    /// last saw.
    baseline: HashMap<i64, Vec<i64>>,
    /// Per-generation partial frames: shard legs report independently,
    /// and a generation is pushed only once every leg has.
    pending: BTreeMap<u64, Vec<Option<Vec<Vec<Value>>>>>,
    /// Last generation pushed to the client; late frames at or below it
    /// are duplicates of coalesced recovery and are dropped.
    generation: u64,
}

/// One client connection's view of the fleet: a lazily-opened
/// connection per worker plus the session's `define` history, replayed
/// whenever a worker connection is (re)opened so session catalogs stay
/// in sync across the fleet.
pub struct RouterSession {
    shared: Arc<RouterShared>,
    conns: Vec<Option<Client>>,
    defines: Vec<String>,
    subs: Vec<RouterSub>,
    /// Merged frames ready for this client, oldest first, pre-encoded.
    /// The serve loop writes them before the next response and on idle
    /// poll ticks.
    pending_frames: Vec<String>,
}

impl RouterSession {
    /// A fresh session against the shared fleet state.
    pub fn new(shared: Arc<RouterShared>) -> RouterSession {
        let n = shared.workers.len();
        RouterSession {
            shared,
            conns: (0..n).map(|_| None).collect(),
            defines: Vec::new(),
            subs: Vec::new(),
            pending_frames: Vec::new(),
        }
    }

    /// Take the merged frames queued for this client, oldest first.
    pub fn take_pending_frames(&mut self) -> Vec<String> {
        std::mem::take(&mut self.pending_frames)
    }

    /// Does this connection own any live subscriptions?
    pub fn has_subscriptions(&self) -> bool {
        !self.subs.is_empty()
    }

    /// The session's connection to worker `i`, dialing and replaying
    /// this session's defines if needed. Worker clients run with
    /// `RetryPolicy::none()`: a silent client-level reconnect would
    /// drop the per-connection session catalog, so reconnects must go
    /// through here.
    fn conn(&mut self, i: usize) -> std::io::Result<&mut Client> {
        if self.conns[i].is_none() {
            let mut c = Client::connect_with_retry(
                self.shared.workers[i].addr,
                self.shared.config.connect_retry,
            )?;
            c.set_retry(RetryPolicy::none());
            c.set_timeout(Some(self.shared.config.worker_timeout))?;
            for pattern in &self.defines {
                match c.request(&Request::Define {
                    pattern: pattern.clone(),
                })? {
                    Response::Table(_) => {}
                    // These defines already succeeded fleet-wide once.
                    Response::Error { message } => {
                        return Err(std::io::Error::other(format!(
                            "define replay rejected: {message}"
                        )))
                    }
                    Response::Notify(_) => unreachable!("request() filters notify frames"),
                }
            }
            self.conns[i] = Some(c);
        }
        Ok(self.conns[i].as_mut().expect("connection just ensured"))
    }

    /// Drop worker `i`'s connection and mark it down fleet-wide.
    fn fail_worker(&mut self, i: usize) {
        self.conns[i] = None;
        self.shared.mark_down(i);
    }

    /// Handle one request line, returning one encoded response line.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        match Request::decode(line) {
            Ok(req) => self.handle(&req),
            Err(message) => Response::error(message).encode(),
        }
    }

    /// Handle one decoded request, dispatched by its op's routing class
    /// ([`ego_server::OPS`]).
    pub fn handle(&mut self, req: &Request) -> String {
        match req.op().route {
            Route::Proxy => {
                let shared = self.shared.clone();
                let _read = shared.coherence.read().expect("coherence poisoned");
                self.proxy(req)
            }
            Route::Broadcast => self.handle_broadcast(req),
            // Local and scattered ops each have a rule of their own.
            Route::Local | Route::Scatter => match req {
                Request::Ping => Response::cell("reply", Value::Str("pong".into())).encode(),
                Request::Query { sql, shard } => self.handle_query(sql, *shard),
                Request::Subscribe { sql, shard } => self.handle_subscribe(sql, *shard),
                Request::Unsubscribe { id } => self.handle_unsubscribe(*id),
                Request::Stats => {
                    let shared = self.shared.clone();
                    let _read = shared.coherence.read().expect("coherence poisoned");
                    self.handle_stats()
                }
                Request::Shutdown => {
                    for w in self.shared.up_indices() {
                        let _ = self.conn(w).map(|c| c.send_request(&Request::Shutdown));
                    }
                    self.shared.shutdown.store(true, Ordering::SeqCst);
                    Response::cell("reply", Value::Str("shutting down".into())).encode()
                }
                _ => unreachable!("op `{}` is routed by its class", req.op().name),
            },
        }
    }

    fn handle_query(&mut self, sql: &str, shard: Option<ShardSpec>) -> String {
        let stmt = Statement::classify(sql);
        // A statement with an op of its own is served as that op, so the
        // whole fleet adopts it — exactly what a direct server does.
        if let Some(op) = Request::dedicated(stmt, sql, shard) {
            return self.handle(&op);
        }
        let shared = self.shared.clone();
        let _read = shared.coherence.read().expect("coherence poisoned");
        let ups = self.shared.up_indices();
        // A statement scatters when the logical plan the workers execute
        // through merges by concatenation: `ORDER BY`/`LIMIT` re-shape
        // the row set per shard and pairwise statements iterate node
        // *pairs*. Those, statements with no SELECT plan (`EXPLAIN`,
        // rejected verbs, unparsable text) and a client that names its
        // own shard (a router layered over routers) go whole to one
        // worker, whose answer — error messages included — reaches the
        // client byte-identically.
        if shard.is_none() && ups.len() > 1 && stmt.plan().is_ok_and(|p| p.is_scatterable()) {
            self.scatter_query(sql, &ups)
        } else {
            self.proxy(&Request::Query {
                sql: sql.to_string(),
                shard,
            })
        }
    }

    /// Fan one statement out as one shard per live worker and merge the
    /// reply lines in shard order (`merge_replies`: spliced as bytes,
    /// not decoded). The shard count is fixed at scatter time: when a
    /// worker dies mid-query its shard `j/n` is re-sent verbatim to a
    /// survivor, leaving the merged bytes unchanged.
    fn scatter_query(&mut self, sql: &str, ups: &[usize]) -> String {
        self.shared
            .stats
            .scattered_queries
            .fetch_add(1, Ordering::Relaxed);
        let n = ups.len() as u32;
        let shard_req = |j: u32| Request::Query {
            sql: sql.to_string(),
            shard: Some(ShardSpec::new(j, n).expect("shard index < count")),
        };

        // Scatter: pipeline one send per worker before reading anything.
        let mut sent = vec![false; ups.len()];
        for (j, &w) in ups.iter().enumerate() {
            match self
                .conn(w)
                .and_then(|c| c.send_request(&shard_req(j as u32)))
            {
                Ok(()) => sent[j] = true,
                Err(_) => self.fail_worker(w),
            }
        }

        // Gather in shard order. Failures leave a hole; retries must
        // wait until every pipelined connection is drained, otherwise a
        // retry on a survivor would read that survivor's own pending
        // shard response as its reply.
        let mut parts: Vec<Option<String>> = Vec::with_capacity(ups.len());
        for (j, &w) in ups.iter().enumerate() {
            if !sent[j] {
                parts.push(None);
                continue;
            }
            match self.conns[w]
                .as_mut()
                .expect("sent shards have live connections")
                .recv_reply_line()
            {
                Ok(line) => parts.push(Some(line)),
                Err(_) => {
                    self.fail_worker(w);
                    parts.push(None);
                }
            }
        }

        // Re-scatter the holes to survivors.
        for (j, part) in parts.iter_mut().enumerate() {
            if part.is_none() {
                self.shared
                    .stats
                    .rescattered_shards
                    .fetch_add(1, Ordering::Relaxed);
                *part = self.retry_shard(&shard_req(j as u32));
            }
        }
        let Some(parts) = parts.into_iter().collect::<Option<Vec<_>>>() else {
            return Response::error("no workers available").encode();
        };
        // A statement the engine rejects (bad pattern, unsupported
        // algorithm/spec combination) fails identically on every
        // worker; the first error in shard order is the direct engine's
        // bytes.
        merge_replies(&parts)
    }

    /// Run one shard request to completion on any surviving worker,
    /// returning its reply line.
    fn retry_shard(&mut self, req: &Request) -> Option<String> {
        for w in self.shared.up_indices() {
            match self.conn(w).and_then(|c| c.request_line(req)) {
                Ok(line) => return Some(line),
                Err(_) => self.fail_worker(w),
            }
        }
        None
    }

    /// Forward one request whole to a single worker, round-robin over
    /// the live fleet, failing over to the next worker on error.
    fn proxy(&mut self, req: &Request) -> String {
        self.shared
            .stats
            .proxied_requests
            .fetch_add(1, Ordering::Relaxed);
        let start = self.shared.next_proxy.fetch_add(1, Ordering::Relaxed);
        loop {
            let ups = self.shared.up_indices();
            if ups.is_empty() {
                return Response::error("no workers available").encode();
            }
            let w = ups[start % ups.len()];
            match self.conn(w).and_then(|c| c.request_line(req)) {
                Ok(line) => return line,
                Err(_) => self.fail_worker(w),
            }
        }
    }

    /// Serve a broadcast-class op: one request per live worker, one
    /// agreed answer.
    ///
    /// * `define` reaches this session's per-worker catalogs only, so it
    ///   takes no lock; once accepted it is recorded for replay on
    ///   reconnect.
    /// * `analyze`, `update`, `materialize` and `drop_view` change
    ///   fleet-wide state and hold the coherence write lock: no query
    ///   merges rows from two generations, and no mutation lands between
    ///   two workers' legs.
    /// * `materialize` goes out as shard legs — worker `j` of `n` pins
    ///   the view for focal shard `j/n`, exactly the shard a scattered
    ///   query will later send it. Its ack table is deliberately
    ///   shard-independent, so the acks still compare.
    /// * Workers write this session's subscription frames *before* the
    ///   `update` response on the same connection, so once the broadcast
    ///   returns every live leg's frame is already buffered on its worker
    ///   client — they are merged (and dead legs recovered) before the
    ///   update response reaches the client, preserving the direct
    ///   server's ordering guarantee.
    fn handle_broadcast(&mut self, req: &Request) -> String {
        let what = req.op().name.replace('_', " ");
        let shared = self.shared.clone();
        let _write = (!matches!(req, Request::Define { .. }))
            .then(|| shared.coherence.write().expect("coherence poisoned"));
        let response = match req {
            Request::Define { pattern } => {
                let response = self.broadcast(&what, true, |_| req.clone());
                if !response.is_error() {
                    self.defines.push(pattern.clone());
                }
                response
            }
            Request::Materialize { shard: Some(_), .. } => {
                Response::error("materialize through the router does not accept an explicit shard")
            }
            Request::Materialize { sql, .. } => {
                self.broadcast(&what, true, |shard| Request::Materialize {
                    sql: sql.clone(),
                    shard: Some(shard),
                })
            }
            _ => self.broadcast(&what, false, |_| req.clone()),
        };
        if matches!(req, Request::Update { .. }) && self.has_subscriptions() {
            self.absorb_buffered_frames();
            self.recover_dead_legs();
        }
        response.encode()
    }

    /// Send `leg(j/n)` to the `j`-th of the `n` live workers and return
    /// the fleet's one answer. Every worker holds the same graph and
    /// session catalog, so the answers — rejections included — must be
    /// byte-identical; anything else means the fleet diverged and is
    /// reported, not merged. With `stop_on_error` the first rejection
    /// ends the broadcast, so later workers never adopt what an earlier
    /// one refused. A worker that fails mid-broadcast is marked down: it
    /// missed the request and can no longer answer shards.
    fn broadcast(
        &mut self,
        what: &str,
        stop_on_error: bool,
        leg: impl Fn(ShardSpec) -> Request,
    ) -> Response {
        let ups = self.shared.up_indices();
        let n = ups.len() as u32;
        let mut agreed: Option<(Response, String)> = None;
        let mut diverged: Option<String> = None;
        for (j, &w) in ups.iter().enumerate() {
            let req = leg(ShardSpec::new(j as u32, n).expect("shard index < count"));
            match self.conn(w).and_then(|c| c.request(&req)) {
                Ok(response) if stop_on_error && response.is_error() => return response,
                Ok(response) => {
                    let line = response.encode();
                    match &agreed {
                        None => agreed = Some((response, line)),
                        Some((_, first)) if *first != line && diverged.is_none() => {
                            diverged =
                                Some(format!("workers diverged after {what}: {first} vs {line}"));
                        }
                        Some(_) => {}
                    }
                }
                Err(_) => self.fail_worker(w),
            }
        }
        match (diverged, agreed) {
            (Some(message), _) => Response::error(message),
            (None, Some((response, _))) => response,
            (None, None) => Response::error("no workers available"),
        }
    }

    // --- continuous subscriptions ---

    /// Register a standing query as one leg per live worker, shard
    /// `j/n`, and capture its initial counts as the baseline. Runs
    /// under the coherence write lock so no mutation interleaves
    /// between the legs' initial evaluations.
    fn handle_subscribe(&mut self, sql: &str, shard: Option<ShardSpec>) -> String {
        if shard.is_some() {
            return Response::error(
                "subscribe through the router does not accept an explicit shard",
            )
            .encode();
        }
        let shared = self.shared.clone();
        let _write = shared.coherence.write().expect("coherence poisoned");
        let ups = self.shared.up_indices();
        if ups.is_empty() {
            return Response::error("no workers available").encode();
        }
        let n = ups.len() as u32;
        let body = strip_subscribe(sql).trim().to_string();
        let mut legs: Vec<Leg> = Vec::with_capacity(ups.len());
        let mut columns: Vec<String> = Vec::new();
        let mut generation = 0u64;
        let mut focal_total = 0i64;
        for (j, &w) in ups.iter().enumerate() {
            let req = Request::Subscribe {
                sql: body.clone(),
                shard: Some(ShardSpec::new(j as u32, n).expect("shard index < count")),
            };
            let resp = match self.conn(w).and_then(|c| c.request(&req)) {
                Ok(resp) => resp,
                Err(_) => {
                    self.fail_worker(w);
                    self.rollback_legs(&legs);
                    return Response::error("a worker failed during subscribe; retry").encode();
                }
            };
            match resp {
                Response::Table(t) => {
                    let (Some(sub_id), Some(gen), Some(focal)) = (
                        t.stat("subscription"),
                        t.stat("generation"),
                        t.stat("focal"),
                    ) else {
                        self.rollback_legs(&legs);
                        return Response::error("malformed subscribe ack from worker").encode();
                    };
                    if columns.is_empty() {
                        columns = t
                            .rows
                            .iter()
                            .find(|r| matches!(r.first(), Some(Value::Str(s)) if s == "columns"))
                            .and_then(|r| r.get(1))
                            .and_then(|v| match v {
                                Value::Str(s) => Some(s.split('|').map(str::to_string).collect()),
                                _ => None,
                            })
                            .unwrap_or_default();
                    }
                    generation = gen as u64;
                    focal_total += focal;
                    legs.push(Leg {
                        worker: w,
                        sub_id: sub_id as u64,
                    });
                }
                // A rejected statement fails identically on every
                // worker; the first rejection is the direct server's
                // error, byte-identical.
                Response::Error { message } => {
                    self.rollback_legs(&legs);
                    return Response::error(message).encode();
                }
                Response::Notify(_) => unreachable!("request() filters notify frames"),
            }
        }
        let baseline = match self.scatter_counts(&body, &legs) {
            Ok(b) => b,
            Err(message) => {
                self.rollback_legs(&legs);
                return Response::error(message).encode();
            }
        };
        let id = self.shared.next_sub.fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats
            .subscriptions_created
            .fetch_add(1, Ordering::Relaxed);
        let ack_columns = columns.join("|");
        self.subs.push(RouterSub {
            id,
            sql: body,
            columns,
            legs,
            baseline,
            pending: BTreeMap::new(),
            generation,
        });
        Response::key_values([
            ("subscription", Value::Int(id as i64)),
            ("generation", Value::Int(generation as i64)),
            ("focal", Value::Int(focal_total)),
            ("columns", Value::Str(ack_columns)),
        ])
        .encode()
    }

    /// Cancel a subscription created on this connection, dropping every
    /// worker-side leg.
    fn handle_unsubscribe(&mut self, id: u64) -> String {
        let Some(pos) = self.subs.iter().position(|s| s.id == id) else {
            return Response::error(format!("unknown subscription id {id}")).encode();
        };
        let sub = self.subs.remove(pos);
        self.rollback_legs(&sub.legs);
        Response::cell("unsubscribed", Value::Int(id as i64)).encode()
    }

    /// Best-effort cancel of worker-side legs (a failed subscribe, an
    /// unsubscribe, or an unrecoverable subscription). Legs on down
    /// workers are skipped — their server-side sessions die with the
    /// dropped connections.
    fn rollback_legs(&mut self, legs: &[Leg]) {
        for leg in legs {
            if !self.shared.workers[leg.worker].up.load(Ordering::SeqCst) {
                continue;
            }
            let id = leg.sub_id;
            let _ = self
                .conn(leg.worker)
                .and_then(|c| c.request(&Request::Unsubscribe { id }));
        }
    }

    /// Scatter `sql` over the given legs (shard `j/n` on leg `j`'s
    /// worker) and fold the rows into focal -> per-aggregate counts.
    fn scatter_counts(
        &mut self,
        sql: &str,
        legs: &[Leg],
    ) -> Result<HashMap<i64, Vec<i64>>, String> {
        let n = legs.len() as u32;
        let mut counts: HashMap<i64, Vec<i64>> = HashMap::new();
        for (j, leg) in legs.iter().enumerate() {
            let req = Request::Query {
                sql: sql.to_string(),
                shard: Some(ShardSpec::new(j as u32, n).expect("shard index < count")),
            };
            let w = leg.worker;
            match self.conn(w).and_then(|c| c.request(&req)) {
                Ok(Response::Table(t)) => {
                    for row in &t.rows {
                        let Some(Value::Int(focal)) = row.first() else {
                            return Err("non-integer focal id in scattered counts".into());
                        };
                        counts.insert(
                            *focal,
                            row[1..].iter().map(|v| v.as_int().unwrap_or(0)).collect(),
                        );
                    }
                }
                Ok(Response::Error { message }) => return Err(message),
                Ok(Response::Notify(_)) => unreachable!("request() filters notify frames"),
                Err(e) => {
                    self.fail_worker(w);
                    return Err(format!("worker failed during scattered counts: {e}"));
                }
            }
        }
        Ok(counts)
    }

    /// Worker indices currently carrying at least one leg.
    fn leg_workers(&self) -> Vec<usize> {
        let mut ws: Vec<usize> = self
            .subs
            .iter()
            .flat_map(|s| s.legs.iter().map(|l| l.worker))
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }

    /// Absorb the notify frames already buffered on every leg-carrying
    /// worker client (the update broadcast read past them), merging any
    /// generation that became complete.
    fn absorb_buffered_frames(&mut self) {
        for w in self.leg_workers() {
            let frames = match self.conns[w].as_mut() {
                Some(c) => c.drain_notifications(),
                None => continue,
            };
            for f in frames {
                self.absorb_frame(w, f);
            }
        }
    }

    /// Poll every leg-carrying worker connection for pushed frames (an
    /// update through *another* router connection reaches this
    /// session's legs on the workers' own idle flush ticks) and re-home
    /// legs whose workers died. Called from the serve loop's idle tick.
    pub fn poll_subscription_frames(&mut self) {
        if !self.has_subscriptions() {
            return;
        }
        let mut failed = false;
        for w in self.leg_workers() {
            while let Some(c) = self.conns[w].as_mut() {
                match c.poll_notification(Duration::from_millis(1)) {
                    Ok(Some(f)) => self.absorb_frame(w, f),
                    Ok(None) => break,
                    Err(_) => {
                        self.fail_worker(w);
                        failed = true;
                        break;
                    }
                }
            }
        }
        let down = self.subs.iter().any(|s| {
            s.legs
                .iter()
                .any(|l| !self.shared.workers[l.worker].up.load(Ordering::SeqCst))
        });
        if failed || down {
            // Recovery scatters fresh counts; exclude concurrent
            // updates so the refresh sees one generation.
            let shared = self.shared.clone();
            let _read = shared.coherence.read().expect("coherence poisoned");
            self.recover_dead_legs();
        }
    }

    /// File one worker frame under its (subscription, leg), then push
    /// any newly completed generations. Frames for unknown legs (just
    /// unsubscribed) or at-or-below the last pushed generation (already
    /// covered by a coalesced recovery frame) are dropped.
    fn absorb_frame(&mut self, worker: usize, frame: NotifyFrame) {
        let Some((si, j)) = self.subs.iter().enumerate().find_map(|(si, s)| {
            s.legs
                .iter()
                .position(|l| l.worker == worker && l.sub_id == frame.subscription)
                .map(|j| (si, j))
        }) else {
            return;
        };
        let sub = &mut self.subs[si];
        if frame.generation <= sub.generation {
            return;
        }
        let n_legs = sub.legs.len();
        sub.pending
            .entry(frame.generation)
            .or_insert_with(|| vec![None; n_legs])[j] = Some(frame.rows);
        self.complete_generations(si);
    }

    /// Push every pending generation whose legs have all reported,
    /// oldest first, concatenating rows in shard order — shards are
    /// contiguous ID ranges, so the merged rows are globally
    /// focal-ascending, matching a direct server's frame.
    fn complete_generations(&mut self, si: usize) {
        loop {
            {
                let sub = &self.subs[si];
                let Some(slots) = sub.pending.values().next() else {
                    break;
                };
                if !slots.iter().all(Option::is_some) {
                    break;
                }
            }
            let sub = &mut self.subs[si];
            let (gen, slots) = sub.pending.pop_first().expect("entry just seen");
            let rows: Vec<Vec<Value>> = slots.into_iter().flatten().flatten().collect();
            self.emit_frame(si, gen, rows);
        }
    }

    /// Encode one merged frame for the client and fold its `new` values
    /// into the baseline.
    fn emit_frame(&mut self, si: usize, generation: u64, rows: Vec<Vec<Value>>) {
        let frame = {
            let sub = &mut self.subs[si];
            sub.generation = generation;
            for row in &rows {
                let (Some(Value::Int(focal)), Some(Value::Str(col)), Some(Value::Int(new))) =
                    (row.first(), row.get(1), row.get(3))
                else {
                    continue;
                };
                if let Some(agg) = sub.columns.iter().position(|c| c == col) {
                    let width = sub.columns.len();
                    sub.baseline.entry(*focal).or_insert_with(|| vec![0; width])[agg] = *new;
                }
            }
            Response::Notify(NotifyFrame {
                subscription: sub.id,
                generation,
                columns: sub.columns.clone(),
                rows,
            })
            .encode()
        };
        self.pending_frames.push(frame);
        self.shared
            .stats
            .frames_pushed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Re-home every leg whose worker is down and push one coalesced
    /// catch-up frame per affected subscription. A subscription no
    /// survivor can carry is dropped — the client observes the silence
    /// (no further generations) and re-subscribes. Callers must hold
    /// the coherence lock (either side) so no update interleaves with
    /// the refresh.
    fn recover_dead_legs(&mut self) {
        let mut si = 0;
        while si < self.subs.len() {
            let dead: Vec<usize> = self.subs[si]
                .legs
                .iter()
                .enumerate()
                .filter(|(_, l)| !self.shared.workers[l.worker].up.load(Ordering::SeqCst))
                .map(|(j, _)| j)
                .collect();
            if dead.is_empty() {
                si += 1;
                continue;
            }
            match self.recover_sub(si, &dead) {
                Ok(()) => si += 1,
                Err(_) => {
                    let sub = self.subs.remove(si);
                    self.rollback_legs(&sub.legs);
                }
            }
        }
    }

    /// Re-subscribe the given dead legs of `subs[si]` on survivors,
    /// then synthesize the catch-up frame: a fresh scatter of the
    /// statement over the (re-homed) legs, diffed against the baseline
    /// — exactly the changes the client has not seen, no matter how
    /// many frames the dead worker swallowed.
    fn recover_sub(&mut self, si: usize, dead: &[usize]) -> Result<(), String> {
        let n = self.subs[si].legs.len() as u32;
        let sql = self.subs[si].sql.clone();
        let mut generation = self.subs[si].generation;
        for &j in dead {
            let mut homed = false;
            for w in self.shared.up_indices() {
                let req = Request::Subscribe {
                    sql: sql.clone(),
                    shard: Some(ShardSpec::new(j as u32, n).expect("shard index < count")),
                };
                match self.conn(w).and_then(|c| c.request(&req)) {
                    Ok(Response::Table(t)) => {
                        let Some(sub_id) = t.stat("subscription") else {
                            return Err("malformed subscribe ack from worker".into());
                        };
                        generation = t.stat("generation").unwrap_or(0) as u64;
                        self.subs[si].legs[j] = Leg {
                            worker: w,
                            sub_id: sub_id as u64,
                        };
                        self.shared
                            .stats
                            .legs_recovered
                            .fetch_add(1, Ordering::Relaxed);
                        homed = true;
                        break;
                    }
                    Ok(Response::Error { message }) => return Err(message),
                    Ok(Response::Notify(_)) => unreachable!("request() filters notify frames"),
                    Err(_) => self.fail_worker(w),
                }
            }
            if !homed {
                return Err("no workers available to re-home a subscription leg".into());
            }
        }
        let legs = self.subs[si].legs.clone();
        let current = self.scatter_counts(&sql, &legs)?;
        let sub = &self.subs[si];
        let mut focal: Vec<i64> = current.keys().copied().collect();
        focal.sort_unstable();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for f in focal {
            let new_vals = &current[&f];
            for (agg, col) in sub.columns.iter().enumerate() {
                let old = sub
                    .baseline
                    .get(&f)
                    .and_then(|v| v.get(agg))
                    .copied()
                    .unwrap_or(0);
                let new = new_vals.get(agg).copied().unwrap_or(0);
                if old != new {
                    rows.push(vec![
                        Value::Int(f),
                        Value::Str(col.clone()),
                        Value::Int(old),
                        Value::Int(new),
                    ]);
                }
            }
        }
        self.subs[si].pending.clear();
        self.emit_frame(si, generation, rows);
        Ok(())
    }

    /// Aggregate `stats` across the live fleet and append `router_*`
    /// counters.
    fn handle_stats(&mut self) -> String {
        let mut tables: Vec<TableData> = Vec::new();
        for w in self.shared.up_indices() {
            match self.conn(w).and_then(|c| c.request(&Request::Stats)) {
                Ok(Response::Table(t)) => tables.push(t),
                Ok(Response::Error { message }) => return Response::error(message).encode(),
                Ok(Response::Notify(_)) => unreachable!("request() filters notify frames"),
                Err(_) => self.fail_worker(w),
            }
        }
        if tables.is_empty() {
            return Response::error("no workers available").encode();
        }
        let stats = &self.shared.stats;
        let mut rows = merge_stats(&tables);
        // One fleet-wide `panics` row: the workers' sum plus the
        // router's own front end.
        let own_panics = stats.panics.load(Ordering::Relaxed) as i64;
        match rows.iter_mut().find(|(k, _)| k == "panics") {
            Some(row) => row.1 += own_panics,
            None => rows.push(("panics".to_string(), own_panics)),
        }
        rows.extend([
            (
                "router_connections".to_string(),
                stats.connections.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_frames_pushed".to_string(),
                stats.frames_pushed.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_legs_recovered".to_string(),
                stats.legs_recovered.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_proxied_requests".to_string(),
                stats.proxied_requests.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_subscriptions_created".to_string(),
                stats.subscriptions_created.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_requests".to_string(),
                stats.requests.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_rescattered_shards".to_string(),
                stats.rescattered_shards.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_scattered_queries".to_string(),
                stats.scattered_queries.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_worker_failures".to_string(),
                stats.worker_failures.load(Ordering::Relaxed) as i64,
            ),
            (
                "router_workers_total".to_string(),
                self.shared.workers_total() as i64,
            ),
            (
                "router_workers_up".to_string(),
                self.shared.workers_up() as i64,
            ),
        ]);
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Response::key_values(rows.into_iter().map(|(k, v)| (k, Value::Int(v)))).encode()
    }
}

impl LineHandler for RouterSession {
    fn handle_line(&mut self, line: &str) -> String {
        RouterSession::handle_line(self, line)
    }

    /// Merged frames ready for this client.
    fn take_frames(&mut self) -> Vec<String> {
        self.take_pending_frames()
    }

    /// Collect frames workers flushed for updates made through *other*
    /// router connections.
    fn idle_tick(&mut self) {
        self.poll_subscription_frames();
    }
}

/// The router front end bound to a TCP address.
pub struct Router {
    listener: TcpListener,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Bind to `addr` (port 0 for ephemeral) in front of the given
    /// worker addresses.
    pub fn bind(
        addr: impl ToSocketAddrs,
        worker_addrs: &[SocketAddr],
        config: RouterConfig,
    ) -> std::io::Result<Router> {
        if worker_addrs.is_empty() {
            return Err(std::io::Error::other("router needs at least one worker"));
        }
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(RouterShared {
            workers: worker_addrs
                .iter()
                .map(|&addr| WorkerSlot {
                    addr,
                    up: AtomicBool::new(true),
                })
                .collect(),
            coherence: RwLock::new(()),
            stats: RouterStats::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
            next_proxy: AtomicUsize::new(0),
            next_sub: AtomicU64::new(1),
        });
        Ok(Router { listener, shared })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the router from another thread.
    pub fn shutdown_handle(&self) -> RouterShutdownHandle {
        ShutdownHandle::new(self.shared.shutdown.clone())
    }

    /// The shared fleet state, for inspection in tests.
    pub fn shared(&self) -> &Arc<RouterShared> {
        &self.shared
    }

    /// Serve until shutdown: `ego-server`'s line server, with a
    /// [`RouterSession`] per connection.
    pub fn run(self) -> std::io::Result<()> {
        let config = &self.shared.config;
        let limits = LineLimits {
            pool_threads: config.pool_threads,
            request_timeout: config.request_timeout,
            write_timeout: config.write_timeout,
            poll_interval: config.poll_interval,
        };
        let shared = self.shared;
        let shutdown = shared.shutdown.clone();
        serve_lines(
            self.listener,
            shutdown,
            limits,
            "ego-router-worker",
            {
                let shared = shared.clone();
                move || {
                    shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                }
            },
            move || {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                RouterSession::new(shared.clone())
            },
        )
    }
}
