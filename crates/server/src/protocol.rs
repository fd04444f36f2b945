//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Each request is one JSON object on one line; each response is one
//! JSON object on one line. Malformed input produces an `error` response
//! and leaves the connection open.
//!
//! Requests (`op` selects the kind):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"define","pattern":"PATTERN t { ?A-?B; ?B-?C; ?A-?C; }"}
//! {"op":"query","sql":"SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes"}
//! {"op":"query","sql":"SELECT ...","shard":"0/4"}
//! {"op":"explain","sql":"SELECT ..."}
//! {"op":"analyze"}
//! {"op":"update","mutations":"INSERT EDGE (4, 6); DELETE EDGE (0, 1)"}
//! {"op":"subscribe","sql":"SUBSCRIBE SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes"}
//! {"op":"subscribe","sql":"SUBSCRIBE SELECT ...","shard":"0/4"}
//! {"op":"unsubscribe","id":1}
//! {"op":"materialize","sql":"MATERIALIZE t RADIUS 1 MATCHES"}
//! {"op":"materialize","sql":"MATERIALIZE t RADIUS 1","shard":"0/4"}
//! {"op":"drop_view","sql":"DROP VIEW t RADIUS 1"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses are `table` or `error`:
//!
//! ```text
//! {"ok":true,"type":"table","columns":["ID","..."],"rows":[[0,1],[1,0]]}
//! {"ok":false,"type":"error","message":"unknown pattern `t`"}
//! ```
//!
//! Every successful operation answers with a table — `ping` a one-cell
//! `reply` table, `define` a one-cell `defined` table, `stats` a
//! key/value table — so clients need exactly one success decoder.
//!
//! A connection holding subscriptions additionally receives **notify
//! frames**, pushed asynchronously after each applied mutation batch:
//!
//! ```text
//! {"ok":true,"type":"notify","subscription":1,"generation":3,
//!  "columns":["COUNTP(t, SUBGRAPH(ID, 1))"],"rows":[[4,"COUNTP(t, SUBGRAPH(ID, 1))",0,1]]}
//! ```
//!
//! Each row is `[focal, column, old, new]`. Frames always precede the
//! response of the `update` that produced them when both travel over the
//! same connection, so a client that mutates and subscribes on one
//! connection collects the full delta by reading until its update
//! response arrives ([`crate::Client`] does this transparently).

use crate::json::Json;
use ego_query::{ShardSpec, Statement, Table, Value};

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Define a pattern in the session catalog.
    Define {
        /// `PATTERN name { ... }` DSL text.
        pattern: String,
    },
    /// Execute a census SQL statement (cached).
    Query {
        /// The SQL text.
        sql: String,
        /// Optional focal shard (`"i/n"` on the wire): restrict
        /// single-table census statements to the `i`-th of `n`
        /// contiguous node-ID ranges. The scatter/gather router sends
        /// one shard per worker; absent, the server's own `--shard-of`
        /// default (usually the whole range) applies.
        shard: Option<ShardSpec>,
    },
    /// Describe the plan for a statement (never cached).
    Explain {
        /// The SQL text.
        sql: String,
    },
    /// Profile the shared graph and persist the statistics snapshot so
    /// the cost-based planner runs on measured numbers; answers with
    /// the profile as a key/value table.
    Analyze,
    /// Apply an edge-mutation script (`INSERT EDGE (a, b); DELETE EDGE
    /// (a, b); ...`) to the shared graph, invalidating the caches.
    Update {
        /// The mutation script.
        mutations: String,
    },
    /// Register a standing census statement (`SUBSCRIBE SELECT ...`):
    /// after every applied mutation the server pushes the changed rows
    /// as notify frames on this connection. Answers with a key/value
    /// table carrying the subscription id.
    Subscribe {
        /// The `SUBSCRIBE SELECT ...` text.
        sql: String,
        /// Optional focal shard, like [`Request::Query`]'s: the router
        /// registers one shard of the focal space per worker.
        shard: Option<ShardSpec>,
    },
    /// Remove a subscription created on this connection.
    Unsubscribe {
        /// The id from the subscribe acknowledgment.
        id: u64,
    },
    /// Eagerly compute a pattern's census and pin it in the view
    /// registry (`MATERIALIZE <pattern> RADIUS k [MATCHES]`): later
    /// `COUNTP`/`COUNTSP` statements over the same (pattern, radius)
    /// rewrite to pure lookups, and every applied mutation refreshes the
    /// pinned counts through the incremental engine.
    Materialize {
        /// The `MATERIALIZE ...` statement text.
        sql: String,
        /// Optional focal shard, like [`Request::Query`]'s: the router
        /// materializes one focal shard per worker, so each worker's
        /// view covers exactly the range it scatters.
        shard: Option<ShardSpec>,
    },
    /// Drop a materialized view (`DROP VIEW <pattern> RADIUS k`).
    DropView {
        /// The `DROP VIEW ...` statement text.
        sql: String,
    },
    /// Server and cache counters.
    Stats,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// How the shard router serves an op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Answered from the router session's own state.
    Local,
    /// Forwarded whole to one worker, round-robin.
    Proxy,
    /// One leg per worker, merged by an op-specific rule.
    Scatter,
    /// Sent to every worker; the acknowledgments must agree byte for
    /// byte.
    Broadcast,
}

/// The one field a request carries besides `op` and `shard`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Nothing.
    None,
    /// A string field of this name.
    Text(&'static str),
    /// A non-negative integer field of this name.
    Id(&'static str),
}

/// A request's variable parts, as the codec moves them between a
/// [`Request`] variant and its JSON fields.
#[derive(Clone, Copy, Default)]
struct Args<'a> {
    text: &'a str,
    id: u64,
    shard: Option<ShardSpec>,
}

/// One protocol op: everything the codec, the `stats` table, the
/// client's retry rule and the router's dispatch know about it.
pub struct OpSpec {
    /// The `op` string on the wire, and the `latency_<name>_*` stats key.
    pub name: &'static str,
    /// The payload field.
    pub payload: Payload,
    /// May the request carry a `shard: "i/n"` annotation?
    pub shard: bool,
    /// Can the request be re-sent after a connection failure without
    /// changing the outcome? (`analyze` writes the stats snapshot, but
    /// profiling is deterministic for a given graph, so running it
    /// twice writes the same bytes.)
    pub idempotent: bool,
    /// How the shard router serves it.
    pub route: Route,
    build: fn(&Args<'_>) -> Request,
}

/// Every protocol op, in the order the unknown-op diagnostic lists them
/// (which is also the order of [`crate::ServerStats::latency`]). Adding
/// an op is one row here, one [`Request`] variant pointed at it in
/// `Request::parts`, and one `Session::handle` arm.
#[rustfmt::skip]
pub const OPS: [OpSpec; 12] = {
    use Payload::{Id, Text};
    use Route::{Broadcast, Local, Proxy, Scatter};
    [
        OpSpec { name: "ping", payload: Payload::None, shard: false, idempotent: true, route: Local,
                 build: |_| Request::Ping },
        OpSpec { name: "define", payload: Text("pattern"), shard: false, idempotent: false, route: Broadcast,
                 build: |a| Request::Define { pattern: a.text.into() } },
        OpSpec { name: "query", payload: Text("sql"), shard: true, idempotent: true, route: Scatter,
                 build: |a| Request::Query { sql: a.text.into(), shard: a.shard } },
        OpSpec { name: "explain", payload: Text("sql"), shard: false, idempotent: true, route: Proxy,
                 build: |a| Request::Explain { sql: a.text.into() } },
        OpSpec { name: "analyze", payload: Payload::None, shard: false, idempotent: true, route: Broadcast,
                 build: |_| Request::Analyze },
        OpSpec { name: "update", payload: Text("mutations"), shard: false, idempotent: false, route: Broadcast,
                 build: |a| Request::Update { mutations: a.text.into() } },
        OpSpec { name: "subscribe", payload: Text("sql"), shard: true, idempotent: false, route: Scatter,
                 build: |a| Request::Subscribe { sql: a.text.into(), shard: a.shard } },
        OpSpec { name: "unsubscribe", payload: Id("id"), shard: false, idempotent: false, route: Local,
                 build: |a| Request::Unsubscribe { id: a.id } },
        OpSpec { name: "materialize", payload: Text("sql"), shard: true, idempotent: false, route: Broadcast,
                 build: |a| Request::Materialize { sql: a.text.into(), shard: a.shard } },
        OpSpec { name: "drop_view", payload: Text("sql"), shard: false, idempotent: false, route: Broadcast,
                 build: |a| Request::DropView { sql: a.text.into() } },
        OpSpec { name: "stats", payload: Payload::None, shard: false, idempotent: true, route: Scatter,
                 build: |_| Request::Stats },
        OpSpec { name: "shutdown", payload: Payload::None, shard: false, idempotent: false, route: Local,
                 build: |_| Request::Shutdown },
    ]
};

impl Request {
    /// This request's row index in [`OPS`] and its variable parts. The
    /// one exhaustive match over the variants: a new variant does not
    /// compile until it is pointed at its row.
    fn parts(&self) -> (usize, Args<'_>) {
        let text = |text| Args {
            text,
            ..Args::default()
        };
        let sharded = |text, shard: &Option<ShardSpec>| Args {
            text,
            shard: *shard,
            ..Args::default()
        };
        match self {
            Request::Ping => (0, Args::default()),
            Request::Define { pattern } => (1, text(pattern)),
            Request::Query { sql, shard } => (2, sharded(sql, shard)),
            Request::Explain { sql } => (3, text(sql)),
            Request::Analyze => (4, Args::default()),
            Request::Update { mutations } => (5, text(mutations)),
            Request::Subscribe { sql, shard } => (6, sharded(sql, shard)),
            Request::Unsubscribe { id } => (
                7,
                Args {
                    id: *id,
                    ..Args::default()
                },
            ),
            Request::Materialize { sql, shard } => (8, sharded(sql, shard)),
            Request::DropView { sql } => (9, text(sql)),
            Request::Stats => (10, Args::default()),
            Request::Shutdown => (11, Args::default()),
        }
    }

    /// This request's row index in [`OPS`].
    pub fn op_index(&self) -> usize {
        self.parts().0
    }

    /// This request's row of [`OPS`].
    pub fn op(&self) -> &'static OpSpec {
        &OPS[self.op_index()]
    }

    /// True when re-sending the request after a connection failure
    /// cannot change the outcome.
    pub fn is_idempotent(&self) -> bool {
        self.op().idempotent
    }

    /// The op a `query` request's statement has to itself, if it has
    /// one: `ANALYZE`, `MATERIALIZE ...` and `DROP VIEW ...` sent through
    /// `query` are served exactly as `analyze`, `materialize` and
    /// `drop_view` would be, by a direct server and by the router alike.
    pub fn dedicated(stmt: Statement<'_>, sql: &str, shard: Option<ShardSpec>) -> Option<Request> {
        match stmt {
            Statement::Analyze(args) if args.trim().is_empty() => Some(Request::Analyze),
            Statement::Materialize => Some(Request::Materialize {
                sql: sql.into(),
                shard,
            }),
            Statement::DropView => Some(Request::DropView { sql: sql.into() }),
            _ => None,
        }
    }

    /// Encode as a single-line JSON string (no trailing newline).
    pub fn encode(&self) -> String {
        let (index, args) = self.parts();
        let spec = &OPS[index];
        let mut fields = vec![("op".to_string(), Json::Str(spec.name.into()))];
        match spec.payload {
            Payload::None => {}
            Payload::Text(name) => fields.push((name.into(), Json::Str(args.text.into()))),
            Payload::Id(name) => fields.push((name.into(), Json::Int(args.id as i64))),
        }
        if let Some(s) = args.shard {
            fields.push(("shard".into(), Json::Str(s.to_string())));
        }
        Json::Obj(fields).render()
    }

    /// Decode one request line. Errors are human-readable protocol
    /// diagnostics destined for an error response.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request must be an object with a string `op` field")?;
        let spec = OPS.iter().find(|s| s.name == op).ok_or_else(|| {
            let names: Vec<&str> = OPS.iter().map(|s| s.name).collect();
            format!("unknown op `{op}` ({})", names.join(", "))
        })?;
        let mut args = Args::default();
        if let Some(j) = v.get("shard").filter(|_| spec.shard) {
            let text = j.as_str().ok_or("`shard` must be an `i/n` string")?;
            args.shard = Some(ShardSpec::parse(text)?);
        }
        match spec.payload {
            Payload::None => {}
            Payload::Text(name) => {
                args.text = v
                    .get(name)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("op `{op}` requires a string `{name}` field"))?;
            }
            Payload::Id(name) => {
                let id = v.get(name).and_then(Json::as_i64).filter(|&i| i >= 0);
                args.id = id.ok_or_else(|| {
                    format!("op `{op}` requires a non-negative integer `{name}` field")
                })? as u64;
            }
        }
        Ok((spec.build)(&args))
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A result table.
    Table(TableData),
    /// A pushed subscription frame (asynchronous; not the answer to any
    /// request). [`crate::Client::recv_response`] filters these into its
    /// notification buffer, so request/response pairing never sees them.
    Notify(NotifyFrame),
    /// A failure; the connection stays open.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One pushed subscription frame on the wire.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NotifyFrame {
    /// The subscription the frame belongs to (connection-scoped id).
    pub subscription: u64,
    /// Graph generation after the mutation batch that produced it.
    pub generation: u64,
    /// Aggregate column names of the subscribed statement.
    pub columns: Vec<String>,
    /// Changed rows `[focal, column, old, new]`, focal-ascending then
    /// column order. Empty rows = generation acknowledgment.
    pub rows: Vec<Vec<Value>>,
}

/// A result table on the wire: column names plus rows of values.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TableData {
    /// Column names.
    pub columns: Vec<String>,
    /// Row-major values.
    pub rows: Vec<Vec<Value>>,
}

impl TableData {
    /// Convert from an engine result table.
    pub fn from_table(t: &Table) -> TableData {
        TableData {
            columns: t.columns().to_vec(),
            rows: t.rows().to_vec(),
        }
    }

    /// Look up the value of a two-column key/value table (the `stats`
    /// response shape) as an integer.
    pub fn stat(&self, name: &str) -> Option<i64> {
        self.rows
            .iter()
            .find(|r| matches!(r.first(), Some(Value::Str(s)) if s == name))
            .and_then(|r| r.get(1))
            .and_then(Value::as_int)
    }
}

impl Response {
    /// A table response from an engine result.
    pub fn table(t: &Table) -> Response {
        Response::Table(TableData::from_table(t))
    }

    /// A one-cell table: the acknowledgment shape of `ping`, `define`,
    /// `unsubscribe` and `shutdown`.
    pub fn cell(column: &str, value: Value) -> Response {
        Response::Table(TableData {
            columns: vec![column.into()],
            rows: vec![vec![value]],
        })
    }

    /// A two-column `stat` / `value` table: the shape of `stats` and of
    /// the `update` and `subscribe` acknowledgments.
    pub fn key_values<K: Into<String>>(rows: impl IntoIterator<Item = (K, Value)>) -> Response {
        Response::Table(TableData {
            columns: vec!["stat".into(), "value".into()],
            rows: rows
                .into_iter()
                .map(|(k, v)| vec![Value::Str(k.into()), v])
                .collect(),
        })
    }

    /// An error response.
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
        }
    }

    /// True for `Error`.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// Encode as a single-line JSON string (no trailing newline).
    /// Deterministic: equal responses encode to identical bytes.
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("ok".to_string(), Json::Bool(!self.is_error())),
            ("type".to_string(), Json::Str(self.type_name().into())),
        ];
        match self {
            Response::Table(t) => fields.extend(grid_to_json(&t.columns, &t.rows)),
            Response::Notify(f) => {
                fields.push(("subscription".into(), Json::Int(f.subscription as i64)));
                fields.push(("generation".into(), Json::Int(f.generation as i64)));
                fields.extend(grid_to_json(&f.columns, &f.rows));
            }
            Response::Error { message } => {
                fields.push(("message".into(), Json::Str(message.clone())));
            }
        }
        Json::Obj(fields).render()
    }

    fn type_name(&self) -> &'static str {
        match self {
            Response::Table(_) => "table",
            Response::Notify(_) => "notify",
            Response::Error { .. } => "error",
        }
    }

    /// Decode one response line.
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        match v.get("type").and_then(Json::as_str) {
            Some("error") => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            }),
            Some("table") => {
                let (columns, rows) = grid_from_json(&v, "table response")?;
                Ok(Response::Table(TableData { columns, rows }))
            }
            Some("notify") => {
                let uint = |name: &str| -> Result<u64, String> {
                    v.get(name)
                        .and_then(Json::as_i64)
                        .filter(|&i| i >= 0)
                        .map(|i| i as u64)
                        .ok_or(format!("notify frame missing `{name}`"))
                };
                let (columns, rows) = grid_from_json(&v, "notify frame")?;
                Ok(Response::Notify(NotifyFrame {
                    subscription: uint("subscription")?,
                    generation: uint("generation")?,
                    columns,
                    rows,
                }))
            }
            _ => Err("response must have type `table`, `notify`, or `error`".into()),
        }
    }
}

/// The `columns` / `rows` fields tables and notify frames share.
fn grid_to_json(columns: &[String], rows: &[Vec<Value>]) -> [(String, Json); 2] {
    let columns = Json::Arr(columns.iter().cloned().map(Json::Str).collect());
    let rows = Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(value_to_json).collect()))
            .collect(),
    );
    [("columns".into(), columns), ("rows".into(), rows)]
}

/// Inverse of [`grid_to_json`]; `what` names the response kind in
/// diagnostics.
fn grid_from_json(v: &Json, what: &str) -> Result<(Vec<String>, Vec<Vec<Value>>), String> {
    let columns = v
        .get("columns")
        .and_then(Json::as_array)
        .ok_or(format!("{what} missing `columns`"))?
        .iter()
        .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
        .collect::<Result<Vec<_>, _>>()?;
    let rows = v
        .get("rows")
        .and_then(Json::as_array)
        .ok_or(format!("{what} missing `rows`"))?
        .iter()
        .map(|r| {
            r.as_array()
                .ok_or("non-array row")
                .map(|cells| cells.iter().map(json_to_value).collect::<Vec<_>>())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((columns, rows))
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Null => Json::Null,
    }
}

fn json_to_value(v: &Json) -> Value {
    match v {
        Json::Int(i) => Value::Int(*i),
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Bool(b) => Value::Bool(*b),
        Json::Null => Value::Null,
        // Nested structures never appear in table cells; render as text
        // rather than dropping data.
        other => Value::Str(other.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What each variant's [`OPS`] row must say, written out by hand:
    /// `(name, idempotent, route)`. Exhaustive, so a new variant does not
    /// compile here until its row is spelled out.
    fn expected_row(req: &Request) -> (&'static str, bool, Route) {
        match req {
            Request::Ping => ("ping", true, Route::Local),
            Request::Define { .. } => ("define", false, Route::Broadcast),
            Request::Query { .. } => ("query", true, Route::Scatter),
            Request::Explain { .. } => ("explain", true, Route::Proxy),
            Request::Analyze => ("analyze", true, Route::Broadcast),
            Request::Update { .. } => ("update", false, Route::Broadcast),
            Request::Subscribe { .. } => ("subscribe", false, Route::Scatter),
            Request::Unsubscribe { .. } => ("unsubscribe", false, Route::Local),
            // Re-sending could double-evict under budget pressure.
            Request::Materialize { .. } => ("materialize", false, Route::Broadcast),
            // The second send errors (`no materialized view`).
            Request::DropView { .. } => ("drop_view", false, Route::Broadcast),
            Request::Stats => ("stats", true, Route::Scatter),
            Request::Shutdown => ("shutdown", false, Route::Local),
        }
    }

    #[test]
    fn request_roundtrip_and_op_table() {
        let sql = || "SELECT ID FROM nodes".to_string();
        let mut seen = Vec::new();
        for (req, wire) in [
            (Request::Ping, r#"{"op":"ping"}"#),
            (
                Request::Define {
                    pattern: "PATTERN t { ?A-?B; }".into(),
                },
                r#"{"op":"define","pattern":"PATTERN t { ?A-?B; }"}"#,
            ),
            (
                Request::Query {
                    sql: sql(),
                    shard: None,
                },
                r#"{"op":"query","sql":"SELECT ID FROM nodes"}"#,
            ),
            (
                Request::Query {
                    sql: sql(),
                    shard: Some(ShardSpec::new(2, 4).unwrap()),
                },
                r#"{"op":"query","sql":"SELECT ID FROM nodes","shard":"2/4"}"#,
            ),
            (
                Request::Explain { sql: sql() },
                r#"{"op":"explain","sql":"SELECT ID FROM nodes"}"#,
            ),
            (Request::Analyze, r#"{"op":"analyze"}"#),
            (
                Request::Update {
                    mutations: "INSERT EDGE (4, 6); DELETE EDGE (0, 1)".into(),
                },
                r#"{"op":"update","mutations":"INSERT EDGE (4, 6); DELETE EDGE (0, 1)"}"#,
            ),
            (
                Request::Subscribe {
                    sql: "SUBSCRIBE SELECT ID FROM nodes".into(),
                    shard: None,
                },
                r#"{"op":"subscribe","sql":"SUBSCRIBE SELECT ID FROM nodes"}"#,
            ),
            (
                Request::Subscribe {
                    sql: sql(),
                    shard: Some(ShardSpec::new(1, 3).unwrap()),
                },
                r#"{"op":"subscribe","sql":"SELECT ID FROM nodes","shard":"1/3"}"#,
            ),
            (
                Request::Unsubscribe { id: 7 },
                r#"{"op":"unsubscribe","id":7}"#,
            ),
            (
                Request::Materialize {
                    sql: "MATERIALIZE t RADIUS 1 MATCHES".into(),
                    shard: None,
                },
                r#"{"op":"materialize","sql":"MATERIALIZE t RADIUS 1 MATCHES"}"#,
            ),
            (
                Request::Materialize {
                    sql: "MATERIALIZE t RADIUS 2".into(),
                    shard: Some(ShardSpec::new(0, 2).unwrap()),
                },
                r#"{"op":"materialize","sql":"MATERIALIZE t RADIUS 2","shard":"0/2"}"#,
            ),
            (
                Request::DropView {
                    sql: "DROP VIEW t RADIUS 1".into(),
                },
                r#"{"op":"drop_view","sql":"DROP VIEW t RADIUS 1"}"#,
            ),
            (Request::Stats, r#"{"op":"stats"}"#),
            (Request::Shutdown, r#"{"op":"shutdown"}"#),
        ] {
            assert_eq!(req.encode(), wire);
            assert_eq!(Request::decode(wire).unwrap(), req);
            let (name, idempotent, route) = expected_row(&req);
            let row = req.op();
            // `name` is also the `latency_<name>_*` key in `stats`.
            assert_eq!(row.name, name);
            assert_eq!(req.is_idempotent(), idempotent, "{name}");
            assert_eq!(row.route, route, "{name}");
            assert_eq!(OPS[req.op_index()].name, name);
            seen.push(name);
        }
        seen.dedup();
        let table: Vec<&str> = OPS.iter().map(|row| row.name).collect();
        assert_eq!(seen, table, "every row has a variant, in table order");
        assert_eq!(
            Request::decode(r#"{"op":"frobnicate"}"#).unwrap_err(),
            "unknown op `frobnicate` (ping, define, query, explain, analyze, update, \
             subscribe, unsubscribe, materialize, drop_view, stats, shutdown)"
        );
    }

    #[test]
    fn notify_frame_roundtrip() {
        let frame = NotifyFrame {
            subscription: 3,
            generation: 9,
            columns: vec!["COUNTP(t, SUBGRAPH(ID, 1))".into()],
            rows: vec![
                vec![
                    Value::Int(4),
                    Value::Str("COUNTP(t, SUBGRAPH(ID, 1))".into()),
                    Value::Int(0),
                    Value::Int(1),
                ],
                vec![
                    Value::Int(6),
                    Value::Str("COUNTP(t, SUBGRAPH(ID, 1))".into()),
                    Value::Int(2),
                    Value::Int(1),
                ],
            ],
        };
        let resp = Response::Notify(frame.clone());
        let line = resp.encode();
        assert!(line.starts_with(r#"{"ok":true,"type":"notify""#), "{line}");
        assert!(!resp.is_error());
        assert_eq!(Response::decode(&line).unwrap(), resp);
        // Empty-rows frames (generation acknowledgments) roundtrip too.
        let empty = Response::Notify(NotifyFrame {
            subscription: 1,
            generation: 2,
            columns: vec!["c".into()],
            rows: vec![],
        });
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn subscribe_decode_errors() {
        assert!(Request::decode(r#"{"op":"subscribe"}"#).is_err());
        assert!(Request::decode(r#"{"op":"subscribe","sql":"S","shard":"9/4"}"#).is_err());
        assert!(Request::decode(r#"{"op":"unsubscribe"}"#).is_err());
        assert!(Request::decode(r#"{"op":"unsubscribe","id":-1}"#).is_err());
        assert!(Request::decode(r#"{"op":"unsubscribe","id":"x"}"#).is_err());
    }

    #[test]
    fn request_decode_errors() {
        assert!(Request::decode("garbage").is_err());
        assert!(Request::decode("{}").is_err());
        assert!(Request::decode(r#"{"op":"frobnicate"}"#).is_err());
        assert!(Request::decode(r#"{"op":"query"}"#).is_err());
        assert!(Request::decode(r#"{"op":"define","pattern":7}"#).is_err());
        // Malformed shard specs are protocol errors, not silently whole-range.
        assert!(Request::decode(r#"{"op":"query","sql":"SELECT 1","shard":"4/4"}"#).is_err());
        assert!(Request::decode(r#"{"op":"query","sql":"SELECT 1","shard":7}"#).is_err());
        assert!(Request::decode(r#"{"op":"materialize"}"#).is_err());
        assert!(Request::decode(r#"{"op":"materialize","sql":"M","shard":"9/4"}"#).is_err());
        assert!(Request::decode(r#"{"op":"drop_view"}"#).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let mut t = Table::new(vec!["ID".into(), "count".into()]);
        t.push_row(vec![Value::Int(0), Value::Int(2)]);
        t.push_row(vec![Value::Int(1), Value::Null]);
        let resp = Response::table(&t);
        let line = resp.encode();
        assert!(line.starts_with(r#"{"ok":true,"type":"table""#), "{line}");
        assert_eq!(Response::decode(&line).unwrap(), resp);

        let err = Response::error("boom");
        assert!(err.is_error());
        assert_eq!(Response::decode(&err.encode()).unwrap(), err);
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut t = Table::new(vec!["x".into()]);
        t.push_row(vec![Value::Float(1.0)]);
        t.push_row(vec![Value::Str("a\"b".into())]);
        let a = Response::table(&t).encode();
        let b = Response::table(&t).encode();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_table_lookup() {
        let td = TableData {
            columns: vec!["stat".into(), "value".into()],
            rows: vec![
                vec![Value::Str("cache_hits".into()), Value::Int(3)],
                vec![Value::Str("cache_misses".into()), Value::Int(1)],
            ],
        };
        assert_eq!(td.stat("cache_hits"), Some(3));
        assert_eq!(td.stat("nope"), None);
    }
}
