//! End-to-end loopback tests for the `ego-server` network front end:
//! an in-process [`Server`] on an ephemeral port, exercised by real TCP
//! clients, checked against direct [`QueryEngine`] execution.

use egocensus::census::pairwise::{brute_force_pair, PairKind};
use egocensus::census::Algorithm;
use egocensus::datagen::{assign_random_labels, barabasi_albert, rng};
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use egocensus::query::{Catalog, QueryEngine, ShardSpec, Value, ViewRegistry, DEFAULT_VIEW_BUDGET};
use egocensus::server::{
    serve_lines, Client, LineHandler, LineLimits, NotifyFrame, Request, Response, Server,
    ServerConfig, ShutdownHandle, TableData,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

#[path = "../crates/server/tests/oracle/mod.rs"]
mod oracle;

const SEED: u64 = 0xC0FFEE;

fn test_graph() -> Graph {
    let mut r = rng(99);
    let g = barabasi_albert(250, 3, &mut r);
    assign_random_labels(&g, 3, &mut r)
}

/// Spawn a server over a fresh copy of the test graph; returns the
/// address, a shutdown handle, and the serving thread to join.
fn spawn_server(config: ServerConfig) -> (SocketAddr, ShutdownHandle, JoinHandle<()>) {
    spawn_server_on(test_graph(), config)
}

/// [`spawn_server`] over `graph`.
fn spawn_server_on(
    graph: Graph,
    config: ServerConfig,
) -> (SocketAddr, ShutdownHandle, JoinHandle<()>) {
    let graph = Arc::new(graph);
    let server = Server::bind(
        ("127.0.0.1", 0),
        graph,
        Arc::new(Catalog::with_builtins()),
        config,
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

fn config() -> ServerConfig {
    ServerConfig {
        pool_threads: 4,
        exec_threads: 1,
        seed: SEED,
        ..ServerConfig::default()
    }
}

/// Run `sql` directly against the same graph the server loaded.
fn direct(sql: &str) -> TableData {
    let g = test_graph();
    let mut engine = QueryEngine::with_builtins(&g);
    engine.set_threads(1);
    engine.set_seed(SEED);
    TableData::from_table(&engine.execute(sql).expect("direct execution"))
}

fn expect_table(resp: Response) -> TableData {
    match resp {
        Response::Table(t) => t,
        Response::Error { message } => panic!("unexpected error response: {message}"),
        Response::Notify(f) => panic!("unexpected notify frame: {f:?}"),
    }
}

const QUERIES: [&str; 4] = [
    "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes",
    "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 2 DESC LIMIT 10",
    "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 50",
    "SELECT n1.ID, n2.ID, COUNTP(clq3_unlb, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
     FROM nodes AS n1, nodes AS n2 WHERE n1.ID = 0 AND n2.ID = 3",
];

#[test]
fn concurrent_clients_match_direct_execution() {
    let (addr, handle, thread) = spawn_server(config());

    // Four clients issue different queries concurrently; each result
    // must equal the direct single-threaded QueryEngine result.
    let workers: Vec<_> = QUERIES
        .iter()
        .map(|&sql| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let served = expect_table(client.query(sql).expect("query"));
                (sql, served)
            })
        })
        .collect();
    for w in workers {
        let (sql, served) = w.join().expect("client thread");
        assert_eq!(served, direct(sql), "server disagrees with direct: {sql}");
    }

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn repeat_query_is_served_from_cache_byte_identically() {
    let (addr, handle, thread) = spawn_server(config());
    let mut client = Client::connect(addr).expect("connect");

    let sql = QUERIES[1];
    let raw = format!(
        r#"{{"op":"query","sql":"{}"}}"#,
        sql.replace('\\', "\\\\").replace('"', "\\\"")
    );
    let cold = client.send_raw(&raw).expect("cold query");
    let stats_after_cold = client.stats().expect("stats");
    assert_eq!(stats_after_cold.stat("cache_hits"), Some(0));
    assert_eq!(stats_after_cold.stat("cache_misses"), Some(1));
    assert_eq!(stats_after_cold.stat("queries_executed"), Some(1));

    // Same statement again — and once more from a *different* connection
    // with a different spelling: both must come back byte-identical
    // without executing any traversal work.
    let warm = client.send_raw(&raw).expect("warm query");
    assert_eq!(cold, warm, "cache hit must be byte-identical");

    let respelled = sql.replace("SELECT", "select ").replace("FROM", "from");
    let mut other = Client::connect(addr).expect("second connect");
    let warm2 = other.send_raw(&format!(
        r#"{{"op":"query","sql":"{}"}}"#,
        respelled.replace('"', "\\\"")
    ));
    assert_eq!(cold, warm2.expect("respelled query"));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.stat("cache_hits"), Some(2));
    assert_eq!(stats.stat("cache_misses"), Some(1));
    assert_eq!(
        stats.stat("queries_executed"),
        Some(1),
        "cache hits must not re-execute the census"
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn concurrent_repeats_after_warm_all_hit_the_cache() {
    let (addr, handle, thread) = spawn_server(config());
    let sql = QUERIES[0];

    // Warm sequentially so the concurrent round is deterministic.
    let mut warmup = Client::connect(addr).expect("connect");
    let expected = expect_table(warmup.query(sql).expect("warm query"));

    let n = 6;
    let workers: Vec<_> = (0..n)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                expect_table(client.query(sql).expect("query"))
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().expect("client thread"), expected);
    }

    let stats = warmup.stats().expect("stats");
    assert_eq!(stats.stat("cache_hits"), Some(n as i64));
    assert_eq!(stats.stat("cache_misses"), Some(1));
    assert_eq!(stats.stat("queries_executed"), Some(1));

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn malformed_requests_get_errors_without_killing_the_connection() {
    let (addr, handle, thread) = spawn_server(config());
    let mut client = Client::connect(addr).expect("connect");

    for bad in [
        "this is not json",
        r#"{"op":"frobnicate"}"#,
        r#"{"sql":"SELECT ID FROM nodes"}"#,
        r#"{"op":"query"}"#,
        r#"{"op":"query","sql":"SELECT FROM WHERE"}"#,
        r#"{"op":"define","pattern":"PATTERN broken {"}"#,
        // Multi-byte text where a keyword is expected: the statement
        // classifier must never slice inside a character.
        r#"{"op":"query","sql":"ééééSELECT ID FROM nodes"}"#,
        r#"{"op":"query","sql":"EXPLAIé SELECT ID FROM nodes"}"#,
    ] {
        match client.request_raw_as_response(bad) {
            Response::Error { .. } => {}
            Response::Table(_) => panic!("expected an error for: {bad}"),
            Response::Notify(_) => unreachable!("request() filters notify frames"),
        }
    }

    // The connection survived all of it.
    let pong = expect_table(client.ping().expect("ping after errors"));
    assert_eq!(pong.columns, vec!["reply".to_string()]);
    // ...and so did the pool: a fresh connection is served normally.
    let mut fresh = Client::connect(addr).expect("connect after errors");
    let got = expect_table(fresh.query(QUERIES[2]).expect("query after errors"));
    assert_eq!(got, direct(QUERIES[2]));

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn session_defines_are_isolated_and_duplicates_rejected() {
    let (addr, handle, thread) = spawn_server(config());

    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");

    let dsl = "PATTERN mine { ?A-?B; ?B-?C; }";
    expect_table(a.define(dsl).expect("define"));

    // Redefining in the same session is an error...
    match a.define(dsl).expect("duplicate define") {
        Response::Error { message } => {
            assert!(
                message.contains("already defined"),
                "unexpected message: {message}"
            );
        }
        Response::Table(_) => panic!("duplicate define must be rejected"),
        Response::Notify(_) => unreachable!("request() filters notify frames"),
    }
    // ...as is shadowing a shared builtin...
    match a.define("PATTERN clq3_unlb { ?A-?B; }").expect("shadow") {
        Response::Error { message } => assert!(message.contains("already defined")),
        Response::Table(_) => panic!("shadowing a builtin must be rejected"),
        Response::Notify(_) => unreachable!("request() filters notify frames"),
    }
    // ...but session B never saw A's pattern.
    match b
        .query("SELECT ID, COUNTP(mine, SUBGRAPH(ID, 1)) FROM nodes LIMIT 1")
        .expect("query undefined")
    {
        Response::Error { .. } => {}
        Response::Table(_) => panic!("B must not see A's session patterns"),
        Response::Notify(_) => unreachable!("request() filters notify frames"),
    }
    expect_table(b.define(dsl).expect("define in b"));

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn shutdown_request_over_the_wire_stops_the_server() {
    let (addr, _handle, thread) = spawn_server(config());
    let mut client = Client::connect(addr).expect("connect");
    expect_table(client.shutdown().expect("shutdown request"));
    thread
        .join()
        .expect("server thread joins after wire shutdown");
}

/// A radius no distance in the graph can reach is the whole-component
/// query, on the pattern-driven path too: PMD rows are `u16`, and a
/// radius of 65 535 or more used to trip an assert inside the request
/// thread (contained, but it cost the client its connection).
#[test]
fn radius_past_u16_is_answered_on_the_pattern_driven_path() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        algorithm: Algorithm::PtOpt,
        ..config()
    });
    let mut client = Client::connect(addr).expect("connect");
    let rows = |client: &mut Client, k: u32| {
        let sql = format!("SELECT ID, COUNTP(clq3, SUBGRAPH(ID, {k})) FROM nodes");
        expect_table(client.query(&sql).expect("query")).rows
    };
    let huge = rows(&mut client, 70_000);
    assert!(huge.iter().any(|r| r[1] != Value::Int(0)), "no matches");
    assert_eq!(huge, rows(&mut client, 9_999));
    assert_eq!(client.stats().expect("stats").stat("panics"), Some(0));

    handle.shutdown();
    thread.join().expect("server thread");
}

/// A 33-node path, the 33-anchor pattern that is the whole path, and a
/// pairwise query over it: the first two nodes' radius-40 balls hold it.
fn path33_pairwise() -> (Graph, String, &'static str) {
    let mut b = GraphBuilder::undirected();
    b.add_nodes(33, Label(0));
    for i in 0..32 {
        b.add_edge(NodeId(i), NodeId(i + 1));
    }
    let edges: String = (0..32).map(|i| format!("?V{i}-?V{}; ", i + 1)).collect();
    let sql = "SELECT a.ID, b.ID, COUNTP(p33, SUBGRAPH-INTERSECTION(a.ID, b.ID, 40)) \
               FROM nodes a, nodes b WHERE a.ID = 0 AND b.ID = 1";
    (b.build(), format!("PATTERN p33 {{ {edges}}}"), sql)
}

/// The pattern-driven pairwise census has no anchor cap: forced onto it,
/// a 33-anchor pattern gets the oracle's row, and nothing panics.
#[test]
fn pairwise_query_past_32_anchors_is_answered_under_pt_opt() {
    let (g, define, sql) = path33_pairwise();
    let p33 = Pattern::parse(&define).expect("pattern");
    let want = brute_force_pair(&g, &p33, 40, PairKind::Intersection, NodeId(0), NodeId(1));
    assert_eq!(want, 1);
    let (addr, handle, thread) = spawn_server_on(
        g,
        ServerConfig {
            algorithm: Algorithm::PtOpt,
            ..config()
        },
    );
    let mut client = Client::connect(addr).expect("connect");
    expect_table(client.define(&define).expect("define"));
    let got = expect_table(client.query(sql).expect("query"));
    assert_eq!(
        got.rows,
        vec![vec![Value::Int(0), Value::Int(1), Value::Int(want as i64)]]
    );
    assert_eq!(client.stats().expect("stats").stat("panics"), Some(0));

    handle.shutdown();
    thread.join().expect("server thread");
}

/// Under the default `Auto` the same query gets the same row.
#[test]
fn pairwise_query_past_32_anchors_is_answered_under_auto() {
    let (g, define, sql) = path33_pairwise();
    let p33 = Pattern::parse(&define).expect("pattern");
    let want = brute_force_pair(&g, &p33, 40, PairKind::Intersection, NodeId(0), NodeId(1));
    assert_eq!(want, 1);
    let (addr, handle, thread) = spawn_server_on(g, config());
    let mut client = Client::connect(addr).expect("connect");
    expect_table(client.define(&define).expect("define"));
    let got = expect_table(client.query(sql).expect("query"));
    assert_eq!(
        got.rows,
        vec![vec![Value::Int(0), Value::Int(1), Value::Int(want as i64)]]
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

/// `Auto` never picks a kernel that then refuses the spec: on a
/// 70 000-node path the planner prices PT-BAS cheapest for four focal
/// nodes, but PMD rows cannot hold radius 70 000, so the refusal rule
/// leaves the statement to ND-PVOT.
#[test]
fn auto_never_picks_a_kernel_that_refuses_the_radius() {
    let mut b = GraphBuilder::undirected();
    b.add_nodes(70_000, Label(0));
    for i in 0..69_999 {
        b.add_edge(NodeId(i), NodeId(i + 1));
    }
    b.add_edge(NodeId(0), NodeId(2));
    let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 70000)) FROM nodes WHERE ID < 4";
    let rows = |algorithm: Algorithm| {
        let (addr, handle, thread) = spawn_server_on(
            b.clone().build(),
            ServerConfig {
                algorithm,
                ..config()
            },
        );
        let mut client = Client::connect(addr).expect("connect");
        expect_table(
            client
                .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
                .expect("define"),
        );
        let rows = expect_table(client.query(sql).expect("query")).rows;
        handle.shutdown();
        thread.join().expect("server thread");
        rows
    };
    let want: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Int(i), Value::Int(1)]).collect();
    assert_eq!(rows(Algorithm::NdPivot), want);
    assert_eq!(rows(Algorithm::Auto), want);
}

/// `MATERIALIZE` runs its census the way a `SELECT` does: the match list
/// and the center index it builds serve the next cold pattern-driven
/// statement over the same pattern.
#[test]
fn materialize_feeds_the_census_cache_like_a_select() {
    // A 300-node path with 50 disjoint triangles closed along it: few
    // matches next to the focal sets below, so the planner goes
    // pattern-driven.
    let mut b = GraphBuilder::undirected();
    b.add_nodes(300, Label(0));
    for i in 0..299 {
        b.add_edge(NodeId(i), NodeId(i + 1));
    }
    for i in 0..50 {
        b.add_edge(NodeId(3 * i), NodeId(3 * i + 2));
    }
    let g = b.build();
    let mut engine = QueryEngine::with_builtins(&g);
    engine.set_threads(1);
    let (addr, handle, thread) = spawn_server_on(g.clone(), config());
    let mut client = Client::connect(addr).expect("connect");
    let algo = |client: &mut Client, sql: &str| {
        let plan = expect_table(client.explain(sql).expect("explain"));
        let census = plan
            .rows
            .iter()
            .find(|r| r[0].to_string().trim_start() == "census")
            .expect("census row")[1]
            .to_string();
        census.split_whitespace().next().expect("algo").to_string()
    };
    // The statement MATERIALIZE plans as is pattern-driven; so is a cold
    // one no view can serve (a new radius over a new focal set).
    let whole = "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes";
    let cold = "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)) FROM nodes WHERE ID >= 100";
    assert_eq!(algo(&mut client, whole), "algo=PtOpt");
    let ack = client
        .materialize("MATERIALIZE clq3_unlb RADIUS 1 MATCHES")
        .expect("materialize");
    assert!(!ack.is_error(), "{ack:?}");
    assert_eq!(algo(&mut client, cold), "algo=PtOpt");
    let counters = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        [
            "census_match_hits",
            "census_center_hits",
            "census_center_misses",
        ]
        .map(|name| stats.stat(name).expect(name))
    };
    let [match_hits, center_hits, center_misses] = counters(&mut client);
    assert_eq!(
        expect_table(client.query(cold).expect("cold query")),
        TableData::from_table(&engine.execute(cold).expect("direct execution"))
    );
    assert_eq!(
        counters(&mut client),
        [match_hits + 1, center_hits + 1, center_misses]
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

/// The center index is a property of the graph: N cold pattern-driven
/// queries build it once, and only an update makes the next one rebuild.
#[test]
fn center_index_is_built_once_per_graph_generation() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        algorithm: Algorithm::PtOpt,
        ..config()
    });
    let mut client = Client::connect(addr).expect("connect");
    // A new focal set per statement: no result-cache or count-vector hit
    // stands between the statement and the traversal.
    let cold_query = |client: &mut Client| {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let lo = NEXT.fetch_add(1, Ordering::Relaxed);
        let sql =
            format!("SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE ID >= {lo}");
        assert_eq!(
            expect_table(client.query(&sql).expect("query")),
            direct(&sql)
        );
    };
    let centers = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        (
            stats.stat("census_center_misses"),
            stats.stat("census_center_hits"),
        )
    };
    for _ in 0..4 {
        cold_query(&mut client);
    }
    assert_eq!(centers(&mut client), (Some(1), Some(3)));

    let verb = match test_graph().has_undirected_edge(NodeId(3), NodeId(200)) {
        true => "DELETE",
        false => "INSERT",
    };
    let ack = client
        .update(&format!("{verb} EDGE (3, 200)"))
        .expect("update");
    assert!(!ack.is_error(), "{ack:?}");
    let sql = "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 100";
    expect_table(client.query(sql).expect("query after update"));
    expect_table(
        client
            .query(&sql.replace("100", "101"))
            .expect("second query after update"),
    );
    assert_eq!(centers(&mut client), (Some(2), Some(4)));

    handle.shutdown();
    thread.join().expect("server thread");
}

/// A handler panic costs its client the connection and nothing else:
/// with a pool of one thread, the next connection is still served.
#[test]
fn panicking_handler_does_not_cost_a_pool_thread() {
    struct Echo;
    impl LineHandler for Echo {
        fn handle_line(&mut self, line: &str) -> String {
            assert_ne!(line, "boom", "marker line");
            format!("echo {line}")
        }
        fn take_frames(&mut self) -> Vec<String> {
            Vec::new()
        }
    }
    fn round_trip(addr: SocketAddr, line: &str) -> (String, usize) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        writeln!(stream, "{line}").expect("send");
        let mut reader = BufReader::new(stream);
        let (mut reply, mut rest) = (String::new(), String::new());
        reader.read_line(&mut reply).expect("reply");
        // Bytes after the reply: 0 = the server closed the connection.
        let after = reader.read_line(&mut rest).unwrap_or(usize::MAX);
        (reply.trim().to_string(), after)
    }

    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let panics = Arc::new(AtomicU64::new(0));
    let limits = LineLimits {
        pool_threads: 1,
        request_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        poll_interval: Duration::from_millis(5),
    };
    let server = {
        let (shutdown, panics) = (shutdown.clone(), panics.clone());
        std::thread::spawn(move || {
            let on_panic = move || {
                panics.fetch_add(1, Ordering::Relaxed);
            };
            serve_lines(listener, shutdown, limits, "echo", on_panic, || Echo)
        })
    };

    let (reply, after) = round_trip(addr, "boom");
    let reply = Response::decode(&reply).expect("an encoded response");
    assert!(reply.is_error(), "{reply:?}");
    assert_eq!(after, 0, "the connection closes after the error line");
    assert_eq!(panics.load(Ordering::Relaxed), 1);

    // The only pool thread survived: a second connection is answered,
    // and a third panic is counted too.
    let mut stream = TcpStream::connect(addr).expect("connect again");
    writeln!(stream, "hello").expect("send");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("reply");
    assert_eq!(reply.trim(), "echo hello");
    drop(stream);
    assert!(round_trip(addr, "boom").0.contains("panicked"));
    assert_eq!(panics.load(Ordering::Relaxed), 2);

    shutdown.store(true, Ordering::SeqCst);
    server.join().expect("join").expect("serve_lines");
}

trait RawResponse {
    fn request_raw_as_response(&mut self, line: &str) -> Response;
}

impl RawResponse for Client {
    fn request_raw_as_response(&mut self, line: &str) -> Response {
        let raw = self.send_raw(line).expect("raw round-trip");
        Response::decode(&raw).expect("decodable response")
    }
}

// --- continuous subscriptions over the wire ---

const SUB_SQL: &str = "SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes";
const COUNT_SQL: &str = "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes";

/// `(focal, column, old, new)` rows expected from two count tables.
fn expect_rows(before: &TableData, after: &TableData, column: &str) -> Vec<Vec<Value>> {
    use std::collections::BTreeMap;
    let to_map = |t: &TableData| -> BTreeMap<i64, i64> {
        t.rows
            .iter()
            .map(|r| {
                let id = r[0].as_int().expect("focal id");
                let count = r[1].as_int().expect("count");
                (id, count)
            })
            .collect()
    };
    let (b, a) = (to_map(before), to_map(after));
    b.iter()
        .filter(|(id, old)| a[id] != **old)
        .map(|(id, old)| {
            vec![
                Value::Int(*id),
                Value::Str(column.to_string()),
                Value::Int(*old),
                Value::Int(a[id]),
            ]
        })
        .collect()
}

/// A subscriber whose connection drops can reconnect, re-subscribe, and
/// keep receiving correct deltas: the new baseline is the current graph,
/// so pushed `old` values are exactly what a fresh query just returned.
#[test]
fn subscriber_survives_reconnect_with_fresh_baseline() {
    let (addr, handle, thread) = spawn_server(config());

    // First incarnation: subscribe, mutate, receive the delta frame.
    let mut a = Client::connect(addr).expect("connect a");
    let q0 = expect_table(a.query(COUNT_SQL).expect("query before"));
    let ack = expect_table(a.subscribe(SUB_SQL).expect("subscribe"));
    assert_eq!(ack.stat("generation"), Some(0));
    expect_table(
        a.update("INSERT EDGE (0, 57); DELETE EDGE (0, 1)")
            .expect("update 1"),
    );
    let q1 = expect_table(a.query(COUNT_SQL).expect("query after 1"));
    let frames = a.drain_notifications();
    assert_eq!(frames.len(), 1, "one frame per update");
    assert_eq!(frames[0].generation, 1);
    let column = frames[0].columns[0].clone();
    assert_eq!(frames[0].rows, expect_rows(&q0, &q1, &column));

    // Drop the connection: the server-side session unsubscribes on its
    // way out, so the next update evaluates nothing for it.
    drop(a);

    // Second incarnation: re-subscribe at the current generation and
    // receive deltas relative to the *current* graph, not the original.
    let mut b = Client::connect(addr).expect("connect b");
    let ack2 = expect_table(b.subscribe(SUB_SQL).expect("re-subscribe"));
    assert_eq!(ack2.stat("generation"), Some(1));
    expect_table(b.update("INSERT EDGE (3, 99)").expect("update 2"));
    let q2 = expect_table(b.query(COUNT_SQL).expect("query after 2"));
    let frames = b.drain_notifications();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].generation, 2);
    assert_eq!(frames[0].rows, expect_rows(&q1, &q2, &column));

    // The dropped subscription really is gone: one live, two created.
    let stats = b.stats().expect("stats");
    assert_eq!(stats.stat("continuous_subscriptions"), Some(1));
    assert_eq!(stats.stat("continuous_created"), Some(2));

    handle.shutdown();
    thread.join().expect("server thread");
}

// --- hostile bytes at two boundaries ---

/// Valid inputs to damage: a small graph's `.views` sidecar (a `MATCHES`
/// view and a `SUBPATTERN` view, so every line kind appears), its node
/// count, one encoded request line per payload shape, and one encoded
/// response line per response kind.
fn byte_corpus() -> (String, usize, Vec<String>, Vec<String>) {
    let g = barabasi_albert(24, 3, &mut rng(5));
    let mut engine = QueryEngine::with_builtins(&g);
    engine.set_threads(1);
    engine.set_views(Arc::new(ViewRegistry::new(DEFAULT_VIEW_BUDGET)));
    for m in [
        "MATERIALIZE clq3_unlb RADIUS 1 MATCHES",
        "MATERIALIZE triad RADIUS 1 SUBPATTERN coordinator",
    ] {
        engine.execute(m).expect("materialize");
    }
    let sidecar = engine.views().expect("views").to_sidecar(g.fingerprint());
    assert!(ViewRegistry::parse_sidecar(&sidecar, g.num_nodes()).is_ok());
    let requests: Vec<String> = [
        Request::Ping,
        Request::Define {
            pattern: "PATTERN é { ?A-?B; }".into(),
        },
        Request::Query {
            sql: COUNT_SQL.into(),
            shard: Some(ShardSpec::parse("1/3").expect("shard")),
        },
        Request::Update {
            mutations: "INSERT EDGE (0, 57); DELETE EDGE (0, 1)".into(),
        },
        Request::Unsubscribe { id: 7 },
    ]
    .iter()
    .map(Request::encode)
    .collect();
    assert!(requests.iter().all(|r| Request::decode(r).is_ok()));
    let census = engine
        .execute("SELECT ID, LABEL, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 6")
        .expect("census");
    let responses: Vec<String> = [
        Response::from(census),
        Response::Table(TableData {
            columns: vec!["s\"é\\".into(), "f".into()],
            rows: vec![
                vec![Value::Str("😀\n\u{1}".into()), Value::Float(-0.5)],
                vec![Value::Bool(true), Value::Float(1e300)],
                vec![Value::Null, Value::Int(i64::MIN)],
            ],
        }),
        Response::Notify(NotifyFrame {
            subscription: 4294967296,
            generation: 3,
            columns: vec!["c".into()],
            rows: vec![vec![
                Value::Int(2),
                Value::Str("c".into()),
                Value::Int(0),
                Value::Int(1),
            ]],
        }),
        Response::error("unknown pattern `é`"),
    ]
    .iter()
    .map(|r| {
        let line = r.encode();
        assert_eq!(line, oracle::encode(r));
        line
    })
    .collect();
    assert!(responses.iter().all(|r| Response::decode(r).is_ok()));
    (sidecar, g.num_nodes(), requests, responses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6000))]

    /// ROADMAP 6a, three of the six byte boundaries: whatever a
    /// truncate, a byte flip, a boundary number or a splice does to a
    /// valid `.views` sidecar, request line or response line, the parser
    /// returns — `Ok` or `Err`, never a panic and never an allocation
    /// sized by the damaged text. A response line is read exactly as the
    /// tree codec reads it: the same response or the same diagnostic.
    #[test]
    fn damaged_sidecars_and_request_lines_return_without_panicking(
        which in any::<usize>(),
        edit in 0u8..4,
        at in any::<usize>(),
        from in any::<usize>(),
        len in 0usize..48,
        byte in any::<u8>(),
    ) {
        type Corpus = (String, usize, Vec<String>, Vec<String>);
        static CORPUS: OnceLock<Corpus> = OnceLock::new();
        let (sidecar, num_nodes, requests, responses) = CORPUS.get_or_init(byte_corpus);
        // A third of the cases each damage the sidecar, a request line
        // and a response line.
        let (kind, pick) = (which % 3, which / 3);
        let mut bytes = match kind {
            0 => sidecar,
            1 => &requests[pick % requests.len()],
            _ => &responses[pick % responses.len()],
        }
        .clone()
        .into_bytes();
        let at = at % bytes.len();
        match edit {
            0 => bytes.truncate(at),
            1 => bytes[at] = byte,
            2 => {
                // Swap the number at or after this position for one that
                // sits on an integer boundary.
                const HOSTILE: [&str; 5] =
                    ["0", "4294967295", "4294967296", "18446744073709551615", "-1"];
                if let Some(start) = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) {
                    let end = (start..bytes.len())
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(bytes.len());
                    bytes.splice(start..end, HOSTILE[byte as usize % HOSTILE.len()].bytes());
                }
            }
            _ => {
                // Splice a run from elsewhere in the same text (digits,
                // keywords, quotes) over this position.
                let from = from % bytes.len();
                let run = bytes[from..(from + len).min(bytes.len())].to_vec();
                bytes.splice(at..(at + run.len() / 2).min(bytes.len()), run);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        match kind {
            0 => {
                let _ = ViewRegistry::parse_sidecar(&text, *num_nodes);
            }
            1 => {
                let _ = Request::decode(&text);
            }
            _ => prop_assert_eq!(Response::decode(&text), oracle::decode(&text), "{}", text),
        }
    }
}

/// String decoding is linear: a request line just under the server's
/// cap decodes well inside a second even unoptimized (it once took 18 s
/// optimized, re-validating the rest of the line at every character).
#[test]
fn a_request_line_at_the_cap_decodes_in_linear_time() {
    use egocensus::server::MAX_REQUEST_LINE_BYTES;
    let query = |sql: String| Request::Query { sql, shard: None };
    let target = MAX_REQUEST_LINE_BYTES - 64;
    // Multi-byte text next to a quote and a backslash, each written as
    // a two-byte escape.
    let unit = "é \"😀\\ ";
    let room = target - query(String::new()).encode().len();
    let units = room / (unit.len() + 2);
    let sql = unit.repeat(units) + &"x".repeat(room - units * (unit.len() + 2));
    let request = query(sql);
    let line = request.encode();
    assert_eq!(line.len(), target);
    let start = std::time::Instant::now();
    let decoded = Request::decode(&line).expect("decode");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "decode took {took:?}");
    assert_eq!(decoded, request);
}
