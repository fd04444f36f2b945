//! Bit-identity for the sharded census tier.
//!
//! Two layers of evidence:
//!
//! 1. **Engine-level** (no network): running a statement once per shard
//!    with [`QueryEngine::set_focal_shard`] and concatenating the
//!    per-shard tables in shard order must reproduce the unsharded
//!    table exactly — for uneven partitions, empty shards, shard
//!    boundaries splitting a label run, `RND()` sampling, and
//!    `COUNTSP`'s globally-computed match list. A proptest sweeps
//!    random graphs × worker counts.
//! 2. **Router loopback e2e**: a [`Router`] in front of 1/2/4
//!    in-process worker [`Server`]s must answer byte-identically to a
//!    single direct server for every census algorithm — including
//!    error responses where an algorithm rejects `COUNTSP` — and stay
//!    byte-identical after an `update` mutation, after a worker is
//!    killed mid-session and its shard re-scattered to a survivor, and
//!    after a worker dies halfway through writing a reply.

use egocensus::datagen::{assign_random_labels, barabasi_albert, rng};
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::query::{Catalog, QueryEngine, ShardSpec};
use egocensus::server::{Client, Server, ServerConfig, ShutdownHandle};
use egocensus::shard::{Router, RouterConfig, RouterShutdownHandle};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const SEED: u64 = 0xC0FFEE;

fn test_graph() -> Graph {
    let mut r = rng(99);
    let g = barabasi_albert(120, 3, &mut r);
    assign_random_labels(&g, 3, &mut r)
}

/// Statements covering every scatter-relevant shape: per-focal counts,
/// a `WHERE` with a label/ID predicate (shard boundaries land inside
/// label runs), `RND()` sampling (the stream must stay aligned with
/// unsharded execution), `COUNTSP` (global match list, per-focal
/// containment), and two statements the router must *proxy* whole
/// (`ORDER BY`/`LIMIT` and pairwise).
const QUERIES: [&str; 6] = [
    "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes",
    "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes \
     WHERE LABEL = 1 AND ID < 100",
    "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE RND() < 0.35",
    "SELECT ID, COUNTSP(coordinator, triad, SUBGRAPH(ID, 1)) FROM nodes",
    "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 2 DESC LIMIT 7",
    "SELECT n1.ID, n2.ID, COUNTP(clq3_unlb, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
     FROM nodes AS n1, nodes AS n2 WHERE n1.ID = 0 AND n2.ID = 3",
];

/// Indices of `QUERIES` that the router scatters (single-table, no
/// `ORDER BY`/`LIMIT`).
const SCATTERABLE: [usize; 4] = [0, 1, 2, 3];

// --- engine-level shard concatenation ---

fn run_sharded(g: &Graph, sql: &str, workers: u32) -> Vec<Vec<egocensus::query::Value>> {
    let mut rows = Vec::new();
    let mut engine = QueryEngine::with_builtins(g);
    engine.set_threads(1);
    engine.set_seed(SEED);
    for j in 0..workers {
        engine.set_focal_shard(Some(ShardSpec::new(j, workers).unwrap()));
        let t = engine.execute(sql).expect("sharded execution");
        rows.extend(t.rows().to_vec());
    }
    rows
}

fn run_whole(g: &Graph, sql: &str) -> Vec<Vec<egocensus::query::Value>> {
    let mut engine = QueryEngine::with_builtins(g);
    engine.set_threads(1);
    engine.set_seed(SEED);
    engine
        .execute(sql)
        .expect("whole execution")
        .rows()
        .to_vec()
}

#[test]
fn shard_concatenation_reproduces_whole_run_for_uneven_partitions() {
    let g = test_graph();
    // 7 and 13 do not divide 120, so shard boundaries fall mid-range
    // (and mid-label-run); 120 shards makes every shard 1 node.
    for workers in [1u32, 2, 3, 7, 13, 120] {
        for sql in &QUERIES[..4] {
            assert_eq!(
                run_sharded(&g, sql, workers),
                run_whole(&g, sql),
                "workers={workers} sql={sql}"
            );
        }
    }
}

#[test]
fn more_shards_than_nodes_yields_empty_tail_shards() {
    let mut b = GraphBuilder::undirected();
    b.add_nodes(5, Label(0));
    for (x, y) in [(0u32, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
        b.add_edge(NodeId(x), NodeId(y));
    }
    let g = b.build();
    let sql = "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes";
    // 8 shards over 5 nodes: at least 3 shards are empty, and the
    // concatenation must still be exact.
    let whole = run_whole(&g, sql);
    assert_eq!(whole.len(), 5);
    assert_eq!(run_sharded(&g, sql, 8), whole);
    // An individual tail shard really is empty.
    let mut engine = QueryEngine::with_builtins(&g);
    engine.set_focal_shard(Some(ShardSpec::new(0, 8).unwrap()));
    assert_eq!(
        engine.execute(sql).unwrap().num_rows(),
        0,
        "5*1/8 = 0 nodes"
    );
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::undirected();
        for _ in 0..n {
            b.add_node(Label((next() % 3) as u16));
        }
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if next() % 4 == 0 {
                    b.add_edge(NodeId(i), NodeId(j));
                }
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant at the engine layer: for any graph and
    /// any worker count, per-shard execution concatenated in shard
    /// order is bit-identical to unsharded execution — including under
    /// `RND()` sampling, whose stream is drawn before the shard filter.
    #[test]
    fn sharded_execution_is_bit_identical(
        g in arb_graph(),
        workers in 1u32..9,
        query_index in 0usize..4,
    ) {
        let sql = QUERIES[query_index];
        prop_assert_eq!(
            run_sharded(&g, sql, workers),
            run_whole(&g, sql),
            "workers={} sql={}", workers, sql
        );
    }
}

// --- router loopback e2e ---

struct TestFleet {
    router_addr: SocketAddr,
    worker_handles: Vec<ShutdownHandle>,
    router_handle: RouterShutdownHandle,
    threads: Vec<JoinHandle<()>>,
}

fn server_config(algorithm: &str) -> ServerConfig {
    ServerConfig {
        pool_threads: 2,
        exec_threads: 1,
        seed: SEED,
        algorithm: parse_algo(algorithm),
        ..ServerConfig::default()
    }
}

fn parse_algo(name: &str) -> egocensus::census::Algorithm {
    use egocensus::census::Algorithm::*;
    match name {
        "auto" => Auto,
        "nd-bas" => NdBaseline,
        "nd-pivot" => NdPivot,
        "nd-diff" => NdDiff,
        "pt-bas" => PtBaseline,
        "pt-rnd" => PtRandom,
        "pt-opt" => PtOpt,
        other => panic!("unknown algorithm {other}"),
    }
}

/// Spawn `workers` in-process servers over fresh copies of the test
/// graph plus a router in front of them, all on ephemeral ports.
fn spawn_fleet(workers: usize, algorithm: &str) -> TestFleet {
    spawn_fleet_over(test_graph, workers, algorithm)
}

/// [`spawn_fleet`] over the graph `graph` builds.
fn spawn_fleet_over(graph: fn() -> Graph, workers: usize, algorithm: &str) -> TestFleet {
    spawn_fleet_fronted(graph, workers, algorithm, |addr| addr)
}

/// [`spawn_fleet_over`], with the router reaching worker 0 at the
/// address `front` returns for it (a stand-in in front of the worker).
fn spawn_fleet_fronted(
    graph: fn() -> Graph,
    workers: usize,
    algorithm: &str,
    front: fn(SocketAddr) -> SocketAddr,
) -> TestFleet {
    let mut worker_addrs = Vec::new();
    let mut worker_handles = Vec::new();
    let mut threads = Vec::new();
    for _ in 0..workers {
        let server = Server::bind(
            ("127.0.0.1", 0),
            Arc::new(graph()),
            Arc::new(Catalog::with_builtins()),
            server_config(algorithm),
        )
        .expect("bind worker");
        let addr = server.local_addr().expect("worker addr");
        worker_addrs.push(if worker_addrs.is_empty() {
            front(addr)
        } else {
            addr
        });
        worker_handles.push(server.shutdown_handle());
        threads.push(std::thread::spawn(move || {
            server.run().expect("worker run")
        }));
    }
    let config = RouterConfig {
        worker_timeout: Duration::from_secs(30),
        ..RouterConfig::default()
    };
    let router = Router::bind(("127.0.0.1", 0), &worker_addrs, config).expect("bind router");
    let router_addr = router.local_addr().expect("router addr");
    let router_handle = router.shutdown_handle();
    threads.push(std::thread::spawn(move || {
        router.run().expect("router run")
    }));
    TestFleet {
        router_addr,
        worker_handles,
        router_handle,
        threads,
    }
}

impl TestFleet {
    fn stop(self) {
        self.router_handle.shutdown();
        for h in &self.worker_handles {
            h.shutdown();
        }
        for t in self.threads {
            t.join().expect("fleet thread");
        }
    }
}

/// The reference: one direct server over the same graph and config,
/// asked the same raw lines.
fn direct_responses(algorithm: &str, lines: &[String]) -> Vec<String> {
    direct_responses_over(test_graph, algorithm, lines)
}

/// [`direct_responses`] over the graph `graph` builds.
fn direct_responses_over(graph: fn() -> Graph, algorithm: &str, lines: &[String]) -> Vec<String> {
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(graph()),
        Arc::new(Catalog::with_builtins()),
        server_config(algorithm),
    )
    .expect("bind direct");
    let addr = server.local_addr().expect("direct addr");
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("direct run"));
    let mut client = Client::connect(addr).expect("connect direct");
    let out = lines
        .iter()
        .map(|l| client.send_raw(l).expect("direct response"))
        .collect();
    handle.shutdown();
    thread.join().expect("direct thread");
    out
}

fn raw_query(sql: &str) -> String {
    format!(
        r#"{{"op":"query","sql":"{}"}}"#,
        sql.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

const ALGORITHMS: [&str; 7] = [
    "auto", "nd-bas", "nd-pivot", "nd-diff", "pt-bas", "pt-rnd", "pt-opt",
];

/// Statements that are not a SELECT, sent through the `query` op: the
/// three with an op of their own must behave as that op on both sides
/// (fleet-wide through the router), and the two a `query` cannot serve
/// must be rejected with the same bytes. The last line puts multi-byte
/// text where the keyword is expected.
const NON_SELECT: [&str; 6] = [
    "ANALYZE",
    "MATERIALIZE clq3_unlb RADIUS 1",
    "DROP VIEW clq3_unlb RADIUS 1",
    "INSERT EDGE (0, 57)",
    "SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes",
    "ééééSELECT ID FROM nodes",
];

#[test]
fn router_is_byte_identical_to_direct_server_across_workers_and_algorithms() {
    // nd-bas and nd-diff reject COUNTSP: those responses are errors,
    // and the error bytes must match too.
    let lines: Vec<String> = QUERIES
        .iter()
        .chain(&NON_SELECT)
        .map(|sql| raw_query(sql))
        .collect();
    for algorithm in ALGORITHMS {
        let expected = direct_responses(algorithm, &lines);
        for workers in [1usize, 2, 4] {
            let fleet = spawn_fleet(workers, algorithm);
            let mut client = Client::connect(fleet.router_addr).expect("connect router");
            for (line, want) in lines.iter().zip(&expected) {
                let got = client.send_raw(line).expect("router response");
                assert_eq!(
                    &got, want,
                    "algorithm={algorithm} workers={workers} line={line}"
                );
            }
            // No line wedged the pool: a fresh connection is served.
            let mut fresh = Client::connect(fleet.router_addr).expect("reconnect router");
            assert_eq!(
                fresh.send_raw(&lines[0]).expect("fresh response"),
                expected[0]
            );
            fleet.stop();
        }
    }
}

/// The test graph's shape with a Str attribute `s` on most nodes whose
/// text needs escaping on the wire: quotes, backslashes, control
/// characters, multi-byte text and the splice delimiter `,"rows":[`.
fn attr_graph() -> Graph {
    const TEXT: [&str; 6] = [
        "plain",
        "say \"hi\"",
        "C:\\dir\\",
        "é😀\u{1}\n",
        r#"],"rows":[[""#,
        r#","rows":["#,
    ];
    let g = test_graph();
    let mut b = GraphBuilder::undirected();
    for v in 0..g.num_nodes() as u32 {
        b.add_node(g.label(NodeId(v)));
        if v % 7 != 3 {
            b.set_node_attr(NodeId(v), "s", TEXT[v as usize % TEXT.len()]);
        }
    }
    for v in 0..g.num_nodes() as u32 {
        for &w in g.neighbors(NodeId(v)) {
            if v < w.0 {
                b.add_edge(NodeId(v), w);
            }
        }
    }
    b.build()
}

/// Worker replies are spliced as bytes, not decoded: a scattered
/// statement whose cells are strings with quotes, backslashes and
/// multi-byte text is byte-identical to a direct server at 1, 2 and 4
/// workers, and so is the same statement proxied (`ORDER BY`).
#[test]
fn string_cells_splice_byte_identically() {
    let lines: Vec<String> = [
        "SELECT ID, s, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes",
        "SELECT ID, s FROM nodes WHERE ID > 50",
        "SELECT ID, s, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 3 DESC, 1 LIMIT 9",
    ]
    .iter()
    .map(|sql| raw_query(sql))
    .collect();
    let expected = direct_responses_over(attr_graph, "auto", &lines);
    assert!(expected[0].contains("é😀") && expected[0].contains(r#"say \"hi\""#));
    for workers in [1usize, 2, 4] {
        let fleet = spawn_fleet_over(attr_graph, workers, "auto");
        let mut client = Client::connect(fleet.router_addr).expect("connect router");
        for (line, want) in lines.iter().zip(&expected) {
            let got = client.send_raw(line).expect("router response");
            assert_eq!(&got, want, "workers={workers} line={line}");
        }
        if workers > 1 {
            let stats = client.stats().expect("router stats");
            assert_eq!(stats.stat("router_scattered_queries"), Some(2));
        }
        fleet.stop();
    }
}

#[test]
fn oversize_request_line_gets_one_error_and_the_connection_closes() {
    use egocensus::server::MAX_REQUEST_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};
    let fleet = spawn_fleet(1, "auto");
    let direct = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(test_graph()),
        Arc::new(Catalog::with_builtins()),
        server_config("auto"),
    )
    .expect("bind direct");
    let direct_addr = direct.local_addr().expect("direct addr");
    let direct_handle = direct.shutdown_handle();
    let direct_thread = std::thread::spawn(move || direct.run().expect("direct run"));

    for addr in [direct_addr, fleet.router_addr] {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        // One unterminated line, one byte past the cap: the server has
        // read every byte when it gives up, so the close is clean and
        // the error line is not lost to a reset.
        stream
            .write_all(&vec![b'x'; MAX_REQUEST_LINE_BYTES + 1])
            .expect("send oversize line");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("error response");
        assert!(
            line.starts_with(r#"{"ok":false,"type":"error""#) && line.contains("exceeds"),
            "{addr}: {line}"
        );
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap_or(0),
            0,
            "closed: {line}"
        );
        // The next connection is served normally.
        let mut client = Client::connect(addr).expect("connect after oversize line");
        assert!(!client.ping().expect("ping").is_error());
    }

    direct_handle.shutdown();
    direct_thread.join().expect("direct thread");
    fleet.stop();
}

#[test]
fn router_responses_stay_identical_after_update_mutation() {
    let mutations = "INSERT EDGE (0, 57); INSERT EDGE (3, 99); DELETE EDGE (0, 1)";
    let mut lines: Vec<String> = SCATTERABLE.iter().map(|&i| raw_query(QUERIES[i])).collect();
    lines.push(format!(r#"{{"op":"update","mutations":"{mutations}"}}"#));
    for &i in &SCATTERABLE {
        lines.push(raw_query(QUERIES[i])); // re-ask on the mutated graph
    }
    let expected = direct_responses("auto", &lines);
    let fleet = spawn_fleet(2, "auto");
    let mut client = Client::connect(fleet.router_addr).expect("connect router");
    for (line, want) in lines.iter().zip(&expected) {
        let got = client.send_raw(line).expect("router response");
        assert_eq!(&got, want, "line={line}");
    }
    fleet.stop();
}

#[test]
fn session_defines_broadcast_to_all_workers() {
    let dsl = "PATTERN wedge { ?A-?B; ?B-?C; }";
    let sql = "SELECT ID, COUNTP(wedge, SUBGRAPH(ID, 1)) FROM nodes";
    let lines = vec![
        format!(r#"{{"op":"define","pattern":"{dsl}"}}"#),
        raw_query(sql),
    ];
    let expected = direct_responses("auto", &lines);
    let fleet = spawn_fleet(3, "auto");
    let mut client = Client::connect(fleet.router_addr).expect("connect router");
    for (line, want) in lines.iter().zip(&expected) {
        assert_eq!(&client.send_raw(line).expect("response"), want, "{line}");
    }
    // A second router session must NOT see the first session's pattern,
    // exactly like a second direct connection would not.
    let mut other = Client::connect(fleet.router_addr).expect("second connect");
    let resp = other.query(sql).expect("query undefined pattern");
    assert!(resp.is_error(), "defines must stay session-local");
    fleet.stop();
}

#[test]
fn killed_worker_has_its_shard_rescattered_to_a_survivor() {
    let sql = QUERIES[0];
    let expected = direct_responses("auto", &[raw_query(sql)]).remove(0);
    let fleet = spawn_fleet(2, "auto");
    let mut client = Client::connect(fleet.router_addr).expect("connect router");

    // Warm: both workers answer their shard.
    assert_eq!(client.send_raw(&raw_query(sql)).expect("warm"), expected);

    // Kill worker 0. The router session holds an open connection to it;
    // the next scatter hits a dead socket mid-gather and must re-send
    // shard 0/2 to the survivor, still producing identical bytes.
    fleet.worker_handles[0].shutdown();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        client.send_raw(&raw_query(sql)).expect("after kill"),
        expected,
        "query after worker kill must be byte-identical"
    );

    let stats = client.stats().expect("router stats");
    assert_eq!(stats.stat("router_workers_total"), Some(2));
    assert_eq!(stats.stat("router_workers_up"), Some(1));
    assert!(
        stats.stat("router_worker_failures").unwrap_or(0) >= 1,
        "failure must be counted"
    );
    assert!(
        stats.stat("router_rescattered_shards").unwrap_or(0) >= 1,
        "re-scatter must be counted"
    );

    // New sessions keep working against the surviving worker.
    let mut fresh = Client::connect(fleet.router_addr).expect("fresh connect");
    assert_eq!(fresh.send_raw(&raw_query(sql)).expect("fresh"), expected);
    fleet.stop();
}

/// A stand-in for a worker that relays each request line to the real
/// worker at `backend`, but answers its first `query` with half the
/// reply line and then closes the connection, as a worker dying while
/// writing a reply would. It accepts no connection after that.
fn cutting_relay(backend: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind relay");
    let addr = listener.local_addr().expect("relay addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let mut stream = stream.expect("accept");
            let mut worker = Client::connect(backend).expect("connect backend");
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let reply = worker.send_raw(&line).expect("backend reply");
                if line.contains(r#""op":"query""#) {
                    let _ = stream.write_all(&reply.as_bytes()[..reply.len() / 2]);
                    return;
                }
                if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

/// A worker that dies halfway through writing its reply fails over
/// like one that is already dead: the cut-off line is not passed on,
/// the shard (or the proxied statement) is re-sent to the survivor, and
/// the reply is byte-identical to a direct server's.
#[test]
fn a_worker_dying_mid_reply_fails_over_byte_identically() {
    // QUERIES[0] is scattered, QUERIES[4] (`ORDER BY … LIMIT`) proxied;
    // the proxy's round-robin starts at worker 0, the cutting one.
    for sql in [QUERIES[0], QUERIES[4]] {
        let line = raw_query(sql);
        let expected = direct_responses("auto", std::slice::from_ref(&line)).remove(0);
        assert!(expected.len() > 100, "{expected}");
        let fleet = spawn_fleet_fronted(test_graph, 2, "auto", cutting_relay);
        let mut client = Client::connect(fleet.router_addr).expect("connect router");
        assert_eq!(
            client.send_raw(&line).expect("router reply"),
            expected,
            "{sql}"
        );
        assert_eq!(client.send_raw(&line).expect("again"), expected, "{sql}");
        let stats = client.stats().expect("router stats");
        assert_eq!(stats.stat("router_workers_up"), Some(1), "{sql}");
        assert_eq!(stats.stat("router_worker_failures"), Some(1), "{sql}");
        fleet.stop();
    }
}

#[test]
fn router_stats_aggregate_worker_counters_and_latency() {
    let fleet = spawn_fleet(2, "auto");
    let mut client = Client::connect(fleet.router_addr).expect("connect router");
    let _ = client.send_raw(&raw_query(QUERIES[0])).expect("query");
    let stats = client.stats().expect("stats");
    // Two workers each executed one shard of the query.
    assert_eq!(stats.stat("latency_query_count"), Some(2));
    assert_eq!(stats.stat("queries_executed"), Some(2));
    assert_eq!(stats.stat("router_scattered_queries"), Some(1));
    let min = stats.stat("latency_query_min_us").expect("min row");
    let mean = stats.stat("latency_query_mean_us").expect("mean row");
    let max = stats.stat("latency_query_max_us").expect("max row");
    assert!(
        min <= mean && mean <= max,
        "min {min} mean {mean} max {max}"
    );
    fleet.stop();
}

/// Materialized views through the router: worker `j` pins shard `j/n`
/// of the view, a scattered query's shard `j/n` then probes it, and
/// every response — materialize ack, view-served rows, post-update
/// rows (refreshed in place), drop ack, and the census rows after the
/// drop — must be byte-identical to a single direct server's.
#[test]
fn materialized_views_through_the_router_match_a_direct_server() {
    let sql = QUERIES[0];
    let lines = vec![
        r#"{"op":"materialize","sql":"MATERIALIZE clq3_unlb RADIUS 1 MATCHES"}"#.to_string(),
        raw_query(sql),
        r#"{"op":"update","mutations":"INSERT EDGE (5, 60)"}"#.to_string(),
        raw_query(sql),
        r#"{"op":"drop_view","sql":"DROP VIEW clq3_unlb RADIUS 1"}"#.to_string(),
        raw_query(sql),
        // A second drop errors; the error bytes must match too.
        r#"{"op":"drop_view","sql":"DROP VIEW clq3_unlb RADIUS 1"}"#.to_string(),
    ];
    let expected = direct_responses("auto", &lines);
    for workers in [1usize, 2, 4] {
        let fleet = spawn_fleet(workers, "auto");
        let mut client = Client::connect(fleet.router_addr).expect("connect router");
        for (line, want) in lines.iter().zip(&expected) {
            let got = client.send_raw(line).expect("router response");
            assert_eq!(&got, want, "workers={workers} line={line}");
        }
        // Every worker pinned, probed, refreshed, and dropped its shard
        // of the view; the merged stats sum the fleet's counters.
        let stats = client.stats().expect("router stats");
        let w = workers as i64;
        assert_eq!(stats.stat("view_entries"), Some(0), "workers={workers}");
        assert_eq!(
            stats.stat("view_materializations"),
            Some(w),
            "workers={workers}"
        );
        assert_eq!(stats.stat("view_drops"), Some(w), "workers={workers}");
        assert_eq!(stats.stat("view_refreshes"), Some(w), "workers={workers}");
        assert!(
            stats.stat("view_hits").unwrap_or(0) >= w,
            "workers={workers}: each shard probe must hit its worker's view"
        );
        assert_eq!(
            stats.stat("view_refresh_errors"),
            Some(0),
            "workers={workers}"
        );
        fleet.stop();
    }
}

// --- continuous subscriptions through the router ---

const SUB_SQL: &str = "SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes";
const UPDATES: [&str; 3] = [
    "INSERT EDGE (0, 57); INSERT EDGE (3, 99); DELETE EDGE (0, 1)",
    "INSERT EDGE (5, 60)",
    "INSERT EDGE (7, 80); DELETE EDGE (5, 60)",
];

fn table(resp: egocensus::server::Response) -> egocensus::server::TableData {
    match resp {
        egocensus::server::Response::Table(t) => t,
        other => panic!("expected a table, got {other:?}"),
    }
}

/// Subscribe + mutate on one direct server; returns the ack table and
/// the frame pushed for each update script.
fn direct_subscription_frames(
    updates: &[&str],
) -> (
    egocensus::server::TableData,
    Vec<egocensus::server::NotifyFrame>,
) {
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(test_graph()),
        Arc::new(Catalog::with_builtins()),
        server_config("auto"),
    )
    .expect("bind direct");
    let addr = server.local_addr().expect("direct addr");
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("direct run"));
    let mut client = Client::connect(addr).expect("connect direct");
    let ack = table(client.subscribe(SUB_SQL).expect("subscribe"));
    let mut frames = Vec::new();
    for script in updates {
        table(client.update(script).expect("update"));
        let mut f = client.drain_notifications();
        assert_eq!(f.len(), 1, "one frame per update");
        frames.push(f.remove(0));
    }
    handle.shutdown();
    thread.join().expect("direct thread");
    (ack, frames)
}

/// The router's merged subscription frames — legs concatenated in shard
/// order — must be byte-identical to a single direct server's, ack
/// included, and unsubscribing must stop the pushes.
#[test]
fn subscription_frames_through_the_router_match_a_direct_server() {
    let (want_ack, want_frames) = direct_subscription_frames(&UPDATES);
    for workers in [1usize, 2, 4] {
        let fleet = spawn_fleet(workers, "auto");
        let mut client = Client::connect(fleet.router_addr).expect("connect router");
        let ack = table(client.subscribe(SUB_SQL).expect("subscribe"));
        assert_eq!(ack, want_ack, "workers={workers}");
        let id = ack.stat("subscription").expect("sub id") as u64;
        for (script, want) in UPDATES.iter().zip(&want_frames) {
            table(client.update(script).expect("update"));
            let mut frames = client.drain_notifications();
            assert_eq!(frames.len(), 1, "workers={workers} script={script}");
            assert_eq!(&frames.remove(0), want, "workers={workers} script={script}");
        }
        table(client.unsubscribe(id).expect("unsubscribe"));
        table(
            client
                .update("INSERT EDGE (9, 70)")
                .expect("post-unsubscribe update"),
        );
        assert!(
            client.drain_notifications().is_empty(),
            "no frames after unsubscribe"
        );
        fleet.stop();
    }
}

/// Killing a worker that carries subscription legs must not lose the
/// subscription: the router re-homes the dead shard onto a survivor and
/// keeps pushing frames identical to a direct server's.
#[test]
fn subscriber_survives_a_worker_killed_mid_push() {
    let (_, want_frames) = direct_subscription_frames(&UPDATES);
    let fleet = spawn_fleet(2, "auto");
    let mut client = Client::connect(fleet.router_addr).expect("connect router");
    table(client.subscribe(SUB_SQL).expect("subscribe"));
    table(client.update(UPDATES[0]).expect("update 1"));
    let mut frames = client.drain_notifications();
    assert_eq!(frames.len(), 1);
    assert_eq!(&frames.remove(0), &want_frames[0]);

    // Kill worker 0 mid-subscription. The router notices on its next
    // touch of the dead connection (idle poll or update broadcast),
    // re-subscribes shard 0/2 on the survivor, and emits a coalesced
    // catch-up frame covering whatever the client has not seen — here
    // nothing has changed since generation 1, so any catch-up frame is
    // an empty re-acknowledgment.
    fleet.worker_handles[0].shutdown();
    std::thread::sleep(Duration::from_millis(400));
    while let Some(f) = client
        .poll_notification(Duration::from_millis(100))
        .expect("poll catch-up")
    {
        assert!(
            f.rows.is_empty() && f.generation <= 1,
            "catch-up must not invent rows: {f:?}"
        );
    }

    // Updates keep flowing, frames stay byte-identical to direct.
    for (script, want) in UPDATES[1..].iter().zip(&want_frames[1..]) {
        table(client.update(script).expect("update after kill"));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = client.drain_notifications();
        while got.is_empty() && std::time::Instant::now() < deadline {
            if let Some(f) = client
                .poll_notification(Duration::from_millis(50))
                .expect("poll")
            {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 1, "script={script}");
        assert_eq!(&got.remove(0), want, "script={script}");
    }

    let stats = client.stats().expect("router stats");
    assert!(
        stats.stat("router_legs_recovered").unwrap_or(0) >= 1,
        "recovery must be counted"
    );
    assert_eq!(stats.stat("router_subscriptions_created"), Some(1));
    fleet.stop();
}
