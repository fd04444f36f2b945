//! The system under test: a real `ego-server` (or a `Router` over two
//! in-process workers) on loopback, brought to the workload's warm state.
//!
//! One [`Fleet::start`] is one set-up as a user pays it: open the `.egb`
//! file, bind, and send the workload's warm-up requests. `setup_s` times
//! exactly that call.

use crate::deck::Deck;
use crate::spec::{Workload, EXEC_THREADS, ROUTER_WORKERS};
use ego_graph::Graph;
use ego_query::Catalog;
use ego_server::{Client, Request, Response, Server, ServerConfig, Shared, ShutdownHandle};
use ego_shard::{Router, RouterConfig, RouterShared, RouterShutdownHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A running server (or router fleet) plus what is needed to stop it.
pub struct Fleet {
    /// Where clients connect: the server, or the router in front.
    pub addr: SocketAddr,
    /// The worker servers' own addresses (one entry without a router).
    pub worker_addrs: Vec<SocketAddr>,
    /// Shared state of each server, for counters the `stats` op lacks.
    pub shared: Vec<Shared>,
    /// The router's shared state, for in-process `RouterSession`s.
    pub router: Option<Arc<RouterShared>>,
    /// The graph as opened from the `.egb` file.
    pub graph: Arc<Graph>,
    /// The connection that holds the workload's subscription and sends
    /// its updates; kept so pushed frames have somewhere to go.
    pub writer: Option<Client>,
    /// Seconds spent in `open_binary`.
    pub open_secs: f64,
    server_handles: Vec<ShutdownHandle>,
    router_handle: Option<RouterShutdownHandle>,
    threads: Vec<JoinHandle<()>>,
}

/// Fail loudly on anything but a table: set-up has no failure budget.
pub fn expect_table(resp: std::io::Result<Response>, what: &str) -> ego_server::TableData {
    match resp {
        Ok(Response::Table(t)) => t,
        Ok(Response::Error { message }) => panic!("{what}: server error: {message}"),
        Ok(Response::Notify(_)) => unreachable!("request() filters notify frames"),
        Err(e) => panic!("{what}: {e}"),
    }
}

/// The `ServerConfig` every benchmark server runs with: the defaults a
/// user gets, except the pool sized so each benchmark connection has its
/// thread (the server is thread-per-connection) and [`EXEC_THREADS`].
pub fn server_config(connections: usize) -> ServerConfig {
    ServerConfig {
        pool_threads: connections,
        exec_threads: EXEC_THREADS,
        ..ServerConfig::default()
    }
}

impl Fleet {
    /// Open the graph, start the server(s), and warm them. `connections`
    /// is how many client connections will be open at once at most.
    pub fn start(workload: Workload, egb: &Path, deck: &Deck, connections: usize) -> Fleet {
        let opened = Instant::now();
        let graph = Arc::new(ego_graph::store::open_binary(egb).expect("open .egb"));
        let open_secs = opened.elapsed().as_secs_f64();
        let mut fleet = Fleet::serve(workload, graph, connections);
        fleet.open_secs = open_secs;
        fleet.warm(deck);
        fleet
    }

    /// Start the server(s) over an already opened graph, cold.
    fn serve(workload: Workload, graph: Arc<Graph>, connections: usize) -> Fleet {
        let routed = workload == Workload::RouterScatter;
        let workers = if routed { ROUTER_WORKERS } else { 1 };
        let mut fleet = Fleet {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            worker_addrs: Vec::new(),
            shared: Vec::new(),
            router: None,
            graph: graph.clone(),
            writer: None,
            open_secs: 0.0,
            server_handles: Vec::new(),
            router_handle: None,
            threads: Vec::new(),
        };
        for _ in 0..workers {
            // Behind a router every router session holds one connection
            // per worker, plus the direct legs the traced run opens.
            let server = Server::bind(
                ("127.0.0.1", 0),
                graph.clone(),
                Arc::new(Catalog::with_builtins()),
                server_config(connections),
            )
            .expect("bind server");
            fleet
                .worker_addrs
                .push(server.local_addr().expect("server addr"));
            fleet.server_handles.push(server.shutdown_handle());
            fleet.shared.push(server.shared().clone());
            fleet.threads.push(std::thread::spawn(move || {
                server.run().expect("server run")
            }));
        }
        fleet.addr = fleet.worker_addrs[0];
        if routed {
            let router = Router::bind(
                ("127.0.0.1", 0),
                &fleet.worker_addrs,
                RouterConfig {
                    pool_threads: connections,
                    ..RouterConfig::default()
                },
            )
            .expect("bind router");
            fleet.addr = router.local_addr().expect("router addr");
            fleet.router_handle = Some(router.shutdown_handle());
            fleet.router = Some(router.shared().clone());
            fleet.threads.push(std::thread::spawn(move || {
                router.run().expect("router run")
            }));
        }
        fleet
    }

    fn warm(&mut self, deck: &Deck) {
        let mut client = Client::connect(self.addr).expect("connect for warm-up");
        let mut keep = false;
        for req in deck.warmup() {
            keep |= matches!(req, Request::Subscribe { .. });
            expect_table(client.request(&req), "warm-up");
        }
        client.drain_notifications();
        if keep {
            self.writer = Some(client);
        }
    }

    /// The `stats` table of the server (summed over workers by the
    /// router's merge when there is one).
    pub fn stats(&self) -> ego_server::TableData {
        let mut client = Client::connect(self.addr).expect("connect for stats");
        client.stats().expect("stats")
    }

    /// Stop every server and wait for its threads.
    pub fn stop(mut self) {
        // Connections first: a worker thread only returns to its pool
        // (and sees the shutdown flag promptly) once its peer is gone.
        self.writer = None;
        if let Some(h) = &self.router_handle {
            h.shutdown();
        }
        for h in &self.server_handles {
            h.shutdown();
        }
        for t in self.threads.drain(..) {
            t.join().expect("fleet thread");
        }
    }
}
