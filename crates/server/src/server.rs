//! The TCP server: bounded thread-per-connection pool over `std::net`.
//!
//! The build environment is offline (no tokio), so concurrency is a
//! fixed worker pool fed by a bounded channel: the accept loop (non-
//! blocking, polling the shutdown flag) hands sockets to workers; when
//! every worker is busy and the channel is full, accepted sockets wait
//! in the OS backlog — natural backpressure. Each connection is read
//! with a short poll timeout so workers notice shutdown promptly, and a
//! request that stays half-received past the request timeout, or grows
//! past [`MAX_REQUEST_LINE_BYTES`] without a newline, is answered with
//! an `error` and dropped. A handler that panics costs its client the
//! connection (one `error` line, then close) and nothing else: the pool
//! thread takes the next socket. The loop is generic over a
//! [`LineHandler`], so the shard router serves its connections with this
//! same code.

use crate::protocol::Response;
use crate::session::{Session, Shared};
use ego_graph::Graph;
use ego_query::{Algorithm, Catalog, ShardSpec};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connection-handler threads (the concurrency bound).
    pub pool_threads: usize,
    /// Worker threads per census execution (`0` = all hardware threads).
    pub exec_threads: usize,
    /// Result-cache budget in bytes (`0` disables caching).
    pub cache_bytes: usize,
    /// How long a half-received request may dribble in before the
    /// connection is dropped.
    pub request_timeout: Duration,
    /// Write timeout per response.
    pub write_timeout: Duration,
    /// Accept/read poll tick; bounds shutdown latency.
    pub poll_interval: Duration,
    /// `RND()` seed shared by all sessions.
    pub seed: u64,
    /// Default focal shard for every query that does not carry its own
    /// (`--shard-of M/N`): this server answers only for the `M`-th of
    /// `N` contiguous node-ID ranges. `None` = whole range.
    pub shard: Option<ShardSpec>,
    /// Census algorithm for every session (results are bit-identical
    /// across algorithms wherever a spec is supported).
    pub algorithm: Algorithm,
    /// Where the `analyze` op persists its statistics snapshot (the
    /// graph's `.stats` sidecar when serving from a file). `None` keeps
    /// snapshots in memory only.
    pub stats_path: Option<std::path::PathBuf>,
    /// Where `materialize` persists the view registry (the graph's
    /// `.views` sidecar when serving from a file), re-adopted on the
    /// next startup so restarts are warm. `None` keeps views in memory
    /// only.
    pub views_path: Option<std::path::PathBuf>,
    /// Byte budget of the materialized-view tier (`0` admits nothing).
    /// Unlike the result cache's LRU, views are pinned: pressure evicts
    /// largest-first, and only to admit a new `materialize`.
    pub view_budget_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pool_threads: 4,
            exec_threads: 0,
            cache_bytes: 64 << 20,
            request_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(20),
            seed: 0xC0FFEE,
            shard: None,
            algorithm: Algorithm::Auto,
            stats_path: None,
            views_path: None,
            view_budget_bytes: ego_query::DEFAULT_VIEW_BUDGET,
        }
    }
}

/// Sets the shutdown flag from another thread (or from a `shutdown`
/// protocol request, which shares the same flag).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// A handle over the flag a line server polls.
    pub fn new(flag: Arc<AtomicBool>) -> ShutdownHandle {
        ShutdownHandle { flag }
    }

    /// Ask the server to stop: the accept loop exits, workers finish
    /// their current connections and drain.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

/// A census query server bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
    config: ServerConfig,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) over a graph
    /// loaded once and a base catalog every session shares.
    pub fn bind(
        addr: impl ToSocketAddrs,
        graph: Arc<Graph>,
        base_catalog: Arc<Catalog>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Shared::new(graph, base_catalog, &config);
        Ok(Server {
            listener,
            shared,
            config,
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle::new(self.shared.shutdown.clone())
    }

    /// The state shared across sessions (cache and counters), for
    /// inspection in tests and benchmarks.
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Serve until shutdown. Blocks the calling thread; returns after
    /// the accept loop has stopped and every worker has drained.
    pub fn run(self) -> std::io::Result<()> {
        let limits = LineLimits {
            pool_threads: self.config.pool_threads,
            request_timeout: self.config.request_timeout,
            write_timeout: self.config.write_timeout,
            poll_interval: self.config.poll_interval,
        };
        let shared = self.shared;
        let shutdown = shared.shutdown.clone();
        serve_lines(
            self.listener,
            shutdown,
            limits,
            "ego-server-worker",
            {
                let stats = shared.stats.clone();
                move || {
                    stats.panics.fetch_add(1, Ordering::Relaxed);
                }
            },
            move || {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                Session::new(&shared)
            },
        )
    }
}

/// Longest request line the line server buffers. A connection that
/// sends more without a newline gets one `error` response and is closed,
/// so an unterminated request cannot grow the buffer for the whole
/// request timeout. Large enough for a ~40 000-edge `update` script.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// The pool size and timeouts of [`serve_lines`].
#[derive(Clone, Copy, Debug)]
pub struct LineLimits {
    /// Connection-handler threads (the concurrency bound).
    pub pool_threads: usize,
    /// How long a half-received request may dribble in before the
    /// connection is dropped.
    pub request_timeout: Duration,
    /// Write timeout per response.
    pub write_timeout: Duration,
    /// Accept/read poll tick; bounds shutdown latency.
    pub poll_interval: Duration,
}

/// One connection's request handler behind the line server: a direct
/// server's [`Session`], or the shard router's session.
pub trait LineHandler {
    /// Answer one request line with one encoded response line.
    fn handle_line(&mut self, line: &str) -> String;

    /// Take the notify frames ready for this client, oldest first, as
    /// encoded lines. Frames produced by handling a request (an `update`
    /// on a connection that also subscribes) are written *before* its
    /// response: a client that sees generation `G` acknowledged has
    /// already seen every frame up to `G`.
    fn take_frames(&mut self) -> Vec<String>;

    /// Called on every idle poll tick, before [`LineHandler::take_frames`]:
    /// a chance to collect frames that arrive outside any request.
    fn idle_tick(&mut self) {}
}

/// The line-delimited front end shared by [`Server`] and the shard
/// router: a bounded thread-per-connection pool fed by a non-blocking
/// accept loop, each connection served by the handler `connect` builds
/// for it. Blocks until `shutdown` is set; returns after every worker
/// has drained.
///
/// A panic anywhere in a connection's handler is caught here: the
/// client gets one `error` line and the connection closes, `on_panic`
/// is called once (the caller's `panics` stat), and the pool thread
/// goes on to the next socket — so no request can shrink the pool.
pub fn serve_lines<H: LineHandler>(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    limits: LineLimits,
    thread_name: &str,
    on_panic: impl Fn() + Clone + Send + 'static,
    connect: impl Fn() -> H + Clone + Send + 'static,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let pool = limits.pool_threads.max(1);
    // Bounded handoff: at most `pool` connections queued beyond the
    // ones being served; the rest wait in the OS accept backlog.
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(pool);
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..pool)
        .map(|i| {
            let rx = rx.clone();
            let shutdown = shutdown.clone();
            let connect = connect.clone();
            let on_panic = on_panic.clone();
            std::thread::Builder::new()
                .name(format!("{thread_name}-{i}"))
                .spawn(move || loop {
                    // Take the next socket without holding the lock
                    // while serving it.
                    let mut stream = match rx.lock().unwrap().recv() {
                        Ok(s) => s,
                        Err(_) => return, // accept loop gone: drain out
                    };
                    // The handler is built and dropped inside the catch,
                    // so a panic in either is contained too.
                    let served = catch_unwind(AssertUnwindSafe(|| {
                        serve_connection(&mut stream, connect(), &shutdown, &limits)
                    }));
                    if served.is_err() {
                        on_panic();
                        let message = "internal error: the request handler panicked";
                        let _ = write_lines(&mut stream, &[Response::error(message).encode()]);
                    }
                })
                .expect("spawn worker thread")
        })
        .collect();

    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A send only fails if every worker thread is gone;
                // treat that as shutdown.
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(limits.poll_interval);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    drop(tx); // workers drain queued sockets, then exit
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Serve one connection: read request lines, answer each with one
/// response line, until EOF, error, timeout, or server shutdown.
fn serve_connection(
    stream: &mut TcpStream,
    mut handler: impl LineHandler,
    shutdown: &AtomicBool,
    limits: &LineLimits,
) {
    if stream.set_read_timeout(Some(limits.poll_interval)).is_err()
        || stream
            .set_write_timeout(Some(limits.write_timeout))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Set when `buf` holds a partial request; enforces request_timeout.
    let mut partial_since: Option<Instant> = None;

    loop {
        // Answer every complete line already buffered (clients may
        // pipeline several requests per packet).
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let response = handler.handle_line(line);
            let mut lines = handler.take_frames();
            lines.push(response);
            if write_lines(stream, &lines).is_err() {
                return;
            }
        }
        if buf.len() > MAX_REQUEST_LINE_BYTES {
            let message = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
            let _ = write_lines(stream, &[Response::error(message).encode()]);
            return;
        }
        partial_since = if buf.is_empty() {
            None
        } else {
            partial_since.or_else(|| Some(Instant::now()))
        };

        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle poll tick: push frames produced by *other*
                // connections' updates to this subscriber.
                handler.idle_tick();
                if write_lines(stream, &handler.take_frames()).is_err() {
                    return;
                }
                // An idle connection may wait forever; a half-received
                // request may not.
                if partial_since.is_some_and(|since| since.elapsed() >= limits.request_timeout) {
                    let _ = write_lines(stream, &[Response::error("request timed out").encode()]);
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn write_lines(stream: &mut TcpStream, lines: &[String]) -> std::io::Result<()> {
    for line in lines {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
    }
    Ok(())
}
