//! A small blocking client for the line-delimited JSON protocol.
//!
//! One request in, one response out, in order, over one TCP connection.
//! Used by the `egocensus client` subcommand, the loopback tests, the
//! serve benchmark, and the shard router's per-worker connections.
//!
//! Transient failures (a worker restarting, a connection reset) are
//! absorbed by bounded retry with exponential backoff: connects retry
//! unconditionally, and requests whose [`crate::protocol::OPS`] row is
//! marked *idempotent* are re-sent over a fresh connection when the old
//! one breaks. The rest are never silently re-sent — the caller must
//! decide whether the side effect happened. Timeouts are not retried
//! either: a slow server is not a dead one, and re-sending over the same
//! stream would desync the request/response pairing.

use crate::protocol::{NotifyFrame, Request, Response, TableData};
use ego_query::ShardSpec;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default bound on the client-side notification buffer. When a burst of
/// pushed frames outruns the application's draining, the *oldest* frames
/// are dropped (and counted) — the newest frame per subscription carries
/// the freshest counts, so dropping from the front loses the least.
const NOTIFY_BUFFER_FRAMES: usize = 256;

/// Bounded retry with exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries (1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// The sleep before retry number `retry` (1-based): backoff × 2^(retry-1).
    fn delay(&self, retry: u32) -> Duration {
        self.backoff * 2u32.saturating_pow(retry.saturating_sub(1))
    }
}

/// True for errors that mean the connection is gone (retryable over a
/// fresh one), as opposed to a protocol error or a timeout.
fn is_connection_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
            | ErrorKind::NotConnected
    )
}

/// A blocking protocol client.
///
/// Subscription notify frames may arrive interleaved with responses on
/// the same connection; every receive path filters them into a bounded
/// buffer ([`Client::drain_notifications`]) so request/response pairing
/// never observes them.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Peer address, for reconnect-on-retry.
    addr: SocketAddr,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    /// Buffered notify frames, oldest first, bounded by `notify_capacity`.
    notifications: VecDeque<NotifyFrame>,
    notify_capacity: usize,
    notify_dropped: u64,
    /// A half-received line, preserved when a bounded read (e.g.
    /// [`Client::poll_notification`]) times out mid-frame.
    partial: String,
}

impl Client {
    /// Connect to a running server (no connect retry; see
    /// [`Client::connect_with_retry`]). Established clients still
    /// retry idempotent requests per the default [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connect with bounded retry + backoff, so a worker that is still
    /// binding its socket (or restarting) does not surface as a hard
    /// error to router callers.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut last = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt));
            }
            match TcpStream::connect(addrs.as_slice()) {
                Ok(stream) => {
                    let mut c = Self::from_stream(stream)?;
                    c.retry = policy;
                    return Ok(c);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no address to connect to")))
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        let addr = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            addr,
            retry: RetryPolicy::default(),
            timeout: None,
            notifications: VecDeque::new(),
            notify_capacity: NOTIFY_BUFFER_FRAMES,
            notify_dropped: 0,
            partial: String::new(),
        })
    }

    /// Replace the retry policy (applies to reconnects and idempotent
    /// request retries; `RetryPolicy::none()` restores fail-fast).
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The server address this client talks to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound how long responses may take (census queries on large graphs
    /// can be slow; the default is no timeout). Timeouts are reported as
    /// errors and never auto-retried.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.timeout = timeout;
        self.writer.set_write_timeout(timeout)?;
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Drop the broken connection and dial the same peer again.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(self.timeout)?;
        stream.set_read_timeout(self.timeout)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        // A half-line from the dead connection must not prefix the new
        // stream's first response.
        self.partial.clear();
        Ok(())
    }

    /// Send one request, wait for its response. Connection failures are
    /// retried over a fresh connection (bounded by the retry policy) for
    /// idempotent requests; non-idempotent requests fail fast.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        let line = req.encode();
        let retryable = req.is_idempotent();
        let mut attempt = 0u32;
        loop {
            match self.send_line(&line).and_then(|()| self.recv_response()) {
                Ok(resp) => return Ok(resp),
                Err(e) if retryable && is_connection_error(&e) => {
                    attempt += 1;
                    if attempt >= self.retry.attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(self.retry.delay(attempt));
                    // A failed reconnect leaves the old (broken) stream
                    // in place; the next send fails fast and loops.
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send a request without waiting for its response. Pair with
    /// [`Client::recv_response`]; responses arrive in request order.
    /// The scatter/gather router uses this to pipeline one shard per
    /// worker before collecting any result.
    pub fn send_request(&mut self, req: &Request) -> std::io::Result<()> {
        self.send_line(&req.encode())
    }

    /// Read the next pending response (one must be outstanding from
    /// [`Client::send_request`]). Notify frames arriving first are
    /// buffered, not returned: the caller always gets the answer to its
    /// request.
    pub fn recv_response(&mut self) -> std::io::Result<Response> {
        loop {
            let raw = self.recv_line()?;
            let resp = Response::decode(&raw).map_err(|e| {
                std::io::Error::new(ErrorKind::InvalidData, format!("bad response: {e}"))
            })?;
            match resp {
                Response::Notify(frame) => self.buffer_notification(frame),
                other => return Ok(other),
            }
        }
    }

    fn buffer_notification(&mut self, frame: NotifyFrame) {
        while self.notifications.len() >= self.notify_capacity.max(1) {
            self.notifications.pop_front();
            self.notify_dropped += 1;
        }
        self.notifications.push_back(frame);
    }

    /// Resize the notification buffer (minimum 1). Shrinking below the
    /// current occupancy drops the oldest frames, like an overflow.
    pub fn set_notification_capacity(&mut self, capacity: usize) {
        self.notify_capacity = capacity.max(1);
        while self.notifications.len() > self.notify_capacity {
            self.notifications.pop_front();
            self.notify_dropped += 1;
        }
    }

    /// Take every buffered notify frame, oldest first.
    pub fn drain_notifications(&mut self) -> Vec<NotifyFrame> {
        self.notifications.drain(..).collect()
    }

    /// Take the oldest buffered notify frame, if any (no socket read).
    pub fn take_notification(&mut self) -> Option<NotifyFrame> {
        self.notifications.pop_front()
    }

    /// Frames dropped so far because the buffer overflowed.
    pub fn notifications_dropped(&self) -> u64 {
        self.notify_dropped
    }

    /// Wait up to `wait` for a notify frame: the oldest buffered frame
    /// if one exists, otherwise a blocking read bounded by `wait`.
    /// `Ok(None)` means the wait elapsed quietly. A non-notify line
    /// arriving here (with no request outstanding) is a protocol
    /// violation and surfaces as `InvalidData`.
    pub fn poll_notification(&mut self, wait: Duration) -> std::io::Result<Option<NotifyFrame>> {
        if let Some(frame) = self.notifications.pop_front() {
            return Ok(Some(frame));
        }
        self.reader.get_ref().set_read_timeout(Some(wait))?;
        let got = self.recv_line();
        self.reader.get_ref().set_read_timeout(self.timeout)?;
        let raw = match got {
            Ok(raw) => raw,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        match Response::decode(&raw) {
            Ok(Response::Notify(frame)) => Ok(Some(frame)),
            Ok(_) => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "unsolicited non-notify response",
            )),
            Err(e) => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("bad response: {e}"),
            )),
        }
    }

    /// Write one raw line (no response read).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Read one raw response line, without its trailing newline. A read
    /// that errors mid-line (timeout) keeps the received prefix; the
    /// next call resumes it, so bounded polls never corrupt framing.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let n = self.reader.read_line(&mut self.partial)?;
        if n == 0 {
            self.partial.clear();
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let mut response = std::mem::take(&mut self.partial);
        while response.ends_with(['\n', '\r']) {
            response.pop();
        }
        Ok(response)
    }

    /// Send a raw line (for protocol tests), returning the raw response
    /// line without its trailing newline.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Liveness check.
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Ping)
    }

    /// Define a pattern in this connection's session catalog.
    pub fn define(&mut self, pattern: &str) -> std::io::Result<Response> {
        self.request(&Request::Define {
            pattern: pattern.to_string(),
        })
    }

    /// Execute a census SQL statement.
    pub fn query(&mut self, sql: &str) -> std::io::Result<Response> {
        self.request(&Request::Query {
            sql: sql.to_string(),
            shard: None,
        })
    }

    /// Execute a census SQL statement restricted to one focal shard.
    pub fn query_sharded(&mut self, sql: &str, shard: ShardSpec) -> std::io::Result<Response> {
        self.request(&Request::Query {
            sql: sql.to_string(),
            shard: Some(shard),
        })
    }

    /// Describe the plan for a statement.
    pub fn explain(&mut self, sql: &str) -> std::io::Result<Response> {
        self.request(&Request::Explain {
            sql: sql.to_string(),
        })
    }

    /// Profile the server's graph for the cost-based planner; returns
    /// the statistics snapshot as a key/value table.
    pub fn analyze(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Analyze)
    }

    /// Apply an edge-mutation script (`INSERT EDGE (a, b); DELETE EDGE
    /// (a, b); ...`) to the server's shared graph.
    pub fn update(&mut self, mutations: &str) -> std::io::Result<Response> {
        self.request(&Request::Update {
            mutations: mutations.to_string(),
        })
    }

    /// Register a standing census statement (`SUBSCRIBE SELECT ...`);
    /// the ack table carries the subscription id under the
    /// `subscription` key. Changed rows arrive as notify frames — see
    /// [`Client::drain_notifications`] / [`Client::poll_notification`].
    pub fn subscribe(&mut self, sql: &str) -> std::io::Result<Response> {
        self.request(&Request::Subscribe {
            sql: sql.to_string(),
            shard: None,
        })
    }

    /// [`Client::subscribe`] restricted to one focal shard.
    pub fn subscribe_sharded(&mut self, sql: &str, shard: ShardSpec) -> std::io::Result<Response> {
        self.request(&Request::Subscribe {
            sql: sql.to_string(),
            shard: Some(shard),
        })
    }

    /// Remove a subscription created on this connection.
    pub fn unsubscribe(&mut self, id: u64) -> std::io::Result<Response> {
        self.request(&Request::Unsubscribe { id })
    }

    /// Materialize a pattern census as a pinned view (`MATERIALIZE
    /// <pattern> RADIUS k [MATCHES]`): later statements over the same
    /// (pattern, radius) are served as pure lookups.
    pub fn materialize(&mut self, sql: &str) -> std::io::Result<Response> {
        self.request(&Request::Materialize {
            sql: sql.to_string(),
            shard: None,
        })
    }

    /// [`Client::materialize`] restricted to one focal shard (the view
    /// then covers exactly that shard's node range).
    pub fn materialize_sharded(
        &mut self,
        sql: &str,
        shard: ShardSpec,
    ) -> std::io::Result<Response> {
        self.request(&Request::Materialize {
            sql: sql.to_string(),
            shard: Some(shard),
        })
    }

    /// Drop a materialized view (`DROP VIEW <pattern> RADIUS k`).
    pub fn drop_view(&mut self, sql: &str) -> std::io::Result<Response> {
        self.request(&Request::DropView {
            sql: sql.to_string(),
        })
    }

    /// Fetch the server/cache counter table.
    pub fn stats(&mut self) -> std::io::Result<TableData> {
        match self.request(&Request::Stats)? {
            Response::Table(t) => Ok(t),
            Response::Error { message } => Err(std::io::Error::other(message)),
            // `request` buffers notify frames and never returns one.
            Response::Notify(_) => unreachable!("request() filters notify frames"),
        }
    }

    /// Ask the server to shut down.
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_doubles_per_retry() {
        let p = RetryPolicy {
            attempts: 4,
            backoff: Duration::from_millis(10),
        };
        assert_eq!(p.delay(1), Duration::from_millis(10));
        assert_eq!(p.delay(2), Duration::from_millis(20));
        assert_eq!(p.delay(3), Duration::from_millis(40));
    }

    /// Answer one connection: one response per request line, `n` lines,
    /// then close (abruptly, mid-session, from the client's view).
    fn serve_lines(listener: &TcpListener, n: usize) {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for _ in 0..n {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read") == 0 {
                return;
            }
            let reply = Response::Table(TableData {
                columns: vec!["reply".into()],
                rows: vec![vec![ego_query::Value::Str("pong".into())]],
            })
            .encode();
            stream.write_all(reply.as_bytes()).expect("write");
            stream.write_all(b"\n").expect("write");
        }
    }

    #[test]
    fn idempotent_request_survives_a_dropped_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            serve_lines(&listener, 1); // answer one ping, then hang up
            serve_lines(&listener, 1); // the re-sent ping lands here
        });

        let mut client = Client::connect(addr).expect("connect");
        client.set_retry(RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
        });
        assert!(!client.ping().expect("first ping").is_error());
        // The server hung up; this ping hits the dead connection, and
        // the retry path must transparently reconnect and re-send.
        assert!(!client.ping().expect("retried ping").is_error());
        server.join().expect("server thread");
    }

    #[test]
    fn non_idempotent_request_fails_fast_on_a_dropped_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || serve_lines(&listener, 1));

        let mut client = Client::connect(addr).expect("connect");
        assert!(!client.ping().expect("first ping").is_error());
        server.join().expect("server thread");
        // An update after the hang-up must surface the error — silently
        // re-sending a mutation could apply it twice.
        let err = client
            .update("INSERT EDGE (0, 1)")
            .expect_err("update must not be retried");
        assert!(is_connection_error(&err), "unexpected error: {err}");
    }

    /// Answer one connection: for each request line, write the given
    /// notify frames (encoded) and then a pong table, `n` times.
    fn serve_with_frames(
        listener: &TcpListener,
        n: usize,
        frames_per_reply: usize,
    ) -> std::net::TcpStream {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for round in 0..n {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read") == 0 {
                break;
            }
            for f in 0..frames_per_reply {
                let frame = Response::Notify(NotifyFrame {
                    subscription: 1,
                    generation: (round * frames_per_reply + f) as u64 + 1,
                    columns: vec!["c".into()],
                    rows: vec![vec![
                        ego_query::Value::Int(0),
                        ego_query::Value::Str("c".into()),
                        ego_query::Value::Int(f as i64),
                        ego_query::Value::Int(f as i64 + 1),
                    ]],
                })
                .encode();
                stream.write_all(frame.as_bytes()).expect("write frame");
                stream.write_all(b"\n").expect("write frame");
            }
            let reply = Response::Table(TableData {
                columns: vec!["reply".into()],
                rows: vec![vec![ego_query::Value::Str("pong".into())]],
            })
            .encode();
            stream.write_all(reply.as_bytes()).expect("write");
            stream.write_all(b"\n").expect("write");
        }
        stream
    }

    #[test]
    fn interleaved_notify_frames_are_buffered_not_returned() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let _stream = serve_with_frames(&listener, 2, 2);
        });

        let mut client = Client::connect(addr).expect("connect");
        // Two frames precede the response; request() must return the
        // table, with the frames waiting in the buffer in push order.
        let resp = client.ping().expect("ping");
        assert!(matches!(resp, Response::Table(_)), "{resp:?}");
        let frames = client.drain_notifications();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].generation, 1);
        assert_eq!(frames[1].generation, 2);
        assert_eq!(frames[1].rows[0][3], ego_query::Value::Int(2));
        assert_eq!(client.notifications_dropped(), 0);
        // Draining empties the buffer; the next exchange refills it.
        assert!(client.drain_notifications().is_empty());
        let _ = client.ping().expect("second ping");
        assert_eq!(client.drain_notifications().len(), 2);
        server.join().expect("server thread");
    }

    #[test]
    fn notification_buffer_is_bounded_and_drops_oldest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let _stream = serve_with_frames(&listener, 1, 5);
        });

        let mut client = Client::connect(addr).expect("connect");
        client.set_notification_capacity(3);
        let _ = client.ping().expect("ping");
        assert_eq!(client.notifications_dropped(), 2, "oldest two dropped");
        let frames = client.drain_notifications();
        assert_eq!(frames.len(), 3);
        // The survivors are the newest three, still in order.
        assert_eq!(
            frames.iter().map(|f| f.generation).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        server.join().expect("server thread");
    }

    #[test]
    fn poll_notification_times_out_quietly_and_picks_up_buffered_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let stream = serve_with_frames(&listener, 1, 1);
            // Keep the connection open a moment so the quiet poll sees
            // silence rather than EOF.
            std::thread::sleep(Duration::from_millis(60));
            drop(stream);
        });

        let mut client = Client::connect(addr).expect("connect");
        let _ = client.ping().expect("ping");
        let first = client
            .poll_notification(Duration::from_millis(10))
            .expect("poll buffered");
        assert!(first.is_some(), "buffered frame returned without a read");
        let quiet = client
            .poll_notification(Duration::from_millis(20))
            .expect("poll quiet");
        assert!(quiet.is_none(), "quiet wait yields None, not an error");
        server.join().expect("server thread");
    }

    #[test]
    fn connect_with_retry_reaches_a_late_binding_server() {
        // Reserve an address, release it, and rebind it only after a
        // delay — the first connect attempts fail, a later one lands.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let listener = TcpListener::bind(addr).expect("rebind");
            serve_lines(&listener, 1);
        });
        let mut client = Client::connect_with_retry(
            addr,
            RetryPolicy {
                attempts: 10,
                backoff: Duration::from_millis(10),
            },
        )
        .expect("connect with retry");
        assert!(!client.ping().expect("ping").is_error());
        server.join().expect("server thread");
    }
}
