//! Load generation: closed-loop clients (each a blocking `Client` that
//! waits for its reply before sending again) and the one open-loop
//! writer of `read-after-write`. All from this process, with at most
//! `nproc` client threads and connections.

use crate::deck::{Deck, Shape};
use crate::spec::{Workload, CHECK_EVERY, WARMUP_SHARE, WRITER_RATE_HZ};
use crate::stats::{due_ns, Timing};
use ego_server::{Client, Request, Response};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A reply that takes this long counts as failed, not as slow.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One read sent by a closed-loop client.
pub struct ReadRecord {
    /// Deck index.
    pub index: usize,
    pub shape: Shape,
    pub timing: Timing,
    pub ok: bool,
    /// The raw reply line of one op in [`CHECK_EVERY`], for the
    /// byte-for-byte correctness check after the window.
    pub raw: Option<String>,
}

/// One update script sent, by the closed-loop updater or the open-loop
/// writer.
pub struct UpdateRecord {
    /// `start_ns` is the send time in a closed loop, the due time in an
    /// open loop.
    pub timing: Timing,
    /// How late after its due time the op was sent (open loop only).
    pub late_ns: u64,
    pub ok: bool,
    /// Fingerprint the server acknowledged, as the `update` reply gives it.
    pub fingerprint: Option<String>,
    /// Changed rows pushed to this connection's subscription before the ack.
    pub rows_pushed: usize,
}

/// Everything one measurement window produced.
pub struct Window {
    pub reads: Vec<ReadRecord>,
    pub updates: Vec<UpdateRecord>,
    /// Ops that started before this are warm-up and untimed.
    pub timed_from_ns: u64,
    pub elapsed: Duration,
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect client");
    client
        .set_timeout(Some(OP_TIMEOUT))
        .expect("set client timeout");
    client
}

/// Send one query and decode its reply in full; `None` on any failure.
pub fn query_raw(client: &mut Client, sql: &str) -> Option<String> {
    let line = Request::Query {
        sql: sql.to_string(),
        shard: None,
    }
    .encode();
    let raw = client
        .send_line(&line)
        .and_then(|()| client.recv_line())
        .ok()?;
    matches!(Response::decode(&raw), Ok(Response::Table(_))).then_some(raw)
}

fn reader(
    addr: SocketAddr,
    deck: &Deck,
    next: &AtomicUsize,
    t0: Instant,
    deadline: Instant,
) -> Vec<ReadRecord> {
    let mut client = connect(addr);
    let mut out = Vec::new();
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let op = deck.read(index);
        let start_ns = since(t0);
        let raw = query_raw(&mut client, &op.sql);
        let end_ns = since(t0);
        let ok = raw.is_some();
        if !ok {
            // A failed exchange may leave the stream mid-line.
            client = connect(addr);
        }
        out.push(ReadRecord {
            index,
            shape: op.shape,
            timing: Timing { start_ns, end_ns },
            ok,
            raw: raw.filter(|_| index.is_multiple_of(CHECK_EVERY)),
        });
    }
    out
}

/// Send update script `k`; the reply arrives after every frame the
/// update pushed to this connection.
fn send_update(client: &mut Client, deck: &Deck, k: usize) -> (bool, Option<String>, usize) {
    let reply = client.request(&Request::Update {
        mutations: deck.update(k),
    });
    let rows = client
        .drain_notifications()
        .iter()
        .map(|f| f.rows.len())
        .sum();
    match reply {
        Ok(Response::Table(t)) => {
            let fp = t.rows.iter().find_map(|r| match (r.first(), r.get(1)) {
                (Some(ego_query::Value::Str(k)), Some(ego_query::Value::Str(v)))
                    if k == "fingerprint" =>
                {
                    Some(v.clone())
                }
                _ => None,
            });
            (true, fp, rows)
        }
        _ => (false, None, rows),
    }
}

fn closed_loop_updater(
    client: &mut Client,
    deck: &Deck,
    first: usize,
    t0: Instant,
    deadline: Instant,
) -> Vec<UpdateRecord> {
    let mut out = Vec::new();
    while Instant::now() < deadline {
        let start_ns = since(t0);
        let (ok, fingerprint, rows_pushed) = send_update(client, deck, first + out.len());
        out.push(UpdateRecord {
            timing: Timing {
                start_ns,
                end_ns: since(t0),
            },
            late_ns: 0,
            ok,
            fingerprint,
            rows_pushed,
        });
    }
    out
}

fn open_loop_writer(
    client: &mut Client,
    deck: &Deck,
    first: usize,
    t0: Instant,
    window: Duration,
) -> Vec<UpdateRecord> {
    let mut out = Vec::new();
    loop {
        // Due on schedule whatever the server does: a stalled update
        // makes the next ones late, and their latency counts the wait.
        let due = due_ns(out.len() as u64, WRITER_RATE_HZ);
        if due >= window.as_nanos() as u64 {
            return out;
        }
        let now = since(t0);
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent = since(t0);
        let (ok, fingerprint, rows_pushed) = send_update(client, deck, first + out.len());
        out.push(UpdateRecord {
            timing: Timing {
                start_ns: due,
                end_ns: since(t0),
            },
            late_ns: sent - due,
            ok,
            fingerprint,
            rows_pushed,
        });
    }
}

/// Run the workload's traffic for `window`. `writer` is the connection
/// that holds the subscription and the index of the first update script
/// it has not sent yet (update workloads only).
pub fn run(
    workload: Workload,
    addr: SocketAddr,
    deck: &Deck,
    writer: Option<(&mut Client, usize)>,
    nproc: usize,
    window: Duration,
) -> Window {
    let t0 = Instant::now();
    let deadline = t0 + window;
    let next = AtomicUsize::new(0);
    let (reads, updates) = if workload.times_updates() {
        let (client, first) = writer.expect("update workload has a writer connection");
        (
            Vec::new(),
            closed_loop_updater(client, deck, first, t0, deadline),
        )
    } else {
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..workload.clients(nproc))
                .map(|_| scope.spawn(|| reader(addr, deck, &next, t0, deadline)))
                .collect();
            let updates = match (workload.mutates(), writer) {
                (true, Some((client, first))) => open_loop_writer(client, deck, first, t0, window),
                _ => Vec::new(),
            };
            let reads = readers
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread"))
                .collect();
            (reads, updates)
        })
    };
    Window {
        reads,
        updates,
        timed_from_ns: (window.as_nanos() as f64 * WARMUP_SHARE) as u64,
        elapsed: t0.elapsed(),
    }
}
