//! The correctness gate, run after the window and outside every clock.
//!
//! * A deterministic sample of replies is compared byte for byte with
//!   what a direct `QueryEngine` over the same graph encodes.
//! * `hot-tiers` holds the server's own tier counters to the deck's
//!   intent: every op must have been served by the tier it was built for.
//! * Mutating workloads must end on the fingerprint a direct replay of
//!   the scripts gives, and post-update probes must equal a recompute.
//!
//! Every miss is a failed op; a run with any failed op is not correct.

use crate::deck::{Deck, Shape};
use crate::fleet::Fleet;
use crate::load::{query_raw, ReadRecord, UpdateRecord};
use crate::spec::CHECK_MAX;
use ego_dynamic::DeltaGraph;
use ego_graph::{Graph, NodeId};
use ego_query::{Catalog, CensusCache, QueryEngine};
use ego_server::{Client, Response, ServerConfig, TableData};
use std::sync::Arc;

/// What the gate found.
#[derive(Default)]
pub struct Verdict {
    pub checked: usize,
    pub failed: usize,
    /// One line per failure, for the human reading the run.
    pub notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, count: usize, note: String) {
        self.failed += count;
        self.notes.push(note);
    }
}

/// A reference engine: the served configuration minus every serving
/// tier except a private census cache (which only spares recomputing a
/// focal set the sample repeats).
pub fn reference_engine(graph: Arc<Graph>) -> QueryEngine<'static> {
    let mut engine = QueryEngine::shared(graph);
    engine.set_catalog(Catalog::with_builtins());
    engine.set_seed(ServerConfig::default().seed);
    engine.set_census_cache(Arc::new(CensusCache::new(64)));
    engine
}

/// The reply line a correct server sends for `sql`.
pub fn expected_line(engine: &QueryEngine<'_>, sql: &str) -> String {
    match engine.execute(sql) {
        Ok(table) => Response::table(&table).encode(),
        Err(e) => Response::error(e.to_string()).encode(),
    }
}

/// Byte-compare up to [`CHECK_MAX`] of the sampled replies, evenly
/// spread over the window.
pub fn check_reads(engine: &QueryEngine<'_>, deck: &Deck, reads: &[ReadRecord], v: &mut Verdict) {
    let mut sampled: Vec<&ReadRecord> = reads.iter().filter(|r| r.raw.is_some()).collect();
    sampled.sort_by_key(|r| r.index);
    let step = sampled.len().div_ceil(CHECK_MAX).max(1);
    for record in sampled.into_iter().step_by(step) {
        let sql = deck.read(record.index).sql;
        v.checked += 1;
        if record.raw.as_deref() != Some(expected_line(engine, &sql).as_str()) {
            v.fail(1, format!("reply to op {} differs: {sql}", record.index));
        }
    }
}

fn stat(table: &TableData, name: &str) -> i64 {
    table.stat(name).unwrap_or(0)
}

/// Every op of each hot shape must have been served by its tier: the
/// counter's rise over the window equals the ops sent, exactly.
pub fn check_tiers(before: &TableData, after: &TableData, reads: &[ReadRecord], v: &mut Verdict) {
    for (shape, counter) in [
        (Shape::ResultHit, "cache_hits"),
        (Shape::CensusHit, "census_count_hits"),
        (Shape::ViewHit, "view_hits"),
    ] {
        let sent = reads.iter().filter(|r| r.shape == shape).count() as i64;
        let served = stat(after, counter) - stat(before, counter);
        v.checked += 1;
        if served != sent {
            v.fail(
                (served - sent).unsigned_abs() as usize,
                format!(
                    "{}: {sent} ops sent but `{counter}` rose by {served}",
                    shape.name()
                ),
            );
        }
    }
}

/// The graph a direct replay reaches: base plus the edges live after
/// the priming script and `applied` update scripts.
pub fn replayed_graph(base: &Arc<Graph>, deck: &Deck, applied: usize) -> Graph {
    let mut delta = DeltaGraph::new(base.clone());
    for (a, b) in deck.live_edges(applied) {
        delta
            .insert_edge(NodeId(a), NodeId(b))
            .expect("live edge is a valid insert");
    }
    delta.compact()
}

/// Final fingerprint against a direct replay, and post-update probes of
/// every hot shape (view rows included) against a recompute.
pub fn check_updates(fleet: &Fleet, deck: &Deck, updates: &[UpdateRecord], v: &mut Verdict) {
    let applied = updates.len();
    let replay = Arc::new(replayed_graph(&fleet.graph, deck, applied));
    let want = format!("{:016x}", replay.fingerprint());
    let served = format!("{:016x}", fleet.shared[0].fingerprint());
    v.checked += 1;
    if served != want {
        v.fail(
            1,
            format!("server ends on fingerprint {served}, a replay of {applied} scripts on {want}"),
        );
    }
    if let Some(last) = updates.last() {
        v.checked += 1;
        if last.fingerprint.as_deref() != Some(want.as_str()) {
            v.fail(1, "last update acknowledged another fingerprint".into());
        }
    }
    let engine = reference_engine(replay);
    let mut client = Client::connect(fleet.addr).expect("connect for probes");
    for i in 0..6 {
        let sql = deck.read(i).sql;
        v.checked += 1;
        if query_raw(&mut client, &sql).as_deref() != Some(expected_line(&engine, &sql).as_str()) {
            v.fail(
                1,
                format!("post-update probe differs from a recompute: {sql}"),
            );
        }
    }
}
