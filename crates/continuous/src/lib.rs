//! # ego-continuous
//!
//! The continuous census: standing-query subscriptions whose per-focal
//! pattern counts are maintained incrementally as the graph mutates.
//!
//! A subscription is a compiled census statement
//! ([`ego_query::SubscriptionSpec`]): a frozen focal set plus resolved
//! aggregates. [`ContinuousEngine`] keeps, per subscription, the last
//! published [`CountVector`] **and** the pattern's global match list.
//! On every mutation batch it runs the incremental engine
//! ([`ego_dynamic::update_batch_on`]) — dirty-focal re-census with
//! |delta|-scaled match-list maintenance — against the shared compacted
//! graph, diffs new counts against old over the focal set, and emits a
//! [`Notification`] per subscription carrying only the *changed rows*
//! `(focal, column, old, new)` tagged with the new generation.
//!
//! One notification is produced per (subscription, update) even when no
//! row changed: the empty frame acknowledges the generation, which is
//! what lets a scatter/gather router treat "worker finished with no
//! changes" and "worker hasn't answered yet" as different states.
//!
//! Diff rows are ordered by focal node ascending, then aggregate
//! (projection) order — deterministic, and concatenable across focal
//! shards in shard order.
//!
//! The engine is deliberately transport-free: it never touches sockets.
//! `ego-server` owns the session registry and the push path; a fleet
//! router owns broadcast and per-shard merging. Both layer on this type.

use ego_census::run_batch_exec;
use ego_dynamic::{update_batch_on, DeltaGraph, MaintainStats, UpdateStats};
use ego_graph::{Graph, NodeId};
use ego_query::{ChangedRow, SubscriptionSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// Re-exported so hosts (e.g. the server) can configure evaluation —
// and drive view refresh / baseline seeding — without a direct
// ego-census dependency.
pub use ego_census::{
    Algorithm, CensusError, CensusSpec, CountVector, ExecConfig, FocalNodes, PtConfig,
};
pub use ego_matcher::MatchList;

/// Acknowledgment returned by [`ContinuousEngine::subscribe`].
#[derive(Clone, Debug)]
pub struct SubscribeAck {
    /// The subscription id (unique per engine, never reused).
    pub id: u64,
    /// Graph generation the initial evaluation ran against.
    pub generation: u64,
    /// Focal set size.
    pub focal: usize,
    /// Aggregate column names, in projection order.
    pub columns: Vec<String>,
}

/// One pushed frame: the changed rows of one subscription under one
/// mutation batch.
#[derive(Clone, Debug)]
pub struct Notification {
    /// The subscription this frame belongs to.
    pub subscription: u64,
    /// Graph generation after the mutation batch that produced it.
    pub generation: u64,
    /// Aggregate column names (indexed by [`ChangedRow::agg`]).
    pub columns: Arc<Vec<String>>,
    /// Changed rows, focal-ascending then aggregate order. May be empty
    /// (generation acknowledgment).
    pub rows: Vec<ChangedRow>,
}

/// One registered standing query and its maintained state.
struct SubState {
    spec: SubscriptionSpec,
    columns: Arc<Vec<String>>,
    counts: Vec<CountVector>,
    matches: Vec<Option<Arc<MatchList>>>,
    generation: u64,
}

impl SubState {
    /// The census specs of this subscription, borrowing its owned
    /// patterns. Rebuilt per evaluation (specs are cheap; patterns are
    /// not cloned).
    fn census_specs(&self) -> Vec<CensusSpec<'_>> {
        self.spec
            .aggs
            .iter()
            .map(|a| {
                let mut s = CensusSpec::single(&a.pattern, a.k)
                    .with_focal(FocalNodes::Set(self.spec.focal.clone()));
                if let Some(sp) = &a.subpattern {
                    s = s.with_subpattern(sp);
                }
                s
            })
            .collect()
    }
}

/// Counters and occupancy of a [`ContinuousEngine`] (server `stats` op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContinuousStats {
    /// Live subscriptions.
    pub subscriptions: usize,
    /// Subscriptions ever created.
    pub created: u64,
    /// Update batches evaluated.
    pub updates: u64,
    /// Notifications produced (one per subscription per update).
    pub notifications: u64,
    /// Changed rows pushed, cumulative.
    pub rows_pushed: u64,
    /// Cumulative incremental-engine accounting across updates.
    pub dirty_focal: u64,
    /// Focal nodes spliced through unchanged, cumulative.
    pub clean_focal: u64,
    /// Match-list survivors kept without re-verification, cumulative.
    pub match_survivors: u64,
    /// Matches discovered in the ball around the touched endpoints, cumulative.
    pub match_discovered: u64,
    /// Aggregates whose baseline match list was provided by the host
    /// (e.g. gathered from a materialized view) instead of enumerated
    /// at subscribe time, cumulative.
    pub seeded: u64,
}

/// The subscription registry + incremental evaluation loop.
///
/// Thread-safe; the server shares one engine across sessions. All
/// mutation-driven evaluation happens in [`ContinuousEngine::apply_update`],
/// which the host must call with its update lock held so generations
/// are published in order.
#[derive(Default)]
pub struct ContinuousEngine {
    subs: Mutex<BTreeMap<u64, SubState>>,
    next_id: AtomicU64,
    created: AtomicU64,
    updates: AtomicU64,
    notifications: AtomicU64,
    rows_pushed: AtomicU64,
    dirty_focal: AtomicU64,
    clean_focal: AtomicU64,
    match_survivors: AtomicU64,
    match_discovered: AtomicU64,
    seeded: AtomicU64,
}

impl ContinuousEngine {
    /// An empty registry.
    pub fn new() -> Self {
        ContinuousEngine {
            next_id: AtomicU64::new(1),
            ..ContinuousEngine::default()
        }
    }

    /// Register a compiled statement: evaluate it once on `graph` (full
    /// batch run, which also materializes the global match lists that
    /// seed maintenance) and store the state. Returns the ack with the
    /// new subscription id.
    pub fn subscribe(
        &self,
        graph: &Graph,
        spec: SubscriptionSpec,
        generation: u64,
        algorithm: Algorithm,
        config: &PtConfig,
        exec: &ExecConfig,
    ) -> Result<SubscribeAck, CensusError> {
        self.subscribe_seeded(graph, spec, generation, algorithm, config, exec, &[])
    }

    /// [`ContinuousEngine::subscribe`], but with per-aggregate global
    /// match lists the host already holds (e.g. gathered from a
    /// materialized view maintained through every mutation): a `Some`
    /// slot skips that aggregate's enumeration pass entirely, so the
    /// initial evaluation pays only the neighborhood projection. Slots
    /// beyond `provided.len()` (or `None` slots) enumerate as usual.
    /// Provided lists must be current for `graph` — the caller holds the
    /// update lock, so a view refreshed on that same lock qualifies.
    #[allow(clippy::too_many_arguments)]
    pub fn subscribe_seeded(
        &self,
        graph: &Graph,
        spec: SubscriptionSpec,
        generation: u64,
        algorithm: Algorithm,
        config: &PtConfig,
        exec: &ExecConfig,
        provided: &[Option<Arc<MatchList>>],
    ) -> Result<SubscribeAck, CensusError> {
        let columns: Arc<Vec<String>> =
            Arc::new(spec.aggs.iter().map(|a| a.column.clone()).collect());
        let mut state = SubState {
            spec,
            columns: columns.clone(),
            counts: Vec::new(),
            matches: Vec::new(),
            generation,
        };
        let cspecs = state.census_specs();
        let provided: Vec<Option<Arc<MatchList>>> = (0..cspecs.len())
            .map(|i| provided.get(i).cloned().flatten())
            .collect();
        let seeded = provided.iter().filter(|m| m.is_some()).count() as u64;
        if seeded > 0 {
            self.seeded.fetch_add(seeded, Ordering::Relaxed);
        }
        let batch = run_batch_exec(graph, &cspecs, algorithm, config, exec, &provided, None)?;
        let focal = state.spec.focal.len();
        drop(cspecs);
        state.counts = batch.counts;
        state.matches = batch.matches;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.created.fetch_add(1, Ordering::Relaxed);
        self.subs.lock().unwrap().insert(id, state);
        Ok(SubscribeAck {
            id,
            generation,
            focal,
            columns: columns.as_ref().clone(),
        })
    }

    /// Remove a subscription. Returns `false` if the id is unknown
    /// (e.g. already unsubscribed).
    pub fn unsubscribe(&self, id: u64) -> bool {
        self.subs.lock().unwrap().remove(&id).is_some()
    }

    /// Live subscription ids with their statements, ascending by id.
    pub fn subscriptions(&self) -> Vec<(u64, String)> {
        self.subs
            .lock()
            .unwrap()
            .iter()
            .map(|(&id, s)| (id, s.spec.statement.clone()))
            .collect()
    }

    /// Is the registry empty? (The mutation path skips evaluation.)
    pub fn is_empty(&self) -> bool {
        self.subs.lock().unwrap().is_empty()
    }

    /// Evaluate every subscription against a mutation batch:
    /// `new_graph` must be `delta.compact()` (the host compacts once and
    /// shares it) and `new_generation` the generation it was published
    /// under. Returns one [`Notification`] per subscription, ascending
    /// by subscription id, each carrying only the changed rows.
    ///
    /// Counts are maintained through the incremental engine and are
    /// bit-identical to a full recompute, so the emitted rows equal the
    /// diff of two full evaluations — the invariant the proptest suite
    /// enforces end to end.
    pub fn apply_update(
        &self,
        delta: &DeltaGraph,
        new_graph: &Graph,
        new_generation: u64,
        algorithm: Algorithm,
        config: &PtConfig,
        exec: &ExecConfig,
    ) -> Result<Vec<Notification>, CensusError> {
        let mut subs = self.subs.lock().unwrap();
        if subs.is_empty() {
            return Ok(Vec::new());
        }
        self.updates.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::with_capacity(subs.len());
        for (&id, state) in subs.iter_mut() {
            let cspecs = state.census_specs();
            let outcome = update_batch_on(
                delta,
                new_graph,
                &cspecs,
                &state.counts,
                &state.matches,
                algorithm,
                config,
                exec,
            )?;
            drop(cspecs);
            self.absorb_stats(&outcome.stats, &outcome.match_stats);
            let mut rows = Vec::new();
            for &n in &state.spec.focal {
                for agg in 0..state.counts.len() {
                    let old = state.counts[agg].get(n);
                    let new = outcome.counts[agg].get(n);
                    if old != new {
                        rows.push(ChangedRow {
                            focal: n,
                            agg,
                            old,
                            new,
                        });
                    }
                }
            }
            self.rows_pushed
                .fetch_add(rows.len() as u64, Ordering::Relaxed);
            self.notifications.fetch_add(1, Ordering::Relaxed);
            state.counts = outcome.counts;
            state.matches = outcome.matches;
            state.generation = new_generation;
            out.push(Notification {
                subscription: id,
                generation: new_generation,
                columns: state.columns.clone(),
                rows,
            });
        }
        Ok(out)
    }

    fn absorb_stats(&self, stats: &UpdateStats, ms: &MaintainStats) {
        self.dirty_focal
            .fetch_add(stats.dirty_focal as u64, Ordering::Relaxed);
        self.clean_focal
            .fetch_add(stats.clean_focal as u64, Ordering::Relaxed);
        self.match_survivors
            .fetch_add(ms.survivors as u64, Ordering::Relaxed);
        self.match_discovered
            .fetch_add(ms.discovered as u64, Ordering::Relaxed);
    }

    /// Snapshot of occupancy and counters.
    pub fn stats(&self) -> ContinuousStats {
        ContinuousStats {
            subscriptions: self.subs.lock().unwrap().len(),
            created: self.created.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            notifications: self.notifications.load(Ordering::Relaxed),
            rows_pushed: self.rows_pushed.load(Ordering::Relaxed),
            dirty_focal: self.dirty_focal.load(Ordering::Relaxed),
            clean_focal: self.clean_focal.load(Ordering::Relaxed),
            match_survivors: self.match_survivors.load(Ordering::Relaxed),
            match_discovered: self.match_discovered.load(Ordering::Relaxed),
            seeded: self.seeded.load(Ordering::Relaxed),
        }
    }

    /// The current counts of one subscription (testing and the router's
    /// recovery path).
    pub fn counts_of(&self, id: u64) -> Option<Vec<CountVector>> {
        self.subs.lock().unwrap().get(&id).map(|s| s.counts.clone())
    }
}

/// Diff two full evaluations into changed rows — the reference the
/// incremental path must match, used by tests and the router's
/// dead-worker recovery. `focal` must be ascending; `old[i]`/`new[i]`
/// are aggregate `i`'s counts before and after.
pub fn diff_counts(focal: &[NodeId], old: &[CountVector], new: &[CountVector]) -> Vec<ChangedRow> {
    let mut rows = Vec::new();
    for &n in focal {
        for agg in 0..old.len() {
            let o = old[agg].get(n);
            let v = new[agg].get(n);
            if o != v {
                rows.push(ChangedRow {
                    focal: n,
                    agg,
                    old: o,
                    new: v,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};
    use ego_query::QueryEngine;

    fn ring(n: u32) -> Arc<Graph> {
        let mut b = GraphBuilder::undirected();
        for _ in 0..n {
            b.add_node(Label(0));
        }
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        Arc::new(b.build())
    }

    fn compile(g: &Graph, sql: &str) -> SubscriptionSpec {
        let mut e = QueryEngine::new(g);
        e.catalog_mut()
            .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
            .unwrap();
        e.compile_subscription(sql).unwrap()
    }

    #[test]
    fn subscribe_mutate_notify_roundtrip() {
        let g = ring(32);
        let spec = compile(
            &g,
            "SUBSCRIBE SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes",
        );
        let eng = ContinuousEngine::new();
        let ack = eng
            .subscribe(
                &g,
                spec,
                0,
                Algorithm::NdPivot,
                &PtConfig::default(),
                &ExecConfig::sequential(),
            )
            .unwrap();
        assert_eq!(ack.id, 1);
        assert_eq!(ack.focal, 32);

        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();
        let new_graph = d.compact();
        let frames = eng
            .apply_update(
                &d,
                &new_graph,
                1,
                Algorithm::NdPivot,
                &PtConfig::default(),
                &ExecConfig::sequential(),
            )
            .unwrap();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!((f.subscription, f.generation), (1, 1));
        // The chord creates triangle 0-1-2: all three counts go 0 -> 1.
        assert_eq!(f.rows.len(), 3);
        for (row, focal) in f.rows.iter().zip([0u32, 1, 2]) {
            assert_eq!(row.focal, NodeId(focal));
            assert_eq!((row.old, row.new), (0, 1));
        }

        // A clean (cancelling) batch acknowledges with no rows.
        let base2 = Arc::new(new_graph);
        let mut d2 = DeltaGraph::new(base2.clone());
        d2.insert_edge(NodeId(5), NodeId(9)).unwrap();
        d2.delete_edge(NodeId(5), NodeId(9)).unwrap();
        let g2 = d2.compact();
        let frames2 = eng
            .apply_update(
                &d2,
                &g2,
                2,
                Algorithm::NdPivot,
                &PtConfig::default(),
                &ExecConfig::sequential(),
            )
            .unwrap();
        assert_eq!(frames2.len(), 1);
        assert!(frames2[0].rows.is_empty());
        assert_eq!(frames2[0].generation, 2);
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let g = ring(8);
        let spec = compile(&g, "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes");
        let eng = ContinuousEngine::new();
        let ack = eng
            .subscribe(
                &g,
                spec,
                0,
                Algorithm::Auto,
                &PtConfig::default(),
                &ExecConfig::sequential(),
            )
            .unwrap();
        assert!(eng.unsubscribe(ack.id));
        assert!(!eng.unsubscribe(ack.id));
        assert!(eng.is_empty());
        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(0), NodeId(2)).unwrap();
        let ng = d.compact();
        let frames = eng
            .apply_update(
                &d,
                &ng,
                1,
                Algorithm::Auto,
                &PtConfig::default(),
                &ExecConfig::sequential(),
            )
            .unwrap();
        assert!(frames.is_empty());
    }

    #[test]
    fn where_clause_freezes_focal_set() {
        let g = ring(16);
        let spec = compile(
            &g,
            "SUBSCRIBE SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 3",
        );
        assert_eq!(spec.focal.len(), 3);
        let eng = ContinuousEngine::new();
        eng.subscribe(
            &g,
            spec,
            0,
            Algorithm::PtOpt,
            &PtConfig::default(),
            &ExecConfig::sequential(),
        )
        .unwrap();
        // Chord at 8-10 creates a triangle far outside the focal set: an
        // empty (ack-only) frame.
        let mut d = DeltaGraph::new(g.clone());
        d.insert_edge(NodeId(8), NodeId(10)).unwrap();
        let ng = d.compact();
        let frames = eng
            .apply_update(
                &d,
                &ng,
                1,
                Algorithm::PtOpt,
                &PtConfig::default(),
                &ExecConfig::sequential(),
            )
            .unwrap();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].rows.is_empty());
        // And the incremental engine did |delta|-scaled work.
        let st = eng.stats();
        assert!(st.match_survivors > 0 || st.match_discovered > 0 || st.dirty_focal == 0);
    }
}
