//! Inputs: the one graph, and per-workload statement decks and update
//! scripts as a pure function of `(seed, workload)`.
//!
//! Every op is addressed by its index, so concurrent clients drawing
//! indices from a shared counter send the same traffic in every run of a
//! seed, whatever the thread timing.

use crate::spec::{Workload, GRAPH_SEED};
use ego_graph::{Graph, NodeId};
use ego_server::Request;
use std::collections::HashSet;

/// SplitMix64: small, seedable, and good enough to shuffle decks.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// The evaluation graph every workload runs on: Barabási–Albert with
/// `|E| = 5 |V|` and 4 uniform random labels, from the pinned seed.
pub fn make_graph(nodes: usize) -> Graph {
    let mut rng = ego_datagen::rng(GRAPH_SEED);
    let g = ego_datagen::barabasi_albert(nodes, 5, &mut rng);
    ego_datagen::assign_random_labels(&g, 4, &mut rng)
}

/// Which tier or path an op is meant to be served by. The correctness
/// gate holds the server's own counters to this intent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// Unique focal set: result cache and census cache both miss.
    Cold,
    /// Exact repeat from a 64-statement deck: result-cache hit.
    ResultHit,
    /// Distinct statement over one focal set: census-count-cache hit.
    CensusHit,
    /// Unique focal set over a pinned view: view probe, no traversal.
    ViewHit,
    /// Distinct ~n-row statement over one cached count vector.
    FullTable,
    /// Scatterable statement: no ORDER BY / LIMIT, unique focal range.
    Scatter,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Cold => "cold",
            Shape::ResultHit => "result-hit",
            Shape::CensusHit => "census-hit",
            Shape::ViewHit => "view-hit",
            Shape::FullTable => "full-table",
            Shape::Scatter => "scatter",
        }
    }
}

/// One read op: the statement, and its one census aggregate and focal
/// range spelled out, so the traced run can plan and count the same
/// census through the layers' own entry points.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadOp {
    pub shape: Shape,
    pub sql: String,
    pub pattern: &'static str,
    pub k: u32,
    /// Focal range `lo..=hi`, after `WHERE`.
    pub lo: usize,
    pub hi: usize,
}

/// The standing query the update workloads register: the same
/// aggregate their pinned view serves.
pub const STANDING_QUERY: &str =
    "SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes";
const RESULT_DECK: usize = 64;
/// `full-table` cycles through this many distinct `LIMIT`s (in shuffled
/// order), so reply size is stationary over a run.
const FULL_TABLE_LIMITS: usize = 256;
/// Update scripts delete the edge inserted this many scripts earlier, so
/// the graph's size is stationary.
pub const DELETE_LAG: usize = 8;
const EDGE_POOL: usize = 4096;
/// Endpoints above this degree are not "localized": their 1-hop dirty
/// set would be hundreds of focal nodes.
const MAX_LOCAL_DEGREE: usize = 32;

/// The statement deck and update scripts of one `(seed, workload)`.
pub struct Deck {
    workload: Workload,
    n: usize,
    /// Shuffled offsets giving each op a unique focal bound.
    perm: Vec<usize>,
    /// Lower bounds of the statements repeated for result-cache hits.
    result_deck: Vec<usize>,
    /// Distinct non-edges of the base graph, each closing a triangle
    /// where the graph allows: the update scripts insert and later
    /// delete them in order.
    edges: Vec<(u32, u32)>,
}

/// A result-deck statement: one lower bound, so it can never equal a
/// (two-bound) view-shaped statement.
fn result_sql(lo: usize) -> String {
    format!(
        "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes \
         WHERE ID >= {lo} ORDER BY 2 DESC LIMIT 20"
    )
}

fn stream_seed(seed: u64, workload: Workload) -> u64 {
    // Fold the workload name in, so workloads draw independent streams.
    workload.name().bytes().fold(seed ^ 0x5eed_dec4, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Deck {
    pub fn new(workload: Workload, seed: u64, graph: &Graph) -> Deck {
        let n = graph.num_nodes();
        let mut rng = SplitMix64::new(stream_seed(seed, workload));
        let span = match workload {
            Workload::RouterScatter => n / 10,
            Workload::FullTable => FULL_TABLE_LIMITS,
            _ => n / 4,
        };
        let perm = rng.shuffled(span.max(1));
        let result_deck = (0..RESULT_DECK).map(|_| n / 4 + rng.below(n / 4)).collect();
        let edges = if workload.mutates() {
            triangle_closing_edges(graph, &mut rng)
        } else {
            Vec::new()
        };
        Deck {
            workload,
            n,
            perm,
            result_deck,
            edges,
        }
    }

    /// `(lo, hi)` of the `i`-th unique focal range: `lo` walks a
    /// shuffled span, and `hi` steps down once per lap so ranges stay
    /// unique however long a run lasts.
    fn unique_range(&self, i: usize, base: usize) -> (usize, usize) {
        let p = self.perm.len();
        (
            base + self.perm[i % p],
            self.n - 1 - (i / p) % (self.n / 8).max(1),
        )
    }

    /// A `WHERE` that keeps every node but makes the statement text
    /// unique, so the result cache misses while the focal set repeats.
    fn all_nodes_where(&self, i: usize) -> String {
        format!("WHERE ID < {}", self.n + 1 + i)
    }

    fn bounded_cold(&self, i: usize, base: usize, pattern: &'static str, k: u32) -> ReadOp {
        let (lo, hi) = self.unique_range(i, base);
        ReadOp {
            shape: Shape::Cold,
            sql: format!(
                "SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, {k})) FROM nodes \
                 WHERE ID >= {lo} AND ID <= {hi} ORDER BY 2 DESC LIMIT 20"
            ),
            pattern,
            k,
            lo,
            hi,
        }
    }

    fn hot(&self, i: usize) -> ReadOp {
        let round = i / 3;
        let n = self.n;
        match i % 3 {
            0 => {
                let lo = self.result_deck[round % RESULT_DECK];
                ReadOp {
                    shape: Shape::ResultHit,
                    sql: result_sql(lo),
                    pattern: "clq3_unlb",
                    k: 1,
                    lo,
                    hi: n - 1,
                }
            }
            1 => ReadOp {
                shape: Shape::CensusHit,
                sql: format!(
                    "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 1)) FROM nodes {} \
                     ORDER BY 2 DESC LIMIT 20",
                    self.all_nodes_where(round)
                ),
                pattern: "clq3",
                k: 1,
                lo: 0,
                hi: n - 1,
            },
            _ => ReadOp {
                shape: Shape::ViewHit,
                ..self.bounded_cold(round, n / 4, "clq3_unlb", 1)
            },
        }
    }

    /// The `i`-th read op of the workload.
    pub fn read(&self, i: usize) -> ReadOp {
        let n = self.n;
        match self.workload {
            // Focal sets of n/4..n/2 nodes: below the planner's
            // crossover (match list x pattern size, about 0.63 n here),
            // so every op runs the node-driven family. A range that
            // straddled it would make latency bimodal and its median
            // meaningless. Radius 2, so that traversal — not WHERE, sort
            // and encode — is nine tenths of the op.
            Workload::ColdCensus => self.bounded_cold(i, n / 2, "clq3_unlb", 2),
            // Few labeled matches: the planner goes pattern-driven at
            // any of these focal sizes.
            Workload::ColdSelective => self.bounded_cold(i, n / 4, "clq3", 1),
            Workload::HotTiers | Workload::ReadAfterWrite | Workload::UpdateStream => self.hot(i),
            Workload::FullTable => ReadOp {
                shape: Shape::FullTable,
                sql: format!(
                    "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes {} \
                     ORDER BY 2 DESC LIMIT {}",
                    self.all_nodes_where(i / FULL_TABLE_LIMITS),
                    n - self.perm[i % FULL_TABLE_LIMITS]
                ),
                pattern: "clq3_unlb",
                k: 1,
                lo: 0,
                hi: n - 1,
            },
            Workload::RouterScatter => {
                let p = self.perm.len();
                let lo = n / 5 + self.perm[i % p];
                // Exclusive upper bound mirrors `lo`, so both shards get
                // work and the merged reply has about n/2 rows.
                let end = n - lo - (i / p) % (n / 8).max(1);
                ReadOp {
                    shape: Shape::Scatter,
                    sql: format!(
                        "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes \
                         WHERE ID >= {lo} AND ID < {end}"
                    ),
                    pattern: "clq3_unlb",
                    k: 1,
                    lo,
                    hi: end - 1,
                }
            }
        }
    }

    fn edge(&self, j: usize) -> (u32, u32) {
        self.edges[j % self.edges.len()]
    }

    /// The script the set-up applies once, so that every later script
    /// has an earlier insert to delete.
    pub fn priming_script(&self) -> String {
        (0..DELETE_LAG)
            .map(|j| {
                let (a, b) = self.edge(j);
                format!("INSERT EDGE ({a}, {b})")
            })
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// The `i`-th two-edge update script: one localized insert, and the
    /// delete of the insert made `DELETE_LAG` scripts earlier.
    pub fn update(&self, i: usize) -> String {
        let (a, b) = self.edge(i + DELETE_LAG);
        let (c, d) = self.edge(i);
        format!("INSERT EDGE ({a}, {b}); DELETE EDGE ({c}, {d})")
    }

    /// Edges present on top of the base graph after the priming script
    /// and scripts `0..applied`.
    pub fn live_edges(&self, applied: usize) -> Vec<(u32, u32)> {
        (applied..applied + DELETE_LAG)
            .map(|j| self.edge(j))
            .collect()
    }

    /// Requests the set-up sends before any op is timed: pins, standing
    /// queries and the first touch of every cache the workload reads.
    /// `Subscribe` and the priming `Update` go out on the connection
    /// that later sends the updates.
    pub fn warmup(&self) -> Vec<Request> {
        let query = |sql: String| Request::Query { sql, shard: None };
        let whole = |pattern: &str, k: u32| {
            query(format!(
                "SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, {k})) FROM nodes {} \
                 ORDER BY 2 DESC LIMIT 1",
                self.all_nodes_where(0)
            ))
        };
        let low_ids = |pattern: &str, k: u32| {
            query(format!(
                "SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, {k})) FROM nodes WHERE ID < {} \
                 ORDER BY 2 DESC LIMIT 20",
                self.n / 8
            ))
        };
        // Update workloads pin the view WITH its match list, as a
        // deployment that expects writes would: refresh is then
        // |delta|-scaled match-list maintenance instead of a global
        // re-match on every update.
        let hot_tiers = |view: &str| {
            let mut reqs = vec![
                Request::Materialize {
                    sql: view.into(),
                    shard: None,
                },
                whole("clq3", 1),
            ];
            reqs.extend(self.result_deck.iter().map(|&lo| query(result_sql(lo))));
            reqs
        };
        match self.workload {
            // First touch of the pattern's match list, over a focal range
            // below every timed one, so no timed op repeats it.
            Workload::ColdCensus => vec![low_ids("clq3_unlb", 2)],
            Workload::ColdSelective => vec![low_ids("clq3", 1)],
            Workload::RouterScatter => vec![query(format!(
                "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < {}",
                self.n / 8
            ))],
            Workload::HotTiers => hot_tiers("MATERIALIZE clq3_unlb RADIUS 1"),
            Workload::FullTable => vec![whole("clq3_unlb", 1)],
            Workload::UpdateStream | Workload::ReadAfterWrite => {
                let mut reqs = hot_tiers("MATERIALIZE clq3_unlb RADIUS 1 MATCHES");
                reqs.push(Request::Subscribe {
                    sql: STANDING_QUERY.into(),
                    shard: None,
                });
                reqs.push(Request::Update {
                    mutations: self.priming_script(),
                });
                reqs
            }
        }
    }
}

/// A pool of distinct non-edges `(a, b)` with low-degree endpoints. Where
/// possible `b` is a neighbor's neighbor of `a`, so the insert closes a
/// triangle and the pinned triangle view and the standing query have
/// rows to refresh and push.
fn triangle_closing_edges(graph: &Graph, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let n = graph.num_nodes();
    let local = |v: NodeId| graph.degree(v) <= MAX_LOCAL_DEGREE;
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut edges = Vec::with_capacity(EDGE_POOL);
    // Small graphs cannot supply a full pool; the scripts wrap around
    // whatever there is (the lag keeps a wrapped insert valid).
    let want = EDGE_POOL.min(n * 2);
    let mut tries = 0usize;
    while edges.len() < want && tries < want * 64 {
        tries += 1;
        let a = NodeId((n / 2 + rng.below(n - n / 2)) as u32);
        let via = graph.neighbors(a);
        if via.is_empty() || !local(a) {
            continue;
        }
        let x = via[rng.below(via.len())];
        let far = graph.neighbors(x);
        let mut b = far[rng.below(far.len())];
        if tries.is_multiple_of(4) || !local(b) {
            // Every fourth edge, and whenever the two-hop pick is a hub,
            // fall back to a uniform partner: not every update closes a
            // triangle in real traffic either.
            b = NodeId((n / 2 + rng.below(n - n / 2)) as u32);
        }
        if a == b || !local(b) || graph.has_undirected_edge(a, b) {
            continue;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        if seen.insert(key) {
            edges.push(key);
        }
    }
    assert!(
        edges.len() > 2 * DELETE_LAG,
        "graph too small or dense for an update stream"
    );
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scale, GRAPH_FINGERPRINT};
    use ego_dynamic::DeltaGraph;
    use std::sync::Arc;

    fn small() -> Graph {
        make_graph(Scale::SMOKE.nodes)
    }

    fn transcript(deck: &Deck) -> Vec<String> {
        let mut lines: Vec<String> = (0..200).map(|i| deck.read(i).sql).collect();
        lines.extend(deck.warmup().iter().map(Request::encode));
        lines
    }

    #[test]
    fn the_full_scale_graph_is_pinned() {
        let g = make_graph(Scale::FULL.nodes);
        assert_eq!(g.num_nodes(), 10_000);
        assert_eq!(g.num_labels(), 4);
        assert_eq!(g.fingerprint(), GRAPH_FINGERPRINT, "input drift");
    }

    #[test]
    fn decks_are_a_pure_function_of_seed_and_workload() {
        let g = small();
        for w in Workload::ALL {
            let a = transcript(&Deck::new(w, 7, &g));
            assert_eq!(a, transcript(&Deck::new(w, 7, &g)), "{w:?}");
            assert_ne!(a, transcript(&Deck::new(w, 8, &g)), "{w:?}");
        }
        let scripts = |seed| {
            let deck = Deck::new(Workload::UpdateStream, seed, &g);
            (0..50).map(|i| deck.update(i)).collect::<Vec<_>>()
        };
        assert_eq!(scripts(7), scripts(7));
        assert_ne!(scripts(7), scripts(8));
        // Workloads draw independent streams from one seed.
        let offsets = |w: Workload, base: usize| {
            let deck = Deck::new(w, 7, &g);
            (0..10).map(|i| deck.read(i).lo - base).collect::<Vec<_>>()
        };
        let n = g.num_nodes();
        assert_ne!(
            offsets(Workload::ColdCensus, n / 2),
            offsets(Workload::ColdSelective, n / 4)
        );
    }

    #[test]
    fn cold_and_scatter_ops_never_repeat_a_focal_range() {
        let g = small();
        for w in [
            Workload::ColdCensus,
            Workload::ColdSelective,
            Workload::RouterScatter,
        ] {
            let deck = Deck::new(w, 3, &g);
            let mut seen = HashSet::new();
            // Several laps of the shuffled span.
            for i in 0..g.num_nodes() {
                let op = deck.read(i);
                assert!(op.lo <= op.hi && op.hi < g.num_nodes(), "{w:?} op {i}");
                assert!(seen.insert((op.lo, op.hi)), "{w:?} repeats at op {i}");
            }
        }
    }

    #[test]
    fn hot_shapes_rotate_and_only_the_result_deck_repeats() {
        let g = small();
        let deck = Deck::new(Workload::HotTiers, 3, &g);
        let mut distinct = HashSet::new();
        for i in 0..600 {
            let op = deck.read(i);
            let want = [Shape::ResultHit, Shape::CensusHit, Shape::ViewHit][i % 3];
            assert_eq!(op.shape, want);
            if op.shape != Shape::ResultHit {
                assert!(distinct.insert(op.sql.clone()), "op {i} repeats");
            }
        }
        let warm: Vec<String> = deck.warmup().iter().map(Request::encode).collect();
        let result_op = Request::Query {
            sql: deck.read(0).sql,
            shard: None,
        }
        .encode();
        assert!(warm.contains(&result_op), "result deck is warmed");
    }

    #[test]
    fn every_update_script_inserts_and_deletes_for_real() {
        let g = Arc::new(small());
        let deck = Deck::new(Workload::UpdateStream, 11, &g);
        let edges = g.num_edges();
        let apply = |delta: &mut DeltaGraph, script: &str| {
            for stmt in ego_query::parse_mutations(script).expect("script parses") {
                let (a, b) = (NodeId(stmt.a), NodeId(stmt.b));
                let changed = match stmt.kind {
                    ego_query::MutationKind::InsertEdge => delta.insert_edge(a, b),
                    ego_query::MutationKind::DeleteEdge => delta.delete_edge(a, b),
                }
                .expect("valid mutation");
                assert!(changed, "no-op mutation in `{script}`");
            }
        };
        let mut delta = DeltaGraph::new(g.clone());
        apply(&mut delta, &deck.priming_script());
        assert_eq!(delta.num_edges(), edges + DELETE_LAG);
        // Far enough to wrap the edge pool at smoke scale.
        for i in 0..2_000 {
            apply(&mut delta, &deck.update(i));
            assert_eq!(delta.num_edges(), edges + DELETE_LAG, "size is stationary");
        }
        let mut live: Vec<(u32, u32)> = delta.added().map(|(a, b)| (a.0, b.0)).collect();
        let mut want = deck.live_edges(2_000);
        live.sort_unstable();
        want.sort_unstable();
        assert_eq!(live, want);
    }
}
