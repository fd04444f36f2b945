//! Graph statistics for the cost-based planner, plus the planner's
//! bookkeeping counters.
//!
//! `ANALYZE` samples a degree/label/triangle profile of the graph into a
//! [`GraphStats`] snapshot, persisted as a text sidecar next to the graph
//! file (`graph.egb` → `graph.egb.stats`) and keyed by the graph
//! fingerprint so stale statistics are detected, reported, and ignored.
//! The optimizer's algorithm-selection pass prices algorithms with a
//! snapshot's `(n, d̄)` and match estimates through
//! [`ego_census::cost`], the function the census core prices `Auto`
//! with; without a snapshot it falls back to a cheap structural
//! heuristic.

use crate::error::QueryError;
use crate::table::Table;
use crate::value::Value;
use ego_census::cost::GraphShape;
use ego_graph::{stats as gstats, Graph, NodeId};
use ego_pattern::Pattern;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Shared slot holding the latest `ANALYZE` snapshot. Server sessions
/// point their engines at one slot so an `analyze` on any connection
/// feeds every session's planner immediately.
pub type StatsSlot = Arc<RwLock<Option<Arc<GraphStats>>>>;

/// How many nodes `ANALYZE` samples for clustering/triangle profiles.
pub const ANALYZE_SAMPLE: usize = 256;

/// Sidecar format version (first line: `egostats v<N>`).
const STATS_VERSION: u32 = 1;

/// A sampled statistical profile of one graph, keyed by its fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// [`Graph::fingerprint`] of the profiled graph; a mismatch against
    /// the live graph marks this snapshot stale.
    pub fingerprint: u64,
    /// Node count.
    pub num_nodes: usize,
    /// Edge count.
    pub num_edges: usize,
    /// Directed graph?
    pub directed: bool,
    /// Distinct label count.
    pub num_labels: u16,
    /// Maximum (undirected-view) degree.
    pub max_degree: usize,
    /// Mean degree `2m/n` (or `m/n` directed inputs still traverse the
    /// undirected view, so the undirected mean is what matters).
    pub avg_degree: f64,
    /// Mean squared degree `E[d²]`, exact from the degree histogram.
    /// Captures degree skew: the match estimator branches by the mean
    /// excess degree `E[d²]/E[d] − 1`, which on hub-heavy graphs is far
    /// larger than `d̄` (and is what makes their match lists big).
    pub avg_sq_degree: f64,
    /// 90th-percentile degree, from the exact degree histogram.
    pub degree_p90: usize,
    /// Mean local clustering coefficient over the sample (exact when
    /// `sample_size == num_nodes`). The heuristic fallback substitutes a
    /// density proxy here.
    pub avg_clustering: f64,
    /// Mean per-node triangle count over the sample.
    pub avg_triangles: f64,
    /// How many nodes the clustering/triangle sample covered; `0` marks
    /// a heuristic (non-`ANALYZE`) profile.
    pub sample_size: usize,
}

impl GraphStats {
    /// Profile a graph: exact degree statistics (one `O(n)` pass) plus
    /// clustering/triangle counts over a deterministic evenly-strided
    /// sample of at most [`ANALYZE_SAMPLE`] nodes. Deterministic: equal
    /// graphs produce byte-equal profiles on every host.
    pub fn analyze(g: &Graph) -> GraphStats {
        let n = g.num_nodes();
        let mut s = Self::heuristic(g);
        let sample = n.min(ANALYZE_SAMPLE);
        if sample > 0 {
            // Even stride over the node-id range; deterministic and
            // insensitive to storage order.
            let mut cl = 0.0f64;
            let mut tri = 0.0f64;
            for i in 0..sample {
                let node = NodeId(((i * n) / sample) as u32);
                cl += gstats::local_clustering(g, node);
                tri += gstats::local_triangles(g, node) as f64;
            }
            s.avg_clustering = cl / sample as f64;
            s.avg_triangles = tri / sample as f64;
        }
        s.sample_size = sample;
        s
    }

    /// A cheap structural profile used when no `ANALYZE` snapshot is
    /// available (or the available one is stale): exact counts and
    /// degree histogram, with edge density standing in for the sampled
    /// clustering coefficient. `sample_size == 0` tags the result so
    /// the planner can report `heuristic` rather than `cost-model`.
    pub fn heuristic(g: &Graph) -> GraphStats {
        let n = g.num_nodes();
        let hist = gstats::degree_histogram(g);
        let total_degree: usize = hist.iter().enumerate().map(|(d, c)| d * c).sum();
        let total_sq_degree: usize = hist.iter().enumerate().map(|(d, c)| d * d * c).sum();
        let avg_degree = if n == 0 {
            0.0
        } else {
            total_degree as f64 / n as f64
        };
        let avg_sq_degree = if n == 0 {
            0.0
        } else {
            total_sq_degree as f64 / n as f64
        };
        // Density proxy: d̄/(n-1) is 1.0 on a clique and ~0 on a path,
        // which is the distinction the ND-vs-PT crossover needs.
        let density = if n > 1 {
            (avg_degree / (n - 1) as f64).min(1.0)
        } else {
            0.0
        };
        GraphStats {
            fingerprint: g.fingerprint(),
            num_nodes: n,
            num_edges: g.num_edges(),
            directed: g.is_directed(),
            num_labels: g.num_labels(),
            max_degree: hist.len().saturating_sub(1),
            avg_degree,
            avg_sq_degree,
            degree_p90: percentile(&hist, 0.90),
            avg_clustering: density,
            avg_triangles: 0.0,
            sample_size: 0,
        }
    }

    /// True when this snapshot does not describe the given live graph.
    pub fn is_stale(&self, live_fingerprint: u64) -> bool {
        self.fingerprint != live_fingerprint
    }

    /// The `(n, d̄)` the cost model ([`ego_census::cost`]) prices with.
    pub fn shape(&self) -> GraphShape {
        GraphShape {
            num_nodes: self.num_nodes,
            avg_degree: self.avg_degree,
        }
    }

    /// Expected global match-list length for a pattern: `n` anchor
    /// choices, `d̄` for the first spanning-tree edge, then one mean
    /// excess-degree factor (`E[d²]/E[d] − 1`, the configuration-model
    /// branching rate) per further spanning edge, and one clustering
    /// factor per closing edge (the same shape as the paper's Fig-4
    /// crossover inputs). The excess-degree branching matters on
    /// degree-skewed graphs: a BA graph's wedge count is driven by
    /// `E[d²]`, and pricing it by `d̄²` undercounts matches by orders of
    /// magnitude, which mis-picks PT in exactly the dense hub-heavy
    /// regime ND wins.
    pub fn est_matches(&self, pattern: &Pattern) -> f64 {
        let v = pattern.num_nodes();
        let e = pattern.positive_edges().len();
        let n = self.num_nodes as f64;
        let d = self.avg_degree.max(1.0);
        // Legacy sidecars predate the second moment; fall back to d̄.
        let q = if self.avg_sq_degree > 0.0 {
            (self.avg_sq_degree / d - 1.0).max(1.0)
        } else {
            d
        };
        // A clustering coefficient of exactly 0 would zero every cyclic
        // pattern's estimate; keep a floor so costs stay ordered.
        let c = self.avg_clustering.clamp(1e-3, 1.0);
        let spanning = e.min(v.saturating_sub(1));
        let closing = e - spanning;
        let branch = if spanning == 0 {
            1.0
        } else {
            d * q.powi(spanning as i32 - 1)
        };
        n * branch * c.powi(closing as i32)
    }

    /// The sidecar path for a graph file: the full file name plus a
    /// `.stats` suffix (`g.egb` → `g.egb.stats`), so text and binary
    /// forms of the same graph keep distinct snapshots.
    pub fn sidecar_path(graph_path: &Path) -> PathBuf {
        let mut os = graph_path.as_os_str().to_os_string();
        os.push(".stats");
        PathBuf::from(os)
    }

    /// Serialize as the text sidecar format (line-oriented `key value`;
    /// floats printed with Rust's shortest-roundtrip formatter, so
    /// load(save(s)) == s exactly).
    pub fn to_sidecar(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("egostats v{STATS_VERSION}\n"));
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("num_nodes {}\n", self.num_nodes));
        out.push_str(&format!("num_edges {}\n", self.num_edges));
        out.push_str(&format!("directed {}\n", self.directed));
        out.push_str(&format!("num_labels {}\n", self.num_labels));
        out.push_str(&format!("max_degree {}\n", self.max_degree));
        out.push_str(&format!("avg_degree {}\n", self.avg_degree));
        out.push_str(&format!("avg_sq_degree {}\n", self.avg_sq_degree));
        out.push_str(&format!("degree_p90 {}\n", self.degree_p90));
        out.push_str(&format!("avg_clustering {}\n", self.avg_clustering));
        out.push_str(&format!("avg_triangles {}\n", self.avg_triangles));
        out.push_str(&format!("sample_size {}\n", self.sample_size));
        out
    }

    /// Parse the text sidecar format. Unknown keys are ignored (forward
    /// compatibility); missing required keys or malformed values error.
    pub fn from_sidecar(text: &str) -> Result<GraphStats, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == format!("egostats v{STATS_VERSION}") => {}
            Some(h) => return Err(format!("unsupported stats header `{}`", h.trim())),
            None => return Err("empty stats sidecar".into()),
        }
        let mut s = GraphStats {
            fingerprint: 0,
            num_nodes: 0,
            num_edges: 0,
            directed: false,
            num_labels: 0,
            max_degree: 0,
            avg_degree: 0.0,
            avg_sq_degree: 0.0,
            degree_p90: 0,
            avg_clustering: 0.0,
            avg_triangles: 0.0,
            sample_size: 0,
        };
        let mut have_fp = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("malformed stats line `{line}`"))?;
            let value = value.trim();
            let bad = |k: &str| format!("bad value for `{k}`: `{value}`");
            match key {
                "fingerprint" => {
                    s.fingerprint = u64::from_str_radix(value, 16).map_err(|_| bad(key))?;
                    have_fp = true;
                }
                "num_nodes" => s.num_nodes = value.parse().map_err(|_| bad(key))?,
                "num_edges" => s.num_edges = value.parse().map_err(|_| bad(key))?,
                "directed" => s.directed = value.parse().map_err(|_| bad(key))?,
                "num_labels" => s.num_labels = value.parse().map_err(|_| bad(key))?,
                "max_degree" => s.max_degree = value.parse().map_err(|_| bad(key))?,
                "avg_degree" => s.avg_degree = value.parse().map_err(|_| bad(key))?,
                "avg_sq_degree" => s.avg_sq_degree = value.parse().map_err(|_| bad(key))?,
                "degree_p90" => s.degree_p90 = value.parse().map_err(|_| bad(key))?,
                "avg_clustering" => s.avg_clustering = value.parse().map_err(|_| bad(key))?,
                "avg_triangles" => s.avg_triangles = value.parse().map_err(|_| bad(key))?,
                "sample_size" => s.sample_size = value.parse().map_err(|_| bad(key))?,
                _ => {} // forward compatibility
            }
        }
        if !have_fp {
            return Err("stats sidecar missing `fingerprint`".into());
        }
        Ok(s)
    }

    /// Write the sidecar next to a graph file.
    pub fn save(&self, path: &Path) -> Result<(), QueryError> {
        std::fs::write(path, self.to_sidecar())
            .map_err(|e| QueryError::Semantic(format!("cannot write {}: {e}", path.display())))
    }

    /// Load a sidecar; `Ok(None)` when the file does not exist, `Err`
    /// when it exists but cannot be parsed.
    pub fn load(path: &Path) -> Result<Option<GraphStats>, QueryError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(QueryError::Semantic(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
        };
        Self::from_sidecar(&text)
            .map(Some)
            .map_err(|e| QueryError::Semantic(format!("bad stats sidecar {}: {e}", path.display())))
    }

    /// Render as the two-column key/value table `ANALYZE` returns.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["statistic".into(), "value".into()]);
        let mut row = |k: &str, v: Value| t.push_row(vec![Value::Str(k.into()), v]);
        row(
            "fingerprint",
            Value::Str(format!("{:016x}", self.fingerprint)),
        );
        row("num_nodes", Value::Int(self.num_nodes as i64));
        row("num_edges", Value::Int(self.num_edges as i64));
        row("directed", Value::Bool(self.directed));
        row("num_labels", Value::Int(self.num_labels as i64));
        row("max_degree", Value::Int(self.max_degree as i64));
        row("avg_degree", Value::Float(self.avg_degree));
        row("avg_sq_degree", Value::Float(self.avg_sq_degree));
        row("degree_p90", Value::Int(self.degree_p90 as i64));
        row("avg_clustering", Value::Float(self.avg_clustering));
        row("avg_triangles", Value::Float(self.avg_triangles));
        row("sample_size", Value::Int(self.sample_size as i64));
        t
    }
}

/// The p-th percentile degree from a degree histogram.
fn percentile(hist: &[usize], p: f64) -> usize {
    let total: usize = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * p).ceil() as usize;
    let mut seen = 0usize;
    for (d, c) in hist.iter().enumerate() {
        seen += c;
        if seen >= target {
            return d;
        }
    }
    hist.len().saturating_sub(1)
}

/// Process-wide planner counters, shared across sessions by the server
/// and merged across workers by the shard router's default sum rule.
#[derive(Debug, Default)]
pub struct PlannerCounters {
    /// Optimized plans produced (statements + scripts).
    pub plans_built: AtomicU64,
    /// Optimizer passes that actually rewrote or annotated a plan.
    pub passes_fired: AtomicU64,
    /// Algorithm selections backed by a fresh `ANALYZE` snapshot.
    pub cost_model_hits: AtomicU64,
    /// Algorithm selections that fell back to the structural heuristic
    /// (no snapshot, or a stale one).
    pub heuristic_fallbacks: AtomicU64,
}

impl PlannerCounters {
    /// Sorted `(name, value)` rows for a stats table.
    pub fn snapshot(&self) -> [(&'static str, u64); 4] {
        [
            (
                "planner_cost_model_hits",
                self.cost_model_hits.load(Ordering::Relaxed),
            ),
            (
                "planner_heuristic_fallbacks",
                self.heuristic_fallbacks.load(Ordering::Relaxed),
            ),
            (
                "planner_passes_fired",
                self.passes_fired.load(Ordering::Relaxed),
            ),
            (
                "planner_plans_built",
                self.plans_built.load(Ordering::Relaxed),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};

    fn clique(n: u32) -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(n as usize, Label(0));
        for x in 0..n {
            for y in (x + 1)..n {
                b.add_edge(ego_graph::NodeId(x), ego_graph::NodeId(y));
            }
        }
        b.build()
    }

    fn path(n: u32) -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(n as usize, Label(0));
        for x in 0..n - 1 {
            b.add_edge(ego_graph::NodeId(x), ego_graph::NodeId(x + 1));
        }
        b.build()
    }

    #[test]
    fn analyze_profiles_exactly_on_small_graphs() {
        let g = clique(6);
        let s = GraphStats::analyze(&g);
        assert_eq!(s.num_nodes, 6);
        assert_eq!(s.num_edges, 15);
        assert_eq!(s.max_degree, 5);
        assert_eq!(s.sample_size, 6);
        assert!((s.avg_degree - 5.0).abs() < 1e-9);
        assert!(
            (s.avg_clustering - 1.0).abs() < 1e-9,
            "{}",
            s.avg_clustering
        );
        assert!(!s.is_stale(g.fingerprint()));
        assert!(s.is_stale(g.fingerprint() ^ 1));

        let p = GraphStats::analyze(&path(10));
        assert!(p.avg_clustering < 0.01, "{}", p.avg_clustering);
        assert_eq!(p.avg_triangles, 0.0);
    }

    #[test]
    fn heuristic_density_separates_clique_from_path() {
        let dense = GraphStats::heuristic(&clique(8));
        let sparse = GraphStats::heuristic(&path(40));
        assert_eq!(dense.sample_size, 0);
        assert!((dense.avg_clustering - 1.0).abs() < 1e-9);
        assert!(sparse.avg_clustering < 0.06, "{}", sparse.avg_clustering);
    }

    #[test]
    fn sidecar_roundtrip_is_exact() {
        let s = GraphStats::analyze(&clique(7));
        let text = s.to_sidecar();
        let back = GraphStats::from_sidecar(&text).unwrap();
        assert_eq!(back, s);
        // Unknown keys tolerated, bad header and bad values rejected.
        assert!(GraphStats::from_sidecar(&format!("{text}future_key 1\n")).is_ok());
        assert!(GraphStats::from_sidecar("egostats v9\n").is_err());
        assert!(GraphStats::from_sidecar("egostats v1\nnum_nodes x\n").is_err());
        assert!(GraphStats::from_sidecar("egostats v1\nnum_nodes 3\n").is_err());
    }

    #[test]
    fn sidecar_path_appends_suffix() {
        assert_eq!(
            GraphStats::sidecar_path(Path::new("/tmp/g.egb")),
            PathBuf::from("/tmp/g.egb.stats")
        );
        assert_eq!(
            GraphStats::sidecar_path(Path::new("g.graph")),
            PathBuf::from("g.graph.stats")
        );
    }

    #[test]
    fn est_matches_tracks_degree_skew() {
        // Star: the wedge count is C(199,2) ≈ 19.7K, driven entirely by
        // the hub's second degree moment; a d̄²-based estimate (~800)
        // misses it by 25x and would mis-price the ND-vs-PT crossover
        // on any hub-heavy graph.
        let mut b = GraphBuilder::undirected();
        b.add_nodes(200, Label(0));
        for x in 1..200u32 {
            b.add_edge(ego_graph::NodeId(0), ego_graph::NodeId(x));
        }
        let s = GraphStats::analyze(&b.build());
        let wedge = Pattern::parse("PATTERN w { ?A-?B; ?B-?C; ?A!-?C; }").unwrap();
        let est = s.est_matches(&wedge);
        assert!(est > 10_000.0, "{est}");
        // The uniform-degree path has no skew: excess degree ~1 keeps
        // the estimate near n·d̄.
        let p = GraphStats::analyze(&path(100));
        let est = p.est_matches(&wedge);
        assert!(est < 2.5 * p.num_nodes as f64 * p.avg_degree, "{est}");
    }

    #[test]
    fn counters_snapshot_rows_are_sorted() {
        let c = PlannerCounters::default();
        c.plans_built.fetch_add(3, Ordering::Relaxed);
        let rows = c.snapshot();
        let mut names: Vec<&str> = rows.iter().map(|(n, _)| *n).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(names, sorted);
        names.retain(|n| n.starts_with("planner_"));
        assert_eq!(names.len(), 4);
        assert_eq!(rows[3], ("planner_plans_built", 3));
    }
}
