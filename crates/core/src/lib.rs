//! # ego-census
//!
//! Ego-centric pattern census query evaluation (Section IV of the paper).
//!
//! A census query counts, for every focal node `n`, the number of distinct
//! matches of a pattern `P` that fall inside `n`'s `k`-hop neighborhood
//! `S(n, k)` — or, for pairwise queries, inside the intersection/union of
//! two nodes' neighborhoods. Six algorithms are provided:
//!
//! | Algorithm | Paper name | Strategy |
//! |---|---|---|
//! | [`Algorithm::NdBaseline`] | ND-BAS | extract `S(n,k)` per node, match inside it |
//! | [`Algorithm::NdPivot`]    | ND-PVOT | global match + pivot index + distance shortcuts |
//! | [`Algorithm::NdDiff`]     | ND-DIFF | differential counting along a node chain |
//! | [`Algorithm::PtBaseline`] | PT-BAS | per-match BFS from every match node |
//! | [`Algorithm::PtRandom`]   | PT-RND | PT-OPT minus best-first ordering |
//! | [`Algorithm::PtOpt`]      | PT-OPT | simultaneous traversal + shortcuts + best-first + centers + clustering |
//!
//! Node-driven algorithms process each focal node once but may touch a
//! match many times; pattern-driven algorithms process each match once but
//! may touch a node many times — the duality the evaluation explores.
//!
//! Every census runs through one call, [`run`]: a [`Job`] names the
//! census ([`Census::Single`], [`Census::Batch`] or [`Census::Pair`]),
//! the algorithm, and anything the caller already holds; the [`Outcome`]
//! carries the counts, the traversal statistics, and the match lists and
//! center index the run used or built.
//!
//! ```
//! use ego_census::{run, Algorithm, Census, CensusSpec, Job};
//! use ego_graph::{GraphBuilder, Label, NodeId};
//! use ego_pattern::Pattern;
//!
//! let mut b = GraphBuilder::undirected();
//! b.add_nodes(5, Label(0));
//! for (x, y) in [(0u32, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
//!     b.add_edge(NodeId(x), NodeId(y));
//! }
//! let g = b.build();
//! let tri = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
//!
//! let spec = CensusSpec::single(&tri, 1);
//! let outcome = run(&g, &Job::new(Census::Single(&spec), Algorithm::NdPivot)).unwrap();
//! let counts = &outcome.counts[0];
//! assert_eq!(counts.get(NodeId(2)), 2);
//! assert_eq!(counts.get(NodeId(4)), 1);
//! assert_eq!(outcome.matches[0].as_ref().unwrap().len(), 2);
//! ```

pub mod batch;
pub mod bucket_queue;
pub mod centers;
pub mod clustering;
pub mod cost;
pub mod job;
pub mod kmeans;
pub mod nd_bas;
pub mod nd_diff;
pub mod nd_pivot;
pub mod pairwise;
pub mod parallel;
pub mod pt_bas;
pub mod pt_opt;
pub mod result;
pub mod spec;
pub mod topk;
pub mod tstats;

pub use batch::{plan_stages, BatchStage};
pub use centers::{CenterIndex, CenterStrategy};
pub use cost::Census;
pub use job::{run, Job, Outcome};
pub use pairwise::{PairCensusSpec, PairCounts, PairKind, PairSelector};
pub use parallel::{exec_matches, ExecConfig};
pub use result::{CensusError, CountVector};
pub use spec::{CensusSpec, Clustering, FocalNodes, PtConfig, PtOrdering};
pub use tstats::TraversalStats;

use ego_graph::Graph;
use ego_matcher::MatchList;

/// Which census evaluation algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// ND-BAS: extract each focal node's neighborhood subgraph and run the
    /// matcher inside it. Quadratic-ish; the paper's strawman.
    NdBaseline,
    /// ND-PVOT: the proposed node-driven algorithm (Algorithm 2).
    NdPivot,
    /// ND-DIFF: differential counting (Algorithm 3).
    NdDiff,
    /// PT-BAS: the pattern-driven baseline.
    PtBaseline,
    /// PT-RND: PT-OPT with random instead of best-first ordering.
    PtRandom,
    /// PT-OPT: the fully optimized pattern-driven algorithm (Algorithm 4).
    PtOpt,
    /// The cheapest algorithm the kernels accept, priced by [`cost`]
    /// (Section V's guidance: pattern-driven wins for selective patterns).
    Auto,
}

/// A single census's counts and traversal statistics: [`run`] on a
/// [`Census::Single`] job.
pub fn run_census_exec_instrumented(
    g: &Graph,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> Result<(CountVector, TraversalStats), CensusError> {
    let job = Job {
        config: config.clone(),
        exec: *exec,
        ..Job::new(Census::Single(spec), algorithm)
    };
    run(g, &job).map(|mut out| (out.counts.remove(0), out.stats))
}

/// Find all distinct matches of a pattern in the full graph on one
/// thread (the common first step of every algorithm but ND-BAS).
pub fn global_matches(g: &Graph, p: &ego_pattern::Pattern) -> MatchList {
    exec_matches(g, p, 1)
}
