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
//! ```
//! use ego_census::{run_census, Algorithm, CensusSpec};
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
//! let counts = run_census(&g, &spec, Algorithm::NdPivot).unwrap();
//! assert_eq!(counts.get(NodeId(2)), 2);
//! assert_eq!(counts.get(NodeId(4)), 1);
//! ```

pub mod batch;
pub mod bucket_queue;
pub mod centers;
pub mod clustering;
pub mod cost;
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

pub use batch::{plan_stages, run_batch, run_batch_exec, BatchResult, BatchStage};
pub use centers::{CenterIndex, CenterStrategy};
pub use pairwise::{
    run_pair_census, run_pair_census_with, PairCensusSpec, PairCounts, PairKind, PairSelector,
};
pub use parallel::{
    exec_matches, run_census_exec, run_census_exec_instrumented, run_pair_census_exec, ExecConfig,
};
pub use result::{CensusError, CountVector};
pub use spec::{CensusSpec, Clustering, FocalNodes, PtConfig, PtOrdering};
pub use tstats::TraversalStats;

use ego_graph::Graph;
use ego_matcher::{find_matches, MatchList, MatcherKind};

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

/// Run a single-node census query (`COUNTP`/`COUNTSP` over `SUBGRAPH`).
pub fn run_census(
    g: &Graph,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
) -> Result<CountVector, CensusError> {
    run_census_with(g, spec, algorithm, &PtConfig::default())
}

/// [`run_census`] with explicit pattern-driven tuning parameters: the
/// single-threaded case of [`run_census_exec`], whose drivers run the
/// sequential algorithms unchanged at one thread.
pub fn run_census_with(
    g: &Graph,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
) -> Result<CountVector, CensusError> {
    run_census_exec(g, spec, algorithm, config, &ExecConfig::sequential())
}

/// Find all distinct matches of a pattern in the full graph (the common
/// first step of ND-PVOT, ND-DIFF, and all pattern-driven algorithms).
pub fn global_matches(g: &Graph, p: &ego_pattern::Pattern) -> MatchList {
    find_matches(g, p, MatcherKind::CandidateNeighbors)
}
