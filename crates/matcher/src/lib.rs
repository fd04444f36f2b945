//! # ego-matcher
//!
//! Subgraph pattern matching (Section III of the paper).
//!
//! Two exact matchers over the same candidate-filtering front end:
//!
//! * [`cn`] — the paper's algorithm (Algorithm 1), built around explicitly
//!   maintained **candidate neighbor sets** `CN(n, v, v')`: neighbors of a
//!   candidate `n` for pattern node `v` that can match `v`'s pattern
//!   neighbor `v'`. Candidate sets and candidate-neighbor sets are pruned
//!   simultaneously to a fixpoint, then matches are extracted by
//!   intersecting the (small) candidate-neighbor sets along a
//!   connected-prefix order. [`cn::enumerate`] takes a thread count;
//!   its embeddings, order included, are the same at every count.
//! * [`gql`] — a GraphQL-style baseline in the spirit of He & Singh
//!   (SIGMOD 2008): profile filtering plus *semi-perfect matching*
//!   refinement (a bipartite-matching feasibility check between pattern
//!   neighbors and candidate neighbors), followed by backtracking search
//!   that scans full candidate sets at every extension — precisely the
//!   cost the paper's CN sets avoid.
//!
//! Both enumerate **embeddings** (variable assignments). The paper counts
//! *matches* — distinct subgraphs — so [`find_matches`] deduplicates
//! embeddings by the pattern's automorphism group.
//!
//! ```
//! use ego_graph::{GraphBuilder, Label, NodeId};
//! use ego_matcher::{find_matches, MatcherKind};
//! use ego_pattern::Pattern;
//!
//! let mut b = GraphBuilder::undirected();
//! b.add_nodes(4, Label(0));
//! for (x, y) in [(0u32, 1), (1, 2), (0, 2), (2, 3)] {
//!     b.add_edge(NodeId(x), NodeId(y));
//! }
//! let g = b.build();
//! let tri = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
//!
//! let matches = find_matches(&g, &tri, MatcherKind::CandidateNeighbors);
//! assert_eq!(matches.len(), 1); // one triangle, not six embeddings
//! ```

pub mod bipartite;
pub mod candidates;
pub mod cn;
pub mod filter;
pub mod gql;
pub mod matches;
pub mod spath;
pub mod stats;

pub use matches::{MatchList, PatternMatch};
pub use stats::MatchStats;

use ego_graph::{Graph, NodeId};
use ego_pattern::Pattern;

/// Which matching algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatcherKind {
    /// The paper's candidate-neighbor algorithm (Algorithm 1). Default.
    CandidateNeighbors,
    /// The GraphQL-style baseline (profiles + semi-perfect matching +
    /// candidate-set scans).
    GqlStyle,
    /// SPath-style: d-bounded neighborhood-signature filtering (the
    /// related-work comparator the paper lists as future work) with
    /// GQL-style extraction.
    SPathStyle,
}

/// Enumerate all embeddings of `p` in `g` (variable assignments
/// `assignment[v.index()] = image`). Embeddings related by pattern
/// automorphisms are all reported.
pub fn find_embeddings(g: &Graph, p: &Pattern, kind: MatcherKind) -> Vec<Vec<NodeId>> {
    let mut stats = MatchStats::default();
    find_embeddings_with_stats(g, p, kind, &mut stats)
}

/// [`find_embeddings`] with instrumentation.
pub fn find_embeddings_with_stats(
    g: &Graph,
    p: &Pattern,
    kind: MatcherKind,
    stats: &mut MatchStats,
) -> Vec<Vec<NodeId>> {
    match kind {
        MatcherKind::CandidateNeighbors => cn::enumerate(g, p, stats, 1),
        MatcherKind::GqlStyle => gql::enumerate(g, p, stats),
        MatcherKind::SPathStyle => spath::enumerate(g, p, stats),
    }
}

/// Find all **distinct matches** of `p` in `g`: embeddings deduplicated by
/// the pattern's automorphism group, so each matching subgraph is counted
/// once (the paper's definition of a match).
pub fn find_matches(g: &Graph, p: &Pattern, kind: MatcherKind) -> MatchList {
    let embeddings = find_embeddings(g, p, kind);
    MatchList::from_embeddings(p, embeddings)
}

/// [`find_matches`] with instrumentation.
pub fn find_matches_with_stats(
    g: &Graph,
    p: &Pattern,
    kind: MatcherKind,
    stats: &mut MatchStats,
) -> MatchList {
    let embeddings = find_embeddings_with_stats(g, p, kind, stats);
    MatchList::from_embeddings(p, embeddings)
}
