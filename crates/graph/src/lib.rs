//! # ego-graph
//!
//! In-memory property graph substrate for ego-centric pattern census.
//!
//! The paper's algorithms operate on an adjacency-list graph representation
//! with labeled, attributed nodes and edges. This crate provides:
//!
//! * [`Graph`] — a compressed sparse row (CSR) graph with sorted neighbor
//!   lists, supporting both directed and undirected graphs, O(log d) edge
//!   membership tests, and an *undirected view* used for neighborhood
//!   traversal (the paper's `k`-hop neighborhoods ignore edge direction).
//! * [`GraphBuilder`] — incremental construction, deduplicating parallel
//!   edges and self-loops.
//! * [`NodeProfile`]s — the per-label neighbor-count index used by the
//!   matching algorithms for candidate filtering (Section III-A).
//! * BFS utilities with reusable scratch space ([`bfs::BfsScratch`]) and
//!   bounded-depth traversal, `k`-hop neighborhood extraction, pairwise
//!   neighborhood intersection/union ([`neighborhood`]).
//! * Induced subgraph extraction with id remapping ([`subgraph`]).
//! * A plain-text edge-list serialization format ([`io`]), plus a
//!   page-aligned binary CSR format served through a read-only memory
//!   map ([`store`]) so graphs beyond RAM open in O(1) and processes
//!   share physical pages.
//! * Basic network statistics ([`stats`]).
//! * [`parallel::fan_out`], the one deterministic thread fan-out the
//!   matcher and the census share.
//!
//! ## Example
//!
//! ```
//! use ego_graph::{GraphBuilder, Label};
//!
//! let mut b = GraphBuilder::undirected();
//! let a = b.add_node(Label(0));
//! let c = b.add_node(Label(1));
//! let d = b.add_node(Label(0));
//! b.add_edge(a, c);
//! b.add_edge(c, d);
//! let g = b.build();
//!
//! assert_eq!(g.num_nodes(), 3);
//! assert!(g.has_undirected_edge(a, c));
//! assert_eq!(g.neighbors(c), &[a, d]);
//! ```

pub mod attrs;
pub mod bfs;
pub mod builder;
pub mod dot;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod io;
pub mod neighborhood;
pub mod parallel;
pub mod profile;
pub mod setops;
pub mod stats;
pub mod store;
pub mod subgraph;

pub use attrs::{AttrStore, AttrValue};
pub use builder::GraphBuilder;
pub use graph::Graph;
pub use hash::{FastHashMap, FastHashSet};
pub use ids::{Label, NodeId};
pub use neighborhood::{khop_nodes, khop_nodes_with_dist, NeighborhoodKind};
pub use profile::NodeProfile;
pub use setops::{NodeBitset, SetOpStats};
pub use store::{GraphStore, MmapStore, VecStore};
pub use subgraph::InducedSubgraph;
