//! # ego-query
//!
//! The SQL-based declarative language for ego-centric pattern census
//! queries (Section II of the paper).
//!
//! Queries run against a logical view of the graph as `nodes(ID, ...)`;
//! attribute references are resolved dynamically. Two user-defined
//! aggregates drive the census:
//!
//! * `COUNTP(pattern, S)` — count matches of `pattern` in neighborhood `S`;
//! * `COUNTSP(subpattern, pattern, S)` — count matches whose `subpattern`
//!   images fall in `S`.
//!
//! where `S` is `SUBGRAPH(ID, k)`, `SUBGRAPH-INTERSECTION(n1.ID, n2.ID, k)`,
//! or `SUBGRAPH-UNION(n1.ID, n2.ID, k)`.
//!
//! ```
//! use ego_graph::{GraphBuilder, Label, NodeId};
//! use ego_query::QueryEngine;
//!
//! let mut b = GraphBuilder::undirected();
//! b.add_nodes(5, Label(0));
//! for (x, y) in [(0u32, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
//!     b.add_edge(NodeId(x), NodeId(y));
//! }
//! let g = b.build();
//!
//! let mut engine = QueryEngine::new(&g);
//! engine
//!     .catalog_mut()
//!     .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
//!     .unwrap();
//! let table = engine
//!     .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
//!     .unwrap();
//! assert_eq!(table.num_rows(), 5);
//! // Node 2 participates in both triangles.
//! assert_eq!(table.rows()[2][1].as_int(), Some(2));
//! ```

pub mod ast;
pub mod canon;
pub mod catalog;
pub mod census_cache;
pub mod error;
pub mod executor;
pub mod expr;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod shard;
pub mod stats;
pub mod subscribe;
pub mod table;
pub mod value;
pub mod views;

pub use ast::{DropViewStmt, MaterializeStmt, MutationKind, MutationStmt};
pub use canon::canonical_query_key;
pub use catalog::Catalog;
pub use census_cache::{CensusCache, CensusCacheStats, CountMeta};
pub use error::QueryError;
pub use executor::QueryEngine;
pub use parser::{parse_drop_view, parse_materialize, parse_mutations, Statement};
pub use plan::{build_plan, plan_statement, Plan, PlanNode, StatsBasis};
pub use shard::ShardSpec;
pub use stats::{GraphStats, PlannerCounters, StatsSlot};
pub use subscribe::{strip_subscribe, ChangedRow, SubscriptionAgg, SubscriptionSpec};
pub use table::Table;
pub use value::Value;
pub use views::{ViewEntry, ViewRegistry, ViewStats, DEFAULT_VIEW_BUDGET};

// The census algorithm enum, re-exported so front ends (server, shard
// router) can configure engines without depending on ego-census.
pub use ego_census::Algorithm;
