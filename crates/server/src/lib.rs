//! # ego-server
//!
//! A concurrent TCP front end over [`ego-query`](ego_query): the census
//! SQL layer served to many clients, the deployment model the ROADMAP's
//! north star calls for (and the standard one for graph query languages;
//! cf. Angles et al., *Foundations of Modern Query Languages for Graph
//! Databases*).
//!
//! * The graph is loaded **once** behind an `Arc`; every connection gets
//!   a [`Session`](session::Session) with its own
//!   [`QueryEngine`](ego_query::QueryEngine) and a pattern catalog
//!   layered over a shared base catalog ([`ego_query::Catalog::layered`]),
//!   so `define`s are per-session and can never shadow shared built-ins.
//! * The wire protocol is line-delimited JSON ([`protocol`]): one
//!   request per op in [`protocol::OPS`], `table` / `error` responses,
//!   plus asynchronous `notify` frames pushed to subscribers.
//! * Concurrency is a bounded thread-per-connection pool over
//!   `std::net` ([`server`]) — the build environment is offline, so no
//!   async runtime — with per-request read/write timeouts and graceful
//!   shutdown via a shared flag (set by [`server::ShutdownHandle`] or a
//!   `shutdown` request).
//! * In front of the executor sits a pattern-keyed LRU **result cache**
//!   ([`cache`]): encoded `table` responses keyed by
//!   [`ego_query::canonical_query_key`] (canonical statement + resolved
//!   pattern DSLs) + graph fingerprint + seed. Repeat queries are served
//!   byte-identically with no traversal; hit/miss/eviction counters are
//!   exposed through `stats`.
//! * `update` applies an edge-mutation script
//!   ([`ego_dynamic::DeltaGraph`]) to the shared graph, swapping in a
//!   freshly compacted CSR; sessions pick up the new graph lazily via a
//!   generation counter. Census-cache invalidation is **dirty-set
//!   aware**: count entries whose focal set provably can't see the
//!   delta survive the mutation.
//! * `subscribe` registers a **standing query**
//!   ([`ego_continuous::ContinuousEngine`]): every subsequent update
//!   pushes the changed rows `(focal, column, old, new)` to the
//!   subscribing connection as `notify` frames, maintained
//!   incrementally (dirty-focal re-census + match-list maintenance)
//!   rather than recomputed.
//! * Each census execution still parallelizes internally through the
//!   existing `ExecConfig { threads }` plumbing.
//!
//! ## Example
//!
//! ```
//! use ego_graph::{GraphBuilder, Label, NodeId};
//! use ego_query::Catalog;
//! use ego_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::undirected();
//! b.add_nodes(5, Label(0));
//! for (x, y) in [(0u32, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
//!     b.add_edge(NodeId(x), NodeId(y));
//! }
//! let graph = Arc::new(b.build());
//!
//! let server = Server::bind(
//!     ("127.0.0.1", 0),
//!     graph,
//!     Arc::new(Catalog::with_builtins()),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.shutdown_handle();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let response = client
//!     .query("SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes")
//!     .unwrap();
//! match response {
//!     ego_server::Response::Table(t) => {
//!         assert_eq!(t.rows.len(), 5);
//!     }
//!     _ => panic!("expected a table"),
//! }
//!
//! handle.shutdown();
//! thread.join().unwrap().unwrap();
//! ```

pub mod cache;
pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod session;

pub use cache::{CacheStats, QueryCache};
pub use client::{Client, RetryPolicy};
pub use protocol::{NotifyFrame, OpSpec, Payload, Request, Response, Route, TableData, OPS};
pub use server::{
    serve_lines, LineHandler, LineLimits, Server, ServerConfig, ShutdownHandle,
    MAX_REQUEST_LINE_BYTES,
};
pub use session::{NotifyQueue, ServerStats, Session, Shared, UpdateSummary};
