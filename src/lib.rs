//! # egocensus
//!
//! Facade crate for the ego-centric graph pattern census library, an
//! open-source reproduction of Moustafa, Deshpande & Getoor,
//! *"Ego-centric Graph Pattern Census"* (ICDE 2012).
//!
//! An ego-centric pattern census query counts the matches of a small
//! structural pattern inside every focal node's `k`-hop neighborhood (or
//! inside the intersection/union of two nodes' neighborhoods). This crate
//! re-exports the full stack:
//!
//! * [`graph`] — property graph substrate (CSR, profiles, BFS, neighborhoods).
//! * [`pattern`] — pattern model, DSL parser, pattern analysis.
//! * [`matcher`] — subgraph isomorphism (CN algorithm + GQL-style baseline).
//! * [`census`] — census evaluation algorithms (ND-BAS/PVOT/DIFF, PT-BAS/RND/OPT).
//! * [`query`] — the SQL-based declarative language.
//! * [`dynamic`] — edge-mutation overlays and incremental re-census.
//! * [`server`] — concurrent TCP front end with a pattern-keyed result cache.
//! * [`shard`] — scatter/gather router over a fleet of server workers
//!   sharing one mmap'd graph.
//! * [`datagen`] — synthetic graph generators.
//! * [`linkpred`] — the DBLP-style link prediction experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use egocensus::prelude::*;
//!
//! // A small social network: two triangles sharing node 2.
//! let mut b = GraphBuilder::undirected();
//! b.add_nodes(5, Label(0));
//! for (a, c) in [(0u32, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
//!     b.add_edge(NodeId(a), NodeId(c));
//! }
//! let g = b.build();
//!
//! // Count triangles in every node's 1-hop neighborhood.
//! let pattern = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
//! let spec = CensusSpec::single(&pattern, 1);
//! let outcome = run(&g, &Job::new(Census::Single(&spec), Algorithm::NdPivot)).unwrap();
//! let counts = &outcome.counts[0];
//! assert_eq!(counts.get(NodeId(2)), 2); // node 2 sees both triangles
//! assert_eq!(counts.get(NodeId(0)), 1);
//!
//! // The same call counts pairs: triangles inside both nodes' 1-hop
//! // neighborhoods.
//! let pair = PairCensusSpec::intersection(&pattern, 1, PairSelector::AllPairs);
//! let outcome = run(&g, &Job::new(Census::Pair(&pair), Algorithm::PtOpt)).unwrap();
//! assert_eq!(outcome.pairs.get(NodeId(0), NodeId(1)), 1);
//! ```

pub use ego_census as census;
pub use ego_datagen as datagen;
pub use ego_dynamic as dynamic;
pub use ego_graph as graph;
pub use ego_linkpred as linkpred;
pub use ego_matcher as matcher;
pub use ego_pattern as pattern;
pub use ego_query as query;
pub use ego_server as server;
pub use ego_shard as shard;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use ego_census::{
        run, Algorithm, Census, CensusSpec, CountVector, ExecConfig, Job, Outcome, PairCensusSpec,
        PairSelector, PtConfig,
    };
    pub use ego_graph::{Graph, GraphBuilder, Label, NodeId};
    pub use ego_matcher::{find_matches, MatcherKind};
    pub use ego_pattern::Pattern;
    pub use ego_query::{Catalog, QueryEngine};
}
