//! Incremental census over mutable graphs.
//!
//! The paper's census engine ([`ego_census`]) evaluates over an immutable
//! CSR [`ego_graph::Graph`]. This crate makes the census *maintainable*
//! under edge insertions and deletions instead of rebuilt from scratch:
//!
//! * [`DeltaGraph`] — a mutable overlay over a frozen base graph. Edge
//!   inserts and deletes accumulate in canonical delta sets (an insert
//!   cancels a pending delete of the same edge and vice versa), and
//!   neighbor iteration preserves the base graph's sorted-by-id
//!   contract. [`DeltaGraph::compact`] freezes the overlay back into a
//!   plain CSR `Graph` by splicing the base's arrays
//!   ([`ego_graph::Graph::with_edits`]): a copy of the untouched rows
//!   and a merge of the touched ones, equal to a from-scratch build
//!   fingerprint included.
//! * [`DirtyIndex`] / [`dirty_focal_nodes`] — the *dirty focal set*:
//!   exactly the nodes whose `k`-hop neighborhood can see a touched delta
//!   endpoint, found by a multi-source bounded BFS from the endpoints at
//!   radius `k` over the union of the base and added edges (neighborhoods
//!   are symmetric, so the reverse bounded-BFS is the same BFS).
//! * [`update_batch_on`] — re-census *only* the dirty focal nodes on
//!   the compacted graph through one [`ego_census::run`] batch job, then
//!   splice the refreshed counts into the previous
//!   [`ego_census::CountVector`]s. Results are bit-identical to a full
//!   recompute for every algorithm family (enforced by
//!   `tests/incremental_equivalence.rs`).
//! * [`maintain_match_list`] — incremental **match-list maintenance**:
//!   the previous global match list is carried across a delta in
//!   |delta|-scaled work (drop the matches with an edge image on a
//!   mutated pair, then find the new graph's such matches in the ball
//!   one pattern diameter around the touched endpoints) instead of
//!   re-matching the whole graph. [`update_batch_on`] hands the
//!   maintained lists to its re-census as provided lists, which is what
//!   lets the continuous subscription tier scale with the delta.

pub mod delta;
pub mod dirty;
pub mod engine;
pub mod matches;

pub use delta::{DeltaError, DeltaGraph};
pub use dirty::{dirty_focal_nodes, DirtyIndex};
pub use engine::{update_batch_on, UpdateOutcome, UpdateStats};
pub use matches::{maintain_match_list, supports_match_maintenance, MaintainStats};
