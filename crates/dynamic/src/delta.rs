//! A mutable edge-delta overlay over the frozen CSR graph.
//!
//! Deltas accumulate as canonical edge keys; [`DeltaGraph::compact`]
//! freezes them into a new CSR by splicing the base's arrays
//! ([`ego_graph::Graph::with_edits`]), so compaction costs a copy of the
//! untouched rows plus a merge of the touched ones — never a rebuild.

use ego_graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Errors from applying edge deltas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An endpoint is not a node of the base graph (edge deltas cannot
    /// grow the node set; compact and rebuild for that).
    NodeOutOfRange(NodeId),
    /// Self-loops are not representable (the data model is simple graphs).
    SelfLoop(NodeId),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NodeOutOfRange(n) => {
                write!(f, "node {n} is out of range for the graph")
            }
            DeltaError::SelfLoop(n) => write!(f, "self-loop on node {n} is not allowed"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch of edge insertions/deletions layered over an immutable base
/// [`Graph`].
///
/// The overlay keeps two *canonical* delta sets (`added`, `removed`) with
/// the invariants: `removed ⊆ E(base)`, `added ∩ E(base) = ∅`, and
/// `added ∩ removed = ∅`. Inserting an edge whose deletion is pending
/// cancels the deletion (and vice versa), so a net-empty batch leaves the
/// overlay exactly equal to the base: its compaction is the base graph,
/// fingerprint included.
///
/// Neighbor accessors honor the base graph's contract: lists are sorted
/// by node id and deduplicated. They return owned `Vec`s (the overlay
/// cannot hand out CSR slices); each call costs `O(deg + |added|)`, which
/// is the intended regime — deltas are small batches, and bulk reads go
/// through [`DeltaGraph::compact`].
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: Arc<Graph>,
    added: BTreeSet<(NodeId, NodeId)>,
    removed: BTreeSet<(NodeId, NodeId)>,
}

impl DeltaGraph {
    /// An overlay with no pending deltas.
    pub fn new(base: Arc<Graph>) -> Self {
        DeltaGraph {
            base,
            added: BTreeSet::new(),
            removed: BTreeSet::new(),
        }
    }

    /// The frozen base graph.
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// Net-added edges, in canonical key order.
    pub fn added(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.added.iter().copied()
    }

    /// Net-removed edges, in canonical key order.
    pub fn removed(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.removed.iter().copied()
    }

    /// True if the overlay is exactly the base graph (no net deltas).
    pub fn is_clean(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of nodes (edge deltas never change the node set).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Number of distinct edges after applying the pending deltas.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.added.len() - self.removed.len()
    }

    /// Whether edges are directed (inherited from the base).
    pub fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    /// Canonical delta key: oriented for directed graphs, `(min, max)`
    /// for undirected — the same normalization the builder applies.
    fn key(&self, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if self.base.is_directed() || a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn check(&self, a: NodeId, b: NodeId) -> Result<(), DeltaError> {
        let n = self.base.num_nodes();
        for e in [a, b] {
            if e.index() >= n {
                return Err(DeltaError::NodeOutOfRange(e));
            }
        }
        if a == b {
            return Err(DeltaError::SelfLoop(a));
        }
        Ok(())
    }

    fn base_has(&self, a: NodeId, b: NodeId) -> bool {
        if self.base.is_directed() {
            self.base.has_directed_edge(a, b)
        } else {
            self.base.has_undirected_edge(a, b)
        }
    }

    /// Insert edge `(a, b)` (`a -> b` for directed overlays). Returns
    /// `true` if the edge set changed, `false` if the edge was already
    /// present. Cancels a pending deletion of the same edge.
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, DeltaError> {
        self.check(a, b)?;
        let key = self.key(a, b);
        if self.removed.remove(&key) {
            return Ok(true);
        }
        if self.base_has(key.0, key.1) || !self.added.insert(key) {
            return Ok(false);
        }
        Ok(true)
    }

    /// Delete edge `(a, b)`. Returns `true` if the edge set changed,
    /// `false` if the edge was absent. Cancels a pending insertion of the
    /// same edge.
    pub fn delete_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, DeltaError> {
        self.check(a, b)?;
        let key = self.key(a, b);
        if self.added.remove(&key) {
            return Ok(true);
        }
        if !self.base_has(key.0, key.1) || !self.removed.insert(key) {
            return Ok(false);
        }
        Ok(true)
    }

    /// True if the directed edge `a -> b` exists after the pending deltas
    /// (adjacency for undirected overlays).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.num_nodes() || b.index() >= self.num_nodes() {
            return false;
        }
        let key = self.key(a, b);
        if self.added.contains(&key) {
            return true;
        }
        if self.removed.contains(&key) {
            return false;
        }
        if self.base.is_directed() {
            self.base.has_directed_edge(a, b)
        } else {
            self.base.has_undirected_edge(a, b)
        }
    }

    /// True if `a` and `b` are adjacent in the undirected view after the
    /// pending deltas.
    pub fn und_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        if self.base.is_directed() {
            self.has_edge(a, b) || self.has_edge(b, a)
        } else {
            self.has_edge(a, b)
        }
    }

    /// Neighbors of `n` in the undirected view, sorted by id. Matches what
    /// [`Graph::neighbors`] returns on the compacted graph.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .base
            .neighbors(n)
            .iter()
            .copied()
            .filter(|&m| self.und_adjacent(n, m))
            .collect();
        for &(a, b) in &self.added {
            if a == n {
                out.push(b);
            } else if b == n {
                out.push(a);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Out-neighbors of `n`, sorted by id (same as [`Self::neighbors`]
    /// for undirected overlays).
    pub fn out_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        if !self.base.is_directed() {
            return self.neighbors(n);
        }
        let mut out: Vec<NodeId> = self
            .base
            .out_neighbors(n)
            .iter()
            .copied()
            .filter(|&m| !self.removed.contains(&(n, m)))
            .collect();
        out.extend(self.added.iter().filter(|&&(a, _)| a == n).map(|&(_, b)| b));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Degree of `n` in the undirected view after the pending deltas.
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// Every node incident on a net delta, sorted and deduplicated. The
    /// seed set for the dirty-focal BFS; canceled (net-empty) deltas do
    /// not contribute.
    pub fn touched_endpoints(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .added
            .iter()
            .chain(self.removed.iter())
            .flat_map(|&(a, b)| [a, b])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Freeze the overlay into a plain CSR [`Graph`]: same nodes, labels
    /// and attributes, with the pending deltas applied. A splice of the
    /// base's CSR ([`Graph::with_edits`]): untouched rows are copied,
    /// touched ones merged with their edits, attributes of removed edges
    /// dropped. The result, fingerprint included, equals a from-scratch
    /// build of the edited edge set.
    pub fn compact(&self) -> Graph {
        let added: Vec<(NodeId, NodeId)> = self.added().collect();
        let removed: Vec<(NodeId, NodeId)> = self.removed().collect();
        self.base.with_edits(&added, &removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ego_graph::{GraphBuilder, Label};

    fn two_triangles() -> Arc<Graph> {
        // Two triangles sharing node 2, plus a chain 4-5-6.
        let mut b = GraphBuilder::undirected();
        for _ in 0..7 {
            b.add_node(Label(0));
        }
        for &(x, y) in &[
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (3, 4),
            (2, 4),
            (4, 5),
            (5, 6),
        ] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        Arc::new(b.build())
    }

    #[test]
    fn insert_delete_cancel_and_fingerprint() {
        let g = two_triangles();
        let mut d = DeltaGraph::new(g.clone());
        assert!(d.is_clean());
        assert_eq!(d.compact().fingerprint(), g.fingerprint());

        assert!(d.insert_edge(NodeId(4), NodeId(6)).unwrap());
        assert!(!d.insert_edge(NodeId(6), NodeId(4)).unwrap()); // already pending
        assert!(!d.insert_edge(NodeId(0), NodeId(1)).unwrap()); // already in base
        assert_ne!(d.compact().fingerprint(), g.fingerprint());
        assert_eq!(d.num_edges(), g.num_edges() + 1);

        // Deleting the pending insert cancels it: clean again.
        assert!(d.delete_edge(NodeId(4), NodeId(6)).unwrap());
        assert!(d.is_clean());
        assert_eq!(d.compact().fingerprint(), g.fingerprint());

        // Delete a base edge, then re-insert it: clean again.
        assert!(d.delete_edge(NodeId(0), NodeId(1)).unwrap());
        assert!(!d.delete_edge(NodeId(1), NodeId(0)).unwrap()); // already pending
        assert!(!d.delete_edge(NodeId(5), NodeId(0)).unwrap()); // absent: no-op
        assert_ne!(d.compact().fingerprint(), g.fingerprint());
        assert!(d.insert_edge(NodeId(0), NodeId(1)).unwrap());
        assert!(d.is_clean());
        assert_eq!(d.compact().fingerprint(), g.fingerprint());
    }

    #[test]
    fn delta_validation() {
        let g = two_triangles();
        let mut d = DeltaGraph::new(g);
        assert_eq!(
            d.insert_edge(NodeId(0), NodeId(0)),
            Err(DeltaError::SelfLoop(NodeId(0)))
        );
        assert_eq!(
            d.insert_edge(NodeId(0), NodeId(99)),
            Err(DeltaError::NodeOutOfRange(NodeId(99)))
        );
        assert_eq!(
            d.delete_edge(NodeId(99), NodeId(0)),
            Err(DeltaError::NodeOutOfRange(NodeId(99)))
        );
    }

    #[test]
    fn overlay_neighbors_match_compacted_graph() {
        let g = two_triangles();
        let mut d = DeltaGraph::new(g);
        d.insert_edge(NodeId(4), NodeId(6)).unwrap();
        d.insert_edge(NodeId(0), NodeId(5)).unwrap();
        d.delete_edge(NodeId(2), NodeId(3)).unwrap();
        d.delete_edge(NodeId(0), NodeId(1)).unwrap();

        let c = d.compact();
        assert_eq!(c.num_edges(), d.num_edges());
        for n in c.node_ids() {
            assert_eq!(d.neighbors(n), c.neighbors(n).to_vec(), "node {n:?}");
            assert_eq!(d.degree(n), c.degree(n));
        }
        for a in c.node_ids() {
            for bnode in c.node_ids() {
                assert_eq!(d.und_adjacent(a, bnode), c.has_undirected_edge(a, bnode));
            }
        }
        assert_eq!(
            d.touched_endpoints(),
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(4),
                NodeId(5),
                NodeId(6)
            ]
        );
    }

    #[test]
    fn directed_overlay_views() {
        let mut b = GraphBuilder::directed();
        for _ in 0..4 {
            b.add_node(Label(0));
        }
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        let g = Arc::new(b.build());
        let mut d = DeltaGraph::new(g);

        // (0,1) and (1,0) are distinct directed edges.
        assert!(d.insert_edge(NodeId(1), NodeId(0)).unwrap());
        assert!(d.delete_edge(NodeId(1), NodeId(2)).unwrap());
        assert!(d.insert_edge(NodeId(3), NodeId(2)).unwrap());

        let c = d.compact();
        assert!(c.is_directed());
        for n in c.node_ids() {
            assert_eq!(d.neighbors(n), c.neighbors(n).to_vec(), "und {n:?}");
            assert_eq!(d.out_neighbors(n), c.out_neighbors(n).to_vec(), "out {n:?}");
        }
        assert!(d.has_edge(NodeId(1), NodeId(0)));
        assert!(d.has_edge(NodeId(0), NodeId(1)));
        assert!(!d.has_edge(NodeId(1), NodeId(2)));
        // Undirected adjacency 1-2 survives nothing: only (1,2) existed.
        assert!(!d.und_adjacent(NodeId(1), NodeId(2)));
    }

    #[test]
    fn compact_fingerprint_matches_from_scratch_build() {
        let g = two_triangles();
        let mut d = DeltaGraph::new(g);
        d.insert_edge(NodeId(4), NodeId(6)).unwrap();
        d.delete_edge(NodeId(0), NodeId(1)).unwrap();
        let c = d.compact();

        let mut b = GraphBuilder::undirected();
        for _ in 0..7 {
            b.add_node(Label(0));
        }
        for &(x, y) in &[
            (1, 2),
            (0, 2),
            (2, 3),
            (3, 4),
            (2, 4),
            (4, 5),
            (5, 6),
            (4, 6),
        ] {
            b.add_edge(NodeId(x), NodeId(y));
        }
        let fresh = b.build();
        assert_eq!(c.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn compact_preserves_attrs_and_drops_removed_edge_attrs() {
        let mut b = GraphBuilder::undirected();
        let n0 = b.add_node(Label(1));
        let n1 = b.add_node(Label(2));
        let n2 = b.add_node(Label(1));
        b.add_edge(n0, n1);
        b.add_edge(n1, n2);
        b.set_node_attr(n0, "org", "acme");
        b.set_edge_attr(n0, n1, "since", 2001i64);
        b.set_edge_attr(n1, n2, "since", 2002i64);
        let g = Arc::new(b.build());

        let mut d = DeltaGraph::new(g);
        d.delete_edge(n0, n1).unwrap();
        let c = d.compact();
        assert_eq!(c.label(n1), Label(2));
        assert_eq!(
            c.node_attr(n0, "org").map(|v| v.to_string()),
            Some("acme".into())
        );
        assert_eq!(c.edge_attr(n0, n1, "since"), None);
        assert!(c.edge_attr(n1, n2, "since").is_some());
    }
}
