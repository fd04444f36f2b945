//! The CSR graph type.

use crate::attrs::{AttrStore, AttrValue, EdgeAttrStore};
use crate::ids::{Label, NodeId};
use crate::store::{StoreBackend, VecStore};

/// An immutable labeled, attributed graph in compressed-sparse-row form.
///
/// Construction goes through [`crate::GraphBuilder`] (heap-backed) or
/// [`crate::store::open_binary`] (mmap-backed). Neighbor lists are
/// sorted by node id, which gives:
///
/// * O(log d) edge-membership tests via binary search,
/// * linear-time sorted-list intersection for the candidate-neighbor
///   operations of the matching algorithm,
/// * deterministic iteration order everywhere.
///
/// Directed graphs keep three adjacency structures: out-neighbors,
/// in-neighbors, and the *undirected view* (union of both, deduplicated).
/// The undirected view is what `k`-hop neighborhoods traverse: the paper
/// defines `S(n, k)` as the subgraph incident on nodes *reachable* from
/// `n`, and its neighborhood semantics ignore edge orientation. For
/// undirected graphs all three views are the same arrays.
///
/// The label and adjacency arrays live behind the
/// [`GraphStore`](crate::store::GraphStore) trait: either heap-owned
/// `Vec`s ([`crate::store::VecStore`]) or a read-only memory map of the
/// binary file format ([`crate::store::MmapStore`]). Algorithms are
/// agnostic — every accessor below returns plain slices either way.
#[derive(Clone, Debug)]
pub struct Graph {
    pub(crate) directed: bool,
    pub(crate) num_labels: u16,

    /// Labels + CSR adjacency arrays, behind a storage backend.
    pub(crate) store: StoreBackend,

    /// Count of distinct edges (undirected edges counted once).
    pub(crate) num_edges: usize,

    pub(crate) node_attrs: AttrStore,
    pub(crate) edge_attrs: EdgeAttrStore,

    /// Structural fingerprint, memoized at build time (see
    /// [`Graph::fingerprint`]).
    pub(crate) fingerprint: u64,
}

impl Graph {
    /// Assemble a graph from already-validated parts (builder / binary
    /// loader only).
    pub(crate) fn from_parts(
        directed: bool,
        num_labels: u16,
        num_edges: usize,
        store: StoreBackend,
        node_attrs: AttrStore,
        edge_attrs: EdgeAttrStore,
        fingerprint: u64,
    ) -> Graph {
        Graph {
            directed,
            num_labels,
            store,
            num_edges,
            node_attrs,
            edge_attrs,
            fingerprint,
        }
    }

    /// The storage backend holding labels and adjacency.
    #[inline(always)]
    pub(crate) fn store(&self) -> &StoreBackend {
        &self.store
    }

    /// Which storage backend this graph sits on: `"mem"` (heap `Vec`s)
    /// or `"mmap"` (read-only binary file view).
    #[inline]
    pub fn storage_kind(&self) -> &'static str {
        self.store.kind()
    }
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.store.labels().len()
    }

    /// Number of distinct edges (an undirected edge counts once; a directed
    /// edge and its reverse count as two).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Size of the label space (labels are `0..num_labels`).
    #[inline]
    pub fn num_labels(&self) -> u16 {
        self.num_labels
    }

    /// The label of `n`.
    #[inline(always)]
    pub fn label(&self, n: NodeId) -> Label {
        self.store.labels()[n.index()]
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        self.store.labels()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + Clone {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Neighbors of `n` in the undirected view, sorted by id.
    #[inline(always)]
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        let offsets = self.store.und_offsets();
        let lo = offsets[n.index()] as usize;
        let hi = offsets[n.index() + 1] as usize;
        &self.store.und_targets()[lo..hi]
    }

    /// Degree of `n` in the undirected view.
    #[inline(always)]
    pub fn degree(&self, n: NodeId) -> usize {
        let offsets = self.store.und_offsets();
        (offsets[n.index() + 1] - offsets[n.index()]) as usize
    }

    /// Out-neighbors of `n` (same as [`Self::neighbors`] for undirected graphs).
    #[inline(always)]
    pub fn out_neighbors(&self, n: NodeId) -> &[NodeId] {
        if !self.directed {
            return self.neighbors(n);
        }
        let offsets = self.store.out_offsets();
        let lo = offsets[n.index()] as usize;
        let hi = offsets[n.index() + 1] as usize;
        &self.store.out_targets()[lo..hi]
    }

    /// In-neighbors of `n` (same as [`Self::neighbors`] for undirected graphs).
    #[inline(always)]
    pub fn in_neighbors(&self, n: NodeId) -> &[NodeId] {
        if !self.directed {
            return self.neighbors(n);
        }
        let offsets = self.store.in_offsets();
        let lo = offsets[n.index()] as usize;
        let hi = offsets[n.index() + 1] as usize;
        &self.store.in_targets()[lo..hi]
    }

    /// True if `a` and `b` are adjacent in the undirected view.
    #[inline]
    pub fn has_undirected_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// True if the directed edge `a -> b` exists. For undirected graphs this
    /// is adjacency.
    #[inline]
    pub fn has_directed_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.out_neighbors(a).binary_search(&b).is_ok()
    }

    /// Node attribute store.
    #[inline]
    pub fn node_attrs(&self) -> &AttrStore {
        &self.node_attrs
    }

    /// Edge attribute store.
    #[inline]
    pub fn edge_attrs(&self) -> &EdgeAttrStore {
        &self.edge_attrs
    }

    /// Convenience: node attribute lookup.
    pub fn node_attr(&self, n: NodeId, name: &str) -> Option<&AttrValue> {
        self.node_attrs.get(n, name)
    }

    /// Convenience: edge attribute lookup.
    pub fn edge_attr(&self, a: NodeId, b: NodeId, name: &str) -> Option<&AttrValue> {
        self.edge_attrs.get(a, b, name)
    }

    /// Iterator over distinct edges. For undirected graphs each edge is
    /// yielded once with `a < b`; for directed graphs each `(src, dst)` pair
    /// is yielded once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let directed = self.directed;
        self.node_ids().flat_map(move |a| {
            let neigh = if directed {
                self.out_neighbors(a)
            } else {
                self.neighbors(a)
            };
            neigh
                .iter()
                .copied()
                .filter(move |&b| directed || a < b)
                .map(move |b| (a, b))
        })
    }

    /// Maximum undirected degree over all nodes (0 for empty graphs).
    pub fn max_degree(&self) -> usize {
        self.node_ids().map(|n| self.degree(n)).max().unwrap_or(0)
    }

    /// The `count` highest-degree nodes (ties broken by lower id), used for
    /// degree-centrality center selection (Section IV-B4).
    pub fn top_degree_nodes(&self, count: usize) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.node_ids().collect();
        nodes.sort_by_key(|&n| (std::cmp::Reverse(self.degree(n)), n));
        nodes.truncate(count);
        nodes
    }

    /// A structural fingerprint of the graph: an Fx hash over direction,
    /// labels, the CSR adjacency arrays, and the node-attribute columns.
    ///
    /// Two graphs with different topology, labels, or attribute values
    /// fingerprint differently (modulo hash collisions); the same graph
    /// always fingerprints identically. Used to key caches of census
    /// results so a cache entry can never outlive the graph it was
    /// computed on. Memoized at [`crate::GraphBuilder::build`] time, so
    /// this is a plain field read — cheap enough to sit on the hot path
    /// of every cache lookup.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// This graph with an edge delta applied, by splicing the CSR arrays
    /// instead of rebuilding them: runs of untouched rows are copied
    /// whole and their offsets shifted, and each touched row is merged
    /// with its sorted edits. The result equals a [`crate::GraphBuilder`]
    /// build of the edited edge set — adjacency, `num_edges`,
    /// `num_labels` and fingerprint alike.
    ///
    /// `added` and `removed` hold canonical edge keys, as the builder
    /// normalizes them: `(src, dst)` for directed graphs, `(min, max)`
    /// for undirected ones; no key may appear in both. Adding a present
    /// edge or removing an absent one is a no-op. On a directed
    /// graph the undirected view changes only where a pair's adjacency
    /// flips: deleting `a -> b` keeps `a`–`b` while `b -> a` remains.
    /// Labels and node attributes carry over; attributes of removed
    /// edges are dropped. The result is heap-backed whatever the base's
    /// storage.
    pub fn with_edits(&self, added: &[(NodeId, NodeId)], removed: &[(NodeId, NodeId)]) -> Graph {
        let mut added = added.to_vec();
        let mut removed = removed.to_vec();
        added.sort_unstable();
        removed.sort_unstable();
        let n = self.num_nodes();
        let s = &self.store;

        // Row edits `(row, target, insert)` of the out-CSR; the in-CSR
        // takes them reversed, an undirected CSR both ways.
        let edits: Vec<(NodeId, NodeId, bool)> = added
            .iter()
            .map(|&(a, b)| (a, b, true))
            .chain(removed.iter().map(|&(a, b)| (a, b, false)))
            .collect();
        let reversed = |&(a, b, insert): &(NodeId, NodeId, bool)| (b, a, insert);
        let (und, out_offsets, out_targets, in_offsets, in_targets) = if self.directed {
            // The undirected view: one edit per pair whose adjacency
            // differs before and after the delta.
            let after = |a: NodeId, b: NodeId| {
                added.binary_search(&(a, b)).is_ok()
                    || (self.has_directed_edge(a, b) && removed.binary_search(&(a, b)).is_err())
            };
            let mut pairs: Vec<(NodeId, NodeId)> = edits
                .iter()
                .map(|&(a, b, _)| (a.min(b), a.max(b)))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let mut und = Vec::new();
            for (lo, hi) in pairs {
                let now = after(lo, hi) || after(hi, lo);
                if now != self.has_undirected_edge(lo, hi) {
                    und.extend([(lo, hi, now), (hi, lo, now)]);
                }
            }
            let inn = edits.iter().map(reversed).collect();
            let (oo, ot) = splice_csr(n, s.out_offsets(), s.out_targets(), edits);
            let (io, it) = splice_csr(n, s.in_offsets(), s.in_targets(), inn);
            (und, oo, ot, io, it)
        } else {
            let und = edits.iter().flat_map(|e| [*e, reversed(e)]).collect();
            (und, Vec::new(), Vec::new(), Vec::new(), Vec::new())
        };
        let (und_offsets, und_targets) = splice_csr(n, s.und_offsets(), s.und_targets(), und);
        let num_edges = if self.directed {
            out_targets.len()
        } else {
            und_targets.len() / 2
        };

        let mut edge_attrs = self.edge_attrs.clone();
        if !removed.is_empty() && !edge_attrs.is_empty() {
            edge_attrs.retain_edges(|a, b| removed.binary_search(&(NodeId(a), NodeId(b))).is_err());
        }
        let store = StoreBackend::Mem(VecStore {
            labels: s.labels().to_vec(),
            und_offsets,
            und_targets,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        });
        let mut g = Graph::from_parts(
            self.directed,
            self.num_labels,
            num_edges,
            store,
            self.node_attrs.clone(),
            edge_attrs,
            0,
        );
        g.fingerprint = g.compute_fingerprint();
        g
    }

    /// Recompute the content hash and compare it with the memoized
    /// fingerprint. Always true for built graphs; for a binary file
    /// (whose header carries the fingerprint and is otherwise trusted)
    /// this is the full-integrity check — it reads every section, so
    /// it costs O(n + m) page-ins on an mmap-backed graph.
    pub fn verify_fingerprint(&self) -> bool {
        self.compute_fingerprint() == self.fingerprint
    }

    /// Hash the graph contents; called once by the builder to populate
    /// the memoized [`Graph::fingerprint`].
    pub(crate) fn compute_fingerprint(&self) -> u64 {
        use crate::hash::FxHasher;
        use std::hash::Hasher;

        let mut h = FxHasher::default();
        h.write_u8(self.directed as u8);
        h.write_u16(self.num_labels);
        h.write_usize(self.num_nodes());
        for l in self.store.labels() {
            h.write_u16(l.0);
        }
        h.write_usize(self.num_edges);
        for off in self.store.und_offsets() {
            h.write_u32(*off);
        }
        for t in self.store.und_targets() {
            h.write_u32(t.0);
        }
        for t in self.store.out_targets() {
            h.write_u32(t.0);
        }
        // Attribute columns, hashed order-independently (column iteration
        // order is hash-map order): XOR of per-entry hashes.
        let mut attr_acc: u64 = 0;
        let mut names: Vec<&str> = self.node_attrs.attribute_names().collect();
        names.sort_unstable();
        for name in names {
            for (node, value) in self.node_attrs.column(name) {
                let mut eh = FxHasher::default();
                eh.write(name.as_bytes());
                eh.write_u32(node.0);
                hash_attr_value(&mut eh, value);
                attr_acc ^= eh.finish();
            }
        }
        let mut enames: Vec<&str> = self.edge_attrs.attribute_names().collect();
        enames.sort_unstable();
        for name in enames {
            for ((a, b), value) in self.edge_attrs.column(name) {
                let mut eh = FxHasher::default();
                eh.write(name.as_bytes());
                eh.write_u32(a);
                eh.write_u32(b);
                hash_attr_value(&mut eh, value);
                attr_acc ^= eh.finish();
            }
        }
        h.write_u64(attr_acc);
        h.finish()
    }
}

/// One CSR with row edits `(row, target, insert)` applied: rows without
/// edits are copied in runs, each edited row is merged with its edits in
/// target order. Inserting a present target or removing an absent one
/// is a no-op.
fn splice_csr(
    n: usize,
    offsets: &[u32],
    targets: &[NodeId],
    mut edits: Vec<(NodeId, NodeId, bool)>,
) -> (Vec<u32>, Vec<NodeId>) {
    edits.sort_unstable();
    let grown = edits.iter().filter(|e| e.2).count();
    let mut new_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut new_targets: Vec<NodeId> = Vec::with_capacity(targets.len() + grown);
    new_offsets.push(0);
    // Copy rows `from..to` unchanged, shifting their end offsets.
    let copy_rows = |from: usize, to: usize, off: &mut Vec<u32>, tgt: &mut Vec<NodeId>| {
        let shift = tgt.len() as i64 - offsets[from] as i64;
        tgt.extend_from_slice(&targets[offsets[from] as usize..offsets[to] as usize]);
        off.extend(
            offsets[from + 1..=to]
                .iter()
                .map(|&o| (o as i64 + shift) as u32),
        );
    };
    let mut next_row = 0;
    let mut rest = &edits[..];
    while let Some(&(row, _, _)) = rest.first() {
        let r = row.index();
        let (row_edits, tail) = rest.split_at(rest.partition_point(|e| e.0 == row));
        copy_rows(next_row, r, &mut new_offsets, &mut new_targets);
        let old = &targets[offsets[r] as usize..offsets[r + 1] as usize];
        let mut at = 0;
        for &(_, t, insert) in row_edits {
            let p = at + old[at..].partition_point(|&x| x < t);
            new_targets.extend_from_slice(&old[at..p]);
            let present = old.get(p) == Some(&t);
            if insert && !present {
                new_targets.push(t);
            }
            at = p + (!insert && present) as usize;
        }
        new_targets.extend_from_slice(&old[at..]);
        new_offsets.push(new_targets.len() as u32);
        next_row = r + 1;
        rest = tail;
    }
    copy_rows(next_row, n, &mut new_offsets, &mut new_targets);
    (new_offsets, new_targets)
}

fn hash_attr_value(h: &mut crate::hash::FxHasher, v: &AttrValue) {
    use std::hash::Hasher;
    match v {
        AttrValue::Int(i) => {
            h.write_u8(0);
            h.write_u64(*i as u64);
        }
        AttrValue::Float(f) => {
            h.write_u8(1);
            h.write_u64(f.to_bits());
        }
        AttrValue::Str(s) => {
            h.write_u8(2);
            h.write(s.as_bytes());
        }
        AttrValue::Bool(b) => {
            h.write_u8(3);
            h.write_u8(*b as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::ids::{Label, NodeId};

    fn path3_undirected() -> super::Graph {
        // 0 - 1 - 2
        let mut b = GraphBuilder::undirected();
        let n0 = b.add_node(Label(0));
        let n1 = b.add_node(Label(1));
        let n2 = b.add_node(Label(0));
        b.add_edge(n0, n1);
        b.add_edge(n1, n2);
        b.build()
    }

    #[test]
    fn undirected_adjacency() {
        let g = path3_undirected();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_directed());
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert!(g.has_undirected_edge(NodeId(0), NodeId(1)));
        assert!(g.has_undirected_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_undirected_edge(NodeId(0), NodeId(2)));
        // For undirected graphs directed adjacency == adjacency.
        assert!(g.has_directed_edge(NodeId(0), NodeId(1)));
        assert!(g.has_directed_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn directed_adjacency_and_views() {
        // 0 -> 1 -> 2, and 2 -> 0
        let mut b = GraphBuilder::directed();
        let n0 = b.add_node(Label(0));
        let n1 = b.add_node(Label(0));
        let n2 = b.add_node(Label(0));
        b.add_edge(n0, n1);
        b.add_edge(n1, n2);
        b.add_edge(n2, n0);
        let g = b.build();

        assert!(g.is_directed());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.in_neighbors(NodeId(0)), &[NodeId(2)]);
        // Undirected view merges both directions.
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert!(g.has_directed_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_directed_edge(NodeId(1), NodeId(0)));
        assert!(g.has_undirected_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn antiparallel_directed_edges_count_separately() {
        let mut b = GraphBuilder::directed();
        let n0 = b.add_node(Label(0));
        let n1 = b.add_node(Label(0));
        b.add_edge(n0, n1);
        b.add_edge(n1, n0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        // But the undirected view has one neighbor entry each.
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0)]);
    }

    #[test]
    fn edges_iterator_undirected_yields_each_once() {
        let g = path3_undirected();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    }

    #[test]
    fn edges_iterator_directed_yields_oriented() {
        let mut b = GraphBuilder::directed();
        let n0 = b.add_node(Label(0));
        let n1 = b.add_node(Label(0));
        b.add_edge(n1, n0);
        let g = b.build();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(NodeId(1), NodeId(0))]);
    }

    #[test]
    fn top_degree_nodes_orders_by_degree_then_id() {
        // Star around 1 plus an edge 2-3: degrees 1:3, 2:2, and 0/3/4 tie at 1
        // (lowest id wins the tie).
        let mut b = GraphBuilder::undirected();
        for _ in 0..5 {
            b.add_node(Label(0));
        }
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(1), NodeId(4));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        assert_eq!(g.top_degree_nodes(3), vec![NodeId(1), NodeId(2), NodeId(0)]);
        assert_eq!(g.top_degree_nodes(0), Vec::<NodeId>::new());
        assert_eq!(g.top_degree_nodes(100).len(), 5);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.node_ids().count(), 0);
    }

    #[test]
    fn with_edits_equals_a_builder_build() {
        let build = |directed: bool, edges: &[(u32, u32)]| {
            let mut b = if directed {
                GraphBuilder::directed()
            } else {
                GraphBuilder::undirected()
            };
            b.add_nodes(5, Label(0));
            b.set_label(NodeId(4), Label(3));
            for &(x, y) in edges {
                b.add_edge(NodeId(x), NodeId(y));
            }
            b.build()
        };
        let e = |x: u32, y: u32| (NodeId(x), NodeId(y));
        for directed in [false, true] {
            let g = build(directed, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4)]);
            // Drop `1 -> 0` (on a directed graph its twin keeps 0-1 in the
            // undirected view) and edit the first and last rows.
            let drop = if directed { e(1, 0) } else { e(0, 1) };
            let spliced = g.with_edits(&[e(0, 4), e(0, 2)], &[drop, e(1, 2), e(2, 3)]);
            let want = if directed {
                build(true, &[(0, 1), (3, 4), (0, 4), (0, 2)])
            } else {
                build(false, &[(3, 4), (0, 4), (0, 2)])
            };
            for n in want.node_ids() {
                assert_eq!(spliced.neighbors(n), want.neighbors(n));
                assert_eq!(spliced.out_neighbors(n), want.out_neighbors(n));
                assert_eq!(spliced.in_neighbors(n), want.in_neighbors(n));
            }
            assert_eq!(spliced.num_edges(), want.num_edges());
            assert_eq!(spliced.num_labels(), 4);
            assert_eq!(spliced.fingerprint(), want.fingerprint());
            assert_eq!(g.with_edits(&[], &[]).fingerprint(), g.fingerprint());
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        use crate::attrs::AttrValue;

        let g1 = path3_undirected();
        let g2 = path3_undirected();
        assert_eq!(g1.fingerprint(), g2.fingerprint());

        // Extra edge changes the fingerprint.
        let mut b = GraphBuilder::undirected();
        b.add_node(Label(0));
        b.add_node(Label(1));
        b.add_node(Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(2));
        assert_ne!(b.build().fingerprint(), g1.fingerprint());

        // Different label changes the fingerprint.
        let mut b = GraphBuilder::undirected();
        b.add_node(Label(0));
        b.add_node(Label(0));
        b.add_node(Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        assert_ne!(b.build().fingerprint(), g1.fingerprint());

        // An attribute value changes the fingerprint.
        let mut b = GraphBuilder::undirected();
        b.add_node(Label(0));
        b.add_node(Label(1));
        b.add_node(Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.set_node_attr(NodeId(0), "age", AttrValue::Int(30));
        assert_ne!(b.build().fingerprint(), g1.fingerprint());
    }
}
