//! `DeltaGraph::compact` splices the base CSR instead of rebuilding it.
//! The splice must be indistinguishable from a from-scratch
//! `GraphBuilder` build of the edited graph: every neighbor list (out,
//! in and the undirected view), the edge and label counts, the
//! fingerprint, and every node and edge attribute.
//!
//! Cases cover undirected and directed graphs with attributes; deltas
//! that add the antiparallel twin of an edge or remove one half of a
//! pair, batches that cancel back to net-empty, deletes of attributed
//! edges; and bases opened from a binary file (mmap-backed).

use ego_dynamic::DeltaGraph;
use ego_graph::store::{open_binary, save_binary};
use ego_graph::{AttrValue, Graph, GraphBuilder, Label, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Edge list, labels and attributes of a random graph on `n` nodes.
struct Spec {
    directed: bool,
    labels: Vec<Label>,
    edges: Vec<(NodeId, NodeId)>,
    node_attrs: Vec<(NodeId, &'static str, AttrValue)>,
    edge_attrs: Vec<(NodeId, NodeId, &'static str, AttrValue)>,
}

impl Spec {
    fn new(directed: bool, n: u32, raw: &[(u32, u32)], tags: &[u32]) -> Spec {
        let node = |x: u32| NodeId(x % n);
        let labels = (0..n)
            .map(|i| Label((tags[i as usize % tags.len()] % 4) as u16))
            .collect();
        let edges: Vec<(NodeId, NodeId)> = raw
            .iter()
            .map(|&(x, y)| (node(x), node(y)))
            .filter(|(a, b)| a != b)
            .collect();
        let node_attrs = tags
            .iter()
            .enumerate()
            .filter(|(_, t)| **t % 3 == 0)
            .map(|(i, &t)| (node(t), "org", AttrValue::Str(format!("o{i}"))))
            .collect();
        let edge_attrs = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(i, &(a, b))| (a, b, "since", AttrValue::Int(i as i64)))
            .collect();
        Spec {
            directed,
            labels,
            edges,
            node_attrs,
            edge_attrs,
        }
    }

    /// Build with `edges` in place of the spec's own edge list; edge
    /// attributes of edges that are not in it are dropped by the builder.
    fn build_with(&self, edges: impl Iterator<Item = (NodeId, NodeId)>) -> Graph {
        let mut b = if self.directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for &l in &self.labels {
            b.add_node(l);
        }
        for (a, c) in edges {
            b.add_edge(a, c);
        }
        for (n, name, v) in &self.node_attrs {
            b.set_node_attr(*n, name, v.clone());
        }
        for (a, c, name, v) in &self.edge_attrs {
            b.set_edge_attr(*a, *c, name, v.clone());
        }
        b.build()
    }
}

/// The graph round-tripped through the binary format and reopened
/// through the memory map.
fn mmap_copy(g: &Graph) -> Graph {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "ego-splice-{}-{}.egb",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    save_binary(g, &path).unwrap();
    let opened = open_binary(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    opened
}

fn node_columns(g: &Graph) -> BTreeMap<String, BTreeMap<u32, String>> {
    g.node_attrs()
        .attribute_names()
        .map(|name| {
            let col = g
                .node_attrs()
                .column(name)
                .map(|(n, v)| (n.0, format!("{v:?}")));
            (name.to_string(), col.collect())
        })
        .collect()
}

fn edge_columns(g: &Graph) -> BTreeMap<String, BTreeMap<(u32, u32), String>> {
    g.edge_attrs()
        .attribute_names()
        .map(|name| {
            let col = g
                .edge_attrs()
                .column(name)
                .map(|(k, v)| (k, format!("{v:?}")));
            (name.to_string(), col.collect())
        })
        .collect()
}

fn assert_same(got: &Graph, want: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.num_nodes(), want.num_nodes());
    prop_assert_eq!(got.num_edges(), want.num_edges());
    prop_assert_eq!(got.num_labels(), want.num_labels());
    prop_assert_eq!(got.labels(), want.labels());
    for n in want.node_ids() {
        prop_assert_eq!(got.neighbors(n), want.neighbors(n), "neighbors of {:?}", n);
        prop_assert_eq!(
            got.out_neighbors(n),
            want.out_neighbors(n),
            "out of {:?}",
            n
        );
        prop_assert_eq!(got.in_neighbors(n), want.in_neighbors(n), "in of {:?}", n);
    }
    prop_assert_eq!(node_columns(got), node_columns(want));
    prop_assert_eq!(edge_columns(got), edge_columns(want));
    prop_assert_eq!(got.fingerprint(), want.fingerprint());
    prop_assert!(got.verify_fingerprint());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ops are `(kind, x, y)`: 0 inserts `x -> y`, 1 deletes it, 2
    /// inserts the reverse of an existing edge (an antiparallel twin on
    /// directed graphs), 3 deletes an existing (often attributed) edge.
    /// When `cancel` rolls 0 (one case in four) the batch is undone op by
    /// op, leaving it net-empty.
    #[test]
    fn compact_equals_a_fresh_build(
        directed in any::<bool>(),
        mmap in any::<bool>(),
        cancel in 0u32..4,
        n in 2u32..20,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        tags in prop::collection::vec(any::<u32>(), 1..20),
        ops in prop::collection::vec((0u32..4, any::<u32>(), any::<u32>()), 0..12),
    ) {
        let spec = Spec::new(directed, n, &raw, &tags);
        let built = spec.build_with(spec.edges.iter().copied());
        let base = Arc::new(if mmap { mmap_copy(&built) } else { built });
        let mut d = DeltaGraph::new(base.clone());
        let existing: Vec<(NodeId, NodeId)> = base.edges().collect();
        let mut applied: Vec<(bool, NodeId, NodeId)> = Vec::new();
        for &(kind, x, y) in &ops {
            let (insert, a, b) = match kind {
                0 | 1 => (kind == 0, NodeId(x % n), NodeId(y % n)),
                _ if existing.is_empty() => continue,
                _ => {
                    let (a, b) = existing[x as usize % existing.len()];
                    if kind == 2 { (true, b, a) } else { (false, a, b) }
                }
            };
            if a == b {
                continue;
            }
            let changed = if insert { d.insert_edge(a, b) } else { d.delete_edge(a, b) };
            if changed.unwrap() {
                applied.push((insert, a, b));
            }
        }
        if cancel == 0 {
            for &(insert, a, b) in applied.iter().rev() {
                let undone = if insert { d.delete_edge(a, b) } else { d.insert_edge(a, b) };
                prop_assert!(undone.unwrap());
            }
            prop_assert!(d.is_clean());
        }

        let compacted = d.compact();
        let kept = base
            .edges()
            .filter(|&(a, b)| d.has_edge(a, b))
            .chain(d.added())
            .collect::<Vec<_>>();
        let fresh = spec.build_with(kept.into_iter());
        assert_same(&compacted, &fresh)?;
        prop_assert_eq!(compacted.num_edges(), d.num_edges());
        for n in compacted.node_ids() {
            prop_assert_eq!(compacted.neighbors(n), &d.neighbors(n)[..]);
            prop_assert_eq!(compacted.out_neighbors(n), &d.out_neighbors(n)[..]);
        }
    }
}
