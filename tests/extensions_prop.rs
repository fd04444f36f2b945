//! Property-based tests for the future-work extensions: top-k census and
//! the pattern DSL printer round-trip.

use egocensus::census::{global_matches, topk, CensusSpec};
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::{to_dsl, Pattern};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (5usize..24, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::undirected();
        b.add_nodes(n, Label(0));
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if next() % 3 == 0 {
                    b.add_edge(NodeId(i), NodeId(j));
                }
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn topk_matches_exhaustive(g in arb_graph(), k in 0u32..3, kr in 1usize..6) {
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = global_matches(&g, &p);
        let spec = CensusSpec::single(&p, k);
        let fast = topk::top_k_census(&g, &spec, &m, kr).unwrap();
        let slow = topk::top_k_exhaustive(&g, &spec, &m, kr).unwrap();
        prop_assert_eq!(fast.top, slow, "k={} kr={}", k, kr);
    }

    #[test]
    fn random_pattern_dsl_roundtrips(
        n_nodes in 1usize..6,
        edge_bits in any::<u32>(),
        direct_bits in any::<u32>(),
        neg_bit in any::<u32>(),
        label_bits in any::<u32>(),
    ) {
        // Construct a random small pattern programmatically...
        let mut b = Pattern::builder("rand");
        let names = ["A", "B", "C", "D", "E"];
        let nodes: Vec<_> = names.iter().take(n_nodes).map(|v| b.node(v)).collect();
        let mut bit = 0;
        for i in 0..n_nodes {
            for j in (i + 1)..n_nodes {
                let present = (edge_bits >> bit) & 1 == 1;
                let directed = (direct_bits >> bit) & 1 == 1;
                let negated = (neg_bit >> bit) & 1 == 1;
                bit += 1;
                if !present {
                    continue;
                }
                match (directed, negated) {
                    (false, false) => b.edge(nodes[i], nodes[j]),
                    (true, false) => b.directed_edge(nodes[i], nodes[j]),
                    (false, true) => b.negated_edge(nodes[i], nodes[j]),
                    (true, true) => b.negated_directed_edge(nodes[i], nodes[j]),
                };
            }
        }
        for (i, &v) in nodes.iter().enumerate() {
            if (label_bits >> i) & 1 == 1 {
                b.label(v, egocensus::graph::Label((i % 4) as u16));
            }
        }
        let p = b.build();

        // ...and require to_dsl -> parse to reproduce it exactly.
        let dsl = to_dsl(&p);
        let q = Pattern::parse(&dsl).unwrap();
        prop_assert_eq!(p.num_nodes(), q.num_nodes());
        for v in p.nodes() {
            prop_assert_eq!(p.var_name(v), q.var_name(v));
            prop_assert_eq!(p.label(v), q.label(v));
        }
        let norm = |p: &Pattern| {
            let mut pos: Vec<_> = p.positive_edges().iter().map(|e| (e.a, e.b, e.directed)).collect();
            pos.sort();
            let mut neg: Vec<_> = p.negative_edges().iter().map(|e| (e.a, e.b, e.directed)).collect();
            neg.sort();
            (pos, neg)
        };
        prop_assert_eq!(norm(&p), norm(&q));
    }
}
