//! Property-based tests for the pairwise (intersection/union) census
//! algorithms of Appendix B, against a brute-force oracle.

use egocensus::census::pairwise::{
    brute_force_pair, brute_force_pair_anchored, PairCensusSpec, PairKind, PairSelector,
};
use egocensus::census::{run, Algorithm, Census, CensusError, Job, PairCounts};
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use proptest::prelude::*;

/// One pairwise census on one thread.
fn pair_census(
    g: &Graph,
    spec: &PairCensusSpec<'_>,
    algorithm: Algorithm,
) -> Result<PairCounts, CensusError> {
    run(g, &Job::new(Census::Pair(spec), algorithm)).map(|out| out.pairs)
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..16, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::undirected();
        for _ in 0..n {
            b.add_node(Label((next() % 2) as u16));
        }
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

fn patterns() -> Vec<Pattern> {
    vec![
        Pattern::parse("PATTERN n { ?A; }").unwrap(),
        Pattern::parse("PATTERN e { ?A-?B; }").unwrap(),
        Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap(),
        Pattern::parse("PATTERN p3 { ?A-?B; ?B-?C; }").unwrap(),
    ]
}

/// Patterns with a subpattern, for the COUNTSP leg.
fn countsp_patterns() -> Vec<(Pattern, &'static str)> {
    vec![
        (
            Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }").unwrap(),
            "s",
        ),
        (
            Pattern::parse("PATTERN p3 { ?A-?B; ?B-?C; SUBPATTERN ends {?A; ?C;} }").unwrap(),
            "ends",
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pairwise_algorithms_match_brute_force(
        g in arb_graph(),
        pi in 0usize..4,
        k in 1u32..3,
        union in any::<bool>(),
    ) {
        let pats = patterns();
        let p = &pats[pi];
        let kind = if union { PairKind::Union } else { PairKind::Intersection };
        let spec = match kind {
            PairKind::Intersection => PairCensusSpec::intersection(p, k, PairSelector::AllPairs),
            PairKind::Union => PairCensusSpec::union(p, k, PairSelector::AllPairs),
        };
        let sp = countsp_patterns();
        let (q, sub) = &sp[pi % sp.len()];
        let anchors = q.subpattern(sub).unwrap().nodes.clone();
        for algo in [
            Algorithm::NdBaseline,
            Algorithm::NdPivot,
            Algorithm::PtBaseline,
            Algorithm::PtRandom,
            Algorithm::PtOpt,
        ] {
            let counts = pair_census(&g, &spec, algo).unwrap();
            // COUNTSP: every algorithm but ND-BAS, which refuses it.
            let countsp = (algo != Algorithm::NdBaseline).then(|| {
                let spec = match kind {
                    PairKind::Intersection => PairCensusSpec::intersection(q, k, PairSelector::AllPairs),
                    PairKind::Union => PairCensusSpec::union(q, k, PairSelector::AllPairs),
                };
                pair_census(&g, &spec.with_subpattern(sub), algo).unwrap()
            });
            for a in g.node_ids() {
                for b in g.node_ids() {
                    if b <= a {
                        continue;
                    }
                    let want = brute_force_pair(&g, p, k, kind, a, b);
                    prop_assert_eq!(
                        counts.get(a, b),
                        want,
                        "{:?} {:?} k={} pair=({},{})",
                        algo, kind, k, a, b
                    );
                    if let Some(countsp) = &countsp {
                        let want = brute_force_pair_anchored(&g, q, k, kind, a, b, &anchors);
                        prop_assert_eq!(
                            countsp.get(a, b),
                            want,
                            "COUNTSP {} {:?} {:?} k={} pair=({},{})",
                            sub, algo, kind, k, a, b
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn selector_restriction_is_a_projection(g in arb_graph(), k in 1u32..3) {
        // Counts under a restricted selector match the AllPairs counts on
        // the selected pairs.
        let pats = patterns();
        let p = &pats[2]; // triangle
        let all = pair_census(
            &g,
            &PairCensusSpec::intersection(p, k, PairSelector::AllPairs),
            Algorithm::NdPivot,
        )
        .unwrap();
        let members: Vec<NodeId> = g.node_ids().filter(|n| n.0 % 2 == 0).collect();
        let among = pair_census(
            &g,
            &PairCensusSpec::intersection(p, k, PairSelector::Among(members.clone())),
            Algorithm::PtOpt,
        )
        .unwrap();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                prop_assert_eq!(among.get(a, b), all.get(a, b), "pair ({},{})", a, b);
            }
        }
    }

    #[test]
    fn intersection_bounded_by_union(g in arb_graph(), k in 1u32..3, pi in 0usize..4) {
        let pats = patterns();
        let p = &pats[pi];
        let inter = pair_census(
            &g,
            &PairCensusSpec::intersection(p, k, PairSelector::AllPairs),
            Algorithm::NdPivot,
        )
        .unwrap();
        let uni = pair_census(
            &g,
            &PairCensusSpec::union(p, k, PairSelector::AllPairs),
            Algorithm::NdPivot,
        )
        .unwrap();
        for a in g.node_ids() {
            for b in g.node_ids() {
                if b <= a {
                    continue;
                }
                prop_assert!(inter.get(a, b) <= uni.get(a, b));
            }
        }
    }
}
