//! Property-based equivalence tests for the unified parallel execution
//! layer: for every algorithm family, query shape (COUNTP/COUNTSP), focal
//! selection, and thread count, the parallel path must produce counts
//! bit-identical to the sequential path on random graphs.

use egocensus::census::pairwise::{run_pair_census_with, PairCensusSpec, PairSelector};
use egocensus::census::{
    exec_matches, run_census_exec, run_census_with, run_pair_census_exec, Algorithm, CensusSpec,
    ExecConfig, FocalNodes, PtConfig,
};
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use proptest::prelude::*;

/// `n` nodes labelled 0/1, each pair an edge with probability
/// `1 / one_in`, drawn from a xorshift stream seeded with `seed`.
fn random_graph(n: usize, seed: u64, one_in: u64) -> Graph {
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
            if next() % one_in == 0 {
                b.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    b.build()
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..24, any::<u64>()).prop_map(|(n, seed)| random_graph(n, seed, 3))
}

/// COUNTP patterns plus one with a subpattern for COUNTSP.
fn countp_patterns() -> Vec<Pattern> {
    vec![
        Pattern::parse("PATTERN e { ?A-?B; }").unwrap(),
        Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap(),
        Pattern::parse("PATTERN p3 { ?A-?B; ?B-?C; }").unwrap(),
    ]
}

fn countsp_pattern() -> Pattern {
    Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }").unwrap()
}

/// The global match list is one list, order included, at every thread
/// count: a thread count is not allowed to reorder what the census,
/// the views and `egocensus match` read.
#[test]
fn match_list_order_is_thread_invariant() {
    let g = random_graph(200, 7, 12);
    for text in [
        "PATTERN w { ?A-?B; ?B-?C; ?A!-?C; }",
        "PATTERN lt { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL=0]; [?B.LABEL=1]; }",
    ] {
        let p = Pattern::parse(text).unwrap();
        let reference = exec_matches(&g, &p, 1);
        // Enough roots that eight workers each get a chunk.
        assert!(reference.len() > 64, "{text}: {}", reference.len());
        for threads in [2, 4, 8] {
            assert_eq!(
                exec_matches(&g, &p, threads).matches(),
                reference.matches(),
                "{text} threads={threads}"
            );
        }
    }
}

const ALL_ALGOS: [Algorithm; 7] = [
    Algorithm::NdBaseline,
    Algorithm::NdPivot,
    Algorithm::NdDiff,
    Algorithm::PtBaseline,
    Algorithm::PtRandom,
    Algorithm::PtOpt,
    Algorithm::Auto,
];

/// COUNTSP is rejected by ND-BAS and ND-DIFF.
const COUNTSP_ALGOS: [Algorithm; 5] = [
    Algorithm::NdPivot,
    Algorithm::PtBaseline,
    Algorithm::PtRandom,
    Algorithm::PtOpt,
    Algorithm::Auto,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn countp_parallel_equals_sequential(
        g in arb_graph(),
        pi in 0usize..3,
        k in 1u32..3,
        explicit_focal in any::<bool>(),
    ) {
        let pats = countp_patterns();
        let p = &pats[pi];
        let mut spec = CensusSpec::single(p, k);
        if explicit_focal {
            let set: Vec<NodeId> = g.node_ids().filter(|n| n.0 % 2 == 0).collect();
            spec = spec.with_focal(FocalNodes::Set(set));
        }
        let config = PtConfig::default();
        for algo in ALL_ALGOS {
            let seq = run_census_with(&g, &spec, algo, &config).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let par = run_census_exec(
                    &g, &spec, algo, &config, &ExecConfig::with_threads(threads),
                ).unwrap();
                prop_assert_eq!(
                    &par, &seq,
                    "{:?} threads={} focal={}", algo, threads, explicit_focal
                );
            }
        }
    }

    #[test]
    fn countsp_parallel_equals_sequential(
        g in arb_graph(),
        k in 0u32..3,
        explicit_focal in any::<bool>(),
    ) {
        let p = countsp_pattern();
        let mut spec = CensusSpec::single(&p, k).with_subpattern("one");
        if explicit_focal {
            let set: Vec<NodeId> = g.node_ids().filter(|n| n.0 % 3 != 0).collect();
            spec = spec.with_focal(FocalNodes::Set(set));
        }
        let config = PtConfig::default();
        for algo in COUNTSP_ALGOS {
            let seq = run_census_with(&g, &spec, algo, &config).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let par = run_census_exec(
                    &g, &spec, algo, &config, &ExecConfig::with_threads(threads),
                ).unwrap();
                prop_assert_eq!(
                    &par, &seq,
                    "{:?} threads={} focal={}", algo, threads, explicit_focal
                );
            }
        }
    }

    #[test]
    fn pairwise_parallel_equals_sequential(
        g in arb_graph(),
        k in 1u32..3,
        union in any::<bool>(),
    ) {
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let spec = if union {
            PairCensusSpec::union(&p, k, PairSelector::AllPairs)
        } else {
            PairCensusSpec::intersection(&p, k, PairSelector::AllPairs)
        };
        let config = PtConfig::default();
        for algo in [
            Algorithm::NdBaseline,
            Algorithm::NdPivot,
            Algorithm::PtBaseline,
            Algorithm::PtRandom,
            Algorithm::PtOpt,
        ] {
            let seq = run_pair_census_with(&g, &spec, algo, &config).unwrap();
            for threads in [2usize, 4, 8] {
                let par = run_pair_census_exec(
                    &g, &spec, algo, &config, &ExecConfig::with_threads(threads),
                ).unwrap();
                prop_assert_eq!(par.len(), seq.len(), "{:?} threads={}", algo, threads);
                for (a, b, c) in seq.iter() {
                    prop_assert_eq!(
                        par.get(a, b), c,
                        "{:?} threads={} pair=({},{})", algo, threads, a, b
                    );
                }
            }
        }
    }
}
