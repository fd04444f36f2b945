//! Property-based differential testing: every optimized census algorithm
//! must agree with the ND-BAS extract-and-match oracle on arbitrary
//! graphs, patterns, and radii.

use egocensus::census::{
    run, Algorithm, Census, CensusError, CensusSpec, Clustering, CountVector, Job, PtConfig,
    PtOrdering,
};
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use proptest::prelude::*;

/// One census under `config` on one thread.
fn census_with(
    g: &Graph,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
) -> Result<CountVector, CensusError> {
    let job = Job {
        config: config.clone(),
        ..Job::new(Census::Single(spec), algorithm)
    };
    run(g, &job).map(|mut out| out.counts.remove(0))
}

/// An arbitrary undirected labeled graph from an edge-probability matrix
/// seedable by proptest.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..24, any::<u64>(), 1u16..4).prop_map(|(n, seed, labels)| {
        // Deterministic pseudo-random edges from the seed (splitmix-style),
        // density ~25%.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::undirected();
        for _ in 0..n {
            b.add_node(Label((next() % labels as u64) as u16));
        }
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if next() % 4 == 0 {
                    b.add_edge(NodeId(i), NodeId(j));
                }
            }
        }
        b.build()
    })
}

fn patterns() -> Vec<Pattern> {
    vec![
        Pattern::parse("PATTERN n1 { ?A; }").unwrap(),
        Pattern::parse("PATTERN e { ?A-?B; }").unwrap(),
        Pattern::parse("PATTERN p3 { ?A-?B; ?B-?C; }").unwrap(),
        Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap(),
        Pattern::parse("PATTERN open { ?A-?B; ?B-?C; ?A!-?C; }").unwrap(),
        Pattern::parse("PATTERN lt { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL=0]; }").unwrap(),
        Pattern::parse("PATTERN s { ?A-?B; ?B-?C; ?C-?D; ?D-?A; }").unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_match_nd_bas(g in arb_graph(), k in 0u32..4, pi in 0usize..7) {
        let pats = patterns();
        let p = &pats[pi];
        let spec = CensusSpec::single(p, k);
        let oracle = census_with(&g, &spec, Algorithm::NdBaseline, &PtConfig::default())
            .unwrap();
        let configs = [
            (Algorithm::NdPivot, PtConfig::default()),
            (Algorithm::NdDiff, PtConfig::default()),
            (Algorithm::PtBaseline, PtConfig::default()),
            (Algorithm::PtOpt, PtConfig::default()),
            (
                Algorithm::PtOpt,
                PtConfig { num_centers: 0, clustering: Clustering::None, ..PtConfig::default() },
            ),
            (
                Algorithm::PtOpt,
                PtConfig { clustering: Clustering::Random(3), ..PtConfig::default() },
            ),
            (
                Algorithm::PtRandom,
                PtConfig { ordering: PtOrdering::Random, ..PtConfig::default() },
            ),
            (
                Algorithm::PtOpt,
                PtConfig { use_distance_shortcuts: false, ..PtConfig::default() },
            ),
            (Algorithm::Auto, PtConfig::default()),
        ];
        for (algo, cfg) in configs {
            let got = census_with(&g, &spec, algo, &cfg).unwrap();
            for n in g.node_ids() {
                prop_assert_eq!(
                    got.get(n),
                    oracle.get(n),
                    "algo={:?} pattern={} k={} node={:?}",
                    algo, p.name(), k, n
                );
            }
        }
    }

    #[test]
    fn focal_subsets_consistent(g in arb_graph(), k in 0u32..3) {
        // Counts restricted to a focal subset equal the all-nodes counts on
        // that subset.
        let pats = patterns();
        let p = &pats[3]; // triangle
        let all = census_with(
            &g,
            &CensusSpec::single(p, k),
            Algorithm::NdPivot,
            &PtConfig::default(),
        )
        .unwrap();
        let subset: Vec<NodeId> = g.node_ids().filter(|n| n.0 % 2 == 0).collect();
        let spec = CensusSpec::single(p, k)
            .with_focal(egocensus::census::FocalNodes::Set(subset.clone()));
        for algo in [Algorithm::NdPivot, Algorithm::PtOpt, Algorithm::NdDiff] {
            let got = census_with(&g, &spec, algo, &PtConfig::default()).unwrap();
            for &n in &subset {
                prop_assert_eq!(got.get(n), all.get(n), "algo={:?} node={:?}", algo, n);
            }
        }
    }

    #[test]
    fn counts_monotone_in_k(g in arb_graph(), pi in 0usize..7) {
        // A larger radius can only see more matches.
        let pats = patterns();
        let p = &pats[pi];
        let mut prev: Option<Vec<u64>> = None;
        for k in 0..4u32 {
            let cv = census_with(
                &g,
                &CensusSpec::single(p, k),
                Algorithm::NdPivot,
                &PtConfig::default(),
            )
            .unwrap();
            let counts: Vec<u64> = g.node_ids().map(|n| cv.get(n)).collect();
            if let Some(prev) = &prev {
                for (a, b) in prev.iter().zip(&counts) {
                    prop_assert!(b >= a, "count decreased as k grew");
                }
            }
            prev = Some(counts);
        }
    }

    #[test]
    fn large_k_equals_component_total(g in arb_graph()) {
        // With k >= diameter, every node of a connected component counts
        // every match inside that component.
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let k = g.num_nodes() as u32; // >= any diameter
        let cv = census_with(
            &g,
            &CensusSpec::single(&p, k),
            Algorithm::NdPivot,
            &PtConfig::default(),
        )
        .unwrap();
        let oracle = census_with(
            &g,
            &CensusSpec::single(&p, k),
            Algorithm::NdBaseline,
            &PtConfig::default(),
        )
        .unwrap();
        for n in g.node_ids() {
            prop_assert_eq!(cv.get(n), oracle.get(n));
        }
    }
}
