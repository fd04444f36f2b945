//! Property-based differential testing: every optimized census algorithm
//! must agree with the ND-BAS extract-and-match oracle on arbitrary
//! graphs, patterns, and radii.

use egocensus::census::pairwise::{PairCensusSpec, PairSelector};
use egocensus::census::topk::top_k_census;
use egocensus::census::{
    exec_matches, run, Algorithm, Census, CensusError, CensusSpec, Clustering, CountVector,
    ExecConfig, Job, PairCounts, PtConfig, PtOrdering,
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

/// One pairwise census on one thread.
fn pair_census(g: &Graph, spec: &PairCensusSpec<'_>, algorithm: Algorithm) -> PairCounts {
    run(g, &Job::new(Census::Pair(spec), algorithm))
        .unwrap()
        .pairs
}

/// Patterns whose matches ND-PVOT keys at a pivot other than the
/// analysed one: several anchors reach the other anchors exactly as far
/// as the pivot does. The last is a COUNTSP whose two subpattern nodes
/// tie, with the subpattern's name.
fn tied_pivot_patterns() -> Vec<(Pattern, Option<&'static str>)> {
    let parse = |text| Pattern::parse(text).unwrap();
    vec![
        (parse("PATTERN sq { ?A-?B; ?B-?C; ?C-?D; ?D-?A; }"), None),
        (
            parse("PATTERN k4 { ?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D; }"),
            None,
        ),
        (parse("PATTERN split { ?A-?B; ?C; }"), None),
        (
            parse("PATTERN mid { ?A-?B; ?B-?C; ?C-?D; SUBPATTERN s {?B; ?C;} }"),
            Some("s"),
        ),
    ]
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

    #[test]
    fn tied_pivots_match_the_oracle(g in arb_graph(), k in 0u32..4, pi in 0usize..4) {
        // Single, batch, pairwise and top-k ND-PVOT against ND-BAS; the
        // COUNTSP pattern against PT-OPT, because ND-BAS refuses COUNTSP.
        let pats = tied_pivot_patterns();
        let (p, sub) = &pats[pi];
        let oracle_algo = if sub.is_some() { Algorithm::PtOpt } else { Algorithm::NdBaseline };
        let spec_at = |k| {
            let spec = CensusSpec::single(p, k);
            match sub {
                Some(name) => spec.with_subpattern(name),
                None => spec,
            }
        };
        let spec = spec_at(k);
        let oracle = census_with(&g, &spec, oracle_algo, &PtConfig::default()).unwrap();
        for threads in [1, 3] {
            let job = Job {
                exec: ExecConfig::with_threads(threads),
                ..Job::new(Census::Single(&spec), Algorithm::NdPivot)
            };
            let got = run(&g, &job).unwrap().counts.remove(0);
            prop_assert_eq!(&got, &oracle, "single {} k={} threads={}", p.name(), k, threads);
        }

        // A batch sweeps at k and reads radius k - 1 as a prefix.
        let below = spec_at(k.saturating_sub(1));
        let below_oracle = census_with(&g, &below, oracle_algo, &PtConfig::default()).unwrap();
        let specs = [spec.clone(), below];
        let batch = run(&g, &Job::new(Census::Batch(&specs), Algorithm::NdPivot)).unwrap();
        prop_assert_eq!(&batch.counts[0], &oracle, "batch {} k={}", p.name(), k);
        prop_assert_eq!(&batch.counts[1], &below_oracle, "batch {} k={} prefix", p.name(), k);

        let m = exec_matches(&g, p, 1);
        let top = top_k_census(&g, &spec, &m, 5).unwrap();
        prop_assert_eq!(top.top, oracle.top_k(5), "top-k {} k={}", p.name(), k);

        let members: Vec<NodeId> = g.node_ids().take(8).collect();
        let among = PairSelector::Among(members.clone());
        for pair in [
            PairCensusSpec::intersection(p, k, among.clone()),
            PairCensusSpec::union(p, k, among),
        ] {
            let pair = match sub {
                Some(name) => pair.with_subpattern(name),
                None => pair,
            };
            let want = pair_census(&g, &pair, oracle_algo);
            let got = pair_census(&g, &pair, Algorithm::NdPivot);
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    prop_assert_eq!(
                        got.get(a, b),
                        want.get(a, b),
                        "pairwise {:?} {} k={} pair=({},{})",
                        pair.kind(), p.name(), k, a, b
                    );
                }
            }
        }
    }
}
