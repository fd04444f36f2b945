//! Property-based differential testing on *directed* graphs: the census
//! algorithms must agree with ND-BAS for directed patterns (including
//! negated directed edges and COUNTSP anchors).

use egocensus::census::{
    exec_matches, run, Algorithm, Census, CensusError, CensusSpec, CountVector, Job, PtConfig,
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

fn arb_digraph() -> impl Strategy<Value = Graph> {
    (4usize..20, any::<u64>(), 1u16..3).prop_map(|(n, seed, labels)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::directed();
        for _ in 0..n {
            b.add_node(Label((next() % labels as u64) as u16));
        }
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j && next() % 4 == 0 {
                    b.add_edge(NodeId(i), NodeId(j));
                }
            }
        }
        b.build()
    })
}

fn patterns() -> Vec<Pattern> {
    vec![
        Pattern::parse("PATTERN de { ?A->?B; }").unwrap(),
        Pattern::parse("PATTERN dp { ?A->?B; ?B->?C; }").unwrap(),
        Pattern::parse("PATTERN cyc { ?A->?B; ?B->?C; ?C->?A; }").unwrap(),
        Pattern::parse("PATTERN open { ?A->?B; ?B->?C; ?A!->?C; }").unwrap(),
        Pattern::parse("PATTERN mutual { ?A->?B; ?B->?A; }").unwrap(),
        Pattern::parse("PATTERN lbl { ?A->?B; [?A.LABEL=0]; }").unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn directed_census_matches_nd_bas(g in arb_digraph(), k in 0u32..3, pi in 0usize..6) {
        let pats = patterns();
        let p = &pats[pi];
        let spec = CensusSpec::single(p, k);
        let oracle = census_with(&g, &spec, Algorithm::NdBaseline, &PtConfig::default())
            .unwrap();
        for algo in [
            Algorithm::NdPivot,
            Algorithm::NdDiff,
            Algorithm::PtBaseline,
            Algorithm::PtOpt,
            Algorithm::Auto,
        ] {
            let got = census_with(&g, &spec, algo, &PtConfig::default()).unwrap();
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
    fn directed_countsp_consistent_across_algorithms(g in arb_digraph(), k in 0u32..3) {
        // The coordinator triad anchored on its middle node: ND-PVOT and
        // PT agree (ND-BAS cannot evaluate COUNTSP).
        let p = Pattern::parse(
            "PATTERN triad { ?A->?B; ?B->?C; ?A!->?C; SUBPATTERN mid {?B;} }",
        )
        .unwrap();
        let spec = CensusSpec::single(&p, k).with_subpattern("mid");
        let a = census_with(&g, &spec, Algorithm::NdPivot, &PtConfig::default()).unwrap();
        for algo in [Algorithm::PtBaseline, Algorithm::PtOpt] {
            let b = census_with(&g, &spec, algo, &PtConfig::default()).unwrap();
            for n in g.node_ids() {
                prop_assert_eq!(a.get(n), b.get(n), "algo={:?} node={:?}", algo, n);
            }
        }
    }

    #[test]
    fn countsp_k0_equals_anchor_image_count(g in arb_digraph()) {
        // At k = 0 the neighborhood is the node itself, so the COUNTSP
        // census equals the number of matches whose anchor image is the
        // node — checkable directly from the match list.
        let p = Pattern::parse(
            "PATTERN dp { ?A->?B; ?B->?C; SUBPATTERN mid {?B;} }",
        )
        .unwrap();
        let matches = exec_matches(&g, &p, 1);
        let mid = p.node_by_name("B").unwrap();
        let spec = CensusSpec::single(&p, 0).with_subpattern("mid");
        let counts =
            census_with(&g, &spec, Algorithm::NdPivot, &PtConfig::default()).unwrap();
        for n in g.node_ids() {
            let direct = matches.iter().filter(|m| m.image(mid) == n).count() as u64;
            prop_assert_eq!(counts.get(n), direct, "node {:?}", n);
        }
    }
}
