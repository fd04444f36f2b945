//! Property-based equivalence for the batched census engine: evaluating
//! N patterns as one [`run_batch_exec`] call must produce counts
//! bit-identical to N sequential [`run_census_exec`] runs — for every
//! algorithm, batch size 1–4, random radii, random graphs, and both
//! threads=1 and threads=auto — while doing **no more** traversal work.

use egocensus::census::topk::{top_k_census, top_k_exhaustive};
use egocensus::census::{
    global_matches, run_batch, run_batch_exec, run_census_exec, run_census_exec_instrumented,
    Algorithm, BatchStage, CensusSpec, ExecConfig, FocalNodes, PtConfig,
};
use egocensus::datagen::{assign_random_labels, barabasi_albert, rng};
use egocensus::dynamic::DeltaGraph;
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use egocensus::query::{Catalog, CensusCache, QueryEngine};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..24, any::<u64>()).prop_map(|(n, seed)| {
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

/// Many components of two to four nodes (edges, paths, triangles, stars):
/// no center reaches most matches, so their K-means features coincide and
/// clustering collapses them into few, wide clusters.
fn arb_fragmented_graph() -> impl Strategy<Value = Graph> {
    (6usize..40, any::<u64>()).prop_map(|(components, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::undirected();
        for _ in 0..components {
            let size = 2 + (next() % 3) as u32;
            let first = b.add_node(Label((next() % 2) as u16)).0;
            for _ in 1..size {
                b.add_node(Label((next() % 2) as u16));
            }
            for i in 1..size {
                // A spanning path or star, plus the odd closing edge.
                let to = if next() % 2 == 0 {
                    first
                } else {
                    first + i - 1
                };
                b.add_edge(NodeId(first + i), NodeId(to));
            }
            if size > 2 && next() % 2 == 0 {
                b.add_edge(NodeId(first), NodeId(first + size - 1));
            }
        }
        b.build()
    })
}

fn patterns() -> Vec<Pattern> {
    vec![
        Pattern::parse("PATTERN e { ?A-?B; }").unwrap(),
        Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap(),
        Pattern::parse("PATTERN p3 { ?A-?B; ?B-?C; }").unwrap(),
        Pattern::parse("PATTERN n { ?A; }").unwrap(),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: batched == sequential, bit for bit, for
    /// every algorithm, at one thread and at auto threads.
    #[test]
    fn batched_counts_equal_sequential(
        g in arb_graph(),
        nspecs in 1usize..5,
        ks in prop::collection::vec(0u32..4, 4..5),
        shift in 0usize..4,
        explicit_focal in any::<bool>(),
    ) {
        let pats = patterns();
        let config = PtConfig::default();
        let mut specs: Vec<CensusSpec<'_>> = Vec::new();
        for i in 0..nspecs {
            let mut s = CensusSpec::single(&pats[(i + shift) % pats.len()], ks[i]);
            if explicit_focal {
                let set: Vec<NodeId> = g.node_ids().filter(|n| n.0 % 2 == 0).collect();
                s = s.with_focal(FocalNodes::Set(set));
            }
            specs.push(s);
        }
        for algo in ALL_ALGOS {
            for threads in [1usize, 0] {
                let exec = ExecConfig::with_threads(threads);
                let batch = run_batch_exec(&g, &specs, algo, &config, &exec, &[], None).unwrap();
                for (i, spec) in specs.iter().enumerate() {
                    let seq = run_census_exec(&g, spec, algo, &config, &exec).unwrap();
                    prop_assert_eq!(
                        &batch.counts[i], &seq,
                        "{:?} threads={} spec {}", algo, threads, i
                    );
                }
            }
        }
    }

    /// The batch never does more neighborhood work than N sequential
    /// ND-PVOT runs (ND-PVOT only: the other families report different
    /// or zero traversal stats sequentially, so the comparison is not
    /// meaningful for them).
    #[test]
    fn batched_nd_pivot_never_visits_more(
        g in arb_graph(),
        nspecs in 1usize..5,
        ks in prop::collection::vec(1u32..4, 4..5),
    ) {
        let pats = patterns();
        let config = PtConfig::default();
        let specs: Vec<CensusSpec<'_>> = (0..nspecs)
            .map(|i| CensusSpec::single(&pats[i % pats.len()], ks[i]))
            .collect();
        let batch = run_batch(&g, &specs, Algorithm::NdPivot, &config).unwrap();
        let mut seq_nodes = 0u64;
        let mut seq_edges = 0u64;
        for spec in &specs {
            let (_, ts) = run_census_exec_instrumented(
                &g, spec, Algorithm::NdPivot, &config, &ExecConfig::sequential(),
            ).unwrap();
            seq_nodes += ts.nodes_expanded;
            seq_edges += ts.edges_traversed;
        }
        prop_assert!(
            batch.stats.nodes_expanded <= seq_nodes,
            "batch expanded {} > sequential {}", batch.stats.nodes_expanded, seq_nodes
        );
        prop_assert!(
            batch.stats.edges_traversed <= seq_edges,
            "batch traversed {} > sequential {}", batch.stats.edges_traversed, seq_edges
        );
        if nspecs > 1 {
            prop_assert!(batch.stats.nodes_expanded < seq_nodes,
                "a multi-spec batch must share sweeps");
        }
    }

    /// The PT family on the shape that collapses K-means: batched and
    /// single-pattern runs agree with ND-PVOT at every thread count.
    #[test]
    fn pt_family_on_many_small_components(
        g in arb_fragmented_graph(),
        ks in prop::collection::vec(0u32..4, 4..5),
        centers in prop_oneof![Just(0usize), Just(3usize), Just(12usize)],
    ) {
        let pats = patterns();
        let config = PtConfig { num_centers: centers, ..PtConfig::default() };
        let specs: Vec<CensusSpec<'_>> = pats
            .iter()
            .zip(&ks)
            .map(|(p, &k)| CensusSpec::single(p, k))
            .collect();
        let oracle = run_batch(&g, &specs, Algorithm::NdPivot, &config).unwrap();
        for algo in [Algorithm::PtBaseline, Algorithm::PtRandom, Algorithm::PtOpt] {
            for threads in [1usize, 0] {
                let exec = ExecConfig::with_threads(threads);
                let batch = run_batch_exec(&g, &specs, algo, &config, &exec, &[], None).unwrap();
                for (i, spec) in specs.iter().enumerate() {
                    prop_assert_eq!(
                        &batch.counts[i], &oracle.counts[i],
                        "batched {:?} threads={} spec {}", algo, threads, i
                    );
                    let seq = run_census_exec(&g, spec, algo, &config, &exec).unwrap();
                    prop_assert_eq!(
                        &seq, &oracle.counts[i],
                        "single {:?} threads={} spec {}", algo, threads, i
                    );
                }
            }
        }
    }

    /// A census served from a cached center index equals one served from
    /// a freshly built index — before an update, and after it, when the
    /// cached index must have been dropped with the old fingerprint.
    #[test]
    fn cached_center_index_serves_the_same_census(
        g in arb_graph(),
        k in 0u32..3,
        a in 0u32..8,
        b in 0u32..8,
    ) {
        let sql = |lo: u32| format!(
            "SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, {k})), COUNTP(single_edge, SUBGRAPH(ID, {k})) \
             FROM nodes WHERE ID >= {lo}"
        );
        let fresh = |g: &Graph, q: &str| {
            let mut e = QueryEngine::with_builtins(g);
            e.set_algorithm(Algorithm::PtOpt);
            e.execute(q).unwrap()
        };
        let cache = Arc::new(CensusCache::new(16));
        let mut served = QueryEngine::shared(Arc::new(g.clone()));
        served.set_catalog(Catalog::with_builtins());
        served.set_algorithm(Algorithm::PtOpt);
        served.set_census_cache(cache.clone());

        // Distinct focal sets keep the count side of the cache cold, so
        // every statement runs the traversal.
        prop_assert_eq!(served.execute(&sql(0)).unwrap(), fresh(&g, &sql(0)));
        prop_assert_eq!(served.execute(&sql(1)).unwrap(), fresh(&g, &sql(1)));
        let st = cache.stats();
        prop_assert_eq!((st.center_misses, st.center_hits), (1, 1));

        let mut delta = DeltaGraph::new(Arc::new(g.clone()));
        if a != b {
            let (a, b) = (NodeId(a), NodeId(b));
            if g.has_undirected_edge(a, b) {
                delta.delete_edge(a, b).unwrap();
            } else {
                delta.insert_edge(a, b).unwrap();
            }
        }
        let updated = Arc::new(delta.compact());
        let changed = served.swap_graph(updated.clone());
        prop_assert_eq!(served.execute(&sql(2)).unwrap(), fresh(&updated, &sql(2)));
        prop_assert_eq!(served.execute(&sql(3)).unwrap(), fresh(&updated, &sql(3)));
        let st = cache.stats();
        let rebuilt = changed as u64;
        prop_assert_eq!((st.center_misses, st.center_hits), (1 + rebuilt, 3 - rebuilt));
    }

    /// COUNTSP specs batch correctly through ND-PVOT and the PT family.
    #[test]
    fn batched_countsp_equals_sequential(
        g in arb_graph(),
        k1 in 0u32..3,
        k2 in 0u32..3,
    ) {
        let p = Pattern::parse(
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }"
        ).unwrap();
        let e = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let config = PtConfig::default();
        let specs = vec![
            CensusSpec::single(&p, k1).with_subpattern("one"),
            CensusSpec::single(&e, k2),
        ];
        for algo in [Algorithm::NdPivot, Algorithm::PtOpt, Algorithm::PtRandom, Algorithm::Auto] {
            let batch = run_batch(&g, &specs, algo, &config).unwrap();
            for (i, spec) in specs.iter().enumerate() {
                let seq = run_census_exec(
                    &g, spec, algo, &config, &ExecConfig::sequential(),
                ).unwrap();
                prop_assert_eq!(&batch.counts[i], &seq, "{:?} spec {}", algo, i);
            }
        }
    }
}

/// The acceptance-criteria scenario, deterministically: a 4-pattern
/// batch over the bundled two-triangle fixture does strictly fewer
/// neighborhood extractions than 4 sequential runs, with equal counts.
#[test]
fn four_pattern_batch_on_fixture_shares_one_sweep() {
    let mut b = GraphBuilder::undirected();
    b.add_nodes(7, Label(0));
    for (x, y) in [
        (0u32, 1),
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
    let g = b.build();
    let pats = patterns();
    let config = PtConfig::default();
    let specs: Vec<CensusSpec<'_>> = pats.iter().map(|p| CensusSpec::single(p, 2)).collect();

    let batch = run_batch(&g, &specs, Algorithm::NdPivot, &config).unwrap();
    assert_eq!(
        batch.stages,
        vec![BatchStage::NdSweep {
            pivot: vec![0, 1, 2, 3],
            k_max: 2
        }]
    );

    let mut seq_nodes = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let (cv, ts) = run_census_exec_instrumented(
            &g,
            spec,
            Algorithm::NdPivot,
            &config,
            &ExecConfig::sequential(),
        )
        .unwrap();
        assert_eq!(batch.counts[i], cv, "spec {i}");
        seq_nodes += ts.nodes_expanded;
    }
    // One shared sweep: |V| extractions instead of 4·|V|.
    assert_eq!(batch.stats.nodes_expanded, g.num_nodes() as u64);
    assert_eq!(seq_nodes, 4 * g.num_nodes() as u64);
    assert!(batch.stats.nodes_expanded < seq_nodes);
}

/// The benchmark graph of `census_bench`: `barabasi_albert(10 000, 5)`
/// with four random labels, from `ego_datagen::rng(4242)`.
fn benchmark_graph() -> Graph {
    let mut r = rng(4242);
    let g = barabasi_albert(10_000, 5, &mut r);
    let g = assign_random_labels(&g, 4, &mut r);
    assert_eq!(g.fingerprint(), 0x39f9_80d8_4585_5308, "benchmark graph");
    g
}

/// `(edges_traversed, nodes_expanded, reinsertions)` of one PT-OPT run
/// under `PtConfig::default()` at one thread, batched and single-pattern.
fn pt_opt_counters(g: &Graph, pattern: &str, k: u32) -> [(u64, u64, u64); 2] {
    let catalog = Catalog::with_builtins();
    let spec = CensusSpec::single(catalog.require(pattern).unwrap(), k);
    let (config, exec) = (PtConfig::default(), ExecConfig::sequential());
    let batch = run_batch_exec(
        g,
        std::slice::from_ref(&spec),
        Algorithm::PtOpt,
        &config,
        &exec,
        &[],
        None,
    )
    .unwrap();
    let (counts, single) =
        run_census_exec_instrumented(g, &spec, Algorithm::PtOpt, &config, &exec).unwrap();
    assert_eq!(batch.counts[0], counts, "{pattern} k={k}");
    [batch.stats, single].map(|ts| (ts.edges_traversed, ts.nodes_expanded, ts.reinsertions))
}

/// Traversal counters recorded before PMD moved into flat memory (PR 17):
/// the slab, the node-major center table and the cleared queue change
/// what an edge costs, never which edges are walked or in what order.
#[test]
fn pt_opt_traversal_counters_match_the_hash_map_kernel() {
    let g = benchmark_graph();
    assert_eq!(
        pt_opt_counters(&g, "clq3", 1),
        [(30_698, 470, 926), (33_358, 473, 854)]
    );
    assert_eq!(
        pt_opt_counters(&g, "clq3_unlb", 1),
        [(173_485, 3_748, 7_998), (217_907, 4_169, 8_459)]
    );
}

#[test]
#[ignore = "about a minute unoptimized"]
fn pt_opt_traversal_counters_match_the_hash_map_kernel_k2() {
    let g = benchmark_graph();
    assert_eq!(
        pt_opt_counters(&g, "clq3", 2),
        [(712_396, 30_790, 85_212), (755_650, 33_146, 90_383)]
    );
}

/// `(edges_traversed, nodes_expanded)` and the count total of one
/// node-driven census of `pattern` at radius `k`, asserted equal across
/// `algorithms`, batched and single-pattern, at one and two threads.
fn nd_counters(
    g: &Graph,
    pattern: &str,
    k: u32,
    focal: FocalNodes,
    algorithms: &[Algorithm],
) -> ((u64, u64), u64) {
    let catalog = Catalog::with_builtins();
    let spec = CensusSpec::single(catalog.require(pattern).unwrap(), k).with_focal(focal);
    let config = PtConfig::default();
    let mut runs = Vec::new();
    for threads in [1, 2] {
        let exec = ExecConfig::with_threads(threads);
        for &algo in algorithms {
            let specs = std::slice::from_ref(&spec);
            let batch = run_batch_exec(g, specs, algo, &config, &exec, &[], None).unwrap();
            let single = run_census_exec_instrumented(g, &spec, algo, &config, &exec).unwrap();
            assert_eq!(batch.counts[0], single.0, "{pattern} k={k} {algo:?}");
            runs.push((batch.stats, batch.counts[0].total(), algo, threads));
            runs.push((single.1, single.0.total(), algo, threads));
        }
    }
    let (first, total, ..) = runs[0];
    for &(ts, t, algo, threads) in &runs {
        assert_eq!(
            (ts, t),
            (first, total),
            "{pattern} k={k} {algo:?} threads={threads}"
        );
    }
    ((first.edges_traversed, first.nodes_expanded), total)
}

/// Node-driven traversal counters recorded while Algorithm 2's
/// containment rule still had a copy per caller (single-pattern, batch,
/// top-k, pairwise): one kernel must walk exactly the same edges.
#[test]
fn nd_traversal_counters_match_the_per_caller_kernels() {
    let g = benchmark_graph();
    let upper = || FocalNodes::Set((5_000..10_000).map(NodeId).collect());
    let nd = [Algorithm::NdPivot, Algorithm::NdDiff];
    assert_eq!(
        nd_counters(&g, "clq3_unlb", 2, upper(), &nd),
        ((838_963, 5_000), 247_040)
    );
    assert_eq!(
        nd_counters(&g, "clq3", 2, upper(), &nd),
        ((838_963, 5_000), 25_129)
    );
    // ND-BAS reports the edges its neighborhood BFSs scan, like every
    // other node-driven kernel.
    let all = [Algorithm::NdPivot, Algorithm::NdDiff, Algorithm::NdBaseline];
    assert_eq!(
        nd_counters(&g, "clq3_unlb", 1, FocalNodes::All, &all),
        ((99_950, 10_000), 6_698)
    );
}

/// Top-k census results recorded while it kept its own copy of the
/// containment rule.
#[test]
fn top_k_results_match_the_per_caller_kernel() {
    let g = benchmark_graph();
    let catalog = Catalog::with_builtins();
    let upper = FocalNodes::Set((5_000..10_000).map(NodeId).collect());
    for (pattern, k, focal, evaluated, best) in [
        ("clq3_unlb", 2, upper.clone(), 2_646, (5_000, 678)),
        ("clq3_unlb", 1, FocalNodes::All, 2_436, (6, 352)),
        ("clq3", 2, upper, 1_501, (5_000, 71)),
    ] {
        let p = catalog.require(pattern).unwrap();
        let spec = CensusSpec::single(p, k).with_focal(focal);
        let matches = global_matches(&g, p);
        let res = top_k_census(&g, &spec, &matches, 20).unwrap();
        assert_eq!(res.evaluated, evaluated, "{pattern} k={k}");
        assert_eq!(res.top[0], (NodeId(best.0), best.1), "{pattern} k={k}");
        assert_eq!(
            res.top,
            top_k_exhaustive(&g, &spec, &matches, 20).unwrap(),
            "{pattern} k={k}"
        );
    }
}
