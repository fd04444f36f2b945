//! Property-based equivalence tests for the incremental census engine:
//! applying a random edge-delta and re-censusing only the dirty focal
//! nodes must produce counts bit-identical to a full recompute on the
//! mutated graph — for every algorithm family, query shape, and thread
//! count. A deterministic fixture additionally pins the headline claim:
//! a localized delta dirties strictly fewer focal nodes than `|V|`.

use egocensus::census::{
    run, Algorithm, Census, CensusSpec, CountVector, ExecConfig, FocalNodes, Job, PtConfig,
};
use egocensus::dynamic::{dirty_focal_nodes, update_batch_on, DeltaGraph, UpdateOutcome};
use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use proptest::prelude::*;
use std::sync::Arc;

/// One census under `config` and `exec`.
fn census_exec(
    g: &Graph,
    spec: &CensusSpec<'_>,
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> CountVector {
    let job = Job {
        config: config.clone(),
        exec: *exec,
        ..Job::new(Census::Single(spec), algorithm)
    };
    run(g, &job).unwrap().counts.remove(0)
}

/// Compact `delta` and update `previous` (the counts of `specs` on its
/// base) onto the new graph, with no previous match lists.
fn update_exec(
    delta: &DeltaGraph,
    specs: &[CensusSpec<'_>],
    previous: &[CountVector],
    algorithm: Algorithm,
    config: &PtConfig,
    exec: &ExecConfig,
) -> (Graph, UpdateOutcome) {
    let graph = delta.compact();
    let none = vec![None; specs.len()];
    let update = update_batch_on(
        delta, &graph, specs, previous, &none, algorithm, config, exec,
    );
    (graph, update.unwrap())
}

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

/// Apply `ops` pseudo-random mutations (inserts and deletes; no-ops such
/// as deleting an absent edge are allowed and exercised deliberately).
fn random_delta(base: Arc<Graph>, seed: u64, ops: usize) -> DeltaGraph {
    let n = base.num_nodes() as u64;
    let mut delta = DeltaGraph::new(base);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..ops {
        let a = NodeId((next() % n) as u32);
        let b = NodeId((next() % n) as u32);
        if a == b {
            continue;
        }
        if next() % 2 == 0 {
            delta.insert_edge(a, b).unwrap();
        } else {
            delta.delete_edge(a, b).unwrap();
        }
    }
    delta
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_countp_equals_full_recompute(
        g in arb_graph(),
        seed in any::<u64>(),
        ops in 1usize..6,
        k in 1u32..3,
        explicit_focal in any::<bool>(),
    ) {
        let g = Arc::new(g);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let mut spec = CensusSpec::single(&p, k);
        if explicit_focal {
            let set: Vec<NodeId> = g.node_ids().filter(|n| n.0 % 2 == 0).collect();
            spec = spec.with_focal(FocalNodes::Set(set));
        }
        let delta = random_delta(g.clone(), seed, ops);
        let config = PtConfig::default();
        for algo in ALL_ALGOS {
            for threads in [1usize, 4] {
                let exec = ExecConfig::with_threads(threads);
                let previous = [census_exec(&g, &spec, algo, &config, &exec)];
                let specs = std::slice::from_ref(&spec);
                let (graph, update) = update_exec(&delta, specs, &previous, algo, &config, &exec);
                let fresh = census_exec(&graph, &spec, algo, &config, &exec);
                prop_assert_eq!(
                    &update.counts[0], &fresh,
                    "{:?} threads={} focal={}", algo, threads, explicit_focal
                );
            }
        }
    }

    #[test]
    fn incremental_countsp_equals_full_recompute(
        g in arb_graph(),
        seed in any::<u64>(),
        ops in 1usize..6,
        k in 0u32..3,
    ) {
        let g = Arc::new(g);
        let p =
            Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }").unwrap();
        let spec = CensusSpec::single(&p, k).with_subpattern("one");
        let delta = random_delta(g.clone(), seed, ops);
        let config = PtConfig::default();
        for algo in COUNTSP_ALGOS {
            for threads in [1usize, 4] {
                let exec = ExecConfig::with_threads(threads);
                let previous = [census_exec(&g, &spec, algo, &config, &exec)];
                let specs = std::slice::from_ref(&spec);
                let (graph, update) = update_exec(&delta, specs, &previous, algo, &config, &exec);
                let fresh = census_exec(&graph, &spec, algo, &config, &exec);
                prop_assert_eq!(
                    &update.counts[0], &fresh,
                    "{:?} threads={}", algo, threads
                );
            }
        }
    }

    #[test]
    fn incremental_batch_equals_full_recompute(
        g in arb_graph(),
        seed in any::<u64>(),
        ops in 1usize..6,
    ) {
        let g = Arc::new(g);
        let tri = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let path = Pattern::parse("PATTERN p3 { ?A-?B; ?B-?C; }").unwrap();
        // Two patterns at two radii: the batched path must splice each
        // spec's counts with its own per-radius dirty set.
        let specs = [CensusSpec::single(&tri, 1), CensusSpec::single(&path, 2)];
        let delta = random_delta(g.clone(), seed, ops);
        let config = PtConfig::default();
        let exec = ExecConfig::with_threads(2);
        let previous: Vec<CountVector> = specs
            .iter()
            .map(|s| census_exec(&g, s, Algorithm::Auto, &config, &exec))
            .collect();
        let (graph, update) =
            update_exec(&delta, &specs, &previous, Algorithm::Auto, &config, &exec);
        for (i, spec) in specs.iter().enumerate() {
            let fresh = census_exec(&graph, spec, Algorithm::Auto, &config, &exec);
            prop_assert_eq!(&update.counts[i], &fresh, "spec {}", i);
        }
    }
}

/// The headline property on a deterministic fixture: a localized delta
/// on a large sparse graph dirties a strictly proper subset of the focal
/// nodes, and the incremental result is still exact.
#[test]
fn localized_delta_dirties_strictly_fewer_than_all_nodes() {
    // A 200-node ring: every k-ball is small, so one chord touches few.
    let n = 200u32;
    let mut b = GraphBuilder::undirected();
    b.add_nodes(n as usize, Label(0));
    for i in 0..n {
        b.add_edge(NodeId(i), NodeId((i + 1) % n));
    }
    let g = Arc::new(b.build());

    let mut delta = DeltaGraph::new(g.clone());
    assert!(delta.insert_edge(NodeId(10), NodeId(12)).unwrap());
    assert!(delta.delete_edge(NodeId(100), NodeId(101)).unwrap());

    let k = 2;
    let dirty = dirty_focal_nodes(&delta, k);
    assert!(!dirty.is_empty());
    assert!(
        dirty.len() < g.num_nodes(),
        "a localized delta must not dirty every node ({} of {})",
        dirty.len(),
        g.num_nodes()
    );
    // Exactly the nodes within k hops of a touched endpoint (union
    // graph): the chord contracts distances around 10..12, the deleted
    // edge touches 100 and 101. Ball radius 2 around four endpoints on a
    // ring with one extra chord: at most 4 * 5 nodes.
    assert!(dirty.len() <= 20, "dirty set too large: {}", dirty.len());

    let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
    let spec = CensusSpec::single(&p, k);
    let config = PtConfig::default();
    let exec = ExecConfig::with_threads(2);
    let previous = [census_exec(&g, &spec, Algorithm::NdPivot, &config, &exec)];
    let specs = std::slice::from_ref(&spec);
    let (graph, update) = update_exec(&delta, specs, &previous, Algorithm::NdPivot, &config, &exec);
    assert_eq!(update.stats.dirty_focal, dirty.len());
    assert_eq!(update.stats.clean_focal, g.num_nodes() - dirty.len());
    let fresh = census_exec(&graph, &spec, Algorithm::NdPivot, &config, &exec);
    assert_eq!(update.counts[0], fresh);
    // The chord 10-12 closes triangle 10-11-12; node 11 now sees it.
    assert_eq!(update.counts[0].get(NodeId(11)), 1);
}

/// Directed overlays go through the same machinery.
#[test]
fn directed_incremental_equals_full_recompute() {
    let mut b = GraphBuilder::directed();
    b.add_nodes(30, Label(0));
    for i in 0..29u32 {
        b.add_edge(NodeId(i), NodeId(i + 1));
        if i % 3 == 0 {
            b.add_edge(NodeId(i + 1), NodeId(i));
        }
    }
    let g = Arc::new(b.build());
    let mut delta = DeltaGraph::new(g.clone());
    assert!(delta.insert_edge(NodeId(5), NodeId(9)).unwrap());
    assert!(delta.delete_edge(NodeId(12), NodeId(13)).unwrap());

    let p = Pattern::parse("PATTERN d { ?A->?B; ?B->?C; }").unwrap();
    let spec = CensusSpec::single(&p, 2);
    let config = PtConfig::default();
    for algo in [Algorithm::NdPivot, Algorithm::PtOpt] {
        let exec = ExecConfig::with_threads(2);
        let previous = [census_exec(&g, &spec, algo, &config, &exec)];
        let specs = std::slice::from_ref(&spec);
        let (graph, update) = update_exec(&delta, specs, &previous, algo, &config, &exec);
        let fresh = census_exec(&graph, &spec, algo, &config, &exec);
        assert_eq!(update.counts[0], fresh, "{algo:?}");
        assert!(update.stats.dirty_focal < g.num_nodes());
    }
}
