//! The continuous-census invariant, end to end: the rows a subscription
//! pushes after each mutation batch must equal the diff of two **full
//! recomputes** (counts on the graph before vs. after the batch), for
//! every census algorithm, thread count 1–4, and both aggregate kinds
//! (`COUNTP` and `COUNTSP`). The incremental engine may skip clean
//! focal nodes and keep match-list survivors, but none of that is
//! allowed to change a single pushed row.

use ego_census::{run, Census, CensusSpec, CountVector, FocalNodes, Job};
use ego_continuous::{diff_counts, Algorithm, ContinuousEngine, ExecConfig, PtConfig};
use ego_dynamic::DeltaGraph;
use ego_graph::{Graph, GraphBuilder, Label, NodeId};
use ego_query::{QueryEngine, SubscriptionSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// Every algorithm the engine accepts, including the planner.
const ALGORITHMS: [Algorithm; 7] = [
    Algorithm::NdBaseline,
    Algorithm::NdPivot,
    Algorithm::NdDiff,
    Algorithm::PtBaseline,
    Algorithm::PtRandom,
    Algorithm::PtOpt,
    Algorithm::Auto,
];

/// Both aggregate kinds; the `WHERE` on the second also exercises a
/// frozen focal subset.
const STATEMENTS: [&str; 2] = [
    "SUBSCRIBE SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes",
    "SUBSCRIBE SELECT ID, COUNTSP(pair, tria, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 20",
];

/// ND-BAS and ND-DIFF cannot evaluate COUNTSP (no subpattern support).
fn supported(sql: &str) -> impl Iterator<Item = Algorithm> + '_ {
    ALGORITHMS.into_iter().filter(move |a| {
        !sql.contains("COUNTSP") || !matches!(a, Algorithm::NdBaseline | Algorithm::NdDiff)
    })
}

fn random_graph(n: u32, raw_edges: &[(u32, u32)]) -> Arc<Graph> {
    let mut b = GraphBuilder::undirected();
    for _ in 0..n {
        b.add_node(Label(0));
    }
    for &(x, y) in raw_edges {
        let a = NodeId(x % n);
        let c = NodeId(y % n);
        if a != c {
            b.add_edge(a, c);
        }
    }
    Arc::new(b.build())
}

fn compile(g: &Graph, sql: &str) -> SubscriptionSpec {
    let mut e = QueryEngine::new(g);
    for def in [
        "PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }",
        "PATTERN tria { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN pair {?A; ?B;} }",
    ] {
        e.catalog_mut().define(def).unwrap();
    }
    e.compile_subscription(sql).unwrap()
}

/// The reference: a from-scratch batch evaluation of the subscription's
/// aggregates on `g` — no maintained state, no dirty sets.
fn full_counts(
    g: &Graph,
    spec: &SubscriptionSpec,
    algorithm: Algorithm,
    exec: &ExecConfig,
) -> Vec<CountVector> {
    let cspecs: Vec<CensusSpec<'_>> = spec
        .aggs
        .iter()
        .map(|a| {
            let mut s =
                CensusSpec::single(&a.pattern, a.k).with_focal(FocalNodes::Set(spec.focal.clone()));
            if let Some(sp) = &a.subpattern {
                s = s.with_subpattern(sp);
            }
            s
        })
        .collect();
    let job = Job {
        exec: *exec,
        ..Job::new(Census::Batch(&cspecs), algorithm)
    };
    run(g, &job).expect("full recompute").counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized graphs and mutation sequences: after every batch, the
    /// pushed rows equal `diff_counts` of two full recomputes, under
    /// every algorithm × thread count × aggregate kind.
    #[test]
    fn pushed_deltas_equal_full_recompute_diff(
        n in 8u32..24,
        raw_edges in prop::collection::vec((any::<u32>(), any::<u32>()), 6..50),
        batches in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..4),
            1..3,
        ),
    ) {
        let g0 = random_graph(n, &raw_edges);
        for sql in STATEMENTS {
            let reference = compile(&g0, sql);
            for algorithm in supported(sql) {
                for threads in 1..=4usize {
                    let exec = ExecConfig::with_threads(threads);
                    let eng = ContinuousEngine::new();
                    let ack = eng
                        .subscribe(&g0, compile(&g0, sql), 0, algorithm,
                                   &PtConfig::default(), &exec)
                        .expect("subscribe");
                    prop_assert_eq!(ack.focal, reference.focal.len());
                    let mut base = g0.clone();
                    let mut old = full_counts(&base, &reference, algorithm, &exec);
                    for (i, batch) in batches.iter().enumerate() {
                        let mut d = DeltaGraph::new(base.clone());
                        for &(insert, x, y) in batch {
                            let (a, b) = (NodeId(x % n), NodeId(y % n));
                            if a == b {
                                continue;
                            }
                            // Redundant ops (inserting a present edge,
                            // deleting an absent one) are rejected by
                            // the delta; skipping them keeps the batch
                            // well-formed without constraining the
                            // generator.
                            if insert {
                                let _ = d.insert_edge(a, b);
                            } else {
                                let _ = d.delete_edge(a, b);
                            }
                        }
                        let new_graph = Arc::new(d.compact());
                        let generation = (i + 1) as u64;
                        let frames = eng
                            .apply_update(&d, &new_graph, generation, algorithm,
                                          &PtConfig::default(), &exec)
                            .expect("apply_update");
                        prop_assert_eq!(frames.len(), 1);
                        prop_assert_eq!(frames[0].generation, generation);
                        let new = full_counts(&new_graph, &reference, algorithm, &exec);
                        let expected = diff_counts(&reference.focal, &old, &new);
                        prop_assert_eq!(
                            &frames[0].rows,
                            &expected,
                            "pushed rows diverge from full-recompute diff: \
                             {} algo={:?} threads={} batch={}",
                            sql, algorithm, threads, i
                        );
                        old = new;
                        base = new_graph;
                    }
                }
            }
        }
    }
}
