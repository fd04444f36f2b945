//! Planner equivalence: executing through the cost-based planner
//! (`Algorithm::Auto`) must be bit-identical to forcing any concrete
//! census algorithm, on every execution path the planner steers —
//! single-aggregate `COUNTP`, `COUNTSP`, multi-aggregate batches, and
//! sharded focal ranges — across thread counts 1–4, and whether the
//! cost model runs on heuristic or `ANALYZE`-profiled statistics. The
//! planner may pick any algorithm and any batch grouping; none of those
//! choices is allowed to change a single result byte.

use ego_census::cost::{self, GraphShape};
use ego_census::{CensusSpec, FocalNodes};
use ego_graph::{Graph, GraphBuilder, Label, NodeId};
use ego_query::optimizer::{optimize, PassContext};
use ego_query::parser::parse_query;
use ego_query::{
    build_plan, Algorithm, CensusCache, GraphStats, QueryEngine, ShardSpec, StatsBasis, Table,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Every concrete algorithm the planner chooses between.
const FORCED: [Algorithm; 6] = [
    Algorithm::NdBaseline,
    Algorithm::NdPivot,
    Algorithm::NdDiff,
    Algorithm::PtBaseline,
    Algorithm::PtRandom,
    Algorithm::PtOpt,
];

/// The statement shapes under test: plain COUNTP, COUNTSP with a
/// subpattern, and a multi-aggregate batch the batch-grouping pass
/// splits into per-algorithm stages.
const STATEMENTS: [&str; 3] = [
    "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes",
    "SELECT ID, COUNTSP(pair, tria, SUBGRAPH(ID, 1)) FROM nodes",
    "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)), COUNTP(wedge, SUBGRAPH(ID, 2)), \
     COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes",
];

fn random_graph(n: u32, raw_edges: &[(u32, u32)], labels: u16) -> Graph {
    let mut b = GraphBuilder::undirected();
    for i in 0..n {
        b.add_node(Label((i % labels as u32) as u16));
    }
    for &(x, y) in raw_edges {
        let a = NodeId(x % n);
        let c = NodeId(y % n);
        if a != c {
            b.add_edge(a, c);
        }
    }
    b.build()
}

fn engine(g: &Graph) -> QueryEngine<'_> {
    let mut e = QueryEngine::with_builtins(g);
    for def in [
        "PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }",
        "PATTERN wedge { ?A-?B; ?B-?C; ?A!-?C; }",
        "PATTERN tria { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN pair {?A; ?B;} }",
    ] {
        e.catalog_mut().define(def).unwrap();
    }
    e.set_seed(0xBEEF);
    e
}

/// The forced algorithms a statement shape supports: ND-BAS and
/// ND-DIFF cannot evaluate COUNTSP, so only the planner-eligible rest
/// are compared there.
fn supported(sql: &str) -> impl Iterator<Item = Algorithm> + '_ {
    FORCED.into_iter().filter(move |a| {
        !sql.contains("COUNTSP") || !matches!(a, Algorithm::NdBaseline | Algorithm::NdDiff)
    })
}

/// Run `sql` with the planner (Auto) and with every forced algorithm at
/// `threads`, asserting the result tables are identical. `label` names
/// the configuration in failure messages.
fn assert_equivalent(
    e: &mut QueryEngine<'_>,
    sql: &str,
    threads: usize,
    label: &str,
) -> Result<Table, TestCaseError> {
    e.set_threads(threads);
    e.set_algorithm(Algorithm::Auto);
    let planned = e.execute(sql);
    prop_assert!(planned.is_ok(), "{label}: planned run failed: {planned:?}");
    let planned = planned.unwrap();
    for forced in supported(sql) {
        e.set_algorithm(forced);
        let got = e.execute(sql);
        prop_assert!(got.is_ok(), "{label} algo={forced:?}: {got:?}");
        prop_assert_eq!(
            &got.unwrap(),
            &planned,
            "{} algo={:?} threads={} diverged from planned execution",
            label,
            forced,
            threads
        );
    }
    e.set_algorithm(Algorithm::Auto);
    Ok(planned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized graphs: the planner's choices (algorithm, batch
    /// grouping, stats basis) never change results relative to any
    /// forced algorithm, sequential or parallel, whole-range or
    /// sharded.
    #[test]
    fn planned_execution_matches_every_forced_algorithm(
        n in 8u32..40,
        raw_edges in prop::collection::vec((any::<u32>(), any::<u32>()), 5..120),
        labels in 1u16..4,
    ) {
        let g = random_graph(n, &raw_edges, labels);
        let mut e = engine(&g);

        // Heuristic-stats planning first, across statement shapes and
        // thread counts.
        let mut heuristic: Vec<Table> = Vec::new();
        for sql in STATEMENTS {
            for threads in 1..=4usize {
                let t = assert_equivalent(&mut e, sql, threads, "heuristic")?;
                if threads == 1 {
                    heuristic.push(t);
                }
            }
        }

        // ANALYZE flips the planner onto profiled statistics (and may
        // flip its algorithm choice); results must not move.
        e.analyze().unwrap();
        for (i, sql) in STATEMENTS.iter().enumerate() {
            let t = assert_equivalent(&mut e, sql, 2, "analyzed")?;
            prop_assert_eq!(
                &t,
                &heuristic[i],
                "analyzed planning changed results for {}",
                sql
            );
        }

        // Sharded planning: each shard's slice is algorithm-invariant,
        // and the shards reassemble to the whole-range answer.
        let whole = &heuristic[0];
        let mut reassembled = 0usize;
        for index in 0..2u32 {
            e.set_focal_shard(Some(ShardSpec::new(index, 2).unwrap()));
            let t = assert_equivalent(&mut e, STATEMENTS[0], 2, "sharded")?;
            for row in t.rows() {
                prop_assert!(whole.rows().contains(row), "shard row missing from whole");
            }
            reassembled += t.num_rows();
        }
        e.set_focal_shard(None);
        prop_assert_eq!(reassembled, whole.num_rows());
    }
}

/// The core's `Auto` and the planner's algorithm-selection pass price
/// with one function: handed the same exact match count (the planner
/// reads it from the census cache), they pick the same algorithm — on a
/// dense and a sparse graph, at k = 1, 2, 3, for focal sets on both sides
/// of the ND/PT crossover, for COUNTP and COUNTSP.
#[test]
fn core_auto_picks_what_the_planner_picks() {
    let dense = {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(12, Label(0));
        for x in 0..12u32 {
            for y in (x + 1)..12 {
                b.add_edge(NodeId(x), NodeId(y));
            }
        }
        b.build()
    };
    // A 300-node path with 50 disjoint triangles closed along it.
    let sparse = {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(300, Label(0));
        for x in 0..299u32 {
            b.add_edge(NodeId(x), NodeId(x + 1));
        }
        for i in 0..50u32 {
            b.add_edge(NodeId(3 * i), NodeId(3 * i + 2));
        }
        b.build()
    };
    let mut picks = Vec::new();
    for g in [&dense, &sparse] {
        let e = engine(g);
        let stats = GraphStats::heuristic(g);
        let shape = GraphShape::of(g);
        let cache = CensusCache::new(16);
        for (pattern, subpattern) in [("tri", None), ("tria", Some("pair"))] {
            let p = e.catalog().require(pattern).unwrap();
            let matches = Arc::new(ego_census::exec_matches(g, p, 1));
            let key = CensusCache::match_key(&ego_pattern::to_dsl(p), g.fingerprint());
            cache.put_matches(key, Arc::clone(&matches));
            for k in 1..=3u32 {
                for focal_len in [2, g.num_nodes() as u32] {
                    let focal: Vec<NodeId> = (0..focal_len).map(NodeId).collect();
                    let agg = match subpattern {
                        Some(sp) => format!("COUNTSP({sp}, {pattern}, SUBGRAPH(ID, {k}))"),
                        None => format!("COUNTP({pattern}, SUBGRAPH(ID, {k}))"),
                    };
                    let stmt = parse_query(&format!("SELECT ID, {agg} FROM nodes")).unwrap();
                    let mut ctx = PassContext {
                        graph: g,
                        catalog: e.catalog(),
                        stats: &stats,
                        stats_basis: StatsBasis::Heuristic,
                        fingerprint: g.fingerprint(),
                        cache: Some(&cache),
                        views: None,
                        focal: Some(&focal),
                        shard: None,
                        forced: Algorithm::Auto,
                        counters: None,
                        fired: 0,
                    };
                    let plan = optimize(build_plan(&stmt), &mut ctx).unwrap();
                    let planned = plan.choice().unwrap().algorithm;

                    let spec = CensusSpec::single(p, k).with_focal(FocalNodes::Set(focal));
                    let spec = match subpattern {
                        Some(sp) => spec.with_subpattern(sp),
                        None => spec,
                    };
                    let core = cost::choose(g, &shape, &spec, matches.len());
                    assert_eq!(core, planned, "n={} {agg} focal={focal_len}", g.num_nodes());
                    picks.push(core);
                }
            }
        }
    }
    // The grid straddles the crossover: both families are picked.
    assert!(picks.contains(&Algorithm::NdPivot), "{picks:?}");
    assert!(picks.contains(&Algorithm::PtOpt), "{picks:?}");
}
