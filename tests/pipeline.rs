//! End-to-end pipeline tests: generate → serialize → reload → query.

use egocensus::census::{run_census, Algorithm, CensusSpec};
use egocensus::datagen::{assign_random_labels, barabasi_albert, rng};
use egocensus::graph::io;
use egocensus::pattern::builtin;
use egocensus::query::{QueryEngine, Value};

#[test]
fn generate_serialize_reload_census() {
    let mut r = rng(31);
    let g = barabasi_albert(400, 4, &mut r);
    let g = assign_random_labels(&g, 4, &mut r);

    // Roundtrip through the text format.
    let text = io::to_string(&g);
    let g2 = io::from_str(&text).expect("reload");
    assert_eq!(g2.num_nodes(), g.num_nodes());
    assert_eq!(g2.num_edges(), g.num_edges());

    // The census result is identical on the reloaded graph.
    let p = builtin::clq3();
    let spec = CensusSpec::single(&p, 2);
    let a = run_census(&g, &spec, Algorithm::PtOpt).unwrap();
    let b = run_census(&g2, &spec, Algorithm::PtOpt).unwrap();
    for n in g.node_ids() {
        assert_eq!(a.get(n), b.get(n));
    }
}

#[test]
fn sql_on_generated_graph_matches_api() {
    let mut r = rng(77);
    let g = barabasi_albert(300, 3, &mut r);

    let mut engine = QueryEngine::new(&g);
    engine
        .catalog_mut()
        .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
        .unwrap();
    let table = engine
        .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes")
        .unwrap();

    let tri = egocensus::pattern::Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
    let api = run_census(&g, &CensusSpec::single(&tri, 1), Algorithm::Auto).unwrap();
    assert_eq!(table.num_rows(), g.num_nodes());
    for row in table.rows() {
        let id = row[0].as_int().unwrap() as u32;
        assert_eq!(
            row[1],
            Value::Int(api.get(egocensus::graph::NodeId(id)) as i64)
        );
    }
}

#[test]
fn builtin_catalog_queries_run() {
    let mut r = rng(13);
    let g = barabasi_albert(200, 4, &mut r);
    let g = assign_random_labels(&g, 4, &mut r);
    let engine = QueryEngine::with_builtins(&g);
    for pattern in ["clq3_unlb", "clq3", "sqr", "path3", "star3", "single_edge"] {
        let sql = format!("SELECT ID, COUNTP({pattern}, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 20");
        let t = engine
            .execute(&sql)
            .unwrap_or_else(|e| panic!("{pattern}: {e}"));
        assert_eq!(t.num_rows(), 20, "{pattern}");
    }
}

#[test]
fn parallel_census_agrees_end_to_end() {
    let mut r = rng(99);
    let g = barabasi_albert(500, 4, &mut r);
    let p = builtin::clq3_unlabeled();
    let spec = CensusSpec::single(&p, 2);
    let matches = egocensus::census::global_matches(&g, &p);
    let seq = egocensus::census::nd_pivot::run(&g, &spec, &matches).unwrap();
    let (par, _) = egocensus::census::parallel::run_with_matches(
        &g,
        &spec,
        &matches,
        egocensus::census::Algorithm::NdPivot,
        &egocensus::census::PtConfig::default(),
        4,
    )
    .unwrap();
    for n in g.node_ids() {
        assert_eq!(seq.get(n), par.get(n));
    }
}
