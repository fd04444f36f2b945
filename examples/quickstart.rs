//! Quickstart: define a pattern, run a census, query it through SQL.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use egocensus::census::{run, Algorithm, Census, CensusSpec, Job};
use egocensus::datagen::{assign_random_labels, barabasi_albert, rng};
use egocensus::pattern::Pattern;
use egocensus::query::QueryEngine;

fn main() {
    // 1. A synthetic social network: preferential attachment, 500 people,
    //    |E| = 5|V| (the paper's density), 4 random labels.
    let mut r = rng(42);
    let g = barabasi_albert(500, 5, &mut r);
    let g = assign_random_labels(&g, 4, &mut r);
    println!(
        "graph: {} nodes, {} edges, {} labels",
        g.num_nodes(),
        g.num_edges(),
        g.num_labels()
    );

    // 2. A pattern in the DSL: an unlabeled triangle.
    let tri = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();

    // 3. Census: triangles in every node's 2-hop neighborhood, with the
    //    paper's pivot-indexing algorithm.
    let spec = CensusSpec::single(&tri, 2);
    let job = Job::new(Census::Single(&spec), Algorithm::NdPivot);
    let counts = &run(&g, &job).unwrap().counts[0];
    let top = counts.top_k(5);
    println!("\ntop-5 nodes by triangles within 2 hops:");
    for (node, count) in &top {
        println!("  node {node}: {count} triangles");
    }

    // 4. The same query through the declarative SQL layer.
    let mut engine = QueryEngine::new(&g);
    engine
        .catalog_mut()
        .define("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
        .unwrap();
    let table = engine
        .execute("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 2 DESC LIMIT 5")
        .unwrap();
    println!("\nvia SQL:\n{table}");

    // The two paths agree.
    let sql_top: Vec<i64> = table
        .rows()
        .iter()
        .map(|r| r[1].as_int().unwrap())
        .collect();
    let api_top: Vec<i64> = top.iter().map(|&(_, c)| c as i64).collect();
    assert_eq!(sql_top, api_top, "SQL and API must agree");
    println!("SQL and direct API agree.");
}
