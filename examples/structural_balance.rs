//! Structural balance analysis on signed networks (Section I).
//!
//! In a signed network, triangles with an odd number of negative edges
//! are unstable. This example measures each node's local instability by
//! counting unstable triangles in its 2-hop neighborhood — a pattern
//! census with edge-attribute predicates.
//!
//! ```sh
//! cargo run --example structural_balance
//! ```

use egocensus::census::{run, Algorithm, Census, CensusSpec, CountVector, Job};
use egocensus::datagen::{assign_random_signs, rng, watts_strogatz};
use egocensus::pattern::Pattern;

fn main() {
    // A clustered small-world friendship network with ±1 edge signs.
    let mut r = rng(2024);
    let g = watts_strogatz(400, 4, 0.1, &mut r);
    let g = assign_random_signs(&g, 0.8, &mut r);
    println!(
        "signed network: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    // The two unstable triangle types: exactly one negative edge, or all
    // three negative. One pattern per type suffices: pattern variables can
    // bind the single negative edge to any side of the triangle, so every
    // one-negative triangle is matched exactly once (automorphism
    // deduplication collapses the symmetric A<->B assignments).
    let one_negative = Pattern::parse(
        "PATTERN unb1 {
            ?A-?B; ?B-?C; ?A-?C;
            [EDGE(?A,?B).sign=-1];
            [EDGE(?B,?C).sign=1];
            [EDGE(?A,?C).sign=1];
        }",
    )
    .unwrap();
    let all_negative = Pattern::parse(
        "PATTERN unb3 {
            ?A-?B; ?B-?C; ?A-?C;
            [EDGE(?A,?B).sign=-1];
            [EDGE(?B,?C).sign=-1];
            [EDGE(?A,?C).sign=-1];
        }",
    )
    .unwrap();
    let all_triangles = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();

    // Census each pattern in 2-hop neighborhoods — one batch, so the
    // three share each focal node's sweep — and combine.
    let k = 2;
    let specs = [&all_negative, &one_negative, &all_triangles].map(|p| CensusSpec::single(p, k));
    let job = Job::new(Census::Batch(&specs), Algorithm::NdPivot);
    let [mut unstable, c, total]: [CountVector; 3] =
        run(&g, &job).unwrap().counts.try_into().unwrap();
    for n in g.node_ids() {
        unstable.add(n, c.get(n));
    }

    // Report the most unstable neighborhoods.
    let mut scored: Vec<(f64, u64, u64, u32)> = g
        .node_ids()
        .map(|n| {
            let u = unstable.get(n);
            let t = total.get(n);
            let frac = if t == 0 { 0.0 } else { u as f64 / t as f64 };
            (frac, u, t, n.0)
        })
        .collect();
    scored.sort_by(|a, b| b.partial_cmp(a).unwrap());

    println!("\nmost unstable 2-hop ego networks (unstable/total triangles):");
    for &(frac, u, t, n) in scored.iter().take(8) {
        println!("  node {n:>4}: {u:>3}/{t:<3} = {frac:.2}");
    }
    let global_unstable: u64 = g.node_ids().map(|n| unstable.get(n)).sum();
    let global_total: u64 = g.node_ids().map(|n| total.get(n)).sum();
    println!(
        "\naggregate instability: {:.1}% of ego-triangle observations",
        100.0 * global_unstable as f64 / global_total.max(1) as f64
    );
}
