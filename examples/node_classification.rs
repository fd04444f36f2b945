//! Node classification features (Figure 1(b) of the paper): in a family
//! network, a child's risk of becoming a smoker is scored by counting
//! relatives within 3 hops who smoke *and* have a smoking parent —
//! a census over a pattern with directed edges, attribute predicates,
//! and a subpattern anchor.
//!
//! ```sh
//! cargo run --release --example node_classification
//! ```

use egocensus::census::{run, Algorithm, Census, CensusSpec, Job};
use egocensus::graph::{GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A synthetic multi-generation family network. Generation g has
    // 2^g families; "parent_of" edges are directed parent -> child;
    // spouses are linked undirected-style with two directed edges.
    // Smoking propagates: children of smokers smoke more often.
    let mut rng = StdRng::seed_from_u64(1234);
    let generations = 6usize;
    let per_gen = 120usize;
    let n = generations * per_gen;
    let mut b = GraphBuilder::directed();
    b.add_nodes(n, Label(0));

    let idx = |gen: usize, i: usize| NodeId((gen * per_gen + i) as u32);
    let mut smokes = vec![false; n];
    // Generation 0: 25% smokers.
    for i in 0..per_gen {
        smokes[idx(0, i).index()] = rng.gen_bool(0.25);
    }
    for gen in 1..generations {
        for i in 0..per_gen {
            let child = idx(gen, i);
            // Two parents from the previous generation.
            let p1 = idx(gen - 1, rng.gen_range(0..per_gen));
            let mut p2 = idx(gen - 1, rng.gen_range(0..per_gen));
            while p2 == p1 {
                p2 = idx(gen - 1, rng.gen_range(0..per_gen));
            }
            b.add_edge(p1, child);
            b.add_edge(p2, child);
            // Smoking heredity: 55% if either parent smokes, else 12%.
            let parent_smokes = smokes[p1.index()] || smokes[p2.index()];
            smokes[child.index()] = rng.gen_bool(if parent_smokes { 0.55 } else { 0.12 });
        }
    }
    for (i, &s) in smokes.iter().enumerate() {
        b.set_node_attr(NodeId(i as u32), "smoker", s);
    }
    let g = b.build();
    println!(
        "family network: {} people over {generations} generations, {} parent links, {} smokers",
        g.num_nodes(),
        g.num_edges(),
        smokes.iter().filter(|&&s| s).count()
    );

    // Figure 1(b): count, within each child's 3-hop neighborhood, the
    // relatives who smoke and have a smoking parent. The subpattern
    // anchors the census on the relative (?R): COUNTSP(rel, risk, S(n,3))
    // counts matches whose ?R lies within 3 hops of the ego.
    let risk = Pattern::parse(
        "PATTERN risk {
            ?P->?R;
            [?R.smoker=true];
            [?P.smoker=true];
            SUBPATTERN rel {?R;}
        }",
    )
    .unwrap();
    let spec = CensusSpec::single(&risk, 3).with_subpattern("rel");
    let job = Job::new(Census::Single(&spec), Algorithm::NdPivot);
    let counts = &run(&g, &job).unwrap().counts[0];

    // Validate the feature: children who became smokers should have higher
    // average risk scores than those who did not.
    let last_gen: Vec<NodeId> = (0..per_gen).map(|i| idx(generations - 1, i)).collect();
    let (mut sum_smoker, mut n_smoker, mut sum_clean, mut n_clean) = (0.0, 0, 0.0, 0);
    for &child in &last_gen {
        let score = counts.get(child) as f64;
        if smokes[child.index()] {
            sum_smoker += score;
            n_smoker += 1;
        } else {
            sum_clean += score;
            n_clean += 1;
        }
    }
    let avg_smoker = sum_smoker / n_smoker.max(1) as f64;
    let avg_clean = sum_clean / n_clean.max(1) as f64;
    println!(
        "\nrisk feature over the youngest generation ({} children):",
        per_gen
    );
    println!("  avg score, children who smoke:      {avg_smoker:.2} (n={n_smoker})");
    println!("  avg score, children who don't:      {avg_clean:.2} (n={n_clean})");
    println!(
        "  feature separation: {:.2}x — usable as a collective-classification input",
        avg_smoker / avg_clean.max(0.01)
    );
    assert!(
        avg_smoker > avg_clean,
        "risk census should separate the classes"
    );
}
