//! Targeted marketing (Section I, Figure 1(a)): find the couples with
//! the most "couple pairs" — couples who are friends with other couples —
//! in their combined network.
//!
//! Relationship types live on edge attributes (`rel` = `spouse` or
//! `friend`); the couples-square pattern is censused in the union of the
//! two spouses' 2-hop neighborhoods.
//!
//! ```sh
//! cargo run --example targeted_marketing
//! ```

use egocensus::census::{run, Algorithm, Census, Job, PairCensusSpec, PairSelector};
use egocensus::graph::{GraphBuilder, Label, NodeId};
use egocensus::pattern::builtin::couples_square;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Build a society of couples: 120 couples (240 people). Each person
    // marries their partner and befriends a few random others.
    let mut rng = StdRng::seed_from_u64(99);
    let couples = 120u32;
    let n = couples * 2;
    let mut b = GraphBuilder::undirected();
    b.add_nodes(n as usize, Label(0));
    let mut couple_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for c in 0..couples {
        let a = NodeId(2 * c);
        let s = NodeId(2 * c + 1);
        b.add_edge(a, s);
        b.set_edge_attr(a, s, "rel", "spouse");
        couple_pairs.push((a, s));
    }
    for person in 0..n {
        for _ in 0..3 {
            let other = rng.gen_range(0..n);
            // No self-friendship; spouse edge already exists and the
            // builder would dedupe it, keeping the spouse attribute.
            if other == person || other == (person ^ 1) {
                continue;
            }
            let (x, y) = (NodeId(person), NodeId(other));
            b.add_edge(x, y);
            b.set_edge_attr(x, y, "rel", "friend");
        }
    }
    let g = b.build();
    println!(
        "society: {} people, {} relationships",
        g.num_nodes(),
        g.num_edges()
    );

    // The Figure 1(a) pattern: two spouse edges bridged by two friendship
    // edges. Census it in the union of each couple's 2-hop neighborhoods.
    let pattern = couples_square();
    let spec = PairCensusSpec::union(&pattern, 2, PairSelector::Pairs(couple_pairs.clone()));
    let job = Job::new(Census::Pair(&spec), Algorithm::PtOpt);
    let counts = run(&g, &job).unwrap().pairs;

    let mut ranked: Vec<(NodeId, NodeId, u64)> = couple_pairs
        .iter()
        .map(|&(a, s)| (a, s, counts.get(a, s)))
        .collect();
    ranked.sort_by_key(|&(a, _, c)| (std::cmp::Reverse(c), a));

    println!("\ncouples with the most couple-pair structures in their combined network:");
    for &(a, s, c) in ranked.iter().take(5) {
        println!("  couple ({a}, {s}): {c} couple-pairs within 2 hops");
    }
    let zero = ranked.iter().filter(|&&(_, _, c)| c == 0).count();
    println!("\n{zero} of {couples} couples see no couple-pair at all — poor seeding targets.");
}
