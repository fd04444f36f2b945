//! Graph indexing (Section I, fifth motivating application): census
//! counts as *node signatures* that prune subgraph-search candidates.
//!
//! "Counts of specific structural patterns in every node's k-hop
//! neighborhood ... are regarded as node signatures and are often used
//! for subgraph pattern matching to prune the search space."
//!
//! This example builds a signature from three cheap census queries
//! (edges, triangles, and 2-paths anchored at each node), then shows how
//! signature containment prunes the candidate sets for a larger query
//! pattern before exact matching runs.
//!
//! ```sh
//! cargo run --release --example graph_indexing
//! ```

use egocensus::census::{self, Algorithm, Census, CensusSpec, CountVector, Job};
use egocensus::datagen::{assign_random_labels, barabasi_albert, rng};
use egocensus::graph::Graph;
use egocensus::matcher::{find_matches_with_stats, MatchStats, MatcherKind};
use egocensus::pattern::Pattern;

/// The signature: per node, counts of three anchored micro-patterns.
struct Signatures {
    edges: CountVector,
    triangles: CountVector,
    two_paths: CountVector,
}

fn build_signatures(g: &Graph) -> Signatures {
    let run = |text: &str, sp: &str| -> CountVector {
        let p = Pattern::parse(text).unwrap();
        let spec = CensusSpec::single(&p, 0).with_subpattern(sp);
        let job = Job::new(Census::Single(&spec), Algorithm::NdPivot);
        census::run(g, &job).unwrap().counts.remove(0)
    };
    Signatures {
        // Edges incident to the node.
        edges: run("PATTERN e { ?A-?B; SUBPATTERN me {?A;} }", "me"),
        // Triangles through the node.
        triangles: run(
            "PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN me {?A;} }",
            "me",
        ),
        // 2-paths centered on the node.
        two_paths: run("PATTERN p { ?B-?A; ?A-?C; SUBPATTERN me {?A;} }", "me"),
    }
}

/// Minimum signature each image of a query-pattern node must carry: the
/// same three census counts evaluated on the query pattern itself.
fn required_signature(p: &Pattern, v: egocensus::pattern::PNode) -> (u64, u64, u64) {
    let deg = p.degree(v) as u64;
    let neigh = p.neighbors(v);
    let mut tri = 0u64;
    for (i, &a) in neigh.iter().enumerate() {
        for &b in &neigh[i + 1..] {
            if p.has_positive_edge(a, b) {
                tri += 1;
            }
        }
    }
    let two_paths = if deg >= 2 { deg * (deg - 1) / 2 } else { 0 };
    (deg, tri, two_paths)
}

fn main() {
    let mut r = rng(77);
    let g = barabasi_albert(30_000, 5, &mut r);
    let g = assign_random_labels(&g, 4, &mut r);
    println!("graph: {} nodes / {} edges", g.num_nodes(), g.num_edges());

    let t0 = std::time::Instant::now();
    let sigs = build_signatures(&g);
    println!(
        "signature index built in {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    // A demanding query: a 4-clique with a pendant (5 nodes).
    let query = Pattern::parse(
        "PATTERN k4p {
            ?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D; ?D-?E;
        }",
    )
    .unwrap();

    // Signature pruning: for each query node, which database nodes carry
    // at least the required counts?
    let mut survivors = vec![0usize; query.num_nodes()];
    for v in query.nodes() {
        let (need_e, need_t, need_p) = required_signature(&query, v);
        survivors[v.index()] = g
            .node_ids()
            .filter(|&n| {
                sigs.edges.get(n) >= need_e
                    && sigs.triangles.get(n) >= need_t
                    && sigs.two_paths.get(n) >= need_p
            })
            .count();
    }
    println!(
        "\nsignature-surviving candidates per query node (of {}):",
        g.num_nodes()
    );
    for v in query.nodes() {
        let (e, t, p) = required_signature(&query, v);
        println!(
            "  ?{}: {:>6} nodes  (needs edges>={e}, triangles>={t}, 2-paths>={p})",
            query.var_name(v),
            survivors[v.index()]
        );
    }

    // Ground truth from the exact matcher, with its own (profile-based)
    // candidate counts for comparison.
    let mut stats = MatchStats::default();
    let matches = find_matches_with_stats(&g, &query, MatcherKind::CandidateNeighbors, &mut stats);
    println!(
        "\nexact matching: {} matches; profile filter kept {} candidates total \
         vs signature filter's {}",
        matches.len(),
        stats.initial_candidates,
        survivors.iter().sum::<usize>(),
    );
    let reduction = stats.initial_candidates as f64 / survivors.iter().sum::<usize>().max(1) as f64;
    println!("census signatures prune {reduction:.1}x harder than 1-hop profiles");
}
