//! The discovery rule of match-list maintenance: a valid match that is
//! not a survivor has an edge image on a touched pair, so the ball
//! around the touched endpoints only needs the pattern's diameter as its
//! radius, and its discoveries are exactly its suspicious matches.
//!
//! Pinned on the patterns where that rule is easiest to get wrong — a
//! path whose end nodes are not adjacent (a touched pair landing on
//! them must not re-discover the surviving match), the negative-edge
//! wedge, a directed 2-path — and on the triangle, whose diameter (1)
//! is below `|V(p)| - 1`. Over a fixed delta sequence the maintained
//! list must equal a from-scratch enumeration as a set with no
//! duplicate, and the survivor / dropped / discovered accounting must be
//! exactly what a re-match of the `|V(p)| - 1` ball, filtered against
//! the survivors, reports. Only the ball may shrink.

use ego_census::exec_matches;
use ego_dynamic::{maintain_match_list, DeltaGraph, MaintainStats};
use ego_graph::{Graph, GraphBuilder, Label, NodeId};
use ego_matcher::MatchList;
use ego_pattern::{Pattern, PatternAnalysis};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

const NODES: u32 = 48;
const STEPS: usize = 10;

fn random_graph(directed: bool, rng: &mut StdRng) -> Arc<Graph> {
    let mut b = if directed {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    };
    b.add_nodes(NODES as usize, Label(0));
    for _ in 0..2 * NODES {
        let a = rng.gen_range(0..NODES);
        let c = rng.gen_range(0..NODES);
        if a != c {
            b.add_edge(NodeId(a), NodeId(c));
        }
    }
    Arc::new(b.build())
}

/// Three edits on `g`: close a wedge (the new pair joins the end nodes of
/// existing 2-paths), delete an out-edge, insert an arbitrary pair.
fn random_delta(g: &Arc<Graph>, rng: &mut StdRng) -> DeltaGraph {
    let mut d = DeltaGraph::new(g.clone());
    for kind in 0..3 {
        let a = NodeId(rng.gen_range(0..NODES));
        let pick = |list: &[NodeId], rng: &mut StdRng| -> Option<NodeId> {
            (!list.is_empty()).then(|| list[rng.gen_range(0..list.len())])
        };
        let edit = match kind {
            0 => pick(g.neighbors(a), rng)
                .and_then(|mid| pick(g.neighbors(mid), rng))
                .filter(|&c| c != a)
                .map(|c| d.insert_edge(a, c)),
            1 => pick(g.out_neighbors(a), rng).map(|c| d.delete_edge(a, c)),
            _ => Some(NodeId(rng.gen_range(0..NODES)))
                .filter(|&c| c != a)
                .map(|c| d.insert_edge(a, c)),
        };
        if let Some(r) = edit {
            r.unwrap();
        }
    }
    d
}

fn as_set(list: &MatchList) -> BTreeSet<Vec<NodeId>> {
    list.iter().map(|m| m.nodes.clone()).collect()
}

/// Maintain `pattern`'s list across the fixed delta sequence of `seed`,
/// checking it against a fresh enumeration after every step, and return
/// the summed accounting.
fn run(pattern: &str, directed: bool, seed: u64) -> MaintainStats {
    let p = Pattern::parse(pattern).unwrap();
    let mut rng = ego_datagen::rng(seed);
    let mut g = random_graph(directed, &mut rng);
    let mut list = exec_matches(&g, &p, 1);
    let mut total = MaintainStats::default();
    for step in 0..STEPS {
        let d = random_delta(&g, &mut rng);
        let next = d.compact();
        let (maintained, stats) = maintain_match_list(&d, &next, &p, &list, 1).unwrap();
        let set = as_set(&maintained);
        assert_eq!(
            set.len(),
            maintained.len(),
            "{pattern}: duplicate at step {step}"
        );
        assert_eq!(
            set,
            as_set(&exec_matches(&next, &p, 1)),
            "{pattern}: maintained list diverges at step {step}"
        );
        total.absorb(&stats);
        list = maintained;
        g = Arc::new(next);
    }
    total
}

/// `(survivors, dropped, discovered, ball_nodes)` as the `|V(p)| - 1`
/// ball reported them on the same sequence.
fn check(pattern: &str, directed: bool, seed: u64, previous: (usize, usize, usize, usize)) {
    let got = run(pattern, directed, seed);
    let (survivors, dropped, discovered, ball_nodes) = previous;
    assert_eq!(
        (got.survivors, got.dropped, got.discovered),
        (survivors, dropped, discovered),
        "{pattern}: accounting moved"
    );
    assert!(got.ball_nodes <= ball_nodes, "{pattern}: the ball grew");
    let p = Pattern::parse(pattern).unwrap();
    if PatternAnalysis::new(&p).diameter() + 1 < p.num_nodes() as u32 {
        assert!(
            got.ball_nodes < ball_nodes,
            "{pattern}: the ball did not shrink"
        );
    }
}

#[test]
fn path_with_touched_end_pair() {
    check(
        "PATTERN p { ?A-?B; ?B-?C; }",
        false,
        11,
        (3362, 71, 111, 377),
    );
}

#[test]
fn negative_edge_wedge() {
    check(
        "PATTERN w { ?A-?B; ?B-?C; ?A!-?C; }",
        false,
        12,
        (3327, 69, 101, 387),
    );
}

#[test]
fn directed_two_path() {
    check(
        "PATTERN d { ?A->?B; ?B->?C; }",
        true,
        13,
        (1902, 29, 66, 367),
    );
}

#[test]
fn triangle_ball_shrinks_to_the_diameter() {
    check(
        "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
        false,
        25,
        (164, 5, 15, 399),
    );
}
