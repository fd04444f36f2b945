//! Brokerage analysis (Figure 1(c) of the paper).
//!
//! In a directed transaction network where every node belongs to an
//! organization, the middle node B of a triad `A -> B -> C` (with no
//! `A -> C` shortcut) plays a brokerage role determined by the three
//! organizations:
//!
//! * **coordinator** — all three in the same organization;
//! * **gatekeeper**  — A outside, B and C inside the same organization;
//! * **representative** — A and B inside, C outside;
//! * **liaison** — all three in different organizations.
//!
//! Each role is a COUNTSP census anchored on the middle node with k = 0.
//!
//! ```sh
//! cargo run --example brokerage
//! ```

use egocensus::census::{run, Algorithm, Census, CensusSpec, Job};
use egocensus::graph::{GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A directed transaction network: 300 actors in 3 organizations
    // (labels 0, 1, 2), with org-biased random transactions.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 300u32;
    let mut b = GraphBuilder::directed();
    for _ in 0..n {
        b.add_node(Label(0));
    }
    let orgs: Vec<u16> = (0..n).map(|_| rng.gen_range(0..3u16)).collect();
    for (i, &org) in orgs.iter().enumerate() {
        b.set_label(NodeId(i as u32), Label(org));
    }
    for _ in 0..(6 * n) {
        let src = rng.gen_range(0..n);
        // 70% of transactions stay within the organization.
        let dst = if rng.gen_bool(0.7) {
            let candidates: Vec<u32> = (0..n)
                .filter(|&x| orgs[x as usize] == orgs[src as usize] && x != src)
                .collect();
            candidates[rng.gen_range(0..candidates.len())]
        } else {
            let mut d = rng.gen_range(0..n);
            while d == src {
                d = rng.gen_range(0..n);
            }
            d
        };
        b.add_edge(NodeId(src), NodeId(dst));
    }
    let g = b.build();
    println!(
        "transaction network: {} actors, {} transfers",
        g.num_nodes(),
        g.num_edges()
    );

    // Brokerage roles as COUNTSP patterns. The paper's prototype optimizes
    // LABEL = const; label-join predicates run as final filters.
    let roles: Vec<(&str, Pattern)> = vec![
        (
            "coordinator",
            Pattern::parse(
                "PATTERN coordinator_triad {
                    ?A->?B; ?B->?C; ?A!->?C;
                    [?A.LABEL=?B.LABEL];
                    [?B.LABEL=?C.LABEL];
                    SUBPATTERN broker {?B;}
                }",
            )
            .unwrap(),
        ),
        (
            "gatekeeper",
            Pattern::parse(
                "PATTERN gatekeeper_triad {
                    ?A->?B; ?B->?C; ?A!->?C;
                    [?A.LABEL!=?B.LABEL];
                    [?B.LABEL=?C.LABEL];
                    SUBPATTERN broker {?B;}
                }",
            )
            .unwrap(),
        ),
        (
            "representative",
            Pattern::parse(
                "PATTERN representative_triad {
                    ?A->?B; ?B->?C; ?A!->?C;
                    [?A.LABEL=?B.LABEL];
                    [?B.LABEL!=?C.LABEL];
                    SUBPATTERN broker {?B;}
                }",
            )
            .unwrap(),
        ),
        (
            "liaison",
            Pattern::parse(
                "PATTERN liaison_triad {
                    ?A->?B; ?B->?C; ?A!->?C;
                    [?A.LABEL!=?B.LABEL];
                    [?B.LABEL!=?C.LABEL];
                    [?A.LABEL!=?C.LABEL];
                    SUBPATTERN broker {?B;}
                }",
            )
            .unwrap(),
        ),
    ];

    println!("\nper-role brokerage leaders (COUNTSP, k = 0):");
    for (role, pattern) in &roles {
        let spec = CensusSpec::single(pattern, 0).with_subpattern("broker");
        let job = Job::new(Census::Single(&spec), Algorithm::PtOpt);
        let counts = &run(&g, &job).unwrap().counts[0];
        let top = counts.top_k(3);
        let total = counts.total();
        print!("  {role:<15} total={total:<6} top brokers:");
        for (node, c) in top {
            print!(" {node}(org{},{c})", orgs[node.index()]);
        }
        println!();
    }
}
