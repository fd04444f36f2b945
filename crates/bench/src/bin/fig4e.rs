//! Figure 4(e): varying focal-node selectivity.
//!
//! Paper setting: 500K-node unlabeled BA graph, `clq3-unlb`, k = 2,
//! `WHERE RND() < R` for R = 20%..100%. Node-driven runtime grows
//! linearly with selectivity; pattern-driven runtime is flat (it
//! processes every match regardless), so the curves cross.
//!
//! ```sh
//! cargo run --release -p ego-bench --bin fig4e [-- --scale paper]
//! ```

use ego_bench::{eval_graph, fmt_secs, header, row, timed, Scale};
use ego_census::{exec_matches, run, Algorithm, Census, CensusSpec, FocalNodes, Job};
use ego_graph::NodeId;
use ego_pattern::builtin;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_args();
    let n = match scale {
        Scale::Quick => 20_000,
        Scale::Paper => 500_000,
    };
    // The paper's setting (unselective, unlabeled) plus a selective
    // labeled series where the ND/PT crossover is visible on an
    // in-memory substrate.
    sweep(n, false, "unlabeled clq3 (paper's Fig 4(e) setting)");
    sweep(n, true, "labeled clq3 (selective; crossover regime)");
}

fn sweep(n: usize, labeled: bool, title: &str) {
    let pattern = if labeled {
        builtin::clq3()
    } else {
        builtin::clq3_unlabeled()
    };
    let k = 2;
    let g = eval_graph(n, if labeled { Some(4) } else { None }, 777);
    let matches = Arc::new(exec_matches(&g, &pattern, 1));
    println!(
        "# Figure 4(e): focal selectivity sweep ({n} nodes, {title}, k = 2, {} matches)\n",
        matches.len()
    );
    header(&["R", "focal nodes", "ND-PVOT", "PT-OPT"]);
    for r_pct in [20u32, 40, 60, 80, 100] {
        // The paper's WHERE RND() < R predicate.
        let mut rng = StdRng::seed_from_u64(1000 + r_pct as u64);
        let focal: Vec<NodeId> = g
            .node_ids()
            .filter(|_| rng.gen::<f64>() < r_pct as f64 / 100.0)
            .collect();
        let spec = CensusSpec::single(&pattern, k).with_focal(FocalNodes::Set(focal.clone()));

        let census = |algorithm| {
            let job = Job {
                matches: vec![Some(matches.clone())],
                ..Job::new(Census::Single(&spec), algorithm)
            };
            timed(|| run(&g, &job).unwrap().counts.remove(0))
        };
        let (r_nd, t_nd) = census(Algorithm::NdPivot);
        let (r_pt, t_pt) = census(Algorithm::PtOpt);
        assert_eq!(r_nd, r_pt, "algorithms disagree at R={r_pct}");

        row(&[
            format!("{r_pct}%"),
            focal.len().to_string(),
            fmt_secs(t_nd),
            fmt_secs(t_pt),
        ]);
    }
    println!();
}
