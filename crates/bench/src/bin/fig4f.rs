//! Figure 4(f): effect of the number and choice of centers on PT-OPT.
//!
//! Paper setting: 1M-node labeled BA graph, `clq3`, k = 2, centers 0–24,
//! DEG-CNTR (highest degree) vs RND-CNTR (random). To isolate the PMD
//! effect from clustering quality, the clustering feature centers are
//! pinned (12) while the PMD centers vary. Degree centers help; random
//! centers hurt as their overhead grows; too many centers of any kind
//! eventually dominates.
//!
//! ```sh
//! cargo run --release -p ego-bench --bin fig4f [-- --scale paper]
//! ```

use ego_bench::{eval_graph, fmt_secs, header, row, timed, Scale};
use ego_census::{exec_matches, run, Algorithm, Census, CensusSpec, CenterStrategy, Job, PtConfig};
use ego_pattern::builtin;
use std::sync::Arc;

fn main() {
    let scale = Scale::from_args();
    let n = match scale {
        Scale::Quick => 100_000,
        Scale::Paper => 1_000_000,
    };
    let pattern = builtin::clq3();
    let k = 2;
    let g = eval_graph(n, Some(4), 777);
    let matches = Arc::new(exec_matches(&g, &pattern, 1));
    let spec = CensusSpec::single(&pattern, k);
    println!(
        "# Figure 4(f): effect of centers ({n} nodes, labeled clq3, k = 2, {} matches)\n",
        matches.len()
    );
    println!("clustering centers pinned at 12; PMD centers vary.\n");
    println!("each cell: wall time / query edge traversals / reinsertions (center index build excluded; it is amortized per graph)\n");
    header(&["PMD centers", "DEG-CNTR", "RND-CNTR"]);

    let mut reference = None;
    for centers in [0usize, 4, 8, 12, 16, 20, 24] {
        let mut cells = Vec::new();
        for strategy in [CenterStrategy::Degree, CenterStrategy::Random] {
            let cfg = PtConfig {
                num_centers: centers,
                center_strategy: strategy,
                clustering_centers: Some(12),
                ..PtConfig::default()
            };
            let job = Job {
                config: cfg,
                matches: vec![Some(matches.clone())],
                ..Job::new(Census::Single(&spec), Algorithm::PtOpt)
            };
            let (mut out, t) = timed(|| run(&g, &job).unwrap());
            let (res, stats) = (out.counts.remove(0), out.stats);
            match &reference {
                None => reference = Some(res),
                Some(r) => assert_eq!(&res, r, "centers={centers} {strategy:?} disagrees"),
            }
            cells.push(format!(
                "{} / {:.1}M / {}",
                fmt_secs(t),
                stats.edges_traversed as f64 / 1e6,
                stats.reinsertions
            ));
        }
        row(&[centers.to_string(), cells[0].clone(), cells[1].clone()]);
    }
}
