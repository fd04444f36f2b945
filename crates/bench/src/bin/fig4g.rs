//! Figure 4(g): effect of pattern match clustering on PT-OPT.
//!
//! Paper setting: 1M-node labeled BA graph, `clq3`, k = 2; NO-CLUST vs
//! RND-CLUST vs OPT-CLUST (K-means on center-distance features), cluster
//! counts 100–600. OPT-CLUST wins; too few clusters waste work on
//! redundant distance computations, too many approach NO-CLUST.
//!
//! ```sh
//! cargo run --release -p ego-bench --bin fig4g [-- --scale paper]
//! ```

use ego_bench::{eval_graph, fmt_secs, header, row, timed, Scale};
use ego_census::{
    exec_matches, run, Algorithm, Census, CensusSpec, Clustering, CountVector, Job, PtConfig,
    TraversalStats,
};
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
    let census = |config: PtConfig| -> ((CountVector, TraversalStats), f64) {
        let job = Job {
            config,
            matches: vec![Some(matches.clone())],
            ..Job::new(Census::Single(&spec), Algorithm::PtOpt)
        };
        let (mut out, t) = timed(|| run(&g, &job).unwrap());
        ((out.counts.remove(0), out.stats), t)
    };
    println!(
        "# Figure 4(g): effect of clustering ({n} nodes, labeled clq3, k = 2, {} matches)\n",
        matches.len()
    );

    // NO-CLUST is independent of the cluster count.
    let no_cfg = PtConfig {
        clustering: Clustering::None,
        ..PtConfig::default()
    };
    let ((no_res, no_stats), no_t) = census(no_cfg);
    println!(
        "NO-CLUST: {} / {:.1}M edge traversals\n",
        fmt_secs(no_t),
        no_stats.edges_traversed as f64 / 1e6
    );

    println!("each cell: wall time / edge traversals\n");
    header(&["clusters", "RND-CLUST", "OPT-CLUST"]);
    for clusters in [100usize, 200, 300, 400, 500, 600] {
        let mut cells = Vec::new();
        for strategy in [Clustering::Random(clusters), Clustering::KMeans(clusters)] {
            let cfg = PtConfig {
                clustering: strategy,
                ..PtConfig::default()
            };
            let ((res, stats), t) = census(cfg);
            assert_eq!(res, no_res, "clustering={strategy:?} disagrees");
            cells.push(format!(
                "{} / {:.1}M",
                fmt_secs(t),
                stats.edges_traversed as f64 / 1e6
            ));
        }
        row(&[clusters.to_string(), cells[0].clone(), cells[1].clone()]);
    }
}
