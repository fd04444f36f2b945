//! Ablation study of PT-OPT's optimization stack (beyond the paper's
//! figures, but directly supporting its Section IV-B design choices):
//! starting from the full configuration, disable one optimization at a
//! time and report wall time, query edge traversals, and queue
//! reinsertions.
//!
//! ```sh
//! cargo run --release -p ego-bench --bin ablation [-- --scale paper] [--threads T]
//! ```

use ego_bench::{eval_graph, fmt_secs, header, row, threads_from_args, timed, Scale};
use ego_census::{
    exec_matches, run, Algorithm, Census, CensusSpec, Clustering, ExecConfig, Job, PtConfig,
    PtOrdering,
};
use ego_pattern::builtin;
use std::sync::Arc;

fn main() {
    let scale = Scale::from_args();
    let threads = threads_from_args();
    let n = match scale {
        Scale::Quick => 50_000,
        Scale::Paper => 500_000,
    };
    let pattern = builtin::clq3();
    let k = 2;
    let g = eval_graph(n, Some(4), 777);
    let matches = Arc::new(exec_matches(&g, &pattern, threads));
    let spec = CensusSpec::single(&pattern, k);
    println!(
        "# PT-OPT ablation ({n} nodes, labeled clq3, k = 2, {} matches, threads = {threads})\n",
        matches.len()
    );

    let full = PtConfig::default();
    let variants: Vec<(&str, PtConfig)> = vec![
        ("full PT-OPT", full.clone()),
        (
            "- distance shortcuts",
            PtConfig {
                use_distance_shortcuts: false,
                ..full.clone()
            },
        ),
        (
            "- centers",
            PtConfig {
                num_centers: 0,
                clustering_centers: Some(12),
                ..full.clone()
            },
        ),
        (
            "- clustering",
            PtConfig {
                clustering: Clustering::None,
                ..full.clone()
            },
        ),
        (
            "- best-first (random order)",
            PtConfig {
                ordering: PtOrdering::Random,
                ..full.clone()
            },
        ),
        (
            "bare (no optimizations)",
            PtConfig {
                use_distance_shortcuts: false,
                num_centers: 0,
                clustering: Clustering::None,
                ordering: PtOrdering::Random,
                ..full
            },
        ),
    ];

    header(&["variant", "time", "edges traversed", "reinsertions"]);
    let mut reference = None;
    for (name, cfg) in &variants {
        let job = Job {
            config: cfg.clone(),
            exec: ExecConfig::with_threads(threads),
            matches: vec![Some(matches.clone())],
            ..Job::new(Census::Single(&spec), Algorithm::PtOpt)
        };
        let (mut out, t) = timed(|| run(&g, &job).unwrap());
        let (res, stats) = (out.counts.remove(0), out.stats);
        match &reference {
            None => reference = Some(res),
            Some(r) => assert_eq!(&res, r, "{name} disagrees"),
        }
        row(&[
            name.to_string(),
            fmt_secs(t),
            format!("{:.1}M", stats.edges_traversed as f64 / 1e6),
            stats.reinsertions.to_string(),
        ]);
    }
}
