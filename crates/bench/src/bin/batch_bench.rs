//! Batched vs sequential census: four patterns over one BA graph,
//! evaluated as one batch job (`ego_census::Census::Batch`) vs four
//! independent single-census jobs. The batch shares one neighborhood sweep per focal node on the
//! node-driven side and one center index + pooled traversals on the
//! pattern-driven side, so it should win on both wall time and
//! traversal work while producing bit-identical counts.
//!
//! ```sh
//! cargo run --release -p ego-bench --bin batch_bench [-- --scale paper] [--threads N]
//! ```

use ego_bench::{eval_graph, fmt_secs, header, row, threads_from_args, timed, Scale};
use ego_census::{run, Algorithm, Census, CensusSpec, ExecConfig, Job, TraversalStats};
use ego_pattern::builtin;

fn main() {
    let scale = Scale::from_args();
    let nodes = match scale {
        Scale::Quick => 4_000,
        Scale::Paper => 20_000,
    };
    let threads = threads_from_args();
    let k = 2;
    let g = eval_graph(nodes, Some(4), 777);
    let patterns = [
        builtin::clq3(),
        builtin::sqr(),
        builtin::path3(),
        builtin::star3(),
    ];
    let specs: Vec<CensusSpec<'_>> = patterns.iter().map(|p| CensusSpec::single(p, k)).collect();
    let exec = ExecConfig::with_threads(threads);

    println!(
        "# batch_bench: 4 patterns (clq3, sqr, path3, star3), BA n = {nodes}, \
         4 labels, k = {k}, threads = {threads}\n"
    );
    println!("each cell: wall time / nodes expanded / edges traversed (M = millions)\n");
    header(&[
        "algorithm",
        "sequential (4 runs)",
        "batched (1 call)",
        "speedup",
    ]);

    for algo in [Algorithm::NdPivot, Algorithm::PtOpt] {
        let (seq_stats, seq_secs) = timed(|| {
            let mut total = TraversalStats::default();
            let mut counts = Vec::new();
            for spec in &specs {
                let job = Job {
                    exec,
                    ..Job::new(Census::Single(spec), algo)
                };
                let mut out = run(&g, &job).unwrap();
                total.add(&out.stats);
                counts.push(out.counts.remove(0));
            }
            (total, counts)
        });
        let job = Job {
            exec,
            ..Job::new(Census::Batch(&specs), algo)
        };
        let (batch, batch_secs) = timed(|| run(&g, &job).unwrap());
        for (i, cv) in seq_stats.1.iter().enumerate() {
            assert_eq!(&batch.counts[i], cv, "{algo:?}: batch diverges on spec {i}");
        }
        let cell = |t: f64, s: &TraversalStats| {
            format!(
                "{} / {:.1}M / {:.1}M",
                fmt_secs(t),
                s.nodes_expanded as f64 / 1e6,
                s.edges_traversed as f64 / 1e6
            )
        };
        row(&[
            format!("{algo:?}"),
            cell(seq_secs, &seq_stats.0),
            cell(batch_secs, &batch.stats),
            format!("{:.2}x", seq_secs / batch_secs.max(1e-9)),
        ]);
    }
    println!();
}
