//! Figure 4(d): census algorithms vs graph size — labeled triangle.
//!
//! Paper setting: labeled BA graphs 200K–1M nodes, 4 labels, `clq3`,
//! k = 2. The labeled triangle is selective (few matches), so the
//! pattern-driven algorithms win and PT-OPT beats PT-RND (best-first
//! ordering matters).
//!
//! The paper's prototype ran on disk-resident Neo4j, where **edge
//! traversals** dominate; this binary therefore reports both wall time
//! (in-memory substrate) and edge traversals (the disk-I/O proxy that
//! the paper's optimizations target). See EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p ego-bench --bin fig4d [-- --scale paper] [--threads T[,T...]]
//! ```
//!
//! `--threads` takes a sweep (`--threads 1,2,4`; default 1): the whole
//! size sweep runs once per thread count, all through the unified
//! parallel layer; counts stay identical, and per-thread traversal
//! stats merge additively.

use ego_bench::{eval_graph, fmt_secs, header, row, threads_sweep_from_args, timed, Scale};
use ego_census::{parallel, Algorithm, CensusSpec, PtConfig};
use ego_pattern::builtin;

fn main() {
    let scale = Scale::from_args();
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![20_000, 40_000, 60_000, 80_000, 100_000],
        Scale::Paper => vec![200_000, 400_000, 600_000, 800_000, 1_000_000],
    };
    for threads in threads_sweep_from_args() {
        run_sweep(&sizes, threads);
    }
}

fn run_sweep(sizes: &[usize], threads: usize) {
    let pattern = builtin::clq3();
    let k = 2;

    println!(
        "# Figure 4(d): pattern census vs graph size (labeled clq3, 4 labels, k = 2, threads = {threads})\n"
    );
    println!("each cell: wall time / edge traversals (M = millions)\n");
    header(&[
        "nodes", "matches", "ND-PVOT", "ND-DIFF", "PT-BAS", "PT-RND", "PT-OPT",
    ]);
    for &n in sizes {
        let g = eval_graph(n, Some(4), 777);
        let spec = CensusSpec::single(&pattern, k);
        let matches = parallel::exec_matches(&g, &pattern, threads);

        let config = PtConfig::default();
        let run = |algorithm| {
            timed(|| {
                parallel::run_with_matches(&g, &spec, &matches, algorithm, &config, threads)
                    .unwrap()
            })
        };
        let ((r_pvot, s_pvot), t_pvot) = run(Algorithm::NdPivot);
        let ((r_diff, s_diff), t_diff) = run(Algorithm::NdDiff);
        let ((r_ptb, s_ptb), t_ptb) = run(Algorithm::PtBaseline);
        let ((r_ptr, s_ptr), t_ptr) = run(Algorithm::PtRandom);
        let ((r_pto, s_pto), t_pto) = run(Algorithm::PtOpt);

        for other in [&r_diff, &r_ptb, &r_ptr, &r_pto] {
            assert_eq!(other, &r_pvot, "algorithms disagree at n={n}");
        }
        let cell = |t: f64, e: u64| format!("{} / {:.1}M", fmt_secs(t), e as f64 / 1e6);
        row(&[
            n.to_string(),
            matches.len().to_string(),
            cell(t_pvot, s_pvot.edges_traversed),
            cell(t_diff, s_diff.edges_traversed),
            cell(t_ptb, s_ptb.edges_traversed),
            cell(t_ptr, s_ptr.edges_traversed),
            cell(t_pto, s_pto.edges_traversed),
        ]);
    }
    println!();
}
