//! Figure 4(c): census algorithms vs graph size — unlabeled triangle.
//!
//! Paper setting: unlabeled BA graphs 20K–100K nodes, `clq3-unlb`, k = 2.
//! The unlabeled triangle is unselective (huge match counts), so
//! node-driven ND-PVOT wins and ND-BAS is reported separately (116 min at
//! 20K nodes — 218x ND-PVOT).
//!
//! ```sh
//! cargo run --release -p ego-bench --bin fig4c [-- --scale paper] [--threads T[,T...]]
//! ```
//!
//! `--threads` takes a sweep (`--threads 1,2,4`; default 1): the whole
//! size sweep runs once per thread count, all through the unified
//! parallel layer; counts are identical for every thread count.

use ego_bench::{eval_graph, fmt_secs, header, row, threads_sweep_from_args, timed, Scale};
use ego_census::{global_matches, parallel, Algorithm, CensusSpec, CountVector, PtConfig};
use ego_graph::Graph;
use ego_matcher::MatchList;
use ego_pattern::builtin;

fn main() {
    let scale = Scale::from_args();
    let (sizes, bas_size): (Vec<usize>, usize) = match scale {
        Scale::Quick => (vec![4_000, 8_000, 12_000, 16_000, 20_000], 4_000),
        Scale::Paper => (vec![20_000, 40_000, 60_000, 80_000, 100_000], 20_000),
    };
    for threads in threads_sweep_from_args() {
        run_sweep(&sizes, bas_size, threads);
    }
}

fn run_sweep(sizes: &[usize], bas_size: usize, threads: usize) {
    let pattern = builtin::clq3_unlabeled();
    let k = 2;

    println!(
        "# Figure 4(c): pattern census vs graph size (unlabeled clq3, k = 2, threads = {threads})\n"
    );
    header(&[
        "nodes", "matches", "ND-PVOT", "ND-DIFF", "PT-BAS", "PT-RND", "PT-OPT",
    ]);
    for &n in sizes {
        let g = eval_graph(n, None, 777);
        let spec = CensusSpec::single(&pattern, k);
        let (matches, _) = timed(|| parallel::exec_matches(&g, &pattern, threads));

        let run = |algorithm| census(&g, &spec, &matches, algorithm, threads);
        let (r_pvot, t_pvot) = run(Algorithm::NdPivot);
        let (r_diff, t_diff) = run(Algorithm::NdDiff);
        let (r_ptb, t_ptb) = run(Algorithm::PtBaseline);
        let (r_ptr, t_ptr) = run(Algorithm::PtRandom);
        let (r_pto, t_pto) = run(Algorithm::PtOpt);

        for other in [&r_diff, &r_ptb, &r_ptr, &r_pto] {
            assert_eq!(other, &r_pvot, "algorithms disagree at n={n}");
        }
        row(&[
            n.to_string(),
            matches.len().to_string(),
            fmt_secs(t_pvot),
            fmt_secs(t_diff),
            fmt_secs(t_ptb),
            fmt_secs(t_ptr),
            fmt_secs(t_pto),
        ]);
    }

    // ND-BAS, smallest size only (the paper reports it out-of-plot).
    let g = eval_graph(bas_size, None, 777);
    let spec = CensusSpec::single(&pattern, k);
    let matches = global_matches(&g, &pattern);
    let run = |algorithm| census(&g, &spec, &matches, algorithm, threads);
    let (r_bas, t_bas) = run(Algorithm::NdBaseline);
    let (r_pvot, _) = run(Algorithm::NdPivot);
    assert_eq!(r_bas, r_pvot, "ND-BAS disagrees");
    let (_, t_pvot) = run(Algorithm::NdPivot);
    println!(
        "\nND-BAS at {bas_size} nodes: {} ({}x ND-PVOT's {})",
        fmt_secs(t_bas),
        (t_bas / t_pvot.max(1e-9)) as u64,
        fmt_secs(t_pvot)
    );
    println!();
}

/// Time one census through the parallel layer.
fn census(
    g: &Graph,
    spec: &CensusSpec<'_>,
    matches: &MatchList,
    algorithm: Algorithm,
    threads: usize,
) -> (CountVector, f64) {
    let config = PtConfig::default();
    timed(|| {
        parallel::run_with_matches(g, spec, matches, algorithm, &config, threads)
            .unwrap()
            .0
    })
}
