//! # ego-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section V). One binary per figure:
//!
//! | Binary | Paper figure | What it sweeps |
//! |---|---|---|
//! | `fig4a` | 4(a) | CN vs GQL matching time vs graph size (clq3, clq4) |
//! | `fig4b` | 4(b) | CN vs GQL across the Figure 3 patterns |
//! | `fig4c` | 4(c) | census algorithms vs graph size, unlabeled triangle |
//! | `fig4d` | 4(d) | census algorithms vs graph size, labeled triangle |
//! | `fig4e` | 4(e) | focal-node selectivity sweep (`WHERE RND() < R`) |
//! | `fig4f` | 4(f) | number + strategy of centers (DEG vs RND) |
//! | `fig4g` | 4(g) | clustering strategy and cluster count |
//! | `fig4h` | 4(h) | DBLP-style link prediction P@K + pairwise runtimes |
//!
//! Beyond the figures: `ablation` (PT-OPT optimizations one at a time),
//! `batch_bench` (N patterns in one batched call vs N runs) and
//! `kernel_bench` (set-intersection kernels). Served traffic is not
//! measured here — that is `census_bench/`, the repo's one benchmark.
//!
//! Every binary accepts `--scale quick|paper`: `quick` (default) runs
//! laptop-scale inputs; `paper` uses the paper's sizes (up to 1M nodes /
//! 5M edges — minutes to hours). Results print as aligned tables suitable
//! for EXPERIMENTS.md.

use ego_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down inputs, finishes in seconds to a few minutes.
    Quick,
    /// The paper's input sizes.
    Paper,
}

impl Scale {
    /// Parse from argv: `--scale quick|paper` (default quick).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "paper" | "full" => Scale::Paper,
                    _ => Scale::Quick,
                };
            }
        }
        Scale::Quick
    }
}

/// Parse `--threads N` from argv (default 1, so timings stay comparable
/// with older runs unless parallelism is asked for; `0` = all hardware
/// threads).
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--threads" {
            let t: usize = w[1].parse().unwrap_or(1);
            return ego_census::ExecConfig::with_threads(t).resolve();
        }
    }
    1
}

/// Parse `--threads` as a sweep: a comma-separated list of counts
/// (`--threads 1,2,4`), each resolved like [`threads_from_args`]
/// (`0` = all hardware threads). Default `[1]`. fig4c/d run their whole
/// size sweep once per entry, so one invocation produces the
/// thread-scaling tables for EXPERIMENTS.md.
pub fn threads_sweep_from_args() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--threads" {
            let sweep: Vec<usize> = w[1]
                .split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .map(|t| ego_census::ExecConfig::with_threads(t).resolve())
                .collect();
            if !sweep.is_empty() {
                return sweep;
            }
        }
    }
    vec![1]
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The evaluation's standard synthetic graph: Barabási–Albert with
/// `|E| = 5 |V|`, optionally labeled with 4 uniform random labels.
pub fn eval_graph(nodes: usize, labels: Option<u16>, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = ego_datagen::barabasi_albert(nodes, 5, &mut rng);
    match labels {
        Some(l) => ego_datagen::assign_random_labels(&g, l, &mut rng),
        None => g,
    }
}

/// Print a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown-style header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_graph_shape() {
        let g = eval_graph(1000, Some(4), 1);
        assert_eq!(g.num_nodes(), 1000);
        assert_eq!(g.num_edges(), 5 * (1000 - 5 - 1) + 5);
        assert_eq!(g.num_labels(), 4);
        let u = eval_graph(500, None, 1);
        assert_eq!(u.num_labels(), 1);
    }

    #[test]
    fn timing_and_formatting() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.5).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }

    #[test]
    fn scale_default_quick() {
        assert_eq!(Scale::from_args(), Scale::Quick);
    }

    #[test]
    fn threads_default_one() {
        assert_eq!(threads_from_args(), 1);
        assert_eq!(threads_sweep_from_args(), vec![1]);
    }
}
