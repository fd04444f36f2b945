//! `census_bench`: the repo's one benchmark. Seven served workloads over
//! the real `ego-server` / `ego-shard` on loopback, four gated end-to-end
//! metrics, and a traced run that prices every layer from outside. See
//! `README.md` beside this package, and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! census_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! census_bench --all [--seed N] [--seconds S] [--smoke] [--out DIR]
//! census_bench --compare a.json b.json
//! ```

mod check;
mod compare;
mod deck;
mod fleet;
mod load;
mod record;
mod report;
mod spec;
mod stats;
mod timed;
mod trace;

use report::Input;
use spec::{Scale, Workload, DEFAULT_SEED, GRAPH_FINGERPRINT};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    smoke: bool,
    trace: bool,
    seed: u64,
    seconds: Option<f64>,
    /// `--all`: where the record and the span file go.
    out: PathBuf,
    /// Single run: also write the result with its context here (`--all`
    /// reads it back from its child processes).
    record_out: Option<PathBuf>,
    /// Traced single run: also write the spans here.
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: census_bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         census_bench --all [--seed N] [--seconds S] [--smoke] [--out DIR]\n       \
         census_bench --compare a.json b.json",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        smoke: false,
        trace: false,
        seed: DEFAULT_SEED,
        seconds: None,
        out: PathBuf::from("results/bench"),
        record_out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => args.out = PathBuf::from(value(&mut it, flag)?),
            "--record-out" => args.record_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--compare" => {
                let a = value(&mut it, flag)?;
                let b = value(&mut it, flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where the `.egb` input lives while a run lasts: beside the executable,
/// which is inside the build directory and so inside the checkout.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.parent()
        .expect("executable has a directory")
        .join("census_bench_work")
        .join(std::process::id().to_string())
}

/// Generate the graph and write its `.egb`, outside every clock.
fn prepare(scale: Scale, seed: u64) -> Result<Input, String> {
    let graph = deck::make_graph(scale.nodes);
    if !scale.smoke && graph.fingerprint() != GRAPH_FINGERPRINT {
        return Err(format!(
            "input drift: graph fingerprint {:016x}, pinned {GRAPH_FINGERPRINT:016x}",
            graph.fingerprint()
        ));
    }
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let egb = dir.join("graph.egb");
    ego_graph::store::save_binary(&graph, &egb).map_err(|e| format!("{}: {e}", egb.display()))?;
    Ok(Input {
        scale,
        seed,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        graph: Arc::new(graph),
        egb,
    })
}

fn run_workload(args: &Args, workload: Workload) -> Result<bool, String> {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    if cfg!(debug_assertions) && !scale.smoke {
        return Err("refusing to measure a debug build; use `cargo run --release`".into());
    }
    let seconds = args.seconds.unwrap_or(if scale.smoke { 0.4 } else { 10.0 });
    let input = prepare(scale, args.seed)?;
    let (result, spans) = if args.trace {
        let (result, spans) = trace::run(&input, workload, seconds);
        (result, Some(spans))
    } else {
        (timed::run(&input, workload, seconds), None)
    };
    let _ = std::fs::remove_dir_all(work_dir());
    if let Some(path) = &args.record_out {
        record::write_json(path, &result.record_entry())?;
    }
    if let (Some(path), Some(spans)) = (&args.trace_out, &spans) {
        record::write_json(path, &trace::spans_json(spans))?;
    }
    result.print();
    Ok(result.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("census_bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if args.all {
        record::run_all(&args.out, args.seed, args.seconds, args.smoke)
    } else if let Some(workload) = args.workload {
        run_workload(&args, workload)
    } else {
        Err(usage())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("census_bench: {e}");
            ExitCode::from(2)
        }
    }
}
