//! `--all`: every workload, timed then traced, one fresh process each,
//! gathered into one machine-readable record and one span file.

use crate::deck::make_graph;
use crate::spec::{Scale, Workload};
use ego_server::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    write(path, &(value.render() + "\n"))
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// First line of a command's output, or `unknown` (the record is still
/// worth having outside a git checkout).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Run one workload in a fresh process, with its metrics on our stdout,
/// and read back the entry it recorded.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    traced: bool,
    part: &Path,
    spans: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--record-out")
        .arg(part);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(spans) = spans {
        cmd.arg("--trace-out").arg(spans);
    }
    // `status` waits for the child; a failed run still wrote its entry.
    let status = cmd.status().map_err(|e| format!("spawn child: {e}"))?;
    let entry = read_json(part).map_err(|e| {
        format!(
            "{} ({}) left no record ({status}): {e}",
            workload.name(),
            if traced { "traced" } else { "timed" }
        )
    })?;
    let _ = std::fs::remove_file(part);
    Ok(entry)
}

/// Run the whole suite and write `<out>/census_bench.json` and
/// `<out>/trace.json` (`*.smoke.json` for a smoke run). True when every
/// run was correct.
pub fn run_all(out: &Path, seed: u64, seconds: Option<f64>, smoke: bool) -> Result<bool, String> {
    if cfg!(debug_assertions) && !smoke {
        return Err("refusing to record a debug build; use `cargo run --release`".into());
    }
    let scale = if smoke { Scale::SMOKE } else { Scale::FULL };
    let graph = make_graph(scale.nodes);
    let suffix = if smoke { ".smoke.json" } else { ".json" };
    let part: PathBuf = out.join(format!("part-{}.json", std::process::id()));
    let spans_part: PathBuf = out.join(format!("spans-{}.json", std::process::id()));

    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let timed = run_child(workload, seed, seconds, smoke, false, &part, None)?;
        let traced = run_child(
            workload,
            seed,
            seconds,
            smoke,
            true,
            &part,
            Some(&spans_part),
        )?;
        for entry in [&timed, &traced] {
            all_correct &= entry.get("correct").and_then(Json::as_bool) == Some(true);
        }
        traces.push((workload.name().to_string(), read_json(&spans_part)?));
        let _ = std::fs::remove_file(&spans_part);
        workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(workload.name().into())),
            ("end_to_end".into(), timed),
            ("per_layer".into(), traced),
        ]));
    }

    let record = Json::Obj(vec![
        ("benchmark".into(), Json::Str("census_bench".into())),
        // The record is a baseline; it claims no gain.
        ("claim".into(), Json::Null),
        (
            "commit".into(),
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(tool_line("rustc", &["-V"]))),
        (
            "nproc".into(),
            Json::Int(std::thread::available_parallelism().map_or(1, usize::from) as i64),
        ),
        ("seed".into(), Json::Int(seed as i64)),
        ("smoke".into(), Json::Bool(smoke)),
        (
            "graph".into(),
            Json::Obj(vec![
                ("model".into(), Json::Str("BA m=5, 4 uniform labels".into())),
                ("nodes".into(), Json::Int(graph.num_nodes() as i64)),
                ("edges".into(), Json::Int(graph.num_edges() as i64)),
                (
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", graph.fingerprint())),
                ),
            ]),
        ),
        ("workloads".into(), Json::Arr(workloads)),
    ]);
    let record_path = out.join(format!("census_bench{suffix}"));
    write_json(&record_path, &record)?;
    let trace_path = out.join(format!("trace{suffix}"));
    write_json(&trace_path, &Json::Obj(traces))?;
    println!(
        "# wrote {} and {}",
        record_path.display(),
        trace_path.display()
    );
    Ok(all_correct)
}
