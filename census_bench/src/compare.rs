//! `--compare a.json b.json`: one row per (workload, end-to-end metric)
//! with both values, the ratio with its base, and a verdict from the
//! benchmark's own bounds.

use crate::record::read_json;
use crate::report::number;
use crate::spec::{Better, MetricDef, END_TO_END};
use ego_server::json::Json;
use std::path::Path;

/// What the bound says about `b` against base `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// The runs' own spread between segments is wider than the bound,
    /// so the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Set-up time is short, so its bound has an absolute floor: a change
/// counts only beyond max(bound share, 50 ms).
const SETUP_FLOOR_S: f64 = 0.050;

/// Judge `b` against base `a`. `spread` is the wider of the two runs'
/// relative gaps between segment values.
pub fn judge(def: &MetricDef, a: f64, b: f64, spread: f64) -> Verdict {
    let bound = def.bound.expect("end-to-end metric has a bound");
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let mut margin = bound * a.abs();
    if def.name == "setup_s" {
        margin = margin.max(SETUP_FLOOR_S);
    }
    if worse_by > margin {
        Verdict::Worse
    } else if worse_by < -margin {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn workloads(record: &Json) -> Result<&[Json], String> {
    record
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| "record has no `workloads`".to_string())
}

fn metric(entry: &Json, name: &str) -> Option<f64> {
    entry
        .get("end_to_end")?
        .get("metrics")?
        .get(name)?
        .get("value")
        .and_then(number)
}

fn spread(entry: &Json, name: &str) -> f64 {
    entry
        .get("end_to_end")
        .and_then(|e| e.get("detail"))
        .and_then(|d| d.get("segment_spread"))
        .and_then(|s| s.get(name))
        .and_then(number)
        .unwrap_or(0.0)
}

fn failed_share(entry: &Json) -> f64 {
    entry
        .get("end_to_end")
        .and_then(|e| e.get("failed_share"))
        .and_then(number)
        .unwrap_or(0.0)
}

/// Print the comparison; false when any row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for (key, what) in [("seed", "seeds"), ("nproc", "hardware thread counts")] {
        if a.get(key) != b.get(key) {
            println!("# warning: the records were taken with different {what}");
        }
    }
    println!(
        "# base a = {} ({}), b = {} ({})",
        a_path.display(),
        a.get("commit").and_then(Json::as_str).unwrap_or("?"),
        b_path.display(),
        b.get("commit").and_then(Json::as_str).unwrap_or("?"),
    );
    println!(
        "| {:<16} | {:<15} | {:>12} | {:>12} | {:>8} | {:>6} | {:<10} |",
        "workload", "metric", "a", "b", "b/a", "bound", "verdict"
    );
    let mut any_worse = false;
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("| {name:<16} | missing from b |");
            any_worse = true;
            continue;
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (metric(wa, def.name), metric(wb, def.name)) else {
                return Err(format!("{name}: `{}` missing from a record", def.name));
            };
            let verdict = judge(def, va, vb, spread(wa, def.name).max(spread(wb, def.name)));
            any_worse |= verdict == Verdict::Worse;
            println!(
                "| {name:<16} | {:<15} | {va:>12.4} | {vb:>12.4} | {:>8.4} | {:>5.0}% | {:<10} |",
                def.name,
                vb / va,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
        }
        // Any rise in the share of failed ops is a regression.
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        let verdict = if fb > fa {
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "| {name:<16} | {:<15} | {fa:>12.6} | {fb:>12.6} | {:>8} | {:>6} | {:<10} |",
            "failed_share",
            "-",
            "any",
            verdict.as_str()
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &'static str, better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name,
            unit: "x",
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let p50 = def("latency_p50_ms", Better::Lower, 0.10);
        assert_eq!(judge(&p50, 10.0, 10.9, 0.02), Verdict::Unchanged);
        assert_eq!(judge(&p50, 10.0, 11.1, 0.02), Verdict::Worse);
        assert_eq!(judge(&p50, 10.0, 8.9, 0.02), Verdict::Better);
        let tput = def("throughput_ops", Better::Higher, 0.10);
        assert_eq!(judge(&tput, 100.0, 89.0, 0.02), Verdict::Worse);
        assert_eq!(judge(&tput, 100.0, 111.0, 0.02), Verdict::Better);
        assert_eq!(judge(&tput, 100.0, 95.0, 0.02), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let tight = def("latency_p50_ms", Better::Lower, 0.10);
        assert_eq!(judge(&tight, 10.0, 20.0, 0.11), Verdict::Unresolved);
        let wide = def("latency_p95_ms", Better::Lower, 0.25);
        assert_eq!(judge(&wide, 10.0, 11.0, 0.11), Verdict::Unchanged);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = def("setup_s", Better::Lower, 0.25);
        // +40 ms on 50 ms is 80 %, but under the 50 ms floor.
        assert_eq!(judge(&setup, 0.050, 0.090, 0.0), Verdict::Unchanged);
        assert_eq!(judge(&setup, 0.050, 0.101, 0.0), Verdict::Worse);
        assert_eq!(judge(&setup, 1.0, 1.2, 0.0), Verdict::Unchanged);
        assert_eq!(judge(&setup, 1.0, 1.3, 0.0), Verdict::Worse);
    }
}
