//! What a run takes in and gives out: the prepared input, the result of
//! one run, and how it is printed — a table a person reads, then one JSON
//! object on the last line for the driver.

use crate::spec::{MetricDef, Scale, Workload, END_TO_END, PER_LAYER};
use ego_graph::Graph;
use ego_server::json::Json;
use std::path::PathBuf;
use std::sync::Arc;

/// Everything prepared outside the clocks.
pub struct Input {
    pub scale: Scale,
    pub seed: u64,
    /// Hardware threads; also the cap on client threads and connections.
    pub nproc: usize,
    /// The generated graph (heap copy), for decks and reference engines.
    pub graph: Arc<Graph>,
    /// The same graph written as `.egb`, which the servers open.
    pub egb: PathBuf,
}

/// One run of one workload, traced or not.
pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context that is not a metric: op counts, counters, spreads.
    pub detail: Vec<(String, Json)>,
    pub notes: Vec<String>,
}

impl RunResult {
    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.defs()
                .iter()
                .map(|def| {
                    let value = self
                        .metrics
                        .iter()
                        .find(|(name, _)| *name == def.name)
                        .map(|&(_, v)| v)
                        .unwrap_or_else(|| panic!("run did not measure `{}`", def.name));
                    (
                        def.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Float(value)),
                            ("unit".into(), Json::Str(def.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), self.metrics_json()),
        ])
        .render()
    }

    /// The record entry `--all` stores: the result plus its context.
    pub fn record_entry(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            (
                "failed_share".into(),
                Json::Float(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("metrics".into(), self.metrics_json()),
            ("detail".into(), Json::Obj(self.detail.clone())),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Print every metric by name with its unit, then the context, then
    /// the result line last.
    pub fn print(&self) {
        println!(
            "# {} ({})",
            self.workload.name(),
            if self.traced {
                "traced run: per-layer metrics"
            } else {
                "timed run: end-to-end metrics"
            }
        );
        for def in self.defs() {
            if let Some((_, v)) = self.metrics.iter().find(|(name, _)| *name == def.name) {
                println!("{:<28} {:>16.4} {}", def.name, v, def.unit);
            }
        }
        println!(
            "{:<28} {:>16.6} ratio  ({} failed of {} attempted)",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (key, value) in &self.detail {
            println!("  {key}: {}", value.render());
        }
        for note in &self.notes {
            println!("  ! {note}");
        }
        println!("{}", self.result_line());
    }
}

/// A number out of a JSON value, integer or float.
pub fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}
