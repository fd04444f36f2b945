//! The untraced run: set the workload up (several times, for `setup_s`),
//! drive its traffic for the window, gate correctness, and reduce the
//! timings to the end-to-end metrics.

use crate::check::{self, Verdict};
use crate::deck::Deck;
use crate::fleet::Fleet;
use crate::load;
use crate::report::{Input, RunResult};
use crate::spec::{Workload, END_TO_END, SETUP_BUDGET_S, SETUP_REPS_MAX};
use crate::stats::{self, Segment, Timing};
use ego_server::json::Json;
use std::time::{Duration, Instant};

/// Connections beyond the load clients: the writer, a `stats` probe and
/// the post-window checker, each of which needs its own pool thread.
pub const SPARE_CONNECTIONS: usize = 4;

/// A segment smaller than this leaves fewer than ten samples beyond p95.
const MIN_SEGMENT_OPS: usize = 200;

pub fn run(input: &Input, workload: Workload, seconds: f64) -> RunResult {
    let deck = Deck::new(workload, input.seed, &input.graph);
    let connections = workload.clients(input.nproc) + SPARE_CONNECTIONS;

    // Set-up, several times on fresh state; the last one is measured on.
    let mut setups: Vec<f64> = Vec::new();
    let mut fleet = None;
    while setups.len() < input.scale.setup_reps
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S
            && setups.len() < SETUP_REPS_MAX
            && !input.scale.smoke)
    {
        if let Some(previous) = fleet.take() {
            Fleet::stop(previous);
        }
        let started = Instant::now();
        fleet = Some(Fleet::start(workload, &input.egb, &deck, connections));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("at least one set-up");

    let before = fleet.stats();
    let mut writer = fleet.writer.take();
    let window = load::run(
        workload,
        fleet.addr,
        &deck,
        writer.as_mut().map(|w| (w, 0)),
        input.nproc,
        Duration::from_secs_f64(seconds),
    );
    fleet.writer = writer;
    let after = fleet.stats();

    let mut verdict = Verdict::default();
    if workload.mutates() {
        check::check_updates(&fleet, &deck, &window.updates, &mut verdict);
    } else {
        let engine = check::reference_engine(fleet.graph.clone());
        check::check_reads(&engine, &deck, &window.reads, &mut verdict);
    }
    if workload == Workload::HotTiers {
        check::check_tiers(&before, &after, &window.reads, &mut verdict);
    }
    fleet.stop();

    let op_failures = window.reads.iter().filter(|r| !r.ok).count()
        + window.updates.iter().filter(|u| !u.ok).count();
    let (class, timings) = if workload.times_updates() {
        (
            "update",
            timed(
                window.updates.iter().map(|u| u.timing),
                window.timed_from_ns,
            ),
        )
    } else {
        (
            "query",
            timed(window.reads.iter().map(|r| r.timing), window.timed_from_ns),
        )
    };
    let segments = stats::segments(&timings, window.timed_from_ns);
    assert!(
        !segments.is_empty(),
        "{}: only {} timed ops — window too short to segment",
        workload.name(),
        timings.len()
    );

    let picks: [fn(&Segment) -> f64; 3] = [|s| s.throughput_ops, |s| s.p50_ms, |s| s.p95_ms];
    let mut metrics: Vec<(&'static str, f64)> = END_TO_END
        .iter()
        .zip(picks)
        .map(|(def, pick)| (def.name, stats::segment_median(&segments, pick)))
        .collect();
    metrics.push(("setup_s", stats::median(&setups)));
    let spreads = END_TO_END
        .iter()
        .zip(picks)
        .map(|(def, pick)| {
            (
                def.name.to_string(),
                Json::Float(stats::segment_spread(&segments, pick)),
            )
        })
        .collect();

    let attempted = window.reads.len() + window.updates.len();
    let failed = op_failures + verdict.failed;
    let mut notes = verdict.notes;
    if segments[0].ops < MIN_SEGMENT_OPS && !input.scale.smoke {
        notes.push(format!(
            "warning: {} timed ops per segment; p95 wants at least {MIN_SEGMENT_OPS}",
            segments[0].ops
        ));
    }
    if window.elapsed.as_secs_f64() > seconds * 1.5 + 1.0 {
        notes.push(format!(
            "warning: window ran {:.1} s for a {seconds} s budget",
            window.elapsed.as_secs_f64()
        ));
    }

    let counter =
        |name: &str| Json::Int(after.stat(name).unwrap_or(0) - before.stat(name).unwrap_or(0));
    let mut detail = vec![
        ("timed_op_class".to_string(), Json::Str(class.into())),
        (
            "loop".to_string(),
            Json::Str(if workload == Workload::ReadAfterWrite {
                format!(
                    "closed, {} readers; open-loop writer at {} updates/s",
                    workload.clients(input.nproc),
                    crate::spec::WRITER_RATE_HZ
                )
            } else {
                format!("closed, {} clients", workload.clients(input.nproc))
            }),
        ),
        ("ops_timed".to_string(), Json::Int(timings.len() as i64)),
        (
            "ops_per_segment".to_string(),
            Json::Int(segments[0].ops as i64),
        ),
        ("checked".to_string(), Json::Int(verdict.checked as i64)),
        ("segment_spread".to_string(), Json::Obj(spreads)),
        (
            "segments".to_string(),
            Json::Arr(
                segments
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Float(s.throughput_ops),
                            Json::Float(s.p50_ms),
                            Json::Float(s.p95_ms),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "setup_samples_s".to_string(),
            Json::Arr(setups.iter().map(|&s| Json::Float(s)).collect()),
        ),
        ("result_cache_hits".to_string(), counter("cache_hits")),
        (
            "result_cache_evictions".to_string(),
            counter("cache_evictions"),
        ),
        (
            "census_count_hits".to_string(),
            counter("census_count_hits"),
        ),
        (
            "census_count_misses".to_string(),
            counter("census_count_misses"),
        ),
        ("view_hits".to_string(), counter("view_hits")),
        ("graph_updates".to_string(), counter("graph_updates")),
    ];
    if let Some(p99) = segments
        .iter()
        .map(|s| s.p99_ms)
        .collect::<Option<Vec<f64>>>()
    {
        detail.push(("latency_p99_ms".into(), Json::Float(stats::median(&p99))));
    }
    if workload == Workload::ReadAfterWrite {
        // The open-loop writer is not the timed op class; it explains
        // the read p95, so it is printed beside it.
        let lat: Vec<f64> = window
            .updates
            .iter()
            .map(|u| u.timing.latency_ms())
            .collect();
        let late: Vec<f64> = window
            .updates
            .iter()
            .map(|u| u.late_ns as f64 / 1e6)
            .collect();
        if !lat.is_empty() {
            detail.push(("writer_updates".into(), Json::Int(lat.len() as i64)));
            detail.push((
                "writer_update_p50_ms".into(),
                Json::Float(stats::median(&lat)),
            ));
            detail.push((
                "writer_lateness_max_ms".into(),
                Json::Float(late.iter().copied().fold(0.0, f64::max)),
            ));
        }
    }
    if workload.mutates() {
        let rows: usize = window.updates.iter().map(|u| u.rows_pushed).sum();
        detail.push(("rows_pushed".into(), Json::Int(rows as i64)));
    }

    RunResult {
        workload,
        traced: false,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
        notes,
    }
}

/// Ops that started after the warm-up share of the window.
fn timed(all: impl Iterator<Item = Timing>, timed_from_ns: u64) -> Vec<Timing> {
    all.filter(|t| t.start_ns >= timed_from_ns).collect()
}
