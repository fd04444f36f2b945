//! The benchmark's fixed vocabulary: workload names, metric names with
//! unit and bound, and the two input scales. `BENCHMARK.json` at the repo
//! root lists the same names; a unit test keeps the two in step.

/// One served traffic mix. Names are fixed: later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdCensus,
    ColdSelective,
    HotTiers,
    FullTable,
    UpdateStream,
    ReadAfterWrite,
    RouterScatter,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::ColdCensus,
        Workload::ColdSelective,
        Workload::HotTiers,
        Workload::FullTable,
        Workload::UpdateStream,
        Workload::ReadAfterWrite,
        Workload::RouterScatter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCensus => "cold-census",
            Workload::ColdSelective => "cold-selective",
            Workload::HotTiers => "hot-tiers",
            Workload::FullTable => "full-table",
            Workload::UpdateStream => "update-stream",
            Workload::ReadAfterWrite => "read-after-write",
            Workload::RouterScatter => "router-scatter",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Workloads whose timed op class is an `update`.
    pub fn times_updates(self) -> bool {
        self == Workload::UpdateStream
    }

    /// Workloads that mutate the graph at all.
    pub fn mutates(self) -> bool {
        matches!(self, Workload::UpdateStream | Workload::ReadAfterWrite)
    }

    /// Workloads where every read is a cold census (both caches miss).
    pub fn is_cold(self) -> bool {
        matches!(
            self,
            Workload::ColdCensus | Workload::ColdSelective | Workload::RouterScatter
        )
    }

    /// Closed-loop client connections for `nproc` hardware threads.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::UpdateStream => 1,
            // One hardware thread is left to the open-loop writer.
            Workload::ReadAfterWrite => nproc.saturating_sub(1).max(1),
            // Every op fans out to both workers at once, so C clients
            // would put 2C census threads on C cores and time the
            // scheduler instead of the router.
            Workload::RouterScatter => (nproc / ROUTER_WORKERS).max(1),
            _ => nproc,
        }
    }
}

/// `exec_threads` of every benchmark server: census runs are not split
/// across threads, and parallelism comes from concurrent clients. With
/// the server default (all hardware threads) each op forks and joins
/// two short-lived threads on the sandbox's 2 vCPUs; whole runs then
/// landed 25-30 % slow whenever both were placed on one CPU, which made
/// the ten-seed spread of `cold-selective` wider than its bound.
pub const EXEC_THREADS: usize = 1;

/// Workers behind the router in `router-scatter`.
pub const ROUTER_WORKERS: usize = 2;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A named metric. `bound` is the share of the baseline by which an
/// end-to-end metric may worsen; per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the served system sees. Failures are not a metric
/// here (a gated metric may never read 0): they are the `failed` /
/// `attempted` pair of every result line, and any failure fails the run.
///
/// The bounds are as wide as the contract allows. The 2-vCPU sandbox
/// this was sized on drifts by 3-6 % between minutes and has spells 15-25 %
/// slower; ten-seed interquartile spreads came out at 2-10 %, and a bound
/// must sit at three times the spread to tell a regression from the host.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("throughput_ops", "ops/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// One layer each, measured from outside by the traced run. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 42] = [
    layer("graph.open_ms", "ms", Lower),
    layer("graph.egb_bytes", "bytes", Lower),
    layer("query.parse_us", "us", Lower),
    layer("query.plan_us", "us", Lower),
    layer("query.exec_self_us", "us", Lower),
    layer("matcher.extract_ms", "ms", Lower),
    layer("matcher.matches", "count", Lower),
    layer("census.traverse_ms", "ms", Lower),
    layer("census.edges_per_focal", "count", Lower),
    layer("planner.regret_ratio", "ratio", Lower),
    layer("planner.regret_whole_ratio", "ratio", Lower),
    layer("server.decode_us", "us", Lower),
    layer("server.encode_us", "us", Lower),
    layer("server.bytes_out", "bytes", Lower),
    layer("server.session_self_us", "us", Lower),
    layer("server.socket_us", "us", Lower),
    layer("client.decode_us", "us", Lower),
    layer("tier.result_hit_ms", "ms", Lower),
    layer("tier.census_hit_ms", "ms", Lower),
    layer("tier.view_hit_ms", "ms", Lower),
    layer("tier.result_hit_ratio", "ratio", Higher),
    layer("tier.census_hit_ratio", "ratio", Higher),
    layer("tier.view_hit_ratio", "ratio", Higher),
    layer("tier.evictions", "count", Lower),
    layer("tier.pinned_bytes", "bytes", Lower),
    layer("dynamic.compact_ms", "ms", Lower),
    layer("dynamic.incremental_ms", "ms", Lower),
    layer("dynamic.dirty_focal", "count", Lower),
    layer("continuous.apply_ms", "ms", Lower),
    layer("continuous.rows_pushed", "count", Lower),
    layer("shard.route_self_us", "us", Lower),
    layer("shard.leg_max_ms", "ms", Lower),
    layer("shard.leg_skew", "ratio", Lower),
    layer("writer.update_p50_ms", "ms", Lower),
    layer("writer.lateness_ms", "ms", Lower),
    layer("proc.peak_rss_mb", "MB", Lower),
    layer("trace.ops", "count", Higher),
    layer("trace.read_e2e_us", "us", Lower),
    layer("trace.update_e2e_us", "us", Lower),
    layer("trace.census_share", "ratio", Lower),
    layer("trace.output_share", "ratio", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
];

/// Input sizes. `full` is what `BENCHMARK.json` runs; `smoke` exists so
/// a test can drive every workload end to end in a few seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    pub smoke: bool,
    /// BA graph size (m = 5, 4 uniform labels).
    pub nodes: usize,
    /// Fresh set-ups per run at least; `setup_s` is their median. Short
    /// set-ups are repeated further, up to [`SETUP_BUDGET_S`] in all.
    pub setup_reps: usize,
    /// Traced ops per workload: fixed, so program-side counts repeat.
    pub trace_ops: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        smoke: false,
        nodes: 10_000,
        setup_reps: 5,
        trace_ops: 24,
    };
    pub const SMOKE: Scale = Scale {
        smoke: true,
        nodes: 400,
        setup_reps: 2,
        trace_ops: 6,
    };
}

/// The one input graph is generated from this seed, not from `--seed`:
/// its fingerprint is pinned so input drift is an error, and `--seed`
/// varies the statement decks and update scripts over it.
pub const GRAPH_SEED: u64 = 4242;
/// Fingerprint of the full-scale graph (BA n = 10 000, m = 5, 4 labels).
pub const GRAPH_FINGERPRINT: u64 = 0x39f9_80d8_4585_5308;

/// Set-ups that take milliseconds are repeated until this many seconds
/// have gone into them (or [`SETUP_REPS_MAX`] repeats), so that their
/// median is as steady as that of the long ones.
pub const SETUP_BUDGET_S: f64 = 1.0;
pub const SETUP_REPS_MAX: usize = 100;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 4242;
/// Open-loop writer rate of `read-after-write`, updates per second.
pub const WRITER_RATE_HZ: f64 = 4.0;
/// Share of the window spent warming before ops are timed.
pub const WARMUP_SHARE: f64 = 0.10;
/// One response in this many is kept and checked byte for byte.
pub const CHECK_EVERY: usize = 16;
/// Cap on responses checked per run, so checking stays short.
pub const CHECK_MAX: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;
    use ego_server::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .expect("array")
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).expect("name").into())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let bench = benchmark_json();
        let listed = names(bench.get("workloads").expect("workloads"));
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed, ours);
        for name in &ours {
            assert!(valid_name(name), "{name}");
            assert_eq!(
                Workload::parse(name).map(Workload::name),
                Some(name.as_str())
            );
        }
        assert_eq!(Workload::parse("cold"), None);
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let bench = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = bench.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert!(valid_name(def.name), "{}", def.name);
                assert!(def.unit.len() <= 16);
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
                let bound = entry.get("bound").and_then(crate::report::number);
                assert_eq!(bound, def.bound, "{}", def.name);
                assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            }
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        all.extend(Workload::ALL.iter().map(|w| w.name()));
        let unique: std::collections::HashSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn client_threads_never_exceed_nproc() {
        for nproc in [1, 2, 8] {
            for w in Workload::ALL {
                let writer = usize::from(w == Workload::ReadAfterWrite && nproc > 1);
                assert!(
                    w.clients(nproc) + writer <= nproc.max(1),
                    "{w:?} at {nproc}"
                );
                assert!(w.clients(nproc) >= 1);
            }
        }
    }
}
