//! The arithmetic behind the reported numbers: percentiles, the
//! three-segment medians that damp one noisy burst, and the open-loop
//! schedule.

/// One completed timed op, in nanoseconds since the window opened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// When the op was sent — or, in an open loop, when it was due.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Timing {
    pub fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, averaging the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Throughput and latency of one segment of the timed window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    pub ops: usize,
    pub throughput_ops: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Only where the segment has at least 1000 samples; printed, never
    /// gated.
    pub p99_ms: Option<f64>,
}

pub const SEGMENTS: usize = 3;

/// Cut the timed ops, in completion order, into [`SEGMENTS`] equal-count
/// segments. A segment's wall time runs from the previous segment's last
/// completion (`timed_from_ns` for the first) to its own.
pub fn segments(timings: &[Timing], timed_from_ns: u64) -> Vec<Segment> {
    let mut done: Vec<Timing> = timings.to_vec();
    done.sort_by_key(|t| t.end_ns);
    let per = done.len() / SEGMENTS;
    if per == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(SEGMENTS);
    let mut from = timed_from_ns;
    for chunk in done.chunks(per).take(SEGMENTS) {
        let until = chunk.last().expect("non-empty chunk").end_ns;
        let mut lat: Vec<f64> = chunk.iter().map(Timing::latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        out.push(Segment {
            ops: chunk.len(),
            throughput_ops: chunk.len() as f64 / (until.saturating_sub(from).max(1) as f64 / 1e9),
            p50_ms: percentile_sorted(&lat, 50.0),
            p95_ms: percentile_sorted(&lat, 95.0),
            p99_ms: (lat.len() >= 1000).then(|| percentile_sorted(&lat, 99.0)),
        });
        from = until;
    }
    out
}

/// The reported value of a metric: the median over segments, so one
/// noisy-neighbour burst cannot move it.
pub fn segment_median(segments: &[Segment], pick: impl Fn(&Segment) -> f64) -> f64 {
    median(&segments.iter().map(pick).collect::<Vec<_>>())
}

/// Widest relative gap between segment values: the run's own spread,
/// which `--compare` holds against the metric's bound.
pub fn segment_spread(segments: &[Segment], pick: impl Fn(&Segment) -> f64) -> f64 {
    let values: Vec<f64> = segments.iter().map(pick).collect();
    let (lo, hi) = values.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    let mid = median(&values);
    if mid > 0.0 {
        (hi - lo) / mid
    } else {
        0.0
    }
}

/// Due time of the `k`-th op of an open loop at `rate_hz`, in
/// nanoseconds since the loop started. Ops are due on schedule whatever
/// the system does, so a stall is charged to every op it delays.
pub fn due_ns(k: u64, rate_hz: f64) -> u64 {
    (k as f64 * 1e9 / rate_hz).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
        // 20 samples: p95 is the 19th, so exactly one lies beyond it.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_sorted(&w, 95.0), 19.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    /// Nine 1 ms ops completing every 10 ms, with one 50 ms burst in the
    /// middle segment.
    fn bursty() -> Vec<Timing> {
        (0..9u64)
            .map(|i| {
                let end_ns = (i + 1) * 10_000_000;
                let lat = if i == 4 { 50_000_000 } else { 1_000_000 };
                Timing {
                    start_ns: end_ns.saturating_sub(lat),
                    end_ns,
                }
            })
            .collect()
    }

    #[test]
    fn segments_are_equal_count_in_completion_order() {
        let mut timings = bursty();
        timings.reverse(); // input order must not matter
        let segs = segments(&timings, 0);
        assert_eq!(segs.len(), SEGMENTS);
        assert!(segs.iter().all(|s| s.ops == 3));
        // Each segment spans 30 ms of wall time: 100 ops/s.
        for s in &segs {
            assert!((s.throughput_ops - 100.0).abs() < 1e-9, "{s:?}");
            assert!(s.p99_ms.is_none());
        }
        assert_eq!(segs[0].p95_ms, 1.0);
        assert_eq!(segs[1].p95_ms, 50.0);
    }

    #[test]
    fn one_burst_cannot_move_the_segment_median() {
        let segs = segments(&bursty(), 0);
        assert_eq!(segment_median(&segs, |s| s.p95_ms), 1.0);
        assert_eq!(segment_median(&segs, |s| s.p50_ms), 1.0);
        // ... but the run's own spread shows it.
        assert_eq!(segment_spread(&segs, |s| s.p95_ms), 49.0);
        assert_eq!(segment_spread(&segs, |s| s.throughput_ops), 0.0);
    }

    #[test]
    fn first_segment_is_timed_from_the_warmup_cutoff() {
        let timings = bursty();
        let segs = segments(&timings, 5_000_000);
        // 3 ops in 25 ms.
        assert!((segs[0].throughput_ops - 120.0).abs() < 1e-9);
        assert!(segments(&timings[..2], 0).is_empty());
    }

    #[test]
    fn open_loop_ops_are_due_on_schedule() {
        assert_eq!(due_ns(0, 4.0), 0);
        assert_eq!(due_ns(1, 4.0), 250_000_000);
        assert_eq!(due_ns(40, 4.0), 10_000_000_000);
        // An op sent late is still timed from when it was due.
        let late = Timing {
            start_ns: due_ns(3, 4.0),
            end_ns: due_ns(3, 4.0) + 80_000_000,
        };
        assert_eq!(late.latency_ms(), 80.0);
    }
}
