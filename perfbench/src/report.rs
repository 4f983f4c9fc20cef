//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json`; the
//! benchmark's test keeps the two in step.

use std::fmt::Write as _;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when higher values are better.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
    }
}

/// Metrics a user of the monitor sees, in every untraced run's result.
///
/// The untraced run also prints `decide_p99_ms`, `sustained_pkg_per_s`,
/// `recall`, `precision`, `peak_lanes`, `quarantine_frac` and `fail_frac`
/// by name. They stay out of the result: p99 latency and the sustained
/// rate move with every scheduling stall of a small shared host, recall,
/// precision and lane counts with the attack mix each seed draws — all by
/// more than the widest bound a regression gate may use — and the two
/// fractions are zero when all is well.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", false),
    m("pkg_per_s", "1/s", true),
    m("decide_p50_ms", "ms", false),
    m("alarm_frac", "ratio", false),
    m("peak_rss_mb", "MB", false),
];

/// Metrics of single layers, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("wire.decode_ns_per_frame", "ns", false),
    m("wire.skipped_bytes", "count", false),
    m("engine.ingest_ns_per_frame", "ns", false),
    m("engine.blocked_pushes", "count", false),
    m("engine.idle_roundtrip_us", "us", false),
    m("engine.round_width_mean", "lanes", true),
    m("engine.widest_round", "lanes", true),
    m("engine.split_rounds", "count", true),
    m("engine.steals", "count", true),
    m("engine.quarantine_frac", "ratio", false),
    m("engine.peak_lanes", "count", false),
    m("extract.ns_per_record", "ns", false),
    m("features.discretize_ns", "ns", false),
    m("features.signature_ns", "ns", false),
    m("bloom.check_ns", "ns", false),
    m("bloom.normal_frac", "ratio", true),
    m("lstm.ns_per_lane_b1", "ns", false),
    m("lstm.ns_per_lane_bw", "ns", false),
    m("lstm.gflops_bw", "GFLOP/s", true),
    m("combined.ns_per_pkg", "ns", false),
    m("combined.classify_us_b1", "us", false),
    m("combined.pkg_level_alarms", "count", false),
    m("combined.ts_level_alarms", "count", false),
    m("combined.lane_reset_ns", "ns", false),
    m("alloc.per_frame", "count", false),
    m("model_kb", "KB", false),
    m("setup.train_s", "s", false),
    m("setup.targets_per_s", "1/s", true),
    m("setup.capture_s", "s", false),
    m("trace.untraced_wall_s", "s", false),
    m("trace.attributed_frac", "ratio", true),
];

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Whether every engine run agreed with the oracle and lost nothing.
    pub correct: bool,
    /// Frames offered to the engine across all checked engine runs.
    pub attempted: u64,
    /// Frames lost or decided differently from the oracle.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result as the one-line JSON object the benchmark ends with.
    ///
    /// # Panics
    ///
    /// Panics if a metric is not in the catalogue or is not finite: both
    /// are bugs in the benchmark, not in the program under test.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // always with a decimal point or exponent: every digit measured.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The catalogue entry for `name`.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Orders `metrics` like `catalogue` and checks they match it exactly.
///
/// # Panics
///
/// Panics on a missing, extra or repeated metric.
pub fn in_catalogue_order(
    catalogue: &[MetricDef],
    metrics: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    assert_eq!(
        metrics.len(),
        catalogue.len(),
        "metric set differs from the catalogue"
    );
    catalogue
        .iter()
        .map(|def| {
            *metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
        })
        .collect()
}

/// Peak resident set size of this process, MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
