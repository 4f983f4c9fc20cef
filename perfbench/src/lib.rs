//! The icsad benchmark: the wire-to-decision path on the paper-scale
//! model, end to end and layer by layer.
//!
//! One run measures one workload for a fixed time and checks every engine
//! pass against a per-record oracle:
//!
//! | workload | traffic | loop |
//! |---|---|---|
//! | `fleet_replay` | pcap of 64 PLC connections, attacks at p = 0.05 | closed: `WireReplay::replay` → `Engine::ingest_batch` → `finish` |
//! | `paced_trickle` | 8 PLC connections | open: fixed-rate ticks, `flush_ingest` after each |
//! | `hostile_mix` | campaign + exception flood + garbage storm + churn + skewed fleet | closed: events fed in order, link-downs retire links |
//!
//! Every workload also searches the highest open-loop rate whose p99
//! decision latency meets [`drive::LATENCY_LIMIT_MS`] without backlog
//! growth. The untraced run prints the end-to-end metrics of
//! [`report::END_TO_END`]; the traced run (`--trace 1`) replays the
//! workload stage by stage through each layer's public functions and
//! prints [`report::PER_LAYER`] (see [`layers`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod drive;
pub mod layers;
pub mod model;
pub mod oracle;
pub mod report;
pub mod trace;
pub mod traffic;

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use icsad_core::CombinedDetector;
use icsad_engine::EngineReport;

use crate::drive::{median, percentile};
use crate::model::{commission, ModelScale};
use crate::oracle::{Check, Oracle};
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::traffic::{HostileScale, Traffic};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline pcap of a 64-PLC fleet replayed at full speed.
    FleetReplay,
    /// Eight PLC connections paced open loop at fixed rates.
    PacedTrickle,
    /// One adversarial scenario stream.
    HostileMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::FleetReplay,
        Workload::PacedTrickle,
        Workload::HostileMix,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetReplay => "fleet_replay",
            Workload::PacedTrickle => "paced_trickle",
            Workload::HostileMix => "hostile_mix",
        }
    }

    /// Whether the workload is measured open loop only (its throughput is
    /// the paced rate it keeps up with).
    pub fn is_open_loop(self) -> bool {
        self == Workload::PacedTrickle
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of everything a run builds.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// The commissioned model.
    pub model: ModelScale,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// `fleet_replay`: PLC connections × packets per PLC.
    pub fleet: (usize, usize),
    /// `paced_trickle`: PLC connections × packets per PLC.
    pub trickle: (usize, usize),
    /// Open-loop latency rates of each workload, frames per second, in
    /// [`Workload::ALL`] order.
    pub fixed_rates: [Vec<f64>; 3],
    /// `hostile_mix` sizes.
    pub hostile: HostileScale,
    /// Probes one sustained-rate search may run.
    pub search_probes: usize,
    /// Rounds of one closed-loop pass plus the fixed-rate phases.
    pub rounds: usize,
}

impl Scale {
    /// The reference scale: the paper's 2×256 model.
    pub fn paper() -> Self {
        Scale {
            model: ModelScale::paper(),
            setup_repeats: 3,
            fleet: (64, 400),
            trickle: (8, 2_000),
            fixed_rates: [
                vec![2_000.0],
                vec![1_000.0, 2_000.0, 3_000.0],
                vec![1_000.0],
            ],
            hostile: HostileScale {
                campaign_cycles: 60,
                flood: 3_000,
                garbage: 4_000,
                churn: (6, 8),
                fleet_cycles: 20,
            },
            search_probes: 10,
            rounds: 7,
        }
    }

    /// A seconds-long scale for the benchmark's own tests.
    pub fn tiny() -> Self {
        Scale {
            model: ModelScale::tiny(),
            setup_repeats: 1,
            fleet: (4, 60),
            trickle: (2, 200),
            fixed_rates: [vec![1_000.0], vec![500.0, 1_000.0], vec![1_000.0]],
            hostile: HostileScale {
                campaign_cycles: 8,
                flood: 100,
                garbage: 80,
                churn: (2, 2),
                fleet_cycles: 2,
            },
            search_probes: 4,
            rounds: 2,
        }
    }
}

impl Scale {
    /// The fixed open-loop rates of `workload`.
    pub fn fixed_rates(&self, workload: Workload) -> &[f64] {
        let i = Workload::ALL
            .iter()
            .position(|&w| w == workload)
            .expect("every workload is listed");
        &self.fixed_rates[i]
    }
}

/// What one benchmark run does.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's traffic.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Flip one oracle decision before checking (the benchmark's own test
    /// proves such a mismatch surfaces as a failure).
    pub inject_mismatch: bool,
}

/// A set-up workload: model, traffic and what setting them up cost.
pub struct Setup {
    /// The reference detector.
    pub detector: Arc<CombinedDetector>,
    /// The workload's input.
    pub traffic: Traffic,
    /// Median wall seconds of one set-up: build the workload's capture,
    /// commission the model, start an engine.
    pub setup_s: f64,
    /// Median seconds generating captures (workload plus commissioning).
    pub capture_s: f64,
    /// Median seconds training the framework.
    pub train_s: f64,
    /// Prediction targets trained on.
    pub targets: usize,
    /// Signature vocabulary size.
    pub vocabulary: usize,
    /// SIMD kernel backend the engine resolved.
    pub kernel_backend: &'static str,
    /// Resolved ingest mode.
    pub ingest_mode: &'static str,
    /// Engine shards.
    pub shards: usize,
}

fn build_traffic(workload: Workload, seed: u64, scale: &Scale) -> Traffic {
    match workload {
        Workload::FleetReplay => traffic::plc_fleet(scale.fleet.0, scale.fleet.1, seed),
        Workload::PacedTrickle => traffic::plc_fleet(scale.trickle.0, scale.trickle.1, seed),
        Workload::HostileMix => traffic::hostile_mix(&scale.hostile, seed),
    }
}

/// Sets the workload up `scale.setup_repeats` times (capture, model,
/// engine start) and keeps the last.
pub fn setup(workload: Workload, seed: u64, scale: &Scale) -> Setup {
    let mut totals = Vec::new();
    let mut captures = Vec::new();
    let mut trains = Vec::new();
    let mut last = None;
    for _ in 0..scale.setup_repeats.max(1) {
        let t0 = Instant::now();
        let traffic = build_traffic(workload, seed, scale);
        let traffic_s = t0.elapsed().as_secs_f64();
        let commissioned = commission(&scale.model);
        let detector = Arc::new(commissioned.detector);
        let engine = drive::start(&detector);
        totals.push(t0.elapsed().as_secs_f64());
        captures.push(traffic_s + commissioned.capture_s);
        trains.push(commissioned.train_s);
        let stamp = (
            engine.kernel_backend(),
            engine.ingest_mode(),
            engine.num_shards(),
        );
        drop(engine.finish());
        last = Some((
            detector,
            traffic,
            commissioned.targets,
            commissioned.vocabulary,
            stamp,
        ));
    }
    let (detector, traffic, targets, vocabulary, stamp) = last.expect("at least one set-up");
    Setup {
        detector,
        traffic,
        setup_s: median(&totals),
        capture_s: median(&captures),
        train_s: median(&trains),
        targets,
        vocabulary,
        kernel_backend: stamp.0,
        ingest_mode: stamp.1,
        shards: stamp.2,
    }
}

/// Engine passes to check against the oracle: each report with the
/// number of events that engine was fed.
#[derive(Default)]
pub struct Checks {
    runs: Vec<(EngineReport, usize)>,
}

impl Checks {
    /// Records an engine pass over `events[..prefix]`.
    pub fn push(&mut self, report: EngineReport, prefix: usize) {
        self.runs.push((report, prefix));
    }

    /// The longest prefix any pass was fed.
    pub fn longest(&self) -> usize {
        self.runs.iter().map(|r| r.1).max().unwrap_or(0)
    }

    /// Checks every pass, plus frames the capture decode lost.
    pub fn against(&self, oracle: &Oracle, traffic: &Traffic) -> Check {
        let mut total = Check {
            failed: traffic.sent_frames.saturating_sub(traffic.frames()) as u64,
            ..Check::default()
        };
        for (report, prefix) in &self.runs {
            let c = oracle::check(report, &oracle.expected(*prefix));
            total.attempted += c.attempted;
            total.failed += c.failed;
        }
        total
    }
}

/// Runs the benchmark, writing its human-readable lines to `out`, and
/// returns the result (printed by the caller as the last line).
///
/// # Errors
///
/// Returns an explanation when the run is invalid: the open-loop
/// generator could not hold its schedule.
pub fn run(opts: &Options, commit: &str, out: &mut dyn Write) -> Result<RunResult, String> {
    let setup = setup(opts.workload, opts.seed, &opts.scale);
    let model = &opts.scale.model;
    let _ = writeln!(
        out,
        "# stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"kernel_backend\": \"{}\", \"ingest_mode\": \"{}\", \"shards\": {}, \
         \"model\": \"{}\", \"vocabulary\": {}, \"commit\": \"{}\"}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        setup.kernel_backend,
        setup.ingest_mode,
        setup.shards,
        model
            .hidden
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join("x"),
        setup.vocabulary,
        commit,
    );
    let _ = writeln!(
        out,
        "setup: median {:.3} s of {} (capture {:.3} s, train {:.3} s); {} events, {} frames",
        setup.setup_s,
        opts.scale.setup_repeats,
        setup.capture_s,
        setup.train_s,
        setup.traffic.events.len(),
        setup.traffic.frames(),
    );
    if opts.trace {
        layers::traced(opts, &setup, out)
    } else {
        untraced(opts, &setup, out)
    }
}

/// Runs `rate` open loop for `seconds`, retrying (up to three times in
/// all) while the generator cannot hold its schedule.
fn fixed_rate(
    setup: &Setup,
    rate: f64,
    seconds: f64,
    checks: &mut Checks,
    out: &mut dyn Write,
) -> Result<drive::PacedRun, String> {
    for attempt in 1..=3 {
        let run = drive::paced(
            &setup.detector,
            &setup.traffic,
            rate,
            seconds,
            &mut Tracer::off(),
        );
        checks.push(run.report.clone(), run.events);
        if run.on_schedule() {
            return Ok(run);
        }
        let _ = writeln!(
            out,
            "paced {rate:.0}/s: generator mean lateness {:.3} ms (attempt {attempt}), not a \
             latency measurement",
            drive::mean(&run.lateness_ms)
        );
    }
    Err(format!(
        "generator fell behind its {rate:.0}/s schedule three times (mean lateness over {} \
         ms): run invalid, no latency reported",
        drive::LATENESS_LIMIT_MS
    ))
}

fn untraced(opts: &Options, setup: &Setup, out: &mut dyn Write) -> Result<RunResult, String> {
    let detector = &setup.detector;
    let traffic = &setup.traffic;
    let scale = &opts.scale;
    let mut checks = Checks::default();
    let start = Instant::now();

    // One closed-loop pass over the whole workload: the decisions every
    // quality figure comes from, and the search's starting bracket.
    let first = drive::closed_loop(detector, traffic, &mut Tracer::off());
    let closed_rate = first.report.frames() as f64 / first.wall_s;
    let quality = first.report.clone();
    checks.push(first.report, traffic.events.len());

    // Rounds, interleaved so a slow spell of the host lands in every
    // statistic alike: a closed-loop pass (closed-loop workloads), then
    // the workload's fixed open-loop rates.
    let fixed = scale.fixed_rates(opts.workload);
    let phase_s = 0.04 * opts.seconds / fixed.len() as f64;
    let mut rates = vec![closed_rate];
    let (mut paced_frames, mut paced_wall) = (0u64, 0.0);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut samples = 0;
    for round in 0..scale.rounds {
        if !opts.workload.is_open_loop() && round > 0 {
            let run = drive::closed_loop(detector, traffic, &mut Tracer::off());
            rates.push(run.report.frames() as f64 / run.wall_s);
            checks.push(run.report, traffic.events.len());
        }
        let mut latencies: Vec<f64> = Vec::new();
        for &rate in fixed {
            let run = fixed_rate(setup, rate, phase_s, &mut checks, out)?;
            let s = &run.latencies.samples_ms;
            let _ = writeln!(
                out,
                "round {round}: paced {rate:.0}/s, {} samples, p50 {:.4} ms, p99 {:.4} ms, \
                 generator lateness mean {:.4} ms p99 {:.4} ms, backlog at end {}",
                s.len(),
                percentile(s, 0.5),
                percentile(s, 0.99),
                drive::mean(&run.lateness_ms),
                percentile(&run.lateness_ms, 0.99),
                run.backlog_end,
            );
            latencies.extend(s);
            paced_frames += run.report.frames();
            paced_wall += run.wall_s;
        }
        samples += latencies.len();
        p50s.push(percentile(&latencies, 0.5));
        p99s.push(percentile(&latencies, 0.99));
    }
    // Closed loop: the median pass. Open loop: frames decided per second
    // of schedule (up to the last decision) — the offered rate, less
    // whatever the engine could not keep up with.
    let pkg_per_s = if opts.workload.is_open_loop() {
        paced_frames as f64 / paced_wall
    } else {
        median(&rates)
    };
    let (p50, p99) = (median(&p50s), median(&p99s));

    // Then, until the run's time is up: the sustained-rate search.
    let deadline = start + std::time::Duration::from_secs_f64(opts.seconds);
    let search = drive::search(
        detector,
        traffic,
        closed_rate,
        0.03 * opts.seconds,
        scale.search_probes,
        deadline,
    );
    for (rate, ok, run) in search.probes {
        let _ = writeln!(
            out,
            "probe {rate:.0}/s: {} ticks, p99 {:.4} ms, generator p99 lateness {:.4} ms, \
             backlog at end {}, sustained {ok}",
            run.latencies.samples_ms.len(),
            percentile(&run.latencies.samples_ms, 0.99),
            percentile(&run.lateness_ms, 0.99),
            run.backlog_end,
        );
        checks.push(run.report, run.events);
    }
    let measured_s = start.elapsed().as_secs_f64();

    // The oracle, over every event any pass was fed.
    let mut oracle = Oracle::run(
        detector,
        &traffic.events,
        checks.longest(),
        &mut Tracer::off(),
    );
    if opts.inject_mismatch {
        oracle.flip_decision(0);
    }
    let check = checks.against(&oracle, traffic);

    let confusion = &quality.total.confusion;
    let _ = writeln!(
        out,
        "closed loop: pkg/s {} over {} frames; pkg_per_s {pkg_per_s:.0} ({})",
        list(&rates, 0),
        traffic.frames(),
        if opts.workload.is_open_loop() {
            "decided per second of the paced schedule"
        } else {
            "median closed-loop pass"
        }
    );
    let _ = writeln!(
        out,
        "latency at {}/s: {samples} samples in {} rounds (at least 1000 a round: {}), round \
         p50s {} ms, round p99s {} ms; engine-wide progress counter, approximate with {} shards",
        list(fixed, 0),
        scale.rounds,
        samples / scale.rounds.max(1) >= 1000,
        list(&p50s, 4),
        list(&p99s, 4),
        setup.shards,
    );
    // Printed, not gated (see `report::END_TO_END`).
    let fail_frac = check.failed as f64 / check.attempted.max(1) as f64;
    let quarantine_frac =
        quality.quarantined as f64 / (quality.frames() + quality.quarantined).max(1) as f64;
    for (name, value, unit) in [
        ("decide_p99_ms", p99, "ms"),
        ("sustained_pkg_per_s", search.sustained, "1/s"),
        ("recall", confusion.recall(), "ratio"),
        ("precision", confusion.precision(), "ratio"),
        ("peak_lanes", quality.peak_resident_lanes() as f64, "count"),
        ("quarantine_frac", quarantine_frac, "ratio"),
        ("fail_frac", fail_frac, "ratio"),
    ] {
        let _ = writeln!(out, "{name} = {value} {unit}");
    }
    let _ = writeln!(
        out,
        "sustained_pkg_per_s: highest paced rate with p99 <= {} ms and no backlog growth; \
         oracle: {} frames offered over {} engine passes, {} failed; measured for \
         {measured_s:.2} s",
        drive::LATENCY_LIMIT_MS,
        check.attempted,
        checks.runs.len(),
        check.failed,
    );

    let metrics = vec![
        ("setup_s", setup.setup_s),
        ("pkg_per_s", pkg_per_s),
        ("decide_p50_ms", p50),
        (
            "alarm_frac",
            quality.alarms() as f64 / quality.frames().max(1) as f64,
        ),
        ("peak_rss_mb", report::peak_rss_mb().unwrap_or(0.0)),
    ];
    Ok(RunResult {
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics: report::in_catalogue_order(report::END_TO_END, metrics),
    })
}

fn list(values: &[f64], digits: usize) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    format!("[{}]", parts.join(", "))
}
