//! The traced run: the workload replayed stage by stage through each
//! layer's public functions, with a span around every call.
//!
//! The run first drives the engine twice over the workload — once
//! untraced (its wall time is the attribution base) and once with a span
//! around each ingest call and the counting allocator on. It then feeds
//! the same frames through each layer on its own:
//!
//! | stage | calls (span name) |
//! |---|---|
//! | wire | `WireReplay::replay` (`wire.replay`) |
//! | extraction | `StreamExtractor::push`, 64 per span (`extract.push`) |
//! | package level | `Discretizer::discretize`, `write_signature` (the string key), `PackageLevelDetector::key_is_anomalous`, 64 per span |
//! | per-record oracle | `CombinedDetector::classify` (`combined.classify`) |
//! | batched framework | `CombinedDetector::classify_batch` at the engine's mean round width (`combined.classify_batch`), `reset_lane` |
//! | LSTM | `LstmClassifier::step_logits` (`lstm.step`) and gather + `forward_batch_gathered_logits` + scatter (`lstm.forward_batch`): the logits variants the detection path runs |
//! | engine | one frame through `ingest`, `flush_ingest` and `frames_processed` on an idle engine (`engine.roundtrip`) |
//!
//! Per-record calls that take well under a microsecond are traced 64 to a
//! span, so clock reads do not dominate what they measure.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icsad_core::combined::DetectionLevel;
use icsad_core::CombinedDetector;
use icsad_dataset::extract::StreamExtractor;
use icsad_dataset::Record;
use icsad_engine::{EngineReport, RawFrame};
use icsad_features::encoding::OneHotEncoder;
use icsad_features::{write_signature, DiscreteVector};
use icsad_wire::WireReplay;

use crate::drive::{self, median};
use crate::oracle::Oracle;
use crate::report::{self, RunResult};
use crate::trace::{SpanStat, Tracer};
use crate::traffic::{render_capture, Event};
use crate::{alloc, Checks, Options, Setup, Workload};

/// Records per span for the sub-microsecond per-record calls.
const CHUNK: usize = 64;

/// The well-formed frames of `events`, split into stream activations:
/// one list per `(link, unit)` stream from its first frame until a
/// link-down retires it.
fn activations(events: &[Event]) -> Vec<Vec<&RawFrame>> {
    let mut current: HashMap<(u32, u8), usize> = HashMap::new();
    let mut streams: Vec<Vec<&RawFrame>> = Vec::new();
    for event in events {
        match event {
            Event::LinkDown(link) => current.retain(|key, _| key.0 != *link),
            Event::Frame(frame) => {
                if let Some(key) = frame.stream_key().filter(|_| frame.is_well_formed()) {
                    let id = *current.entry(key).or_insert_with(|| {
                        streams.push(Vec::new());
                        streams.len() - 1
                    });
                    streams[id].push(frame);
                }
            }
        }
    }
    streams
}

/// Runs `f` until `budget` has passed (at least once).
fn repeat_for(budget: Duration, mut f: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        f();
        if t0.elapsed() >= budget {
            break;
        }
    }
}

/// Engine passes of the traced run: the untraced pass and the traced one.
struct EnginePasses {
    prefix: usize,
    untraced_wall_s: f64,
    untraced: EngineReport,
    traced: EngineReport,
    allocations: u64,
}

fn engine_passes(opts: &Options, setup: &Setup, tracer: &mut Tracer) -> EnginePasses {
    let detector = &setup.detector;
    let traffic = &setup.traffic;
    match opts.workload {
        Workload::FleetReplay | Workload::HostileMix => {
            let untraced = drive::closed_loop(detector, traffic, &mut Tracer::off());
            alloc::start();
            let traced = drive::closed_loop(detector, traffic, tracer);
            let allocations = alloc::stop();
            EnginePasses {
                prefix: traffic.events.len(),
                untraced_wall_s: untraced.wall_s,
                untraced: untraced.report,
                traced: traced.report,
                allocations,
            }
        }
        Workload::PacedTrickle => {
            // The middle fixed rate: rounds are as narrow as the workload
            // makes them.
            let rates = opts.scale.fixed_rates(Workload::PacedTrickle);
            let rate = rates[rates.len() / 2];
            let phase_s = 0.2 * opts.seconds;
            let untraced = drive::paced(detector, traffic, rate, phase_s, &mut Tracer::off());
            alloc::start();
            let traced = drive::paced(detector, traffic, rate, phase_s, tracer);
            let allocations = alloc::stop();
            EnginePasses {
                prefix: untraced.events.min(traced.events),
                untraced_wall_s: untraced.wall_s,
                untraced: untraced.report,
                traced: traced.report,
                allocations,
            }
        }
    }
}

/// Floating-point operations of one lane-step of the LSTM stack and its
/// dense head, counted as dense products from the model shape (the
/// one-hot stack input makes the first layer's input product cheaper in
/// practice).
fn flops_per_lane_step(detector: &CombinedDetector) -> f64 {
    let config = detector.time_series_level().model().config();
    let mut input = config.input_dim;
    let mut flops = 0.0;
    for &h in &config.hidden_dims {
        flops += 2.0 * 4.0 * h as f64 * (input + h) as f64;
        input = h;
    }
    flops + 2.0 * config.num_classes as f64 * input as f64
}

/// The traced run (see the module docs).
///
/// # Errors
///
/// Never fails today; the signature matches the untraced run's.
pub fn traced(opts: &Options, setup: &Setup, out: &mut dyn Write) -> Result<RunResult, String> {
    let detector = &setup.detector;
    let traffic = &setup.traffic;
    let budget = Duration::from_secs_f64(0.05 * opts.seconds);
    let mut tracer = Tracer::new();

    // Engine, end to end.
    let passes = engine_passes(opts, setup, &mut tracer);
    let events = &traffic.events[..passes.prefix];
    let report = &passes.traced;
    let flushes: u64 = report.shards.iter().map(|s| s.flushes).sum();
    let width = report.frames() as f64 / flushes.max(1) as f64;
    let widest = report
        .shards
        .iter()
        .map(|s| s.widest_round)
        .max()
        .unwrap_or(0);

    // Wire layer.
    let rendered;
    let capture: &[u8] = match &traffic.capture {
        Some(c) => c,
        None => {
            rendered = render_capture(events);
            &rendered
        }
    };
    let mut skipped_bytes = 0;
    repeat_for(budget, || {
        let open = tracer.enter("wire.replay");
        let mut frames = 0u64;
        let stats = WireReplay::new()
            .replay(capture, |_| frames += 1)
            .expect("benchmark capture must parse");
        tracer.exit(open, frames);
        skipped_bytes = stats.skipped_bytes;
    });

    // Extraction, per stream activation.
    let streams = activations(events);
    let crc_window = drive::engine_config().crc_window;
    let stage = tracer.enter("stage.extract");
    let records: Vec<Vec<Record>> = streams
        .iter()
        .map(|frames| {
            let mut extractor = StreamExtractor::new(crc_window);
            let mut records = Vec::with_capacity(frames.len());
            for chunk in frames.chunks(CHUNK) {
                tracer.span("extract.push", chunk.len() as u64, || {
                    for f in chunk {
                        records.push(extractor.push(f.time, &f.wire, f.is_command, f.label));
                    }
                });
            }
            records
        })
        .collect();
    tracer.exit(stage, 0);

    // Package level: discretize, signature key, Bloom probe.
    let package = detector.package_level();
    let discretizer = package.discretizer();
    let mut vectors: Vec<DiscreteVector> = Vec::new();
    let mut keys: Vec<String> = vec![String::new(); CHUNK];
    let mut inputs: Vec<DiscreteVector> = Vec::new();
    let mut normal = 0u64;
    let stage = tracer.enter("stage.package");
    for chunk in records.iter().flat_map(|r| r.chunks(CHUNK)) {
        let n = chunk.len() as u64;
        tracer.span("features.discretize", n, || {
            vectors.clear();
            vectors.extend(chunk.iter().map(|r| discretizer.discretize(r)));
        });
        tracer.span("features.signature", n, || {
            for (v, key) in vectors.iter().zip(keys.iter_mut()) {
                write_signature(v, key);
            }
        });
        normal += tracer.span("bloom.check", n, || {
            keys[..chunk.len()]
                .iter()
                .filter(|k| !package.key_is_anomalous(k))
                .count() as u64
        });
        if inputs.len() < 512 {
            inputs.extend_from_slice(&vectors);
        }
    }
    tracer.exit(stage, 0);

    // The per-record framework: the oracle, traced.
    let stage = tracer.enter("stage.oracle");
    let mut oracle = Oracle::run(detector, events, passes.prefix, &mut tracer);
    tracer.exit(stage, 0);
    if opts.inject_mismatch {
        oracle.flip_decision(0);
    }

    // The batched framework at the engine's mean round width.
    let lanes = width.round().max(1.0) as usize;
    let stage = tracer.enter("stage.batched");
    let batched_alarms = classify_rounds(detector, &records, lanes, &mut tracer);
    tracer.exit(stage, 0);

    // LSTM alone, one lane and the round width.
    let gflops_bw = lstm_stage(detector, &inputs, lanes, budget * 2, &mut tracer);

    // One frame through an idle engine.
    let roundtrip_us = idle_roundtrips(
        detector,
        streams.first().map_or(&[][..], |s| s),
        &mut tracer,
    );

    // Correctness: both engine passes and the batched stage against the
    // oracle.
    let mut checks = Checks::default();
    checks.push(passes.untraced.clone(), passes.prefix);
    checks.push(passes.traced.clone(), passes.prefix);
    let mut check = checks.against(&oracle, traffic);
    let expected_alarms = oracle.expected(passes.prefix).alarms;
    check.failed += batched_alarms.abs_diff(expected_alarms);

    let stats = tracer.summary();
    let stat = |name: &str| -> SpanStat {
        stats
            .iter()
            .copied()
            .find(|s| s.name == name)
            .unwrap_or_default()
    };
    let classify_us_b1 = median(
        &tracer
            .spans()
            .iter()
            .filter(|s| s.name == "combined.classify")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let frames_total: u64 = records.iter().map(|r| r.len() as u64).sum();
    let shard_ns = stat("extract.push").total_ns + stat("combined.classify_batch").total_ns;
    let attributed =
        shard_ns as f64 / 1e9 / (passes.untraced_wall_s * setup.shards as f64).max(1e-9);

    let _ = writeln!(out, "spans: {} recorded", tracer.spans().len());
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "span", "calls", "items", "total ms", "self ms", "ns/item"
    );
    for s in &stats {
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>10} {:>12.3} {:>12.3} {:>12.1}",
            s.name,
            s.calls,
            s.items,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.ns_per_item()
        );
    }
    let _ = writeln!(
        out,
        "attribution: extract + batched classify = {:.3} s of {:.3} s untraced wall x {} shards \
         ({:.1}%); the rest is decode, routing, queueing, scheduling and idle time",
        shard_ns as f64 / 1e9,
        passes.untraced_wall_s,
        setup.shards,
        100.0 * attributed
    );
    let _ = writeln!(
        out,
        "oracle: {} frames offered over 2 engine passes, {} failed; batched alarms {} vs \
         per-record {}",
        check.attempted, check.failed, batched_alarms, expected_alarms
    );

    let quarantined = report.quarantined as f64;
    let metrics = vec![
        (
            "wire.decode_ns_per_frame",
            stat("wire.replay").ns_per_item(),
        ),
        ("wire.skipped_bytes", skipped_bytes as f64),
        (
            "engine.ingest_ns_per_frame",
            stat("engine.ingest").ns_per_item(),
        ),
        (
            "engine.blocked_pushes",
            report.runtime.blocked_pushes as f64,
        ),
        ("engine.idle_roundtrip_us", roundtrip_us),
        ("engine.round_width_mean", width),
        ("engine.widest_round", widest as f64),
        ("engine.split_rounds", report.runtime.split_rounds as f64),
        ("engine.steals", report.runtime.steals as f64),
        (
            "engine.quarantine_frac",
            quarantined / (report.frames() as f64 + quarantined).max(1.0),
        ),
        ("engine.peak_lanes", report.peak_resident_lanes() as f64),
        ("extract.ns_per_record", stat("extract.push").ns_per_item()),
        (
            "features.discretize_ns",
            stat("features.discretize").ns_per_item(),
        ),
        (
            "features.signature_ns",
            stat("features.signature").ns_per_item(),
        ),
        ("bloom.check_ns", stat("bloom.check").ns_per_item()),
        (
            "bloom.normal_frac",
            normal as f64 / frames_total.max(1) as f64,
        ),
        ("lstm.ns_per_lane_b1", stat("lstm.step").ns_per_item()),
        (
            "lstm.ns_per_lane_bw",
            stat("lstm.forward_batch").ns_per_item(),
        ),
        ("lstm.gflops_bw", gflops_bw),
        (
            "combined.ns_per_pkg",
            stat("combined.classify_batch").ns_per_item(),
        ),
        ("combined.classify_us_b1", classify_us_b1),
        (
            "combined.pkg_level_alarms",
            oracle.package_level_alarms as f64,
        ),
        ("combined.ts_level_alarms", oracle.time_series_alarms as f64),
        (
            "combined.lane_reset_ns",
            stat("combined.reset_lane").ns_per_item(),
        ),
        (
            "alloc.per_frame",
            passes.allocations as f64 / report.frames().max(1) as f64,
        ),
        ("model_kb", detector.memory_bytes() as f64 / 1024.0),
        ("setup.train_s", setup.train_s),
        (
            "setup.targets_per_s",
            setup.targets as f64 / setup.train_s.max(1e-9),
        ),
        ("setup.capture_s", setup.capture_s),
        ("trace.untraced_wall_s", passes.untraced_wall_s),
        ("trace.attributed_frac", attributed),
    ];
    Ok(RunResult {
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics: report::in_catalogue_order(report::PER_LAYER, metrics),
    })
}

/// Steps every stream activation through `classify_batch` in rounds of up
/// to `width` lanes, as a shard would, and resets every lane afterwards.
/// Returns the alarms raised.
fn classify_rounds(
    detector: &CombinedDetector,
    records: &[Vec<Record>],
    width: usize,
    tracer: &mut Tracer,
) -> u64 {
    let mut batch = detector.begin_batch();
    for _ in records {
        detector.add_lane(&mut batch);
    }
    let mut next = vec![0usize; records.len()];
    let mut ready: VecDeque<usize> = (0..records.len())
        .filter(|&l| !records[l].is_empty())
        .collect();
    let mut lanes = Vec::with_capacity(width);
    let mut round: Vec<Record> = Vec::with_capacity(width);
    let mut decisions: Vec<DetectionLevel> = Vec::with_capacity(width);
    let mut alarms = 0u64;
    while !ready.is_empty() {
        lanes.clear();
        round.clear();
        decisions.clear();
        while lanes.len() < width {
            let Some(lane) = ready.pop_front() else { break };
            lanes.push(lane);
            round.push(records[lane][next[lane]].clone());
        }
        tracer.span("combined.classify_batch", lanes.len() as u64, || {
            detector.classify_batch(&mut batch, &lanes, &round, &mut decisions)
        });
        alarms += decisions.iter().filter(|d| d.is_anomalous()).count() as u64;
        for &lane in &lanes {
            next[lane] += 1;
            if next[lane] < records[lane].len() {
                ready.push_back(lane);
            }
        }
    }
    let resets = records.len().max(2_048);
    for chunk in (0..resets).collect::<Vec<_>>().chunks(CHUNK) {
        tracer.span("combined.reset_lane", chunk.len() as u64, || {
            for &i in chunk {
                detector.reset_lane(&mut batch, i % records.len().max(1));
            }
        });
    }
    alarms
}

/// Steps the LSTM alone: one lane with `step_logits`, then `lanes` lanes
/// through gather, `forward_batch_gathered_logits` and scatter, each for
/// `budget`, on the workload's own encoded packages. Returns the batched
/// step's GFLOP/s (see [`flops_per_lane_step`]).
fn lstm_stage(
    detector: &CombinedDetector,
    vectors: &[DiscreteVector],
    lanes: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> f64 {
    let ts = detector.time_series_level();
    let model = ts.model();
    let encoder = OneHotEncoder::new(ts.discretizer());
    let dim = model.config().input_dim;
    let classes = model.num_classes();
    let rows: Vec<f32> = if vectors.is_empty() {
        vec![0.0; dim]
    } else {
        let mut rows = vec![0.0f32; vectors.len() * dim];
        for (v, row) in vectors.iter().zip(rows.chunks_mut(dim)) {
            encoder.encode_into(v, false, row);
        }
        rows
    };
    let n_rows = rows.len() / dim;
    let row = |t: usize| &rows[(t % n_rows) * dim..(t % n_rows + 1) * dim];

    let mut state = model.new_state();
    let mut logits = vec![0.0f32; classes];
    let mut t = 0;
    repeat_for(budget, || {
        tracer.span("lstm.step", CHUNK as u64, || {
            for _ in 0..CHUNK {
                model.step_logits(&mut state, row(t), &mut logits);
                t += 1;
            }
        });
    });

    let mut states: Vec<_> = (0..lanes).map(|_| model.new_state()).collect();
    let mut scratch = model.batch_scratch();
    model.reserve_lanes(&mut scratch, lanes);
    let mut xs = vec![0.0f32; lanes * dim];
    let mut out = vec![0.0f32; lanes * classes];
    let mut lane_steps = 0u64;
    repeat_for(budget, || {
        for (i, x) in xs.chunks_mut(dim).enumerate() {
            x.copy_from_slice(row(t + i * 7));
        }
        t += 1;
        tracer.span("lstm.forward_batch", lanes as u64, || {
            for (i, s) in states.iter().enumerate() {
                model.gather_lane(&mut scratch, i, s);
            }
            model.forward_batch_gathered_logits(&mut scratch, lanes, &xs, &mut out);
            for (i, s) in states.iter_mut().enumerate() {
                model.scatter_lane(&scratch, i, s);
            }
        });
        lane_steps += lanes as u64;
    });
    let batched_ns = tracer.stat("lstm.forward_batch").total_ns.max(1);
    flops_per_lane_step(detector) * lane_steps as f64 / batched_ns as f64
}

/// Median µs for one frame to go through `ingest`, `flush_ingest` and
/// show up in `frames_processed` on an otherwise idle engine.
fn idle_roundtrips(
    detector: &Arc<CombinedDetector>,
    stream: &[&RawFrame],
    tracer: &mut Tracer,
) -> f64 {
    let mut engine = drive::start(detector);
    let mut trips = Vec::new();
    for (i, frame) in stream.iter().take(200).enumerate() {
        std::thread::sleep(Duration::from_millis(1));
        let t0 = Instant::now();
        tracer.span("engine.roundtrip", 1, || {
            engine.ingest((*frame).clone());
            engine.flush_ingest();
            while engine.frames_processed() < i as u64 + 1 {
                std::hint::spin_loop();
            }
        });
        trips.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(engine.finish());
    median(&trips)
}
