//! Drives the engine: closed-loop replay, open-loop paced ticks with
//! due→decision latency tracking, and the sustained-rate search.
//!
//! Latency is taken from the engine's own progress counter: a tick's
//! frames count as decided once [`Engine::frames_processed`] covers the
//! engine-wide ingest count right after the tick was sent. That counter is
//! engine-wide, so with more than one shard a tick may be credited when
//! another shard's frames fill the count: the figure is an approximation
//! of per-frame decision latency, exact only for a single shard.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icsad_core::CombinedDetector;
use icsad_engine::{Engine, EngineConfig, EngineReport, IngestMode, RawFrame};
use icsad_wire::WireReplay;

use crate::trace::Tracer;
use crate::traffic::{Event, Labeler, Traffic};

/// Frames per closed-loop ingest call.
pub const CLOSED_LOOP_BATCH: usize = 128;
/// Open-loop tick period.
pub const TICK: Duration = Duration::from_micros(500);
/// The decision-latency limit a sustained rate must meet at p99: one
/// tenth of the simulator's 100 ms intra-cycle gap.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// A pass whose generator ran later than this on average fell behind its
/// schedule (two ticks). Single stalls of the host delay every thread for
/// a few ms; those are charged to latency, which is timed from each
/// tick's due time, and barely move the mean. Time the generator spends
/// blocked by engine backpressure is not lateness: the engine is then the
/// bottleneck, and latency shows it.
pub const LATENESS_LIMIT_MS: f64 = 1.0;

/// The engine configuration every workload runs: two shards (at most one
/// per core) on the work-stealing pool, everything else at the engine's
/// defaults.
pub fn engine_config() -> EngineConfig {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = cores.clamp(1, 2);
    EngineConfig {
        num_shards: shards,
        ingest: IngestMode::Async { workers: shards },
        ..EngineConfig::default()
    }
}

/// Starts an engine on the reference detector.
pub fn start(detector: &Arc<CombinedDetector>) -> Engine {
    Engine::start(Arc::clone(detector), engine_config())
}

/// Feeds `events` to the engine in order.
pub fn feed(engine: &mut Engine, events: &[Event]) {
    let mut run_start = 0;
    for (i, event) in events.iter().enumerate() {
        if let Event::LinkDown(link) = event {
            engine.ingest_batch(frames(&events[run_start..i]));
            engine.retire_link(*link);
            run_start = i + 1;
        }
    }
    engine.ingest_batch(frames(&events[run_start..]));
}

fn frames(events: &[Event]) -> impl Iterator<Item = RawFrame> + '_ {
    events.iter().filter_map(|e| e.frame().cloned())
}

/// Pending latency samples: the due time of each tick and the engine-wide
/// ingest count that must be processed for it to count as decided.
#[derive(Default)]
pub struct Latencies {
    pending: VecDeque<(Instant, u64)>,
    /// Resolved samples, milliseconds.
    pub samples_ms: Vec<f64>,
}

impl Latencies {
    /// Registers a tick due at `at` that is decided once the engine has
    /// processed `cover` frames.
    pub fn sent(&mut self, at: Instant, cover: u64) {
        if self.pending.back().is_none_or(|&(_, c)| c < cover) {
            self.pending.push_back((at, cover));
        }
    }

    /// Resolves every tick the engine's progress now covers.
    pub fn poll(&mut self, engine: &Engine) {
        let processed = engine.frames_processed();
        self.resolve(processed, Instant::now());
    }

    fn resolve(&mut self, processed: u64, now: Instant) {
        while let Some(&(at, cover)) = self.pending.front() {
            if cover > processed {
                break;
            }
            self.samples_ms
                .push(now.saturating_duration_since(at).as_secs_f64() * 1e3);
            self.pending.pop_front();
        }
    }

    /// Resolves everything still pending at `now` (the engine finished).
    pub fn finish(&mut self, now: Instant) {
        self.resolve(u64::MAX, now);
    }
}

/// One closed-loop pass over a workload.
pub struct ClosedRun {
    /// The engine's final report.
    pub report: EngineReport,
    /// Wall seconds from the first frame to `finish` returning.
    pub wall_s: f64,
}

/// Replays the workload at full speed into a fresh engine and finishes
/// it. Capture-fed workloads are decoded live through [`WireReplay`];
/// event streams are fed directly. The engine is started before the
/// clock starts. Each ingest call is an `engine.ingest` span.
pub fn closed_loop(
    detector: &Arc<CombinedDetector>,
    traffic: &Traffic,
    tracer: &mut Tracer,
) -> ClosedRun {
    let mut engine = start(detector);
    let t0 = Instant::now();
    match &traffic.capture {
        Some(capture) => {
            let mut labeler = Labeler::new(&traffic.labels);
            let mut chunk: Vec<RawFrame> = Vec::with_capacity(CLOSED_LOOP_BATCH);
            let mut push = |engine: &mut Engine, chunk: &mut Vec<RawFrame>| {
                let n = chunk.len() as u64;
                tracer.span("engine.ingest", n, || engine.ingest_batch(chunk.drain(..)));
            };
            WireReplay::new()
                .replay(capture, |mut frame| {
                    labeler.label(&mut frame);
                    chunk.push(frame);
                    if chunk.len() == CLOSED_LOOP_BATCH {
                        push(&mut engine, &mut chunk);
                    }
                })
                .expect("benchmark capture must parse");
            push(&mut engine, &mut chunk);
        }
        None => {
            for batch in traffic.events.chunks(CLOSED_LOOP_BATCH) {
                tracer.span("engine.ingest", batch.len() as u64, || {
                    feed(&mut engine, batch)
                });
            }
        }
    }
    let report = engine.finish();
    ClosedRun {
        report,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// One open-loop paced pass.
pub struct PacedRun {
    /// The engine's final report.
    pub report: EngineReport,
    /// Events fed (a prefix of the workload's events).
    pub events: usize,
    /// Per-tick due→decision latencies.
    pub latencies: Latencies,
    /// Per-tick generator lateness, ms: send start minus the later of the
    /// due time and the end of the previous tick's ingest.
    pub lateness_ms: Vec<f64>,
    /// Frames ingested but not yet decided when the schedule ended.
    pub backlog_end: u64,
    /// Wall seconds from the first due time until every frame was decided.
    pub wall_s: f64,
}

impl PacedRun {
    /// Whether the generator held its schedule (mean lateness within
    /// [`LATENESS_LIMIT_MS`]).
    pub fn on_schedule(&self) -> bool {
        mean(&self.lateness_ms) <= LATENESS_LIMIT_MS
    }

    /// Whether the engine sustained the rate: p99 latency, timed from
    /// each tick's due time (so a generator held up by the engine is
    /// charged to it), met [`LATENCY_LIMIT_MS`], and the backlog left when
    /// the schedule ended could be decided within the limit.
    pub fn sustained(&self, rate: f64) -> bool {
        percentile(&self.latencies.samples_ms, 0.99) <= LATENCY_LIMIT_MS
            && (self.backlog_end as f64) <= rate * LATENCY_LIMIT_MS / 1e3
    }
}

/// Sends the workload's events open loop at `rate` frames per second for
/// `seconds`, in ticks of [`TICK`], flushing ingest after every tick, into
/// a fresh engine; then waits for the backlog to drain and finishes.
/// Each tick's ingest and flush is an `engine.ingest` span.
pub fn paced(
    detector: &Arc<CombinedDetector>,
    traffic: &Traffic,
    rate: f64,
    seconds: f64,
    tracer: &mut Tracer,
) -> PacedRun {
    let events = &traffic.events;
    let mut engine = start(detector);
    let mut latencies = Latencies::default();
    let mut lateness_ms = Vec::new();
    let ticks = (seconds / TICK.as_secs_f64()).ceil() as u64;
    let per_tick = rate * TICK.as_secs_f64();
    let mut sent = 0usize;
    let t0 = Instant::now() + TICK;
    let mut fed = t0;
    for tick in 0..ticks {
        let due = t0 + TICK * tick as u32;
        let target = (((tick + 1) as f64 * per_tick) as usize).min(events.len());
        loop {
            latencies.poll(&engine);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_micros(20)));
        }
        // The generator's own delay: time spent blocked in the previous
        // tick's ingest (engine backpressure) is the engine's, and is
        // charged to latency instead.
        lateness_ms.push(fed.max(due).elapsed().as_secs_f64() * 1e3);
        if target > sent {
            tracer.span("engine.ingest", (target - sent) as u64, || {
                feed(&mut engine, &events[sent..target]);
                engine.flush_ingest();
            });
            fed = Instant::now();
            sent = target;
            latencies.sent(due, engine.ingested());
        }
        if sent == events.len() {
            break;
        }
    }
    let backlog_end = engine.ingested() - engine.frames_processed();
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.frames_processed() < engine.ingested() && Instant::now() < deadline {
        latencies.poll(&engine);
        std::thread::sleep(Duration::from_micros(20));
    }
    latencies.poll(&engine);
    let report = engine.finish();
    let done = Instant::now();
    latencies.finish(done);
    PacedRun {
        report,
        events: sent,
        latencies,
        lateness_ms,
        backlog_end,
        wall_s: done.duration_since(t0).as_secs_f64(),
    }
}

/// Result of a sustained-rate search.
pub struct Search {
    /// Highest rate found sustained, frames per second.
    pub sustained: f64,
    /// Every probe: `(rate, sustained?, run)`; the runs are kept for the
    /// oracle check.
    pub probes: Vec<(f64, bool, PacedRun)>,
}

/// Finds the highest paced rate the engine sustains, to within 5%, in at
/// most `max_probes` probes of `probe_s` seconds, starting no probe after
/// `deadline` (except the first).
///
/// The search brackets the closed-loop rate (`0.5×` to `1.25×`), halving
/// the low end while it fails, then bisects geometrically. A failed probe
/// is repeated once and counts as failed only if it fails again, so one
/// scheduling hiccup of the host does not end the search early.
pub fn search(
    detector: &Arc<CombinedDetector>,
    traffic: &Traffic,
    closed_rate: f64,
    probe_s: f64,
    max_probes: usize,
    deadline: Instant,
) -> Search {
    let mut probes: Vec<(f64, bool, PacedRun)> = Vec::new();
    let out_of_time = |probes: &Vec<(f64, bool, PacedRun)>| {
        probes.len() == max_probes || Instant::now() >= deadline
    };
    let probe = |rate: f64, probes: &mut Vec<(f64, bool, PacedRun)>| {
        for _ in 0..2 {
            if !probes.is_empty() && out_of_time(probes) {
                break;
            }
            let run = paced(detector, traffic, rate, probe_s, &mut Tracer::off());
            let ok = run.sustained(rate);
            probes.push((rate, ok, run));
            if ok {
                return true;
            }
        }
        false
    };
    let (mut lo, mut hi) = (0.5 * closed_rate, 1.25 * closed_rate);
    let mut halvings = 0;
    while !probe(lo, &mut probes) {
        if halvings == 3 || out_of_time(&probes) {
            return Search {
                sustained: lo / 2.0,
                probes,
            };
        }
        hi = lo;
        lo /= 2.0;
        halvings += 1;
    }
    while hi / lo > 1.05 && !out_of_time(&probes) {
        let mid = (lo * hi).sqrt();
        if probe(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Search {
        sustained: lo,
        probes,
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The mean of samples; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
