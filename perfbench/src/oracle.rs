//! The per-record oracle every engine run is checked against.
//!
//! It replays the same decoded events with one
//! [`StreamExtractor`] and one [`CombinedDetector::classify`] state per
//! `(link, unit)` stream — the engine's reference semantics without
//! shards, queues or batching. A link-down drops the link's streams, so a
//! stream that comes back starts cold, as the engine's retired lanes do.

use std::collections::HashMap;

use icsad_core::combined::{CombinedState, DetectionLevel};
use icsad_core::{ClassificationReport, CombinedDetector, ConfusionCounts};
use icsad_dataset::extract::StreamExtractor;
use icsad_engine::{EngineConfig, EngineReport};

use crate::trace::Tracer;
use crate::traffic::Event;

/// What the oracle decided for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A classified frame.
    Decided {
        /// The frame's label marks it as part of an attack.
        attack: bool,
        /// The oracle raised an alarm on it.
        alarm: bool,
    },
    /// A frame the engine must quarantine (too short, or no finite time).
    Quarantined,
    /// A link-down event.
    Control,
}

/// Per-event oracle decisions for a workload's event stream.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    outcomes: Vec<Outcome>,
    /// Alarms raised by the package level (Bloom misses).
    pub package_level_alarms: u64,
    /// Alarms raised by the time-series level (top-`k` misses).
    pub time_series_alarms: u64,
}

/// One thread's share of the oracle: outcomes by event index.
#[derive(Default)]
struct Partial {
    outcomes: Vec<(usize, Outcome)>,
    package_level_alarms: u64,
    time_series_alarms: u64,
}

/// Classifies the frames of the streams in partition `part` of `parts`
/// (partition 0 also records quarantined frames). Link-downs apply to
/// every partition.
fn partition(
    detector: &CombinedDetector,
    events: &[Event],
    part: usize,
    parts: usize,
    tracer: &mut Tracer,
) -> Partial {
    let crc_window = EngineConfig::default().crc_window;
    let mut streams: HashMap<(u32, u8), (StreamExtractor, CombinedState)> = HashMap::new();
    let mut partial = Partial::default();
    for (i, event) in events.iter().enumerate() {
        match event {
            Event::LinkDown(link) => streams.retain(|key, _| key.0 != *link),
            Event::Frame(frame) => match frame.stream_key() {
                Some(key) if frame.is_well_formed() => {
                    if (key.0 as usize * 31 + key.1 as usize) % parts != part {
                        continue;
                    }
                    let (extractor, state) = streams
                        .entry(key)
                        .or_insert_with(|| (StreamExtractor::new(crc_window), detector.begin()));
                    let record =
                        extractor.push(frame.time, &frame.wire, frame.is_command, frame.label);
                    let level =
                        tracer.span("combined.classify", 1, || detector.classify(state, &record));
                    match level {
                        DetectionLevel::PackageLevel => partial.package_level_alarms += 1,
                        DetectionLevel::TimeSeriesLevel => partial.time_series_alarms += 1,
                        DetectionLevel::Normal => {}
                    }
                    partial.outcomes.push((
                        i,
                        Outcome::Decided {
                            attack: frame.label.is_some(),
                            alarm: level.is_anomalous(),
                        },
                    ));
                }
                _ if part == 0 => partial.outcomes.push((i, Outcome::Quarantined)),
                _ => {}
            },
        }
    }
    partial
}

/// Counts the oracle expects from an engine fed a prefix of the events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expected {
    /// Confusion counts against the frames' labels.
    pub confusion: ConfusionCounts,
    /// Alarms raised.
    pub alarms: u64,
    /// Frames classified.
    pub frames: u64,
    /// Frames quarantined at ingest.
    pub quarantined: u64,
}

impl Oracle {
    /// Classifies `events[..limit]` record by record. Untraced, the
    /// streams are split over two threads (each stream stays on one, in
    /// order); traced, one thread runs everything and each classification
    /// is a `combined.classify` span.
    pub fn run(
        detector: &CombinedDetector,
        events: &[Event],
        limit: usize,
        tracer: &mut Tracer,
    ) -> Oracle {
        let events = &events[..limit.min(events.len())];
        let parts = if tracer.is_enabled() { 1 } else { 2 };
        let partials: Vec<Partial> = if parts == 1 {
            vec![partition(detector, events, 0, 1, tracer)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..parts)
                    .map(|part| {
                        scope.spawn(move || {
                            partition(detector, events, part, parts, &mut Tracer::off())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle thread panicked"))
                    .collect()
            })
        };
        let mut oracle = Oracle {
            outcomes: vec![Outcome::Control; events.len()],
            ..Oracle::default()
        };
        for partial in partials {
            oracle.package_level_alarms += partial.package_level_alarms;
            oracle.time_series_alarms += partial.time_series_alarms;
            for (i, outcome) in partial.outcomes {
                oracle.outcomes[i] = outcome;
            }
        }
        oracle
    }

    /// Flips the decision of the `n`-th classified frame. Only the
    /// benchmark's own test uses this, to prove a mismatch is caught.
    pub fn flip_decision(&mut self, n: usize) {
        let target = self
            .outcomes
            .iter_mut()
            .filter(|o| matches!(o, Outcome::Decided { .. }))
            .nth(n);
        if let Some(Outcome::Decided { alarm, .. }) = target {
            *alarm = !*alarm;
        }
    }

    /// Expected counts for an engine that was fed `events[..prefix]`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` exceeds the events the oracle covers.
    pub fn expected(&self, prefix: usize) -> Expected {
        let mut e = Expected::default();
        for outcome in &self.outcomes[..prefix] {
            match *outcome {
                Outcome::Decided { attack, alarm } => {
                    e.confusion.record(attack, alarm);
                    e.alarms += u64::from(alarm);
                    e.frames += 1;
                }
                Outcome::Quarantined => e.quarantined += 1,
                Outcome::Control => {}
            }
        }
        e
    }
}

/// How one engine run compared with the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Frames offered to the engine (classified plus quarantined).
    pub attempted: u64,
    /// Frames lost plus decisions that disagree with the oracle: a lower
    /// bound on the frames the engine got wrong (each lost frame or flipped
    /// decision moves at least one count by one).
    pub failed: u64,
}

/// Compares an engine report with the oracle's counts for the same prefix.
pub fn check(report: &EngineReport, expected: &Expected) -> Check {
    let got: &ClassificationReport = &report.total;
    let diff = |a: u64, b: u64| a.abs_diff(b);
    let lost = expected.frames.saturating_sub(report.frames())
        + expected.quarantined.abs_diff(report.quarantined);
    let mismatched = [
        diff(got.confusion.tp, expected.confusion.tp),
        diff(got.confusion.fp, expected.confusion.fp),
        diff(got.confusion.tn, expected.confusion.tn),
        diff(got.confusion.fn_, expected.confusion.fn_),
        diff(report.alarms(), expected.alarms),
        diff(report.frames(), expected.frames),
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    Check {
        attempted: expected.frames + expected.quarantined,
        failed: lost.max(mismatched),
    }
}
