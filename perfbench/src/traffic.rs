//! Workload inputs, generated from the run's seed.
//!
//! Every capture is drawn from the commissioning traffic family
//! ([`crate::model::commissioning_traffic`]): the same unit id, CRC-error
//! rate and polling gaps the model was trained on, one PLC per TCP
//! connection. Modbus-TCP carries no RTU checksum, so the wire layer
//! re-encapsulates each frame with a fresh CRC: line-noise CRC errors of
//! the simulator do not survive the capture, exactly as on a real
//! Modbus-TCP tap.

use icsad_engine::RawFrame;
use icsad_simulator::scenario::{ScenarioBuilder, ScenarioEvent, Stage};
use icsad_simulator::{AttackType, TrafficConfig, TrafficGenerator};
use icsad_wire::fixture::CaptureBuilder;
use icsad_wire::WireReplay;

use crate::model::commissioning_traffic;

/// Attack episode probability of the PLC fleets (per idle cycle boundary).
pub const FLEET_ATTACK_PROBABILITY: f64 = 0.05;

/// One input event, in the order the engine receives it.
#[derive(Debug, Clone)]
pub enum Event {
    /// A frame for [`icsad_engine::Engine::ingest`], label attached.
    Frame(RawFrame),
    /// A link left the topology ([`icsad_engine::Engine::retire_link`]).
    LinkDown(u32),
}

impl Event {
    /// The frame, if this event carries one.
    pub fn frame(&self) -> Option<&RawFrame> {
        match self {
            Event::Frame(f) => Some(f),
            Event::LinkDown(_) => None,
        }
    }
}

/// A workload's input: the event stream and, for wire-fed workloads, the
/// pcap image it decodes from.
pub struct Traffic {
    /// Events in engine order. For a capture, these are the frames
    /// [`WireReplay`] decodes from it, with ground-truth labels attached.
    pub events: Vec<Event>,
    /// The Modbus-TCP pcap image, when the workload is fed from a capture.
    pub capture: Option<Vec<u8>>,
    /// Ground-truth label of each decoded frame, by link id then by the
    /// frame's position on that link (captures carry no labels).
    pub labels: Vec<Vec<Option<AttackType>>>,
    /// Frames the capture was built from (a decode that emits fewer has
    /// lost frames).
    pub sent_frames: usize,
}

impl Traffic {
    /// Frames among the events (well-formed or not).
    pub fn frames(&self) -> usize {
        self.events.iter().filter(|e| e.frame().is_some()).count()
    }
}

/// Attaches ground-truth labels to decoded frames: the `i`-th frame
/// decoded on link `l` is the `i`-th frame written to that link.
pub struct Labeler<'a> {
    labels: &'a [Vec<Option<AttackType>>],
    seen: Vec<usize>,
}

impl<'a> Labeler<'a> {
    /// A labeler over per-link label lists.
    pub fn new(labels: &'a [Vec<Option<AttackType>>]) -> Self {
        Labeler {
            labels,
            seen: vec![0; labels.len()],
        }
    }

    /// Sets `frame.label` from its link's label list.
    pub fn label(&mut self, frame: &mut RawFrame) {
        let link = frame.link as usize;
        if let Some(seen) = self.seen.get_mut(link) {
            frame.label = self.labels[link].get(*seen).copied().flatten();
            *seen += 1;
        }
    }
}

fn plc_config(seed: u64, plc: usize, attack_probability: f64) -> TrafficConfig {
    TrafficConfig {
        seed: seed.wrapping_mul(1_000_003).wrapping_add(plc as u64),
        attack_probability,
        ..commissioning_traffic()
    }
}

/// Builds a Modbus-TCP capture of `plcs` PLCs, each polled over its own
/// connection, `per_plc` packets each, merged in capture-time order, then
/// decodes it once to produce the labelled event stream.
///
/// # Panics
///
/// Panics if the capture the builder wrote cannot be parsed back.
pub fn plc_fleet(plcs: usize, per_plc: usize, seed: u64) -> Traffic {
    let mut packets: Vec<(f64, usize, icsad_simulator::Packet)> = Vec::new();
    for plc in 0..plcs {
        let mut generator = TrafficGenerator::new(plc_config(seed, plc, FLEET_ATTACK_PROBABILITY));
        packets.extend(
            generator
                .generate(per_plc)
                .into_iter()
                .map(|p| (p.time, plc, p)),
        );
    }
    // Capture-time order, ties by connection: what one tap on the master's
    // uplink records. The sort is stable, so each PLC keeps its own order.
    packets.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut builder = CaptureBuilder::new();
    // WireReplay numbers links in first-seen order.
    let mut link_of_conn = vec![usize::MAX; plcs];
    let mut labels: Vec<Vec<Option<AttackType>>> = Vec::new();
    for (time, conn, p) in &packets {
        if link_of_conn[*conn] == usize::MAX {
            link_of_conn[*conn] = labels.len();
            labels.push(Vec::new());
        }
        labels[link_of_conn[*conn]].push(p.label);
        builder.modbus_on(*conn as u16, *time, &p.wire, p.is_command);
    }
    let capture = builder.finish();
    let events = decode(&capture, &labels);
    Traffic {
        events,
        capture: Some(capture),
        labels,
        sent_frames: packets.len(),
    }
}

/// Decodes a capture into labelled frame events.
///
/// # Panics
///
/// Panics if the pcap container is malformed.
pub fn decode(capture: &[u8], labels: &[Vec<Option<AttackType>>]) -> Vec<Event> {
    let mut labeler = Labeler::new(labels);
    let mut events = Vec::new();
    WireReplay::new()
        .replay(capture, |mut frame| {
            labeler.label(&mut frame);
            events.push(Event::Frame(frame));
        })
        .expect("benchmark capture must parse");
    events
}

/// Sizes of the hostile mix.
#[derive(Debug, Clone, PartialEq)]
pub struct HostileScale {
    /// Polling cycles of the attack campaign's quiet stage (the other
    /// stages scale with it).
    pub campaign_cycles: usize,
    /// Exception-flood frames (one hot stream).
    pub flood: usize,
    /// Garbage-storm frames (three in four are runts).
    pub garbage: usize,
    /// Reconnect-churn rounds × links.
    pub churn: (usize, usize),
    /// Base cycles of the four-link skewed fleet.
    pub fleet_cycles: usize,
}

/// The hostile mix: an attack campaign, an exception flood on one hot
/// stream, a garbage storm, reconnect churn and a rate-skewed fleet,
/// merged into one timeline by [`ScenarioBuilder`].
pub fn hostile_mix(scale: &HostileScale, seed: u64) -> Traffic {
    let cycles = scale.campaign_cycles;
    let mut builder = ScenarioBuilder::new();
    builder
        .campaign(
            0,
            0.0,
            plc_config(seed, 0, 0.0),
            &[
                Stage::Quiet { cycles },
                Stage::Recon { cycles: cycles / 4 },
                Stage::Drift {
                    cycles: cycles / 2,
                    step: 0.25,
                },
                Stage::Strike {
                    attack: AttackType::Dos,
                    cycles: cycles / 4,
                },
            ],
        )
        .exception_flood(
            1,
            commissioning_traffic().slave_address,
            1.0,
            scale.flood,
            1.0e-3,
        )
        .garbage_storm(2, seed ^ 0x9E37_79B9, 2.0, scale.garbage, 2.0e-3)
        .skewed_fleet(&[3, 4, 5, 6], plc_config(seed, 3, 0.0), scale.fleet_cycles);
    let (rounds, links) = scale.churn;
    for round in 0..rounds {
        for l in 0..links {
            let link = 10 + l as u32;
            let start = (round * links + l) as f64 * 2.0;
            builder
                .campaign(
                    link,
                    start,
                    plc_config(seed, 100 + round * links + l, 0.0),
                    &[Stage::Quiet { cycles: 3 }],
                )
                .link_down(link, start + 1.9);
        }
    }
    let events: Vec<Event> = builder
        .build()
        .into_iter()
        .map(|e| match e {
            ScenarioEvent::Frame {
                time,
                link,
                wire,
                is_command,
                label,
            } => Event::Frame(RawFrame {
                time,
                wire: wire.into(),
                is_command,
                label,
                link,
            }),
            ScenarioEvent::LinkDown { link, .. } => Event::LinkDown(link),
        })
        .collect();
    let sent_frames = events.iter().filter(|e| e.frame().is_some()).count();
    Traffic {
        events,
        capture: None,
        labels: Vec::new(),
        sent_frames,
    }
}

/// Renders an event stream as a Modbus-TCP capture, one connection per
/// link (a link-down closes it), so the wire layer can be timed on any
/// workload. Frames too short to be RTU ADUs cannot be framed as MBAP and
/// are left out.
pub fn render_capture(events: &[Event]) -> Vec<u8> {
    let mut builder = CaptureBuilder::new();
    let mut open = std::collections::HashSet::new();
    let mut last_time = 0.0;
    for event in events {
        match event {
            Event::Frame(f) if f.wire.len() >= icsad_engine::MIN_FRAME_LEN => {
                builder.modbus_on(f.link as u16, f.time, &f.wire, f.is_command);
                open.insert(f.link);
                last_time = f.time;
            }
            Event::Frame(_) => {}
            Event::LinkDown(link) => {
                if open.remove(link) {
                    builder.close(*link as u16, last_time);
                }
            }
        }
    }
    builder.finish()
}
