//! Wire-layer replay probe: frames/s through the capture→MBAP decode path
//! and packages/s end-to-end into the detection engine.
//!
//! Synthesizes a multi-connection Modbus-TCP capture in memory (one TCP
//! connection per PLC, the traffic the simulator would put on a serial
//! line), then measures three stages:
//!
//! 1. **decode** — pcap walk + TCP demux + MBAP framing + RTU
//!    re-encapsulation, frames dropped on the floor (the wire layer
//!    alone);
//! 2. **decode+route** — the same replay feeding `Engine::ingest_batch`
//!    in chunks (frames cross the shard queues but the engine keeps up);
//! 3. **end-to-end** — replay, ingest, and `finish()`: packages fully
//!    classified, the number a deployment plans around.
//!
//! ```sh
//! cargo run --release -p icsad-bench --bin wire_replay
//! ```
//!
//! Environment: `ICSAD_WIRE_PLCS` (default `8`), `ICSAD_WIRE_PER_PLC`
//! (default `2000`), `ICSAD_HIDDEN` (default `64`), `ICSAD_WIRE_REPEATS`
//! (default `3`). The engine runs on its default host-sized work-stealing
//! pool.

use std::sync::Arc;
use std::time::Instant;

use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::CombinedDetector;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, RawFrame};
use icsad_simulator::{TrafficConfig, TrafficGenerator};
use icsad_wire::fixture::CaptureBuilder;
use icsad_wire::WireReplay;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn build_capture(plcs: usize, per_plc: usize) -> (Vec<u8>, usize) {
    let mut builder = CaptureBuilder::new();
    let mut frames = 0usize;
    // One generator per PLC, each on its own TCP connection; packets are
    // interleaved round-robin per index so connections stay concurrent in
    // the capture, as a real multi-PLC master's would be.
    let mut sessions: Vec<Vec<icsad_simulator::Packet>> = (0..plcs)
        .map(|i| {
            let mut generator = TrafficGenerator::new(TrafficConfig {
                seed: 7 + i as u64,
                slave_address: (i % 247) as u8 + 1,
                attack_probability: 0.05,
                bad_crc_rate: 0.0,
                ..TrafficConfig::default()
            });
            let mut packets = generator.generate(per_plc);
            packets.reverse(); // pop() below walks chronologically
            packets
        })
        .collect();
    loop {
        let mut any = false;
        for (conn, session) in sessions.iter_mut().enumerate() {
            if let Some(p) = session.pop() {
                builder.modbus_on(conn as u16, p.time, &p.wire, p.is_command);
                frames += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    (builder.finish(), frames)
}

fn train_detector(hidden: Vec<usize>) -> CombinedDetector {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 6_000,
        seed: 7,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: hidden,
                epochs: 1,
                seed: 7,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .expect("probe detector training failed")
    .detector
}

fn main() {
    let plcs = env_usize("ICSAD_WIRE_PLCS", 8);
    let per_plc = env_usize("ICSAD_WIRE_PER_PLC", 2_000);
    let repeats = env_usize("ICSAD_WIRE_REPEATS", 3);
    let hidden: Vec<usize> = std::env::var("ICSAD_HIDDEN")
        .unwrap_or_else(|_| "64".to_string())
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .collect();

    let (image, frames) = build_capture(plcs, per_plc);
    println!(
        "capture: {} PLCs x {} packets = {} frames, {:.1} MiB pcap",
        plcs,
        per_plc,
        frames,
        image.len() as f64 / (1024.0 * 1024.0)
    );

    // Stage 1: the wire layer alone.
    let mut best_decode = 0.0f64;
    for _ in 0..repeats {
        let mut replay = WireReplay::new();
        let t0 = Instant::now();
        let stats = replay.replay(&image, |_| {}).expect("replay failed");
        let rate = stats.frames as f64 / t0.elapsed().as_secs_f64();
        best_decode = best_decode.max(rate);
        assert_eq!(stats.frames as usize, frames, "frames lost in decode");
        assert_eq!(stats.skipped_bytes, 0, "clean capture must not resync");
    }
    println!("decode only:        {best_decode:>12.0} frames/s");

    let detector = Arc::new(train_detector(hidden));
    let config = EngineConfig {
        batch_size: 96,
        ..EngineConfig::default()
    };

    // Stages 2+3: replay into the engine in ingest_batch chunks.
    const CHUNK: usize = 1_024;
    let mut best_ingest = 0.0f64;
    let mut best_e2e = 0.0f64;
    let mut alarms = 0u64;
    for _ in 0..repeats {
        let mut engine = Engine::start(Arc::clone(&detector), config.clone());
        let mut replay = WireReplay::new();
        let mut chunk: Vec<RawFrame> = Vec::with_capacity(CHUNK);
        let t0 = Instant::now();
        replay
            .replay(&image, |frame| {
                chunk.push(frame);
                if chunk.len() == CHUNK {
                    engine.ingest_batch(chunk.drain(..));
                }
            })
            .expect("replay failed");
        engine.ingest_batch(chunk.drain(..));
        let ingest_elapsed = t0.elapsed().as_secs_f64();
        let report = engine.finish();
        let e2e_elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(report.frames() as usize, frames, "frames lost in engine");
        alarms = report.alarms();
        best_ingest = best_ingest.max(frames as f64 / ingest_elapsed);
        best_e2e = best_e2e.max(frames as f64 / e2e_elapsed);
    }
    println!("decode + ingest:    {best_ingest:>12.0} frames/s");
    println!("end-to-end classify:{best_e2e:>12.0} pkg/s ({alarms} alarms)");
}
