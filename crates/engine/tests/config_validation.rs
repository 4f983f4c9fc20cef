//! Up-front `EngineConfig` validation: every capacity/sizing field is
//! checked before anything spawns, with a typed [`EngineConfigError`] from
//! the `try_` constructors — instead of relying on `sync_channel`'s
//! semantics (a zero-capacity rendezvous channel would deadlock the
//! chunked ingest) or panicking deep inside a worker.

use std::sync::Arc;

use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::streaming::{LaneDecision, StreamingDetector, StreamingSession, SwapError};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::{DynamicKConfig, DynamicKConfigError, KPolicy};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_engine::{Engine, EngineConfig, EngineConfigError, IngestMode, TestSchedule};

/// A backend stub: config validation must reject before ever touching it.
struct StubBackend;

struct StubSession(usize);

impl StreamingDetector for StubBackend {
    fn name(&self) -> &str {
        "stub"
    }

    fn begin_session(self: Arc<Self>, _policy: KPolicy) -> Box<dyn StreamingSession> {
        Box::new(StubSession(0))
    }
}

impl StreamingSession for StubSession {
    fn add_lane(&mut self) -> usize {
        self.0 += 1;
        self.0 - 1
    }

    fn lanes(&self) -> usize {
        self.0
    }

    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>) {
        assert_eq!(lanes.len(), records.len());
        out.extend(lanes.iter().map(|&lane| LaneDecision {
            lane,
            anomalous: false,
        }));
    }

    fn finish(&mut self, _out: &mut Vec<LaneDecision>) {}

    fn swap_combined(&mut self, _detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        Err(SwapError::UnsupportedBackend {
            backend: "stub".to_string(),
        })
    }
}

fn base() -> EngineConfig {
    EngineConfig {
        num_shards: 2,
        batch_size: 8,
        channel_capacity: 64,
        ..EngineConfig::default()
    }
}

#[test]
fn every_zero_capacity_is_rejected_with_its_own_error() {
    let cases = [
        (
            EngineConfig {
                num_shards: 0,
                ..base()
            },
            EngineConfigError::ZeroShards,
        ),
        (
            EngineConfig {
                batch_size: 0,
                ..base()
            },
            EngineConfigError::ZeroBatchSize,
        ),
        (
            EngineConfig {
                channel_capacity: 0,
                ..base()
            },
            EngineConfigError::ZeroChannelCapacity,
        ),
        (
            EngineConfig {
                crc_window: 0,
                ..base()
            },
            EngineConfigError::ZeroCrcWindow,
        ),
        (
            EngineConfig {
                lane_idle_frames: Some(0),
                ..base()
            },
            EngineConfigError::ZeroLaneIdleFrames,
        ),
        (
            EngineConfig {
                ingest: IngestMode::AsyncDeterministic(TestSchedule {
                    seed: 0,
                    workers: 0,
                    max_budget: 4,
                }),
                ..base()
            },
            EngineConfigError::ZeroScheduleWorkers,
        ),
        (
            EngineConfig {
                ingest: IngestMode::AsyncDeterministic(TestSchedule {
                    seed: 0,
                    workers: 2,
                    max_budget: 0,
                }),
                ..base()
            },
            EngineConfigError::ZeroScheduleBudget,
        ),
    ];
    for (config, expected) in cases {
        assert_eq!(config.validate(), Err(expected), "{config:?}");
        // The fallible constructor surfaces the same error without
        // spawning anything.
        match Engine::try_start_backend(Arc::new(StubBackend), config) {
            Err(e) => assert_eq!(e, expected),
            Ok(_) => panic!("invalid config must not start an engine"),
        }
    }
}

#[test]
fn valid_configs_pass_validation() {
    assert_eq!(base().validate(), Ok(()));
    assert_eq!(EngineConfig::default().validate(), Ok(()));
    // `workers: 0` in pool mode means "size to the host", not "no workers".
    assert_eq!(
        EngineConfig {
            ingest: IngestMode::Async { workers: 0 },
            ..base()
        }
        .validate(),
        Ok(())
    );
    let engine = Engine::try_start_backend(
        Arc::new(StubBackend),
        EngineConfig {
            ingest: IngestMode::Async { workers: 0 },
            ..base()
        },
    )
    .unwrap();
    assert!(engine.ingest_threads() >= 1);
    let report = engine.finish();
    assert_eq!(report.frames(), 0);
}

#[test]
fn errors_name_the_offending_field() {
    for (error, needle) in [
        (EngineConfigError::ZeroShards, "num_shards"),
        (EngineConfigError::ZeroBatchSize, "batch_size"),
        (EngineConfigError::ZeroChannelCapacity, "channel_capacity"),
        (EngineConfigError::ZeroCrcWindow, "crc_window"),
        (EngineConfigError::ZeroLaneIdleFrames, "lane_idle_frames"),
        (EngineConfigError::ZeroScheduleWorkers, "worker"),
        (EngineConfigError::ZeroScheduleBudget, "budget"),
        (
            EngineConfigError::InvalidKPolicy(DynamicKConfigError::ThetaOutOfRange),
            "k_policy: theta",
        ),
    ] {
        let rendered = error.to_string();
        assert!(
            rendered.contains(needle),
            "{rendered:?} should mention {needle:?}"
        );
    }
}

/// The panicking constructors keep their documented contract, now phrased
/// through the same validation.
#[test]
#[should_panic(expected = "invalid EngineConfig")]
fn start_backend_panics_on_invalid_config() {
    let _ = Engine::start_backend(
        Arc::new(StubBackend),
        EngineConfig {
            channel_capacity: 0,
            ..base()
        },
    );
}

/// The smallest trainable combined detector: `try_start` needs a real one.
fn tiny_detector() -> Arc<CombinedDetector> {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 2_000,
        seed: 12,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.6, 0.2);
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![8],
                epochs: 1,
                seed: 12,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    Arc::new(trained.detector)
}

/// A degenerate dynamic-k policy is rejected by `validate` with a typed
/// error, and `try_start` returns that error instead of panicking while
/// it builds the per-lane controllers.
#[test]
fn degenerate_dynamic_k_policy_is_a_typed_error() {
    let detector = tiny_detector();
    let ok = DynamicKConfig::default();
    for (k_config, rule) in [
        (
            DynamicKConfig { min_k: 0, ..ok },
            DynamicKConfigError::ZeroMinK,
        ),
        (
            DynamicKConfig {
                min_k: 6,
                max_k: 3,
                ..ok
            },
            DynamicKConfigError::MinAboveMax,
        ),
        (
            DynamicKConfig { window: 0, ..ok },
            DynamicKConfigError::ZeroWindow,
        ),
        (
            DynamicKConfig { theta: 0.0, ..ok },
            DynamicKConfigError::ThetaOutOfRange,
        ),
        (
            DynamicKConfig { theta: 1.5, ..ok },
            DynamicKConfigError::ThetaOutOfRange,
        ),
        (
            DynamicKConfig {
                theta: f64::NAN,
                ..ok
            },
            DynamicKConfigError::ThetaOutOfRange,
        ),
    ] {
        let config = EngineConfig {
            k_policy: KPolicy::Dynamic(k_config),
            ..base()
        };
        let expected = EngineConfigError::InvalidKPolicy(rule);
        assert_eq!(config.validate(), Err(expected), "{k_config:?}");
        match Engine::try_start(Arc::clone(&detector), config) {
            Err(e) => assert_eq!(e, expected),
            Ok(_) => panic!("degenerate dynamic-k config must not start an engine"),
        }
    }
    // A sound dynamic policy starts.
    let engine = Engine::try_start(
        detector,
        EngineConfig {
            k_policy: KPolicy::Dynamic(ok),
            ..base()
        },
    )
    .unwrap();
    assert_eq!(engine.finish().frames(), 0);
}
