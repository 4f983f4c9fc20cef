//! The reference model: the combined detector commissioned on clean
//! traffic of one fixed `TrafficConfig`, with the paper's 2×256 LSTM.

use std::time::Instant;

use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::CombinedDetector;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_simulator::TrafficConfig;

/// Seed of the commissioning capture and of the trainer. Fixed, so every
/// run of every workload measures the same model; only the workload
/// traffic follows `--seed`.
pub const COMMISSION_SEED: u64 = 7;

/// The traffic family the model is commissioned on: unit id, CRC-error
/// rate and polling gaps. Workload captures are drawn from the same
/// family (with attacks switched on), so Bloom hits are real.
pub fn commissioning_traffic() -> TrafficConfig {
    TrafficConfig::default()
}

/// How big the commissioned model is and how it is trained.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelScale {
    /// LSTM stack widths.
    pub hidden: Vec<usize>,
    /// Packages in the clean commissioning capture.
    pub packages: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl ModelScale {
    /// The paper's 2×256 stack over the ≈540-signature vocabulary of a
    /// 20,000-package commissioning capture, trained for one epoch.
    pub fn paper() -> Self {
        ModelScale {
            hidden: vec![256, 256],
            packages: 20_000,
            epochs: 1,
        }
    }

    /// A small model for the benchmark's own tests.
    pub fn tiny() -> Self {
        ModelScale {
            hidden: vec![16],
            packages: 2_000,
            epochs: 1,
        }
    }
}

/// A commissioned detector plus what training it cost.
pub struct Commissioned {
    /// The trained two-level detector.
    pub detector: CombinedDetector,
    /// Wall seconds spent generating the commissioning capture.
    pub capture_s: f64,
    /// Wall seconds spent in `train_framework`.
    pub train_s: f64,
    /// Prediction targets the LSTM trained on.
    pub targets: usize,
    /// Signature vocabulary size (the LSTM's class count).
    pub vocabulary: usize,
}

/// Generates the clean commissioning capture and trains the framework.
///
/// # Panics
///
/// Panics if training fails, which only a broken build can cause.
pub fn commission(scale: &ModelScale) -> Commissioned {
    let t0 = Instant::now();
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: scale.packages,
        seed: COMMISSION_SEED,
        attack_probability: 0.0,
        traffic: commissioning_traffic(),
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    let capture_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: scale.hidden.clone(),
                epochs: scale.epochs,
                seed: COMMISSION_SEED,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .expect("commissioning the reference model failed");
    let train_s = t1.elapsed().as_secs_f64();
    Commissioned {
        targets: trained.training_stats.iter().map(|e| e.targets).sum(),
        vocabulary: trained.signature_count,
        detector: trained.detector,
        capture_s,
        train_s,
    }
}
