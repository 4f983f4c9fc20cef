//! Shared scaffolding for the experiment binaries that regenerate every
//! table and figure of the paper (one binary per table or figure, named
//! after it: `table4_comparison`, `fig6_topk_error`, …). The speed
//! benchmark is separate: `BENCHMARK.json` and `perfbench/`, with its
//! recorded findings in `CHANGES.md`.
//!
//! Every binary reads its scale from environment variables so the same code
//! serves quick sanity runs and the full paper-scale reproduction:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICSAD_PACKAGES` | `120000` | capture size in packages |
//! | `ICSAD_SEED` | `7` | master seed |
//! | `ICSAD_ATTACK_PROB` | `0.08` | attack episode probability |
//! | `ICSAD_HIDDEN` | `64,64` | LSTM stack widths |
//! | `ICSAD_EPOCHS` | `25` | LSTM training epochs |
//! | `ICSAD_LR` | `0.01` | Adam learning rate |
//! | `ICSAD_THREADS` | `0` (auto) | trainer worker threads |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use icsad_core::experiment::ExperimentConfig;
use icsad_core::timeseries::{NoiseConfig, TimeSeriesTrainingConfig};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Split};

/// Experiment scale, resolved from the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchScale {
    /// Total packages in the capture.
    pub total_packages: usize,
    /// Master seed.
    pub seed: u64,
    /// Attack episode probability.
    pub attack_probability: f64,
    /// LSTM stack widths.
    pub hidden_dims: Vec<usize>,
    /// LSTM training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Trainer worker threads (0 = auto).
    pub num_threads: usize,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchScale {
    /// Reads the scale from `ICSAD_*` environment variables.
    pub fn from_env() -> Self {
        let hidden = std::env::var("ICSAD_HIDDEN").unwrap_or_else(|_| "64,64".to_string());
        let hidden_dims: Vec<usize> = hidden
            .split(',')
            .filter_map(|p| p.trim().parse().ok())
            .filter(|&h| h > 0)
            .collect();
        BenchScale {
            total_packages: env_parse("ICSAD_PACKAGES", 120_000),
            seed: env_parse("ICSAD_SEED", 7),
            attack_probability: env_parse("ICSAD_ATTACK_PROB", 0.08),
            hidden_dims: if hidden_dims.is_empty() {
                vec![64, 64]
            } else {
                hidden_dims
            },
            epochs: env_parse("ICSAD_EPOCHS", 25),
            learning_rate: env_parse("ICSAD_LR", 1e-2),
            num_threads: env_parse("ICSAD_THREADS", 0),
        }
    }

    /// Generates the capture and splits it 6:2:2 per the paper's protocol.
    pub fn split(&self) -> Split {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: self.total_packages,
            seed: self.seed,
            attack_probability: self.attack_probability,
            ..DatasetConfig::default()
        });
        data.split_chronological(0.6, 0.2)
    }

    /// Generates the raw dataset (for experiments that need the unsplit
    /// capture).
    pub fn dataset(&self) -> GasPipelineDataset {
        GasPipelineDataset::generate(&DatasetConfig {
            total_packages: self.total_packages,
            seed: self.seed,
            attack_probability: self.attack_probability,
            ..DatasetConfig::default()
        })
    }

    /// The framework training configuration at this scale.
    pub fn experiment_config(&self, noise: bool) -> ExperimentConfig {
        ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: self.hidden_dims.clone(),
                epochs: self.epochs,
                learning_rate: self.learning_rate,
                noise: if noise {
                    Some(NoiseConfig::default())
                } else {
                    None
                },
                num_threads: self.num_threads,
                seed: self.seed,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        }
    }

    /// One-line description for experiment headers.
    pub fn describe(&self) -> String {
        format!(
            "packages={} seed={} attack_prob={} hidden={:?} epochs={} lr={}",
            self.total_packages,
            self.seed,
            self.attack_probability,
            self.hidden_dims,
            self.epochs,
            self.learning_rate
        )
    }
}

/// Prints a header banner for an experiment binary.
pub fn banner(title: &str, scale: &BenchScale) {
    println!("================================================================");
    println!("{title}");
    println!("scale: {}", scale.describe());
    println!("================================================================");
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (w, cell) in widths.iter().zip(cells.iter()) {
            out.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Renders a unit-interval series as an ASCII sparkline.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// Formats an `Option<f64>` ratio like the paper's tables.
pub fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.2}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Without env vars set, defaults apply.
        let scale = BenchScale::from_env();
        assert!(scale.total_packages > 0);
        assert!(!scale.hidden_dims.is_empty());
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(Some(0.876)), "0.88");
        assert_eq!(fmt_ratio(None), "-");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            &["model", "f1"],
            &[
                vec!["BF".into(), "0.73".into()],
                vec!["BN".into(), "0.73".into()],
            ],
        );
    }
}
