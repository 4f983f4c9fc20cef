//! Dynamic adjustment of the top-`k` parameter during detection — the
//! extension the paper names as future work (§VIII-D, §IX: "allow the value
//! of k for time-series level anomaly detection to be adjusted dynamically
//! during the detection phase ... given previous predictions").
//!
//! The mechanism implemented here is rank tracking: for every package the
//! detector accepts as normal, record the *rank* of its true signature in
//! the model's prediction. If the model has recently been predicting
//! sharply (true signatures near the top), `k` can shrink and the detector
//! gains sensitivity; if predictions have been diffuse (legitimate drift,
//! noisy process), `k` grows to hold the false-positive budget. The rule is
//!
//! ```text
//! k_t = clamp(quantile_{1-θ}(recent accepted ranks) , k_min, k_max)
//! ```
//!
//! which directly estimates the smallest `k` whose false-positive rate on
//! recent normal-looking traffic is below θ — the same rule the static
//! choice-of-`k` applies to the validation set, made rolling.
//!
//! Dynamic `k` is a per-lane [`KPolicy`], not a second decision path: a
//! stream lane opened under [`KPolicy::Dynamic`] carries its own
//! controller, and the combined framework's one `classify` /
//! `classify_batch` compares the package's rank against that controller's
//! `k` instead of the commissioned one.

use std::collections::VecDeque;

/// Configuration for the dynamic-`k` controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicKConfig {
    /// Smallest `k` the controller may choose.
    pub min_k: usize,
    /// Largest `k` the controller may choose.
    pub max_k: usize,
    /// Sliding window of accepted-package ranks to estimate from.
    pub window: usize,
    /// The false-positive budget θ (as in the static choice of `k`).
    pub theta: f64,
}

impl Default for DynamicKConfig {
    fn default() -> Self {
        DynamicKConfig {
            min_k: 1,
            max_k: 10,
            window: 256,
            theta: 0.05,
        }
    }
}

impl DynamicKConfig {
    /// Checks the configuration: `min_k >= 1`, `min_k <= max_k`,
    /// `window > 0` and θ ∈ (0, 1). [`DynamicKController::new`] and the
    /// engine's configuration check both apply exactly these rules.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a [`DynamicKConfigError`].
    pub fn validate(&self) -> Result<(), DynamicKConfigError> {
        if self.min_k == 0 {
            return Err(DynamicKConfigError::ZeroMinK);
        }
        if self.min_k > self.max_k {
            return Err(DynamicKConfigError::MinAboveMax);
        }
        if self.window == 0 {
            return Err(DynamicKConfigError::ZeroWindow);
        }
        if !(self.theta > 0.0 && self.theta < 1.0) {
            return Err(DynamicKConfigError::ThetaOutOfRange);
        }
        Ok(())
    }
}

/// Why a [`DynamicKConfig`] was rejected by [`DynamicKConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicKConfigError {
    /// `min_k == 0`: a top-0 rule would flag every package.
    ZeroMinK,
    /// `min_k > max_k`: no `k` satisfies both bounds.
    MinAboveMax,
    /// `window == 0`: there would be no ranks to estimate from.
    ZeroWindow,
    /// θ outside (0, 1): the quantile `1 - θ` would be degenerate.
    ThetaOutOfRange,
}

impl std::fmt::Display for DynamicKConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DynamicKConfigError::ZeroMinK => "min_k must be positive",
            DynamicKConfigError::MinAboveMax => "min_k must not exceed max_k",
            DynamicKConfigError::ZeroWindow => "window must be positive",
            DynamicKConfigError::ThetaOutOfRange => "theta must be in (0, 1)",
        })
    }
}

impl std::error::Error for DynamicKConfigError {}

/// Which `k` a stream lane's top-`k` rule compares ranks against.
///
/// The decision itself never changes (Bloom check, then the rank of the
/// package's signature against `k`); the policy only picks the `k`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KPolicy {
    /// The detector's commissioned `k` (set by `choose_k`/`set_k` or
    /// loaded from the artifact).
    #[default]
    Fixed,
    /// A per-lane [`DynamicKController`] seeded at the commissioned `k`
    /// (paper §VIII-D future work): each stream adapts its own `k` to its
    /// recent prediction ranks.
    Dynamic(DynamicKConfig),
}

impl KPolicy {
    /// The per-lane controller this policy installs on a cold lane:
    /// `None` for [`KPolicy::Fixed`], a fresh controller starting at
    /// `commissioned_k` for [`KPolicy::Dynamic`].
    ///
    /// # Panics
    ///
    /// Panics if a dynamic config fails [`DynamicKConfig::validate`].
    pub(crate) fn controller(&self, commissioned_k: usize) -> Option<DynamicKController> {
        match *self {
            KPolicy::Fixed => None,
            KPolicy::Dynamic(config) => Some(DynamicKController::new(commissioned_k, config)),
        }
    }
}

/// Rolling estimator of the optimal `k` from recent prediction ranks.
#[derive(Debug, Clone)]
pub struct DynamicKController {
    config: DynamicKConfig,
    ranks: VecDeque<usize>,
    /// Sort buffer for the quantile estimate, sized to the window once at
    /// construction so observing a rank never allocates.
    sorted: Vec<usize>,
    current_k: usize,
}

impl DynamicKController {
    /// Creates a controller starting at `initial_k`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DynamicKConfig::validate`]
    /// (`min_k == 0`, `min_k > max_k`, `window == 0`, or θ ∉ (0, 1)).
    pub fn new(initial_k: usize, config: DynamicKConfig) -> Self {
        if let Err(e) = config.validate() {
            // PANIC: documented contract; `DynamicKConfig::validate` is the
            // typed alternative and the engine runs it before any lane exists.
            panic!("invalid DynamicKConfig: {e}");
        }
        DynamicKController {
            config,
            ranks: VecDeque::with_capacity(config.window),
            sorted: Vec::with_capacity(config.window),
            current_k: initial_k.clamp(config.min_k, config.max_k),
        }
    }

    /// The configuration this controller was built with.
    pub(crate) fn config(&self) -> DynamicKConfig {
        self.config
    }

    /// The `k` currently in force.
    pub fn k(&self) -> usize {
        self.current_k
    }

    /// The largest `k` the controller may choose; ranks above this bound
    /// are treated as anomalies and must not be fed to
    /// [`DynamicKController::observe_rank`].
    pub fn max_k(&self) -> usize {
        self.config.max_k
    }

    /// Number of rank observations currently in the window.
    pub fn observations(&self) -> usize {
        self.ranks.len()
    }

    /// The top-`k` decision for a package whose signature ranked `rank`
    /// (1-based) in the prediction: anomalous iff `rank > k()` under the
    /// `k` in force *before* this package. Afterwards the rank feeds the
    /// window when it is plausibly normal (`rank <= max_k()`) — not only
    /// when it was accepted at the current `k`, which would self-censor
    /// and pin `k` at its floor.
    pub(crate) fn decide(&mut self, rank: usize) -> bool {
        let anomalous = rank > self.current_k;
        if rank <= self.config.max_k {
            self.observe_rank(rank);
        }
        anomalous
    }

    /// Records the rank (1-based position in the sorted prediction) of an
    /// accepted package's true signature and returns the updated `k`.
    ///
    /// Ranks of packages *flagged* as anomalous must not be recorded —
    /// they would teach the controller to tolerate attacks. A rank above
    /// [`DynamicKController::max_k`] is by definition anomalous traffic, so
    /// feeding one is a contract violation: it panics in debug builds
    /// (`debug_assert`) and is ignored — the window and `k` stay unchanged
    /// — in release builds, where it would otherwise inflate the rolling
    /// quantile and pin `k` at `max_k`.
    pub fn observe_rank(&mut self, rank: usize) -> usize {
        debug_assert!(
            rank <= self.config.max_k,
            "rank {rank} exceeds max_k {}: anomalous ranks must not feed the controller",
            self.config.max_k
        );
        if rank > self.config.max_k {
            return self.current_k;
        }
        if self.ranks.len() == self.config.window {
            self.ranks.pop_front();
        }
        self.ranks.push_back(rank.max(1));
        // Re-estimate once enough evidence exists.
        if self.ranks.len() >= self.config.window / 4 {
            let sorted = &mut self.sorted;
            sorted.clear();
            sorted.extend(self.ranks.iter().copied());
            sorted.sort_unstable();
            let idx = (((sorted.len() as f64) * (1.0 - self.config.theta)).ceil() as usize)
                .min(sorted.len())
                .saturating_sub(1);
            self.current_k = sorted[idx].clamp(self.config.min_k, self.config.max_k);
        }
        self.current_k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(window: usize, theta: f64) -> DynamicKController {
        DynamicKController::new(
            4,
            DynamicKConfig {
                min_k: 1,
                max_k: 10,
                window,
                theta,
            },
        )
    }

    #[test]
    fn starts_at_initial_k() {
        let c = controller(64, 0.05);
        assert_eq!(c.k(), 4);
        assert_eq!(c.observations(), 0);
    }

    #[test]
    fn sharp_predictions_shrink_k() {
        let mut c = controller(64, 0.05);
        for _ in 0..64 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 1, "all-rank-1 history should drive k to 1");
    }

    #[test]
    fn diffuse_predictions_grow_k() {
        let mut c = controller(64, 0.05);
        for i in 0..64 {
            c.observe_rank(1 + (i % 8));
        }
        assert!(
            c.k() >= 7,
            "rank spread to 8 should push k up, got {}",
            c.k()
        );
    }

    #[test]
    fn k_respects_bounds() {
        let mut c = DynamicKController::new(
            5,
            DynamicKConfig {
                min_k: 3,
                max_k: 6,
                window: 32,
                theta: 0.05,
            },
        );
        for _ in 0..32 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 3);
        // Diffuse-but-legal ranks (at the max_k bound) push k to its cap.
        for _ in 0..32 {
            c.observe_rank(6);
        }
        assert_eq!(c.k(), 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds max_k")]
    fn rank_above_max_k_panics_in_debug() {
        // Regression: ranks above max_k used to be accepted silently,
        // inflating the rolling quantile with traffic the controller's own
        // contract excludes.
        controller(64, 0.05).observe_rank(11);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn rank_above_max_k_is_ignored_in_release() {
        // Regression twin of `rank_above_max_k_panics_in_debug` for
        // release builds: the out-of-contract observation must leave the
        // window and the current k untouched.
        let mut c = controller(64, 0.05);
        for _ in 0..64 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 1);
        let before = c.observations();
        assert_eq!(c.observe_rank(11), 1);
        assert_eq!(c.k(), 1, "out-of-contract rank must not move k");
        assert_eq!(c.observations(), before);
    }

    #[test]
    fn theta_controls_the_quantile() {
        // With θ = 0.25, the 75th-percentile rank is chosen.
        let mut c = controller(100, 0.25);
        for i in 0..100 {
            // Ranks 1..=4 uniformly: 75th percentile = 3.
            c.observe_rank(1 + (i % 4));
        }
        assert_eq!(c.k(), 3);
    }

    #[test]
    fn window_bounds_memory() {
        let mut c = controller(16, 0.05);
        for _ in 0..100 {
            c.observe_rank(9);
        }
        assert_eq!(c.observations(), 16);
        // Old high ranks age out once sharp predictions dominate the window.
        for _ in 0..16 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 1);
    }

    #[test]
    fn adapts_before_window_fills() {
        let mut c = controller(64, 0.05);
        for _ in 0..16 {
            c.observe_rank(2);
        }
        // window/4 = 16 observations suffice for the first estimate.
        assert_eq!(c.k(), 2);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn invalid_theta_panics() {
        DynamicKController::new(
            4,
            DynamicKConfig {
                theta: 0.0,
                ..DynamicKConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "min_k")]
    fn invalid_bounds_panic() {
        DynamicKController::new(
            4,
            DynamicKConfig {
                min_k: 8,
                max_k: 2,
                ..DynamicKConfig::default()
            },
        );
    }

    #[test]
    fn decide_compares_before_observing_and_skips_out_of_bound_ranks() {
        let mut c = controller(64, 0.05);
        assert!(!c.decide(4), "rank == k is accepted");
        assert!(c.decide(5), "rank > k is anomalous");
        assert_eq!(c.observations(), 2, "in-bound ranks feed the window");
        assert!(c.decide(11), "rank above max_k is anomalous");
        assert_eq!(c.observations(), 2, "out-of-bound ranks never feed it");
    }

    /// The reused sort buffer must reproduce the quantile of a freshly
    /// collected window for every observation.
    #[test]
    fn rolling_quantile_matches_a_fresh_sort_every_step() {
        let config = DynamicKConfig {
            min_k: 2,
            max_k: 9,
            window: 40,
            theta: 0.1,
        };
        let mut c = DynamicKController::new(5, config);
        let mut window: VecDeque<usize> = VecDeque::new();
        let mut expected_k = 5;
        let mut x = 17u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rank = 1 + (x >> 33) as usize % 9;
            if window.len() == config.window {
                window.pop_front();
            }
            window.push_back(rank);
            if window.len() >= config.window / 4 {
                let mut sorted: Vec<usize> = window.iter().copied().collect();
                sorted.sort_unstable();
                let idx = (((sorted.len() as f64) * (1.0 - config.theta)).ceil() as usize)
                    .min(sorted.len())
                    .saturating_sub(1);
                expected_k = sorted[idx].clamp(config.min_k, config.max_k);
            }
            assert_eq!(c.observe_rank(rank), expected_k);
        }
    }
}
