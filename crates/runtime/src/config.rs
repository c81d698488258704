//! Streaming-runtime configuration: window cadence, queue bounds,
//! deadline budgets and the degradation policy. The supervisor's
//! schedule for panicking rounds is fixed (see
//! [`crate::runtime::StreamingRuntime`]).

use std::time::Duration;

use voiceprint::{AdaptiveConfig, ChurnPolicy, ComparisonConfig, DistanceMeasure, ThresholdPolicy};
use vp_fault::VpError;
use vp_sim::ScenarioConfig;

/// Per-round budget for the comparison sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlinePolicy {
    /// No budget: every sweep runs to completion (the batch-parity mode).
    Unbounded,
    /// Wall-clock budget per round (production setting).
    WallClock(Duration),
    /// Deterministic budget: at most this many pairwise distances per
    /// round. Independent of machine speed, so tests and benchmarks can
    /// provoke misses reproducibly.
    PairBudget(u64),
}

/// How the runtime trades accuracy for latency under repeated deadline
/// misses, and how it recovers.
///
/// Each degradation level halves the banded-DTW band fraction and enables
/// threshold-driven lower-bound pruning; every on-time round steps one
/// level back up (hysteresis), so a runtime pushed to `max_level` regains
/// full band-width within `max_level` on-time windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// Consecutive deadline misses required to step one level down.
    pub miss_threshold: u32,
    /// Deepest degradation level (band fraction scaled by `2^-level`).
    /// A checkpoint restored under a shallower config resumes at this
    /// level.
    pub max_level: u8,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        // max_level 2 keeps worst-case recovery at two windows — the
        // overload contract pinned by the storm tests.
        DegradeConfig {
            miss_threshold: 1,
            max_level: 2,
        }
    }
}

/// Full configuration of one [`crate::StreamingRuntime`].
///
/// The cadence fields mirror [`ScenarioConfig`] (Table V defaults); use
/// [`RuntimeConfig::from_scenario`] to guarantee the streaming runtime
/// evaluates at exactly the batch engine's boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// RSSI collection window, seconds (Table V: 20 s).
    pub window_s: f64,
    /// Interval between detection rounds, seconds (Table V: 20 s).
    pub detection_period_s: f64,
    /// Time of the first detection round, seconds (the batch engine's
    /// first boundary is at `observation_time_s`).
    pub first_detection_s: f64,
    /// Minimum samples for an identity's series to enter comparison.
    pub min_samples_per_series: usize,
    /// Density estimation period, seconds (Eq. 9 bucketing).
    pub density_period_s: f64,
    /// `Dist_max` assumed by the density estimate, metres.
    pub assumed_max_range_m: f64,
    /// Bounded ingest-queue capacity, beacons. When full, the oldest
    /// sample of the densest queued identity is shed per arrival.
    pub queue_capacity: usize,
    /// Seed for the shedding tie-break and restart jitter hashes. Pure
    /// hashing — no RNG state — so checkpoints need not serialize a
    /// generator.
    pub seed: u64,
    /// Per-round comparison budget.
    pub deadline: DeadlinePolicy,
    /// Degradation/recovery policy under repeated deadline misses.
    pub degrade: DegradeConfig,
    /// Comparison-phase configuration (level-0 settings; degradation
    /// narrows the band on top of this).
    pub comparison: ComparisonConfig,
    /// Capacity of the cross-window comparison result cache, in pair
    /// results; `0` disables caching. A sliding window re-presents most
    /// pairs with unchanged series, and cached sweeps are bit-identical
    /// to uncached ones (see [`voiceprint::ComparisonCache`]), so this
    /// is purely a throughput knob. The cache is not serialized into
    /// checkpoints — restore rebuilds it empty, which only turns hits
    /// back into recomputations of the same bits.
    pub comparison_cache_capacity: usize,
    /// Confirmation threshold policy.
    pub policy: ThresholdPolicy,
    /// Drift-adaptive confirmation. `None` — the default — freezes
    /// `policy` exactly as trained, preserving batch parity. `Some` wraps
    /// it in a [`voiceprint::AdaptiveThreshold`] running the chosen
    /// profile: the boundary nudges toward the observed evidence each
    /// round, the band widens while the distance distribution drifts, and
    /// the adaptive state rides along in VPCK checkpoints bit-exactly.
    pub adaptive: Option<AdaptiveConfig>,
    /// Churn-aware series extraction. `None` — the default — uses the
    /// plain `min_samples_per_series` floor. `Some` additionally admits
    /// identities matching the retire/announce churn signature at a
    /// reduced floor (see [`voiceprint::ChurnPolicy`]), so an
    /// identity-churn attacker's short-lived identities reach the
    /// comparator instead of surfacing as `NotCompared` misses.
    pub churn: Option<ChurnPolicy>,
}

impl RuntimeConfig {
    /// Paper-default cadence (20 s window and period, first round at
    /// 20 s) with the reproduction's calibrated comparison pipeline, an
    /// unbounded deadline, and a queue sized for a nominal window.
    pub fn paper_default(policy: ThresholdPolicy) -> Self {
        RuntimeConfig {
            window_s: 20.0,
            detection_period_s: 20.0,
            first_detection_s: 20.0,
            min_samples_per_series: 100,
            density_period_s: 10.0,
            assumed_max_range_m: 400.0,
            queue_capacity: 16 * 1024,
            seed: 1,
            deadline: DeadlinePolicy::Unbounded,
            degrade: DegradeConfig::default(),
            comparison: ComparisonConfig::default(),
            // Room for a ~90-identity neighbourhood's full pair set —
            // far beyond paper-scale densities — at ~100 KiB.
            comparison_cache_capacity: 4096,
            policy,
            adaptive: None,
            churn: None,
        }
    }

    /// A runtime whose boundaries, window and density bucketing match the
    /// given scenario exactly — the configuration under which streaming
    /// verdicts are bit-identical to the batch engine's.
    pub fn from_scenario(scenario: &ScenarioConfig, policy: ThresholdPolicy) -> Self {
        RuntimeConfig {
            window_s: scenario.observation_time_s,
            detection_period_s: scenario.detection_period_s,
            first_detection_s: scenario.observation_time_s,
            min_samples_per_series: scenario.min_samples_per_series,
            density_period_s: scenario.density_estimate_period_s,
            assumed_max_range_m: scenario.assumed_max_range_m,
            seed: scenario.seed,
            ..RuntimeConfig::paper_default(policy)
        }
    }

    /// Validates cross-parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InvalidConfig`] naming the first violation.
    // Negated comparisons are deliberate: NaN must fail every check.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), VpError> {
        if !(self.window_s > 0.0) {
            return Err(VpError::InvalidConfig("window must be positive"));
        }
        if !(self.detection_period_s > 0.0) {
            return Err(VpError::InvalidConfig("detection period must be positive"));
        }
        if !(self.first_detection_s > 0.0) {
            return Err(VpError::InvalidConfig("first detection must be positive"));
        }
        if !(self.density_period_s > 0.0) {
            return Err(VpError::InvalidConfig("density period must be positive"));
        }
        if !(self.assumed_max_range_m > 0.0) {
            return Err(VpError::InvalidConfig("max range must be positive"));
        }
        if self.queue_capacity == 0 {
            return Err(VpError::InvalidConfig("queue capacity must be nonzero"));
        }
        if let DeadlinePolicy::WallClock(d) = self.deadline {
            if d.is_zero() {
                return Err(VpError::InvalidConfig("wall-clock budget must be nonzero"));
            }
        }
        // 0.0 is the 3-sample band floor and +∞ the full matrix; NaN and
        // negative fractions would silently become the floor too.
        if let DistanceMeasure::BandedDtw { band_fraction } = self.comparison.measure {
            if !(band_fraction >= 0.0) {
                return Err(VpError::InvalidConfig(
                    "band fraction must be a non-negative number",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_table_v_cadence() {
        let c = RuntimeConfig::paper_default(ThresholdPolicy::paper_simulation());
        assert!(c.validate().is_ok());
        assert_eq!(c.window_s, 20.0);
        assert_eq!(c.detection_period_s, 20.0);
        assert_eq!(c.first_detection_s, 20.0);
        assert_eq!(c.min_samples_per_series, 100);
    }

    #[test]
    fn from_scenario_copies_the_cadence() {
        let sc = ScenarioConfig::builder()
            .observation_time_s(10.0)
            .detection_period_s(5.0)
            .min_samples_per_series(20)
            .seed(77)
            .build();
        let c = RuntimeConfig::from_scenario(&sc, ThresholdPolicy::Constant(0.05));
        assert_eq!(c.window_s, 10.0);
        assert_eq!(c.detection_period_s, 5.0);
        assert_eq!(c.first_detection_s, 10.0);
        assert_eq!(c.min_samples_per_series, 20);
        assert_eq!(c.density_period_s, sc.density_estimate_period_s);
        assert_eq!(c.seed, 77);
    }

    #[test]
    fn validation_rejects_each_degenerate_field() {
        let good = RuntimeConfig::paper_default(ThresholdPolicy::Constant(0.05));
        let mut c = good.clone();
        c.window_s = 0.0;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.detection_period_s = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.queue_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = good;
        c.deadline = DeadlinePolicy::WallClock(Duration::ZERO);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_nan_or_negative_band_fraction() {
        let banded = |band_fraction| {
            let mut c = RuntimeConfig::paper_default(ThresholdPolicy::Constant(0.05));
            c.comparison.measure = DistanceMeasure::BandedDtw { band_fraction };
            c.validate()
        };
        for bad in [f64::NAN, -0.05, f64::NEG_INFINITY] {
            assert!(
                matches!(banded(bad), Err(VpError::InvalidConfig(_))),
                "band fraction {bad} accepted"
            );
        }
        // The 3-sample floor and the full matrix stay valid.
        for good in [0.0, 0.05, 1.0, f64::INFINITY] {
            assert!(banded(good).is_ok(), "band fraction {good} rejected");
        }
    }
}
