//! The Voiceprint detector, packaged for the simulator.

use vp_sim::detector::{DetectionInput, Detector};

use crate::comparator::{compare, ComparisonConfig};
use crate::confirm::{confirm, SybilVerdict};
use crate::threshold::ThresholdPolicy;
use crate::IdentityId;

/// The full three-phase Voiceprint detector as a [`vp_sim::Detector`].
///
/// Collection is performed by the host (the simulator's observer logs or a
/// [`crate::collector::Collector`]); this type runs comparison and
/// confirmation on the collected series.
///
/// # Example
///
/// ```
/// use voiceprint::{ThresholdPolicy, VoiceprintDetector};
/// use vp_sim::detector::Detector;
///
/// let detector = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
/// assert_eq!(detector.name(), "Voiceprint");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoiceprintDetector {
    policy: ThresholdPolicy,
    comparison: ComparisonConfig,
    name: String,
}

impl VoiceprintDetector {
    /// Creates the detector with the reproduction's calibrated comparison
    /// settings (banded DTW, per-step cost; see
    /// [`ComparisonConfig::default`]).
    pub fn new(policy: ThresholdPolicy) -> Self {
        VoiceprintDetector {
            policy,
            comparison: ComparisonConfig::default(),
            name: "Voiceprint".to_owned(),
        }
    }

    /// Creates the detector running Algorithm 1 exactly as the paper
    /// writes it (FastDTW radius 1 on raw accumulated costs, min–max
    /// normalisation).
    pub fn paper_strict(policy: ThresholdPolicy) -> Self {
        VoiceprintDetector {
            policy,
            comparison: ComparisonConfig::paper_strict(),
            name: "Voiceprint-strict".to_owned(),
        }
    }

    /// Creates the detector with explicit comparison settings and a
    /// display name (used by the ablation experiments to tell variants
    /// apart).
    pub fn with_comparison(
        policy: ThresholdPolicy,
        comparison: ComparisonConfig,
        name: &str,
    ) -> Self {
        VoiceprintDetector {
            policy,
            comparison,
            name: name.to_owned(),
        }
    }

    /// The threshold policy in force.
    pub fn policy(&self) -> &ThresholdPolicy {
        &self.policy
    }

    /// The comparison configuration in force.
    pub fn comparison(&self) -> &ComparisonConfig {
        &self.comparison
    }

    /// Runs comparison + confirmation on raw series, returning the full
    /// verdict (groups, flagged pairs) rather than just the suspect list.
    pub fn verdict(&self, series: &[(IdentityId, Vec<f64>)], density_per_km: f64) -> SybilVerdict {
        let distances = compare(series, &self.comparison);
        confirm(&distances, density_per_km, &self.policy)
    }
}

impl Detector for VoiceprintDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn detect(&self, input: &DetectionInput) -> Vec<IdentityId> {
        self.verdict(&input.series, input.estimated_density_per_km)
            .suspects()
            .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_with_sybils() -> DetectionInput {
        let shape: Vec<f64> = (0..150).map(|k| (k as f64 * 0.11).sin() * 4.0).collect();
        DetectionInput {
            observer: 0,
            time_s: 20.0,
            observer_position_m: (0.0, 0.0),
            observer_forward: true,
            series: vec![
                (
                    1,
                    (0..150)
                        .map(|k| ((k as f64 * 0.045).cos() + (k as f64 * 0.21).sin()) * 3.5 - 74.0)
                        .collect(),
                ),
                (
                    2,
                    (0..150)
                        .map(|k| ((k as f64 * 0.083).sin() + (k as f64 * 0.29).cos()) * 3.5 - 69.0)
                        .collect(),
                ),
                (
                    3,
                    (0..150)
                        .map(|k| ((k as f64 * 0.031).sin() - (k as f64 * 0.17).cos()) * 3.5 - 80.0)
                        .collect(),
                ),
                (100, shape.iter().map(|v| v - 70.0).collect()),
                (101, shape.iter().map(|v| v - 64.5).collect()),
                (102, shape.iter().take(140).map(|v| v - 75.5).collect()),
            ],
            estimated_density_per_km: 20.0,
            claims: Vec::new(),
            witness_reports: Vec::new(),
        }
    }

    #[test]
    fn detects_sybil_cluster_and_spares_normals() {
        let detector = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
        let suspects = detector.detect(&input_with_sybils());
        assert_eq!(suspects, vec![100, 101, 102]);
    }

    #[test]
    fn verdict_exposes_grouping() {
        let detector = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
        let input = input_with_sybils();
        let verdict = detector.verdict(&input.series, 20.0);
        assert_eq!(verdict.groups().len(), 1);
        assert_eq!(verdict.groups()[0], vec![100, 101, 102]);
    }

    #[test]
    fn named_variant() {
        let detector = VoiceprintDetector::with_comparison(
            ThresholdPolicy::Constant(0.05),
            ComparisonConfig::default(),
            "Voiceprint-euclid",
        );
        assert_eq!(detector.name(), "Voiceprint-euclid");
    }

    #[test]
    fn empty_input_is_clean() {
        let detector = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
        let mut input = input_with_sybils();
        input.series.clear();
        assert!(detector.detect(&input).is_empty());
    }

    #[test]
    fn malformed_series_are_quarantined_not_fatal() {
        // A NaN series must neither panic the detector nor suppress the
        // verdict on the clean part of the neighbourhood.
        let detector = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
        let mut input = input_with_sybils();
        input.series.push((999, vec![f64::NAN; 150]));
        let verdict = detector.verdict(&input.series, input.estimated_density_per_km);
        assert_eq!(verdict.quarantined(), &[999]);
        assert_eq!(verdict.degradation().identities_quarantined, 1);
        assert_eq!(detector.detect(&input), vec![100, 101, 102]);
    }

    #[test]
    fn non_finite_density_degrades_to_clean_not_panic() {
        // A poisoned density estimate yields a NaN threshold; nothing can
        // sit under it, so the verdict is clean rather than garbage.
        let detector = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
        let input = input_with_sybils();
        let verdict = detector.verdict(&input.series, f64::NAN);
        assert!(verdict.is_clean());
    }
}
