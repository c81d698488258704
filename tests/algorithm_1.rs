//! The paper's Algorithm 1, transliterated line by line, as a test
//! oracle for the production pipeline.
//!
//! `voiceprint::VoiceprintDetector` is the production path (it reuses
//! the configurable comparator and adds grouping); [`algorithm_1`]
//! follows the paper's pseudocode shape exactly — Z-score normalisation,
//! pairwise FastDTW over `i < j`, min–max normalisation, thresholding with
//! `k · den + b` — and the tests below check that the two agree.

use voiceprint::comparator::ComparisonConfig;
use voiceprint::detector::VoiceprintDetector;
use voiceprint::threshold::ThresholdPolicy;
use voiceprint::DecisionLine;
use vp_timeseries::fastdtw::fast_dtw;
use vp_timeseries::normalize::{min_max_normalize, z_score_enhanced};
use vp_timeseries::DtwScratch;

/// Algorithm 1, "Voiceprint".
///
/// Inputs mirror the paper: `rssi` holds the RSSI time series of the `n`
/// observed identities, `ids` their identifiers, `den` the estimated
/// traffic density, and `k`/`b` the decision boundary. The output is the
/// list of suspect IDs (deduplicated, in first-flagged order).
///
/// Non-finite samples do not panic: the hardened normalisation kernels
/// pass them through, the affected pairs' distances come out NaN, and a
/// NaN distance never satisfies the `≤ threshold` test — so such pairs
/// are simply never flagged. (The production comparator additionally
/// quarantines and reports them.)
///
/// # Panics
///
/// Panics if `rssi` and `ids` differ in length or any series is empty.
fn algorithm_1(rssi: &[Vec<f64>], ids: &[u64], den: f64, k: f64, b: f64) -> Vec<u64> {
    assert_eq!(rssi.len(), ids.len(), "one ID per series");
    let n = rssi.len();
    // Lines 1–3: RSSI_i ← Z-score-normalization(RSSI_i).
    let normalized: Vec<Vec<f64>> = rssi.iter().map(|s| z_score_enhanced(s)).collect();
    // Lines 4–10: D_DTW(i,j) ← FastDTW(RSSI_i, RSSI_j) for i < j.
    let mut d_dtw = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    let mut scratch = DtwScratch::new();
    for i in 0..n {
        for j in (i + 1)..n {
            d_dtw.push(fast_dtw(&normalized[i], &normalized[j], 1, &mut scratch));
        }
    }
    // Line 11: D_DTW ← Min-max-normalization(D_DTW).
    let d_dtw = min_max_normalize(&d_dtw);
    // Lines 12–20: if D_DTW(i,j) ≤ k·den + b then SybilIDs ← AddingIDs(i, j).
    let mut sybil_ids: Vec<u64> = Vec::new();
    let mut idx = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            if d_dtw[idx] <= k * den + b {
                for id in [ids[i], ids[j]] {
                    if !sybil_ids.contains(&id) {
                        sybil_ids.push(id);
                    }
                }
            }
            idx += 1;
        }
    }
    // Line 21: return SybilIDs.
    sybil_ids
}

fn series() -> (Vec<Vec<f64>>, Vec<u64>) {
    let shape: Vec<f64> = (0..120).map(|t| (t as f64 * 0.13).sin() * 4.0).collect();
    let rssi = vec![
        (0..120)
            .map(|t| ((t as f64 * 0.05).cos() + (t as f64 * 0.19).sin()) * 3.0 - 75.0)
            .collect(),
        (0..120)
            .map(|t| ((t as f64 * 0.033).sin() - (t as f64 * 0.27).cos()) * 3.0 - 71.0)
            .collect(),
        shape.iter().map(|v| v - 70.0).collect(),
        shape.iter().map(|v| v - 65.0).collect(),
    ];
    (rssi, vec![1, 2, 100, 101])
}

#[test]
fn flags_the_sybil_pair() {
    let (rssi, ids) = series();
    let suspects = algorithm_1(&rssi, &ids, 10.0, 0.00054, 0.0483);
    assert_eq!(suspects, vec![100, 101]);
}

#[test]
fn agrees_with_production_pipeline() {
    let (rssi, ids) = series();
    let from_algorithm = {
        let mut s = algorithm_1(&rssi, &ids, 10.0, 0.00054, 0.0483);
        s.sort_unstable();
        s
    };
    let detector = VoiceprintDetector::with_comparison(
        ThresholdPolicy::Linear(DecisionLine {
            k: 0.00054,
            b: 0.0483,
        }),
        ComparisonConfig::default(),
        "vp",
    );
    let input: Vec<(u64, Vec<f64>)> = ids.iter().copied().zip(rssi).collect();
    let from_detector = detector.verdict(&input, 10.0).suspects().to_vec();
    assert_eq!(from_algorithm, from_detector);
}

#[test]
fn huge_threshold_flags_everyone() {
    let (rssi, ids) = series();
    let mut suspects = algorithm_1(&rssi, &ids, 10.0, 0.0, 2.0);
    suspects.sort_unstable();
    assert_eq!(suspects, vec![1, 2, 100, 101]);
}

#[test]
#[should_panic(expected = "one ID per series")]
fn mismatched_inputs_panic() {
    algorithm_1(&[vec![1.0]], &[1, 2], 10.0, 0.0, 0.0);
}

#[test]
fn non_finite_series_never_flag_and_never_panic() {
    let (mut rssi, mut ids) = series();
    rssi.push(vec![f64::NAN; 120]);
    ids.push(666);
    rssi.push(vec![f64::INFINITY; 120]);
    ids.push(667);
    let suspects = algorithm_1(&rssi, &ids, 10.0, 0.00054, 0.0483);
    assert!(!suspects.contains(&666));
    assert!(!suspects.contains(&667));
    // The clean Sybil pair is still caught despite the poison.
    assert!(suspects.contains(&100) && suspects.contains(&101));
}
