//! Property-based integration tests over the detection pipeline:
//! invariants that must hold for arbitrary inputs, spanning
//! vp-timeseries, vp-classify and voiceprint.

mod oracle;

use oracle::{scalar_banded, scalar_exact, scalar_lb_keogh};
use voiceprint::collector::Collector;
use voiceprint::comparator::{compare, compare_sequential, ComparisonConfig, DistanceMeasure};
use voiceprint::confirm::confirm;
use voiceprint::threshold::ThresholdPolicy;
use vp_stats::rng::SplitMix64;
use vp_timeseries::dtw::{dtw, dtw_banded, dtw_with_path, is_valid_warp_path};
use vp_timeseries::fastdtw::{fast_dtw, fast_dtw_with_path};
use vp_timeseries::lowerbound::{lb_keogh_envelope, KeoghEnvelope};
use vp_timeseries::normalize::{min_max_normalize, z_score_enhanced};
use vp_timeseries::scratch::DtwScratch;

/// Every loop below runs this many seeded cases.
const CASES: u64 = 64;

/// An RSSI-like series of `2..max_len` samples in `[-95, -40)` dBm.
fn series(rng: &mut SplitMix64, max_len: usize) -> Vec<f64> {
    let len = rng.range_usize(2..max_len);
    (0..len).map(|_| rng.range_f64(-95.0..-40.0)).collect()
}

/// `0..max_words` raw `u64` words, reinterpreted as `f64` bit patterns
/// downstream: every NaN payload, both infinities, subnormals, zeros —
/// the full adversarial surface, not just "nice" floats.
fn raw_bits(rng: &mut SplitMix64, max_words: usize) -> Vec<u64> {
    let len = rng.range_usize(0..max_words);
    (0..len).map(|_| rng.next_u64()).collect()
}

#[test]
fn dtw_is_symmetric_nonnegative_and_zero_on_self() {
    let mut s = DtwScratch::new();
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let x = series(&mut rng, 40);
        let y = series(&mut rng, 40);
        let d = dtw(&x, &y, &mut s);
        assert!(d >= 0.0, "case {case}: {d}");
        assert!((d - dtw(&y, &x, &mut s)).abs() < 1e-9, "case {case}");
        assert_eq!(dtw(&x, &x, &mut s), 0.0, "case {case}");
    }
}

#[test]
fn constrained_variants_never_underestimate_exact_dtw() {
    let mut s = DtwScratch::new();
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let x = series(&mut rng, 40);
        let y = series(&mut rng, 40);
        let exact = dtw(&x, &y, &mut s);
        assert!(fast_dtw(&x, &y, 1, &mut s) >= exact - 1e-9, "case {case}");
        let banded = dtw_banded(&x, &y, 3, None, &mut s).value();
        assert!(banded >= exact - 1e-9, "case {case}");
        // And a maximal band equals exact DTW.
        let maximal = dtw_banded(&x, &y, x.len().max(y.len()), None, &mut s).value();
        assert!((maximal - exact).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn warp_paths_are_valid_and_account_for_the_distance() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let x = series(&mut rng, 30);
        let y = series(&mut rng, 30);
        let (d, path) = dtw_with_path(&x, &y);
        assert!(is_valid_warp_path(&path, x.len(), y.len()), "case {case}");
        let total: f64 = path
            .iter()
            .map(|&(i, j)| (x[i] - y[j]) * (x[i] - y[j]))
            .sum();
        assert!((total - d).abs() < 1e-9, "case {case}: {total} vs {d}");
    }
}

#[test]
fn z_score_makes_tx_power_irrelevant() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let x = series(&mut rng, 60);
        let offset = rng.range_f64(-10.0..10.0);
        let shifted: Vec<f64> = x.iter().map(|v| v + offset).collect();
        let a = z_score_enhanced(&x);
        let b = z_score_enhanced(&shifted);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9, "case {case}: {p} vs {q}");
        }
    }
}

#[test]
fn min_max_is_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let len = rng.range_usize(1..60);
        let values: Vec<f64> = (0..len).map(|_| rng.range_f64(0.0..1e6)).collect();
        let n = min_max_normalize(&values);
        for v in &n {
            assert!((0.0..=1.0).contains(v), "case {case}: {v}");
        }
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    assert!(n[i] <= n[j], "case {case}: ({i}, {j})");
                }
            }
        }
    }
}

#[test]
fn comparison_output_is_input_order_invariant() {
    for case in 0..CASES {
        let seed = SplitMix64::seed_from_u64(case).range_u64(0..1000);
        // Build a deterministic neighbourhood from the seed and compare it
        // in two different input orders.
        let series: Vec<(u64, Vec<f64>)> = (0..5u64)
            .map(|id| {
                let s: Vec<f64> = (0..120)
                    .map(|k| (k as f64 * 0.1 + (seed + id) as f64).sin() * 4.0 - 70.0)
                    .collect();
                (id, s)
            })
            .collect();
        let mut reversed = series.clone();
        reversed.reverse();
        let cfg = ComparisonConfig::default();
        let a = compare(&series, &cfg);
        let b = compare(&reversed, &cfg);
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn parallel_comparison_is_bit_identical_to_sequential() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.range_u64(0..500);
        let n_ids = rng.range_u64(3..10);
        // The parallel engine must be indistinguishable from the
        // sequential sweep: same pairs, bitwise-equal distances.
        let series: Vec<(u64, Vec<f64>)> = (0..n_ids)
            .map(|id| {
                let len = 100 + ((seed + id * 13) % 40) as usize;
                let s: Vec<f64> = (0..len)
                    .map(|k| (k as f64 * 0.09 + (seed * 3 + id * 11) as f64).sin() * 4.5 - 71.0)
                    .collect();
                (id, s)
            })
            .collect();
        for cfg in [
            ComparisonConfig::default(),
            ComparisonConfig::paper_strict(),
            ComparisonConfig {
                measure: DistanceMeasure::ExactDtw,
                ..ComparisonConfig::default()
            },
        ] {
            let par = compare(&series, &cfg);
            let seq = compare_sequential(&series, &cfg);
            assert_eq!(par, seq, "case {case}");
        }
    }
}

#[test]
fn pruned_comparison_classifies_identically() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.range_u64(0..500);
        let threshold = rng.range_f64(0.001..0.5);
        // Lower-bound pruning may replace a distance with a lower bound,
        // but only when both sit strictly above the prune threshold: every
        // pair keeps its side of the threshold, and no stored value ever
        // underestimates the true distance.
        let series: Vec<(u64, Vec<f64>)> = (0..8u64)
            .map(|id| {
                let s: Vec<f64> = (0..130)
                    .map(|k| (k as f64 * 0.08 + (seed * 5 + id * 7) as f64).sin() * 5.0 - 73.0)
                    .collect();
                (id, s)
            })
            .collect();
        let exact_cfg = ComparisonConfig::default();
        let pruned_cfg = ComparisonConfig {
            prune_threshold: Some(threshold),
            ..exact_cfg
        };
        let exact = compare(&series, &exact_cfg);
        let pruned = compare(&series, &pruned_cfg);
        let exact_pairs: Vec<(u64, u64, f64)> = exact.iter().collect();
        let pruned_pairs: Vec<(u64, u64, f64)> = pruned.iter().collect();
        assert_eq!(exact_pairs.len(), pruned_pairs.len(), "case {case}");
        for (&(a1, b1, de), &(a2, b2, dp)) in exact_pairs.iter().zip(&pruned_pairs) {
            assert_eq!((a1, b1), (a2, b2), "case {case}");
            assert_eq!(
                de <= threshold,
                dp <= threshold,
                "case {case}: classification changed"
            );
            assert!(
                dp <= de + 1e-12,
                "case {case}: stored value overestimates: {dp} > {de}"
            );
            if dp != de {
                assert!(
                    dp > threshold,
                    "case {case}: replaced value not above threshold"
                );
            }
        }
    }
}

#[test]
fn scratch_kernels_match_allocating_kernels() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let x = series(&mut rng, 50);
        let y = series(&mut rng, 50);
        let radius = rng.range_usize(0..6);
        let mut scratch = DtwScratch::new();
        // Dirty the scratch with an unrelated computation first: reuse
        // must not leak state between calls. The references allocate
        // their own buffers.
        let _ = dtw(&y, &x, &mut scratch);
        let d = dtw(&x, &y, &mut scratch);
        assert_eq!(d.to_bits(), scalar_exact(&x, &y).to_bits(), "case {case}");
        let b = dtw_banded(&x, &y, radius, None, &mut scratch).value();
        assert_eq!(
            b.to_bits(),
            scalar_banded(&x, &y, radius, None).value().to_bits(),
            "case {case}"
        );
        let f = fast_dtw(&x, &y, 1, &mut scratch);
        assert_eq!(
            f.to_bits(),
            fast_dtw_with_path(&x, &y, 1).0.to_bits(),
            "case {case}"
        );
        let lb = lb_keogh_envelope(&x, &KeoghEnvelope::build(&y, radius));
        assert_eq!(
            lb.to_bits(),
            scalar_lb_keogh(&x, &y, radius).to_bits(),
            "case {case}"
        );
    }
}

#[test]
fn full_pipeline_never_panics_on_arbitrary_beacon_streams() {
    for case in 0..CASES {
        let raw = raw_bits(&mut SplitMix64::seed_from_u64(case), 240);
        // Interpret the words as a beacon stream of (identity, time bits,
        // RSSI bits) triples — the exact shape a hostile or broken radio
        // hands the collector — and run collection → comparison →
        // confirmation end to end. The property: no panic, ever, and the
        // collector stores only finite samples.
        let mut collector = Collector::new(20.0);
        for chunk in raw.chunks(3) {
            if chunk.len() < 3 {
                break;
            }
            collector.record(
                chunk[0] % 6,
                f64::from_bits(chunk[1]),
                f64::from_bits(chunk[2]),
            );
        }
        let series = collector.series_at(10.0, 1);
        for (_, s) in &series {
            assert!(
                s.iter().all(|v| v.is_finite()),
                "case {case}: ingest gate leaked"
            );
        }
        let cfg = ComparisonConfig {
            min_series_len: 1,
            ..ComparisonConfig::default()
        };
        let distances = compare(&series, &cfg);
        assert!(
            distances.quarantined_ids().is_empty(),
            "case {case}: gated input cannot need quarantine"
        );
        let verdict = confirm(&distances, 10.0, &ThresholdPolicy::paper_simulation());
        for id in verdict.suspects() {
            assert!(series.iter().any(|(sid, _)| sid == id), "case {case}: {id}");
        }
    }
}

#[test]
fn ungated_series_degrade_to_an_explicit_quarantine_verdict() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let raw = raw_bits(&mut rng, 200);
        let density_bits = rng.next_u64();
        // A hostile source that bypasses the ingest gate entirely and
        // feeds raw bit patterns straight into comparison: the pipeline
        // must quarantine exactly the identities with non-finite samples,
        // never flag them, and never panic — even when the density (and
        // hence the threshold) is itself garbage.
        let n_ids = 5usize;
        let mut series: Vec<(u64, Vec<f64>)> =
            (0..n_ids as u64).map(|id| (id, Vec::new())).collect();
        for (k, w) in raw.iter().enumerate() {
            series[k % n_ids].1.push(f64::from_bits(*w));
        }
        series.retain(|(_, s)| !s.is_empty());
        let cfg = ComparisonConfig {
            min_series_len: 1,
            ..ComparisonConfig::default()
        };
        let distances = compare(&series, &cfg);
        let dirty: Vec<u64> = series
            .iter()
            .filter(|(_, s)| !s.iter().all(|v| v.is_finite()))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(distances.quarantined_ids(), &dirty[..], "case {case}");
        let verdict = confirm(
            &distances,
            f64::from_bits(density_bits),
            &ThresholdPolicy::paper_simulation(),
        );
        assert_eq!(
            verdict.degradation().identities_quarantined,
            dirty.len() as u64,
            "case {case}"
        );
        for id in &dirty {
            assert!(
                !verdict.suspects().contains(id),
                "case {case}: flagged a quarantined identity"
            );
        }
    }
}

#[test]
fn confirmation_is_monotone_in_threshold() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.range_u64(0..500);
        let t1 = rng.range_f64(0.0..0.5);
        let t2 = rng.range_f64(0.0..0.5);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let series: Vec<(u64, Vec<f64>)> = (0..6u64)
            .map(|id| {
                let s: Vec<f64> = (0..120)
                    .map(|k| (k as f64 * 0.07 + (seed * 7 + id * 3) as f64).sin() * 5.0 - 72.0)
                    .collect();
                (id, s)
            })
            .collect();
        let distances = compare(
            &series,
            &ComparisonConfig {
                measure: DistanceMeasure::FastDtw { radius: 1 },
                ..ComparisonConfig::default()
            },
        );
        let strict = confirm(&distances, 10.0, &ThresholdPolicy::Constant(lo));
        let loose = confirm(&distances, 10.0, &ThresholdPolicy::Constant(hi));
        for id in strict.suspects() {
            assert!(
                loose.suspects().contains(id),
                "case {case}: suspect {id} lost when loosening"
            );
        }
    }
}
