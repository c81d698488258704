//! Property tests for the sub-quadratic comparison cascade: the
//! cross-window result cache, the sketch triage lower bound, and the
//! production kernels (the anti-diagonal DP and the clamped-gap LB_Keogh).
//! The contracts under test are the ones DESIGN.md §14 pins:
//!
//! 1. Cached sweeps are **bit-identical** to cache-off sweeps, for any
//!    cache state a sliding-window workload can produce.
//! 2. The sketch lower bound is **admissible**: it never exceeds the
//!    banded DTW distance it gates.
//! 3. The production kernels match the scalar references in
//!    `tests/oracle/mod.rs` **bit for bit** on these cases, including on
//!    non-finite inputs. `tests/kernel_oracle.rs` runs the wider
//!    adversarial sweep, where only the NaN's sign may differ.
//! 4. A pruned sweep — sketch triage, LB_Keogh read from per-sweep
//!    envelope tables, abandoning DP — stores, for every pair, **the
//!    bits** a pair-by-pair reference built from the public kernels
//!    stores.

mod oracle;

use oracle::{scalar_banded, scalar_exact, scalar_lb_keogh};
use voiceprint::comparator::{compare, compare_with_cache, ComparisonConfig};
use voiceprint::ComparisonCache;
use vp_stats::rng::SplitMix64;
use vp_timeseries::dtw::{dtw, dtw_banded, BoundedDistance};
use vp_timeseries::lowerbound::lb_keogh_banded;
use vp_timeseries::normalize::z_score_enhanced;
use vp_timeseries::scratch::DtwScratch;
use vp_timeseries::sketch::{sketch_lower_bound, SeriesSketch};

/// Every loop below runs this many seeded cases.
const CASES: u64 = 32;

/// An RSSI-like series of `2..max_len` samples in `[-95, -40)` dBm.
fn series(rng: &mut SplitMix64, max_len: usize) -> Vec<f64> {
    let len = rng.range_usize(2..max_len);
    (0..len).map(|_| rng.range_f64(-95.0..-40.0)).collect()
}

/// `1..max_words` raw words reinterpreted as `f64` bit patterns: NaN
/// payloads, infinities, subnormals — the adversarial surface the kernels
/// must stay bit-identical on.
fn raw_bits(rng: &mut SplitMix64, max_words: usize) -> Vec<f64> {
    let len = rng.range_usize(1..max_words);
    (0..len).map(|_| f64::from_bits(rng.next_u64())).collect()
}

/// One sliding window's neighbourhood: identity `id`'s series depends on
/// `seed` and, for identities in the dirty rotation of `round`, on the
/// round too — so successive rounds re-present most series unchanged,
/// exactly the shape the cache is designed for.
fn window_series(seed: u64, round: u64, n_ids: u64) -> Vec<(u64, Vec<f64>)> {
    (0..n_ids)
        .map(|id| {
            let dirty = (id + round) % n_ids < 2;
            let phase = seed as f64 * 0.13
                + id as f64 * 1.7
                + if dirty { round as f64 * 0.31 } else { 0.0 };
            let s: Vec<f64> = (0..110)
                .map(|k| (k as f64 * 0.09 + phase).sin() * 4.5 - 71.0)
                .collect();
            (id, s)
        })
        .collect()
}

#[test]
fn cached_sweeps_are_bit_identical_across_sliding_windows() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.range_u64(0..500);
        let n_ids = rng.range_u64(4..9);
        let threshold = rng.range_f64(0.001..0.5);
        // Both with the full cascade armed (prune threshold present ⇒
        // sketch triage active) and with the plain exact sweep.
        for prune in [None, Some(threshold)] {
            let cfg = ComparisonConfig {
                prune_threshold: prune,
                ..ComparisonConfig::default()
            };
            let mut cache = ComparisonCache::new(256);
            for round in 0..4u64 {
                let series = window_series(seed, round, n_ids);
                let plain = compare(&series, &cfg);
                let (cached, counters) = compare_with_cache(&series, &cfg, &mut cache);
                assert_eq!(&cached, &plain, "case {case}, round {round}");
                // Distances bitwise, not just PartialEq (ruling out
                // 0.0/-0.0 conflation).
                for ((a1, b1, da), (a2, b2, db)) in cached.iter().zip(plain.iter()) {
                    assert_eq!((a1, b1), (a2, b2), "case {case}, round {round}");
                    assert_eq!(da.to_bits(), db.to_bits(), "case {case}, round {round}");
                }
                assert_eq!(
                    counters.cache_hits + counters.cache_misses,
                    counters.pairs,
                    "case {case}, round {round}: every pair is either a hit or a miss"
                );
                if round > 0 {
                    // At most 2 dirty identities per round: every pair of
                    // two clean identities must be answered from the cache.
                    let clean = n_ids - 2;
                    assert!(
                        counters.cache_hits >= clean * (clean - 1) / 2,
                        "case {case}, round {round}: only {} hits over {} pairs",
                        counters.cache_hits,
                        counters.pairs
                    );
                }
            }
        }
    }
}

#[test]
fn sketch_lower_bound_is_admissible() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let x = series(&mut rng, 60);
        let y = series(&mut rng, 60);
        let radius = rng.range_usize(0..8);
        let d = dtw_banded(&x, &y, radius, None, &mut DtwScratch::new()).value();
        let sx = SeriesSketch::build(&x);
        let sy = SeriesSketch::build(&y);
        let slb = sketch_lower_bound(&sx, &sy, radius);
        assert!(slb >= 0.0, "case {case}: sketch bound {slb}");
        assert!(slb.is_finite(), "case {case}: sketch bound {slb}");
        // Admissibility with a relative float-summation allowance (the
        // two sums associate differently).
        assert!(
            slb <= d * (1.0 + 1e-9) + 1e-9,
            "case {case}: sketch bound {slb} exceeds banded DTW {d}"
        );
    }
}

/// The production kernels — the anti-diagonal DP (banded with and without
/// an abandon threshold, and over the full matrix) and LB_Keogh — against
/// the scalar references on RSSI-like series. The name predates the
/// wavefront DP, which replaced a 4-lane unrolled one.
#[test]
fn unrolled_kernels_match_scalar_bit_for_bit() {
    let mut scratch = DtwScratch::new();
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let x = series(&mut rng, 70);
        let y = series(&mut rng, 70);
        let radius = rng.range_usize(0..8);
        let threshold = rng.range_f64(0.0..500.0);
        let d_scalar = scalar_banded(&x, &y, radius, None);
        let d_x4 = dtw_banded(&x, &y, radius, None, &mut scratch);
        assert_eq!(
            d_scalar.value().to_bits(),
            d_x4.value().to_bits(),
            "case {case}"
        );
        let p_scalar = scalar_banded(&x, &y, radius, Some(threshold));
        let p_x4 = dtw_banded(&x, &y, radius, Some(threshold), &mut scratch);
        assert_eq!(p_scalar.is_pruned(), p_x4.is_pruned(), "case {case}");
        assert_eq!(
            p_scalar.value().to_bits(),
            p_x4.value().to_bits(),
            "case {case}"
        );
        let lb_scalar = scalar_lb_keogh(&x, &y, radius);
        let lb_x4 = lb_keogh_banded(&x, &y, radius, &mut scratch);
        assert_eq!(lb_scalar.to_bits(), lb_x4.to_bits(), "case {case}");
        // The same DP over the full matrix.
        let e_scalar = scalar_exact(&x, &y);
        let e_x4 = dtw(&x, &y, &mut scratch);
        assert_eq!(e_scalar.to_bits(), e_x4.to_bits(), "case {case}");
    }
}

/// The banded DP and LB_Keogh against the scalar references on raw bit
/// patterns; named, like the test above, for the kernel the wavefront DP
/// replaced.
#[test]
fn unrolled_kernels_match_scalar_on_arbitrary_bit_patterns() {
    let mut scratch = DtwScratch::new();
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        // Hostile inputs: every NaN payload, infinities, subnormals. The
        // kernels must still track the scalar references bit for bit (NaN
        // vs NaN compares equal through to_bits).
        let x = raw_bits(&mut rng, 40);
        let y = raw_bits(&mut rng, 40);
        let radius = rng.range_usize(0..6);
        let d_scalar = scalar_banded(&x, &y, radius, None).value();
        let d_x4 = dtw_banded(&x, &y, radius, None, &mut scratch).value();
        assert_eq!(d_scalar.to_bits(), d_x4.to_bits(), "case {case}");
        let lb_scalar = scalar_lb_keogh(&x, &y, radius);
        let lb_x4 = lb_keogh_banded(&x, &y, radius, &mut scratch);
        assert_eq!(lb_scalar.to_bits(), lb_x4.to_bits(), "case {case}");
    }
}

/// One pair of a pruned banded sweep, stage by stage from the public
/// kernels: the sketch bound, then `lb_keogh_banded`, then the abandoning
/// `dtw_banded`, each against the threshold in raw-cost units, and the
/// per-step division of the calibrated configuration.
fn cascade_reference(a: &[f64], b: &[f64], band_fraction: f64, threshold: f64) -> f64 {
    let max_len = a.len().max(b.len());
    let radius = ((max_len as f64 * band_fraction).ceil() as usize).max(3);
    let t_raw = threshold * max_len as f64;
    let slb = sketch_lower_bound(&SeriesSketch::build(a), &SeriesSketch::build(b), radius);
    let raw = if slb > t_raw {
        slb
    } else {
        let lb = lb_keogh_banded(a, b, radius, &mut DtwScratch::new());
        if lb > t_raw {
            lb
        } else {
            match dtw_banded(a, b, radius, Some(t_raw), &mut DtwScratch::new()) {
                BoundedDistance::Exact(d) | BoundedDistance::AboveThreshold(d) => d,
            }
        }
    };
    raw / max_len as f64
}

/// Every stored distance of a pruned sweep equals the pair-by-pair
/// reference, bit for bit, on the sliding-window populations above and on
/// RSSI-like series of mixed lengths — so partners of every length read
/// the same envelope a per-pair LB_Keogh builds, at every band radius the
/// sweep uses.
#[test]
fn pruned_sweeps_equal_the_pair_by_pair_cascade() {
    let (mut triaged, mut lb_pruned, mut abandoned, mut exact) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case + 500);
        let n_ids = rng.range_u64(4..12);
        let population: Vec<(u64, Vec<f64>)> = if case % 2 == 0 {
            window_series(rng.range_u64(0..500), rng.range_u64(0..4), n_ids)
        } else {
            (0..n_ids)
                .map(|id| {
                    let len = rng.range_usize(100..241);
                    let mut level = rng.range_f64(-90.0..-50.0);
                    let s = (0..len)
                        .map(|_| {
                            level += rng.range_f64(-1.5..1.5);
                            level
                        })
                        .collect();
                    (id, s)
                })
                .collect()
        };
        let band_fraction = [0.05, 0.025, 0.1][case as usize % 3];
        let threshold = rng.range_f64(0.001..0.3);
        let cfg = ComparisonConfig {
            measure: voiceprint::DistanceMeasure::BandedDtw { band_fraction },
            prune_threshold: Some(threshold),
            ..ComparisonConfig::default()
        };
        let (pd, counters) = compare_with_cache(&population, &cfg, &mut ComparisonCache::new(256));
        assert_eq!(pd.len(), population.len(), "case {case}");
        triaged += counters.triage_rejected;
        lb_pruned += counters.pruned_lb;
        abandoned += counters.pruned_abandon;
        let prepared: Vec<Vec<f64>> = population
            .iter()
            .map(|(_, s)| z_score_enhanced(s))
            .collect();
        for i in 0..prepared.len() {
            for j in (i + 1)..prepared.len() {
                let reference =
                    cascade_reference(&prepared[i], &prepared[j], band_fraction, threshold);
                assert_eq!(
                    pd.raw_between(i, j).to_bits(),
                    reference.to_bits(),
                    "case {case}, pair ({i}, {j})"
                );
                exact += usize::from(reference <= threshold);
            }
        }
    }
    // Every stage decided some pairs, and some pairs stayed exact.
    assert!(
        triaged > 0 && lb_pruned > 0 && abandoned > 0 && exact > 0,
        "triage {triaged}, LB {lb_pruned}, abandon {abandoned}, exact {exact}"
    );
}
