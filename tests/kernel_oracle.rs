//! The distance kernels against their scalar references.
//!
//! `vp-timeseries` computes every DTW distance with one anti-diagonal
//! (wavefront) dynamic program over integer Sakoe–Chiba band edges, and
//! every LB_Keogh bound with one clamped-gap form (DESIGN.md §14). The
//! textbook forms — the row-major scalar DP with its early-abandon rule,
//! the per-row branch LB_Keogh and the `f64` band edges both run on — are
//! test-only oracles in `tests/oracle/mod.rs`. This file checks, over an
//! adversarial seeded sweep and fixed shapes:
//!
//! 1. `dtw_banded`, with and without an abandon threshold, against the
//!    scalar DP over the same band: the value, the abandon decision and
//!    the carried bound;
//! 2. `dtw` against the scalar DP over the full matrix;
//! 3. LB_Keogh, one pair's envelope tables built and read, against the
//!    scalar LB_Keogh;
//! 4. `fast_dtw` against `fast_dtw_with_path(..).0`, whose top level runs
//!    the independent path-keeping DP;
//! 5. `sakoe_chiba_range` against the `f64` band edges on every row of a
//!    grid of shapes and radii;
//! 6. the shapes the wavefront order makes special: empty anti-diagonals,
//!    one row or one column, an unbounded radius, an abandon decided in
//!    the first or the last row, and a scratch dirtied by a larger
//!    problem;
//! 7. LB_Keogh read from prebuilt envelope tables (`KeoghEnvelope`,
//!    `lb_keogh_envelope`) against the scalar LB_Keogh, one table serving
//!    partners of every length, on the shapes where a row's envelope is a
//!    corner or the whole partner;
//! 8. the walked band edges (`SakoeChibaEdges`) against
//!    `sakoe_chiba_range` on the grid of item 5 and past `usize::MAX`
//!    cells;
//! 9. `dtw_with_path`, `fast_dtw_with_path` and `fast_dtw` against the
//!    row-major path DP and FastDTW's recursion around it: the distance,
//!    and the warp path step for step;
//! 10. `dtw_banded_lanes` over a `BandPlan` against the scalar DP lane by
//!     lane, and the comparator's no-threshold banded sweep, which runs
//!     same-shape pairs two at a time in those lanes, against the scalar
//!     DP pair by pair: groups of every parity, length-1 series, empty
//!     anti-diagonals, radii past both lengths, point costs that overflow
//!     to `+∞` and a series Eq. 7 maps partly to NaN, which runs alone.
//!
//! The contract is every non-NaN bit, and NaN exactly where the oracle
//! gives NaN. The NaN's sign bit is not part of it: an `∞ − ∞` NaN can
//! meet another NaN in a different order, and the two sides then return
//! NaNs of opposite sign. The RSSI-like and raw-bit cases run against the
//! same oracles in `tests/comparison_cascade.rs` and
//! `tests/pipeline_properties.rs`.

mod oracle;

use oracle::{
    float_band, scalar_banded, scalar_exact, scalar_fast_dtw_with_path, scalar_lb_keogh,
    scalar_windowed_path,
};
use voiceprint::comparator::{
    compare_cancellable_with_threads, compare_sequential, ComparisonConfig,
};
use vp_par::CancelToken;
use vp_stats::rng::SplitMix64;
use vp_timeseries::dtw::{
    dtw, dtw_banded, dtw_banded_lanes, dtw_with_path, BandPlan, BoundedDistance,
};
use vp_timeseries::fastdtw::{fast_dtw, fast_dtw_with_path};
use vp_timeseries::lowerbound::{lb_keogh_envelope, KeoghEnvelope};
use vp_timeseries::normalize::z_score_enhanced;
use vp_timeseries::window::{sakoe_chiba_range, SakoeChibaEdges};
use vp_timeseries::DtwScratch;

/// Seeded cases in the adversarial sweep.
const CASES: u64 = 1500;

// ---------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------

/// Every non-NaN bit, and NaN exactly where the oracle gives NaN.
fn assert_same(kernel: f64, oracle: f64, what: &str) {
    if oracle.is_nan() {
        assert!(
            kernel.is_nan(),
            "{what}: {kernel:?} where the oracle gives NaN"
        );
    } else {
        assert_eq!(
            kernel.to_bits(),
            oracle.to_bits(),
            "{what}: {kernel:?} vs oracle {oracle:?}"
        );
    }
}

/// The abandon decision and the carried value.
fn assert_same_bounded(kernel: BoundedDistance, oracle: BoundedDistance, what: &str) {
    assert_eq!(
        kernel.is_pruned(),
        oracle.is_pruned(),
        "{what}: abandon decision {kernel:?} vs oracle {oracle:?}"
    );
    assert_same(kernel.value(), oracle.value(), what);
}

/// Checks one `(x, y)` pair at `radius` on every kernel, with the
/// thresholds `thresholds` for the abandoning form. The scratch is reused
/// across calls on purpose: stale contents must never leak into a result.
fn check_pair(
    x: &[f64],
    y: &[f64],
    radius: usize,
    thresholds: &[f64],
    scratch: &mut DtwScratch,
    what: &str,
) {
    assert_same_bounded(
        dtw_banded(x, y, radius, None, scratch),
        scalar_banded(x, y, radius, None),
        &format!("{what}: banded r={radius}"),
    );
    for &t in thresholds {
        assert_same_bounded(
            dtw_banded(x, y, radius, Some(t), scratch),
            scalar_banded(x, y, radius, Some(t)),
            &format!("{what}: banded r={radius} abandon above {t:?}"),
        );
    }
    assert_same(
        lb_keogh_envelope(x, &KeoghEnvelope::build(y, radius)),
        scalar_lb_keogh(x, y, radius),
        &format!("{what}: lb_keogh r={radius}"),
    );
}

/// Checks the full-matrix and FastDTW kernels on one `(x, y)` pair.
fn check_exact_and_fast(x: &[f64], y: &[f64], radius: usize, scratch: &mut DtwScratch, what: &str) {
    assert_same(
        dtw(x, y, scratch),
        scalar_exact(x, y),
        &format!("{what}: exact"),
    );
    assert_same(
        fast_dtw(x, y, radius, scratch),
        fast_dtw_with_path(x, y, radius).0,
        &format!("{what}: fast_dtw r={radius}"),
    );
}

// ---------------------------------------------------------------------
// Seeded adversarial sweep.
// ---------------------------------------------------------------------

/// `len` samples of a random walk in which about `bad_per_mille` ‰ of the
/// samples are NaN or ±∞, or — when `raw` — arbitrary bit patterns (NaN
/// payloads, infinities, subnormals, zeros of both signs).
fn hostile_series(rng: &mut SplitMix64, len: usize, raw: bool, bad_per_mille: u64) -> Vec<f64> {
    let mut level = 0.0;
    (0..len)
        .map(|_| {
            if raw {
                return f64::from_bits(rng.next_u64());
            }
            level += rng.range_f64(-1.0..1.0);
            if rng.range_u64(0..1000) < bad_per_mille {
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.range_usize(0..3)]
            } else {
                level
            }
        })
        .collect()
}

/// Abandon thresholds around the oracle's banded distance `d`: well
/// below, just below, exactly at (the strict-inequality edge) and above;
/// a fixed spread when `d` is not finite.
fn thresholds_around(d: f64, rng: &mut SplitMix64) -> Vec<f64> {
    if d.is_finite() {
        vec![d * rng.range_f64(0.0..0.5), d * 0.999, d, d * 2.0 + 1.0]
    } else {
        vec![0.0, rng.range_f64(0.0..100.0), f64::INFINITY]
    }
}

#[test]
fn seeded_sweep_matches_the_oracles() {
    let mut scratch = DtwScratch::new();
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        // Lengths 1–200, with a third of the cases kept short so the
        // degenerate shapes (one row, one column) come up often.
        let max_len = if case % 3 == 0 { 12 } else { 201 };
        let n = rng.range_usize(1..max_len);
        let m = rng.range_usize(1..max_len);
        // One case in four: raw bit patterns. Otherwise a quarter of the
        // walks carry ~3% NaN/±∞ samples.
        let raw = case % 4 == 3;
        let bad = if rng.range_u64(0..4) == 0 { 30 } else { 0 };
        let x = hostile_series(&mut rng, n, raw, bad);
        let y = hostile_series(&mut rng, m, raw, bad);
        // Radii from 0 to past the longer length, biased towards the
        // narrow bands the comparator runs.
        let radius = if rng.fair_bool() {
            rng.range_usize(0..6)
        } else {
            rng.range_usize(0..n.max(m) + 8)
        };
        let d = scalar_banded(&x, &y, radius, None).value();
        let thresholds = thresholds_around(d, &mut rng);
        let what = format!("case {case} ({n}x{m})");
        check_pair(&x, &y, radius, &thresholds, &mut scratch, &what);
        check_exact_and_fast(&x, &y, rng.range_usize(0..4), &mut scratch, &what);
    }
}

// ---------------------------------------------------------------------
// Fixed cases: degenerate and skewed shapes, bands wider than both
// series, thresholds on both sides of the distance, hostile samples at
// the edges.
// ---------------------------------------------------------------------

fn uniform(rng: &mut SplitMix64, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.range_f64(lo..hi)).collect()
}

#[test]
fn fixed_shapes_match_the_oracles() {
    let mut scratch = DtwScratch::new();
    // Shapes and radii of the banded and full-matrix twin checks.
    let mut rng = SplitMix64::seed_from_u64(13);
    for (n, m) in [
        (1, 1),
        (1, 9),
        (9, 1),
        (2, 2),
        (5, 160),
        (160, 5),
        (12, 12),
        (40, 31),
        (31, 40),
        (80, 77),
        (97, 101),
        (128, 128),
    ] {
        let x = uniform(&mut rng, n, -5.0, 5.0);
        let y = uniform(&mut rng, m, -5.0, 5.0);
        let what = format!("shape {n}x{m}");
        for radius in [0usize, 1, 2, 3, 7, 10, 64, 500] {
            check_pair(&x, &y, radius, &[], &mut scratch, &what);
        }
        check_exact_and_fast(&x, &y, 1, &mut scratch, &what);
    }
    // The abandon decision straddling the distance, equality included.
    let mut rng = SplitMix64::seed_from_u64(99);
    for (n, m) in [(3, 3), (20, 26), (26, 20), (75, 75), (120, 111)] {
        let x = uniform(&mut rng, n, -5.0, 5.0);
        let y: Vec<f64> = uniform(&mut rng, m, -5.0, 5.0)
            .iter()
            .map(|v| v + 6.0)
            .collect();
        let d = scalar_banded(&x, &y, 4, None).value();
        let thresholds = [d / 16.0, d / 2.0, d, d * 2.0];
        check_pair(
            &x,
            &y,
            4,
            &thresholds,
            &mut scratch,
            &format!("abandon {n}x{m}"),
        );
    }
    // LB_Keogh shapes, including a band wider than both series.
    for (n, m, radius) in [
        (1usize, 1usize, 0usize),
        (1, 20, 2),
        (20, 1, 2),
        (3, 3, 1),
        (4, 4, 0),
        (5, 160, 4),
        (50, 50, 3),
        (77, 70, 16),
        (80, 61, 5),
        (61, 80, 1),
        (97, 101, 7),
        (33, 200, 400),
    ] {
        let x = uniform(
            &mut SplitMix64::seed_from_u64(n as u64 * 131 + m as u64),
            n,
            -7.0,
            7.0,
        );
        let y = uniform(
            &mut SplitMix64::seed_from_u64(m as u64 * 71 + 3),
            m,
            -7.0,
            7.0,
        );
        check_pair(&x, &y, radius, &[], &mut scratch, &format!("lb {n}x{m}"));
    }
}

#[test]
fn non_finite_samples_match_the_oracles() {
    let mut scratch = DtwScratch::new();
    let wave: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
    let noise = uniform(&mut SplitMix64::seed_from_u64(21), 70, -4.5, 4.5);
    for clean in [wave, noise] {
        let last = clean.len() - 1;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0usize, 7, 17, 31, last] {
                let mut dirty = clean.clone();
                dirty[at] = bad;
                let what = format!("len {} bad={bad} at={at}", clean.len());
                for radius in [0usize, 1, 2, 5, 9, 100] {
                    check_pair(&clean, &dirty, radius, &[1.0], &mut scratch, &what);
                    check_pair(&dirty, &clean, radius, &[1.0], &mut scratch, &what);
                }
                check_exact_and_fast(&clean, &dirty, 1, &mut scratch, &what);
            }
        }
        // Every DP cell NaN.
        let all_nan = vec![f64::NAN; 48];
        check_pair(&clean, &all_nan, 3, &[1.0], &mut scratch, "all NaN");
        check_pair(&all_nan, &clean, 3, &[1.0], &mut scratch, "all NaN");
        check_exact_and_fast(&clean, &all_nan, 1, &mut scratch, "all NaN");
    }
}

// ---------------------------------------------------------------------
// Band edges and the shapes the wavefront order makes special.
// ---------------------------------------------------------------------

#[test]
fn band_edges_match_the_float_form() {
    // Short and skewed widths, the comparator's 186–201-sample windows,
    // and widths past every row count.
    let widths = (1..=12)
        .chain(186..=201)
        .chain([31, 64, 97, 255, 260, 261, 400, 1000]);
    let mut rows_checked = 0usize;
    for m in widths {
        for n in 1..=260usize {
            for radius in [0, 1, 2, 3, 5, 10, 11, 40, n + m, usize::MAX / 2, usize::MAX] {
                let mut prev = (0, 0);
                for i in 0..n {
                    let band = sakoe_chiba_range(n, m, radius, i);
                    assert_eq!(
                        band,
                        float_band(n, m, radius, i),
                        "row {i} of {n}x{m}, radius {radius}"
                    );
                    // The DP's anti-diagonal intervals need monotone edges.
                    assert!(
                        band.0 >= prev.0 && band.1 >= prev.1,
                        "row {i} of {n}x{m}, radius {radius}: {band:?} after {prev:?}"
                    );
                    prev = band;
                }
                rows_checked += n;
            }
        }
    }
    assert_eq!(rows_checked, 36 * 11 * (260 * 261 / 2));
}

/// Checks `dtw_banded` at `radius` on a reused and on a fresh scratch
/// against the oracle, with and without an abandon threshold.
fn check_banded(x: &[f64], y: &[f64], radius: usize, scratch: &mut DtwScratch, what: &str) {
    let d = scalar_banded(x, y, radius, None).value();
    let thresholds = [0.0, d / 2.0, d, d * 2.0 + 1.0];
    check_pair(x, y, radius, &thresholds, scratch, what);
    check_pair(x, y, radius, &thresholds, &mut DtwScratch::new(), what);
}

#[test]
fn wavefront_shapes_match_the_oracles() {
    let mut rng = SplitMix64::seed_from_u64(5);
    let mut scratch = DtwScratch::new();
    // Dirty the scratch with a larger problem first. Identical series make
    // every stale cell 0.0, which any missing `+∞` would let through.
    let big = uniform(&mut rng, 300, -5.0, 5.0);
    assert_eq!(dtw(&big, &big, &mut scratch), 0.0);
    assert_eq!(
        dtw_banded(&big, &big, 7, Some(1.0), &mut scratch).value(),
        0.0
    );

    // Empty anti-diagonals: radius 0 with M ≥ 2N or N ≥ 2M leaves
    // consecutive rows whose column ranges do not overlap.
    for (n, m) in [(2, 5), (3, 6), (5, 10), (5, 23), (3, 200), (40, 97)] {
        let x = uniform(&mut rng, n, -5.0, 5.0);
        let y = uniform(&mut rng, m, -5.0, 5.0);
        for radius in [0, 1] {
            let what = format!("gap {n}x{m} r={radius}");
            check_banded(&x, &y, radius, &mut scratch, &what);
            check_banded(&y, &x, radius, &mut scratch, &format!("{what}, swapped"));
        }
    }

    // One row, one column, or both.
    for (n, m) in [(1, 1), (1, 2), (2, 1), (1, 200), (200, 1)] {
        let x = uniform(&mut rng, n, -5.0, 5.0);
        let y = uniform(&mut rng, m, -5.0, 5.0);
        for radius in [0, 1, 3, usize::MAX] {
            let what = format!("line {n}x{m} r={radius}");
            check_banded(&x, &y, radius, &mut scratch, &what);
        }
        check_exact_and_fast(&x, &y, 1, &mut scratch, &format!("line {n}x{m}"));
    }

    // An unbounded radius is the full matrix: a `+∞` band fraction
    // reaches the kernel as `usize::MAX`.
    for (n, m) in [(7, 7), (31, 40), (190, 201)] {
        let x = uniform(&mut rng, n, -5.0, 5.0);
        let y = uniform(&mut rng, m, -5.0, 5.0);
        let what = format!("unbounded {n}x{m}");
        check_banded(&x, &y, usize::MAX, &mut scratch, &what);
        let full = dtw(&x, &y, &mut scratch);
        let banded = dtw_banded(&x, &y, usize::MAX, None, &mut scratch);
        assert_eq!(banded, BoundedDistance::Exact(full), "{what}");
        assert_same(full, scalar_exact(&x, &y), &what);
    }

    // An abandon decided in the first row: every row-0 cell costs ≥ 100.
    // And one decided in the last row: `x` resamples `y` (`N ≥ M`, so the
    // resampled columns step by 0 or 1 inside the band) except for a far
    // last sample, so every earlier row holds a zero-cost path cell.
    for (n, m, radius) in [(9, 9, 2), (120, 111, 6), (200, 60, 10)] {
        let y = uniform(&mut rng, m, -5.0, 5.0);
        let far = uniform(&mut rng, n, 15.0, 20.0);
        let what = format!("first-row abandon {n}x{m}");
        let first = dtw_banded(&far, &y, radius, Some(1.0), &mut scratch);
        assert!(
            first.is_pruned() && first.value() >= 100.0,
            "{what}: {first:?}"
        );
        assert_same_bounded(first, scalar_banded(&far, &y, radius, Some(1.0)), &what);

        let mut x: Vec<f64> = (0..n).map(|i| y[i * (m - 1) / (n - 1)]).collect();
        x[n - 1] = 1000.0;
        let what = format!("last-row abandon {n}x{m}");
        let last = dtw_banded(&x, &y, radius, Some(1.0), &mut scratch);
        assert!(
            last.is_pruned() && last.value() >= 990.0 * 990.0,
            "{what}: {last:?}"
        );
        assert_same_bounded(last, scalar_banded(&x, &y, radius, Some(1.0)), &what);
        check_banded(&x, &y, radius, &mut scratch, &what);
    }
}

// ---------------------------------------------------------------------
// Envelope tables, walked band edges and warp paths.
// ---------------------------------------------------------------------

/// `n` samples of `rng` in `[-6, 6)`, with `bad` written at the positions
/// `at` that exist.
fn with_bad(rng: &mut SplitMix64, n: usize, bad: f64, at: &[usize]) -> Vec<f64> {
    let mut v = uniform(rng, n, -6.0, 6.0);
    for &k in at {
        if k < n {
            v[k] = bad;
        }
    }
    v
}

#[test]
fn envelope_tables_match_the_scalar_lb() {
    let mut rng = SplitMix64::seed_from_u64(77);
    // Partner lengths around each table's: one row, one column, equal,
    // and `cols ≥ 2·rows` either way round.
    let lengths = [1usize, 2, 3, 5, 8, 13, 40, 81, 160];
    for &m in &lengths {
        for bad in [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // A bad sample at both ends and inside (only `0.5` is clean).
            let y = with_bad(&mut rng, m, bad, &[0, m / 2, m - 1]);
            for radius in [0usize, 1, 2, 7, m, m + 5, usize::MAX] {
                let table = KeoghEnvelope::build(&y, radius);
                assert_eq!((table.len(), table.radius()), (m, radius));
                for &n in &lengths {
                    let x = with_bad(&mut rng, n, bad, &[n / 3]);
                    let what = format!("{n}x{m} r={radius} bad={bad}");
                    let oracle = scalar_lb_keogh(&x, &y, radius);
                    assert_same(lb_keogh_envelope(&x, &table), oracle, &what);
                }
            }
        }
    }
}

#[test]
fn walked_edges_match_the_definition() {
    // The grid of `band_edges_match_the_float_form`.
    let widths = (1..=12)
        .chain(186..=201)
        .chain([31, 64, 97, 255, 260, 261, 400, 1000]);
    let mut rows_checked = 0usize;
    for m in widths {
        for n in 1..=260usize {
            for radius in [0, 1, 2, 3, 5, 10, 11, 40, n + m, usize::MAX / 2, usize::MAX] {
                let walked = SakoeChibaEdges::new(n, m, radius);
                assert_eq!(walked.len(), n);
                for (i, edges) in walked.enumerate() {
                    assert_eq!(
                        edges,
                        sakoe_chiba_range(n, m, radius, i),
                        "row {i} of {n}x{m}, radius {radius}"
                    );
                }
                rows_checked += n;
            }
        }
    }
    assert_eq!(rows_checked, 36 * 11 * (260 * 261 / 2));
    // Past `usize::MAX` cells the first row's quotient takes 128 bits;
    // the walk from there adds only.
    let big = 1usize << (usize::BITS - 8);
    for (n, m, radius) in [(big, big, 0), (big, 2 * big - 1, 1), (big, 3 * big + 5, 7)] {
        let walked: Vec<_> = SakoeChibaEdges::starting_at(n, m, radius, n - 9).collect();
        let direct: Vec<_> = (n - 9..n)
            .map(|i| sakoe_chiba_range(n, m, radius, i))
            .collect();
        assert_eq!(walked, direct, "{n}x{m}, radius {radius}");
    }
    assert_eq!(
        SakoeChibaEdges::starting_at(big, big, 0, big - 7).next(),
        Some((big - 7, big - 7))
    );
}

/// The path kernels on one pair: `dtw_with_path` against the path oracle
/// over the full window, and `fast_dtw_with_path` and `fast_dtw` at
/// `radius` against FastDTW's recursion around it.
fn check_paths(x: &[f64], y: &[f64], radius: usize, scratch: &mut DtwScratch, what: &str) {
    let full = vec![(0, y.len() - 1); x.len()];
    let (d, path) = dtw_with_path(x, y);
    let (od, opath) = scalar_windowed_path(x, y, &full);
    assert_same(d, od, &format!("{what}: dtw_with_path"));
    assert_eq!(path, opath, "{what}: dtw_with_path");
    let (d, path) = fast_dtw_with_path(x, y, radius);
    let (od, opath) = scalar_fast_dtw_with_path(x, y, radius);
    assert_same(d, od, &format!("{what}: fast_dtw_with_path r={radius}"));
    assert_eq!(path, opath, "{what}: fast_dtw_with_path r={radius}");
    assert_same(
        fast_dtw(x, y, radius, scratch),
        od,
        &format!("{what}: fast_dtw r={radius}"),
    );
}

#[test]
fn path_kernels_match_the_path_oracle() {
    let mut scratch = DtwScratch::new();
    for case in 0..400u64 {
        let mut rng = SplitMix64::seed_from_u64(case + 10_000);
        let max_len = if case % 3 == 0 { 12 } else { 201 };
        let n = rng.range_usize(1..max_len);
        let m = rng.range_usize(1..max_len);
        // One case in eight: raw bit patterns; otherwise a quarter of the
        // walks carry ~3% NaN/±∞ samples.
        let raw = case % 8 == 7;
        let bad = if rng.range_u64(0..4) == 0 { 30 } else { 0 };
        let x = hostile_series(&mut rng, n, raw, bad);
        let y = hostile_series(&mut rng, m, raw, bad);
        let radius = rng.range_usize(0..4);
        check_paths(
            &x,
            &y,
            radius,
            &mut scratch,
            &format!("case {case} ({n}x{m})"),
        );
    }
    // The comparator's lengths, lengths straddling the minimum size, and
    // skewed shapes whose projected windows are one column wide.
    let mut rng = SplitMix64::seed_from_u64(31);
    for (n, m) in [
        (186, 200),
        (200, 200),
        (3, 3),
        (4, 4),
        (5, 4),
        (2, 90),
        (90, 2),
        (7, 160),
    ] {
        let x = uniform(&mut rng, n, -5.0, 5.0);
        let y = uniform(&mut rng, m, -5.0, 5.0);
        for radius in [0, 1, 2, 5, 300] {
            check_paths(&x, &y, radius, &mut scratch, &format!("shape {n}x{m}"));
        }
    }
    // Every DP cell NaN: every backtracking comparison is false.
    let clean = uniform(&mut rng, 40, -5.0, 5.0);
    let all_nan = vec![f64::NAN; 37];
    check_paths(&clean, &all_nan, 1, &mut scratch, "all NaN");
    check_paths(&all_nan, &clean, 1, &mut scratch, "all NaN");
}

// ---------------------------------------------------------------------
// Two pairs per wavefront: the lane DP and the comparator's lane sweep.
// ---------------------------------------------------------------------

/// A random walk of `len` finite samples times `scale`.
fn scaled_walk(rng: &mut SplitMix64, len: usize, scale: f64) -> Vec<f64> {
    hostile_series(rng, len, false, 0)
        .iter()
        .map(|v| v * scale)
        .collect()
}

/// `dtw_banded_lanes` over a `BandPlan` against the scalar DP, lane by
/// lane, on random shapes: one row or one column, radius 0 with
/// `M ≥ 2N` (empty anti-diagonals), radii at or past `max(N, M)`, and
/// finite samples whose point costs overflow to `+∞`.
#[test]
fn two_lane_kernel_matches_the_oracle() {
    let mut scratch = DtwScratch::new();
    let mut overflowed = 0;
    for case in 0..CASES / 3 {
        let mut rng = SplitMix64::seed_from_u64(40_000 + case);
        let max_len = if case % 3 == 0 { 8 } else { 201 };
        let n = rng.range_usize(1..max_len);
        let m = match case % 5 {
            0 => n,
            1 => 2 * n + rng.range_usize(0..5),
            _ => rng.range_usize(1..max_len),
        };
        let radius = match case % 4 {
            0 => 0,
            1 => n.max(m) + rng.range_usize(0..4),
            _ => rng.range_usize(0..12),
        };
        // One case in four: samples near 1e202, whose squared differences
        // overflow.
        let scale = if case % 4 == 3 { 1e200 } else { 1.0 };
        let x = [0, 1].map(|_| scaled_walk(&mut rng, n, scale));
        let y = [0, 1].map(|_| scaled_walk(&mut rng, m, scale));
        let plan = BandPlan::new(n, m, radius);
        let both = dtw_banded_lanes(&plan, [&x[0], &x[1]], [&y[0], &y[1]], &mut scratch);
        for lane in 0..2 {
            let what = format!("case {case} ({n}x{m}, r={radius}) lane {lane}");
            let oracle = scalar_banded(&x[lane], &y[lane], radius, None).value();
            assert_same(both[lane], oracle, &what);
            overflowed += usize::from(oracle == f64::INFINITY);
        }
    }
    assert!(overflowed > 0, "no case overflowed to +∞");
}

/// The comparator's no-threshold banded sweep — pairs grouped by band
/// shape, two per wavefront, the odd one out and every pair touching a
/// series that is non-finite after Eq. 7 alone — against the scalar DP
/// pair by pair, on populations whose repeated lengths give groups of
/// every parity, length-1 series included, at one and at two threads.
#[test]
fn lane_sweep_matches_the_oracle() {
    let lengths = [1, 2, 3, 3, 5, 5, 5, 8, 40, 40, 41, 41, 41, 96, 97];
    for case in 0..8u64 {
        let mut rng = SplitMix64::seed_from_u64(50_000 + case);
        // Even cases run Eq. 7 and carry one series it maps partly to NaN;
        // odd cases skip it, and one series in three is scaled so that its
        // point costs overflow to +∞.
        let z_score = case % 2 == 0;
        let mut series: Vec<(u64, Vec<f64>)> = lengths
            .iter()
            .enumerate()
            .map(|(id, &len)| {
                let scale = if !z_score && id % 3 == 0 { 1e200 } else { 1.0 };
                (id as u64, scaled_walk(&mut rng, len, scale))
            })
            .collect();
        if z_score {
            // Finite samples whose running mean never overflows but whose
            // spread does: σ is +∞, the first sample's distance from the
            // mean overflows, and Eq. 7 gives NaN there and 0 elsewhere.
            // With NaN at one end of a series the lanes' plain min and
            // `f64::min` give different results, so only the fallback
            // matches the oracle.
            let ramp = [0.6, 0.3, 0.0, -0.3];
            let overflowing = (0..41)
                .map(|k| ramp.get(k).copied().unwrap_or(-0.6) * f64::MAX)
                .collect();
            series.push((lengths.len() as u64, overflowing));
        }
        let config = ComparisonConfig {
            z_score_normalize: z_score,
            min_series_len: 1,
            ..ComparisonConfig::default()
        };
        let prepared: Vec<Vec<f64>> = series
            .iter()
            .map(|(_, s)| {
                if z_score {
                    z_score_enhanced(s)
                } else {
                    s.clone()
                }
            })
            .collect();
        if z_score {
            let partly_nan = |s: &Vec<f64>| s[0].is_nan() && s[1..].iter().all(|v| v.is_finite());
            assert!(prepared.iter().any(partly_nan));
        }
        for (threads, pd) in [
            (1, compare_sequential(&series, &config)),
            (
                2,
                compare_cancellable_with_threads(&series, &config, 2, &CancelToken::manual()).0,
            ),
        ] {
            assert_eq!(pd.len(), prepared.len(), "case {case}: ids dropped");
            for i in 0..prepared.len() {
                for j in i + 1..prepared.len() {
                    let max_len = prepared[i].len().max(prepared[j].len());
                    let radius = ((max_len as f64 * 0.05).ceil() as usize).max(3);
                    let oracle = scalar_banded(&prepared[i], &prepared[j], radius, None).value()
                        / max_len as f64;
                    let what = format!("case {case}, {threads} thread(s), pair ({i}, {j})");
                    assert_same(pd.raw_between(i, j), oracle, &what);
                }
            }
        }
    }
}
