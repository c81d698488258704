//! FastDTW (Salvador & Chan, reference [24] of the paper).
//!
//! FastDTW approximates exact DTW in linear time and space by a
//! multi-resolution scheme:
//!
//! 1. **Coarsen** both series by a factor of two (average adjacent pairs).
//! 2. **Recurse** on the coarse series to find a warp path.
//! 3. **Project** the coarse path to full resolution and **expand** it by
//!    `radius` cells in every direction.
//! 4. Run the dynamic program of [`crate::dtw`] inside the expanded
//!    window.
//!
//! With radius 1 the approximation error is typically below 1% — the
//! figure the paper quotes when arguing FastDTW is accurate enough for
//! Sybil detection.

use crate::dtw::{dtw, dtw_windowed, dtw_windowed_with_path, dtw_with_path};
use crate::scratch::DtwScratch;
use crate::series::{coarsen, coarsen_into};
use crate::window::SearchWindow;

/// Minimum series length below which FastDTW falls back to exact DTW.
///
/// Matches Salvador & Chan's `minTSsize = radius + 2` lower bound: below
/// this the coarse problem cannot be meaningfully smaller.
fn min_ts_size(radius: usize) -> usize {
    radius + 2
}

/// FastDTW distance with the given expansion `radius`.
///
/// Larger radii trade speed for accuracy; `radius >= max(len)` degenerates
/// to exact DTW. The distance uses the same squared-cost convention as
/// [`crate::dtw::dtw`], so values are directly comparable.
///
/// The full-resolution level — which dominates both time and memory —
/// runs the crate's one DP inside the projected window, out of
/// `scratch`, and the top-level coarsened copies of both series live in
/// pooled scratch buffers. The coarser levels find their warp paths with
/// [`fast_dtw_with_path`] (they must keep DP tables to backtrack), so the
/// distance equals `fast_dtw_with_path(x, y, radius).0`. Short series fall
/// back to [`crate::dtw::dtw`] on the same scratch.
///
/// # Panics
///
/// Panics if either series is empty.
///
/// # Example
///
/// ```
/// use vp_timeseries::{dtw::dtw, fastdtw::fast_dtw, DtwScratch};
///
/// let mut scratch = DtwScratch::new();
/// let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.1).sin()).collect();
/// let y: Vec<f64> = (0..190).map(|i| (i as f64 * 0.1 + 0.2).sin()).collect();
/// let exact = dtw(&x, &y, &mut scratch);
/// let fast = fast_dtw(&x, &y, 1, &mut scratch);
/// assert!(fast >= exact); // windowed search can only overestimate
/// assert!(fast <= exact.max(1e-9) * 1.25 + 1e-9);
/// ```
pub fn fast_dtw(x: &[f64], y: &[f64], radius: usize, scratch: &mut DtwScratch) -> f64 {
    assert!(
        !x.is_empty() && !y.is_empty(),
        "fast_dtw requires non-empty series"
    );
    let min_size = min_ts_size(radius);
    if x.len() <= min_size || y.len() <= min_size {
        return dtw(x, y, scratch);
    }
    let mut coarse_x = std::mem::take(&mut scratch.coarse_x);
    let mut coarse_y = std::mem::take(&mut scratch.coarse_y);
    coarsen_into(x, &mut coarse_x);
    coarsen_into(y, &mut coarse_y);
    let (_, coarse_path) = fast_dtw_with_path(&coarse_x, &coarse_y, radius);
    let coarse_window = window_from_path(&coarse_path, coarse_y.len());
    scratch.coarse_x = coarse_x;
    scratch.coarse_y = coarse_y;
    let window = coarse_window.expand_from_half_resolution(x.len(), y.len(), radius);
    dtw_windowed(x, y, &window, scratch)
}

/// FastDTW distance together with the warp path it found.
///
/// The path is a valid monotone warp path (see
/// [`crate::dtw::is_valid_warp_path`]) but — unlike exact DTW's — only
/// approximately optimal.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn fast_dtw_with_path(x: &[f64], y: &[f64], radius: usize) -> (f64, Vec<(usize, usize)>) {
    assert!(
        !x.is_empty() && !y.is_empty(),
        "fast_dtw requires non-empty series"
    );
    let min_size = min_ts_size(radius);
    if x.len() <= min_size || y.len() <= min_size {
        return dtw_with_path(x, y);
    }
    let cx = coarsen(x);
    let cy = coarsen(y);
    let (_, coarse_path) = fast_dtw_with_path(&cx, &cy, radius);
    let coarse_window = window_from_path(&coarse_path, cy.len());
    let window = coarse_window.expand_from_half_resolution(x.len(), y.len(), radius);
    dtw_windowed_with_path(x, y, &window)
}

/// Converts a coarse warp path into a per-row search window covering
/// exactly the path's cells.
// vp-lint: allow(panic-reachability) — warp-path row indices are <= the last row index that sized `ranges`
fn window_from_path(path: &[(usize, usize)], cols: usize) -> SearchWindow {
    let rows = path.last().map(|&(i, _)| i + 1).unwrap_or(1);
    let mut ranges = vec![(usize::MAX, 0usize); rows];
    for &(i, j) in path {
        let r = &mut ranges[i];
        r.0 = r.0.min(j);
        r.1 = r.1.max(j);
    }
    // A warp path visits every row, so all ranges are initialised; the
    // path's endpoints guarantee the corner anchoring `from_ranges` checks.
    match SearchWindow::from_ranges(cols, ranges) {
        Ok(w) => w,
        // vp-lint: allow(forbidden-panic) — loud invariant guard; see comment above the match
        Err(_) => unreachable!("warp path always forms a valid window"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::is_valid_warp_path;

    fn exact_of(x: &[f64], y: &[f64]) -> f64 {
        dtw(x, y, &mut DtwScratch::new())
    }

    fn fast_of(x: &[f64], y: &[f64], radius: usize) -> f64 {
        fast_dtw(x, y, radius, &mut DtwScratch::new())
    }

    fn wave(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.07 + phase).sin() * 3.0 + (i as f64 * 0.31).cos())
            .collect()
    }

    #[test]
    fn identical_series_zero_distance() {
        let x = wave(128, 0.0);
        assert_eq!(fast_of(&x, &x, 1), 0.0);
    }

    #[test]
    fn short_series_fall_back_to_exact() {
        let x = [1.0, 1.0, 4.0];
        let y = [2.0, 4.0, 2.0];
        assert_eq!(fast_of(&x, &y, 1), exact_of(&x, &y));
    }

    #[test]
    fn fast_dtw_never_underestimates_exact() {
        for (n, m, p) in [
            (50, 50, 0.3),
            (100, 90, 1.0),
            (200, 200, 0.0),
            (33, 67, 2.0),
        ] {
            let x = wave(n, 0.0);
            let y = wave(m, p);
            let exact = exact_of(&x, &y);
            let fast = fast_of(&x, &y, 1);
            assert!(
                fast >= exact - 1e-9,
                "fast {fast} < exact {exact} for ({n},{m},{p})"
            );
        }
    }

    #[test]
    fn radius_one_is_close_to_exact() {
        // The "1% loss of accuracy" claim; allow a generous 10% here since
        // single instances can deviate more than the average.
        let x = wave(256, 0.0);
        let y = wave(256, 0.8);
        let exact = exact_of(&x, &y);
        let fast = fast_of(&x, &y, 1);
        assert!(fast <= exact * 1.10 + 1e-9, "fast {fast} vs exact {exact}");
    }

    #[test]
    fn larger_radius_improves_accuracy() {
        let x = wave(200, 0.0);
        let y = wave(180, 1.3);
        let exact = exact_of(&x, &y);
        let mut prev = f64::INFINITY;
        for radius in [0usize, 1, 2, 4, 8] {
            let fast = fast_of(&x, &y, radius);
            assert!(
                fast <= prev + 1e-9,
                "radius {radius} got worse: {fast} > {prev}"
            );
            assert!(fast >= exact - 1e-9);
            prev = fast;
        }
        // Huge radius = exact.
        assert!((fast_of(&x, &y, 256) - exact).abs() < 1e-9);
    }

    #[test]
    fn path_is_valid() {
        let x = wave(101, 0.0);
        let y = wave(97, 0.4);
        let (d, path) = fast_dtw_with_path(&x, &y, 1);
        assert!(is_valid_warp_path(&path, x.len(), y.len()));
        let total: f64 = path
            .iter()
            .map(|&(i, j)| crate::dtw::point_cost(x[i], y[j]))
            .sum();
        assert!((total - d).abs() < 1e-9);
    }

    #[test]
    fn unequal_lengths_from_packet_loss() {
        // Simulates the paper's motivation: one series lost packets.
        let x = wave(200, 0.0);
        let mut y = x.clone();
        // Drop every 13th sample.
        let mut k = 0;
        y.retain(|_| {
            k += 1;
            k % 13 != 0
        });
        let d = fast_of(&x, &y, 1);
        // The gap from a few dropped samples should stay small relative to
        // an unrelated series.
        let unrelated = wave(185, 2.0);
        assert!(d < fast_of(&x, &unrelated, 1) / 4.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_input_panics() {
        fast_of(&[], &[1.0], 1);
    }
}
