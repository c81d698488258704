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
//! Every level runs the crate's one wavefront DP out of the caller's
//! [`DtwScratch`], and the coarsened series, warp paths and windows of all
//! levels live in its buffers too. The coarse levels need a warp path, so
//! they keep their windowed cells in the scratch's flat cell table and
//! backtrack through it with the diagonal-first rule; the
//! full-resolution level of [`fast_dtw`] needs only the distance and
//! keeps none.
//!
//! With radius 1 the approximation error is typically below 1% — the
//! figure the paper quotes when arguing FastDTW is accurate enough for
//! Sybil detection.

use crate::dtw::{dtw, dtw_windowed, exact_path, windowed_path};
use crate::scratch::DtwScratch;
use crate::series::coarsen_to;
use crate::window::expand_half_resolution;

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
/// The coarse levels find their warp paths exactly as
/// [`fast_dtw_with_path`] does, and the full-resolution level — which
/// dominates both time and memory — runs the DP inside the projected
/// window without keeping its cells, so the distance equals
/// `fast_dtw_with_path(x, y, radius).0`. Every buffer, the coarsened
/// series included, comes from `scratch`. Short series fall back to
/// [`crate::dtw::dtw`] on the same scratch.
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
    let mut window = std::mem::take(&mut scratch.window);
    project_coarse_levels(x, y, radius, scratch, &mut window);
    let dist = dtw_windowed(x, y, &window, scratch);
    scratch.window = window;
    dist
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
    let mut scratch = DtwScratch::new();
    let mut path = Vec::new();
    let dist = if x.len() <= min_size || y.len() <= min_size {
        exact_path(x, y, &mut scratch, &mut path)
    } else {
        let mut window = Vec::new();
        project_coarse_levels(x, y, radius, &mut scratch, &mut window);
        windowed_path(x, y, &window, &mut scratch, &mut path)
    };
    path.reverse();
    (dist, path)
}

/// Runs FastDTW's coarse levels for `x × y` and writes the window they
/// project onto it into `window`, one column range per element of `x`.
///
/// Level 0 is the pair itself and level `k + 1` coarsens level `k`; the
/// coarsest level is the first at or below the minimum size, where exact
/// DTW finds the warp path. Going back up, each level's path is projected
/// to the next finer level and expanded by `radius`, and every level but
/// level 0 finds its own path inside that window. All levels live in the
/// scratch's pyramid buffers, one after another.
// vp-lint: allow(panic-reachability) — each level's span lies within the pyramid built above it; at most usize::BITS levels, since every level halves
fn project_coarse_levels(
    x: &[f64],
    y: &[f64],
    radius: usize,
    scratch: &mut DtwScratch,
    window: &mut Vec<(usize, usize)>,
) {
    let min_size = min_ts_size(radius);
    let mut px = std::mem::take(&mut scratch.pyramid_x);
    let mut py = std::mem::take(&mut scratch.pyramid_y);
    let mut path = std::mem::take(&mut scratch.path);
    let mut coarse = std::mem::take(&mut scratch.path_rows);
    // Level k's samples are px[xs..xs + n] and py[ys..ys + m] for
    // `spans[k] = (xs, n, ys, m)`.
    let mut spans = [(0usize, 0usize, 0usize, 0usize); usize::BITS as usize];
    px.clear();
    px.extend_from_slice(x);
    py.clear();
    py.extend_from_slice(y);
    spans[0] = (0, x.len(), 0, y.len());
    let mut coarsest = 0;
    loop {
        let (xs, n, ys, m) = spans[coarsest];
        coarsest += 1;
        spans[coarsest] = (
            coarsen_level(&mut px, xs, n),
            n.div_ceil(2),
            coarsen_level(&mut py, ys, m),
            m.div_ceil(2),
        );
        if n.div_ceil(2) <= min_size || m.div_ceil(2) <= min_size {
            break;
        }
    }
    let level = |k: usize| {
        let (xs, n, ys, m) = spans[k];
        (&px[xs..xs + n], &py[ys..ys + m])
    };
    let (cx, cy) = level(coarsest);
    exact_path(cx, cy, scratch, &mut path);
    for k in (0..coarsest).rev() {
        let (fx, fy) = level(k);
        project_path(
            &path,
            level(k + 1).0.len(),
            fx.len(),
            fy.len(),
            radius,
            &mut coarse,
            window,
        );
        if k > 0 {
            windowed_path(fx, fy, window, scratch, &mut path);
        }
    }
    scratch.pyramid_x = px;
    scratch.pyramid_y = py;
    scratch.path = path;
    scratch.path_rows = coarse;
}

/// Appends the coarsened `buf[start..start + len]` to `buf` and returns
/// where it starts.
fn coarsen_level(buf: &mut Vec<f64>, start: usize, len: usize) -> usize {
    let at = buf.len();
    buf.resize(at + len.div_ceil(2), 0.0);
    let (levels, next) = buf.split_at_mut(at);
    coarsen_to(&levels[start..start + len], next);
    at
}

/// Projects a coarse warp path (any step order) onto the finer
/// `rows × cols` level: the window covering exactly the path's cells,
/// row by row, expanded from half resolution by `radius` into `window`.
// vp-lint: allow(panic-reachability) — warp-path rows are below `coarse_rows`, the length `coarse` is resized to
fn project_path(
    path: &[(usize, usize)],
    coarse_rows: usize,
    rows: usize,
    cols: usize,
    radius: usize,
    coarse: &mut Vec<(usize, usize)>,
    window: &mut Vec<(usize, usize)>,
) {
    coarse.clear();
    coarse.resize(coarse_rows, (usize::MAX, 0));
    for &(i, j) in path {
        let r = &mut coarse[i];
        r.0 = r.0.min(j);
        r.1 = r.1.max(j);
    }
    expand_half_resolution(coarse, rows, cols, radius, window);
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
