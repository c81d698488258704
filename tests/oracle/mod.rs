//! Test-only scalar references for the distance kernels.
//!
//! `vp-timeseries` computes every DTW distance and warp path with one
//! anti-diagonal (wavefront) dynamic program over walked integer band
//! edges, every LB_Keogh bound by reading per-series envelope tables built
//! by sliding scans, and every sketch bound through a per-shape plan
//! (DESIGN.md §14). This module keeps the textbook forms — the row-major
//! scalar DP with its early-abandon rule, the per-row branch LB_Keogh with
//! its deque envelope, the monotone-stack envelope tables, the sketch
//! bound's segment-by-segment scan, the `f64` Sakoe–Chiba band edges the
//! DP and LB_Keogh run on, and the row-major path DP with FastDTW's
//! recursion around it — with their own buffers.
//!
//! `tests/kernel_oracle.rs` runs the adversarial sweep against them;
//! `tests/comparison_cascade.rs` and `tests/pipeline_properties.rs` run
//! their RSSI-like and raw-bit cases against them.

#![allow(dead_code)] // each test binary uses its own subset

use vp_timeseries::dtw::{point_cost, BoundedDistance};
use vp_timeseries::series::coarsen;
use vp_timeseries::sketch::{SeriesSketch, SKETCH_SEGMENTS};
use vp_timeseries::window::sakoe_chiba_range;

/// Row `i`'s Sakoe–Chiba range in `f64`: `ceil(q − radius)` to
/// `floor(q + radius)` around `q = i·(cols−1)/(rows−1)`, clamped, with the
/// corner rows anchored. `vp_timeseries::window::sakoe_chiba_range`
/// computes the same edges in integers.
pub fn float_band(rows: usize, cols: usize, radius: usize, i: usize) -> (usize, usize) {
    assert!(rows > 0 && cols > 0, "window dimensions must be positive");
    assert!(i < rows, "row index out of bounds");
    let centre = if rows == 1 {
        0.0
    } else {
        i as f64 * (cols - 1) as f64 / (rows - 1) as f64
    };
    let lo = (centre - radius as f64).ceil().max(0.0) as usize;
    let hi = ((centre + radius as f64).floor() as usize).min(cols - 1);
    let (mut lo, mut hi) = (lo.min(cols - 1), hi.max(lo.min(cols - 1)));
    if i == 0 {
        lo = 0;
    }
    if i == rows - 1 {
        hi = cols - 1;
    }
    (lo, hi)
}

/// The scalar row-major windowed DP: per cell
/// `c + up.min(diag).min(left)`, row minima folded left to right, and the
/// row abandoned once its minimum exceeds the threshold (strictly).
fn scalar_dp(
    x: &[f64],
    y: &[f64],
    range_at: impl Fn(usize) -> (usize, usize),
    abandon_above: Option<f64>,
) -> BoundedDistance {
    assert!(
        !x.is_empty() && !y.is_empty(),
        "dtw requires non-empty series"
    );
    let m = y.len();
    let mut prev = vec![f64::INFINITY; m];
    let mut curr = vec![f64::INFINITY; m];
    let mut prev_range = (0usize, 0usize);
    for (i, &xi) in x.iter().enumerate() {
        let (lo, hi) = range_at(i);
        let mut row_min = f64::INFINITY;
        for j in lo..=hi {
            let c = point_cost(xi, y[j]);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if i > 0 && j >= prev_range.0 && j <= prev_range.1 {
                    prev[j]
                } else {
                    f64::INFINITY
                };
                let diag = if i > 0 && j > prev_range.0 && j - 1 <= prev_range.1 {
                    prev[j - 1]
                } else {
                    f64::INFINITY
                };
                let left = if j > lo { curr[j - 1] } else { f64::INFINITY };
                up.min(diag).min(left)
            };
            let cell = c + best;
            curr[j] = cell;
            row_min = row_min.min(cell);
        }
        if let Some(t) = abandon_above {
            if row_min > t {
                return BoundedDistance::AboveThreshold(row_min);
            }
        }
        std::mem::swap(&mut prev, &mut curr);
        prev_range = (lo, hi);
    }
    BoundedDistance::Exact(prev[m - 1])
}

/// The scalar DP over the Sakoe–Chiba band of half-width `radius`.
pub fn scalar_banded(
    x: &[f64],
    y: &[f64],
    radius: usize,
    abandon_above: Option<f64>,
) -> BoundedDistance {
    let (n, m) = (x.len(), y.len());
    scalar_dp(x, y, |i| float_band(n, m, radius, i), abandon_above)
}

/// The scalar DP over the full matrix.
pub fn scalar_exact(x: &[f64], y: &[f64]) -> f64 {
    let m = y.len();
    scalar_dp(x, y, |_| (0, m - 1), None).value()
}

/// The scalar LB_Keogh: a monotonic-deque envelope sweep that adds
/// `point_cost(xᵢ, Uᵢ)` above the envelope and `point_cost(xᵢ, Lᵢ)` below.
pub fn scalar_lb_keogh(x: &[f64], y: &[f64], radius: usize) -> f64 {
    use std::collections::VecDeque;
    let n = x.len();
    let m = y.len();
    assert!(n > 0 && m > 0, "lb_keogh requires non-empty series");
    let mut deq_max: VecDeque<usize> = VecDeque::new();
    let mut deq_min: VecDeque<usize> = VecDeque::new();

    let mut sum = 0.0;
    let mut next = 0usize; // first column not yet pushed into the deques
    for (i, &xi) in x.iter().enumerate() {
        let (lo, hi) = float_band(n, m, radius, i);
        // Admit new columns on the right (hi is non-decreasing).
        while next <= hi {
            while deq_max.back().is_some_and(|&b| y[b] <= y[next]) {
                deq_max.pop_back();
            }
            deq_max.push_back(next);
            while deq_min.back().is_some_and(|&b| y[b] >= y[next]) {
                deq_min.pop_back();
            }
            deq_min.push_back(next);
            next += 1;
        }
        // Expire columns on the left (lo is non-decreasing).
        while deq_max.front().is_some_and(|&f| f < lo) {
            deq_max.pop_front();
        }
        while deq_min.front().is_some_and(|&f| f < lo) {
            deq_min.pop_front();
        }
        let (Some(&hi_idx), Some(&lo_idx)) = (deq_max.front(), deq_min.front()) else {
            continue;
        };
        let upper = y[hi_idx];
        let lower = y[lo_idx];
        if xi > upper {
            sum += point_cost(xi, upper);
        } else if xi < lower {
            sum += point_cost(xi, lower);
        }
    }
    sum
}

/// `KeoghEnvelope::build`'s tables by the monotone stack: per column `k`
/// the full window's `[max, min]`, then the half window's, then the whole
/// series'. A window's entry is the front of a monotone deque — pop the
/// back while it is `≤` the new column (`≥` for minima), expire from the
/// front — found as the first element at or right of the window's left
/// edge on a stack pushed with no expiry: pops from the back never depend
/// on what expired. Both window edges are non-decreasing in the order
/// half(k), full(k), half(k+1), …, so one stack and one front pointer
/// serve every window, in `O(M)`.
pub fn stack_envelope(y: &[f64], radius: usize) -> Vec<[f64; 2]> {
    assert!(!y.is_empty(), "lb_keogh requires non-empty series");
    let m = y.len();
    let mut entries = vec![[f64::NAN; 2]; 2 * m + 1];
    for (slot, pops) in [
        (0, (|back, new| back <= new) as fn(f64, f64) -> bool),
        (1, |back, new| back >= new),
    ] {
        let last = m - 1;
        let mut stack: Vec<usize> = Vec::new();
        let mut front = 0usize;
        let mut next = 0usize;
        // Pushes columns up to `hi`, then moves `front` to the first
        // stacked column at or right of `lo`, and returns its sample.
        let mut front_at = |lo: usize, hi: usize, stack: &mut Vec<usize>| {
            while next <= hi {
                while stack.last().is_some_and(|&b| pops(y[b], y[next])) {
                    stack.pop();
                }
                front = front.min(stack.len());
                stack.push(next);
                next += 1;
            }
            while stack[front] < lo {
                front += 1;
            }
            y[stack[front]]
        };
        for k in 0..m {
            let lo = k.saturating_sub(radius);
            if radius > 0 {
                entries[2 * k + 1][slot] =
                    front_at(lo, k.saturating_add(radius - 1).min(last), &mut stack);
            }
            entries[2 * k][slot] = front_at(lo, k.saturating_add(radius).min(last), &mut stack);
            if radius == 0 {
                entries[2 * k + 1][slot] = entries[2 * k][slot];
            }
        }
        // Every column is pushed; the window `[0, last]`'s front is the
        // first.
        entries[2 * m][slot] = y[stack[0]];
    }
    entries
}

/// The sketch bound by scanning: for each non-empty x-segment, the band
/// columns of its first and last rows from `sakoe_chiba_range`, and all
/// 16 y-segments tested against them, the overlapping ones folded
/// ascending into one envelope.
pub fn scanned_sketch_bound(x: &SeriesSketch, y: &SeriesSketch, radius: usize) -> f64 {
    let (n, m) = (x.len(), y.len());
    if n == 0 || m == 0 || !x.is_finite() || !y.is_finite() {
        return 0.0;
    }
    let segment =
        |len: usize, s: usize| (s * len / SKETCH_SEGMENTS, (s + 1) * len / SKETCH_SEGMENTS);
    let mut sum = 0.0;
    for s in 0..SKETCH_SEGMENTS {
        let (ra, rb) = segment(n, s);
        if ra == rb {
            continue;
        }
        let col_lo = sakoe_chiba_range(n, m, radius, ra).0;
        let col_hi = sakoe_chiba_range(n, m, radius, rb - 1).1;
        let mut env_min = f64::INFINITY;
        let mut env_max = f64::NEG_INFINITY;
        for t in 0..SKETCH_SEGMENTS {
            let (ca, cb) = segment(m, t);
            if ca == cb || cb <= col_lo || ca > col_hi {
                continue;
            }
            env_min = env_min.min(y.minima()[t]);
            env_max = env_max.max(y.maxima()[t]);
        }
        if env_min > env_max {
            continue;
        }
        let (x_min, x_max) = (x.minima()[s], x.maxima()[s]);
        let gap = if x_min > env_max {
            x_min - env_max
        } else if x_max < env_min {
            env_min - x_max
        } else {
            0.0
        };
        sum += (rb - ra) as f64 * (gap * gap);
    }
    sum
}

/// The row-major path DP over `window` (one inclusive column range per
/// row of `x`, monotone, corner-anchored): the distance and the warp path
/// backtracked from `(N−1, M−1)`, preferring the diagonal predecessor,
/// then up, then left, with `+∞` outside the window. One `Vec` per row.
pub fn scalar_windowed_path(
    x: &[f64],
    y: &[f64],
    window: &[(usize, usize)],
) -> (f64, Vec<(usize, usize)>) {
    assert!(
        !x.is_empty() && !y.is_empty(),
        "dtw requires non-empty series"
    );
    assert_eq!(window.len(), x.len(), "window row count must match x");
    let n = x.len();
    // Cell j of a stored row covering `range`; +∞ outside it.
    fn cell(row: &[f64], range: (usize, usize), j: usize, exists: bool) -> f64 {
        if !exists || j < range.0 || j > range.1 {
            f64::INFINITY
        } else {
            row[j - range.0]
        }
    }
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for (i, &xi) in x.iter().enumerate() {
        let (lo, hi) = window[i];
        let (prev_row, prev_range): (&[f64], _) = match i.checked_sub(1) {
            Some(p) => (&rows[p], window[p]),
            None => (&[], (0, 0)),
        };
        let mut row = vec![f64::INFINITY; hi - lo + 1];
        for j in lo..=hi {
            let c = point_cost(xi, y[j]);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = cell(prev_row, prev_range, j, i > 0);
                let diag = if j > 0 {
                    cell(prev_row, prev_range, j - 1, i > 0)
                } else {
                    f64::INFINITY
                };
                let left = if j > lo {
                    row[j - lo - 1]
                } else {
                    f64::INFINITY
                };
                up.min(diag).min(left)
            };
            row[j - lo] = c + best;
        }
        rows.push(row);
    }
    let dist = rows[n - 1][y.len() - 1 - window[n - 1].0];
    let mut path = Vec::new();
    let (mut i, mut j) = (n - 1, y.len() - 1);
    path.push((i, j));
    while i > 0 || j > 0 {
        let up = if i > 0 {
            cell(&rows[i - 1], window[i - 1], j, true)
        } else {
            f64::INFINITY
        };
        let diag = if i > 0 && j > 0 {
            cell(&rows[i - 1], window[i - 1], j - 1, true)
        } else {
            f64::INFINITY
        };
        let left = if j > 0 {
            cell(&rows[i], window[i], j - 1, true)
        } else {
            f64::INFINITY
        };
        if i > 0 && j > 0 && diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if i > 0 && (up <= left || j == 0) {
            i -= 1;
        } else {
            j -= 1;
        }
        path.push((i, j));
    }
    path.reverse();
    (dist, path)
}

/// FastDTW with its warp path, recursively: exact DTW below
/// `radius + 2` samples, otherwise the path DP inside the coarse path's
/// window, inflated to full resolution and grown by `radius` with a
/// min/max fold over the neighbouring rows.
pub fn scalar_fast_dtw_with_path(
    x: &[f64],
    y: &[f64],
    radius: usize,
) -> (f64, Vec<(usize, usize)>) {
    let min_size = radius + 2;
    if x.len() <= min_size || y.len() <= min_size {
        return scalar_windowed_path(x, y, &vec![(0, y.len() - 1); x.len()]);
    }
    let (cx, cy) = (coarsen(x), coarsen(y));
    let (_, coarse_path) = scalar_fast_dtw_with_path(&cx, &cy, radius);
    let (rows, cols) = (x.len(), y.len());
    // The coarse window: the path's column extent in each coarse row.
    let mut coarse = vec![(usize::MAX, 0usize); cx.len()];
    for &(i, j) in &coarse_path {
        coarse[i] = (coarse[i].0.min(j), coarse[i].1.max(j));
    }
    // Inflate every coarse cell to its 2×2 block.
    let mut ranges = vec![(usize::MAX, 0usize); rows];
    for (ci, &(clo, chi)) in coarse.iter().enumerate() {
        for fi in [2 * ci, 2 * ci + 1] {
            if fi < rows {
                ranges[fi].0 = ranges[fi].0.min(2 * clo);
                ranges[fi].1 = ranges[fi].1.max((2 * chi + 1).min(cols - 1));
            }
        }
    }
    for i in 0..rows {
        if ranges[i].0 == usize::MAX {
            ranges[i] = if i > 0 { ranges[i - 1] } else { (0, cols - 1) };
        }
    }
    // Grow by `radius` rows and columns.
    if radius > 0 {
        ranges = (0..rows)
            .map(|i| {
                let near = &ranges[i.saturating_sub(radius)..=(i + radius).min(rows - 1)];
                let lo = near.iter().map(|r| r.0).min().unwrap_or(0);
                let hi = near.iter().map(|r| r.1).max().unwrap_or(0);
                (lo.saturating_sub(radius), (hi + radius).min(cols - 1))
            })
            .collect();
    }
    for i in 1..rows {
        ranges[i].0 = ranges[i].0.min(cols - 1).max(ranges[i - 1].0);
        ranges[i].1 = ranges[i].1.max(ranges[i - 1].1);
    }
    ranges[0].0 = 0;
    ranges[rows - 1].1 = cols - 1;
    scalar_windowed_path(x, y, &ranges)
}
