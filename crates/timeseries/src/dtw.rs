//! Dynamic Time Warping (paper Eq. 3–6).
//!
//! The cost of aligning points `xᵢ` and `yⱼ` is the squared difference
//! `c(i,j) = (xᵢ − yⱼ)²` (Eq. 3); the DTW distance is the minimum total
//! accumulated cost `D(N,M)` of a monotone warp path from `(1,1)` to
//! `(N,M)` (Eq. 4–6). No square root is taken, matching the paper's
//! convention.
//!
//! Note on the paper's Figure 9: applying recursion (4) to the figure's
//! series `X = {1,1,4,1,1}`, `Y = {2,2,2,4,2,2}` yields an optimal
//! accumulated cost of **5** (path `(1,1),(2,2),(2,3),(3,4),(4,5),(5,6)`
//! with costs `1+1+1+0+1+1`), not the 9 quoted in the figure caption. The
//! unit tests here pin the recursion's true value; the discrepancy is
//! recorded in `EXPERIMENTS.md`.
//!
//! One dynamic program computes every DTW distance and warp path in this
//! crate: [`dtw`] runs it over the full matrix, [`dtw_banded`] over a
//! Sakoe–Chiba band (optionally abandoning early against a threshold),
//! [`crate::fastdtw::fast_dtw`] over its projected windows, and
//! [`dtw_with_path`] and FastDTW's coarse levels over theirs. It walks the
//! matrix in anti-diagonal (wavefront) order, whose cells do not depend on
//! each other, takes each row's column range only when the wavefront
//! reaches the row, and gives the same bits as the textbook row-by-row
//! recurrence. The path-returning forms additionally copy every
//! anti-diagonal into one flat table in the scratch, and backtrack
//! through it.

use crate::scratch::DtwScratch;
use crate::window::SakoeChibaEdges;

/// Squared point cost `c(i,j) = (xᵢ − yⱼ)²` (paper Eq. 3).
#[inline]
pub fn point_cost(a: f64, b: f64) -> f64 {
    (a - b) * (a - b)
}

/// Exact DTW distance between two non-empty series (paper Eq. 6).
///
/// Runs the one dynamic program over the full `N × M` matrix, with its
/// `O(N + M)` buffers taken from `scratch`.
///
/// # Panics
///
/// Panics if either series is empty.
///
/// # Example
///
/// ```
/// use vp_timeseries::{dtw::dtw, DtwScratch};
///
/// // Warping absorbs a temporal shift that Euclidean distance cannot.
/// let a = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0];
/// let b = [0.0, 1.0, 2.0, 1.0, 0.0, 0.0];
/// assert_eq!(dtw(&a, &b, &mut DtwScratch::new()), 0.0);
/// ```
pub fn dtw(x: &[f64], y: &[f64], scratch: &mut DtwScratch) -> f64 {
    let m = y.len();
    let full = (0..x.len()).map(|_| (0, m - 1));
    wavefront_dp::<false, false>(x, y, full, f64::INFINITY, scratch).value()
}

/// DTW distance restricted to a Sakoe–Chiba band of half-width `radius`,
/// optionally abandoned early against a threshold.
///
/// Row `i` visits the columns
/// [`crate::window::sakoe_chiba_range`]`(N, M, radius, i)`, walked with
/// [`SakoeChibaEdges`] as the wavefront reaches each row.
/// With a radius at least `max(N, M)` this equals [`dtw`]. Narrow bands
/// are faster but may overestimate the distance when the optimal path
/// strays from the diagonal.
///
/// With `abandon_above = Some(t)` the DP checks each row's minimum
/// accumulated cost. Every monotone warp path visits at least one in-band
/// cell of every row, and point costs are non-negative, so the row
/// minimum is a lower bound on the final distance; once it exceeds `t`
/// (strictly) the evaluation stops and returns
/// [`BoundedDistance::AboveThreshold`] carrying that bound. Otherwise the
/// result is [`BoundedDistance::Exact`], the same bits as with `None`.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn dtw_banded(
    x: &[f64],
    y: &[f64],
    radius: usize,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> BoundedDistance {
    assert!(
        !x.is_empty() && !y.is_empty(),
        "dtw requires non-empty series"
    );
    let band = SakoeChibaEdges::new(x.len(), y.len(), radius);
    match abandon_above {
        Some(t) => wavefront_dp::<true, false>(x, y, band, t, scratch),
        None => wavefront_dp::<false, false>(x, y, band, f64::INFINITY, scratch),
    }
}

/// DTW distance evaluated only on the cells of `window`: FastDTW's
/// full-resolution level. `window` holds one inclusive column range per
/// element of `x` (see [`crate::window`]), the last ending at the last
/// column of `y`.
///
/// # Panics
///
/// Panics if either series is empty or the window's row count does not
/// match.
pub(crate) fn dtw_windowed(
    x: &[f64],
    y: &[f64],
    window: &[(usize, usize)],
    scratch: &mut DtwScratch,
) -> f64 {
    assert_eq!(window.len(), x.len(), "window row count must match x");
    let rows = window.iter().copied();
    wavefront_dp::<false, false>(x, y, rows, f64::INFINITY, scratch).value()
}

/// Exact DTW distance plus one optimal warp path.
///
/// The path runs from `(0, 0)` to `(N−1, M−1)` in matrix coordinates and
/// satisfies the paper's monotonicity constraint (Eq. 5). Ties are broken
/// in favour of the diagonal move.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn dtw_with_path(x: &[f64], y: &[f64]) -> (f64, Vec<(usize, usize)>) {
    let mut path = Vec::new();
    let dist = exact_path(x, y, &mut DtwScratch::new(), &mut path);
    path.reverse();
    (dist, path)
}

/// [`dtw_with_path`] on a caller's scratch, the path last step first:
/// FastDTW's coarsest level.
pub(crate) fn exact_path(
    x: &[f64],
    y: &[f64],
    scratch: &mut DtwScratch,
    path: &mut Vec<(usize, usize)>,
) -> f64 {
    let m = y.len();
    let full = (0..x.len()).map(|_| (0, m - 1));
    path_dp(x, y, full, scratch, path)
}

/// Windowed DTW with its warp path, last step first: FastDTW's coarse
/// levels, whose paths the next level refines. `window` holds one
/// inclusive column range per element of `x` (see [`crate::window`]).
pub(crate) fn windowed_path(
    x: &[f64],
    y: &[f64],
    window: &[(usize, usize)],
    scratch: &mut DtwScratch,
    path: &mut Vec<(usize, usize)>,
) -> f64 {
    assert_eq!(window.len(), x.len(), "window row count must match x");
    path_dp(x, y, window.iter().copied(), scratch, path)
}

/// Runs the DP over the window whose rows are `rows`, keeping every
/// windowed cell, and backtracks one warp path from `(N−1, M−1)` into
/// `path`, last step first.
///
/// The walk prefers the diagonal predecessor, then up, then left, reading
/// `+∞` outside the window. The cells are the DP's — the textbook
/// recurrence's bits — so the path is the one a row-major path DP over the
/// same window finds (`tests/oracle/mod.rs` keeps that DP as the oracle).
// vp-lint: allow(panic-reachability) — i + j ≤ N + M − 2 indexes a run with an end entry after it; offsets are checked against the run's length
fn path_dp(
    x: &[f64],
    y: &[f64],
    rows: impl Iterator<Item = (usize, usize)> + Clone,
    scratch: &mut DtwScratch,
    path: &mut Vec<(usize, usize)>,
) -> f64 {
    let dist = wavefront_dp::<false, true>(x, y, rows, f64::INFINITY, scratch).value();
    let (cells, runs) = (&scratch.cells, &scratch.cell_runs);
    // Cell (i, j) lies on anti-diagonal i + j, whose window cells are the
    // run of rows starting at the run's first row; `run(d)` reads row `i`
    // of anti-diagonal `d`. With NaN costs the walk can leave the window,
    // so every read is checked.
    let run = |d: usize| {
        let ((first, start), end) = (runs[d], runs[d + 1].1);
        move |i: usize| match i.checked_sub(first) {
            Some(k) if k < end - start => cells[start + k],
            _ => f64::INFINITY,
        }
    };
    let (mut i, mut j) = (x.len() - 1, y.len() - 1);
    path.clear();
    path.push((i, j));
    while i > 0 || j > 0 {
        // Up and left lie on anti-diagonal i + j − 1, diag on i + j − 2.
        let prev = run(i + j - 1);
        let up = if i > 0 { prev(i - 1) } else { f64::INFINITY };
        let left = if j > 0 { prev(i) } else { f64::INFINITY };
        let diag = if i > 0 && j > 0 {
            run(i + j - 2)(i - 1)
        } else {
            f64::INFINITY
        };
        // Diagonal if it is no worse than up and left, else up if no worse
        // than left, else left. NaN cell costs make every comparison
        // false, so each move is additionally guarded by legality: the
        // walk must always take a move that exists, or backtracking would
        // underflow at an edge. For finite costs the guards never change
        // the chosen move — illegal directions read as infinity and lose
        // the comparisons. The choice is computed without branches: which
        // way a path turns is the least predictable thing in this loop.
        let diagonal = (i > 0) & (j > 0) & (diag <= up) & (diag <= left);
        let vertical = !diagonal & (i > 0) & ((up <= left) | (j == 0));
        i -= usize::from(diagonal | vertical);
        j -= usize::from(!vertical);
        path.push((i, j));
    }
    dist
}

/// Outcome of a threshold-aware banded DTW evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedDistance {
    /// The dynamic program ran to completion; the value is the exact
    /// banded DTW distance.
    Exact(f64),
    /// The evaluation was abandoned because the distance is provably above
    /// the threshold. The carried value is a *lower bound* on the true
    /// distance that is itself strictly above the threshold, so comparing
    /// it against the threshold classifies the pair identically to the
    /// exact distance.
    AboveThreshold(f64),
}

impl BoundedDistance {
    /// The carried value: exact distance or the proven lower bound.
    pub fn value(self) -> f64 {
        match self {
            BoundedDistance::Exact(d) | BoundedDistance::AboveThreshold(d) => d,
        }
    }

    /// `true` when the evaluation was abandoned early.
    pub fn is_pruned(self) -> bool {
        matches!(self, BoundedDistance::AboveThreshold(_))
    }
}

/// The one DTW dynamic program: [`dtw`] runs it over the full matrix,
/// [`dtw_banded`] over the Sakoe–Chiba band, and FastDTW and
/// [`dtw_with_path`] over their windows.
///
/// `rows` yields each row's inclusive column range, in row order, one per
/// row of `x`. The ranges must be monotone (both edges non-decreasing),
/// start at column 0 and end at the last column, as every FastDTW
/// window's and Sakoe–Chiba band's are. Two clones of `rows`
/// follow the wavefront — one on its first row, one on the row after its
/// last — and each takes a row's range only when the wavefront reaches
/// that row, so an evaluation abandoned in row 0 walks only the first
/// few, and `scratch.row_min` grows only to the rows reached.
///
/// # Anti-diagonal order
///
/// Cell `(i, j)` reads `up = (i−1, j)` and `left = (i, j−1)` from
/// anti-diagonal `i + j − 1` and `diag = (i−1, j−1)` from `i + j − 2`, so
/// the cells of one anti-diagonal do not depend on each other. The DP
/// walks anti-diagonals and keeps the last three in scratch buffers
/// indexed by row (slot `i + 1`; slot 0 is row −1), and each
/// anti-diagonal is a plain slice loop the compiler vectorises. Its rows
/// form an interval `[a, b]`, because `i + lo_i` and `i + hi_i` both grow
/// strictly with `i`; each end moves by at most one row per anti-diagonal,
/// and the interval is empty (`b = a − 1`) where consecutive rows' column
/// ranges do not overlap, e.g. radius 0 with `M ≥ 2N`. Row `a` leaves the
/// interval after anti-diagonal `a + hi_a`, and row `b + 1` enters it on
/// anti-diagonal `b + 1 + lo_{b+1}`; the two cursors keep just those two
/// numbers.
///
/// Instead of per-cell range guards, each anti-diagonal writes `+∞` into
/// the slots of rows `a − 1` and `b + 1`. The next two anti-diagonals read
/// only those slots and the interval itself, so every neighbour outside
/// the window reads as `+∞`, and stale buffer contents are never read. The
/// origin's `c + 0.0` comes from a `0.0` in the row −1 slot of
/// anti-diagonal −2.
///
/// # Agreement with the scalar recurrence
///
/// Every cell is `c + up.min(diag).min(left)`, the textbook recurrence with
/// the same operands, so it agrees with a row-major scalar loop on every
/// non-NaN bit and on which results are NaN; `tests/kernel_oracle.rs`
/// checks exactly this.
///
/// With `ABANDON`, each row's minimum is folded as its cells are computed.
/// Rows complete in order, and row `a` is complete after anti-diagonal
/// `a + hi_a`; the first completed row whose minimum exceeds
/// `abandon_above` (strictly) ends the evaluation with
/// [`BoundedDistance::AboveThreshold`] carrying that minimum. Point costs
/// are never negative and `f64::min` ignores NaN, so a row minimum does
/// not depend on the order of its cells: the decision and the bound are
/// those of the row-major rule [`dtw_banded`] documents. Without
/// `ABANDON`, `abandon_above` is ignored and no minimum is folded. That is
/// why the switch is a const parameter and not a run-time `Option`:
/// folding the minima slows the no-threshold banded kernel by about 30% on
/// 200-sample series.
///
/// With `KEEP`, every anti-diagonal's cells — exactly the window's cells
/// on it — are appended to `scratch.cells` as one run, and
/// `scratch.cell_runs` records each run's first row and offset, then one
/// entry marking the end: the table [`path_dp`] backtracks through.
/// `ABANDON` and `KEEP` are never both set.
fn wavefront_dp<const ABANDON: bool, const KEEP: bool>(
    x: &[f64],
    y: &[f64],
    rows: impl Iterator<Item = (usize, usize)> + Clone,
    abandon_above: f64,
    scratch: &mut DtwScratch,
) -> BoundedDistance {
    assert!(
        !x.is_empty() && !y.is_empty(),
        "dtw requires non-empty series"
    );
    let (n, m) = (x.len(), y.len());
    let DtwScratch {
        diagonals,
        row_min,
        cells,
        cell_runs,
        ..
    } = scratch;
    // The last anti-diagonal of the wavefront's first row `a`, and the
    // first of the row after its last, `b + 1` (`usize::MAX` past the
    // last row).
    let mut entering = rows.clone().skip(1);
    let mut leaving = rows;
    let mut a_last = leaving.next().map_or(usize::MAX, |(_, hi)| hi);
    let mut b_next = entering.next().map_or(usize::MAX, |(lo, _)| 1 + lo);
    if ABANDON {
        row_min.clear();
        row_min.push(f64::INFINITY);
    }
    if KEEP {
        cells.clear();
        cell_runs.clear();
    }
    let slots = n + 2;
    if diagonals.len() < 3 * slots {
        diagonals.resize(3 * slots, f64::INFINITY);
    }
    let (mut d2, rest) = diagonals[..3 * slots].split_at_mut(slots);
    let (mut d1, mut d0) = rest.split_at_mut(slots);
    // Anti-diagonals −2 and −1: the origin's 0.0, and rows −1 and 0
    // outside the window.
    d2[0] = 0.0;
    d1[0] = f64::INFINITY;
    d1[1] = f64::INFINITY;

    let (mut a, mut b) = (0usize, 0usize);
    for d in 0..n + m - 1 {
        if a_last < d {
            a += 1;
            a_last = leaving.next().map_or(usize::MAX, |(_, hi)| a + hi);
        }
        if b_next <= d {
            b += 1;
            b_next = entering.next().map_or(usize::MAX, |(lo, _)| b + 1 + lo);
            if ABANDON {
                row_min.push(f64::INFINITY);
            }
        }
        let len = b + 1 - a;
        let xs = &x[a..a + len];
        // Rows a..=b meet columns d − a down to d − b.
        let ys = &y[d + 1 - a - len..d + 1 - a];
        let up = &d1[a..a + len];
        let left = &d1[a + 1..a + 1 + len];
        let diag = &d2[a..a + len];
        let out = &mut d0[a + 1..a + 1 + len];
        for k in 0..len {
            out[k] = point_cost(xs[k], ys[len - 1 - k]) + up[k].min(diag[k]).min(left[k]);
        }
        if ABANDON {
            for (r, &cell) in row_min[a..a + len].iter_mut().zip(out.iter()) {
                *r = r.min(cell);
            }
        }
        d0[a] = f64::INFINITY;
        d0[a + len + 1] = f64::INFINITY;
        if KEEP {
            cell_runs.push((a, cells.len()));
            cells.extend_from_slice(&d0[a + 1..a + 1 + len]);
        }
        if ABANDON && a_last == d && row_min[a] > abandon_above {
            return BoundedDistance::AboveThreshold(row_min[a]);
        }
        (d2, d1, d0) = (d1, d0, d2);
    }
    if KEEP {
        cell_runs.push((n, cells.len()));
    }
    BoundedDistance::Exact(d1[n])
}

/// Validates that `path` is a legal warp path for series of lengths `n`
/// and `m`: starts at `(0,0)`, ends at `(n−1,m−1)`, and each step advances
/// every index by at most one without moving backwards (paper Eq. 5).
pub fn is_valid_warp_path(path: &[(usize, usize)], n: usize, m: usize) -> bool {
    // Zero-length series have no legal path at all; checked subtraction
    // also avoids the index underflow the old `n - 1` hit when callers
    // passed `n == 0` alongside a non-empty path.
    let (Some(end_i), Some(end_j)) = (n.checked_sub(1), m.checked_sub(1)) else {
        return false;
    };
    if path.first() != Some(&(0, 0)) || path.last() != Some(&(end_i, end_j)) {
        return false;
    }
    path.windows(2).all(|w| {
        let (i, j) = w[0];
        let (i2, j2) = w[1];
        i2 >= i && i2 <= i + 1 && j2 >= j && j2 <= j + 1 && (i2, j2) != (i, j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_stats::rng::SplitMix64;

    /// The paper's Figure 9 series.
    const FIG9_X: [f64; 5] = [1.0, 1.0, 4.0, 1.0, 1.0];
    const FIG9_Y: [f64; 6] = [2.0, 2.0, 2.0, 4.0, 2.0, 2.0];

    fn exact_of(x: &[f64], y: &[f64]) -> f64 {
        dtw(x, y, &mut DtwScratch::new())
    }

    fn banded_of(x: &[f64], y: &[f64], radius: usize) -> f64 {
        dtw_banded(x, y, radius, None, &mut DtwScratch::new()).value()
    }

    #[test]
    fn fig9_example_value() {
        // Recursion (4) applied by hand yields 5 (see module docs); the
        // figure's caption states 9 — we pin the recursion's true value.
        assert_eq!(exact_of(&FIG9_X, &FIG9_Y), 5.0);
    }

    #[test]
    fn fig9_path_is_valid_and_matches_distance() {
        let (d, path) = dtw_with_path(&FIG9_X, &FIG9_Y);
        assert_eq!(d, 5.0);
        assert!(is_valid_warp_path(&path, 5, 6));
        let total: f64 = path
            .iter()
            .map(|&(i, j)| point_cost(FIG9_X[i], FIG9_Y[j]))
            .sum();
        assert_eq!(total, d);
    }

    #[test]
    fn identity_distance_is_zero() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        assert_eq!(exact_of(&x, &x), 0.0);
    }

    #[test]
    fn symmetry() {
        let x = [0.0, 2.0, 5.0, 1.0];
        let y = [1.0, 1.0, 6.0];
        assert_eq!(exact_of(&x, &y), exact_of(&y, &x));
    }

    #[test]
    fn single_element_series() {
        assert_eq!(exact_of(&[2.0], &[5.0]), 9.0);
        assert_eq!(exact_of(&[2.0], &[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(exact_of(&[2.0], &[2.0, 3.0]), 1.0);
    }

    #[test]
    fn warping_absorbs_time_shift() {
        let a = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0];
        let b = [0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0];
        assert_eq!(exact_of(&a, &b), 0.0);
        // Lock-step distance sees a large gap.
        assert!(crate::distance::squared_euclidean(&a, &b) > 0.0);
    }

    #[test]
    fn dtw_bounded_by_squared_euclidean() {
        let a = [1.0, 5.0, -2.0, 0.5, 3.0];
        let b = [0.0, 4.0, -1.0, 2.5, 2.0];
        assert!(exact_of(&a, &b) <= crate::distance::squared_euclidean(&a, &b) + 1e-12);
    }

    #[test]
    fn wide_band_equals_full_dtw() {
        let a = [1.0, 3.0, 2.0, 8.0, 4.0, 4.5, 1.0];
        let b = [1.5, 2.5, 9.0, 3.0, 4.0, 2.0];
        let full = exact_of(&a, &b);
        assert_eq!(banded_of(&a, &b, 10), full);
    }

    #[test]
    fn narrow_band_overestimates() {
        // Optimal path strays from the diagonal: banded must be >= exact.
        let a = [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 0.0, 0.0];
        let b = [5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!(banded_of(&a, &b, 1) >= exact_of(&a, &b));
    }

    #[test]
    fn windowed_full_window_matches() {
        let a = [1.0, 2.0, 0.0, 4.0];
        let b = [0.0, 2.0, 2.0, 3.0, 4.0];
        let w = vec![(0, b.len() - 1); a.len()];
        let d = dtw_windowed(&a, &b, &w, &mut DtwScratch::new());
        assert_eq!(d, exact_of(&a, &b));
        let mut path = Vec::new();
        let with_path = windowed_path(&a, &b, &w, &mut DtwScratch::new(), &mut path);
        assert_eq!(d, with_path);
        path.reverse();
        assert_eq!(path, dtw_with_path(&a, &b).1);
    }

    #[test]
    fn path_endpoints_and_monotonicity_random_inputs() {
        let mut rng = SplitMix64::seed_from_u64(42);
        let mut next = move || rng.range_f64(-5.0..5.0);
        for (n, m) in [(1, 1), (1, 7), (9, 3), (17, 23)] {
            let x: Vec<f64> = (0..n).map(|_| next()).collect();
            let y: Vec<f64> = (0..m).map(|_| next()).collect();
            let (d, path) = dtw_with_path(&x, &y);
            assert!(is_valid_warp_path(&path, n, m), "invalid path for {n}x{m}");
            let total: f64 = path.iter().map(|&(i, j)| point_cost(x[i], y[j])).sum();
            assert!((total - d).abs() < 1e-9, "path cost mismatch for {n}x{m}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_series_panics() {
        exact_of(&[], &[1.0]);
    }

    #[test]
    fn abandoning_returns_exact_at_or_below_threshold() {
        let mut scratch = DtwScratch::new();
        let a = [1.0, 3.0, 2.0, 8.0, 4.0, 4.5, 1.0];
        let b = [1.5, 2.5, 9.0, 3.0, 4.0, 2.0];
        let exact = banded_of(&a, &b, 3);
        // Threshold above the distance: no pruning, bit-identical value.
        match dtw_banded(&a, &b, 3, Some(exact + 1.0), &mut scratch) {
            BoundedDistance::Exact(d) => assert_eq!(d.to_bits(), exact.to_bits()),
            other => panic!("unexpected pruning: {other:?}"),
        }
        // Threshold exactly at the distance: row minima never *exceed* it,
        // so the exact value must still come back (strict inequality).
        match dtw_banded(&a, &b, 3, Some(exact), &mut scratch) {
            BoundedDistance::Exact(d) => assert_eq!(d.to_bits(), exact.to_bits()),
            other => panic!("unexpected pruning at equality: {other:?}"),
        }
    }

    #[test]
    fn abandoning_carries_a_sound_lower_bound() {
        let mut scratch = DtwScratch::new();
        let a: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..50).map(|i| 50.0 + i as f64 * 0.1).collect();
        let exact = banded_of(&a, &b, 3);
        let threshold = exact / 10.0;
        match dtw_banded(&a, &b, 3, Some(threshold), &mut scratch) {
            BoundedDistance::AboveThreshold(lb) => {
                assert!(lb > threshold, "bound {lb} not above threshold {threshold}");
                assert!(lb <= exact, "bound {lb} exceeds true distance {exact}");
            }
            other => panic!("expected pruning, got {other:?}"),
        }
    }

    #[test]
    fn bounded_distance_accessors() {
        assert_eq!(BoundedDistance::Exact(2.0).value(), 2.0);
        assert_eq!(BoundedDistance::AboveThreshold(3.0).value(), 3.0);
        assert!(!BoundedDistance::Exact(2.0).is_pruned());
        assert!(BoundedDistance::AboveThreshold(3.0).is_pruned());
    }

    #[test]
    fn is_valid_warp_path_rejects_bad_paths() {
        assert!(!is_valid_warp_path(&[], 2, 2));
        assert!(!is_valid_warp_path(&[(0, 0)], 2, 2)); // doesn't reach end
        assert!(!is_valid_warp_path(&[(0, 0), (1, 1), (0, 1), (1, 1)], 2, 2)); // backwards
        assert!(!is_valid_warp_path(&[(0, 0), (0, 0), (1, 1)], 2, 2)); // stall
        assert!(is_valid_warp_path(&[(0, 0), (1, 1)], 2, 2));
    }

    #[test]
    fn kernels_never_panic_on_non_finite_input() {
        // The hardening contract: DTW kernels contain no float-ordering
        // panics, so non-finite samples flow through as non-finite
        // distances the comparator can quarantine. (Ingest filtering
        // should prevent such input, but the kernels must not be the
        // layer that dies if it slips through.)
        let clean: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut scratch = DtwScratch::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut dirty = clean.clone();
            dirty[7] = bad;
            assert!(!exact_of(&clean, &dirty).is_finite(), "bad={bad}");
            assert!(!banded_of(&clean, &dirty, 3).is_finite(), "bad={bad}");
            let (d, path) = dtw_with_path(&clean, &dirty);
            assert!(!d.is_finite());
            assert!(is_valid_warp_path(&path, clean.len(), dirty.len()));
            // The abandoning form must terminate and stay sound: either
            // the exact (non-finite) distance or an abandonment.
            let _ = dtw_banded(&clean, &dirty, 3, Some(1.0), &mut scratch);
        }
        // Worst case: every DP cell is NaN, so every backtracking
        // comparison is false. Regression for a subtraction underflow in
        // the path walk when it ran off the j == 0 edge.
        let all_nan = vec![f64::NAN; 32];
        let (d, path) = dtw_with_path(&clean, &all_nan);
        assert!(d.is_nan());
        assert!(is_valid_warp_path(&path, clean.len(), all_nan.len()));
        let (d, path) = dtw_with_path(&all_nan, &clean);
        assert!(d.is_nan());
        assert!(is_valid_warp_path(&path, all_nan.len(), clean.len()));
    }

    #[test]
    fn finite_distance_for_clean_series_is_unaffected_by_hardening() {
        let a: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).cos()).collect();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2 + 0.4).cos()).collect();
        assert!(exact_of(&a, &b).is_finite());
        assert!(banded_of(&a, &b, 2).is_finite());
    }
}
