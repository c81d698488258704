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
//!
//! # Two pairs per wavefront
//!
//! At the comparator's radius (5% of 200 samples) an anti-diagonal holds
//! about ten cells, so what each anti-diagonal costs besides its cells —
//! its row interval, its slices and two sentinels — is a large part of a
//! pair. [`dtw_banded_lanes`] shares that work between two pairs: the DP
//! is generic over its cell type, and with `[f64; 2]` cells and the two
//! pairs' samples interleaved, one SSE2 operation advances both pairs and
//! each anti-diagonal's bookkeeping is paid once for two. The two pairs
//! must have one band shape `(N, M, radius)`, and they read that shape's
//! anti-diagonals from a [`BandPlan`], walked once per shape instead of
//! once per pair. A comparison sweep groups its pairs by shape; a round of
//! 80 neighbours has about 150 shapes.
//!
//! Each lane runs the textbook recurrence on its own pair with the same
//! operands, so every distance keeps its bits. The one difference is the
//! min: a lane takes `if a < b { a } else { b }`, which vectorises, where
//! the one-lane DP takes `f64::min`, which ignores a NaN operand. The two
//! agree on every operand pair but NaN and `±0.0` — and over finite
//! samples no cell is NaN or `−0.0`: point costs are squares (`+0.0` or
//! more, `+∞` where they overflow) and cells are their sums. So the lanes
//! are bit-identical to [`dtw_banded`] on finite samples only; a caller
//! checks its series once and sends a pair that touches a non-finite one
//! through [`dtw_banded`].

use std::convert::Infallible;
use std::ops::ControlFlow;

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
    windowed_distance(x, y, full, scratch)
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
        Some(t) => {
            let DtwScratch {
                reversed,
                diagonals,
                row_min,
                ..
            } = scratch;
            let mut abandon = Abandon::new(t, row_min);
            match one_lane(x, y, band, reversed, diagonals, &mut abandon) {
                ControlFlow::Continue(d) => BoundedDistance::Exact(d),
                ControlFlow::Break(bound) => BoundedDistance::AboveThreshold(bound),
            }
        }
        None => BoundedDistance::Exact(windowed_distance(x, y, band, scratch)),
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
    windowed_distance(x, y, window.iter().copied(), scratch)
}

/// The one-lane DP's distance over the window whose rows are `rows`.
fn windowed_distance(
    x: &[f64],
    y: &[f64],
    rows: impl Iterator<Item = (usize, usize)> + Clone,
    scratch: &mut DtwScratch,
) -> f64 {
    let DtwScratch {
        reversed,
        diagonals,
        ..
    } = scratch;
    let ControlFlow::Continue(d) = one_lane(x, y, rows, reversed, diagonals, &mut Distance);
    d
}

/// Runs the DP on one lane over the window whose rows are `rows` (see
/// [`Wavefront`]), with `y` reversed into `reversed` (see
/// [`wavefront_dp`]) and the anti-diagonals in `diagonals`.
fn one_lane<V: Visit<f64>>(
    x: &[f64],
    y: &[f64],
    rows: impl Iterator<Item = (usize, usize)> + Clone,
    reversed: &mut Vec<f64>,
    diagonals: &mut Vec<f64>,
    visit: &mut V,
) -> ControlFlow<V::Stop, f64> {
    let wavefront = Wavefront::new(rows, x.len(), y.len());
    reversed.clear();
    reversed.extend(y.iter().rev());
    wavefront_dp(x, reversed, wavefront, diagonals, visit)
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
    let DtwScratch {
        reversed,
        diagonals,
        cells,
        cell_runs,
        ..
    } = scratch;
    let mut keep = Keep::new(cells, cell_runs);
    let ControlFlow::Continue(dist) = one_lane(x, y, rows, reversed, diagonals, &mut keep);
    let (cells, runs) = (&*cells, &*cell_runs);
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

/// The value of one DP cell: one pair's `f64`, or two pairs' `[f64; 2]`
/// side by side, one per lane. [`wavefront_dp`] writes the recurrence
/// once, over these element-wise operations.
trait Lanes: Copy {
    /// `+∞` in every lane: the value of a cell outside the window.
    const INF: Self;
    /// `0.0` in every lane: the origin's predecessor.
    const ZERO: Self;
    /// [`point_cost`] in every lane.
    fn point_cost(x: Self, y: Self) -> Self;
    /// The smaller operand in every lane.
    fn min(a: Self, b: Self) -> Self;
    /// The sum in every lane.
    fn add(a: Self, b: Self) -> Self;
    /// A test that no cell passes (cells are never negative), for the cell
    /// loop to end on. It is there only for what it keeps the compiler
    /// from doing: see the two-lane form.
    fn ends_early(cell: Self) -> bool;
}

/// One pair: the textbook operations, with `f64::min`, which ignores a
/// NaN operand.
impl Lanes for f64 {
    const INF: f64 = f64::INFINITY;
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn point_cost(x: f64, y: f64) -> f64 {
        point_cost(x, y)
    }
    #[inline(always)]
    fn min(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    /// Constant `false`, so the cell loop has one exit, and the loop
    /// vectoriser runs two or more cells of the anti-diagonal per SSE2
    /// operation.
    #[inline(always)]
    fn ends_early(_: f64) -> bool {
        false
    }
}

/// Two pairs over finite samples (see [`dtw_banded_lanes`]): the min is
/// the plain comparison `if a < b { a } else { b }`. Over finite samples
/// no cell is NaN or −0.0 — point costs are squares, `+∞` at worst, and
/// sums of them — so it returns `f64::min`'s bits, and it is what lets
/// both lanes' cells compile to one SSE2 `minpd`.
impl Lanes for [f64; 2] {
    const INF: [f64; 2] = [f64::INFINITY; 2];
    const ZERO: [f64; 2] = [0.0; 2];
    #[inline(always)]
    fn point_cost(x: [f64; 2], y: [f64; 2]) -> [f64; 2] {
        [point_cost(x[0], y[0]), point_cost(x[1], y[1])]
    }
    #[inline(always)]
    fn min(a: [f64; 2], b: [f64; 2]) -> [f64; 2] {
        let min = |a: f64, b: f64| if a < b { a } else { b };
        [min(a[0], b[0]), min(a[1], b[1])]
    }
    #[inline(always)]
    fn add(a: [f64; 2], b: [f64; 2]) -> [f64; 2] {
        [a[0] + b[0], a[1] + b[1]]
    }
    /// `cell[0] < 0.0`, never true. The test gives the cell loop a second
    /// exit, which keeps LLVM's loop vectoriser from running two cells per
    /// step with the lanes shuffled apart and back; each cell's two lanes
    /// then share one register, and the loop costs about 0.8× as much (2.5
    /// against 3.2 µs per pair in a 3,160-pair micro-run).
    #[inline(always)]
    fn ends_early(cell: [f64; 2]) -> bool {
        cell[0] < 0.0
    }
}

/// What [`wavefront_dp`] does after each anti-diagonal besides computing
/// it: nothing ([`Distance`]), fold and check row minima ([`Abandon`]), or
/// keep the cells ([`Keep`]). Each is a type of its own, so the DP is
/// compiled once per use and the distance-only form folds nothing: folding
/// the minima slows the no-threshold banded kernel by about 30% on
/// 200-sample series.
trait Visit<L> {
    /// Why the evaluation stopped early.
    type Stop;
    /// Sees the cells of one anti-diagonal, rows `first..first +
    /// cells.len()`; `Break` ends the evaluation.
    fn diagonal(&mut self, first: usize, cells: &[L]) -> ControlFlow<Self::Stop>;
    /// Called once after the last anti-diagonal of a window of `rows` rows.
    fn finish(&mut self, rows: usize) -> ControlFlow<Self::Stop>;
}

/// The distance alone.
struct Distance;

impl<L> Visit<L> for Distance {
    type Stop = Infallible;
    #[inline(always)]
    fn diagonal(&mut self, _: usize, _: &[L]) -> ControlFlow<Infallible> {
        ControlFlow::Continue(())
    }
    #[inline(always)]
    fn finish(&mut self, _: usize) -> ControlFlow<Infallible> {
        ControlFlow::Continue(())
    }
}

/// The early-abandon rule of [`dtw_banded`]: each row's minimum is folded
/// as its cells are computed, and the first completed row whose minimum
/// exceeds `above` (strictly) stops the evaluation with that minimum.
///
/// The first row of the wavefront moves by at most one row per
/// anti-diagonal, because the anti-diagonal on which row `i` leaves,
/// `i + hi_i`, grows strictly with `i`. So when an anti-diagonal starts
/// one row later than the one before, the row it left behind completed on
/// the one before, and rows complete in order; the last row completes with
/// the last anti-diagonal. Each row is checked once, the anti-diagonal after it
/// completes, so the decision and the bound are the row-major rule's.
/// Point costs are never negative and `f64::min` ignores NaN, so a row
/// minimum does not depend on the order of its cells.
struct Abandon<'s> {
    above: f64,
    /// Per-row minima, grown only to the rows the wavefront reaches.
    row_min: &'s mut Vec<f64>,
    /// The wavefront's first row on the last anti-diagonal seen.
    first: usize,
}

impl<'s> Abandon<'s> {
    fn new(above: f64, row_min: &'s mut Vec<f64>) -> Self {
        row_min.clear();
        Abandon {
            above,
            row_min,
            first: 0,
        }
    }

    /// Stops if completed row `row`'s minimum exceeds the threshold. Every
    /// row has a cell before it completes, so its minimum exists.
    fn check(&self, row: usize) -> ControlFlow<f64> {
        match self.row_min.get(row) {
            Some(&min) if min > self.above => ControlFlow::Break(min),
            _ => ControlFlow::Continue(()),
        }
    }
}

impl Visit<f64> for Abandon<'_> {
    type Stop = f64;
    fn diagonal(&mut self, first: usize, cells: &[f64]) -> ControlFlow<f64> {
        if first > self.first {
            self.check(self.first)?;
            self.first = first;
        }
        let end = first + cells.len();
        if self.row_min.len() < end {
            self.row_min.resize(end, f64::INFINITY);
        }
        for (r, &cell) in self.row_min.iter_mut().skip(first).zip(cells) {
            *r = r.min(cell);
        }
        ControlFlow::Continue(())
    }

    fn finish(&mut self, rows: usize) -> ControlFlow<f64> {
        self.check(rows - 1)
    }
}

/// The path-returning forms' table: every anti-diagonal's cells — exactly
/// the window's cells on it — appended to `cells` as one run, and in
/// `runs` each run's first row and offset, then one entry marking the end.
/// [`path_dp`] backtracks through it.
struct Keep<'s> {
    cells: &'s mut Vec<f64>,
    runs: &'s mut Vec<(usize, usize)>,
}

impl<'s> Keep<'s> {
    fn new(cells: &'s mut Vec<f64>, runs: &'s mut Vec<(usize, usize)>) -> Self {
        cells.clear();
        runs.clear();
        Keep { cells, runs }
    }
}

impl Visit<f64> for Keep<'_> {
    type Stop = Infallible;
    fn diagonal(&mut self, first: usize, cells: &[f64]) -> ControlFlow<Infallible> {
        self.runs.push((first, self.cells.len()));
        self.cells.extend_from_slice(cells);
        ControlFlow::Continue(())
    }

    fn finish(&mut self, rows: usize) -> ControlFlow<Infallible> {
        self.runs.push((rows, self.cells.len()));
        ControlFlow::Continue(())
    }
}

/// The anti-diagonals of a window, in order, each as its first row and its
/// number of rows, walked from the window's rows.
///
/// `rows` yields each row's inclusive column range, in row order, one per
/// row of `x`. The ranges must be monotone (both edges non-decreasing),
/// start at column 0 and end at the last column, as every FastDTW
/// window's and Sakoe–Chiba band's are. The rows of one anti-diagonal form
/// an interval `[a, b]`, because `i + lo_i` and `i + hi_i` both grow
/// strictly with `i`; each end moves by at most one row per anti-diagonal,
/// and the interval is empty (`b = a − 1`) where consecutive rows' column
/// ranges do not overlap, e.g. radius 0 with `M ≥ 2N`. Row `a` leaves the
/// interval after anti-diagonal `a + hi_a`, and row `b + 1` enters it on
/// anti-diagonal `b + 1 + lo_{b+1}`. Two clones of `rows` follow the
/// wavefront — one on its first row, one on the row after its last — and
/// keep just those two numbers, so each takes a row's range only when the
/// wavefront reaches that row, and an evaluation abandoned in row 0 walks
/// only the first few.
struct Wavefront<R> {
    /// The rows after `a`.
    leaving: R,
    /// The rows after `b + 1`.
    entering: R,
    a: usize,
    b: usize,
    /// The last anti-diagonal of row `a`.
    a_last: usize,
    /// The first anti-diagonal of row `b + 1` (`usize::MAX` past the last
    /// row).
    b_next: usize,
    /// The next anti-diagonal, and one past the last.
    d: usize,
    end: usize,
}

impl<R: Iterator<Item = (usize, usize)> + Clone> Wavefront<R> {
    /// The anti-diagonals of the `n × m` window whose rows are `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `m` is zero.
    fn new(rows: R, n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0, "dtw requires non-empty series");
        let mut leaving = rows.clone();
        let mut entering = rows;
        let a_last = leaving.next().map_or(usize::MAX, |(_, hi)| hi);
        entering.next();
        let b_next = entering.next().map_or(usize::MAX, |(lo, _)| 1 + lo);
        Wavefront {
            leaving,
            entering,
            a: 0,
            b: 0,
            a_last,
            b_next,
            d: 0,
            end: n + m - 1,
        }
    }
}

impl<R: Iterator<Item = (usize, usize)>> Iterator for Wavefront<R> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        let d = self.d;
        if d == self.end {
            return None;
        }
        self.d += 1;
        if self.a_last < d {
            self.a += 1;
            let a = self.a;
            self.a_last = self.leaving.next().map_or(usize::MAX, |(_, hi)| a + hi);
        }
        if self.b_next <= d {
            self.b += 1;
            let b = self.b;
            self.b_next = self
                .entering
                .next()
                .map_or(usize::MAX, |(lo, _)| b + 1 + lo);
        }
        Some((self.a, self.b + 1 - self.a))
    }
}

/// The anti-diagonals of one Sakoe–Chiba band shape, walked once: each
/// anti-diagonal's first row and number of rows (see [`dtw_banded`] for
/// the band).
///
/// The band depends only on the shape — `N` rows, `M` columns and the
/// radius — so every pair of that shape can share one plan, and
/// [`dtw_banded_lanes`] pays the band walk once per shape instead of once
/// per pair.
///
/// # Example
///
/// ```
/// use vp_timeseries::dtw::{dtw_banded, dtw_banded_lanes, BandPlan};
/// use vp_timeseries::DtwScratch;
///
/// let (a, b) = ([0.0, 1.0, 2.0, 1.0], [0.0, 0.5, 2.0, 2.0, 1.0]);
/// let (c, d) = ([1.0, 1.0, 0.0, 3.0], [2.0, 1.0, 0.0, 0.0, 3.0]);
/// let plan = BandPlan::new(4, 5, 1);
/// let mut scratch = DtwScratch::new();
/// let both = dtw_banded_lanes(&plan, [&a, &c], [&b, &d], &mut scratch);
/// assert_eq!(both[0], dtw_banded(&a, &b, 1, None, &mut scratch).value());
/// assert_eq!(both[1], dtw_banded(&c, &d, 1, None, &mut scratch).value());
/// ```
#[derive(Debug, Clone)]
pub struct BandPlan {
    rows: usize,
    cols: usize,
    /// Per anti-diagonal: its first row and its number of rows.
    diagonals: Vec<(usize, usize)>,
}

impl BandPlan {
    /// The plan of the band of half-width `radius` over a `rows × cols`
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, radius: usize) -> Self {
        let band = SakoeChibaEdges::new(rows, cols, radius);
        BandPlan {
            rows,
            cols,
            diagonals: Wavefront::new(band, rows, cols).collect(),
        }
    }

    /// The number of rows `N`: the length of the first series.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns `M`: the length of the second series.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// [`dtw_banded`] without a threshold on two pairs of one shape at once:
/// `[dist(x[0], y[0]), dist(x[1], y[1])]`, both over `plan`'s band.
///
/// The two pairs' samples are interleaved into the scratch, and the one
/// DP runs on `[f64; 2]` cells, so one SSE2 operation advances both pairs
/// and the per-anti-diagonal work is paid once for two. Each lane applies
/// the textbook recurrence to its own pair with the same operands, and
/// its min is the plain comparison `<`, which returns `f64::min`'s bits
/// whenever no cell is NaN or −0.0. That holds for finite samples, even
/// where a point cost overflows to `+∞`, so **with finite samples every
/// distance has the bits of `dtw_banded(x[l], y[l], radius, None, ..)`**.
/// A NaN or infinite sample voids that guarantee (the result is still
/// returned, without a panic): callers check their series once and send
/// a pair that touches a non-finite one to [`dtw_banded`].
///
/// # Panics
///
/// Panics if a series' length differs from `plan`'s shape.
pub fn dtw_banded_lanes(
    plan: &BandPlan,
    x: [&[f64]; 2],
    y: [&[f64]; 2],
    scratch: &mut DtwScratch,
) -> [f64; 2] {
    let (n, m) = (plan.rows, plan.cols);
    assert!(
        x.iter().all(|s| s.len() == n) && y.iter().all(|s| s.len() == m),
        "series lengths must match the band plan"
    );
    let DtwScratch {
        lanes,
        lane_diagonals,
        ..
    } = scratch;
    lanes.clear();
    lanes.extend(x[0].iter().zip(x[1]).map(|(&p, &q)| [p, q]));
    lanes.extend(y[0].iter().zip(y[1]).rev().map(|(&p, &q)| [p, q]));
    let (xs, ys) = lanes.split_at(n);
    let diagonals = plan.diagonals.iter().copied();
    let ControlFlow::Continue(d) = wavefront_dp(xs, ys, diagonals, lane_diagonals, &mut Distance);
    d
}

/// The one DTW dynamic program: [`dtw`] runs it over the full matrix,
/// [`dtw_banded`] over the Sakoe–Chiba band, FastDTW and
/// [`dtw_with_path`] over their windows, all on one lane, and
/// [`dtw_banded_lanes`] over a [`BandPlan`] on two.
///
/// The second series comes reversed, as `y_rev`. `diagonals` yields the
/// window's anti-diagonals in order, each as its first row and its number
/// of rows — a [`Wavefront`] walking the rows, or a plan's stored walk —
/// `N + M − 1` of them, the last holding only the cell `(N−1, M−1)`.
/// `buffers` holds the last three anti-diagonals and `visit` sees each one
/// after it is computed (see [`Visit`]).
///
/// # Anti-diagonal order
///
/// Cell `(i, j)` reads `up = (i−1, j)` and `left = (i, j−1)` from
/// anti-diagonal `i + j − 1` and `diag = (i−1, j−1)` from `i + j − 2`, so
/// the cells of one anti-diagonal do not depend on each other. The DP
/// walks anti-diagonals and keeps the last three in `buffers`, indexed by
/// row (slot `i + 1`; slot 0 is row −1). Along an anti-diagonal the row
/// rises as the column falls, so with `y` reversed every slice is read
/// front to back, and each anti-diagonal is a plain slice loop
/// ([`anti_diagonal`]) the compiler vectorises without shuffling.
///
/// Instead of per-cell range guards, each anti-diagonal writes `+∞` into
/// the slots of rows `a − 1` and `b + 1`, where `[a, b]` are its rows. The
/// next two anti-diagonals read only those slots and the interval itself,
/// so every neighbour outside the window reads as `+∞`, and stale buffer
/// contents are never read. The origin's `c + 0.0` comes from a `0.0` in
/// the row −1 slot of anti-diagonal −2.
///
/// # Agreement with the scalar recurrence
///
/// Every cell is `c + min(min(up, diag), left)`, the textbook recurrence
/// with the same operands. On one lane the min is `f64::min`, so the DP
/// agrees with a row-major scalar loop on every non-NaN bit and on which
/// results are NaN; on two it agrees on finite samples (see
/// [`dtw_banded_lanes`]). `tests/kernel_oracle.rs` checks both.
// vp-lint: allow(panic-reachability) — each anti-diagonal's rows a..a + len lie within 0..N and its columns within 0..M, so every slice is in range
fn wavefront_dp<L: Lanes, V: Visit<L>>(
    x: &[L],
    y_rev: &[L],
    diagonals: impl Iterator<Item = (usize, usize)>,
    buffers: &mut Vec<L>,
    visit: &mut V,
) -> ControlFlow<V::Stop, L> {
    let (n, m) = (x.len(), y_rev.len());
    let slots = n + 2;
    if buffers.len() < 3 * slots {
        buffers.resize(3 * slots, L::INF);
    }
    let (mut d2, rest) = buffers[..3 * slots].split_at_mut(slots);
    let (mut d1, mut d0) = rest.split_at_mut(slots);
    // Anti-diagonals −2 and −1: the origin's 0.0, and rows −1 and 0
    // outside the window.
    d2[0] = L::ZERO;
    d1[0] = L::INF;
    d1[1] = L::INF;

    for (d, (a, len)) in diagonals.enumerate() {
        let xs = &x[a..a + len];
        // Rows a..a + len meet columns d − a down to d − a − len + 1,
        // which `y_rev` holds from index m − 1 − (d − a) upwards.
        let rev = m - 1 + a - d;
        let ys = &y_rev[rev..rev + len];
        let up = &d1[a..a + len];
        let left = &d1[a + 1..a + 1 + len];
        let diag = &d2[a..a + len];
        let out = &mut d0[a + 1..a + 1 + len];
        anti_diagonal(xs, ys, up, diag, left, out);
        d0[a] = L::INF;
        d0[a + len + 1] = L::INF;
        visit.diagonal(a, &d0[a + 1..a + 1 + len])?;
        (d2, d1, d0) = (d1, d0, d2);
    }
    visit.finish(n)?;
    ControlFlow::Continue(d1[n])
}

/// One anti-diagonal's cells: the recurrence, written once.
///
/// A function of its own, so that LLVM knows `out` overlaps none of the
/// slices it reads: its arguments' no-alias facts survive inlining, and
/// the loop carries no run-time overlap checks into every anti-diagonal.
#[inline]
fn anti_diagonal<L: Lanes>(xs: &[L], ys: &[L], up: &[L], diag: &[L], left: &[L], out: &mut [L]) {
    let inputs = xs.iter().zip(ys).zip(up.iter().zip(diag).zip(left));
    for (out, ((&x, &y), ((&up, &diag), &left))) in out.iter_mut().zip(inputs) {
        let cell = L::add(L::point_cost(x, y), L::min(L::min(up, diag), left));
        *out = cell;
        if L::ends_early(cell) {
            break;
        }
    }
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
