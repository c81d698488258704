//! LB_Keogh-style lower bounds for banded DTW.
//!
//! LB_Keogh (Keogh & Ratanamahatana) bounds DTW from below using an
//! *envelope* of one series: if row `i` of the banded DTW matrix may only
//! visit columns `band(i) = [lo_i, hi_i]`, then any monotone warp path
//! must align `xᵢ` with some `y_j`, `j ∈ band(i)`. The cheapest such
//! alignment costs at least the squared distance from `xᵢ` to the interval
//! `[Lᵢ, Uᵢ]` where `Uᵢ = max y[band(i)]` and `Lᵢ = min y[band(i)]`.
//! Because a path visits at least one in-band cell of **every** row and
//! the squared point costs (paper Eq. 3) are non-negative, the per-row
//! contributions sum to a lower bound on the banded DTW distance.
//!
//! This generalises the textbook equal-length LB_Keogh to the
//! unequal-length, corner-anchored Sakoe–Chiba bands used by
//! [`crate::dtw::dtw_banded`]: the envelope is taken over exactly the band
//! the DP will search, so the bound is sound for that kernel by
//! construction. It is **not** a bound for unconstrained [`crate::dtw::dtw`]
//! (a wider search could find a cheaper path than the band allows).
//!
//! # One table entry per row
//!
//! Row `i` of an `N × M` band is centred on `q = i·(M−1)/(N−1)`
//! ([`crate::window::sakoe_chiba_range`]). When `q` is an integer the
//! row's columns are `[q − r, q + r]`; otherwise they are
//! `[⌈q⌉ − r, ⌈q⌉ + r − 1]` (the single column `⌈q⌉` at `r = 0`), both
//! clamped to the series. The corner anchors change nothing: row 0 has
//! `q = 0` and row `N − 1` has `q = M − 1`, whose clamped windows already
//! reach the corners. The one exception is `N = 1`, whose single row is
//! both corners and spans the whole partner. So a [`KeoghEnvelope`] —
//! per column `k` the extremes of the *full* window `y[k−r ..= k+r]` and
//! the *half* window `y[k−r ..= k+r−1]`, plus the whole series' — gives
//! every row's envelope against a partner of **any** length as one
//! table entry, at offset `2⌈q⌉` (full) or `2⌈q⌉ + 1` (half), or `2M`
//! (whole) for a one-row partner.
//!
//! Which entry each row reads depends only on `N` and `M`. A single pair
//! walks the diagonal for them ([`lb_keogh_envelope`]); a comparison sweep
//! stores them once per shape in a [`KeoghRows`] table and reads them
//! from there, so each pair's bound is one read-and-accumulate pass with
//! no per-row branch. Both hand their offsets, as an iterator, to one
//! body, which sums the rows in row order with one accumulator.
//!
//! # Building the tables by sliding scans
//!
//! The textbook envelope sweep keeps monotonic deques: a new column pops
//! the back while the back is `≤` it (`≥` for minima), and columns left of
//! the band expire from the front. Its front for a window `[lo, hi]` is
//! the window's extreme, the **rightmost** one on ties (which matters for
//! `±0.0`), except around NaN: a NaN is never popped and pops nothing, so
//! the front is the extreme of `y[lo ..]` up to the window's first NaN,
//! and a NaN at `lo` is the front itself. [`KeoghEnvelope::build`] computes
//! exactly that, without a deque:
//!
//! * a series without NaN takes an **offset-major slide**: every column's
//!   extreme is folded over the offsets `−r ..= r` one offset at a time,
//!   each pass a plain loop over the columns (`if acc > v { acc } else
//!   { v }`, one SSE2 `maxpd`, keeps the rightmost of equal values). The
//!   series is padded by repeating its end samples, which clamps the
//!   windows: folding a value again right after itself changes no bits;
//! * a series with a NaN scans each window from its left edge, stopping
//!   at the first NaN.
//!
//! The slide costs `O(M · min(r, M))`, about 1.2 µs for 200 samples at
//! `r = 5` against about 7 µs for the monotone stack it replaced, whose
//! pops were data-dependent branches; `tests/oracle/mod.rs` keeps that
//! stack as the oracle.

use crate::window::DiagonalWalk;

/// LB_Keogh envelope tables of one series at one Sakoe–Chiba radius; see
/// the module docs. Build with [`KeoghEnvelope::build`], read with
/// [`lb_keogh_envelope`] or [`KeoghRows::lower_bound`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeoghEnvelope {
    /// Band half-width the tables were built for.
    radius: usize,
    /// See [`KeoghEnvelope::entries`].
    entries: Vec<[f64; 2]>,
}

impl KeoghEnvelope {
    /// The envelope tables of `y` at band half-width `radius`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is empty.
    pub fn build(y: &[f64], radius: usize) -> Self {
        assert!(!y.is_empty(), "lb_keogh requires non-empty series");
        let m = y.len();
        // Past `m` every window is the whole series.
        let r = radius.min(m);
        let mut entries = vec![[f64::NAN; 2]; 2 * m + 1];
        if y.iter().any(|v| v.is_nan()) {
            for (k, pair) in entries.chunks_exact_mut(2).enumerate() {
                let (lo, hi) = (k.saturating_sub(r), |w: usize| (k + w).min(m - 1));
                pair[0] = scan(y, lo, hi(r));
                // The half window ends a column earlier; at radius 0 it is
                // the full one.
                pair[1] = scan(y, lo, hi(r.saturating_sub(1)));
            }
        } else {
            slide(y, r, &mut entries);
        }
        entries[2 * m] = scan(y, 0, m - 1);
        KeoghEnvelope { radius, entries }
    }

    /// Band half-width the tables were built for.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Length of the series the tables were built from.
    pub fn len(&self) -> usize {
        self.entries.len() / 2
    }

    /// Whether the tables cover no samples (only for a default value).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tables, each entry a window's `[max, min]`: entry `2k` is
    /// column `k`'s full window `y[k−r ..= k+r]`, entry `2k + 1` its half
    /// window `y[k−r ..= k+r−1]` (`y[k]` alone at radius 0), both clamped
    /// to the series, and entry `2M` the whole series.
    pub fn entries(&self) -> &[[f64; 2]] {
        &self.entries
    }
}

/// The max and min of `y[lo ..= hi]` as the deque sweep's front holds
/// them: the rightmost extreme, stopping at the first NaN after `lo`, or
/// the NaN at `lo` itself.
// vp-lint: allow(panic-reachability) — callers pass lo <= hi < y.len()
fn scan(y: &[f64], lo: usize, hi: usize) -> [f64; 2] {
    let mut ext = [y[lo]; 2];
    if y[lo].is_nan() {
        return ext;
    }
    for &v in y[lo + 1..=hi].iter().take_while(|v| !v.is_nan()) {
        ext = [pick_max(ext[0], v), pick_min(ext[1], v)];
    }
    ext
}

/// The larger of `acc` and a later `v`, `v` on ties: SSE2 `maxpd`.
#[inline(always)]
fn pick_max(acc: f64, v: f64) -> f64 {
    if acc > v {
        acc
    } else {
        v
    }
}

/// The smaller of `acc` and a later `v`, `v` on ties: SSE2 `minpd`.
#[inline(always)]
fn pick_min(acc: f64, v: f64) -> f64 {
    if acc < v {
        acc
    } else {
        v
    }
}

/// The column entries of a NaN-free `y` at radius `r ≤ y.len()`, by the
/// offset-major slide of the module docs.
// vp-lint: allow(panic-reachability) — `padded` holds m + 2r samples, so every offset's m-sample slice is in range
fn slide(y: &[f64], r: usize, entries: &mut [[f64; 2]]) {
    let m = y.len();
    let (first, last) = (y[0], y[m - 1]);
    let padded: Vec<f64> = std::iter::repeat_n(first, r)
        .chain(y.iter().copied())
        .chain(std::iter::repeat_n(last, r))
        .collect();
    // Offset 0 is column k's left edge `k − r`; offsets up to 2r − 1 end
    // the half window, offset 2r the full one.
    let mut max = padded[..m].to_vec();
    let mut min = max.clone();
    for d in 1..2 * r {
        let window = &padded[d..d + m];
        for ((hi, lo), &v) in max.iter_mut().zip(min.iter_mut()).zip(window) {
            *hi = pick_max(*hi, v);
            *lo = pick_min(*lo, v);
        }
    }
    let full = &padded[2 * r..2 * r + m];
    for (pair, ((&hi, &lo), &v)) in entries
        .chunks_exact_mut(2)
        .zip(max.iter().zip(&min).zip(full))
    {
        pair[0] = [pick_max(hi, v), pick_min(lo, v)];
        pair[1] = if r == 0 { pair[0] } else { [hi, lo] };
    }
}

/// Every row's envelope entry against an `m`-sample partner, in row order
/// (see the module docs): the diagonal walked with additions.
fn walked_rows(n: usize, m: usize) -> impl Iterator<Item = usize> {
    let mut q = DiagonalWalk::at(n, m, 0);
    (0..n).map(move |i| {
        if n == 1 {
            return 2 * m;
        }
        if i > 0 {
            q.advance();
        }
        2 * q.ceil() + usize::from(q.rem != 0)
    })
}

/// The one LB_Keogh body: row `i` adds `x[i]`'s gap to envelope entry
/// `rows[i]`, summed in row order.
fn lb_sum(x: &[f64], envelope: &KeoghEnvelope, rows: impl Iterator<Item = usize>) -> f64 {
    let mut sum = 0.0;
    for (&xi, e) in x.iter().zip(rows) {
        let [hi, lo] = envelope.entries[e];
        sum += gap_cost(xi, hi, lo);
    }
    sum
}

/// LB_Keogh lower bound on [`crate::dtw::dtw_banded`]`(x, y, radius, …)`,
/// read from `y`'s envelope tables at that radius (see the module docs):
/// one pass over `x`, each row's envelope one table entry, walked from
/// the shape. A sweep over many pairs of one shape stores the walk in a
/// [`KeoghRows`] table instead, with the same bits.
///
/// The bound never exceeds the exact banded DTW distance, so a pair whose
/// bound already exceeds a pruning threshold can skip the quadratic
/// dynamic program entirely.
///
/// Each row adds the branchless clamped-gap cost
/// `over = max(xᵢ − Uᵢ, 0)`, `under = max(Lᵢ − xᵢ, 0)`, `over² + under²`,
/// summed in row order.
///
/// # Agreement with the per-row branch form
///
/// The textbook form adds `point_cost(xᵢ, Uᵢ)` when `xᵢ > Uᵢ` and
/// `point_cost(xᵢ, Lᵢ)` when `xᵢ < Lᵢ`. At most one of `over`/`under` is
/// non-zero (`Lᵢ ≤ Uᵢ` always), so the clamped cost reduces to that single
/// `point_cost` plus `+0.0` — a bitwise identity for the non-negative
/// values involved. `NaN` envelopes or samples clamp both terms to zero,
/// matching the branches (comparisons against `NaN` are false).
/// `tests/kernel_oracle.rs` checks this against the branch form.
///
/// # Panics
///
/// Panics if `x` is empty or the envelope is (a default value).
pub fn lb_keogh_envelope(x: &[f64], envelope: &KeoghEnvelope) -> f64 {
    let (n, m) = (x.len(), envelope.len());
    assert!(n > 0 && m > 0, "lb_keogh requires non-empty series");
    lb_sum(x, envelope, walked_rows(n, m))
}

/// Every row's LB_Keogh envelope entry for one shape `rows × cols`,
/// stored once: the sweep form of [`lb_keogh_envelope`], with its bits
/// (see the module docs). The entries do not depend on the radius, so one
/// table serves a shape's pairs against tables of any radius.
///
/// # Example
///
/// ```
/// use vp_timeseries::lowerbound::{lb_keogh_envelope, KeoghEnvelope, KeoghRows};
///
/// let (x, y) = ([0.0, 3.0, 1.0, 4.0], [1.0, 1.0, 2.0, 0.0, 2.0]);
/// let envelope = KeoghEnvelope::build(&y, 1);
/// let rows = KeoghRows::new(4, 5);
/// assert_eq!(rows.lower_bound(&x, &envelope), lb_keogh_envelope(&x, &envelope));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KeoghRows {
    cols: usize,
    /// Per row, its entry in a `cols`-sample envelope.
    entries: Vec<usize>,
}

impl KeoghRows {
    /// The table of the `rows × cols` shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "lb_keogh requires non-empty series");
        KeoghRows {
            cols,
            entries: walked_rows(rows, cols).collect(),
        }
    }

    /// [`lb_keogh_envelope`]`(x, envelope)`, reading each row's entry from
    /// the table.
    ///
    /// # Panics
    ///
    /// Panics if `x` or the envelope's series differs in length from the
    /// table's shape.
    pub fn lower_bound(&self, x: &[f64], envelope: &KeoghEnvelope) -> f64 {
        assert!(
            x.len() == self.entries.len() && envelope.len() == self.cols,
            "series lengths must match the row table"
        );
        lb_sum(x, envelope, self.entries.iter().copied())
    }
}

/// `xᵢ`'s squared gap to the envelope `[lo, hi]`: `over² + under²`.
#[inline]
fn gap_cost(xi: f64, hi: f64, lo: f64) -> f64 {
    let over = (xi - hi).max(0.0);
    let under = (lo - xi).max(0.0);
    over * over + under * under
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw_banded;
    use crate::DtwScratch;
    use vp_stats::rng::SplitMix64;

    /// The single-pair bound: `y`'s tables built for this one pair.
    fn pair_lb(x: &[f64], y: &[f64], radius: usize) -> f64 {
        lb_keogh_envelope(x, &KeoghEnvelope::build(y, radius))
    }

    fn pseudo_random(seed: u64, n: usize, scale: f64) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.range_f64(-scale / 2.0..scale / 2.0))
            .collect()
    }

    #[test]
    fn bound_never_exceeds_banded_dtw() {
        let mut scratch = DtwScratch::new();
        for (n, m, radius) in [
            (1usize, 1usize, 0usize),
            (1, 20, 2),
            (20, 1, 2),
            (50, 50, 0),
            (50, 50, 3),
            (80, 61, 5),
            (61, 80, 1),
            (33, 200, 4),
        ] {
            let x = pseudo_random(n as u64 * 31 + m as u64, n, 10.0);
            let y = pseudo_random(m as u64 * 17 + 5, m, 10.0);
            let lb = pair_lb(&x, &y, radius);
            let d = dtw_banded(&x, &y, radius, None, &mut scratch).value();
            assert!(lb <= d + 1e-9, "lb {lb} > dtw {d} for ({n},{m},r={radius})");
            assert!(lb >= 0.0);
        }
    }

    #[test]
    fn identical_series_have_zero_bound() {
        let x = pseudo_random(9, 64, 6.0);
        assert_eq!(pair_lb(&x, &x, 2), 0.0);
    }

    #[test]
    fn distant_series_have_positive_bound() {
        let x: Vec<f64> = (0..40).map(|i| i as f64 * 0.05).collect();
        let y: Vec<f64> = (0..40).map(|i| 30.0 + i as f64 * 0.05).collect();
        let lb = pair_lb(&x, &y, 3);
        assert!(lb > 0.0);
        // Each of the 40 rows is ~30 off: the bound should be substantial.
        assert!(lb > 40.0 * 25.0 * 25.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_input_panics() {
        pair_lb(&[], &[1.0], 1);
    }
}
