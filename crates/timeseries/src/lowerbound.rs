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
//! lookup. A comparison sweep builds one per series and radius and
//! bounds each pair with [`lb_keogh_envelope`], one `O(N)`
//! read-and-accumulate pass; a single pair is bounded the same way,
//! `lb_keogh_envelope(x, &KeoghEnvelope::build(y, radius))`.
//!
//! # Same envelopes as the deque sweep
//!
//! The textbook envelope sweep keeps monotonic deques: a new column pops
//! the back while the back is `≤` it (`≥` for minima), and columns left of
//! the band expire from the front. Popping from the back never depends on
//! what expired, so a window `[lo, hi]`'s front is the first element at or
//! right of `lo` of the stack built by pushing `y[0 ..= hi]` with no
//! expiry at all. The tables are built with that stack and one front
//! pointer, in `O(M)`, so they hold the same elements the deque sweep
//! would read — NaN samples included, which `f64::max`/`min` would not
//! preserve.

use crate::window::DiagonalWalk;

/// LB_Keogh envelope tables of one series at one Sakoe–Chiba radius; see
/// the module docs. Build with [`KeoghEnvelope::build`], read with
/// [`lb_keogh_envelope`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeoghEnvelope {
    /// Band half-width the tables were built for.
    radius: usize,
    /// Maximum and minimum of the whole series: the envelope of a one-row
    /// partner.
    whole: [f64; 2],
    /// Per column `k`: maximum and minimum of the full window
    /// `y[k−r ..= k+r]`, then of the half window `y[k−r ..= k+r−1]`
    /// (`y[k]` alone at radius 0), clamped to the series.
    cols: Vec<[f64; 4]>,
}

impl KeoghEnvelope {
    /// The envelope tables of `y` at band half-width `radius`, built in
    /// `O(len)`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is empty.
    pub fn build(y: &[f64], radius: usize) -> Self {
        assert!(!y.is_empty(), "lb_keogh requires non-empty series");
        let mut cols = vec![[f64::NAN; 4]; y.len()];
        let mut stack = Vec::new();
        let whole = [
            extremes(y, radius, &mut stack, 0, &mut cols, |back, new| back <= new),
            extremes(y, radius, &mut stack, 1, &mut cols, |back, new| back >= new),
        ];
        KeoghEnvelope {
            radius,
            whole,
            cols,
        }
    }

    /// Band half-width the tables were built for.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Length of the series the tables were built from.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the tables cover no samples (only for a default value).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Fills slot `slot` (full window) and `slot + 2` (half window) of every
/// column of `cols` with the element the deque sweep's front would hold,
/// where `pops(back, new)` is its pop-back rule; returns the whole
/// series' extreme.
// vp-lint: allow(panic-reachability) — `front` stays below `stack.len()`: the last push has index `hi ≥ lo`, and `k < y.len() == cols.len()`
fn extremes(
    y: &[f64],
    radius: usize,
    stack: &mut Vec<usize>,
    slot: usize,
    cols: &mut [[f64; 4]],
    pops: impl Fn(f64, f64) -> bool,
) -> f64 {
    let last = y.len() - 1;
    stack.clear();
    let mut front = 0usize;
    let mut next = 0usize;
    // Pushes columns up to `hi`, then moves `front` to the first stacked
    // column at or right of `lo`, and returns that column's sample.
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
    for (k, col) in cols.iter_mut().enumerate() {
        let lo = k.saturating_sub(radius);
        // Windows in order half(k), full(k), half(k+1), …: both edges are
        // non-decreasing, so one stack and one front serve all of them.
        if radius > 0 {
            col[slot + 2] = front_at(lo, k.saturating_add(radius - 1).min(last), stack);
        }
        col[slot] = front_at(lo, k.saturating_add(radius).min(last), stack);
        if radius == 0 {
            col[slot + 2] = col[slot];
        }
    }
    // Every column is pushed; the window `[0, last]`'s front is the first.
    y[stack[0]]
}

/// LB_Keogh lower bound on [`crate::dtw::dtw_banded`]`(x, y, radius, …)`,
/// read from `y`'s envelope tables at that radius (see the module docs):
/// one pass over `x`, each row's envelope one table entry.
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
    if n == 1 {
        let [hi, lo] = envelope.whole;
        return gap_cost(x[0], hi, lo);
    }
    let mut q = DiagonalWalk::at(n, m, 0);
    let mut sum = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        if i > 0 {
            q.advance();
        }
        let half = q.rem != 0;
        let col = &envelope.cols[q.ceil()];
        let (hi, lo) = if half {
            (col[2], col[3])
        } else {
            (col[0], col[1])
        };
        sum += gap_cost(xi, hi, lo);
    }
    sum
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
