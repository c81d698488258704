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
//! The envelope is computed in `O(N + M)` total with monotonic deques —
//! band endpoints are non-decreasing in the row index, so each column
//! enters and leaves each deque at most once.

use crate::scratch::DtwScratch;
use crate::window::sakoe_chiba_range;

/// LB_Keogh lower bound on [`crate::dtw::dtw_banded`]`(x, y, radius, …)`,
/// with the envelope deques and buffers taken from `scratch`.
///
/// Guarantees that the bound never exceeds the exact banded DTW distance;
/// the bound is cheap (`O(N + M)`) and is used to skip the quadratic
/// dynamic program entirely when the bound already exceeds a pruning
/// threshold.
///
/// The deque sweep first materialises the per-row envelope into scratch
/// buffers; the accumulation pass then uses a branchless clamped-gap
/// cost — `over = max(xᵢ − Uᵢ, 0)`, `under = max(Lᵢ − xᵢ, 0)`,
/// `over² + under²` — whose lanes are independent, leaving only the
/// running sum sequential, in row order.
///
/// # Agreement with the per-row branch form
///
/// The textbook form adds `point_cost(xᵢ, Uᵢ)` when `xᵢ > Uᵢ` and
/// `point_cost(xᵢ, Lᵢ)` when `xᵢ < Lᵢ`. At most one of `over`/`under` is
/// non-zero (`Lᵢ ≤ Uᵢ` always), so the clamped cost reduces to that single
/// `point_cost` plus `+0.0` — a bitwise identity for the non-negative
/// values involved. `NaN` envelopes or samples clamp both terms to zero,
/// matching the branches (comparisons against `NaN` are false) and a row
/// the branch form would skip, which the envelope pass encodes as a `NaN`
/// envelope. `tests/kernel_oracle.rs` checks this against the branch form.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn lb_keogh_banded(x: &[f64], y: &[f64], radius: usize, scratch: &mut DtwScratch) -> f64 {
    let n = x.len();
    let m = y.len();
    assert!(n > 0 && m > 0, "lb_keogh requires non-empty series");
    let deq_max = &mut scratch.deq_max;
    let deq_min = &mut scratch.deq_min;
    let env_hi = &mut scratch.env_hi;
    let env_lo = &mut scratch.env_lo;
    deq_max.clear();
    deq_min.clear();
    if env_hi.len() < n {
        env_hi.resize(n, f64::NAN);
    }
    if env_lo.len() < n {
        env_lo.resize(n, f64::NAN);
    }

    let mut next = 0usize;
    for i in 0..n {
        let (lo, hi) = sakoe_chiba_range(n, m, radius, i);
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
        while deq_max.front().is_some_and(|&f| f < lo) {
            deq_max.pop_front();
        }
        while deq_min.front().is_some_and(|&f| f < lo) {
            deq_min.pop_front();
        }
        // The band `[lo, hi]` always contains at least one column, so the
        // deques are never empty here; a NaN envelope would clamp the
        // row's cost to zero below, keeping this a valid lower bound even
        // if that ever changed.
        let (hi_v, lo_v) = match (deq_max.front(), deq_min.front()) {
            (Some(&h), Some(&l)) => (y[h], y[l]),
            _ => (f64::NAN, f64::NAN),
        };
        env_hi[i] = hi_v;
        env_lo[i] = lo_v;
    }

    let mut sum = 0.0;
    let mut i = 0usize;
    while i + 3 < n {
        let mut cost = [0.0f64; 4];
        for (k, c) in cost.iter_mut().enumerate() {
            let xi = x[i + k];
            let over = (xi - env_hi[i + k]).max(0.0);
            let under = (env_lo[i + k] - xi).max(0.0);
            *c = over * over + under * under;
        }
        sum += cost[0];
        sum += cost[1];
        sum += cost[2];
        sum += cost[3];
        i += 4;
    }
    while i < n {
        let xi = x[i];
        let over = (xi - env_hi[i]).max(0.0);
        let under = (env_lo[i] - xi).max(0.0);
        sum += over * over + under * under;
        i += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw_banded;
    use vp_stats::rng::SplitMix64;

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
            let lb = lb_keogh_banded(&x, &y, radius, &mut scratch);
            let d = dtw_banded(&x, &y, radius, None, &mut scratch).value();
            assert!(lb <= d + 1e-9, "lb {lb} > dtw {d} for ({n},{m},r={radius})");
            assert!(lb >= 0.0);
        }
    }

    #[test]
    fn identical_series_have_zero_bound() {
        let x = pseudo_random(9, 64, 6.0);
        assert_eq!(lb_keogh_banded(&x, &x, 2, &mut DtwScratch::new()), 0.0);
    }

    #[test]
    fn distant_series_have_positive_bound() {
        let x: Vec<f64> = (0..40).map(|i| i as f64 * 0.05).collect();
        let y: Vec<f64> = (0..40).map(|i| 30.0 + i as f64 * 0.05).collect();
        let lb = lb_keogh_banded(&x, &y, 3, &mut DtwScratch::new());
        assert!(lb > 0.0);
        // Each of the 40 rows is ~30 off: the bound should be substantial.
        assert!(lb > 40.0 * 25.0 * 25.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_input_panics() {
        lb_keogh_banded(&[], &[1.0], 1, &mut DtwScratch::new());
    }
}
