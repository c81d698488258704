//! Piecewise envelope sketches for cheap pre-DTW triage.
//!
//! A [`SeriesSketch`] summarises a series by the min/max envelope of
//! [`SKETCH_SEGMENTS`] equal-width segments (a piecewise aggregate
//! approximation of the series' range). Building one costs a single
//! O(n) pass; comparing two reads at most [`SKETCH_SEGMENTS`] x-segment
//! envelopes against the few y-segment envelopes their band overlaps.
//!
//! [`sketch_lower_bound`] turns a pair of sketches into an *admissible*
//! lower bound on the banded DTW distance with squared point costs: it
//! never exceeds `dtw_banded(x, y, radius)` for the series the sketches
//! were built from. A comparison cascade can therefore reject a pair
//! whenever the sketch bound already clears the pruning threshold,
//! without touching the full series at all.
//!
//! # Why the bound is admissible
//!
//! Any (banded) warping path visits at least one in-band cell in every
//! row `i`. For the rows of x-segment `s` the band columns all fall in
//! `[lo(ra), hi(rb−1)]` (Sakoe–Chiba band edges are monotone in `i`),
//! and the y-segments overlapping that column interval cover it, so
//! every candidate `y[j]` lies inside their combined envelope. The cost
//! of any in-band cell in those rows is therefore at least the squared
//! gap between the x-segment envelope and that y-envelope, and the path
//! pays it once per row: `rows(s) · gap(s)²` summed over segments never
//! exceeds the true path cost. Sketches are radius-agnostic — the band
//! radius only enters the pair bound, so one sketch per series serves
//! every comparison configuration.
//!
//! # One plan per shape
//!
//! Which y-segments each x-segment's band overlaps depends only on the
//! shape `(N, M, radius)`, not on the samples. A [`SketchPlan`] stores,
//! per non-empty x-segment, its row count and the run of y-segments its
//! band columns overlap, so the bound itself divides nothing and reads
//! only those segments. A comparison sweep builds one plan per shape and
//! reuses it for every pair of that shape; [`sketch_lower_bound`] builds
//! one for its single pair. The plan's run may include the empty
//! y-segments between two overlapping ones (a series shorter than
//! [`SKETCH_SEGMENTS`] has some); their `+∞`/`−∞` envelope leaves the
//! fold's bits unchanged, and the run is folded in ascending order, so the
//! bound keeps the bits of the segment-by-segment scan
//! (`tests/oracle/mod.rs` keeps that scan as the oracle). In a
//! 1,128-pair sweep with up to 81 shapes a planned bound costs about
//! 125 ns a pair, plan builds included, and the LB_Keogh pass it guards
//! about 200 ns ([`crate::lowerbound`]); the scan, which divided at both
//! band edges of every segment and tested all 16×16 segment pairs, cost
//! about 300 ns, as much as the LB_Keogh pass did then.
//!
//! Non-finite samples poison a sketch (`finite = false`), collapsing
//! the pair bound to `0.0`: the bound stays trivially admissible and
//! never rejects a pair the exact kernels would have scored.

use crate::window::sakoe_chiba_range;

/// Number of envelope segments per sketch. 16 keeps a sketch at two
/// cache lines while still resolving the RSSI shape differences the
/// detector thresholds on.
pub const SKETCH_SEGMENTS: usize = 16;

/// Sample interval `[start, end)` of segment `s` of a `len`-sample series.
#[inline]
fn segment(len: usize, s: usize) -> (usize, usize) {
    (s * len / SKETCH_SEGMENTS, (s + 1) * len / SKETCH_SEGMENTS)
}

/// Min/max envelope sketch of one series; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSketch {
    /// Length of the source series.
    len: usize,
    /// Whether every source sample was finite; if not, the pair bound
    /// degrades to `0.0` (never rejects).
    finite: bool,
    /// Per-segment minima (`+∞` for empty segments).
    seg_min: [f64; SKETCH_SEGMENTS],
    /// Per-segment maxima (`−∞` for empty segments).
    seg_max: [f64; SKETCH_SEGMENTS],
}

impl SeriesSketch {
    /// Builds the sketch of `series` in one O(n) pass. Empty series
    /// yield an empty sketch whose pair bounds are all `0.0`.
    // vp-lint: allow(panic-reachability) — segment bounds s*len/SEGMENTS <= len keep every slice range valid
    pub fn build(series: &[f64]) -> Self {
        let len = series.len();
        let mut seg_min = [f64::INFINITY; SKETCH_SEGMENTS];
        let mut seg_max = [f64::NEG_INFINITY; SKETCH_SEGMENTS];
        let mut finite = true;
        for (s, (mn, mx)) in seg_min.iter_mut().zip(seg_max.iter_mut()).enumerate() {
            let (start, end) = segment(len, s);
            for &v in &series[start..end] {
                finite &= v.is_finite();
                *mn = mn.min(v);
                *mx = mx.max(v);
            }
        }
        SeriesSketch {
            len,
            finite,
            seg_min,
            seg_max,
        }
    }

    /// Length of the series this sketch was built from.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sketch covers no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every sample of the series was finite.
    pub fn is_finite(&self) -> bool {
        self.finite
    }

    /// Per-segment minima, `+∞` for an empty segment. Segment `s` covers
    /// samples `s·len/SKETCH_SEGMENTS .. (s+1)·len/SKETCH_SEGMENTS`.
    pub fn minima(&self) -> &[f64; SKETCH_SEGMENTS] {
        &self.seg_min
    }

    /// Per-segment maxima, `−∞` for an empty segment.
    pub fn maxima(&self) -> &[f64; SKETCH_SEGMENTS] {
        &self.seg_max
    }
}

/// One non-empty x-segment of a [`SketchPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PlannedSegment {
    /// The x-segment.
    x: usize,
    /// Its row count, as the bound multiplies it.
    rows: f64,
    /// The y-segments `ys.0 .. ys.1` its band columns overlap.
    ys: (usize, usize),
}

/// The band geometry of [`sketch_lower_bound`] for one shape: `rows × cols`
/// at one radius (see the module docs). Build it once per shape with
/// [`SketchPlan::new`] and bound every pair of that shape with
/// [`SketchPlan::lower_bound`].
///
/// # Example
///
/// ```
/// use vp_timeseries::sketch::{sketch_lower_bound, SeriesSketch, SketchPlan};
///
/// let x = SeriesSketch::build(&[-80.0; 40]);
/// let y = SeriesSketch::build(&[-50.0; 37]);
/// let plan = SketchPlan::new(40, 37, 2);
/// assert_eq!(plan.lower_bound(&x, &y), sketch_lower_bound(&x, &y, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SketchPlan {
    rows: usize,
    cols: usize,
    /// The non-empty x-segments with an overlapping y-segment, ascending;
    /// the first `len` entries are used.
    segments: [PlannedSegment; SKETCH_SEGMENTS],
    len: usize,
}

impl SketchPlan {
    /// The plan of the band of half-width `radius` over `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, radius: usize) -> Self {
        let mut plan = SketchPlan {
            rows,
            cols,
            segments: [PlannedSegment::default(); SKETCH_SEGMENTS],
            len: 0,
        };
        for s in 0..SKETCH_SEGMENTS {
            let (ra, rb) = segment(rows, s);
            if ra == rb {
                continue;
            }
            // Band edges are monotone in the row index, so the in-band
            // columns of every row in [ra, rb) fall inside this interval.
            let col_lo = sakoe_chiba_range(rows, cols, radius, ra).0;
            let col_hi = sakoe_chiba_range(rows, cols, radius, rb - 1).1;
            let overlaps = |t: &usize| {
                let (ca, cb) = segment(cols, *t);
                ca != cb && cb > col_lo && ca <= col_hi
            };
            let Some(first) = (0..SKETCH_SEGMENTS).find(overlaps) else {
                // No overlapping y-segment (cannot happen for a
                // well-formed band): the segment adds nothing.
                continue;
            };
            let last = (first..SKETCH_SEGMENTS).rfind(overlaps).unwrap_or(first);
            plan.segments[plan.len] = PlannedSegment {
                x: s,
                rows: (rb - ra) as f64,
                ys: (first, last + 1),
            };
            plan.len += 1;
        }
        plan
    }

    /// Admissible lower bound on `dtw_banded(x, y, radius)` from the
    /// sketches of `x` and `y`, with the bits of [`sketch_lower_bound`];
    /// `0.0` when either series had a non-finite sample.
    ///
    /// # Panics
    ///
    /// Panics if a sketch's length differs from the plan's shape.
    pub fn lower_bound(&self, x: &SeriesSketch, y: &SeriesSketch) -> f64 {
        assert!(
            x.len == self.rows && y.len == self.cols,
            "sketch lengths must match the plan"
        );
        if !x.finite || !y.finite {
            return 0.0;
        }
        let mut sum = 0.0;
        for seg in &self.segments[..self.len] {
            let mut env_min = f64::INFINITY;
            let mut env_max = f64::NEG_INFINITY;
            for t in seg.ys.0..seg.ys.1 {
                env_min = env_min.min(y.seg_min[t]);
                env_max = env_max.max(y.seg_max[t]);
            }
            let (x_min, x_max) = (x.seg_min[seg.x], x.seg_max[seg.x]);
            let gap = if x_min > env_max {
                x_min - env_max
            } else if x_max < env_min {
                env_min - x_max
            } else {
                0.0
            };
            sum += seg.rows * (gap * gap);
        }
        sum
    }
}

/// Admissible lower bound on `dtw_banded(x, y, radius)` computed from
/// the sketches of `x` and `y` alone: the result never exceeds the
/// banded DTW distance (squared point costs, band of the same
/// `radius`). Returns `0.0` — a vacuous but safe bound — when either
/// series was empty or contained non-finite samples. Builds the pair's
/// [`SketchPlan`]; a sweep over many pairs of one shape builds it once.
pub fn sketch_lower_bound(x: &SeriesSketch, y: &SeriesSketch, radius: usize) -> f64 {
    if x.len == 0 || y.len == 0 {
        return 0.0;
    }
    SketchPlan::new(x.len, y.len, radius).lower_bound(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::DtwScratch;
    use vp_stats::rng::SplitMix64;

    fn dtw_banded(x: &[f64], y: &[f64], radius: usize) -> f64 {
        crate::dtw::dtw_banded(x, y, radius, None, &mut DtwScratch::new()).value()
    }

    /// Deterministic pseudo-random series in a dBm-like range.
    fn random_series(seed: u64, len: usize, spread: f64) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.range_f64(-90.0..-90.0 + spread))
            .collect()
    }

    #[test]
    fn bound_is_admissible_on_random_series() {
        for seed in 0..40u64 {
            let n = 8 + (seed as usize * 13) % 150;
            let m = 8 + (seed as usize * 29) % 150;
            let x = random_series(seed, n, 30.0);
            // Shift half the pairs far away so both gap branches fire.
            let mut y = random_series(seed.wrapping_add(1000), m, 30.0);
            if seed % 2 == 0 {
                for v in &mut y {
                    *v += 45.0;
                }
            }
            for radius in [1usize, 3, 8, 200] {
                let lb =
                    sketch_lower_bound(&SeriesSketch::build(&x), &SeriesSketch::build(&y), radius);
                let exact = dtw_banded(&x, &y, radius);
                assert!(
                    lb <= exact,
                    "sketch bound {lb} exceeds dtw_banded {exact} (seed {seed}, radius {radius})"
                );
            }
        }
    }

    #[test]
    fn identical_series_bound_is_zero() {
        let x = random_series(7, 96, 25.0);
        let sk = SeriesSketch::build(&x);
        assert_eq!(sketch_lower_bound(&sk, &sk, 5).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn separated_series_get_a_positive_bound() {
        let x = vec![-80.0; 120];
        let y = vec![-50.0; 120];
        let lb = sketch_lower_bound(&SeriesSketch::build(&x), &SeriesSketch::build(&y), 4);
        // Gap is 30 dB per row over 120 rows.
        assert!(lb > 100_000.0 - 1e-6, "expected a strong bound, got {lb}");
        assert!(lb <= dtw_banded(&x, &y, 4));
    }

    #[test]
    fn non_finite_samples_collapse_the_bound() {
        let mut x = random_series(3, 64, 20.0);
        x[10] = f64::NAN;
        let y = random_series(4, 64, 20.0);
        let lb = sketch_lower_bound(&SeriesSketch::build(&x), &SeriesSketch::build(&y), 3);
        assert_eq!(lb.to_bits(), 0.0f64.to_bits());
        let lb = sketch_lower_bound(&SeriesSketch::build(&y), &SeriesSketch::build(&x), 3);
        assert_eq!(lb.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn degenerate_lengths_are_total() {
        let empty = SeriesSketch::build(&[]);
        let one = SeriesSketch::build(&[-70.0]);
        let short = SeriesSketch::build(&[-70.0, -71.0, -69.0]);
        assert!(empty.is_empty());
        assert_eq!(
            sketch_lower_bound(&empty, &one, 2).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            sketch_lower_bound(&one, &empty, 2).to_bits(),
            0.0f64.to_bits()
        );
        // Shorter than the segment count: most segments are empty, the
        // bound must still be admissible.
        let far = SeriesSketch::build(&[-20.0, -21.0, -19.0]);
        let lb = sketch_lower_bound(&short, &far, 1);
        assert!(lb <= dtw_banded(&[-70.0, -71.0, -69.0], &[-20.0, -21.0, -19.0], 1));
        assert!(lb > 0.0);
    }

    #[test]
    fn bound_is_deterministic() {
        let x = random_series(11, 130, 40.0);
        let y = random_series(12, 125, 40.0);
        let a = sketch_lower_bound(&SeriesSketch::build(&x), &SeriesSketch::build(&y), 6);
        let b = sketch_lower_bound(&SeriesSketch::build(&x), &SeriesSketch::build(&y), 6);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
