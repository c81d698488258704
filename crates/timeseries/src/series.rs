//! Owned time-series container.

use vp_stats::descriptive::Summary;

/// An owned sequence of samples with convenience statistics.
///
/// Most algorithms in this crate operate on plain `&[f64]` so they compose
/// with any storage; `Series` adds ergonomics (statistics, coarsening,
/// normalised views) for callers that own their data, such as the
/// Voiceprint collector.
///
/// # Example
///
/// ```
/// use vp_timeseries::Series;
///
/// let mut s = Series::new();
/// s.extend([-70.0, -71.0, -69.0]);
/// assert_eq!(s.len(), 3);
/// assert!((s.mean() - -70.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    values: Vec<f64>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series { values: Vec::new() }
    }

    /// Creates an empty series with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Series {
            values: Vec::with_capacity(cap),
        }
    }

    /// Builds a series from a slice of samples.
    pub fn from_values(values: &[f64]) -> Self {
        Series {
            values: values.to_vec(),
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the samples as a slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning the underlying vector.
    pub fn into_inner(self) -> Vec<f64> {
        self.values
    }

    /// Arithmetic mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        Summary::of(&self.values).mean()
    }

    /// Population standard deviation (`NaN` when empty).
    pub fn std_dev(&self) -> f64 {
        Summary::of(&self.values).population_std_dev()
    }

    /// Returns the series coarsened by a factor of two: adjacent pairs are
    /// averaged; a trailing odd sample is kept as-is.
    ///
    /// This is the shrink step of FastDTW's multi-resolution pyramid.
    pub fn coarsened(&self) -> Series {
        Series {
            values: coarsen(&self.values),
        }
    }

    /// Returns the enhanced-Z-score-normalised copy of this series
    /// (paper Eq. 7).
    pub fn normalized(&self) -> Series {
        Series {
            values: crate::normalize::z_score_enhanced(&self.values),
        }
    }
}

impl AsRef<[f64]> for Series {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

impl From<Vec<f64>> for Series {
    fn from(values: Vec<f64>) -> Self {
        Series { values }
    }
}

impl FromIterator<f64> for Series {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Series {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Series {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

/// Halves a series' resolution by averaging adjacent pairs; a trailing odd
/// sample is carried over unchanged.
///
/// Returns an empty vector for empty input.
pub fn coarsen(values: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; values.len().div_ceil(2)];
    coarsen_to(values, &mut out);
    out
}

/// [`coarsen`] into `out`, which holds `values.len().div_ceil(2)` samples:
/// FastDTW builds its coarsening pyramid with it, level after level in one
/// buffer.
// vp-lint: allow(panic-reachability) — a non-empty remainder means `out` holds its last, odd sample
pub(crate) fn coarsen_to(values: &[f64], out: &mut [f64]) {
    let mut pairs = values.chunks_exact(2);
    for (o, pair) in out.iter_mut().zip(&mut pairs) {
        *o = (pair[0] + pair[1]) / 2.0;
    }
    if let [last] = pairs.remainder() {
        out[values.len() / 2] = *last;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction_and_stats() {
        let s = Series::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.mean(), 2.0);
        assert!((s.std_dev() - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_series() {
        let s = Series::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.coarsened().is_empty());
    }

    #[test]
    fn coarsen_even_length() {
        assert_eq!(coarsen(&[1.0, 3.0, 5.0, 7.0]), vec![2.0, 6.0]);
    }

    #[test]
    fn coarsen_odd_length_keeps_tail() {
        assert_eq!(coarsen(&[1.0, 3.0, 10.0]), vec![2.0, 10.0]);
        assert_eq!(coarsen(&[4.0]), vec![4.0]);
    }

    #[test]
    fn conversions() {
        let s: Series = vec![1.0, 2.0].into();
        assert_eq!(s.values(), &[1.0, 2.0]);
        let v = s.clone().into_inner();
        assert_eq!(v, vec![1.0, 2.0]);
        let c: Series = [5.0, 6.0].into_iter().collect();
        assert_eq!(c.as_ref(), &[5.0, 6.0]);
    }

    #[test]
    fn normalized_removes_offset() {
        let a = Series::from_values(&[1.0, 2.0, 3.0]);
        let b = Series::from_values(&[11.0, 12.0, 13.0]);
        assert_eq!(a.normalized(), b.normalized());
    }
}
