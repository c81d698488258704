//! Coarsening: the shrink step of FastDTW's multi-resolution pyramid.

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
    fn coarsen_even_length() {
        assert_eq!(coarsen(&[1.0, 3.0, 5.0, 7.0]), vec![2.0, 6.0]);
    }

    #[test]
    fn coarsen_odd_length_keeps_tail() {
        assert_eq!(coarsen(&[1.0, 3.0, 10.0]), vec![2.0, 10.0]);
        assert_eq!(coarsen(&[4.0]), vec![4.0]);
    }

    #[test]
    fn coarsen_empty() {
        assert!(coarsen(&[]).is_empty());
    }
}
