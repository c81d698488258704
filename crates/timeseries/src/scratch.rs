//! Reusable scratch storage for the DTW kernels.
//!
//! Every distance kernel in this crate — [`crate::dtw::dtw`],
//! [`crate::dtw::dtw_banded`], [`crate::fastdtw::fast_dtw`] and
//! [`crate::lowerbound::lb_keogh_banded`] — takes its working memory from
//! a [`DtwScratch`]: the DP's last three anti-diagonals and the per-row
//! minima of its abandon rule (filled only up to the rows the wavefront
//! reaches); the flat table of windowed cells that FastDTW's coarse
//! levels backtrack through, and their coarsened series, paths and
//! windows; and the LB_Keogh envelope tables with the stack that builds
//! them. A caller that measures
//! many pairs — the comparison phase visits `n·(n−1)/2` of them per
//! detection period — allocates once per worker thread instead of once
//! per pair.
//!
//! # Lifetime rules
//!
//! * A scratch is **not** tied to any series length: buffers grow to the
//!   largest problem seen and are reused (never shrunk) afterwards, so
//!   interleaving calls with mismatched lengths is fine.
//! * Kernels leave no observable state behind: a call returns the same
//!   bits on a fresh scratch as on one reused for any earlier problem.
//!   (Internally the anti-diagonal buffers are *not* cleared between
//!   calls — the dynamic program writes every slot it later reads, its
//!   `+∞` sentinels included — which is exactly why reuse is free.)
//! * A scratch is plain owned data (`Send`), but not shared: give each
//!   worker thread its own (see `vp-par`'s per-worker `init`), never one
//!   scratch to two threads.

use crate::lowerbound::KeoghEnvelope;

/// Reusable working memory for the DTW kernels; see the module docs for
/// the lifetime rules.
#[derive(Debug, Clone, Default)]
pub struct DtwScratch {
    /// The DP's last three anti-diagonals, `N + 2` row slots each.
    pub(crate) diagonals: Vec<f64>,
    /// Per-row minima of the DP's early-abandon rule.
    pub(crate) row_min: Vec<f64>,
    /// A path-keeping DP's windowed cells, anti-diagonal after
    /// anti-diagonal.
    pub(crate) cells: Vec<f64>,
    /// Per anti-diagonal of a path-keeping DP: its first row and where its
    /// cells start in `cells`, then one entry marking the end.
    pub(crate) cell_runs: Vec<(usize, usize)>,
    /// FastDTW's warp path of the current level, last step first.
    pub(crate) path: Vec<(usize, usize)>,
    /// FastDTW's per-row extent of a coarse warp path.
    pub(crate) path_rows: Vec<(usize, usize)>,
    /// FastDTW's projected window of the current level.
    pub(crate) window: Vec<(usize, usize)>,
    /// FastDTW's coarsening pyramid of the first series, level after level.
    pub(crate) pyramid_x: Vec<f64>,
    /// FastDTW's coarsening pyramid of the second series.
    pub(crate) pyramid_y: Vec<f64>,
    /// LB_Keogh envelope tables of the last partner series.
    pub(crate) envelope: KeoghEnvelope,
    /// Monotonic stack that builds the envelope tables.
    pub(crate) stack: Vec<usize>,
}

impl DtwScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DtwScratch::default()
    }

    /// A scratch preallocated for series up to `max_len` samples, so the
    /// first distance calls do not grow buffers either.
    pub fn with_capacity(max_len: usize) -> Self {
        DtwScratch {
            diagonals: Vec::with_capacity(3 * (max_len + 2)),
            row_min: Vec::with_capacity(max_len),
            ..DtwScratch::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::{dtw, dtw_banded};
    use crate::fastdtw::fast_dtw;
    use crate::lowerbound::lb_keogh_banded;

    fn wave(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.13 + phase).sin() * 3.0 - 70.0)
            .collect()
    }

    #[test]
    fn reuse_across_mismatched_lengths_matches_fresh_results() {
        // Grow, shrink, grow again: stale buffer contents must never leak
        // into a later result.
        let mut scratch = DtwScratch::new();
        let shapes = [(120, 95), (8, 160), (33, 33), (1, 200), (200, 1), (64, 63)];
        for (idx, &(n, m)) in shapes.iter().enumerate() {
            let x = wave(n, idx as f64 * 0.7);
            let y = wave(m, idx as f64 * 0.7 + 1.1);
            assert_eq!(
                dtw(&x, &y, &mut scratch).to_bits(),
                dtw(&x, &y, &mut DtwScratch::new()).to_bits(),
                "exact dtw diverged at shape {n}x{m}"
            );
            assert_eq!(
                dtw_banded(&x, &y, 5, None, &mut scratch),
                dtw_banded(&x, &y, 5, None, &mut DtwScratch::new()),
                "banded dtw diverged at shape {n}x{m}"
            );
            assert_eq!(
                fast_dtw(&x, &y, 1, &mut scratch).to_bits(),
                fast_dtw(&x, &y, 1, &mut DtwScratch::new()).to_bits(),
                "fast dtw diverged at shape {n}x{m}"
            );
            assert_eq!(
                lb_keogh_banded(&x, &y, 5, &mut scratch).to_bits(),
                lb_keogh_banded(&x, &y, 5, &mut DtwScratch::new()).to_bits(),
                "lb_keogh diverged at shape {n}x{m}"
            );
        }
    }

    #[test]
    fn buffers_grow_and_are_retained() {
        let mut scratch = DtwScratch::new();
        let x = wave(300, 0.0);
        let y = wave(280, 0.4);
        let _ = dtw(&x, &y, &mut scratch);
        // Three anti-diagonals of N + 2 row slots.
        let cap = scratch.diagonals.capacity();
        assert!(cap >= 3 * 302);
        // A smaller problem must not shrink the buffers.
        let _ = dtw(&wave(5, 0.0), &wave(4, 0.1), &mut scratch);
        assert!(scratch.diagonals.capacity() >= cap);
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut scratch = DtwScratch::with_capacity(256);
        let capacities = |s: &DtwScratch| [s.diagonals.capacity(), s.row_min.capacity()];
        let before = capacities(&scratch);
        let (x, y) = (wave(256, 0.0), wave(256, 0.3));
        let _ = dtw(&x, &y, &mut scratch);
        let _ = dtw_banded(&x, &y, 5, Some(0.0), &mut scratch);
        assert_eq!(capacities(&scratch), before);
    }

    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DtwScratch>();
    }
}
