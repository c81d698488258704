//! Sparse search windows for constrained DTW.
//!
//! A [`SearchWindow`] records, for each row `i` of the DTW cost matrix
//! (an element of the first series), the inclusive column range of the
//! second series that the dynamic program is allowed to visit: FastDTW's
//! projected low-resolution path constrains the quadratic search space
//! this way. The Sakoe–Chiba band is never materialised;
//! [`sakoe_chiba_range`] computes any row's range on the fly.

/// An inclusive column interval `[lo, hi]` per row of the DTW matrix.
///
/// Invariants (enforced at construction):
/// * one interval per row, `lo <= hi < cols`;
/// * intervals are monotone: both endpoints are non-decreasing with the
///   row index;
/// * consecutive intervals overlap or touch diagonally
///   (`lo[i+1] <= hi[i] + 1`), so a monotone warp path can always pass;
/// * row 0 starts at column 0 and the last row ends at the last column,
///   so `(0, 0)` and `(n-1, m-1)` are always reachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchWindow {
    cols: usize,
    ranges: Vec<(usize, usize)>,
}

/// Error returned when a window description violates the invariants above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidWindowError {
    what: &'static str,
}

impl std::fmt::Display for InvalidWindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid DTW search window: {}", self.what)
    }
}

impl std::error::Error for InvalidWindowError {}

impl SearchWindow {
    /// The full (unconstrained) `rows × cols` window.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn full(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "window dimensions must be positive");
        SearchWindow {
            cols,
            ranges: vec![(0, cols - 1); rows],
        }
    }

    /// Builds a window from per-row inclusive ranges.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWindowError`] when the invariants documented on
    /// [`SearchWindow`] do not hold.
    // vp-lint: allow(panic-reachability) — ranges[0] and ranges[len-1] follow the non-empty guard
    pub fn from_ranges(
        cols: usize,
        ranges: Vec<(usize, usize)>,
    ) -> Result<Self, InvalidWindowError> {
        if ranges.is_empty() || cols == 0 {
            return Err(InvalidWindowError {
                what: "window must be non-empty",
            });
        }
        if ranges[0].0 != 0 {
            return Err(InvalidWindowError {
                what: "row 0 must start at column 0",
            });
        }
        if ranges[ranges.len() - 1].1 != cols - 1 {
            return Err(InvalidWindowError {
                what: "last row must end at the last column",
            });
        }
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            if lo > hi || hi >= cols {
                return Err(InvalidWindowError {
                    what: "row range out of bounds",
                });
            }
            if i > 0 {
                let (plo, phi) = ranges[i - 1];
                if lo < plo || hi < phi {
                    return Err(InvalidWindowError {
                        what: "row ranges must be monotone",
                    });
                }
                if lo > phi + 1 {
                    return Err(InvalidWindowError {
                        what: "row ranges must stay diagonally connected",
                    });
                }
            }
        }
        Ok(SearchWindow { cols, ranges })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ranges.len()
    }

    /// Number of columns of the underlying matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Inclusive column range of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    // vp-lint: allow(panic-reachability) — documented `# Panics` accessor; DTW callers pass rows < ranges.len()
    pub fn range(&self, i: usize) -> (usize, usize) {
        self.ranges[i]
    }

    /// `true` when cell `(i, j)` is inside the window.
    // vp-lint: allow(panic-reachability) — short-circuit i < ranges.len() guards the index
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i < self.ranges.len() && {
            let (lo, hi) = self.ranges[i];
            j >= lo && j <= hi
        }
    }

    /// Total number of cells inside the window (the work a windowed DTW
    /// performs).
    pub fn cell_count(&self) -> usize {
        self.ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    /// Expands a window that was built at half resolution (via
    /// [`crate::series::coarsen`]) back to full resolution `rows × cols`,
    /// inflating every cell to its 2×2 block and then growing the result by
    /// `radius` cells in every direction (FastDTW's expansion step).
    pub fn expand_from_half_resolution(
        &self,
        rows: usize,
        cols: usize,
        radius: usize,
    ) -> SearchWindow {
        assert!(rows > 0 && cols > 0, "window dimensions must be positive");
        let mut ranges = vec![(usize::MAX, 0usize); rows];
        for (ci, &(clo, chi)) in self.ranges.iter().enumerate() {
            // Each coarse row ci covers fine rows 2ci and 2ci+1; each coarse
            // column j covers fine columns 2j and 2j+1.
            for fi in [2 * ci, 2 * ci + 1] {
                if fi >= rows {
                    continue;
                }
                let flo = 2 * clo;
                let fhi = (2 * chi + 1).min(cols - 1);
                let r = &mut ranges[fi];
                r.0 = r.0.min(flo);
                r.1 = r.1.max(fhi);
            }
        }
        // Rows not covered (odd tail) inherit the last coarse row's range.
        for i in 0..rows {
            if ranges[i].0 == usize::MAX {
                ranges[i] = if i > 0 { ranges[i - 1] } else { (0, cols - 1) };
            }
        }
        // Grow by `radius` horizontally and vertically.
        if radius > 0 {
            let grown: Vec<(usize, usize)> = (0..rows)
                .map(|i| {
                    let lo_row = i.saturating_sub(radius);
                    let hi_row = (i + radius).min(rows - 1);
                    let mut lo = usize::MAX;
                    let mut hi = 0;
                    for &(r_lo, r_hi) in &ranges[lo_row..=hi_row] {
                        lo = lo.min(r_lo);
                        hi = hi.max(r_hi);
                    }
                    (lo.saturating_sub(radius), (hi + radius).min(cols - 1))
                })
                .collect();
            ranges = grown;
        }
        // Re-establish monotonicity (expansion preserves it, but make the
        // invariant unconditional) and anchor the corners.
        for i in 1..rows {
            ranges[i].0 = ranges[i].0.min(cols - 1);
            if ranges[i].0 < ranges[i - 1].0 {
                ranges[i].0 = ranges[i - 1].0;
            }
            if ranges[i].1 < ranges[i - 1].1 {
                ranges[i].1 = ranges[i - 1].1;
            }
        }
        ranges[0].0 = 0;
        ranges[rows - 1].1 = cols - 1;
        SearchWindow { cols, ranges }
    }
}

/// Row `i`'s inclusive column range in the Sakoe–Chiba band of half-width
/// `radius` over a `rows × cols` DTW matrix.
///
/// The band is centred on the length-rescaled diagonal
/// `q = i·(cols−1)/(rows−1)`: the range is `[⌈q⌉ − radius, ⌊q⌋ + radius]`,
/// saturating at both ends and clamped to the matrix, and the corner rows
/// are anchored so `(0, 0)` and `(rows−1, cols−1)` are always inside. The
/// edges are exact integer arithmetic. Whenever `rows·cols < 2^52` they
/// equal the `f64` form `ceil(q − radius)`, `floor(q + radius)` on every
/// row, because neither the rounded quotient nor its rounded sum with the
/// radius can land on or cross an integer there. The banded kernel,
/// LB_Keogh and the sketch bound all take their band from this function,
/// which is what keeps them cell-for-cell consistent. The ranges are
/// monotone in `i`; with a narrow radius and `cols ≥ 2·rows` consecutive
/// rows need not touch.
///
/// # Panics
///
/// Panics if either dimension is zero or `i >= rows`.
pub fn sakoe_chiba_range(rows: usize, cols: usize, radius: usize, i: usize) -> (usize, usize) {
    assert!(rows > 0 && cols > 0, "window dimensions must be positive");
    assert!(i < rows, "row index out of bounds");
    let (floor, ceil) = match rows - 1 {
        0 => (0, 0),
        den => {
            let (q, rem) = match i.checked_mul(cols - 1) {
                Some(num) => (num / den, num % den),
                // Past `usize::MAX` cells: the same quotient in 128 bits.
                None => {
                    let (num, den) = (i as u128 * (cols - 1) as u128, den as u128);
                    ((num / den) as usize, (num % den) as usize)
                }
            };
            (q, q + usize::from(rem != 0))
        }
    };
    let mut lo = ceil.saturating_sub(radius).min(cols - 1);
    let mut hi = floor.saturating_add(radius).min(cols - 1).max(lo);
    if i == 0 {
        lo = 0;
    }
    if i == rows - 1 {
        hi = cols - 1;
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_window_covers_everything() {
        let w = SearchWindow::full(3, 4);
        assert_eq!(w.cell_count(), 12);
        assert!(w.contains(0, 0));
        assert!(w.contains(2, 3));
        assert!(!w.contains(3, 0));
    }

    #[test]
    fn sakoe_chiba_square() {
        let band = |i| sakoe_chiba_range(5, 5, 1, i);
        assert_eq!(band(0), (0, 1));
        assert_eq!(band(2), (1, 3));
        assert_eq!(band(4), (3, 4));
        let cells: usize = (0..5).map(|i| band(i).1 - band(i).0 + 1).sum();
        assert!(cells < 25);
    }

    #[test]
    fn sakoe_chiba_rectangular_reaches_corners() {
        assert_eq!(sakoe_chiba_range(5, 9, 1, 0).0, 0);
        assert_eq!(sakoe_chiba_range(5, 9, 1, 4).1, 8);
    }

    #[test]
    fn sakoe_chiba_zero_radius_is_diagonalish() {
        for i in 0..4 {
            let (lo, hi) = sakoe_chiba_range(4, 4, 0, i);
            assert!(lo <= i && i <= hi, "({i},{i}) outside ({lo},{hi})");
        }
    }

    #[test]
    fn sakoe_chiba_edges_past_usize_max_cells() {
        // `i·(cols−1)` overflows `usize`; the diagonal is still exact.
        let big = 1usize << (usize::BITS - 8);
        assert_eq!(sakoe_chiba_range(big, big, 0, big - 7), (big - 7, big - 7));
        assert_eq!(
            sakoe_chiba_range(big, 2 * big - 1, 1, big - 3),
            (2 * big - 7, 2 * big - 5)
        );
    }

    #[test]
    fn from_ranges_validates() {
        assert!(SearchWindow::from_ranges(3, vec![(0, 1), (0, 2)]).is_ok());
        // must start at col 0
        assert!(SearchWindow::from_ranges(3, vec![(1, 2), (1, 2)]).is_err());
        // must end at last col
        assert!(SearchWindow::from_ranges(3, vec![(0, 1), (0, 1)]).is_err());
        // monotone violation
        assert!(SearchWindow::from_ranges(3, vec![(0, 2), (0, 1), (0, 2)]).is_err());
        // disconnected rows
        assert!(SearchWindow::from_ranges(5, vec![(0, 0), (2, 4)]).is_err());
        let err = SearchWindow::from_ranges(3, vec![(1, 2), (1, 2)]).unwrap_err();
        assert!(err.to_string().contains("column 0"));
    }

    #[test]
    fn expansion_covers_projected_path() {
        // Coarse 2x2 diagonal window expands to cover the fine diagonal.
        let coarse = SearchWindow::from_ranges(2, vec![(0, 0), (0, 1)]).unwrap();
        let fine = coarse.expand_from_half_resolution(4, 4, 0);
        for i in 0..4 {
            assert!(fine.contains(i, i), "diagonal cell ({i},{i}) missing");
        }
        assert!(fine.contains(0, 0));
        assert!(fine.contains(3, 3));
    }

    #[test]
    fn expansion_radius_grows_window() {
        let coarse = SearchWindow::from_ranges(2, vec![(0, 0), (0, 1)]).unwrap();
        let tight = coarse.expand_from_half_resolution(4, 4, 0);
        let loose = coarse.expand_from_half_resolution(4, 4, 1);
        assert!(loose.cell_count() >= tight.cell_count());
    }

    #[test]
    fn expansion_handles_odd_lengths() {
        let coarse = SearchWindow::full(3, 3);
        let fine = coarse.expand_from_half_resolution(5, 5, 1);
        assert_eq!(fine.rows(), 5);
        assert!(fine.contains(0, 0));
        assert!(fine.contains(4, 4));
    }
}
