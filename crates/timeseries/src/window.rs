//! Search windows for constrained DTW.
//!
//! A search window holds, for each row `i` of the DTW cost matrix (an
//! element of the first series), the inclusive column range of the second
//! series that the dynamic program may visit, as one `(lo, hi)` pair per
//! row. FastDTW constrains each level's quadratic search space to the
//! previous level's path, projected by `expand_half_resolution` into a
//! window that its scratch keeps. The Sakoe–Chiba band is never
//! materialised: [`sakoe_chiba_range`] computes any row's range on the
//! fly, and [`SakoeChibaEdges`] walks every row's range in order with
//! additions.

/// Expands the monotone ranges `coarse` of a window built at half
/// resolution (via [`crate::series::coarsen`]) back to full resolution
/// `rows × cols`, inflating every cell to its 2×2 block and then growing
/// the result by `radius` cells in every direction (FastDTW's expansion
/// step). The ranges are written into `out` in one pass, so FastDTW
/// projects every level through it without allocating.
///
/// Fine row `f` inflates coarse row `f / 2` to its 2×2 blocks; rows past
/// the coarse window's end inherit its last row. Growing by `radius` then
/// takes, for each row, the lowest start and the highest end among the
/// inflated rows within `radius` of it. Inflated ranges are monotone,
/// because the coarse ones are, so those are the start of the first such
/// row and the end of the last. Finally each row is made to start and end
/// no earlier than the row before it, and the corners are anchored.
///
/// # Panics
///
/// Panics if either dimension is zero or `coarse` is empty.
pub(crate) fn expand_half_resolution(
    coarse: &[(usize, usize)],
    rows: usize,
    cols: usize,
    radius: usize,
    out: &mut Vec<(usize, usize)>,
) {
    assert!(rows > 0 && cols > 0, "window dimensions must be positive");
    let last = coarse.len() - 1;
    let inflated = |f: usize| {
        let (clo, chi) = coarse[(f / 2).min(last)];
        (2 * clo, (2 * chi + 1).min(cols - 1))
    };
    out.clear();
    let mut prev = (0, 0);
    for i in 0..rows {
        let mut lo = inflated(i.saturating_sub(radius)).0.saturating_sub(radius);
        let mut hi = inflated(i.saturating_add(radius).min(rows - 1))
            .1
            .saturating_add(radius)
            .min(cols - 1);
        if i > 0 {
            lo = lo.min(cols - 1).max(prev.0);
            hi = hi.max(prev.1);
        }
        prev = (lo, hi);
        out.push(prev);
    }
    out[0].0 = 0;
    out[rows - 1].1 = cols - 1;
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
/// radius can land on or cross an integer there. This function is the
/// band's definition: the banded kernel walks the same edges with
/// [`SakoeChibaEdges`], LB_Keogh reads its envelopes at the same `q`
/// (see [`crate::lowerbound`]) and the sketch bound calls it at segment
/// edges, which is what keeps them cell-for-cell consistent. The ranges
/// are monotone in `i`; with a narrow radius and `cols ≥ 2·rows`
/// consecutive rows need not touch.
///
/// # Panics
///
/// Panics if either dimension is zero or `i >= rows`.
pub fn sakoe_chiba_range(rows: usize, cols: usize, radius: usize, i: usize) -> (usize, usize) {
    assert!(rows > 0 && cols > 0, "window dimensions must be positive");
    assert!(i < rows, "row index out of bounds");
    band_edges(rows, cols, radius, i, &DiagonalWalk::at(rows, cols, i))
}

/// Row `i`'s band edges from its diagonal position `q` (see
/// [`sakoe_chiba_range`]).
#[inline]
fn band_edges(
    rows: usize,
    cols: usize,
    radius: usize,
    i: usize,
    q: &DiagonalWalk,
) -> (usize, usize) {
    let mut lo = q.ceil().saturating_sub(radius).min(cols - 1);
    let mut hi = q.floor.saturating_add(radius).min(cols - 1).max(lo);
    if i == 0 {
        lo = 0;
    }
    if i == rows - 1 {
        hi = cols - 1;
    }
    (lo, hi)
}

/// The length-rescaled diagonal `q = i·(cols−1)/(rows−1)` of a
/// `rows × cols` matrix, walked row by row: [`DiagonalWalk::at`] divides
/// once for the starting row and once for the per-row step, and
/// [`DiagonalWalk::advance`] only adds. With one row `q` is 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiagonalWalk {
    /// `⌊q⌋` of the current row.
    pub(crate) floor: usize,
    /// `i·(cols−1) mod (rows−1)`: `q` is an integer exactly when this is 0.
    pub(crate) rem: usize,
    /// `rows − 1`.
    den: usize,
    /// `(cols−1) / (rows−1)`, the whole part of each row's step.
    step: usize,
    /// `(cols−1) mod (rows−1)`, the fractional part of each row's step.
    step_rem: usize,
}

impl DiagonalWalk {
    /// The walk standing on row `i`.
    pub(crate) fn at(rows: usize, cols: usize, i: usize) -> Self {
        match rows - 1 {
            0 => DiagonalWalk {
                floor: 0,
                rem: 0,
                den: 0,
                step: 0,
                step_rem: 0,
            },
            den => {
                let (floor, rem) = match i.checked_mul(cols - 1) {
                    Some(num) => (num / den, num % den),
                    // Past `usize::MAX` cells: the same quotient in 128 bits.
                    None => {
                        let (num, den) = (i as u128 * (cols - 1) as u128, den as u128);
                        ((num / den) as usize, (num % den) as usize)
                    }
                };
                DiagonalWalk {
                    floor,
                    rem,
                    den,
                    step: (cols - 1) / den,
                    step_rem: (cols - 1) % den,
                }
            }
        }
    }

    /// `⌈q⌉`.
    #[inline]
    pub(crate) fn ceil(&self) -> usize {
        self.floor + usize::from(self.rem != 0)
    }

    /// Steps to the next row: `q += (cols−1)/(rows−1)`, carrying the
    /// remainder without overflow (`rem < den` and `step_rem < den`).
    /// Only called for rows that exist, so `floor` stays below `cols`.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.floor += self.step;
        if self.rem >= self.den - self.step_rem {
            self.rem -= self.den - self.step_rem;
            self.floor += 1;
        } else {
            self.rem += self.step_rem;
        }
    }
}

/// Every row's [`sakoe_chiba_range`], in row order, without a division
/// per row: the band's diagonal is walked with additions. The banded DTW
/// kernel takes each row's edges from this walk as the wavefront reaches
/// the row, so a pair abandoned early never computes the rest.
///
/// # Example
///
/// ```
/// use vp_timeseries::window::{sakoe_chiba_range, SakoeChibaEdges};
///
/// let walked: Vec<_> = SakoeChibaEdges::new(7, 12, 2).collect();
/// let direct: Vec<_> = (0..7).map(|i| sakoe_chiba_range(7, 12, 2, i)).collect();
/// assert_eq!(walked, direct);
/// ```
#[derive(Debug, Clone)]
pub struct SakoeChibaEdges {
    rows: usize,
    cols: usize,
    radius: usize,
    /// The row the next call yields.
    row: usize,
    /// The diagonal at `row` (while `row < rows`).
    q: DiagonalWalk,
}

impl SakoeChibaEdges {
    /// The edges of rows `0..rows`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, radius: usize) -> Self {
        SakoeChibaEdges::starting_at(rows, cols, radius, 0)
    }

    /// The edges of rows `start..rows`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `start > rows`.
    pub fn starting_at(rows: usize, cols: usize, radius: usize, start: usize) -> Self {
        assert!(rows > 0 && cols > 0, "window dimensions must be positive");
        assert!(start <= rows, "row index out of bounds");
        SakoeChibaEdges {
            rows,
            cols,
            radius,
            row: start,
            q: DiagonalWalk::at(rows, cols, start.min(rows - 1)),
        }
    }
}

impl Iterator for SakoeChibaEdges {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.row >= self.rows {
            return None;
        }
        let edges = band_edges(self.rows, self.cols, self.radius, self.row, &self.q);
        self.row += 1;
        if self.row < self.rows {
            self.q.advance();
        }
        Some(edges)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows - self.row;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SakoeChibaEdges {}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn walked_edges_equal_the_definition() {
        for (rows, cols) in [(1, 1), (1, 9), (9, 1), (5, 5), (7, 23), (23, 7), (200, 186)] {
            for radius in [0, 1, 3, 40, usize::MAX] {
                let direct: Vec<_> = (0..rows)
                    .map(|i| sakoe_chiba_range(rows, cols, radius, i))
                    .collect();
                let walked: Vec<_> = SakoeChibaEdges::new(rows, cols, radius).collect();
                assert_eq!(walked, direct, "{rows}x{cols} radius {radius}");
                let tail: Vec<_> =
                    SakoeChibaEdges::starting_at(rows, cols, radius, rows / 2).collect();
                assert_eq!(tail, direct[rows / 2..], "{rows}x{cols} radius {radius}");
            }
        }
        assert_eq!(SakoeChibaEdges::starting_at(4, 4, 1, 4).next(), None);
    }

    /// FastDTW's projection of `coarse` to `rows × cols` at `radius`.
    fn expand(
        coarse: &[(usize, usize)],
        rows: usize,
        cols: usize,
        radius: usize,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        expand_half_resolution(coarse, rows, cols, radius, &mut out);
        out
    }

    fn contains(window: &[(usize, usize)], i: usize, j: usize) -> bool {
        window.get(i).is_some_and(|&(lo, hi)| lo <= j && j <= hi)
    }

    fn cell_count(window: &[(usize, usize)]) -> usize {
        window.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    #[test]
    fn expansion_covers_projected_path() {
        // Coarse 2x2 diagonal window expands to cover the fine diagonal.
        let fine = expand(&[(0, 0), (0, 1)], 4, 4, 0);
        for i in 0..4 {
            assert!(contains(&fine, i, i), "diagonal cell ({i},{i}) missing");
        }
        assert!(contains(&fine, 0, 0));
        assert!(contains(&fine, 3, 3));
    }

    #[test]
    fn expansion_radius_grows_window() {
        let coarse = [(0, 0), (0, 1)];
        let tight = expand(&coarse, 4, 4, 0);
        let loose = expand(&coarse, 4, 4, 1);
        assert!(cell_count(&loose) >= cell_count(&tight));
    }

    #[test]
    fn expansion_handles_odd_lengths() {
        let fine = expand(&[(0, 2); 3], 5, 5, 1);
        assert_eq!(fine.len(), 5);
        assert!(contains(&fine, 0, 0));
        assert!(contains(&fine, 4, 4));
    }
}
