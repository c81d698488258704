//! Bounded-step incremental updates for a trained [`DecisionLine`].
//!
//! The paper trains `(k, b)` offline (Section IV-C) and then freezes it.
//! Under distribution shift — propagation-model parameter changes
//! (Fig. 11b) or adversarial TX-power dithering — a frozen line collapses:
//! the Sybil-pair distance cluster migrates out of the decision region
//! while the line stays put. [`IncrementalBoundary`] closes that gap with
//! a deterministic, clamped online nudge of the line toward the evidence
//! observed since training.
//!
//! # Update contract
//!
//! Each round the caller hands the boundary its current labelled evidence
//! (distance samples with a Sybil-like/honest-like proxy label, see
//! `vp-core`'s reservoir). The rule is:
//!
//! 1. **Target.** The target threshold is the geometric midpoint
//!    `T* = sqrt(q90(sybil-like) · q10(honest-like))` of the upper edge of
//!    the Sybil-like cluster and the lower edge of the honest-like
//!    cluster. The geometric mean is used because DTW distances span
//!    orders of magnitude; it lands the line in the log-scale middle of
//!    the gap. When the class quantiles overlap (`q10 ≤ q90`) the
//!    arithmetic midpoint is used instead — there is no clean gap to
//!    center in.
//! 2. **Slope.** When the evidence spans a meaningful density range
//!    (median-split halves whose mean densities differ by more than
//!    1 vhl/km) the slope target is the finite-difference
//!    `(T*_hi − T*_lo) / (den_hi − den_lo)` between per-half targets;
//!    otherwise the slope is left untouched. The intercept target is then
//!    `T* − k·den̄` at the evidence's mean density.
//! 3. **Bounded step.** Each component moves by
//!    `clamp(0.5 · (target − current), ±|v₀|)` where `v₀` is that
//!    component's *initial* (trained) value: half the distance to the
//!    target, and never more than the component's trained magnitude in
//!    one round.
//! 4. **Absolute clamp.** After the step, each component is clamped into
//!    its corridor `[0.25·v₀, max_scale·v₀]`
//!    ([`IncrementalBoundary::clamp_to_corridor`]), where `max_scale` is
//!    the one value the caller chooses — the line can never leave a fixed
//!    corridor around the trained boundary, so a poisoned evidence stream
//!    cannot drag the detector arbitrarily far. A component trained at
//!    exactly zero is frozen at zero (its corridor is degenerate).
//! 5. **Decay.** Rounds with no usable two-class evidence step every
//!    component back toward its trained value under the same bounds, so a
//!    transient shift relaxes once the stream renormalises.
//!
//! Every operation is plain `f64` arithmetic in a fixed order over
//! caller-ordered slices — no RNG, no clock, no hash-map iteration — so
//! the update is bit-reproducible across runs, thread counts, and
//! checkpoint restores.

use crate::boundary::DecisionLine;

/// One labelled evidence point for a nudge round: a compared pair's
/// density context, its normalised DTW distance, and the proxy label
/// assigned by the evidence reservoir's gap heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelledPoint {
    /// Traffic density (vhls/km) in effect when the pair was compared.
    pub density_per_km: f64,
    /// Normalised DTW distance of the pair.
    pub distance: f64,
    /// Proxy label: `true` when the point sits in the Sybil-like (low
    /// distance) cluster.
    pub sybil_like: bool,
}

/// Fraction of the distance to the nudge target covered per round
/// (contract step 3).
const LEARNING_RATE: f64 = 0.5;

/// Per-round step cap, as a fraction of each component's trained
/// magnitude (contract step 3).
const MAX_STEP_FRACTION: f64 = 1.0;

/// Lower corridor bound, as a multiple of the trained component
/// (contract step 4).
const MIN_SCALE: f64 = 0.25;

/// A [`DecisionLine`] plus the machinery to nudge it online. The trained
/// line is retained as the anchor for every clamp, so the adapted line is
/// always within a bounded corridor of it.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalBoundary {
    initial: DecisionLine,
    line: DecisionLine,
    /// Upper corridor bound, as a multiple of the trained component.
    max_scale: f64,
    updates: u64,
}

/// Nearest-rank quantile over an unsorted slice (deterministic total
/// order; the slice is copied and sorted internally).
// vp-lint: allow(panic-reachability) — index is clamped to len-1 and both callers pass non-empty class vectors
fn quantile(values: &[f64], q: f64) -> f64 {
    debug_assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

impl IncrementalBoundary {
    /// Wraps a trained line whose components may rise to `max_scale`
    /// times their trained values.
    ///
    /// Returns `Err` when `max_scale` is below 1 or not finite, or the
    /// line has a non-finite component.
    pub fn new(initial: DecisionLine, max_scale: f64) -> Result<Self, &'static str> {
        if !(max_scale >= 1.0 && max_scale.is_finite()) {
            return Err("max_scale must be at least 1 and finite");
        }
        if !initial.k.is_finite() || !initial.b.is_finite() {
            return Err("decision line components must be finite");
        }
        Ok(IncrementalBoundary {
            initial,
            line: initial,
            max_scale,
            updates: 0,
        })
    }

    /// The current (adapted) line.
    pub fn line(&self) -> DecisionLine {
        self.line
    }

    /// The trained anchor line.
    pub fn initial(&self) -> DecisionLine {
        self.initial
    }

    /// Number of nudge/decay rounds applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The corridor `[0.25·v₀, max_scale·v₀]`, lower edge first, of a
    /// component trained at `v0` (contract step 4).
    fn corridor(&self, v0: f64) -> (f64, f64) {
        let lo = MIN_SCALE * v0;
        let hi = self.max_scale * v0;
        (lo.min(hi), lo.max(hi))
    }

    /// Clamps `v` into the corridor of a component trained at `v0`; a
    /// component trained at zero is frozen at zero. Every adapted line,
    /// and every widening of one, passes through here.
    pub fn clamp_to_corridor(&self, v: f64, v0: f64) -> f64 {
        if v0 == 0.0 {
            // Degenerate corridor: a component trained at zero stays zero.
            return 0.0;
        }
        let (lo, hi) = self.corridor(v0);
        v.clamp(lo, hi)
    }

    /// One bounded step of component `v` toward `target`, anchored at the
    /// trained value `v0` (contract steps 3–4).
    fn step_component(&self, v: f64, v0: f64, target: f64) -> f64 {
        if v0 == 0.0 {
            return 0.0;
        }
        if !target.is_finite() {
            return v;
        }
        let cap = MAX_STEP_FRACTION * v0.abs();
        let step = (LEARNING_RATE * (target - v)).clamp(-cap, cap);
        self.clamp_to_corridor(v + step, v0)
    }

    /// Applies one evidence round. Returns `true` when a two-class nudge
    /// was performed, `false` when the round decayed toward the trained
    /// line instead (no usable two-class evidence).
    ///
    /// The caller must present `points` in a deterministic order; the
    /// update folds them in slice order.
    // vp-lint: allow(panic-reachability) — early return unless both classes are non-empty keeps the median index in range
    pub fn observe_round(&mut self, points: &[LabelledPoint]) -> bool {
        let sybil: Vec<f64> = points
            .iter()
            .filter(|p| p.sybil_like && p.distance.is_finite())
            .map(|p| p.distance)
            .collect();
        let honest: Vec<f64> = points
            .iter()
            .filter(|p| !p.sybil_like && p.distance.is_finite())
            .map(|p| p.distance)
            .collect();
        if sybil.is_empty() || honest.is_empty() {
            self.decay();
            return false;
        }

        let target_at = |pts: &[LabelledPoint]| -> Option<f64> {
            let s: Vec<f64> = pts
                .iter()
                .filter(|p| p.sybil_like && p.distance.is_finite())
                .map(|p| p.distance)
                .collect();
            let h: Vec<f64> = pts
                .iter()
                .filter(|p| !p.sybil_like && p.distance.is_finite())
                .map(|p| p.distance)
                .collect();
            if s.is_empty() || h.is_empty() {
                return None;
            }
            Some(midpoint(quantile(&s, 0.9), quantile(&h, 0.1)))
        };

        // Contract step 1: global target threshold.
        let t_star = midpoint(quantile(&sybil, 0.9), quantile(&honest, 0.1));

        // Contract step 2: slope from a median-split over density, when
        // the evidence actually spans a density range.
        let mut densities: Vec<f64> = points.iter().map(|p| p.density_per_km).collect();
        densities.sort_by(f64::total_cmp);
        let den_med = densities[densities.len() / 2];
        let lo_half: Vec<LabelledPoint> = points
            .iter()
            .filter(|p| p.density_per_km < den_med)
            .copied()
            .collect();
        let hi_half: Vec<LabelledPoint> = points
            .iter()
            .filter(|p| p.density_per_km >= den_med)
            .copied()
            .collect();
        let mean_den = |pts: &[LabelledPoint]| -> f64 {
            pts.iter().map(|p| p.density_per_km).sum::<f64>() / pts.len() as f64
        };
        let k_target = if !lo_half.is_empty() && !hi_half.is_empty() {
            let (den_lo, den_hi) = (mean_den(&lo_half), mean_den(&hi_half));
            match (target_at(&lo_half), target_at(&hi_half)) {
                (Some(t_lo), Some(t_hi)) if den_hi - den_lo > 1.0 => {
                    (t_hi - t_lo) / (den_hi - den_lo)
                }
                _ => self.line.k,
            }
        } else {
            self.line.k
        };

        let new_k = self.step_component(self.line.k, self.initial.k, k_target);
        let den_bar = mean_den(points);
        let b_target = t_star - new_k * den_bar;
        let new_b = self.step_component(self.line.b, self.initial.b, b_target);
        self.line = DecisionLine { k: new_k, b: new_b };
        self.updates = self.updates.wrapping_add(1);
        true
    }

    /// Contract step 5: relax each component toward its trained value
    /// under the same step bounds.
    pub fn decay(&mut self) {
        self.line = DecisionLine {
            k: self.step_component(self.line.k, self.initial.k, self.initial.k),
            b: self.step_component(self.line.b, self.initial.b, self.initial.b),
        };
        self.updates = self.updates.wrapping_add(1);
    }

    /// Restores state captured by a checkpoint: the adapted line and the
    /// update counter. The anchor and `max_scale` come from the caller,
    /// not the checkpoint.
    ///
    /// Returns `Err` when the restored line is non-finite or falls outside
    /// the corridor (a corrupt or incompatible checkpoint).
    pub fn restore(&mut self, line: DecisionLine, updates: u64) -> Result<(), &'static str> {
        if !line.k.is_finite() || !line.b.is_finite() {
            return Err("restored line must be finite");
        }
        for (v, v0) in [(line.k, self.initial.k), (line.b, self.initial.b)] {
            let (lo, hi) = self.corridor(v0);
            // A small tolerance absorbs decimal round-trips in hand-built
            // snapshots; checkpoints store exact bits and never need it.
            let tol = 1e-12 * (1.0 + v0.abs());
            if v < lo - tol || v > hi + tol {
                return Err("restored line outside the corridor");
            }
        }
        self.line = line;
        self.updates = updates;
        Ok(())
    }
}

/// Geometric midpoint of a class gap, falling back to the arithmetic
/// midpoint when the classes overlap or touch zero (no log-scale gap).
fn midpoint(sybil_hi: f64, honest_lo: f64) -> f64 {
    if honest_lo > sybil_hi && sybil_hi > 0.0 {
        (sybil_hi * honest_lo).sqrt()
    } else {
        0.5 * (sybil_hi + honest_lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conservative adaptive profile's ceiling.
    const MAX_SCALE: f64 = 8.0;

    fn line() -> DecisionLine {
        DecisionLine { k: 0.001, b: 0.05 }
    }

    fn point(density: f64, distance: f64, sybil: bool) -> LabelledPoint {
        LabelledPoint {
            density_per_km: density,
            distance,
            sybil_like: sybil,
        }
    }

    #[test]
    fn rejects_a_low_ceiling_or_a_non_finite_line() {
        for bad in [0.5, f64::NAN, f64::INFINITY] {
            assert!(IncrementalBoundary::new(line(), bad).is_err(), "{bad}");
        }
        assert!(IncrementalBoundary::new(
            DecisionLine {
                k: f64::NAN,
                b: 0.0
            },
            MAX_SCALE
        )
        .is_err());
    }

    #[test]
    fn corridor_spans_a_quarter_to_max_scale_of_the_trained_value() {
        let ib = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
        assert_eq!(ib.clamp_to_corridor(1.0, 0.05), MAX_SCALE * 0.05);
        assert_eq!(ib.clamp_to_corridor(0.0, 0.05), 0.25 * 0.05);
        assert_eq!(ib.clamp_to_corridor(0.1, 0.05), 0.1);
        // A negative component's corridor is ordered the other way round.
        assert_eq!(ib.clamp_to_corridor(0.0, -0.05), 0.25 * -0.05);
        assert_eq!(ib.clamp_to_corridor(-1.0, -0.05), MAX_SCALE * -0.05);
        assert_eq!(ib.clamp_to_corridor(3.0, 0.0), 0.0, "zero stays frozen");
    }

    #[test]
    fn nudges_toward_an_inflated_gap() {
        let mut ib = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
        // Sybil cluster drifted up to ~0.2, honest cluster at ~2.0: the
        // trained b = 0.05 is far below the gap, so b must rise.
        let pts: Vec<LabelledPoint> = (0..8)
            .map(|i| point(20.0, 0.18 + 0.005 * i as f64, true))
            .chain((0..8).map(|i| point(20.0, 1.9 + 0.05 * i as f64, false)))
            .collect();
        let b0 = ib.line().b;
        for _ in 0..16 {
            assert!(ib.observe_round(&pts));
        }
        assert!(ib.line().b > b0, "b did not rise: {:?}", ib.line());
        // Corridor clamp: never more than max_scale × the trained value.
        assert!(ib.line().b <= 8.0 * 0.05 + 1e-12);
    }

    #[test]
    fn single_round_step_is_bounded() {
        let mut ib = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
        let pts = vec![point(20.0, 0.3, true), point(20.0, 5.0, false)];
        let before = ib.line();
        ib.observe_round(&pts);
        let after = ib.line();
        // The step cap: one round moves each component at most its trained magnitude.
        assert!((after.b - before.b).abs() <= 0.05 + 1e-12);
        assert!((after.k - before.k).abs() <= 0.001 + 1e-12);
    }

    #[test]
    fn decay_returns_to_the_trained_line() {
        let mut ib = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
        let pts: Vec<LabelledPoint> = (0..4)
            .map(|i| point(20.0, 0.3 + 0.01 * i as f64, true))
            .chain((0..4).map(|i| point(20.0, 3.0 + 0.1 * i as f64, false)))
            .collect();
        for _ in 0..8 {
            ib.observe_round(&pts);
        }
        assert!(ib.line().b > line().b);
        for _ in 0..64 {
            ib.decay();
        }
        assert!((ib.line().b - line().b).abs() < 1e-9);
        assert!((ib.line().k - line().k).abs() < 1e-12);
    }

    #[test]
    fn one_class_evidence_decays_instead_of_nudging() {
        let mut ib = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
        let pts = vec![point(20.0, 0.3, true), point(25.0, 0.31, true)];
        assert!(!ib.observe_round(&pts));
        assert_eq!(ib.line(), line());
    }

    #[test]
    fn zero_component_stays_frozen() {
        let flat = DecisionLine { k: 0.0, b: 0.05 };
        let mut ib = IncrementalBoundary::new(flat, MAX_SCALE).unwrap();
        let pts: Vec<LabelledPoint> = (0..8)
            .map(|i| point(5.0 + 5.0 * i as f64, 0.2, true))
            .chain((0..8).map(|i| point(5.0 + 5.0 * i as f64, 2.0 + 0.1 * i as f64, false)))
            .collect();
        for _ in 0..8 {
            ib.observe_round(&pts);
        }
        assert_eq!(ib.line().k, 0.0, "zero slope must stay frozen");
        assert!(ib.line().b > 0.05);
    }

    #[test]
    fn update_is_deterministic() {
        let pts: Vec<LabelledPoint> = (0..10)
            .map(|i| point(10.0 + i as f64, 0.1 + 0.01 * i as f64, i % 2 == 0))
            .collect();
        let run = || {
            let mut ib = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
            for _ in 0..32 {
                ib.observe_round(&pts);
            }
            (ib.line().k.to_bits(), ib.line().b.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn restore_round_trips_and_rejects_out_of_corridor() {
        let mut ib = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
        let pts = vec![point(20.0, 0.2, true), point(20.0, 2.0, false)];
        for _ in 0..4 {
            ib.observe_round(&pts);
        }
        let (l, u) = (ib.line(), ib.updates());
        let mut fresh = IncrementalBoundary::new(line(), MAX_SCALE).unwrap();
        fresh.restore(l, u).unwrap();
        assert_eq!(fresh, ib);
        assert!(fresh.restore(DecisionLine { k: 0.001, b: 9.0 }, 0).is_err());
        assert!(fresh
            .restore(
                DecisionLine {
                    k: f64::NAN,
                    b: 0.05
                },
                0
            )
            .is_err());
    }
}
