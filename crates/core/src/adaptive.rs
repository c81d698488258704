//! Drift-adaptive confirmation (ROADMAP item 5).
//!
//! The trained `(k, b)` boundary assumes the normalised-distance
//! distribution it was fitted on. Two documented failure classes break
//! that assumption: the paper's Fig. 11b propagation-model parameter
//! switch, and adversarial TX-power dithering (the `bench_adversary`
//! collapse from 0.77 to 0.27 TPR). In both, the Sybil-pair distance
//! cluster inflates past the frozen line while staying well-separated
//! from the honest cluster — the *gap* survives, the *scale* moves.
//!
//! [`AdaptiveThreshold`] tracks that scale online:
//!
//! * an **evidence reservoir** keeps the last 256 `(density, distance,
//!   label-proxy)` samples from compared pairs, at most 64 per round
//!   (a seeded stride subsample beyond that);
//! * a **label proxy** splits each round's distances at the largest
//!   log-scale gap in the lower half of the sorted distances (ratio ≥ the
//!   profile's gap ratio): below is Sybil-like, above honest-like, no
//!   clean gap means unlabelled;
//! * the reservoir feeds a [`vp_classify::IncrementalBoundary`] nudge of
//!   `(k, b)` each round (bounded-step, clamped into
//!   `[0.25·v₀, max_scale·v₀]` — see that module's contract);
//! * a **drift statistic** — the shift of the recent window's median
//!   distance (last 24 samples) from a frozen early-reference window
//!   (first 48), in units of the reference IQR — widens the effective
//!   threshold band by `1 + 0.5·min(shift, 4)` and marks the verdict
//!   [`SybilVerdict::degraded_confidence`] while the shift exceeds 1.
//!
//! Those sizes and rates are constants. [`AdaptiveConfig`] only picks one
//! of two profiles, which differ in the gap ratio and the corridor's
//! ceiling `max_scale`: [`AdaptiveConfig::default`] (3.0 and 8.0) and
//! [`AdaptiveConfig::aggressive`] (1.15 and 1.75).
//!
//! Ordering contract: round *N*'s effective policy depends only on
//! evidence from rounds `< N` (the update runs *after* the verdict), so a
//! checkpoint between rounds captures exactly the state the next round
//! needs and restored runs are bit-identical to uninterrupted ones.
//! Everything here is plain `f64` arithmetic over insertion-ordered
//! buffers plus one seeded hash for subsampling — no RNG state, no clock,
//! no hash-map iteration.

use vp_classify::boundary::DecisionLine;
use vp_classify::incremental::{IncrementalBoundary, LabelledPoint};

use crate::comparator::PairwiseDistances;
use crate::confirm::{confirm, SybilVerdict};
use crate::threshold::ThresholdPolicy;

/// Capacity of the rolling evidence reservoir.
const RESERVOIR_CAPACITY: usize = 256;

/// Compared-pair samples folded in per round; a larger round is
/// subsampled with a seeded stride.
const MAX_SAMPLES_PER_ROUND: usize = 64;

/// Size of the frozen early-reference distance window for the drift
/// statistic.
const REFERENCE_SIZE: usize = 48;

/// Size of the rolling recent distance window for the drift statistic.
const RECENT_SIZE: usize = 24;

/// Drift statistic value (median shift in reference-IQR units) above
/// which the band widens and verdicts are marked degraded.
const DRIFT_THRESHOLD: f64 = 1.0;

/// How far the band widens per unit of drift statistic.
const BAND_WIDEN_FRACTION: f64 = 0.5;

/// Seed of the subsampling stride offset.
const SUBSAMPLE_SEED: u64 = 1;

/// Which of the drift-adaptive loop's two profiles runs (see the module
/// docs): [`AdaptiveConfig::default`] or [`AdaptiveConfig::aggressive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveConfig {
    profile: Profile,
}

/// The two tuned profiles of the label proxy and the corridor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Profile {
    /// Labels only a clean 3× gap, and lets the line rise to 8× its
    /// trained value.
    #[default]
    Conservative,
    /// Labels a 1.15× gap, and caps the line at 1.75× its trained value.
    Aggressive,
}

impl AdaptiveConfig {
    /// The aggressive-labelling profile used by the drift benches: the
    /// low gap ratio lets the labeller split a sibling cluster whose
    /// separation an attack has compressed (power dithering leaves only
    /// ~1.2-1.5x between sibling and honest distances), and the
    /// tightened corridor bounds the false-positive cost of a mislabel.
    /// Measured on the fig11b model-switch scenario this holds the
    /// detection rate near its pre-switch level at FPR <= 0.05 where
    /// the default profile never engages (`bench_drift`).
    pub fn aggressive() -> Self {
        AdaptiveConfig {
            profile: Profile::Aggressive,
        }
    }

    /// Minimum log-scale gap ratio for the label proxy to split a round's
    /// distances into Sybil-like / honest-like clusters.
    fn gap_ratio(self) -> f64 {
        match self.profile {
            Profile::Conservative => 3.0,
            Profile::Aggressive => 1.15,
        }
    }

    /// Upper corridor bound, as a multiple of each trained component.
    fn max_scale(self) -> f64 {
        match self.profile {
            Profile::Conservative => 8.0,
            Profile::Aggressive => 1.75,
        }
    }
}

/// Proxy label the gap heuristic assigns to a reservoir sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleLabel {
    /// Below the round's dominant log-scale gap: consistent with a shared
    /// physical channel.
    SybilLike,
    /// Above the gap: consistent with independent channels.
    HonestLike,
    /// The round had no clean gap; the sample carries no class signal.
    Unlabelled,
}

impl SampleLabel {
    /// Stable wire encoding for checkpoints.
    pub fn to_byte(self) -> u8 {
        match self {
            SampleLabel::Unlabelled => 0,
            SampleLabel::SybilLike => 1,
            SampleLabel::HonestLike => 2,
        }
    }

    /// Inverse of [`SampleLabel::to_byte`].
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(SampleLabel::Unlabelled),
            1 => Some(SampleLabel::SybilLike),
            2 => Some(SampleLabel::HonestLike),
            _ => None,
        }
    }
}

/// One `(density, distance, label-proxy)` evidence sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservoirSample {
    /// Density estimate in force for the round that produced the sample.
    pub density_per_km: f64,
    /// The pair's normalised DTW distance.
    pub distance: f64,
    /// The gap heuristic's proxy label.
    pub label: SampleLabel,
}

/// Fixed-capacity FIFO ring of evidence samples, iterated oldest-first so
/// every consumer folds floats in one canonical order regardless of where
/// the ring's write head happens to sit (pre- vs post-restore).
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceReservoir {
    capacity: usize,
    samples: Vec<ReservoirSample>,
    next: usize,
}

impl EvidenceReservoir {
    /// An empty reservoir with the given capacity (must be positive).
    pub fn new(capacity: usize) -> Self {
        EvidenceReservoir {
            capacity: capacity.max(1),
            samples: Vec::new(),
            next: 0,
        }
    }

    /// Appends a sample, evicting the oldest once at capacity.
    // vp-lint: allow(panic-reachability) — ring index `next` stays < capacity by the modulo update
    pub fn push(&mut self, sample: ReservoirSample) {
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.next] = sample;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples in canonical oldest-to-newest order.
    // vp-lint: allow(panic-reachability) — rotation slices split at `next` <= len, maintained by push
    pub fn ordered(&self) -> Vec<ReservoirSample> {
        let mut out = Vec::with_capacity(self.samples.len());
        if self.samples.len() == self.capacity {
            out.extend_from_slice(&self.samples[self.next..]);
            out.extend_from_slice(&self.samples[..self.next]);
        } else {
            out.extend_from_slice(&self.samples);
        }
        out
    }
}

/// Serialisable state of an [`AdaptiveThreshold`], in canonical order.
/// Produced by [`AdaptiveThreshold::snapshot`]; consumed by
/// [`AdaptiveThreshold::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSnapshot {
    /// The adapted decision line.
    pub line: DecisionLine,
    /// The incremental boundary's update counter.
    pub updates: u64,
    /// Rounds observed by the adaptive loop.
    pub rounds: u64,
    /// Reservoir samples, oldest first.
    pub samples: Vec<ReservoirSample>,
    /// The frozen reference distance window (at most 48 distances).
    pub reference: Vec<f64>,
    /// The rolling recent distance window, oldest first.
    pub recent: Vec<f64>,
}

/// The drift-adaptive confirmation state for one observer: an adapted
/// boundary, its evidence reservoir, and the drift statistic's windows.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveThreshold {
    config: AdaptiveConfig,
    boundary: IncrementalBoundary,
    reservoir: EvidenceReservoir,
    reference: Vec<f64>,
    recent: Vec<f64>,
    recent_next: usize,
    rounds: u64,
}

/// FNV-1a over a 16-byte key — same deterministic mixing family the
/// runtime uses for its seeded jitter.
fn mix(seed: u64, round: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in seed.to_le_bytes().into_iter().chain(round.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Nearest-rank quantile over already-sorted values.
// vp-lint: allow(panic-reachability) — index is clamped to len-1; callers pass non-empty sorted slices
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl AdaptiveThreshold {
    /// Builds the adaptive state around a trained policy. A
    /// [`ThresholdPolicy::Constant`] anchor is treated as the degenerate
    /// line `(k = 0, b = t)` — its slope stays frozen at zero (see the
    /// incremental-boundary contract) and only the constant adapts.
    ///
    /// Returns `Err` when the policy's line has a non-finite component.
    pub fn new(policy: &ThresholdPolicy, config: AdaptiveConfig) -> Result<Self, &'static str> {
        let initial = match *policy {
            ThresholdPolicy::Linear(line) => line,
            ThresholdPolicy::Constant(t) => DecisionLine { k: 0.0, b: t },
        };
        let boundary = IncrementalBoundary::new(initial, config.max_scale())?;
        Ok(AdaptiveThreshold {
            config,
            boundary,
            reservoir: EvidenceReservoir::new(RESERVOIR_CAPACITY),
            reference: Vec::new(),
            recent: Vec::new(),
            recent_next: 0,
            rounds: 0,
        })
    }

    /// The adapted line, before drift widening.
    pub fn line(&self) -> DecisionLine {
        self.boundary.line()
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The drift statistic: shift of the recent window's median from the
    /// frozen reference median, in units of the reference IQR. `None`
    /// until both windows are full — drift is undefined before a baseline
    /// exists.
    pub fn drift_shift(&self) -> Option<f64> {
        if self.reference.len() < REFERENCE_SIZE || self.recent.len() < RECENT_SIZE {
            return None;
        }
        let mut reference = self.reference.clone();
        reference.sort_by(f64::total_cmp);
        let mut recent = self.recent.clone();
        recent.sort_by(f64::total_cmp);
        let ref_med = quantile_sorted(&reference, 0.5);
        let iqr = quantile_sorted(&reference, 0.75) - quantile_sorted(&reference, 0.25);
        // Floor the denominator: a razor-thin reference IQR must not turn
        // numerical noise into "drift".
        let denom = iqr.max(0.1 * ref_med.abs()).max(1e-12);
        Some((quantile_sorted(&recent, 0.5) - ref_med) / denom)
    }

    /// `true` while the recent distance distribution has shifted *up*
    /// past the drift threshold. Downward shifts (distances
    /// shrinking) tighten nothing: the trained line already accepts them,
    /// and widening on shrink would inflate false positives.
    pub fn is_drifting(&self) -> bool {
        self.drift_shift().is_some_and(|s| s > DRIFT_THRESHOLD)
    }

    /// The policy round *N* must use: the adapted line, widened while the
    /// drift statistic is above threshold. Widening scales both
    /// components by `1 + 0.5 · min(shift, 4)` and then re-clamps into
    /// the boundary's corridor, so even a runaway drift statistic cannot
    /// push the band past the profile's ceiling.
    pub fn effective_policy(&self) -> ThresholdPolicy {
        let line = self.boundary.line();
        let initial = self.boundary.initial();
        let widened = match self.drift_shift() {
            Some(shift) if shift > DRIFT_THRESHOLD => {
                let scale = 1.0 + BAND_WIDEN_FRACTION * shift.min(4.0);
                DecisionLine {
                    k: self.boundary.clamp_to_corridor(line.k * scale, initial.k),
                    b: self.boundary.clamp_to_corridor(line.b * scale, initial.b),
                }
            }
            _ => line,
        };
        ThresholdPolicy::Linear(widened)
    }

    /// Runs one confirmation round under the effective policy and then
    /// folds the round's evidence into the adaptive state. This is the
    /// one-call form of `confirm(...)` + [`AdaptiveThreshold::finish_round`].
    pub fn confirm_round(
        &mut self,
        distances: &PairwiseDistances,
        density_per_km: f64,
    ) -> SybilVerdict {
        let policy = self.effective_policy();
        let verdict = confirm(distances, density_per_km, &policy);
        self.finish_round(verdict, density_per_km)
    }

    /// Post-decision update: marks the verdict degraded while drifting,
    /// then feeds the round's audited distances into the reservoir, the
    /// drift windows, and the boundary nudge. Must be called exactly once
    /// per verdict produced under [`AdaptiveThreshold::effective_policy`];
    /// the mutation happens strictly after the decision so round *N*'s
    /// verdict never depends on round *N*'s own evidence.
    // vp-lint: allow(panic-reachability) — ring index `recent_next` stays < RECENT_SIZE by the modulo update
    pub fn finish_round(&mut self, mut verdict: SybilVerdict, density_per_km: f64) -> SybilVerdict {
        if self.is_drifting() {
            verdict.mark_degraded();
        }

        // Clean audited distances, in the audit's deterministic
        // upper-triangle order.
        let mut distances: Vec<f64> = verdict
            .audit_records()
            .iter()
            .filter(|r| r.quarantined_reason.is_none() && r.dtw_normalized.is_finite())
            .map(|r| r.dtw_normalized)
            .collect();

        // Seeded stride subsample when the round is larger than the
        // per-round budget: offset from an FNV mix of (seed, round) so
        // different rounds sample different residues, identically across
        // runs and restores.
        if distances.len() > MAX_SAMPLES_PER_ROUND {
            let stride = distances.len().div_ceil(MAX_SAMPLES_PER_ROUND);
            let offset = (mix(SUBSAMPLE_SEED, self.rounds) as usize) % stride;
            distances = distances.into_iter().skip(offset).step_by(stride).collect();
        }

        let labels = label_by_gap(&distances, self.config.gap_ratio());
        for (d, label) in distances.iter().zip(labels) {
            self.reservoir.push(ReservoirSample {
                density_per_km,
                distance: *d,
                label,
            });
            if self.reference.len() < REFERENCE_SIZE {
                self.reference.push(*d);
            } else if self.recent.len() < RECENT_SIZE {
                self.recent.push(*d);
            } else {
                self.recent[self.recent_next] = *d;
                self.recent_next = (self.recent_next + 1) % RECENT_SIZE;
            }
        }

        let points: Vec<LabelledPoint> = self
            .reservoir
            .ordered()
            .into_iter()
            .filter_map(|s| match s.label {
                SampleLabel::Unlabelled => None,
                SampleLabel::SybilLike => Some(LabelledPoint {
                    density_per_km: s.density_per_km,
                    distance: s.distance,
                    sybil_like: true,
                }),
                SampleLabel::HonestLike => Some(LabelledPoint {
                    density_per_km: s.density_per_km,
                    distance: s.distance,
                    sybil_like: false,
                }),
            })
            .collect();
        self.boundary.observe_round(&points);
        self.rounds = self.rounds.wrapping_add(1);
        verdict
    }

    /// Captures the full adaptive state in canonical order.
    // vp-lint: allow(panic-reachability) — rotation slices split at `recent_next` <= len, maintained by finish_round
    pub fn snapshot(&self) -> AdaptiveSnapshot {
        let mut recent = Vec::with_capacity(self.recent.len());
        if self.recent.len() == RECENT_SIZE {
            recent.extend_from_slice(&self.recent[self.recent_next..]);
            recent.extend_from_slice(&self.recent[..self.recent_next]);
        } else {
            recent.extend_from_slice(&self.recent);
        }
        AdaptiveSnapshot {
            line: self.boundary.line(),
            updates: self.boundary.updates(),
            rounds: self.rounds,
            samples: self.reservoir.ordered(),
            reference: self.reference.clone(),
            recent,
        }
    }

    /// Rebuilds the state from a snapshot against the configured policy
    /// and profile (the anchor line and the corridor are configuration,
    /// not state). Returns `Err` on snapshots that exceed the reservoir or
    /// window sizes or restore a line outside the corridor — the
    /// checkpoint and the config disagree, and guessing which is right
    /// would silently change behaviour.
    pub fn restore(
        policy: &ThresholdPolicy,
        config: AdaptiveConfig,
        snap: &AdaptiveSnapshot,
    ) -> Result<Self, &'static str> {
        let mut out = AdaptiveThreshold::new(policy, config)?;
        if snap.samples.len() > RESERVOIR_CAPACITY {
            return Err("snapshot reservoir exceeds its capacity");
        }
        if snap.reference.len() > REFERENCE_SIZE {
            return Err("snapshot reference window exceeds its size");
        }
        if snap.recent.len() > RECENT_SIZE {
            return Err("snapshot recent window exceeds its size");
        }
        if snap.recent.len() == RECENT_SIZE && snap.reference.len() < REFERENCE_SIZE {
            return Err("snapshot recent window filled before reference");
        }
        out.boundary.restore(snap.line, snap.updates)?;
        for s in &snap.samples {
            if !s.distance.is_finite() || !s.density_per_km.is_finite() {
                return Err("snapshot sample must be finite");
            }
            out.reservoir.push(*s);
        }
        for d in snap.reference.iter().chain(&snap.recent) {
            if !d.is_finite() {
                return Err("snapshot drift window must be finite");
            }
        }
        out.reference = snap.reference.clone();
        out.recent = snap.recent.clone();
        out.recent_next = 0;
        out.rounds = snap.rounds;
        Ok(out)
    }
}

/// The label proxy: sorts the round's distances, finds the largest
/// log-scale gap whose lower edge sits in the lower half, and — when the
/// gap ratio is at least `gap_ratio` — labels everything at or below the
/// gap Sybil-like and everything above honest-like. Rounds with fewer
/// than four clean distances, or no qualifying gap, come back fully
/// unlabelled. Returned labels are parallel to the input slice order.
// vp-lint: allow(panic-reachability) — loop index i < n/2 keeps i and i+1 in range after the n >= 4 guard
fn label_by_gap(distances: &[f64], gap_ratio: f64) -> Vec<SampleLabel> {
    let n = distances.len();
    if n < 4 {
        return vec![SampleLabel::Unlabelled; n];
    }
    let mut sorted = distances.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut best: Option<(usize, f64)> = None;
    for i in 0..n / 2 {
        let lo = sorted[i].max(1e-12);
        let hi = sorted[i + 1];
        if hi <= 0.0 {
            continue;
        }
        let ratio = hi / lo;
        if best.is_none_or(|(_, r)| ratio > r) {
            best = Some((i, ratio));
        }
    }
    match best {
        Some((i, ratio)) if ratio >= gap_ratio => {
            let cut = sorted[i];
            distances
                .iter()
                .map(|d| {
                    if *d <= cut {
                        SampleLabel::SybilLike
                    } else {
                        SampleLabel::HonestLike
                    }
                })
                .collect()
        }
        _ => vec![SampleLabel::Unlabelled; n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{compare, ComparisonConfig};

    fn config() -> AdaptiveConfig {
        AdaptiveConfig::default()
    }

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy::Linear(DecisionLine { k: 0.001, b: 0.05 })
    }

    /// Distances with an unmistakable two-cluster structure: two Sybil
    /// siblings at `base` offset plus honest neighbours far away.
    fn clustered(base_offset: f64) -> PairwiseDistances {
        let shape: Vec<f64> = (0..120)
            .map(|k| (k as f64 * 0.2).sin() * 4.0 - 70.0)
            .collect();
        let series = vec![
            (100, shape.clone()),
            (
                101,
                shape
                    .iter()
                    .enumerate()
                    .map(|(k, v)| v + 5.0 + base_offset * (k % 7) as f64)
                    .collect(),
            ),
            (
                1,
                (0..120)
                    .map(|k| ((k as f64 * 0.07).sin() + (k as f64 * 0.31).cos()) * 3.0 - 75.0)
                    .collect(),
            ),
            (
                2,
                (0..120)
                    .map(|k| ((k as f64 * 0.047).cos() + (k as f64 * 0.23).sin()) * 3.0 - 68.0)
                    .collect(),
            ),
        ];
        compare(&series, &ComparisonConfig::default())
    }

    #[test]
    fn gap_labeller_splits_clean_clusters() {
        let distances = vec![0.01, 0.012, 0.011, 1.0, 1.2, 0.9];
        let labels = label_by_gap(&distances, 3.0);
        assert_eq!(labels[0], SampleLabel::SybilLike);
        assert_eq!(labels[1], SampleLabel::SybilLike);
        assert_eq!(labels[2], SampleLabel::SybilLike);
        assert_eq!(labels[3], SampleLabel::HonestLike);
        assert_eq!(labels[4], SampleLabel::HonestLike);
        assert_eq!(labels[5], SampleLabel::HonestLike);
    }

    #[test]
    fn gap_labeller_refuses_smeared_distances() {
        let distances = vec![0.1, 0.15, 0.2, 0.25, 0.3, 0.35];
        assert!(label_by_gap(&distances, 3.0)
            .iter()
            .all(|l| *l == SampleLabel::Unlabelled));
        assert!(label_by_gap(&[0.1, 1.0], 3.0)
            .iter()
            .all(|l| *l == SampleLabel::Unlabelled));
    }

    #[test]
    fn reservoir_evicts_oldest_and_orders_canonically() {
        let mut r = EvidenceReservoir::new(3);
        let s = |d: f64| ReservoirSample {
            density_per_km: 10.0,
            distance: d,
            label: SampleLabel::Unlabelled,
        };
        for d in [1.0, 2.0, 3.0, 4.0, 5.0] {
            r.push(s(d));
        }
        assert_eq!(r.len(), 3);
        let ordered: Vec<f64> = r.ordered().iter().map(|x| x.distance).collect();
        assert_eq!(ordered, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn no_drift_before_windows_fill() {
        let at = AdaptiveThreshold::new(&policy(), config()).unwrap();
        assert_eq!(at.drift_shift(), None);
        assert!(!at.is_drifting());
        assert_eq!(at.effective_policy(), ThresholdPolicy::Linear(at.line()));
    }

    /// `n` distances spread evenly over `[lo, 1.3·lo)`.
    fn spread(n: usize, lo: f64) -> Vec<f64> {
        (0..n)
            .map(|i| lo * (1.0 + 0.3 * i as f64 / n as f64))
            .collect()
    }

    #[test]
    fn upward_shift_raises_drift_and_widens_band() {
        let mut at = AdaptiveThreshold::new(&policy(), config()).unwrap();
        at.reference = spread(REFERENCE_SIZE, 0.01);
        at.recent = spread(RECENT_SIZE - 1, 0.1);
        assert_eq!(at.drift_shift(), None, "recent window one short");
        at.recent.push(0.1);
        let shift = at.drift_shift().unwrap();
        assert!(shift > 1.0, "shift = {shift}");
        assert!(at.is_drifting());
        let ThresholdPolicy::Linear(widened) = at.effective_policy() else {
            panic!("adaptive policy is always linear");
        };
        assert!(widened.b > at.line().b);
        assert!(widened.b <= 8.0 * 0.05 + 1e-12, "corridor clamp");
    }

    #[test]
    fn downward_shift_never_widens() {
        let mut at = AdaptiveThreshold::new(&policy(), config()).unwrap();
        at.reference = spread(REFERENCE_SIZE, 0.1);
        at.recent = spread(RECENT_SIZE, 0.01);
        assert!(at.drift_shift().unwrap() < 0.0);
        assert!(!at.is_drifting());
        assert_eq!(at.effective_policy(), ThresholdPolicy::Linear(at.line()));
    }

    #[test]
    fn confirm_round_matches_manual_confirm_then_finish() {
        let pd = clustered(0.0);
        let mut a = AdaptiveThreshold::new(&policy(), config()).unwrap();
        let mut b = a.clone();
        let va = a.confirm_round(&pd, 12.0);
        let vb = {
            let p = b.effective_policy();
            let v = confirm(&pd, 12.0, &p);
            b.finish_round(v, 12.0)
        };
        assert_eq!(va, vb);
        assert_eq!(a, b);
    }

    #[test]
    fn verdict_depends_only_on_prior_rounds() {
        // The first round under a fresh adaptive state must equal the
        // frozen verdict — no same-round feedback.
        let pd = clustered(0.0);
        let mut at = AdaptiveThreshold::new(&policy(), config()).unwrap();
        let frozen = confirm(&pd, 12.0, &policy());
        let adaptive = at.confirm_round(&pd, 12.0);
        assert_eq!(frozen.suspects(), adaptive.suspects());
        assert_eq!(frozen.threshold(), adaptive.threshold());
    }

    #[test]
    fn snapshot_restore_round_trips_bit_exactly() {
        let mut at = AdaptiveThreshold::new(&policy(), config()).unwrap();
        // Six pairs a round: 14 rounds fill both drift windows and wrap
        // the recent ring part of the way round.
        for i in 0..14 {
            let pd = clustered(0.001 * i as f64);
            at.confirm_round(&pd, 10.0 + i as f64);
        }
        assert_eq!(at.reference.len(), 48);
        assert_eq!(at.recent.len(), 24);
        assert_eq!(at.recent_next, 12, "the recent ring has wrapped");
        let snap = at.snapshot();
        let restored = AdaptiveThreshold::restore(&policy(), config(), &snap).unwrap();
        // Future behaviour must be bit-identical: run two more rounds on
        // both and compare everything.
        let mut a = at.clone();
        let mut b = restored;
        for i in 0..2 {
            let pd = clustered(0.002 * i as f64);
            let va = a.confirm_round(&pd, 14.0);
            let vb = b.confirm_round(&pd, 14.0);
            assert_eq!(va, vb);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(
            a.line().b.to_bits(),
            b.line().b.to_bits(),
            "restored line must match to the bit"
        );
    }

    #[test]
    fn restore_rejects_oversized_or_corrupt_snapshots() {
        let at = AdaptiveThreshold::new(&policy(), config()).unwrap();
        let mut snap = at.snapshot();
        snap.reference = vec![0.1; 64];
        assert!(AdaptiveThreshold::restore(&policy(), config(), &snap).is_err());
        let mut snap = at.snapshot();
        snap.line = DecisionLine { k: 0.001, b: 99.0 };
        assert!(AdaptiveThreshold::restore(&policy(), config(), &snap).is_err());
        let mut snap = at.snapshot();
        snap.reference = vec![f64::NAN];
        assert!(AdaptiveThreshold::restore(&policy(), config(), &snap).is_err());
    }

    #[test]
    fn each_profile_saturates_at_its_own_ceiling() {
        // Evidence whose gap sits far above the trained intercept pulls
        // the line up by at most the trained magnitude a round, until the
        // corridor stops it: at 8× the trained value under the default
        // profile and 1.75× under the aggressive one.
        let pd = clustered(0.05);
        let sibling = confirm(&pd, 12.0, &ThresholdPolicy::Constant(f64::MAX))
            .audit_for(100, 101)
            .expect("sibling pair compared")
            .dtw_normalized;
        let b0 = sibling * 0.01;
        let anchor = ThresholdPolicy::Constant(b0);
        for (profile, ceiling) in [
            (AdaptiveConfig::default(), 8.0),
            (AdaptiveConfig::aggressive(), 1.75),
        ] {
            let mut at = AdaptiveThreshold::new(&anchor, profile).unwrap();
            for _ in 0..12 {
                at.confirm_round(&pd, 12.0);
            }
            assert_eq!(
                at.line(),
                DecisionLine {
                    k: 0.0,
                    b: ceiling * b0
                }
            );
        }
    }

    #[test]
    fn adapts_to_an_inflated_distance_scale() {
        // Rounds whose Sybil cluster sits above the trained intercept:
        // the frozen line misses it; after a few rounds the adaptive line
        // must flag it. The anchor is set just under the probed sibling
        // distance so the test is robust to kernel-level changes in the
        // absolute distance scale.
        let pd = clustered(0.05);
        let probe = confirm(&pd, 12.0, &ThresholdPolicy::Constant(f64::MAX));
        let sibling = probe
            .audit_for(100, 101)
            .expect("sibling pair compared")
            .dtw_normalized;
        assert!(sibling > 0.0, "probe needs a nonzero sibling distance");
        let anchor = ThresholdPolicy::Linear(DecisionLine {
            k: 0.0,
            b: sibling * 0.5,
        });
        let mut at = AdaptiveThreshold::new(&anchor, config()).unwrap();
        let first = at.confirm_round(&pd, 12.0);
        assert!(first.is_clean(), "anchor must start too tight");
        for _ in 0..12 {
            at.confirm_round(&pd, 12.0);
        }
        let adapted = at.confirm_round(&pd, 12.0);
        assert!(
            adapted.suspects() == [100, 101],
            "adaptive line failed to recover the Sybil pair: {:?} (line {:?})",
            adapted.suspects(),
            at.line()
        );
    }

    #[test]
    fn subsampling_is_deterministic_and_bounded() {
        // Twelve identities give 66 pairs, more than one round folds in.
        let series: Vec<(u64, Vec<f64>)> = (0..12u64)
            .map(|v| {
                let f = 0.05 + 0.037 * v as f64;
                let shape = (0..120)
                    .map(|k| (k as f64 * f).sin() * 4.0 + (k as f64 * 0.11 * f).cos() - 70.0)
                    .collect();
                (v, shape)
            })
            .collect();
        let pd = compare(&series, &ComparisonConfig::default());
        let pairs = confirm(&pd, 12.0, &policy())
            .audit_records()
            .iter()
            .filter(|r| r.quarantined_reason.is_none() && r.dtw_normalized.is_finite())
            .count();
        assert_eq!(pairs, 66);
        let run = || {
            let mut at = AdaptiveThreshold::new(&policy(), config()).unwrap();
            for _ in 0..2 {
                at.confirm_round(&pd, 12.0);
            }
            at.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        // A stride of ⌈66 / 64⌉ = 2 keeps 33 of each round's 66 pairs.
        assert_eq!(a.samples.len(), 2 * 33);
    }

    #[test]
    fn label_bytes_round_trip() {
        for l in [
            SampleLabel::Unlabelled,
            SampleLabel::SybilLike,
            SampleLabel::HonestLike,
        ] {
            assert_eq!(SampleLabel::from_byte(l.to_byte()), Some(l));
        }
        assert_eq!(SampleLabel::from_byte(3), None);
    }
}
