//! Phase 1 — collection.
//!
//! "One vehicle monitors the CCH and records all the latest messages
//! within a constant interval [the observation time]. For each packet,
//! Voiceprint only needs to store a 2-tuple ⟨ID, RSSI⟩, and then generates
//! RSSI time series for each received ID." (Section IV-C1)
//!
//! Collection is the pipeline's ingest gate: whatever the radio decodes
//! lands here first, so this is where non-finite timestamps and RSSI
//! values are quarantined. A quarantined beacon is dropped and counted
//! ([`Collector::rejected_samples`]) — it can neither poison the stored
//! series nor panic a later sorting step.

use std::collections::HashMap;

use vp_fault::{Beacon, VpError};

use crate::IdentityId;

/// Per-identity `(time_s, rssi_dbm)` samples in canonical order — the
/// payload of [`Collector::snapshot`] and input of [`Collector::restore`].
pub type IdentitySamples = Vec<(IdentityId, Vec<(f64, f64)>)>;

/// Minimum silent gap (seconds) between consecutive samples for an
/// identity to count as churned (retired and re-announced); comfortably
/// above the worst expected beacon-loss run at 10 Hz.
const CHURN_GAP_S: f64 = 1.0;

/// Reduced sample floor for churned identities, as a fraction of the
/// caller's `min_samples`.
const CHURN_FLOOR_FRACTION: f64 = 0.35;

/// Absolute lower bound on the reduced floor: a handful of samples can
/// never support a meaningful DTW comparison, however small `min_samples`
/// is.
const CHURN_FLOOR_MIN: usize = 20;

/// Churn-aware series extraction ([`Collector::series_at_churned`]),
/// which rescues short-lived identities.
///
/// An identity-churn attacker retires each fabricated identity before it
/// accumulates `min_samples` beacons in any one observation window, so a
/// plain [`Collector::series_at`] drops the evidence on the floor and the
/// identity surfaces only as a `NotCompared` triage miss. The policy
/// recognises the retire/announce signature — a silent gap of more than
/// 1 s, longer than any plausible beacon-loss run — and admits such
/// identities at a reduced sample floor ([`ChurnPolicy::reduced_floor`]),
/// merging their activity segments into one time-ordered series for the
/// comparator (the sibling's shared-channel shape survives concatenation
/// because DTW aligns on shape, not on absolute sample index).
///
/// The policy has no settings; the type names it where a configuration
/// switches it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnPolicy;

impl ChurnPolicy {
    /// The reduced floor for a churned identity given the full floor:
    /// 35% of it, and never below 20 samples.
    pub fn reduced_floor(min_samples: usize) -> usize {
        let scaled = (min_samples as f64 * CHURN_FLOOR_FRACTION).ceil() as usize;
        scaled.max(CHURN_FLOOR_MIN)
    }
}

/// Rolling per-identity RSSI collector with a fixed observation window.
///
/// # Example
///
/// ```
/// use voiceprint::collector::Collector;
///
/// let mut c = Collector::new(20.0);
/// c.record(42, 0.1, -71.5);
/// c.record(42, 0.2, -71.0);
/// c.record(42, f64::NAN, -70.0); // quarantined, not stored
/// assert_eq!(c.heard_identities(), 1);
/// assert_eq!(c.rejected_samples(), 1);
/// let series = c.series_at(0.2, 1);
/// assert_eq!(series[0], (42, vec![-71.5, -71.0]));
/// ```
#[derive(Debug, Clone)]
pub struct Collector {
    window_s: f64,
    samples: HashMap<IdentityId, Vec<(f64, f64)>>,
    rejected: u64,
}

impl Collector {
    /// Creates a collector with the given observation window (the paper
    /// uses 20 s).
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not strictly positive.
    pub fn new(window_s: f64) -> Self {
        assert!(window_s > 0.0, "observation window must be positive");
        Collector {
            window_s,
            samples: HashMap::new(),
            rejected: 0,
        }
    }

    /// Observation window length, seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Records one decoded beacon's `⟨ID, RSSI⟩` tuple at `time_s`.
    ///
    /// Beacons with a non-finite timestamp or RSSI are quarantined: they
    /// are not stored, and [`Collector::rejected_samples`] is bumped.
    /// Use [`Collector::try_record`] to learn *why* a beacon was
    /// rejected.
    pub fn record(&mut self, identity: IdentityId, time_s: f64, rssi_dbm: f64) {
        let _ = self.try_record(identity, time_s, rssi_dbm);
    }

    /// Fallible form of [`Collector::record`].
    ///
    /// # Errors
    ///
    /// Returns the [`VpError`] describing the offending field when the
    /// beacon is quarantined; the rejection is counted either way.
    pub fn try_record(
        &mut self,
        identity: IdentityId,
        time_s: f64,
        rssi_dbm: f64,
    ) -> Result<(), VpError> {
        if let Err(e) = Beacon::new(identity, time_s, rssi_dbm).validate() {
            self.rejected += 1;
            crate::trace::collector_rejected(
                identity,
                match e {
                    VpError::NonFiniteTime { .. } => "non_finite_time",
                    VpError::NonFiniteRssi { .. } => "non_finite_rssi",
                    _ => "invalid",
                },
            );
            return Err(e);
        }
        self.samples
            .entry(identity)
            .or_default()
            .push((time_s, rssi_dbm));
        Ok(())
    }

    /// Number of beacons quarantined at ingest so far.
    pub fn rejected_samples(&self) -> u64 {
        self.rejected
    }

    /// Number of identities with at least one stored sample.
    pub fn heard_identities(&self) -> usize {
        self.samples.len()
    }

    /// Drops samples that have aged out of the window relative to `now_s`
    /// and forgets silent identities. Call periodically to bound memory.
    pub fn prune(&mut self, now_s: f64) {
        let cutoff = now_s - self.window_s;
        // vp-lint: allow(nondeterministic-iteration) — pure per-entry predicate; no visit-order effect
        self.samples.retain(|_, v| {
            v.retain(|&(t, _)| t >= cutoff);
            !v.is_empty()
        });
    }

    /// Serializable view of the collector's entire state: `(window,
    /// rejected, per-identity samples sorted by identity then time)`.
    /// The ordering is canonical, so two collectors with the same logical
    /// content snapshot identically regardless of insertion history.
    pub fn snapshot(&self) -> (f64, u64, IdentitySamples) {
        let mut per_id: IdentitySamples = self
            .samples
            .iter()
            .map(|(&id, v)| {
                let mut v = v.clone();
                v.sort_by(|a, b| a.0.total_cmp(&b.0));
                (id, v)
            })
            .collect();
        per_id.sort_by_key(|(id, _)| *id);
        (self.window_s, self.rejected, per_id)
    }

    /// Rebuilds a collector from a [`Collector::snapshot`]. The restored
    /// collector produces bit-identical [`Collector::series_at`] output:
    /// `series_at` sorts by timestamp with a stable sort, so the
    /// canonicalised snapshot order and the original insertion order
    /// yield the same series (timestamp ties keep no observable
    /// insertion-order dependence after the canonical sort).
    pub fn restore(window_s: f64, rejected: u64, per_id: IdentitySamples) -> Self {
        let mut c = Collector::new(window_s);
        c.rejected = rejected;
        for (id, samples) in per_id {
            if !samples.is_empty() {
                c.samples.insert(id, samples);
            }
        }
        c
    }

    /// Extracts the RSSI series of every identity with at least
    /// `min_samples` samples inside `[now_s − window, now_s]`,
    /// time-ordered, sorted by identity.
    ///
    /// Stored timestamps are always finite (ingest quarantines the
    /// rest), but the sort uses [`f64::total_cmp`] anyway so this method
    /// is total even if an invariant is ever violated upstream.
    pub fn series_at(&self, now_s: f64, min_samples: usize) -> Vec<(IdentityId, Vec<f64>)> {
        let cutoff = now_s - self.window_s;
        let mut out: Vec<(IdentityId, Vec<f64>)> = self
            .samples
            .iter()
            .filter_map(|(&id, samples)| {
                let mut kept: Vec<(f64, f64)> = samples
                    .iter()
                    .copied()
                    .filter(|&(t, _)| t >= cutoff && t <= now_s)
                    .collect();
                if kept.len() < min_samples.max(1) {
                    return None;
                }
                kept.sort_by(|a, b| a.0.total_cmp(&b.0));
                Some((id, kept.into_iter().map(|(_, r)| r).collect()))
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Churn-aware variant of [`Collector::series_at`]: identities that
    /// meet the full `min_samples` floor are returned unchanged, and
    /// identities below it are additionally admitted when they match the
    /// retire/announce signature ([`ChurnPolicy`]) — at least two
    /// activity segments separated by silent gaps longer than 1 s, with a
    /// merged sample count at or above [`ChurnPolicy::reduced_floor`].
    /// Merged series concatenate the segments in time order.
    ///
    /// A steady-but-sparse honest transmitter (one segment, no long gap)
    /// is *not* rescued — the reduced floor applies only to the churn
    /// signature, so this path cannot quietly lower the evidence bar for
    /// ordinary traffic.
    pub fn series_at_churned(&self, now_s: f64, min_samples: usize) -> Vec<(IdentityId, Vec<f64>)> {
        let cutoff = now_s - self.window_s;
        let full_floor = min_samples.max(1);
        let reduced_floor = ChurnPolicy::reduced_floor(min_samples).min(full_floor);
        let mut out: Vec<(IdentityId, Vec<f64>)> = self
            .samples
            .iter()
            .filter_map(|(&id, samples)| {
                let mut kept: Vec<(f64, f64)> = samples
                    .iter()
                    .copied()
                    .filter(|&(t, _)| t >= cutoff && t <= now_s)
                    .collect();
                if kept.len() < reduced_floor {
                    return None;
                }
                kept.sort_by(|a, b| a.0.total_cmp(&b.0));
                if kept.len() < full_floor {
                    let segments = 1 + kept
                        .windows(2)
                        .filter(|w| w[1].0 - w[0].0 > CHURN_GAP_S)
                        .count();
                    if segments < 2 {
                        return None;
                    }
                }
                Some((id, kept.into_iter().map(|(_, r)| r).collect()))
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_filtering() {
        let mut c = Collector::new(10.0);
        for k in 0..30 {
            c.record(1, k as f64, -70.0 - k as f64);
        }
        let series = c.series_at(29.0, 1);
        assert_eq!(series[0].1.len(), 11);
        assert_eq!(series[0].1[0], -89.0);
        assert_eq!(*series[0].1.last().unwrap(), -99.0);
    }

    #[test]
    fn min_samples_filter_and_sorting() {
        let mut c = Collector::new(10.0);
        c.record(9, 0.0, -60.0);
        c.record(3, 0.0, -61.0);
        c.record(3, 1.0, -62.0);
        let series = c.series_at(1.0, 2);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, 3);
        let all = c.series_at(1.0, 1);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 3);
        assert_eq!(all[1].0, 9);
    }

    #[test]
    fn out_of_order_arrival_is_sorted() {
        let mut c = Collector::new(10.0);
        c.record(1, 2.0, -72.0);
        c.record(1, 1.0, -71.0);
        let series = c.series_at(2.0, 1);
        assert_eq!(series[0].1, vec![-71.0, -72.0]);
    }

    #[test]
    fn prune_bounds_memory() {
        let mut c = Collector::new(5.0);
        c.record(1, 0.0, -70.0);
        c.record(2, 0.0, -71.0);
        c.record(1, 7.0, -70.0);
        c.prune(7.0);
        assert_eq!(c.heard_identities(), 1);
    }

    #[test]
    #[should_panic(expected = "observation window must be positive")]
    fn zero_window_panics() {
        Collector::new(0.0);
    }

    #[test]
    fn non_finite_samples_are_quarantined_not_stored() {
        // Regression: a single NaN timestamp used to panic series_at
        // ("finite timestamps"); ±∞ RSSI poisoned normalisation.
        let mut c = Collector::new(10.0);
        c.record(1, 0.0, -70.0);
        for (t, r) in [
            (f64::NAN, -70.0),
            (f64::INFINITY, -70.0),
            (1.0, f64::NAN),
            (2.0, f64::NEG_INFINITY),
        ] {
            c.record(1, t, r);
        }
        c.record(1, 1.0, -71.0);
        assert_eq!(c.rejected_samples(), 4);
        let series = c.series_at(1.0, 1);
        assert_eq!(series[0].1, vec![-70.0, -71.0]);
    }

    #[test]
    fn snapshot_restore_round_trips_bitwise() {
        let mut c = Collector::new(20.0);
        for k in 0..50 {
            // Out-of-order and multi-identity on purpose.
            c.record(
                (k % 3) as IdentityId,
                (49 - k) as f64 * 0.37,
                -70.0 - k as f64 * 0.1,
            );
        }
        c.record(7, f64::NAN, -70.0); // rejected, must survive in count
        let (w, rej, per_id) = c.snapshot();
        let restored = Collector::restore(w, rej, per_id);
        assert_eq!(restored.rejected_samples(), c.rejected_samples());
        assert_eq!(restored.heard_identities(), c.heard_identities());
        let a = c.series_at(20.0, 1);
        let b = restored.series_at(20.0, 1);
        assert_eq!(a.len(), b.len());
        for ((id_a, s_a), (id_b, s_b)) in a.iter().zip(&b) {
            assert_eq!(id_a, id_b);
            assert!(s_a.iter().zip(s_b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn snapshot_is_canonical_across_insertion_orders() {
        let mut a = Collector::new(10.0);
        let mut b = Collector::new(10.0);
        let beacons = [(2u64, 1.0, -71.0), (1u64, 0.5, -70.0), (2u64, 0.2, -72.0)];
        for &(id, t, r) in &beacons {
            a.record(id, t, r);
        }
        for &(id, t, r) in beacons.iter().rev() {
            b.record(id, t, r);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn churned_identity_is_rescued_at_the_reduced_floor() {
        let mut c = Collector::new(20.0);
        // Full-window identity: 200 samples at 10 Hz.
        for k in 0..200 {
            c.record(1, k as f64 * 0.1, -70.0);
        }
        // Churned identity: two bursts [0, 5) and [15, 20) — 100 samples
        // total, silent for 10 s in between.
        for k in 0..50 {
            c.record(9, k as f64 * 0.1, -72.0);
            c.record(9, 15.0 + k as f64 * 0.1, -72.5);
        }
        let floor = 150;
        let plain = c.series_at(20.0, floor);
        assert_eq!(plain.len(), 1, "plain extraction drops the churned id");
        let churned = c.series_at_churned(20.0, floor);
        assert_eq!(churned.len(), 2);
        assert_eq!(churned[1].0, 9);
        assert_eq!(churned[1].1.len(), 100, "segments merged in time order");
        // Full-floor identities come through bit-identically.
        assert_eq!(plain[0], churned[0]);
    }

    #[test]
    fn steady_sparse_identity_is_not_rescued() {
        let mut c = Collector::new(20.0);
        // One continuous burst of 100 samples — below the 150 floor but
        // with no retire/announce gap.
        for k in 0..100 {
            c.record(5, k as f64 * 0.1, -75.0);
        }
        let churned = c.series_at_churned(20.0, 150);
        assert!(
            churned.is_empty(),
            "a single-segment identity must not get the reduced floor"
        );
    }

    #[test]
    fn churned_identity_below_reduced_floor_stays_out() {
        let mut c = Collector::new(20.0);
        // Two segments but only 10 samples total: under both the default
        // absolute floor (20) and any sane fraction.
        for k in 0..5 {
            c.record(5, k as f64 * 0.1, -75.0);
            c.record(5, 10.0 + k as f64 * 0.1, -75.0);
        }
        assert!(c.series_at_churned(20.0, 150).is_empty());
    }

    #[test]
    fn churn_reduced_floor() {
        assert_eq!(ChurnPolicy::reduced_floor(100), 35);
        assert_eq!(
            ChurnPolicy::reduced_floor(10),
            20,
            "absolute floor dominates"
        );
    }

    #[test]
    fn try_record_reports_the_offending_field() {
        let mut c = Collector::new(10.0);
        assert!(matches!(
            c.try_record(7, f64::NAN, -70.0),
            Err(VpError::NonFiniteTime { identity: 7, .. })
        ));
        assert!(matches!(
            c.try_record(7, 0.0, f64::INFINITY),
            Err(VpError::NonFiniteRssi { identity: 7, .. })
        ));
        assert!(c.try_record(7, 0.0, -70.0).is_ok());
        assert_eq!(c.rejected_samples(), 2);
    }
}
