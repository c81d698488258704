//! Multi-period confirmation (the paper's Section VI suggestion).
//!
//! "We suggest making a final determination of the Sybil node after
//! several detection periods so as to reduce the false positive rate."
//!
//! [`MultiPeriodDetector`] wraps any inner [`Detector`] and only reports
//! an identity once it has been suspected in at least `m` of the last `n`
//! detection periods *at the same observer*. Transient look-alikes (two
//! vehicles stopped side by side at a red light — the paper's one field-
//! test false positive) rarely stay similar across periods, while a real
//! Sybil group is similar in every period.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Mutex;

use vp_sim::detector::{DetectionInput, Detector};

use crate::IdentityId;

/// An `m`-of-`n` voting wrapper around any detector.
///
/// Interior state (the per-observer suspicion history) lives behind a
/// mutex because [`Detector::detect`] takes `&self` and the simulator may
/// call it from a worker thread (detectors are evaluated concurrently
/// *across* detectors, never concurrently with themselves); the detector
/// remains deterministic because each detector still sees its inputs
/// strictly sequentially in time order.
#[derive(Debug)]
pub struct MultiPeriodDetector<D> {
    inner: D,
    min_votes: usize,
    window: usize,
    name: String,
    // Per-period suspect sets are BTreeSets and the vote tally below is a
    // BTreeMap, so every iteration here is statically order-stable; the
    // outer history map is fine as a HashMap because it is only ever
    // indexed by observer, never iterated.
    history: Mutex<HashMap<IdentityId, VecDeque<BTreeSet<IdentityId>>>>,
}

impl<D: Detector> MultiPeriodDetector<D> {
    /// Wraps `inner`, requiring suspicion in at least `min_votes` of the
    /// last `window` periods.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min_votes <= window`.
    pub fn new(inner: D, min_votes: usize, window: usize) -> Self {
        assert!(min_votes >= 1, "need at least one vote");
        assert!(min_votes <= window, "votes cannot exceed the window");
        let name = format!("{}-{}of{}", inner.name(), min_votes, window);
        MultiPeriodDetector {
            inner,
            min_votes,
            window,
            name,
            history: Mutex::new(HashMap::new()),
        }
    }

    /// Clears all remembered history (e.g. between simulation runs).
    pub fn reset(&self) {
        lock_history(&self.history).clear();
    }
}

/// Acquires the vote-history lock, recovering from poisoning: the map
/// only accumulates per-observer vote sets, so state left by a panicked
/// holder is still internally consistent.
fn lock_history<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<D: Detector> Detector for MultiPeriodDetector<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn detect(&self, input: &DetectionInput) -> Vec<IdentityId> {
        let raw: BTreeSet<IdentityId> = self.inner.detect(input).into_iter().collect();
        let mut history = lock_history(&self.history);
        let periods = history.entry(input.observer).or_default();
        periods.push_back(raw);
        while periods.len() > self.window {
            periods.pop_front();
        }
        // Count votes per identity over the retained periods.
        let mut votes: BTreeMap<IdentityId, usize> = BTreeMap::new();
        for period in periods.iter() {
            for &id in period {
                *votes.entry(id).or_insert(0) += 1;
            }
        }
        let mut confirmed: Vec<IdentityId> = votes
            .into_iter()
            .filter(|&(_, v)| v >= self.min_votes)
            .map(|(id, _)| id)
            .collect();
        confirmed.sort_unstable();
        confirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_period_detector_is_sync() {
        // The simulator evaluates detectors on worker threads; the Mutex
        // around the history must make the wrapper Sync whenever the
        // inner detector is.
        fn assert_sync<T: Sync>() {}
        assert_sync::<MultiPeriodDetector<crate::VoiceprintDetector>>();
    }

    /// Scripted inner detector: returns a fixed sequence of suspect sets.
    struct Scripted {
        outputs: Mutex<VecDeque<Vec<IdentityId>>>,
    }

    impl Scripted {
        fn new(outputs: Vec<Vec<IdentityId>>) -> Self {
            Scripted {
                outputs: Mutex::new(outputs.into()),
            }
        }
    }

    impl Detector for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn detect(&self, _input: &DetectionInput) -> Vec<IdentityId> {
            self.outputs.lock().unwrap().pop_front().unwrap_or_default()
        }
    }

    fn input(observer: IdentityId, time_s: f64) -> DetectionInput {
        DetectionInput {
            observer,
            time_s,
            observer_position_m: (0.0, 0.0),
            observer_forward: true,
            series: Vec::new(),
            estimated_density_per_km: 10.0,
            claims: Vec::new(),
            witness_reports: Vec::new(),
        }
    }

    #[test]
    fn persistent_suspect_confirmed_transient_suppressed() {
        // Identity 100 suspected every period; identity 7 only once.
        let inner = Scripted::new(vec![vec![100, 7], vec![100], vec![100]]);
        let d = MultiPeriodDetector::new(inner, 2, 3);
        assert!(d.detect(&input(0, 20.0)).is_empty()); // one vote each
        assert_eq!(d.detect(&input(0, 40.0)), vec![100]);
        assert_eq!(d.detect(&input(0, 60.0)), vec![100]); // 7 aged to 1 vote
    }

    #[test]
    fn window_slides() {
        let inner = Scripted::new(vec![vec![5], vec![5], vec![], vec![]]);
        let d = MultiPeriodDetector::new(inner, 2, 2);
        let _ = d.detect(&input(0, 20.0));
        assert_eq!(d.detect(&input(0, 40.0)), vec![5]);
        // One empty period: 5 has one vote in the last two.
        assert!(d.detect(&input(0, 60.0)).is_empty());
        assert!(d.detect(&input(0, 80.0)).is_empty());
    }

    #[test]
    fn observers_are_independent() {
        let inner = Scripted::new(vec![vec![9], vec![9]]);
        let d = MultiPeriodDetector::new(inner, 2, 2);
        let _ = d.detect(&input(0, 20.0));
        // Second vote lands at a DIFFERENT observer: neither confirms.
        assert!(d.detect(&input(1, 20.0)).is_empty());
    }

    #[test]
    fn one_of_one_is_passthrough() {
        let inner = Scripted::new(vec![vec![3, 1], vec![]]);
        let d = MultiPeriodDetector::new(inner, 1, 1);
        assert_eq!(d.detect(&input(0, 20.0)), vec![1, 3]);
        assert!(d.detect(&input(0, 40.0)).is_empty());
    }

    #[test]
    fn reset_clears_history() {
        let inner = Scripted::new(vec![vec![4], vec![4]]);
        let d = MultiPeriodDetector::new(inner, 2, 2);
        let _ = d.detect(&input(0, 20.0));
        d.reset();
        assert!(d.detect(&input(0, 40.0)).is_empty());
    }

    #[test]
    fn name_encodes_voting() {
        let d = MultiPeriodDetector::new(Scripted::new(vec![]), 2, 3);
        assert_eq!(d.name(), "scripted-2of3");
    }

    #[test]
    #[should_panic(expected = "votes cannot exceed the window")]
    fn invalid_voting_panics() {
        let _ = MultiPeriodDetector::new(Scripted::new(vec![]), 3, 2);
    }

    // --- window-boundary coverage with the real detector inside ---

    use crate::collector::Collector;
    use crate::threshold::ThresholdPolicy;
    use crate::VoiceprintDetector;
    use vp_stats::rng::SplitMix64;

    fn voiceprint_1of1() -> MultiPeriodDetector<VoiceprintDetector> {
        MultiPeriodDetector::new(
            VoiceprintDetector::new(ThresholdPolicy::paper_simulation()),
            1,
            1,
        )
    }

    fn input_with_series(series: Vec<(IdentityId, Vec<f64>)>) -> DetectionInput {
        DetectionInput {
            series,
            ..input(0, 20.0)
        }
    }

    #[test]
    fn empty_window_yields_no_suspects_and_still_advances_history() {
        let d = MultiPeriodDetector::new(
            VoiceprintDetector::new(ThresholdPolicy::paper_simulation()),
            1,
            2,
        );
        // An observer that heard nothing this window: clean verdict, no
        // panic — and the empty period must still age out older votes.
        let sybil_shape: Vec<f64> = (0..150).map(|k| (k as f64 * 0.11).sin() * 4.0).collect();
        let sybils = vec![
            (100, sybil_shape.iter().map(|v| v - 70.0).collect()),
            (101, sybil_shape.iter().map(|v| v - 64.5).collect()),
            (102, sybil_shape.iter().map(|v| v - 75.5).collect()),
        ];
        assert_eq!(d.detect(&input_with_series(sybils)), vec![100, 101, 102]);
        assert_eq!(
            d.detect(&input_with_series(Vec::new())),
            vec![100, 101, 102],
            "votes from the previous period persist through an empty window"
        );
        assert!(
            d.detect(&input_with_series(Vec::new())).is_empty(),
            "two empty windows age the votes out"
        );
    }

    #[test]
    fn single_sample_identity_is_excluded_not_fatal() {
        let d = voiceprint_1of1();
        let sybil_shape: Vec<f64> = (0..150).map(|k| (k as f64 * 0.11).sin() * 4.0).collect();
        let series = vec![
            (7, vec![-71.0]), // one sample: below any min-series bar
            (100, sybil_shape.iter().map(|v| v - 70.0).collect()),
            (101, sybil_shape.iter().map(|v| v - 64.5).collect()),
            (102, sybil_shape.iter().map(|v| v - 75.5).collect()),
        ];
        let suspects = d.detect(&input_with_series(series));
        assert_eq!(suspects, vec![100, 101, 102]);
        assert!(!suspects.contains(&7));
    }

    #[test]
    fn collection_window_edges_are_inclusive() {
        // The collection window is the closed interval
        // [now − window, now]: a sample exactly at either edge counts,
        // one epsilon outside does not.
        let mut c = Collector::new(20.0);
        let now = 40.0;
        c.record(1, now - 20.0, -70.0); // exactly at the old edge
        c.record(1, now, -71.0); // exactly at the new edge
        c.record(1, (now - 20.0) - 1e-9, -72.0); // just too old
        c.record(2, now - 10.0, -75.0);
        let series = c.series_at(now, 1);
        assert_eq!(series[0], (1, vec![-70.0, -71.0]));
        assert_eq!(series[1].0, 2);
    }

    #[test]
    fn detection_at_the_observation_time_edge_sees_the_full_window() {
        // First detection fires exactly at t = observation_time: every
        // sample since t = 0 is inside the closed window, so the verdict
        // matches one computed on the full recorded history.
        let mut c = Collector::new(20.0);
        for k in 0..150 {
            let t = k as f64 * 0.1;
            let shape = (t * 1.1).sin() * 4.0;
            c.record(100, t, -70.0 + shape);
            c.record(101, t, -64.5 + shape);
            c.record(102, t, -75.5 + shape);
        }
        let at_edge = c.series_at(20.0, 100);
        assert_eq!(at_edge.len(), 3);
        assert!(at_edge.iter().all(|(_, s)| s.len() == 150));
        let d = voiceprint_1of1();
        assert_eq!(d.detect(&input_with_series(at_edge)), vec![100, 101, 102]);
    }

    #[test]
    fn repeated_runs_with_the_same_seed_are_identical() {
        fn noisy_series(rng: &mut SplitMix64, base: f64) -> Vec<f64> {
            (0..150)
                .map(|k| base + (k as f64 * 0.09).sin() * 4.0 + rng.range_f64(-1.0..1.0))
                .collect()
        }
        let run = |seed: u64| -> Vec<Vec<IdentityId>> {
            let mut s = SplitMix64::seed_from_u64(seed);
            let d = MultiPeriodDetector::new(
                VoiceprintDetector::new(ThresholdPolicy::paper_simulation()),
                2,
                3,
            );
            (0..3)
                .map(|p| {
                    let series = vec![
                        (100, noisy_series(&mut s, -70.0)),
                        (101, noisy_series(&mut s, -64.5)),
                        (1, noisy_series(&mut s, -72.0)),
                    ];
                    let mut i = input(0, 20.0 * (p + 1) as f64);
                    i.series = series;
                    d.detect(&i)
                })
                .collect()
        };
        assert_eq!(run(9), run(9), "same seed must reproduce every period");
        assert_eq!(run(77), run(77));
    }
}
