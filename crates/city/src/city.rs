//! The city driver: sharded execution plus fusion.
//!
//! Execution model: shards share nothing until fusion, and every feed is
//! already in memory, so the driver fills one outcome slot per feed with
//! vp-par's scoped fork-join on up to `worker_threads` threads. A worker
//! replays whole feeds one after another ([`crate::shard`]). A shard on a
//! worker sits inside a parallel region, so its comparison sweep runs
//! inline on that worker: a shard's sweep fans out over
//! [`vp_par::max_threads`] only when one shard runs at a time
//! (`worker_threads = 1`, or a single feed).
//!
//! Determinism: each shard's output depends only on its own feed and
//! resume frame (thread interleaving can change *when* a shard computes,
//! never *what*); a failing run reports the error of the first failing
//! feed in feed order; and fusion sorts shards by `(cell, observer)`
//! before voting. `worker_threads = 1` therefore produces bit-identical
//! output to `worker_threads = N` — pinned in `tests/city_runtime.rs`
//! with a golden digest.

use vp_fault::VpError;
use vp_mobility::Highway;
use vp_runtime::RuntimeConfig;
use vp_sim::{try_run_scenario, ScenarioConfig, SimulationOutcome};

use crate::cell::{CellGrid, CellId};
use crate::fusion::{self, FusedRound, FusionConfig};
use crate::obs;
use crate::shard::{run_shard, ObserverFeed, ShardOutcome};
use crate::snapshot::{CitySnapshot, ShardSnapshot};
use vp_sim::IdentityId;

/// Configuration of a city run.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Per-shard runtime configuration (every shard runs the same one).
    pub runtime: RuntimeConfig,
    /// Verdict fusion (majority, the only rule).
    pub fusion: FusionConfig,
    /// Shards executed concurrently; `0` means [`vp_par::max_threads`].
    pub worker_threads: usize,
}

impl CityConfig {
    /// Majority fusion and auto-sized workers.
    pub fn new(runtime: RuntimeConfig) -> Self {
        CityConfig {
            runtime,
            fusion: FusionConfig::majority(),
            worker_threads: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`VpError::InvalidConfig`] when the shard runtime configuration
    /// fails its own validation.
    pub fn validate(&self) -> Result<(), VpError> {
        self.runtime.validate()
    }

    fn workers(&self) -> usize {
        if self.worker_threads == 0 {
            vp_par::max_threads()
        } else {
            self.worker_threads
        }
    }
}

/// Result of a city run: every shard's outcome plus the fused verdicts.
#[derive(Debug, Clone)]
pub struct CityOutcome {
    /// Per-shard outcomes, ascending by `(cell, observer)`.
    pub shards: Vec<ShardOutcome>,
    /// City-wide fused verdict per detection boundary, in time order.
    pub fused: Vec<FusedRound>,
}

impl CityOutcome {
    /// One shard's outcome, if present.
    pub fn shard(&self, cell: CellId, observer: IdentityId) -> Option<&ShardOutcome> {
        self.shards
            .binary_search_by_key(&(cell, observer), |s| (s.cell, s.observer))
            .ok()
            .map(|k| &self.shards[k])
    }

    /// Composes every shard's final checkpoint into one restorable city
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`VpError::InvalidConfig`] only if shard coordinates collide,
    /// which [`run_city`] already rejects at ingress.
    pub fn snapshot(&self) -> Result<CitySnapshot, VpError> {
        CitySnapshot::new(
            self.shards
                .iter()
                .map(|s| ShardSnapshot {
                    cell: s.cell,
                    observer: s.observer,
                    frame: s.checkpoint.clone(),
                })
                .collect(),
        )
    }
}

/// Runs every feed through its own runtime shard and fuses the verdicts.
///
/// # Errors
///
/// [`VpError::InvalidConfig`] on an invalid configuration, a non-finite
/// `end_s`, or duplicate `(cell, observer)` feeds; any error a shard
/// runtime reports (e.g. a corrupt resume frame) is propagated.
pub fn run_city(
    feeds: &[ObserverFeed],
    end_s: f64,
    config: &CityConfig,
) -> Result<CityOutcome, VpError> {
    run_city_inner(feeds, end_s, config, None)
}

/// [`run_city`] resuming every shard from a prior [`CitySnapshot`].
///
/// Feeds with no frame in the snapshot start fresh; frames with no feed
/// are ignored (their shards simply see no further traffic).
///
/// # Errors
///
/// As [`run_city`], plus any checkpoint-restore error from a shard whose
/// frame is corrupt or version-incompatible.
pub fn resume_city(
    feeds: &[ObserverFeed],
    end_s: f64,
    config: &CityConfig,
    snapshot: &CitySnapshot,
) -> Result<CityOutcome, VpError> {
    run_city_inner(feeds, end_s, config, Some(snapshot))
}

fn run_city_inner(
    feeds: &[ObserverFeed],
    end_s: f64,
    config: &CityConfig,
    snapshot: Option<&CitySnapshot>,
) -> Result<CityOutcome, VpError> {
    config.validate()?;
    if !end_s.is_finite() {
        return Err(VpError::InvalidConfig("city end time must be finite"));
    }
    let mut keys: Vec<(CellId, IdentityId)> = feeds.iter().map(|f| (f.cell, f.observer)).collect();
    keys.sort_unstable();
    if keys.windows(2).any(|w| w[0] == w[1]) {
        return Err(VpError::InvalidConfig(
            "duplicate (cell, observer) observer feed",
        ));
    }

    // Every slot is overwritten: the fill visits each index exactly once.
    let mut slots: Vec<Result<ShardOutcome, VpError>> = feeds
        .iter()
        .map(|_| Err(VpError::InvalidConfig("city shard did not run")))
        .collect();
    vp_par::par_fill_with_min_fanout(
        &mut slots,
        config.workers(),
        2,
        || (),
        |k, slot, ()| {
            let feed = &feeds[k];
            let resume = snapshot
                .and_then(|snap| snap.shard(feed.cell, feed.observer))
                .map(|s| s.frame.as_slice());
            *slot = run_shard(feed, &config.runtime, resume, end_s);
        },
    );
    // Collecting stops at the first error in feed order, whichever worker
    // count ran the shards.
    let mut shards = slots.into_iter().collect::<Result<Vec<_>, _>>()?;
    shards.sort_by_key(|s| (s.cell, s.observer));
    let fused = fusion::fuse(&shards, &config.fusion);
    obs::fused(&fused, shards.len());
    Ok(CityOutcome { shards, fused })
}

/// Outcome of [`run_scenario_city`]: the batch simulation (tap included)
/// plus the sharded city run over that tap.
#[derive(Debug, Clone)]
pub struct CityScenarioOutcome {
    /// The underlying simulation outcome, with `beacon_tap` populated.
    pub sim: SimulationOutcome,
    /// The city run over the per-observer taps.
    pub city: CityOutcome,
}

/// Runs a simulator scenario, partitions its observers into `cells`
/// equal-width cells of the paper's highway by their first recorded
/// position, and replays each observer's beacon tap through the sharded
/// city runtime.
///
/// # Errors
///
/// Any simulator, configuration, or shard error, as [`run_city`].
pub fn run_scenario_city(
    scenario: &ScenarioConfig,
    config: &CityConfig,
    cells: u64,
) -> Result<CityScenarioOutcome, VpError> {
    let mut scenario = scenario.clone();
    scenario.collect_beacons = true;
    scenario.collect_inputs = true; // observer positions for cell mapping
    let sim = try_run_scenario(&scenario, &[])?;
    let grid = CellGrid::from_highway(&Highway::paper_default(), cells)?;
    let feeds: Vec<ObserverFeed> = sim
        .beacon_tap
        .iter()
        .enumerate()
        .map(|(idx, tap)| {
            // `sim.observers[idx]` owns `beacon_tap[idx]`; the observer's
            // position comes from its earliest retained detection input.
            // Positional indexing into `collected` is NOT equivalent: an
            // observer whose window held no qualifying series produces no
            // input for that boundary, so entry `idx` can belong to a
            // different observer entirely — under mid-window identity
            // churn that mis-assigned every later observer to a stale
            // cell.
            let observer = sim.observers.get(idx).copied().unwrap_or(idx as IdentityId);
            let cell = sim
                .collected
                .iter()
                .find(|input| input.observer == observer)
                .map(|input| grid.cell_of(input.observer_position_m.0))
                .unwrap_or(0);
            ObserverFeed {
                observer,
                cell,
                beacons: tap.clone(),
            }
        })
        .collect();
    let city = run_city(&feeds, scenario.simulation_time_s, config)?;
    Ok(CityScenarioOutcome { sim, city })
}

#[cfg(test)]
mod tests {
    use super::*;
    use voiceprint::ThresholdPolicy;
    use vp_fault::Beacon;
    use vp_sim::engine::TapBeacon;

    fn runtime_config() -> RuntimeConfig {
        let mut c = RuntimeConfig::paper_default(ThresholdPolicy::paper_simulation());
        c.min_samples_per_series = 20;
        c
    }

    /// A feed whose identities `base` and `base+1` are a Sybil pair when
    /// `sybil`, plus an always-honest `base+2` (the confirm layer never
    /// flags neighbourhoods of fewer than three identities), over ~24 s
    /// so one detection boundary fires.
    fn feed(observer: IdentityId, cell: CellId, base: IdentityId, sybil: bool) -> ObserverFeed {
        let beacons = (0..240u32)
            .flat_map(|k| {
                let t = 0.1 * k as f64;
                let a = -61.0 + (0.21 * k as f64).sin() * 5.5;
                let b = if sybil {
                    a + 0.35
                } else {
                    -61.0 + (0.13 * k as f64).cos() * 8.0 + (k % 5) as f64
                };
                [
                    TapBeacon {
                        arrival_s: t,
                        beacon: Beacon::new(base, t, a),
                    },
                    TapBeacon {
                        arrival_s: t,
                        beacon: Beacon::new(base + 1, t + 0.001, b),
                    },
                    TapBeacon {
                        arrival_s: t,
                        beacon: Beacon::new(base + 2, t + 0.002, -74.0 + 0.04 * k as f64),
                    },
                ]
            })
            .collect();
        ObserverFeed {
            observer,
            cell,
            beacons,
        }
    }

    fn city_config(workers: usize) -> CityConfig {
        let mut c = CityConfig::new(runtime_config());
        c.worker_threads = workers;
        c
    }

    #[test]
    fn thread_count_does_not_change_the_output() {
        let feeds = vec![
            feed(1, 0, 100, true),
            feed(2, 0, 100, true),
            feed(3, 1, 100, false),
            feed(4, 2, 200, true),
            feed(5, 2, 200, false),
        ];
        let one = run_city(&feeds, 25.0, &city_config(1)).unwrap();
        let four = run_city(&feeds, 25.0, &city_config(4)).unwrap();
        let many = run_city(&feeds, 25.0, &city_config(0)).unwrap();
        assert_eq!(one.shards, four.shards);
        assert_eq!(one.fused, four.fused);
        assert_eq!(one.shards, many.shards);
        assert_eq!(one.fused, many.fused);
        assert!(!one.fused.is_empty());
        assert!(one.fused[0].suspects.contains(&100));
    }

    #[test]
    fn every_shard_reports_when_shards_outnumber_workers() {
        // 5 feeds on 2 workers: each worker replays several whole feeds,
        // and all five shards must report.
        let feeds: Vec<ObserverFeed> = (0..5)
            .map(|k| feed(k + 1, k, 100 + 10 * k, k % 2 == 0))
            .collect();
        let out = run_city(&feeds, 25.0, &city_config(2)).unwrap();
        assert_eq!(out.shards.len(), 5);
        for (s, f) in out.shards.iter().zip(&feeds) {
            assert_eq!((s.cell, s.observer), (f.cell, f.observer));
            assert!(!s.reports().is_empty());
        }
    }

    #[test]
    fn snapshot_resume_matches_an_uninterrupted_run() {
        let full = vec![feed(1, 0, 100, true), feed(2, 1, 200, false)];
        let config = city_config(2);
        let uninterrupted = run_city(&full, 50.0, &config).unwrap();

        // Split each feed at arrival 25 s, run the first half, snapshot,
        // then resume the rest from the decoded snapshot.
        let first: Vec<ObserverFeed> = full
            .iter()
            .map(|f| ObserverFeed {
                beacons: f
                    .beacons
                    .iter()
                    .filter(|tb| tb.arrival_s < 25.0)
                    .copied()
                    .collect(),
                ..f.clone()
            })
            .collect();
        let rest: Vec<ObserverFeed> = full
            .iter()
            .map(|f| ObserverFeed {
                beacons: f
                    .beacons
                    .iter()
                    .filter(|tb| tb.arrival_s >= 25.0)
                    .copied()
                    .collect(),
                ..f.clone()
            })
            .collect();
        // End the first leg at the last pre-cut arrival so no boundary
        // at/after the cut runs twice.
        let half = run_city(&first, 23.9, &config).unwrap();
        let encoded = half.snapshot().unwrap().encode();
        let snapshot = CitySnapshot::decode(&encoded).unwrap();
        let resumed = resume_city(&rest, 50.0, &config, &snapshot).unwrap();

        for shard in &uninterrupted.shards {
            let a = half.shard(shard.cell, shard.observer).unwrap();
            let b = resumed.shard(shard.cell, shard.observer).unwrap();
            let stitched: Vec<_> = a.rounds.iter().chain(&b.rounds).cloned().collect();
            assert_eq!(stitched, shard.rounds);
            assert_eq!(b.checkpoint, shard.checkpoint);
        }
    }

    #[test]
    fn resume_reports_the_first_failing_feed_in_feed_order() {
        // Feed order puts (cell 1, observer 2) first; snapshot order puts
        // (cell 0, observer 1) first. Both frames are corrupt, each in its
        // own way, so the error names which shard was reported.
        let feeds = vec![
            feed(2, 1, 200, false),
            feed(1, 0, 100, true),
            feed(3, 2, 300, true),
        ];
        let clean = run_city(&feeds, 25.0, &city_config(1)).unwrap();
        let mut shards = clean.snapshot().unwrap().shards().to_vec();
        for s in &mut shards {
            match (s.cell, s.observer) {
                (1, 2) => s.frame.truncate(3),
                (0, 1) => s.frame[0] ^= 0xff,
                _ => {}
            }
        }
        let snapshot = CitySnapshot::new(shards).unwrap();
        for workers in [1, 2, 0] {
            let err = resume_city(&feeds, 50.0, &city_config(workers), &snapshot).unwrap_err();
            assert_eq!(
                err,
                VpError::CheckpointCorrupt {
                    reason: "shorter than header + checksum"
                },
                "workers={workers}"
            );
        }
    }

    #[test]
    fn duplicate_feeds_and_bad_configs_are_rejected() {
        let feeds = vec![feed(1, 0, 100, true), feed(1, 0, 200, false)];
        assert!(matches!(
            run_city(&feeds, 25.0, &city_config(1)).unwrap_err(),
            VpError::InvalidConfig(_)
        ));

        let ok = vec![feed(1, 0, 100, true)];
        assert!(run_city(&ok, f64::NAN, &city_config(1)).is_err());

        let mut bad = city_config(1);
        bad.runtime.queue_capacity = 0;
        assert!(run_city(&ok, 25.0, &bad).is_err());
    }

    #[test]
    fn scenario_glue_partitions_every_observer() {
        let scenario = ScenarioConfig::builder()
            .density_per_km(10.0)
            .simulation_time_s(45.0)
            .observer_count(3)
            .witness_pool_size(6)
            .malicious_fraction(0.1)
            .seed(7)
            .build();
        let config = CityConfig::new(RuntimeConfig::from_scenario(
            &scenario,
            ThresholdPolicy::paper_simulation(),
        ));
        let out = run_scenario_city(&scenario, &config, 4).unwrap();
        assert_eq!(out.city.shards.len(), 3);
        assert!(out.city.shards.iter().all(|s| s.cell < 4));
        assert!(!out.city.fused.is_empty());
    }

    #[test]
    fn cell_mapping_survives_skipped_detection_windows() {
        // Regression: feeds used to read `collected[idx]` positionally,
        // assuming one input per observer per boundary. A sample floor
        // no observer can meet (as under mid-window identity churn)
        // yields an empty `collected`, which mis-labelled every feed.
        let scenario = ScenarioConfig::builder()
            .density_per_km(10.0)
            .simulation_time_s(45.0)
            .observer_count(3)
            .witness_pool_size(6)
            .malicious_fraction(0.1)
            .min_samples_per_series(100_000)
            .seed(7)
            .build();
        let config = CityConfig::new(RuntimeConfig::from_scenario(
            &scenario,
            ThresholdPolicy::paper_simulation(),
        ));
        let out = run_scenario_city(&scenario, &config, 4).unwrap();
        assert!(
            out.sim.collected.is_empty(),
            "floor must starve every window for this regression"
        );
        assert_eq!(out.city.shards.len(), 3);
        let mut shard_observers: Vec<IdentityId> =
            out.city.shards.iter().map(|s| s.observer).collect();
        shard_observers.sort_unstable();
        let mut expected = out.sim.observers.clone();
        expected.sort_unstable();
        assert_eq!(
            shard_observers, expected,
            "feeds must carry real observer ids"
        );
    }
}
