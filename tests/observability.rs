//! Observability contract tests (DESIGN.md §12).
//!
//! The central property: installing a sink changes *what is recorded*,
//! never *what is decided*. The golden digests pinned by
//! `tests/fault_matrix.rs` must hold bit-for-bit while events stream into
//! a sink, and every verdict must equal its unobserved twin.
//!
//! The sink is process-global, and an unobserved run emits into whatever
//! sink another test has installed, so every test holds [`SERIAL`] for
//! its whole body.

use std::sync::{Arc, Mutex, MutexGuard};

use voiceprint::comparator::{compare, ComparisonConfig};
use voiceprint::threshold::ThresholdPolicy;
use voiceprint::{confirm, VoiceprintDetector};
use vp_obs::{MemorySink, ScopedSink};
use vp_stats::rng::SplitMix64;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises the tests in this file; a failed test's poison is ignored.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// FNV-1a-style accumulator over raw f64 bit patterns (same as
/// `tests/fault_matrix.rs`).
fn mix(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100000001b3);
}

fn population(n_ids: usize) -> Vec<(u64, Vec<f64>)> {
    (0..n_ids)
        .map(|v| {
            let len = 110 + (v * 7) % 30;
            let series = (0..len)
                .map(|k| {
                    let t = k as f64 * 0.1;
                    (t * (1.0 + v as f64 * 0.13)).sin() * 4.0 - 70.0 - v as f64
                })
                .collect();
            (v as u64, series)
        })
        .collect()
}

/// The fault-matrix golden digests must survive an *active* sink: the
/// instrumented sweep records timings and prune counters, but the
/// distances it stores are the same bits.
#[test]
fn golden_digests_hold_with_a_sink_installed() {
    let _serial = serial();
    let sink = Arc::new(MemorySink::new());
    let _guard = ScopedSink::install(sink.clone());
    let series = population(10);
    for (cfg, golden) in [
        (ComparisonConfig::default(), 0xede4b7d5dd5936f9u64),
        (ComparisonConfig::paper_strict(), 0x03b149d5278c3f1cu64),
    ] {
        let pd = compare(&series, &cfg);
        let mut h: u64 = 0xcbf29ce484222325;
        for i in 0..pd.len() {
            for j in (i + 1)..pd.len() {
                mix(&mut h, pd.raw_between(i, j).to_bits());
                mix(&mut h, pd.normalized_between(i, j).to_bits());
            }
        }
        assert_eq!(h, golden, "comparison output drifted under obs: {h:#018x}");
    }
    // And the sweeps were actually observed — one event per compare call.
    assert_eq!(sink.count("compare.sweep"), 2);
}

/// Full detection round with a sink: verdict identical to the unobserved
/// run, every flagged pair backed by both an audit record and a
/// `confirm.flagged` event.
#[test]
fn verdicts_are_identical_and_fully_audited_under_observation() {
    let _serial = serial();
    let series = population(10);
    let det = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
    let unobserved = det.verdict(&series, 15.0);

    let sink = Arc::new(MemorySink::new());
    let observed = {
        let _guard = ScopedSink::install(sink.clone());
        det.verdict(&series, 15.0)
    };
    assert_eq!(observed, unobserved);

    assert_eq!(
        sink.count("confirm.flagged"),
        observed.flagged_pairs().len()
    );
    assert_eq!(sink.count("confirm.round"), 1);
    assert_eq!(sink.count("compare.sweep"), 1);
    for &(a, b, d) in observed.flagged_pairs() {
        let rec = observed.audit_for(a, b).expect("flagged pair is audited");
        assert!(rec.flagged);
        assert_eq!(rec.dtw_normalized, d);
        assert_eq!(rec.threshold, observed.threshold());
    }
}

/// Ingest-side rejection shows up as `collector.quarantine` events.
#[test]
fn collector_rejections_are_observed() {
    use voiceprint::Collector;
    let _serial = serial();
    let sink = Arc::new(MemorySink::new());
    let _guard = ScopedSink::install(sink.clone());
    let mut c = Collector::new(20.0);
    c.record(7, 0.0, -70.0);
    c.record(7, 0.1, f64::NAN);
    c.record(8, f64::INFINITY, -72.0);
    assert_eq!(sink.count("collector.quarantine"), 2);
}

/// The streaming runtime's round lifecycle is observable end to end:
/// every detection boundary emits one `runtime.round`, and checkpoints
/// emit save/restore events.
#[test]
fn runtime_rounds_and_checkpoints_are_observed() {
    use vp_runtime::{run_scenario_streaming, RuntimeConfig, StreamingRuntime};
    use vp_sim::ScenarioConfig;
    let _serial = serial();

    let scenario = ScenarioConfig::builder()
        .density_per_km(15.0)
        .simulation_time_s(45.0)
        .observer_count(1)
        .witness_pool_size(6)
        .malicious_fraction(0.1)
        .seed(42)
        .collect_inputs(true)
        .build();
    let config = RuntimeConfig::from_scenario(&scenario, ThresholdPolicy::paper_simulation());

    let sink = Arc::new(MemorySink::new());
    let _guard = ScopedSink::install(sink.clone());
    let outcome = run_scenario_streaming(&scenario, &config).expect("valid configs");
    let rounds: usize = outcome.streams.iter().map(|s| s.rounds.len()).sum();
    assert!(rounds > 0);
    assert_eq!(sink.count("runtime.round"), rounds);

    let rt = StreamingRuntime::new(config.clone()).expect("valid config");
    let snapshot = rt.checkpoint();
    assert_eq!(sink.count("runtime.checkpoint.save"), 1);
    let _restored = StreamingRuntime::restore(config, &snapshot).expect("round-trip");
    assert_eq!(sink.count("runtime.checkpoint.restore"), 1);
}

/// Observation never changes a verdict, for arbitrary series and either
/// comparison config.
#[test]
fn observation_never_changes_verdicts() {
    let _serial = serial();
    let policy = ThresholdPolicy::paper_simulation();
    for case in 0..32 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let n_ids = rng.range_usize(3..8);
        let seeds: Vec<u64> = (0..n_ids).map(|_| rng.range_u64(0..1000)).collect();
        let strict = rng.fair_bool();
        let density = rng.range_f64(1.0..150.0);
        let series: Vec<(u64, Vec<f64>)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let v = (0..110)
                    .map(|k| {
                        let t = k as f64 * 0.1;
                        (t * (1.0 + (s % 17) as f64 * 0.07)).sin() * 4.0 - 70.0 - (s % 11) as f64
                    })
                    .collect();
                (i as u64, v)
            })
            .collect();
        let cfg = if strict {
            ComparisonConfig::paper_strict()
        } else {
            ComparisonConfig::default()
        };

        let base = confirm(&compare(&series, &cfg), density, &policy);
        let observed = {
            let _guard = ScopedSink::install(Arc::new(MemorySink::new()));
            confirm(&compare(&series, &cfg), density, &policy)
        };
        assert_eq!(base, observed, "case {case}");
    }
}

/// A city run is observable shard by shard: every `runtime.round` a shard
/// emits carries that shard's `observer` and `cell` labels, each shard
/// emits one `city.shard` and the run one `city.fused`, and the outcome,
/// every checkpoint byte included, equals the unobserved run's.
#[test]
fn city_events_carry_shard_labels_and_change_no_outcome() {
    use std::collections::BTreeMap;
    use vp_city::{run_city, CityConfig, ObserverFeed};
    use vp_obs::{Event, FieldValue};
    use vp_runtime::{run_scenario_streaming, RuntimeConfig};
    use vp_sim::ScenarioConfig;
    let _serial = serial();

    let scenario = ScenarioConfig::builder()
        .density_per_km(15.0)
        .simulation_time_s(45.0)
        .observer_count(2)
        .witness_pool_size(6)
        .malicious_fraction(0.1)
        .seed(42)
        .collect_inputs(true)
        .build();
    let runtime = RuntimeConfig::from_scenario(&scenario, ThresholdPolicy::paper_simulation());
    let taps = run_scenario_streaming(&scenario, &runtime)
        .expect("valid configs")
        .sim
        .beacon_tap;
    // No shard's cell equals its observer, and `(cell, observer)` order
    // reverses the feed order, so a label taken from the wrong shard or
    // the wrong field shows.
    let feeds: Vec<ObserverFeed> = taps
        .into_iter()
        .zip([7u64, 3])
        .enumerate()
        .map(|(idx, (beacons, cell))| ObserverFeed {
            observer: idx as u64,
            cell,
            beacons,
        })
        .collect();
    assert_eq!(feeds.len(), 2);
    let mut config = CityConfig::new(runtime);
    config.worker_threads = 2;
    let end_s = scenario.simulation_time_s;

    let unobserved = run_city(&feeds, end_s, &config).expect("city runs");
    let sink = Arc::new(MemorySink::new());
    let observed = {
        let _guard = ScopedSink::install(sink.clone());
        run_city(&feeds, end_s, &config).expect("city runs")
    };
    // Debug rather than PartialEq: a NaN distance in an audit record is
    // equal to itself only through its exact formatting. The shards'
    // Debug form includes every checkpoint byte.
    assert_eq!(
        format!("{:?}", observed.shards),
        format!("{:?}", unobserved.shards)
    );
    assert_eq!(
        format!("{:?}", observed.fused),
        format!("{:?}", unobserved.fused)
    );

    assert_eq!(sink.count("city.shard"), observed.shards.len());
    assert_eq!(sink.count("city.fused"), 1);
    let label = |e: &Event, key: &str| match e.field(key) {
        Some(FieldValue::U64(v)) => Some(*v),
        _ => None,
    };
    let events = sink.events();
    let mut rounds_by_shard: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for e in events.iter().filter(|e| e.name == "runtime.round") {
        let cell = label(e, "cell").expect("runtime.round carries a cell label");
        let observer = label(e, "observer").expect("runtime.round carries an observer label");
        *rounds_by_shard.entry((cell, observer)).or_default() += 1;
    }
    let expected: BTreeMap<(u64, u64), usize> = observed
        .shards
        .iter()
        .map(|s| ((s.cell, s.observer), s.rounds.len()))
        .collect();
    assert!(expected.values().all(|&rounds| rounds > 0));
    assert_eq!(rounds_by_shard, expected);
    // The labels are gone once a shard returns: fusion runs unlabelled.
    let fused = events
        .iter()
        .find(|e| e.name == "city.fused")
        .expect("one city.fused");
    assert_eq!(label(fused, "observer"), None);
}

/// The streaming runtime with adaptation on and a pair budget below the
/// round's pair count: missed deadlines degrade the next rounds, which
/// narrow the band and arm the prune threshold, so the comparison cascade
/// triages, LB-prunes and abandons pairs, and the adaptive threshold moves
/// every round. Pinned for both adaptive profiles, which differ in the
/// label proxy's gap ratio and the corridor's ceiling: every round's
/// completeness, degradation level and threshold bits, and every audit
/// record's raw and normalised distance bits. Pruned pairs store lower
/// bounds and the adaptive loop reads them, so the pin covers the bound
/// bits as well as the verdicts.
#[test]
fn adaptive_rounds_under_a_pair_budget_are_pinned() {
    use voiceprint::AdaptiveConfig;
    use vp_runtime::{run_scenario_streaming, DeadlinePolicy, RuntimeConfig};
    use vp_sim::ScenarioConfig;
    let _serial = serial();

    let scenario = ScenarioConfig::builder()
        .density_per_km(30.0)
        .simulation_time_s(100.0)
        .observer_count(1)
        .witness_pool_size(6)
        .malicious_fraction(0.1)
        .seed(42)
        .build();
    for (profile, name, pinned) in [
        (AdaptiveConfig::default(), "default", 0x36d5_93f3_dea5_4ae7),
        (
            AdaptiveConfig::aggressive(),
            "aggressive",
            0xe1c3_d295_9719_16f0,
        ),
    ] {
        let mut config =
            RuntimeConfig::from_scenario(&scenario, ThresholdPolicy::paper_simulation());
        config.adaptive = Some(profile);
        config.deadline = DeadlinePolicy::PairBudget(150);

        let sink = Arc::new(MemorySink::new());
        let outcome = {
            let _guard = ScopedSink::install(sink.clone());
            run_scenario_streaming(&scenario, &config).expect("valid configs")
        };
        let sum = |field: &str| -> u64 {
            sink.events()
                .iter()
                .filter(|e| e.name == "compare.sweep")
                .map(|e| match e.field(field) {
                    Some(vp_obs::FieldValue::U64(v)) => *v,
                    _ => 0,
                })
                .sum()
        };
        let (triaged, lb, abandoned) = (
            sum("triage_rejected"),
            sum("pruned_lb"),
            sum("pruned_abandon"),
        );
        assert!(
            triaged > 0 && lb > 0 && abandoned > 0,
            "{name}: the cascade must run every stage: \
             triage {triaged}, LB {lb}, abandon {abandoned}"
        );

        let mut h: u64 = 0xcbf29ce484222325;
        let mut rounds = 0;
        for report in outcome.streams.iter().flat_map(|s| s.reports()) {
            rounds += 1;
            mix(&mut h, u64::from(report.complete));
            mix(&mut h, u64::from(report.degrade_level));
            mix(&mut h, report.verdict.threshold().to_bits());
            for audit in report.verdict.audit_records() {
                mix(&mut h, audit.dtw_raw.to_bits());
                mix(&mut h, audit.dtw_normalized.to_bits());
            }
        }
        assert_eq!(rounds, 5, "{name}");
        assert_eq!(
            h, pinned,
            "{name} profile: adaptive budgeted rounds drifted: {h:#018x}"
        );
    }
}
