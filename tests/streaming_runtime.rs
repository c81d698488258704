//! Cross-crate contract tests for the streaming detection runtime:
//! batch/streaming verdict parity on the golden scenario (pinned),
//! checkpoint kill-and-restore equivalence, and overload behaviour under
//! a beacon storm.

use voiceprint::{ThresholdPolicy, VoiceprintDetector};
use vp_fault::{Beacon, FaultKind, FaultPlan};
use vp_runtime::{
    run_scenario_streaming, DeadlinePolicy, DegradeConfig, RoundOutcome, RuntimeConfig,
    StreamingRuntime, WindowReport,
};
use vp_sim::ScenarioConfig;

fn golden_scenario() -> ScenarioConfig {
    ScenarioConfig::builder()
        .density_per_km(15.0)
        .simulation_time_s(45.0)
        .observer_count(2)
        .witness_pool_size(6)
        .malicious_fraction(0.1)
        .seed(42)
        .collect_inputs(true)
        .build()
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::paper_simulation()
}

fn fnv_mix(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100000001b3);
}

/// FNV-1a-style digest over every report's boundary time, suspect list
/// and threshold bits — one number that moves if any verdict moves.
fn digest_reports(reports: &[&WindowReport]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for report in reports {
        fnv_mix(&mut h, report.time_s.to_bits());
        fnv_mix(&mut h, report.verdict.suspects().len() as u64);
        for &id in report.verdict.suspects() {
            fnv_mix(&mut h, id);
        }
        fnv_mix(&mut h, report.verdict.threshold().to_bits());
    }
    h
}

#[test]
fn streaming_verdicts_are_bit_identical_to_the_batch_detector() {
    let scenario = golden_scenario();
    let outcome = run_scenario_streaming(
        &scenario,
        &RuntimeConfig::from_scenario(&scenario, policy()),
    )
    .expect("golden scenario runs");
    // 2 observers × boundaries at 20 s and 40 s.
    assert_eq!(outcome.streams.len(), 2);
    assert_eq!(outcome.sim.collected.len(), 4);

    let detector = VoiceprintDetector::new(policy());
    for (obs_idx, stream) in outcome.streams.iter().enumerate() {
        assert!(stream.counters.is_clean(), "{:?}", stream.counters);
        let reports = stream.reports();
        assert_eq!(reports.len(), 2);
        for (b_idx, report) in reports.iter().enumerate() {
            assert!(report.complete);
            assert_eq!(report.degrade_level, 0);
            // collected is ordered boundary-major: [w20 obs0, w20 obs1,
            // w40 obs0, w40 obs1].
            let input = &outcome.sim.collected[b_idx * 2 + obs_idx];
            assert_eq!(report.time_s, input.time_s);
            assert_eq!(
                report.density_per_km.to_bits(),
                input.estimated_density_per_km.to_bits(),
                "observer {obs_idx} boundary {b_idx}: density diverged"
            );
            let batch = detector.verdict(&input.series, input.estimated_density_per_km);
            assert_eq!(report.verdict, batch, "observer {obs_idx} boundary {b_idx}");
            assert_eq!(
                report.verdict.threshold().to_bits(),
                batch.threshold().to_bits()
            );
        }
    }

    // Pinned digest: any change to collection order, window filtering,
    // normalisation, DTW or thresholding moves this number.
    let all_reports: Vec<&WindowReport> =
        outcome.streams.iter().flat_map(|s| s.reports()).collect();
    assert_eq!(digest_reports(&all_reports), 0x1ef7c5c6d0e2e15c);
}

#[test]
fn kill_and_restore_mid_window_reproduces_the_batch_verdict() {
    let scenario = golden_scenario();
    let config = RuntimeConfig::from_scenario(&scenario, policy());
    let outcome = run_scenario_streaming(&scenario, &config).expect("golden scenario runs");
    let tap = &outcome.sim.beacon_tap[0];
    assert!(!tap.is_empty());

    // Uninterrupted reference run over the same tap.
    let reference = outcome.streams[0]
        .reports()
        .last()
        .cloned()
        .cloned()
        .unwrap();

    // Run until mid-second-window (t = 30 s), then "crash".
    let mut rt = StreamingRuntime::new(config.clone()).unwrap();
    let mut consumed = 0;
    for tb in tap {
        if tb.arrival_s >= 30.0 {
            break;
        }
        rt.advance_to(tb.arrival_s);
        rt.offer(tb.arrival_s, tb.beacon);
        consumed += 1;
    }
    assert!(consumed > 0 && consumed < tap.len(), "mid-stream split");
    let snapshot = rt.checkpoint();
    drop(rt);

    // Restart from the snapshot and replay only the not-yet-consumed tail.
    let mut restored = StreamingRuntime::restore(config, &snapshot).expect("valid snapshot");
    let mut rounds = Vec::new();
    for tb in &tap[consumed..] {
        rounds.extend(restored.advance_to(tb.arrival_s));
        restored.offer(tb.arrival_s, tb.beacon);
    }
    rounds.extend(restored.advance_to(scenario.simulation_time_s));
    let report = rounds
        .iter()
        .filter_map(|r| match r {
            RoundOutcome::Verdict(report) => Some(report),
            _ => None,
        })
        .next_back()
        .expect("the 40 s boundary ran after restore");
    assert_eq!(report.time_s, 40.0);
    assert_eq!(*report, reference);
    assert_eq!(
        report.verdict.threshold().to_bits(),
        reference.verdict.threshold().to_bits()
    );
}

#[test]
fn beacon_storm_sheds_without_panicking_and_reports_the_damage() {
    let mut scenario = golden_scenario();
    scenario.fault_plan = Some(FaultPlan::new(7).with(FaultKind::BeaconStorm {
        probability: 0.05,
        extra_copies: 4,
    }));
    let mut config = RuntimeConfig::from_scenario(&scenario, policy());
    // A queue smaller than a storm window's beacon volume (~3400–3800
    // per observer): the storm must be absorbed by shedding, not by
    // growth. Densest-first shedding trims the inflated identities
    // toward equalisation, so most identities still clear the
    // min-samples bar and boundaries keep producing verdicts.
    config.queue_capacity = 3072;
    let outcome = run_scenario_streaming(&scenario, &config).expect("storm scenario runs");
    for stream in &outcome.streams {
        assert_eq!(stream.rounds.len(), 2);
        assert!(
            stream.counters.samples_shed > 0,
            "storm over a 4096-slot queue must shed: {:?}",
            stream.counters
        );
        // Boundaries still produced verdicts on the surviving samples.
        assert!(!stream.reports().is_empty());
        for report in stream.reports() {
            assert!(report.complete, "no deadline pressure in this run");
        }
    }
}

#[test]
fn streaming_and_batch_agree_under_clock_skew_faults() {
    // Fault injection corrupts timestamps, not arrivals; the tap replay
    // must still match the batch pipeline beacon-for-beacon.
    let mut scenario = golden_scenario();
    scenario.fault_plan = Some(FaultPlan::new(11).with(FaultKind::ClockSkew {
        offset_s: -1.0,
        drift_per_s: 0.005,
    }));
    let outcome = run_scenario_streaming(
        &scenario,
        &RuntimeConfig::from_scenario(&scenario, policy()),
    )
    .expect("skewed scenario runs");
    let detector = VoiceprintDetector::new(policy());
    let mut compared = 0;
    for (obs_idx, stream) in outcome.streams.iter().enumerate() {
        for (b_idx, report) in stream.reports().iter().enumerate() {
            let input = &outcome.sim.collected[b_idx * 2 + obs_idx];
            let batch = detector.verdict(&input.series, input.estimated_density_per_km);
            assert_eq!(report.verdict, batch, "observer {obs_idx} boundary {b_idx}");
            compared += 1;
        }
    }
    assert!(compared >= 2, "skew run produced too few verdicts");
}

#[test]
fn mid_window_identity_churn_cannot_wedge_the_runtime() {
    // Announce/retire regression: Sybil identities 100/101 churn on and
    // off the air mid-window through the adversary injector, identity 9
    // announces too late to clear the sample floor, and one beacon
    // arrives with a NaN arrival time (the historical queue wedge). The
    // boundary must still fire, with the poisoned beacon quarantined and
    // the churned pair judged on its surviving samples.
    use vp_adversary::{AttackInjector, AttackKind, AttackPlan};
    use vp_fault::Beacon;

    let mut config = RuntimeConfig::from_scenario(&golden_scenario(), policy());
    config.min_samples_per_series = 20;
    // A 50%-duty churn leaves ~80 of 200 samples per Sybil; align the
    // comparison floor with the ingest floor so the surviving series are
    // judged rather than silently excluded.
    config.comparison.min_series_len = 20;
    let mut rt = StreamingRuntime::new(config).expect("valid config");

    let plan = AttackPlan::new(9).with(AttackKind::IdentityChurn {
        period_s: 3.0,
        duty: 0.5,
    });
    let mut injector = AttackInjector::new(&plan, &[100, 101], &[]);
    for k in 0..200u32 {
        let t = f64::from(k) * 0.1;
        let shape = (t * 1.3).sin() * 3.0;
        for (id, level) in [(100u64, -70.0), (101, -64.0)] {
            for ab in injector.inject(t, Beacon::new(id, t, level + shape)) {
                rt.offer(ab.arrival_s, ab.beacon);
            }
        }
        for h in 1..=3u64 {
            let honest = -72.0 - h as f64 + (t * (0.5 + h as f64 * 0.3)).cos() * 2.5;
            rt.offer(t, Beacon::new(h, t, honest));
        }
        if k == 120 {
            rt.offer(f64::NAN, Beacon::new(100, f64::NAN, -70.0));
        }
        if k >= 190 {
            rt.offer(t, Beacon::new(9, t, -80.0)); // late announcer
        }
    }
    assert!(
        injector.stats().suppressed > 0,
        "churn plan must retire beacons mid-window: {:?}",
        injector.stats()
    );
    assert_eq!(rt.queue_quarantined(), 1, "NaN arrival must be quarantined");

    let outcomes = rt.advance_to(20.0);
    assert_eq!(outcomes.len(), 1);
    let report = match &outcomes[0] {
        RoundOutcome::Verdict(report) => report,
        other => panic!("boundary must produce a verdict, got {other:?}"),
    };
    assert!(report.complete);
    let audited: Vec<u64> = report
        .verdict
        .audit_records()
        .iter()
        .flat_map(|r| [r.id_i, r.id_j])
        .collect();
    assert!(
        audited.contains(&100) && audited.contains(&101),
        "churned pair must survive to comparison on its remaining samples"
    );
    assert!(
        !audited.contains(&9),
        "a sub-floor late announcer must not reach comparison"
    );
    // The beacons queued behind the poisoned entry all drained: every
    // honest identity has a full-window series in the audit.
    for h in 1..=3u64 {
        assert!(
            audited.contains(&h),
            "identity {h} starved behind the NaN entry"
        );
    }
}

/// Four identities (six pairs), 150 samples each at 10 Hz, in the
/// 20 s window that starts at `t0`.
fn feed_four(rt: &mut StreamingRuntime, t0: f64) {
    for k in 0..150u32 {
        let u = 0.05 + f64::from(k) * 0.1;
        for id in 1..=4u64 {
            let rssi = -70.0 - id as f64 + (u * (0.3 + id as f64 * 0.2)).sin() * 3.0;
            rt.offer(t0 + u, Beacon::new(id, t0 + u, rssi));
        }
    }
}

/// Feeds the window that ends at `t0 + 20` and returns its verdict.
fn run_window(rt: &mut StreamingRuntime, t0: f64) -> WindowReport {
    feed_four(rt, t0);
    let outcomes = rt.advance_to(t0 + 20.0);
    assert_eq!(outcomes.len(), 1, "window at {t0}");
    match &outcomes[0] {
        RoundOutcome::Verdict(report) => report.clone(),
        other => panic!("window at {t0}: expected a verdict, got {other:?}"),
    }
}

/// A one-pair budget over six pairs misses every round, so each window
/// steps one degradation level deeper.
fn always_missing(max_level: u8) -> RuntimeConfig {
    let mut config = RuntimeConfig::paper_default(policy());
    config.deadline = DeadlinePolicy::PairBudget(1);
    config.degrade = DegradeConfig {
        max_level,
        ..DegradeConfig::default()
    };
    config
}

#[test]
fn every_u8_degradation_level_runs_a_round() {
    // Halving the band by `1 << level` overflowed at level 32: the shift
    // panicked in `advance_to`, outside the round's panic guard.
    let mut rt = StreamingRuntime::new(always_missing(40)).expect("valid config");
    for round in 0..44u8 {
        let report = run_window(&mut rt, f64::from(round) * 20.0);
        assert!(!report.complete, "round {round} must miss its budget");
        assert_eq!(report.degrade_level, round.min(40), "round {round}");
    }
    assert_eq!(rt.degrade_level(), 40, "saturates at max_level");
}

#[test]
fn restore_clamps_a_stored_level_to_the_configs_max_level() {
    let mut deep = StreamingRuntime::new(always_missing(8)).expect("valid config");
    for round in 0..4u8 {
        run_window(&mut deep, f64::from(round) * 20.0);
    }
    assert_eq!(deep.degrade_level(), 4);
    let bytes = deep.checkpoint();

    let mut config = RuntimeConfig::paper_default(policy());
    config.deadline = DeadlinePolicy::PairBudget(1);
    assert_eq!(config.degrade, DegradeConfig::default());
    let mut restored = StreamingRuntime::restore(config, &bytes).expect("checkpoint restores");
    assert_eq!(
        restored.degrade_level(),
        2,
        "clamped to the default max_level"
    );
    let report = run_window(&mut restored, 80.0);
    assert_eq!(
        report.degrade_level, 2,
        "the next window runs at the clamped level"
    );
    assert_eq!(restored.degrade_level(), 2);
}
