//! End-to-end attacker-strategy matrix: every [`AttackKind`] is driven
//! through the full simulator + detection pipeline, each kind's observer
//! evidence is pinned to a golden digest (seeded, bit-for-bit), and a
//! property sweep checks that arbitrary valid attack plans can neither
//! panic the pipeline nor poison its quarantine accounting.

use std::collections::{BTreeMap, BTreeSet};

use voiceprint::threshold::ThresholdPolicy;
use voiceprint::{triage_misses, ChurnPolicy, MissCause, VoiceprintDetector};
use vp_runtime::{run_scenario_streaming, RuntimeConfig};
use vp_sim::engine::run_scenario;
use vp_sim::{AttackKind, AttackPlan, ScenarioConfig};
use vp_stats::rng::SplitMix64;

/// FNV-1a-style accumulator over raw f64 bit patterns.
fn mix(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100000001b3);
}

fn scenario() -> ScenarioConfig {
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

/// Digest over everything detection sees: per-input identity series and
/// the density estimate — one number that moves if any observed bit
/// moves.
fn digest_collected(outcome: &vp_sim::SimulationOutcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for input in &outcome.collected {
        for (id, s) in &input.series {
            mix(&mut h, *id);
            for v in s {
                mix(&mut h, v.to_bits());
            }
        }
        mix(&mut h, input.estimated_density_per_km.to_bits());
    }
    h
}

/// The matrix: one plan per strategy, at rates aggressive enough that
/// every strategy leaves a visible accounting trace.
fn matrix() -> Vec<(&'static str, AttackKind, u64)> {
    vec![
        (
            "power-ramp",
            AttackKind::PowerRamp {
                ramp_db_per_s: 0.5,
                max_swing_db: 10.0,
            },
            0x2e0cef56a9d111f4,
        ),
        (
            "power-dither",
            AttackKind::PowerDither { amplitude_db: 3.0 },
            0x175af263498a82c4,
        ),
        (
            "identity-churn",
            AttackKind::IdentityChurn {
                period_s: 5.0,
                duty: 0.6,
            },
            0x7dd0d807d37c1050,
        ),
        (
            "collusion",
            AttackKind::Collusion { radios: 3 },
            0x4328b585c22edfd7,
        ),
        (
            "trace-replay",
            AttackKind::TraceReplay {
                victims: 2,
                delay_s: 1.5,
            },
            0x0ead68fb963620b8,
        ),
    ]
}

/// Every attack strategy, injected alone under a pinned seed, produces
/// bit-identical observer evidence run over run — the adversary layer is
/// as deterministic as the clean path it perturbs.
#[test]
fn every_attack_kind_is_golden_pinned() {
    let det = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
    for (name, kind, golden) in matrix() {
        let mut config = scenario();
        config.attack_plan = Some(AttackPlan::new(1234).with(kind));
        let outcome = run_scenario(&config, &[&det]);
        let h = digest_collected(&outcome);
        assert_eq!(
            h, golden,
            "{name}: observed evidence drifted: {h:#018x} (expected {golden:#018x})"
        );
    }
}

/// Each strategy must leave its own accounting trace, keep the pipeline
/// standing, and never manufacture quarantinable (non-finite) evidence.
#[test]
fn every_attack_kind_degrades_gracefully() {
    let det = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
    for (name, kind, _) in matrix() {
        let mut config = scenario();
        config.attack_plan = Some(AttackPlan::new(1234).with(kind.clone()));
        let outcome = run_scenario(&config, &[&det]);
        assert!(outcome.packet_stats.received > 0, "{name}: no traffic");
        assert!(!outcome.collected.is_empty(), "{name}: detection starved");
        assert!(
            outcome.ingest.is_clean(),
            "{name}: a physical-layer attack must not trip ingest faults: {:?}",
            outcome.ingest
        );
        for input in &outcome.collected {
            assert!(
                input.estimated_density_per_km.is_finite(),
                "{name}: density poisoned"
            );
            for (id, series) in &input.series {
                assert!(
                    series.iter().all(|r| r.is_finite()),
                    "{name}: non-finite sample stored for identity {id}"
                );
            }
        }
        let stats = outcome.attack;
        match kind {
            AttackKind::PowerRamp { .. } | AttackKind::PowerDither { .. } => {
                assert!(stats.power_shaped > 0, "{name}: nothing shaped: {stats:?}");
            }
            AttackKind::IdentityChurn { .. } => {
                assert!(
                    stats.suppressed > 0,
                    "{name}: nothing suppressed: {stats:?}"
                );
            }
            AttackKind::Collusion { .. } => {
                assert!(
                    stats.reassigned > 0,
                    "{name}: nothing reassigned: {stats:?}"
                );
            }
            AttackKind::TraceReplay { .. } => {
                assert!(stats.replayed > 0, "{name}: nothing replayed: {stats:?}");
            }
        }
    }
}

/// All five strategies stacked into one campaign-grade plan: the run
/// completes, every strategy acts, and the verdict machinery still
/// produces clean (finite, unquarantined) evidence.
#[test]
fn stacked_strategies_compose() {
    let det = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
    let mut config = scenario();
    config.attack_plan = Some(
        AttackPlan::new(77)
            .with(AttackKind::PowerRamp {
                ramp_db_per_s: 0.3,
                max_swing_db: 6.0,
            })
            .with(AttackKind::PowerDither { amplitude_db: 1.5 })
            .with(AttackKind::IdentityChurn {
                period_s: 6.0,
                duty: 0.7,
            })
            .with(AttackKind::Collusion { radios: 2 })
            .with(AttackKind::TraceReplay {
                victims: 1,
                delay_s: 2.0,
            }),
    );
    let outcome = run_scenario(&config, &[&det]);
    let stats = outcome.attack;
    assert!(stats.power_shaped > 0, "{stats:?}");
    assert!(stats.suppressed > 0, "{stats:?}");
    assert!(stats.reassigned > 0, "{stats:?}");
    assert!(stats.replayed > 0, "{stats:?}");
    assert!(!outcome.collected.is_empty());
    for input in &outcome.collected {
        let verdict = det.verdict(&input.series, input.estimated_density_per_km);
        assert!(
            verdict.quarantined().is_empty(),
            "attacks must not manufacture quarantines: {:?}",
            verdict.quarantined()
        );
        assert!(verdict.degradation().is_clean());
    }
}

/// Regression for the identity-churn evidence leak: a churned Sybil
/// pseudonym active only in short bursts of a window used to fall under
/// the plain `min_samples_per_series` floor and surface as
/// [`MissCause::NotCompared`] — the attacker escapes by never being
/// looked at. With a [`ChurnPolicy`], the collector admits the bursty
/// series at its reduced floor, so the same identity reaches the
/// comparator at the same detection boundary.
#[test]
fn churn_policy_converts_not_compared_misses_into_comparisons() {
    let mut config = scenario();
    config.attack_plan = Some(AttackPlan::new(1234).with(AttackKind::IdentityChurn {
        period_s: 5.0,
        duty: 0.6,
    }));
    let frozen_cfg = RuntimeConfig::from_scenario(&config, ThresholdPolicy::paper_simulation());
    let mut churny_cfg = frozen_cfg.clone();
    churny_cfg.churn = Some(ChurnPolicy);

    let frozen = run_scenario_streaming(&config, &frozen_cfg).expect("frozen run");
    let churny = run_scenario_streaming(&config, &churny_cfg).expect("churn-aware run");
    let truth = &frozen.sim.ground_truth;

    let mut converted = 0usize;
    for (frozen_stream, churny_stream) in frozen.streams.iter().zip(&churny.streams) {
        let frozen_reports: BTreeMap<u64, _> = frozen_stream
            .reports()
            .into_iter()
            .map(|r| (r.time_s.to_bits(), r))
            .collect();
        for report in churny_stream.reports() {
            let Some(frozen_report) = frozen_reports.get(&report.time_s.to_bits()) else {
                continue;
            };
            let compared: BTreeSet<u64> = report
                .verdict
                .audit_records()
                .iter()
                .flat_map(|r| [r.id_i, r.id_j])
                .collect();
            for &id in compared.iter().filter(|&&id| truth.is_illegitimate(id)) {
                let was_invisible = triage_misses(&frozen_report.verdict, &[id])
                    .iter()
                    .any(|m| m.cause == MissCause::NotCompared);
                if was_invisible {
                    converted += 1;
                }
            }
        }
    }
    assert!(
        converted > 0,
        "churn-aware collection must convert at least one NotCompared miss \
         into a comparison"
    );
}

/// Decodes one raw word into a valid attack strategy: the low bits pick
/// the kind, the high bits scale each parameter into its legal range —
/// so *every* word is a well-formed strategy and the search space still
/// covers all five kinds at arbitrary parameters.
fn kind_from_word(w: u64) -> AttackKind {
    let a = ((w >> 3) & 0xFFFF) as f64 / 65536.0; // [0, 1)
    let b = ((w >> 19) & 0xFFFF) as f64 / 65536.0; // [0, 1)
    match w % 5 {
        0 => AttackKind::PowerRamp {
            ramp_db_per_s: 0.01 + a * 2.0,
            max_swing_db: 0.5 + b * 19.0,
        },
        1 => AttackKind::PowerDither {
            amplitude_db: 0.1 + a * 6.0,
        },
        2 => AttackKind::IdentityChurn {
            period_s: 0.5 + a * 14.0,
            duty: 0.05 + b * 0.9,
        },
        3 => AttackKind::Collusion {
            radios: 2 + ((w >> 3) % 4) as u32,
        },
        _ => AttackKind::TraceReplay {
            victims: 1 + ((w >> 3) % 3) as u32,
            delay_s: 0.1 + a * 4.5,
        },
    }
}

/// A plan seeded by one raw word and stacking `0..5` more decoded
/// strategies.
fn arb_attack_plan(rng: &mut SplitMix64) -> AttackPlan {
    let kinds = rng.range_usize(0..5);
    (0..kinds).fold(AttackPlan::new(rng.next_u64()), |plan, _| {
        plan.with(kind_from_word(rng.next_u64()))
    })
}

/// Arbitrary valid attack plans — any seed, any stacking of strategies at
/// any in-range parameters — never panic the pipeline and never poison
/// the quarantine counters: physical-layer attacks shape real
/// transmissions, so everything observed stays finite and every
/// quarantine/degradation counter stays at zero.
#[test]
fn arbitrary_plans_neither_panic_nor_poison_quarantine() {
    // Each case is a full (small) simulator run; keep the count modest.
    for case in 0..12 {
        let plan = arb_attack_plan(&mut SplitMix64::seed_from_u64(case));
        let mut config = ScenarioConfig::builder()
            .density_per_km(8.0)
            .simulation_time_s(25.0)
            .observer_count(1)
            .witness_pool_size(4)
            .malicious_fraction(0.15)
            .seed(5)
            .collect_inputs(true)
            .build();
        config.attack_plan = Some(plan.clone());
        assert!(config.validate().is_ok(), "case {case}: {plan:?}");
        let det = VoiceprintDetector::new(ThresholdPolicy::paper_simulation());
        let outcome = run_scenario(&config, &[&det]);
        assert!(
            outcome.ingest.is_clean(),
            "case {case}: {:?}",
            outcome.ingest
        );
        for input in &outcome.collected {
            for (_, series) in &input.series {
                assert!(series.iter().all(|r| r.is_finite()), "case {case}");
            }
            let verdict = det.verdict(&input.series, input.estimated_density_per_km);
            assert!(verdict.quarantined().is_empty(), "case {case}");
            assert!(verdict.degradation().is_clean(), "case {case}");
        }
    }
}
