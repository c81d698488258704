//! Deterministic city-wide verdict fusion.
//!
//! Each shard produces per-boundary [`voiceprint::SybilVerdict`]s from
//! its own vantage point. Fusion merges them by majority: at every
//! detection boundary, each observer that *evaluated* an identity (it
//! appears in the shard's pair-audit trail or suspect list) casts one
//! vote — guilty if the shard flagged it, innocent otherwise — and the
//! city flags the identity when the guilty votes are a strict majority
//! of the votes cast.
//!
//! Determinism: shards are sorted by `(cell, observer)` before any
//! tallying and every map in the pipeline is a `BTreeMap`, so the fused
//! output is bit-identical no matter which worker thread finished first.

use std::collections::{BTreeMap, BTreeSet};

use vp_runtime::WindowReport;
use vp_sim::IdentityId;

use crate::shard::ShardOutcome;

/// Verdict fusion: one observer, one vote. It has no settings; the type
/// names the fusion rule where a city configuration carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionConfig;

impl FusionConfig {
    /// Plain one-observer-one-vote fusion.
    pub fn majority() -> Self {
        FusionConfig
    }
}

/// Per-identity vote accounting at one fused boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityTally {
    /// The identity voted on.
    pub identity: IdentityId,
    /// Observers that flagged it.
    pub votes_for: u64,
    /// Observers that evaluated it (flagged or not), one vote each.
    pub weight_evaluated: u64,
    /// Whether the city flags it: `2 * votes_for > weight_evaluated`.
    pub flagged: bool,
}

/// The city-wide verdict at one detection boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedRound {
    /// Detection-boundary time, seconds.
    pub time_s: f64,
    /// Identities the city flags as Sybil, ascending.
    pub suspects: Vec<IdentityId>,
    /// Vote accounting for every evaluated identity, ascending by id.
    pub tally: Vec<IdentityTally>,
    /// Whether any contributing shard's verdict carried
    /// `degraded_confidence` — drift, deadline truncation or quarantine
    /// lowered at least one vote's evidentiary standard, so downstream
    /// consumers (revocation, rate-limiting) should treat the fused
    /// round as advisory rather than authoritative.
    pub degraded: bool,
}

/// Identities a shard evaluated in one window: everything its audit
/// trail compared plus everything it flagged (a deadline-truncated sweep
/// may flag without a surviving audit record).
fn evaluated_identities(report: &WindowReport) -> BTreeSet<IdentityId> {
    let mut ids = BTreeSet::new();
    for audit in report.verdict.audit_records() {
        ids.insert(audit.id_i);
        ids.insert(audit.id_j);
    }
    ids.extend(report.verdict.suspects().iter().copied());
    ids
}

/// Fuses per-shard window reports into one city verdict per boundary,
/// one vote per observer ([`FusionConfig`]).
///
/// Shards may be passed in any order — the function sorts internally by
/// `(cell, observer)` and keys boundaries through a `BTreeMap`, so the
/// result is bit-deterministic regardless of completion order. Boundary
/// times are grouped by exact bit pattern: shards run on one city clock,
/// so equal boundaries are bit-equal by construction.
pub fn fuse(shards: &[ShardOutcome], _majority: &FusionConfig) -> Vec<FusedRound> {
    let mut ordered: Vec<&ShardOutcome> = shards.iter().collect();
    ordered.sort_by_key(|s| (s.cell, s.observer));

    // Boundary times are non-negative finite (the runtime validates its
    // clock), so the IEEE-754 bit pattern orders identically to the value.
    let mut boundaries: BTreeMap<u64, Vec<&WindowReport>> = BTreeMap::new();
    for shard in ordered {
        for report in shard.reports() {
            boundaries
                .entry(report.time_s.to_bits())
                .or_default()
                .push(report);
        }
    }

    let mut fused = Vec::with_capacity(boundaries.len());
    for (time_bits, votes) in boundaries {
        let time_s = f64::from_bits(time_bits);
        // identity → (votes_for, weight_evaluated)
        let mut tally: BTreeMap<IdentityId, (u64, u64)> = BTreeMap::new();
        let mut degraded = false;
        for report in votes {
            degraded |= report.verdict.degraded_confidence();
            let flagged: BTreeSet<IdentityId> = report.verdict.suspects().iter().copied().collect();
            for id in evaluated_identities(report) {
                let entry = tally.entry(id).or_insert((0, 0));
                entry.1 += 1;
                if flagged.contains(&id) {
                    entry.0 += 1;
                }
            }
        }
        let tally: Vec<IdentityTally> = tally
            .into_iter()
            .map(|(identity, (votes_for, weight_evaluated))| IdentityTally {
                identity,
                votes_for,
                weight_evaluated,
                flagged: 2 * votes_for > weight_evaluated,
            })
            .collect();
        let suspects = tally
            .iter()
            .filter(|t| t.flagged)
            .map(|t| t.identity)
            .collect();
        fused.push(FusedRound {
            time_s,
            suspects,
            tally,
            degraded,
        });
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use voiceprint::ThresholdPolicy;
    use vp_fault::{Beacon, DegradationCounters};
    use vp_runtime::{RuntimeConfig, StreamingRuntime};

    /// Runs a real runtime over synthetic beacons so fusion tests vote on
    /// genuine `SybilVerdict`s: identities 101/102 form a Sybil pair in
    /// the `sybil` variant, and 103 is always a dissimilar honest
    /// bystander (the confirm layer never flags neighbourhoods of fewer
    /// than three identities).
    fn shard_with_sybils(observer: IdentityId, cell: u64, sybil: bool) -> ShardOutcome {
        let mut config = RuntimeConfig::paper_default(ThresholdPolicy::paper_simulation());
        config.min_samples_per_series = 20;
        let mut rt = StreamingRuntime::new(config).expect("valid config");
        let mut rounds = Vec::new();
        for k in 0..200u32 {
            let t = 0.1 * k as f64;
            rounds.extend(rt.advance_to(t));
            let base = -60.0 + (0.3 * k as f64).sin() * 6.0;
            rt.offer(t, Beacon::new(101, t, base));
            // Identity 102 mirrors 101's shape only in the Sybil variant.
            let second = if sybil {
                base + 0.4
            } else {
                -60.0 + (0.11 * k as f64).cos() * 9.0 + (k % 7) as f64
            };
            rt.offer(t, Beacon::new(102, t + 0.001, second));
            rt.offer(t, Beacon::new(103, t + 0.002, -75.0 + 0.05 * k as f64));
        }
        rounds.extend(rt.advance_to(25.0));
        ShardOutcome {
            observer,
            cell,
            rounds,
            counters: DegradationCounters::default(),
            final_degrade_level: 0,
            cache_stats: None,
            checkpoint: Vec::new(),
        }
    }

    #[test]
    fn majority_vote_flags_what_most_observers_flag() {
        let shards = vec![
            shard_with_sybils(1, 0, true),
            shard_with_sybils(2, 0, true),
            shard_with_sybils(3, 1, false),
        ];
        let fused = fuse(&shards, &FusionConfig::majority());
        assert!(!fused.is_empty());
        let round = &fused[0];
        // Two of three observers saw the Sybil pair; strict majority flags it.
        assert!(round.suspects.contains(&101) && round.suspects.contains(&102));
        let t = round.tally.iter().find(|t| t.identity == 101).unwrap();
        assert_eq!((t.votes_for, t.weight_evaluated), (2, 3));
    }

    #[test]
    fn split_vote_acquits() {
        let shards = vec![
            shard_with_sybils(1, 0, true),
            shard_with_sybils(2, 1, false),
        ];
        let fused = fuse(&shards, &FusionConfig::majority());
        // 1 guilty vote of 2 cast: 2*1 > 2 is false — acquitted.
        assert!(fused[0].suspects.is_empty());
    }

    #[test]
    fn fusion_is_invariant_under_shard_order() {
        let a = shard_with_sybils(1, 0, true);
        let b = shard_with_sybils(2, 0, false);
        let c = shard_with_sybils(3, 1, true);
        let config = FusionConfig::majority();
        let fwd = fuse(&[a.clone(), b.clone(), c.clone()], &config);
        let rev = fuse(&[c, b, a], &config);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn single_shard_fusion_preserves_its_verdicts() {
        let shard = shard_with_sybils(1, 0, true);
        let fused = fuse(std::slice::from_ref(&shard), &FusionConfig::majority());
        let reports = shard.reports();
        assert_eq!(fused.len(), reports.len());
        for (round, report) in fused.iter().zip(&reports) {
            assert_eq!(round.time_s.to_bits(), report.time_s.to_bits());
            assert_eq!(round.suspects, report.verdict.suspects());
        }
    }
}
