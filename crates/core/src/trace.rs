//! Observability hooks for the detection pipeline.
//!
//! The collector, comparator and confirmation code call these hooks
//! unconditionally; each one emits through `vp-obs`. With no sink
//! installed a hook is one relaxed atomic load, and no clock is read.
//! Events are derived from values the pipeline already computed and
//! never feed back into it, so verdicts are bit-identical with or without
//! a sink (pinned by the golden-digest tests).
//!
//! Event taxonomy is documented in DESIGN.md §12.

use std::time::Instant;

use vp_obs::{emit, is_active, Event, Histogram};

use crate::comparator::SweepCounters;
use crate::IdentityId;

/// Per-sweep aggregation of comparator instrumentation: the whole-sweep
/// wall clock and a histogram of per-pair kernel timings, recorded into
/// atomics so the parallel workers share one instance without locking.
/// Cascade counters (cache hits, triage rejections, prune hits) are
/// tallied unconditionally by the comparator itself and handed to
/// [`SweepStats::finish`], so one `compare.sweep` event is emitted per
/// sweep — never one per pair.
pub(crate) struct SweepStats {
    active: bool,
    start: Option<Instant>,
    pair_ns: Histogram,
}

impl SweepStats {
    pub(crate) fn new() -> Self {
        let active = is_active();
        SweepStats {
            active,
            // vp-lint: allow(wall-clock) — sink-gated sweep timing; events never feed verdicts (DESIGN.md §12)
            start: active.then(Instant::now),
            // 1 µs … ~260 ms geometric ladder: DTW pair kernels run in
            // the µs–ms range at paper-scale series lengths.
            pair_ns: Histogram::exponential(1_000, 4, 10),
        }
    }

    #[inline]
    pub(crate) fn pair_start(&self) -> Option<Instant> {
        if self.active {
            // vp-lint: allow(wall-clock) — sink-gated per-pair timing; never feeds verdicts
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn pair_end(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.pair_ns.record(ns);
        }
    }

    pub(crate) fn finish(&self, ids: usize, quarantined: usize, counters: &SweepCounters) {
        if !self.active {
            return;
        }
        let duration_ns = self
            .start
            .map(|t0| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        emit(|| {
            self.pair_ns.attach_to(
                Event::new("compare.sweep")
                    .with("ids", ids)
                    .with("pairs", counters.pairs)
                    .with("computed", counters.computed)
                    .with("cache_hit", counters.cache_hits)
                    .with("cache_miss", counters.cache_misses)
                    .with("triage_rejected", counters.triage_rejected)
                    .with("pruned_lb", counters.pruned_lb)
                    .with("pruned_abandon", counters.pruned_abandon)
                    .with("quarantined", quarantined)
                    .with("duration_ns", duration_ns),
            )
        });
    }
}

pub(crate) fn collector_rejected(identity: IdentityId, reason: &'static str) {
    emit(|| {
        Event::new("collector.quarantine")
            .with("identity", identity)
            .with("reason", reason)
    });
}

pub(crate) fn confirm_flagged(
    id_i: IdentityId,
    id_j: IdentityId,
    normalized: f64,
    raw: f64,
    threshold: f64,
    density: f64,
    degenerate: bool,
) {
    emit(|| {
        Event::new("confirm.flagged")
            .with("id_i", id_i)
            .with("id_j", id_j)
            .with("distance", normalized)
            .with("raw", raw)
            .with("threshold", threshold)
            .with("density", density)
            .with("degenerate_scale", degenerate)
    });
}

pub(crate) fn confirm_round(
    ids: usize,
    density: f64,
    threshold: f64,
    flagged: usize,
    suspects: usize,
    quarantined: usize,
) {
    emit(|| {
        Event::new("confirm.round")
            .with("ids", ids)
            .with("density", density)
            .with("threshold", threshold)
            .with("flagged", flagged)
            .with("suspects", suspects)
            .with("quarantined", quarantined)
    });
}
