//! City observability hooks.
//!
//! Same pattern as `vp-runtime`'s obs module: unconditional call sites,
//! each emitting through `vp-obs`. The load-bearing hook is
//! [`shard_labels`]: it attaches a thread-local `observer`/`cell` label
//! scope on the thread running the shard, so *every* event the runtime
//! emits there — `runtime.round`, `compare.sweep`, checkpoint events —
//! carries the shard's coordinates without any change to the runtime's
//! own call sites. With no sink installed it attaches nothing.

use vp_obs::{emit, is_active, Event, ScopedLabels};
use vp_sim::IdentityId;

use crate::cell::CellId;
use crate::fusion::FusedRound;
use crate::shard::ShardOutcome;

pub(crate) fn shard_labels(observer: IdentityId, cell: CellId) -> Option<ScopedLabels> {
    if is_active() {
        Some(ScopedLabels::attach([
            ("observer", observer),
            ("cell", cell),
        ]))
    } else {
        None
    }
}

pub(crate) fn shard_done(outcome: &ShardOutcome) {
    emit(|| {
        Event::new("city.shard")
            .with("observer", outcome.observer)
            .with("cell", outcome.cell)
            .with("rounds", outcome.rounds.len())
            .with("reports", outcome.reports().len())
            .with("degrade_level", outcome.final_degrade_level)
            .with("shed", outcome.counters.samples_shed)
            .with("checkpoint_bytes", outcome.checkpoint.len())
    });
}

pub(crate) fn fused(rounds: &[FusedRound], shard_count: usize) {
    emit(|| {
        let suspects: usize = rounds.iter().map(|r| r.suspects.len()).sum();
        Event::new("city.fused")
            .with("shards", shard_count)
            .with("boundaries", rounds.len())
            .with("suspects", suspects)
    });
}
