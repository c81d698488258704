//! City observability hooks.
//!
//! Same pattern as `vp-runtime`'s obs module: unconditional call sites,
//! each emitting through `vp-obs`. The load-bearing hook is
//! [`shard_labels`]: it attaches a thread-local `observer`/`cell` label
//! scope on the thread running the shard, so *every* event the runtime
//! emits there — `runtime.round`, `compare.sweep`, checkpoint events —
//! carries the shard's coordinates without any change to the runtime's
//! own call sites. The scope is attached whether or not a sink is
//! installed, once per shard rather than per event, so a sink installed
//! while the shard runs still receives labelled events.

use vp_obs::{emit, Event, ScopedLabels};
use vp_sim::IdentityId;

use crate::cell::CellId;
use crate::fusion::FusedRound;
use crate::shard::ShardOutcome;

pub(crate) fn shard_labels(observer: IdentityId, cell: CellId) -> ScopedLabels {
    ScopedLabels::attach([("observer", observer), ("cell", cell)])
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vp_obs::{FieldValue, MemorySink, ScopedSink};

    /// A sink installed after the shard attached its labels still gets
    /// labelled events: the scope does not depend on a sink at attach
    /// time. (Other tests' threads may emit into the sink meanwhile, so
    /// the probe event has a name of its own.)
    #[test]
    fn a_sink_installed_after_the_shard_starts_gets_labelled_events() {
        let labels = shard_labels(11, 5);
        let sink = Arc::new(MemorySink::new());
        let guard = ScopedSink::install(sink.clone());
        emit(|| Event::new("city.late_sink_probe"));
        drop(guard);
        drop(labels);
        let events = sink.events();
        let probes: Vec<_> = events
            .iter()
            .filter(|e| e.name == "city.late_sink_probe")
            .collect();
        assert_eq!(probes.len(), 1);
        assert_eq!(probes[0].field("observer"), Some(&FieldValue::U64(11)));
        assert_eq!(probes[0].field("cell"), Some(&FieldValue::U64(5)));
    }
}
