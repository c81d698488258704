//! Round-lifecycle observability hooks.
//!
//! Same pattern as the core crate's `trace` module: the runtime calls
//! these hooks unconditionally, and each emits through `vp-obs`. With no
//! sink installed a hook is one relaxed atomic load and no clock is read,
//! and events never feed back into a verdict. Event taxonomy in
//! DESIGN.md §12.

use std::time::Instant;

use vp_obs::{emit, is_active, Event};

use crate::config::DeadlinePolicy;
use crate::runtime::RoundOutcome;

pub(crate) fn round_start() -> Option<Instant> {
    if is_active() {
        // vp-lint: allow(wall-clock) — sink-gated round timing; reports carry it as metadata only
        Some(Instant::now())
    } else {
        None
    }
}

/// One `runtime.round` event per detection boundary: what happened,
/// how deep the queue was, how much was drained/shed, and how much of
/// the deadline budget the boundary consumed (`duration_ns` spans the
/// drain *and* the supervised round).
#[allow(clippy::too_many_arguments)]
pub(crate) fn round_end(
    started: Option<Instant>,
    time_s: f64,
    outcome: &RoundOutcome,
    queue_depth: usize,
    drained: usize,
    shed_total: u64,
    degrade_level: u8,
    deadline: &DeadlinePolicy,
) {
    let Some(t0) = started else { return };
    let duration_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (tag, complete) = match outcome {
        RoundOutcome::Verdict(report) => ("verdict", report.complete),
        RoundOutcome::Skipped { .. } => ("skipped", false),
        RoundOutcome::Panicked { .. } => ("panicked", false),
        RoundOutcome::BackedOff { .. } => ("backed_off", false),
        RoundOutcome::CircuitOpen { .. } => ("circuit_open", false),
    };
    let (deadline_tag, budget_ns) = match deadline {
        DeadlinePolicy::Unbounded => ("unbounded", 0u64),
        DeadlinePolicy::WallClock(budget) => (
            "wall_clock",
            u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX),
        ),
        DeadlinePolicy::PairBudget(n) => ("pair_budget", *n),
    };
    emit(|| {
        Event::new("runtime.round")
            .with("time_s", time_s)
            .with("outcome", tag)
            .with("complete", complete)
            .with("queue_depth", queue_depth)
            .with("drained", drained)
            .with("shed_total", shed_total)
            .with("degrade_level", degrade_level)
            .with("deadline", deadline_tag)
            .with("budget", budget_ns)
            .with("duration_ns", duration_ns)
    });
}

/// Degradation-level transition (both directions); no event when the
/// level is unchanged.
pub(crate) fn degrade_transition(from: u8, to: u8) {
    if from != to {
        emit(|| {
            Event::new("runtime.degrade")
                .with("from", from)
                .with("to", to)
        });
    }
}

pub(crate) fn backoff(remaining_rounds: u32, failures: u32) {
    emit(|| {
        Event::new("runtime.backoff")
            .with("remaining_rounds", remaining_rounds)
            .with("failures", failures)
    });
}

pub(crate) fn circuit_open(failures: u32) {
    emit(|| Event::new("runtime.circuit_open").with("failures", failures));
}

pub(crate) fn checkpoint_save(bytes: usize) {
    emit(|| Event::new("runtime.checkpoint.save").with("bytes", bytes));
}

pub(crate) fn checkpoint_restore(bytes: usize, queued: usize) {
    emit(|| {
        Event::new("runtime.checkpoint.restore")
            .with("bytes", bytes)
            .with("queued", queued)
    });
}
