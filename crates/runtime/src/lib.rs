//! Streaming detection runtime for the Voiceprint pipeline.
//!
//! The paper's detector is batch-shaped: collect 20 s of `⟨ID, RSSI⟩`
//! tuples, then compare and confirm. A production service instead ingests
//! a beacon *stream* continuously, under load it does not control, on a
//! process that can crash. This crate wraps the batch phases
//! ([`voiceprint::Collector`] → [`voiceprint::compare_cancellable`] →
//! [`voiceprint::confirm`]) in a long-running sliding-window engine —
//! [`StreamingRuntime`] — that survives all three operational failure
//! modes:
//!
//! * **Overload** — beacons enter through a bounded [`queue::BeaconQueue`];
//!   when it fills, the oldest samples of the *densest* identities are
//!   shed first (a Sybil storm inflates exactly those), and every shed is
//!   tallied in [`vp_fault::DegradationCounters::samples_shed`].
//! * **Slow sweeps** — each comparison round runs under a
//!   [`config::DeadlinePolicy`] budget via a [`vp_par::CancelToken`]; an
//!   over-budget round returns a partial-but-flagged verdict instead of
//!   stalling the window cadence, and repeated misses narrow the DTW band
//!   (with hysteresis recovery once rounds fit the budget again).
//! * **Crashes** — [`StreamingRuntime::checkpoint`] serializes the whole
//!   window state to a versioned, checksummed snapshot
//!   ([`checkpoint::VERSION`]); a restarted process resumes mid-window
//!   with bit-identical future verdicts. Panics inside a round are
//!   isolated by a supervisor (`catch_unwind`), retried after at most two
//!   rounds of exponential backoff plus deterministic jitter, and a
//!   circuit breaker trips after 3 consecutive failures (a fixed
//!   schedule; see [`runtime`]).
//!
//! With no faults, no overload and no deadline pressure, the streaming
//! verdicts are **bit-identical** to the batch pipeline's — pinned by the
//! golden-scenario tests in `tests/streaming_runtime.rs`.
//!
//! [`scenario::run_scenario_streaming`] drives the runtime from the
//! simulator's beacon tap so the fault matrix (storms, burst loss, clock
//! skew) exercises the shedding, deadline and restart paths end-to-end.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod config;
pub(crate) mod obs;
pub mod queue;
pub mod runtime;
pub mod scenario;

pub use config::{DeadlinePolicy, DegradeConfig, RuntimeConfig};
pub use queue::{BeaconQueue, QueuedBeacon};
pub use runtime::{RoundOutcome, StreamingRuntime, WindowReport};
pub use scenario::{run_scenario_streaming, ObserverStream, StreamingOutcome};
pub use vp_fault::{DegradationCounters, VpError};
