//! City-scale sharded deployment of the Voiceprint streaming runtime.
//!
//! The paper evaluates one observer watching one 2 km highway segment. A
//! deployed VANET detector is a *fleet*: hundreds of roadside observers,
//! each responsible for a spatial cell of the city, each running its own
//! sliding-window detector over the beacons it actually hears. This crate
//! turns the single-observer [`vp_runtime::StreamingRuntime`] into that
//! fleet:
//!
//! * [`cell::CellGrid`] partitions the road geometry into equal-width
//!   spatial cells and maps observer positions to cell ids.
//! * [`shard`] runs one `StreamingRuntime` per observer, replaying that
//!   observer's in-memory feed. Shards share nothing, so [`city`] runs
//!   them on vp-par's scoped fork-join, up to `worker_threads` at a time.
//! * [`fusion`] merges the per-observer [`voiceprint::SybilVerdict`]s at
//!   each detection boundary into one city-wide verdict by majority
//!   vote, one vote per observer, bit-deterministically regardless of
//!   which shard finished first.
//! * [`snapshot::CitySnapshot`] composes every shard's versioned runtime
//!   checkpoint into a single restorable frame, so a crashed city
//!   process resumes every shard mid-window.
//!
//! The top-level driver is [`city::run_city`] (resume variant:
//! [`city::resume_city`]); [`city::run_scenario_city`] wires it to the
//! batch simulator's beacon tap. Determinism contract: for a fixed input
//! the fused output is bit-identical for *any* `worker_threads` setting
//! and any shard completion order — pinned by `tests/city_runtime.rs`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cell;
pub mod city;
pub mod fusion;
pub(crate) mod obs;
pub mod shard;
pub mod snapshot;

pub use cell::{CellGrid, CellId};
pub use city::{resume_city, run_city, run_scenario_city, CityConfig, CityOutcome};
pub use fusion::{fuse, FusedRound, FusionConfig, IdentityTally};
pub use shard::{ObserverFeed, ShardOutcome};
pub use snapshot::{CitySnapshot, ShardSnapshot};
