//! **Voiceprint** — RSSI time-series based Sybil attack detection for
//! VANETs.
//!
//! Reproduction of *"Voiceprint: A Novel Sybil Attack Detection Method
//! Based on RSSI for VANETs"* (Yao, Xiao, Wu, Liu, Yu, Zhang, Zhou —
//! DSN 2017). The key insight: all identities fabricated by one malicious
//! radio share that radio's physical channel, so their RSSI time series at
//! any receiver have near-identical *shapes* — a vehicular "voiceprint".
//! Detection therefore needs no radio propagation model, no cooperation,
//! and no infrastructure.
//!
//! The detector runs in three phases (paper Section IV-C):
//!
//! 1. **Collection** ([`collector`]) — record `⟨ID, RSSI⟩` tuples from the
//!    control channel over an observation window.
//! 2. **Comparison** ([`comparator`]) — enhanced Z-score normalisation
//!    (Eq. 7) of each series, pairwise FastDTW distances, min–max
//!    normalisation of the distances (Eq. 8).
//! 3. **Confirmation** ([`confirm`]) — flag pair `(i, j)` when
//!    `D′(i,j) ≤ k·den + b` ([`threshold`], trained with LDA in
//!    [`training`]), then group flagged pairs into Sybil clusters.
//!
//! [`detector::VoiceprintDetector`] packages the phases as a
//! [`vp_sim::Detector`] so the simulator can score it, and
//! [`multi_period`] implements the paper's Section VI suggestion of
//! confirming suspects over several detection periods to cut false
//! positives. A line-by-line transliteration of the paper's Algorithm 1
//! lives in the repository's tests (`tests/algorithm_1.rs`), where it
//! checks the production pipeline.
//!
//! # Quickstart
//!
//! ```
//! use voiceprint::collector::Collector;
//! use voiceprint::comparator::{compare, ComparisonConfig};
//! use voiceprint::confirm::confirm;
//! use voiceprint::threshold::ThresholdPolicy;
//!
//! let mut collector = Collector::new(20.0);
//! // Two Sybil identities (same shape, offset by spoofed TX power) and
//! // one honest neighbour.
//! for k in 0..150 {
//!     let t = k as f64 * 0.1;
//!     let shape = (t * 1.7).sin() * 3.0;
//!     collector.record(101, t, -70.0 + shape);
//!     collector.record(102, t, -64.0 + shape + 0.01 * (k % 3) as f64);
//!     collector.record(7, t, -72.0 + (t * 0.9).cos() * 3.0);
//! }
//! let series = collector.series_at(15.0, 10);
//! let distances = compare(&series, &ComparisonConfig::default());
//! let verdict = confirm(&distances, 4.0, &ThresholdPolicy::Constant(0.01));
//! assert!(verdict.suspects().contains(&101));
//! assert!(verdict.suspects().contains(&102));
//! assert!(!verdict.suspects().contains(&7));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adaptive;
pub mod cache;
pub mod collector;
pub mod comparator;
pub mod confirm;
pub mod detector;
pub mod multi_period;
pub mod threshold;
pub(crate) mod trace;
pub mod training;
pub mod triage;

pub use adaptive::{
    AdaptiveConfig, AdaptiveSnapshot, AdaptiveThreshold, EvidenceReservoir, ReservoirSample,
    SampleLabel,
};
pub use cache::{CacheStats, ComparisonCache};
pub use collector::{ChurnPolicy, Collector};
pub use comparator::{
    compare, compare_cancellable, compare_cancellable_with_cache, compare_cancellable_with_threads,
    compare_sequential, compare_with_cache, ComparisonConfig, DistanceMeasure, PairwiseDistances,
    SweepCounters,
};
pub use confirm::{confirm, PairAudit, QuarantineReason, SybilVerdict};
pub use detector::VoiceprintDetector;
pub use multi_period::MultiPeriodDetector;
pub use threshold::ThresholdPolicy;
pub use triage::{triage_misses, MissCause, MissTriage};
pub use vp_classify::boundary::DecisionLine;
pub use vp_fault::{DegradationCounters, VpError};

/// Identity type shared with the simulator.
pub type IdentityId = vp_sim::IdentityId;
