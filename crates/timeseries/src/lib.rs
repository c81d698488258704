//! Time-series similarity substrate for the Voiceprint reproduction.
//!
//! The Voiceprint detector treats each neighbour's RSSI samples as a
//! "vehicular speech" signal and compares signals pairwise. This crate
//! provides everything that comparison needs:
//!
//! * [`series`] — coarsening, the shrink step of FastDTW's pyramid.
//! * [`normalize`] — the paper's *enhanced Z-score* (`(x − μ) / 3σ`,
//!   Eq. 7) and the min–max normalisation of pairwise distances (Eq. 8).
//! * [`distance`] — Lp norms (Eq. 2), Euclidean, Manhattan, Chebyshev.
//! * [`dtw`] — Dynamic Time Warping with squared point costs (Eq. 3–6):
//!   one anti-diagonal (wavefront) dynamic program serves the exact,
//!   Sakoe–Chiba banded and FastDTW distances and their warp paths, and
//!   runs two banded pairs of one shape at once in SSE2 lanes.
//! * [`window`] — FastDTW's projection of a coarse search window to the
//!   next resolution, and the integer Sakoe–Chiba band edges, walked row
//!   by row.
//! * [`fastdtw`] — the linear-time FastDTW approximation
//!   (Salvador & Chan, reference [24] of the paper) used by the detector.
//! * [`scratch`] — reusable working memory ([`DtwScratch`]) that every
//!   distance kernel takes, so a sweep allocates once per worker thread.
//! * [`lowerbound`] — LB_Keogh-style lower bounds that let a comparison
//!   engine skip provably above-threshold DTW evaluations, read from
//!   per-series envelope tables that serve partners of any length.
//! * [`sketch`] — constant-cost piecewise envelope sketches whose
//!   admissible pair bound triages the N² sweep before LB_Keogh runs.
//!
//! # Example
//!
//! ```
//! use vp_timeseries::{dtw::dtw, fastdtw::fast_dtw, normalize::z_score_enhanced, DtwScratch};
//!
//! let a = [-70.0, -71.0, -69.5, -75.0, -74.0];
//! let b = [-67.0, -68.0, -66.5, -72.0, -71.0]; // same shape, +3 dB offset
//! let (na, nb) = (z_score_enhanced(&a), z_score_enhanced(&b));
//! let mut scratch = DtwScratch::new();
//! assert!(dtw(&na, &nb, &mut scratch) < 1e-9); // offset removed, identical voiceprints
//! assert!(fast_dtw(&na, &nb, 1, &mut scratch) < 1e-9);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod distance;
pub mod dtw;
pub mod fastdtw;
pub mod lowerbound;
pub mod normalize;
pub mod scratch;
pub mod series;
pub mod sketch;
pub mod window;

pub use dtw::{dtw, dtw_banded, dtw_banded_lanes, dtw_with_path, BandPlan, BoundedDistance};
pub use fastdtw::{fast_dtw, fast_dtw_with_path};
pub use lowerbound::{lb_keogh_envelope, KeoghEnvelope};
pub use normalize::{min_max_normalize, z_score_enhanced};
pub use scratch::DtwScratch;
pub use sketch::{sketch_lower_bound, SeriesSketch, SKETCH_SEGMENTS};
