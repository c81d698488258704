//! Linear classifiers for Voiceprint's threshold training.
//!
//! The paper turns threshold selection into a two-class problem in the
//! (traffic density, normalised DTW distance) plane and uses **Linear
//! Discriminant Analysis** to find the decision line `D = k·den + b`
//! (Section IV-C / Figure 10). It also name-checks perceptrons, logistic
//! regression and SVMs as alternatives; this crate implements LDA plus two
//! of those alternatives so the classifier choice can be ablated:
//!
//! * [`lda`] — two-class LDA in arbitrary dimension (shared-covariance
//!   Gaussian classes; the Bayes-optimal linear rule under that model).
//! * [`logistic`] — logistic regression fitted by gradient descent.
//! * [`perceptron`] — the classic mistake-driven perceptron.
//! * [`dataset`] — labelled-sample container with train/test utilities.
//! * [`boundary`] — conversion of any linear rule into the paper's
//!   `(k, b)` line form plus classification metrics.
//! * [`incremental`] — deterministic bounded-step online nudging of a
//!   trained line under distribution shift (drift adaptation).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod boundary;
pub mod dataset;
pub mod incremental;
pub mod lda;
pub mod logistic;
pub mod perceptron;

pub use boundary::{DecisionLine, LinearRule};
pub use dataset::Dataset;
pub use incremental::{IncrementalBoundary, LabelledPoint};
pub use lda::LinearDiscriminant;
pub use logistic::LogisticRegression;
pub use perceptron::Perceptron;
