//! Phase 2 — comparison.
//!
//! Every collected RSSI series is normalised with the enhanced Z-score
//! (Eq. 7), every pair is measured with FastDTW, and the resulting
//! distances are min–max normalised into `[0, 1]` (Eq. 8). The distance
//! measure and both normalisations are configurable so the ablation
//! experiments can quantify what each step buys.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use vp_fault::DegradationCounters;
use vp_par::{par_fill_with_cancel, par_fill_with_threads, CancelToken};
use vp_timeseries::distance::squared_euclidean;
use vp_timeseries::dtw::{dtw, dtw_banded, dtw_banded_lanes, BandPlan, BoundedDistance};
use vp_timeseries::fastdtw::fast_dtw;
use vp_timeseries::lowerbound::{KeoghEnvelope, KeoghRows};
use vp_timeseries::normalize::{min_max_normalize, z_score_enhanced};
use vp_timeseries::scratch::DtwScratch;
use vp_timeseries::sketch::{SeriesSketch, SketchPlan};

use crate::cache::{series_fingerprint, ComparisonCache};
use crate::trace;
use crate::IdentityId;

/// Which series-distance to use in the comparison phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistanceMeasure {
    /// FastDTW with the given expansion radius — the measure the paper's
    /// Algorithm 1 names (radius 1 ≈ 1% accuracy loss at `O(N)` cost).
    FastDtw {
        /// Window-expansion radius.
        radius: usize,
    },
    /// DTW constrained to a Sakoe–Chiba band whose half-width is
    /// `band_fraction · max(N, M)` samples around the length-rescaled
    /// diagonal — the reproduction's default.
    ///
    /// The rescaled diagonal is exactly the expected alignment between two
    /// series of one transmitter that lost different subsets of packets,
    /// so a narrow band (5%) tolerates packet-loss drift while *refusing*
    /// the large warps that let two unrelated "pass-by" RSSI humps align
    /// (the dominant false-similarity mode on a highway; see DESIGN.md).
    BandedDtw {
        /// Band half-width as a fraction of the longer series.
        band_fraction: f64,
    },
    /// Exact unconstrained `O(N²)` DTW (ablation).
    ExactDtw,
    /// Squared Euclidean on the first `min(N, M)` samples (ablation;
    /// lock-step matching breaks under packet loss, which is exactly what
    /// the ablation demonstrates).
    TruncatedEuclidean,
}

impl Default for DistanceMeasure {
    fn default() -> Self {
        DistanceMeasure::BandedDtw {
            band_fraction: 0.05,
        }
    }
}

/// Configuration of the comparison phase.
///
/// [`ComparisonConfig::default`] is the reproduction's *calibrated*
/// pipeline (banded DTW, per-step cost, no min–max) — the configuration
/// that reaches paper-level accuracy on this simulator.
/// [`ComparisonConfig::paper_strict`] is Algorithm 1 exactly as written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonConfig {
    /// Distance measure between normalised series.
    pub measure: DistanceMeasure,
    /// Apply the enhanced Z-score of Eq. 7 (disable only for ablation —
    /// a power-spoofing attacker then trivially evades detection).
    pub z_score_normalize: bool,
    /// Apply the min–max normalisation of Eq. 8 to the pairwise distances.
    ///
    /// Off by default: min–max rescales every window by its (outlier-
    /// driven) maximum, which makes one threshold mean different things in
    /// different windows. With `per_step_cost` the distances are already
    /// on a window-independent scale.
    pub min_max_normalize: bool,
    /// Divide each DTW distance by its warp-path length (approximated by
    /// `max(N, M)`). Removes the bias whereby short series pairs get
    /// small accumulated costs simply for having fewer cells.
    pub per_step_cost: bool,
    /// Series shorter than this are excluded from comparison.
    pub min_series_len: usize,
    /// Opt-in lower-bound pruning for [`DistanceMeasure::BandedDtw`].
    ///
    /// When set, pairs whose distance provably exceeds this threshold are
    /// not computed exactly: the engine first checks the cheap LB_Keogh
    /// lower bound, then runs the banded DP with early abandoning. A
    /// pruned pair's stored distance is a lower bound on its true distance
    /// that is itself strictly above the threshold, so any detector that
    /// classifies by `distance <= prune_threshold` decides identically to
    /// the unpruned engine. The value is in the same units as the reported
    /// distances (i.e. *after* the `per_step_cost` division when that is
    /// enabled) — use the detector's match threshold.
    ///
    /// Ignored for non-banded measures, and ignored when
    /// `min_max_normalize` is on (Eq. 8 rescales by the window maximum,
    /// which a pruned lower bound would distort for every pair).
    pub prune_threshold: Option<f64>,
    /// Reject pairs with a constant-cost envelope-sketch lower bound
    /// before LB_Keogh runs (DESIGN.md §14). Only active alongside an
    /// effective [`ComparisonConfig::prune_threshold`]; a rejected
    /// pair's stored distance is the sketch bound — admissible and
    /// strictly above the threshold, so classification by
    /// `distance <= prune_threshold` is unchanged, exactly like the
    /// LB_Keogh prune it short-circuits.
    pub sketch_triage: bool,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        ComparisonConfig {
            measure: DistanceMeasure::default(),
            z_score_normalize: true,
            min_max_normalize: false,
            per_step_cost: true,
            min_series_len: 100,
            prune_threshold: None,
            sketch_triage: true,
        }
    }
}

impl ComparisonConfig {
    /// The comparison phase exactly as the paper's Algorithm 1 writes it:
    /// FastDTW radius 1 on the raw accumulated cost, min–max normalised,
    /// no per-step normalisation, any series with at least 10 samples.
    pub fn paper_strict() -> Self {
        ComparisonConfig {
            measure: DistanceMeasure::FastDtw { radius: 1 },
            z_score_normalize: true,
            min_max_normalize: true,
            per_step_cost: false,
            min_series_len: 10,
            prune_threshold: None,
            sketch_triage: true,
        }
    }

    /// The pruning threshold if it is sound to apply under this
    /// configuration: pruning is only implemented for the banded measure
    /// and is disabled under min–max normalisation (see
    /// [`ComparisonConfig::prune_threshold`]).
    fn effective_prune_threshold(&self) -> Option<f64> {
        match self.measure {
            DistanceMeasure::BandedDtw { .. } if !self.min_max_normalize => self.prune_threshold,
            _ => None,
        }
    }

    /// FNV-1a fingerprint of every field that can change a *stored*
    /// pair distance, used as the cache-key configuration component.
    fn fingerprint(&self) -> u64 {
        let mut words = [0u64; 9];
        match self.measure {
            DistanceMeasure::FastDtw { radius } => {
                words[0] = 1;
                words[1] = radius as u64;
            }
            DistanceMeasure::BandedDtw { band_fraction } => {
                words[0] = 2;
                words[1] = band_fraction.to_bits();
            }
            DistanceMeasure::ExactDtw => words[0] = 3,
            DistanceMeasure::TruncatedEuclidean => words[0] = 4,
        }
        words[2] = u64::from(self.z_score_normalize);
        words[3] = u64::from(self.min_max_normalize);
        words[4] = u64::from(self.per_step_cost);
        words[5] = self.min_series_len as u64;
        // Presence flag and payload are separate words so `Some(0.0)`
        // cannot collide with `None`.
        words[6] = u64::from(self.prune_threshold.is_some());
        words[7] = self.prune_threshold.map_or(0, f64::to_bits);
        words[8] = u64::from(self.sketch_triage);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            hash = (hash ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Always-on counters of one comparison sweep, returned by the
/// cache-aware entry points and mirrored into the `compare.sweep`
/// observability event. All counts are deterministic for a given input,
/// configuration and cache state (the cascade's decisions are pure
/// per-pair functions, so scheduling cannot change them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCounters {
    /// Upper-triangle pairs in the sweep.
    pub pairs: u64,
    /// Pairs with a stored result (cache hits + kernel computations);
    /// below `pairs` only for cancelled sweeps.
    pub computed: u64,
    /// Pairs answered by the cross-window cache.
    pub cache_hits: u64,
    /// Pairs the cache could not answer (always `pairs` without one).
    pub cache_misses: u64,
    /// Pairs rejected by the envelope-sketch bound before LB_Keogh.
    pub triage_rejected: u64,
    /// Pairs resolved by the LB_Keogh lower bound alone.
    pub pruned_lb: u64,
    /// Pairs abandoned mid-DP by the row-minimum bound.
    pub pruned_abandon: u64,
}

/// Shared relaxed tally the parallel kernels write their cascade
/// decisions into; totals are order-independent, so the counters stay
/// deterministic under any scheduling.
#[derive(Default)]
struct KernelTally {
    triage_rejected: AtomicU64,
    pruned_lb: AtomicU64,
    pruned_abandon: AtomicU64,
}

/// The comparison phase's output: pairwise distances over the compared
/// identities, stored as an upper triangle.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseDistances {
    ids: Vec<IdentityId>,
    /// Upper-triangle (i < j) distances after optional min–max
    /// normalisation.
    normalized: Vec<f64>,
    /// Upper-triangle raw distances (before min–max).
    raw: Vec<f64>,
    /// Identities excluded before comparison because their series
    /// contained non-finite values, ascending.
    quarantined: Vec<IdentityId>,
    /// Pairs whose distance came out non-finite (and which confirmation
    /// must therefore skip).
    pairs_skipped: u64,
    /// Identities whose compared series was constant, ascending. Under
    /// Eq. 7 a constant series normalises to all zeros (σ = 0), so its
    /// distances carry no voiceprint shape information.
    degenerate_ids: Vec<IdentityId>,
    /// `true` when Eq. 8 ran over an all-equal finite distance window
    /// (`max == min`), mapping every finite distance to `0.0`.
    min_max_degenerate: bool,
}

impl PairwiseDistances {
    /// Identities that entered the comparison, ascending.
    pub fn ids(&self) -> &[IdentityId] {
        &self.ids
    }

    /// Identities quarantined before comparison (non-finite samples in
    /// their collected series), ascending. Quarantined identities have
    /// no distances; they are reported so the caller can treat "we could
    /// not compare this identity" differently from "this identity looks
    /// honest".
    pub fn quarantined_ids(&self) -> &[IdentityId] {
        &self.quarantined
    }

    /// Degradation tally for this comparison: identities quarantined and
    /// non-finite pairs that confirmation will skip. Ingest-level sample
    /// rejections live in the collector, not here; shed/deadline counters
    /// belong to the streaming runtime.
    pub fn degradation(&self) -> DegradationCounters {
        DegradationCounters {
            identities_quarantined: self.quarantined.len() as u64,
            pairs_skipped: self.pairs_skipped,
            ..DegradationCounters::default()
        }
    }

    /// Identities whose compared series was *constant*, ascending (only
    /// populated when Eq. 7 z-score normalisation is enabled). A constant
    /// series maps to all zeros under Eq. 7 — σ = 0 removes every scale —
    /// so any two constant series look identical regardless of their
    /// actual RSSI levels. The distances are still reported (the
    /// conservative, documented behaviour), but confirmation marks pairs
    /// touching these identities as `DegenerateScale` in the audit trail.
    pub fn degenerate_ids(&self) -> &[IdentityId] {
        &self.degenerate_ids
    }

    /// `true` when Eq. 8 min–max normalisation ran over an all-equal
    /// finite window: `max == min` maps every finite distance to `0.0`,
    /// so every pair satisfies `0 ≤ threshold` and will be flagged. This
    /// is the documented conservative choice for a window with no
    /// separability information; confirmation surfaces it per pair as
    /// `DegenerateScale` in the audit trail.
    pub fn is_min_max_degenerate(&self) -> bool {
        self.min_max_degenerate
    }

    /// Number of compared identities.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when fewer than two identities were compared.
    pub fn is_empty(&self) -> bool {
        self.ids.len() < 2
    }

    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.ids.len());
        // Row-major upper triangle offset.
        i * self.ids.len() - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Normalised distance between the `i`-th and `j`-th identity
    /// (`i != j`, order-free).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `i == j`.
    pub fn normalized_between(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "no self-distance");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.normalized[self.index(a, b)]
    }

    /// Raw (pre-min–max) distance between the `i`-th and `j`-th identity.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `i == j`.
    pub fn raw_between(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "no self-distance");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.raw[self.index(a, b)]
    }

    /// Iterates over `(identity_a, identity_b, normalized_distance)` for
    /// every unordered pair.
    // vp-lint: allow(panic-reachability) — i < j < ids.len() by loop construction
    pub fn iter(&self) -> impl Iterator<Item = (IdentityId, IdentityId, f64)> + '_ {
        let n = self.ids.len();
        (0..n).flat_map(move |i| {
            ((i + 1)..n).map(move |j| (self.ids[i], self.ids[j], self.normalized_between(i, j)))
        })
    }
}

/// Runs the comparison phase over collected series, fanning the pairwise
/// distance computations out over the available cores.
///
/// Series shorter than `config.min_series_len` are dropped; if fewer than
/// two remain, the result is empty. Input order does not matter; the
/// output identities are sorted.
///
/// The result is **bit-identical** to [`compare_sequential`] for every
/// configuration and thread count: each upper-triangle slot is written by
/// a pure function of its pair, so scheduling cannot affect values (see
/// DESIGN.md, "Parallel comparison engine"). The thread budget follows
/// `VP_NUM_THREADS` (see [`vp_par::max_threads`]).
pub fn compare(series: &[(IdentityId, Vec<f64>)], config: &ComparisonConfig) -> PairwiseDistances {
    compare_with_threads(series, config, vp_par::max_threads())
}

/// [`compare`] with a cross-window result cache: pairs whose prepared
/// series are unchanged since an earlier sweep (same content hash, same
/// configuration fingerprint) reuse their stored distance instead of
/// re-entering the kernels. The result is **bit-identical** to
/// [`compare`] for any cache state — a hit returns exactly the bits the
/// kernel stored — so sliding-window callers get sub-quadratic kernel
/// work per window for free. The second return value reports the
/// sweep's cascade counters (see [`SweepCounters`]).
pub fn compare_with_cache(
    series: &[(IdentityId, Vec<f64>)],
    config: &ComparisonConfig,
    cache: &mut ComparisonCache,
) -> (PairwiseDistances, SweepCounters) {
    let (distances, _, counters) =
        compare_impl(series, config, vp_par::max_threads(), None, Some(cache));
    (distances, counters)
}

/// [`compare_cancellable_with_threads`] with a cross-window result
/// cache (the streaming runtime's configuration): cache semantics as in
/// [`compare_with_cache`], cancellation semantics as in
/// [`compare_cancellable`]. Pairs left uncomputed by a cancellation are
/// never inserted into the cache.
pub fn compare_cancellable_with_cache(
    series: &[(IdentityId, Vec<f64>)],
    config: &ComparisonConfig,
    threads: usize,
    token: &CancelToken,
    cache: &mut ComparisonCache,
) -> (PairwiseDistances, bool, SweepCounters) {
    compare_impl(series, config, threads, Some(token), Some(cache))
}

/// Single-threaded reference form of [`compare`]: same results,
/// bit-for-bit, computed on the calling thread only.
pub fn compare_sequential(
    series: &[(IdentityId, Vec<f64>)],
    config: &ComparisonConfig,
) -> PairwiseDistances {
    compare_with_threads(series, config, 1)
}

/// Deadline-aware form of [`compare`]: workers stop claiming pairs once
/// `token` fires, and the second return value reports whether the sweep
/// ran to completion.
///
/// With a token that never fires the result is bit-identical to
/// [`compare`] and the flag is `true`. After a cancellation, uncomputed
/// pairs hold a NaN sentinel and are tallied in `pairs_skipped`, so the
/// degraded verdict is visibly flagged through [`DegradationCounters`];
/// a partial sweep also skips Eq. 8 min–max normalisation (the window
/// maximum is unknowable when pairs are missing), reporting raw
/// distances instead. Callers must treat a `false` flag as "partial,
/// degraded output" — never diff it bitwise against a full sweep.
pub fn compare_cancellable(
    series: &[(IdentityId, Vec<f64>)],
    config: &ComparisonConfig,
    token: &CancelToken,
) -> (PairwiseDistances, bool) {
    compare_cancellable_with_threads(series, config, vp_par::max_threads(), token)
}

/// [`compare_cancellable`] with an explicit thread budget (tests pin
/// `threads = 1` so the computed prefix is deterministic).
pub fn compare_cancellable_with_threads(
    series: &[(IdentityId, Vec<f64>)],
    config: &ComparisonConfig,
    threads: usize,
    token: &CancelToken,
) -> (PairwiseDistances, bool) {
    let (distances, complete, _) = compare_impl(series, config, threads, Some(token), None);
    (distances, complete)
}

fn compare_with_threads(
    series: &[(IdentityId, Vec<f64>)],
    config: &ComparisonConfig,
    threads: usize,
) -> PairwiseDistances {
    compare_impl(series, config, threads, None, None).0
}

// vp-lint: allow(panic-reachability) — all indices come from enumerate/loop positions over vectors built in this fn
fn compare_impl(
    series: &[(IdentityId, Vec<f64>)],
    config: &ComparisonConfig,
    threads: usize,
    token: Option<&CancelToken>,
    cache: Option<&mut ComparisonCache>,
) -> (PairwiseDistances, bool, SweepCounters) {
    let mut kept: Vec<(IdentityId, &[f64])> = series
        .iter()
        .filter(|(_, s)| s.len() >= config.min_series_len.max(1))
        .map(|(id, s)| (*id, s.as_slice()))
        .collect();
    // Quarantine identities whose series carry non-finite samples: their
    // distances would be meaningless (and, min–max normalised, used to
    // poison every other pair's distance too). Ingest filtering makes
    // this a no-op on the normal path — all-finite input takes the
    // `retain` fast path untouched, keeping results bit-identical.
    let mut quarantined: Vec<IdentityId> = Vec::new();
    kept.retain(|(id, s)| {
        let finite = s.iter().all(|v| v.is_finite());
        if !finite {
            quarantined.push(*id);
        }
        finite
    });
    kept.sort_by_key(|(id, _)| *id);
    quarantined.sort_unstable();
    // A constant series hits Eq. 7's σ = 0 edge (normalises to all
    // zeros). Detection is audit-only: the distances are computed and
    // reported exactly as before.
    let degenerate_ids: Vec<IdentityId> = if config.z_score_normalize {
        kept.iter()
            .filter(|(_, s)| s.windows(2).all(|w| w[0] == w[1]))
            .map(|(id, _)| *id)
            .collect()
    } else {
        Vec::new()
    };
    if kept.len() < 2 {
        return (
            PairwiseDistances {
                ids: kept.into_iter().map(|(id, _)| id).collect(),
                normalized: Vec::new(),
                raw: Vec::new(),
                quarantined,
                pairs_skipped: 0,
                degenerate_ids,
                min_max_degenerate: false,
            },
            true,
            SweepCounters::default(),
        );
    }

    // Without Eq. 7 the series go into the kernels as-is — borrow them
    // instead of copying.
    let prepared: Vec<Cow<'_, [f64]>> = kept
        .iter()
        .map(|(_, s)| {
            if config.z_score_normalize {
                Cow::Owned(z_score_enhanced(s))
            } else {
                Cow::Borrowed(*s)
            }
        })
        .collect();

    let n = prepared.len();
    let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i as u32, j as u32));
        }
    }
    // A cancellable sweep pre-fills with NaN so abandoned pairs are
    // visibly skipped; the uncancellable path keeps its historical zero
    // prefill (every slot is written anyway).
    let prefill = if token.is_some() { f64::NAN } else { 0.0 };
    let mut raw = vec![prefill; pairs.len()];

    // Sweep-level instrumentation (one relaxed load per hook when no
    // sink is installed).
    let stats = trace::SweepStats::new();
    // Always-on cascade tally the kernels report their per-pair
    // decisions into.
    let tally = KernelTally::default();

    // Sketches for the triage stage of the cascade: built once per
    // sweep, and only when an active prune threshold can consume them.
    let sketches: Option<Vec<SeriesSketch>> =
        (config.sketch_triage && config.effective_prune_threshold().is_some()).then(|| {
            prepared
                .iter()
                .map(|s| SeriesSketch::build(s.as_ref()))
                .collect()
        });
    let sketches = sketches.as_deref();

    // The measure is dispatched once, outside the pair loop; each arm
    // hands a monomorphised kernel to a branch-free fill. `run` is handed
    // either the full pair list or — with a cache — only the misses, over
    // a compacted slot array.
    let run = |slots: &mut [f64], todo: &[(u32, u32)]| -> usize {
        match config.measure {
            DistanceMeasure::FastDtw { radius } => fill_pairs(
                slots,
                todo,
                &prepared,
                config,
                threads,
                token,
                &stats,
                |a, b, s| fast_dtw(a, b, radius, s),
            ),
            DistanceMeasure::BandedDtw { band_fraction } => {
                // LB_Keogh's envelope tables: built once per sweep, like
                // the sketches, for every series and radius.
                let envelopes;
                let cascade = match config.effective_prune_threshold() {
                    Some(threshold) => {
                        envelopes = SweepEnvelopes::build(&prepared, band_fraction);
                        Some(Cascade {
                            threshold,
                            sketches,
                            envelopes: &envelopes,
                            tally: &tally,
                        })
                    }
                    None => None,
                };
                fill_banded(
                    slots,
                    todo,
                    &prepared,
                    band_fraction,
                    config.per_step_cost,
                    threads,
                    token,
                    &stats,
                    cascade.as_ref(),
                )
            }
            DistanceMeasure::ExactDtw => {
                fill_pairs(slots, todo, &prepared, config, threads, token, &stats, dtw)
            }
            DistanceMeasure::TruncatedEuclidean => fill_pairs(
                slots,
                todo,
                &prepared,
                config,
                threads,
                token,
                &stats,
                |a, b, _| {
                    let m = a.len().min(b.len());
                    squared_euclidean(&a[..m], &b[..m])
                },
            ),
        }
    };

    let mut counters = SweepCounters {
        pairs: pairs.len() as u64,
        ..SweepCounters::default()
    };
    let completed = match cache {
        Some(cache) => {
            // Stage 0 of the cascade: the cross-window cache. Probes run
            // sequentially (they are a hash lookup, far cheaper than any
            // kernel); only the misses fan out to the workers.
            let cfg_hash = config.fingerprint();
            let hashes: Vec<u64> = prepared
                .iter()
                .map(|s| series_fingerprint(s.as_ref()))
                .collect();
            cache.begin_sweep();
            let mut missing_slots: Vec<usize> = Vec::new();
            for (k, &(i, j)) in pairs.iter().enumerate() {
                let key = (cfg_hash, hashes[i as usize], hashes[j as usize]);
                match cache.probe(key) {
                    Some(v) => {
                        raw[k] = v;
                        counters.cache_hits += 1;
                    }
                    None => {
                        missing_slots.push(k);
                        counters.cache_misses += 1;
                    }
                }
            }
            let missing_pairs: Vec<(u32, u32)> = missing_slots.iter().map(|&k| pairs[k]).collect();
            let mut missing_raw = vec![prefill; missing_pairs.len()];
            let computed = run(&mut missing_raw, &missing_pairs);
            for (&k, &v) in missing_slots.iter().zip(missing_raw.iter()) {
                raw[k] = v;
                // NaN covers both "cancelled before computation" and a
                // legitimately NaN distance; neither is cached, so both
                // recompute (identically) on the next window.
                if !v.is_nan() {
                    let (i, j) = pairs[k];
                    cache.insert((cfg_hash, hashes[i as usize], hashes[j as usize]), v);
                }
            }
            cache.end_sweep();
            counters.cache_hits as usize + computed
        }
        None => run(&mut raw, &pairs),
    };
    let complete = completed == pairs.len();
    counters.computed = completed as u64;
    counters.triage_rejected = tally.triage_rejected.load(Ordering::Relaxed);
    counters.pruned_lb = tally.pruned_lb.load(Ordering::Relaxed);
    counters.pruned_abandon = tally.pruned_abandon.load(Ordering::Relaxed);
    stats.finish(n, quarantined.len(), &counters);

    let normalized = if config.min_max_normalize && complete {
        min_max_normalize(&raw)
    } else {
        // Partial sweeps skip Eq. 8: the window maximum is unknowable
        // with pairs missing, and one NaN sentinel would poison every
        // normalised distance.
        raw.clone()
    };
    // Finite input series can still overflow to a non-finite distance
    // (e.g. z-score on values near f64::MAX); count those pairs — and
    // any NaN sentinels a cancelled sweep left behind — so the verdict
    // reports the skip instead of silently ignoring it.
    let pairs_skipped = normalized.iter().filter(|d| !d.is_finite()).count() as u64;
    // Eq. 8's `max == min` edge maps every finite distance to 0.0 — the
    // documented conservative behaviour. Record the fact (audit-only) by
    // recomputing the extrema the same way `min_max_normalize` does:
    // over the finite values only.
    let min_max_degenerate = if config.min_max_normalize && complete {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &raw {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        lo.is_finite() && lo == hi
    } else {
        false
    };
    (
        PairwiseDistances {
            ids: kept.into_iter().map(|(id, _)| id).collect(),
            normalized,
            raw,
            quarantined,
            pairs_skipped,
            degenerate_ids,
            min_max_degenerate,
        },
        complete,
        counters,
    )
}

/// Every series' LB_Keogh envelope tables at every band radius the
/// sweep's pairs use it with, as the second series `b` of `(a, b)`.
///
/// A pair's radius depends on its longer series, so series `j` needs one
/// table per distinct radius among its pairs `(i, j)`, `i < j` — one or
/// two in a round of similar window lengths. Each table serves every
/// partner length (see `vp_timeseries::lowerbound`), so a pair's bound is
/// one read-and-accumulate pass.
struct SweepEnvelopes {
    /// Per series, its tables (ascending radius).
    tables: Vec<Vec<KeoghEnvelope>>,
}

impl SweepEnvelopes {
    // vp-lint: allow(panic-reachability) — i < j < prepared.len() by loop construction
    fn build(prepared: &[Cow<'_, [f64]>], band_fraction: f64) -> Self {
        let tables = prepared
            .iter()
            .enumerate()
            .map(|(j, b)| {
                let mut radii: Vec<usize> = prepared[..j]
                    .iter()
                    .map(|a| band_width(a.len().max(b.len()), band_fraction))
                    .collect();
                radii.sort_unstable();
                radii.dedup();
                radii
                    .into_iter()
                    .map(|radius| KeoghEnvelope::build(b, radius))
                    .collect()
            })
            .collect();
        SweepEnvelopes { tables }
    }

    /// Series `j`'s tables at `radius`, which [`SweepEnvelopes::build`]
    /// made for every pair `(i, j)` of the sweep.
    // vp-lint: allow(panic-reachability) — j indexes a prepared series; build covered every (j, radius) a pair uses
    fn get(&self, j: usize, radius: usize) -> &KeoghEnvelope {
        let tables = &self.tables[j];
        &tables[tables.partition_point(|t| t.radius() < radius)]
    }
}

/// Sakoe–Chiba half-width for a pair whose longer series has `max_len`
/// samples (the per-pair part of the band bookkeeping; the fraction is
/// fixed per call).
#[inline]
fn band_width(max_len: usize, band_fraction: f64) -> usize {
    ((max_len as f64 * band_fraction).ceil() as usize).max(3)
}

/// The pruned arm of the banded sweep: what the cascade reads besides a
/// pair's two series.
struct Cascade<'s> {
    /// The prune threshold, in reported-distance units.
    threshold: f64,
    /// Per series, its triage sketch, when sketch triage is on.
    sketches: Option<&'s [SeriesSketch]>,
    /// Per series, its LB_Keogh envelope tables.
    envelopes: &'s SweepEnvelopes,
    /// Where the cascade's decisions are counted.
    tally: &'s KernelTally,
}

/// The cascade's bound geometry for one band shape, built once per shape
/// and worker: the sketch bound's plan (when triage is on) and LB_Keogh's
/// row table.
struct BoundsPlan {
    sketch: Option<SketchPlan>,
    rows: KeoghRows,
}

impl Cascade<'_> {
    fn plan(&self, n: usize, m: usize, band: usize) -> BoundsPlan {
        BoundsPlan {
            sketch: self.sketches.map(|_| SketchPlan::new(n, m, band)),
            rows: KeoghRows::new(n, m),
        }
    }

    /// Pair `(i, j)` through the cascade, in raw-cost units: the sketch
    /// bound, then LB_Keogh, then the DP abandoning above the threshold.
    /// A pair stops at the first stage whose bound exceeds the threshold
    /// and stores that bound.
    #[allow(clippy::too_many_arguments)]
    fn pair(
        &self,
        (i, j): (u32, u32),
        a: &[f64],
        b: &[f64],
        band: usize,
        per_step: bool,
        plan: &BoundsPlan,
        scratch: &mut DtwScratch,
    ) -> f64 {
        let max_len = a.len().max(b.len());
        // The threshold is in reported-distance units; undo the per-step
        // division for the raw-cost kernels.
        let t_raw = if per_step {
            self.threshold * max_len as f64
        } else {
            self.threshold
        };
        let (i, j) = (i as usize, j as usize);
        // Stage 1: sketch triage.
        if let (Some(sketches), Some(sketch)) = (self.sketches, &plan.sketch) {
            let slb = sketch.lower_bound(&sketches[i], &sketches[j]);
            if slb > t_raw {
                self.tally.triage_rejected.fetch_add(1, Ordering::Relaxed);
                return slb;
            }
        }
        // Stage 2: LB_Keogh, one pass over `a` reading `b`'s envelope
        // tables.
        let lb = plan.rows.lower_bound(a, self.envelopes.get(j, band));
        if lb > t_raw {
            self.tally.pruned_lb.fetch_add(1, Ordering::Relaxed);
            return lb;
        }
        // Stage 3: banded DP with early abandon.
        match dtw_banded(a, b, band, Some(t_raw), scratch) {
            BoundedDistance::Exact(v) => v,
            BoundedDistance::AboveThreshold(v) => {
                self.tally.pruned_abandon.fetch_add(1, Ordering::Relaxed);
                v
            }
        }
    }
}

/// One kernel call of the banded sweep ([`fill_banded`]), naming its pairs
/// by their index in the sweep's pair list.
#[derive(Debug, Clone, Copy)]
enum BandJob {
    /// Two pairs of one band shape, run in the two lanes of
    /// [`dtw_banded_lanes`].
    Lanes([usize; 2]),
    /// One pair on its own: through the cascade, or through [`dtw_banded`]
    /// as the odd one out of its shape or a pair touching a series that is
    /// non-finite after Eq. 7.
    Single(usize),
}

impl BandJob {
    fn pairs(&self) -> &[usize] {
        match self {
            BandJob::Lanes(pairs) => pairs,
            BandJob::Single(k) => std::slice::from_ref(k),
        }
    }
}

/// One worker of the banded sweep: its DP scratch, and the plan of the
/// band shape `(N, M)` its last job of each arm was on.
#[derive(Default)]
struct BandWorker {
    scratch: DtwScratch,
    /// The lane arm's anti-diagonals.
    lanes: Option<((usize, usize), BandPlan)>,
    /// The cascade's bound geometry.
    bounds: Option<((usize, usize), BoundsPlan)>,
}

/// The plan of `shape` in `slot`: kept if the last one was of that shape,
/// built otherwise.
fn kept_plan<P>(
    slot: &mut Option<((usize, usize), P)>,
    shape: (usize, usize),
    build: impl FnOnce() -> P,
) -> &P {
    if slot.as_ref().is_some_and(|(kept, _)| *kept != shape) {
        *slot = None;
    }
    &slot.get_or_insert_with(|| (shape, build())).1
}

/// The banded sweep, both arms of [`DistanceMeasure::BandedDtw`]: fills
/// `raw` like [`fill_pairs`] would with the banded kernel — or, with a
/// `cascade`, with the pruned per-pair cascade — with the same bits, and
/// returns the number of pairs computed.
///
/// Both arms group their pairs by band shape `(N, M)` — the radius
/// follows from the longer length — with a sort on `(N, M, pair index)`,
/// so the grouping is deterministic and a group keeps pair order. A
/// worker builds a shape's plan when the first job of that shape reaches
/// it and keeps it for the jobs that follow: the jobs are in shape order,
/// so one worker builds each plan once, and a second rebuilds one only
/// where a block of jobs starts mid-shape.
///
/// * **No threshold.** Same-shape pairs run two at a time through
///   [`dtw_banded_lanes`] over the shape's [`BandPlan`], so one SSE2
///   operation advances both and the per-anti-diagonal work is paid once
///   per two pairs; an odd pair out runs alone through [`dtw_banded`]. The
///   lanes' min is a plain comparison, which keeps `f64::min`'s bits only
///   over finite samples, so the prepared series are checked once per
///   sweep (Eq. 7 can overflow finite input) and every pair touching a
///   non-finite one runs alone.
/// * **With a threshold.** Every pair runs alone through the cascade
///   ([`Cascade::pair`]), whose sketch bound and LB_Keogh read the shape's
///   [`BoundsPlan`] instead of walking the band per pair.
///
/// An item budget ([`CancelToken::after_items`]) is claimed up front, one
/// item per pair in index order, and only the claimed prefix is grouped
/// and computed, so the budget still computes exactly pairs `0..n`, and
/// the sweep fans out over `threads` under it. Any other token is
/// consulted before each job. The rest of the slots keep the caller's
/// prefill.
#[allow(clippy::too_many_arguments)]
// vp-lint: allow(panic-reachability) — pair indices were built over todo's range, and todo's over prepared's, in this fn and its caller
fn fill_banded(
    raw: &mut [f64],
    todo: &[(u32, u32)],
    prepared: &[Cow<'_, [f64]>],
    band_fraction: f64,
    per_step: bool,
    threads: usize,
    token: Option<&CancelToken>,
    stats: &trace::SweepStats,
    cascade: Option<&Cascade<'_>>,
) -> usize {
    let (todo, token) = match token {
        Some(t) if t.has_item_budget() => {
            let claimed = todo.iter().take_while(|_| !t.should_stop()).count();
            (&todo[..claimed], None)
        }
        other => (todo, other),
    };
    let series = |k: usize| {
        let (i, j) = todo[k];
        (prepared[i as usize].as_ref(), prepared[j as usize].as_ref())
    };
    let shape = |k: usize| {
        let (a, b) = series(k);
        (a.len(), b.len())
    };
    // The lanes need finite series; the cascade's kernels take any.
    let finite: Vec<bool> = prepared
        .iter()
        .map(|s| cascade.is_some() || s.iter().all(|v| v.is_finite()))
        .collect();
    let mut order = Vec::with_capacity(todo.len());
    let mut fallback = Vec::new();
    for (k, &(i, j)) in todo.iter().enumerate() {
        if finite[i as usize] && finite[j as usize] {
            order.push((shape(k), k));
        } else {
            fallback.push(BandJob::Single(k));
        }
    }
    // Pair indices are distinct, so this order is total.
    order.sort_unstable();
    let mut jobs = Vec::with_capacity(order.len() + fallback.len());
    for group in order.chunk_by(|p, q| p.0 == q.0) {
        if cascade.is_some() {
            jobs.extend(group.iter().map(|&(_, k)| BandJob::Single(k)));
            continue;
        }
        let two = group.chunks_exact(2);
        jobs.extend(two.remainder().iter().map(|&(_, k)| BandJob::Single(k)));
        jobs.extend(two.map(|p| BandJob::Lanes([p[0].1, p[1].1])));
    }
    jobs.extend(fallback);

    let mut done: Vec<Option<[f64; 2]>> = vec![None; jobs.len()];
    let item = |q: usize, slot: &mut Option<[f64; 2]>, worker: &mut BandWorker| {
        let started = stats.pair_start();
        let job = jobs[q];
        *slot = Some(match (job, cascade) {
            (BandJob::Lanes([k0, k1]), _) => {
                let ((x0, y0), (x1, y1)) = (series(k0), series(k1));
                let (n, m) = shape(k0);
                let plan = kept_plan(&mut worker.lanes, (n, m), || {
                    BandPlan::new(n, m, band_width(n.max(m), band_fraction))
                });
                dtw_banded_lanes(plan, [x0, x1], [y0, y1], &mut worker.scratch)
            }
            (BandJob::Single(k), None) => {
                let (a, b) = series(k);
                let band = band_width(a.len().max(b.len()), band_fraction);
                [dtw_banded(a, b, band, None, &mut worker.scratch).value(); 2]
            }
            (BandJob::Single(k), Some(cascade)) => {
                let (a, b) = series(k);
                let (n, m) = shape(k);
                let band = band_width(n.max(m), band_fraction);
                let plan = kept_plan(&mut worker.bounds, (n, m), || cascade.plan(n, m, band));
                let d = cascade.pair(todo[k], a, b, band, per_step, plan, &mut worker.scratch);
                [d; 2]
            }
        });
        stats.pair_end(started, job.pairs().len());
    };
    match token {
        None => par_fill_with_threads(&mut done, threads, BandWorker::default, item),
        Some(token) => {
            par_fill_with_cancel(&mut done, threads, token, BandWorker::default, item);
        }
    }
    let mut computed = 0;
    for (job, value) in jobs.iter().zip(&done) {
        let Some(value) = value else { continue };
        for (&k, &d) in job.pairs().iter().zip(value) {
            let (a, b) = series(k);
            let max_len = a.len().max(b.len());
            raw[k] = if per_step { d / max_len as f64 } else { d };
            computed += 1;
        }
    }
    computed
}

/// Fills the upper-triangle `raw` slots by evaluating `kernel` on every
/// pair, in parallel over `threads` workers with one [`DtwScratch`] per
/// worker: the sweep of every measure but the banded one. Slot `k` depends
/// only on pair `k`, so results are bit-identical to the `threads == 1`
/// sequential loop. With a cancellation token the workers stop claiming
/// pairs once it fires; the return value is the number of pairs actually
/// computed (always `pairs.len()` without one).
#[allow(clippy::too_many_arguments)]
// vp-lint: allow(panic-reachability) — pair indices were built over prepared's range; k is bounded by the caller's split
fn fill_pairs<K>(
    raw: &mut [f64],
    pairs: &[(u32, u32)],
    prepared: &[Cow<'_, [f64]>],
    config: &ComparisonConfig,
    threads: usize,
    token: Option<&CancelToken>,
    stats: &trace::SweepStats,
    kernel: K,
) -> usize
where
    K: Fn(&[f64], &[f64], &mut DtwScratch) -> f64 + Sync,
{
    let per_step = config.per_step_cost;
    let item = |k: usize, slot: &mut f64, scratch: &mut DtwScratch| {
        let started = stats.pair_start();
        let (i, j) = pairs[k];
        let a = prepared[i as usize].as_ref();
        let b = prepared[j as usize].as_ref();
        let mut d = kernel(a, b, scratch);
        if per_step {
            d /= a.len().max(b.len()) as f64;
        }
        *slot = d;
        stats.pair_end(started, 1);
    };
    match token {
        None => {
            par_fill_with_threads(raw, threads, DtwScratch::new, item);
            pairs.len()
        }
        Some(token) => par_fill_with_cancel(raw, threads, token, DtwScratch::new, item),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three Sybil-like series (same shape, different offsets) plus two
    /// distinct honest series.
    fn synthetic() -> Vec<(IdentityId, Vec<f64>)> {
        let shape: Vec<f64> = (0..120).map(|k| (k as f64 * 0.17).sin() * 4.0).collect();
        let honest1: Vec<f64> = (0..120)
            .map(|k| (k as f64 * 0.05).cos() * 4.0 - 75.0)
            .collect();
        let honest2: Vec<f64> = (0..118)
            .map(|k| ((k as f64 * 0.11).sin() + (k as f64 * 0.029).cos()) * 3.0 - 80.0)
            .collect();
        vec![
            (100, shape.iter().map(|v| v - 70.0).collect()),
            (101, shape.iter().map(|v| v - 64.0).collect()),
            (102, shape.iter().take(114).map(|v| v - 76.0).collect()),
            (1, honest1),
            (2, honest2),
        ]
    }

    #[test]
    fn sybil_pairs_have_smallest_distances() {
        let pd = compare(&synthetic(), &ComparisonConfig::default());
        assert_eq!(pd.ids(), &[1, 2, 100, 101, 102]);
        // Indices: 1→0, 2→1, 100→2, 101→3, 102→4.
        let sybil_pairs = [(2, 3), (2, 4), (3, 4)];
        let max_sybil = sybil_pairs
            .iter()
            .map(|&(i, j)| pd.normalized_between(i, j))
            .fold(0.0, f64::max);
        let min_other = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .filter(|p| !sybil_pairs.contains(p))
            .map(|(i, j)| pd.normalized_between(i, j))
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_sybil < min_other / 3.0,
            "sybil max {max_sybil} vs other min {min_other}"
        );
    }

    #[test]
    fn normalized_distances_lie_in_unit_interval() {
        // Min–max normalisation is part of the paper-strict pipeline.
        let pd = compare(&synthetic(), &ComparisonConfig::paper_strict());
        let mut saw_zero = false;
        let mut saw_one = false;
        for (_, _, d) in pd.iter() {
            assert!((0.0..=1.0).contains(&d));
            saw_zero |= d == 0.0;
            saw_one |= d == 1.0;
        }
        assert!(saw_zero && saw_one, "min–max must hit both endpoints");
    }

    #[test]
    fn power_spoofing_defeated_only_with_z_score() {
        let series = synthetic();
        let with = compare(&series, &ComparisonConfig::default());
        let cfg = ComparisonConfig {
            z_score_normalize: false,
            ..ComparisonConfig::default()
        };
        let without = compare(&series, &cfg);
        // With normalisation the offset Sybil pair (100, 101) is nearly
        // identical; without it the 6 dB offset dominates.
        let d_with = with.raw_between(2, 3);
        let d_without = without.raw_between(2, 3);
        assert!(d_with < 0.01, "normalized sybil distance {d_with}");
        assert!(d_without > 5.0, "raw sybil distance {d_without}");
    }

    #[test]
    fn short_series_are_dropped() {
        let mut series = synthetic();
        series.push((55, vec![-70.0; 5]));
        let pd = compare(&series, &ComparisonConfig::default());
        assert!(!pd.ids().contains(&55));
    }

    #[test]
    fn degenerate_inputs() {
        let empty = compare(&[], &ComparisonConfig::default());
        assert!(empty.is_empty());
        let single = compare(&[(1, vec![-70.0; 120])], &ComparisonConfig::default());
        assert!(single.is_empty());
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn symmetric_access() {
        let pd = compare(&synthetic(), &ComparisonConfig::default());
        assert_eq!(pd.normalized_between(0, 3), pd.normalized_between(3, 0));
        assert_eq!(pd.raw_between(1, 4), pd.raw_between(4, 1));
    }

    #[test]
    fn measures_agree_on_clean_equal_length_series() {
        let series: Vec<(IdentityId, Vec<f64>)> = vec![
            (1, (0..100).map(|k| (k as f64 * 0.2).sin() - 70.0).collect()),
            (2, (0..100).map(|k| (k as f64 * 0.2).sin() - 60.0).collect()),
            (
                3,
                (0..100).map(|k| (k as f64 * 0.07).cos() - 75.0).collect(),
            ),
        ];
        for measure in [
            DistanceMeasure::FastDtw { radius: 1 },
            DistanceMeasure::ExactDtw,
            DistanceMeasure::TruncatedEuclidean,
        ] {
            let cfg = ComparisonConfig {
                measure,
                ..ComparisonConfig::default()
            };
            let pd = compare(&series, &cfg);
            // Pair (1,2) is the same shape; pair with 3 is not.
            assert!(pd.raw_between(0, 1) < pd.raw_between(0, 2), "{measure:?}");
        }
    }

    #[test]
    fn iter_yields_all_pairs() {
        let pd = compare(&synthetic(), &ComparisonConfig::default());
        assert_eq!(pd.iter().count(), 10);
        for (a, b, _) in pd.iter() {
            assert!(a < b);
        }
    }

    /// A larger population exercising the parallel fan-out (24 identities
    /// → 276 pairs, past the inline-execution threshold).
    fn population(n_ids: usize) -> Vec<(IdentityId, Vec<f64>)> {
        (0..n_ids)
            .map(|v| {
                let len = 110 + (v * 7) % 30;
                let series = (0..len)
                    .map(|k| {
                        let t = k as f64 * 0.1;
                        (t * (1.0 + v as f64 * 0.13)).sin() * 4.0 - 70.0 - v as f64
                    })
                    .collect();
                (v as IdentityId, series)
            })
            .collect()
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let series = population(24);
        for config in [
            ComparisonConfig::default(),
            ComparisonConfig::paper_strict(),
            ComparisonConfig {
                measure: DistanceMeasure::ExactDtw,
                z_score_normalize: false,
                ..ComparisonConfig::default()
            },
            ComparisonConfig {
                prune_threshold: Some(0.05),
                ..ComparisonConfig::default()
            },
        ] {
            let par = compare(&series, &config);
            let seq = compare_sequential(&series, &config);
            assert_eq!(par.ids(), seq.ids());
            for i in 0..par.len() {
                for j in (i + 1)..par.len() {
                    assert_eq!(
                        par.raw_between(i, j).to_bits(),
                        seq.raw_between(i, j).to_bits(),
                        "raw mismatch at ({i},{j}) for {config:?}"
                    );
                    assert_eq!(
                        par.normalized_between(i, j).to_bits(),
                        seq.normalized_between(i, j).to_bits(),
                        "normalized mismatch at ({i},{j}) for {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_classifies_identically_and_never_underestimates() {
        let series = population(20);
        let exact = compare(&series, &ComparisonConfig::default());
        for threshold in [0.001, 0.01, 0.1, 1.0, 10.0] {
            let pruned = compare(
                &series,
                &ComparisonConfig {
                    prune_threshold: Some(threshold),
                    ..ComparisonConfig::default()
                },
            );
            for i in 0..exact.len() {
                for j in (i + 1)..exact.len() {
                    let e = exact.raw_between(i, j);
                    let p = pruned.raw_between(i, j);
                    // Same side of the threshold…
                    assert_eq!(
                        e <= threshold,
                        p <= threshold,
                        "classification flip at ({i},{j}), t={threshold}: exact {e}, pruned {p}"
                    );
                    // …and a pruned value is a lower bound, never above
                    // the true distance, never below threshold.
                    assert!(p <= e + 1e-12, "pruned {p} above exact {e}");
                    if p.to_bits() != e.to_bits() {
                        assert!(p > threshold, "replaced value {p} not above {threshold}");
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_ignored_under_min_max_and_non_banded_measures() {
        let series = population(12);
        for base in [
            ComparisonConfig {
                min_max_normalize: true,
                ..ComparisonConfig::default()
            },
            ComparisonConfig {
                measure: DistanceMeasure::FastDtw { radius: 1 },
                ..ComparisonConfig::default()
            },
            ComparisonConfig {
                measure: DistanceMeasure::ExactDtw,
                ..ComparisonConfig::default()
            },
        ] {
            let without = compare(&series, &base);
            let with = compare(
                &series,
                &ComparisonConfig {
                    prune_threshold: Some(1e-6),
                    ..base
                },
            );
            assert_eq!(without, with, "pruning leaked into {base:?}");
        }
    }

    #[test]
    fn unfired_token_matches_plain_compare_bitwise() {
        let series = population(16);
        for config in [
            ComparisonConfig::default(),
            ComparisonConfig::paper_strict(),
            ComparisonConfig {
                prune_threshold: Some(0.05),
                ..ComparisonConfig::default()
            },
        ] {
            let plain = compare(&series, &config);
            let (cancellable, complete) =
                compare_cancellable(&series, &config, &CancelToken::manual());
            assert!(complete);
            assert!(cancellable.degradation().deadline_misses == 0);
            assert_eq!(plain, cancellable, "unfired token changed results");
        }
    }

    #[test]
    fn cancelled_sweep_flags_partial_output() {
        let series = population(16); // 120 pairs
        let pruned = ComparisonConfig {
            prune_threshold: Some(PRUNE_AT),
            ..ComparisonConfig::default()
        };
        for config in [ComparisonConfig::default(), pruned] {
            let full = compare(&series, &config);
            // The cascade's decisions on pairs 0..30, pair by pair.
            let expected = first_pairs_stages(&series, &config, 30);
            if config.prune_threshold.is_some() {
                assert!(expected.iter().all(|&c| c > 0), "stages {expected:?}");
            }
            // An item budget computes exactly pairs 0..30 at any thread
            // count: the banded sweep claims it up front and groups only
            // that prefix, with or without a prune threshold.
            for threads in [1, 2] {
                let token = CancelToken::after_items(30);
                let (pd, complete, counters) =
                    compare_impl(&series, &config, threads, Some(&token), None);
                let what = format!("{threads} thread(s), {config:?}");
                assert!(!complete);
                assert!(token.is_cancelled());
                // 120 - 30 abandoned pairs, all accounted as skipped.
                assert_eq!(pd.degradation().pairs_skipped, 90, "{what}");
                let seen = (
                    counters.computed,
                    counters.triage_rejected,
                    counters.pruned_lb,
                    counters.pruned_abandon,
                );
                assert_eq!(seen, (30, expected[0], expected[1], expected[2]), "{what}");
                // The computed prefix matches the full sweep bit-for-bit;
                // the rest is the NaN sentinel.
                let mut k = 0;
                for i in 0..pd.len() {
                    for j in (i + 1)..pd.len() {
                        if k < 30 {
                            assert_eq!(
                                pd.raw_between(i, j).to_bits(),
                                full.raw_between(i, j).to_bits(),
                                "pair {k} at {what}"
                            );
                        } else {
                            assert!(pd.raw_between(i, j).is_nan(), "pair {k} at {what}");
                        }
                        k += 1;
                    }
                }
            }
        }
    }

    /// A prune threshold at which the first 30 pairs of `population(16)`
    /// reach every stage of the cascade.
    const PRUNE_AT: f64 = 0.01;

    /// How many of the first `count` pairs of `series` the cascade settles
    /// by the sketch bound, by LB_Keogh and by abandoning the DP, counted
    /// pair by pair from the public kernels; all zero without a prune
    /// threshold.
    fn first_pairs_stages(
        series: &[(IdentityId, Vec<f64>)],
        config: &ComparisonConfig,
        count: usize,
    ) -> [u64; 3] {
        use vp_timeseries::lowerbound::lb_keogh_envelope;
        use vp_timeseries::sketch::sketch_lower_bound;
        let (Some(threshold), DistanceMeasure::BandedDtw { band_fraction }) =
            (config.prune_threshold, config.measure)
        else {
            return [0; 3];
        };
        let prepared: Vec<Vec<f64>> = series.iter().map(|(_, s)| z_score_enhanced(s)).collect();
        let pairs = (0..prepared.len()).flat_map(|i| (i + 1..prepared.len()).map(move |j| (i, j)));
        let mut stages = [0; 3];
        for (i, j) in pairs.take(count) {
            let (a, b) = (&prepared[i], &prepared[j]);
            let max_len = a.len().max(b.len());
            let band = band_width(max_len, band_fraction);
            let t_raw = threshold * max_len as f64;
            let sketch = sketch_lower_bound(&SeriesSketch::build(a), &SeriesSketch::build(b), band);
            let stage = if sketch > t_raw {
                0
            } else if lb_keogh_envelope(a, &KeoghEnvelope::build(b, band)) > t_raw {
                1
            } else if dtw_banded(a, b, band, Some(t_raw), &mut DtwScratch::new()).is_pruned() {
                2
            } else {
                continue;
            };
            stages[stage] += 1;
        }
        stages
    }

    #[test]
    fn cancelled_sweep_skips_min_max() {
        // With pairs missing, Eq. 8 cannot run: a partial paper-strict
        // sweep reports raw distances instead of poisoning the window.
        let series = population(12); // 66 pairs
        let token = CancelToken::after_items(10);
        let (pd, complete) =
            compare_cancellable_with_threads(&series, &ComparisonConfig::paper_strict(), 1, &token);
        assert!(!complete);
        let computed: Vec<f64> = pd
            .iter()
            .map(|(_, _, d)| d)
            .filter(|d| d.is_finite())
            .collect();
        assert_eq!(computed.len(), 10);
        // Raw DTW costs, not min–max — nothing is pinned to [0, 1]'s
        // endpoints the way a 66-pair min–max window would be.
        assert!(computed.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn pre_cancelled_sweep_skips_everything() {
        let series = population(8); // 28 pairs
        let token = CancelToken::manual();
        token.cancel();
        let (pd, complete) = compare_cancellable(&series, &ComparisonConfig::default(), &token);
        assert!(!complete);
        assert_eq!(pd.degradation().pairs_skipped, 28);
        assert_eq!(pd.len(), 8, "identities still listed");
    }

    #[test]
    #[should_panic(expected = "no self-distance")]
    fn self_distance_panics() {
        let pd = compare(&synthetic(), &ComparisonConfig::default());
        pd.normalized_between(1, 1);
    }

    #[test]
    fn clean_input_reports_no_degradation() {
        let pd = compare(&synthetic(), &ComparisonConfig::default());
        assert!(pd.quarantined_ids().is_empty());
        assert!(pd.degradation().is_clean());
    }

    #[test]
    fn non_finite_series_is_quarantined_without_poisoning_the_rest() {
        // Regression for the silent-clean failure: one NaN series used to
        // turn every min–max-normalised distance into NaN, so nothing was
        // ever flagged. Now the offending identity is quarantined and the
        // remaining population's distances are identical to a run that
        // never saw it.
        let mut series = synthetic();
        let mut poisoned = vec![-70.0; 120];
        poisoned[60] = f64::NAN;
        series.push((666, poisoned));

        for config in [
            ComparisonConfig::default(),
            ComparisonConfig::paper_strict(),
        ] {
            let pd = compare(&series, &config);
            assert_eq!(pd.quarantined_ids(), &[666]);
            assert_eq!(pd.degradation().identities_quarantined, 1);
            assert!(!pd.ids().contains(&666));
            for (_, _, d) in pd.iter() {
                assert!(d.is_finite(), "poisoned distance survived: {d}");
            }
            let clean = compare(&synthetic(), &config);
            for i in 0..clean.len() {
                for j in (i + 1)..clean.len() {
                    assert_eq!(
                        pd.normalized_between(i, j).to_bits(),
                        clean.normalized_between(i, j).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn infinite_series_is_quarantined_too() {
        let mut series = synthetic();
        series.push((667, vec![f64::INFINITY; 120]));
        let pd = compare(&series, &ComparisonConfig::default());
        assert_eq!(pd.quarantined_ids(), &[667]);
    }

    #[test]
    fn overflowing_finite_input_counts_skipped_pairs() {
        // Finite but extreme values overflow the z-score/DTW arithmetic to
        // a non-finite distance; the pair must be counted as skipped, not
        // silently kept.
        let series: Vec<(IdentityId, Vec<f64>)> = vec![
            (1, (0..120).map(|k| (k as f64 * 0.1).sin()).collect()),
            (
                2,
                (0..120)
                    .map(|k| if k % 2 == 0 { f64::MAX } else { f64::MIN })
                    .collect(),
            ),
            (3, (0..120).map(|k| (k as f64 * 0.2).cos()).collect()),
        ];
        let cfg = ComparisonConfig {
            z_score_normalize: false,
            ..ComparisonConfig::default()
        };
        let pd = compare(&series, &cfg);
        assert!(pd.quarantined_ids().is_empty(), "input itself is finite");
        assert!(
            pd.degradation().pairs_skipped >= 2,
            "expected overflowing pairs to be counted: {:?}",
            pd.degradation()
        );
        // The clean pair keeps a finite distance.
        assert!(pd.normalized_between(0, 2).is_finite());
    }
}
