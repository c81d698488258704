//! The streaming detection engine: bounded ingest, deadline-bounded
//! sweeps with graceful degradation, supervised rounds, and
//! checkpoint/restore.
//!
//! [`StreamingRuntime`] replays the paper's batch cadence incrementally:
//! beacons are [`StreamingRuntime::offer`]ed as they arrive, and
//! [`StreamingRuntime::advance_to`] runs every detection boundary the
//! clock has passed. At each boundary the queue is drained *strictly
//! before* the boundary time, the drained beacons feed the collector and
//! the density estimator exactly as the batch engine feeds its observer
//! log, and one supervised comparison round produces a
//! [`RoundOutcome`]. With an [`crate::DeadlinePolicy::Unbounded`] budget
//! and no overload, the verdict stream is bit-identical to running
//! [`voiceprint::VoiceprintDetector`] over the batch engine's collected
//! inputs.
//!
//! The supervisor's schedule is fixed. A round that panics is isolated
//! and counted; the first and second consecutive failures back off
//! `2^(f−1) − 1` rounds plus one round of seeded jitter (0–1, then 1–2
//! rounds), and the third opens the circuit breaker, which refuses every
//! round until [`StreamingRuntime::reset_circuit`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use voiceprint::{
    compare_cancellable, compare_cancellable_with_cache, confirm, AdaptiveSnapshot,
    AdaptiveThreshold, CacheStats, ChurnPolicy, Collector, ComparisonCache, ComparisonConfig,
    DecisionLine, DistanceMeasure, ReservoirSample, SampleLabel, SybilVerdict, ThresholdPolicy,
};
use vp_fault::{Beacon, DegradationCounters, VpError};
use vp_par::CancelToken;
use vp_sim::observations::DensityEstimator;
use vp_sim::IdentityId;

use crate::checkpoint::{self, Reader, Writer};
use crate::config::{DeadlinePolicy, RuntimeConfig};
use crate::obs;
use crate::queue::{BeaconQueue, QueuedBeacon};

/// One detection round's verdict, with the fidelity it was computed at.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Detection-boundary time, seconds.
    pub time_s: f64,
    /// The confirmation verdict for this window.
    pub verdict: SybilVerdict,
    /// `false` when the comparison sweep was cut short by its deadline
    /// budget — the verdict covers only the pairs that finished in time.
    pub complete: bool,
    /// Degradation level the sweep ran at (0 = full band width).
    pub degrade_level: u8,
    /// Density estimate the threshold was evaluated at, vehicles per km.
    pub density_per_km: f64,
}

/// What happened at one detection boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// The round ran and produced a (possibly partial) verdict.
    Verdict(WindowReport),
    /// No identity had enough samples in the window; the batch engine
    /// emits nothing for such a boundary and neither does the runtime.
    Skipped {
        /// Detection-boundary time, seconds.
        time_s: f64,
    },
    /// The round's comparison panicked; the supervisor isolated it.
    Panicked {
        /// Detection-boundary time, seconds.
        time_s: f64,
        /// Consecutive failed rounds including this one.
        consecutive_failures: u32,
    },
    /// The round was skipped while backing off after a panic.
    BackedOff {
        /// Detection-boundary time, seconds.
        time_s: f64,
        /// Backoff rounds still to go after this one.
        remaining_rounds: u32,
    },
    /// The circuit breaker is open; no round was attempted.
    CircuitOpen {
        /// Detection-boundary time, seconds.
        time_s: f64,
        /// Consecutive failures that tripped the breaker.
        failures: u32,
    },
}

/// Long-running streaming Sybil detector (see the [crate docs](crate)).
pub struct StreamingRuntime {
    config: RuntimeConfig,
    collector: Collector,
    density: DensityEstimator,
    queue: BeaconQueue,
    next_detection_s: f64,
    rounds_run: u64,
    degrade_level: u8,
    consecutive_misses: u32,
    consecutive_failures: u32,
    backoff_rounds: u32,
    circuit_open: bool,
    deadline_misses: u64,
    quarantined_total: u64,
    pairs_skipped_total: u64,
    /// Cross-window comparison result cache
    /// ([`RuntimeConfig::comparison_cache_capacity`]); never part of a
    /// checkpoint — restore rebuilds it empty, bit-identically.
    cache: Option<ComparisonCache>,
    /// Drift-adaptive confirmation state ([`RuntimeConfig::adaptive`]);
    /// fully checkpointed — round *N*'s policy depends only on rounds
    /// `< N`, so a between-rounds snapshot restores bit-exactly.
    adaptive: Option<AdaptiveThreshold>,
    round_hook: Option<Box<dyn FnMut(u64) + Send>>,
}

impl std::fmt::Debug for StreamingRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingRuntime")
            .field("next_detection_s", &self.next_detection_s)
            .field("rounds_run", &self.rounds_run)
            .field("degrade_level", &self.degrade_level)
            .field("queue_len", &self.queue.len())
            .field("circuit_open", &self.circuit_open)
            .finish_non_exhaustive()
    }
}

/// Consecutive failed rounds after which the circuit breaker opens.
const CIRCUIT_BREAKER_AFTER: u32 = 3;

/// The most rounds the supervisor backs off: failure `f` (1 or 2; the
/// third opens the breaker) backs off `2^(f−1) − 1` rounds plus one round
/// of jitter.
const MAX_BACKOFF_ROUNDS: u32 = 2;

fn mix(seed: u64, round: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for byte in round.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl StreamingRuntime {
    /// Creates a runtime from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InvalidConfig`] when
    /// [`RuntimeConfig::validate`] rejects the configuration.
    pub fn new(config: RuntimeConfig) -> Result<Self, VpError> {
        config.validate()?;
        let adaptive = match config.adaptive {
            Some(ac) => {
                Some(AdaptiveThreshold::new(&config.policy, ac).map_err(VpError::InvalidConfig)?)
            }
            None => None,
        };
        Ok(StreamingRuntime {
            collector: Collector::new(config.window_s),
            density: DensityEstimator::new(config.density_period_s, config.assumed_max_range_m),
            queue: BeaconQueue::new(config.queue_capacity, config.seed),
            next_detection_s: config.first_detection_s,
            rounds_run: 0,
            degrade_level: 0,
            consecutive_misses: 0,
            consecutive_failures: 0,
            backoff_rounds: 0,
            circuit_open: false,
            deadline_misses: 0,
            quarantined_total: 0,
            pairs_skipped_total: 0,
            cache: (config.comparison_cache_capacity > 0)
                .then(|| ComparisonCache::new(config.comparison_cache_capacity)),
            adaptive,
            round_hook: None,
            config,
        })
    }

    /// Offers one decoded beacon that arrived at `arrival_s`. Returns
    /// `false` when absorbing it forced the queue to shed a sample.
    pub fn offer(&mut self, arrival_s: f64, beacon: Beacon) -> bool {
        self.queue.offer(QueuedBeacon { arrival_s, beacon })
    }

    /// Advances the runtime clock to `now_s`, running every detection
    /// boundary passed along the way and returning their outcomes in
    /// order. Idempotent for a clock that has not moved past a boundary.
    pub fn advance_to(&mut self, now_s: f64) -> Vec<RoundOutcome> {
        let mut outcomes = Vec::new();
        while self.next_detection_s <= now_s + 1e-9 {
            let t_d = self.next_detection_s;
            let started = obs::round_start();
            let queue_depth = self.queue.len();
            let mut drained = 0usize;
            for qb in self.queue.drain_until(t_d) {
                drained += 1;
                self.collector
                    .record(qb.beacon.identity, qb.beacon.time_s, qb.beacon.rssi_dbm);
                // The batch engine estimates density from every decoded
                // beacon, even ones the log quarantines.
                self.density.record(qb.beacon.identity, qb.beacon.time_s);
            }
            let outcome = self.run_round(t_d);
            obs::round_end(
                started,
                t_d,
                &outcome,
                queue_depth,
                drained,
                self.queue.shed_count(),
                self.degrade_level,
                &self.config.deadline,
            );
            outcomes.push(outcome);
            self.collector.prune(t_d);
            self.next_detection_s += self.config.detection_period_s;
        }
        outcomes
    }

    fn run_round(&mut self, t_d: f64) -> RoundOutcome {
        self.rounds_run += 1;
        if self.circuit_open {
            return RoundOutcome::CircuitOpen {
                time_s: t_d,
                failures: self.consecutive_failures,
            };
        }
        if self.backoff_rounds > 0 {
            self.backoff_rounds -= 1;
            return RoundOutcome::BackedOff {
                time_s: t_d,
                remaining_rounds: self.backoff_rounds,
            };
        }
        let series = if self.config.churn.is_some() {
            self.collector
                .series_at_churned(t_d, self.config.min_samples_per_series)
        } else {
            self.collector
                .series_at(t_d, self.config.min_samples_per_series)
        };
        if series.is_empty() {
            return RoundOutcome::Skipped { time_s: t_d };
        }
        let density = self.density.density_per_km();
        let ran_level = self.degrade_level;
        // The round's policy: the adaptive effective line (from rounds
        // < this one) when drift adaptation is on, the frozen trained
        // policy otherwise.
        let policy = match &self.adaptive {
            Some(a) => a.effective_policy(),
            None => self.config.policy,
        };
        let comparison = self.round_comparison(density, &policy);
        let token = match self.config.deadline {
            DeadlinePolicy::Unbounded => CancelToken::manual(),
            DeadlinePolicy::WallClock(budget) => CancelToken::deadline(budget),
            DeadlinePolicy::PairBudget(n) => CancelToken::after_items(n),
        };
        let hook = self.round_hook.as_mut();
        let cache = self.cache.as_mut();
        let round_idx = self.rounds_run;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(h) = hook {
                h(round_idx);
            }
            // The cached sweep is bit-identical to the plain one (see
            // `ComparisonCache`); a panic mid-sweep can only leave the
            // cache with fewer entries, never wrong ones, so it is safe
            // to keep across supervised failures.
            let (distances, complete) = match cache {
                Some(cache) => {
                    let (distances, complete, _) = compare_cancellable_with_cache(
                        &series,
                        &comparison,
                        vp_par::max_threads(),
                        &token,
                        cache,
                    );
                    (distances, complete)
                }
                None => compare_cancellable(&series, &comparison, &token),
            };
            (confirm(&distances, density, &policy), complete)
        }));
        match result {
            Ok((verdict, complete)) => {
                // Post-decision adaptive update: runs outside the
                // supervised section (it cannot panic the round) and only
                // on rounds that produced a verdict, so a panicked round
                // leaves the adaptive state untouched.
                let verdict = match self.adaptive.as_mut() {
                    Some(a) => a.finish_round(verdict, density),
                    None => verdict,
                };
                self.consecutive_failures = 0;
                let deg = verdict.degradation();
                self.quarantined_total += deg.identities_quarantined;
                self.pairs_skipped_total += deg.pairs_skipped;
                if complete {
                    self.consecutive_misses = 0;
                    self.degrade_level = self.degrade_level.saturating_sub(1);
                } else {
                    self.deadline_misses += 1;
                    self.consecutive_misses += 1;
                    if self.consecutive_misses >= self.config.degrade.miss_threshold {
                        self.degrade_level =
                            (self.degrade_level + 1).min(self.config.degrade.max_level);
                        self.consecutive_misses = 0;
                    }
                }
                obs::degrade_transition(ran_level, self.degrade_level);
                RoundOutcome::Verdict(WindowReport {
                    time_s: t_d,
                    verdict,
                    complete,
                    degrade_level: ran_level,
                    density_per_km: density,
                })
            }
            Err(_) => {
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                if self.consecutive_failures >= CIRCUIT_BREAKER_AFTER {
                    self.circuit_open = true;
                    obs::circuit_open(self.consecutive_failures);
                } else {
                    // Failure `f` (1 or 2) backs off `2^(f−1) − 1` rounds
                    // plus one round of seeded jitter: at most 2.
                    let exp = 1u32 << (self.consecutive_failures - 1);
                    let jitter = (mix(self.config.seed, self.rounds_run) & 1) as u32;
                    self.backoff_rounds = exp - 1 + jitter;
                    obs::backoff(self.backoff_rounds, self.consecutive_failures);
                }
                RoundOutcome::Panicked {
                    time_s: t_d,
                    consecutive_failures: self.consecutive_failures,
                }
            }
        }
    }

    /// The comparison configuration for the current degradation level:
    /// level `L` halves the banded-DTW band fraction `L` times and turns
    /// on threshold-driven lower-bound pruning, trading alignment slack
    /// for per-pair cost so an overloaded round fits its budget.
    fn round_comparison(&self, density: f64, policy: &ThresholdPolicy) -> ComparisonConfig {
        let mut comparison = self.config.comparison;
        if self.config.churn.is_some() {
            // The collector already enforces the full floor for
            // non-churned identities, so the comparator's own floor only
            // needs to stop re-dropping the rescued churned series.
            comparison.min_series_len = comparison.min_series_len.min(ChurnPolicy::reduced_floor(
                self.config.min_samples_per_series,
            ));
        }
        if self.degrade_level == 0 {
            return comparison;
        }
        if let DistanceMeasure::BandedDtw { band_fraction } = comparison.measure {
            // `2^L` is exact for every `u8` level; a very deep level just
            // reaches the comparator's minimum band width.
            comparison.measure = DistanceMeasure::BandedDtw {
                band_fraction: band_fraction / 2f64.powi(i32::from(self.degrade_level)),
            };
            if comparison.prune_threshold.is_none() {
                // The prune bound must track the round's *effective*
                // policy: pruning against a stale frozen threshold would
                // discard pairs the adaptive line is about to flag.
                comparison.prune_threshold = Some(policy.threshold_at(density));
            }
        }
        comparison
    }

    /// Aggregated degradation accounting since construction (or across a
    /// checkpoint/restore, whose counters are merged in).
    pub fn counters(&self) -> DegradationCounters {
        DegradationCounters {
            samples_rejected: self.collector.rejected_samples(),
            identities_quarantined: self.quarantined_total,
            pairs_skipped: self.pairs_skipped_total,
            samples_shed: self.queue.shed_count(),
            deadline_misses: self.deadline_misses,
        }
    }

    /// Beacons the ingest queue refused for a non-finite arrival time
    /// (see [`BeaconQueue::quarantined_count`]); such a beacon at the
    /// queue head would otherwise stall every drain behind it.
    pub fn queue_quarantined(&self) -> u64 {
        self.queue.quarantined_count()
    }

    /// Time of the next detection boundary, seconds.
    pub fn next_detection_s(&self) -> f64 {
        self.next_detection_s
    }

    /// Detection boundaries processed so far (including skipped and
    /// backed-off ones).
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Current degradation level (0 = full fidelity).
    pub fn degrade_level(&self) -> u8 {
        self.degrade_level
    }

    /// `true` when the circuit breaker has tripped and rounds are refused.
    pub fn is_circuit_open(&self) -> bool {
        self.circuit_open
    }

    /// Counters of the cross-window comparison cache, or `None` when
    /// [`RuntimeConfig::comparison_cache_capacity`] is zero.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ComparisonCache::stats)
    }

    /// The adapted decision line (before drift widening), or `None` when
    /// [`RuntimeConfig::adaptive`] is off.
    pub fn adaptive_line(&self) -> Option<DecisionLine> {
        self.adaptive.as_ref().map(AdaptiveThreshold::line)
    }

    /// The policy the *next* round will confirm under: the adaptive
    /// effective policy when drift adaptation is on, the frozen
    /// configured policy otherwise.
    pub fn effective_policy(&self) -> ThresholdPolicy {
        match &self.adaptive {
            Some(a) => a.effective_policy(),
            None => self.config.policy,
        }
    }

    /// `true` while the drift detector reports the distance distribution
    /// shifting away from the trained regime (always `false` with
    /// adaptation off).
    pub fn is_drifting(&self) -> bool {
        self.adaptive
            .as_ref()
            .is_some_and(AdaptiveThreshold::is_drifting)
    }

    /// Beacons currently queued for the next boundary.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Closes the breaker and clears failure/backoff state so rounds run
    /// again — the operator's explicit "I fixed it" acknowledgement.
    pub fn reset_circuit(&mut self) {
        self.circuit_open = false;
        self.consecutive_failures = 0;
        self.backoff_rounds = 0;
    }

    /// Installs a hook called with the round index at the start of every
    /// attempted round, *inside* the supervised section — a panic in the
    /// hook exercises the exact recovery path a panicking comparison
    /// would. Test/fault-injection instrumentation.
    pub fn set_round_hook(&mut self, hook: Box<dyn FnMut(u64) + Send>) {
        self.round_hook = Some(hook);
    }

    /// Serializes the complete detection state — window samples, density
    /// buckets, queued beacons, cadence and supervisor state — into a
    /// versioned, checksummed snapshot (format
    /// [`crate::checkpoint::VERSION`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_f64(self.next_detection_s);
        w.put_u64(self.rounds_run);
        w.put_u8(self.degrade_level);
        w.put_u32(self.consecutive_misses);
        w.put_u32(self.consecutive_failures);
        w.put_u32(self.backoff_rounds);
        w.put_u8(u8::from(self.circuit_open));
        w.put_u64(self.deadline_misses);
        w.put_u64(self.quarantined_total);
        w.put_u64(self.pairs_skipped_total);

        let (window_s, rejected, per_id) = self.collector.snapshot();
        w.put_f64(window_s);
        w.put_u64(rejected);
        w.put_u32(per_id.len() as u32);
        for (id, samples) in &per_id {
            w.put_u64(*id);
            w.put_u32(samples.len() as u32);
            for &(t, r) in samples {
                w.put_f64(t);
                w.put_f64(r);
            }
        }

        let (period_s, range_m, bucket_start_s, heard, latest) = self.density.snapshot();
        w.put_f64(period_s);
        w.put_f64(range_m);
        w.put_f64(bucket_start_s);
        w.put_u32(heard.len() as u32);
        for id in &heard {
            w.put_u64(*id);
        }
        match latest {
            Some(v) => {
                w.put_u8(1);
                w.put_f64(v);
            }
            None => w.put_u8(0),
        }

        let (shed, items) = self.queue.snapshot();
        w.put_u64(shed);
        w.put_u32(items.len() as u32);
        for qb in &items {
            w.put_f64(qb.arrival_s);
            w.put_u64(qb.beacon.identity);
            w.put_f64(qb.beacon.time_s);
            w.put_f64(qb.beacon.rssi_dbm);
        }

        // Adaptive section (format v2, appended so every earlier offset
        // is unchanged): flag byte, then the canonical-order snapshot.
        match &self.adaptive {
            None => w.put_u8(0),
            Some(a) => {
                w.put_u8(1);
                let snap = a.snapshot();
                w.put_f64(snap.line.k);
                w.put_f64(snap.line.b);
                w.put_u64(snap.updates);
                w.put_u64(snap.rounds);
                w.put_u32(snap.samples.len() as u32);
                for s in &snap.samples {
                    w.put_f64(s.density_per_km);
                    w.put_f64(s.distance);
                    w.put_u8(s.label.to_byte());
                }
                w.put_u32(snap.reference.len() as u32);
                for d in &snap.reference {
                    w.put_f64(*d);
                }
                w.put_u32(snap.recent.len() as u32);
                for d in &snap.recent {
                    w.put_f64(*d);
                }
            }
        }

        let sealed = checkpoint::seal(&w.into_payload());
        obs::checkpoint_save(sealed.len());
        sealed
    }

    /// Rebuilds a runtime from a [`StreamingRuntime::checkpoint`] under
    /// the given configuration. State (samples, counters, cadence) comes
    /// from the snapshot; policy (budgets, capacity, thresholds) comes
    /// from `config`, so an operator can restart with adjusted limits.
    /// Future verdicts are bit-identical to the original runtime's when
    /// the configuration matches.
    ///
    /// # Errors
    ///
    /// [`VpError::InvalidConfig`] for a bad `config`;
    /// [`VpError::CheckpointCorrupt`] / [`VpError::CheckpointVersion`]
    /// for a snapshot that fails structural validation.
    // Negated comparisons are deliberate: NaN must fail every check.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn restore(config: RuntimeConfig, bytes: &[u8]) -> Result<Self, VpError> {
        config.validate()?;
        let payload = checkpoint::open(bytes)?;
        let mut r = Reader::new(payload);

        let next_detection_s = r.get_f64()?;
        let rounds_run = r.get_u64()?;
        // A runtime never stores a level above its own `max_level`, so
        // the clamp only bites when the restoring config is shallower.
        let degrade_level = r.get_u8()?.min(config.degrade.max_level);
        let consecutive_misses = r.get_u32()?;
        let consecutive_failures = r.get_u32()?;
        // The supervisor never backs off more than `MAX_BACKOFF_ROUNDS`; a
        // larger count would silently switch detection off for that many
        // rounds, so it can only come from a corrupt frame.
        let backoff_rounds = r.get_u32()?;
        if backoff_rounds > MAX_BACKOFF_ROUNDS {
            return Err(VpError::CheckpointCorrupt {
                reason: "backoff beyond the supervisor's maximum",
            });
        }
        let circuit_open = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => {
                return Err(VpError::CheckpointCorrupt {
                    reason: "invalid flag byte",
                })
            }
        };
        let deadline_misses = r.get_u64()?;
        let quarantined_total = r.get_u64()?;
        let pairs_skipped_total = r.get_u64()?;

        let window_s = r.get_f64()?;
        if !(window_s > 0.0) {
            return Err(VpError::CheckpointCorrupt {
                reason: "non-positive collector window",
            });
        }
        let rejected = r.get_u64()?;
        // Every count prefix below is validated against the bytes that
        // actually remain (count × minimum element size) before its read
        // loop starts, so a corrupt prefix is rejected up front instead
        // of driving up to 2³² element reads into EOF — and allocation
        // is bounded by the real snapshot size, never by corrupt bytes.
        let id_count = r.get_count(8 + 4, "identity count exceeds payload")?;
        let mut per_id = Vec::with_capacity(id_count);
        for _ in 0..id_count {
            let id: IdentityId = r.get_u64()?;
            let n = r.get_count(16, "sample count exceeds payload")?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                let t = r.get_f64()?;
                let rssi = r.get_f64()?;
                samples.push((t, rssi));
            }
            per_id.push((id, samples));
        }
        let collector = Collector::restore(window_s, rejected, per_id);

        let period_s = r.get_f64()?;
        let range_m = r.get_f64()?;
        if !(period_s > 0.0) || !(range_m > 0.0) {
            return Err(VpError::CheckpointCorrupt {
                reason: "non-positive density parameters",
            });
        }
        let bucket_start_s = r.get_f64()?;
        let heard_count = r.get_count(8, "heard-identity count exceeds payload")?;
        let mut heard = Vec::with_capacity(heard_count);
        for _ in 0..heard_count {
            heard.push(r.get_u64()?);
        }
        let latest = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_f64()?),
            _ => {
                return Err(VpError::CheckpointCorrupt {
                    reason: "invalid flag byte",
                })
            }
        };
        let density = DensityEstimator::restore(period_s, range_m, bucket_start_s, heard, latest);

        let shed = r.get_u64()?;
        let item_count = r.get_count(32, "queued-beacon count exceeds payload")?;
        let mut items = Vec::with_capacity(item_count);
        for _ in 0..item_count {
            let arrival_s = r.get_f64()?;
            let identity = r.get_u64()?;
            let time_s = r.get_f64()?;
            let rssi_dbm = r.get_f64()?;
            items.push(QueuedBeacon {
                arrival_s,
                beacon: Beacon::new(identity, time_s, rssi_dbm),
            });
        }
        let queue = BeaconQueue::restore(config.queue_capacity, config.seed, shed, items);

        // Adaptive section: the snapshot is parsed (and its bytes
        // consumed) regardless of the current configuration, then applied
        // only when adaptation is on — state comes from the checkpoint,
        // policy from `config`, like every other section.
        let stored_adaptive = match r.get_u8()? {
            0 => None,
            1 => {
                let k = r.get_f64()?;
                let b = r.get_f64()?;
                let updates = r.get_u64()?;
                let rounds = r.get_u64()?;
                let sample_count = r.get_count(17, "reservoir count exceeds payload")?;
                let mut samples = Vec::with_capacity(sample_count);
                for _ in 0..sample_count {
                    let density_per_km = r.get_f64()?;
                    let distance = r.get_f64()?;
                    let label =
                        SampleLabel::from_byte(r.get_u8()?).ok_or(VpError::CheckpointCorrupt {
                            reason: "invalid sample label",
                        })?;
                    samples.push(ReservoirSample {
                        density_per_km,
                        distance,
                        label,
                    });
                }
                let ref_count = r.get_count(8, "reference count exceeds payload")?;
                let mut reference = Vec::with_capacity(ref_count);
                for _ in 0..ref_count {
                    reference.push(r.get_f64()?);
                }
                let recent_count = r.get_count(8, "recent count exceeds payload")?;
                let mut recent = Vec::with_capacity(recent_count);
                for _ in 0..recent_count {
                    recent.push(r.get_f64()?);
                }
                Some(AdaptiveSnapshot {
                    line: DecisionLine { k, b },
                    updates,
                    rounds,
                    samples,
                    reference,
                    recent,
                })
            }
            _ => {
                return Err(VpError::CheckpointCorrupt {
                    reason: "invalid flag byte",
                })
            }
        };
        let adaptive = match (config.adaptive, stored_adaptive) {
            (Some(ac), Some(snap)) => Some(
                AdaptiveThreshold::restore(&config.policy, ac, &snap)
                    .map_err(|reason| VpError::CheckpointCorrupt { reason })?,
            ),
            // Adaptation newly enabled across the restart: start fresh.
            (Some(ac), None) => {
                Some(AdaptiveThreshold::new(&config.policy, ac).map_err(VpError::InvalidConfig)?)
            }
            // Adaptation disabled across the restart: drop the state.
            (None, _) => None,
        };
        r.finish()?;
        obs::checkpoint_restore(bytes.len(), queue.len());

        Ok(StreamingRuntime {
            collector,
            density,
            queue,
            next_detection_s,
            rounds_run,
            degrade_level,
            consecutive_misses,
            consecutive_failures,
            backoff_rounds,
            circuit_open,
            deadline_misses,
            quarantined_total,
            pairs_skipped_total,
            // Deliberately rebuilt empty rather than serialized: a hit
            // returns exactly the bits a recomputation would produce, so
            // the restored runtime's verdict stream is bit-identical —
            // only the first post-restore window runs at miss speed.
            cache: (config.comparison_cache_capacity > 0)
                .then(|| ComparisonCache::new(config.comparison_cache_capacity)),
            adaptive,
            round_hook: None,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voiceprint::{ThresholdPolicy, VoiceprintDetector};

    fn test_config() -> RuntimeConfig {
        let mut c = RuntimeConfig::paper_default(ThresholdPolicy::paper_simulation());
        c.min_samples_per_series = 100;
        c
    }

    /// RSSI of honest neighbour `h` at window offset `u`: distinct
    /// two-component mixtures so no honest pair resembles another under
    /// warping.
    fn honest_rssi(h: u64, u: f64) -> f64 {
        let (a, b) = [(0.45, 2.1), (0.83, 2.9), (0.31, 1.7), (0.63, 2.45)][h as usize];
        -72.0 - h as f64 + ((u * a).sin() + (u * b).cos()) * 3.5
    }

    /// Two Sybil identities sharing one shape plus `honest` dissimilar
    /// neighbours, 150 samples each at 10 Hz starting at `t0`.
    ///
    /// The window offset `u` is computed directly from `k` (not as
    /// `t - t0`, which would pick up rounding from the absolute clock),
    /// so every window carries bit-identical RSSI sequences — the shape
    /// the cross-window cache is designed for.
    fn feed_window(rt: &mut StreamingRuntime, t0: f64, honest: u64) {
        feed_samples(rt, t0, honest, 0..150);
    }

    /// Samples `ks` of the window [`feed_window`] feeds.
    fn feed_samples(rt: &mut StreamingRuntime, t0: f64, honest: u64, ks: std::ops::Range<usize>) {
        for k in ks {
            let u = 0.05 + k as f64 * 0.1;
            let t = t0 + u;
            let shape = (u * 1.3).sin() * 4.0 + (u * 0.37).cos() * 2.0;
            rt.offer(t, Beacon::new(100, t, -70.0 + shape));
            rt.offer(t, Beacon::new(101, t, -64.5 + shape));
            for h in 0..honest {
                rt.offer(t, Beacon::new(h + 1, t, honest_rssi(h, u)));
            }
        }
    }

    fn verdict_of(outcome: &RoundOutcome) -> &WindowReport {
        match outcome {
            RoundOutcome::Verdict(report) => report,
            other => panic!("expected a verdict, got {other:?}"),
        }
    }

    #[test]
    fn detects_the_sybil_pair_and_matches_the_batch_detector() {
        let mut rt = StreamingRuntime::new(test_config()).unwrap();
        feed_window(&mut rt, 0.0, 3);
        let outcomes = rt.advance_to(20.0);
        assert_eq!(outcomes.len(), 1);
        let report = verdict_of(&outcomes[0]);
        assert!(report.complete);
        assert_eq!(report.degrade_level, 0);
        assert_eq!(report.verdict.suspects(), &[100, 101]);

        // Bit-identical to the batch detector fed the same collection.
        let mut collector = Collector::new(20.0);
        let mut density = DensityEstimator::new(10.0, 400.0);
        for k in 0..150 {
            let t = 0.05 + k as f64 * 0.1;
            let shape = (t * 1.3).sin() * 4.0 + (t * 0.37).cos() * 2.0;
            for (id, rssi) in [
                (100u64, -70.0 + shape),
                (101, -64.5 + shape),
                (1, honest_rssi(0, t)),
                (2, honest_rssi(1, t)),
                (3, honest_rssi(2, t)),
            ] {
                collector.record(id, t, rssi);
                density.record(id, t);
            }
        }
        let series = collector.series_at(20.0, 100);
        let batch = VoiceprintDetector::new(ThresholdPolicy::paper_simulation())
            .verdict(&series, density.density_per_km());
        assert_eq!(report.verdict, batch);
        assert_eq!(
            report.verdict.threshold().to_bits(),
            batch.threshold().to_bits()
        );
    }

    #[test]
    fn empty_window_is_skipped_like_the_batch_engine() {
        let mut rt = StreamingRuntime::new(test_config()).unwrap();
        let outcomes = rt.advance_to(20.0);
        assert_eq!(outcomes, vec![RoundOutcome::Skipped { time_s: 20.0 }]);
        assert!(rt.counters().is_clean());
    }

    #[test]
    fn boundary_at_exact_arrival_excludes_that_beacon() {
        // A beacon arriving exactly at the boundary belongs to the next
        // window, matching the batch engine's interval bookkeeping.
        let mut rt = StreamingRuntime::new(test_config()).unwrap();
        rt.offer(20.0, Beacon::new(1, 20.0, -70.0));
        let outcomes = rt.advance_to(20.0);
        assert_eq!(outcomes, vec![RoundOutcome::Skipped { time_s: 20.0 }]);
        assert_eq!(rt.queue_len(), 1);
    }

    #[test]
    fn pair_budget_miss_degrades_then_recovers_with_hysteresis() {
        let mut config = test_config();
        // Six identities → 15 pairs in the storm window; one pair fits.
        config.deadline = DeadlinePolicy::PairBudget(10);
        let mut rt = StreamingRuntime::new(config).unwrap();
        feed_window(&mut rt, 0.0, 4); // 6 ids → 15 pairs > 10
        let report = verdict_of(&rt.advance_to(20.0)[0]).clone();
        assert!(!report.complete);
        assert_eq!(report.degrade_level, 0, "the miss itself ran at full width");
        assert_eq!(rt.degrade_level(), 1, "…and stepped the runtime down");
        assert_eq!(rt.counters().deadline_misses, 1);
        assert!(rt.counters().pairs_skipped > 0);

        feed_window(&mut rt, 20.0, 2); // 4 ids → 6 pairs ≤ 10: on time
        let report = verdict_of(&rt.advance_to(40.0)[0]).clone();
        assert!(report.complete);
        assert_eq!(report.degrade_level, 1, "ran at the degraded width");
        assert_eq!(rt.degrade_level(), 0, "one on-time round recovers");
        assert_eq!(rt.counters().deadline_misses, 1);
    }

    #[test]
    fn repeated_misses_saturate_at_max_level() {
        // Six identities → 15 pairs per window. One pair, or half of
        // them, misses every round at every degradation level.
        for budget in [1, 15 / 2] {
            let mut config = test_config();
            config.deadline = DeadlinePolicy::PairBudget(budget);
            let mut rt = StreamingRuntime::new(config).unwrap();
            for round in 0..4 {
                let t0 = round as f64 * 20.0;
                feed_window(&mut rt, t0, 4);
                let report = verdict_of(&rt.advance_to(t0 + 20.0)[0]).clone();
                assert!(!report.complete, "budget {budget}, round {round}");
            }
            assert_eq!(rt.degrade_level(), 2, "saturates at max_level");
            assert_eq!(rt.counters().deadline_misses, 4);
        }
    }

    #[test]
    fn supervisor_backs_off_then_opens_the_circuit() {
        let mut rt = StreamingRuntime::new(test_config()).unwrap();
        rt.set_round_hook(Box::new(|_| panic!("injected fault")));
        let mut outcomes = Vec::new();
        for round in 0..8 {
            let t0 = round as f64 * 20.0;
            feed_window(&mut rt, t0, 2);
            outcomes.extend(rt.advance_to(t0 + 20.0));
        }
        // Failure 1 backs off 0 + 1 (jitter) rounds, failure 2 backs off
        // 1 + 1, failure 3 opens the breaker, which stays open.
        let panicked = |time_s, consecutive_failures| RoundOutcome::Panicked {
            time_s,
            consecutive_failures,
        };
        let backed_off = |time_s, remaining_rounds| RoundOutcome::BackedOff {
            time_s,
            remaining_rounds,
        };
        let open = |time_s| RoundOutcome::CircuitOpen {
            time_s,
            failures: 3,
        };
        assert_eq!(
            outcomes,
            [
                panicked(20.0, 1),
                backed_off(40.0, 0),
                panicked(60.0, 2),
                backed_off(80.0, 1),
                backed_off(100.0, 0),
                panicked(120.0, 3),
                open(140.0),
                open(160.0),
            ]
        );
        assert!(rt.is_circuit_open());

        // Reset closes the breaker; a healthy round then succeeds.
        rt.reset_circuit();
        rt.round_hook = None;
        feed_window(&mut rt, 160.0, 2);
        let outcomes = rt.advance_to(180.0);
        assert!(
            matches!(outcomes.last(), Some(RoundOutcome::Verdict(_))),
            "{outcomes:?}"
        );
    }

    #[test]
    fn a_restored_failure_count_at_u32_max_opens_the_circuit() {
        // Checkpoint bytes are outside input, so the stored failure count
        // may be any `u32`; one more failure must not overflow it.
        let rt = StreamingRuntime::new(test_config()).unwrap();
        let mut payload = checkpoint::open(&rt.checkpoint()).unwrap().to_vec();
        // After next_detection_s (f64), rounds_run (u64), degrade_level
        // (u8) and consecutive_misses (u32).
        payload[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut rt = StreamingRuntime::restore(test_config(), &checkpoint::seal(&payload)).unwrap();
        rt.set_round_hook(Box::new(|_| panic!("injected fault")));
        feed_window(&mut rt, 0.0, 2);
        assert_eq!(
            rt.advance_to(20.0),
            [RoundOutcome::Panicked {
                time_s: 20.0,
                consecutive_failures: u32::MAX,
            }]
        );
        assert!(rt.is_circuit_open());
    }

    #[test]
    fn checkpoint_restore_mid_window_reproduces_the_verdict() {
        let mut a = StreamingRuntime::new(test_config()).unwrap();
        feed_window(&mut a, 0.0, 3);
        a.advance_to(20.0);
        // Mid-window: half the second window ingested, none drained yet.
        for k in 0..80 {
            let t = 20.05 + k as f64 * 0.1;
            a.offer(t, Beacon::new(7, t, -71.0 + (t * 0.8).sin()));
        }
        let snapshot = a.checkpoint();
        let mut b = StreamingRuntime::restore(test_config(), &snapshot).unwrap();
        assert_eq!(b.next_detection_s(), a.next_detection_s());
        assert_eq!(b.rounds_run(), a.rounds_run());
        assert_eq!(b.queue_len(), a.queue_len());
        assert_eq!(b.counters(), a.counters());

        // Identical future input ⇒ bit-identical future verdicts.
        feed_window(&mut a, 22.0, 3);
        feed_window(&mut b, 22.0, 3);
        let ra = verdict_of(&a.advance_to(40.0)[0]).clone();
        let rb = verdict_of(&b.advance_to(40.0)[0]).clone();
        assert_eq!(ra, rb);
        assert_eq!(
            ra.verdict.threshold().to_bits(),
            rb.verdict.threshold().to_bits()
        );
    }

    #[test]
    fn checkpoint_taken_mid_storm_restores_bit_exactly() {
        let mut config = test_config();
        config.queue_capacity = 400;
        let mut a = StreamingRuntime::new(config.clone()).unwrap();
        feed_window(&mut a, 0.0, 3); // 750 offers, 350 shed
        a.advance_to(20.0);
        // 600 offers into 400 slots shed 200 mid-window. Dead slots are
        // compacted only once more than 100 exist, so 99 are still queued
        // when the checkpoint is taken.
        feed_samples(&mut a, 20.0, 3, 0..120);
        assert_eq!(a.counters().samples_shed, 350 + 200);
        let snapshot = a.checkpoint();
        let mut b = StreamingRuntime::restore(config, &snapshot).unwrap();
        assert_eq!(b.checkpoint(), snapshot);

        // The same tail, still shedding, then a window more.
        let tail = |rt: &mut StreamingRuntime| {
            feed_samples(rt, 20.0, 3, 120..150);
            let mut outcomes = rt.advance_to(40.0);
            feed_window(rt, 40.0, 3);
            outcomes.extend(rt.advance_to(60.0));
            outcomes
        };
        let (ra, rb) = (tail(&mut a), tail(&mut b));
        assert_eq!(ra.len(), 2);
        assert_eq!(ra, rb);
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn cached_rounds_are_bit_identical_to_uncached_and_actually_hit() {
        // `feed_window` regenerates the same RSSI sequences relative to
        // each window start, so from round 2 on every pair is a cache
        // hit — and the verdict stream must still match the cache-free
        // runtime bit for bit.
        let mut cached = StreamingRuntime::new(test_config()).unwrap();
        let mut plain_config = test_config();
        plain_config.comparison_cache_capacity = 0;
        let mut plain = StreamingRuntime::new(plain_config).unwrap();
        assert!(plain.cache_stats().is_none());
        for round in 0..3 {
            let t0 = round as f64 * 20.0;
            feed_window(&mut cached, t0, 3);
            feed_window(&mut plain, t0, 3);
            let rc = verdict_of(&cached.advance_to(t0 + 20.0)[0]).clone();
            let rp = verdict_of(&plain.advance_to(t0 + 20.0)[0]).clone();
            assert_eq!(rc, rp, "round {round}");
            assert_eq!(
                rc.verdict.threshold().to_bits(),
                rp.verdict.threshold().to_bits()
            );
        }
        let stats = cached.cache_stats().unwrap();
        // 5 ids → 10 pairs per round: round 1 misses, rounds 2–3 hit.
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.hits, 20);
    }

    #[test]
    fn restore_rebuilds_the_cache_empty_without_changing_verdicts() {
        let mut a = StreamingRuntime::new(test_config()).unwrap();
        feed_window(&mut a, 0.0, 3);
        a.advance_to(20.0);
        assert!(a.cache_stats().unwrap().entries > 0, "cache is warm");
        let snapshot = a.checkpoint();
        let mut b = StreamingRuntime::restore(test_config(), &snapshot).unwrap();
        let fresh = b.cache_stats().unwrap();
        assert_eq!(fresh.entries, 0, "cache is not checkpointed");
        assert_eq!(fresh.hits + fresh.misses, 0);
        // Warm-cache original vs cold-cache restoree: identical future
        // input must still produce bit-identical verdicts.
        feed_window(&mut a, 20.0, 3);
        feed_window(&mut b, 20.0, 3);
        let ra = verdict_of(&a.advance_to(40.0)[0]).clone();
        let rb = verdict_of(&b.advance_to(40.0)[0]).clone();
        assert_eq!(ra, rb);
        assert!(a.cache_stats().unwrap().hits > 0, "original ran on hits");
        assert_eq!(b.cache_stats().unwrap().hits, 0, "restoree recomputed");
    }

    #[test]
    fn corrupt_and_versioned_snapshots_are_rejected() {
        let rt = StreamingRuntime::new(test_config()).unwrap();
        let good = rt.checkpoint();
        assert!(StreamingRuntime::restore(test_config(), &good).is_ok());

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            StreamingRuntime::restore(test_config(), &flipped),
            Err(VpError::CheckpointCorrupt { .. })
        ));

        let mut versioned = good;
        versioned[4..6].copy_from_slice(&7u16.to_le_bytes());
        // (Checksum now also mismatches, but the version gate comes first.)
        assert!(matches!(
            StreamingRuntime::restore(test_config(), &versioned),
            Err(VpError::CheckpointVersion { found: 7, .. })
        ));
    }

    /// Re-frames `good` with its payload rewritten by `patch` — the
    /// checksum is recomputed, so the *structural* validators (not the
    /// checksum) must catch the damage.
    fn reseal_with(good: &[u8], patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = checkpoint::open(good).unwrap().to_vec();
        patch(&mut payload);
        checkpoint::seal(&payload)
    }

    // Fixed payload offsets of the checkpoint layout (see `checkpoint()`):
    // supervisor header 54 B (f64 + u64 + u8 + 3×u32 + u8 + 3×u64, the
    // last u32 `backoff_rounds` at 25), then
    // collector window f64 + rejected u64, putting `id_count` at 70. On
    // an *empty* runtime the density section follows immediately:
    // 3×f64 at 74, `heard_count` at 98, the `latest` flag byte at 102,
    // shed u64 at 103, `item_count` at 111, and the v2 adaptive flag
    // byte at 115 (an empty queue holds no items).
    const BACKOFF_ROUNDS: usize = 25;
    const CIRCUIT_FLAG: usize = 29;
    const ID_COUNT: usize = 70;
    const HEARD_COUNT: usize = 98;
    const LATEST_FLAG: usize = 102;
    const ITEM_COUNT: usize = 111;
    const ADAPTIVE_FLAG: usize = 115;

    #[test]
    fn count_inflated_checkpoints_are_rejected_up_front() {
        // Regression: the u32 count prefixes used to drive read loops
        // unchecked, so 0xFFFFFFFF spun up to 4B element reads before
        // hitting EOF. Each count must now be validated against the
        // remaining payload before its loop starts.
        let empty = StreamingRuntime::new(test_config()).unwrap().checkpoint();
        for (offset, name) in [
            (ID_COUNT, "id_count"),
            (HEARD_COUNT, "heard_count"),
            (ITEM_COUNT, "item_count"),
        ] {
            let bad = reseal_with(&empty, |p| {
                p[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            });
            let err = StreamingRuntime::restore(test_config(), &bad)
                .expect_err(&format!("inflated {name} must be rejected"));
            assert!(
                matches!(err, VpError::CheckpointCorrupt { reason } if reason.contains("count")),
                "{name}: {err:?}"
            );
        }

        // The nested per-identity sample count: feed one window so the
        // collector holds at least one identity, then inflate the first
        // identity's `n` (payload offset 70 + 4 + 8 = 82).
        let mut rt = StreamingRuntime::new(test_config()).unwrap();
        feed_window(&mut rt, 0.0, 1);
        rt.advance_to(20.0);
        let warm = rt.checkpoint();
        let bad = reseal_with(&warm, |p| {
            p[82..86].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(matches!(
            StreamingRuntime::restore(test_config(), &bad),
            Err(VpError::CheckpointCorrupt {
                reason: "sample count exceeds payload"
            })
        ));
    }

    #[test]
    fn truncated_payloads_are_structured_errors_at_every_cut() {
        // Truncation *inside* a valid frame (checksum recomputed): every
        // cut must surface as CheckpointCorrupt from the structural
        // validators, never a panic or a wild allocation.
        let mut rt = StreamingRuntime::new(test_config()).unwrap();
        feed_window(&mut rt, 0.0, 1);
        rt.advance_to(20.0);
        let good = rt.checkpoint();
        let full_len = checkpoint::open(&good).unwrap().len();
        for cut in 0..full_len {
            let bad = reseal_with(&good, |p| p.truncate(cut));
            assert!(
                matches!(
                    StreamingRuntime::restore(test_config(), &bad),
                    Err(VpError::CheckpointCorrupt { .. })
                ),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn fuzzed_flag_bytes_are_rejected() {
        let empty = StreamingRuntime::new(test_config()).unwrap().checkpoint();
        for flag_offset in [CIRCUIT_FLAG, LATEST_FLAG, ADAPTIVE_FLAG] {
            for value in [2u8, 7, 0xFF] {
                let bad = reseal_with(&empty, |p| p[flag_offset] = value);
                assert!(
                    matches!(
                        StreamingRuntime::restore(test_config(), &bad),
                        Err(VpError::CheckpointCorrupt {
                            reason: "invalid flag byte"
                        })
                    ),
                    "flag at {flag_offset} = {value:#x} must be rejected"
                );
            }
        }
    }

    #[test]
    fn impossible_backoff_counts_are_rejected() {
        // The supervisor never stores more than `MAX_BACKOFF_ROUNDS`, so a
        // larger count comes from a corrupt or crafted frame and would
        // switch detection off for that many rounds.
        let empty = StreamingRuntime::new(test_config()).unwrap().checkpoint();
        let with_backoff = |rounds: u32| {
            reseal_with(&empty, |p| {
                p[BACKOFF_ROUNDS..BACKOFF_ROUNDS + 4].copy_from_slice(&rounds.to_le_bytes());
            })
        };
        for rounds in [3, 1_000_000] {
            assert!(
                matches!(
                    StreamingRuntime::restore(test_config(), &with_backoff(rounds)),
                    Err(VpError::CheckpointCorrupt {
                        reason: "backoff beyond the supervisor's maximum"
                    })
                ),
                "backoff {rounds} must be rejected"
            );
        }
        for rounds in 0..=MAX_BACKOFF_ROUNDS {
            let restored = StreamingRuntime::restore(test_config(), &with_backoff(rounds))
                .unwrap_or_else(|e| panic!("backoff {rounds} must restore: {e:?}"));
            assert_eq!(restored.backoff_rounds, rounds);
        }
    }

    fn adaptive_config() -> RuntimeConfig {
        let mut c = test_config();
        c.adaptive = Some(voiceprint::AdaptiveConfig::default());
        c
    }

    #[test]
    fn adaptive_first_round_matches_the_frozen_runtime() {
        // Round 1 runs before any evidence has been folded in, so the
        // adaptive runtime's first verdict is bit-identical to frozen —
        // the no-same-round-feedback contract.
        let mut a = StreamingRuntime::new(adaptive_config()).unwrap();
        let mut f = StreamingRuntime::new(test_config()).unwrap();
        feed_window(&mut a, 0.0, 3);
        feed_window(&mut f, 0.0, 3);
        let ra = verdict_of(&a.advance_to(20.0)[0]).clone();
        let rf = verdict_of(&f.advance_to(20.0)[0]).clone();
        assert_eq!(ra.verdict.suspects(), rf.verdict.suspects());
        assert_eq!(
            ra.verdict.threshold().to_bits(),
            rf.verdict.threshold().to_bits()
        );
    }

    #[test]
    fn adaptive_state_round_trips_checkpoints_bit_exactly() {
        let mut a = StreamingRuntime::new(adaptive_config()).unwrap();
        for round in 0..3 {
            let t0 = round as f64 * 20.0;
            feed_window(&mut a, t0, 3);
            a.advance_to(t0 + 20.0);
        }
        let line = a.adaptive_line().expect("adaptation is on");
        let snap = a.checkpoint();
        let mut b = StreamingRuntime::restore(adaptive_config(), &snap).unwrap();
        // Re-serialising the restored runtime reproduces the snapshot
        // byte for byte — the reservoir/window canonical order is stable
        // across a round trip.
        assert_eq!(b.checkpoint(), snap);
        let restored = b.adaptive_line().unwrap();
        assert_eq!(restored.k.to_bits(), line.k.to_bits());
        assert_eq!(restored.b.to_bits(), line.b.to_bits());
        // Identical future input ⇒ bit-identical future verdicts and
        // bit-identical adaptive trajectories.
        feed_window(&mut a, 60.0, 3);
        feed_window(&mut b, 60.0, 3);
        let ra = verdict_of(&a.advance_to(80.0)[0]).clone();
        let rb = verdict_of(&b.advance_to(80.0)[0]).clone();
        assert_eq!(ra, rb);
        assert_eq!(
            a.adaptive_line().unwrap().b.to_bits(),
            b.adaptive_line().unwrap().b.to_bits()
        );
    }

    #[test]
    fn adaptive_can_be_toggled_across_a_restore() {
        let mut a = StreamingRuntime::new(adaptive_config()).unwrap();
        feed_window(&mut a, 0.0, 3);
        a.advance_to(20.0);
        let snap = a.checkpoint();
        // Disabled across the restart: state dropped, runtime frozen.
        let off = StreamingRuntime::restore(test_config(), &snap).unwrap();
        assert!(off.adaptive_line().is_none());
        assert_eq!(off.effective_policy(), test_config().policy);
        // Enabled across the restart from a frozen checkpoint: fresh
        // adaptive state anchored at the configured policy.
        let mut f = StreamingRuntime::new(test_config()).unwrap();
        feed_window(&mut f, 0.0, 3);
        f.advance_to(20.0);
        let on = StreamingRuntime::restore(adaptive_config(), &f.checkpoint()).unwrap();
        let fresh = on.adaptive_line().unwrap();
        let ThresholdPolicy::Linear(initial) = test_config().policy else {
            panic!("test policy is linear");
        };
        assert_eq!(fresh.k.to_bits(), initial.k.to_bits());
        assert_eq!(fresh.b.to_bits(), initial.b.to_bits());
    }

    #[test]
    fn adaptive_truncations_are_structured_errors_at_every_cut() {
        // Same guarantee as the main truncation sweep, over the v2
        // adaptive section specifically: cut anywhere inside it and the
        // restore must fail structurally, never panic.
        let mut rt = StreamingRuntime::new(adaptive_config()).unwrap();
        feed_window(&mut rt, 0.0, 1);
        rt.advance_to(20.0);
        let good = rt.checkpoint();
        let full_len = checkpoint::open(&good).unwrap().len();
        // The adaptive section of the frozen layout starts after the
        // queue items; sweep the last 600 bytes, which covers it fully.
        for cut in full_len.saturating_sub(600)..full_len {
            let bad = reseal_with(&good, |p| p.truncate(cut));
            assert!(
                matches!(
                    StreamingRuntime::restore(adaptive_config(), &bad),
                    Err(VpError::CheckpointCorrupt { .. })
                ),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_reservoir_label_is_rejected() {
        // One window, 5 clean identities → 10 audited pairs: reservoir
        // holds 10 samples, the reference window 10 distances, recent 0.
        // Working back from the payload end: recent count (4) + reference
        // 10×8 + its count (4) + samples 10×17 gives the first sample at
        // end−258; its label byte sits 16 bytes in.
        let mut rt = StreamingRuntime::new(adaptive_config()).unwrap();
        feed_window(&mut rt, 0.0, 3);
        rt.advance_to(20.0);
        let good = rt.checkpoint();
        let len = checkpoint::open(&good).unwrap().len();
        let label_at = len - 258 + 16;
        let bad = reseal_with(&good, |p| {
            assert!(p[label_at] <= 2, "offset arithmetic drifted");
            p[label_at] = 9;
        });
        assert!(matches!(
            StreamingRuntime::restore(adaptive_config(), &bad),
            Err(VpError::CheckpointCorrupt {
                reason: "invalid sample label"
            })
        ));
    }

    #[test]
    fn churn_config_rescues_a_churned_identity() {
        // Identity 55 mirrors the Sybil shape but transmits only the
        // first and last 5 s of the window — below the 100-sample floor,
        // with an unmistakable 10 s retire/announce gap.
        let mut frozen = StreamingRuntime::new(test_config()).unwrap();
        let mut churny_config = test_config();
        churny_config.churn = Some(voiceprint::ChurnPolicy);
        let mut churny = StreamingRuntime::new(churny_config).unwrap();
        for rt in [&mut frozen, &mut churny] {
            feed_window(rt, 0.0, 3);
            for k in 0..90 {
                let u = 0.05 + k as f64 * 0.1;
                let t = if k < 45 { u } else { 10.0 + u };
                let shape = ((0.05 + k as f64 * 0.1) * 1.3).sin() * 4.0;
                rt.offer(t, Beacon::new(55, t, -67.0 + shape));
            }
        }
        let rf = verdict_of(&frozen.advance_to(20.0)[0]).clone();
        let rc = verdict_of(&churny.advance_to(20.0)[0]).clone();
        assert!(
            rf.verdict.audit_for(55, 100).is_none(),
            "plain floor must drop the churned identity"
        );
        assert!(
            rc.verdict.audit_for(55, 100).is_some(),
            "churn-aware extraction must compare the churned identity"
        );
    }

    #[test]
    fn shedding_surfaces_in_counters_and_never_panics() {
        let mut config = test_config();
        config.queue_capacity = 200;
        let mut rt = StreamingRuntime::new(config).unwrap();
        feed_window(&mut rt, 0.0, 3); // 5 ids × 150 = 750 offers into 200 slots
        let outcomes = rt.advance_to(20.0);
        assert_eq!(outcomes.len(), 1);
        let shed = rt.counters().samples_shed;
        assert_eq!(shed, 750 - 200);
        assert!(rt.queue_len() <= 200);
    }
}
