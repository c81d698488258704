//! Cross-window comparison result cache.
//!
//! A sliding observation window re-presents most identity pairs with
//! *unchanged* series: at a typical paper-scale cadence only the handful
//! of identities that gained or lost samples produce new kernel work,
//! yet the N² sweep recomputes every pair from scratch. The
//! [`ComparisonCache`] closes that gap. It maps
//! `(config fingerprint, series hash, series hash)` — FNV-1a content
//! hashes over the *prepared* (post-normalisation) sample bits — to the
//! final stored raw distance of the pair. When the comparator runs with
//! a cache, it probes every pair first and hands only the misses to the
//! parallel kernels, so the work per window shrinks to the dirty pairs.
//!
//! # Determinism contract
//!
//! * A hit returns the exact `f64` the kernel stored earlier for the
//!   same prepared-series content under the same configuration
//!   fingerprint, so cached sweeps are **bit-identical** to cache-off
//!   sweeps (pinned by `tests/comparison_cascade.rs`).
//! * The map is a `BTreeMap` and eviction removes the smallest entries
//!   in `(last_used generation, key)` order — no `RandomState`, no
//!   iteration-order dependence, no wall clock. Two runs that feed the
//!   cache the same sweeps leave it in identical state.
//! * Non-finite distances are never inserted: a cancelled sweep uses a
//!   NaN sentinel for unfinished pairs, and a legitimately non-finite
//!   distance is indistinguishable from that sentinel, so both recompute
//!   on the next window (identical either way, just not accelerated).
//! * The cache is **not** part of any checkpoint image: rebuilding from
//!   empty only turns hits back into recomputations of the same bits
//!   (see DESIGN.md §14).
//!
//! Content hashing means collisions are theoretically possible (64-bit
//! FNV-1a over length + sample bits). A collision would require two
//! different prepared series with equal hashes inside one cache
//! lifetime; with honest-scale populations this is vanishingly unlikely
//! and the failure mode is a stale distance for one pair, not a panic —
//! the same trade the golden-digest machinery already makes.

use std::collections::BTreeMap;

/// `(config fingerprint, hash of series i, hash of series j)`.
type CacheKey = (u64, u64, u64);

#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    /// Sweep generation that last read or wrote this entry.
    last_used: u64,
}

/// Deterministic bounded cache of pairwise comparison results; see the
/// module docs for the contract.
#[derive(Debug, Clone)]
pub struct ComparisonCache {
    capacity: usize,
    generation: u64,
    map: BTreeMap<CacheKey, Entry>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// Cumulative counters of a [`ComparisonCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries retained across sweeps.
    pub capacity: usize,
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to the kernels.
    pub misses: u64,
    /// Values stored.
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over probes, `0.0` before the first probe.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

impl ComparisonCache {
    /// Creates a cache retaining at most `capacity` pair results across
    /// sweeps. Within one sweep the map may transiently exceed the bound
    /// (every miss of that sweep is inserted); the excess is trimmed at
    /// sweep end, least-recently-used generation first, ties broken by
    /// key order.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cache that can hold nothing
    /// would silently disable reuse; pass no cache instead.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ComparisonCache {
            capacity,
            generation: 0,
            map: BTreeMap::new(),
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry; cumulative counters are kept.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
        }
    }

    /// Marks the start of a sweep: entries touched from here on belong
    /// to the new generation for eviction ordering.
    pub(crate) fn begin_sweep(&mut self) {
        self.generation += 1;
    }

    /// Looks `key` up, refreshing its generation on a hit.
    pub(crate) fn probe(&mut self, key: CacheKey) -> Option<f64> {
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.generation;
                self.hits += 1;
                Some(entry.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a computed pair result under the current generation.
    pub(crate) fn insert(&mut self, key: CacheKey, value: f64) {
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.generation,
            },
        );
        self.insertions += 1;
    }

    /// Trims the map back to capacity: oldest generation first, then key
    /// order — a total, deterministic order. Keys are unique, so the
    /// `excess` smallest entries of that order are one set, which a
    /// selection finds without sorting the rest.
    pub(crate) fn end_sweep(&mut self) {
        if self.map.len() <= self.capacity {
            return;
        }
        let mut order: Vec<(u64, CacheKey)> = self
            .map
            .iter()
            .map(|(key, entry)| (entry.last_used, *key))
            .collect();
        let excess = self.map.len() - self.capacity;
        order.select_nth_unstable(excess - 1);
        for &(_, key) in order.iter().take(excess) {
            self.map.remove(&key);
            self.evictions += 1;
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a folding step over a 64-bit word (the same word-at-a-time
/// variant the golden-digest tests use).
#[inline]
fn fnv_mix(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Content hash of one prepared series: length plus every sample's bit
/// pattern, so any change to any sample (or a reorder) changes the key.
pub(crate) fn series_fingerprint(series: &[f64]) -> u64 {
    let mut hash = fnv_mix(FNV_OFFSET, series.len() as u64);
    for &v in series {
        hash = fnv_mix(hash, v.to_bits());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_insert_roundtrip_and_counters() {
        let mut cache = ComparisonCache::new(8);
        cache.begin_sweep();
        let key = (1, 2, 3);
        assert_eq!(cache.probe(key), None);
        cache.insert(key, 4.25);
        assert_eq!(cache.probe(key), Some(4.25));
        cache.end_sweep();
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_by_generation_then_key_order() {
        let mut cache = ComparisonCache::new(2);
        cache.begin_sweep();
        cache.insert((0, 0, 1), 1.0);
        cache.insert((0, 0, 2), 2.0);
        cache.end_sweep();
        // Second sweep touches only key 2 and adds key 3: key 1 is now
        // the oldest and must be the eviction victim.
        cache.begin_sweep();
        assert_eq!(cache.probe((0, 0, 2)), Some(2.0));
        cache.insert((0, 0, 3), 3.0);
        cache.end_sweep();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.probe((0, 0, 1)), None);
        assert_eq!(cache.probe((0, 0, 2)), Some(2.0));
        assert_eq!(cache.probe((0, 0, 3)), Some(3.0));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn same_generation_ties_evict_in_key_order() {
        let mut cache = ComparisonCache::new(1);
        cache.begin_sweep();
        cache.insert((0, 9, 9), 9.0);
        cache.insert((0, 1, 1), 1.0);
        cache.end_sweep();
        // Both entries share a generation; the smaller key goes first.
        assert_eq!(cache.probe((0, 1, 1)), None);
        assert_eq!(cache.probe((0, 9, 9)), Some(9.0));
    }

    #[test]
    fn clear_keeps_cumulative_counters() {
        let mut cache = ComparisonCache::new(4);
        cache.begin_sweep();
        cache.insert((1, 1, 1), 1.0);
        let _ = cache.probe((1, 1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ComparisonCache::new(0);
    }

    #[test]
    fn series_fingerprint_is_content_sensitive() {
        let a = [-70.0, -71.0, -69.5];
        let mut b = a;
        assert_eq!(series_fingerprint(&a), series_fingerprint(&b));
        b[1] = -71.000000001;
        assert_ne!(series_fingerprint(&a), series_fingerprint(&b));
        // Length participates: a truncation changes the key even when
        // the retained prefix matches.
        assert_ne!(series_fingerprint(&a), series_fingerprint(&a[..2]));
        // Sign-of-zero participates too (bit pattern, not value).
        assert_ne!(series_fingerprint(&[0.0]), series_fingerprint(&[-0.0]));
    }
}
