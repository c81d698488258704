//! Bounded beacon ingest queue with priority-aware load shedding.
//!
//! The queue sits between the radio and the detection loop. Its capacity
//! is a hard bound: when a beacon arrives at a full queue, one already-
//! queued beacon is shed to make room — the **oldest sample of the
//! densest identity**. A Sybil storm inflates exactly the identities it
//! fabricates, so densest-first shedding pushes overload damage onto the
//! attacker's series first while honest neighbours keep their samples.
//! Ties between equally dense identities break by a seeded hash (then by
//! id), so shedding is deterministic per seed without any RNG state to
//! checkpoint.
//!
//! # Cost model
//!
//! Below capacity the queue is a plain FIFO: [`BeaconQueue::offer`]
//! pushes, [`BeaconQueue::drain_until`] pops, and neither keeps any
//! per-identity state. The attacker chooses how many beacons arrive, so
//! shedding must not cost a scan of the queue:
//!
//! * The first shed at capacity builds a shedding index with one scan of
//!   the queue in order: for each queued identity, its tie-break (hashed
//!   once) and a FIFO of its beacons' queue positions, plus an ordered
//!   set of `(count, tie-break, id)` whose largest element names the
//!   victim.
//! * While the queue stays full every offer sheds, and the shed and the
//!   offer each update the index in O(log k) for k queued identities
//!   (amortised over compactions).
//! * An identity leaves the index with its last live beacon, so the
//!   index never holds more than `capacity` identities, however many the
//!   attacker churns through.
//! * The next drain drops the index, so the scan that builds it runs at
//!   most once between two drains (once per detection round in
//!   `StreamingRuntime`).
//!
//! A shed beacon is not removed from the middle of the deque. Its slot is
//! marked dead in place — a NaN arrival time, which no live beacon can
//! carry because `offer` quarantines non-finite arrivals — and `len`,
//! `drain_until` and `snapshot` skip it. Once more than `capacity / 4`
//! slots are dead they are compacted in one pass, so live plus dead
//! slots never exceed `capacity + capacity / 4`.
//!
//! The victim is the one a scan of every queued identity would pick: the
//! largest `(count, tie-break, id)`, then that identity's oldest queued
//! beacon. The queue's contents, snapshots and every verdict downstream
//! are therefore the same as with the scan (`tests/queue_oracle.rs` runs
//! the scan as a reference).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use vp_fault::Beacon;

/// One queued beacon: the beacon as decoded plus its true arrival time
/// (which drives window boundaries; the two differ under clock skew).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedBeacon {
    /// Arrival time at the radio, seconds.
    pub arrival_s: f64,
    /// The decoded beacon (possibly carrying a corrupted timestamp).
    pub beacon: Beacon,
}

impl QueuedBeacon {
    /// `false` for a slot whose beacon was shed (see the module docs).
    fn is_live(&self) -> bool {
        !self.arrival_s.is_nan()
    }
}

/// Bounded FIFO of decoded beacons with densest-first shedding.
#[derive(Debug, Clone)]
pub struct BeaconQueue {
    capacity: usize,
    seed: u64,
    /// Live beacons in queue order, interleaved with dead (shed) slots.
    slots: VecDeque<QueuedBeacon>,
    dead: usize,
    /// Present from the first shed at capacity until the next drain.
    index: Option<ShedIndex>,
    shed: u64,
    quarantined: u64,
}

/// The shedding index of a full queue (see the module docs).
#[derive(Debug, Clone)]
struct ShedIndex {
    identities: BTreeMap<u64, Identity>,
    /// `(count, tie-break, id)` of every identity with a live beacon; the
    /// last element is the next victim.
    order: BTreeSet<(usize, u64, u64)>,
}

/// One queued identity's entry in the [`ShedIndex`].
#[derive(Debug, Clone)]
struct Identity {
    tie: u64,
    /// Slot positions of the identity's live beacons, oldest first.
    positions: VecDeque<usize>,
}

/// FNV-1a over the id bytes, keyed by the queue seed: the deterministic
/// tie-break between equally dense identities.
fn tie_break(seed: u64, id: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for byte in id.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Identity {
    /// A new entry: the one place its tie-break is hashed.
    fn new(seed: u64, id: u64) -> Self {
        Identity {
            tie: tie_break(seed, id),
            positions: VecDeque::new(),
        }
    }
}

impl ShedIndex {
    /// Indexes the live slots with one scan in queue order.
    fn build(seed: u64, slots: &VecDeque<QueuedBeacon>) -> Self {
        let mut identities = BTreeMap::new();
        for (pos, slot) in slots.iter().enumerate().filter(|(_, s)| s.is_live()) {
            let id = slot.beacon.identity;
            identities
                .entry(id)
                .or_insert_with(|| Identity::new(seed, id))
                .positions
                .push_back(pos);
        }
        let order = identities
            .iter()
            .map(|(&id, e)| (e.positions.len(), e.tie, id))
            .collect();
        ShedIndex { identities, order }
    }

    /// Removes the victim from the index and returns its slot position.
    /// An identity left with no live beacon leaves the index, so identity
    /// churn cannot grow it past the queue's capacity.
    fn pop_victim(&mut self) -> Option<usize> {
        let (count, tie, id) = self.order.pop_last()?;
        if count > 1 {
            self.order.insert((count - 1, tie, id));
            self.identities.get_mut(&id)?.positions.pop_front()
        } else {
            self.identities.remove(&id)?.positions.pop_front()
        }
    }

    /// Records a beacon of `id` appended at slot position `pos`.
    fn push(&mut self, seed: u64, id: u64, pos: usize) {
        let e = self
            .identities
            .entry(id)
            .or_insert_with(|| Identity::new(seed, id));
        let count = e.positions.len();
        if count > 0 {
            self.order.remove(&(count, e.tie, id));
        }
        e.positions.push_back(pos);
        self.order.insert((count + 1, e.tie, id));
    }

    /// Re-reads every position after the slots were compacted; counts,
    /// and so `order`, are unchanged.
    fn reposition(&mut self, slots: &VecDeque<QueuedBeacon>) {
        for e in self.identities.values_mut() {
            e.positions.clear();
        }
        for (pos, slot) in slots.iter().enumerate() {
            if let Some(e) = self.identities.get_mut(&slot.beacon.identity) {
                e.positions.push_back(pos);
            }
        }
    }
}

impl BeaconQueue {
    /// Creates a queue holding at most `capacity` beacons (floored at 1).
    pub fn new(capacity: usize, seed: u64) -> Self {
        BeaconQueue {
            capacity: capacity.max(1),
            seed,
            slots: VecDeque::new(),
            dead: 0,
            index: None,
            shed: 0,
            quarantined: 0,
        }
    }

    /// Number of queued beacons.
    pub fn len(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total beacons shed since construction (or restore).
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Beacons rejected at [`BeaconQueue::offer`] for a non-finite
    /// arrival time. Diagnostic only — not part of a snapshot.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined
    }

    /// Enqueues a beacon, shedding one queued beacon first if the queue
    /// is full. Returns `true` when the beacon was absorbed without
    /// shedding, `false` when a shed was required (the new beacon is
    /// still queued either way).
    ///
    /// Arrivals are expected in nondecreasing `arrival_s` order; a beacon
    /// offered out of order is still kept but only drains once the queue
    /// head passes it.
    ///
    /// A beacon with a non-finite arrival time is quarantined instead of
    /// queued (counted by [`BeaconQueue::quarantined_count`]): drain uses
    /// `arrival_s < t_s`, which is false for NaN at *every* boundary, so
    /// one poisoned entry at the head would wedge the queue and starve
    /// every beacon behind it — exactly the opening a mid-window identity
    /// churn attack needs to blind the observer.
    pub fn offer(&mut self, qb: QueuedBeacon) -> bool {
        if !qb.arrival_s.is_finite() {
            self.quarantined += 1;
            return true;
        }
        let clean = self.len() < self.capacity;
        if !clean {
            self.shed_one();
        }
        if let Some(index) = &mut self.index {
            index.push(self.seed, qb.beacon.identity, self.slots.len());
        }
        self.slots.push_back(qb);
        clean
    }

    /// Sheds the oldest queued beacon of the densest identity.
    fn shed_one(&mut self) {
        let index = self
            .index
            .get_or_insert_with(|| ShedIndex::build(self.seed, &self.slots));
        let Some(slot) = index.pop_victim().and_then(|pos| self.slots.get_mut(pos)) else {
            return;
        };
        slot.arrival_s = f64::NAN;
        self.dead += 1;
        self.shed += 1;
        if self.dead > self.capacity / 4 {
            self.slots.retain(QueuedBeacon::is_live);
            self.dead = 0;
            index.reposition(&self.slots);
        }
    }

    /// Pops every queued beacon that arrived strictly before `t_s`, in
    /// queue order. Strict: a beacon arriving exactly at a detection
    /// boundary belongs to the *next* window, matching the batch engine's
    /// interval bookkeeping.
    pub fn drain_until(&mut self, t_s: f64) -> Vec<QueuedBeacon> {
        self.index = None;
        let mut out = Vec::new();
        while let Some(&front) = self.slots.front() {
            if !front.is_live() {
                self.dead -= 1;
            } else if front.arrival_s < t_s {
                out.push(front);
            } else {
                break;
            }
            self.slots.pop_front();
        }
        out
    }

    /// Serializable view: `(shed count, queued beacons in order)`.
    pub fn snapshot(&self) -> (u64, Vec<QueuedBeacon>) {
        let items = self.slots.iter().filter(|s| s.is_live()).copied();
        (self.shed, items.collect())
    }

    /// Rebuilds a queue from a [`BeaconQueue::snapshot`], under a
    /// possibly different capacity/seed (configuration is code, state is
    /// data). Items beyond the new capacity are shed densest-first.
    pub fn restore(capacity: usize, seed: u64, shed: u64, items: Vec<QueuedBeacon>) -> Self {
        let mut q = BeaconQueue::new(capacity, seed);
        q.shed = shed;
        for qb in items {
            q.offer(qb);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qb(id: u64, arrival: f64) -> QueuedBeacon {
        QueuedBeacon {
            arrival_s: arrival,
            beacon: Beacon::new(id, arrival, -70.0),
        }
    }

    #[test]
    fn fifo_below_capacity() {
        let mut q = BeaconQueue::new(10, 0);
        for k in 0..5 {
            assert!(q.offer(qb(k, k as f64)));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.shed_count(), 0);
        let drained = q.drain_until(3.0);
        assert_eq!(
            drained
                .iter()
                .map(|b| b.beacon.identity)
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_is_strictly_before_the_boundary() {
        let mut q = BeaconQueue::new(10, 0);
        q.offer(qb(1, 19.9));
        q.offer(qb(2, 20.0));
        let drained = q.drain_until(20.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].beacon.identity, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn overflow_sheds_oldest_of_densest_identity() {
        let mut q = BeaconQueue::new(6, 42);
        // Identity 7 is densest (4 of 6 slots); 1 and 2 hold one each.
        q.offer(qb(1, 0.0));
        for k in 0..4 {
            q.offer(qb(7, 1.0 + k as f64));
        }
        q.offer(qb(2, 5.0));
        assert!(!q.offer(qb(3, 6.0)), "overflow must report the shed");
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.len(), 6);
        let ids: Vec<u64> = q
            .drain_until(100.0)
            .iter()
            .map(|b| b.beacon.identity)
            .collect();
        // 7's oldest sample (arrival 1.0) is gone; everything else intact.
        assert_eq!(ids, vec![1, 7, 7, 7, 2, 3]);
    }

    #[test]
    fn repeated_overflow_keeps_shedding_the_densest() {
        let mut q = BeaconQueue::new(4, 0);
        for k in 0..4 {
            q.offer(qb(9, k as f64));
        }
        // Four honest arrivals displace 9's samples one by one.
        for k in 0..3 {
            q.offer(qb(k, 10.0 + k as f64));
        }
        assert_eq!(q.shed_count(), 3);
        let remaining: Vec<u64> = q
            .drain_until(100.0)
            .iter()
            .map(|b| b.beacon.identity)
            .collect();
        assert_eq!(remaining, vec![9, 0, 1, 2]);
    }

    #[test]
    fn equal_density_tie_break_is_seeded_and_deterministic() {
        let run = |seed: u64| {
            let mut q = BeaconQueue::new(4, seed);
            for id in [10, 11, 12, 13] {
                q.offer(qb(id, id as f64));
            }
            q.offer(qb(99, 50.0));
            q.drain_until(100.0)
                .iter()
                .map(|b| b.beacon.identity)
                .collect::<Vec<_>>()
        };
        // Deterministic per seed…
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
        // …and the victim actually depends on the seed for at least one
        // of a handful of seeds (hash tie-break, not a fixed id bias).
        let baseline = run(0);
        assert!(
            (1..8).any(|s| run(s) != baseline),
            "tie-break ignores the seed"
        );
    }

    #[test]
    fn an_endless_storm_keeps_memory_within_the_slot_bound() {
        assert_eq!(std::mem::size_of::<QueuedBeacon>(), 32);
        let capacity = 100;
        // Three identities of skewed density, then a fresh identity per
        // beacon (churn).
        let storms: [fn(usize) -> u64; 2] = [|k| [7, 7, 8, 9][k % 4], |k| k as u64];
        for (storm, identity) in storms.into_iter().enumerate() {
            let mut q = BeaconQueue::new(capacity, 9);
            let mut most_slots = 0;
            for k in 0..200_000 + capacity {
                q.offer(qb(identity(k), k as f64 * 0.01));
                assert_eq!(q.len(), capacity.min(k + 1), "storm {storm} offer {k}");
                let slots = q.slots.len();
                assert!(
                    slots <= capacity + capacity / 4,
                    "storm {storm} offer {k}: {slots} slots"
                );
                let indexed = q.index.as_ref().map_or(0, |i| i.identities.len());
                assert!(
                    indexed <= capacity,
                    "storm {storm} offer {k}: {indexed} identities indexed"
                );
                most_slots = most_slots.max(slots);
            }
            assert_eq!(q.shed_count(), 200_000, "storm {storm}");
            assert!(most_slots > capacity, "storm {storm}: no dead slot");
        }
    }

    #[test]
    fn non_finite_arrival_cannot_wedge_the_queue() {
        // Regression: a NaN arrival at the head used to stall
        // drain_until forever (`NaN < t` is always false), starving every
        // beacon queued behind it.
        let mut q = BeaconQueue::new(10, 0);
        assert!(q.offer(qb(6, f64::NAN)));
        assert!(q.offer(qb(6, f64::INFINITY)));
        q.offer(qb(1, 1.0));
        q.offer(qb(2, 2.0));
        assert_eq!(q.quarantined_count(), 2);
        assert_eq!(q.len(), 2, "poisoned entries must not occupy slots");
        let drained: Vec<u64> = q
            .drain_until(10.0)
            .iter()
            .map(|b| b.beacon.identity)
            .collect();
        assert_eq!(drained, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn restore_scrubs_poisoned_checkpoint_entries() {
        let items = vec![qb(6, f64::NAN), qb(1, 1.0)];
        let mut q = BeaconQueue::restore(10, 0, 0, items);
        assert_eq!(q.quarantined_count(), 1);
        assert_eq!(q.drain_until(10.0).len(), 1);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut q = BeaconQueue::new(4, 3);
        for id in [5, 5, 6] {
            q.offer(qb(id, id as f64));
        }
        for _ in 0..3 {
            q.offer(qb(8, 40.0)); // one overflow once full
        }
        let (shed, items) = q.snapshot();
        let mut restored = BeaconQueue::restore(4, 3, shed, items.clone());
        assert_eq!(restored.shed_count(), q.shed_count());
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.drain_until(100.0), q.drain_until(100.0));
    }
}
