//! The indexed `BeaconQueue` sheds exactly what a scan of every queued
//! identity sheds.
//!
//! `ScanQueue` below states the shedding rule as directly as possible: a
//! count per identity, a scan of all of them for the largest
//! `(count, tie-break, id)` at every shed, and a search of the deque for
//! that identity's oldest beacon. Seeded random traces of
//! offers (in and out of order, some with non-finite arrivals), drains and
//! snapshot/restore round trips drive both queues; after every step they
//! must agree bit for bit on everything the public API shows.

use std::collections::{HashMap, VecDeque};

use vp_fault::Beacon;
use vp_runtime::{BeaconQueue, QueuedBeacon};
use vp_stats::rng::SplitMix64;

const CASES: u64 = 2_000;
const STEPS: usize = 400;

/// Reference queue: densest-first shedding by a scan per shed.
struct ScanQueue {
    capacity: usize,
    seed: u64,
    items: VecDeque<QueuedBeacon>,
    counts: HashMap<u64, usize>,
    shed: u64,
    quarantined: u64,
}

fn tie_break(seed: u64, id: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for byte in id.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl ScanQueue {
    fn new(capacity: usize, seed: u64) -> Self {
        ScanQueue {
            capacity: capacity.max(1),
            seed,
            items: VecDeque::new(),
            counts: HashMap::new(),
            shed: 0,
            quarantined: 0,
        }
    }

    fn offer(&mut self, qb: QueuedBeacon) -> bool {
        if !qb.arrival_s.is_finite() {
            self.quarantined += 1;
            return true;
        }
        let clean = if self.items.len() >= self.capacity {
            self.shed_one();
            false
        } else {
            true
        };
        *self.counts.entry(qb.beacon.identity).or_insert(0) += 1;
        self.items.push_back(qb);
        clean
    }

    fn shed_one(&mut self) {
        let Some((&victim, _)) = self
            .counts
            // vp-lint: allow(nondeterministic-iteration) — max_by_key key (count, seeded hash, unique id) is a total order, so the victim is hasher-independent
            .iter()
            .filter(|(_, &c)| c > 0)
            .max_by_key(|(&id, &c)| (c, tie_break(self.seed, id), id))
        else {
            return;
        };
        if let Some(pos) = self.items.iter().position(|q| q.beacon.identity == victim) {
            self.items.remove(pos);
            self.decrement(victim);
            self.shed += 1;
        }
    }

    fn decrement(&mut self, id: u64) {
        if let Some(c) = self.counts.get_mut(&id) {
            *c -= 1;
            if *c == 0 {
                self.counts.remove(&id);
            }
        }
    }

    fn drain_until(&mut self, t_s: f64) -> Vec<QueuedBeacon> {
        let mut out = Vec::new();
        while self
            .items
            .front()
            .is_some_and(|front| front.arrival_s < t_s)
        {
            let Some(qb) = self.items.pop_front() else {
                break;
            };
            self.decrement(qb.beacon.identity);
            out.push(qb);
        }
        out
    }

    fn snapshot(&self) -> (u64, Vec<QueuedBeacon>) {
        (self.shed, self.items.iter().copied().collect())
    }

    fn restore(capacity: usize, seed: u64, shed: u64, items: Vec<QueuedBeacon>) -> Self {
        let mut q = ScanQueue::new(capacity, seed);
        q.shed = shed;
        for qb in items {
            q.offer(qb);
        }
        q
    }
}

/// Every bit of a beacon sequence, so NaN fields compare too.
fn bits(items: &[QueuedBeacon]) -> Vec<[u64; 4]> {
    items
        .iter()
        .map(|q| {
            [
                q.arrival_s.to_bits(),
                q.beacon.identity,
                q.beacon.time_s.to_bits(),
                q.beacon.rssi_dbm.to_bits(),
            ]
        })
        .collect()
}

fn assert_agree(case: u64, step: usize, fast: &BeaconQueue, scan: &ScanQueue) {
    assert_eq!(fast.len(), scan.items.len(), "case {case} step {step}: len");
    assert_eq!(
        fast.is_empty(),
        scan.items.is_empty(),
        "case {case} step {step}"
    );
    assert_eq!(
        fast.shed_count(),
        scan.shed,
        "case {case} step {step}: shed"
    );
    assert_eq!(
        fast.quarantined_count(),
        scan.quarantined,
        "case {case} step {step}: quarantined"
    );
    let (fast_shed, fast_items) = fast.snapshot();
    let (scan_shed, scan_items) = scan.snapshot();
    assert_eq!(fast_shed, scan_shed, "case {case} step {step}: snapshot");
    assert_eq!(
        bits(&fast_items),
        bits(&scan_items),
        "case {case} step {step}: snapshot"
    );
}

/// Draws an identity index with probability proportional to `weights`.
fn pick(rng: &mut SplitMix64, weights: &[u64]) -> usize {
    let mut r = rng.range_u64(0..weights.iter().sum::<u64>());
    for (k, &w) in weights.iter().enumerate() {
        if r < w {
            return k;
        }
        r -= w;
    }
    weights.len() - 1
}

#[test]
fn indexed_queue_sheds_exactly_what_the_scan_sheds() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(case);
        let mut capacity = rng.range_usize(1..=40);
        let seed = rng.next_u64();
        // Small and arbitrary ids, each with a skewed beacon rate. Equal
        // counts are common, so the seeded tie-break often decides.
        let ids: Vec<u64> = (0..rng.range_usize(1..=12))
            .map(|k| {
                if rng.fair_bool() {
                    k as u64
                } else {
                    rng.next_u64()
                }
            })
            .collect();
        let weights: Vec<u64> = ids.iter().map(|_| 1 << rng.range_u64(0..=6)).collect();
        let mut fast = BeaconQueue::new(capacity, seed);
        let mut scan = ScanQueue::new(capacity, seed);
        let mut clock = 0.0f64;
        for step in 0..STEPS {
            let action = rng.range_u64(0..100);
            if action < 88 {
                clock += rng.range_f64(0.0..0.2);
                let arrival = match rng.range_u64(0..50) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3..=6 => clock - rng.range_f64(0.0..5.0),
                    _ => clock,
                };
                let id = ids[pick(&mut rng, &weights)];
                let time_s = if rng.gen_bool(0.02) {
                    f64::NAN
                } else {
                    arrival
                };
                let qb = QueuedBeacon {
                    arrival_s: arrival,
                    beacon: Beacon::new(id, time_s, rng.range_f64(-95.0..-40.0)),
                };
                assert_eq!(
                    fast.offer(qb),
                    scan.offer(qb),
                    "case {case} step {step}: offer"
                );
            } else if action < 96 {
                let t = match rng.range_u64(0..20) {
                    0 => f64::NAN,
                    _ => clock - rng.range_f64(-1.0..3.0),
                };
                assert_eq!(
                    bits(&fast.drain_until(t)),
                    bits(&scan.drain_until(t)),
                    "case {case} step {step}: drain_until({t})"
                );
            } else {
                capacity = rng.range_usize(1..=capacity);
                let (shed, items) = fast.snapshot();
                fast = BeaconQueue::restore(capacity, seed, shed, items.clone());
                scan = ScanQueue::restore(capacity, seed, shed, items);
            }
            assert_agree(case, step, &fast, &scan);
        }
    }
}
