//! City-scale sharded runtime benchmark: wall-clock scaling over shard
//! count at fixed per-shard load, plus worker-thread scaling at the
//! largest fleet.
//!
//! Each shard is one observer watching its own synthetic neighbourhood
//! (`IDS_PER_SHARD` identities beaconing for one full detection window),
//! so doubling the shard count doubles the total work while leaving each
//! shard's cost unchanged — a near-linear wall-clock curve over shard
//! count at a fixed worker count is exactly what shards that share
//! nothing, run on a fork-join over in-memory feeds, should deliver. The
//! largest row runs ≥1k observers over ≥100k distinct identities.
//!
//! Thread count follows `VP_NUM_THREADS` (default: all cores), and every
//! row records its worker count. A 1-worker run writes
//! `results/BENCH_city.json`; a run at `t` ≠ 1 workers writes
//! `results/BENCH_city_{t}t.json` instead, so the 1- and 2-worker runs
//! sit side by side.
//!
//! `--smoke` runs the CI correctness gate instead: a small fleet
//! asserting the sharded city (any worker count) is bit-identical to an
//! unsharded per-observer reference replay, fused output included (no
//! files written).

use std::time::Instant;

use voiceprint::ThresholdPolicy;
use vp_city::{fuse, run_city, CityConfig, FusionConfig, ObserverFeed, ShardOutcome};
use vp_fault::Beacon;
use vp_runtime::{RuntimeConfig, StreamingRuntime};
use vp_sim::engine::TapBeacon;
use vp_stats::rng::SplitMix64;

/// Distinct identities heard by each observer.
const IDS_PER_SHARD: u64 = 100;
/// Beacon ticks per identity (one per ~0.33 s over a 20 s window).
const TICKS: u32 = 60;
/// End of the simulated interval, seconds: one detection boundary at
/// 20 s plus slack so the final `advance_to` runs it.
const END_S: f64 = 21.0;

/// Per-shard runtime: paper cadence with the sample floor lowered to the
/// synthetic beacon rate. The calibrated boundary matches the default
/// per-step banded-DTW distance scale — the paper-axis boundary would
/// flag nearly every honest pair at this density.
fn runtime_config() -> RuntimeConfig {
    let mut config = RuntimeConfig::paper_default(ThresholdPolicy::calibrated_simulation());
    // Both floors, or the comparator silently drops every series: the
    // collector's sample floor and the comparison phase's length floor.
    config.min_samples_per_series = 50;
    config.comparison.min_series_len = 50;
    config
}

/// Deterministic per-(shape, tick) RSSI jitter in roughly [-6, 6] dBm:
/// the first SplitMix64 word of a per-(shape, tick) seed. Independent
/// hash streams give honest identities maximally dissimilar series under
/// DTW, so only the deliberately cloned pair should fuse as Sybil.
fn jitter(shape: u64, tick: u32) -> f64 {
    let seed = shape
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(u64::from(tick));
    let z = SplitMix64::seed_from_u64(seed).next_u64();
    (z as f64 / u64::MAX as f64) * 12.0 - 6.0
}

/// The synthetic feed of observer `shard`: `IDS_PER_SHARD` identities
/// (globally unique across shards), two of which share an RSSI shape —
/// every cell has one Sybil pair to keep the comparison phase honest.
fn feed(shard: u64, ids_per_shard: u64) -> ObserverFeed {
    let base = shard * ids_per_shard;
    let mut beacons = Vec::with_capacity((ids_per_shard * TICKS as u64) as usize);
    for k in 0..TICKS {
        let t = k as f64 * (20.0 / TICKS as f64);
        for i in 0..ids_per_shard {
            let id = base + i;
            // Identity 1 clones identity 0's shape (offset only).
            let shape = base + if i == 1 { 0 } else { i };
            let rssi = -72.0 + jitter(shape, k) + if i == 1 { 0.25 } else { 0.0 };
            beacons.push(TapBeacon {
                arrival_s: t,
                beacon: Beacon::new(id, t + i as f64 * 1e-4, rssi),
            });
        }
    }
    ObserverFeed {
        observer: shard,
        cell: shard, // one observer per cell: the city's widest layout
        beacons,
    }
}

fn city_config(workers: usize) -> CityConfig {
    let mut config = CityConfig::new(runtime_config());
    config.worker_threads = workers;
    config
}

/// Wall-clock seconds of one city run over `shards` shards.
fn timed_run(shards: u64, workers: usize) -> (f64, usize) {
    let feeds: Vec<ObserverFeed> = (0..shards).map(|s| feed(s, IDS_PER_SHARD)).collect();
    let t0 = Instant::now();
    let out = run_city(&feeds, END_S, &city_config(workers)).expect("bench city runs");
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(out.shards.len(), shards as usize);
    let suspects: usize = out.fused.iter().map(|r| r.suspects.len()).sum();
    // Every shard's Sybil pair should surface through fusion; an empty
    // suspect set would mean the bench stopped measuring real sweeps.
    assert!(suspects > 0, "bench fleet produced no fused suspects");
    (elapsed, suspects)
}

/// CI gate: the sharded city equals an unsharded per-observer reference
/// replay (the scenario driver's loop, inline), fused output included.
fn smoke() {
    let shards = 8u64;
    let ids = 12u64;
    let feeds: Vec<ObserverFeed> = (0..shards).map(|s| feed(s, ids)).collect();

    // Unsharded reference: replay each feed through a runtime directly.
    let reference: Vec<ShardOutcome> = feeds
        .iter()
        .map(|f| {
            let mut rt = StreamingRuntime::new(runtime_config()).expect("valid config");
            let mut rounds = Vec::new();
            for tb in &f.beacons {
                rounds.extend(rt.advance_to(tb.arrival_s));
                rt.offer(tb.arrival_s, tb.beacon);
            }
            rounds.extend(rt.advance_to(END_S));
            ShardOutcome {
                observer: f.observer,
                cell: f.cell,
                counters: rt.counters(),
                final_degrade_level: rt.degrade_level(),
                cache_stats: rt.cache_stats(),
                checkpoint: rt.checkpoint(),
                rounds,
            }
        })
        .collect();
    let reference_fused = fuse(&reference, &FusionConfig::majority());
    assert!(
        reference_fused.iter().any(|r| !r.suspects.is_empty()),
        "smoke fleet must flag its Sybil pairs"
    );

    for workers in [1usize, 4] {
        let out = run_city(&feeds, END_S, &city_config(workers)).expect("smoke city runs");
        assert_eq!(out.shards, reference, "workers={workers}: shards diverged");
        assert_eq!(
            out.fused, reference_fused,
            "workers={workers}: fusion diverged"
        );
    }
    println!(
        "city smoke OK: {} shards x {} ids, sharded == unsharded reference (fused included)",
        shards, ids
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let max_workers = vp_par::max_threads();
    println!(
        "city scaling, {IDS_PER_SHARD} identities/shard, {TICKS} beacons/identity, \
         {max_workers} worker thread(s)"
    );
    println!(
        "{:>7} {:>10} {:>11} {:>9} {:>11} {:>9}",
        "shards", "observers", "identities", "wall s", "shards/s", "suspects"
    );

    // Shard-count scaling at the full worker pool: fixed per-shard load,
    // so near-linear total wall clock == flat shards/s.
    let mut rows = Vec::new();
    for shards in [128u64, 256, 512, 1024] {
        let (secs, suspects) = timed_run(shards, max_workers);
        let rate = shards as f64 / secs;
        println!(
            "{:>7} {:>10} {:>11} {:>9.3} {:>11.1} {:>9}",
            shards,
            shards,
            shards * IDS_PER_SHARD,
            secs,
            rate,
            suspects
        );
        rows.push(format!(
            "    {{\"workers\": {max_workers}, \"shards\": {shards}, \"observers\": {shards}, \
             \"identities\": {}, \"wall_s\": {secs:.4}, \"shards_per_s\": {rate:.2}, \
             \"fused_suspects\": {suspects}}}",
            shards * IDS_PER_SHARD
        ));
    }

    // Worker-thread scaling at the largest fleet (single row on a
    // one-core box — nothing to compare against).
    let mut worker_counts = vec![1usize];
    if max_workers > 1 {
        worker_counts.push(max_workers);
    }
    let mut thread_rows = Vec::new();
    for workers in worker_counts {
        let (secs, _) = timed_run(1024, workers);
        println!("1024 shards @ {workers} worker(s): {secs:.3} s");
        thread_rows.push(format!(
            "    {{\"workers\": {workers}, \"shards\": 1024, \"wall_s\": {secs:.4}}}"
        ));
    }

    let json = format!(
        "{{\n  \"ids_per_shard\": {IDS_PER_SHARD},\n  \"ticks_per_identity\": {TICKS},\n  \
         \"worker_threads\": {max_workers},\n  \"shard_scaling\": [\n{}\n  ],\n  \
         \"thread_scaling\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        thread_rows.join(",\n"),
    );
    let path = if max_workers == 1 {
        "results/BENCH_city.json".to_string()
    } else {
        format!("results/BENCH_city_{max_workers}t.json")
    };
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, &json).expect("write the city bench JSON");
    println!("wrote {path}");
}
