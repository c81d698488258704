//! Pairwise-comparison engine benchmark — sequential vs parallel vs
//! lower-bound-pruned vs the full cascade (sketch triage + LB_Keogh +
//! early-abandon DTW), at paper-scale and beyond (16–1024 identities;
//! 200 samples ≈ 20 s observation at 10 Hz).
//!
//! Writes `results/BENCH_compare.json` with per-size wall-clock medians,
//! the parallel speedup, and a sliding-window section reporting the
//! cross-window cache's steady-state hit rate, the sketch triage
//! rejection rate and the speedup over the exact sweep. Thread count
//! follows `VP_NUM_THREADS` (default: all cores), and every row records
//! it; a run at `t` ≠ 1 threads writes `results/BENCH_compare_{t}t.json`
//! instead, so the 1- and 2-thread runs sit side by side.
//!
//! `--smoke` runs the CI correctness gate instead: a small sliding
//! sweep asserting cascade results equal the exact sweep, and each
//! round's cascade counters (sketch triage rejections, LB_Keogh prunes,
//! abandoned DPs, cache hits) equal their pins. The counters are
//! deterministic, so the gate never reads a clock, and a loosened bound
//! moves them. No files are written.
//!
//! The 1-thread run also writes `results/BENCH_obs.json` with the
//! observability layer's overhead: one compare + confirm round with no
//! sink, an in-memory sink and a JSON-lines sink installed.

use std::time::Instant;

use voiceprint::comparator::{compare, compare_sequential, compare_with_cache, ComparisonConfig};
use voiceprint::confirm::confirm;
use voiceprint::threshold::ThresholdPolicy;
use voiceprint::ComparisonCache;

fn neighbourhood(n: usize, samples: usize) -> Vec<(u64, Vec<f64>)> {
    (0..n as u64)
        .map(|id| {
            let series: Vec<f64> = (0..samples)
                .map(|k| {
                    ((k as f64 * 0.07 + id as f64 * 0.41).sin()
                        + (k as f64 * 0.019 + id as f64 * 1.3).cos())
                        * 4.0
                        - 72.0
                })
                .collect();
            (id, series)
        })
        .collect()
}

/// One sliding observation window: identity `id`'s series depends only
/// on `id` unless the identity is in `round`'s rotating dirty set, whose
/// members get a round-dependent phase — so consecutive rounds re-present
/// all but ~`dirty` series bit-identically, the workload shape the
/// cross-window cache exists for.
fn sliding_window(n: usize, samples: usize, round: u64, dirty: usize) -> Vec<(u64, Vec<f64>)> {
    (0..n as u64)
        .map(|id| {
            let is_dirty = (id + round) % (n as u64) < dirty as u64;
            let phase = id as f64 * 0.41 + if is_dirty { round as f64 * 0.23 } else { 0.0 };
            let series: Vec<f64> = (0..samples)
                .map(|k| {
                    ((k as f64 * 0.07 + phase).sin() + (k as f64 * 0.019 + id as f64 * 1.3).cos())
                        * 4.0
                        - 72.0
                })
                .collect();
            (id, series)
        })
        .collect()
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Observability overhead at a paper-scale neighbourhood: one full
/// compare + confirm round, timed with no sink installed (each hook one
/// relaxed load), with an in-memory sink, and with a JSON-lines sink
/// draining to a null writer.
///
/// Each rep runs the three back to back, in an order that rotates every
/// rep, and a sink's overhead is the median over reps of its round time
/// over the same rep's no-sink time, so drift in the host's speed
/// cancels. The sweep runs on one thread: at two, the spread between
/// identical rounds is wider than the overhead.
fn bench_obs() {
    use std::sync::Arc;
    use vp_obs::{JsonLinesSink, MemorySink, ScopedSink, Sink};

    let n = 48;
    let samples = 200;
    let series = neighbourhood(n, samples);
    let cfg = ComparisonConfig::default();
    let policy = ThresholdPolicy::paper_simulation();
    let reps = 101;
    let round = |series: &Vec<(u64, Vec<f64>)>| {
        let pd = compare_sequential(std::hint::black_box(series), &cfg);
        std::hint::black_box(confirm(&pd, 15.0, &policy));
    };

    // Warm-up, and a correctness guard: verdicts must not depend on the
    // sink state.
    let base_verdict = confirm(&compare_sequential(&series, &cfg), 15.0, &policy);
    {
        let _guard = ScopedSink::install(Arc::new(MemorySink::new()));
        assert_eq!(
            confirm(&compare_sequential(&series, &cfg), 15.0, &policy),
            base_verdict,
            "observation changed a verdict"
        );
    }

    let sinks: [Option<Arc<dyn Sink>>; 3] = [
        None,
        Some(Arc::new(MemorySink::new())),
        Some(Arc::new(JsonLinesSink::new(std::io::sink()))),
    ];
    let mut ms: [Vec<f64>; 3] = Default::default();
    for rep in 0..reps {
        for k in 0..3 {
            let col = (rep + k) % 3;
            let _guard = sinks[col].clone().map(ScopedSink::install);
            let t0 = Instant::now();
            round(&series);
            ms[col].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let overhead_pct = |col: usize| {
        let ratios = sorted((0..reps).map(|r| ms[col][r] / ms[0][r]).collect());
        (ratios[reps / 2] - 1.0) * 100.0
    };
    let (memory_pct, jsonl_pct) = (overhead_pct(1), overhead_pct(2));
    // (first quartile, median, third quartile) of each column.
    let [no_sink, memory, jsonl] = ms.map(|v| {
        let v = sorted(v);
        (v[reps / 4], v[reps / 2], v[3 * reps / 4])
    });

    println!();
    println!(
        "observability overhead, {n} identities, {samples}-sample series, 1 thread, {reps} reps"
    );
    println!(
        "{:>8} {:>9} {:>17} | overhead vs no sink",
        "sink", "round ms", "quartiles ms"
    );
    for (label, (q1, med, q3), pct) in [
        ("none", no_sink, 0.0),
        ("memory", memory, memory_pct),
        ("jsonl", jsonl, jsonl_pct),
    ] {
        println!("{label:>8} {med:>9.3} {q1:>8.3}–{q3:<8.3} | {pct:+.1}%");
    }
    let column = |name: &str, (q1, med, q3): (f64, f64, f64)| {
        format!("  \"{name}_ms\": {med:.4},\n  \"{name}_ms_quartiles\": [{q1:.4}, {q3:.4}],\n")
    };
    let json = format!(
        concat!(
            "{{\n  \"identities\": {},\n  \"samples_per_series\": {},\n",
            "  \"threads\": 1,\n  \"reps\": {},\n{}{}{}",
            "  \"memory_overhead_pct\": {:.2},\n  \"jsonl_overhead_pct\": {:.2}\n}}\n"
        ),
        n,
        samples,
        reps,
        column("no_sink", no_sink),
        column("memory_sink", memory),
        column("jsonl_sink", jsonl),
        memory_pct,
        jsonl_pct,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote results/BENCH_obs.json");
}

/// Sliding-window benchmark: `rounds` successive windows over `n`
/// identities with a rotating set of ~`dirty` changed series per round,
/// compared through the full cascade (cache → sketch triage → LB_Keogh
/// → early-abandon DTW). Returns one JSON row.
fn bench_sliding_row(
    n: usize,
    samples: usize,
    dirty: usize,
    rounds: u64,
    exact_reps: usize,
    threads: usize,
) -> String {
    let cfg = ComparisonConfig {
        prune_threshold: Some(0.05),
        ..ComparisonConfig::default()
    };
    let exact_cfg = ComparisonConfig::default();
    let pairs = n * (n - 1) / 2;
    let mut cache = ComparisonCache::new(pairs);

    // Exact (uncached, unpruned) sequential reference for the speedup
    // column — the cost a sliding-window caller paid before the cascade.
    let reference = sliding_window(n, samples, 0, dirty);
    let exact = median_secs(exact_reps, || {
        std::hint::black_box(compare_sequential(
            std::hint::black_box(&reference),
            &exact_cfg,
        ));
    });

    let mut warm_ms = 0.0;
    let mut steady: Vec<f64> = Vec::new();
    let mut hits = 0u64;
    let mut probes = 0u64;
    let mut triage = 0u64;
    let mut misses = 0u64;
    for round in 0..rounds {
        let series = sliding_window(n, samples, round, dirty);
        let t0 = Instant::now();
        let (result, counters) = compare_with_cache(&series, &cfg, &mut cache);
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(result);
        if round == 0 {
            // Cold cache: every pair misses; not part of the steady state.
            warm_ms = elapsed * 1e3;
        } else {
            steady.push(elapsed);
            hits += counters.cache_hits;
            probes += counters.pairs;
            misses += counters.cache_misses;
            triage += counters.triage_rejected;
        }
    }
    steady.sort_by(f64::total_cmp);
    let steady_ms = steady[steady.len() / 2] * 1e3;
    let hit_rate = hits as f64 / probes as f64;
    let triage_rate = if misses == 0 {
        0.0
    } else {
        triage as f64 / misses as f64
    };
    let speedup = exact / (steady_ms / 1e3);
    println!(
        "{:>5} {:>12.3} {:>12.3} {:>12.3} {:>9.3} {:>11.3} {:>9.1}x",
        n,
        exact * 1e3,
        warm_ms,
        steady_ms,
        hit_rate,
        triage_rate,
        speedup
    );
    format!(
        concat!(
            "    {{\"threads\": {}, \"identities\": {}, \"pairs\": {}, \"dirty_identities\": {}, ",
            "\"exact_sequential_ms\": {:.4}, \"cold_window_ms\": {:.4}, ",
            "\"steady_window_ms\": {:.4}, \"cache_hit_rate\": {:.4}, ",
            "\"triage_rejection_rate\": {:.4}, \"speedup_vs_exact\": {:.2}}}"
        ),
        threads,
        n,
        pairs,
        dirty,
        exact * 1e3,
        warm_ms,
        steady_ms,
        hit_rate,
        triage_rate,
        speedup
    )
}

/// Pinned cascade counters of the smoke sweep's three rounds:
/// `(triage_rejected, pruned_lb, pruned_abandon, cache_hits)`.
const SMOKE_COUNTERS: [(u64, u64, u64, u64); 3] =
    [(39, 58, 7, 0), (10, 12, 1, 91), (12, 12, 1, 91)];

/// CI smoke mode (`--smoke`): a small sliding-window sweep asserting the
/// cascade's correctness contracts — cached results bit-identical to the
/// uncached sweep under the same configuration, cascade verdicts
/// identical to the exact sweep's, and every round's cascade counters
/// equal to [`SMOKE_COUNTERS`] — then exits without writing results.
fn smoke() {
    let samples = 200;
    let dirty = 2;
    let density = 15.0;
    let policy = ThresholdPolicy::paper_simulation();
    let exact_cfg = ComparisonConfig::default();
    // Verdict identity holds when the prune threshold equals the confirm
    // threshold, as the streaming runtime arms it in a degraded round:
    // every pruned pair's stored lower bound then sits strictly above the
    // very threshold confirmation classifies against.
    let cascade_cfg = ComparisonConfig {
        prune_threshold: Some(policy.threshold_at(density)),
        ..exact_cfg
    };
    let mut cascade_cache = ComparisonCache::new(1024);
    let mut exact_cache = ComparisonCache::new(1024);
    for round in 0..3u64 {
        let series = sliding_window(16, samples, round, dirty);
        // Cache on vs cache off: bit-identical distances, same config.
        let exact = compare_sequential(&series, &exact_cfg);
        let (exact_cached, _) = compare_with_cache(&series, &exact_cfg, &mut exact_cache);
        assert_eq!(exact_cached, exact, "round {round}: cache changed a result");
        // Full cascade vs exact sweep: identical verdicts (pruned pairs
        // store lower bounds above the threshold, so classification —
        // and every flagged pair — must match).
        let (cascade, counters) = compare_with_cache(&series, &cascade_cfg, &mut cascade_cache);
        let v_exact = confirm(&exact, density, &policy);
        let v_cascade = confirm(&cascade, density, &policy);
        assert_eq!(
            v_cascade.suspects(),
            v_exact.suspects(),
            "round {round}: cascade changed the suspect set"
        );
        assert_eq!(
            v_cascade.groups(),
            v_exact.groups(),
            "round {round}: cascade changed the grouping"
        );
        assert_eq!(
            counters.cache_hits + counters.cache_misses,
            counters.pairs,
            "round {round}: counters do not partition the pair set"
        );
        if round > 0 {
            assert!(
                counters.cache_hits > 0,
                "round {round}: sliding window produced no cache hits"
            );
        }
        let seen = (
            counters.triage_rejected,
            counters.pruned_lb,
            counters.pruned_abandon,
            counters.cache_hits,
        );
        println!(
            "round {round}: {} pairs, {} triage-rejected, {} LB-pruned, {} abandoned, {} cache hits",
            counters.pairs, seen.0, seen.1, seen.2, seen.3
        );
        assert_eq!(
            seen, SMOKE_COUNTERS[round as usize],
            "round {round}: cascade counters (triage, LB, abandon, cache hits) moved"
        );
    }
    println!("smoke ok: cascade matches the exact sweep across sliding windows");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let samples = 200;
    let cfg = ComparisonConfig::default();
    // Lower-bound pruning alone (sketch triage ablated) vs the full
    // cascade (sketch → LB_Keogh → early-abandon DTW).
    let lb_cfg = ComparisonConfig {
        prune_threshold: Some(0.05),
        sketch_triage: false,
        ..cfg
    };
    let cascade_cfg = ComparisonConfig {
        prune_threshold: Some(0.05),
        ..cfg
    };
    let threads = vp_par::max_threads();

    let mut rows = Vec::new();
    println!("pairwise comparison, {samples}-sample series, {threads} worker thread(s)");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "n", "seq ms", "par ms", "pruned ms", "cascade ms", "speedup"
    );
    for n in [16usize, 48, 96, 256, 1024] {
        let series = neighbourhood(n, samples);
        if n <= 96 {
            // Warm-up + correctness guard: fault in the pages, spin up the
            // thread pool, and pin parallel == sequential. Skipped for the
            // large rows, where two extra full sweeps dominate the run and
            // the equality is already pinned by tests.
            let baseline = compare_sequential(&series, &cfg);
            assert_eq!(compare(&series, &cfg), baseline, "parallel result diverged");
        }

        let reps = match n {
            0..=48 => 9,
            49..=96 => 5,
            97..=256 => 3,
            _ => 1,
        };
        let seq = median_secs(reps, || {
            std::hint::black_box(compare_sequential(std::hint::black_box(&series), &cfg));
        });
        let par = median_secs(reps, || {
            std::hint::black_box(compare(std::hint::black_box(&series), &cfg));
        });
        let pru = median_secs(reps, || {
            std::hint::black_box(compare(std::hint::black_box(&series), &lb_cfg));
        });
        let cas = median_secs(reps, || {
            std::hint::black_box(compare(std::hint::black_box(&series), &cascade_cfg));
        });
        let speedup = seq / par;
        println!(
            "{:>5} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>7.2}x",
            n,
            seq * 1e3,
            par * 1e3,
            pru * 1e3,
            cas * 1e3,
            speedup
        );
        rows.push(format!(
            concat!(
                "    {{\"threads\": {}, \"identities\": {}, \"pairs\": {}, \"sequential_ms\": {:.4}, ",
                "\"parallel_ms\": {:.4}, \"parallel_pruned_ms\": {:.4}, ",
                "\"cascade_ms\": {:.4}, \"speedup\": {:.3}}}"
            ),
            threads,
            n,
            n * (n - 1) / 2,
            seq * 1e3,
            par * 1e3,
            pru * 1e3,
            cas * 1e3,
            speedup
        ));
    }

    // Sliding-window cascade: the cross-window cache's home turf. ~4
    // identities change per round; the rest re-present bit-identical
    // series and must be answered from the cache.
    println!();
    println!("sliding-window cascade, {samples}-sample series, ~4 dirty identities per round");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>9} {:>11} {:>9}",
        "n", "exact ms", "cold ms", "steady ms", "hit rate", "triage rate", "speedup"
    );
    let sliding_rows = [
        bench_sliding_row(96, samples, 4, 6, 3, threads),
        bench_sliding_row(256, samples, 4, 6, 2, threads),
        bench_sliding_row(1024, samples, 4, 4, 1, threads),
    ];

    let note = if threads == 1 {
        "\n  \"note\": \"single worker thread (1 CPU or VP_NUM_THREADS=1): parallel speedup is bounded at 1x; a 2-thread run writes BENCH_compare_2t.json\","
    } else {
        ""
    };
    let json = format!(
        concat!(
            "{{\n  \"samples_per_series\": {samples},\n  \"threads\": {threads},{note}\n",
            "  \"rows\": [\n{rows}\n  ],\n",
            "  \"sliding_window\": {{\n",
            "    \"description\": \"successive windows, rotating dirty set; cascade = cache + sketch triage + LB_Keogh + early-abandon DTW\",\n",
            "    \"rows\": [\n{sliding}\n    ]\n  }}\n}}\n"
        ),
        samples = samples,
        threads = threads,
        note = note,
        rows = rows.join(",\n"),
        sliding = sliding_rows.join(",\n")
    );
    let path = if threads == 1 {
        "results/BENCH_compare.json".to_string()
    } else {
        format!("results/BENCH_compare_{threads}t.json")
    };
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, &json).expect("write the compare bench JSON");
    println!("wrote {path}");

    // The sink overhead is measured on one thread whatever the budget, so
    // only the 1-thread run writes it.
    if threads == 1 {
        bench_obs();
    }
}
