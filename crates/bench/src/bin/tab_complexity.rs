//! Section VI complexity claim — "the measured average time of comparing
//! two RSSI time series is 0.1995 ms; with 80 neighbouring vehicles the
//! total computing time is only about 630 ms".
//!
//! Wall-clock measurement of the same two quantities on the machine it
//! runs on, plus the per-pair cost of the banded DTW kernel the
//! calibrated default uses (radius 10, 5% of 200 samples) and of exact
//! DTW, for scale. Every per-pair row calls the kernel the comparator
//! runs for that measure, with one reused `DtwScratch`, as a comparison
//! worker does. The last row is the calibrated default's whole
//! comparison phase over the same 80 neighbours — `compare_sequential`
//! with `ComparisonConfig::default()`: Eq. 7, then the banded sweep, which
//! runs same-shape pairs two per wavefront. Whole-round costs live in
//! `bench_compare` and the repository benchmark's `paper80` workload.

use std::hint::black_box;
use std::time::Instant;
use voiceprint::comparator::{compare_sequential, ComparisonConfig};
use vp_timeseries::dtw::{dtw, dtw_banded};
use vp_timeseries::fastdtw::fast_dtw;
use vp_timeseries::normalize::z_score_enhanced;
use vp_timeseries::DtwScratch;

fn series(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|k| (k as f64 * 0.11 + phase).sin() * 4.0 - 70.0)
        .collect()
}

/// Mean milliseconds of one `kernel(a, b, scratch)` call over `reps`
/// calls on one reused scratch; the distances are summed into `acc` so
/// the work cannot be elided.
fn per_pair_ms(
    a: &[f64],
    b: &[f64],
    reps: usize,
    acc: &mut f64,
    kernel: impl Fn(&[f64], &[f64], &mut DtwScratch) -> f64,
) -> f64 {
    let mut scratch = DtwScratch::new();
    let t0 = Instant::now();
    for _ in 0..reps {
        *acc += kernel(black_box(a), black_box(b), &mut scratch);
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn main() {
    // Paper: 20 s observation at 10 Hz → at most 200 samples per series.
    let a = z_score_enhanced(&series(200, 0.0));
    let b = z_score_enhanced(&series(200, 0.7));
    let mut acc = 0.0;
    println!(
        "pair comparison (200-sample FastDTW r=1): {:.4} ms  [paper: 0.1995 ms]",
        per_pair_ms(&a, &b, 2000, &mut acc, |x, y, s| fast_dtw(x, y, 1, s))
    );
    println!(
        "pair comparison (200-sample banded r=10): {:.4} ms  [calibrated default]",
        per_pair_ms(&a, &b, 2000, &mut acc, |x, y, s| {
            dtw_banded(x, y, 10, None, s).value()
        })
    );
    println!(
        "pair comparison (200-sample exact DTW):   {:.4} ms",
        per_pair_ms(&a, &b, 500, &mut acc, dtw)
    );

    // 80 neighbours → 80·79/2 = 3160 pairwise comparisons.
    let neighbours: Vec<Vec<f64>> = (0..80)
        .map(|k| z_score_enhanced(&series(200, k as f64 * 0.3)))
        .collect();
    let mut scratch = DtwScratch::new();
    let t0 = Instant::now();
    for i in 0..neighbours.len() {
        for j in (i + 1)..neighbours.len() {
            acc += fast_dtw(&neighbours[i], &neighbours[j], 1, &mut scratch);
        }
    }
    let scan = t0.elapsed().as_secs_f64();
    println!(
        "80-neighbour full scan (3160 pairs):      {:.1} ms  [paper: ~630 ms]",
        scan * 1e3
    );

    // The same 80 neighbours through the calibrated comparison phase, on
    // one thread; it applies Eq. 7 itself, so it takes the raw series.
    let raw: Vec<(u64, Vec<f64>)> = (0..80).map(|k| (k, series(200, k as f64 * 0.3))).collect();
    let t0 = Instant::now();
    let sweep = compare_sequential(black_box(&raw), &ComparisonConfig::default());
    let calibrated = t0.elapsed().as_secs_f64();
    acc += sweep.raw_between(0, 1);
    println!(
        "80-neighbour calibrated sweep (3160 pairs): {:.1} ms  [compare_sequential, default]",
        calibrated * 1e3
    );
    println!("(accumulator {acc:.3e} — prevents the optimiser from eliding the work)");
}
