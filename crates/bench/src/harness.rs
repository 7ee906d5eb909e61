//! A minimal std-only benchmark harness (Criterion stand-in).
//!
//! ```no_run
//! use ptguard_bench::harness::{black_box, effective_budget, measure};
//!
//! let mut x = 1u64;
//! let m = measure(effective_budget(), || {
//!     x = black_box(x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
//!     x
//! });
//! println!("{:.1} ns/iter", m.median_ns);
//! ```
//!
//! Each measurement is calibrated so one sample takes roughly
//! [`SAMPLE_BUDGET`] of wall clock, then timed for [`SAMPLES`] samples; the
//! median ns/iter is reported. Set `PTGUARD_BENCH_FAST=1` to shrink the
//! budget ~10× for smoke runs.

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// Wall-clock budget per sample (unless `PTGUARD_BENCH_FAST` is set).
pub const SAMPLE_BUDGET: Duration = Duration::from_millis(25);

/// Samples per benchmark; the median is reported.
pub const SAMPLES: usize = 7;

/// One calibrated measurement: the median, fastest, and slowest sample in
/// ns/iter, plus the calibrated iteration count per sample.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median ns per iteration over [`SAMPLES`] samples.
    pub median_ns: f64,
    /// Fastest sample, ns per iteration.
    pub lo_ns: f64,
    /// Slowest sample, ns per iteration.
    pub hi_ns: f64,
    /// Iterations per timed sample after calibration.
    pub iters_per_sample: u64,
}

/// Calibrates `f` to the budget and times it. The closure's return value
/// is passed through [`black_box`], so callers need not black-box their
/// own results.
pub fn measure<R>(budget: Duration, mut f: impl FnMut() -> R) -> Measurement {
    // Calibration: double the iteration count until a batch exceeds 1% of
    // the budget, then scale up to fill it.
    let mut iters: u64 = 1;
    let per_iter = loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= budget / 100 || iters >= 1 << 30 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 2;
    };
    let per_sample = ((budget.as_secs_f64() / per_iter.max(1e-12)) as u64).clamp(1, 1 << 32);

    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..per_sample {
            black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / per_sample as f64);
    }
    samples.sort_by(f64::total_cmp);
    Measurement {
        median_ns: samples[SAMPLES / 2] * 1e9,
        lo_ns: samples[0] * 1e9,
        hi_ns: samples[SAMPLES - 1] * 1e9,
        iters_per_sample: per_sample,
    }
}

/// The per-sample budget currently in effect (`PTGUARD_BENCH_FAST` shrinks
/// it ~10×).
#[must_use]
pub fn effective_budget() -> Duration {
    if std::env::var_os("PTGUARD_BENCH_FAST").is_some() {
        SAMPLE_BUDGET / 10
    } else {
        SAMPLE_BUDGET
    }
}
