//! Result accounting shared by every workload: named metrics with units,
//! sample statistics, the correctness tally, and the final JSON line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// The operations a workload attempted and how many failed the
/// correctness gate.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

/// Linear-interpolated quantile of `sorted` at `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` and returns its median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process in MB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// parent's memory before `exec`, e.g. `cargo run`'s.)
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("procfs status of this process");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// CPU time the calling thread has used, in ns
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out the time
/// the thread waited for a CPU, which on a shared two-core VM is most of
/// the run-to-run noise of a single-threaded simulation.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = [0i64; 2];
    // SAFETY: `clock_gettime` writes one `struct timespec` (two longs on
    // 64-bit Linux) through the pointer; `ts` holds exactly that and lives
    // across the call. CLOCK_THREAD_CPUTIME_ID (3) is always valid.
    let rc = unsafe { clock_gettime(3, ts.as_mut_ptr()) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    (ts[0] as u64) * 1_000_000_000 + ts[1] as u64
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut i64) -> i32;
}

/// Renders the result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(out: &Outcome) -> String {
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.attempted.max(1),
        out.tally.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Prints the human-readable metric table (name, value, unit, samples).
pub fn print_table(out: &Outcome) {
    for m in &out.metrics {
        println!(
            "metric {:<28} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let frac = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    println!(
        "metric {:<28} {:>16.6} {:<9} n={}",
        "fail_frac", frac, "ratio", out.tally.attempted
    );
}
