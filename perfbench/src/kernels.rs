//! Isolated per-call costs of single layers, timed from outside.
//!
//! Each function drives one layer's public entry point on inputs taken from
//! the workload (its PTE lines, its corpus, its protection) and returns ns
//! per call as the median over timed batches, so one preempted batch does
//! not move the figure. Timing every call individually would cost about as
//! much as the calls themselves.

use std::hint::black_box;

use dram::{DramDevice, DramGeometry, DramTiming, RowhammerConfig};
use memsys::MemoryController;
use pagetable::addr::PhysAddr;
use ptguard::correct::G_MAX;
use ptguard::pattern::embed_mac_for;
use ptguard::{CorrectionOutcome, Corrector, Line, PtGuardConfig, PtGuardEngine, PteMac};
use rng::SplitMix64;

use crate::report::{median, thread_cpu_ns, Tally};

/// Host CPU time of `f` (which performs `per_batch` calls) as ns per
/// call: the median over `batches` timed batches.
pub fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    f(); // grow buffers and fault pages in off the clock
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = thread_cpu_ns();
            f();
            (thread_cpu_ns() - t) as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// `PteMac::compute_batch_into` over `items` in batches of 8 lines (the
/// engine's stack-buffer width): ns per line.
pub fn mac_ns_per_line(mac: &PteMac, items: &[(Line, PhysAddr)]) -> f64 {
    assert!(!items.is_empty(), "MAC timing needs lines");
    let mut out = Vec::with_capacity(8);
    let mut sink = 0u128;
    let ns = ns_per_call(15, items.len(), || {
        for chunk in items.chunks(8) {
            out.clear();
            mac.compute_batch_into(black_box(chunk), &mut out);
            sink ^= out[0];
        }
    });
    black_box(sink);
    ns
}

/// `(read_line, write_line)` ns per call on a fresh controller with the
/// simulated machine's geometry (4 GiB, one channel) and protection. The
/// lines are zero, as the simulated workloads' data lines are, at random
/// addresses over a 32 MiB footprint.
pub fn controller_line_ns(guarded: bool, seed: u64) -> (f64, f64) {
    let device = DramDevice::new(
        DramGeometry::with_capacity(4 << 30),
        DramTiming::default(),
        RowhammerConfig::immune(),
    );
    let engine = guarded.then(|| PtGuardEngine::new(PtGuardConfig::default()));
    let mut ctrl = MemoryController::new(device, engine, 3.0);
    let mut rng = SplitMix64::new(seed);
    let addrs: Vec<PhysAddr> = (0..2048)
        .map(|_| PhysAddr::new((64 << 20) + rng.gen_range_u64(0, (32 << 20) / 64) * 64))
        .collect();
    let n = addrs.len();
    let write = ns_per_call(9, n, || {
        for &a in &addrs {
            ctrl.write_line(a, black_box(Line::ZERO));
        }
    });
    let mut sink = 0u64;
    let read = ns_per_call(9, n, || {
        for &a in &addrs {
            sink ^= ctrl.read_line(a, false).latency_cycles;
        }
    });
    black_box(sink);
    (read, write)
}

/// Corrections of faulted lines: latency, guesses and outcome checks.
#[derive(Debug, Default)]
pub struct Corrections {
    pub us: Vec<f64>,
    pub guesses: Vec<f64>,
    pub corrected: usize,
    pub tally: Tally,
}

/// Flips 1 or 2 seeded bits among the protected (MAC-covered) bits of
/// `line`, so the MAC must catch every fault.
pub fn fault_line(line: &Line, mac: &PteMac, rng: &mut SplitMix64) -> Line {
    let mask = mac.protected_mask();
    let positions: Vec<usize> = (0..8)
        .flat_map(|w| {
            (0..64)
                .filter(move |b| mask >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
        .collect();
    let mut faulty = *line;
    let flips = 1 + rng.gen_range_usize(0, 2);
    let first = positions[rng.gen_range_usize(0, positions.len())];
    faulty.flip_bit(first);
    if flips == 2 {
        let mut second = first;
        while second == first {
            second = positions[rng.gen_range_usize(0, positions.len())];
        }
        faulty.flip_bit(second);
    }
    faulty
}

/// Whether a correction outcome is acceptable for a line whose fault-free
/// protected form is `original`: the exact original back, or an honest
/// give-up within the guess budget.
pub fn correction_ok(outcome: &CorrectionOutcome, original: &Line) -> bool {
    match outcome {
        CorrectionOutcome::Corrected(r) => r.line == *original && r.guesses <= G_MAX,
        CorrectionOutcome::Uncorrectable { guesses } => *guesses <= G_MAX,
    }
}

/// Runs `Corrector::correct` on `count` faulted copies of `lines` (raw
/// lines with their addresses; each is protected first), timing each call.
pub fn corrections(
    cfg: &PtGuardConfig,
    lines: &[(Line, PhysAddr)],
    count: usize,
    seed: u64,
) -> Corrections {
    let mac = PteMac::from_config(cfg);
    let corrector = Corrector::new(&mac, cfg.soft_match_k, cfg.zero_reset_bits);
    let mut rng = SplitMix64::new(seed);
    let mut out = Corrections::default();
    for i in 0..count {
        let (raw, addr) = lines[i % lines.len()];
        let protected = embed_mac_for(&raw, mac.compute(&raw, addr), mac.format());
        let faulty = fault_line(&protected, &mac, &mut rng);
        let t = thread_cpu_ns();
        let outcome = corrector.correct(&faulty, addr);
        out.us.push((thread_cpu_ns() - t) as f64 / 1e3);
        out.tally.attempted += 1;
        if !correction_ok(&outcome, &protected) {
            out.tally.failed += 1;
        }
        match outcome {
            CorrectionOutcome::Corrected(r) => {
                out.corrected += 1;
                out.guesses.push(f64::from(r.guesses));
            }
            CorrectionOutcome::Uncorrectable { guesses } => out.guesses.push(f64::from(guesses)),
        }
    }
    out
}

/// Pushes the correction metrics of a run.
pub fn push_corrections(out: &mut crate::report::Outcome, fixes: &Corrections) {
    let n = fixes.us.len();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.push("ptguard.correct_us", median(&fixes.us), "us", n);
    out.push("ptguard.correct_guesses", mean(&fixes.guesses), "count", n);
    out.push(
        "ptguard.corrected_frac",
        fixes.corrected as f64 / n.max(1) as f64,
        "ratio",
        n,
    );
}
