//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fig6-hot`, `fig6-resident` (the simulator, both in
//! `BENCHMARK.json`) and `serve-correct` (the live service, runnable but
//! not in `BENCHMARK.json`: its wall-clock figures are not steady on a
//! shared two-vCPU machine). With `--trace 0` the
//! run prints every end-to-end metric; with `--trace 1` it records spans
//! around each call into a layer, writes them to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`, and prints every
//! per-layer metric. The last stdout line is the JSON result; the process
//! exits non-zero if any output failed its correctness check. The design
//! and the per-layer predictions are in `perfbench/README.md`.

mod kernels;
mod report;
mod sim;
mod spans;
mod svc;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{print_table, result_json, Outcome};
use spans::Tracer;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test hook: corrupt one service response before it is checked.
    pub corrupt_response: bool,
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("kops", "kop/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload that does not exercise a layer reports its counts as 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.next_op_ns", "ns"),
    ("simx.run_ns_per_op", "ns"),
    ("simx.self_ns_per_op", "ns"),
    ("simx.fidelity_err_pp", "pp"),
    ("memsys.tlb_miss_pki", "1/kinstr"),
    ("memsys.walks_pki", "1/kinstr"),
    ("memsys.mmu_hit_ratio", "ratio"),
    ("memsys.l1_miss_ratio", "ratio"),
    ("memsys.l2_miss_ratio", "ratio"),
    ("memsys.llc_miss_pki", "1/kinstr"),
    ("memsys.dram_reads_pki", "1/kinstr"),
    ("memsys.dram_writes_pki", "1/kinstr"),
    ("memsys.pte_reads_pki", "1/kinstr"),
    ("memsys.read_line_ns", "ns"),
    ("memsys.write_line_ns", "ns"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.activations_pki", "1/kinstr"),
    ("sched.advances_pki", "1/kinstr"),
    ("sched.events_fired_pki", "1/kinstr"),
    ("ptguard.macs_pki", "1/kinstr"),
    ("ptguard.protected_writes_pki", "1/kinstr"),
    ("ptguard.mac_ns_per_line", "ns"),
    ("ptguard.correct_us", "us"),
    ("ptguard.correct_guesses", "count"),
    ("ptguard.corrected_frac", "ratio"),
    ("setup.build_s", "s"),
    ("setup.warmup_s", "s"),
    ("serve.decode_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.respond_ns_per_job", "ns"),
    ("serve.mean_batch", "jobs"),
    ("serve.batches", "count"),
    ("serve.rtt_w1_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.gen_late_p50_us", "us"),
    ("serve.gen_late_p99_us", "us"),
    ("ladder.attributed_frac", "ratio"),
    ("ladder.residual_ns_per_op", "ns"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["fig6-hot", "fig6-resident", "serve-correct"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_response: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--corrupt-response" {
            args.corrupt_response = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} out of range (0, 120]", args.seconds));
    }
    Ok(args)
}

/// Orders the workload's metrics as the catalogue lists them, filling a
/// layer the workload does not exercise with 0.
fn complete(out: &mut Outcome, trace: bool) {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "unit of {name}");
                metrics.push(m.clone());
            }
            None => metrics.push(report::Metric {
                name,
                value: 0.0,
                unit,
                samples: 0,
            }),
        }
    }
    if let Some(m) = out
        .metrics
        .iter()
        .find(|m| !catalogue.iter().any(|c| c.0 == m.name))
    {
        panic!("metric {} is missing from the catalogue", m.name);
    }
    out.metrics = metrics;
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "fig6-hot" => sim::run_workload(&sim::HOT, &args, &mut tracer),
        "fig6-resident" => sim::run_workload(&sim::RESIDENT, &args, &mut tracer),
        svc::NAME => svc::run_workload(&args, &mut tracer),
        _ => unreachable!("workload validated by parse"),
    };
    complete(&mut out, args.trace);
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    print_table(&out);
    println!("{}", result_json(&out));
    if out.tally.failed == 0 && out.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: correctness gate failed: {} of {} operations",
            out.tally.failed, out.tally.attempted
        );
        ExitCode::FAILURE
    }
}
