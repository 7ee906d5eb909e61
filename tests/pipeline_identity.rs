//! Pipeline equivalence pins: the windowed driver (`simx::run`) at
//! `mlp = 1` must be *byte-identical* to the blocking driver
//! (`simx::run_blocking`) — same cycles, same miss counts, same MAC work —
//! and the same cache, TLB, MMU-cache, DRAM and demand counters — for every
//! Figure 6 profile. Both drivers run the one page walk and differ only in
//! how a miss is served, so any divergence here is a bug.
//!
//! A second pin checks the overlapped mode (`mlp > 1`) is deterministic:
//! two identical runs agree exactly, and overlap can only help.

use memsys::system::SystemStats;
use memsys::MemSysConfig;
use oracle::HierarchyCounts;
use simx::runner::{build_machine_from_source_cfg, run, run_blocking, Protection, RunResult};
use workloads::tracegen::TraceGenerator;
use workloads::{WorkloadProfile, ALL_WORKLOADS};

const INSTRS: u64 = 40_000;

/// One warm-up plus one measured region; returns the measured result and
/// the hierarchy's counters at the end.
fn run_one(
    profile: WorkloadProfile,
    seed: u64,
    mlp: usize,
    blocking: bool,
) -> (RunResult, HierarchyCounts, SystemStats) {
    let mem_cfg = MemSysConfig {
        mlp,
        ..MemSysConfig::default()
    };
    let mut machine = build_machine_from_source_cfg(
        TraceGenerator::new(profile, seed),
        profile,
        Protection::PtGuard(ptguard::PtGuardConfig::default()),
        4,
        mem_cfg,
    );
    let r = if blocking {
        let _ = run_blocking(&mut machine, INSTRS);
        run_blocking(&mut machine, INSTRS)
    } else {
        let _ = run(&mut machine, INSTRS);
        run(&mut machine, INSTRS)
    };
    (
        r,
        HierarchyCounts::of_system(&machine.sys),
        machine.sys.stats(),
    )
}

#[test]
fn windowed_driver_at_mlp1_is_byte_identical_to_blocking() {
    // Inline service (`run_blocking`: each miss read from DRAM where the
    // walk reaches it) against queued service (`run`: enqueue, drain, MSHR
    // resume) of the same walk.
    let mut drift = String::new();
    for (i, w) in ALL_WORKLOADS.iter().enumerate() {
        let seed = 0x91e + i as u64;
        let (b, b_counts, b_stats) = run_one(*w, seed, 1, true);
        let (p, p_counts, p_stats) = run_one(*w, seed, 1, false);
        if (
            b.cycles,
            b.walks,
            b.mac_computations,
            b.mem_ops,
            b.integrity_faults,
        ) != (
            p.cycles,
            p.walks,
            p.mac_computations,
            p.mem_ops,
            p.integrity_faults,
        ) || b.mpki.to_bits() != p.mpki.to_bits()
        {
            drift.push_str(&format!(
                "{:>10}: blocking {b:?} vs pipelined {p:?}\n",
                w.name
            ));
        }
        if (&b_counts, b_stats) != (&p_counts, p_stats) {
            drift.push_str(&format!(
                "{:>10}: blocking {b_counts:?} {b_stats:?}\n  vs pipelined {p_counts:?} {p_stats:?}\n",
                w.name
            ));
        }
    }
    assert!(drift.is_empty(), "mlp=1 drift:\n{drift}");
}

#[test]
fn overlapped_mode_is_deterministic_and_never_slower() {
    // Overlap determinism matters as much as speed: the mlp artefact and
    // BENCH_memsys are committed, so two hosts must agree exactly.
    for name in ["sssp", "xalancbmk", "lbm"] {
        let w = *ALL_WORKLOADS.iter().find(|w| w.name == name).unwrap();
        let base = run_one(w, 7, 1, false).0;
        for mlp in [2usize, 4] {
            let a = run_one(w, 7, mlp, false).0;
            let b = run_one(w, 7, mlp, false).0;
            assert_eq!(a.cycles, b.cycles, "{name} mlp={mlp} nondeterministic");
            assert_eq!(a.walks, b.walks, "{name} mlp={mlp} nondeterministic");
            assert!(
                a.cycles <= base.cycles,
                "{name}: overlap (mlp={mlp}, {} cycles) cannot exceed blocking ({})",
                a.cycles,
                base.cycles
            );
        }
    }
}
