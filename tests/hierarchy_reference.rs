//! The hierarchy against its reference (DESIGN.md §3): on every Figure 6
//! profile, `MemorySystem` and the naive `oracle::RefHierarchy` build the
//! same page tables and run the same op stream, and every cache, TLB,
//! MMU-cache and DRAM counter agrees exactly — after the OS build, after
//! warm-up and after the measured region. A conservation check pins where
//! dirty lines go: every L1 writeback lands in the L2, and DRAM writes
//! come only from L2 and LLC victims.

use memsys::MemSysConfig;
use oracle::{HierarchyCounts, RefHierarchy};
use simx::runner::{build_machine_from_source_cfg, map_workload, run, Machine, Protection};
use workloads::tracegen::{Op, TraceGenerator};
use workloads::{WorkloadProfile, ALL_WORKLOADS};

/// Trial length (`exp fig6 --trial`): warm-up and measured region each.
const INSTRS: u64 = 60_000;

fn machine(profile: WorkloadProfile, seed: u64) -> Machine {
    build_machine_from_source_cfg(
        TraceGenerator::new(profile, seed),
        profile,
        Protection::PtGuard(ptguard::PtGuardConfig::default()),
        4,
        MemSysConfig {
            mlp: 1,
            ..MemSysConfig::default()
        },
    )
}

#[test]
fn memory_system_matches_the_reference_hierarchy_on_all_25_profiles() {
    let mut drift = String::new();
    for (i, w) in ALL_WORKLOADS.iter().enumerate() {
        let seed = 0x4e1 + i as u64;
        let mut m = machine(*w, seed);
        let mut reference = RefHierarchy::new(m.sys.config(), 4 << 30);
        let space = map_workload(&mut reference, *w, 32);
        reference.set_root(0, space.root().0, 32);
        reference.flush();
        let mut ops = TraceGenerator::new(*w, seed);
        let mut warm = None;
        for stage in ["build", "warm-up", "measured"] {
            if stage != "build" {
                let _ = run(&mut m, INSTRS);
                for _ in 0..INSTRS {
                    match ops.next_op() {
                        Op::Compute => {}
                        Op::Load(va) => reference.access(0, va.as_u64(), false),
                        Op::Store(va) => reference.access(0, va.as_u64(), true),
                    }
                }
            }
            let fast = HierarchyCounts::of_system(&m.sys);
            let want = reference.counts();
            let s = m.sys.stats();
            let d = reference.demand();
            if fast != want
                || (s.walks, s.llc_misses, s.walk_llc_misses)
                    != (d.walks, d.llc_misses, d.walk_llc_misses)
            {
                drift.push_str(&format!(
                    "{:>10} after {stage}:\n  fast      {fast:?} {s:?}\n  reference {want:?} {d:?}\n",
                    w.name
                ));
                break;
            }
            match stage {
                "warm-up" => warm = Some(fast),
                "measured" => drift.push_str(&conservation(w.name, &warm.take().unwrap(), &fast)),
                _ => {}
            }
        }
    }
    assert!(drift.is_empty(), "hierarchy drift:\n{drift}");
}

/// Where the measured region's dirty lines went, from the counts `before`
/// and `after` it: every L1 writeback lands in the L2, and DRAM writes come
/// only from L2 and LLC victims. Returns the broken rules, if any.
fn conservation(name: &str, before: &HierarchyCounts, after: &HierarchyCounts) -> String {
    let delta = |f: fn(&HierarchyCounts) -> u64| f(after) - f(before);
    let l1_wb = delta(|c| c.stacks[0].l1[2]);
    let l2_misses = delta(|c| c.stacks[0].l2[1]);
    let l2_wb = delta(|c| c.stacks[0].l2[2]);
    let l2_fills = delta(|c| c.stacks[0].l2[3]);
    let llc_wb = delta(|c| c.llc[2]);
    let writes = delta(|c| c.dram_writes);
    let mut broken = String::new();
    // Every L2 miss refills the L2 (benign runs fail no check), so the
    // fills beyond the misses are exactly the L1 victims it absorbed.
    if l2_fills - l2_misses != l1_wb {
        broken.push_str(&format!(
            "{name:>10}: {l1_wb} L1 writebacks but {} L2 victim fills\n",
            l2_fills - l2_misses
        ));
    }
    if writes > l2_wb + llc_wb {
        broken.push_str(&format!(
            "{name:>10}: {writes} DRAM writes > {l2_wb} L2 + {llc_wb} LLC writebacks\n"
        ));
    }
    broken
}
