//! Host memory of the DRAM backing store (DESIGN.md, `crates/dram`): the
//! store keeps only lines that hold a non-zero byte. Simulated program
//! data is all zero, so on a trial-length sssp machine the unprotected
//! arm stores its non-zero page-table lines and nothing else. The PT-Guard
//! twin embeds a MAC in every line it writes back, so it may store one
//! more line per DRAM write, and no other.

use memsys::MemSysConfig;
use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;
use simx::runner::{build_machine_from_source_cfg, run, Machine, Protection};
use workloads::profiles::by_name;
use workloads::TraceGenerator;

/// Ten times the trial length of `exp fig6 --trial` (60 000 instructions
/// per region): at trial length every dirty data line is still cached, so
/// only the OS build's page-table lines reach DRAM.
const INSTRS: u64 = 600_000;

fn run_sssp(protection: Protection) -> Machine {
    let profile = by_name("sssp").expect("sssp profile");
    let mut m = build_machine_from_source_cfg(
        TraceGenerator::new(profile, 0x5eed),
        profile,
        protection,
        4,
        MemSysConfig::default(),
    );
    for _ in 0..2 {
        let _ = run(&mut m, INSTRS);
    }
    m
}

/// `(stored lines, page-table lines holding a non-zero byte, DRAM writes)`.
fn census(m: &Machine) -> (u64, u64, u64) {
    assert_eq!(m.sys.channels(), 1, "one device holds every line");
    let device = m.sys.channel(0).device();
    let table_lines = m
        .space
        .table_frames()
        .iter()
        .flat_map(|f| (0..64).map(move |i| f.base().as_u64() + 64 * i))
        .filter(|&a| device.read_line(PhysAddr::new(a)) != [0; 64])
        .count() as u64;
    (
        device.stored_lines(),
        table_lines,
        m.sys.controller_stats_total().writes,
    )
}

#[test]
fn the_store_holds_page_table_lines_and_written_back_macs_only() {
    let (stored, table_lines, writes) = census(&run_sssp(Protection::None));
    assert_eq!(
        stored, table_lines,
        "unprotected: {writes} all-zero writebacks must store nothing"
    );

    let (guarded, guarded_table_lines, guarded_writes) = census(&run_sssp(Protection::PtGuard(
        ptguard::PtGuardConfig::default(),
    )));
    assert!(
        guarded > guarded_table_lines,
        "PT-Guard: written-back data lines carry a MAC, so they are stored"
    );
    assert!(
        guarded <= guarded_table_lines + guarded_writes,
        "PT-Guard: {guarded} stored lines > {guarded_table_lines} table lines + \
         {guarded_writes} writes"
    );
}
