//! The windowed in-order driver shared by the single-core and multi-core
//! runners.
//!
//! Both runners execute the same issue/retire discipline against the
//! pipelined [`MemorySystem`]: each instruction advances the front-end
//! clock by a fixed `tick`, and each memory op is issued into the pipeline
//! through [`MemorySystem::pipe_issue_event`]. They differ only in units —
//! the single-core runner ticks one cycle and keeps the whole latency
//! (`tick = 1`, `scale = 1`); the multi-core runner runs in milli-cycles
//! and keeps the unhidden fraction of each stall (`tick = 1000`,
//! `scale = keep_millis`). Extracting the loop here keeps the two from
//! drifting apart; the identity tests (`tests/pipeline_identity.rs`,
//! `tests/controller_cycles.rs`) pin the extraction bit-for-bit.
//!
//! The window's semantics (DESIGN.md §9, "What `mlp` means"):
//!
//! * `window` caps the memory ops waiting on a DRAM read, like an MSHR
//!   limit. An op holds one slot from issue until it retires, however many
//!   times it suspends during a walk.
//! * An op that completes at issue (a TLB and cache hit, or a walk whose
//!   lines all hit) takes no slot and stalls issue for its latency.
//! * When an issue fills the window, the front end stalls until the oldest
//!   op retires. Ops retire in program order, and the clock is the maximum
//!   finish time, `issue + latency × scale`.
//! * At `window = 1` every miss retires before the next instruction
//!   issues, which is exactly the blocking `+=` chain.
//!
//! Misses retire through [`MemorySystem::advance_to_next_event`], the
//! event pump that jumps virtual time to the next DRAM completion. The
//! unit tests below replay every op the driver saw through a reference
//! model of these rules and require the same clock.

use std::collections::VecDeque;

use memsys::system::{AccessOutcome, IssueOutcome};
use memsys::MemorySystem;
use pagetable::addr::VirtAddr;

/// The shared issue/retire window over a pipelined [`MemorySystem`].
#[derive(Debug)]
pub(crate) struct WindowedDriver {
    /// Slots for ops waiting on DRAM ([`memsys::MemSysConfig::mlp`],
    /// clamped to ≥ 1).
    window: usize,
    /// Front-end clock advance per instruction (1 cycle or 1000 mc).
    tick: u64,
    /// Latency multiplier at retire (1, or the unhidden `keep_millis`).
    scale: u64,
    /// The run's clock in `tick` units: the issue time of the next
    /// instruction, never below any retired op's finish time.
    clock: u64,
    /// `(op id, issue time)` of in-flight ops, oldest first.
    inflight: VecDeque<(u64, u64)>,
    /// Completed-but-not-retired outcomes. The window is small (a handful
    /// of ops), so a linear-scanned Vec beats a HashMap on the per-op hot
    /// path — and its capacity is reused for the whole run.
    outcomes: Vec<(u64, AccessOutcome)>,
    /// Instructions ticked so far (the op log's instruction index).
    #[cfg(test)]
    instrs: u64,
    /// Every memory op in program order: (instruction index, latency,
    /// completed at issue). A pending op's latency is filled in at retire.
    #[cfg(test)]
    log: Vec<(u64, u64, bool)>,
    /// Log positions of the in-flight ops, parallel to `inflight`.
    #[cfg(test)]
    log_pos: VecDeque<usize>,
}

impl WindowedDriver {
    pub(crate) fn new(window: usize, tick: u64, scale: u64) -> Self {
        Self {
            window: window.max(1),
            tick,
            scale,
            clock: 0,
            inflight: VecDeque::new(),
            outcomes: Vec::new(),
            #[cfg(test)]
            instrs: 0,
            #[cfg(test)]
            log: Vec::new(),
            #[cfg(test)]
            log_pos: VecDeque::new(),
        }
    }

    /// Advances the front-end clock by one instruction.
    pub(crate) fn tick_instruction(&mut self) {
        self.clock += self.tick;
        #[cfg(test)]
        {
            self.instrs += 1;
        }
    }

    /// Issues one memory op. An op that completes at issue stalls the
    /// front end for its latency; a miss takes a window slot, and an issue
    /// that fills the window stalls until the oldest op retires.
    pub(crate) fn mem_op(&mut self, sys: &mut MemorySystem, va: VirtAddr, write: bool) {
        match sys.pipe_issue_event(va, write) {
            IssueOutcome::Done(out) => {
                debug_assert!(out.is_ok(), "unexpected fault: {out:?}");
                #[cfg(test)]
                self.log.push((self.instrs - 1, out.cycles(), true));
                self.clock += out.cycles() * self.scale;
            }
            IssueOutcome::Pending(id) => {
                #[cfg(test)]
                {
                    self.log_pos.push_back(self.log.len());
                    self.log.push((self.instrs - 1, 0, false));
                }
                self.inflight.push_back((id, self.clock));
                if self.inflight.len() == self.window {
                    self.retire_one(sys);
                }
            }
        }
    }

    /// Retires every in-flight op (end of a measured region or phase).
    pub(crate) fn drain(&mut self, sys: &mut MemorySystem) {
        while !self.inflight.is_empty() {
            self.retire_one(sys);
        }
    }

    /// Resets the clock for a fresh measured region (the in-flight window
    /// must already be drained).
    pub(crate) fn reset_clock(&mut self) {
        debug_assert!(self.inflight.is_empty(), "reset with ops in flight");
        self.clock = 0;
    }

    /// The run's cycle count so far, in `tick` units.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// Retires the oldest in-flight op, pumping events until it completes,
    /// and moves the clock up to its finish time.
    fn retire_one(&mut self, sys: &mut MemorySystem) {
        let (id, t_issue) = self
            .inflight
            .pop_front()
            .expect("retire needs an op in flight");
        let out = loop {
            sys.pipe_drain_completed(&mut self.outcomes);
            if let Some(pos) = self.outcomes.iter().position(|(cid, _)| *cid == id) {
                break self.outcomes.swap_remove(pos).1;
            }
            let progressed = sys.advance_to_next_event();
            assert!(
                progressed,
                "event pump stalled: op {id} in flight but no drain is armed"
            );
        };
        debug_assert!(out.is_ok(), "unexpected fault: {out:?}");
        #[cfg(test)]
        {
            let pos = self.log_pos.pop_front().expect("logged op");
            self.log[pos].1 = out.cycles();
        }
        self.clock = self.clock.max(t_issue + out.cycles() * self.scale);
    }
}

#[cfg(test)]
mod tests {
    use memsys::MemSysConfig;
    use std::collections::VecDeque;
    use workloads::tracegen::TraceGenerator;
    use workloads::ALL_WORKLOADS;

    use super::WindowedDriver;
    use crate::runner::{build_machine_from_source_cfg, run, run_on, Protection};

    /// The reference window (DESIGN.md §9, "What `mlp` means"), written
    /// from the rules rather than from the driver: it tracks finish times,
    /// where the driver tracks issue times and pumps the memory system.
    ///
    /// `ops` holds one `(instruction index, latency, completed at issue)`
    /// tuple per memory op, in program order; every instruction costs one
    /// cycle to issue. Returns the run's cycle count.
    fn reference_clock(instructions: u64, ops: &[(u64, u64, bool)], mlp: usize) -> u64 {
        // When the next instruction may issue; never below a retired
        // op's finish time.
        let mut now = 0u64;
        // Finish times of the ops holding a slot, oldest first.
        let mut waiting: VecDeque<u64> = VecDeque::new();
        let mut ops = ops.iter().peekable();
        for i in 0..instructions {
            now += 1;
            let Some(&(_, latency, at_issue)) = ops.next_if(|op| op.0 == i) else {
                continue;
            };
            if at_issue {
                // No slot: the front end waits out the access.
                now += latency;
                continue;
            }
            waiting.push_back(now + latency);
            if waiting.len() == mlp {
                // Full: stall until the oldest retires, freeing its slot.
                let oldest = waiting.pop_front().expect("window is full");
                now = now.max(oldest);
            }
        }
        assert!(ops.next().is_none(), "op logged past the last instruction");
        // In-order retire: the run ends when the last op has finished.
        waiting.into_iter().fold(now, u64::max)
    }

    #[test]
    fn reference_follows_the_window_rules() {
        // Three instructions: a 40-cycle miss, a compute, a 4-cycle hit.
        // One slot is the blocking sum.
        let ops = [(0, 40, false), (2, 4, true)];
        assert_eq!(reference_clock(3, &ops, 1), 3 + 40 + 4);
        // With a second slot the compute and the hit issue under the miss,
        // and the run ends when the miss finishes.
        assert_eq!(reference_clock(3, &ops, 2), 1 + 40);
        // A hit takes no slot but stalls issue, so one that outlasts the
        // miss ends the run.
        assert_eq!(
            reference_clock(2, &[(0, 10, false), (1, 20, true)], 2),
            2 + 20
        );
        // The second miss fills a two-slot window, so the third issues only
        // once the first has retired (cycle 31), and finishes 30 later.
        let misses = [(0, 30, false), (1, 30, false), (2, 30, false)];
        assert_eq!(reference_clock(3, &misses, 2), 31 + 1 + 30);
    }

    #[test]
    fn driver_matches_the_reference_window_on_every_profile() {
        const INSTRS: u64 = 20_000;
        let mut drift = String::new();
        for mlp in [2usize, 4, 8] {
            for (i, w) in ALL_WORKLOADS.iter().enumerate() {
                let mut machine = build_machine_from_source_cfg(
                    TraceGenerator::new(*w, 0x7e1d + i as u64),
                    *w,
                    Protection::PtGuard(ptguard::PtGuardConfig::default()),
                    4,
                    MemSysConfig {
                        mlp,
                        ..MemSysConfig::default()
                    },
                );
                let _ = run(&mut machine, INSTRS); // warm-up
                let mut driver = WindowedDriver::new(mlp, 1, 1);
                let r = run_on(&mut machine, INSTRS, &mut driver);
                assert_eq!(driver.log.len() as u64, r.mem_ops, "{}@{mlp}", w.name);
                assert!(
                    driver.log.iter().any(|op| !op.2),
                    "{}@{mlp}: no op waited on DRAM",
                    w.name
                );
                let want = reference_clock(INSTRS, &driver.log, mlp);
                if r.cycles != want {
                    drift.push_str(&format!(
                        "{:>10} mlp {mlp}: driver {}, reference {want}\n",
                        w.name, r.cycles
                    ));
                }
            }
        }
        assert!(drift.is_empty(), "driver vs reference window:\n{drift}");
    }
}
