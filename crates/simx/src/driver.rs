//! The windowed in-order driver shared by the single-core and multi-core
//! runners.
//!
//! Both runners execute the same issue/retire discipline against the
//! pipelined [`MemorySystem`]: each instruction advances the front-end
//! clock by a fixed `tick`, each memory op is issued into the pipeline,
//! and when the in-flight window is full the oldest op retires, folding
//! `t_issue + latency × scale` into the in-order retire horizon. They
//! differ only in units — the single-core runner ticks one cycle and keeps
//! the whole latency (`tick = 1`, `scale = 1`); the multi-core runner runs
//! in milli-cycles and keeps the unhidden fraction of each stall
//! (`tick = 1000`, `scale = keep_millis`). Extracting the loop here keeps
//! the two from drifting apart; the identity tests
//! (`tests/pipeline_identity.rs`, `tests/controller_cycles.rs`) pin the
//! extraction bit-for-bit.
//!
//! Issue goes through [`MemorySystem::pipe_issue_event`]: an access that
//! completes synchronously (TLB + cache hit — the overwhelmingly common
//! case) folds into the clock at issue and never occupies the window,
//! while misses suspend and retire through
//! [`MemorySystem::advance_to_next_event`] — the event pump that jumps
//! virtual time to the next DRAM completion instead of stepping and
//! re-scanning. Folding a hit at issue is exact at `mlp = 1` only: there
//! the window is empty whenever an op issues, so the fold lands where the
//! blocking model's `+=` chain does. At `mlp > 1` it is a different model,
//! not a reordering: the fold raises `clock`, every later op reads `clock`
//! as its issue time, so a hit stalls the front end for its whole latency
//! instead of overlapping the older misses still in flight. Which
//! semantics an in-order core with a non-blocking window should have is an
//! open item (ROADMAP.md, the mlp > 1 semantics item).
//!
//! [`WindowedDriver::new_polling`] keeps the pre-event discipline (every
//! op through the op machinery and the completion buffer) as a benchmark
//! control. Both modes issue the same accesses and verify the same MACs
//! against the same DRAM reads; at `mlp > 1` their cycle counts diverge,
//! because the polling discipline composes windows differently (a hit
//! occupies a slot instead of folding at issue), so only the event
//! discipline's totals are pinned.

use std::collections::VecDeque;

use memsys::system::{AccessOutcome, IssueOutcome};
use memsys::MemorySystem;
use pagetable::addr::VirtAddr;

/// The shared issue/retire window over a pipelined [`MemorySystem`].
#[derive(Debug)]
pub(crate) struct WindowedDriver {
    /// In-flight op cap ([`memsys::MemSysConfig::mlp`], clamped to ≥ 1).
    window: usize,
    /// Front-end clock advance per instruction (1 cycle or 1000 mc).
    tick: u64,
    /// Latency multiplier at retire (1, or the unhidden `keep_millis`).
    scale: u64,
    /// Front-end clock (instruction issue), in `tick` units.
    clock: u64,
    /// In-order retire horizon: the max of every retired op's finish time.
    finish_prev: u64,
    /// `(op id, issue time)` of in-flight ops, oldest first.
    inflight: VecDeque<(u64, u64)>,
    /// Completed-but-not-retired outcomes. The window is small (a handful
    /// of ops), so a linear-scanned Vec beats a HashMap on the per-op hot
    /// path — and its capacity is reused for the whole run.
    outcomes: Vec<(u64, AccessOutcome)>,
    /// Benchmark control: issue every op through the op machinery
    /// ([`MemorySystem::pipe_issue`]) instead of resolving synchronous
    /// completions at issue. Identical simulated outcomes, legacy host
    /// cost.
    polling: bool,
}

impl WindowedDriver {
    pub(crate) fn new(window: usize, tick: u64, scale: u64) -> Self {
        Self {
            window: window.max(1),
            tick,
            scale,
            clock: 0,
            finish_prev: 0,
            inflight: VecDeque::new(),
            outcomes: Vec::new(),
            polling: false,
        }
    }

    /// A driver using the pre-event per-op polling discipline (benchmark
    /// control for event-vs-polling host-cost rows).
    pub(crate) fn new_polling(window: usize, tick: u64, scale: u64) -> Self {
        Self {
            polling: true,
            ..Self::new(window, tick, scale)
        }
    }

    /// Advances the front-end clock by one instruction.
    pub(crate) fn tick_instruction(&mut self) {
        self.clock += self.tick;
    }

    /// Issues one memory op; blocks (retiring oldest-first) while the
    /// window is full. Synchronous completions fold into the clock at
    /// issue and never enter the window.
    pub(crate) fn mem_op(&mut self, sys: &mut MemorySystem, va: VirtAddr, write: bool) {
        if self.polling {
            let id = sys.pipe_issue(va, write);
            self.track(sys, id);
            return;
        }
        match sys.pipe_issue_event(va, write) {
            IssueOutcome::Done(out) => {
                debug_assert!(out.is_ok(), "unexpected fault: {out:?}");
                // Exact at mlp = 1 only: at wider windows this raises
                // `clock`, which delays every later op's issue time (see
                // the module docs).
                self.fold(self.clock, out.cycles());
            }
            IssueOutcome::Pending(id) => self.track(sys, id),
        }
    }

    /// Retires every in-flight op (end of a measured region or phase).
    pub(crate) fn drain(&mut self, sys: &mut MemorySystem) {
        while !self.inflight.is_empty() {
            self.retire_one(sys);
        }
    }

    /// Resets both clocks for a fresh measured region (the in-flight
    /// window must already be drained).
    pub(crate) fn reset_clocks(&mut self) {
        debug_assert!(self.inflight.is_empty(), "reset with ops in flight");
        self.clock = 0;
        self.finish_prev = 0;
    }

    /// The run's cycle count so far, in `tick` units.
    pub(crate) fn clock(&self) -> u64 {
        self.clock.max(self.finish_prev)
    }

    fn track(&mut self, sys: &mut MemorySystem, id: u64) {
        self.inflight.push_back((id, self.clock));
        while self.inflight.len() >= self.window {
            self.retire_one(sys);
        }
    }

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
        self.fold(t_issue, out.cycles());
    }

    /// Folds one finished op into the in-order retire horizon. At a
    /// window of 1 this reproduces the blocking `+=` chain exactly:
    /// `finish_prev <= t_issue` always holds, so the max is the sum.
    fn fold(&mut self, t_issue: u64, cycles: u64) {
        let finish = (t_issue + cycles * self.scale).max(self.finish_prev);
        self.finish_prev = finish;
        self.clock = self.clock.max(finish);
    }
}
