//! The full memory hierarchy: one [`CoreStack`] (TLB → page walk → L1D →
//! L2) over the LLC and the controller(s).
//!
//! The hierarchy fronts one memory controller per channel
//! ([`MemSysConfig::channels`]): lines are spread across channels by the
//! XOR-folded [`dram::ChannelInterleave`], each channel drains its banked
//! queues independently, and completions retire in deterministic
//! `(integer-ps finish, channel, request id)` order. With one channel every
//! path degenerates — bit for bit — to the single-controller model.
//!
//! Every access runs the stack's one walk. Two drivers differ only in how
//! they serve a miss: [`MemorySystem::load`]/[`MemorySystem::store`] read
//! DRAM inline and return the finished outcome, while
//! [`MemorySystem::pipe_issue_event`] parks the op on the MSHR file and the
//! channel's bank queue, and [`MemorySystem::advance_to_next_event`]
//! resumes it.

use dram::ChannelInterleave;
use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::memory::PhysMem;
use ptguard::line::Line;

use crate::cache::Cache;
use crate::config::MemSysConfig;
use crate::controller::{ControllerStats, DramRead, MemoryController};
use crate::stack::{Access, CoreStack, Step, Uncore};
use crate::tlb::Tlb;

/// Outcome of a virtual memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessOutcome {
    /// The access completed.
    Ok {
        /// End-to-end latency in CPU cycles.
        cycles: u64,
        /// Whether the data access missed the LLC (reached DRAM).
        llc_miss: bool,
    },
    /// A page-table walk hit a tampered PTE line: PT-Guard raised
    /// `PTECheckFailed` and the OS receives an integrity exception.
    PteCheckFailed {
        /// Cycles spent before the fault.
        cycles: u64,
        /// Walk level of the failing access (3 = PML4 … 0 = PT).
        level: usize,
    },
    /// The walk found a non-present or out-of-bounds entry.
    PageFault {
        /// Cycles spent before the fault.
        cycles: u64,
        /// Walk level of the missing entry.
        level: usize,
    },
}

impl AccessOutcome {
    /// Cycles consumed, whatever the outcome.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match *self {
            AccessOutcome::Ok { cycles, .. }
            | AccessOutcome::PteCheckFailed { cycles, .. }
            | AccessOutcome::PageFault { cycles, .. } => cycles,
        }
    }

    /// Whether the access completed normally.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, AccessOutcome::Ok { .. })
    }
}

/// Hierarchy-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Demand loads served.
    pub loads: u64,
    /// Demand stores served.
    pub stores: u64,
    /// Page walks performed (TLB misses).
    pub walks: u64,
    /// Demand accesses that missed the LLC.
    pub llc_misses: u64,
    /// Walk accesses that missed the LLC (PTE reads from DRAM).
    pub walk_llc_misses: u64,
    /// PT-Guard integrity exceptions delivered.
    pub integrity_faults: u64,
    /// High-water mark of MSHR entries (distinct outstanding miss lines;
    /// a miss served inline holds one).
    pub mshr_hwm: u64,
}

/// Result of issuing an access on the event-driven pipeline
/// ([`MemorySystem::pipe_issue_event`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IssueOutcome {
    /// The access completed synchronously (TLB/cache hits all the way, or
    /// an immediate fault) — no drain was armed and nothing occupies
    /// the in-flight window.
    Done(AccessOutcome),
    /// The access suspended on a DRAM read; its outcome arrives through
    /// [`MemorySystem::pipe_drain_completed`] after
    /// [`MemorySystem::advance_to_next_event`] fires the miss.
    Pending(u64),
}

/// Event-pump counters ([`MemorySystem::pump_stats`]): pure
/// observability, never fed back into timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpStats {
    /// Channel drains armed (one per channel whose queue went from empty
    /// to non-empty).
    pub events_posted: u64,
    /// Armed drains fired by [`MemorySystem::advance_to_next_event`].
    pub events_fired: u64,
    /// Bank-ready completions observed by the pipelined drains (one per
    /// serviced read).
    pub bank_ready_events: u64,
    /// Distributed-refresh slices (one tREFI each) completed across the
    /// channel devices, blocking interludes included.
    pub refresh_events: u64,
    /// Calls to [`MemorySystem::advance_to_next_event`] that fired events.
    pub advances: u64,
    /// Total virtual time skipped by those advances, in ps (the idle gaps
    /// the event pump jumps over instead of polling through).
    pub idle_skip_total_ps: u128,
}

impl PumpStats {
    /// Mean virtual time skipped per advance, in ps (0.0 before the
    /// first advance).
    #[must_use]
    pub fn idle_skip_mean_ps(&self) -> f64 {
        if self.advances == 0 {
            0.0
        } else {
            self.idle_skip_total_ps as f64 / self.advances as f64
        }
    }
}

/// One op suspended on the MSHR file.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    id: u64,
    op: Access,
}

/// One outstanding miss line: the controller request plus every op waiting
/// on it. The primary waiter installs the fill; later waiters merged into
/// the same line and only collect the latency. Request ids are
/// per-controller monotonic counters, so the entry is keyed by
/// `(channel, req_id)` — ids alone collide across channels.
///
/// The primary is stored inline: almost every miss has exactly one waiter,
/// and an empty `Vec` does not allocate, so the common suspend/resolve
/// cycle is allocation-free.
#[derive(Debug)]
struct MshrEntry {
    channel: u32,
    req_id: u64,
    line_addr: u64,
    is_pte: bool,
    /// The op that installs the fill.
    primary: u64,
    /// Ops merged into the line after the primary (latency only).
    merged: Vec<u64>,
}

/// The levels below the core stack, borrowed for one step: the LLC and
/// the channel controllers.
struct Lower<'a> {
    llc: &'a mut Cache,
    controller: &'a mut MemoryController,
    aux: &'a mut [MemoryController],
    interleave: ChannelInterleave,
}

impl Lower<'_> {
    /// The controller serving `addr`.
    fn ctrl_for(&mut self, addr: PhysAddr) -> &mut MemoryController {
        match self.interleave.channel_of(addr) as usize {
            0 => self.controller,
            c => &mut self.aux[c - 1],
        }
    }
}

impl Uncore for Lower<'_> {
    fn llc(&mut self) -> &mut Cache {
        self.llc
    }

    fn write_line(&mut self, addr: PhysAddr, line: Line) {
        self.ctrl_for(addr).write_line(addr, line);
    }
}

/// The single-core memory system of Table III (N-channel capable).
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemSysConfig,
    core: CoreStack,
    llc: Cache,
    /// Channel 0's memory controller (public for device access in
    /// experiments, which run single-channel; use
    /// [`MemorySystem::channel`] to address other channels).
    pub controller: MemoryController,
    /// Controllers of channels `1..N` (empty in the single-channel
    /// configuration, so existing call sites see exactly one controller).
    aux: Vec<MemoryController>,
    /// The address → channel function shared by every access path.
    interleave: ChannelInterleave,
    mshr_hwm: u64,
    /// Outstanding-miss file of the pipelined path.
    mshr: Vec<MshrEntry>,
    /// Ops suspended on an MSHR entry.
    pending: Vec<PendingOp>,
    /// Ops that finished since the last [`MemorySystem::pipe_take_completed`].
    completed: Vec<(u64, AccessOutcome)>,
    /// Reusable buffer for one channel's drain in
    /// [`MemorySystem::advance_to_next_event`].
    drain_buf: Vec<(u64, DramRead)>,
    /// Reusable channel-tagged retire buffer for the cross-channel merge.
    merge_buf: Vec<(u32, u64, DramRead)>,
    next_op_id: u64,
    /// The event engine: the picosecond each channel's drain was armed
    /// at, if one is armed (at most one per channel).
    armed: Vec<Option<u128>>,
    /// Virtual-time frontier: the latest armed time any advance fired.
    /// Per-channel device clocks are independent latency accumulators, so
    /// an arm may lie behind the frontier; firing it never moves time back.
    now_ps: u128,
    /// Pump observability counters (refresh slices are sampled from the
    /// devices; see [`MemorySystem::pump_stats`]).
    pump: PumpStats,
}

impl MemorySystem {
    /// Builds the hierarchy over a single `controller`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.channels != 1` — a multi-channel configuration needs
    /// one controller per channel; use [`MemorySystem::new_multi`].
    #[must_use]
    pub fn new(cfg: MemSysConfig, controller: MemoryController) -> Self {
        assert_eq!(
            cfg.channels, 1,
            "MemorySystem::new is single-channel; use new_multi for {} channels",
            cfg.channels
        );
        Self::new_multi(cfg, vec![controller])
    }

    /// Builds the hierarchy over one controller per channel. Channel `i` of
    /// the [`ChannelInterleave`] maps to `controllers[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `controllers.len() != cfg.channels` or the channel count
    /// is not a power of two.
    #[must_use]
    pub fn new_multi(cfg: MemSysConfig, mut controllers: Vec<MemoryController>) -> Self {
        assert_eq!(
            controllers.len(),
            cfg.channels,
            "need one controller per channel"
        );
        let interleave = ChannelInterleave::new(u32::try_from(cfg.channels).expect("channels"));
        let controller = controllers.remove(0);
        Self {
            core: CoreStack::new(&cfg),
            llc: Cache::new(cfg.llc),
            controller,
            aux: controllers,
            interleave,
            mshr_hwm: 0,
            mshr: Vec::new(),
            pending: Vec::new(),
            completed: Vec::new(),
            drain_buf: Vec::new(),
            merge_buf: Vec::new(),
            next_op_id: 0,
            armed: vec![None; cfg.channels],
            now_ps: 0,
            pump: PumpStats::default(),
            cfg,
        }
    }

    /// The core stack and the levels below it, borrowed apart.
    fn split(&mut self) -> (&mut CoreStack, Lower<'_>) {
        let lower = Lower {
            llc: &mut self.llc,
            controller: &mut self.controller,
            aux: &mut self.aux,
            interleave: self.interleave,
        };
        (&mut self.core, lower)
    }

    /// Number of memory channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        1 + self.aux.len()
    }

    /// The controller of channel `i`.
    #[must_use]
    pub fn channel(&self, i: usize) -> &MemoryController {
        if i == 0 {
            &self.controller
        } else {
            &self.aux[i - 1]
        }
    }

    /// Mutable access to the controller of channel `i`.
    pub fn channel_mut(&mut self, i: usize) -> &mut MemoryController {
        if i == 0 {
            &mut self.controller
        } else {
            &mut self.aux[i - 1]
        }
    }

    /// Aggregate controller statistics: the fold of every channel's stats
    /// through [`ControllerStats::absorb`] (counters sum, high-water marks
    /// take the max). Identical to `controller.stats()` at one channel.
    #[must_use]
    pub fn controller_stats_total(&self) -> ControllerStats {
        let mut total = self.controller.stats();
        for c in &self.aux {
            total.absorb(&c.stats());
        }
        total
    }

    /// The channel serving `addr`.
    fn chan_of(&self, addr: PhysAddr) -> usize {
        self.interleave.channel_of(addr) as usize
    }

    /// Whether any channel has queued reads.
    fn any_queued_reads(&self) -> bool {
        self.controller.has_queued_reads()
            || self.aux.iter().any(MemoryController::has_queued_reads)
    }

    /// Total reads queued across all channels (flush diagnostics).
    fn queued_reads_total(&self) -> usize {
        self.controller.queued_reads()
            + self
                .aux
                .iter()
                .map(MemoryController::queued_reads)
                .sum::<usize>()
    }

    /// The system's configuration.
    #[must_use]
    pub fn config(&self) -> &MemSysConfig {
        &self.cfg
    }

    /// Points the walker at a page-table root (CR3) for a machine with
    /// `max_phys_bits` of physical address space.
    pub fn set_root(&mut self, root: Frame, max_phys_bits: u32) {
        self.core.set_root(root, max_phys_bits);
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            mshr_hwm: self.mshr_hwm,
            ..self.core.stats()
        }
    }

    /// Consumes the hierarchy, returning its memory controller — the DRAM
    /// contents (page tables included) travel with it. Call
    /// [`MemorySystem::flush_caches`] first so no dirty lines are lost.
    ///
    /// # Panics
    ///
    /// Panics on a multi-channel system: the DRAM contents are spread
    /// across the channels, so no single controller carries them.
    #[must_use]
    pub fn into_controller(self) -> MemoryController {
        assert!(
            self.aux.is_empty(),
            "into_controller is single-channel; a multi-channel system's store is interleaved"
        );
        self.controller
    }

    /// Consumes the hierarchy, returning every channel's controller in
    /// channel order — the multi-channel counterpart of
    /// [`MemorySystem::into_controller`]. Call
    /// [`MemorySystem::flush_caches`] first so no dirty lines are lost.
    #[must_use]
    pub fn into_controllers(self) -> Vec<MemoryController> {
        let mut v = vec![self.controller];
        v.extend(self.aux);
        v
    }

    /// The core's private stack.
    #[must_use]
    pub fn core(&self) -> &CoreStack {
        &self.core
    }

    /// The TLB (for assertions in tests).
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        self.core.tlb()
    }

    /// MMU-cache statistics.
    #[must_use]
    pub fn mmu_stats(&self) -> crate::mmucache::MmuCacheStats {
        self.core.mmu_stats()
    }

    /// Per-level cache statistics `(L1D, L2, LLC)`.
    #[must_use]
    pub fn cache_stats(
        &self,
    ) -> (
        crate::cache::CacheStats,
        crate::cache::CacheStats,
        crate::cache::CacheStats,
    ) {
        let (l1, l2) = self.core.cache_stats();
        (l1, l2, self.llc.stats())
    }

    /// TLB statistics.
    #[must_use]
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        self.core.tlb_stats()
    }

    /// A demand load from virtual address `va`, its misses served inline.
    pub fn load(&mut self, va: VirtAddr) -> AccessOutcome {
        self.serve_inline(va, false)
    }

    /// A demand store to virtual address `va`, its misses served inline.
    pub fn store(&mut self, va: VirtAddr) -> AccessOutcome {
        self.serve_inline(va, true)
    }

    /// Runs one access to completion, reading each miss from DRAM as the
    /// walk reaches it.
    fn serve_inline(&mut self, va: VirtAddr, write: bool) -> AccessOutcome {
        let mut op = Access::new(va, write);
        let (core, mut lower) = self.split();
        let mut step = core.step(&mut op, &mut lower);
        let mut missed = false;
        let out = loop {
            match step {
                Step::Done(out) => break out,
                Step::Miss { addr, is_pte } => {
                    missed = true;
                    let read = lower.ctrl_for(addr).read_line(addr, is_pte);
                    step = core.resume(&mut op, &read, true, &mut lower);
                }
            }
        };
        if missed {
            self.mshr_hwm = self.mshr_hwm.max(self.mshr.len() as u64 + 1);
        }
        out
    }

    /// Writes every dirty line back to DRAM (through PT-Guard) and clears
    /// dirtiness — the state a quiesced system reaches naturally.
    ///
    /// In-flight pipelined ops are drained first: a flush with a non-empty
    /// MSHR file must complete — not drop — the pending misses, or their
    /// fills (and any dirty lines they produce) would be lost.
    pub fn flush_caches(&mut self) {
        // Drain through the event engine, not a blind step loop: if reads
        // are queued but no drain is armed, stepping again would spin
        // forever — fail loudly with the stuck state instead.
        while self.any_queued_reads() {
            let progressed = self.advance_to_next_event();
            assert!(
                progressed,
                "flush deadlock: {} reads queued across {} channels but no drain is armed \
                 ({} pending ops, {} MSHR entries)",
                self.queued_reads_total(),
                self.channels(),
                self.pending.len(),
                self.mshr.len(),
            );
        }
        debug_assert!(
            self.pending.is_empty(),
            "every pending op waits on a queued read"
        );
        let (core, mut lower) = self.split();
        core.flush(&mut lower);
        for (a, l) in lower.llc.drain_dirty() {
            lower.write_line(a, l);
        }
    }

    /// Invalidates all cached translations and cache lines that alias the
    /// page-table pages — used after direct DRAM manipulation in
    /// experiments (hammering bypasses the coherent path).
    pub fn invalidate_translation_state(&mut self) {
        self.core.invalidate_translations();
    }

    /// Invalidates one line everywhere (without writeback).
    pub fn invalidate_line(&mut self, addr: PhysAddr) {
        self.core.invalidate_line(addr);
        let _ = self.llc.invalidate(addr);
    }

    /// The line holding `addr` as the core sees it: cached copies win over
    /// DRAM, which is read untimed.
    fn func_line(&mut self, addr: PhysAddr) -> Line {
        match self.core.peek(addr).or_else(|| self.llc.peek(addr)) {
            Some(line) => line,
            None => self.split().1.ctrl_for(addr).read_line(addr, false).line,
        }
    }

    /// Functional, untimed u64 read at a physical address, through the
    /// cache hierarchy (caches win over DRAM).
    #[must_use]
    pub fn func_read_u64(&mut self, addr: PhysAddr) -> u64 {
        self.func_line(addr).word(addr.line_offset() / 8)
    }

    /// Functional, untimed u64 write at a physical address: read-modify-
    /// write through the hierarchy with write-allocate into the L1.
    pub fn func_write_u64(&mut self, addr: PhysAddr, value: u64) {
        let mut line = self.func_line(addr);
        line.set_word(addr.line_offset() / 8, value);
        let (core, mut lower) = self.split();
        core.write_line(addr, line, &mut lower);
    }

    /// Issues a demand access on the event-driven pipeline, resolving
    /// synchronous completions inline.
    ///
    /// The op runs as far as the caches allow. An access that completes
    /// without a DRAM read (a TLB and cache hit, or a walk whose lines all
    /// hit) returns [`IssueOutcome::Done`] and never consumes an op id.
    /// A miss suspends on the MSHR file and returns
    /// [`IssueOutcome::Pending`] with its id; [`Self::advance_to_next_event`]
    /// resumes it, and its outcome is collected with
    /// [`Self::pipe_drain_completed`]. Ids stay monotonic across the ops
    /// that suspend, which is all the MSHR merge order needs.
    pub fn pipe_issue_event(&mut self, va: VirtAddr, write: bool) -> IssueOutcome {
        let mut op = Access::new(va, write);
        let (core, mut lower) = self.split();
        match core.step(&mut op, &mut lower) {
            Step::Done(out) => IssueOutcome::Done(out),
            Step::Miss { addr, is_pte } => {
                let id = self.next_op_id;
                self.next_op_id += 1;
                self.suspend(PendingOp { id, op }, addr, is_pte);
                IssueOutcome::Pending(id)
            }
        }
    }

    /// Pumps the event engine one round: jumps virtual time to the latest
    /// armed drain, drains every armed channel in index order, merges the
    /// completions, and resumes the ops waiting on them (resumed ops run
    /// until they complete or suspend on a new miss, arming the next
    /// round). Returns `false` — having done nothing — when no channel is
    /// armed.
    ///
    /// Completions retire in integer-picosecond order, ties broken by
    /// channel index then request id — a unique key, so the order in
    /// which channels are drained cannot matter — and, with one channel,
    /// identical to the single-controller model's `(dram_ps, id)` order.
    pub fn advance_to_next_event(&mut self) -> bool {
        let from_ps = self.now_ps;
        let mut drained = std::mem::take(&mut self.drain_buf);
        if self.aux.is_empty() {
            // Single-channel fast path: a drain's output is already in
            // `(dram_ps, id)` completion order, so the cross-channel
            // tag/merge/sort is skipped — the resume order is identical by
            // construction.
            let Some(ps) = self.armed[0].take() else {
                return false;
            };
            self.fire(ps);
            drained.clear();
            self.controller.drain_reads(&mut drained);
            self.pump.bank_ready_events += drained.len() as u64;
            self.record_advance(from_ps);
            for (req_id, read) in &drained {
                self.resolve_completion(0, *req_id, read);
            }
            self.drain_buf = drained;
            return true;
        }
        if self.armed.iter().all(Option::is_none) {
            return false;
        }
        let mut merged = std::mem::take(&mut self.merge_buf);
        merged.clear();
        // One round = every armed channel. Arms made by the resumes below
        // wait for the next round.
        for ch in 0..self.armed.len() {
            let Some(ps) = self.armed[ch].take() else {
                continue;
            };
            self.fire(ps);
            drained.clear();
            self.channel_mut(ch).drain_reads(&mut drained);
            self.pump.bank_ready_events += drained.len() as u64;
            let tag = u32::try_from(ch).expect("channel index");
            merged.extend(drained.drain(..).map(|(req_id, read)| (tag, req_id, read)));
        }
        self.record_advance(from_ps);
        if merged.len() > 1 {
            merged.sort_by_key(|a| (a.2.dram_ps, a.0, a.1));
        }
        for (ch, req_id, read) in &merged {
            self.resolve_completion(*ch, *req_id, read);
        }
        self.drain_buf = drained;
        self.merge_buf = merged;
        true
    }

    /// Fires one armed drain, moving the frontier up to its time.
    fn fire(&mut self, ps: u128) {
        self.pump.events_fired += 1;
        self.now_ps = self.now_ps.max(ps);
    }

    /// Counts one pump round and the virtual time it skipped.
    fn record_advance(&mut self, from_ps: u128) {
        self.pump.advances += 1;
        self.pump.idle_skip_total_ps += self.now_ps - from_ps;
    }

    /// Retires one completed read: pops its MSHR entry and resumes every
    /// waiter (the primary installs the fill, merged waiters only collect
    /// the latency).
    fn resolve_completion(&mut self, ch: u32, req_id: u64, read: &DramRead) {
        let Some(pos) = self
            .mshr
            .iter()
            .position(|e| e.channel == ch && e.req_id == req_id)
        else {
            return;
        };
        let entry = self.mshr.remove(pos);
        for (i, op_id) in std::iter::once(entry.primary)
            .chain(entry.merged.iter().copied())
            .enumerate()
        {
            let pos = self
                .pending
                .iter()
                .position(|p| p.id == op_id)
                .expect("MSHR waiter must be pending");
            let mut pending = self.pending.remove(pos);
            let (core, mut lower) = self.split();
            match core.resume(&mut pending.op, read, i == 0, &mut lower) {
                Step::Done(out) => self.completed.push((op_id, out)),
                Step::Miss { addr, is_pte } => self.suspend(pending, addr, is_pte),
            }
        }
    }

    /// Event-pump counters (drain arms, device completions, idle
    /// skips). Refresh slices are sampled from the channel devices, so
    /// the count covers the whole run, blocking interludes included.
    #[must_use]
    pub fn pump_stats(&self) -> PumpStats {
        let refresh_events = (0..self.channels())
            .map(|ch| self.channel(ch).device().stats().refresh_slices)
            .sum();
        PumpStats {
            refresh_events,
            ..self.pump
        }
    }

    /// Ops issued but not yet completed.
    #[must_use]
    pub fn pipe_pending(&self) -> usize {
        self.pending.len()
    }

    /// Takes the `(op id, outcome)` pairs completed so far.
    pub fn pipe_take_completed(&mut self) -> Vec<(u64, AccessOutcome)> {
        std::mem::take(&mut self.completed)
    }

    /// Appends the `(op id, outcome)` pairs completed so far to `out`,
    /// leaving the internal buffer empty but with its capacity intact —
    /// the allocation-free variant of [`Self::pipe_take_completed`] the
    /// windowed drivers use every op.
    pub fn pipe_drain_completed(&mut self, out: &mut Vec<(u64, AccessOutcome)>) {
        out.append(&mut self.completed);
    }

    /// Parks `op` on the MSHR entry for `addr`'s line, creating the entry —
    /// and queueing the DRAM read — if this is the line's first miss.
    fn suspend(&mut self, op: PendingOp, addr: PhysAddr, is_pte: bool) {
        let line_addr = addr.line_addr().as_u64();
        if let Some(entry) = self
            .mshr
            .iter_mut()
            .find(|e| e.line_addr == line_addr && e.is_pte == is_pte)
        {
            entry.merged.push(op.id);
        } else {
            let ch = self.chan_of(addr);
            let req_id = self.channel_mut(ch).enqueue_read(addr, is_pte);
            self.mshr.push(MshrEntry {
                channel: u32::try_from(ch).expect("channel index"),
                req_id,
                line_addr,
                is_pte,
                primary: op.id,
                merged: Vec::new(),
            });
            self.mshr_hwm = self.mshr_hwm.max(self.mshr.len() as u64);
            // First outstanding read on this channel: arm its drain at
            // the channel device's current time.
            if self.armed[ch].is_none() {
                self.armed[ch] = Some(self.channel(ch).device().now_ps());
                self.pump.events_posted += 1;
            }
        }
        self.pending.push(op);
    }
}

/// A [`PhysMem`] view of a [`MemorySystem`] for the OS model: the
/// `AddressSpace` builds page tables *through the cache hierarchy*, exactly
/// like kernel stores, so PTE lines acquire MACs when they drain to DRAM.
#[derive(Debug)]
pub struct OsPort<'a> {
    sys: &'a mut MemorySystem,
}

impl<'a> OsPort<'a> {
    /// Wraps a memory system.
    #[must_use]
    pub fn new(sys: &'a mut MemorySystem) -> Self {
        Self { sys }
    }
}

impl PhysMem for OsPort<'_> {
    fn size(&self) -> u64 {
        self.sys.controller.device().size()
    }

    fn read_u8(&self, _addr: PhysAddr) -> u8 {
        unreachable!("OsPort uses the word-granular accessors")
    }

    fn write_u8(&mut self, _addr: PhysAddr, _value: u8) {
        unreachable!("OsPort uses the word-granular accessors")
    }

    fn read_u64(&self, addr: PhysAddr) -> u64 {
        // PhysMem::read_u64 takes &self; route through an unsafe-free
        // workaround: peek caches, fall back to an *untimed functional*
        // device read of the stripped line.
        if let Some(line) = self.sys.core.peek(addr).or_else(|| self.sys.llc.peek(addr)) {
            return line.word(addr.line_offset() / 8);
        }
        // Functional DRAM read: strip a verified MAC like the read path
        // would, without mutating engine statistics or timing. The line
        // lives on whichever channel the interleave maps it to.
        let ctrl = self.sys.channel(self.sys.chan_of(addr));
        let raw = Line::from_bytes(&ctrl.device().read_line(addr));
        let stripped = match ctrl.engine() {
            Some(engine) => {
                let mac_unit = engine.mac_unit();
                let stored = ptguard::pattern::extract_mac(&raw);
                if mac_unit.compute(&raw, addr) == stored {
                    if engine.config().optimized {
                        ptguard::pattern::strip_mac_and_identifier(&raw)
                    } else {
                        ptguard::pattern::strip_mac(&raw)
                    }
                } else {
                    raw
                }
            }
            None => raw,
        };
        stripped.word(addr.line_offset() / 8)
    }

    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.sys.func_write_u64(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{DramDevice, RowhammerConfig};
    use pagetable::space::AddressSpace;
    use pagetable::x86_64::PteFlags;
    use ptguard::PtGuardConfig;
    use ptguard::PtGuardEngine;

    fn system(guarded: bool) -> MemorySystem {
        let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let engine = guarded.then(|| PtGuardEngine::new(PtGuardConfig::default()));
        let mc = MemoryController::new(device, engine, 3.0);
        MemorySystem::new(MemSysConfig::default(), mc)
    }

    /// Builds a mapped address space inside the system via the OS port.
    fn setup(sys: &mut MemorySystem, pages: u64) -> (AddressSpace, u64) {
        let base = 0x40_0000_0000u64;
        let mut port = OsPort::new(sys);
        let mut space = AddressSpace::new(&mut port, 32).unwrap();
        for i in 0..pages {
            let va = VirtAddr::new(base + i * 4096);
            space.map_new(&mut port, va, PteFlags::user_data()).unwrap();
        }
        let root = space.root();
        sys.set_root(root, 32);
        (space, base)
    }

    #[test]
    fn load_walks_then_hits_tlb() {
        let mut sys = system(true);
        let (_space, base) = setup(&mut sys, 4);
        let va = VirtAddr::new(base);
        let first = sys.load(va);
        assert!(first.is_ok());
        assert_eq!(sys.stats().walks, 1);
        let second = sys.load(va);
        assert!(second.is_ok());
        assert_eq!(sys.stats().walks, 1, "second access must hit the TLB");
        assert!(second.cycles() < first.cycles());
    }

    #[test]
    fn walk_verifies_pte_lines_from_dram() {
        let mut sys = system(true);
        let (_space, base) = setup(&mut sys, 4);
        sys.flush_caches();
        sys.invalidate_translation_state();
        // Also evict PTE lines from caches so the walk reaches DRAM: the
        // caches may hold them from construction. Invalidate everything the
        // page tables touch.
        let lines: Vec<PhysAddr> = _space.pte_line_addrs();
        for a in &lines {
            sys.invalidate_line(*a);
        }
        let out = sys.load(VirtAddr::new(base));
        assert!(out.is_ok());
        let engine_stats = sys.controller.engine().unwrap().stats();
        assert!(
            engine_stats.pte_reads > 0,
            "walk must reach DRAM with is_pte set"
        );
        assert!(engine_stats.verified > 0, "PTE line must verify");
    }

    #[test]
    fn tampered_pte_in_dram_faults_the_walk() {
        let mut sys = system(true);
        let (space, base) = setup(&mut sys, 64);
        sys.flush_caches();
        sys.invalidate_translation_state();
        for a in space.pte_line_addrs() {
            sys.invalidate_line(a);
        }
        // Find the leaf PTE line of `base` (walking a MAC-stripped view —
        // in-DRAM PTEs carry MACs in their high PFN bits) and corrupt it
        // beyond correction: 5 flips inside the stored MAC exceed the
        // soft-match tolerance (k = 4), an uncorrectable-MAC fault.
        let leaf_line = {
            let port = OsPort::new(&mut sys);
            space
                .walker()
                .walk(&port, VirtAddr::new(base))
                .unwrap()
                .accesses[3]
                .entry_addr
                .line_addr()
        };
        let dev = sys.controller.device_mut();
        let mut raw = Line::from_bytes(&dev.read_line(leaf_line));
        raw.set_word(0, raw.word(0) ^ (0b11111 << 41));
        let bytes = raw.to_bytes();
        dev.write_line(leaf_line, &bytes);

        match sys.load(VirtAddr::new(base)) {
            AccessOutcome::PteCheckFailed { level: 0, .. } => {}
            other => panic!("expected PteCheckFailed at leaf, got {other:?}"),
        }
        assert_eq!(sys.stats().integrity_faults, 1);
    }

    #[test]
    fn unguarded_system_consumes_tampered_pte() {
        let mut sys = system(false);
        let (space, base) = setup(&mut sys, 64);
        sys.flush_caches();
        sys.invalidate_translation_state();
        for a in space.pte_line_addrs() {
            sys.invalidate_line(a);
        }
        let walker = space.walker();
        let dev = sys.controller.device_mut();
        let walk = walker.walk(dev, VirtAddr::new(base)).unwrap();
        let leaf_addr = walk.accesses[3].entry_addr;
        // Flip one PFN bit within bounds: translation silently changes.
        let raw = dev.read_u64(leaf_addr);
        dev.write_u64(leaf_addr, raw ^ (1 << 13));
        let out = sys.load(VirtAddr::new(base));
        assert!(
            out.is_ok(),
            "unprotected system happily uses the tampered PTE"
        );
        let hijacked = sys.tlb().peek_frame(VirtAddr::new(base).vpn()).unwrap();
        assert_ne!(hijacked, walk.leaf.frame(), "translation was hijacked");
    }

    #[test]
    fn mmu_cache_accelerates_subsequent_walks() {
        let mut sys = system(true);
        let (_space, base) = setup(&mut sys, 4);
        // Cold walk: every upper level misses the MMU cache.
        assert!(sys.load(VirtAddr::new(base)).is_ok());
        let cold = sys.mmu_stats();
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.misses, 3);
        // Second page shares all upper levels: three MMU-cache hits.
        assert!(sys.load(VirtAddr::new(base + 4096)).is_ok());
        let warm = sys.mmu_stats();
        assert_eq!(warm.hits, 3);
        assert_eq!(warm.misses, 3);
    }

    #[test]
    fn huge_pages_walk_correctly_and_reduce_walk_traffic() {
        let mut sys = system(true);
        let base = 0x80_0000_0000u64;
        let (root, huge_frame) = {
            let mut port = OsPort::new(&mut sys);
            let mut space = AddressSpace::new(&mut port, 32).unwrap();
            // One 2 MB huge page.
            let frame = {
                // Reach into the allocator via contiguous allocation.
                let f = space.alloc_frame(&mut port).unwrap();
                let _ = f; // burn one to prove alignment logic is separate
                space_alloc_huge(&mut space, &mut port)
            };
            space
                .map_huge_2mb(&mut port, VirtAddr::new(base), frame, PteFlags::user_data())
                .unwrap();
            (space.root(), frame)
        };
        sys.set_root(root, 32);
        sys.flush_caches();

        // Touch 64 different 4 KB pages inside the huge page.
        for i in 0..64u64 {
            let out = sys.load(VirtAddr::new(base + i * 4096 + 0x10));
            assert!(out.is_ok(), "page {i}: {out:?}");
            let got = sys
                .tlb()
                .peek_frame(VirtAddr::new(base + i * 4096).vpn())
                .unwrap();
            assert_eq!(got.0, huge_frame.0 + i, "splintered TLB frame");
        }
        // Walks happened (one per 4 KB splinter) but terminated at the PD
        // level: only 3 levels of PTE accesses, and no PT-level lines.
        assert_eq!(sys.stats().walks, 64);
    }

    fn space_alloc_huge(space: &mut AddressSpace, port: &mut OsPort<'_>) -> pagetable::addr::Frame {
        // Allocate until a 2 MB-aligned run starts (test helper).
        loop {
            let f = space.alloc_frame(port).unwrap();
            if f.0 % 512 == 511 {
                // next 512 allocations are the aligned run
                let start = space.alloc_frame(port).unwrap();
                assert_eq!(start.0 % 512, 0);
                for _ in 1..512 {
                    let _ = space.alloc_frame(port).unwrap();
                }
                return start;
            }
        }
    }

    /// Forces the next accesses to miss all the way to DRAM: dirty state
    /// drains, translations drop, and every page-table line is evicted.
    fn cold_start(sys: &mut MemorySystem, space: &AddressSpace) {
        sys.flush_caches();
        sys.invalidate_translation_state();
        for a in space.pte_line_addrs() {
            sys.invalidate_line(a);
        }
    }

    /// Issues an access that must miss to DRAM and returns its op id.
    fn issue_miss(sys: &mut MemorySystem, va: VirtAddr, write: bool) -> u64 {
        match sys.pipe_issue_event(va, write) {
            IssueOutcome::Pending(id) => id,
            IssueOutcome::Done(out) => panic!("cold access completed at issue: {out:?}"),
        }
    }

    #[test]
    fn pipelined_access_matches_blocking_cycles() {
        // One cold access through each path, from identical machine state,
        // must cost identical cycles — the pipeline is a refactor of the
        // same event sequence, not a new timing model.
        let mut blocking = system(true);
        let (space_b, base) = setup(&mut blocking, 8);
        let mut piped = system(true);
        let (space_p, _) = setup(&mut piped, 8);
        for i in 0..8 {
            let va = VirtAddr::new(base + i * 4096);
            cold_start(&mut blocking, &space_b);
            cold_start(&mut piped, &space_p);
            let out_b = blocking.load(va);
            let id = issue_miss(&mut piped, va, false);
            while piped.pipe_pending() > 0 {
                assert!(piped.advance_to_next_event());
            }
            let done = piped.pipe_take_completed();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].0, id);
            assert!(done[0].1.is_ok());
            assert_eq!(
                out_b.cycles(),
                done[0].1.cycles(),
                "page {i}: blocking vs pipelined latency"
            );
        }
    }

    #[test]
    fn flush_drains_inflight_misses_instead_of_dropping_them() {
        let mut sys = system(true);
        let (space, base) = setup(&mut sys, 16);
        cold_start(&mut sys, &space);
        // Issue a window of stores that all miss to DRAM; their dirty fills
        // exist only in the pipeline until the misses complete.
        let ids: Vec<u64> = (0..4)
            .map(|i| issue_miss(&mut sys, VirtAddr::new(base + i * 4096), true))
            .collect();
        assert!(sys.pipe_pending() > 0, "cold stores must suspend on misses");
        assert!(sys.controller.has_queued_reads());
        sys.flush_caches();
        assert_eq!(sys.pipe_pending(), 0, "flush must drain the MSHR file");
        let done = sys.pipe_take_completed();
        assert_eq!(done.len(), ids.len(), "no in-flight op may be dropped");
        for (id, out) in &done {
            assert!(ids.contains(id));
            assert!(out.is_ok(), "drained op {id} faulted: {out:?}");
        }
        assert!(sys.stats().mshr_hwm >= 1);
        assert!(sys.controller.stats().queue_occupancy_hwm >= 1);
    }

    #[test]
    fn mshr_merges_misses_to_the_same_line() {
        let mut sys = system(true);
        let (space, base) = setup(&mut sys, 4);
        // Warm the TLB so the data accesses need no walk, then go cold on
        // the caches only: both issues miss on the same data line.
        for i in 0..4 {
            let _ = sys.load(VirtAddr::new(base + i * 4096));
        }
        sys.flush_caches();
        let pa = {
            let port = OsPort::new(&mut sys);
            space.translate(&port, VirtAddr::new(base)).unwrap()
        };
        sys.invalidate_line(pa);
        let reads_before = sys.controller.stats().reads;
        let a = issue_miss(&mut sys, VirtAddr::new(base), false);
        let b = issue_miss(&mut sys, VirtAddr::new(base + 8), false);
        assert_eq!(sys.pipe_pending(), 2, "both ops wait on the same miss");
        while sys.pipe_pending() > 0 {
            assert!(sys.advance_to_next_event());
        }
        let done = sys.pipe_take_completed();
        assert_eq!(done.len(), 2);
        for (id, out) in &done {
            assert!(*id == a || *id == b);
            assert!(out.is_ok());
        }
        assert_eq!(
            sys.controller.stats().reads - reads_before,
            1,
            "the secondary miss must merge into the primary's MSHR entry"
        );
    }

    #[test]
    fn os_port_roundtrip() {
        let mut sys = system(true);
        let addr = PhysAddr::new(0x123450);
        {
            let mut port = OsPort::new(&mut sys);
            port.write_u64(addr, 0xdead_beef_cafe_f00d);
            assert_eq!(port.read_u64(addr), 0xdead_beef_cafe_f00d);
        }
        sys.flush_caches();
        {
            let port = OsPort::new(&mut sys);
            assert_eq!(port.read_u64(addr), 0xdead_beef_cafe_f00d);
        }
    }

    /// A demand read of the line at physical `addr`: the stack's probe,
    /// then a DRAM read and fill on a miss.
    fn touch_line(sys: &mut MemorySystem, addr: PhysAddr) {
        let (core, mut lower) = sys.split();
        if core.probe(addr, false, false, &mut lower).is_err() {
            let read = lower.ctrl_for(addr).read_line(addr, false);
            core.install_fill(addr, read.line, false, false, &mut lower);
        }
    }

    /// Loads `ways` more lines into `addr`'s L1 set, pushing `addr` out of
    /// the L1 (they spread over several L2 sets, so the L2 keeps it).
    fn evict_from_l1(sys: &mut MemorySystem, addr: PhysAddr) {
        let cfg = sys.config().l1d;
        let stride = (cfg.sets() * 64) as u64;
        for i in 1..=cfg.ways as u64 {
            touch_line(sys, PhysAddr::new(addr.as_u64() + i * stride));
        }
        assert!(
            sys.core.l1d.peek(addr).is_none(),
            "{addr:?} still in the L1"
        );
    }

    #[test]
    fn l1_victim_refreshes_the_stale_l2_copy() {
        // A store to a line the L1 and L2 both hold dirties only the L1
        // copy. When the L1 evicts it, the L2 copy must take the new data:
        // sending the victim past the L2 left a stale L2 copy that every
        // later read returned.
        let mut sys = system(true);
        let a = PhysAddr::new(0x10_0000);
        touch_line(&mut sys, a);
        assert!(sys.core.l2.peek(a).is_some());
        sys.func_write_u64(a, 0xdead_beef);
        evict_from_l1(&mut sys, a);
        assert_eq!(sys.func_read_u64(a), 0xdead_beef);
        assert_eq!(sys.controller.stats().writes, 0, "the victim stays on chip");
    }

    #[test]
    fn flush_writes_the_newer_l1_copy_over_the_older_l2_copy() {
        let mut sys = system(false);
        let a = PhysAddr::new(0x20_0000);
        touch_line(&mut sys, a);
        evict_from_l1(&mut sys, a);
        sys.func_write_u64(a, 1); // the L2 holds a dirty 1
        touch_line(&mut sys, a);
        sys.func_write_u64(a, 2); // the L1 holds a dirty 2
        sys.flush_caches();
        assert_eq!(sys.controller.device().read_u64(a), 2);
    }

    fn system_n(guarded: bool, channels: usize) -> MemorySystem {
        let cfg = MemSysConfig {
            channels,
            ..MemSysConfig::default()
        };
        let controllers = (0..channels)
            .map(|_| {
                let device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
                let engine = guarded.then(|| PtGuardEngine::new(PtGuardConfig::default()));
                MemoryController::new(device, engine, 3.0)
            })
            .collect();
        MemorySystem::new_multi(cfg, controllers)
    }

    #[test]
    fn four_channel_system_spreads_traffic_and_reconciles_stats() {
        let mut sys = system_n(true, 4);
        let (space, base) = setup(&mut sys, 64);
        cold_start(&mut sys, &space);
        for i in 0..64 {
            let out = sys.load(VirtAddr::new(base + i * 4096));
            assert!(out.is_ok(), "page {i} faulted: {out:?}");
        }
        let per: Vec<_> = (0..sys.channels())
            .map(|c| sys.channel(c).stats())
            .collect();
        assert!(
            per.iter().filter(|s| s.reads > 0).count() >= 2,
            "traffic must spread across channels: {:?}",
            per.iter().map(|s| s.reads).collect::<Vec<_>>()
        );
        let total = sys.controller_stats_total();
        assert_eq!(per.iter().map(|s| s.reads).sum::<u64>(), total.reads);
        assert_eq!(per.iter().map(|s| s.writes).sum::<u64>(), total.writes);
        assert_eq!(
            per.iter().map(|s| s.mac_cycles_added).sum::<u64>(),
            total.mac_cycles_added
        );
    }

    #[test]
    fn four_channel_pipeline_is_deterministic_and_complete() {
        let run = || {
            let mut sys = system_n(true, 4);
            let (space, base) = setup(&mut sys, 32);
            cold_start(&mut sys, &space);
            let ids: Vec<u64> = (0..32)
                .map(|i| issue_miss(&mut sys, VirtAddr::new(base + i * 4096), i % 3 == 0))
                .collect();
            while sys.pipe_pending() > 0 {
                assert!(sys.advance_to_next_event());
            }
            let done = sys.pipe_take_completed();
            assert_eq!(done.len(), ids.len(), "no in-flight op may be dropped");
            done
        };
        let a = run();
        let b = run();
        for ((ida, outa), (idb, outb)) in a.iter().zip(&b) {
            assert_eq!(ida, idb, "completion order must be deterministic");
            assert_eq!(outa.cycles(), outb.cycles());
            assert!(outa.is_ok());
        }
    }

    /// Writes `value` at `addr` through a generic store and reads it back —
    /// the shape of every `M: PhysMem` consumer handed a `&mut` borrow.
    fn roundtrip<M: PhysMem>(mut m: M, addr: PhysAddr, value: u64) -> u64 {
        m.write_u64(addr, value);
        m.read_u64(addr)
    }

    /// The line-granular counterpart of [`roundtrip`].
    fn line_roundtrip<M: PhysMem>(mut m: M, addr: PhysAddr, line: &[u8; 64]) -> [u8; 64] {
        m.write_line(addr, line);
        m.read_line(addr)
    }

    #[test]
    fn borrowed_stores_keep_their_word_and_line_accessors() {
        // `OsPort` has no byte accessors: a `&mut` forward that fell back
        // to the byte defaults would panic here.
        let mut sys = system(true);
        let (a, b) = (PhysAddr::new(0x20_0040), PhysAddr::new(0x20_0048));
        let mut port = OsPort::new(&mut sys);
        assert_eq!(
            roundtrip(&mut port, a, 0x1234_5678_9abc_def0),
            0x1234_5678_9abc_def0
        );
        port.write_u64(b, 7);
        assert_eq!(port.read_u64(a), 0x1234_5678_9abc_def0);
        assert_eq!(roundtrip(&mut port, b, 9), 9);
        assert_eq!(port.read_u64(b), 9);

        let mut device = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        assert_eq!(roundtrip(&mut device, a, u64::MAX), u64::MAX);
        assert_eq!(device.read_u64(a), u64::MAX);
        let line = [0xa5u8; 64];
        assert_eq!(line_roundtrip(&mut device, b, &line), line);
        assert_eq!(device.read_line(b), line);
    }

    #[test]
    fn pump_counters_are_pinned_for_a_four_channel_run() {
        // Sixteen cold ops in flight across four channels, two rounds,
        // sixteen more issued, then pumped dry: the pinned totals catch
        // any change to how drains arm, fire and skip idle time.
        let mut sys = system_n(true, 4);
        let (space, base) = setup(&mut sys, 32);
        cold_start(&mut sys, &space);
        for i in 0..16 {
            let _ = sys.pipe_issue_event(VirtAddr::new(base + i * 4096), i % 3 == 0);
        }
        assert!(sys.advance_to_next_event());
        assert!(sys.advance_to_next_event());
        for i in 16..32 {
            let _ = sys.pipe_issue_event(VirtAddr::new(base + i * 4096), i % 3 == 0);
        }
        while sys.advance_to_next_event() {}
        assert_eq!(sys.pipe_pending(), 0);
        let pump = sys.pump_stats();
        assert_eq!(pump.events_posted, 11);
        assert_eq!(pump.events_fired, 11);
        assert_eq!(pump.advances, 5);
        assert_eq!(pump.bank_ready_events, 39);
        assert_eq!(pump.idle_skip_total_ps, 2_333_670);
    }
}
