//! One core's private half of the hierarchy, and the one page walk.
//!
//! A [`CoreStack`] holds what a core owns privately: the TLB, the MMU
//! cache, the L1D and the L2, plus the walker's root and physical-address
//! width. It runs a memory op ([`Access`]) as a state machine:
//! [`CoreStack::step`] translates, walks and probes the caches until the op
//! either completes or misses every level, and [`CoreStack::resume`] takes
//! the DRAM read a miss waited on and carries on. The levels below the
//! stack — the LLC and the DRAM channels its victims drain to — are the
//! caller's ([`Uncore`]), and so is how a miss is served: inline, queued on
//! the event pump, or serialised on a channel shared with other cores.

use pagetable::addr::{Frame, PhysAddr, VirtAddr};
use pagetable::x86_64::Pte;
use ptguard::engine::ReadVerdict;
use ptguard::line::Line;

use crate::cache::{self, Cache, CacheStats};
use crate::config::MemSysConfig;
use crate::controller::DramRead;
use crate::mmucache::{MmuCache, MmuCacheStats};
use crate::system::{AccessOutcome, SystemStats};
use crate::tlb::{Tlb, TlbStats};

/// The levels below a private stack: the LLC it shares and the write port
/// that lines leaving the hierarchy take to DRAM.
pub trait Uncore {
    /// The last-level cache.
    fn llc(&mut self) -> &mut Cache;
    /// Writes a line leaving the hierarchy to its channel (off the
    /// critical path).
    fn write_line(&mut self, addr: PhysAddr, line: Line);
}

/// What [`CoreStack::step`] and [`CoreStack::resume`] leave an op at.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub enum Step {
    /// The op finished.
    Done(AccessOutcome),
    /// The op missed every cache level on `addr`'s line; hand the read to
    /// [`CoreStack::resume`]. `is_pte` is the request-bus walk tag.
    Miss {
        /// The address that missed.
        addr: PhysAddr,
        /// Whether the read is a page-walk access.
        is_pte: bool,
    },
}

/// Where an op is in its walk.
#[derive(Debug, Clone, Copy)]
enum OpState {
    /// About to look up the TLB.
    Translate,
    /// Walking: about to access the entry of `table` at `level`.
    Walk {
        /// Current page-table frame.
        table: Frame,
        /// Walk level (3 = PML4 … 0 = PT).
        level: usize,
    },
    /// Waiting on a DRAM read of a walk entry.
    AwaitWalk {
        /// Walk level of the entry.
        level: usize,
        /// The entry's physical address.
        entry_addr: PhysAddr,
    },
    /// Translated: about to access the data line through `leaf`.
    Data {
        /// The leaf PTE.
        leaf: Pte,
    },
    /// Waiting on a DRAM read of the data line at `pa`.
    AwaitData {
        /// The data line's physical address.
        pa: PhysAddr,
    },
}

/// One demand load or store in flight through a [`CoreStack`].
#[derive(Debug, Clone, Copy)]
pub struct Access {
    va: VirtAddr,
    write: bool,
    cycles: u64,
    state: OpState,
}

impl Access {
    /// A demand load (`write = false`) or store to `va`, not yet started.
    #[must_use]
    pub fn new(va: VirtAddr, write: bool) -> Self {
        Self {
            va,
            write,
            cycles: 0,
            state: OpState::Translate,
        }
    }

    /// Cycles the op has spent so far, its pending miss's probe included.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// A core's private TLB, MMU cache, L1D and L2, and its page walker.
#[derive(Debug)]
pub struct CoreStack {
    pub(crate) l1d: Cache,
    pub(crate) l2: Cache,
    tlb: Tlb,
    mmu: MmuCache,
    tlb_latency_cycles: u64,
    root: Frame,
    max_phys_bits: u32,
    /// Demand counters (`mshr_hwm` stays 0: the MSHR file is the driver's).
    stats: SystemStats,
}

impl CoreStack {
    /// Cold structures with `cfg`'s private-level geometry, walking from
    /// frame 0 on a 40-bit machine until [`Self::set_root`].
    #[must_use]
    pub fn new(cfg: &MemSysConfig) -> Self {
        Self {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            tlb: Tlb::new(cfg.tlb_entries),
            mmu: MmuCache::new(
                cfg.mmu_cache_entries,
                cfg.mmu_cache_ways,
                cfg.mmu_cache_latency_cycles,
            ),
            tlb_latency_cycles: cfg.tlb_latency_cycles,
            root: Frame(0),
            max_phys_bits: 40,
            stats: SystemStats::default(),
        }
    }

    /// Points the walker at a page-table root (CR3) for a machine with
    /// `max_phys_bits` of physical address space.
    pub fn set_root(&mut self, root: Frame, max_phys_bits: u32) {
        self.root = root;
        self.max_phys_bits = max_phys_bits;
        self.invalidate_translations();
    }

    /// Drops every cached translation (TLB and MMU cache).
    pub fn invalidate_translations(&mut self) {
        self.tlb.flush();
        self.mmu.flush();
    }

    /// Runs `op` until it completes or misses every cache level. Inlined
    /// so that a TLB hit costs its driver one call (the cache probe).
    #[inline(always)]
    pub fn step<U: Uncore>(&mut self, op: &mut Access, below: &mut U) -> Step {
        if let OpState::Translate = op.state {
            op.cycles += self.tlb_latency_cycles;
            if op.write {
                self.stats.stores += 1;
            } else {
                self.stats.loads += 1;
            }
            if let Some(leaf) = self.tlb.lookup(op.va.vpn()) {
                return self.access_data(op, leaf, below);
            }
            self.stats.walks += 1;
            op.state = OpState::Walk {
                table: self.root,
                level: 3,
            };
        }
        self.walk(op, below)
    }

    /// The walk from `op`'s current level down to its leaf, then the data
    /// access; stops early on a fault or a miss.
    fn walk<U: Uncore>(&mut self, op: &mut Access, below: &mut U) -> Step {
        loop {
            let (table, level) = match op.state {
                OpState::Walk { table, level } => (table, level),
                OpState::Data { leaf } => return self.access_data(op, leaf, below),
                _ => unreachable!("a waiting op continues through resume"),
            };
            let entry_addr =
                PhysAddr::new(table.base().as_u64() + (op.va.level_index(level) as u64) * 8);
            let cached = if level > 0 {
                self.mmu.lookup(entry_addr)
            } else {
                None
            };
            let pte = if let Some(pte) = cached {
                op.cycles += self.mmu.latency_cycles;
                pte
            } else {
                match self.probe(entry_addr, false, true, below) {
                    Ok((line, c)) => {
                        op.cycles += c;
                        self.read_pte(level, entry_addr, &line)
                    }
                    Err(c) => {
                        op.cycles += c;
                        op.state = OpState::AwaitWalk { level, entry_addr };
                        return Step::Miss {
                            addr: entry_addr,
                            is_pte: true,
                        };
                    }
                }
            };
            if let Some(fault) = self.classify_pte(op, level, pte) {
                return Step::Done(fault);
            }
        }
    }

    /// The data access of a translated op.
    #[inline]
    fn access_data<U: Uncore>(&mut self, op: &mut Access, leaf: Pte, below: &mut U) -> Step {
        let pa = leaf.target(op.va.page_offset());
        match self.probe(pa, op.write, false, below) {
            Ok((_, c)) => {
                op.cycles += c;
                Step::Done(AccessOutcome::Ok {
                    cycles: op.cycles,
                    llc_miss: false,
                })
            }
            Err(c) => {
                op.cycles += c;
                op.state = OpState::AwaitData { pa };
                Step::Miss {
                    addr: pa,
                    is_pte: false,
                }
            }
        }
    }

    /// Continues `op` with the DRAM read its miss waited on. The `primary`
    /// waiter on a line installs the fill; a waiter merged into the same
    /// miss only collects the latency (and, for a store, dirties the line
    /// the primary installed).
    pub fn resume<U: Uncore>(
        &mut self,
        op: &mut Access,
        read: &DramRead,
        primary: bool,
        below: &mut U,
    ) -> Step {
        op.cycles += read.latency_cycles;
        let failed = read.verdict == ReadVerdict::CheckFailed;
        match op.state {
            OpState::AwaitWalk { level, entry_addr } => {
                self.stats.walk_llc_misses += 1;
                if failed {
                    // PTECheckFailed: the line is not installed anywhere
                    // (Section IV-F) and the OS takes an integrity fault.
                    self.stats.integrity_faults += 1;
                    return Step::Done(AccessOutcome::PteCheckFailed {
                        cycles: op.cycles,
                        level,
                    });
                }
                if primary {
                    self.install_fill(entry_addr, read.line, false, true, below);
                }
                let pte = self.read_pte(level, entry_addr, &read.line);
                if let Some(fault) = self.classify_pte(op, level, pte) {
                    return Step::Done(fault);
                }
                self.walk(op, below)
            }
            OpState::AwaitData { pa } => {
                self.stats.llc_misses += 1;
                // The demand path consumes the line whatever the verdict,
                // but a failed check is never installed (Section IV-F).
                if !failed {
                    if primary {
                        self.install_fill(pa, read.line, op.write, false, below);
                    } else if op.write {
                        if let Some(line) = self.l1d.peek(pa) {
                            self.l1d.update(pa, line, true);
                        }
                    }
                }
                Step::Done(AccessOutcome::Ok {
                    cycles: op.cycles,
                    llc_miss: true,
                })
            }
            OpState::Translate | OpState::Walk { .. } | OpState::Data { .. } => {
                unreachable!("only an op waiting on DRAM resumes")
            }
        }
    }

    /// The walk entry at `entry_addr` out of its line; upper-level entries
    /// enter the MMU cache.
    fn read_pte(&mut self, level: usize, entry_addr: PhysAddr, line: &Line) -> Pte {
        let pte = Pte::from_raw(line.word(entry_addr.line_offset() / 8));
        if level > 0 {
            self.mmu.insert(entry_addr, pte);
        }
        pte
    }

    /// Classifies one walk-level PTE: a fault ends the op; a leaf (2 MB
    /// pages splintered to 4 KB granularity) enters the TLB and moves the
    /// op to its data access; anything else descends a level.
    fn classify_pte(&mut self, op: &mut Access, level: usize, pte: Pte) -> Option<AccessOutcome> {
        let max_frame = 1u64 << (self.max_phys_bits - 12);
        // Non-present, or out of bounds: the OS-visible check of
        // Section IV-E.
        if !pte.present() || pte.frame().0 >= max_frame {
            return Some(AccessOutcome::PageFault {
                cycles: op.cycles,
                level,
            });
        }
        op.state = if level == 0 {
            self.tlb.insert(op.va.vpn(), pte);
            OpState::Data { leaf: pte }
        } else if level == 1 && pte.huge_page() {
            // 2 MB leaf: splinter into a 4 KB-granular TLB entry so the
            // downstream address math stays uniform.
            let mut splinter = pte;
            splinter.set_frame(Frame((pte.frame().0 & !0x1ff) | op.va.pt_index() as u64));
            let splinter = Pte::from_raw(splinter.raw() & !pagetable::x86_64::bits::HUGE_PAGE);
            self.tlb.insert(op.va.vpn(), splinter);
            OpState::Data { leaf: splinter }
        } else {
            OpState::Walk {
                table: pte.frame(),
                level: level - 1,
            }
        };
        None
    }

    /// Probes L1 → L2 → LLC. A hit performs the upward fills and store
    /// dirtying and returns the line and the probe cycles; a miss returns
    /// the probe cycles. Walk accesses (`is_pte`) probe the L1 — hardware
    /// walkers are coherent with the data cache — but fill only the L2.
    pub(crate) fn probe<U: Uncore>(
        &mut self,
        addr: PhysAddr,
        write: bool,
        is_pte: bool,
        below: &mut U,
    ) -> Result<(Line, u64), u64> {
        let mut cycles = self.l1d.latency_cycles;
        if let Some(line) = self.l1d.lookup(addr) {
            if write && !is_pte {
                // A demand store that hits: the line's data is about to
                // change, so dirty it now (lookup itself never dirties).
                self.l1d.update(addr, line, true);
            }
            return Ok((line, cycles));
        }
        cycles += self.l2.latency_cycles;
        if let Some(line) = self.l2.lookup(addr) {
            if !is_pte {
                self.fill_l1(addr, line, write, below);
            }
            return Ok((line, cycles));
        }
        cycles += below.llc().latency_cycles;
        if let Some(line) = below.llc().lookup(addr) {
            self.fill_l2(addr, line, false, below);
            if !is_pte {
                self.fill_l1(addr, line, write, below);
            }
            return Ok((line, cycles));
        }
        Err(cycles)
    }

    /// Installs a DRAM fill into LLC → L2 (→ L1 for demand accesses); an
    /// LLC victim goes to DRAM.
    pub(crate) fn install_fill<U: Uncore>(
        &mut self,
        addr: PhysAddr,
        line: Line,
        write: bool,
        is_pte: bool,
        below: &mut U,
    ) {
        if let Some((wa, wl)) = below.llc().fill(addr, line, false) {
            below.write_line(wa, wl);
        }
        self.fill_l2(addr, line, false, below);
        if !is_pte {
            self.fill_l1(addr, line, write, below);
        }
    }

    /// Fills the L1 under the victim rule ([`cache::fill_l1`]).
    fn fill_l1<U: Uncore>(&mut self, addr: PhysAddr, line: Line, dirty: bool, below: &mut U) {
        let out = cache::fill_l1(&mut self.l1d, &mut self.l2, below.llc(), addr, line, dirty);
        if let Some((wa, wl)) = out {
            below.write_line(wa, wl);
        }
    }

    /// Fills the L2 under the victim rule ([`cache::fill_l2`]).
    fn fill_l2<U: Uncore>(&mut self, addr: PhysAddr, line: Line, dirty: bool, below: &mut U) {
        if let Some((wa, wl)) = cache::fill_l2(&mut self.l2, below.llc(), addr, line, dirty) {
            below.write_line(wa, wl);
        }
    }

    /// Drains every dirty private line: the L1 into the L2 first (the L2
    /// may hold an older dirty copy, which must not reach DRAM last), then
    /// the L2 into the LLC or DRAM ([`cache::retire_l2`]).
    pub fn flush<U: Uncore>(&mut self, below: &mut U) {
        for (a, l) in self.l1d.drain_dirty() {
            self.fill_l2(a, l, true, below);
        }
        for (a, l) in self.l2.drain_dirty() {
            if let Some((a, l)) = cache::retire_l2(below.llc(), a, l) {
                below.write_line(a, l);
            }
        }
    }

    /// The line holding `addr` in the L1 or the L2, without touching LRU
    /// or statistics.
    #[must_use]
    pub fn peek(&self, addr: PhysAddr) -> Option<Line> {
        self.l1d.peek(addr).or_else(|| self.l2.peek(addr))
    }

    /// A functional store of a whole line: it updates the first level
    /// holding `addr` (the LLC included), else allocates it dirty in the
    /// L1.
    pub fn write_line<U: Uncore>(&mut self, addr: PhysAddr, line: Line, below: &mut U) {
        if self.l1d.peek(addr).is_some() {
            self.l1d.update(addr, line, true);
        } else if self.l2.peek(addr).is_some() {
            self.l2.update(addr, line, true);
        } else if below.llc().peek(addr).is_some() {
            below.llc().update(addr, line, true);
        } else {
            self.fill_l1(addr, line, true, below);
        }
    }

    /// Invalidates `addr`'s line in the L1 and the L2 (without writeback).
    pub fn invalidate_line(&mut self, addr: PhysAddr) {
        let _ = self.l1d.invalidate(addr);
        let _ = self.l2.invalidate(addr);
    }

    /// Demand counters of the ops this stack ran.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// The TLB (for assertions in tests).
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// `(L1D, L2)` statistics.
    #[must_use]
    pub fn cache_stats(&self) -> (CacheStats, CacheStats) {
        (self.l1d.stats(), self.l2.stats())
    }

    /// TLB statistics.
    #[must_use]
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// MMU-cache statistics.
    #[must_use]
    pub fn mmu_stats(&self) -> MmuCacheStats {
        self.mmu.stats()
    }
}
