//! A naive reference of the whole cache hierarchy, built from the
//! [`refmodel`](crate::refmodel) structures and [`ref_walk`].
//!
//! It states the hierarchy's semantics (DESIGN.md §3) as plainly as
//! possible and counts what the fast `memsys::MemorySystem` and
//! `simx::shared::SharedSystem` count, with no timing at all:
//!
//! * write-back, write-allocate: a store dirties its L1 line; a store
//!   miss allocates the line in every level on the way up;
//! * a dirty L1 victim is allocated in the L2 as a dirty fill; a dirty L2
//!   victim merges into the LLC if the LLC holds the line, else goes to
//!   DRAM; a dirty LLC victim goes to DRAM;
//! * walk accesses probe the L1 but fill only the L2 and LLC;
//! * the L2 and the LLC are neither inclusive nor exclusive;
//! * a flush drains the L1 into the L2, then the L2, then the LLC.
//!
//! One or more private stacks (L1, L2, TLB, MMU cache) share one LLC and
//! one DRAM. Stack 0 is also a [`PhysMem`] functional port with the OS
//! port's semantics, so the same `AddressSpace` build runs through it. The
//! port keeps every word the OS writes in a flat map; that map is both the
//! page-table image [`ref_walk`] reads and the value every functional read
//! through the caches is checked against. Walks must succeed: the model
//! covers benign runs, not faults.

use std::collections::BTreeMap;

use memsys::cache::CacheStats;
use memsys::mmucache::MmuCacheStats;
use memsys::tlb::TlbStats;
use memsys::{MemSysConfig, MemorySystem};
use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;
use pagetable::x86_64::Pte;
use ptguard::Line;

use crate::refmodel::{RefCache, RefMmuCache, RefTlb};
use crate::refwalk::{ref_walk, RefTables, RefWalkResult};

/// `[hits, misses, writebacks, fills]` of one cache level.
pub type LevelCounts = [u64; 4];

/// Counters of one private stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackCounts {
    /// L1D `[hits, misses, writebacks, fills]`.
    pub l1: LevelCounts,
    /// L2 `[hits, misses, writebacks, fills]`.
    pub l2: LevelCounts,
    /// TLB `[hits, misses]`.
    pub tlb: [u64; 2],
    /// MMU cache `[hits, misses]`.
    pub mmu: [u64; 2],
}

impl StackCounts {
    /// Packs the fast structures' statistics.
    #[must_use]
    pub fn new(l1: CacheStats, l2: CacheStats, tlb: TlbStats, mmu: MmuCacheStats) -> Self {
        Self {
            l1: level(l1),
            l2: level(l2),
            tlb: [tlb.hits, tlb.misses],
            mmu: [mmu.hits, mmu.misses],
        }
    }
}

/// Packs one fast cache level's statistics.
#[must_use]
pub fn level(s: CacheStats) -> LevelCounts {
    [s.hits, s.misses, s.writebacks, s.fills]
}

/// Every counter the reference and the fast hierarchies must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyCounts {
    /// One entry per private stack.
    pub stacks: Vec<StackCounts>,
    /// Shared LLC `[hits, misses, writebacks, fills]`.
    pub llc: LevelCounts,
    /// Lines read from DRAM, summed over the channels.
    pub dram_reads: u64,
    /// Lines written to DRAM, summed over the channels.
    pub dram_writes: u64,
}

impl HierarchyCounts {
    /// The counters of a single-core [`MemorySystem`].
    #[must_use]
    pub fn of_system(sys: &MemorySystem) -> Self {
        let (l1, l2, llc) = sys.cache_stats();
        let ctrl = sys.controller_stats_total();
        Self {
            stacks: vec![StackCounts::new(l1, l2, sys.tlb_stats(), sys.mmu_stats())],
            llc: level(llc),
            dram_reads: ctrl.reads,
            dram_writes: ctrl.writes,
        }
    }
}

/// Demand-side counters of the reference, named as in
/// `memsys::system::SystemStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefDemandCounts {
    /// Page walks (TLB misses).
    pub walks: u64,
    /// Data accesses that missed the LLC.
    pub llc_misses: u64,
    /// Walk accesses that missed the LLC.
    pub walk_llc_misses: u64,
}

/// One private stack of the reference.
#[derive(Debug, Clone)]
struct RefStack {
    l1: RefCache,
    l2: RefCache,
    tlb: RefTlb,
    mmu: RefMmuCache,
    root_pfn: u64,
}

impl RefStack {
    fn new(cfg: &MemSysConfig) -> Self {
        Self {
            l1: RefCache::new(cfg.l1d.size_bytes, cfg.l1d.ways),
            l2: RefCache::new(cfg.l2.size_bytes, cfg.l2.ways),
            tlb: RefTlb::new(cfg.tlb_entries),
            mmu: RefMmuCache::new(cfg.mmu_cache_entries, cfg.mmu_cache_ways),
            root_pfn: 0,
        }
    }
}

/// The reference hierarchy: private stacks around one LLC and one DRAM.
#[derive(Debug, Clone)]
pub struct RefHierarchy {
    cfg: MemSysConfig,
    stacks: Vec<RefStack>,
    llc: RefCache,
    /// DRAM contents by line number; absent lines read as zero.
    dram: BTreeMap<u64, Line>,
    /// Every word written through the functional port (absent = zero).
    words: RefTables,
    dram_bytes: u64,
    max_phys_bits: u32,
    dram_reads: u64,
    dram_writes: u64,
    demand: RefDemandCounts,
}

impl RefHierarchy {
    /// One private stack over `dram_bytes` of zeroed DRAM, with `cfg`'s
    /// geometry.
    #[must_use]
    pub fn new(cfg: &MemSysConfig, dram_bytes: u64) -> Self {
        Self {
            cfg: *cfg,
            stacks: vec![RefStack::new(cfg)],
            llc: RefCache::new(cfg.llc.size_bytes, cfg.llc.ways),
            dram: BTreeMap::new(),
            words: RefTables::new(),
            dram_bytes,
            max_phys_bits: 40,
            dram_reads: 0,
            dram_writes: 0,
            demand: RefDemandCounts::default(),
        }
    }

    /// Replaces every cache, TLB and MMU cache with `cores` cold private
    /// stacks around a cold LLC. DRAM contents and the DRAM counters stay
    /// — the state after building page tables through one hierarchy and
    /// handing its DRAM to another.
    pub fn fresh_caches(&mut self, cores: usize) {
        self.stacks = (0..cores).map(|_| RefStack::new(&self.cfg)).collect();
        self.llc = RefCache::new(self.cfg.llc.size_bytes, self.cfg.llc.ways);
    }

    /// Points stack `core`'s walker at the table rooted at frame
    /// `root_pfn`, on a machine with `max_phys_bits` of physical address.
    pub fn set_root(&mut self, core: usize, root_pfn: u64, max_phys_bits: u32) {
        self.stacks[core].root_pfn = root_pfn;
        self.max_phys_bits = max_phys_bits;
        self.stacks[core].tlb.flush();
        self.stacks[core].mmu.flush();
    }

    /// A demand load (`write = false`) or store from stack `core`.
    ///
    /// # Panics
    ///
    /// Panics if the walk faults: the reference covers benign runs only.
    pub fn access(&mut self, core: usize, va: u64, write: bool) {
        let vpn = (va & 0x0000_ffff_ffff_ffff) >> 12;
        let frame = match self.stacks[core].tlb.lookup(vpn) {
            Some(pte) => pte.raw() >> 12,
            None => {
                self.demand.walks += 1;
                let frame = self.walk(core, va);
                self.stacks[core]
                    .tlb
                    .insert(vpn, Pte::from_raw(frame << 12));
                frame
            }
        };
        let pa = PhysAddr::new(frame * 4096 + (va & 0xfff));
        if self.line_access(core, pa, write, false) {
            self.demand.llc_misses += 1;
        }
    }

    /// Walks `va` for stack `core` and returns the 4 KB frame it maps to.
    /// Upper levels try the MMU cache first; every other level is a line
    /// access that fills the L2 and LLC only.
    fn walk(&mut self, core: usize, va: u64) -> u64 {
        let root = self.stacks[core].root_pfn;
        let RefWalkResult::Ok { phys, accesses, .. } =
            ref_walk(&self.words, root, self.max_phys_bits, va)
        else {
            panic!("reference walk of {va:#x} faulted: benign runs only");
        };
        for a in accesses {
            let entry = PhysAddr::new(a.entry_addr);
            if a.level > 0 && self.stacks[core].mmu.lookup(entry).is_some() {
                continue;
            }
            if self.line_access(core, entry, false, true) {
                self.demand.walk_llc_misses += 1;
            }
            if a.level > 0 {
                self.stacks[core].mmu.insert(entry, Pte::from_raw(a.raw));
            }
        }
        phys >> 12
    }

    /// L1 → L2 → LLC → DRAM for one line; returns whether DRAM served it.
    fn line_access(&mut self, core: usize, addr: PhysAddr, write: bool, is_pte: bool) -> bool {
        let stack = &mut self.stacks[core];
        if let Some(line) = stack.l1.lookup(addr) {
            if write {
                stack.l1.update(addr, line, true);
            }
            return false;
        }
        if let Some(line) = stack.l2.lookup(addr) {
            if !is_pte {
                self.fill_l1(core, addr, line, write);
            }
            return false;
        }
        let (line, from_dram) = match self.llc.lookup(addr) {
            Some(line) => (line, false),
            None => {
                let line = self.dram_read(addr);
                if let Some((va, vl)) = self.llc.fill(addr, line, false) {
                    self.dram_write(va, vl);
                }
                (line, true)
            }
        };
        self.fill_l2(core, addr, line, false);
        if !is_pte {
            self.fill_l1(core, addr, line, write);
        }
        from_dram
    }

    /// Fills stack `core`'s L1; a dirty victim is allocated in its L2.
    fn fill_l1(&mut self, core: usize, addr: PhysAddr, line: Line, dirty: bool) {
        if let Some((va, vl)) = self.stacks[core].l1.fill(addr, line, dirty) {
            self.fill_l2(core, va, vl, true);
        }
    }

    /// Fills stack `core`'s L2; a dirty victim leaves through
    /// [`Self::retire_l2`].
    fn fill_l2(&mut self, core: usize, addr: PhysAddr, line: Line, dirty: bool) {
        if let Some((va, vl)) = self.stacks[core].l2.fill(addr, line, dirty) {
            self.retire_l2(va, vl);
        }
    }

    /// A dirty line leaving an L2 merges into the LLC if the LLC holds it,
    /// else goes to DRAM.
    fn retire_l2(&mut self, addr: PhysAddr, line: Line) {
        if self.llc.peek(addr).is_some() {
            self.llc.update(addr, line, true);
        } else {
            self.dram_write(addr, line);
        }
    }

    fn dram_read(&mut self, addr: PhysAddr) -> Line {
        self.dram_reads += 1;
        self.dram_peek(addr)
    }

    fn dram_peek(&self, addr: PhysAddr) -> Line {
        self.dram
            .get(&(addr.as_u64() / 64))
            .copied()
            .unwrap_or(Line::ZERO)
    }

    fn dram_write(&mut self, addr: PhysAddr, line: Line) {
        self.dram_writes += 1;
        self.dram.insert(addr.as_u64() / 64, line);
    }

    /// Writes every dirty line back: each L1 into its L2, each L2 into the
    /// LLC or DRAM, then the LLC into DRAM.
    pub fn flush(&mut self) {
        for core in 0..self.stacks.len() {
            for (a, l) in self.stacks[core].l1.drain_dirty() {
                self.fill_l2(core, a, l, true);
            }
            for (a, l) in self.stacks[core].l2.drain_dirty() {
                self.retire_l2(a, l);
            }
        }
        for (a, l) in self.llc.drain_dirty() {
            self.dram_write(a, l);
        }
    }

    /// The cache, TLB, MMU-cache and DRAM counters.
    #[must_use]
    pub fn counts(&self) -> HierarchyCounts {
        let pair = |(h, m): (u64, u64)| [h, m];
        let four = |(h, m, w, f): (u64, u64, u64, u64)| [h, m, w, f];
        HierarchyCounts {
            stacks: self
                .stacks
                .iter()
                .map(|s| StackCounts {
                    l1: four(s.l1.stats()),
                    l2: four(s.l2.stats()),
                    tlb: pair(s.tlb.stats()),
                    mmu: pair(s.mmu.stats()),
                })
                .collect(),
            llc: four(self.llc.stats()),
            dram_reads: self.dram_reads,
            dram_writes: self.dram_writes,
        }
    }

    /// Walk and LLC-miss counters.
    #[must_use]
    pub fn demand(&self) -> RefDemandCounts {
        self.demand
    }

    /// The line holding `addr` as stack 0 sees it: L1, L2, LLC, DRAM.
    fn func_line(&self, addr: PhysAddr) -> Option<Line> {
        let stack = &self.stacks[0];
        stack
            .l1
            .peek(addr)
            .or_else(|| stack.l2.peek(addr))
            .or_else(|| self.llc.peek(addr))
    }
}

/// The OS port of stack 0: word reads are untimed peeks, word writes
/// read-modify-write the first level holding the line, else read it from
/// DRAM (a counted read) and allocate it dirty in the L1.
impl PhysMem for RefHierarchy {
    fn size(&self) -> u64 {
        self.dram_bytes
    }

    fn read_u8(&self, _addr: PhysAddr) -> u8 {
        unreachable!("the reference port is word-granular")
    }

    fn write_u8(&mut self, _addr: PhysAddr, _value: u8) {
        unreachable!("the reference port is word-granular")
    }

    /// # Panics
    ///
    /// Panics if the hierarchy's copy differs from the last word written:
    /// a victim rule that lost a store.
    fn read_u64(&self, addr: PhysAddr) -> u64 {
        let line = self.func_line(addr).unwrap_or_else(|| self.dram_peek(addr));
        let got = line.word(addr.line_offset() / 8);
        let want = self.words.get(&addr.as_u64()).copied().unwrap_or(0);
        assert_eq!(got, want, "reference hierarchy lost a store to {addr:?}");
        got
    }

    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        if value == 0 {
            self.words.remove(&addr.as_u64());
        } else {
            self.words.insert(addr.as_u64(), value);
        }
        let held = self.func_line(addr);
        let mut line = held.unwrap_or_else(|| self.dram_read(addr));
        line.set_word(addr.line_offset() / 8, value);
        let stack = &mut self.stacks[0];
        if stack.l1.peek(addr).is_some() {
            stack.l1.update(addr, line, true);
        } else if stack.l2.peek(addr).is_some() {
            stack.l2.update(addr, line, true);
        } else if self.llc.peek(addr).is_some() {
            self.llc.update(addr, line, true);
        } else {
            self.fill_l1(0, addr, line, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemSysConfig {
        let mut cfg = MemSysConfig::default();
        cfg.l1d.size_bytes = 512; // 4 sets × 2 ways
        cfg.l1d.ways = 2;
        cfg.l2.size_bytes = 2048; // 8 sets × 4 ways
        cfg.l2.ways = 4;
        cfg.llc.size_bytes = 8192; // 32 sets × 4 ways
        cfg.llc.ways = 4;
        cfg
    }

    #[test]
    fn dirty_l1_victim_lands_in_l2_not_dram() {
        let mut r = RefHierarchy::new(&small(), 1 << 20);
        let a = PhysAddr::new(0x1000);
        r.write_u64(a, 7);
        assert_eq!(r.counts().dram_reads, 1);
        // Two more lines in a's L1 set (stride 4 sets × 64 B) evict it.
        for i in 1..=2u64 {
            let _ = r.line_access(0, PhysAddr::new(0x1000 + i * 256), false, false);
        }
        assert!(r.stacks[0].l1.peek(a).is_none());
        assert_eq!(r.stacks[0].l2.peek(a).map(|l| l.word(0)), Some(7));
        assert_eq!(r.counts().dram_writes, 0);
        assert_eq!(r.read_u64(a), 7);
        r.flush();
        assert_eq!(r.counts().dram_writes, 1);
        assert_eq!(r.dram_peek(a).word(0), 7);
    }

    #[test]
    fn flush_drains_the_newer_l1_copy_last() {
        let mut r = RefHierarchy::new(&small(), 1 << 20);
        let a = PhysAddr::new(0x2000);
        r.write_u64(a, 1);
        for i in 1..=2u64 {
            let _ = r.line_access(0, PhysAddr::new(0x2000 + i * 256), false, false);
        }
        // L2 holds a dirty 1; reload it into the L1 and store 2 there.
        let _ = r.line_access(0, a, false, false);
        r.write_u64(a, 2);
        r.flush();
        assert_eq!(r.dram_peek(a).word(0), 2);
        assert_eq!(r.read_u64(a), 2);
    }
}
