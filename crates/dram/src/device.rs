//! The DRAM device: backing store, bank state, and disturbance application.

use std::collections::HashMap;

use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;

use crate::geometry::{DramGeometry, RowId};
use crate::rowhammer::{weak_cells_for_row, RowhammerConfig, WeakCell};
use crate::timing::{ns_to_ps, DramTiming};

/// Bytes per stored line.
const LINE: u64 = 64;
/// Lines per store page: one bit each in [`StorePage::present`].
const PAGE_LINES: u64 = 64;
/// Bytes per store page.
const STORE_PAGE: u64 = LINE * PAGE_LINES;
type Line = [u8; LINE as usize];
/// Lines a page's line vector grows by when it is full. Growing one line
/// at a time reallocates and copies the vector on every insert, so each
/// page-table page (whose 64 lines are all stored) costs 64 reallocations
/// to build; doubling leaves up to half of a sparse page's capacity
/// unused. Four lines bound the slack at 192 bytes per page and cut the
/// reallocations per full page to 16.
const LINE_GROWTH: usize = 4;

/// One store page: only the lines that hold data, in line order.
#[derive(Debug, Default)]
struct StorePage {
    /// Bit `i` is set when line `i` of the page is stored.
    present: u64,
    /// The stored lines. Line `i` sits at the popcount rank of bit `i` in
    /// `present`: the number of stored lines below it.
    lines: Vec<Line>,
}

impl StorePage {
    /// Where line `line` sits (or would sit) in `lines`.
    fn rank(&self, line: u64) -> usize {
        (self.present & ((1u64 << line) - 1)).count_ones() as usize
    }

    fn has(&self, line: u64) -> bool {
        self.present >> line & 1 != 0
    }

    fn get(&self, line: u64) -> Option<&Line> {
        self.has(line).then(|| &self.lines[self.rank(line)])
    }

    fn get_mut(&mut self, line: u64) -> Option<&mut Line> {
        let slot = self.rank(line);
        self.has(line).then(|| &mut self.lines[slot])
    }

    /// Line `line`, stored as zeros first if it is absent.
    fn get_or_insert(&mut self, line: u64) -> &mut Line {
        let slot = self.rank(line);
        if !self.has(line) {
            if self.lines.len() == self.lines.capacity() {
                self.lines.reserve_exact(LINE_GROWTH);
            }
            self.lines.insert(slot, [0; LINE as usize]);
            self.present |= 1 << line;
        }
        &mut self.lines[slot]
    }
}

/// How an activation was triggered — the provenance axis the attacker
/// subsystem reasons over. PThammer's whole point is that `Walk`
/// activations are indistinguishable from `Demand` ones to software-only
/// trackers, and Half-Double's is that `Refresh` activations disturb
/// neighbours just like any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Explicit attacker access ([`DramDevice::hammer`]).
    Explicit,
    /// Demand access to a data line (cache miss reaching DRAM).
    Demand,
    /// Implicit access by a page-table walk (a PTE line read).
    Walk,
    /// Mitigation- or refresh-logic-issued refresh ([`DramDevice::refresh_row`]).
    Refresh,
}

/// A recorded bit flip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipRecord {
    /// Byte address of the flipped cell.
    pub addr: PhysAddr,
    /// Bit index within that byte.
    pub bit_in_byte: u8,
    /// The victim row.
    pub row: RowId,
    /// Value before the flip (true cells record `true` here).
    pub from: bool,
    /// Simulation time of the flip.
    pub time_ns: f64,
}

/// Running statistics of the device.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Total row activations (attacker + demand).
    pub activations: u64,
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that required an activation.
    pub row_misses: u64,
    /// Mitigation- or refresh-logic-issued row refreshes.
    pub row_refreshes: u64,
    /// Completed global refresh windows.
    pub refresh_windows: u64,
    /// Completed distributed-refresh slices (one tREFI each).
    pub refresh_slices: u64,
    /// Total bit flips injected by disturbance.
    pub total_flips: u64,
    /// Row hits per bank (sized to the geometry at construction).
    pub per_bank_row_hits: Vec<u64>,
    /// Row misses per bank (sized to the geometry at construction).
    pub per_bank_row_misses: Vec<u64>,
}

/// Timing of one scheduled access: how long the request waited for its bank
/// plus the bank-state-dependent service latency, both in integer
/// picoseconds. The blocking path sees `wait_ps == 0` exactly (the bank is
/// always free when each access is the only one outstanding), so
/// `wait_ps + latency_ps` reproduces the blocking
/// [`DramDevice::access_ps`] return value bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTiming {
    /// Time spent queued behind earlier work on the same bank, in ps.
    pub wait_ps: u128,
    /// Bank service latency (row hit / conflict / closed), in ps.
    pub latency_ps: u128,
}

/// A device-level timing completion, recorded while the timing-event tap
/// is on (see [`DramDevice::set_timing_event_tap`]) so the memory
/// controller can post bank and refresh completions into an event
/// scheduler instead of callers polling per-bank busy-until state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingEvent {
    /// A bank finished a scheduled access at `ready_ps` (its busy-until
    /// time after the service).
    BankReady {
        /// The bank that went idle.
        bank: u32,
        /// Absolute device time at which it went idle, in ps.
        ready_ps: u128,
    },
    /// A distributed-refresh slice (one tREFI) completed at `at_ps`.
    RefreshSlice {
        /// Absolute device time of the slice boundary, in ps.
        at_ps: u128,
    },
}

/// A DRAM device with open-row bank state and Rowhammer disturbance.
///
/// Functional reads and writes go through [`PhysMem`] and are untimed;
/// [`DramDevice::access`] additionally models bank timing, advances the
/// device clock, applies disturbance, and handles refresh-window expiry.
#[derive(Debug)]
pub struct DramDevice {
    geometry: DramGeometry,
    timing: DramTiming,
    rh: RowhammerConfig,
    /// Sparse backing store, keyed by 4 KB page number. A line is stored
    /// on its first non-zero write or flip; absent lines read as zero.
    store: HashMap<u64, StorePage>,
    capacity: u64,
    open_row: Vec<Option<u32>>,
    /// Per-bank time (integer ps) at which the bank finishes its last
    /// scheduled access. Integer so long same-bank chains never drift: an
    /// f64 chain at a large clock value rounds every partial sum to the
    /// (coarse) ulp, which at 2^53 ps is already more than a core cycle.
    busy_until_ps: Vec<u128>,
    pressure: HashMap<RowId, f64>,
    weak_cells: HashMap<RowId, Vec<WeakCell>>,
    flips: Vec<FlipRecord>,
    stats: DramStats,
    /// Device clock in integer picoseconds.
    now_ps: u128,
    /// Start of the current distributed-refresh slice, in ps.
    window_start_ps: u128,
    /// Index of the next distributed-refresh slice (0..8192).
    ref_slice: u64,
    /// Whether activations are recorded into `tap` (off by default).
    tap_enabled: bool,
    /// Recorded activations since the last drain (only when tapped).
    tap: Vec<(RowId, ActivationKind)>,
    /// Whether timing completions are recorded (off by default, so the
    /// blocking path pays nothing; the controller turns it on only while
    /// its pipelined queues are non-empty).
    timing_tap_enabled: bool,
    /// Recorded timing completions since the last drain (only when on).
    timing_events: Vec<TimingEvent>,
    /// Provenance attributed to the next demand accesses (`service_at`):
    /// `Walk` while the controller is servicing a PTE line, else `Demand`.
    demand_kind: ActivationKind,
}

impl DramDevice {
    /// Creates a device with the given organisation, timing, and
    /// vulnerability profile. Contents are zero-initialised.
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: DramTiming, rh: RowhammerConfig) -> Self {
        Self {
            store: HashMap::new(),
            capacity: geometry.capacity(),
            open_row: vec![None; geometry.banks as usize],
            busy_until_ps: vec![0; geometry.banks as usize],
            pressure: HashMap::new(),
            weak_cells: HashMap::new(),
            flips: Vec::new(),
            stats: DramStats {
                per_bank_row_hits: vec![0; geometry.banks as usize],
                per_bank_row_misses: vec![0; geometry.banks as usize],
                ..DramStats::default()
            },
            now_ps: 0,
            window_start_ps: 0,
            ref_slice: 0,
            tap_enabled: false,
            tap: Vec::new(),
            timing_tap_enabled: false,
            timing_events: Vec::new(),
            demand_kind: ActivationKind::Demand,
            geometry,
            timing,
            rh,
        }
    }

    /// A default 4 GB DDR4 device with the given vulnerability profile.
    #[must_use]
    pub fn ddr4_4gb(rh: RowhammerConfig) -> Self {
        Self::new(DramGeometry::default(), DramTiming::default(), rh)
    }

    /// Device geometry.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Device timing.
    #[must_use]
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Current device time in integer picoseconds.
    #[must_use]
    pub fn now_ps(&self) -> u128 {
        self.now_ps
    }

    /// Current device time in nanoseconds (convenience view of the integer
    /// picosecond clock for reporting and mitigation windowing; the timing
    /// model itself never reads this back).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn now_ns(&self) -> f64 {
        self.now_ps as f64 / 1e3
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// All disturbance flips injected so far.
    #[must_use]
    pub fn flips(&self) -> &[FlipRecord] {
        &self.flips
    }

    /// Lines the backing store holds: each line that a write or a flip
    /// has ever left with a non-zero byte. A line only ever written with
    /// zeros reads as zero without being stored. Each stored line costs
    /// 64 bytes of host memory, so this is the store's footprint.
    #[must_use]
    pub fn stored_lines(&self) -> u64 {
        self.store
            .values()
            .map(|page| u64::from(page.present.count_ones()))
            .sum()
    }

    /// Enables or disables the activation tap. Off by default; while off,
    /// activations leave no trace beyond the aggregate stats, so untapped
    /// callers see bit-identical behaviour and cost. Disabling clears any
    /// undrained entries.
    pub fn set_activation_tap(&mut self, enabled: bool) {
        self.tap_enabled = enabled;
        if !enabled {
            self.tap.clear();
        }
    }

    /// Drains recorded activations (in occurrence order) into `out`.
    pub fn drain_activations(&mut self, out: &mut Vec<(RowId, ActivationKind)>) {
        out.append(&mut self.tap);
    }

    /// Enables or disables the timing-event tap. Off by default; while
    /// off, services and refresh slices leave no event record, so the
    /// blocking path is bit-identical in behaviour and cost. Disabling
    /// clears any undrained events — capture them first.
    pub fn set_timing_event_tap(&mut self, enabled: bool) {
        self.timing_tap_enabled = enabled;
        if !enabled {
            self.timing_events.clear();
        }
    }

    /// Drains recorded timing completions (in occurrence order) into
    /// `out`.
    pub fn drain_timing_events(&mut self, out: &mut Vec<TimingEvent>) {
        out.append(&mut self.timing_events);
    }

    /// Marks whether upcoming demand accesses ([`DramDevice::service_at`])
    /// are page-table-walk reads (`Walk`) or ordinary data traffic
    /// (`Demand`). The memory controller sets this per request; it only
    /// affects tap attribution, never timing or disturbance.
    pub fn tap_pte_hint(&mut self, is_pte: bool) {
        self.demand_kind = if is_pte {
            ActivationKind::Walk
        } else {
            ActivationKind::Demand
        };
    }

    /// Current disturbance pressure on `row`.
    #[must_use]
    pub fn pressure(&self, row: RowId) -> f64 {
        self.pressure.get(&row).copied().unwrap_or(0.0)
    }

    /// The weak cells of `row` (lazily derived; read-only view).
    pub fn weak_cells(&mut self, row: RowId) -> &[WeakCell] {
        let (cfg, bits) = (&self.rh, self.geometry.row_bits());
        self.weak_cells
            .entry(row)
            .or_insert_with(|| weak_cells_for_row(cfg, row, bits))
    }

    /// A timed access: models bank state (row hit/miss), applies disturbance
    /// from any activation, advances time, and returns the latency in
    /// integer picoseconds.
    pub fn access_ps(&mut self, addr: PhysAddr, write: bool) -> u128 {
        let t = self.service_at(addr, write, self.now_ps);
        t.wait_ps + t.latency_ps
    }

    /// A timed access scheduled at or after `earliest_ps`: the request waits
    /// for its bank to go idle (per-bank busy-until state), then services
    /// with the usual row-hit/conflict/closed latency, disturbing neighbours
    /// on any activation and advancing the device clock by the service
    /// latency.
    ///
    /// The controller's banked queues drain through here so requests to
    /// different banks overlap (each bank's busy-until chains independently
    /// from the drain epoch) while same-bank requests serialise. A request
    /// issued at `earliest_ps == busy_until_ps[bank]` (the blocking case)
    /// waits exactly `0` ps — computed by comparison, never subtraction —
    /// which keeps the blocking path bit-identical to the pre-pipeline
    /// device.
    pub fn service_at(&mut self, addr: PhysAddr, _write: bool, earliest_ps: u128) -> ServiceTiming {
        let row = self.geometry.row_of(addr);
        let bank = row.bank as usize;
        let busy = self.busy_until_ps[bank];
        let begin = if busy <= earliest_ps {
            earliest_ps
        } else {
            busy
        };
        let wait_ps = begin - earliest_ps;
        let latency_ps = match self.open_row[bank] {
            Some(open) if open == row.row => {
                self.stats.row_hits += 1;
                self.stats.per_bank_row_hits[bank] += 1;
                self.timing.row_hit_ps()
            }
            Some(_) => {
                self.stats.row_misses += 1;
                self.stats.per_bank_row_misses[bank] += 1;
                self.open_row[bank] = Some(row.row);
                self.activate(row, self.demand_kind);
                self.timing.row_conflict_ps()
            }
            None => {
                self.stats.row_misses += 1;
                self.stats.per_bank_row_misses[bank] += 1;
                self.open_row[bank] = Some(row.row);
                self.activate(row, self.demand_kind);
                self.timing.row_closed_ps()
            }
        };
        self.busy_until_ps[bank] = begin + latency_ps;
        if self.timing_tap_enabled {
            self.timing_events.push(TimingEvent::BankReady {
                bank: bank as u32,
                ready_ps: begin + latency_ps,
            });
        }
        self.advance_time_ps(latency_ps);
        ServiceTiming {
            wait_ps,
            latency_ps,
        }
    }

    /// The currently open row of `bank`, if any (scheduler's FR-FCFS view).
    #[must_use]
    pub fn open_row(&self, bank: usize) -> Option<u32> {
        self.open_row[bank]
    }

    /// Hammers `row`: `times` back-to-back activations, each costing `tRC`
    /// (interleaving a precharge so every activation disturbs).
    pub fn hammer(&mut self, row: RowId, times: u64) {
        for _ in 0..times {
            self.activate(row, ActivationKind::Explicit);
            self.advance_time_ps(self.timing.t_rc_ps());
        }
        self.open_row[row.bank as usize] = Some(row.row);
    }

    /// A mitigation-issued refresh of `row`: restores the row's charge
    /// (resets its pressure and re-arms its weak cells) but — crucially for
    /// Half-Double — internally *activates* the row, disturbing neighbours.
    pub fn refresh_row(&mut self, row: RowId) {
        self.stats.row_refreshes += 1;
        self.pressure.insert(row, 0.0);
        if let Some(cells) = self.weak_cells.get_mut(&row) {
            for c in cells.iter_mut() {
                c.flipped = false;
            }
        }
        self.activate(row, ActivationKind::Refresh);
    }

    /// Advances the device clock by `delta_ns` (convenience wrapper over
    /// [`DramDevice::advance_time_ps`] for callers that still think in ns —
    /// mitigation sweeps and tests).
    pub fn advance_time(&mut self, delta_ns: f64) {
        self.advance_time_ps(ns_to_ps(delta_ns));
    }

    /// Advances the device clock, issuing distributed auto-refresh.
    ///
    /// Real devices spread the refresh of all rows over the window as 8192
    /// REF commands (one per tREFI); we model that granularity: each
    /// elapsed tREFI restores the charge of the next 1/8192 slice of every
    /// bank, so a row's victim-to-refresh interval depends on its position
    /// in the sweep — as on silicon. All arithmetic is integer picoseconds;
    /// the default 64 ms window divides into 8192 slices exactly.
    pub fn advance_time_ps(&mut self, delta_ps: u128) {
        const REF_SLICES: u64 = 8192;
        let trefi = (self.timing.t_refw_ps() / u128::from(REF_SLICES)).max(1);
        self.now_ps += delta_ps;
        while self.now_ps - self.window_start_ps >= trefi {
            self.window_start_ps += trefi;
            self.stats.refresh_slices += 1;
            if self.timing_tap_enabled {
                self.timing_events.push(TimingEvent::RefreshSlice {
                    at_ps: self.window_start_ps,
                });
            }
            let slice = self.ref_slice;
            self.ref_slice = (self.ref_slice + 1) % REF_SLICES;
            if self.ref_slice == 0 {
                self.stats.refresh_windows += 1;
            }
            // Rows per slice per bank (rounded up so the sweep covers all).
            let rows = u64::from(self.geometry.rows_per_bank);
            let per = rows.div_ceil(REF_SLICES);
            let lo = slice * per;
            let hi = ((slice + 1) * per).min(rows);
            if lo >= hi {
                continue;
            }
            let range = (lo as u32)..(hi as u32);
            self.pressure.retain(|r, _| !range.contains(&r.row));
            for (row, cells) in self.weak_cells.iter_mut() {
                if range.contains(&row.row) {
                    for c in cells.iter_mut() {
                        c.flipped = false;
                    }
                }
            }
        }
    }

    /// One activation of `row`: counts it, records it into the tap when
    /// enabled, and propagates disturbance to distance-1 and distance-2
    /// neighbours.
    fn activate(&mut self, row: RowId, kind: ActivationKind) {
        self.stats.activations += 1;
        if self.tap_enabled {
            self.tap.push((row, kind));
        }
        if !self.rh.enabled {
            return;
        }
        let rows = self.geometry.rows_per_bank;
        for (dist, coupling) in [
            (1i64, 1.0),
            (-1, 1.0),
            (2, self.rh.dist2_coupling),
            (-2, self.rh.dist2_coupling),
        ] {
            if coupling == 0.0 {
                continue;
            }
            if let Some(victim) = row.offset(dist, rows) {
                self.disturb(victim, coupling);
            }
        }
    }

    /// Adds `amount` of pressure to `victim` and discharges any weak cells
    /// whose threshold is now exceeded.
    fn disturb(&mut self, victim: RowId, amount: f64) {
        let p = self.pressure.entry(victim).or_insert(0.0);
        *p += amount;
        let p = *p;
        let (cfg, bits) = (&self.rh, self.geometry.row_bits());
        let cells = self
            .weak_cells
            .entry(victim)
            .or_insert_with(|| weak_cells_for_row(cfg, victim, bits));
        // Cells are sorted by threshold; collect the newly-discharged ones.
        let mut to_flip = Vec::new();
        for cell in cells.iter_mut() {
            if cell.threshold > p {
                break;
            }
            if !cell.flipped {
                cell.flipped = true;
                to_flip.push((cell.bit, cell.true_cell));
            }
        }
        for (bit, true_cell) in to_flip {
            self.apply_flip(victim, bit, true_cell);
        }
    }

    /// Applies one cell discharge to the store, honouring orientation.
    fn apply_flip(&mut self, row: RowId, bit: u64, true_cell: bool) {
        let base = self.geometry.row_base(row).as_u64();
        let addr = base + bit / 8;
        let mask = 1u8 << (bit % 8);
        let cur = self.load_u8(addr);
        let is_one = cur & mask != 0;
        // True cells discharge 1→0, anti cells 0→1; a cell already at its
        // discharged value cannot visibly flip.
        if is_one != true_cell {
            return;
        }
        self.store_bytes(addr, &[cur ^ mask]);
        self.stats.total_flips += 1;
        self.flips.push(FlipRecord {
            addr: PhysAddr::new(addr),
            bit_in_byte: (bit % 8) as u8,
            row,
            from: is_one,
            time_ns: self.now_ns(),
        });
    }
}

impl DramDevice {
    /// The stored line holding byte `addr`, if any.
    fn line(&self, addr: u64) -> Option<&Line> {
        debug_assert!(addr < self.capacity, "address {addr:#x} beyond capacity");
        self.store
            .get(&(addr / STORE_PAGE))
            .and_then(|page| page.get(addr / LINE % PAGE_LINES))
    }

    /// Copies `bytes`, which must stay inside one line, to `addr`. A write
    /// that would leave an absent line all zero stores nothing.
    fn store_bytes(&mut self, addr: u64, bytes: &[u8]) {
        debug_assert!(addr % LINE + bytes.len() as u64 <= LINE);
        debug_assert!(
            addr + bytes.len() as u64 <= self.capacity,
            "address {addr:#x} beyond capacity"
        );
        let (page, line) = (addr / STORE_PAGE, addr / LINE % PAGE_LINES);
        let dst = if bytes.iter().all(|&b| b == 0) {
            match self.store.get_mut(&page).and_then(|p| p.get_mut(line)) {
                Some(dst) => dst,
                None => return,
            }
        } else {
            self.store.entry(page).or_default().get_or_insert(line)
        };
        let off = (addr % LINE) as usize;
        dst[off..off + bytes.len()].copy_from_slice(bytes);
    }

    fn load_u8(&self, addr: u64) -> u8 {
        self.line(addr)
            .map_or(0, |line| line[(addr % LINE) as usize])
    }

    /// Writes `bytes` at `addr` with the effect of one
    /// [`PhysMem::write_u8`] per byte, but — when the span stays inside
    /// one line, as every aligned line and word does — with a single row
    /// decode, weak-cell probe and store probe.
    fn write_span(&mut self, addr: u64, bytes: &[u8]) {
        let len = bytes.len() as u64;
        let col = u64::from(self.geometry.column_of(PhysAddr::new(addr)));
        if col + len > u64::from(self.geometry.row_bytes) || addr % LINE + len > LINE {
            for (a, &b) in (addr..).zip(bytes) {
                self.write_u8(PhysAddr::new(a), b);
            }
            return;
        }
        // A write restores full charge to the cells of every byte written,
        // whether or not the store keeps the line.
        let row = self.geometry.row_of(PhysAddr::new(addr));
        if let Some(cells) = self.weak_cells.get_mut(&row) {
            for c in cells.iter_mut() {
                if (col..col + len).contains(&(c.bit / 8)) {
                    c.flipped = false;
                }
            }
        }
        self.store_bytes(addr, bytes);
    }
}

impl PhysMem for DramDevice {
    fn size(&self) -> u64 {
        self.capacity
    }

    fn read_u8(&self, addr: PhysAddr) -> u8 {
        self.load_u8(addr.as_u64())
    }

    fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        // A write restores full charge to the cells of this byte: re-arm any
        // weak cell covering it.
        let row = self.geometry.row_of(addr);
        if let Some(cells) = self.weak_cells.get_mut(&row) {
            let byte_in_row = u64::from(self.geometry.column_of(addr));
            for c in cells.iter_mut() {
                if c.bit / 8 == byte_in_row {
                    c.flipped = false;
                }
            }
        }
        self.store_bytes(addr.as_u64(), &[value]);
    }

    fn read_line(&self, addr: PhysAddr) -> [u8; 64] {
        let base = addr.line_addr().as_u64();
        debug_assert!(base + LINE <= self.capacity);
        self.line(base).copied().unwrap_or([0; 64])
    }

    fn write_line(&mut self, addr: PhysAddr, line: &[u8; 64]) {
        self.write_span(addr.line_addr().as_u64(), line);
    }

    fn read_u64(&self, addr: PhysAddr) -> u64 {
        let a = addr.as_u64();
        let off = (a % LINE) as usize;
        if off + 8 > LINE as usize {
            return (0..8).fold(0, |v, i| v | u64::from(self.load_u8(a + i)) << (8 * i));
        }
        debug_assert!(a + 8 <= self.capacity, "address {a:#x} beyond capacity");
        self.line(a).map_or(0, |line| {
            u64::from_le_bytes(line[off..off + 8].try_into().expect("8-byte slice"))
        })
    }

    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.write_span(addr.as_u64(), &value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vulnerable_device() -> DramDevice {
        let rh = RowhammerConfig {
            threshold: 1000.0,
            weak_cells_per_row: 8.0,
            ..RowhammerConfig::default()
        };
        DramDevice::ddr4_4gb(rh)
    }

    #[test]
    fn row_hit_miss_accounting() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let a = PhysAddr::new(0x1000);
        d.access_ps(a, false);
        d.access_ps(a, false);
        let far = PhysAddr::new(0x100_0000);
        d.access_ps(far, false);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn hammering_flips_bits_in_neighbours() {
        let mut d = vulnerable_device();
        // Fill the two neighbour rows with 0xFF so true cells can discharge.
        let aggressor = RowId { bank: 0, row: 100 };
        for dist in [-1i64, 1] {
            let victim = aggressor.offset(dist, d.geometry().rows_per_bank).unwrap();
            let base = d.geometry().row_base(victim).as_u64();
            let row_bytes = d.geometry().row_bytes;
            for i in 0..u64::from(row_bytes) {
                d.write_u8(PhysAddr::new(base + i), 0xff);
            }
        }
        d.hammer(aggressor, 3000);
        assert!(d.stats().total_flips > 0, "no flips after heavy hammering");
        // All flips should be 1→0 (true cells; anti cells see all-ones data
        // already at their charged value... anti cells flip 0→1 so none fire).
        assert!(d.flips().iter().all(|f| f.from));
    }

    #[test]
    fn immune_device_never_flips() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        d.hammer(RowId { bank: 0, row: 100 }, 500_000);
        assert_eq!(d.stats().total_flips, 0);
    }

    #[test]
    fn refresh_window_resets_pressure() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 50 };
        d.hammer(aggressor, 500);
        let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        assert!(d.pressure(victim) > 0.0);
        d.advance_time(d.timing().t_refw_ns);
        assert_eq!(d.pressure(victim), 0.0);
    }

    #[test]
    fn distributed_refresh_sweeps_rows_in_order() {
        // Rows are refreshed slice by slice across the window: after ~30
        // tREFI, an early-sweep row's pressure is restored while a
        // late-sweep row still carries charge loss.
        let mut d = vulnerable_device();
        let early = RowId { bank: 0, row: 100 }; // slice ~25 of 8192
        let late = RowId {
            bank: 0,
            row: 30_000,
        }; // slice ~7500
        d.hammer(RowId { bank: 0, row: 99 }, 300);
        d.hammer(
            RowId {
                bank: 0,
                row: 29_999,
            },
            300,
        );
        assert!(d.pressure(early) > 0.0);
        assert!(d.pressure(late) > 0.0);
        let trefi = d.timing().t_refw_ns / 8192.0;
        d.advance_time(30.0 * trefi);
        assert_eq!(d.pressure(early), 0.0, "early-sweep row must be refreshed");
        assert!(
            d.pressure(late) > 0.0,
            "late-sweep row must still be pressured"
        );
        // A full window restores everything.
        d.advance_time(d.timing().t_refw_ns);
        assert_eq!(d.pressure(late), 0.0);
    }
    #[test]
    fn below_threshold_hammering_is_harmless() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 100 };
        let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        let base = d.geometry().row_base(victim).as_u64();
        for i in 0..1024u64 {
            d.write_u8(PhysAddr::new(base + i), 0xff);
        }
        d.hammer(aggressor, 900); // below the 1000 threshold
        assert_eq!(d.stats().total_flips, 0);
    }

    #[test]
    fn victim_refresh_restores_charge_but_disturbs_distance2() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 200 };
        let dist1 = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        let dist2 = aggressor.offset(2, d.geometry().rows_per_bank).unwrap();
        d.hammer(aggressor, 500);
        let p2_before = d.pressure(dist2);
        d.refresh_row(dist1);
        assert_eq!(d.pressure(dist1), 0.0, "refresh must restore the victim");
        assert!(
            d.pressure(dist2) > p2_before,
            "refresh must disturb distance-2 (Half-Double)"
        );
    }

    #[test]
    fn rewrite_rearms_weak_cells() {
        let mut d = vulnerable_device();
        let aggressor = RowId { bank: 0, row: 300 };
        let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        let base = d.geometry().row_base(victim).as_u64();
        for i in 0..u64::from(d.geometry().row_bytes) {
            d.write_u8(PhysAddr::new(base + i), 0xff);
        }
        d.hammer(aggressor, 3000);
        let first = d.stats().total_flips;
        assert!(first > 0);
        // Rewrite the whole victim row (restores charge), hammer again:
        // the same weak cells flip again.
        for i in 0..u64::from(d.geometry().row_bytes) {
            d.write_u8(PhysAddr::new(base + i), 0xff);
        }
        d.advance_time(d.timing().t_refw_ns); // fresh window
        d.hammer(aggressor, 3000);
        assert!(
            d.stats().total_flips > first,
            "rewritten cells must be flippable again"
        );
    }

    #[test]
    fn activation_tap_records_kinds_in_order() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig::immune());
        let mut tap = Vec::new();
        // Untapped: nothing recorded.
        d.hammer(RowId { bank: 0, row: 10 }, 2);
        d.drain_activations(&mut tap);
        assert!(tap.is_empty());
        d.set_activation_tap(true);
        d.hammer(RowId { bank: 0, row: 10 }, 1);
        d.tap_pte_hint(true);
        d.access_ps(PhysAddr::new(0x10_0000), false);
        d.tap_pte_hint(false);
        d.access_ps(PhysAddr::new(0x20_0000), false);
        d.refresh_row(RowId { bank: 0, row: 11 });
        d.drain_activations(&mut tap);
        let kinds: Vec<ActivationKind> = tap.iter().map(|&(_, k)| k).collect();
        assert_eq!(
            kinds,
            vec![
                ActivationKind::Explicit,
                ActivationKind::Walk,
                ActivationKind::Demand,
                ActivationKind::Refresh,
            ]
        );
        // Draining empties the tap.
        tap.clear();
        d.drain_activations(&mut tap);
        assert!(tap.is_empty());
    }

    #[test]
    fn far_future_same_bank_chain_is_exact() {
        // At a clock beyond 2^53 ps an f64 time base rounds every partial
        // sum to its (coarse) ulp — 2 ns at 1e19 ps, several core cycles —
        // so a same-bank wait chain drifts. The integer clock must track
        // the analytic sum exactly no matter how far the clock has run.
        let timing = DramTiming {
            t_refw_ns: 1e18, // keep the refresh sweep off the hot loop
            ..DramTiming::default()
        };
        let mut d = DramDevice::new(DramGeometry::default(), timing, RowhammerConfig::immune());
        d.advance_time_ps(10u128.pow(19));
        let t0 = d.now_ps();
        let a = PhysAddr::new(0x4000);
        let mut busy = t0;
        for k in 0..64u128 {
            let t = d.service_at(a, false, t0);
            let lat = if k == 0 {
                timing.row_closed_ps()
            } else {
                timing.row_hit_ps()
            };
            assert_eq!(t.latency_ps, lat);
            assert_eq!(t.wait_ps, busy - t0, "chain drifted at access {k}");
            busy += lat;
        }
    }

    /// A byte-wise reference: forwards only the byte accessors, so its
    /// word and line accessors are the [`PhysMem`] defaults.
    struct ByteWise(DramDevice);

    impl PhysMem for ByteWise {
        fn size(&self) -> u64 {
            self.0.size()
        }

        fn read_u8(&self, addr: PhysAddr) -> u8 {
            self.0.read_u8(addr)
        }

        fn write_u8(&mut self, addr: PhysAddr, value: u8) {
            self.0.write_u8(addr, value);
        }
    }

    #[test]
    fn line_and_word_accessors_match_the_byte_wise_defaults() {
        let rh = RowhammerConfig {
            threshold: 1000.0,
            weak_cells_per_row: 64.0,
            ..RowhammerConfig::default()
        };
        let mut fast = DramDevice::ddr4_4gb(rh);
        let mut reference = ByteWise(DramDevice::ddr4_4gb(rh));
        let rows = fast.geometry().rows_per_bank;
        let row_bytes = u64::from(fast.geometry().row_bytes);
        let victims: Vec<RowId> = (200..208).map(|row| RowId { bank: 0, row }).collect();
        let mut rng = rng::SplitMix64::new(0x5eed);
        for _ in 0..1500 {
            let row = victims[rng.gen_range_usize(0, victims.len())];
            let base = fast.geometry().row_base(row).as_u64();
            // Mostly aligned, sometimes an arbitrary byte address, so the
            // row- and line-crossing fallbacks are driven too.
            let offset = rng.gen_range_u64(0, row_bytes);
            let offset = if rng.gen_bool(0.2) {
                offset
            } else {
                offset & !7
            };
            let word = PhysAddr::new(base + offset);
            match rng.gen_range_u64(0, 5) {
                0 => {
                    let mut line = [0u8; 64];
                    for chunk in line.chunks_mut(8) {
                        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                    }
                    fast.write_line(word, &line);
                    reference.write_line(word, &line);
                }
                1 => {
                    let value = rng.next_u64();
                    fast.write_u64(word, value);
                    reference.write_u64(word, value);
                }
                2 => assert_eq!(fast.read_u64(word), reference.read_u64(word)),
                3 => assert_eq!(fast.read_line(word), reference.read_line(word)),
                _ => {
                    let aggressor = row
                        .offset(rng.gen_range_u64(0, 3) as i64 - 1, rows)
                        .unwrap();
                    let times = rng.gen_range_u64(50, 1500);
                    fast.hammer(aggressor, times);
                    reference.0.hammer(aggressor, times);
                }
            }
        }
        assert!(fast.stats().total_flips > 0, "the stream must flip cells");
        assert_eq!(fast.flips(), reference.0.flips());
        assert_eq!(fast.stats().total_flips, reference.0.stats().total_flips);
        for row in (195..213).map(|row| RowId { bank: 0, row }) {
            assert_eq!(fast.pressure(row), reference.0.pressure(row), "{row:?}");
            let base = fast.geometry().row_base(row).as_u64();
            for line in (base..base + row_bytes).step_by(64) {
                let a = PhysAddr::new(line);
                assert_eq!(fast.read_line(a), reference.read_line(a), "{a:?}");
            }
        }
    }

    #[test]
    fn rewrites_rearm_only_the_weak_cells_of_the_bytes_written() {
        let mut d = DramDevice::ddr4_4gb(RowhammerConfig {
            threshold: 1000.0,
            weak_cells_per_row: 64.0,
            ..RowhammerConfig::default()
        });
        // Row 20 000 sits late in the refresh sweep, so no slice restores
        // it while this test hammers.
        let aggressor = RowId {
            bank: 0,
            row: 20_000,
        };
        let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
        let base = d.geometry().row_base(victim).as_u64();
        let row_bytes = u64::from(d.geometry().row_bytes);
        for line in (base..base + row_bytes).step_by(64) {
            d.write_line(PhysAddr::new(line), &[0xff; 64]);
        }
        d.hammer(aggressor, 2500); // past every cell's threshold
        let line_of = |addr: u64| (addr - base) / 64;
        let victim_flips = |d: &DramDevice, from: usize| -> Vec<u64> {
            d.flips()[from..]
                .iter()
                .filter(|f| f.row == victim)
                .map(|f| f.addr.as_u64())
                .collect()
        };
        let first = victim_flips(&d, 0);
        let mut spent: Vec<u64> = first.iter().map(|&a| line_of(a)).collect();
        spent.sort_unstable();
        spent.dedup();
        assert!(
            spent.len() >= 3,
            "flips must land in several lines: {spent:?}"
        );
        assert!(d.weak_cells(victim).iter().all(|c| c.flipped));

        // Rewriting one line re-arms exactly the cells of its 64 bytes.
        let line = spent[1];
        d.write_line(PhysAddr::new(base + line * 64), &[0xff; 64]);
        for c in d.weak_cells(victim) {
            assert_eq!(c.flipped, c.bit / 8 / 64 != line, "cell at bit {}", c.bit);
        }
        let mark = d.flips().len();
        d.hammer(aggressor, 1);
        let mut again = victim_flips(&d, mark);
        let mut expected: Vec<u64> = first.into_iter().filter(|&a| line_of(a) == line).collect();
        again.sort_unstable();
        expected.sort_unstable();
        assert_eq!(again, expected, "only the rewritten line re-flips");

        // A word rewrite re-arms only its 8 bytes; the rest of the row
        // stays spent until the refresh sweep reaches it.
        let word = base + spent[2] * 64;
        d.write_u64(PhysAddr::new(word), u64::MAX);
        let col = word - base;
        for c in d.weak_cells(victim) {
            assert_eq!(
                c.flipped,
                !(col..col + 8).contains(&(c.bit / 8)),
                "cell at bit {}",
                c.bit
            );
        }
        d.advance_time(d.timing().t_refw_ns);
        assert!(d.weak_cells(victim).iter().all(|c| !c.flipped));
    }

    #[test]
    fn untimed_reads_do_not_disturb() {
        let d = vulnerable_device();
        for i in 0..100_000u64 {
            let _ = d.read_u8(PhysAddr::new(i % 4096));
        }
        assert_eq!(d.stats().activations, 0);
        assert_eq!(d.stats().total_flips, 0);
    }
}
