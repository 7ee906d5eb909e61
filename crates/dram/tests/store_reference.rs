//! The line-granular backing store against a flat reference: 4 KB pages
//! allocated on any write, zero included. A seeded mix of line, word and
//! byte writes (zero and non-zero, aligned and crossing a line, a store
//! page or a row) and rowhammer flips must read back identically through
//! every accessor, and the store must hold exactly the lines that ever
//! held a non-zero byte.

use std::collections::{HashMap, HashSet};

use dram::device::DramDevice;
use dram::geometry::RowId;
use dram::rowhammer::RowhammerConfig;
use pagetable::addr::PhysAddr;
use pagetable::memory::PhysMem;

const PAGE: u64 = 4096;

/// The reference: flat 4 KB pages, plus the set of lines that have held
/// a non-zero byte at any point.
#[derive(Default)]
struct Flat {
    pages: HashMap<u64, Box<[u8; PAGE as usize]>>,
    ever_non_zero: HashSet<u64>,
}

impl Flat {
    fn read(&self, addr: u64) -> u8 {
        self.pages
            .get(&(addr / PAGE))
            .map_or(0, |p| p[(addr % PAGE) as usize])
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (a, &b) in (addr..).zip(bytes) {
            let page = self
                .pages
                .entry(a / PAGE)
                .or_insert_with(|| Box::new([0; PAGE as usize]));
            page[(a % PAGE) as usize] = b;
            if b != 0 {
                self.ever_non_zero.insert(a / 64);
            }
        }
    }

    fn read_n<const N: usize>(&self, addr: u64) -> [u8; N] {
        std::array::from_fn(|i| self.read(addr + i as u64))
    }
}

fn vulnerable() -> RowhammerConfig {
    RowhammerConfig {
        threshold: 1000.0,
        weak_cells_per_row: 64.0,
        ..RowhammerConfig::default()
    }
}

/// An offset into a row: mostly random, often just below a line, store
/// page or row boundary so spans straddle it (a row-end span runs into
/// the next bank's row, which sits next to it in physical address).
fn offset(rng: &mut rng::SplitMix64, row_bytes: u64) -> u64 {
    let boundary = match rng.gen_range_u64(0, 6) {
        0 => 64 * rng.gen_range_u64(1, row_bytes / 64),
        1 => PAGE * rng.gen_range_u64(1, row_bytes / PAGE),
        2 => row_bytes,
        _ => return rng.gen_range_u64(0, row_bytes),
    };
    boundary - rng.gen_range_u64(1, 9)
}

/// Zero, a byte pattern true cells can discharge, or random bytes.
fn fill(rng: &mut rng::SplitMix64, out: &mut [u8]) {
    match rng.gen_range_u64(0, 4) {
        0 => out.fill(0),
        1 => out.fill(0xff),
        2 => {
            // Sparse: one non-zero byte.
            out.fill(0);
            let i = rng.gen_range_usize(0, out.len());
            out[i] = (rng.next_u64() as u8).max(1);
        }
        _ => out.iter_mut().for_each(|b| *b = rng.next_u64() as u8),
    }
}

#[test]
fn line_store_matches_a_flat_page_reference() {
    let mut d = DramDevice::ddr4_4gb(vulnerable());
    let mut flat = Flat::default();
    let rows = d.geometry().rows_per_bank;
    let row_bytes = u64::from(d.geometry().row_bytes);
    let victims: Vec<RowId> = (200..206).map(|row| RowId { bank: 0, row }).collect();
    let mut rng = rng::SplitMix64::new(0x11e5);
    let mut zero_over_non_zero = 0;
    for _ in 0..8_000 {
        let row = victims[rng.gen_range_usize(0, victims.len())];
        let addr = d.geometry().row_base(row).as_u64() + offset(&mut rng, row_bytes);
        let pa = PhysAddr::new(addr);
        match rng.gen_range_u64(0, 8) {
            0 => {
                let mut line = [0u8; 64];
                fill(&mut rng, &mut line);
                let base = addr & !63;
                if line == [0; 64] && flat.read_n::<64>(base) != [0; 64] {
                    zero_over_non_zero += 1;
                }
                d.write_line(pa, &line);
                flat.write(base, &line);
            }
            1 => {
                let mut word = [0u8; 8];
                fill(&mut rng, &mut word);
                if word == [0; 8] && flat.read_n::<8>(addr) != [0; 8] {
                    zero_over_non_zero += 1;
                }
                d.write_u64(pa, u64::from_le_bytes(word));
                flat.write(addr, &word);
            }
            2 => {
                let mut byte = [0u8];
                fill(&mut rng, &mut byte);
                d.write_u8(pa, byte[0]);
                flat.write(addr, &byte);
            }
            3 => assert_eq!(d.read_u8(pa), flat.read(addr), "read_u8 {addr:#x}"),
            4 => assert_eq!(
                d.read_u64(pa),
                u64::from_le_bytes(flat.read_n(addr)),
                "read_u64 {addr:#x}"
            ),
            5 => assert_eq!(
                d.read_line(pa),
                flat.read_n::<64>(addr & !63),
                "read_line {addr:#x}"
            ),
            _ => {
                // Hammer a victim or a neighbour and replay its flips into
                // the reference, which must agree on each flipped bit.
                let aggressor = row
                    .offset(rng.gen_range_u64(0, 3) as i64 - 1, rows)
                    .unwrap();
                let mark = d.flips().len();
                d.hammer(aggressor, rng.gen_range_u64(50, 1500));
                for f in &d.flips()[mark..] {
                    let a = f.addr.as_u64();
                    let byte = flat.read(a);
                    assert_eq!(byte >> f.bit_in_byte & 1 != 0, f.from, "flip at {a:#x}");
                    flat.write(a, &[byte ^ 1 << f.bit_in_byte]);
                }
            }
        }
    }
    assert!(d.flips().iter().any(|f| f.from), "no 1→0 flip was driven");
    assert!(d.flips().iter().any(|f| !f.from), "no 0→1 flip was driven");
    assert!(
        zero_over_non_zero > 100,
        "{zero_over_non_zero} zero overwrites"
    );

    // Every line of the victim rows and of the rows their spans reach.
    for bank in 0..2 {
        for row in 195..211 {
            let base = d.geometry().row_base(RowId { bank, row }).as_u64();
            for a in (base..base + row_bytes).step_by(64) {
                assert_eq!(
                    d.read_line(PhysAddr::new(a)),
                    flat.read_n::<64>(a),
                    "{a:#x}"
                );
            }
        }
    }
    assert_eq!(d.stored_lines(), flat.ever_non_zero.len() as u64);
    assert!(
        d.stored_lines() < 64 * flat.pages.len() as u64,
        "the reference's pages must hold lines the store skipped"
    );
}

#[test]
fn a_zero_write_to_an_absent_line_rearms_its_weak_cells() {
    let mut d = DramDevice::ddr4_4gb(vulnerable());
    // Late in the refresh sweep, so no slice re-arms the row mid-test.
    let aggressor = RowId {
        bank: 0,
        row: 20_000,
    };
    let victim = aggressor.offset(1, d.geometry().rows_per_bank).unwrap();
    let base = d.geometry().row_base(victim).as_u64();
    // The victim row is never written: past the threshold every weak cell
    // discharges. Anti cells flip 0→1 and store their lines; true cells
    // on zero data change nothing, so their lines stay absent.
    d.hammer(aggressor, 2500);
    assert!(d.weak_cells(victim).iter().all(|c| c.flipped));
    let anti_lines: HashSet<u64> = d
        .weak_cells(victim)
        .iter()
        .filter(|c| !c.true_cell)
        .map(|c| c.bit / 8 / 64)
        .collect();
    let cell = *d
        .weak_cells(victim)
        .iter()
        .find(|c| c.true_cell && !anti_lines.contains(&(c.bit / 8 / 64)))
        .expect("a true cell alone in its line");
    let byte = base + cell.bit / 8;
    assert_eq!(d.read_line(PhysAddr::new(byte)), [0; 64]);
    let stored = d.stored_lines();
    let armed = |d: &mut DramDevice| {
        !d.weak_cells(victim)
            .iter()
            .find(|c| c.bit == cell.bit)
            .unwrap()
            .flipped
    };

    for writer in ["write_line", "write_u64", "write_u8"] {
        assert!(!armed(&mut d), "{writer}: the cell starts discharged");
        match writer {
            "write_line" => d.write_line(PhysAddr::new(byte & !63), &[0; 64]),
            "write_u64" => d.write_u64(PhysAddr::new(byte & !7), 0),
            _ => d.write_u8(PhysAddr::new(byte), 0),
        }
        assert!(armed(&mut d), "{writer} of zero must re-arm the cell");
        assert_eq!(d.stored_lines(), stored, "{writer} of zero stored a line");
        d.hammer(aggressor, 1);
    }
}
