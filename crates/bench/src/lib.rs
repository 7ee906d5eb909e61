//! Shared fixtures and the std-only timing harness for the `bench` binary.
//!
//! The harness is in-tree ([`harness`]) because the build environment has
//! no crates.io access for Criterion: each measurement is auto-calibrated
//! to a fixed wall-clock budget and reported as the median ns/iter of
//! several samples.

use ptguard::line::Line;

pub mod harness;

/// A representative protected PTE line (6 contiguous entries + 2 zero).
#[must_use]
pub fn sample_pte_line() -> Line {
    let flags = 0x8000_0000_0000_0027u64;
    let mut line = Line::ZERO;
    for i in 0..6u64 {
        line.set_word(i as usize, ((0x4_2000 + i) << 12) | flags);
    }
    line
}
