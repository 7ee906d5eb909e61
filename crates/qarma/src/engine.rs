//! The portable Even-Mansour reflection core shared by both QARMA variants.
//!
//! The core operates on a *packed* state: one `u128` word holding all 16
//! cells, one byte lane per cell, cell 0 in the most-significant lane (for
//! QARMA-128 this is exactly the native block word, so the variant boundary
//! is free; QARMA-64 spreads its 4-bit cells across the byte lanes). The two
//! block sizes share one implementation of the round structure; the variant
//! modules own packing and key specialisation.
//!
//! This kernel runs QARMA-64, all decryption, and QARMA-128 encryption on
//! hosts without the SSSE3 kernel (`crate::ssse3`, x86_64 only). It is also
//! the reference the SSSE3 kernel is tested against bit for bit. It is an
//! *allocation-free flat-word kernel*, one block per call:
//!
//! * Everything derivable from the key and the cipher parameters — the
//!   byte-level S-box tables (forward and inverse), the lane masks backing
//!   the MixColumns circulant and the tweak ω-LFSR, the inverse cell
//!   permutation τ⁻¹, the expanded whitening/reflector keys, and the
//!   per-round key words `k0 ⊕ cᵢ` / `k0 ⊕ α ⊕ cᵢ` — is precomputed once at
//!   construction into fixed-size flat arrays sized by [`MAX_ROUNDS`]. The
//!   SSSE3 kernel loads its round material from here.
//! * `encrypt`/`decrypt` run entirely on the stack: the tweak schedule lives
//!   in a `[u128; MAX_ROUNDS + 1]` array and the round loop performs word
//!   XORs, SWAR rotations, and byte-table lookups only — zero heap
//!   allocations on the hot path (pinned by `tests/alloc.rs`).
//! * Key whitening, MixColumns, and the LFSR all operate on whole words:
//!   the circulant's per-cell rotations become three masked word shifts and
//!   the diagonal (structurally zero in QARMA's `M = Q`) vanishes.

use crate::consts::MAX_ROUNDS;
use crate::sbox::Sbox;
use crate::{H, LFSR_CELLS, NUM_CELLS, TAU};

/// Replicates one byte into every lane of a packed word.
const fn rep(b: u8) -> u128 {
    u128::from_le_bytes([b; NUM_CELLS])
}

/// Per-lane least-significant-bit mask.
const LANE_LSB: u128 = rep(0x01);

/// Inverse of τ as a compile-time constant so the shuffle loops unroll with
/// constant lane indices.
pub(crate) const TAU_INV: [usize; NUM_CELLS] = {
    let mut inv = [0usize; NUM_CELLS];
    let mut i = 0;
    while i < NUM_CELLS {
        inv[TAU[i]] = i;
        i += 1;
    }
    inv
};

// Internally the kernel keeps cell `i` in byte lane `i` of the
// *little-endian* representation: `to_le_bytes` is the identity on LE
// hardware, so the lane views below compile to plain byte accesses, and
// only the packed-BE boundary words pay a single byte swap.

/// Applies a byte-level table to the eight lanes of one u64 half. Pure
/// register arithmetic: no byte array is materialized, so the state never
/// round-trips through the stack between rounds.
#[inline(always)]
fn map_half(tbl: &[u8; 256], h: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..8 {
        out |= u64::from(tbl[((h >> (8 * i)) & 0xff) as usize]) << (8 * i);
    }
    out
}

/// Applies a byte-level table to every lane.
#[inline(always)]
fn map_lanes(tbl: &[u8; 256], x: u128) -> u128 {
    (u128::from(map_half(tbl, (x >> 64) as u64)) << 64) | u128::from(map_half(tbl, x as u64))
}

/// Applies a cell permutation: output cell `i` takes input cell `perm[i]`.
/// With a `const` permutation every shift below folds to a constant.
#[inline(always)]
fn permute_lanes(perm: &[usize; NUM_CELLS], x: u128) -> u128 {
    let lo = x as u64;
    let hi = (x >> 64) as u64;
    let lane = |src: usize| {
        if src < 8 {
            (lo >> (8 * src)) & 0xff
        } else {
            (hi >> (8 * (src - 8))) & 0xff
        }
    };
    let mut out_lo = 0u64;
    let mut out_hi = 0u64;
    for i in 0..8 {
        out_lo |= lane(perm[i]) << (8 * i);
        out_hi |= lane(perm[i + 8]) << (8 * i);
    }
    (u128::from(out_hi) << 64) | u128::from(out_lo)
}

/// Rotates every 8-bit lane left by `R` (0 < `R` < 8). Shift amounts and
/// masks are compile-time constants, so each stripe is a handful of
/// constant-shift word ops.
#[inline(always)]
fn rot8<const R: u32>(x: u128) -> u128 {
    let hi = rep(((0xffu32 << R) & 0xff) as u8);
    let lo = rep((0xffu32 >> (8 - R)) as u8);
    ((x << R) & hi) | ((x >> (8 - R)) & lo)
}

/// Rotates every 4-bit cell (held in a byte lane) left by `R` (0 < `R` < 4).
#[inline(always)]
fn rot4<const R: u32>(x: u128) -> u128 {
    let hi = rep(((0x0fu32 << R) & 0x0f) as u8);
    let lo = rep((0x0fu32 >> (4 - R)) as u8);
    ((x << R) & hi) | ((x >> (4 - R)) & lo)
}

/// The involutory QARMA-128 MixColumns `M = Q = circ(0, ρ¹, ρ⁴, ρ⁵)` on the
/// packed state: each off-diagonal stripe is a whole-word row rotation
/// (source row `row + d` sits 32·d bits above its destination in LE lane
/// order) plus an in-lane cell rotation; the structural-zero diagonal simply
/// has no stripe.
#[inline(always)]
fn mix128(x: u128) -> u128 {
    rot8::<1>(x.rotate_right(32)) ^ rot8::<4>(x.rotate_right(64)) ^ rot8::<5>(x.rotate_right(96))
}

/// The involutory QARMA-64 MixColumns `M = Q = circ(0, ρ¹, ρ², ρ¹)` at
/// nibble width.
#[inline(always)]
fn mix64(x: u128) -> u128 {
    rot4::<1>(x.rotate_right(32)) ^ rot4::<2>(x.rotate_right(64)) ^ rot4::<1>(x.rotate_right(96))
}

/// Variant-independent cipher parameters plus the precomputed key schedule.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    /// Cell width in bits: 4 (QARMA-64) or 8 (QARMA-128).
    pub cell_bits: u32,
    /// Number of forward (and backward) rounds `r`.
    pub rounds: usize,
    /// The selected S-box.
    pub sbox: Sbox,
    /// Forward S-box over full lane values (4-bit cells use entries `0..16`).
    sub_tbl: [u8; 256],
    /// Inverse S-box over full lane values.
    sub_inv_tbl: [u8; 256],
    /// Lanes holding ω-LFSR tweak cells.
    pub lfsr_mask: u128,
    /// Complement of `lfsr_mask`: lanes the tweak update leaves alone.
    lfsr_keep: u128,
    /// Per-lane mask of the LFSR shift-down result (`width − 1` low bits).
    lfsr_low: u128,
    /// Feedback-bit destination: the cell's top bit position.
    lfsr_top: u32,
    /// Whitening key `w0`, packed.
    pub w0: u128,
    /// Whitening key `w1 = o(w0)`, packed.
    pub w1: u128,
    /// Reflector key `k1 = M·k0`, packed.
    pub k1: u128,
    /// Forward round keys `k0 ⊕ cᵢ`, packed.
    pub fwd_rk: [u128; MAX_ROUNDS],
    /// Backward round keys `k0 ⊕ α ⊕ cᵢ`, packed.
    pub bwd_rk: [u128; MAX_ROUNDS],
}

impl Core {
    /// Builds the core and its full key schedule. All key/constant words are
    /// in packed-lane form; `round_consts` supplies `c0..c_{r-1}`; `w1` must
    /// already be `o(w0)` (the orthomorphism acts on the variant's native
    /// word, so the variant applies it before packing).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cell_bits: u32,
        rounds: usize,
        sbox: Sbox,
        round_consts: &[u128],
        alpha: u128,
        w0: u128,
        w1: u128,
        k0: u128,
    ) -> Self {
        assert!((1..=MAX_ROUNDS).contains(&rounds));
        assert_eq!(round_consts.len(), rounds);

        let (sub_tbl, sub_inv_tbl) = if cell_bits == 4 {
            // 4-bit lanes only ever hold values < 16; extend the nibble
            // tables over the low entries (apply_byte would wrongly inject
            // the S-box image of 0 into the always-zero high nibble).
            let mut fwd = [0u8; 256];
            let mut bwd = [0u8; 256];
            fwd[..16].copy_from_slice(sbox.table());
            bwd[..16].copy_from_slice(&sbox.inverse_table());
            (fwd, bwd)
        } else {
            (sbox.byte_table(), sbox.inverse_byte_table())
        };

        let mut lfsr_lanes = [0u8; NUM_CELLS];
        for &i in &LFSR_CELLS {
            lfsr_lanes[i] = 0xff;
        }
        let lfsr_mask = u128::from_le_bytes(lfsr_lanes);

        // Packed-BE boundary words are swapped once into internal LE lane
        // order here; the hot path never byte-swaps again.
        let (w0, w1, k0, alpha) = (
            w0.swap_bytes(),
            w1.swap_bytes(),
            k0.swap_bytes(),
            alpha.swap_bytes(),
        );
        let mut fwd_rk = [0u128; MAX_ROUNDS];
        let mut bwd_rk = [0u128; MAX_ROUNDS];
        for (i, &c) in round_consts.iter().enumerate() {
            fwd_rk[i] = k0 ^ c.swap_bytes();
            bwd_rk[i] = k0 ^ alpha ^ c.swap_bytes();
        }

        let mut core = Self {
            cell_bits,
            rounds,
            sbox,
            sub_tbl,
            sub_inv_tbl,
            lfsr_mask,
            lfsr_keep: !lfsr_mask,
            lfsr_low: rep(if cell_bits == 4 { 0x07 } else { 0x7f }),
            lfsr_top: cell_bits - 1,
            w0,
            w1,
            k1: 0,
            fwd_rk,
            bwd_rk,
        };
        // Reflector key k1 = M·k0, computed with the freshly built stripes.
        core.k1 = core.mix(k0);
        core
    }

    /// Width dispatch for MixColumns (a single well-predicted branch; both
    /// arms are fully constant-folded).
    #[inline(always)]
    fn mix(&self, x: u128) -> u128 {
        if self.cell_bits == 4 {
            mix64(x)
        } else {
            mix128(x)
        }
    }

    /// One forward tweak update: permutation `h`, then ω on the LFSR cells.
    /// The LFSR steps every lane at once: the feedback bit is a masked XOR
    /// of the tap shifts (taps stay in-lane because each shift is < width
    /// and the result is masked to the lane LSB before repositioning).
    pub(crate) fn tweak_update(&self, t: u128) -> u128 {
        let p = permute_lanes(&H, t);
        let fb = if self.cell_bits == 4 {
            // x³ + x + 1: feedback = bit0 ⊕ bit1.
            (p ^ (p >> 1)) & LANE_LSB
        } else {
            // x⁷ + x⁵ + x⁴ + x³ + 1 taps: feedback = bit0 ⊕ bit2 ⊕ bit3 ⊕ bit4.
            (p ^ (p >> 2) ^ (p >> 3) ^ (p >> 4)) & LANE_LSB
        };
        let stepped = ((p >> 1) & self.lfsr_low) | (fb << self.lfsr_top);
        (p & self.lfsr_keep) | (stepped & self.lfsr_mask)
    }

    /// Builds the forward tweak schedule `t_0..t_r` of one block.
    fn tweak_schedule(&self, t: u128) -> [u128; MAX_ROUNDS + 1] {
        let mut ts = [0u128; MAX_ROUNDS + 1];
        ts[0] = t.swap_bytes();
        for i in 0..self.rounds {
            ts[i + 1] = self.tweak_update(ts[i]);
        }
        ts
    }

    /// Encrypts one packed block under packed tweak `t`.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn encrypt(&self, p: u128, t: u128) -> u128 {
        let ts = self.tweak_schedule(t);
        let mut s = p.swap_bytes() ^ self.w0;

        // Forward rounds.
        for i in 0..self.rounds {
            s ^= self.fwd_rk[i] ^ ts[i];
            if i != 0 {
                s = self.mix(permute_lanes(&TAU, s));
            }
            s = map_lanes(&self.sub_tbl, s);
        }

        // Central forward whitening round, keyed w1 ⊕ t_r.
        s ^= self.w1 ^ ts[self.rounds];
        s = map_lanes(&self.sub_tbl, self.mix(permute_lanes(&TAU, s)));

        // Pseudo-reflector: τ, ·Q, ⊕k1, τ⁻¹.
        s = permute_lanes(&TAU_INV, self.mix(permute_lanes(&TAU, s)) ^ self.k1);

        // Central backward whitening round, keyed w0 ⊕ t_r.
        s = permute_lanes(&TAU_INV, self.mix(map_lanes(&self.sub_inv_tbl, s)));
        s ^= self.w0 ^ ts[self.rounds];

        // Backward rounds (reflected tweakey schedule, shifted by α).
        for i in (0..self.rounds).rev() {
            s = map_lanes(&self.sub_inv_tbl, s);
            if i != 0 {
                s = permute_lanes(&TAU_INV, self.mix(s));
            }
            s ^= self.bwd_rk[i] ^ ts[i];
        }

        (s ^ self.w1).swap_bytes()
    }

    /// Decrypts one block: the exact structural inverse of [`Core::encrypt`].
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn decrypt(&self, c: u128, t: u128) -> u128 {
        let ts = self.tweak_schedule(t);
        let mut s = c.swap_bytes() ^ self.w1;

        // Invert the backward rounds (apply forward, ascending).
        for i in 0..self.rounds {
            s ^= self.bwd_rk[i] ^ ts[i];
            if i != 0 {
                s = self.mix(permute_lanes(&TAU, s));
            }
            s = map_lanes(&self.sub_tbl, s);
        }

        // Invert the central backward whitening round.
        s ^= self.w0 ^ ts[self.rounds];
        s = map_lanes(&self.sub_tbl, self.mix(permute_lanes(&TAU, s)));

        // Invert the pseudo-reflector.
        s = permute_lanes(&TAU_INV, self.mix(permute_lanes(&TAU, s) ^ self.k1));

        // Invert the central forward whitening round.
        s = permute_lanes(&TAU_INV, self.mix(map_lanes(&self.sub_inv_tbl, s)));
        s ^= self.w1 ^ ts[self.rounds];

        // Invert the forward rounds (descending).
        for i in (0..self.rounds).rev() {
            s = map_lanes(&self.sub_inv_tbl, s);
            if i != 0 {
                s = permute_lanes(&TAU_INV, self.mix(s));
            }
            s ^= self.fwd_rk[i] ^ ts[i];
        }

        (s ^ self.w0).swap_bytes()
    }
}

/// The orthomorphism `o(x) = (x ⋙ 1) ⊕ (x ≫ n−1)` used to derive `w1` from
/// `w0`, applied on the packed word. Implemented here for both widths.
pub(crate) fn ortho64(x: u64) -> u64 {
    x.rotate_right(1) ^ (x >> 63)
}

/// 128-bit variant of [`ortho64`].
pub(crate) fn ortho128(x: u128) -> u128 {
    x.rotate_right(1) ^ (x >> 127)
}

/// Spreads a 64-bit QARMA-64 word (16 nibble cells, cell 0 most significant)
/// into packed-lane form: one nibble value per byte lane.
pub(crate) fn spread64(x: u64) -> u128 {
    let mut out = 0u128;
    for i in 0..NUM_CELLS {
        out = (out << 8) | u128::from((x >> (60 - 4 * i)) & 0xf);
    }
    out
}

/// Inverse of [`spread64`].
pub(crate) fn unspread64(x: u128) -> u64 {
    let mut out = 0u64;
    for lane in x.to_be_bytes() {
        out = (out << 4) | u64::from(lane & 0xf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_roundtrips() {
        for x in [0u64, u64::MAX, 0x0123_4567_89ab_cdef, 0xfb62_3599_da6e_8127] {
            assert_eq!(unspread64(spread64(x)), x);
        }
        assert_eq!(spread64(0xf000_0000_0000_0000) >> 120, 0xf);
    }

    #[test]
    fn mix_stripes_rotate_within_lanes() {
        // 8-bit lanes: cell (0, 0) must receive cell (1, 0) rotated left by
        // ρ¹ within its 8 bits (stripe d = 1 of circ(0, ρ¹, ρ⁴, ρ⁵)). Lanes
        // are in internal LE order (cell i = byte lane i).
        let mut lanes = [0u8; NUM_CELLS];
        lanes[4] = 0x81; // row 1, col 0
        let out = mix128(u128::from_le_bytes(lanes)).to_le_bytes();
        assert_eq!(out[0], 0x81u8.rotate_left(1));
        // 4-bit lanes: cell (0, 0) receives cell (2, 0) rotated by ρ²
        // (stripe d = 2 of circ(0, ρ¹, ρ², ρ¹)).
        let mut lanes = [0u8; NUM_CELLS];
        lanes[8] = 0b1001; // row 2, col 0
        let out = mix64(u128::from_le_bytes(lanes)).to_le_bytes();
        assert_eq!(out[0], 0b0110);
    }
}
