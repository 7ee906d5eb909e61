//! SSSE3 byte-shuffle kernel for QARMA-128 encryption (x86_64 only).
//!
//! One block lives in one `xmm` register with cell `i` in byte lane `i` —
//! the internal lane order of the portable [`Core`], so the kernel loads
//! the core's precomputed keys and round keys as they are. Each round is a
//! handful of shuffles and byte-lane arithmetic:
//!
//! * **S-box**: the 4-bit box is applied to both nibbles of every cell with
//!   two `pshufb` lookups (low nibble into a 16-entry table, high nibble
//!   into the same table pre-shifted by 4) and one OR.
//! * **τ, τ⁻¹, h**: one constant `pshufb` each.
//! * **MixColumns** `circ(0, ρ¹, ρ⁴, ρ⁵)`: each off-diagonal stripe is a
//!   row rotation of the state — a whole-dword rotation, folded together
//!   with the adjacent τ or τ⁻¹ into one constant `pshufb` — followed by
//!   an in-cell rotation. The rotations are bit permutations inside each
//!   cell, so they commute with the shuffles and distribute over XOR: one
//!   ρ¹ of the input (a byte add and a sign-mask subtract) feeds both the
//!   ρ¹ and the ρ⁵ = ρ⁴·ρ¹ stripe, and the remaining ρ⁴ (a nibble swap) is
//!   never formed — the next S-box reads its nibbles crosswise instead
//!   ([`sub_mixed`]).
//! * **ω-LFSR**: ω is linear, so it too is two nibble lookups, merged back
//!   into the LFSR cells through a lane mask.
//!
//! [`Kernel::encrypt_many`] runs four blocks per group — one PTE line's
//! four chunks — with the per-block statements interleaved so their
//! dependency chains overlap. Decryption and QARMA-64 stay on the portable
//! kernel.

use std::arch::x86_64::{
    __m128i, _mm_add_epi8, _mm_and_si128, _mm_cmplt_epi8, _mm_or_si128, _mm_set1_epi8,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi16, _mm_srli_epi16, _mm_sub_epi8,
    _mm_xor_si128,
};
use std::sync::atomic::Ordering;

use crate::cells::lfsr8_forward;
use crate::consts::MAX_ROUNDS;
use crate::engine::{Core, TAU_INV};
use crate::q128::DETECTIONS;
use crate::{H, NUM_CELLS, TAU};

/// Blocks per interleaved group: one PTE line's four chunks.
const GROUP: usize = 4;

/// A `pshufb` control vector: output lane `i` takes input lane `ctl[i]`.
type Ctl = [u8; NUM_CELLS];

/// Byte reversal: the packed big-endian block word to internal lane order
/// and back.
const REV: Ctl = {
    let mut c = [0u8; NUM_CELLS];
    let mut i = 0;
    while i < NUM_CELLS {
        c[i] = (NUM_CELLS - 1 - i) as u8;
        i += 1;
    }
    c
};

/// Lifts a cell permutation into a shuffle control.
const fn perm_ctl(perm: &[usize; NUM_CELLS]) -> Ctl {
    let mut c = [0u8; NUM_CELLS];
    let mut i = 0;
    while i < NUM_CELLS {
        c[i] = perm[i] as u8;
        i += 1;
    }
    c
}

/// The shuffles feeding MixColumns stripe `d` (`d` rows down) after τ:
/// lane `j` of `rowrot_d(τ(s))` is `s[TAU[(j + 4d) mod 16]]`.
const fn tau_then_rows(d: usize) -> Ctl {
    let mut c = [0u8; NUM_CELLS];
    let mut j = 0;
    while j < NUM_CELLS {
        c[j] = TAU[(j + 4 * d) % NUM_CELLS] as u8;
        j += 1;
    }
    c
}

/// The shuffles feeding stripe `d` when τ⁻¹ follows MixColumns: lane `j`
/// of `τ⁻¹(rowrot_d(s))` is `s[(TAU_INV[j] + 4d) mod 16]`.
const fn rows_then_tau_inv(d: usize) -> Ctl {
    let mut c = [0u8; NUM_CELLS];
    let mut j = 0;
    while j < NUM_CELLS {
        c[j] = ((TAU_INV[j] + 4 * d) % NUM_CELLS) as u8;
        j += 1;
    }
    c
}

const TAU_INV_CTL: Ctl = perm_ctl(&TAU_INV);
const H_CTL: Ctl = perm_ctl(&H);
/// `τ` then the three MixColumns row rotations.
const MIX_AFTER_TAU: [Ctl; 3] = [tau_then_rows(1), tau_then_rows(2), tau_then_rows(3)];
/// The three MixColumns row rotations then `τ⁻¹`.
const MIX_BEFORE_TAU_INV: [Ctl; 3] = [
    rows_then_tau_inv(1),
    rows_then_tau_inv(2),
    rows_then_tau_inv(3),
];

/// Reinterprets 16 bytes as a vector (byte `i` in lane `i`).
#[inline(always)]
fn v(bytes: [u8; NUM_CELLS]) -> __m128i {
    // SAFETY: both types are 16 bytes of plain data with no invalid bit
    // patterns.
    unsafe { std::mem::transmute(bytes) }
}

/// Reinterprets a little-endian `u128` as a vector (least-significant
/// byte in lane 0).
#[inline(always)]
fn from_u128(x: u128) -> __m128i {
    v(x.to_le_bytes())
}

/// Inverse of [`from_u128`].
#[inline(always)]
fn to_u128(x: __m128i) -> u128 {
    // SAFETY: as in `v`.
    u128::from_le_bytes(unsafe { std::mem::transmute::<__m128i, [u8; NUM_CELLS]>(x) })
}

/// The shuffle kernel's lookup vectors for one S-box; the key material
/// stays in the [`Core`] it reads from. Built only once SSSE3 has been
/// detected, so holding one is the proof the `unsafe` dispatch in
/// [`Kernel::encrypt_many`] relies on.
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    /// S-box over low nibbles: lane `n` holds `σ(n)`.
    sub_lo: __m128i,
    /// S-box over high nibbles: lane `n` holds `σ(n) << 4`.
    sub_hi: __m128i,
    /// Inverse S-box, low nibbles.
    inv_lo: __m128i,
    /// Inverse S-box, high nibbles.
    inv_hi: __m128i,
    /// ω over low nibbles: lane `n` holds `ω(n)`.
    lfsr_lo: __m128i,
    /// ω over high nibbles: lane `n` holds `ω(n << 4)`.
    lfsr_hi: __m128i,
}

impl Kernel {
    /// Builds the kernel for `core`'s S-box, or returns `None` when the host
    /// lacks SSSE3.
    pub(crate) fn detect(core: &Core) -> Option<Self> {
        debug_assert_eq!(core.cell_bits, 8, "the shuffle kernel is QARMA-128 only");
        DETECTIONS.fetch_add(1, Ordering::Relaxed);
        if !std::is_x86_feature_detected!("ssse3") {
            return None;
        }
        let nibbles = |tbl: &[u8; 16], shift: u32| {
            let mut out = [0u8; NUM_CELLS];
            for (o, &x) in out.iter_mut().zip(tbl) {
                *o = x << shift;
            }
            v(out)
        };
        let lfsr_nibbles = |shift: u32| {
            let mut out = [0u8; NUM_CELLS];
            for (n, o) in out.iter_mut().enumerate() {
                *o = lfsr8_forward((n as u8) << shift);
            }
            v(out)
        };
        let inv = core.sbox.inverse_table();
        Some(Self {
            sub_lo: nibbles(core.sbox.table(), 0),
            sub_hi: nibbles(core.sbox.table(), 4),
            inv_lo: nibbles(&inv, 0),
            inv_hi: nibbles(&inv, 4),
            lfsr_lo: lfsr_nibbles(0),
            lfsr_hi: lfsr_nibbles(4),
        })
    }

    /// Encrypts every `(plaintext, tweak)` pair into `out` under `core`'s
    /// key: groups of four interleaved blocks, then the remainder one block
    /// at a time.
    pub(crate) fn encrypt_many(&self, core: &Core, pairs: &[(u128, u128)], out: &mut [u128]) {
        debug_assert_eq!(pairs.len(), out.len());
        // SAFETY: a `Kernel` exists only if `detect` found SSSE3.
        unsafe { self.encrypt_many_ssse3(core, pairs, out) }
    }

    #[target_feature(enable = "ssse3")]
    fn encrypt_many_ssse3(&self, core: &Core, pairs: &[(u128, u128)], out: &mut [u128]) {
        let mut slots = out.chunks_exact_mut(GROUP);
        let mut groups = pairs.chunks_exact(GROUP);
        for (slot, group) in slots.by_ref().zip(groups.by_ref()) {
            let q = self.encrypt_group::<GROUP>(
                core,
                [group[0].0, group[1].0, group[2].0, group[3].0],
                [group[0].1, group[1].1, group[2].1, group[3].1],
            );
            slot.copy_from_slice(&q);
        }
        for (slot, &(p, t)) in slots.into_remainder().iter_mut().zip(groups.remainder()) {
            *slot = self.encrypt_group::<1>(core, [p], [t])[0];
        }
    }

    /// One forward tweak update: `h`, then ω on the LFSR cells. ω is linear
    /// over GF(2), so like the S-box it is two nibble lookups XORed.
    #[target_feature(enable = "ssse3")]
    fn tweak_update(&self, t: __m128i, lfsr_mask: __m128i) -> __m128i {
        let p = _mm_shuffle_epi8(t, v(H_CTL));
        let m = _mm_set1_epi8(0x0f);
        let stepped = _mm_xor_si128(
            _mm_shuffle_epi8(self.lfsr_lo, _mm_and_si128(p, m)),
            _mm_shuffle_epi8(self.lfsr_hi, _mm_and_si128(_mm_srli_epi16(p, 4), m)),
        );
        _mm_xor_si128(p, _mm_and_si128(_mm_xor_si128(p, stepped), lfsr_mask))
    }

    /// Encrypts `N` blocks with their per-block statements interleaved.
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "ssse3")]
    fn encrypt_group<const N: usize>(&self, core: &Core, p: [u128; N], t: [u128; N]) -> [u128; N] {
        let r = core.rounds;
        let rev = v(REV);
        let (w0, w1, k1) = (from_u128(core.w0), from_u128(core.w1), from_u128(core.k1));
        let (fwd_rk, bwd_rk) = (&core.fwd_rk, &core.bwd_rk);
        let lfsr_mask = from_u128(core.lfsr_mask);
        let mut ts = [[_mm_setzero_si128(); MAX_ROUNDS + 1]; N];
        let mut s = [_mm_setzero_si128(); N];
        for k in 0..N {
            ts[k][0] = _mm_shuffle_epi8(from_u128(t[k]), rev);
            for i in 0..r {
                ts[k][i + 1] = self.tweak_update(ts[k][i], lfsr_mask);
            }
            // Whitening with w0, then forward round 0 (no MixColumns).
            let x = _mm_xor_si128(_mm_shuffle_epi8(from_u128(p[k]), rev), w0);
            let x = _mm_xor_si128(x, _mm_xor_si128(from_u128(fwd_rk[0]), ts[k][0]));
            s[k] = sub(x, self.sub_lo, self.sub_hi);
        }

        // Forward rounds.
        for i in 1..r {
            for k in 0..N {
                s[k] = _mm_xor_si128(s[k], _mm_xor_si128(from_u128(fwd_rk[i]), ts[k][i]));
                let (w, u) = mix_parts(s[k], &MIX_AFTER_TAU);
                s[k] = sub_mixed(w, u, self.sub_lo, self.sub_hi);
            }
        }

        // From the central backward round on, the state between rounds is
        // kept split as `(w, u)` with state `= w ⊕ ρ⁴(u)` (see `sub_mixed`).
        let tau_inv = v(TAU_INV_CTL);
        let mut u = [_mm_setzero_si128(); N];
        for k in 0..N {
            // Central forward whitening round, keyed w1 ⊕ t_r.
            s[k] = _mm_xor_si128(s[k], _mm_xor_si128(w1, ts[k][r]));
            let (w, uk) = mix_parts(s[k], &MIX_AFTER_TAU);
            s[k] = sub_mixed(w, uk, self.sub_lo, self.sub_hi);

            // Pseudo-reflector: τ, ·Q, ⊕k1, τ⁻¹.
            let (w, uk) = mix_parts(s[k], &MIX_AFTER_TAU);
            let m = _mm_xor_si128(_mm_xor_si128(w, rot4(uk)), k1);
            s[k] = _mm_shuffle_epi8(m, tau_inv);

            // Central backward whitening round, keyed w0 ⊕ t_r.
            let (w, uk) = mix_parts(sub(s[k], self.inv_lo, self.inv_hi), &MIX_BEFORE_TAU_INV);
            s[k] = _mm_xor_si128(w, _mm_xor_si128(w0, ts[k][r]));
            u[k] = uk;
        }

        // Backward rounds (reflected tweakey schedule, shifted by α); round
        // 0 has no MixColumns.
        for i in (1..r).rev() {
            for k in 0..N {
                let y = sub_mixed(s[k], u[k], self.inv_lo, self.inv_hi);
                let (w, uk) = mix_parts(y, &MIX_BEFORE_TAU_INV);
                s[k] = _mm_xor_si128(w, _mm_xor_si128(from_u128(bwd_rk[i]), ts[k][i]));
                u[k] = uk;
            }
        }
        for k in 0..N {
            s[k] = sub_mixed(s[k], u[k], self.inv_lo, self.inv_hi);
            s[k] = _mm_xor_si128(s[k], _mm_xor_si128(from_u128(bwd_rk[0]), ts[k][0]));
        }

        let mut c = [0u128; N];
        for k in 0..N {
            c[k] = to_u128(_mm_shuffle_epi8(_mm_xor_si128(s[k], w1), rev));
        }
        c
    }
}

/// Applies the 4-bit S-box (given as low/high-nibble tables) to both
/// nibbles of every cell.
#[inline]
#[target_feature(enable = "ssse3")]
fn sub(x: __m128i, lo: __m128i, hi: __m128i) -> __m128i {
    let m = _mm_set1_epi8(0x0f);
    let lo_n = _mm_and_si128(x, m);
    let hi_n = _mm_and_si128(_mm_srli_epi16(x, 4), m);
    _mm_or_si128(_mm_shuffle_epi8(lo, lo_n), _mm_shuffle_epi8(hi, hi_n))
}

/// Rotates every cell left by one bit: `x + x` shifts within the byte,
/// and subtracting the sign mask (−1 where the top bit was set) carries
/// that bit round into bit 0.
#[inline]
#[target_feature(enable = "ssse3")]
fn rot1(x: __m128i) -> __m128i {
    _mm_sub_epi8(_mm_add_epi8(x, x), _mm_cmplt_epi8(x, _mm_setzero_si128()))
}

/// Rotates every cell left by four bits (swaps its nibbles).
#[inline]
#[target_feature(enable = "ssse3")]
fn rot4(x: __m128i) -> __m128i {
    _mm_or_si128(
        _mm_and_si128(_mm_slli_epi16(x, 4), _mm_set1_epi8(0xf0_u8 as i8)),
        _mm_and_si128(_mm_srli_epi16(x, 4), _mm_set1_epi8(0x0f)),
    )
}

/// MixColumns `circ(0, ρ¹, ρ⁴, ρ⁵)` with a cell permutation folded into the
/// stripe shuffles `ctl` (see [`MIX_AFTER_TAU`], [`MIX_BEFORE_TAU_INV`]),
/// left split: returns `(w, u)` with the mixed state `= w ⊕ ρ⁴(u)`, since
/// `ρ¹(a) ⊕ ρ⁴(b) ⊕ ρ⁵(c) = ρ¹(a) ⊕ ρ⁴(b ⊕ ρ¹(c))`. The in-cell rotation
/// commutes with the shuffles, so one ρ¹ of the input serves both stripes.
#[inline]
#[target_feature(enable = "ssse3")]
fn mix_parts(x: __m128i, ctl: &[Ctl; 3]) -> (__m128i, __m128i) {
    let x1 = rot1(x);
    let w = _mm_shuffle_epi8(x1, v(ctl[0]));
    let u = _mm_xor_si128(
        _mm_shuffle_epi8(x, v(ctl[1])),
        _mm_shuffle_epi8(x1, v(ctl[2])),
    );
    (w, u)
}

/// The S-box of the split state `w ⊕ ρ⁴(u)`, without forming it: the low
/// nibble of each cell is `w_lo ⊕ u_hi` and the high nibble `w_hi ⊕ u_lo`,
/// so the nibble swap ρ⁴ folds into the index extraction.
#[inline]
#[target_feature(enable = "ssse3")]
fn sub_mixed(w: __m128i, u: __m128i, lo: __m128i, hi: __m128i) -> __m128i {
    let m = _mm_set1_epi8(0x0f);
    let lo_n = _mm_and_si128(_mm_xor_si128(w, _mm_srli_epi16(u, 4)), m);
    let hi_n = _mm_and_si128(_mm_xor_si128(_mm_srli_epi16(w, 4), u), m);
    _mm_or_si128(_mm_shuffle_epi8(lo, lo_n), _mm_shuffle_epi8(hi, hi_n))
}
