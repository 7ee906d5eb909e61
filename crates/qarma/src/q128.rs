//! QARMA-128: 128-bit blocks, 8-bit cells, 256-bit key.
//!
//! This is the variant PT-Guard uses to MAC page-table-entry cachelines
//! (Section IV-F of the paper): four 16-byte chunks of the 64-byte line are
//! each enciphered under their 16-byte-granular address as tweak and the
//! results folded.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::consts::{ALPHA128, C128, MAX_ROUNDS_128};
use crate::engine::{ortho128, Core};
use crate::sbox::Sbox;
#[cfg(target_arch = "x86_64")]
use crate::ssse3;

/// The QARMA-128 tweakable block cipher.
///
/// The 256-bit key is supplied as `(w0, k0)` 128-bit halves; `w1 = o(w0)` and
/// `k1 = M·k0` are derived internally.
///
/// # Example
///
/// ```
/// use qarma::{Qarma128, Sbox};
///
/// let cipher = Qarma128::new([1, 2], 9, Sbox::Sigma1);
/// let ct = cipher.encrypt(0xdead_beef, 42);
/// assert_eq!(cipher.decrypt(ct, 42), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct Qarma128 {
    /// The portable kernel: decryption everywhere, and encryption on hosts
    /// without the SIMD kernel.
    core: Core,
    /// The SSSE3 encryption kernel, present when the host supports it.
    /// Detected once, in [`Qarma128::new`].
    #[cfg(target_arch = "x86_64")]
    ssse3: Option<ssse3::Kernel>,
}

/// Host probes for the SIMD kernel so far (see [`kernel_detections`]).
pub(crate) static DETECTIONS: AtomicU64 = AtomicU64::new(0);

/// How many times this process has probed the host CPU for the SIMD
/// kernel. On x86_64 each [`Qarma128::new`] probes exactly once and
/// encryption never does (elsewhere nothing probes); the count lets tests
/// pin that.
#[must_use]
pub fn kernel_detections() -> u64 {
    DETECTIONS.load(Ordering::Relaxed)
}

impl Qarma128 {
    /// Creates a QARMA-128 instance with `r` forward/backward rounds.
    ///
    /// PT-Guard uses an "18-round" QARMA-128, i.e. `r = 9` forward and
    /// backward rounds around the reflector.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or exceeds [`MAX_ROUNDS_128`].
    #[must_use]
    pub fn new(key: [u128; 2], rounds: usize, sbox: Sbox) -> Self {
        assert!(
            (1..=MAX_ROUNDS_128).contains(&rounds),
            "QARMA-128 supports 1..={MAX_ROUNDS_128} rounds, got {rounds}"
        );
        // The packed-lane state of the core *is* the native 128-bit word
        // (cell 0 = most-significant byte), so keys and constants pass
        // straight through.
        let core = Core::new(
            8,
            rounds,
            sbox,
            &C128[..rounds],
            ALPHA128,
            key[0],
            ortho128(key[0]),
            key[1],
        );
        Self {
            #[cfg(target_arch = "x86_64")]
            ssse3: ssse3::Kernel::detect(&core),
            core,
        }
    }

    /// Encrypts `plaintext` under `tweak`. Allocation-free.
    #[must_use]
    pub fn encrypt(&self, plaintext: u128, tweak: u128) -> u128 {
        let mut out = [0u128];
        self.encrypt_many(&[(plaintext, tweak)], &mut out);
        out[0]
    }

    /// Decrypts `ciphertext` under `tweak`. Allocation-free.
    #[must_use]
    pub fn decrypt(&self, ciphertext: u128, tweak: u128) -> u128 {
        self.core.decrypt(ciphertext, tweak)
    }

    /// Encrypts a batch of `(plaintext, tweak)` pairs into `out`, one output
    /// word per pair. Allocation-free: `PteMac::compute`, the controller's
    /// verify paths, and the oracle sweeps all batch their chunk encryptions
    /// through here. On the SSSE3 kernel each group of four pairs (one PTE
    /// line) runs interleaved in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() != out.len()`.
    pub fn encrypt_many(&self, pairs: &[(u128, u128)], out: &mut [u128]) {
        assert_eq!(pairs.len(), out.len(), "encrypt_many: length mismatch");
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = &self.ssse3 {
            return kernel.encrypt_many(&self.core, pairs, out);
        }
        for (slot, &(p, t)) in out.iter_mut().zip(pairs) {
            *slot = self.core.encrypt(p, t);
        }
    }

    /// The encryption kernel this instance runs: `"ssse3"` or `"portable"`.
    #[must_use]
    pub fn kernel(&self) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if self.ssse3.is_some() {
            return "ssse3";
        }
        "portable"
    }

    /// Number of forward/backward rounds `r`.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.core.rounds
    }

    /// The S-box this instance uses.
    #[must_use]
    pub fn sbox(&self) -> Sbox {
        self.core.sbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W0: u128 = 0x84be85ce9804e94bec2802d4e0a488e4;
    const K0: u128 = 0x10235374a49bccdde2f10325a89bdcfe;
    const PT: u128 = 0xfb623599da6e8127477d469dec0b8762;
    const TW: u128 = 0x05040302011a1b1c1d1e1f20212223ff;

    #[test]
    fn encrypt_decrypt_roundtrip_all_sboxes_and_rounds() {
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for rounds in [1usize, 2, 5, 9, 11] {
                let c = Qarma128::new([W0, K0], rounds, sbox);
                let ct = c.encrypt(PT, TW);
                assert_eq!(c.decrypt(ct, TW), PT, "r={rounds} sbox={sbox:?}");
            }
        }
    }

    #[test]
    fn distinct_tweaks_give_distinct_ciphertexts() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        let mut seen = std::collections::HashSet::new();
        for t in 0..64u128 {
            assert!(seen.insert(c.encrypt(PT, t)), "collision at tweak {t}");
        }
    }

    #[test]
    fn avalanche_on_plaintext() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        let base = c.encrypt(PT, TW);
        let mut total = 0u32;
        for bit in 0..128 {
            total += (c.encrypt(PT ^ (1 << bit), TW) ^ base).count_ones();
        }
        let avg = f64::from(total) / 128.0;
        assert!((52.0..76.0).contains(&avg), "weak avalanche: avg {avg}");
    }

    #[test]
    fn avalanche_on_key() {
        let base = Qarma128::new([W0, K0], 9, Sbox::Sigma1).encrypt(PT, TW);
        let mut total = 0u32;
        for bit in (0..128).step_by(7) {
            let c = Qarma128::new([W0, K0 ^ (1 << bit)], 9, Sbox::Sigma1);
            total += (c.encrypt(PT, TW) ^ base).count_ones();
        }
        let samples = (0..128).step_by(7).count() as f64;
        let avg = f64::from(total) / samples;
        assert!((52.0..76.0).contains(&avg), "weak key avalanche: avg {avg}");
    }

    #[test]
    fn golden_outputs_are_stable() {
        // Regression pins (see q64's golden test for rationale).
        let c9 = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        assert_eq!(c9.encrypt(PT, TW), 0x430df35e6d4ec8e8d0fde043b2806757);
        let c11 = Qarma128::new([W0, K0], 11, Sbox::Sigma1);
        assert_eq!(c11.encrypt(PT, TW), 0xb69aa3055cc446338673f7d0c7b088a9);
    }

    #[test]
    fn encrypt_many_matches_scalar_for_all_sboxes_and_rounds() {
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for rounds in 1..=MAX_ROUNDS_128 {
                let c = Qarma128::new([W0, K0], rounds, sbox);
                let pairs: Vec<(u128, u128)> = (0..9)
                    .map(|i| (PT.wrapping_mul(i + 1), TW.rotate_left(i as u32)))
                    .collect();
                let mut batch = vec![0u128; pairs.len()];
                c.encrypt_many(&pairs, &mut batch);
                for (&(p, t), &got) in pairs.iter().zip(&batch) {
                    assert_eq!(got, c.encrypt(p, t), "r={rounds} sbox={sbox:?}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ssse3_kernel_matches_portable_kernel() {
        if !std::is_x86_feature_detected!("ssse3") {
            eprintln!("host lacks SSSE3: only the portable kernel runs here");
            return;
        }
        // SplitMix64: a seeded stream of keys, plaintexts and tweaks.
        let mut state = 0x5eed_0f55_e3e3_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut word = || u128::from(next()) << 64 | u128::from(next());
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for rounds in 1..=MAX_ROUNDS_128 {
                let c = Qarma128::new([word(), word()], rounds, sbox);
                let simd = ssse3::Kernel::detect(&c.core).expect("SSSE3 detected above");
                for len in 0..=9 {
                    let pairs: Vec<(u128, u128)> = (0..len).map(|_| (word(), word())).collect();
                    let mut got = vec![0u128; len];
                    simd.encrypt_many(&c.core, &pairs, &mut got);
                    for (&(p, t), &q) in pairs.iter().zip(&got) {
                        assert_eq!(
                            q,
                            c.core.encrypt(p, t),
                            "r={rounds} sbox={sbox:?} len={len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_reports_the_detected_kernel() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        #[cfg(target_arch = "x86_64")]
        let expect = if std::is_x86_feature_detected!("ssse3") {
            "ssse3"
        } else {
            "portable"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expect = "portable";
        assert_eq!(c.kernel(), expect);
        assert_eq!(c.clone().kernel(), expect);
    }

    #[test]
    fn encryption_is_deterministic() {
        let c = Qarma128::new([W0, K0], 9, Sbox::Sigma1);
        assert_eq!(c.encrypt(PT, TW), c.encrypt(PT, TW));
    }
}
