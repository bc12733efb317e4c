//! The CRC-32 kernel behind [`crc32`]: CRC-32/ISO-HDLC (IEEE 802.3 —
//! reflected polynomial, init and xor-out `0xFFFFFFFF`) at two speeds.
//!
//! Both tiers advance the *raw* shift-register state (no init, no final
//! xor), so either can stop anywhere and hand the rest of the buffer to
//! the other:
//!
//! * [`slice16`] — slice-by-16 in safe Rust: the definition on every
//!   target, the whole kernel where nothing faster exists, and the path
//!   for inputs shorter than one fold block.
//! * [`clmul`] (x86-64) — the 4×128-bit carry-less-multiply fold of Gopal
//!   et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction" (Intel, 2009), taken when the CPU reports
//!   `pclmulqdq` and `sse4.1` and the input holds at least one 64-byte
//!   block.
//!
//! Selection is by platform and input length only. Every table and fold
//! constant is computed at compile time from the one [`POLY`].

/// The reflected CRC-32 polynomial (bit 31 is the coefficient of `x^0`).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the state after byte `b` and then `k` zero bytes have
/// been shifted through a zero register; `TABLES[0]` is the classic
/// byte-at-a-time table.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3: reflected polynomial `0xEDB88320`, init and
/// xor-out `0xFFFFFFFF`) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !fold(!0, data).unwrap_or_else(|| slice16(!0, data))
}

/// Portable tier: sixteen table lookups per 16 input bytes, the classic
/// byte step for the remainder.
fn slice16(mut state: u32, data: &[u8]) -> u32 {
    /// The four bytes of `word`, first byte through table `base + 3`.
    fn quad(base: usize, word: u32) -> u32 {
        let [b0, b1, b2, b3] = word.to_le_bytes();
        TABLES[base + 3][b0 as usize]
            ^ TABLES[base + 2][b1 as usize]
            ^ TABLES[base + 1][b2 as usize]
            ^ TABLES[base][b3 as usize]
    }
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        state = quad(12, word(0) ^ state) ^ quad(8, word(4)) ^ quad(4, word(8)) ^ quad(0, word(12));
    }
    for &byte in tail {
        state = TABLES[0][((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Fold tier: `Some(state)` after all of `data` where the CPU has the
/// carry-less multiply and `data` holds at least one [`clmul::BLOCK`];
/// `None` where it does not, and on every other architecture. The fold
/// consumes whole 16-byte lanes and hands the tail to [`slice16`].
#[allow(unsafe_code)]
fn fold(state: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::BLOCK
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (lanes, tail) = data.as_chunks::<16>();
        // SAFETY: `clmul::fold` is safe code whose one requirement is a CPU
        // with `pclmulqdq` and `sse4.1`, and the condition above detected
        // both on the CPU running this.
        let state = unsafe { clmul::fold(state, lanes) };
        return Some(slice16(state, tail));
    }
    let _ = (state, data); // unused where no fold exists
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::POLY;

    /// `x^n mod P`, reflected.
    const fn x_pow_mod(n: u32) -> u32 {
        let mut r = 1u32 << 31; // x^0
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
            i += 1;
        }
        r
    }

    /// The constant that folds a 64-bit half forward by `n` bits:
    /// `(x^n mod P)` reflected, pre-shifted one bit because the carry-less
    /// product of two reflected 64-bit values lands one bit low.
    const fn fold_by(n: u32) -> u64 {
        (x_pow_mod(n) as u64) << 1
    }

    /// `P(x)` with its `x^32` term, reflected into 33 bits.
    pub(super) const P_PRIME: u64 = (POLY as u64) << 1 | 1;

    /// `µ = ⌊x^64 / P(x)⌋`, reflected into 33 bits: the Barrett constant.
    pub(super) const MU: u64 = {
        let mut mu = 0u64;
        let mut window = 1u64; // x^32, reflected into 33 bits
        let mut i = 0;
        while i < 33 {
            if window & 1 != 0 {
                mu |= 1 << i;
                window ^= P_PRIME;
            }
            window >>= 1;
            i += 1;
        }
        mu
    };

    /// Bytes one iteration of the four-lane loop consumes, and so the
    /// shortest input the fold takes.
    pub(super) const BLOCK: usize = 64;

    // Fold distances: four lanes ahead (512 bits) in the main loop, one
    // lane ahead (128 bits) while collapsing. Each comes as a pair because
    // the halves of a lane are multiplied separately and sit 64 bits
    // apart: +32 for the low half (earlier bytes), −32 for the high half.
    pub(super) const K1: i64 = fold_by(4 * 128 + 32) as i64;
    pub(super) const K2: i64 = fold_by(4 * 128 - 32) as i64;
    pub(super) const K3: i64 = fold_by(128 + 32) as i64;
    pub(super) const K4: i64 = fold_by(128 - 32) as i64;
    pub(super) const K5: i64 = fold_by(64) as i64;

    /// Sixteen bytes as one little-endian 128-bit lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `acc` moved forward by the distance `keys` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn step(acc: __m128i, keys: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw register `state` over `lanes`, which must hold at
    /// least one [`BLOCK`] (four lanes).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, lanes: &[[u8; 16]]) -> u32 {
        let (blocks, singles) = lanes.as_chunks::<4>();
        let (first, blocks) = blocks.split_first().expect("the fold needs one whole block");

        // Four independent accumulators, each folded four lanes ahead.
        let mut x = first.map(|l| lane(&l));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let keys = _mm_set_epi64x(K2, K1);
        for block in blocks {
            for (acc, l) in x.iter_mut().zip(block) {
                *acc = step(*acc, keys, lane(l));
            }
        }

        // Collapse the four into one, then take the odd lanes one at a time.
        let keys = _mm_set_epi64x(K4, K3);
        let mut acc = step(x[0], keys, x[1]);
        acc = step(acc, keys, x[2]);
        acc = step(acc, keys, x[3]);
        for l in singles {
            acc = step(acc, keys, lane(l));
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, keys), _mm_srli_si128::<8>(acc));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett reduction, 64 → 32 bits: R − ⌊⌊R mod x^32⌋·µ mod x^32⌋·P.
        let p_mu = _mm_set_epi64x(MU as i64, P_PRIME as i64);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), p_mu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ChaCha8;

    /// The definition, one bit at a time.
    fn oracle(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn seeded(seed: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        ChaCha8::seed_from_u64(seed).fill_bytes(&mut buf);
        buf
    }

    /// Each tier called directly, as a whole-buffer CRC: the portable one
    /// always, the fold wherever it takes the input.
    fn tiers(data: &[u8]) -> impl Iterator<Item = (&'static str, u32)> {
        let fold = fold(!0, data).map(|state| ("fold", !state));
        std::iter::once(("slice16", !slice16(!0, data))).chain(fold)
    }

    /// `data` through each tier and through the dispatcher, against the oracle.
    fn check(data: &[u8]) {
        let want = oracle(data);
        for (tier, got) in tiers(data) {
            assert_eq!(got, want, "{tier} on {} bytes", data.len());
        }
        assert_eq!(crc32(data), want, "dispatched, {} bytes", data.len());
    }

    #[test]
    fn the_fold_takes_whole_blocks_wherever_the_cpu_has_it() {
        assert_eq!(fold(!0, &[0; 63]), None);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            fold(!0, &[0; 64]).is_some(),
            is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"),
            "the tests below reach the fold only through this answer"
        );
    }

    #[test]
    fn known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        for (input, want) in [
            (&b""[..], 0),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(!slice16(!0, input), want);
            assert_eq!(crc32(input), want);
        }
        // All three are shorter than a fold block. The catalogue's other
        // constant has no length: a message followed by its own CRC leaves
        // the residue 0xDEBB20E3 in the register.
        let mut data = seeded(7, 4096 + 5);
        data.extend_from_slice(&oracle(&data).to_le_bytes());
        for (tier, got) in tiers(&data) {
            assert_eq!(!got, 0xDEBB_20E3, "{tier}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_match_the_published_values() {
        // Gopal et al. for the reflected IEEE 802.3 polynomial (the same
        // seven are in Linux's `crc32-pclmul` and in zlib).
        use clmul::{K1, K2, K3, K4, K5, MU, P_PRIME};
        assert_eq!(
            [K1, K2, K3, K4, K5, P_PRIME as i64, MU as i64],
            [
                0x1_5444_2bd4,
                0x1_c6e4_1596,
                0x1_7519_97d0,
                0x0_ccaa_009e,
                0x1_63cd_6124,
                0x1_db71_0641,
                0x1_f701_1641
            ]
        );
    }

    #[test]
    fn every_length_to_1024_at_every_offset_to_16() {
        let buf = seeded(1, 1024 + 16);
        for offset in 0..=16 {
            for len in 0..=1024 {
                check(&buf[offset..offset + len]);
            }
        }
    }

    #[test]
    fn block_edges() {
        const KIB: usize = 1024;
        let buf = seeded(2, (1 << 20) + 37 + 3);
        let lens = [15, 16, 17, 63, 64, 65, 127, 128, 129];
        let bulk = [64 * KIB, 256 * KIB].into_iter().flat_map(|len| len - 1..=len + 1);
        for len in lens.into_iter().chain(bulk).chain([(1 << 20) + 37]) {
            for offset in [0, 1, 3] {
                check(&buf[offset..offset + len]);
            }
        }
    }

    /// Flip each of `bits` in turn: every tier's result must move.
    fn each_flip_shows(data: &mut [u8], bits: impl Iterator<Item = usize>) {
        let clean: Vec<_> = tiers(data).collect();
        for bit in bits {
            data[bit / 8] ^= 1 << (bit % 8);
            for ((tier, got), (_, clean)) in tiers(data).zip(&clean) {
                assert_ne!(got, *clean, "{tier} ignores bit {} of byte {}", bit % 8, bit / 8);
            }
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn no_byte_is_skipped() {
        // A dropped block or tail leaves some byte without influence on the
        // result, which short vectors cannot show: one bit in every byte.
        let mut data = seeded(3, 64 * 1024 + 37);
        let bits = (0..data.len()).map(|byte| byte * 8 + byte % 8);
        each_flip_shows(&mut data, bits);
    }

    #[test]
    fn every_single_bit_flip_changes_the_result() {
        // One fold block plus one odd lane, so both tiers take it.
        let mut data = seeded(4, 80);
        each_flip_shows(&mut data, 0..80 * 8);
    }

    proptest::proptest! {
        #[test]
        fn any_offset_length_and_seed(offset in 0usize..64, len in 0usize..(1 << 20) + 1, seed: u64, cut: usize) {
            let buf = seeded(seed, offset + len);
            let data = &buf[offset..];
            check(data);
            // The register handed from one tier to the other mid-buffer.
            let (head, tail) = data.split_at(cut % (len + 1));
            let state = slice16(!0, head);
            let whole = crc32(data);
            proptest::prop_assert_eq!(!slice16(state, tail), whole);
            if let Some(state) = fold(state, tail) {
                proptest::prop_assert_eq!(!state, whole);
            }
        }
    }
}
