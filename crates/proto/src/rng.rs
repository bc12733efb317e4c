//! The workspace's one seeded generator.
//!
//! [`ChaCha8`] is the ChaCha stream cipher with 8 rounds, laid out and
//! consumed as the Rust `rand` family's `ChaCha8Rng` (0.3) is when seeded
//! through rand_core 0.6's `seed_from_u64`: a 64-bit block counter in words
//! 12/13, stream id 0 in words 14/15, output words taken in order. The DES
//! model's jitter, the portals fault plan's drop roll and seeded test data
//! draw from it, and the model's calibrated figures depend on those
//! streams, so a seed must keep its stream: the tests pin one seed's draws
//! through every method.

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// A deterministic ChaCha8 stream; not for secrets.
pub struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    index: usize,
}

impl ChaCha8 {
    /// Expand `state` into a 32-byte key as rand_core 0.6 does: each
    /// 4-byte piece is one PCG32 output over an LCG walk of `state`.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for piece in seed.chunks_exact_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            piece.copy_from_slice(&xorshifted.rotate_right((state >> 59) as u32).to_le_bytes());
        }
        Self::from_seed(seed)
    }

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, piece) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(piece.try_into().expect("4-byte piece"));
        }
        Self { key, counter: 0, block: [0; 16], index: 16 }
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        let initial = state;
        for _ in 0..4 {
            // One double round: the columns, then the diagonals.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, init) in state.iter_mut().zip(initial) {
            *out = out.wrapping_add(init);
        }
        self.block = state;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    /// Two consecutive words, low then high, across a block boundary too.
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        (self.next_u32() as u64) << 32 | lo
    }

    /// Fill `dest` one word at a time, each written little-endian (the
    /// last word's unused bytes are dropped).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for piece in dest.chunks_mut(4) {
            piece.copy_from_slice(&self.next_u32().to_le_bytes()[..piece.len()]);
        }
    }

    /// A value in `[0, n)`: the high word of `next_u64 × n`, one draw and
    /// no rejection (the bias is below n / 2^64). `lo + below(hi - lo)` is
    /// a draw from `[lo, hi)`. Panics if `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0): the range is empty");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// `true` with probability `p`: 64 bits compared against `p × 2^64`
    /// (no draw when `p` is 1). Panics unless `p` is in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} not in [0, 1]");
        if p >= 1.0 {
            return true;
        }
        self.next_u64() < (p * (u64::MAX as f64 + 1.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_zero_key_block_matches_the_chacha8_reference_vector() {
        // ChaCha8 keystream for the all-zero key, counter 0, nonce 0, as
        // published for the reference implementation (chacha-merged.c):
        // 3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e
        let mut out = [0u8; 32];
        ChaCha8::from_seed([0u8; 32]).fill_bytes(&mut out);
        let expected: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        assert_eq!(out, expected);
    }

    /// One seed's draws through every method, pinned: 50 words, so the
    /// sequence crosses three block boundaries (counter 0 → 3) and covers
    /// the seed expansion, the word order and each mapping. A change to any
    /// value here changes every seeded figure the DES model reports.
    #[test]
    fn seed_0x5eed_keeps_its_stream() {
        let mut rng = ChaCha8::seed_from_u64(0x5EED);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [11083470674513879611, 16530882471558382520, 7584900383210474243, 2014131372546606681]
        );
        let below: Vec<u64> = (0..4).map(|_| rng.below(1000)).collect();
        assert_eq!(below, [907, 527, 990, 641]);
        let coins: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.3)).collect();
        assert_eq!(coins, [true, false, false, false, true, false, false, false]);
        let offset: Vec<u64> = (0..4).map(|_| 10 + rng.below(999_990)).collect();
        assert_eq!(offset, [92917, 32655, 535757, 411827]);
        let mut bytes = [0u8; 7];
        rng.fill_bytes(&mut bytes);
        assert_eq!(bytes, [9, 102, 18, 48, 144, 35, 87]);
        let small: Vec<u64> = (0..4).map(|_| rng.below(100)).collect();
        assert_eq!(small, [93, 19, 21, 73]);
    }

    #[test]
    fn below_stays_below_its_bound() {
        let mut rng = ChaCha8::seed_from_u64(1);
        for n in [1, 2, 3, 10, 1000, u64::MAX / 3, u64::MAX] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n, "below({n})");
            }
        }
        assert!(rng.gen_bool(1.0) && !rng.gen_bool(0.0));
        // A full-width span keeps the product's high word, not its low one.
        assert!((0..64).any(|_| rng.below(u64::MAX) > u64::MAX / 2));
    }

    #[test]
    fn distinct_seeds_draw_distinct_streams() {
        let draw = |seed| {
            let mut rng = ChaCha8::seed_from_u64(seed);
            (0..32).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert_ne!(draw(0), draw(1 << 63));
    }
}
