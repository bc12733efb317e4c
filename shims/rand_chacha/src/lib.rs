//! Offline stand-in for `rand_chacha` 0.3.
//!
//! Implements the real ChaCha stream cipher (8-round variant) with the
//! same state layout rand_chacha 0.3 uses — 64-bit block counter in
//! words 12/13, 64-bit stream id (zero) in words 14/15 — and the same
//! word-consumption order, so `ChaCha8Rng::seed_from_u64(s)` produces
//! the same `next_u64` stream as the real crate. The workspace's DES
//! model calibration depends on seeded streams staying stable.

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

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

/// ChaCha with 8 rounds, seekable by 64-byte block.
#[derive(Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    index: usize,
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // words 14/15: stream id, fixed at 0 (rand_chacha's default).
        let initial = state;
        for _ in 0..4 {
            // One double round = column round + diagonal round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, init) in state.iter_mut().zip(initial.iter()) {
            *out = out.wrapping_add(*init);
        }
        self.buf = state;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }
}

impl std::fmt::Debug for ChaCha8Rng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha8Rng").finish_non_exhaustive()
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self { key, counter: 0, buf: [0; 16], index: 16 }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        // rand_core's BlockRng consumes two consecutive u32 output words
        // (low then high), including across a block boundary — identical
        // to two sequential next_u32 calls.
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let v = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha8_block_matches_reference() {
        // ChaCha8 keystream for the all-zero key, counter 0, nonce 0.
        // First output words per the ChaCha reference implementation
        // (chacha-merged.c, 8 rounds), widely published as a test vector:
        // 3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e
        let rng = ChaCha8Rng::from_seed([0u8; 32]);
        let mut r = rng;
        let mut out = [0u8; 32];
        r.fill_bytes(&mut out);
        let expected: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn blocks_advance_counter() {
        let mut a = ChaCha8Rng::from_seed([7u8; 32]);
        let first_block: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        assert_ne!(first_block, second_block);
    }

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(43);
        assert_ne!(ChaCha8Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }
}
