//! Seeded payloads and the byte checker.
//!
//! Every rank owns one pseudo-random base buffer made from `--seed`; each
//! op *stamps* it — one 8-byte word per 4 KiB, a hash of (seed, rank, op,
//! position) — so every op writes distinct, regenerable bytes without
//! paying a full refill (a 4 MiB refill costs about as much as the epoch
//! it feeds, and the harness shares two cores with the servers it times).

/// One stamped word every this many bytes.
const STAMP_STRIDE: usize = 4096;

/// splitmix64: the seed expander and the stamp hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* — input generation only, never part of the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One rank's payload generator and checker.
#[derive(Debug, Clone)]
pub struct Payload {
    key: u64,
    buf: Vec<u8>,
}

impl Payload {
    /// # Panics
    /// Panics unless `len` is a non-zero multiple of 8.
    pub fn new(seed: u64, rank: usize, len: usize) -> Payload {
        assert!(len >= 8 && len.is_multiple_of(8), "payload length {len} must be a multiple of 8");
        let key = mix(seed ^ ((rank as u64 + 1) << 48));
        let mut rng = Rng::new(key);
        let mut buf = vec![0u8; len];
        for word in buf.chunks_exact_mut(8) {
            word.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        Payload { key, buf }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn word(&self, op: u64, pos: usize) -> [u8; 8] {
        mix(self.key ^ mix(op) ^ (pos as u64).rotate_left(32)).to_le_bytes()
    }

    /// Make [`bytes`](Self::bytes) the bytes op `op` writes.
    pub fn stamp(&mut self, op: u64) {
        for pos in (0..self.buf.len()).step_by(STAMP_STRIDE) {
            let w = self.word(op, pos);
            self.buf[pos..pos + 8].copy_from_slice(&w);
        }
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    #[cfg(test)]
    fn stamped(&mut self, op: u64) -> &[u8] {
        self.stamp(op);
        &self.buf
    }

    /// Cheap check for the timed region: length and every stamped word.
    pub fn matches_sampled(&self, op: u64, got: &[u8]) -> bool {
        got.len() == self.buf.len()
            && (0..got.len())
                .step_by(STAMP_STRIDE)
                .all(|pos| got[pos..pos + 8] == self.word(op, pos))
    }

    /// Every byte of what op `op` wrote, regenerated and compared.
    pub fn matches_full(&self, op: u64, got: &[u8]) -> bool {
        self.matches_sampled(op, got)
            && got
                .chunks(STAMP_STRIDE)
                .zip(self.buf.chunks(STAMP_STRIDE))
                .all(|(g, want)| g[8..] == want[8..])
    }
}

/// Ops attempted and failed; what `failed_frac` is computed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one op; `ok` is false when it errored, timed out, or returned
    /// the wrong bytes.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_ops_differ() {
        let mut a = Payload::new(7, 0, 64 * 1024);
        let mut b = Payload::new(7, 0, 64 * 1024);
        assert_eq!(a.stamped(3), b.stamped(3));
        let three = a.stamped(3).to_vec();
        assert_ne!(three, a.stamped(4));
        assert_ne!(three, Payload::new(8, 0, 64 * 1024).stamped(3));
        assert_ne!(three, Payload::new(7, 1, 64 * 1024).stamped(3));
    }

    #[test]
    fn one_corrupt_byte_raises_failed_frac() {
        let mut p = Payload::new(1, 0, 16 * 1024);
        let good = p.stamped(9).to_vec();
        let mut tally = Tally::default();
        tally.record(p.matches_full(9, &good));
        assert_eq!(tally.failed_frac(), 0.0);

        // Between two stamps: only the full compare sees it.
        let mut bad = good.clone();
        bad[5000] ^= 1;
        assert!(p.matches_sampled(9, &bad));
        tally.record(p.matches_full(9, &bad));
        assert_eq!(tally, Tally { attempted: 2, failed: 1 });
        assert_eq!(tally.failed_frac(), 0.5);

        // Inside a stamp, the wrong op, or a short read: the sampled check too.
        let mut bad = good.clone();
        bad[4096] ^= 1;
        assert!(!p.matches_sampled(9, &bad));
        assert!(!p.matches_sampled(10, &good));
        assert!(!p.matches_sampled(9, &good[..good.len() - 8]));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..32).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
