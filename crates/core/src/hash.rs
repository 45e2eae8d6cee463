//! One cheap hash for the hot hash tables: the store's hash-consing
//! index and overlay maps, and the symbol table's per-thread cache.
//!
//! Keys there are a few machine words (a node is a tag plus one or two
//! ids, a name is a short identifier), so SipHash's per-key setup
//! dominates their cost. This is a multiply-rotate hash in the style of
//! rustc's FxHash: each word is folded in with one xor, one rotate and
//! one multiply, and `finish` rotates the well-mixed high bits down so
//! that the low bits (bucket indices, 32-bit tags) depend on all input.
//! The initial state is a per-process seed drawn from
//! [`RandomState`], so clients cannot predict tags or buckets.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Builds [`FastHasher`]s from the process seed.
#[derive(Clone, Copy)]
pub(crate) struct SeededState(u64);

impl Default for SeededState {
    fn default() -> SeededState {
        static SEED: OnceLock<u64> = OnceLock::new();
        SeededState(*SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64)))
    }
}

impl BuildHasher for SeededState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.0)
    }
}

pub(crate) struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_keys_hash_equal_and_small_keys_spread() {
        let s = SeededState::default();
        assert_eq!(
            s.hash_one("Repeat"),
            SeededState::default().hash_one("Repeat")
        );
        // Low 10 bits (a first index level's bucket) of 1,024 consecutive
        // small keys: a weak finish would pile them into few buckets.
        let buckets: HashSet<u64> = (0..1024u32).map(|i| s.hash_one(i) & 1023).collect();
        assert!(buckets.len() > 500, "{} buckets", buckets.len());
    }
}
