//! A small, fast, non-cryptographic hasher for the crate's hash maps
//! (interned varsets, model-count memos). The unique and computed tables
//! hash their key words with the same mixer ([`mix`]).
//!
//! The standard library's default SipHash is a poor fit for the millions of
//! tiny integer keys a BDD package hashes; this is the classic
//! Fibonacci-multiplication scheme (the same family `rustc`'s FxHash uses),
//! re-implemented here to keep the crate dependency-free.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher specialised for short integer keys.
#[derive(Default)]
pub struct FibHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One mixing step: folds `word` into `state`.
#[inline(always)]
fn step(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// [`FibHasher`]'s mixer folded over `words` from a zero state, without
/// its final avalanche: the unique table keeps the high bits of this over
/// a node's `(var, lo, hi)`, the computed table avalanches it over a key.
#[inline(always)]
pub(crate) fn mix<const N: usize>(words: [u64; N]) -> u64 {
    words.into_iter().fold(0, step)
}

impl Hasher for FibHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so that the high bits (used by hashbrown) mix.
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = step(self.state, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }
}

/// `BuildHasher` plugging [`FibHasher`] into `HashMap`.
pub type BuildFibHasher = BuildHasherDefault<FibHasher>;

/// `HashMap` alias used throughout the crate, and by `qsyn-audit` for its
/// node-triple map (under SipHash that map was the largest single cost of
/// a debug-build manager audit).
pub type FibHashMap<K, V> = std::collections::HashMap<K, V, BuildFibHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently_in_practice() {
        use std::hash::BuildHasher;
        let build = BuildFibHasher::default();
        let mut seen = std::collections::HashSet::new();
        for a in 0u32..64 {
            for b in 0u32..64 {
                seen.insert(build.hash_one((a, b)));
            }
        }
        // A perfect hash is not required, but collisions on this tiny grid
        // would indicate a broken mixer.
        assert_eq!(seen.len(), 64 * 64);
    }

    #[test]
    fn hash_is_deterministic() {
        use std::hash::BuildHasher;
        let build = BuildFibHasher::default();

        assert_eq!(
            build.hash_one((1u32, 2u32, 3u32)),
            build.hash_one((1u32, 2u32, 3u32))
        );
    }
}
