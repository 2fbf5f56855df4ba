//! [`IntHasher`], the workspace's one hasher for keys that already are
//! integers: the expression arena's addresses and semantic hashes here, and
//! the engine's join and group keys and row hashes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher (the FxHash recipe) for integer keys.
///
/// `std`'s default SipHash is keyed per process to resist collision
/// flooding by whoever chooses the keys of a long-lived map. These maps are
/// not that: their keys are addresses, hashes the program computed itself,
/// dictionary codes and integer columns of loaded tables, and a collision
/// costs probe time, never a wrong result (equality is still checked on the
/// full key). At a few nanoseconds per key SipHash was most of a
/// group-by's or a probe's cost, and it showed under the arena's interning
/// in a profile of a design pass, so these paths trade the flooding
/// resistance for one multiply per word. Maps keyed by anything else
/// (strings) keep the default hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    /// 2^64 / φ, odd: multiplying by it spreads every input bit upwards
    /// (the hasher's mix, and the engine's Fibonacci hash for radix
    /// partitions).
    pub const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A hasher whose state starts at `seed` instead of zero — how a caller
    /// keeps values of different kinds with the same bits apart.
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        Self(seed)
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MUL);
    }
}

// Every method is `#[inline]`: the engine's per-row hash loops call them
// from another crate, where an out-of-line call would cost more than the
// mix itself.
impl Hasher for IntHasher {
    /// `[i64; N]` hashes as one byte slice; consume it a word at a time.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    /// The multiply leaves the entropy in the high bits; the table picks
    /// buckets from the low ones, so rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The `BuildHasher` of every integer-keyed map.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A hash map under [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(key: impl Hash) -> u64 {
        let mut h = IntHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integer_writes_mix_one_word() {
        let mut bytes = IntHasher::default();
        bytes.write(&42u64.to_le_bytes());
        assert_eq!(hash_of(42u64), bytes.finish());
        assert_eq!(hash_of(42u64), hash_of(42i64));
        assert_eq!(hash_of(42u64), hash_of(42usize));
        assert_ne!(hash_of(42u64), hash_of(43u64));
    }

    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        // Keys that differ only above bit 4, as heap addresses do, must
        // still land in distinct low-bit buckets.
        let mut buckets: Vec<u64> = (0..64u64).map(|i| hash_of(i << 4) & 63).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 32, "{} of 64 buckets", buckets.len());
    }
}
