//! A fast, zero-dependency hasher for the hot interning maps.
//!
//! `std`'s default SipHash is keyed and DoS-resistant, which the node
//! interning map of [`crate::nodes`] does not need: its keys are small
//! fixed tuples of integers derived from octant coordinates, map
//! iteration order is never observed (every ordered output is driven by
//! the element loop or an explicit sort), and the inputs are not
//! attacker-controlled. This is the FxHash mixing
//! function (a rotate + xor + multiply per word), implemented locally
//! because the workspace builds without external crates.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash multiplier (the golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiplicative hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_ne_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn map_roundtrip() {
        let mut m: HashMap<(u32, [i32; 3]), u32, FxBuildHasher> = HashMap::default();
        for i in 0..1000u32 {
            m.insert((i % 7, [i as i32, -(i as i32), 2 * i as i32]), i);
        }
        for i in 0..1000u32 {
            assert_eq!(
                m.get(&(i % 7, [i as i32, -(i as i32), 2 * i as i32])),
                Some(&i)
            );
        }
    }

    #[test]
    fn distinct_small_keys_do_not_collide_trivially() {
        use std::hash::BuildHasher;
        let b = FxBuildHasher::default();
        let h = |k: &(u32, u64)| b.hash_one(k);
        let mut seen = std::collections::HashSet::new();
        for t in 0..32u32 {
            for m in 0..32u64 {
                assert!(seen.insert(h(&(t, m))), "collision at ({t}, {m})");
            }
        }
    }
}
