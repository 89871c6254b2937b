//! Deterministic hashing containers.
//!
//! `std::collections::HashMap`'s default hasher is randomly seeded per
//! process, which would make iteration order — and therefore any behaviour
//! derived from it — vary between runs and destroy the simulator's
//! seed-determinism guarantee. Simulation state and the analysis folds use
//! FNV-1a-hashed maps instead: arbitrary but *stable* order, and no
//! per-process seed to draw.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit. Small keys (node ids, sequence numbers, addresses)
/// only.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = if self.0 == 0 { OFFSET } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }
}

/// A `HashMap` with deterministic (per-build) iteration order.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// A `HashSet` with deterministic (per-build) iteration order.
pub type DetHashSet<T> = HashSet<T, BuildHasherDefault<Fnv1a>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m = DetHashMap::default();
            for i in 0..1000u64 {
                m.insert(i * 7919, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn hasher_distinguishes_values() {
        let h = |x: u64| {
            let mut hasher = Fnv1a::default();
            hasher.write(&x.to_le_bytes());
            hasher.finish()
        };
        assert_ne!(h(1), h(2));
        assert_ne!(h(0), h(u64::MAX));
    }
}
