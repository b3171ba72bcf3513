//! Segmented LRU.

use super::core_lru::LruCore;
use super::{CacheKey, CachePolicy};

/// Segmented LRU: new admissions enter a *probationary* segment; a hit
/// promotes an entry to the *protected* segment. Protected overflow demotes
/// back to probation, probation overflow leaves the cache.
///
/// Both segments are lists of one `LruCore`, so a request probes one
/// key index and a promotion or demotion only relinks slab slots.
///
/// The protected segment gets 80 % of the byte budget by default, matching
/// common CDN configurations.
#[derive(Debug)]
pub struct SlruCache {
    core: LruCore<2>,
    protected_capacity: u64,
    capacity: u64,
    evictions: u64,
}

/// The segment new admissions and demotions enter.
const PROBATION: usize = 0;
/// The segment a probationary hit is promoted to.
const PROTECTED: usize = 1;

impl SlruCache {
    /// Creates an SLRU cache with an 80 % protected segment.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::with_protected_fraction(capacity_bytes, 0.8)
    }

    /// Creates an SLRU cache with the given protected-segment fraction
    /// (clamped to `[0, 1]`).
    pub fn with_protected_fraction(capacity_bytes: u64, fraction: f64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        Self {
            core: LruCore::new(),
            protected_capacity: (capacity_bytes as f64 * fraction) as u64,
            capacity: capacity_bytes,
            evictions: 0,
        }
    }

    /// Evicts from probation, then protected, until total use fits `size`
    /// more bytes.
    fn evict_for(&mut self, size: u64) {
        while self.core.total_bytes() + size > self.capacity {
            if self.core.pop_lru(PROBATION).is_none() && self.core.pop_lru(PROTECTED).is_none() {
                break;
            }
            self.evictions += 1;
        }
    }

    /// Moves the probationary entry in `slot` to protected, demoting
    /// protected overflow to the most-recent end of probation. Moves keep
    /// the total bytes, so nothing is evicted.
    fn promote(&mut self, slot: u32) {
        self.core.move_to(slot, PROTECTED);
        while self.core.bytes(PROTECTED) > self.protected_capacity {
            let Some(demoted) = self.core.lru_slot(PROTECTED) else {
                break;
            };
            self.core.move_to(demoted, PROBATION);
        }
    }

    /// Admits an uncached `key` to probation.
    fn admit(&mut self, key: CacheKey, size: u64) {
        if size > self.capacity {
            return;
        }
        self.evict_for(size);
        // oat-lint: allow(bounded-memory) -- evict_for above frees capacity first
        self.core.insert(key, size, PROBATION);
    }
}

impl CachePolicy for SlruCache {
    fn request(&mut self, key: CacheKey, size: u64, _now: u64) -> bool {
        match self.core.slot(&key) {
            Some(slot) if self.core.list_of(slot) == PROTECTED => {
                self.core.move_to(slot, PROTECTED);
            }
            Some(slot) => self.promote(slot),
            None => {
                self.admit(key, size);
                return false;
            }
        }
        true
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if !self.core.contains(&key) {
            self.admit(key, size);
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.core.contains(key)
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn bytes_used(&self) -> u64 {
        self.core.total_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::super::policy_tests::key;
    use super::*;

    #[test]
    fn one_hit_wonders_stay_probationary() {
        let mut cache = SlruCache::new(50);
        // Hot entry, promoted by a second hit.
        cache.request(key(1), 10, 0);
        cache.request(key(1), 10, 1);
        // Scan of one-hit wonders.
        for i in 100..110 {
            cache.request(key(i), 10, i);
        }
        assert!(cache.contains(&key(1)), "promoted entry survives the scan");
    }

    #[test]
    fn protected_overflow_demotes() {
        let mut cache = SlruCache::with_protected_fraction(40, 0.5);
        // Promote three 10-byte entries; protected capacity is 20.
        for i in 1..=3 {
            cache.request(key(i), 10, i);
            cache.request(key(i), 10, i + 10);
        }
        // All three are still cached (demotion, not eviction).
        assert_eq!(cache.len(), 3);
        assert!(cache.bytes_used() <= 40);
    }

    #[test]
    fn probation_hit_promotes() {
        let mut cache = SlruCache::new(100);
        cache.request(key(1), 10, 0);
        assert!(cache.request(key(1), 10, 1));
        // Entry is now protected; a long scan cannot displace it.
        for i in 10..19 {
            cache.request(key(i), 10, i);
        }
        assert!(cache.contains(&key(1)));
    }
}
