//! Least-recently-used eviction.

use super::core_lru::LruCore;
use super::{CacheKey, CachePolicy};

/// Classic byte-bounded LRU.
///
/// # Example
///
/// ```
/// use oat_cdnsim::cache::{CacheKey, CachePolicy, LruCache};
/// use oat_httplog::ObjectId;
///
/// let mut cache = LruCache::new(100);
/// let k = CacheKey::whole(ObjectId::new(1));
/// assert!(!cache.request(k, 60, 0)); // cold miss
/// assert!(cache.request(k, 60, 1));  // warm hit
/// ```
#[derive(Debug)]
pub struct LruCache {
    core: LruCore,
    capacity: u64,
    evictions: u64,
}

impl LruCache {
    /// Creates an LRU cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            core: LruCore::new(),
            capacity: capacity_bytes,
            evictions: 0,
        }
    }

    fn evict_for(&mut self, size: u64) {
        while self.core.bytes(0) + size > self.capacity {
            if self.core.pop_lru(0).is_none() {
                break;
            }
            self.evictions += 1;
        }
    }
}

impl CachePolicy for LruCache {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        if self.core.touch(&key) {
            return true;
        }
        self.insert(key, size, now);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size > self.capacity {
            return; // uncacheable
        }
        self.evict_for(size);
        self.core.insert(key, size, 0);
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.core.contains(key)
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn bytes_used(&self) -> u64 {
        self.core.bytes(0)
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
    fn evicts_least_recent_first() {
        let mut cache = LruCache::new(30);
        cache.request(key(1), 10, 0);
        cache.request(key(2), 10, 1);
        cache.request(key(3), 10, 2);
        cache.request(key(1), 10, 3); // 1 is now most recent
        cache.request(key(4), 10, 4); // evicts 2
        assert!(cache.contains(&key(1)));
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(3)));
        assert!(cache.contains(&key(4)));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn large_object_evicts_many() {
        let mut cache = LruCache::new(30);
        for i in 0..3 {
            cache.request(key(i), 10, i);
        }
        cache.request(key(10), 25, 10);
        assert!(cache.contains(&key(10)));
        assert_eq!(cache.bytes_used(), 25);
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn scan_resistance_is_absent() {
        // Characteristic LRU weakness: a scan flushes the working set.
        let mut cache = LruCache::new(50);
        for i in 0..5 {
            cache.request(key(i), 10, i);
        }
        for i in 100..105 {
            cache.request(key(i), 10, i);
        }
        for i in 0..5 {
            assert!(!cache.contains(&key(i)));
        }
    }
}
