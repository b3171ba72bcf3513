//! First-in-first-out eviction.

use super::{CacheKey, CachePolicy};
use oat_httplog::IdBuildHasher;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Byte-bounded FIFO: eviction order is admission order; hits do not
/// refresh anything.
#[derive(Debug)]
pub struct FifoCache {
    queue: VecDeque<CacheKey>,
    entries: HashMap<CacheKey, u64, IdBuildHasher>,
    bytes: u64,
    capacity: u64,
    evictions: u64,
}

impl FifoCache {
    /// Creates a FIFO cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            queue: VecDeque::new(),
            entries: HashMap::default(),
            bytes: 0,
            capacity: capacity_bytes,
            evictions: 0,
        }
    }

    /// Admits `key` at the back of the queue unless it is cached or
    /// larger than the capacity, then evicts the oldest admissions until
    /// the bytes fit. The new key is last in line, so it is never its own
    /// victim, and one `entry` probe answers both the lookup and the
    /// admission. Returns whether `key` was cached.
    fn admit(&mut self, key: CacheKey, size: u64) -> bool {
        let Entry::Vacant(slot) = self.entries.entry(key) else {
            return true;
        };
        if size <= self.capacity {
            slot.insert(size);
            self.queue.push_back(key);
            self.bytes += size;
            while self.bytes > self.capacity {
                let Some(victim) = self.queue.pop_front() else {
                    break;
                };
                if let Some(s) = self.entries.remove(&victim) {
                    self.bytes -= s;
                    self.evictions += 1;
                }
            }
        }
        false
    }
}

impl CachePolicy for FifoCache {
    fn request(&mut self, key: CacheKey, size: u64, _now: u64) -> bool {
        self.admit(key, size)
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        self.admit(key, size);
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn bytes_used(&self) -> u64 {
        self.bytes
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
    fn evicts_in_admission_order_despite_hits() {
        let mut cache = FifoCache::new(30);
        cache.request(key(1), 10, 0);
        cache.request(key(2), 10, 1);
        cache.request(key(3), 10, 2);
        // Hitting 1 does NOT protect it under FIFO.
        assert!(cache.request(key(1), 10, 3));
        cache.request(key(4), 10, 4);
        assert!(!cache.contains(&key(1)), "FIFO evicts oldest admission");
        assert!(cache.contains(&key(2)));
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut cache = FifoCache::new(30);
        cache.insert(key(1), 10, 0);
        cache.insert(key(1), 10, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes_used(), 10);
    }
}
