//! GreedyDual-Size-Frequency eviction (Cherkasova, 1998).
//!
//! The canonical size-aware web-cache policy: an entry's priority is
//! `L + frequency / size`, where `L` is an inflation value raised to the
//! evicted priority on each eviction. Small, frequently-requested objects
//! (thumbnails) are protected against large one-shot objects (video
//! chunks) — exactly the mixed workload adult CDNs serve.

use super::rank_heap::{RankHeap, Ranked};
use super::{CacheKey, CachePolicy};
use oat_httplog::IdBuildHasher;
use std::collections::HashMap;

/// Byte-bounded GDSF cache.
///
/// Priorities are quantized to integer micro-units so they can rank
/// entries in a rank heap (avoids float-ordering pitfalls while keeping
/// 1e-6 resolution).
#[derive(Debug)]
pub struct GdsfCache {
    /// (priority_micro, seq, key) — the lowest live entry is the eviction
    /// victim.
    order: RankHeap,
    entries: HashMap<CacheKey, GdsfMeta, IdBuildHasher>,
    bytes: u64,
    capacity: u64,
    evictions: u64,
    inflation_micro: u64,
    next_seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct GdsfMeta {
    priority_micro: u64,
    seq: u64,
    frequency: u64,
    size: u64,
}

const MICRO: f64 = 1e6;

impl GdsfCache {
    /// Creates a GDSF cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            order: RankHeap::default(),
            entries: HashMap::default(),
            bytes: 0,
            capacity: capacity_bytes,
            evictions: 0,
            inflation_micro: 0,
            next_seq: 0,
        }
    }

    fn priority_micro(&self, frequency: u64, size: u64) -> u64 {
        // L + f/s, in micro-units. Size is at least 1 byte.
        let value = frequency as f64 / size.max(1) as f64;
        self.inflation_micro + (value * MICRO) as u64
    }

    /// Re-ranks `key` (cached or about to be) by its current frequency.
    fn reinsert(&mut self, key: CacheKey, mut meta: GdsfMeta) {
        meta.priority_micro = self.priority_micro(meta.frequency, meta.size);
        meta.seq = self.next_seq;
        self.next_seq += 1;
        // oat-lint: allow(bounded-memory) -- one entry per cached object; evict_for caps bytes
        self.entries.insert(key, meta);
        let (priority_micro, seq) = (meta.priority_micro, meta.seq);
        // oat-lint: allow(bounded-memory) -- RankHeap holds at most 2 × cached objects + 64
        self.order.push(priority_micro, seq, key, &self.entries);
    }

    fn evict_for(&mut self, size: u64) {
        while self.bytes + size > self.capacity {
            let Some((priority_micro, victim)) = self.order.pop_live(&self.entries) else {
                break;
            };
            let meta = self.entries.remove(&victim).expect("index consistency");
            self.bytes -= meta.size;
            self.evictions += 1;
            // GreedyDual inflation: future entries compete against the
            // value of what was just evicted.
            self.inflation_micro = priority_micro;
        }
    }
}

impl Ranked for GdsfMeta {
    fn seq(&self) -> u64 {
        self.seq
    }
}

impl CachePolicy for GdsfCache {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        if let Some(&meta) = self.entries.get(&key) {
            self.reinsert(
                key,
                GdsfMeta {
                    frequency: meta.frequency + 1,
                    ..meta
                },
            );
            return true;
        }
        self.insert(key, size, now);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size > self.capacity || self.entries.contains_key(&key) {
            return;
        }
        self.evict_for(size);
        self.bytes += size;
        self.reinsert(
            key,
            GdsfMeta {
                priority_micro: 0,
                seq: 0,
                frequency: 1,
                size,
            },
        );
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
    fn small_hot_objects_outrank_large_cold() {
        let mut cache = GdsfCache::new(1_000);
        // Hot thumbnail: 10 bytes, requested often.
        for t in 0..10 {
            cache.request(key(1), 10, t);
        }
        // Large one-shot objects churn through.
        for i in 0..20 {
            cache.request(key(100 + i), 900, 100 + i);
        }
        assert!(
            cache.contains(&key(1)),
            "hot small object survives large churn"
        );
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn frequency_raises_priority() {
        let mut cache = GdsfCache::new(30);
        cache.request(key(1), 10, 0);
        cache.request(key(2), 10, 1);
        cache.request(key(2), 10, 2); // f(2) = 2
        cache.request(key(3), 10, 3);
        // Inserting a fourth object evicts the lowest priority: key 1.
        cache.request(key(4), 10, 4);
        assert!(!cache.contains(&key(1)));
        assert!(cache.contains(&key(2)));
    }

    #[test]
    fn inflation_lets_new_entries_compete() {
        let mut cache = GdsfCache::new(20);
        // Build up frequency on one object.
        for t in 0..50 {
            cache.request(key(1), 10, t);
        }
        // Churn: inflation rises with each eviction, so eventually a new
        // object can displace the stale hot one if it stops being touched.
        for i in 0..2_000 {
            cache.request(key(10 + i), 10, 100 + i);
        }
        // The cache still functions and respects capacity.
        assert!(cache.bytes_used() <= 20);
        assert!(cache.evictions() > 1_000);
    }

    #[test]
    fn order_heap_stays_bounded_under_hits() {
        let mut cache = GdsfCache::new(100);
        for t in 0..100_000 {
            cache.request(key(t % 10), 10, t);
            assert!(cache.order.len() <= 2 * cache.len() + 64);
        }
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn conformance_suite() {
        super::super::policy_tests::conformance(Box::new(GdsfCache::new(100)), 100);
    }
}
