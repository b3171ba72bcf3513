//! GreedyDual-Size-Frequency eviction (Cherkasova, 1998).
//!
//! The canonical size-aware web-cache policy: an entry's priority is
//! `L + frequency / size`, where `L` is an inflation value raised to the
//! evicted priority on each eviction. Small, frequently-requested objects
//! (thumbnails) are protected against large one-shot objects (video
//! chunks) — exactly the mixed workload adult CDNs serve.

use super::{CacheKey, CachePolicy};
use oat_httplog::IdBuildHasher;
use std::collections::HashMap;

/// Queue entries allowed per cached entry beyond a fixed slack before the
/// queue is rebuilt from its live entries.
const STALE_FACTOR: usize = 2;
const STALE_SLACK: usize = 64;

/// The `seq` of a free slot, which no ranking ever issues.
const FREE: u64 = u64::MAX;

/// Byte-bounded GDSF cache.
///
/// Priorities are quantized to integer micro-units so they can rank
/// entries as integers (avoids float-ordering pitfalls while keeping 1e-6
/// resolution).
///
/// Entries live in a slab under one key → slot index. Every (re)ranking
/// gives the entry a fresh, unique `seq` and queues `(priority, seq,
/// slot)`, leaving its old queue entry in place. A queue entry is live
/// while its slot still records its `seq`, so eviction skips stale entries
/// without probing the index, and live entries leave in exactly the
/// `(priority, seq)` order of an ordered set re-ranked on every hit.
#[derive(Debug)]
pub struct GdsfCache {
    /// `(priority_micro, seq, slot)`: the lowest live entry is the
    /// eviction victim. Holds at most `2 × cached entries + 64`.
    order: RadixQueue,
    /// Entry slots; freed slots have `seq == FREE` and are reused first.
    nodes: Vec<GdsfNode>,
    free: Vec<u32>,
    index: HashMap<CacheKey, u32, IdBuildHasher>,
    bytes: u64,
    capacity: u64,
    evictions: u64,
    inflation_micro: u64,
    next_seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct GdsfNode {
    key: CacheKey,
    size: u64,
    frequency: u64,
    /// The `seq` of this entry's live queue entry.
    seq: u64,
}

const MICRO: f64 = 1e6;

impl GdsfCache {
    /// Creates a GDSF cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            order: RadixQueue::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            bytes: 0,
            capacity: capacity_bytes,
            evictions: 0,
            inflation_micro: 0,
            next_seq: 0,
        }
    }

    /// Re-ranks the cached entry in `slot` by its current frequency.
    fn rank(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        // L + f/s, in micro-units. Size is at least 1 byte.
        let value = node.frequency as f64 / node.size.max(1) as f64;
        let priority_micro = self.inflation_micro + (value * MICRO) as u64;
        node.seq = self.next_seq;
        self.next_seq += 1;
        // oat-lint: allow(bounded-memory) -- at most 2 × cached entries + 64: the rebuild below enforces it
        self.order.push((priority_micro, node.seq, slot));
        if self.order.len > STALE_FACTOR * self.index.len() + STALE_SLACK {
            let nodes = &self.nodes;
            self.order
                .retain(|&(_, seq, slot)| nodes[slot as usize].seq == seq);
        }
    }

    /// Admits an uncached `key` at frequency 1.
    fn admit(&mut self, key: CacheKey, size: u64) {
        if size > self.capacity {
            return;
        }
        self.evict_for(size);
        self.bytes += size;
        let node = GdsfNode {
            key,
            size,
            frequency: 1,
            seq: FREE,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let slot = self.nodes.len();
                assert!(slot < u32::MAX as usize, "GdsfCache indexes slots with u32");
                // oat-lint: allow(bounded-memory) -- slots <= peak cached entries: freed slots are reused first
                self.nodes.push(node);
                slot as u32
            }
        };
        // oat-lint: allow(bounded-memory) -- one entry per cached object; evict_for caps bytes
        self.index.insert(key, slot);
        self.rank(slot);
    }

    fn evict_for(&mut self, size: u64) {
        while self.bytes + size > self.capacity {
            let Some((priority_micro, seq, slot)) = self.order.pop_min() else {
                break;
            };
            let node = &mut self.nodes[slot as usize];
            if node.seq != seq {
                continue; // stale: re-ranked or evicted since
            }
            node.seq = FREE;
            self.index.remove(&node.key);
            self.bytes -= node.size;
            // oat-lint: allow(bounded-memory) -- holds freed slots only, fewer than the slab's
            self.free.push(slot);
            self.evictions += 1;
            // GreedyDual inflation: future entries compete against the
            // value of what was just evicted.
            self.inflation_micro = priority_micro;
        }
    }
}

/// One queued ranking: `(priority_micro, seq, slot)`.
type Ranking = (u64, u64, u32);

/// A monotone radix queue of [`Ranking`]s, ordered by `(priority, seq)`.
///
/// It requires every push to rank above the last entry popped. GDSF
/// meets that: a pushed priority is at least `L`, `L` is the priority of
/// the last live entry evicted, which is popped last (an eviction pops
/// until it meets a live entry), and a pushed `seq` exceeds every earlier
/// one. Bucket `b > 0` holds the entries whose `(priority, seq)` first
/// differs from the last popped one at bit `b - 1` of the 128-bit pair,
/// bucket 0 the entry equal to it. A push appends to its bucket; a pop
/// from an empty bucket 0 takes the lowest non-empty bucket, makes its
/// minimum the new reference and spreads the bucket into lower ones, so
/// an entry moves at most 128 times and usually a few.
#[derive(Debug)]
struct RadixQueue {
    /// The `(priority, seq)` popped last.
    last: (u64, u64),
    buckets: [Vec<Ranking>; 129],
    /// Entries held, stale ones included.
    len: usize,
}

impl RadixQueue {
    fn new() -> Self {
        Self {
            last: (0, 0),
            buckets: std::array::from_fn(|_| Vec::new()),
            len: 0,
        }
    }

    /// The bucket of `(priority, seq)` relative to `last`.
    fn bucket(last: (u64, u64), (priority, seq, _): Ranking) -> usize {
        if priority != last.0 {
            128 - (priority ^ last.0).leading_zeros() as usize
        } else {
            64 - (seq ^ last.1).leading_zeros() as usize
        }
    }

    fn push(&mut self, ranking: Ranking) {
        // oat-lint: allow(bounded-memory) -- GdsfCache caps len at 2 × cached entries + 64
        self.buckets[Self::bucket(self.last, ranking)].push(ranking);
        self.len += 1;
    }

    /// Removes and returns the lowest `(priority, seq)` entry.
    fn pop_min(&mut self) -> Option<Ranking> {
        let [nearest, farther @ ..] = &self.buckets;
        if nearest.is_empty() {
            let i = 1 + farther.iter().position(|b| !b.is_empty())?;
            let mut spread = std::mem::take(&mut self.buckets[i]);
            let &(priority, seq, _) = spread.iter().min()?;
            self.last = (priority, seq);
            for ranking in spread.drain(..) {
                // oat-lint: allow(bounded-memory) -- moves entries between buckets; len is unchanged
                self.buckets[Self::bucket(self.last, ranking)].push(ranking);
            }
            // Keep the emptied bucket's buffer for later pushes.
            self.buckets[i] = spread;
        }
        let [nearest, ..] = &mut self.buckets;
        let ranking = nearest.pop()?;
        self.len -= 1;
        Some(ranking)
    }

    /// Keeps only the entries `keep` accepts.
    fn retain(&mut self, mut keep: impl FnMut(&Ranking) -> bool) {
        for bucket in &mut self.buckets {
            bucket.retain(&mut keep);
        }
        self.len = self.buckets.iter().map(Vec::len).sum();
    }
}

impl CachePolicy for GdsfCache {
    fn request(&mut self, key: CacheKey, size: u64, _now: u64) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.nodes[slot as usize].frequency += 1;
            self.rank(slot);
            return true;
        }
        self.admit(key, size);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if !self.index.contains_key(&key) {
            self.admit(key, size);
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.index.contains_key(key)
    }

    fn len(&self) -> usize {
        self.index.len()
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
    fn queue_and_slots_stay_bounded() {
        let mut cache = GdsfCache::new(100);
        for t in 0..100_000 {
            cache.request(key(t % 10), 10, t);
            assert!(cache.order.len <= 2 * cache.len() + 64);
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.nodes.len(), 10);
        let mut rng = oat_stats::rng::Rng::seed_from_u64(7);
        let mut peak = cache.len();
        for t in 0..50_000 {
            let size = rng.gen_range(1..40u64);
            cache.request(key(rng.gen_range(0..60u64)), size, t);
            peak = peak.max(cache.len());
            assert!(cache.order.len <= 2 * cache.len() + 64, "step {t}: queue");
            assert!(cache.nodes.len() <= peak, "step {t}: slots");
            assert_eq!(cache.nodes.len(), cache.len() + cache.free.len());
        }
    }

    #[test]
    fn radix_queue_pops_in_order() {
        let mut rng = oat_stats::rng::Rng::seed_from_u64(3);
        let mut queue = RadixQueue::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut seq = 0;
        for _ in 0..20_000 {
            if rng.gen_range(0..3) == 0 {
                let popped = queue.pop_min();
                assert_eq!(popped, reference.pop_first());
            } else {
                // Monotone: never below the last popped priority.
                let bits = rng.gen_range(0..40u64);
                let priority = queue.last.0 + rng.gen_range(0..1u64 << bits);
                queue.push((priority, seq, 0));
                reference.insert((priority, seq, 0));
                seq += 1;
            }
            assert_eq!(queue.len, reference.len());
        }
        // The highest bucket: a priority that differs in the top bit.
        for priority in [u64::MAX, 1 << 63] {
            queue.push((priority, seq, 0));
            reference.insert((priority, seq, 0));
            seq += 1;
        }
        while let Some(expected) = reference.pop_first() {
            assert_eq!(queue.pop_min(), Some(expected));
        }
        assert_eq!((queue.pop_min(), queue.len), (None, 0));
    }

    #[test]
    fn conformance_suite() {
        super::super::policy_tests::conformance(Box::new(GdsfCache::new(100)), 100);
    }
}
