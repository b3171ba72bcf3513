//! Exact least-frequently-used eviction.

use super::{CacheKey, CachePolicy};
use oat_httplog::{IdBuildHasher, ObjectId};
use std::collections::HashMap;

/// Slot or bucket index meaning "none": the end of a list, or an empty
/// list.
const NIL: u32 = u32::MAX;

/// Byte-bounded exact LFU with LRU tie-breaking among equal frequencies.
///
/// Frequency counts persist only while the entry is cached (no ghost
/// history), which is the classic in-cache LFU the caching literature
/// compares against.
///
/// The eviction order is a chain of frequency buckets, lowest first, each
/// listing its entries in the order they reached its frequency (the O(1)
/// LFU of Shah, Mitra & Matani). The victim, the least frequent entry and
/// among those the one that reached its frequency first, is the head of
/// the lowest bucket. A hit moves its entry to the tail of the bucket one
/// frequency up, which it creates if needed, or raises its bucket's
/// frequency in place when the entry is alone there. So a request probes
/// the key index once and moves a few slab links.
#[derive(Debug)]
pub struct LfuCache {
    /// Entry slots; a free slot links to the next free one through `next`.
    nodes: Vec<Node>,
    /// Frequency buckets; a free bucket links to the next free one
    /// through `higher`.
    buckets: Vec<Bucket>,
    index: HashMap<CacheKey, u32, IdBuildHasher>,
    /// The lowest-frequency bucket (`NIL` when the cache is empty).
    lowest: u32,
    free_node: u32,
    free_bucket: u32,
    bytes: u64,
    capacity: u64,
    evictions: u64,
}

/// One cached entry, its key stored unpacked so the node is 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    object: ObjectId,
    chunk: u32,
    bucket: u32,
    size: u64,
    /// Towards the bucket's head (reached its frequency earlier).
    prev: u32,
    /// Towards the bucket's tail (reached its frequency later).
    next: u32,
}

/// The entries at one frequency. Live buckets are never empty.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    freq: u64,
    head: u32,
    tail: u32,
    /// The next lower-frequency bucket.
    lower: u32,
    /// The next higher-frequency bucket.
    higher: u32,
}

impl LfuCache {
    /// Creates an LFU cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            nodes: Vec::new(),
            buckets: Vec::new(),
            index: HashMap::default(),
            lowest: NIL,
            free_node: NIL,
            free_bucket: NIL,
            bytes: 0,
            capacity: capacity_bytes,
            evictions: 0,
        }
    }

    /// Raises the frequency of the entry in `slot` by one.
    fn bump(&mut self, slot: u32) {
        let from = self.nodes[slot as usize].bucket;
        let Bucket {
            freq,
            head,
            tail,
            higher,
            ..
        } = self.buckets[from as usize];
        let next_up = higher != NIL && self.buckets[higher as usize].freq == freq + 1;
        if head == slot && tail == slot && !next_up {
            self.buckets[from as usize].freq += 1;
            return;
        }
        self.detach(slot);
        let to = if next_up {
            higher
        } else {
            // `from` keeps an entry, so buckets stay at most entries.
            self.new_bucket(freq + 1, from, higher)
        };
        self.push_back(slot, to);
        if self.buckets[from as usize].head == NIL {
            self.drop_bucket(from);
        }
    }

    /// Admits an uncached `key` at frequency 1.
    fn admit(&mut self, key: CacheKey, size: u64) {
        if size > self.capacity {
            return;
        }
        self.evict_for(size);
        let lowest = self.lowest;
        let bucket = if lowest != NIL && self.buckets[lowest as usize].freq == 1 {
            lowest
        } else {
            self.new_bucket(1, NIL, lowest)
        };
        let node = Node {
            object: key.object,
            chunk: key.chunk,
            bucket,
            size,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free_node == NIL {
            let slot = self.nodes.len();
            assert!(slot < NIL as usize, "LfuCache indexes slots with u32");
            // oat-lint: allow(bounded-memory) -- slots <= peak cached entries: freed slots are reused first
            self.nodes.push(node);
            slot as u32
        } else {
            let slot = self.free_node;
            self.free_node = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        };
        self.push_back(slot, bucket);
        // oat-lint: allow(bounded-memory) -- one entry per cached object; evict_for caps bytes
        self.index.insert(key, slot);
        self.bytes += size;
    }

    fn evict_for(&mut self, size: u64) {
        while self.bytes + size > self.capacity && self.lowest != NIL {
            let bucket = self.lowest;
            let victim = self.buckets[bucket as usize].head;
            self.detach(victim);
            if self.buckets[bucket as usize].head == NIL {
                self.drop_bucket(bucket);
            }
            let node = &mut self.nodes[victim as usize];
            self.index.remove(&CacheKey::chunk(node.object, node.chunk));
            self.bytes -= node.size;
            node.next = self.free_node;
            self.free_node = victim;
            self.evictions += 1;
        }
    }

    /// Appends a detached `slot` at the tail of `bucket`.
    fn push_back(&mut self, slot: u32, bucket: u32) {
        let tail = self.buckets[bucket as usize].tail;
        let node = &mut self.nodes[slot as usize];
        node.bucket = bucket;
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.buckets[bucket as usize].head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.buckets[bucket as usize].tail = slot;
    }

    /// Detaches `slot` from its bucket's list (its links go stale).
    fn detach(&mut self, slot: u32) {
        let Node {
            bucket, prev, next, ..
        } = self.nodes[slot as usize];
        match prev {
            NIL => self.buckets[bucket as usize].head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.buckets[bucket as usize].tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Chains an empty bucket at `freq` in between `lower` and `higher`.
    fn new_bucket(&mut self, freq: u64, lower: u32, higher: u32) -> u32 {
        let bucket = Bucket {
            freq,
            head: NIL,
            tail: NIL,
            lower,
            higher,
        };
        let id = if self.free_bucket == NIL {
            let id = self.buckets.len() as u32;
            // oat-lint: allow(bounded-memory) -- live buckets are non-empty, so at most the peak cached entries; freed buckets are reused first
            self.buckets.push(bucket);
            id
        } else {
            let id = self.free_bucket;
            self.free_bucket = self.buckets[id as usize].higher;
            self.buckets[id as usize] = bucket;
            id
        };
        match lower {
            NIL => self.lowest = id,
            l => self.buckets[l as usize].higher = id,
        }
        if higher != NIL {
            self.buckets[higher as usize].lower = id;
        }
        id
    }

    /// Unchains an emptied `bucket` onto the free list.
    fn drop_bucket(&mut self, bucket: u32) {
        let Bucket { lower, higher, .. } = self.buckets[bucket as usize];
        match lower {
            NIL => self.lowest = higher,
            l => self.buckets[l as usize].higher = higher,
        }
        if higher != NIL {
            self.buckets[higher as usize].lower = lower;
        }
        self.buckets[bucket as usize].higher = self.free_bucket;
        self.free_bucket = bucket;
    }
}

impl CachePolicy for LfuCache {
    fn request(&mut self, key: CacheKey, size: u64, _now: u64) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.bump(slot);
            return true;
        }
        self.admit(key, size);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size > self.capacity {
            return;
        }
        match self.index.get(&key) {
            Some(&slot) => self.bump(slot),
            None => self.admit(key, size),
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
    fn frequent_entries_survive_scans() {
        let mut cache = LfuCache::new(30);
        // Make key 1 hot.
        for t in 0..5 {
            cache.request(key(1), 10, t);
        }
        // Scan through many one-hit wonders.
        for i in 100..120 {
            cache.request(key(i), 10, i);
        }
        assert!(cache.contains(&key(1)), "hot object survives LFU scans");
    }

    #[test]
    fn ties_broken_by_recency() {
        let mut cache = LfuCache::new(30);
        cache.request(key(1), 10, 0);
        cache.request(key(2), 10, 1);
        cache.request(key(3), 10, 2);
        // All frequency 1; oldest (1) is the victim.
        cache.request(key(4), 10, 3);
        assert!(!cache.contains(&key(1)));
        assert!(cache.contains(&key(2)));
    }

    #[test]
    fn hit_increments_frequency() {
        let mut cache = LfuCache::new(20);
        cache.request(key(1), 10, 0);
        cache.request(key(2), 10, 1);
        cache.request(key(2), 10, 2); // freq(2)=2
        cache.request(key(3), 10, 3); // evicts 1 (freq 1)
        assert!(!cache.contains(&key(1)));
        assert!(cache.contains(&key(2)));
        assert!(cache.contains(&key(3)));
    }

    #[test]
    fn slots_and_buckets_stay_within_peak_entries() {
        // Steady hits on a resident set, then a churn of frequencies.
        let mut cache = LfuCache::new(100);
        for t in 0..100_000 {
            cache.request(key(t % 10), 10, t);
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.nodes.len(), 10);
        assert!(cache.buckets.len() <= 10);
        let mut rng = oat_stats::rng::Rng::seed_from_u64(7);
        let mut peak = cache.len();
        for t in 0..50_000 {
            let size = rng.gen_range(1..40u64);
            if rng.gen_range(0..8) == 0 {
                cache.insert(key(rng.gen_range(0..60u64)), size, t);
            } else {
                cache.request(key(rng.gen_range(0..60u64)), size, t);
            }
            peak = peak.max(cache.len());
            assert!(cache.nodes.len() <= peak, "step {t}: slots");
            assert!(cache.buckets.len() <= peak, "step {t}: buckets");
        }
    }
}
