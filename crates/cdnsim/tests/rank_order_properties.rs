//! LFU keeps its eviction order in frequency buckets over a slab, and
//! GDSF in a radix queue of slab slots that skips stale entries by their
//! `seq`. These properties replay random traces through them and through
//! reference models that keep the order in a `BTreeSet<(rank, seq, key)>`,
//! removing and re-inserting on every re-rank, and require identical
//! behaviour at every step.

use oat_cdnsim::cache::{CacheKey, GdsfCache, LfuCache};
use oat_cdnsim::CachePolicy;
use oat_httplog::ObjectId;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Reference exact LFU with LRU tie-breaking among equal frequencies.
#[derive(Debug)]
struct BTreeLfu {
    order: BTreeSet<(u64, u64, CacheKey)>,
    entries: HashMap<CacheKey, (u64, u64, u64)>, // (freq, seq, size)
    bytes: u64,
    capacity: u64,
    evictions: u64,
    next_seq: u64,
}

impl BTreeLfu {
    fn new(capacity: u64) -> Self {
        Self {
            order: BTreeSet::new(),
            entries: HashMap::new(),
            bytes: 0,
            capacity,
            evictions: 0,
            next_seq: 0,
        }
    }

    fn bump(&mut self, key: CacheKey) {
        let (freq, seq, _) = self.entries.get_mut(&key).expect("cached key");
        self.order.remove(&(*freq, *seq, key));
        *freq += 1;
        *seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert((*freq, *seq, key));
    }

    fn evict_for(&mut self, size: u64) {
        while self.bytes + size > self.capacity {
            let Some(victim) = self.order.pop_first() else {
                break;
            };
            let (_, _, victim_size) = self.entries.remove(&victim.2).expect("index consistency");
            self.bytes -= victim_size;
            self.evictions += 1;
        }
    }
}

impl CachePolicy for BTreeLfu {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        if self.entries.contains_key(&key) {
            self.bump(key);
            return true;
        }
        self.insert(key, size, now);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size > self.capacity {
            return;
        }
        if self.entries.contains_key(&key) {
            self.bump(key);
            return;
        }
        self.evict_for(size);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert((1, seq, key));
        self.entries.insert(key, (1, seq, size));
        self.bytes += size;
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

/// Reference GreedyDual-Size-Frequency with micro-unit priorities.
#[derive(Debug)]
struct BTreeGdsf {
    order: BTreeSet<(u64, u64, CacheKey)>,
    entries: HashMap<CacheKey, GdsfMeta>,
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

impl BTreeGdsf {
    fn new(capacity: u64) -> Self {
        Self {
            order: BTreeSet::new(),
            entries: HashMap::new(),
            bytes: 0,
            capacity,
            evictions: 0,
            inflation_micro: 0,
            next_seq: 0,
        }
    }

    fn reinsert(&mut self, key: CacheKey, mut meta: GdsfMeta) {
        let value = meta.frequency as f64 / meta.size.max(1) as f64;
        meta.priority_micro = self.inflation_micro + (value * 1e6) as u64;
        meta.seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert((meta.priority_micro, meta.seq, key));
        self.entries.insert(key, meta);
    }

    fn evict_for(&mut self, size: u64) {
        while self.bytes + size > self.capacity {
            let Some(victim) = self.order.pop_first() else {
                break;
            };
            let meta = self.entries.remove(&victim.2).expect("index consistency");
            self.bytes -= meta.size;
            self.evictions += 1;
            self.inflation_micro = victim.0;
        }
    }
}

impl CachePolicy for BTreeGdsf {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        if let Some(mut meta) = self.entries.remove(&key) {
            self.order.remove(&(meta.priority_micro, meta.seq, key));
            meta.frequency += 1;
            self.reinsert(key, meta);
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
        let meta = GdsfMeta {
            priority_micro: 0,
            seq: 0,
            frequency: 1,
            size,
        };
        self.reinsert(key, meta);
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

/// Replays `ops` — `(object, size, op)` where op 0 is a push placement
/// (`insert`) and anything else a `request` — through both caches and
/// requires the same outcome and state after every step.
fn assert_same_steps(
    heap: &mut dyn CachePolicy,
    reference: &mut dyn CachePolicy,
    ops: &[(u64, u64, u8)],
) {
    for (t, &(object, size, op)) in ops.iter().enumerate() {
        let key = CacheKey::whole(ObjectId::new(object));
        let now = t as u64;
        if op == 0 {
            heap.insert(key, size, now);
            reference.insert(key, size, now);
        } else {
            let hit = heap.request(key, size, now);
            assert_eq!(hit, reference.request(key, size, now), "step {t}: hit");
        }
        assert_eq!(
            heap.evictions(),
            reference.evictions(),
            "step {t}: evictions"
        );
        assert_eq!(heap.len(), reference.len(), "step {t}: len");
        assert_eq!(heap.bytes_used(), reference.bytes_used(), "step {t}: bytes");
        assert_eq!(
            heap.contains(&key),
            reference.contains(&key),
            "step {t}: contains"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lfu_heap_order_matches_btree_order(
        ops in prop::collection::vec((0u64..40, 1u64..30, 0u8..8), 1..3_000),
        capacity in 30u64..120,
    ) {
        assert_same_steps(&mut LfuCache::new(capacity), &mut BTreeLfu::new(capacity), &ops);
    }

    #[test]
    fn gdsf_heap_order_matches_btree_order(
        ops in prop::collection::vec((0u64..40, 1u64..30, 0u8..8), 1..3_000),
        capacity in 30u64..120,
    ) {
        assert_same_steps(&mut GdsfCache::new(capacity), &mut BTreeGdsf::new(capacity), &ops);
    }
}
