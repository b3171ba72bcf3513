//! 2Q eviction (Johnson & Shasha, VLDB 1994).

use super::core_lru::LruCore;
use super::{CacheKey, CachePolicy};

/// Ghost-list length: how many keys evicted from `A1in` are remembered.
const A1OUT_ENTRIES: usize = 512;

/// 2Q: recent admissions sit in a FIFO `A1in` queue; entries re-referenced
/// after falling out of `A1in` (tracked by the ghost `A1out` list) are
/// promoted into the main LRU (`Am`). One-hit wonders therefore never
/// pollute the main queue.
///
/// `A1in` and `Am` are lists of one `LruCore`, so a request probes one
/// key index for them. The ghost keys keep their own small index: a push
/// placement ([`CachePolicy::insert`]) may admit a key to `A1in` while it
/// is still a ghost.
#[derive(Debug)]
pub struct TwoQCache {
    /// `A1in` is used FIFO-style (never touched on hit); `Am` is an LRU.
    core: LruCore<2>,
    /// Ghost keys (no bytes), used FIFO-style: a key joins at the head
    /// only if absent, the oldest leaves past `A1OUT_ENTRIES`, and a
    /// promotion removes its key in O(1).
    a1out: LruCore,
    a1in_capacity: u64,
    capacity: u64,
    evictions: u64,
}

/// The admission queue.
const A1IN: usize = 0;
/// The main LRU queue.
const AM: usize = 1;

impl TwoQCache {
    /// Creates a 2Q cache with `A1in` = 25 % of bytes and a ghost list of
    /// 512 entries.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            core: LruCore::new(),
            a1out: LruCore::new(),
            a1in_capacity: capacity_bytes / 4,
            capacity: capacity_bytes,
            evictions: 0,
        }
    }

    fn ghost_push(&mut self, key: CacheKey) {
        if self.a1out.contains(&key) {
            return;
        }
        // oat-lint: allow(bounded-memory) -- A1out trimmed to A1OUT_ENTRIES below
        self.a1out.insert(key, 0, 0);
        while self.a1out.len() > A1OUT_ENTRIES {
            self.a1out.pop_lru(0);
        }
    }

    /// Evicts an `A1in` entry to the ghost list, if there is one.
    fn evict_a1in(&mut self) -> bool {
        let Some((victim, _)) = self.core.pop_lru(A1IN) else {
            return false;
        };
        self.ghost_push(victim);
        true
    }

    fn make_room(&mut self, size: u64) {
        while self.core.total_bytes() + size > self.capacity {
            // Prefer reclaiming A1in (its tail is the oldest admission);
            // track it in the ghost list.
            let a1in_first = self.core.bytes(A1IN) > self.a1in_capacity || self.core.bytes(AM) == 0;
            if !(a1in_first && self.evict_a1in())
                && self.core.pop_lru(AM).is_none()
                && !self.evict_a1in()
            {
                break;
            }
            self.evictions += 1;
        }
    }

    /// Admits an uncached `key` to `list` after making room for it.
    fn admit(&mut self, key: CacheKey, size: u64, list: usize) {
        self.make_room(size);
        // oat-lint: allow(bounded-memory) -- make_room above frees capacity first
        self.core.insert(key, size, list);
    }
}

impl CachePolicy for TwoQCache {
    fn request(&mut self, key: CacheKey, size: u64, _now: u64) -> bool {
        if let Some(slot) = self.core.slot(&key) {
            // 2Q leaves A1in order untouched on hit.
            if self.core.list_of(slot) == AM {
                self.core.move_to(slot, AM);
            }
            return true;
        }
        if size <= self.capacity {
            // A re-reference after A1in promotes straight to Am; ghost
            // entries hold no bytes, so it is still a miss.
            let list = if self.a1out.remove(&key).is_some() {
                AM
            } else {
                A1IN
            };
            self.admit(key, size, list);
        }
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size <= self.capacity && !self.core.contains(&key) {
            self.admit(key, size, A1IN);
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
    use oat_stats::rng::Rng;
    use std::collections::VecDeque;

    #[test]
    fn ghost_promotion_to_main() {
        let mut cache = TwoQCache::new(40);
        // Fill and overflow A1in so key 1 lands in the ghost list.
        cache.request(key(1), 10, 0);
        for i in 2..=8 {
            cache.request(key(i), 10, i);
        }
        assert!(!cache.contains(&key(1)), "key 1 evicted to ghost");
        // Re-reference: miss, but promoted to Am.
        assert!(!cache.request(key(1), 10, 20));
        assert!(cache.contains(&key(1)));
        // Now a scan through A1in does not displace it.
        for i in 100..108 {
            cache.request(key(i), 10, i);
        }
        assert!(cache.contains(&key(1)), "Am entry survives A1in scans");
    }

    #[test]
    fn one_hit_wonders_cycle_through_a1in() {
        let mut cache = TwoQCache::new(40);
        for i in 0..100 {
            cache.request(key(i), 10, i);
        }
        // Main queue should be (near) empty: nothing was ever re-referenced.
        assert!(cache.bytes_used() <= 40);
        assert!(cache.evictions() > 50);
    }

    impl TwoQCache {
        fn list_of(&self, key: &CacheKey) -> Option<usize> {
            self.core.slot(key).map(|slot| self.core.list_of(slot))
        }
    }

    /// The 2Q this cache replaced, kept as a reference: the same queues,
    /// with the ghost list as a `VecDeque` (oldest first) that a
    /// promotion scans to remove its key.
    struct Model {
        a1in: LruCore,
        am: LruCore,
        a1out: VecDeque<CacheKey>,
        a1in_capacity: u64,
        capacity: u64,
        evictions: u64,
    }

    impl Model {
        fn new(capacity: u64) -> Self {
            Self {
                a1in: LruCore::new(),
                am: LruCore::new(),
                a1out: VecDeque::new(),
                a1in_capacity: capacity / 4,
                capacity,
                evictions: 0,
            }
        }

        fn ghost_push(&mut self, key: CacheKey) {
            if !self.a1out.contains(&key) {
                self.a1out.push_back(key);
                while self.a1out.len() > A1OUT_ENTRIES {
                    self.a1out.pop_front();
                }
            }
        }

        fn make_room(&mut self, size: u64) {
            while self.a1in.bytes(0) + self.am.bytes(0) + size > self.capacity {
                if self.a1in.bytes(0) > self.a1in_capacity || self.am.bytes(0) == 0 {
                    if let Some((victim, _)) = self.a1in.pop_lru(0) {
                        self.ghost_push(victim);
                        self.evictions += 1;
                        continue;
                    }
                }
                if self.am.pop_lru(0).is_some() {
                    self.evictions += 1;
                    continue;
                }
                if let Some((victim, _)) = self.a1in.pop_lru(0) {
                    self.ghost_push(victim);
                    self.evictions += 1;
                    continue;
                }
                break;
            }
        }

        fn request(&mut self, key: CacheKey, size: u64) -> bool {
            if self.am.touch(&key) || self.a1in.contains(&key) {
                return true;
            }
            if self.a1out.contains(&key) {
                if size <= self.capacity {
                    self.a1out.retain(|k| k != &key);
                    self.make_room(size);
                    self.am.insert(key, size, 0);
                }
                return false;
            }
            self.insert(key, size);
            false
        }

        fn insert(&mut self, key: CacheKey, size: u64) {
            if size <= self.capacity && !self.a1in.contains(&key) && !self.am.contains(&key) {
                self.make_room(size);
                self.a1in.insert(key, size, 0);
            }
        }
    }

    #[test]
    fn matches_vecdeque_ghost_model() {
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(seed);
            // A few entries' worth of bytes, so nearly every admission
            // evicts and most keys pass through the ghost list.
            let capacity = rng.gen_range(30..90u64);
            let mut cache = TwoQCache::new(capacity);
            let mut model = Model::new(capacity);
            let (mut promotions, mut full_steps) = (0u32, 0u32);
            for step in 0..6_000u64 {
                // Half the requests re-reference a small hot set soon after
                // it leaves A1in; the rest walk a wide set that overflows
                // the ghost list.
                let id = if rng.gen_f64() < 0.5 {
                    rng.gen_range(0..24u64)
                } else {
                    rng.gen_range(0..2_000u64)
                };
                let k = key(id);
                let size = rng.gen_range(1..25u64);
                let ghost = model.a1out.contains(&k);
                if rng.gen_range(0..10) == 0 {
                    // A push placement may admit a key that is still a
                    // ghost; evicting it again must not refresh its place.
                    cache.insert(k, size, step);
                    model.insert(k, size);
                } else {
                    let hit = cache.request(k, size, step);
                    assert_eq!(hit, model.request(k, size), "seed {seed} step {step}");
                }
                promotions += u32::from(ghost && !model.a1out.contains(&k));
                full_steps += u32::from(model.a1out.len() == A1OUT_ENTRIES);
                assert_eq!(
                    cache.evictions(),
                    model.evictions,
                    "seed {seed} step {step}"
                );
                assert_eq!(cache.bytes_used(), model.a1in.bytes(0) + model.am.bytes(0));
                assert_eq!(
                    cache.a1out.len(),
                    model.a1out.len(),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    cache.core.keys(AM),
                    model.am.keys(0),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    cache.core.keys(A1IN),
                    model.a1in.keys(0),
                    "seed {seed} step {step}"
                );
            }
            for id in 0..2_000u64 {
                let k = key(id);
                assert_eq!(
                    cache.a1out.contains(&k),
                    model.a1out.contains(&k),
                    "seed {seed}"
                );
                assert_eq!(
                    cache.list_of(&k) == Some(AM),
                    model.am.contains(&k),
                    "seed {seed}"
                );
                assert_eq!(
                    cache.list_of(&k) == Some(A1IN),
                    model.a1in.contains(&k),
                    "seed {seed}"
                );
            }
            assert!(
                promotions > 100,
                "seed {seed}: {promotions} ghost promotions"
            );
            assert!(
                full_steps > 1_000,
                "seed {seed}: ghost list full at {full_steps} steps"
            );
        }
    }

    #[test]
    fn ghost_list_bounded() {
        let mut cache = TwoQCache::new(20);
        for i in 0..2_000 {
            cache.request(key(i), 10, i);
        }
        assert_eq!(cache.a1out.len(), A1OUT_ENTRIES);
        assert_eq!(cache.a1out.bytes(0), 0, "ghosts hold no bytes");
    }
}
