//! SLRU, 2Q and FIFO keep their queues as lists over one slab under one
//! key index (FIFO: a queue beside its map). These properties replay
//! random mixes of `request` and `insert` through them and through naive
//! reference models that keep every queue as a `Vec` (least recent first)
//! searched by position, and require identical behaviour at every step.
//!
//! The mixes cover keys that collide often, keys that come back at a new
//! size, objects larger than the capacity, SLRU promotions whose
//! protected overflow demotes several entries, and 2Q ghost
//! re-references, including a push placement of a key that is still a
//! ghost. `models_cover_every_case` pins that a fixed mix reaches each of
//! these.

use oat_cdnsim::cache::{CacheKey, FifoCache, SlruCache, TwoQCache};
use oat_cdnsim::CachePolicy;
use oat_httplog::ObjectId;
use proptest::prelude::*;
use std::collections::HashMap;

/// 2Q's ghost-list length.
const A1OUT_ENTRIES: usize = 512;

/// Which of the listed cases a model has met.
#[derive(Debug, Default)]
struct Cases {
    /// Promotions that demoted two or more protected entries.
    cascades: u32,
    /// Misses on a ghost key, admitted straight to `Am`.
    ghost_hits: u32,
    /// Push placements of a key that sits in `A1out`.
    ghost_inserts: u32,
    /// Ghost keys dropped because `A1out` was full.
    ghost_overflows: u32,
    /// Admissions refused because the object exceeds the capacity.
    oversized: u32,
    /// Admissions of a key at a size other than its previous admission's.
    resized: u32,
    /// Each key's last admitted size.
    admitted: HashMap<CacheKey, u64>,
}

impl Cases {
    fn admit(&mut self, key: CacheKey, size: u64) {
        let previous = self.admitted.insert(key, size);
        self.resized += u32::from(previous.is_some_and(|p| p != size));
    }
}

fn position(queue: &[(CacheKey, u64)], key: &CacheKey) -> Option<usize> {
    queue.iter().position(|(k, _)| k == key)
}

fn bytes(queue: &[(CacheKey, u64)]) -> u64 {
    queue.iter().map(|&(_, size)| size).sum()
}

/// Reference segmented LRU: probation and protected queues.
#[derive(Debug)]
struct VecSlru {
    probation: Vec<(CacheKey, u64)>,
    protected: Vec<(CacheKey, u64)>,
    protected_capacity: u64,
    capacity: u64,
    evictions: u64,
    cases: Cases,
}

impl VecSlru {
    fn new(capacity: u64, fraction: f64) -> Self {
        Self {
            probation: Vec::new(),
            protected: Vec::new(),
            protected_capacity: (capacity as f64 * fraction.clamp(0.0, 1.0)) as u64,
            capacity,
            evictions: 0,
            cases: Cases::default(),
        }
    }

    fn evict_for(&mut self, size: u64) {
        while self.bytes_used() + size > self.capacity {
            if !self.probation.is_empty() {
                self.probation.remove(0);
            } else if !self.protected.is_empty() {
                self.protected.remove(0);
            } else {
                break;
            }
            self.evictions += 1;
        }
    }
}

impl CachePolicy for VecSlru {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        if let Some(i) = position(&self.protected, &key) {
            let entry = self.protected.remove(i);
            self.protected.push(entry);
            return true;
        }
        if let Some(i) = position(&self.probation, &key) {
            let entry = self.probation.remove(i);
            self.protected.push(entry);
            let mut demoted = 0;
            while bytes(&self.protected) > self.protected_capacity {
                let entry = self.protected.remove(0);
                self.probation.push(entry);
                demoted += 1;
            }
            self.cases.cascades += u32::from(demoted >= 2);
            while self.bytes_used() > self.capacity && !self.probation.is_empty() {
                self.probation.remove(0);
                self.evictions += 1;
            }
            return true;
        }
        self.insert(key, size, now);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size > self.capacity {
            self.cases.oversized += 1;
            return;
        }
        if self.contains(&key) {
            return;
        }
        self.cases.admit(key, size);
        self.evict_for(size);
        self.probation.push((key, size));
    }

    fn contains(&self, key: &CacheKey) -> bool {
        position(&self.probation, key).is_some() || position(&self.protected, key).is_some()
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    fn bytes_used(&self) -> u64 {
        bytes(&self.probation) + bytes(&self.protected)
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Reference 2Q: `A1in` (FIFO), `Am` (LRU) and the ghost keys, oldest
/// first.
#[derive(Debug)]
struct VecTwoQ {
    a1in: Vec<(CacheKey, u64)>,
    am: Vec<(CacheKey, u64)>,
    a1out: Vec<CacheKey>,
    a1in_capacity: u64,
    capacity: u64,
    evictions: u64,
    cases: Cases,
}

impl VecTwoQ {
    fn new(capacity: u64) -> Self {
        Self {
            a1in: Vec::new(),
            am: Vec::new(),
            a1out: Vec::new(),
            a1in_capacity: capacity / 4,
            capacity,
            evictions: 0,
            cases: Cases::default(),
        }
    }

    fn evict_a1in(&mut self) {
        let (victim, _) = self.a1in.remove(0);
        if !self.a1out.contains(&victim) {
            self.a1out.push(victim);
            if self.a1out.len() > A1OUT_ENTRIES {
                self.a1out.remove(0);
                self.cases.ghost_overflows += 1;
            }
        }
        self.evictions += 1;
    }

    fn make_room(&mut self, size: u64) {
        while self.bytes_used() + size > self.capacity {
            let a1in_first = bytes(&self.a1in) > self.a1in_capacity || self.am.is_empty();
            if a1in_first && !self.a1in.is_empty() {
                self.evict_a1in();
            } else if !self.am.is_empty() {
                self.am.remove(0);
                self.evictions += 1;
            } else if !self.a1in.is_empty() {
                self.evict_a1in();
            } else {
                break;
            }
        }
    }
}

impl CachePolicy for VecTwoQ {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        if let Some(i) = position(&self.am, &key) {
            let entry = self.am.remove(i);
            self.am.push(entry);
            return true;
        }
        if position(&self.a1in, &key).is_some() {
            return true;
        }
        if let Some(i) = self.a1out.iter().position(|k| k == &key) {
            if size <= self.capacity {
                self.a1out.remove(i);
                self.cases.ghost_hits += 1;
                self.cases.admit(key, size);
                self.make_room(size);
                self.am.push((key, size));
            }
            return false;
        }
        self.insert(key, size, now);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size > self.capacity {
            self.cases.oversized += 1;
            return;
        }
        if self.contains(&key) {
            return;
        }
        self.cases.ghost_inserts += u32::from(self.a1out.contains(&key));
        self.cases.admit(key, size);
        self.make_room(size);
        self.a1in.push((key, size));
    }

    fn contains(&self, key: &CacheKey) -> bool {
        position(&self.a1in, key).is_some() || position(&self.am, key).is_some()
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn bytes_used(&self) -> u64 {
        bytes(&self.a1in) + bytes(&self.am)
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Reference FIFO: one queue in admission order.
#[derive(Debug)]
struct VecFifo {
    queue: Vec<(CacheKey, u64)>,
    capacity: u64,
    evictions: u64,
}

impl CachePolicy for VecFifo {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        if self.contains(&key) {
            return true;
        }
        self.insert(key, size, now);
        false
    }

    fn insert(&mut self, key: CacheKey, size: u64, _now: u64) {
        if size > self.capacity || self.contains(&key) {
            return;
        }
        while self.bytes_used() + size > self.capacity && !self.queue.is_empty() {
            self.queue.remove(0);
            self.evictions += 1;
        }
        self.queue.push((key, size));
    }

    fn contains(&self, key: &CacheKey) -> bool {
        position(&self.queue, key).is_some()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn bytes_used(&self) -> u64 {
        bytes(&self.queue)
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Hot keys, which collide often; the rest of the key space is wide
/// enough to overflow 2Q's ghost list.
const HOT_KEYS: u64 = 40;

/// One step: `(key draw, size, op)`. A key draw below 3 000 picks one of
/// the hot keys, the rest are wide. Op 0 is a push placement (`insert`),
/// op 1 a request for an object larger than the capacity, any other a
/// request.
type Op = (u64, u64, u8);

fn key_of(draw: u64) -> CacheKey {
    let id = if draw < 3_000 { draw % HOT_KEYS } else { draw };
    CacheKey::whole(ObjectId::new(id))
}

/// Replays `ops` through both caches and requires the same outcome and
/// state after every step.
fn assert_same_steps(cache: &mut dyn CachePolicy, reference: &mut dyn CachePolicy, ops: &[Op]) {
    let capacity = reference.capacity_bytes();
    for (t, &(draw, size, op)) in ops.iter().enumerate() {
        let key = key_of(draw);
        let now = t as u64;
        match op {
            0 => {
                cache.insert(key, size, now);
                reference.insert(key, size, now);
            }
            _ => {
                let size = if op == 1 { capacity + size } else { size };
                let hit = cache.request(key, size, now);
                assert_eq!(hit, reference.request(key, size, now), "step {t}: hit");
            }
        }
        assert_eq!(
            cache.evictions(),
            reference.evictions(),
            "step {t}: evictions"
        );
        assert_eq!(cache.len(), reference.len(), "step {t}: len");
        assert_eq!(
            cache.bytes_used(),
            reference.bytes_used(),
            "step {t}: bytes"
        );
        assert_eq!(
            cache.contains(&key),
            reference.contains(&key),
            "step {t}: contains"
        );
        if t % 64 == 0 {
            for id in 0..HOT_KEYS {
                let hot = CacheKey::whole(ObjectId::new(id));
                assert_eq!(
                    cache.contains(&hot),
                    reference.contains(&hot),
                    "step {t}: contains {id}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slru_matches_vec_model(
        ops in prop::collection::vec((0u64..4_000, 1u64..40, 0u8..16), 1..3_000),
        capacity in 30u64..120,
        fraction in 0.0f64..1.0,
    ) {
        assert_same_steps(
            &mut SlruCache::with_protected_fraction(capacity, fraction),
            &mut VecSlru::new(capacity, fraction),
            &ops,
        );
    }

    #[test]
    fn two_q_matches_vec_model(
        ops in prop::collection::vec((0u64..4_000, 1u64..40, 0u8..16), 1..3_000),
        capacity in 30u64..120,
    ) {
        assert_same_steps(&mut TwoQCache::new(capacity), &mut VecTwoQ::new(capacity), &ops);
    }

    #[test]
    fn fifo_matches_vec_model(
        ops in prop::collection::vec((0u64..4_000, 1u64..40, 0u8..16), 1..3_000),
        capacity in 30u64..120,
    ) {
        let reference = &mut VecFifo { queue: Vec::new(), capacity, evictions: 0 };
        assert_same_steps(&mut FifoCache::new(capacity), reference, &ops);
    }
}

/// A fixed mix, drawn like the properties', reaches every listed case,
/// and the models agree with the caches on it.
#[test]
fn models_cover_every_case() {
    let mut state = 0x5EED_u64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let ops: Vec<Op> = (0..8_000)
        .map(|_| (next(4_000), 1 + next(39), next(16) as u8))
        .collect();
    let mut slru = VecSlru::new(90, 0.3);
    assert_same_steps(
        &mut SlruCache::with_protected_fraction(90, 0.3),
        &mut slru,
        &ops,
    );
    let mut two_q = VecTwoQ::new(60);
    assert_same_steps(&mut TwoQCache::new(60), &mut two_q, &ops);
    assert!(slru.cases.cascades > 0, "{:?}", slru.cases);
    assert!(slru.cases.oversized > 0, "{:?}", slru.cases);
    assert!(slru.cases.resized > 0, "{:?}", slru.cases);
    assert!(two_q.cases.resized > 0, "{:?}", two_q.cases);
    assert!(two_q.cases.ghost_hits > 0, "{:?}", two_q.cases);
    assert!(two_q.cases.ghost_inserts > 0, "{:?}", two_q.cases);
    assert!(two_q.cases.ghost_overflows > 0, "{:?}", two_q.cases);
}
