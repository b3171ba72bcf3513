//! The slab behind the recency-ordered policies.
//!
//! One [`LruCore`] holds every entry of a cache in one slab under one
//! key → slot index, and threads each entry onto one of `LISTS` intrusive
//! recency lists. A request probes the index once; moving an entry to the
//! front of its list, or from one list to another (an SLRU promotion or
//! demotion, a 2Q ghost re-reference), only relinks slots.

use super::CacheKey;
use oat_httplog::{IdBuildHasher, ObjectId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Slot index meaning "no slot": the end of the free list.
const NIL: u32 = u32::MAX;

/// A byte-bounded set of recency lists with O(1) touch, move, insert,
/// evict and remove: a slab of nodes on `LISTS` circular doubly-linked
/// lists (most recent first), plus a key → slot hash index.
///
/// Slots `0..LISTS` are the lists' sentinels, so linking never branches
/// on an empty list. Freed slots are chained into a free list and reused,
/// so the slab never holds more than `LISTS` + the peak number of cached
/// entries. Backs [`LruCache`](super::LruCache) (one list),
/// [`SlruCache`](super::SlruCache) (probation and protected) and
/// [`TwoQCache`](super::TwoQCache) (`A1in` and `Am`, plus a one-list
/// core for its ghost keys).
#[derive(Debug)]
pub(crate) struct LruCore<const LISTS: usize = 1> {
    /// Sentinels, then entry slots; a free slot links to the next free
    /// one through `next`.
    nodes: Vec<Node>,
    index: HashMap<CacheKey, u32, IdBuildHasher>,
    /// First free slot.
    free: u32,
    /// Bytes on each list.
    bytes: [u64; LISTS],
}

/// One slot. The key is stored unpacked so that the list tag fits in
/// `CacheKey`'s padding and a node stays 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    object: ObjectId,
    chunk: u32,
    /// The list this node is on (a sentinel's own list).
    list: u32,
    size: u64,
    /// Towards the head (more recent); a head links to its sentinel.
    prev: u32,
    /// Towards the tail (less recent); a tail links to its sentinel.
    next: u32,
}

impl Node {
    fn key(&self) -> CacheKey {
        CacheKey::chunk(self.object, self.chunk)
    }
}

impl<const LISTS: usize> LruCore<LISTS> {
    pub fn new() -> Self {
        let nodes = (0..LISTS as u32)
            .map(|list| Node {
                object: ObjectId::default(),
                chunk: 0,
                list,
                size: 0,
                prev: list,
                next: list,
            })
            .collect();
        Self {
            nodes,
            index: HashMap::default(),
            free: NIL,
            bytes: [0; LISTS],
        }
    }

    pub fn contains(&self, key: &CacheKey) -> bool {
        self.index.contains_key(key)
    }

    /// Entries on all lists.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Bytes on `list`.
    pub fn bytes(&self, list: usize) -> u64 {
        self.bytes[list]
    }

    /// Bytes on all lists.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// The slot holding `key`, if cached: the one index probe a request
    /// makes.
    pub fn slot(&self, key: &CacheKey) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// The list `slot` is on.
    pub fn list_of(&self, slot: u32) -> usize {
        self.nodes[slot as usize].list as usize
    }

    /// The size of the entry in `slot`.
    #[cfg(test)]
    pub fn size(&self, slot: u32) -> u64 {
        self.nodes[slot as usize].size
    }

    /// The least recent slot on `list`, if any.
    pub fn lru_slot(&self, list: usize) -> Option<u32> {
        let tail = self.nodes[list].prev;
        (tail as usize != list).then_some(tail)
    }

    /// Moves `key` to the most-recent position of its list. Returns false
    /// if absent.
    pub fn touch(&mut self, key: &CacheKey) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        self.move_to(slot, self.list_of(slot));
        true
    }

    /// Moves the entry in `slot` to the most-recent position of `list`.
    pub fn move_to(&mut self, slot: u32, list: usize) {
        let node = self.nodes[slot as usize];
        if node.list as usize == list {
            if node.prev as usize != list {
                self.unlink(slot);
                self.link_front(slot, list);
            }
            return;
        }
        self.bytes[node.list as usize] -= node.size;
        self.bytes[list] += node.size;
        self.unlink(slot);
        self.link_front(slot, list);
    }

    /// Inserts `key` at the most-recent position of `list` (no capacity
    /// check — callers evict first). Re-inserting refreshes its recency,
    /// size and list.
    pub fn insert(&mut self, key: CacheKey, size: u64, list: usize) {
        let slot = match self.index.entry(key) {
            Entry::Occupied(entry) => {
                let slot = *entry.get();
                let node = &mut self.nodes[slot as usize];
                self.bytes[node.list as usize] -= node.size;
                node.size = size;
                self.unlink(slot);
                slot
            }
            Entry::Vacant(entry) => {
                let node = Node {
                    object: key.object,
                    chunk: key.chunk,
                    list: list as u32,
                    size,
                    prev: NIL,
                    next: NIL,
                };
                let slot = if self.free == NIL {
                    let slot = self.nodes.len();
                    assert!(slot < NIL as usize, "LruCore indexes slots with u32");
                    // oat-lint: allow(bounded-memory) -- slots <= LISTS + peak cached entries: freed slots are reused first
                    self.nodes.push(node);
                    slot as u32
                } else {
                    let slot = self.free;
                    self.free = self.nodes[slot as usize].next;
                    self.nodes[slot as usize] = node;
                    slot
                };
                entry.insert(slot);
                slot
            }
        };
        self.bytes[list] += size;
        self.link_front(slot, list);
    }

    /// Removes and returns the least-recently-used entry of `list`.
    pub fn pop_lru(&mut self, list: usize) -> Option<(CacheKey, u64)> {
        let slot = self.lru_slot(list)?;
        let key = self.nodes[slot as usize].key();
        self.index.remove(&key);
        Some((key, self.release(slot)))
    }

    /// Removes a specific key, returning its size.
    pub fn remove(&mut self, key: &CacheKey) -> Option<u64> {
        let slot = self.index.remove(key)?;
        Some(self.release(slot))
    }

    /// Unlinks an unindexed `slot` onto the free list, returning its size.
    fn release(&mut self, slot: u32) -> u64 {
        self.unlink(slot);
        let node = &mut self.nodes[slot as usize];
        node.next = self.free;
        self.free = slot;
        self.bytes[node.list as usize] -= node.size;
        node.size
    }

    /// Detaches `slot` from its list (its links go stale).
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    /// Links a detached `slot` in at the most-recent end of `list`.
    fn link_front(&mut self, slot: u32, list: usize) {
        let first = self.nodes[list].next;
        let node = &mut self.nodes[slot as usize];
        node.list = list as u32;
        node.prev = list as u32;
        node.next = first;
        self.nodes[first as usize].prev = slot;
        self.nodes[list].next = slot;
    }

    /// The keys on `list`, most recent first.
    #[cfg(test)]
    pub fn keys(&self, list: usize) -> Vec<CacheKey> {
        let mut keys = Vec::new();
        let mut slot = self.nodes[list].next;
        while slot as usize != list {
            keys.push(self.nodes[slot as usize].key());
            slot = self.nodes[slot as usize].next;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::super::policy_tests::key;
    use super::*;
    use oat_stats::rng::Rng;

    #[test]
    fn insert_touch_evict_order() {
        let mut core: LruCore = LruCore::new();
        core.insert(key(1), 10, 0);
        core.insert(key(2), 10, 0);
        core.insert(key(3), 10, 0);
        assert_eq!(core.len(), 3);
        assert_eq!(core.bytes(0), 30);
        // Touch 1; eviction order becomes 2, 3, 1.
        assert!(core.touch(&key(1)));
        assert_eq!(core.pop_lru(0).unwrap().0, key(2));
        assert_eq!(core.pop_lru(0).unwrap().0, key(3));
        assert_eq!(core.pop_lru(0).unwrap().0, key(1));
        assert!(core.pop_lru(0).is_none());
        assert_eq!(core.bytes(0), 0);
    }

    #[test]
    fn touch_missing_is_false() {
        let mut core: LruCore = LruCore::new();
        assert!(!core.touch(&key(9)));
    }

    #[test]
    fn reinsert_updates_size_and_recency() {
        let mut core: LruCore = LruCore::new();
        core.insert(key(1), 10, 0);
        core.insert(key(2), 10, 0);
        core.insert(key(1), 25, 0); // refresh
        assert_eq!(core.bytes(0), 35);
        assert_eq!(core.len(), 2);
        assert_eq!(core.slot(&key(1)).map(|s| core.size(s)), Some(25));
        assert_eq!(core.pop_lru(0).unwrap().0, key(2));
    }

    #[test]
    fn remove_specific() {
        let mut core: LruCore = LruCore::new();
        core.insert(key(1), 7, 0);
        assert_eq!(core.remove(&key(1)), Some(7));
        assert_eq!(core.remove(&key(1)), None);
        assert_eq!(core.bytes(0), 0);
        assert_eq!(core.len(), 0);
    }

    /// Naive reference: one `Vec` per list, least recent first.
    #[derive(Default)]
    struct Model {
        lists: [Vec<(CacheKey, u64)>; 2],
    }

    impl Model {
        fn position(&self, k: &CacheKey) -> Option<(usize, usize)> {
            (0..2).find_map(|l| {
                let i = self.lists[l].iter().position(|(key, _)| key == k)?;
                Some((l, i))
            })
        }

        fn take(&mut self, k: &CacheKey) -> Option<(usize, (CacheKey, u64))> {
            self.position(k).map(|(l, i)| (l, self.lists[l].remove(i)))
        }

        fn insert(&mut self, k: CacheKey, size: u64, list: usize) {
            self.take(&k);
            self.lists[list].push((k, size));
        }

        fn touch(&mut self, k: &CacheKey) -> bool {
            self.take(k)
                .map(|(l, entry)| self.lists[l].push(entry))
                .is_some()
        }

        fn move_to(&mut self, k: &CacheKey, list: usize) -> bool {
            self.take(k)
                .map(|(_, entry)| self.lists[list].push(entry))
                .is_some()
        }

        fn pop_lru(&mut self, list: usize) -> Option<(CacheKey, u64)> {
            (!self.lists[list].is_empty()).then(|| self.lists[list].remove(0))
        }

        fn len(&self) -> usize {
            self.lists.iter().map(Vec::len).sum()
        }

        fn bytes(&self, list: usize) -> u64 {
            self.lists[list].iter().map(|&(_, size)| size).sum()
        }

        fn keys(&self, list: usize) -> Vec<CacheKey> {
            self.lists[list].iter().rev().map(|&(k, _)| k).collect()
        }
    }

    #[test]
    fn matches_reference_model() {
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut core: LruCore<2> = LruCore::new();
            let mut model = Model::default();
            let mut peak = 0usize;
            for step in 0..2_000 {
                let k = key(rng.gen_range(0..24u64));
                let list = rng.gen_range(0..2u64) as usize;
                let at = format!("seed {seed} step {step}");
                match rng.gen_range(0..12) {
                    0..=3 => {
                        let size = rng.gen_range(1..100u64);
                        core.insert(k, size, list);
                        model.insert(k, size, list);
                    }
                    4 | 5 => assert_eq!(core.touch(&k), model.touch(&k), "{at}"),
                    6 | 7 => {
                        let slot = core.slot(&k);
                        if let Some(slot) = slot {
                            core.move_to(slot, list);
                        }
                        assert_eq!(slot.is_some(), model.move_to(&k, list), "{at}");
                    }
                    8 => assert_eq!(core.pop_lru(list), model.pop_lru(list), "{at}"),
                    9 | 10 => {
                        let removed = model.take(&k).map(|(_, (_, size))| size);
                        assert_eq!(core.remove(&k), removed, "{at}");
                    }
                    _ => assert_eq!(
                        core.slot(&k).map(|s| (core.list_of(s), core.size(s))),
                        model.position(&k).map(|(l, i)| (l, model.lists[l][i].1)),
                        "{at}"
                    ),
                }
                assert_eq!(core.len(), model.len(), "{at}");
                for l in 0..2 {
                    assert_eq!(core.bytes(l), model.bytes(l), "{at}");
                    assert_eq!(core.keys(l), model.keys(l), "{at}");
                    assert_eq!(core.lru_slot(l).is_some(), !model.lists[l].is_empty());
                }
                assert_eq!(core.contains(&k), model.position(&k).is_some());
                peak = peak.max(core.len());
                // A new slot is taken only when the free list is empty.
                assert_eq!(core.nodes.len(), 2 + peak, "{at}: slot reuse");
            }
            // Full eviction order.
            for l in 0..2 {
                while let Some(expected) = model.pop_lru(l) {
                    assert_eq!(core.pop_lru(l), Some(expected), "seed {seed}: drain");
                }
                assert_eq!(core.pop_lru(l), None);
            }
            assert_eq!(core.total_bytes(), 0);
        }
    }
}
