//! Cache eviction policies.
//!
//! The CDN in the paper runs proprietary caching; this module provides the
//! standard policy family (LRU, LFU, FIFO, 2Q, SLRU, GDSF, plus an
//! infinite upper bound), all behind one object-safe [`CachePolicy`] trait
//! so the simulator and the ablation benches can swap them freely. A
//! [`TtlCache`] wrapper adds expiry-based revalidation (ablation A5) and a
//! [`TieredCache`] splits small/large objects across two caches — the
//! paper's §IV-B suggestion of separate platforms for thumbnails vs videos
//! (ablation A2).
//!
//! Each bounded policy keeps its entries in one slab under one key → slot
//! index, so a hit probes the index once and then only relinks slots:
//!
//! - LRU, SLRU and 2Q thread their queues (SLRU's probation and
//!   protected segments, 2Q's `A1in` and `Am`) through one `LruCore`,
//!   each node tagged with its queue. 2Q's ghost keys keep a second,
//!   byte-free core.
//! - LFU chains frequency buckets, lowest first, each a list of its
//!   entries in the order they reached its frequency.
//! - GDSF queues `(priority, seq, slot)` in a monotone radix queue and
//!   skips a stale entry by comparing its `seq` with its slot's.
//! - FIFO keeps its admission queue beside its map and answers a miss
//!   with one `entry` probe.

mod core_lru;
mod fifo;
mod gdsf;
mod infinite;
mod lfu;
mod lru;
mod slru;
mod tiered;
mod ttl;
mod twoq;

pub use fifo::FifoCache;
pub use gdsf::GdsfCache;
pub use infinite::InfiniteCache;
pub use lfu::LfuCache;
pub use lru::LruCache;
pub use slru::SlruCache;
pub use tiered::TieredCache;
pub use ttl::TtlCache;
pub use twoq::TwoQCache;

use oat_httplog::ObjectId;

/// A cacheable unit: one chunk of one object (chunk 0 for whole objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// The object.
    pub object: ObjectId,
    /// Chunk index within the object (0 for unchunked content).
    pub chunk: u32,
}

impl CacheKey {
    /// Key for a whole (unchunked) object.
    pub fn whole(object: ObjectId) -> Self {
        Self { object, chunk: 0 }
    }

    /// Key for one chunk.
    pub fn chunk(object: ObjectId, chunk: u32) -> Self {
        Self { object, chunk }
    }
}

/// An eviction policy with byte-capacity accounting.
///
/// `request` performs the full lookup-or-admit cycle: on hit it refreshes
/// the entry per the policy and returns `true`; on miss it admits the entry
/// (evicting as needed) and returns `false`. Objects larger than the
/// capacity are never admitted.
pub trait CachePolicy: Send + std::fmt::Debug {
    /// Look up `key`; admit on miss. Returns whether it was a hit.
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool;

    /// Admits `key` without counting a request (push/prefetch placement).
    fn insert(&mut self, key: CacheKey, size: u64, now: u64);

    /// Whether `key` is currently cached (no recency side effects).
    fn contains(&self, key: &CacheKey) -> bool;

    /// Whether a `request` for `key` at `now` would be a hit, without any
    /// side effects (no recency bump, no admission, no TTL refresh).
    ///
    /// Defaults to [`contains`](Self::contains); freshness-aware wrappers
    /// ([`TtlCache`]) also require freshness. The simulator uses this
    /// during origin brownouts to decide between a normal hit, a
    /// stale-while-revalidate serve (present but not peek-able), and a
    /// load-shed `503` — without spuriously admitting or refreshing
    /// entries whose origin fetch failed.
    fn peek(&self, key: &CacheKey, now: u64) -> bool {
        let _ = now;
        self.contains(key)
    }

    /// Number of cached entries.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently cached.
    fn bytes_used(&self) -> u64;

    /// Capacity in bytes (`u64::MAX` for unbounded).
    fn capacity_bytes(&self) -> u64;

    /// Total evictions so far.
    fn evictions(&self) -> u64;
}

/// Selector for constructing a policy by name (benches, config files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// Least-frequently-used (exact).
    Lfu,
    /// First-in-first-out.
    Fifo,
    /// 2Q (Johnson & Shasha).
    TwoQ,
    /// GreedyDual-Size-Frequency (size-aware, Cherkasova 1998).
    Gdsf,
    /// Segmented LRU.
    Slru,
    /// Unbounded cache (upper bound on achievable hit ratio).
    Infinite,
}

impl PolicyKind {
    /// All bounded policies plus the infinite upper bound.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Fifo,
        PolicyKind::TwoQ,
        PolicyKind::Gdsf,
        PolicyKind::Slru,
        PolicyKind::Infinite,
    ];

    /// Builds a boxed policy with the given byte capacity.
    pub fn build(self, capacity_bytes: u64) -> Box<dyn CachePolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruCache::new(capacity_bytes)),
            PolicyKind::Lfu => Box::new(LfuCache::new(capacity_bytes)),
            PolicyKind::Fifo => Box::new(FifoCache::new(capacity_bytes)),
            PolicyKind::TwoQ => Box::new(TwoQCache::new(capacity_bytes)),
            PolicyKind::Gdsf => Box::new(GdsfCache::new(capacity_bytes)),
            PolicyKind::Slru => Box::new(SlruCache::new(capacity_bytes)),
            PolicyKind::Infinite => Box::new(InfiniteCache::new()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Fifo => "fifo",
            PolicyKind::TwoQ => "2q",
            PolicyKind::Gdsf => "gdsf",
            PolicyKind::Slru => "slru",
            PolicyKind::Infinite => "infinite",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
pub(crate) mod policy_tests {
    use super::*;

    pub fn key(i: u64) -> CacheKey {
        CacheKey::whole(ObjectId::new(i))
    }

    /// Shared conformance suite every bounded policy must pass.
    pub fn conformance(mut cache: Box<dyn CachePolicy>, capacity: u64) {
        assert_eq!(cache.capacity_bytes(), capacity);
        assert!(cache.is_empty());
        // Cold miss then warm hit.
        assert!(!cache.request(key(1), 10, 0));
        assert!(cache.request(key(1), 10, 1));
        assert!(cache.contains(&key(1)));
        assert!(cache.peek(&key(1), 2), "peek matches contains by default");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes_used(), 10);
        // Never exceeds capacity.
        for i in 2..200 {
            cache.request(key(i), 10, i);
            assert!(cache.bytes_used() <= capacity, "capacity exceeded");
        }
        assert!(cache.evictions() > 0, "evictions must occur");
        // Oversized object is not admitted.
        let before = cache.bytes_used();
        assert!(!cache.request(key(9999), capacity + 1, 1000));
        assert!(!cache.contains(&key(9999)));
        assert_eq!(cache.bytes_used(), before);
        // Insert (push) admits without a request.
        cache.insert(key(5000), 10, 1001);
        assert!(cache.contains(&key(5000)));
        assert!(cache.bytes_used() <= capacity);
    }

    #[test]
    fn all_policies_pass_conformance() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::Fifo,
            PolicyKind::TwoQ,
            PolicyKind::Gdsf,
            PolicyKind::Slru,
        ] {
            conformance(kind.build(100), 100);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::Lru.to_string(), "lru");
        assert_eq!(PolicyKind::TwoQ.to_string(), "2q");
        assert_eq!(PolicyKind::Infinite.to_string(), "infinite");
        assert_eq!(PolicyKind::Gdsf.to_string(), "gdsf");
        assert_eq!(PolicyKind::ALL.len(), 7);
    }

    /// The largest number of `keys` whose id hashes share their low 17 bits.
    fn fullest_bucket<K: std::hash::Hash>(keys: impl Iterator<Item = K>) -> usize {
        use std::hash::BuildHasher;
        let hasher = oat_httplog::IdBuildHasher::default();
        let mut buckets = vec![0usize; 1 << 17];
        for k in keys {
            buckets[(hasher.hash_one(&k) & ((1 << 17) - 1)) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn id_hasher_spreads_real_id_shapes() {
        use oat_httplog::UserId;
        let sequential_users = fullest_bucket((0..1u64 << 16).map(UserId::new));
        assert!(
            sequential_users <= 16,
            "sequential users: {sequential_users}"
        );
        // Ids that differ only in bits 32-47: an unfinalized multiply
        // hash maps all of them to one bucket.
        let high_bit_objects = fullest_bucket((0..1u64 << 16).map(|i| ObjectId::new(i << 32)));
        assert!(
            high_bit_objects <= 16,
            "high-bit objects: {high_bit_objects}"
        );
        let chunks = fullest_bucket((0..1u32 << 16).map(|c| CacheKey::chunk(ObjectId::new(7), c)));
        assert!(chunks <= 16, "chunks of one object: {chunks}");
    }

    #[test]
    fn cache_key_constructors() {
        let k = CacheKey::whole(ObjectId::new(5));
        assert_eq!(k.chunk, 0);
        let c = CacheKey::chunk(ObjectId::new(5), 3);
        assert_eq!(c.chunk, 3);
        assert_ne!(k, c);
    }
}
