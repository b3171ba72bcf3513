//! Property-based tests for cache policies and the simulator.

use oat_cdnsim::cache::{CacheKey, InfiniteCache, TtlCache};
use oat_cdnsim::{CachePolicy, PolicyKind, SimConfig, Simulator};
use oat_httplog::{LogRecord, ObjectId, Region, Request, RequestKind, UserId};
use proptest::prelude::*;

fn key(i: u64) -> CacheKey {
    CacheKey::whole(ObjectId::new(i))
}

/// A time-sorted batch from `(object, user, region, kind)` tuples. Only
/// the first `regions` regions receive traffic, so with fewer than four
/// some PoPs get no request at all.
fn batch(spec: &[(u64, u64, usize, usize)], regions: usize) -> Vec<Request> {
    spec.iter()
        .enumerate()
        .map(|(t, &(obj, user, region, kind))| {
            let kind = match kind {
                0 | 1 => RequestKind::Full,
                2 => RequestKind::Range {
                    offset: 0,
                    length: 1_000,
                },
                3 => RequestKind::Conditional,
                4 => RequestKind::Hotlink,
                _ => RequestKind::Beacon,
            };
            Request {
                timestamp: t as u64,
                object: ObjectId::new(obj),
                object_size: 1_000 + obj * 300,
                user: UserId::new(user),
                region: Region::ALL[region % regions.clamp(1, 4)],
                kind,
                ..Request::example()
            }
        })
        .collect()
}

/// The healthy, cooperative and parent-tier configurations of one
/// topology and policy, with caches small enough to evict.
fn replay_configs(pops_per_region: usize, policy: PolicyKind) -> [SimConfig; 3] {
    let healthy = SimConfig {
        pops_per_region,
        cache_capacity_bytes: 12_000,
        ..SimConfig::default_edge()
    }
    .with_policy(policy);
    [
        healthy.clone(),
        SimConfig {
            cooperative: true,
            ..healthy.clone()
        },
        healthy.with_parent(30_000),
    ]
}

/// Asserts that `replay` equals serial `serve` record for record, that its
/// statistics equal `replay_stats`, and that a second fresh replay
/// repeats it.
fn assert_replay_matches_serial(config: &SimConfig, requests: &[Request]) {
    let serial_sim = Simulator::new(config);
    let serial: Vec<LogRecord> = requests
        .iter()
        .map(|r| serial_sim.serve(r.clone()))
        .collect();
    let replay_sim = Simulator::new(config);
    let replayed = replay_sim.replay(requests.to_vec());
    assert_eq!(replayed, serial, "{config:?}: replay differs from serve");
    assert_eq!(replay_sim.stats(), serial_sim.stats(), "{config:?}");
    let counters = Simulator::new(config).replay_stats(requests);
    assert_eq!(counters, replay_sim.stats(), "{config:?}: replay_stats");
    let again = Simulator::new(config).replay(requests.to_vec());
    assert_eq!(again, replayed, "{config:?}: replay is not repeatable");
}

#[test]
fn replay_of_empty_and_single_request_batches() {
    for ppr in [1, 2] {
        for policy in [PolicyKind::Lru, PolicyKind::TwoQ, PolicyKind::Gdsf] {
            for config in replay_configs(ppr, policy) {
                assert!(Simulator::new(&config).replay(Vec::new()).is_empty());
                assert_replay_matches_serial(&config, &[]);
                assert_replay_matches_serial(&config, &batch(&[(3, 7, 2, 0)], 4));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bounded_policies_never_exceed_capacity(
        ops in prop::collection::vec((0u64..50, 1u64..40), 1..400),
        capacity in 50u64..200,
        kind_idx in 0usize..6,
    ) {
        let kind = [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::Fifo, PolicyKind::TwoQ, PolicyKind::Gdsf, PolicyKind::Slru][kind_idx];
        let mut cache = kind.build(capacity);
        for (t, &(obj, size)) in ops.iter().enumerate() {
            cache.request(key(obj), size, t as u64);
            prop_assert!(cache.bytes_used() <= capacity,
                "{kind}: {} bytes > capacity {capacity}", cache.bytes_used());
            prop_assert!(cache.capacity_bytes() == capacity);
        }
    }

    #[test]
    fn hit_implies_previously_requested(
        ops in prop::collection::vec(0u64..30, 1..300),
        kind_idx in 0usize..6,
    ) {
        let kind = [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::Fifo, PolicyKind::TwoQ, PolicyKind::Gdsf, PolicyKind::Slru][kind_idx];
        let mut cache = kind.build(1_000);
        let mut seen = std::collections::HashSet::new();
        for (t, &obj) in ops.iter().enumerate() {
            let hit = cache.request(key(obj), 10, t as u64);
            if hit {
                prop_assert!(seen.contains(&obj), "{kind}: hit on never-seen object");
            }
            seen.insert(obj);
        }
    }

    #[test]
    fn infinite_cache_dominates_bounded(
        ops in prop::collection::vec((0u64..40, 1u64..30), 1..300),
        capacity in 30u64..300,
        kind_idx in 0usize..6,
    ) {
        let kind = [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::Fifo, PolicyKind::TwoQ, PolicyKind::Gdsf, PolicyKind::Slru][kind_idx];
        let mut bounded = kind.build(capacity);
        let mut infinite = InfiniteCache::new();
        let mut bounded_hits = 0u64;
        let mut infinite_hits = 0u64;
        for (t, &(obj, size)) in ops.iter().enumerate() {
            bounded_hits += u64::from(bounded.request(key(obj), size, t as u64));
            infinite_hits += u64::from(infinite.request(key(obj), size, t as u64));
        }
        prop_assert!(infinite_hits >= bounded_hits,
            "{kind}: bounded {bounded_hits} > infinite {infinite_hits}");
    }

    #[test]
    fn ttl_zero_never_repeat_hits(ops in prop::collection::vec(0u64..20, 1..200)) {
        // TTL 0 with strictly increasing time: every entry is stale by the
        // next access.
        let mut cache = TtlCache::new(InfiniteCache::new(), 0);
        for (t, &obj) in ops.iter().enumerate() {
            let hit = cache.request(key(obj), 10, t as u64 + 1);
            prop_assert!(!hit);
        }
    }

    #[test]
    fn simulator_records_are_consistent(
        reqs in prop::collection::vec((0u64..20, 0u64..10, 0usize..4, 0usize..5), 1..200),
    ) {
        let sim = Simulator::new(&SimConfig::default_edge());
        let requests: Vec<Request> = reqs
            .iter()
            .enumerate()
            .map(|(t, &(obj, user, region, kind))| {
                let kind = match kind {
                    0 => RequestKind::Full,
                    1 => RequestKind::Range { offset: 0, length: 1_000 },
                    2 => RequestKind::Conditional,
                    3 => RequestKind::Hotlink,
                    _ => RequestKind::InvalidRange,
                };
                Request {
                    timestamp: t as u64,
                    object: ObjectId::new(obj),
                    user: UserId::new(user),
                    region: Region::ALL[region],
                    kind,
                    ..Request::example()
                }
            })
            .collect();
        let n = requests.len();
        let records = sim.replay(requests.clone());
        prop_assert_eq!(records.len(), n);
        for (req, rec) in requests.iter().zip(&records) {
            prop_assert_eq!(rec.timestamp, req.timestamp);
            prop_assert_eq!(rec.object, req.object);
            match req.kind {
                RequestKind::Full => {
                    prop_assert_eq!(rec.status.code(), 200);
                    prop_assert_eq!(rec.bytes_served, req.object_size);
                }
                RequestKind::Range { length, .. } => {
                    prop_assert_eq!(rec.status.code(), 206);
                    prop_assert_eq!(rec.bytes_served, length);
                }
                RequestKind::Conditional => {
                    prop_assert_eq!(rec.status.code(), 304);
                    prop_assert_eq!(rec.bytes_served, 0);
                }
                RequestKind::Hotlink => prop_assert_eq!(rec.status.code(), 403),
                RequestKind::InvalidRange => prop_assert_eq!(rec.status.code(), 416),
                RequestKind::Beacon => prop_assert_eq!(rec.status.code(), 204),
            }
        }
        let stats = sim.stats();
        prop_assert_eq!(stats.requests, n as u64);
        prop_assert_eq!(
            stats.bytes_served,
            records.iter().map(|r| r.bytes_served).sum::<u64>()
        );
    }

    #[test]
    fn replay_equals_serial_serve(
        spec in prop::collection::vec((0u64..30, 0u64..12, 0usize..4, 0usize..6), 0..160),
        regions in 1usize..5,
        ppr in 1usize..3,
        policy_idx in 0usize..3,
    ) {
        let policy = [PolicyKind::Lru, PolicyKind::TwoQ, PolicyKind::Gdsf][policy_idx];
        let requests = batch(&spec, regions);
        for config in replay_configs(ppr, policy) {
            assert_replay_matches_serial(&config, &requests);
        }
    }
}
