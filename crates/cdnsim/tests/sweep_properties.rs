//! Property-based tests for the sweep engine and the Mattson curve.
//!
//! The load-bearing property: the single-pass multi-capacity LRU curve is
//! *exact* — equal to a brute-force per-capacity cache replay, counter for
//! counter — at every capacity admitting the largest object. Everything
//! the sweep engine answers from the curve is cross-checked against the
//! simulator it replaces.

use oat_cdnsim::{MattsonCurve, PolicyKind, RoutePartition, SimConfig, Simulator, Sweep, Topology};
use oat_httplog::{ObjectId, Region, Request, RequestKind, UserId};
use proptest::prelude::*;

/// Deterministic per-object size, so every key keeps one size across the
/// trace (the Mattson exactness precondition, which generated traces break).
fn size_of(obj: u64) -> u64 {
    500 + (obj % 17) * 100
}

/// Builds a mixed trace: Full and Range bodies (fixed size per key) plus
/// all four bodyless kinds, spread over users and regions.
fn trace(shape: &[(u64, u64, usize, usize)]) -> Vec<Request> {
    shape
        .iter()
        .enumerate()
        .map(|(t, &(obj, user, region, kind))| {
            let kind = match kind {
                0 | 1 => RequestKind::Full,
                2 => RequestKind::Range {
                    offset: 0,
                    length: size_of(obj),
                },
                3 => RequestKind::Conditional,
                4 => RequestKind::Hotlink,
                5 => RequestKind::Beacon,
                _ => RequestKind::InvalidRange,
            };
            Request {
                timestamp: t as u64,
                object: ObjectId::new(obj),
                object_size: size_of(obj),
                user: UserId::new(user),
                region: Region::ALL[region],
                kind,
                ..Request::example()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mattson == brute-force LRU replay at every sampled capacity: the
    /// full `ServeStats` (hits, misses, origin bytes, status and byte
    /// counters), the hit ratio, and the byte-hit ratio all agree.
    #[test]
    fn mattson_matches_bruteforce_lru_replay(
        shape in prop::collection::vec((0u64..25, 0u64..12, 0usize..4, 0usize..7), 1..300),
    ) {
        let requests = trace(&shape);
        let partition = RoutePartition::build(&Topology::new(1), &requests);
        let curve = MattsonCurve::build(&requests, &partition);
        prop_assert!(curve.sizes_consistent());
        for offset in [0u64, 250, 900, 2_000, 10_000] {
            let capacity = curve.max_access_bytes() + offset;
            prop_assert!(curve.exact_at(capacity));
            let sim = Simulator::new(&SimConfig::default_edge().with_capacity(capacity));
            sim.replay(requests.clone());
            let replayed = sim.stats();
            prop_assert_eq!(curve.stats_at(capacity), replayed.clone(), "capacity {}", capacity);
            prop_assert_eq!(curve.hit_ratio(capacity), replayed.hit_ratio());
            // byte_hit_ratio and byte_savings compute the same quantity via
            // different float expressions; compare to an ulp-scale bound.
            match (curve.byte_hit_ratio(capacity), replayed.byte_savings()) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-12),
                (None, None) => {}
                (a, b) => prop_assert!(false, "ratio presence mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    /// Sweep results are byte-identical at 1 vs N worker threads.
    #[test]
    fn sweep_identical_at_any_thread_count(
        shape in prop::collection::vec((0u64..25, 0u64..12, 0usize..4, 0usize..7), 1..250),
        caps in prop::collection::vec(400u64..60_000, 1..8),
    ) {
        let requests = trace(&shape);
        let policies = [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::Fifo, PolicyKind::Slru];
        let grid: Vec<SimConfig> = caps
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                let mut config = SimConfig::default_edge()
                    .with_policy(policies[i % policies.len()])
                    .with_capacity(cap);
                if i % 3 == 2 {
                    config.ttl_secs = Some(50);
                }
                config
            })
            .collect();
        let serial = Sweep::new(&requests).with_threads(1).run(&grid);
        for threads in [2usize, 4, 8] {
            let parallel = Sweep::new(&requests).with_threads(threads).run(&grid);
            prop_assert_eq!(&serial, &parallel, "threads {}", threads);
        }
    }

    /// Every sweep grid point equals an independent simulator run of the
    /// same configuration, counter for counter — status codes and bytes
    /// served included — for every policy with TTL on and off, at one to
    /// three PoPs per region: Mattson-answered LRU points, PoP-major
    /// replayed points and serially served escalating points alike.
    #[test]
    fn sweep_matches_independent_simulator(
        shape in prop::collection::vec((0u64..25, 0u64..12, 0usize..4, 0usize..7), 1..250),
        cap in 400u64..100_000,
        ttl in 1u64..100,
    ) {
        let requests = trace(&shape);
        let mut grid = Vec::new();
        for pops_per_region in 1..=3 {
            let base = SimConfig { pops_per_region, ..SimConfig::default_edge() }.with_capacity(cap);
            for policy in PolicyKind::ALL {
                grid.push(base.clone().with_policy(policy));
                grid.push(SimConfig { ttl_secs: Some(ttl), ..base.clone().with_policy(policy) });
            }
            grid.push(SimConfig { cooperative: true, ..base.clone() });
            grid.push(base.with_parent(4 * cap));
        }
        let results = Sweep::new(&requests).run(&grid);
        for (config, result) in grid.iter().zip(&results) {
            // `replay_stats` serves escalating points serially in trace
            // order, the interleaving the sweep engine uses.
            let expected = Simulator::new(config).replay_stats(&requests);
            prop_assert_eq!(&result.stats, &expected, "config {:?}", config);
        }
    }

    /// The counters-only fast path equals record-producing replay.
    #[test]
    fn replay_stats_equals_replay(
        shape in prop::collection::vec((0u64..25, 0u64..12, 0usize..4, 0usize..7), 1..250),
        cap in 400u64..100_000,
        policy_idx in 0usize..3,
        ttl in prop::option::of(1u64..100),
    ) {
        let mut config = SimConfig::default_edge()
            .with_policy([PolicyKind::Lru, PolicyKind::TwoQ, PolicyKind::Gdsf][policy_idx])
            .with_capacity(cap);
        config.ttl_secs = ttl;
        let requests = trace(&shape);
        let with_records = Simulator::new(&config);
        with_records.replay(requests.clone());
        let counters_only = Simulator::new(&config);
        let stats = counters_only.replay_stats(&requests);
        prop_assert_eq!(&stats, &with_records.stats());
        prop_assert_eq!(&counters_only.stats(), &with_records.stats());
    }
}
