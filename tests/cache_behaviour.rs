//! Cross-crate cache studies: ablation invariants on real generated
//! traffic (not micro-benchmarks — correctness relations).

use oat::cdnsim::cache::{CachePolicy, LruCache, SlruCache, TieredCache};
use oat::cdnsim::{cacheable_key, plan_push, PolicyKind, SimConfig, Simulator};
use oat::workload::{generate, TraceConfig};

fn trace() -> oat::workload::Trace {
    let config = TraceConfig::small()
        .with_scale(0.004)
        .with_catalog_scale(0.015)
        .with_seed(2024);
    generate(&config).unwrap()
}

fn hit_ratio(policy: PolicyKind, capacity: u64, requests: Vec<oat::httplog::Request>) -> f64 {
    let sim = Simulator::new(
        &SimConfig::default_edge()
            .with_policy(policy)
            .with_capacity(capacity),
    );
    sim.replay(requests);
    sim.stats().hit_ratio().unwrap_or(0.0)
}

#[test]
fn infinite_cache_upper_bounds_every_policy() {
    let trace = trace();
    let ceiling = hit_ratio(PolicyKind::Infinite, u64::MAX, trace.requests.clone());
    assert!(
        ceiling > 0.5,
        "compulsory-miss ceiling is high: {ceiling:.3}"
    );
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Fifo,
        PolicyKind::TwoQ,
        PolicyKind::Gdsf,
        PolicyKind::Slru,
    ] {
        let ratio = hit_ratio(policy, 500_000_000, trace.requests.clone());
        assert!(
            ratio <= ceiling + 1e-9,
            "{policy}: bounded cache cannot beat the infinite ceiling"
        );
        assert!(ratio > 0.0, "{policy}: some hits expected");
    }
}

#[test]
fn more_capacity_never_hurts_lru_much() {
    // LRU is not strictly monotone in capacity for arbitrary traces, but on
    // this workload a 16x capacity increase must help substantially.
    let trace = trace();
    let small = hit_ratio(PolicyKind::Lru, 250_000_000, trace.requests.clone());
    let large = hit_ratio(PolicyKind::Lru, 4_000_000_000, trace.requests.clone());
    assert!(
        large > small + 0.05,
        "capacity should buy hit ratio: {small:.3} -> {large:.3}"
    );
}

#[test]
fn tiered_cache_beats_unified_on_mixed_sizes() {
    // The paper's §IV-B suggestion: small objects deserve their own tier so
    // video churn cannot evict thumbnails.
    let trace = trace();
    let capacity = 400_000_000u64;

    let run = |cache: &mut dyn CachePolicy| {
        let (mut hits, mut total) = (0u64, 0u64);
        for req in &trace.requests {
            if let Some((key, size)) = cacheable_key(req) {
                total += 1;
                hits += u64::from(cache.request(key, size, req.timestamp));
            }
        }
        hits as f64 / total.max(1) as f64
    };

    let mut unified = LruCache::new(capacity);
    let unified_ratio = run(&mut unified);
    let mut tiered = TieredCache::new(
        Box::new(SlruCache::new(capacity * 3 / 10)),
        Box::new(LruCache::new(capacity * 7 / 10)),
        1_000_000,
    );
    let tiered_ratio = run(&mut tiered);
    assert!(
        tiered_ratio > unified_ratio,
        "tiered ({tiered_ratio:.3}) should beat unified ({unified_ratio:.3})"
    );
}

#[test]
fn push_placement_lifts_hit_ratio() {
    let trace = trace();
    let split = trace.config.start_unix + 86_400;
    let day1: Vec<_> = trace
        .requests
        .iter()
        .filter(|r| r.timestamp < split)
        .cloned()
        .collect();
    let rest: Vec<_> = trace
        .requests
        .iter()
        .filter(|r| r.timestamp >= split)
        .cloned()
        .collect();
    assert!(!day1.is_empty() && !rest.is_empty());

    let base_sim = Simulator::new(&SimConfig::default_edge().with_capacity(1_000_000_000));
    base_sim.replay(rest.clone());
    let base = base_sim.stats().hit_ratio().unwrap();

    let plan = plan_push(&day1, 200_000_000);
    assert!(!plan.is_empty());
    // Plan is ranked by observed popularity.
    for w in plan.windows(2) {
        assert!(w[0].observed_requests >= w[1].observed_requests);
    }
    let push_sim = Simulator::new(&SimConfig::default_edge().with_capacity(1_000_000_000));
    push_sim.preload(plan.iter().map(|p| (p.key, p.size)));
    push_sim.replay(rest);
    let pushed = push_sim.stats().hit_ratio().unwrap();
    assert!(
        pushed >= base,
        "pushing day-1 favourites must not hurt: {base:.3} -> {pushed:.3}"
    );
}

#[test]
fn cooperative_caching_lifts_hit_ratio() {
    let trace = trace();
    let plain = Simulator::new(&SimConfig::default_edge().with_capacity(500_000_000));
    plain.replay(trace.requests.clone());
    let isolated = plain.stats().hit_ratio().unwrap();

    let coop_sim = Simulator::new(&SimConfig {
        cooperative: true,
        ..SimConfig::default_edge().with_capacity(500_000_000)
    });
    coop_sim.replay(trace.requests.clone());
    let cooperative = coop_sim.stats().hit_ratio().unwrap();
    assert!(
        cooperative > isolated,
        "sibling lookups should lift hit ratio: {isolated:.3} -> {cooperative:.3}"
    );
}

#[test]
fn parent_tier_beats_flat_edges_at_equal_budget() {
    let trace = trace();
    let edge = 300_000_000u64;
    let run = |config: SimConfig| {
        let sim = Simulator::new(&config);
        sim.replay(trace.requests.clone());
        sim.stats().hit_ratio().unwrap()
    };
    let base = SimConfig {
        pops_per_region: 4,
        ..SimConfig::default_edge()
    };
    let tiered = run(base.clone().with_capacity(edge).with_parent(4 * edge));
    let flat = run(base.with_capacity(2 * edge));
    assert!(
        tiered > flat,
        "shared parent should beat flat edges at equal bytes: {tiered:.3} vs {flat:.3}"
    );
}

#[test]
fn ttl_reduces_hit_ratio_monotonically() {
    let trace = trace();
    let mut previous = -1.0f64;
    for ttl in [3_600u64, 21_600, 86_400, 7 * 86_400] {
        let sim = Simulator::new(&SimConfig {
            ttl_secs: Some(ttl),
            ..SimConfig::default_edge()
        });
        sim.replay(trace.requests.clone());
        let ratio = sim.stats().hit_ratio().unwrap();
        assert!(
            ratio >= previous - 0.02,
            "longer TTL should not reduce hit ratio much: ttl {ttl} gave {ratio:.3} after {previous:.3}"
        );
        previous = ratio;
    }
    // And no TTL at all is the ceiling.
    let sim = Simulator::new(&SimConfig::default_edge());
    sim.replay(trace.requests.clone());
    assert!(sim.stats().hit_ratio().unwrap() >= previous - 1e-9);
}
