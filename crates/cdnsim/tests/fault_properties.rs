//! Property-based tests for the fault-injection layer: backoff shape,
//! plan serialization, and thread-invariant degraded replay.

use oat_cdnsim::faults::{Brownout, FaultPlan, PopOutage, RetryPolicy, Window};
use oat_cdnsim::{SimConfig, Simulator};
use oat_httplog::{DegradedServe, LogRecord, ObjectId, Region, Request, RequestKind, UserId};
use proptest::prelude::*;

fn trace(spec: &[(u64, u64, usize, usize)]) -> Vec<Request> {
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
                _ => RequestKind::Beacon,
            };
            Request {
                timestamp: t as u64,
                object: ObjectId::new(obj),
                object_size: 1_000 + obj * 200,
                user: UserId::new(user),
                region: Region::ALL[region % 4],
                kind,
                ..Request::example()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backoff_is_monotone_and_capped(
        base in 1u64..10_000,
        max in 1u64..1_000_000,
        attempts in 1u32..64,
    ) {
        let retry = RetryPolicy {
            max_retries: 8,
            base_backoff_ms: base,
            max_backoff_ms: max,
            jitter_frac: 0.5,
        };
        let mut prev = 0;
        for attempt in 1..=attempts {
            let b = retry.backoff_ms(attempt);
            prop_assert!(b >= prev, "backoff decreased at attempt {attempt}");
            prop_assert!(b <= max, "backoff {b} above cap {max}");
            prev = b;
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded(
        seed in any::<u64>(),
        identity in any::<u64>(),
        attempt in 1u32..20,
        jitter_frac in 0.0f64..=1.0,
    ) {
        let retry = RetryPolicy {
            jitter_frac,
            ..RetryPolicy::default()
        };
        let a = retry.jittered_backoff_ms(seed, identity, attempt);
        let b = retry.jittered_backoff_ms(seed, identity, attempt);
        prop_assert_eq!(a, b, "jitter must be a pure function");
        let base = retry.backoff_ms(attempt);
        prop_assert!(a >= base);
        prop_assert!(a as f64 <= base as f64 * (1.0 + jitter_frac) + 1.0);
    }

    #[test]
    fn sampled_plans_round_trip_through_toml(seed in any::<u64>()) {
        let plan = FaultPlan::sample(seed, 604_800, 8);
        plan.validate().expect("sampled plans validate");
        let parsed = FaultPlan::from_toml_str(&plan.to_toml()).expect("own output parses");
        prop_assert_eq!(parsed, plan);
    }

    #[test]
    fn faulted_replay_is_reproducible_and_matches_serial(
        spec in prop::collection::vec((0u64..20, 0u64..12, 0usize..4, 0usize..5), 1..250),
        seed in any::<u64>(),
    ) {
        let requests = trace(&spec);
        let plan = FaultPlan::sample(seed, requests.len() as u64, 8);
        let plain = SimConfig {
            pops_per_region: 2,
            ..SimConfig::default_edge()
        };
        // Escalating configurations probe siblings or the regional parent
        // on a local miss, failed-over requests included.
        let cooperative = SimConfig {
            cooperative: true,
            ..plain.clone()
        };
        let parent_tier = SimConfig {
            parent_capacity_bytes: Some(1_000_000_000),
            ..plain.clone()
        };
        for config in [plain, cooperative, parent_tier] {
            let serial_sim = Simulator::new(&config).with_faults(plan.clone());
            let serial: Vec<LogRecord> = requests
                .iter()
                .cloned()
                .map(|r| serial_sim.serve(r))
                .collect();
            // Parallel replay emits byte-identical records in input order.
            let par_sim = Simulator::new(&config).with_faults(plan.clone());
            let parallel = par_sim.replay(requests.clone());
            prop_assert_eq!(&parallel, &serial);
            prop_assert_eq!(par_sim.stats(), serial_sim.stats());
            // Counters-only replay agrees counter for counter.
            let stats_sim = Simulator::new(&config).with_faults(plan.clone());
            prop_assert_eq!(stats_sim.replay_stats(&requests), serial_sim.stats());
            // A second run from scratch reproduces the first exactly.
            let again = Simulator::new(&config)
                .with_faults(plan.clone())
                .replay(requests.clone());
            prop_assert_eq!(again, serial);
        }
    }

    #[test]
    fn empty_plan_never_degrades(
        spec in prop::collection::vec((0u64..20, 0u64..12, 0usize..4, 0usize..5), 1..200),
        seed in any::<u64>(),
    ) {
        let requests = trace(&spec);
        let healthy = Simulator::new(&SimConfig::default_edge());
        let expected = healthy.replay(requests.clone());
        let faulted = Simulator::new(&SimConfig::default_edge()).with_faults(FaultPlan::new(seed));
        let records = faulted.replay(requests);
        prop_assert_eq!(&records, &expected);
        for rec in &records {
            prop_assert_eq!(rec.degraded, DegradedServe::None);
            prop_assert_eq!(rec.retries, 0);
        }
        let stats = faulted.stats();
        prop_assert_eq!(stats.shed + stats.stale_hits + stats.degraded_hits, 0);
        prop_assert_eq!(stats.availability().unwrap_or(1.0), 1.0);
    }

    #[test]
    fn availability_is_a_probability(
        spec in prop::collection::vec((0u64..10, 0u64..8, 0usize..4, 0usize..2), 1..200),
        seed in any::<u64>(),
        failure_prob in 0.0f64..=1.0,
    ) {
        let requests = trace(&spec);
        let mut plan = FaultPlan::new(seed);
        plan.brownouts.push(Brownout {
            window: Window::new(0, requests.len() as u64),
            failure_prob,
        });
        plan.outages.push(PopOutage {
            pop: 0,
            window: Window::new(0, requests.len() as u64 / 2),
        });
        let sim = Simulator::new(&SimConfig::default_edge()).with_faults(plan);
        let stats = sim.replay_stats(&requests);
        let availability = stats.availability().expect("trace is non-empty");
        prop_assert!((0.0..=1.0).contains(&availability));
        prop_assert!(stats.shed <= stats.requests);
        prop_assert_eq!(stats.requests, requests.len() as u64);
    }
}
