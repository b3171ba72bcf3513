//! Single-pass multi-configuration cache sweeps.
//!
//! The paper's §V cache implications (Fig 15/16 and the A1/A5/A7/A8
//! ablations) are grids over cache configurations — policy × capacity ×
//! TTL × topology. Evaluating a grid point used to mean constructing a
//! fresh [`Simulator`], cloning the full request vector, and replaying the
//! whole trace; ablation cost grew linearly with grid size. [`Sweep`]
//! evaluates an entire grid in (near) one pass over the trace instead:
//!
//! 1. the PoP routing partition is computed **once** per distinct topology
//!    ([`RoutePartition`]) and the trace is shared by reference across all
//!    grid points — no per-configuration request clone;
//! 2. pure-LRU capacity points collapse onto an exact [`MattsonCurve`]:
//!    one `O(n log n)` stack pass answers *every* capacity, replacing K
//!    independent replays. A one-pass check skips the curve when some key
//!    changes size, which no curve can model;
//! 3. the remaining plain points replay PoP-major, counters only (no
//!    `LogRecord` materialization): for one PoP at a time, the PoP's
//!    requests are reduced once to a compact stream of body-carrying
//!    cache lookups plus the counters no cache changes (requests, status
//!    codes, bytes served), and the shared worker pool runs every
//!    point's fresh cache over that stream, counting only hits and hit
//!    bytes. Only one PoP's stream is live at a time.
//!
//! Results are byte-identical at any thread count: every grid point is
//! evaluated independently and deterministically, per-PoP totals are
//! summed in PoP order, and results are collected in grid order.
//! Configurations with miss escalation (cooperative siblings, parent
//! tier) are one grid task each, a [`Simulator::replay_stats`] that
//! serves them serially in trace order, so even A7/A8-style points are
//! reproducible. A sweep evaluates a healthy CDN; degraded serving under a
//! fault plan is [`Simulator::with_faults`].

use crate::cache::{CacheKey, PolicyKind};
use crate::mattson::MattsonCurve;
use crate::push::cacheable_key;
use crate::simulator::{build_policy, served_status, SimConfig, Simulator};
use crate::stats::ServeStats;
use crate::topology::Topology;
use oat_httplog::{IdBuildHasher, Request};
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;

/// The per-PoP routing partition of one trace: for each PoP, the indices
/// of the requests it serves, in trace order.
///
/// Routing is a pure function of `(pops_per_region, region, user)`, so one
/// partition is shared by every grid point with the same topology.
#[derive(Debug, Clone)]
pub struct RoutePartition {
    pops_per_region: usize,
    per_pop: Vec<Vec<u32>>,
}

impl RoutePartition {
    /// Routes every request once, pre-sizing each PoP's index list with a
    /// counting pass.
    pub fn build(topology: &Topology, requests: &[Request]) -> Self {
        assert!(
            requests.len() <= u32::MAX as usize,
            "RoutePartition indexes requests with u32"
        );
        let mut counts = vec![0usize; topology.pop_count()];
        for req in requests {
            counts[topology.route(req.region, req.user).raw() as usize] += 1;
        }
        let mut per_pop: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (i, req) in requests.iter().enumerate() {
            per_pop[topology.route(req.region, req.user).raw() as usize].push(i as u32);
        }
        Self {
            pops_per_region: topology.pops_per_region(),
            per_pop,
        }
    }

    /// Per-PoP request indices, in PoP order.
    pub fn per_pop(&self) -> &[Vec<u32>] {
        &self.per_pop
    }

    /// The `pops_per_region` this partition was routed for.
    pub fn pops_per_region(&self) -> usize {
        self.pops_per_region
    }
}

/// How a grid point was evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepEngine {
    /// Answered from the single-pass LRU stack curve (exact, no replay).
    Mattson,
    /// Counters-only trace replay.
    Replay,
}

impl std::fmt::Display for SweepEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SweepEngine::Mattson => "mattson",
            SweepEngine::Replay => "replay",
        })
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The configuration this point evaluated.
    pub config: SimConfig,
    /// Aggregated serving statistics across all PoPs.
    pub stats: ServeStats,
    /// How the point was evaluated.
    pub engine: SweepEngine,
}

/// A configuration-grid evaluator over one shared trace.
///
/// # Example
///
/// ```
/// use oat_cdnsim::{SimConfig, Sweep};
/// use oat_httplog::Request;
///
/// let requests = vec![Request::example(); 4];
/// let grid: Vec<SimConfig> = [1_000_000u64, 4_000_000]
///     .iter()
///     .map(|&cap| SimConfig::default_edge().with_capacity(cap))
///     .collect();
/// let results = Sweep::new(&requests).run(&grid);
/// assert_eq!(results.len(), 2);
/// // Larger caches never hit less:
/// assert!(results[1].stats.hits >= results[0].stats.hits);
/// ```
#[derive(Debug, Clone)]
pub struct Sweep<'a> {
    requests: &'a [Request],
    threads: usize,
}

impl<'a> Sweep<'a> {
    /// Creates a sweep over `requests` (time-sorted, as emitted by the
    /// workload generator) using all cores.
    pub fn new(requests: &'a [Request]) -> Self {
        Self {
            requests,
            threads: 0,
        }
    }

    /// Caps the worker pool (`0` = all cores). Throughput-only: results
    /// are identical at any setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluates every configuration in `configs`, returning results in
    /// the same order.
    pub fn run(&self, configs: &[SimConfig]) -> Vec<SweepResult> {
        // One routing partition per distinct topology that replays plain
        // points or builds a curve; escalating points route inside their
        // own simulator.
        let mut partitions: BTreeMap<usize, RoutePartition> = BTreeMap::new();
        for config in configs.iter().filter(|c| !escalates(c)) {
            let ppr = config.pops_per_region.max(1);
            partitions
                .entry(ppr)
                .or_insert_with(|| RoutePartition::build(&Topology::new(ppr), self.requests));
        }
        // One Mattson curve per topology that has eligible LRU points; the
        // curve replaces every capacity replay it covers. Traces where a
        // key changes size build none, since no curve built on them is
        // exact at any capacity.
        let mut curves: BTreeMap<usize, MattsonCurve> = BTreeMap::new();
        let build_curves =
            configs.iter().any(mattson_eligible) && keys_keep_one_size(self.requests);
        for config in configs
            .iter()
            .filter(|c| build_curves && mattson_eligible(c))
        {
            let ppr = config.pops_per_region.max(1);
            if let std::collections::btree_map::Entry::Vacant(slot) = curves.entry(ppr) {
                if let Some(partition) = partitions.get(&ppr) {
                    slot.insert(MattsonCurve::build(self.requests, partition));
                }
            }
        }

        // Curve-answered points cost one lookup each.
        let mut results: Vec<Option<(ServeStats, SweepEngine)>> = configs
            .iter()
            .map(|config| self.curve_answer(config, &curves))
            .collect();
        // Escalating points are one serial replay each; every other point
        // is a plain replay, run PoP-major per topology. While there are
        // fewer escalating points than workers, the two phases run at the
        // same time, the plain replay on the workers the escalating points
        // leave; otherwise one phase follows the other on every worker.
        let escalating: Vec<usize> = (0..configs.len())
            .filter(|&i| escalates(&configs[i]))
            .collect();
        let plain: Vec<usize> = (0..configs.len())
            .filter(|&i| results[i].is_none() && !escalates(&configs[i]))
            .collect();
        let serve = |&i: &usize| {
            // Served serially in trace order: cross-PoP probes see one
            // deterministic interleaving.
            (i, Simulator::new(&configs[i]).replay_stats(self.requests))
        };
        let threads = oat_stats::pool::resolve_threads(self.threads);
        let (served, replayed) =
            if !escalating.is_empty() && !plain.is_empty() && escalating.len() < threads {
                std::thread::scope(|scope| {
                    let served = scope.spawn(|| parallel_map(escalating.len(), &escalating, serve));
                    let replayed =
                        self.replay_plain(configs, &plain, &partitions, threads - escalating.len());
                    (oat_stats::pool::join(served), replayed)
                })
            } else {
                (
                    parallel_map(threads, &escalating, serve),
                    self.replay_plain(configs, &plain, &partitions, threads),
                )
            };
        for (i, stats) in served.into_iter().chain(replayed) {
            results[i] = Some((stats, SweepEngine::Replay));
        }
        configs
            .iter()
            .zip(results)
            .map(|(config, result)| {
                // Unreachable fallback: every plain point's topology has a
                // partition, so every point is answered above.
                let (stats, engine) = result.unwrap_or((ServeStats::new(), SweepEngine::Replay));
                SweepResult {
                    config: config.clone(),
                    stats,
                    engine,
                }
            })
            .collect()
    }

    /// Answers a Mattson-eligible point from its topology's curve, if the
    /// curve is exact at its capacity.
    fn curve_answer(
        &self,
        config: &SimConfig,
        curves: &BTreeMap<usize, MattsonCurve>,
    ) -> Option<(ServeStats, SweepEngine)> {
        let curve = curves.get(&config.pops_per_region.max(1))?;
        (mattson_eligible(config) && curve.exact_at(config.cache_capacity_bytes)).then(|| {
            (
                curve.stats_at(config.cache_capacity_bytes),
                SweepEngine::Mattson,
            )
        })
    }

    /// Replays the `plain` points of `configs` topology by topology on up
    /// to `threads` workers, returning each point's index and statistics.
    fn replay_plain(
        &self,
        configs: &[SimConfig],
        plain: &[usize],
        partitions: &BTreeMap<usize, RoutePartition>,
        threads: usize,
    ) -> Vec<(usize, ServeStats)> {
        let mut replayed = Vec::with_capacity(plain.len());
        for (&ppr, partition) in partitions {
            let points: Vec<usize> = plain
                .iter()
                .copied()
                .filter(|&i| configs[i].pops_per_region.max(1) == ppr)
                .collect();
            let grid: Vec<&SimConfig> = points.iter().map(|&i| &configs[i]).collect();
            let totals = self.replay_pop_major(partition, &grid, threads);
            replayed.extend(points.into_iter().zip(totals));
        }
        replayed
    }

    /// Replays plain (non-escalating) points over one topology's
    /// partition, one PoP at a time: each PoP's [`PopStream`] is built
    /// once, every point runs a fresh cache over it on the worker pool,
    /// and the per-point totals are merged in PoP order. Only one PoP's
    /// stream is live at a time. Statistics equal [`Simulator::replay`]
    /// followed by [`Simulator::stats`] for the same trace.
    fn replay_pop_major(
        &self,
        partition: &RoutePartition,
        points: &[&SimConfig],
        threads: usize,
    ) -> Vec<ServeStats> {
        let mut totals = vec![ServeStats::new(); points.len()];
        if points.is_empty() {
            return totals;
        }
        for indices in partition.per_pop() {
            let stream = PopStream::build(self.requests, indices);
            let counts = parallel_map(threads, points, |config| stream.replay(config));
            for (total, count) in totals.iter_mut().zip(counts) {
                total.merge(&stream.stats(count));
            }
        }
        totals
    }
}

/// One body-carrying request as a PoP's cache sees it.
#[derive(Debug, Clone, Copy)]
struct BodyOp {
    key: CacheKey,
    size: u64,
    now: u64,
}

/// Hits and hit bytes of one configuration over one [`PopStream`].
#[derive(Debug, Clone, Copy, Default)]
struct HitCount {
    hits: u64,
    hit_bytes: u64,
}

/// One PoP's share of the trace, reduced to what differs between plain
/// grid points: the cache lookup of every body-carrying request, in trace
/// order. Everything else a request adds to [`ServeStats`] — its status,
/// its bytes served, a miss and its origin bytes before any cache answers
/// — is the same at every point, so it is counted once into `base`.
/// Bodyless requests drop out of the per-point replay: a 304, 403, 204 or
/// 416 never counts as a hit or a miss, and the conditional lookup behind
/// a 304 has no side effects on any cache.
#[derive(Debug)]
struct PopStream {
    ops: Vec<BodyOp>,
    base: ServeStats,
}

impl PopStream {
    fn build(requests: &[Request], indices: &[u32]) -> Self {
        let mut ops = Vec::with_capacity(indices.len());
        let mut base = ServeStats::new();
        for req in indices.iter().filter_map(|&i| requests.get(i as usize)) {
            let status = served_status(req.kind);
            match cacheable_key(req) {
                Some((key, size)) => {
                    ops.push(BodyOp {
                        key,
                        size,
                        now: req.timestamp,
                    });
                    base.record(status, false, size);
                }
                None => base.record(status, false, 0),
            }
        }
        Self { ops, base }
    }

    /// Runs a fresh cache for `config` over the stream.
    fn replay(&self, config: &SimConfig) -> HitCount {
        let mut cache = build_policy(config);
        let mut count = HitCount::default();
        for op in &self.ops {
            if cache.request(op.key, op.size, op.now) {
                count.hits += 1;
                count.hit_bytes += op.size;
            }
        }
        count
    }

    /// The PoP's statistics for one point: `base` with `count`'s hits
    /// taken out of its misses and origin bytes.
    fn stats(&self, count: HitCount) -> ServeStats {
        let mut stats = self.base.clone();
        stats.hits = count.hits;
        stats.misses -= count.hits;
        stats.origin_bytes -= count.hit_bytes;
        stats
    }
}

/// Whether a configuration escalates misses to other caches (cooperative
/// siblings, parent tier), so its PoPs cannot replay independently.
fn escalates(config: &SimConfig) -> bool {
    config.cooperative || config.parent_capacity_bytes.is_some()
}

/// Maps `f` over `items` on the shared worker pool of up to `threads`
/// workers (`0` = all cores), returning the results in item order.
fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    oat_stats::pool::parallel_indexed(threads, items.len(), |i| Ok::<_, Infallible>(f(&items[i])))
        .unwrap_or_else(|never| match never {})
}

/// Whether a configuration can be answered from the LRU stack curve
/// (subject to the curve's own [`MattsonCurve::exact_at`] capacity check).
fn mattson_eligible(config: &SimConfig) -> bool {
    config.policy == PolicyKind::Lru && config.ttl_secs.is_none() && !escalates(config)
}

/// Whether every cache key keeps one size across `requests` — the
/// precondition without which no [`MattsonCurve`] is exact. Returns at the
/// first key seen with a second size.
fn keys_keep_one_size(requests: &[Request]) -> bool {
    let mut sizes: HashMap<CacheKey, u64, IdBuildHasher> = HashMap::default();
    requests
        .iter()
        .filter_map(cacheable_key)
        .all(|(key, size)| *sizes.entry(key).or_insert(size) == size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_httplog::{ObjectId, Region, RequestKind, UserId};

    fn trace(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let object = i % 7;
                Request {
                    timestamp: i,
                    object: ObjectId::new(object),
                    // Size is a function of the object id, so every key
                    // keeps one size (the Mattson exactness precondition).
                    object_size: 1_000 + object * 300,
                    user: UserId::new(i % 13),
                    region: Region::ALL[(i % 4) as usize],
                    kind: RequestKind::Full,
                    ..Request::example()
                }
            })
            .collect()
    }

    #[test]
    fn empty_grid_and_empty_trace() {
        assert!(Sweep::new(&[]).run(&[]).is_empty());
        let results = Sweep::new(&[]).run(&[SimConfig::default_edge()]);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].stats, ServeStats::new());
    }

    #[test]
    fn results_follow_grid_order() {
        let requests = trace(200);
        let grid: Vec<SimConfig> = [4_000_000u64, 2_000_000, 8_000_000]
            .iter()
            .map(|&cap| SimConfig::default_edge().with_capacity(cap))
            .collect();
        let results = Sweep::new(&requests).run(&grid);
        let caps: Vec<u64> = results
            .iter()
            .map(|r| r.config.cache_capacity_bytes)
            .collect();
        assert_eq!(caps, vec![4_000_000, 2_000_000, 8_000_000]);
    }

    #[test]
    fn lru_points_use_mattson_and_match_replay() {
        let requests = trace(400);
        let grid = vec![
            SimConfig::default_edge().with_capacity(3_000_000),
            SimConfig::default_edge()
                .with_policy(PolicyKind::Fifo)
                .with_capacity(3_000_000),
        ];
        let results = Sweep::new(&requests).run(&grid);
        assert_eq!(results[0].engine, SweepEngine::Mattson);
        assert_eq!(results[1].engine, SweepEngine::Replay);
        for (config, result) in grid.iter().zip(&results) {
            let sim = Simulator::new(config);
            sim.replay(requests.clone());
            assert_eq!(result.stats, sim.stats(), "policy {}", config.policy);
        }
    }

    #[test]
    fn tiny_capacity_falls_back_to_replay() {
        // Capacity below the largest object: stack inclusion does not
        // apply, so the LRU point must be replayed.
        let requests = trace(100);
        let grid = vec![SimConfig::default_edge().with_capacity(10)];
        let results = Sweep::new(&requests).run(&grid);
        assert_eq!(results[0].engine, SweepEngine::Replay);
        let sim = Simulator::new(&grid[0]);
        sim.replay(requests.clone());
        assert_eq!(results[0].stats, sim.stats());
    }

    #[test]
    fn key_with_two_sizes_replays_every_point() {
        // A video fetched whole and its first chunk fetched by range share
        // one cache key with two sizes.
        let mut requests = trace(300);
        assert!(keys_keep_one_size(&requests));
        requests.push(Request {
            timestamp: 300,
            object: ObjectId::new(1),
            object_size: 1_300,
            kind: RequestKind::Range {
                offset: 0,
                length: 700,
            },
            ..requests[1].clone()
        });
        assert!(!keys_keep_one_size(&requests));
        let grid: Vec<SimConfig> = (1..=4u64)
            .map(|i| SimConfig::default_edge().with_capacity(i * 2_000_000))
            .collect();
        for (config, result) in grid.iter().zip(Sweep::new(&requests).run(&grid)) {
            assert_eq!(result.engine, SweepEngine::Replay);
            assert_eq!(result.stats, Simulator::new(config).replay_stats(&requests));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let requests = trace(300);
        let grid: Vec<SimConfig> = (1..=6u64)
            .map(|i| SimConfig::default_edge().with_capacity(i * 1_500_000))
            .collect();
        let serial = Sweep::new(&requests).with_threads(1).run(&grid);
        for threads in [2, 3, 8] {
            let parallel = Sweep::new(&requests).with_threads(threads).run(&grid);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn escalating_points_are_deterministic() {
        let requests = trace(300);
        let grid = vec![
            SimConfig {
                cooperative: true,
                ..SimConfig::default_edge().with_capacity(2_000_000)
            },
            SimConfig {
                pops_per_region: 2,
                ..SimConfig::default_edge()
            }
            .with_capacity(2_000_000)
            .with_parent(8_000_000),
        ];
        let a = Sweep::new(&requests).with_threads(2).run(&grid);
        let b = Sweep::new(&requests).with_threads(1).run(&grid);
        assert_eq!(a, b);
        assert_eq!(a[0].engine, SweepEngine::Replay);
    }

    #[test]
    fn partition_covers_every_request_once() {
        let requests = trace(500);
        let topo = Topology::new(3);
        let partition = RoutePartition::build(&topo, &requests);
        assert_eq!(partition.pops_per_region(), 3);
        let mut seen = vec![false; requests.len()];
        for indices in partition.per_pop() {
            for &i in indices {
                assert!(!seen[i as usize], "request partitioned twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Within a PoP, indices stay in trace order.
        for indices in partition.per_pop() {
            assert!(indices.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn engine_display_names() {
        assert_eq!(SweepEngine::Mattson.to_string(), "mattson");
        assert_eq!(SweepEngine::Replay.to_string(), "replay");
    }
}
