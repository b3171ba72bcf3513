//! The CDN edge simulator: routes requests to PoPs, applies HTTP
//! semantics, runs the caches, and emits finished log records.

use crate::cache::{CacheKey, CachePolicy, PolicyKind, TtlCache};
use crate::faults::{splitmix64, FaultClock, FaultPlan, OriginFetch};
use crate::push::cacheable_key;
use crate::stats::ServeStats;
use crate::topology::Topology;
use oat_httplog::{CacheStatus, DegradedServe, HttpStatus, LogRecord, PopId, Request, RequestKind};
use std::sync::{Mutex, PoisonError, TryLockError};

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// PoPs per region (total PoPs = 4 × this).
    pub pops_per_region: usize,
    /// Byte capacity of each PoP's cache.
    pub cache_capacity_bytes: u64,
    /// Eviction policy.
    pub policy: PolicyKind,
    /// Optional freshness TTL (ablation A5); `None` disables expiry.
    pub ttl_secs: Option<u64>,
    /// Cooperative caching: on a local miss, probe sibling PoPs and serve
    /// from them instead of the origin when they hold the object (the
    /// paper's "customized networked cache configuration", §V).
    pub cooperative: bool,
    /// Optional regional parent tier: one shared parent cache per region
    /// with this byte capacity; edge misses fall through to the parent
    /// before hitting the origin ("cache placement strategies").
    pub parent_capacity_bytes: Option<u64>,
}

impl SimConfig {
    /// A sensible default: one PoP per region, 4 GB LRU caches, no TTL.
    pub fn default_edge() -> Self {
        Self {
            pops_per_region: 1,
            cache_capacity_bytes: 4_000_000_000,
            policy: PolicyKind::Lru,
            ttl_secs: None,
            cooperative: false,
            parent_capacity_bytes: None,
        }
    }

    /// Sets the policy (builder-style).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets per-PoP capacity (builder-style).
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Adds a regional parent cache tier (builder-style).
    pub fn with_parent(mut self, capacity_bytes: u64) -> Self {
        self.parent_capacity_bytes = Some(capacity_bytes);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::default_edge()
    }
}

/// Miss-escalation probe: given a key and its size, returns whether some
/// upstream copy (regional parent / sibling PoP) can spare the origin.
pub(crate) type MissProbe<'a> = &'a dyn Fn(&CacheKey, u64) -> bool;

/// Builds one PoP cache for `config` — the policy, wrapped in a TTL layer
/// when freshness expiry is configured.
pub(crate) fn build_policy(config: &SimConfig) -> Box<dyn CachePolicy> {
    match config.ttl_secs {
        Some(ttl) => Box::new(TtlCache::new(
            BoxedPolicy(config.policy.build(config.cache_capacity_bytes)),
            ttl,
        )),
        None => config.policy.build(config.cache_capacity_bytes),
    }
}

/// The status a request is answered with when it is served normally:
/// `200`/`206` for the body-carrying kinds, a fixed bodyless status for
/// the rest. The cache decides only hit or miss, never the status.
pub(crate) fn served_status(kind: RequestKind) -> HttpStatus {
    match kind {
        RequestKind::Full => HttpStatus::OK,
        RequestKind::Range { .. } => HttpStatus::PARTIAL_CONTENT,
        RequestKind::Conditional => HttpStatus::NOT_MODIFIED,
        RequestKind::Hotlink => HttpStatus::FORBIDDEN,
        RequestKind::Beacon => HttpStatus::NO_CONTENT,
        RequestKind::InvalidRange => HttpStatus::RANGE_NOT_SATISFIABLE,
    }
}

/// Applies HTTP + cache semantics for one request against one cache,
/// returning `(status, cache status, body bytes)` without touching any
/// statistics or building a record. This is the single source of truth for
/// request semantics — [`Simulator::serve_at`] and the sweep engine route
/// through it or its two parts, [`served_status`] and [`cacheable_key`].
pub(crate) fn serve_outcome(
    cache: &mut dyn CachePolicy,
    request: &Request,
    probe: Option<MissProbe<'_>>,
) -> (HttpStatus, CacheStatus, u64) {
    let status = served_status(request.kind);
    let (hit, bytes) = match cacheable_key(request) {
        // The CDN treats video chunks as separate cacheable objects
        // (paper §V). A local miss may still be spared the origin by a
        // parent or sibling copy.
        Some((key, bytes)) => (
            cache.request(key, bytes, request.timestamp) || probe.is_some_and(|p| p(&key, bytes)),
            bytes,
        ),
        // The client holds a fresh copy; the edge answers 304 from its own
        // copy if cached (no body either way). `contains` has no side
        // effects, so a bodyless request never changes the cache.
        None if request.kind == RequestKind::Conditional => {
            (cache.contains(&CacheKey::whole(request.object)), 0)
        }
        None => (false, 0),
    };
    let cache_status = if hit {
        CacheStatus::Hit
    } else {
        CacheStatus::Miss
    };
    (status, cache_status, bytes)
}

/// A stable identity for one request, independent of routing and thread
/// scheduling — the key every per-request fault draw (fetch failures,
/// retry jitter) is derived from, so fault decisions replay identically
/// at any thread count.
pub(crate) fn request_identity(request: &Request) -> u64 {
    let kind = match request.kind {
        RequestKind::Full => 1,
        RequestKind::Range { offset, length } => splitmix64(2 ^ offset.wrapping_mul(31) ^ length),
        RequestKind::Conditional => 3,
        RequestKind::Hotlink => 4,
        RequestKind::Beacon => 5,
        RequestKind::InvalidRange => 6,
    };
    splitmix64(
        request.timestamp
            ^ splitmix64(request.user.raw() ^ splitmix64(request.object.raw() ^ kind)),
    )
}

/// What one serve produced, before a record is built from it.
#[derive(Debug, Clone, Copy)]
struct DegradedOutcome {
    status: HttpStatus,
    cache_status: CacheStatus,
    bytes: u64,
    degraded: DegradedServe,
    retries: u8,
}

impl DegradedOutcome {
    fn shed(retries: u8) -> Self {
        Self {
            status: HttpStatus::SERVICE_UNAVAILABLE,
            cache_status: CacheStatus::Miss,
            bytes: 0,
            degraded: DegradedServe::Shed,
            retries,
        }
    }

    /// Moves `request` into its finished record, served at `pop`.
    fn into_record(self, request: Request, pop: PopId) -> LogRecord {
        request.into_record_degraded(
            pop,
            self.cache_status,
            self.status,
            self.bytes,
            self.degraded,
            self.retries,
        )
    }
}

struct Pop {
    cache: Box<dyn CachePolicy>,
    stats: ServeStats,
    /// Capacity-pressure token bucket: the second `bucket_count` refers
    /// to. `u64::MAX` until the first pressured request arrives.
    bucket_sec: u64,
    /// Body-carrying requests admitted during `bucket_sec`.
    bucket_count: u32,
}

impl Pop {
    /// Capacity pressure: whether a body-carrying request at `t` exceeds
    /// this PoP's per-second admission `budget`, admitting it into the
    /// second's bucket otherwise. Requests arrive in trace order per PoP,
    /// so the bucket is deterministic.
    fn over_budget(&mut self, budget: u32, t: u64) -> bool {
        if self.bucket_sec != t {
            self.bucket_sec = t;
            self.bucket_count = 0;
        }
        if self.bucket_count >= budget {
            return true;
        }
        self.bucket_count += 1;
        false
    }
}

impl std::fmt::Debug for Pop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pop")
            .field("entries", &self.cache.len())
            .field("bytes", &self.cache.bytes_used())
            .finish()
    }
}

/// A multi-PoP CDN edge.
///
/// Every request is served through one path under a fault schedule: a
/// healthy simulator's schedule is an empty [`FaultPlan`], under which
/// that path serves exactly as a CDN with no faults. `serve` takes `&self`
/// (PoPs are individually locked), so traces can be replayed in parallel
/// with [`Simulator::replay`].
///
/// # Example
///
/// ```
/// use oat_cdnsim::{SimConfig, Simulator};
/// use oat_httplog::Request;
///
/// let sim = Simulator::new(&SimConfig::default_edge());
/// let record = sim.serve(Request::example());
/// assert_eq!(record.status.code(), 206);
/// ```
#[derive(Debug)]
pub struct Simulator {
    topology: Topology,
    /// Every lock site takes a poisoned lock's data as is: the panic that
    /// poisoned it re-raises on the caller that joins the worker.
    pops: Vec<Mutex<Pop>>,
    cooperative: bool,
    /// One parent cache per region, when the tier is configured.
    parents: Vec<Mutex<Box<dyn CachePolicy>>>,
    /// Fault schedule: empty unless set by [`Simulator::with_faults`].
    faults: FaultClock,
}

impl Simulator {
    /// Builds a simulator from a config.
    pub fn new(config: &SimConfig) -> Self {
        let topology = Topology::new(config.pops_per_region.max(1));
        let pops = topology
            .pops()
            .map(|_| {
                Mutex::new(Pop {
                    cache: build_policy(config),
                    stats: ServeStats::new(),
                    bucket_sec: u64::MAX,
                    bucket_count: 0,
                })
            })
            .collect();
        let parents = match config.parent_capacity_bytes {
            Some(capacity) => oat_httplog::Region::ALL
                .iter()
                .map(|_| Mutex::new(config.policy.build(capacity)))
                .collect(),
            None => Vec::new(),
        };
        Self {
            topology,
            pops,
            cooperative: config.cooperative,
            parents,
            faults: FaultClock::new(FaultPlan::default()),
        }
    }

    /// Replaces the fault schedule (builder-style): all subsequent serving
    /// consults the plan for PoP outages, origin brownouts, latency
    /// inflation and capacity pressure, degrading gracefully (failover,
    /// stale-while-revalidate, load shedding) instead of assuming a
    /// healthy CDN. An empty plan leaves behavior identical to a
    /// fault-free simulator.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultClock::new(plan);
        self
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether any miss-escalation path (sibling probe / parent tier) is
    /// configured.
    fn escalates(&self) -> bool {
        self.cooperative || !self.parents.is_empty()
    }

    /// Serves one request, returning the finished log record.
    pub fn serve(&self, request: Request) -> LogRecord {
        let (pop, outcome) = self.serve_locked(&request);
        outcome.into_record(request, pop)
    }

    /// Locks the request's partition PoP and serves the request there:
    /// the serial path behind [`Simulator::serve`] and escalating replays.
    fn serve_locked(&self, request: &Request) -> (PopId, DegradedOutcome) {
        let pop_id = self.partition_pop(request);
        let mut pop = self.pops[pop_id.raw() as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (pop_id, self.serve_at(&mut pop, pop_id, request))
    }

    /// The PoP whose cache and statistics a request's serve touches: the
    /// routed PoP when it is up, else its first healthy sibling in
    /// deterministic wrap-around order (failover), else the routed PoP
    /// again (the whole region is dark and the request is shed there).
    /// Parallel replay partitions by it, so each PoP's state is owned by
    /// exactly one replay worker.
    fn partition_pop(&self, request: &Request) -> PopId {
        let routed = self.topology.route(request.region, request.user);
        let t = request.timestamp;
        if !self.faults.pop_down(routed, t) {
            return routed;
        }
        self.topology
            .siblings(routed)
            .find(|&sibling| !self.faults.pop_down(sibling, t))
            .unwrap_or(routed)
    }

    /// Serves one request at `pop_id`, its [`Simulator::partition_pop`],
    /// whose lock the caller holds as `pop`, and counts it there. This is
    /// the one serve path, healthy or degraded; under an empty plan no
    /// check below fires and the request is served by [`serve_outcome`].
    ///
    /// Check order:
    ///
    /// 1. PoP outage: a partition PoP that is down means every PoP of the
    ///    region is down, so the request is shed, accounted to the PoP
    ///    the user was sent to. A request served at a sibling is tagged
    ///    `Failover`.
    /// 2. Capacity pressure: body-carrying requests beyond the PoP's
    ///    per-second budget are shed before they touch the cache.
    /// 3. Origin brownout, for body-carrying requests: a fresh cached copy
    ///    ([`CachePolicy::peek`]) serves normally, and the origin is not
    ///    involved. Otherwise the origin fetch is resolved through the
    ///    plan's retry schedule. Success serves normally (the retries are
    ///    accounted). Failure serves a present-but-stale copy as `Stale`
    ///    (stale-while-revalidate) **without mutating the cache** — no TTL
    ///    refresh, no recency bump, no admission — because no origin fetch
    ///    actually completed; with no cached copy the request is shed
    ///    with `503`. Escalation probes are skipped on a failed fetch: in
    ///    this model they revalidate through the same browning origin.
    ///    Conditional 304s are answered from the edge's own validators and
    ///    never consult the origin.
    /// 4. [`serve_outcome`], with the parent / sibling probe when the
    ///    configuration escalates misses.
    fn serve_at(&self, pop: &mut Pop, pop_id: PopId, request: &Request) -> DegradedOutcome {
        let t = request.timestamp;
        let clock = &self.faults;
        let key = cacheable_key(request);
        let shed = clock.pop_down(pop_id, t)
            || key
                .and_then(|_| clock.pressure_budget(pop_id, t))
                .is_some_and(|budget| pop.over_budget(budget, t));
        let outcome = if shed {
            DegradedOutcome::shed(0)
        } else {
            let fetch = match key {
                Some((key, _)) if clock.failure_prob(t).is_some() && !pop.cache.peek(&key, t) => {
                    clock.origin_fetch(t, request_identity(request))
                }
                _ => OriginFetch::CLEAN,
            };
            match key {
                Some((key, bytes)) if !fetch.ok && pop.cache.contains(&key) => DegradedOutcome {
                    status: served_status(request.kind),
                    cache_status: CacheStatus::Hit,
                    bytes,
                    degraded: DegradedServe::Stale,
                    retries: fetch.retries,
                },
                _ if !fetch.ok => DegradedOutcome::shed(fetch.retries),
                _ => {
                    let probe = self
                        .escalates()
                        .then(|| self.escalation_probe(pop_id, request.region, t));
                    let probe = probe.as_ref().map(|p| p as MissProbe<'_>);
                    let (status, cache_status, bytes) =
                        serve_outcome(pop.cache.as_mut(), request, probe);
                    let failover = pop_id != self.topology.route(request.region, request.user);
                    DegradedOutcome {
                        status,
                        cache_status,
                        bytes,
                        degraded: if failover {
                            DegradedServe::Failover
                        } else {
                            DegradedServe::None
                        },
                        retries: fetch.retries,
                    }
                }
            }
        };
        if outcome.status != HttpStatus::SERVICE_UNAVAILABLE && clock.latency_factor(t) > 1.0 {
            pop.stats.note_inflated();
        }
        pop.stats
            .record(outcome.status, outcome.cache_status.is_hit(), outcome.bytes);
        pop.stats
            .note_degraded(outcome.degraded, outcome.retries, outcome.bytes);
        outcome
    }

    /// The miss-escalation probe for a PoP: the regional parent (if any)
    /// is consulted first — a real fetch that admits into the parent —
    /// then siblings are probed with `try_lock`, so concurrent `serve`
    /// calls cannot deadlock on each other's PoPs (a sibling busy with
    /// another caller's request counts as a miss). Replays serve
    /// escalating configurations serially, so there no sibling is busy.
    fn escalation_probe(
        &self,
        pop_id: PopId,
        region: oat_httplog::Region,
        timestamp: u64,
    ) -> impl Fn(&CacheKey, u64) -> bool + '_ {
        move |key: &CacheKey, size: u64| {
            if !self.parents.is_empty() {
                let mut parent = self.parents[region.code() as usize]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if parent.request(*key, size, timestamp) {
                    return true;
                }
            }
            self.cooperative
                && self.pops.iter().enumerate().any(|(i, sibling)| {
                    if i == pop_id.raw() as usize {
                        return false;
                    }
                    let sibling = match sibling.try_lock() {
                        Ok(sibling) => sibling,
                        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                        Err(TryLockError::WouldBlock) => return false,
                    };
                    sibling.cache.contains(key)
                })
        }
    }

    /// Replays a time-sorted request batch and returns its records in
    /// input order, equal to serving the batch serially with
    /// [`Simulator::serve`].
    ///
    /// Non-escalating configurations serve each PoP's requests by
    /// reference on that PoP's own thread, collecting one small outcome
    /// per request; one ordered pass then moves every request into its
    /// record, reusing the input buffer, so no request is copied.
    /// Escalating configurations (cooperative siblings, parent tier) probe
    /// other PoPs' caches, so they are served serially in trace order:
    /// their records repeat from run to run.
    pub fn replay(&self, requests: Vec<Request>) -> Vec<LogRecord> {
        if self.escalates() {
            return requests.into_iter().map(|r| self.serve(r)).collect();
        }
        let (pop_of, per_pop) = self.route_batch(&requests);
        let mut outcomes: Vec<Vec<_>> = per_pop
            .iter()
            .map(|part| Vec::with_capacity(part.len()))
            .collect();
        self.serve_routed(
            &requests,
            &per_pop,
            &mut outcomes,
            |served, pop, outcome| served.push((pop, outcome)),
        );
        // The index lists are spent; free them before the records grow.
        drop(per_pop);
        let mut cursors: Vec<_> = outcomes.into_iter().map(Vec::into_iter).collect();
        // Each PoP's outcomes are in its requests' trace order, so the
        // PoP's cursor always holds this request's outcome. A `LogRecord`
        // is no larger than a `Request`, so this collect writes the
        // records into the requests' own buffer.
        requests
            .into_iter()
            .zip(pop_of)
            .filter_map(|(request, pop)| {
                cursors
                    .get_mut(pop.raw() as usize)
                    .and_then(Iterator::next)
                    .map(|(pop, outcome)| outcome.into_record(request, pop))
            })
            .collect()
    }

    /// Counters-only replay: serves a time-sorted request slice and
    /// returns the aggregated statistics without materializing a
    /// [`LogRecord`] per request — no per-record allocation, no output
    /// vector, no order-restoring pass. The trace is borrowed, never
    /// cloned. Statistics equal [`Simulator::replay`] followed by
    /// [`Simulator::stats`] on the same trace.
    ///
    /// Like `replay`, non-escalating configurations replay in parallel
    /// across PoPs (each PoP's subsequence is independent), and escalating
    /// configurations (cooperative siblings, parent tier) are served
    /// serially in trace order, so cross-PoP probes see one deterministic
    /// interleaving.
    pub fn replay_stats(&self, requests: &[Request]) -> ServeStats {
        if self.escalates() {
            for req in requests {
                self.serve_locked(req);
            }
            return self.stats();
        }
        let (_, per_pop) = self.route_batch(requests);
        self.serve_routed(
            requests,
            &per_pop,
            &mut vec![(); per_pop.len()],
            |_, _, _| (),
        );
        self.stats()
    }

    /// Routes every request of a batch once to its partition PoP (see
    /// [`Simulator::partition_pop`]). Returns each request's PoP and, per
    /// PoP, the `u32` indices of its requests in trace order; a counting
    /// pass pre-sizes every index list.
    fn route_batch(&self, requests: &[Request]) -> (Vec<PopId>, Vec<Vec<u32>>) {
        assert!(
            requests.len() <= u32::MAX as usize,
            "replay indexes requests with u32"
        );
        let pop_of: Vec<PopId> = requests.iter().map(|r| self.partition_pop(r)).collect();
        let mut counts = vec![0usize; self.pops.len()];
        for pop in &pop_of {
            counts[pop.raw() as usize] += 1;
        }
        let mut per_pop: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (i, pop) in pop_of.iter().enumerate() {
            per_pop[pop.raw() as usize].push(i as u32);
        }
        (pop_of, per_pop)
    }

    /// Serves each PoP's routed requests (from [`Simulator::route_batch`])
    /// on its own scoped thread, in trace order per PoP, folding each
    /// `(serving PoP, outcome)` into that PoP's accumulator in `accs`.
    /// The accumulators are the caller's, so whatever they hold is
    /// allocated on the calling thread.
    ///
    /// Each worker locks its PoP once and serves the whole part through
    /// [`Simulator::serve_at`]. Only for non-escalating configurations:
    /// every request of a part touches only that part's PoP (the
    /// partition is by [`Simulator::partition_pop`]), so each worker owns
    /// its PoP outright.
    fn serve_routed<T, F>(
        &self,
        requests: &[Request],
        per_pop: &[Vec<u32>],
        accs: &mut [T],
        fold: F,
    ) where
        T: Send,
        F: Fn(&mut T, PopId, DegradedOutcome) + Sync,
    {
        let serve_part = |pop_idx: usize, part: &[u32], acc: &mut T| {
            let Some(pop) = self.pops.get(pop_idx) else {
                return;
            };
            let pop_id = PopId::new(pop_idx as u16);
            let mut pop = pop.lock().unwrap_or_else(PoisonError::into_inner);
            for request in part.iter().filter_map(|&i| requests.get(i as usize)) {
                fold(acc, pop_id, self.serve_at(&mut pop, pop_id, request));
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_pop
                .iter()
                .zip(accs.iter_mut())
                .enumerate()
                .filter(|(_, (part, _))| !part.is_empty())
                .map(|(pop_idx, (part, acc))| {
                    let serve_part = &serve_part;
                    scope.spawn(move || serve_part(pop_idx, part, acc))
                })
                .collect();
            handles.into_iter().for_each(oat_stats::pool::join);
        });
    }

    /// Pushes (prefetches) entries into *every* PoP cache — the paper's
    /// "push copies of popular objects closer to end-users" implication.
    pub fn preload<I>(&self, placements: I)
    where
        I: IntoIterator<Item = (CacheKey, u64)>,
    {
        let placements: Vec<(CacheKey, u64)> = placements.into_iter().collect();
        for pop in &self.pops {
            let mut pop = pop.lock().unwrap_or_else(PoisonError::into_inner);
            for &(key, size) in &placements {
                pop.cache.insert(key, size, 0);
            }
        }
    }

    /// Aggregated statistics across all PoPs.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::new();
        for pop in &self.pops {
            total.merge(&pop.lock().unwrap_or_else(PoisonError::into_inner).stats);
        }
        total
    }

    /// Statistics of one PoP, if the id is valid.
    ///
    /// A valid-but-idle PoP returns `Some` zeroed counters; `None` means
    /// the id does not exist in this topology. Callers can therefore
    /// distinguish "nothing was routed here" from "no such PoP".
    // oat-lint: allow(dead-api) -- test oracle: per-PoP failover accounting
    pub fn pop_stats(&self, pop: PopId) -> Option<ServeStats> {
        self.pops.get(pop.raw() as usize).map(|p| {
            p.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .stats
                .clone()
        })
    }
}

/// Adapter: lets a boxed policy satisfy the generic `TtlCache<C>` wrapper.
#[derive(Debug)]
struct BoxedPolicy(Box<dyn CachePolicy>);

impl CachePolicy for BoxedPolicy {
    fn request(&mut self, key: CacheKey, size: u64, now: u64) -> bool {
        self.0.request(key, size, now)
    }
    fn insert(&mut self, key: CacheKey, size: u64, now: u64) {
        self.0.insert(key, size, now)
    }
    fn contains(&self, key: &CacheKey) -> bool {
        self.0.contains(key)
    }
    fn peek(&self, key: &CacheKey, now: u64) -> bool {
        self.0.peek(key, now)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn bytes_used(&self) -> u64 {
        self.0.bytes_used()
    }
    fn capacity_bytes(&self) -> u64 {
        self.0.capacity_bytes()
    }
    fn evictions(&self) -> u64 {
        self.0.evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_httplog::request::CHUNK_BYTES;
    use oat_httplog::{ObjectId, Region, UserId};

    fn request(object: u64, user: u64, ts: u64, kind: RequestKind) -> Request {
        Request {
            timestamp: ts,
            object: ObjectId::new(object),
            user: UserId::new(user),
            kind,
            region: Region::Europe,
            ..Request::example()
        }
    }

    #[test]
    fn full_request_miss_then_hit() {
        let sim = Simulator::new(&SimConfig::default_edge());
        let r1 = sim.serve(request(1, 1, 0, RequestKind::Full));
        assert_eq!(r1.status, HttpStatus::OK);
        assert_eq!(r1.cache_status, CacheStatus::Miss);
        assert_eq!(r1.bytes_served, r1.object_size);
        let r2 = sim.serve(request(1, 1, 1, RequestKind::Full));
        assert_eq!(r2.cache_status, CacheStatus::Hit);
        let stats = sim.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hit_ratio(), Some(0.5));
    }

    #[test]
    fn chunks_cached_independently() {
        let sim = Simulator::new(&SimConfig::default_edge());
        let k0 = RequestKind::Range {
            offset: 0,
            length: CHUNK_BYTES,
        };
        let k1 = RequestKind::Range {
            offset: CHUNK_BYTES,
            length: CHUNK_BYTES,
        };
        assert_eq!(
            sim.serve(request(1, 1, 0, k0)).cache_status,
            CacheStatus::Miss
        );
        assert_eq!(
            sim.serve(request(1, 1, 1, k1)).cache_status,
            CacheStatus::Miss
        );
        assert_eq!(
            sim.serve(request(1, 2, 2, k0)).cache_status,
            CacheStatus::Hit
        );
        let rec = sim.serve(request(1, 2, 3, k1));
        assert_eq!(rec.cache_status, CacheStatus::Hit);
        assert_eq!(rec.status, HttpStatus::PARTIAL_CONTENT);
        assert_eq!(rec.bytes_served, CHUNK_BYTES);
    }

    #[test]
    fn failure_kinds_bodyless() {
        let sim = Simulator::new(&SimConfig::default_edge());
        let forbidden = sim.serve(request(1, 1, 0, RequestKind::Hotlink));
        assert_eq!(forbidden.status, HttpStatus::FORBIDDEN);
        assert_eq!(forbidden.bytes_served, 0);
        let bad = sim.serve(request(1, 1, 1, RequestKind::InvalidRange));
        assert_eq!(bad.status, HttpStatus::RANGE_NOT_SATISFIABLE);
        // Neither touched the cache nor the hit/miss counters.
        let stats = sim.stats();
        assert_eq!(stats.hits + stats.misses, 0);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn conditional_is_304_without_body() {
        let sim = Simulator::new(&SimConfig::default_edge());
        // Cold conditional: edge doesn't have it either.
        let cold = sim.serve(request(9, 1, 0, RequestKind::Conditional));
        assert_eq!(cold.status, HttpStatus::NOT_MODIFIED);
        assert_eq!(cold.cache_status, CacheStatus::Miss);
        // Warm the edge, then revalidate.
        sim.serve(request(9, 1, 1, RequestKind::Full));
        let warm = sim.serve(request(9, 2, 2, RequestKind::Conditional));
        assert_eq!(warm.cache_status, CacheStatus::Hit);
        assert_eq!(warm.bytes_served, 0);
    }

    #[test]
    fn users_in_different_regions_use_different_pops() {
        let sim = Simulator::new(&SimConfig::default_edge());
        let mut eu = request(1, 1, 0, RequestKind::Full);
        eu.region = Region::Europe;
        let mut asia = request(1, 2, 1, RequestKind::Full);
        asia.region = Region::Asia;
        let r1 = sim.serve(eu);
        let r2 = sim.serve(asia);
        assert_ne!(r1.pop, r2.pop);
        // Each PoP cached independently: both are misses.
        assert_eq!(r2.cache_status, CacheStatus::Miss);
        assert!(sim.pop_stats(r1.pop).unwrap().requests == 1);
        assert!(sim.pop_stats(PopId::new(99)).is_none());
    }

    #[test]
    fn replay_preserves_order_and_matches_serial() {
        let make = |n: u64| -> Vec<Request> {
            (0..n)
                .map(|i| {
                    let mut r = request(i % 7, i % 13, i, RequestKind::Full);
                    r.region = Region::ALL[(i % 4) as usize];
                    r
                })
                .collect()
        };
        let parallel_sim = Simulator::new(&SimConfig::default_edge());
        let parallel = parallel_sim.replay(make(500));
        let serial_sim = Simulator::new(&SimConfig::default_edge());
        let serial: Vec<LogRecord> = make(500).into_iter().map(|r| serial_sim.serve(r)).collect();
        assert_eq!(parallel, serial);
        assert_eq!(parallel_sim.stats(), serial_sim.stats());
    }

    fn mixed_trace(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let kind = match i % 6 {
                    0 | 1 => RequestKind::Full,
                    2 => RequestKind::Range {
                        offset: 0,
                        length: CHUNK_BYTES,
                    },
                    3 => RequestKind::Conditional,
                    4 => RequestKind::Hotlink,
                    _ => RequestKind::Beacon,
                };
                let mut r = request(i % 9, i % 13, i, kind);
                r.region = Region::ALL[(i % 4) as usize];
                r
            })
            .collect()
    }

    #[test]
    fn replay_stats_matches_replay() {
        let full = Simulator::new(&SimConfig::default_edge());
        full.replay(mixed_trace(600));
        let fast = Simulator::new(&SimConfig::default_edge());
        let stats = fast.replay_stats(&mixed_trace(600));
        assert_eq!(stats, full.stats());
        assert_eq!(fast.stats(), full.stats());
    }

    #[test]
    fn replay_writes_records_into_the_request_buffer() {
        // A whole-trace replay holds one trace-sized buffer, not a
        // request buffer and a record buffer side by side. The in-place
        // collect needs a `LogRecord` no larger than a `Request` and of
        // the same alignment; the pointer check fails once either breaks.
        let requests = mixed_trace(600);
        let buffer = requests.as_ptr() as usize;
        let records = Simulator::new(&SimConfig::default_edge()).replay(requests);
        assert_eq!(records.len(), 600);
        assert_eq!(records.as_ptr() as usize, buffer);
    }

    #[test]
    fn replay_stats_matches_serial_serve_under_escalation() {
        for config in [
            SimConfig {
                cooperative: true,
                ..SimConfig::default_edge()
            },
            SimConfig {
                pops_per_region: 2,
                ..SimConfig::default_edge()
            }
            .with_parent(1_000_000_000),
        ] {
            let serial = Simulator::new(&config);
            for req in mixed_trace(400) {
                serial.serve(req);
            }
            let fast = Simulator::new(&config);
            let stats = fast.replay_stats(&mixed_trace(400));
            assert_eq!(stats, serial.stats());
        }
    }

    #[test]
    fn preload_turns_first_requests_into_hits() {
        let sim = Simulator::new(&SimConfig::default_edge());
        sim.preload([(CacheKey::whole(ObjectId::new(5)), 1_000)]);
        let mut r = request(5, 1, 0, RequestKind::Full);
        r.object_size = 1_000;
        assert_eq!(sim.serve(r).cache_status, CacheStatus::Hit);
    }

    #[test]
    fn ttl_config_expires_entries() {
        let config = SimConfig {
            ttl_secs: Some(10),
            ..SimConfig::default_edge()
        };
        let sim = Simulator::new(&config);
        sim.serve(request(1, 1, 0, RequestKind::Full));
        assert_eq!(
            sim.serve(request(1, 1, 5, RequestKind::Full)).cache_status,
            CacheStatus::Hit
        );
        assert_eq!(
            sim.serve(request(1, 1, 100, RequestKind::Full))
                .cache_status,
            CacheStatus::Miss,
            "stale entry revalidates as a miss"
        );
    }

    #[test]
    fn sim_config_builders() {
        let c = SimConfig {
            ttl_secs: Some(7),
            cooperative: true,
            ..SimConfig::default_edge()
                .with_policy(PolicyKind::Slru)
                .with_capacity(123)
        };
        assert_eq!(c.policy, PolicyKind::Slru);
        assert_eq!(c.cache_capacity_bytes, 123);
        assert_eq!(c.ttl_secs, Some(7));
        assert!(c.cooperative);
    }

    #[test]
    fn cooperative_probe_finds_sibling_copies() {
        let sim = Simulator::new(&SimConfig {
            cooperative: true,
            ..SimConfig::default_edge()
        });
        // Warm the Europe PoP.
        let mut eu = request(1, 1, 0, RequestKind::Full);
        eu.region = Region::Europe;
        assert_eq!(sim.serve(eu).cache_status, CacheStatus::Miss);
        // An Asia user misses locally but the Europe copy saves the origin
        // fetch under cooperation.
        let mut asia = request(1, 2, 1, RequestKind::Full);
        asia.region = Region::Asia;
        assert_eq!(sim.serve(asia.clone()).cache_status, CacheStatus::Hit);
        // Without cooperation the same sequence is a local miss.
        let plain = Simulator::new(&SimConfig::default_edge());
        let mut eu2 = request(1, 1, 0, RequestKind::Full);
        eu2.region = Region::Europe;
        plain.serve(eu2);
        asia.user = UserId::new(99);
        assert_eq!(plain.serve(asia).cache_status, CacheStatus::Miss);
    }

    #[test]
    fn cooperative_replay_only_adds_hits() {
        let make = |n: u64| -> Vec<Request> {
            (0..n)
                .map(|i| {
                    let mut r = request(i % 5, i % 7, i, RequestKind::Full);
                    r.region = Region::ALL[(i % 4) as usize];
                    r
                })
                .collect()
        };
        let coop = Simulator::new(&SimConfig {
            cooperative: true,
            ..SimConfig::default_edge()
        });
        let coop_records = coop.replay(make(400));
        let plain = Simulator::new(&SimConfig::default_edge());
        let plain_records = plain.replay(make(400));
        assert_eq!(coop_records.len(), plain_records.len());
        let hits =
            |records: &[LogRecord]| records.iter().filter(|r| r.cache_status.is_hit()).count();
        assert!(hits(&coop_records) >= hits(&plain_records));
        assert!(hits(&coop_records) > 0);
    }

    #[test]
    fn parent_tier_serves_repeat_regional_misses() {
        // Tiny edge caches, large regional parent: two users behind
        // different PoPs of the same region share the parent copy.
        let config = SimConfig {
            pops_per_region: 2,
            cache_capacity_bytes: 1, // effectively no edge caching
            ..SimConfig::default_edge()
        }
        .with_parent(1_000_000_000);
        let sim = Simulator::new(&config);
        // Find two users of the same region routed to different PoPs.
        let topo = sim.topology().clone();
        let (u1, u2) = {
            let mut first = None;
            let mut pair = None;
            for uid in 0..100u64 {
                let pop = topo.route(Region::Europe, UserId::new(uid));
                match first {
                    None => first = Some((uid, pop)),
                    Some((fuid, fpop)) if pop != fpop => {
                        pair = Some((fuid, uid));
                        break;
                    }
                    _ => {}
                }
            }
            pair.expect("two PoPs per region must both receive users")
        };
        let mut a = request(1, u1, 0, RequestKind::Full);
        a.region = Region::Europe;
        let mut b = request(1, u2, 1, RequestKind::Full);
        b.region = Region::Europe;
        // First fetch: parent miss (admits into parent).
        assert_eq!(sim.serve(a).cache_status, CacheStatus::Miss);
        // Second user, different PoP, same region: parent hit.
        assert_eq!(sim.serve(b.clone()).cache_status, CacheStatus::Hit);
        // A user in another region misses (its parent is separate).
        let mut c = request(1, 7, 2, RequestKind::Full);
        c.region = Region::Asia;
        assert_eq!(sim.serve(c).cache_status, CacheStatus::Miss);
    }

    #[test]
    fn pop_stats_distinguishes_idle_from_unknown() {
        let sim = Simulator::new(&SimConfig::default_edge());
        // No traffic yet: every valid PoP reports zeroed stats.
        let idle = sim.pop_stats(PopId::new(0)).expect("valid PoP");
        assert_eq!(idle.requests, 0);
        assert_eq!(idle, ServeStats::new());
        // An id outside the topology is unknown, not idle.
        assert!(sim.pop_stats(PopId::new(99)).is_none());
    }

    #[test]
    fn empty_fault_plan_is_a_noop() {
        let healthy = Simulator::new(&SimConfig::default_edge());
        let healthy_records = healthy.replay(mixed_trace(300));
        let faulted = Simulator::new(&SimConfig::default_edge()).with_faults(FaultPlan::new(1));
        let faulted_records = faulted.replay(mixed_trace(300));
        assert_eq!(healthy_records, faulted_records);
        assert_eq!(healthy.stats(), faulted.stats());
    }

    #[test]
    fn outage_fails_over_to_the_sibling_pop() {
        use crate::faults::{PopOutage, Window};
        let config = SimConfig {
            pops_per_region: 2,
            ..SimConfig::default_edge()
        };
        let routed = Topology::new(2).route(Region::Europe, UserId::new(1));
        let mut plan = FaultPlan::new(7);
        plan.outages.push(PopOutage {
            pop: routed.raw(),
            window: Window::new(0, 100),
        });
        let sim = Simulator::new(&config).with_faults(plan);
        let rec = sim.serve(request(1, 1, 10, RequestKind::Full));
        assert_ne!(rec.pop, routed, "served at a sibling");
        assert_eq!(rec.degraded, DegradedServe::Failover);
        assert_eq!(rec.status, HttpStatus::OK);
        let stats = sim.stats();
        assert_eq!(stats.degraded_hits, 1);
        assert_eq!(stats.degraded_bytes, rec.bytes_served);
        // After the outage the same user lands on the routed PoP again.
        let later = sim.serve(request(1, 1, 200, RequestKind::Full));
        assert_eq!(later.pop, routed);
        assert_eq!(later.degraded, DegradedServe::None);
    }

    #[test]
    fn dark_region_sheds_at_the_routed_pop() {
        use crate::faults::{PopOutage, Window};
        let routed = Topology::new(1).route(Region::Europe, UserId::new(1));
        let mut plan = FaultPlan::new(5);
        plan.outages.push(PopOutage {
            pop: routed.raw(),
            window: Window::new(0, 100),
        });
        let sim = Simulator::new(&SimConfig::default_edge()).with_faults(plan);
        let rec = sim.serve(request(1, 1, 10, RequestKind::Full));
        assert_eq!(rec.status, HttpStatus::SERVICE_UNAVAILABLE);
        assert_eq!(rec.degraded, DegradedServe::Shed);
        assert_eq!(rec.bytes_served, 0);
        assert_eq!(
            rec.pop, routed,
            "the shed is accounted where the user was sent"
        );
        let pop = sim.pop_stats(routed).expect("valid PoP");
        assert_eq!(pop.shed, 1);
        assert_eq!(pop.availability(), Some(0.0));
    }

    #[test]
    fn brownout_serves_stale_past_ttl_without_refreshing() {
        use crate::faults::{Brownout, Window};
        let config = SimConfig {
            ttl_secs: Some(10),
            ..SimConfig::default_edge()
        };
        let mut plan = FaultPlan::new(3);
        plan.brownouts.push(Brownout {
            window: Window::new(10, 40),
            failure_prob: 1.0,
        });
        let sim = Simulator::new(&config).with_faults(plan);
        // Warm at t=0, before the brownout.
        assert_eq!(
            sim.serve(request(1, 1, 0, RequestKind::Full)).cache_status,
            CacheStatus::Miss
        );
        // t=10: brownout just started, but the entry is exactly at its TTL
        // boundary — still fresh, so this is a normal healthy hit.
        let boundary = sim.serve(request(1, 1, 10, RequestKind::Full));
        assert_eq!(boundary.cache_status, CacheStatus::Hit);
        assert_eq!(boundary.degraded, DegradedServe::None);
        assert_eq!(boundary.retries, 0);
        // t=11: expired; every origin attempt fails; the stale copy is
        // served without refreshing the TTL.
        let stale = sim.serve(request(1, 1, 11, RequestKind::Full));
        assert_eq!(stale.cache_status, CacheStatus::Hit);
        assert_eq!(stale.status, HttpStatus::OK);
        assert_eq!(stale.degraded, DegradedServe::Stale);
        assert_eq!(stale.retries, 3, "full retry budget burnt");
        // t=12: still stale — the serve above did not reset freshness.
        let again = sim.serve(request(1, 1, 12, RequestKind::Full));
        assert_eq!(again.degraded, DegradedServe::Stale);
        // t=40: brownout over (end is exclusive); the entry revalidates
        // against the healthy origin as a plain miss.
        let revalidated = sim.serve(request(1, 1, 40, RequestKind::Full));
        assert_eq!(revalidated.cache_status, CacheStatus::Miss);
        assert_eq!(revalidated.degraded, DegradedServe::None);
        assert_eq!(revalidated.retries, 0);
        let stats = sim.stats();
        assert_eq!(stats.stale_hits, 2);
        assert_eq!(stats.retries, 6);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn brownout_sheds_cold_objects_after_retries() {
        use crate::faults::{Brownout, Window};
        let mut plan = FaultPlan::new(4);
        plan.brownouts.push(Brownout {
            window: Window::new(0, 100),
            failure_prob: 1.0,
        });
        let sim = Simulator::new(&SimConfig::default_edge()).with_faults(plan);
        let rec = sim.serve(request(1, 1, 5, RequestKind::Full));
        assert_eq!(rec.status, HttpStatus::SERVICE_UNAVAILABLE);
        assert_eq!(rec.degraded, DegradedServe::Shed);
        assert_eq!(rec.bytes_served, 0);
        assert_eq!(rec.retries, 3);
        // Bodyless kinds never consult the origin, so they are unaffected.
        let beacon = sim.serve(request(2, 1, 6, RequestKind::Beacon));
        assert_eq!(beacon.status, HttpStatus::NO_CONTENT);
        assert_eq!(beacon.degraded, DegradedServe::None);
        let stats = sim.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.availability(), Some(0.5));
    }

    #[test]
    fn capacity_pressure_sheds_over_budget() {
        use crate::faults::{CapacityPressure, Window};
        let routed = Topology::new(1).route(Region::Europe, UserId::new(1));
        let mut plan = FaultPlan::new(6);
        plan.pressure.push(CapacityPressure {
            pop: routed.raw(),
            window: Window::new(0, 100),
            inflight_budget: 2,
        });
        let sim = Simulator::new(&SimConfig::default_edge()).with_faults(plan);
        // Three body requests in the same second: the third is shed.
        let recs: Vec<LogRecord> = (1..=3u64)
            .map(|u| sim.serve(request(u, u, 5, RequestKind::Full)))
            .collect();
        assert_eq!(recs[0].degraded, DegradedServe::None);
        assert_eq!(recs[1].degraded, DegradedServe::None);
        assert_eq!(recs[2].status, HttpStatus::SERVICE_UNAVAILABLE);
        assert_eq!(recs[2].degraded, DegradedServe::Shed);
        // A bodyless request is never budgeted, even over the limit.
        let beacon = sim.serve(request(9, 9, 5, RequestKind::Beacon));
        assert_eq!(beacon.degraded, DegradedServe::None);
        // The bucket resets on the next second.
        let next = sim.serve(request(4, 4, 6, RequestKind::Full));
        assert_eq!(next.degraded, DegradedServe::None);
        assert_eq!(sim.stats().shed, 1);
    }

    #[test]
    fn latency_inflation_counts_served_requests() {
        use crate::faults::{LatencyInflation, Window};
        let mut plan = FaultPlan::new(8);
        plan.latency.push(LatencyInflation {
            window: Window::new(0, 10),
            factor: 2.5,
        });
        let sim = Simulator::new(&SimConfig::default_edge()).with_faults(plan);
        sim.serve(request(1, 1, 5, RequestKind::Full)); // inside the window
        sim.serve(request(1, 1, 50, RequestKind::Full)); // outside
        assert_eq!(sim.stats().inflated_requests, 1);
    }

    #[test]
    fn faulted_replay_matches_serial_serve() {
        let config = SimConfig {
            pops_per_region: 2,
            cache_capacity_bytes: 50_000_000,
            ..SimConfig::default_edge()
        };
        let plan = FaultPlan::sample(0xC0FFEE, 600, 8);
        let serial_sim = Simulator::new(&config).with_faults(plan.clone());
        let serial: Vec<LogRecord> = mixed_trace(600)
            .into_iter()
            .map(|r| serial_sim.serve(r))
            .collect();
        let par_sim = Simulator::new(&config).with_faults(plan.clone());
        let parallel = par_sim.replay(mixed_trace(600));
        assert_eq!(parallel, serial);
        assert_eq!(par_sim.stats(), serial_sim.stats());
        // Counters-only replay agrees counter-for-counter.
        let stats_sim = Simulator::new(&config).with_faults(plan);
        assert_eq!(
            stats_sim.replay_stats(&mixed_trace(600)),
            serial_sim.stats()
        );
    }

    #[test]
    fn parent_tier_lifts_replay_hit_ratio() {
        let make = |n: u64| -> Vec<Request> {
            (0..n)
                .map(|i| {
                    let mut r = request(i % 5, i % 11, i, RequestKind::Full);
                    r.region = Region::ALL[(i % 4) as usize];
                    r
                })
                .collect()
        };
        let flat = Simulator::new(&SimConfig {
            cache_capacity_bytes: 30_000_000,
            ..SimConfig::default_edge()
        });
        let flat_records = flat.replay(make(400));
        let tiered = Simulator::new(
            &SimConfig {
                cache_capacity_bytes: 30_000_000,
                ..SimConfig::default_edge()
            }
            .with_parent(4_000_000_000),
        );
        let tiered_records = tiered.replay(make(400));
        let hits =
            |records: &[LogRecord]| records.iter().filter(|r| r.cache_status.is_hit()).count();
        assert!(
            hits(&tiered_records) >= hits(&flat_records),
            "parent tier cannot lose hits: {} vs {}",
            hits(&tiered_records),
            hits(&flat_records)
        );
    }
}
