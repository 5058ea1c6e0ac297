//! The simulated KeyDB store and its YCSB run loop.

use serde::{Deserialize, Serialize};

use std::collections::VecDeque;

use cxl_perf::SSD_READ_LATENCY_NS;

/// Extra software latency per operation when FLASH mode is on: KeyDB
/// routes reads through the RocksDB memtable/block-cache path even for
/// memory-resident values.
const FLASH_READPATH_NS: f64 = 1_500.0;

/// Extra cost of a FLASH miss beyond the raw SSD read: RocksDB index /
/// filter block lookups and read amplification.
const ROCKSDB_MISS_NS: f64 = 30_000.0;
use cxl_sim::{MultiServer, SimTime};
use cxl_stats::{Exponential, Histogram};
use cxl_tier::{
    EvacuationReport, Location, PageId, PricedTier, Rw, TierConfig, TierError, TierManager,
    TierStats,
};
use cxl_topology::{MemoryTier, NodeId, Topology};
use cxl_ycsb::{Generator, GeneratorConfig, Op, OpTrace, Workload};
use rand::rngs::SmallRng;

/// Ops pre-generated per block by [`LiveOps`].
const GEN_BLOCK: u64 = 1024;

/// A live YCSB stream of `left` more ops, drawn ahead in blocks.
///
/// Blocks amortize the generator's per-op obs flush
/// ([`Generator::fill`] tallies counters locally and flushes once per
/// block) without changing the op stream: generation order is
/// independent of store state, so drawing ahead is observationally
/// equivalent. Every block refills one buffer, read by a cursor. The
/// last block never draws past `left`.
struct LiveOps {
    generator: Generator,
    buf: Vec<Op>,
    /// Index of the next op to hand out in `buf`.
    next: usize,
    left: u64,
}

impl LiveOps {
    fn new(workload: Workload, cfg: GeneratorConfig, ops: u64) -> Self {
        Self {
            generator: Generator::new(workload, cfg),
            buf: Vec::new(),
            next: 0,
            left: ops,
        }
    }
}

impl Iterator for LiveOps {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.next == self.buf.len() && self.left > 0 {
            let n = self.left.min(GEN_BLOCK);
            self.left -= n;
            self.generator.fill(&mut self.buf, n as usize);
            self.next = 0;
        }
        let op = *self.buf.get(self.next)?;
        self.next += 1;
        Some(op)
    }
}

/// CPU/memory cost profile of one KeyDB operation.
///
/// The paper's two KeyDB experiments sit in different locality regimes:
/// the 512 GB capacity runs (§4.1, Fig. 5) take a TLB/page-walk miss on
/// nearly every access, so each op performs many dependent memory
/// accesses and interleaving onto CXL costs 1.2–1.5×; the 100 GB
/// vCPU-ratio run (§4.3, Fig. 8) is lighter, and running fully on CXL
/// costs only ~12.5 % of throughput. Both regimes are expressed as
/// profiles instead of hidden constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemProfile {
    /// Pure CPU time per operation, ns (parsing, dispatch, networking).
    pub cpu_ns_per_op: f64,
    /// Dependent memory accesses per operation (dict walk, value chase,
    /// page-table walks).
    pub mem_chases: u32,
}

impl MemProfile {
    /// The 512 GB capacity-experiment regime (§4.1).
    pub fn capacity_strained() -> Self {
        Self {
            cpu_ns_per_op: 3_000.0,
            mem_chases: 24,
        }
    }

    /// The 100 GB elastic-compute regime (§4.3).
    pub fn standard() -> Self {
        Self {
            cpu_ns_per_op: 5_000.0,
            mem_chases: 5,
        }
    }
}

/// `maxmemory` eviction policy for FLASH mode, mirroring Redis's
/// `maxmemory-policy` choices at page granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// CLOCK second chance — approximates `allkeys-lru` (the default).
    Clock,
    /// Uniform random resident page — `allkeys-random`.
    Random,
    /// Least-frequently-used among a small random sample, with periodic
    /// counter decay — `allkeys-lfu`.
    Lfu,
}

/// Value size in bytes: 1 KiB, the YCSB default the paper keeps
/// (§4.1.1). A store's dataset is `record_count * VALUE_SIZE` bytes.
pub const VALUE_SIZE: u64 = 1024;

/// KeyDB server threads (7 in the paper, §4.1.1).
const SERVER_THREADS: usize = 7;

/// Closed-loop YCSB clients, four per server thread.
const CLIENT_CONCURRENCY: usize = 28;

/// Contention-priced latencies are refreshed every this many operations,
/// counted per run or per serving session.
const EPOCH_OPS: u64 = 2_000;

// A zero here would panic at the first op: `MultiServer::new`, a
// remainder by zero in `Arrivals::next` and in the run loop's epoch check.
const _: () = assert!(SERVER_THREADS > 0 && CLIENT_CONCURRENCY > 0 && EPOCH_OPS > 0);

/// Store configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KvConfig {
    /// Pre-loaded record count.
    pub record_count: u64,
    /// Cost profile.
    pub profile: MemProfile,
    /// FLASH-mode eviction policy.
    pub eviction: EvictionPolicy,
    /// Root seed.
    pub seed: u64,
}

impl KvConfig {
    /// The generator configuration of a store's op stream number `run`
    /// when that stream is a closed-loop [`KvStore::run`]. Recording an
    /// [`OpTrace`] from it gives the trace [`KvStore::replay`] accepts
    /// as that run.
    pub fn run_generator_config(&self, run: u64) -> GeneratorConfig {
        self.stream_config("run", run)
    }

    /// Stream `run`'s generator configuration: the store's record count
    /// and [`VALUE_SIZE`], seeded from the root seed and `{label}.{run}`.
    /// `label` names the entry point (`run`, `openloop` or `serve`).
    fn stream_config(&self, label: &str, run: u64) -> GeneratorConfig {
        GeneratorConfig {
            record_count: self.record_count,
            value_size: VALUE_SIZE,
            seed: cxl_stats::rng::derive_seed(self.seed, &format!("{label}.{run}")),
        }
    }
}

impl Default for KvConfig {
    fn default() -> Self {
        Self {
            record_count: 100_000,
            profile: MemProfile::capacity_strained(),
            eviction: EvictionPolicy::Clock,
            seed: 42,
        }
    }
}

/// Result of one workload run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Completed operations.
    pub ops: u64,
    /// Virtual wall time of the run.
    pub duration: SimTime,
    /// Operations per second.
    pub throughput_ops: f64,
    /// Sojourn (client-observed) latency histogram, ns, all ops.
    pub latency: Histogram,
    /// Sojourn latency histogram for reads only (Fig. 8(a) CDF).
    pub read_latency: Histogram,
    /// Operations that had to fetch from SSD.
    pub ssd_hits: u64,
    /// Tier-manager statistics at the end of the run.
    pub tier_stats: TierStats,
}

impl RunResult {
    /// Throughput in thousands of ops/s (the unit of Fig. 5(a)).
    pub fn kops(&self) -> f64 {
        self.throughput_ops / 1e3
    }
}

/// Per-access latency histograms, indexed by where the access landed.
const ACCESS_METRICS: [&str; 3] = ["kv/access_ns/mmem", "kv/access_ns/cxl", "kv/access_ns/ssd"];

/// The index of SSD accesses in [`ACCESS_METRICS`].
const SSD_ACCESS: usize = 2;

/// Where each page access landed and what it cost, kept by the store
/// and handed to `cxl-obs` once, when the store drops: one histogram per
/// [`ACCESS_METRICS`] entry, and the SSD histogram's count as
/// `kv/ssd_hits`. A run or serving request records here only if it
/// began with a registry [`cxl_obs::active`]; the histograms are
/// allocated at the first such start. The tally has its own `Drop`, so
/// `KvStore` has none.
#[derive(Default)]
struct AccessTally {
    /// Whether the current run or request records.
    on: bool,
    /// Access latencies, ns, indexed like [`ACCESS_METRICS`]; empty
    /// until a run or request records.
    ns: Vec<Histogram>,
}

impl AccessTally {
    /// Starts a run or serving request: it records while a registry
    /// is active. The one `cxl-obs` call of a run before its end.
    fn start(&mut self) {
        self.on = cxl_obs::active();
        if self.on && self.ns.is_empty() {
            self.ns = vec![Histogram::new(); ACCESS_METRICS.len()];
        }
    }
}

impl Drop for AccessTally {
    /// Adds exactly the keys and values one call per access would have
    /// left; touches `cxl-obs` not at all when nothing was recorded.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        for (name, h) in ACCESS_METRICS.iter().zip(&self.ns) {
            if h.count() > 0 {
                cxl_obs::merge(name, h);
            }
        }
        if let Some(ssd) = self.ns.get(SSD_ACCESS).filter(|h| h.count() > 0) {
            cxl_obs::counter_add("kv/ssd_hits", ssd.count());
        }
    }
}

/// Persistent generator session for the queue-fed serving entry point
/// ([`KvStore::service_request`]): requests trickle in one at a time,
/// but the op stream must stay one continuous deterministic YCSB trace.
struct ServeSession {
    workload: Workload,
    stream: LiveOps,
    ops: u64,
}

/// The simulated store.
pub struct KvStore {
    mem: PricedTier,
    cfg: KvConfig,
    /// CLOCK ring of memory-resident pages for `maxmemory` eviction.
    /// Only a flash store evicts (`cache_in`), so only it keeps one.
    ring: VecDeque<PageId>,
    /// CLOCK reference bit per data page. The store allocates every
    /// page of its own tier manager, in data page order, and the
    /// manager hands out dense ids it never reuses, so data page `i` is
    /// `PageId(i)` and no directory is kept.
    referenced: Vec<bool>,
    /// log2 of the tier's page size, which `TierManager` keeps a power
    /// of two: a key's page index is a shift, not a 64-bit division.
    page_shift: u32,
    flash: bool,
    now: SimTime,
    /// Op streams opened so far (runs, open-loop runs and serving
    /// sessions); numbers the next stream's seed.
    runs: u64,
    /// Deterministic sampler for Random/LFU eviction.
    evict_rng: SmallRng,
    /// LFU access count per page, indexed like `referenced` (decayed
    /// periodically); empty unless the store is an LFU flash store.
    freq: Vec<u32>,
    ops_since_decay: u64,
    /// Live serving session, if a `service_request` stream is open.
    serve: Option<ServeSession>,
    access: AccessTally,
}

impl KvStore {
    /// Builds the store and loads `record_count` values through the
    /// placement policy.
    ///
    /// `flash` enables KeyDB-FLASH semantics: pages that do not fit in
    /// the (possibly `maxmemory`-limited) nodes spill to SSD, and SSD
    /// pages are cached back in memory on access with CLOCK eviction.
    ///
    /// # Panics
    ///
    /// Panics if the dataset cannot be placed (no SSD and nodes too
    /// small).
    pub fn new(topo: &Topology, mut tier_cfg: TierConfig, cfg: KvConfig, flash: bool) -> Self {
        tier_cfg.allow_ssd_spill = flash;
        let mut mem = PricedTier::new(topo, tier_cfg);
        let tm = mem.tier_mut();
        let total_bytes = cfg.record_count * VALUE_SIZE;
        let n_pages = total_bytes.div_ceil(tm.page_size());
        let first = tm
            .alloc_dense(n_pages, SimTime::ZERO)
            .expect("dataset does not fit; enable flash or enlarge nodes");
        debug_assert_eq!(first, PageId(0), "data page ids are dense");
        let mut ring = VecDeque::new();
        if flash {
            let resident = |p: &PageId| !tm.location(*p).is_ssd();
            let pages = (0..n_pages).map(PageId);
            ring.reserve_exact(pages.clone().filter(resident).count());
            ring.extend(pages.filter(resident));
        }
        tm.drain_epoch(); // Discard load-phase traffic.
        let page_shift = tm.page_size().trailing_zeros();
        let lfu = flash && cfg.eviction == EvictionPolicy::Lfu;
        let cfg_seed = cfg.seed;
        Self {
            mem,
            cfg,
            ring,
            referenced: vec![false; n_pages as usize],
            page_shift,
            flash,
            now: SimTime::ZERO,
            runs: 0,
            evict_rng: {
                use rand::SeedableRng;
                SmallRng::seed_from_u64(cxl_stats::rng::derive_seed(cfg_seed, "evict"))
            },
            freq: if lfu {
                vec![0; n_pages as usize]
            } else {
                Vec::new()
            },
            ops_since_decay: 0,
            serve: None,
            access: AccessTally::default(),
        }
    }

    /// The tier manager (for inspection in tests and reports).
    pub fn tier(&self) -> &TierManager {
        self.mem.tier()
    }

    /// Current page residency distribution.
    pub fn residency(&self) -> Vec<(Location, u64)> {
        self.tier().residency()
    }

    /// Idle read latency to `node` under the store's current (possibly
    /// degraded) performance model, ns; `None` when the node is offline.
    pub fn idle_latency_ns(&self, node: NodeId) -> Option<f64> {
        let sys = self.mem.system();
        sys.try_idle_latency_ns(sys.sockets()[0], node, cxl_perf::AccessMix::read_only())
            .ok()
    }

    /// Rebuilds the performance model for a (possibly degraded) topology
    /// and re-derives the idle-latency table. Call after device health
    /// changes (link downgrade, latency inflation) that do not require
    /// moving pages; the store keeps serving at the recomputed
    /// latencies.
    pub fn apply_topology(&mut self, topo: &Topology) {
        self.mem.apply_topology(topo);
    }

    /// Reacts to an expander failure: fences and drains `node` through
    /// the tier manager (under the promotion rate limiter), advances the
    /// store clock to the end of the drain, and reprices accesses on the
    /// degraded topology.
    ///
    /// `topo` must already carry the failure (the device marked
    /// offline); pass the same topology the simulation's fault injector
    /// mutated.
    pub fn fail_expander(
        &mut self,
        topo: &Topology,
        node: NodeId,
    ) -> Result<EvacuationReport, TierError> {
        let report = self.mem.evacuate(topo, node, &mut self.now)?;
        cxl_obs::counter_add("kv/expander_failures_survived", 1);
        Ok(report)
    }

    /// Reacts to a capacity-loss fault: shrinks `node`, draining the
    /// overflow, and reprices on the degraded topology.
    pub fn shrink_expander(
        &mut self,
        topo: &Topology,
        node: NodeId,
        new_capacity_bytes: u64,
    ) -> Result<EvacuationReport, TierError> {
        self.mem
            .shrink(topo, node, new_capacity_bytes, &mut self.now)
    }

    /// Raises `node`'s capacity (a pool lease granted mid-run). Newly
    /// granted room is picked up by the next SSD cache-in or insert —
    /// no repricing is needed until traffic actually lands there.
    pub fn grow_expander(
        &mut self,
        node: NodeId,
        new_capacity_bytes: u64,
    ) -> Result<(), TierError> {
        self.mem.tier_mut().grow_node(node, new_capacity_bytes)
    }

    /// Retunes the live promotion rate limit (see
    /// [`TierManager::set_promote_rate`]), effective at the store's
    /// current clock.
    pub fn set_promote_rate(&mut self, bytes_per_sec: f64) -> Result<(), TierError> {
        self.mem
            .tier_mut()
            .set_promote_rate(self.now, bytes_per_sec)
    }

    /// Opens the store's next op stream for the entry point `label`.
    fn next_stream(&mut self, label: &str) -> GeneratorConfig {
        let cfg = self.cfg.stream_config(label, self.runs);
        self.runs += 1;
        cfg
    }

    /// The store's tiering clock (advances as workload runs execute).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// `key * VALUE_SIZE / page_size`: the page holding `key`'s value.
    fn page_index_of_key(&self, key: u64) -> usize {
        ((key * VALUE_SIZE) >> self.page_shift) as usize
    }

    /// Data pages allocated so far.
    fn page_count(&self) -> usize {
        self.referenced.len()
    }

    /// Allocates data pages up to `index` (workload D growth).
    fn ensure_page(&mut self, index: usize) {
        while self.page_count() <= index {
            let p = self
                .mem
                .tier_mut()
                .alloc(self.now)
                .expect("insert failed: out of memory without flash");
            debug_assert_eq!(
                p,
                PageId(self.page_count() as u64),
                "data page ids are dense"
            );
            if self.flash && !self.tier().location(p).is_ssd() {
                self.ring.push_back(p);
            }
            self.referenced.push(false);
            if self.lfu() {
                self.freq.push(0);
            }
        }
    }

    /// True for a flash store that evicts by LFU, the one store that
    /// keeps access counts.
    fn lfu(&self) -> bool {
        self.flash && self.cfg.eviction == EvictionPolicy::Lfu
    }

    /// Sets `page`'s CLOCK reference bit.
    fn mark_referenced(&mut self, page: PageId) {
        self.referenced[page.0 as usize] = true;
    }

    /// Clears `page`'s CLOCK reference bit, returning whether it was set.
    fn take_referenced(&mut self, page: PageId) -> bool {
        std::mem::take(&mut self.referenced[page.0 as usize])
    }

    /// Picks an eviction victim from the resident ring per the policy.
    /// Returns `None` when no resident page can be found.
    fn pick_victim(&mut self) -> Option<PageId> {
        use rand::Rng;
        match self.cfg.eviction {
            EvictionPolicy::Clock => {
                let mut guard = self.ring.len();
                while guard > 0 {
                    guard -= 1;
                    let victim = self.ring.pop_front()?;
                    if self.tier().location(victim).is_ssd() {
                        continue; // Stale entry.
                    }
                    if self.take_referenced(victim) {
                        self.ring.push_back(victim);
                        continue;
                    }
                    return Some(victim);
                }
                // Everything referenced: take the next resident page.
                while let Some(victim) = self.ring.pop_front() {
                    if !self.tier().location(victim).is_ssd() {
                        self.take_referenced(victim);
                        return Some(victim);
                    }
                }
                None
            }
            EvictionPolicy::Random => {
                let mut guard = self.ring.len().max(8) * 2;
                while guard > 0 && !self.ring.is_empty() {
                    guard -= 1;
                    let idx = self.evict_rng.gen_range(0..self.ring.len());
                    self.ring.swap(idx, 0);
                    let victim = self.ring.pop_front()?;
                    if self.tier().location(victim).is_ssd() {
                        continue;
                    }
                    self.take_referenced(victim);
                    return Some(victim);
                }
                None
            }
            EvictionPolicy::Lfu => {
                // Redis-style: sample a few candidates, evict the
                // least-frequently-used resident one.
                const SAMPLE: usize = 5;
                let mut guard = 16;
                while guard > 0 && !self.ring.is_empty() {
                    guard -= 1;
                    let mut candidates: Vec<(usize, u32)> = Vec::with_capacity(SAMPLE);
                    for _ in 0..SAMPLE.min(self.ring.len()) {
                        let idx = self.evict_rng.gen_range(0..self.ring.len());
                        let page = self.ring[idx];
                        if self.tier().location(page).is_ssd() {
                            continue;
                        }
                        candidates.push((idx, self.freq[page.0 as usize]));
                    }
                    if let Some((idx, _)) = cxl_stats::argmin_by(candidates, |&(_, f)| f) {
                        self.ring.swap(idx, 0);
                        let victim = self.ring.pop_front()?;
                        self.take_referenced(victim);
                        self.freq[victim.0 as usize] = 0;
                        return Some(victim);
                    }
                }
                None
            }
        }
    }

    /// Caches an SSD page into memory, evicting policy-chosen pages as
    /// needed; [`TierManager::evict_to_ssd`] charges each dirty
    /// eviction's write-back as SSD bandwidth, asynchronous to the op.
    ///
    /// Gives up (leaving the page on SSD) when no victim can make room —
    /// after an evacuation shrank memory, a store must keep serving at
    /// SSD latency rather than abort.
    fn cache_in(&mut self, page: PageId) {
        while self.mem.tier_mut().load_from_ssd(page, self.now).is_err() {
            let Some(victim) = self.pick_victim() else {
                cxl_obs::counter_add("kv/cache_in_give_ups", 1);
                return;
            };
            // A stale victim (already spilled, e.g. by an evacuation
            // racing the CLOCK ring) fails to evict; the loop tries
            // another.
            let _ = self.mem.tier_mut().evict_to_ssd(victim);
        }
        self.ring.push_back(page);
        self.mark_referenced(page);
    }

    /// Prices a single-page access of one value: touch, fault costs,
    /// SSD caching. Returns `(service_ns, hit_ssd)` for that page.
    fn access_page(&mut self, idx: usize, rw: Rw, chases: f64) -> (f64, bool) {
        let page = PageId(idx as u64);
        let outcome = self.mem.tier_mut().touch(page, rw, VALUE_SIZE, self.now);
        self.mark_referenced(page);
        if self.lfu() {
            self.freq[page.0 as usize] += 1;
            self.ops_since_decay += 1;
            // Periodic halving keeps counters adaptive (Redis LFU decay).
            if self.ops_since_decay >= 100_000 {
                self.ops_since_decay = 0;
                for f in &mut self.freq {
                    *f /= 2;
                }
            }
        }
        let mut ns = outcome.fault_cost.as_ns() as f64;
        let mut hit_ssd = false;
        match outcome.location {
            Location::Node(node) => {
                ns += chases * self.mem.latency_ns(node);
            }
            Location::Ssd => {
                hit_ssd = true;
                ns += SSD_READ_LATENCY_NS + ROCKSDB_MISS_NS;
                if self.flash {
                    self.cache_in(page);
                }
                // Re-price the chases at the page's new home.
                if let Location::Node(node) = self.tier().location(page) {
                    ns += chases * self.mem.latency_ns(node);
                }
            }
        }
        if self.access.on {
            let landed = match outcome.location {
                Location::Ssd => SSD_ACCESS,
                Location::Node(node) => match self.mem.system().node(node).tier {
                    MemoryTier::LocalDram => 0,
                    MemoryTier::CxlExpander => 1,
                },
            };
            self.access.ns[landed].record(ns as u64);
        }
        (ns, hit_ssd)
    }

    /// Prices one operation at the current epoch latencies and advances
    /// tiering state. Returns `(service_ns, hit_ssd)`.
    fn service_op(&mut self, op: Op) -> (f64, bool) {
        let key = op.key();
        let idx = self.page_index_of_key(key);
        if matches!(op, Op::Insert(_)) {
            self.ensure_page(idx);
        }

        let mut ns = self.cfg.profile.cpu_ns_per_op;
        if self.flash {
            ns += FLASH_READPATH_NS;
        }
        let chases = self.cfg.profile.mem_chases as f64;
        let mut hit_ssd = false;

        match op {
            Op::Read(_) | Op::Update(_) | Op::Insert(_) => {
                let rw = if op.is_write() { Rw::Write } else { Rw::Read };
                let (a, h) = self.access_page(idx, rw, chases);
                ns += a;
                hit_ssd |= h;
            }
            Op::ReadModifyWrite(_) => {
                // Read, then write the same record: the read pays the
                // full chase chain, the write-back a short one.
                let (a, h) = self.access_page(idx, Rw::Read, chases);
                let (b, h2) = self.access_page(idx, Rw::Write, 2.0);
                ns += a + b;
                hit_ssd |= h | h2;
            }
            Op::Scan { start, len } => {
                // Sequential range: full chase chain on the first page,
                // streaming cost (two dependent accesses) per page after.
                let last_key = start + len as u64 - 1;
                let first = self.page_index_of_key(start);
                let last = self.page_index_of_key(last_key).min(self.page_count() - 1);
                for (i, pg) in (first..=last).enumerate() {
                    let c = if i == 0 { chases } else { 2.0 };
                    let (a, h) = self.access_page(pg, Rw::Read, c);
                    ns += a;
                    hit_ssd |= h;
                }
            }
        }
        (ns, hit_ssd)
    }

    /// Runs an **open-loop** YCSB load: operations arrive at
    /// `rate_ops_per_sec` with exponential inter-arrival times and queue
    /// at the server threads regardless of completion — the setup for
    /// latency-vs-offered-load (SLO) analysis. Contrast with [`run`],
    /// whose closed-loop clients self-limit at saturation.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    ///
    /// [`run`]: KvStore::run
    pub fn run_open_loop(
        &mut self,
        workload: Workload,
        rate_ops_per_sec: f64,
        ops: u64,
    ) -> RunResult {
        assert!(
            rate_ops_per_sec > 0.0 && rate_ops_per_sec.is_finite(),
            "invalid arrival rate {rate_ops_per_sec}"
        );
        let gen_cfg = self.next_stream("openloop");
        let arrivals = Arrivals::Open {
            rng: cxl_stats::rng::stream_rng(gen_cfg.seed, "arrivals"),
            gap: Exponential::new(rate_ops_per_sec),
            at_s: self.now.as_secs_f64(),
        };
        self.run_ops(LiveOps::new(workload, gen_cfg, ops), ops, arrivals)
    }

    /// Queue-fed serving entry point: prices one request of `ops`
    /// operations at the store's **current** state and returns its
    /// service time.
    ///
    /// This is the per-request analog of [`run_open_loop`] for external
    /// serving layers (`cxl-serve`) that own the arrival process, the
    /// queue, and the concurrency themselves: the caller advances the
    /// virtual clock to the request's dispatch instant `now`, the store
    /// draws the next ops from a persistent deterministic YCSB session
    /// (continued across calls, like repeated [`run`]s continue the
    /// trace), prices them against the live tier layout, and keeps its
    /// epoch-refresh cadence (`EPOCH_OPS`) ticking on the session's op
    /// counter.
    ///
    /// The tiering clock only moves forward: dispatch instants from a
    /// well-ordered event loop are monotone, and internal epoch
    /// refreshes never rewind.
    ///
    /// Switching `workload` mid-stream closes the session and opens a
    /// fresh one (a new tenant mix, not a continuation).
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0`.
    ///
    /// [`run`]: KvStore::run
    /// [`run_open_loop`]: KvStore::run_open_loop
    pub fn service_request(&mut self, now: SimTime, workload: Workload, ops: u64) -> SimTime {
        assert!(ops > 0, "a request must carry at least one op");
        self.access.start();
        self.now = self.now.max(now);
        let fresh = !matches!(&self.serve, Some(s) if s.workload == workload);
        if fresh {
            let gen_cfg = self.next_stream("serve");
            self.serve = Some(ServeSession {
                workload,
                // The session's stream never ends, so refills always
                // draw a full block, amortized across the small
                // per-request op counts.
                stream: LiveOps::new(workload, gen_cfg, u64::MAX),
                ops: 0,
            });
        }
        // Take the session out so `service_op` can borrow `self`
        // mutably; put it back before returning.
        let mut session = self.serve.take().expect("session opened above");
        let mut total_ns = 0.0f64;
        for _ in 0..ops {
            let op = session.stream.next().expect("a serving stream never ends");
            let (service_ns, _hit_ssd) = self.service_op(op);
            total_ns += service_ns;
            session.ops += 1;
            if session.ops.is_multiple_of(EPOCH_OPS) {
                self.mem.reprice(self.now);
            }
        }
        self.serve = Some(session);
        SimTime::from_ns_f64(total_ns)
    }

    /// Runs `ops` operations of a YCSB workload against the store.
    ///
    /// Each call draws a fresh (deterministic) operation stream: repeated
    /// runs on one store continue the workload rather than replaying the
    /// identical trace, so warm-up runs do not pre-answer the measured
    /// run's exact key sequence.
    pub fn run(&mut self, workload: Workload, ops: u64) -> RunResult {
        let gen_cfg = self.next_stream("run");
        let clients = Arrivals::closed(CLIENT_CONCURRENCY);
        self.run_ops(LiveOps::new(workload, gen_cfg, ops), ops, clients)
    }

    /// Replays a recorded op stream as the store's next [`run`].
    ///
    /// The result is bit-identical to `run(trace.workload(),
    /// trace.len())`, without drawing the stream: stores paired on one
    /// stream (Fig. 5's seven configurations) share one recording.
    ///
    /// # Panics
    ///
    /// Panics if the trace was not recorded from this store's next run,
    /// [`KvConfig::run_generator_config`] at the store's next stream
    /// number, naming both configurations.
    ///
    /// [`run`]: KvStore::run
    pub fn replay(&mut self, trace: &OpTrace) -> RunResult {
        let run = self.runs;
        let gen_cfg = self.next_stream("run");
        assert!(
            *trace.config() == gen_cfg,
            "trace recorded from {:?} is not this store's run {run}, {gen_cfg:?}",
            trace.config()
        );
        let clients = Arrivals::closed(CLIENT_CONCURRENCY);
        self.run_ops(trace.replay(), trace.len(), clients)
    }

    /// The op loop of [`run`] and [`replay`] (closed-loop clients) and
    /// of [`run_open_loop`] (Poisson arrivals): serves the `ops` ops of
    /// `source` as `arrivals` issues them.
    ///
    /// [`run`]: KvStore::run
    /// [`replay`]: KvStore::replay
    /// [`run_open_loop`]: KvStore::run_open_loop
    fn run_ops(
        &mut self,
        mut source: impl Iterator<Item = Op>,
        ops: u64,
        mut arrivals: Arrivals,
    ) -> RunResult {
        self.access.start();
        let start = self.now;
        let mut servers = MultiServer::new(SERVER_THREADS);
        // Sojourns of reads and of writes, indexed by `is_write`: each
        // op is recorded once, and the two merge into `latency` at the
        // end.
        let mut sojourns = [Histogram::new(), Histogram::new()];
        let mut ssd_hits = 0u64;

        for i in 0..ops {
            let op = source.next().expect("the op source holds the run's ops");
            let arrival = arrivals.next(start);
            // `self.now` is the tiering clock and must stay monotone: the
            // tier manager's rate limiter and recency tracking observe
            // it. Concurrent clients complete out of order, and epoch
            // refreshes below advance it to a completion time, so an
            // arrival can lie before it.
            self.now = self.now.max(arrival);
            let (service_ns, hit_ssd) = self.service_op(op);
            let completion = servers.submit(arrival, SimTime::from_ns_f64(service_ns));
            arrivals.completed(completion.finish);
            sojourns[op.is_write() as usize].record(completion.sojourn(arrival).as_ns());
            if hit_ssd {
                ssd_hits += 1;
            }
            if (i + 1) % EPOCH_OPS == 0 {
                self.now = self.now.max(completion.finish);
                self.mem.reprice(self.now);
            }
        }

        self.now = servers.makespan().max(self.now);
        self.mem.reprice(self.now);
        // Bucket counts, count and total add and min and max combine, so
        // the merge equals recording every op into one histogram.
        let [read_latency, mut latency] = sojourns;
        latency.merge(&read_latency);
        cxl_obs::merge("kv/op_sojourn_ns", &latency);
        let duration = self.now.saturating_sub(start);
        let throughput = if duration > SimTime::ZERO {
            ops as f64 / duration.as_secs_f64()
        } else {
            0.0
        };
        RunResult {
            ops,
            duration,
            throughput_ops: throughput,
            latency,
            read_latency,
            ssd_hits,
            tier_stats: self.tier().stats().clone(),
        }
    }
}

/// Where the ops of one run arrive from.
enum Arrivals {
    /// Closed-loop clients, op `i` of the run issued by client `i mod n`
    /// once that client's previous op completed. `cursor` is that client:
    /// it starts at 0 with each run and wraps, so finding the client
    /// takes no division.
    Closed {
        clients: Vec<SimTime>,
        cursor: usize,
    },
    /// Open-loop Poisson arrivals: exponential gaps, summed in seconds.
    Open {
        rng: SmallRng,
        gap: Exponential,
        at_s: f64,
    },
}

impl Arrivals {
    /// `clients` closed-loop clients, all idle, the first to issue next.
    fn closed(clients: usize) -> Self {
        Arrivals::Closed {
            clients: vec![SimTime::ZERO; clients],
            cursor: 0,
        }
    }

    /// Arrival instant of the run's next op, for a run that started at
    /// `start`.
    fn next(&mut self, start: SimTime) -> SimTime {
        match self {
            Arrivals::Closed { clients, cursor } => clients[*cursor].max(start),
            Arrivals::Open { rng, gap, at_s } => {
                *at_s += gap.sample(rng);
                SimTime::from_secs_f64(*at_s)
            }
        }
    }

    /// Records that the op the last `next` issued completed at `finish`.
    fn completed(&mut self, finish: SimTime) {
        if let Arrivals::Closed { clients, cursor } = self {
            clients[*cursor] = finish;
            *cursor += 1;
            if *cursor == clients.len() {
                *cursor = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig};
    use cxl_topology::{NodeId, SncMode, Topology};

    // SNC disabled: node 0,1 = DRAM; 2,3 = CXL (both on socket 0).
    const DRAM0: NodeId = NodeId(0);
    const CXL0: NodeId = NodeId(2);

    fn topo() -> Topology {
        Topology::paper_testbed(SncMode::Disabled)
    }

    fn kv_cfg() -> KvConfig {
        KvConfig {
            record_count: 50_000,
            ..Default::default()
        }
    }

    fn mmem_store() -> KvStore {
        KvStore::new(&topo(), TierConfig::bind(vec![DRAM0]), kv_cfg(), false)
    }

    fn interleaved_store(n: u32, m: u32) -> KvStore {
        let mut tc = TierConfig::bind(vec![DRAM0]);
        tc.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], n, m);
        KvStore::new(&topo(), tc, kv_cfg(), false)
    }

    fn ssd_store(mem_fraction: f64) -> KvStore {
        let cfg = kv_cfg();
        let bytes = (cfg.record_count * VALUE_SIZE) as f64;
        let mut tc = TierConfig::bind(vec![DRAM0]);
        tc.capacity_override = vec![
            (DRAM0, (bytes * mem_fraction) as u64),
            (NodeId(1), 0),
            (CXL0, 0),
            (NodeId(3), 0),
        ];
        KvStore::new(&topo(), tc, cfg, true)
    }

    const OPS: u64 = 60_000;

    #[test]
    fn page_index_is_the_division_at_every_page_size() {
        for page_size in [512, 4 << 10, 64 << 10, 512 << 10, 2 << 20, 64 << 20] {
            let mut tc = TierConfig::bind(vec![DRAM0]);
            tc.page_size = page_size;
            let s = KvStore::new(&topo(), tc, kv_cfg(), false);
            for key in 0..s.cfg.record_count {
                assert_eq!(
                    s.page_index_of_key(key) as u64,
                    key * VALUE_SIZE / page_size,
                    "{page_size} B pages, key {key}"
                );
            }
        }
    }

    #[test]
    fn closed_loop_op_i_is_issued_by_client_i_mod_n() {
        // Op `i` completes at a distinct instant, so the arrival of op
        // `i + n` shows which client issued op `i`.
        let n = CLIENT_CONCURRENCY;
        let start = SimTime::from_ns(7);
        let finish = |i: usize| SimTime::from_ns(1_000 + i as u64);
        // Every run builds its clients afresh, so two runs in a row
        // both start at client 0.
        for run in 0..2 {
            let mut arrivals = Arrivals::closed(n);
            for i in 0..3 * n + 5 {
                let Arrivals::Closed { cursor, .. } = &arrivals else {
                    unreachable!("closed-loop arrivals")
                };
                assert_eq!(*cursor, i % n, "run {run}, op {i}");
                let want = if i < n { start } else { finish(i - n) };
                assert_eq!(arrivals.next(start), want, "run {run}, op {i}");
                arrivals.completed(finish(i));
            }
        }
    }

    #[test]
    fn mmem_beats_interleave_beats_ssd() {
        let t_mmem = mmem_store().run(Workload::C, OPS).throughput_ops;
        let t_il = interleaved_store(1, 1).run(Workload::C, OPS).throughput_ops;
        let t_ssd = ssd_store(0.6).run(Workload::C, OPS).throughput_ops;
        assert!(t_mmem > t_il, "MMEM {t_mmem} vs 1:1 {t_il}");
        assert!(t_il > t_ssd, "1:1 {t_il} vs SSD {t_ssd}");
    }

    #[test]
    fn interleave_slowdown_in_papers_band() {
        // §4.1.2: interleaving costs 1.2–1.5x vs pure MMEM.
        let t_mmem = mmem_store().run(Workload::C, OPS).throughput_ops;
        for (n, m) in [(3u32, 1u32), (1, 1), (1, 3)] {
            let t = interleaved_store(n, m).run(Workload::C, OPS).throughput_ops;
            let slow = t_mmem / t;
            assert!((1.10..=1.60).contains(&slow), "{n}:{m} slowdown {slow}");
        }
    }

    #[test]
    fn more_cxl_means_slower() {
        let t31 = interleaved_store(3, 1).run(Workload::C, OPS).throughput_ops;
        let t11 = interleaved_store(1, 1).run(Workload::C, OPS).throughput_ops;
        let t13 = interleaved_store(1, 3).run(Workload::C, OPS).throughput_ops;
        assert!(t31 > t11, "3:1 {t31} vs 1:1 {t11}");
        assert!(t11 > t13, "1:1 {t11} vs 1:3 {t13}");
    }

    #[test]
    fn ssd_spill_hits_ssd_but_zipfian_mostly_cached() {
        let mut s = ssd_store(0.8);
        let r = s.run(Workload::C, OPS);
        assert!(r.ssd_hits > 0, "no SSD hits despite 20 % spill");
        let hit_rate = r.ssd_hits as f64 / r.ops as f64;
        assert!(hit_rate < 0.25, "hit rate {hit_rate}");
    }

    #[test]
    fn ssd_40_slower_than_ssd_20() {
        let t20 = ssd_store(0.8).run(Workload::C, OPS).throughput_ops;
        let t40 = ssd_store(0.6).run(Workload::C, OPS).throughput_ops;
        assert!(t20 > t40, "SSD-0.2 {t20} vs SSD-0.4 {t40}");
    }

    fn hot_promote_store() -> KvStore {
        let cfg = kv_cfg();
        let bytes = cfg.record_count * VALUE_SIZE;
        let mut tc = TierConfig::bind(vec![DRAM0]);
        tc.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
        // Main memory limited to half the dataset (§4.1.1).
        tc.capacity_override = vec![(DRAM0, bytes / 2), (NodeId(1), 0), (NodeId(3), 0)];
        tc.migration = MigrationMode::HotPageSelection(HotPageConfig {
            balancing: NumaBalancingConfig {
                scan_period: SimTime::from_ms(5),
                scan_pages: 4096,
                hot_threshold: SimTime::from_ms(100),
                // Amortized per-faulting-access cost: most accesses check
                // the hint without the full fault path.
                hint_fault_cost: SimTime::from_ns(300),
            },
            promote_rate_limit_bytes_per_sec: 4e9,
            dynamic_threshold: false,
            adjust_period: SimTime::from_ms(100),
            promote_after_faults: 1,
        });
        KvStore::new(&topo(), tc, cfg, false)
    }

    #[test]
    fn hot_promote_recovers_most_of_mmem_performance() {
        // §4.1.2: Hot-Promote "performs nearly as well as running the
        // workload entirely on MMEM" thanks to the Zipfian hot set.
        let t_mmem = mmem_store().run(Workload::C, 150_000).throughput_ops;
        let mut hp = hot_promote_store();
        // Warm-up run lets the hot set migrate.
        hp.run(Workload::C, 150_000);
        let t_hp = hp.run(Workload::C, 150_000).throughput_ops;
        let t_il = interleaved_store(1, 1)
            .run(Workload::C, 150_000)
            .throughput_ops;
        assert!(t_hp > t_il, "hot-promote {t_hp} vs interleave {t_il}");
        assert!(
            t_hp > 0.85 * t_mmem,
            "hot-promote {t_hp} below 85 % of MMEM {t_mmem}"
        );
        assert!(hp.tier().stats().promotions > 0);
    }

    #[test]
    fn cxl_only_penalty_matches_section_4_3() {
        // §4.3.2: ~12.5 % lower throughput, 9–27 % read latency penalty.
        let cfg = KvConfig {
            record_count: 50_000,
            profile: MemProfile::standard(),
            ..Default::default()
        };
        let mut mmem = KvStore::new(&topo(), TierConfig::bind(vec![DRAM0]), cfg.clone(), false);
        let mut cxl = KvStore::new(&topo(), TierConfig::bind(vec![CXL0]), cfg, false);
        let rm = mmem.run(Workload::C, OPS);
        let rc = cxl.run(Workload::C, OPS);
        let tp_loss = 1.0 - rc.throughput_ops / rm.throughput_ops;
        assert!(
            (0.08..=0.20).contains(&tp_loss),
            "throughput loss {tp_loss}"
        );
        let p50m = rm.read_latency.percentile(50.0) as f64;
        let p50c = rc.read_latency.percentile(50.0) as f64;
        let lat_penalty = p50c / p50m - 1.0;
        assert!(
            (0.05..=0.30).contains(&lat_penalty),
            "latency penalty {lat_penalty}"
        );
    }

    #[test]
    fn workload_d_grows_the_dataset() {
        let mut s = mmem_store();
        let pages_before = s.page_count();
        s.run(Workload::D, OPS);
        assert!(s.page_count() > pages_before);
    }

    #[test]
    fn workload_e_scans_run_and_cost_more_than_reads() {
        let mut s1 = mmem_store();
        let re = s1.run(Workload::E, 30_000);
        let mut s2 = mmem_store();
        let rc = s2.run(Workload::C, 30_000);
        assert_eq!(re.ops, 30_000);
        // Scans touch many pages: mean latency clearly above point reads.
        assert!(
            re.latency.mean() > 1.25 * rc.latency.mean(),
            "E {} vs C {}",
            re.latency.mean(),
            rc.latency.mean()
        );
    }

    #[test]
    fn workload_f_read_modify_writes_register_as_writes() {
        let mut sf = mmem_store();
        let rf = sf.run(Workload::F, 30_000);
        let mut sc = mmem_store();
        let rc = sc.run(Workload::C, 30_000);
        // The RMW write-back adds a small service cost; throughputs stay
        // within a few percent, with F no faster than C's regime.
        assert!(rf.throughput_ops < rc.throughput_ops * 1.02);
        assert!(rf.throughput_ops > 0.8 * rc.throughput_ops);
        // Half of F's ops are writes, so its read histogram holds ~50 %.
        let read_frac = rf.read_latency.count() as f64 / rf.latency.count() as f64;
        assert!((read_frac - 0.5).abs() < 0.05, "read fraction {read_frac}");
    }

    #[test]
    fn open_loop_latency_grows_with_offered_rate() {
        let mut s1 = mmem_store();
        let light = s1.run_open_loop(Workload::C, 100_000.0, 30_000);
        let mut s2 = mmem_store();
        let heavy = s2.run_open_loop(Workload::C, 1_200_000.0, 30_000);
        // Light load: sojourn ~ service time. Heavy (near capacity):
        // queueing inflates the tail sharply.
        assert!(
            heavy.latency.percentile(99.0) > 2 * light.latency.percentile(99.0),
            "light p99 {} heavy p99 {}",
            light.latency.percentile(99.0),
            heavy.latency.percentile(99.0)
        );
        // Delivered throughput tracks the offered rate under light load.
        assert!((light.throughput_ops - 100_000.0).abs() / 100_000.0 < 0.05);
    }

    #[test]
    fn open_loop_is_deterministic() {
        let a = mmem_store().run_open_loop(Workload::B, 200_000.0, 10_000);
        let b = mmem_store().run_open_loop(Workload::B, 200_000.0, 10_000);
        assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
    }

    #[test]
    #[should_panic(expected = "invalid arrival rate")]
    fn open_loop_rejects_bad_rate() {
        mmem_store().run_open_loop(Workload::C, 0.0, 10);
    }

    fn ssd_store_with_policy(policy: EvictionPolicy) -> KvStore {
        let cfg = KvConfig {
            record_count: 50_000,
            eviction: policy,
            ..Default::default()
        };
        let bytes = cfg.record_count * VALUE_SIZE;
        let mut tc = TierConfig::bind(vec![DRAM0]);
        tc.capacity_override = vec![
            (DRAM0, (bytes as f64 * 0.6) as u64),
            (NodeId(1), 0),
            (CXL0, 0),
            (NodeId(3), 0),
        ];
        KvStore::new(&topo(), tc, cfg, true)
    }

    #[test]
    fn recency_aware_eviction_beats_random_on_zipfian() {
        // allkeys-lru-style CLOCK keeps the Zipfian hot set resident;
        // random eviction throws warm pages out.
        let runs = |p: EvictionPolicy| {
            let mut s = ssd_store_with_policy(p);
            s.run(Workload::C, 60_000);
            let r = s.run(Workload::C, 60_000);
            (r.throughput_ops, r.ssd_hits)
        };
        let (t_clock, h_clock) = runs(EvictionPolicy::Clock);
        let (t_rand, h_rand) = runs(EvictionPolicy::Random);
        assert!(
            h_rand > h_clock,
            "random hits {h_rand} <= clock hits {h_clock}"
        );
        assert!(t_clock > t_rand, "clock {t_clock} vs random {t_rand}");
    }

    #[test]
    fn lfu_competes_with_clock_on_skewed_keys() {
        let runs = |p: EvictionPolicy| {
            let mut s = ssd_store_with_policy(p);
            s.run(Workload::C, 60_000);
            s.run(Workload::C, 60_000).throughput_ops
        };
        let t_clock = runs(EvictionPolicy::Clock);
        let t_lfu = runs(EvictionPolicy::Lfu);
        // LFU should land in the same class as CLOCK (within 15 %).
        assert!(t_lfu > 0.85 * t_clock, "lfu {t_lfu} vs clock {t_clock}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = mmem_store().run(Workload::A, 20_000);
        let b = mmem_store().run(Workload::A, 20_000);
        assert_eq!(a.throughput_ops, b.throughput_ops);
        assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
    }

    #[test]
    fn update_heavy_tail_above_read_only_tail() {
        let ra = mmem_store().run(Workload::A, OPS);
        let rc = mmem_store().run(Workload::C, OPS);
        // Same service structure, but A's histogram must include writes.
        assert!(ra.latency.count() == OPS && rc.latency.count() == OPS);
        assert!(ra.read_latency.count() < ra.latency.count());
        assert_eq!(rc.read_latency.count(), rc.latency.count());
    }

    /// 64-bit FNV-1a of every field of `h`: bucket counts, count,
    /// total, min and max.
    fn histogram_digest(h: &Histogram) -> u64 {
        format!("{h:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |d, b| {
                (d ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn each_op_latency_is_recorded_once_and_merged() {
        // Digests of `latency` and `read_latency` taken when the run
        // recorded every op into `latency` and every read again into
        // `read_latency`. YCSB-C has no writes, so its merged histogram
        // is the reads' alone; YCSB-D inserts.
        for (w, want) in [
            (Workload::A, [0x0878_99e0_ab48_dac4, 0x2475_5b84_127b_9a89]),
            (Workload::C, [0xe042_3d90_d948_ae61, 0xe042_3d90_d948_ae61]),
            (Workload::D, [0x38b1_db49_a31c_43af, 0x696c_38b7_33ef_60d8]),
        ] {
            let r = interleaved_store(1, 1).run(w, 20_000);
            assert_eq!(r.latency.count(), 20_000, "{w:?}");
            let got = [
                histogram_digest(&r.latency),
                histogram_digest(&r.read_latency),
            ];
            assert_eq!(got, want, "{w:?}: {got:#018x?}");
            if w == Workload::C {
                assert_eq!(r.latency, r.read_latency);
            }
        }
    }

    #[test]
    fn an_untraced_run_hands_over_nothing() {
        let mut s = mmem_store();
        s.run(Workload::A, 5_000);
        // Dropped inside a scope, the store has nothing to hand over:
        // its run began with no registry active.
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        {
            let _scope = cxl_obs::scope(reg.clone());
            drop(s);
        }
        assert!(reg.is_empty(), "{}", reg.export_sim_json());
    }

    #[test]
    fn a_traced_store_hands_over_one_sample_per_page_access() {
        // A flash store whose pages land on DRAM, on CXL and on SSD.
        let cfg = kv_cfg();
        let part = cfg.record_count * VALUE_SIZE * 2 / 5;
        let mut tc = TierConfig::bind(vec![DRAM0]);
        tc.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
        tc.capacity_override = vec![(DRAM0, part), (NodeId(1), 0), (CXL0, part), (NodeId(3), 0)];
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let r = {
            let _scope = cxl_obs::scope(reg.clone());
            let mut store = KvStore::new(&topo(), tc, cfg, true);
            store.run(Workload::F, 5_000)
        };
        // A read-modify-write touches its page twice, any other op once.
        let accesses = r.ops + reg.counter("ycsb/ops/rmw").expect("F draws RMWs");
        let counts = ACCESS_METRICS.map(|m| reg.histogram(m).map_or(0, |h| h.count()));
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), accesses, "{counts:?}");
        assert_eq!(reg.counter("kv/ssd_hits"), Some(counts[SSD_ACCESS]));
        // An op that touched SSD twice is one SSD-hit op.
        assert!(r.ssd_hits <= counts[SSD_ACCESS]);
    }

    #[test]
    fn survives_expander_failure_mid_run() {
        let mut s = interleaved_store(1, 1);
        let before = s.run(Workload::C, 20_000);
        assert!(
            s.tier().node_usage(CXL0).0 > 0,
            "no pages on CXL before fault"
        );

        // The expander dies: mark it offline and let the store react.
        let mut degraded = topo();
        degraded.cxl_device_mut(CXL0).unwrap().health.online = false;
        let report = s.fail_expander(&degraded, CXL0).unwrap();
        assert!(report.total_pages() > 0);
        assert_eq!(s.tier().node_usage(CXL0), (0, 0));
        assert_eq!(s.tier().stats().evacuations, 1);

        // The store keeps serving — every op completes, no panic — on
        // the surviving nodes only.
        let after = s.run(Workload::C, 20_000);
        assert_eq!(after.ops, 20_000);
        assert!(after.throughput_ops > 0.0);
        assert!(after.latency.mean().is_finite());
        for (loc, count) in s.residency() {
            if count > 0 {
                assert_ne!(loc, Location::Node(CXL0), "page still on failed node");
            }
        }
        // Dropping a tier is survivable, not free or catastrophic.
        let ratio = after.throughput_ops / before.throughput_ops;
        assert!(ratio > 0.5, "post-fault throughput collapsed: {ratio}");
    }

    #[test]
    fn latency_inflation_fault_reprices_accesses() {
        let mut s = interleaved_store(1, 1);
        let healthy = s.run(Workload::C, 20_000);

        // A marginal link retrains and the device doubles its load-to-use
        // latency; no pages move, only the pricing changes.
        let mut degraded = topo();
        degraded.cxl_device_mut(CXL0).unwrap().health.latency_factor = 3.0;
        s.apply_topology(&degraded);
        let slow = s.run(Workload::C, 20_000);
        assert_eq!(slow.ops, 20_000);
        assert!(
            slow.throughput_ops < healthy.throughput_ops,
            "inflated CXL latency did not slow the store: {} vs {}",
            slow.throughput_ops,
            healthy.throughput_ops
        );
    }

    #[test]
    fn service_request_is_deterministic_and_monotone() {
        let mut a = mmem_store();
        let mut b = mmem_store();
        let mut t = SimTime::ZERO;
        for i in 0..500u64 {
            t += SimTime::from_us(50);
            let sa = a.service_request(t, Workload::A, 4);
            let sb = b.service_request(t, Workload::A, 4);
            assert_eq!(sa, sb, "request {i} diverged");
            assert!(sa > SimTime::ZERO);
        }
        // The tiering clock never ran backwards and tracked dispatch.
        assert!(a.tier().stats().promotions == b.tier().stats().promotions);
    }

    #[test]
    fn service_request_continues_one_stream() {
        // 100 thirty-op requests must walk the same op stream as one
        // 3000-op request at the same dispatch instant: one generator
        // session, with the epoch refresh (at op `EPOCH_OPS`, which
        // falls mid-request) on the same op count. Fresh generators per
        // request would draw other keys and leave other tier state.
        const REQUEST_OPS: u64 = 30;
        assert!(!EPOCH_OPS.is_multiple_of(REQUEST_OPS) && 100 * REQUEST_OPS > EPOCH_OPS);
        let at = SimTime::from_us(100);
        let mut split = ssd_store(0.8);
        for _ in 0..100 {
            split.service_request(at, Workload::C, REQUEST_OPS);
        }
        let mut whole = ssd_store(0.8);
        whole.service_request(at, Workload::C, 100 * REQUEST_OPS);
        assert!(split.tier().stats().ssd_loads > 0);
        assert_eq!(split.tier().stats(), whole.tier().stats());
        assert_eq!(split.residency(), whole.residency());
        // Switching workloads opens a new session instead of continuing
        // the old trace.
        split.service_request(at, Workload::A, 10);
        let session = split.serve.as_ref().expect("session is open");
        assert_eq!((session.workload, session.ops), (Workload::A, 10));
        assert_eq!(split.runs, 2);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn service_request_rejects_empty_request() {
        mmem_store().service_request(SimTime::ZERO, Workload::C, 0);
    }

    #[test]
    fn replayed_traces_match_live_runs() {
        // Twin stores: one draws its warm-up and measured runs live, the
        // other replays them from recordings. Under D the inserts grow
        // the dataset, so the twins must also allocate alike.
        let flash_store = || ssd_store(0.6);
        let stores = [
            ("flash CLOCK", flash_store as fn() -> KvStore),
            ("Hot-Promote", hot_promote_store),
        ];
        for (name, store) in stores {
            for w in [Workload::A, Workload::D] {
                let (mut live, mut replayed) = (store(), store());
                for (run, ops) in [(0, 30_000), (1, 20_000)] {
                    let a = live.run(w, ops);
                    let gen_cfg = replayed.cfg.run_generator_config(run);
                    let b = replayed.replay(&OpTrace::record(w, gen_cfg, ops));
                    let at = format!("{name}, {}, run {run}", w.label());
                    assert_eq!((a.ops, a.duration), (b.ops, b.duration), "{at}");
                    assert_eq!(a.latency, b.latency, "{at}");
                    assert_eq!(a.read_latency, b.read_latency, "{at}");
                    assert_eq!(a.ssd_hits, b.ssd_hits, "{at}");
                    assert_eq!(a.throughput_ops.to_bits(), b.throughput_ops.to_bits());
                    assert_eq!(a.tier_stats, b.tier_stats, "{at}");
                }
                assert_eq!(live.page_count(), replayed.page_count(), "{name}");
                assert_eq!(live.residency(), replayed.residency(), "{name}");
                // Pages moved: flash cached them in from SSD, Hot-Promote
                // promoted them.
                let stats = live.tier().stats();
                assert!(
                    stats.ssd_loads + stats.promotions > 0,
                    "{name}: no page moved"
                );
                if w == Workload::D {
                    assert!(
                        live.page_count() > store().page_count(),
                        "{name}: D grew nothing"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not this store's run 0")]
    fn replay_refuses_another_runs_trace() {
        let mut s = mmem_store();
        let gen_cfg = s.cfg.run_generator_config(1);
        s.replay(&OpTrace::record(Workload::A, gen_cfg, 10));
    }

    #[test]
    #[should_panic(expected = "is not this store's run 0")]
    fn replay_refuses_another_stores_trace() {
        let other = KvConfig {
            seed: 43,
            ..kv_cfg()
        };
        let trace = OpTrace::record(Workload::A, other.run_generator_config(0), 10);
        mmem_store().replay(&trace);
    }
}
