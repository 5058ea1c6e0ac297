//! The serving event loop: admission, dispatch, completion, autoscale,
//! fault injection, and the slab-second cost ledger.
//!
//! Everything runs on one [`cxl_sim::Engine`]. Arrival traces are
//! materialised up front (see [`crate::arrival`]) so the offered load is
//! independent of backend state, but each tenant's trace enters the
//! engine as one stream ([`cxl_sim::Engine::schedule_stream`]): only its
//! next arrival is pending at any time. Each tenant owns a bounded FIFO fed
//! through two admission gates — a queue-depth cutoff (`Rejected`) and a
//! token budget (`Shed`) — and a worker pool that prices service on the
//! real backends: [`cxl_kv::KvStore::service_request`] for KeyDB
//! tenants, [`cxl_llm::server::request_timing`] at the live concurrency
//! for LLM tenants.
//!
//! Capacity elasticity walks each tenant's lease ladder, and every
//! actuation is a [`lease::resize`] transaction against the shared
//! [`PoolManager`] — a grow the pool cannot meet in full is refused
//! before it queues or revokes anything, shrink goes through the
//! store's rate-limited evacuation path, and `check_invariants` runs
//! [`lease::audit`] on every tenant after every change (violations are
//! counted and gated at zero in CI).
//!
//! Each tenant counts its own requests; the run hands those totals to
//! `cxl-obs` once, when it builds its report.

use std::collections::VecDeque;

use rand::Rng;
use serde::Serialize;

use cxl_ctl::CtlError;
use cxl_llm::server::{request_timing, token_time, Request, ServerConfig};
use cxl_llm::{LlmCluster, LlmConfig, LlmPlacement};
use cxl_pool::{HostId, PoolManager};
use cxl_sim::{Engine, SimTime, TokenBucket};
use cxl_stats::rng::{derive_seed, stream_rng};
use cxl_stats::{Ewma, Histogram};
use cxl_topology::{MemoryTier, Topology};
use cxl_ycsb::Workload;

use crate::arrival::generate_arrivals;
use crate::config::{
    ServeConfig, TenantClass, TenantConfig, BACKLOG_EWMA_ALPHA, COOLDOWN_TICKS,
    GROW_BACKLOG_PER_WORKER, PANIC_BACKLOG_PER_WORKER, SHRINK_BACKLOG_PER_WORKER,
};
use crate::lease::{self, LeasedKv};

// ---------------------------------------------------------------------
// Request work and outcomes
// ---------------------------------------------------------------------

/// Work for one request, drawn in arrival order from the tenant's own
/// RNG stream, so the offered load never depends on simulation state.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// A KeyDB batch of this many ops.
    Kv { ops: u64 },
    /// An LLM request with its output length already drawn.
    Llm { req: Request },
}

/// A request sitting in a tenant's FIFO.
#[derive(Debug, Clone, Copy)]
struct Queued {
    arrived: SimTime,
    work: Work,
}

// ---------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------

/// A leased KV store (see [`crate::lease`]) serving one YCSB workload.
struct KvBackend {
    leased: LeasedKv,
    workload: Workload,
}

/// The §4.5 LLM serving model; leased slabs add backend instances.
struct LlmBackend {
    cluster: LlmCluster,
    topo: Topology,
    placement: LlmPlacement,
    kv_growth_per_kt: f64,
}

impl LlmBackend {
    fn new() -> Self {
        let topo = Topology::snc_domain_with_cxl();
        let cluster = LlmCluster::with_topology(LlmConfig::default(), &topo);
        Self {
            cluster,
            topo,
            placement: LlmPlacement::Interleave { n: 2, m: 1 },
            kv_growth_per_kt: ServerConfig::default().kv_growth_per_kt,
        }
    }
}

enum Backend {
    // Boxed: a backend carries a full store/cluster + topology, and
    // tenants live in one Vec — keep the enum pointer-sized.
    Kv(Box<KvBackend>),
    Llm(Box<LlmBackend>),
}

// ---------------------------------------------------------------------
// Tenant runtime state
// ---------------------------------------------------------------------

struct TenantRt {
    cfg: TenantConfig,
    backend: Backend,
    queue: VecDeque<Queued>,
    bucket: TokenBucket,
    busy: usize,
    held_slabs: u64,
    peak_slabs: u64,
    rung: usize,
    cooldown: u32,
    backlog: Ewma,
    arrivals: u64,
    served: u64,
    shed: u64,
    rejected: u64,
    max_queue: usize,
    pre_hist: Histogram,
    post_hist: Histogram,
}

impl TenantRt {
    /// Concurrent requests the tenant can have in service right now.
    fn capacity(&self) -> usize {
        match self.backend {
            // KV leases add memory capacity, not workers.
            Backend::Kv(_) => self.cfg.workers,
            // LLM leases add backend instances.
            Backend::Llm(_) => self.cfg.workers + self.held_slabs as usize,
        }
    }
}

// ---------------------------------------------------------------------
// The world
// ---------------------------------------------------------------------

/// Engine state: every tenant plus the shared lease pool and ledgers.
pub struct ServeWorld {
    cfg: ServeConfig,
    tenants: Vec<TenantRt>,
    pool: PoolManager,
    /// Lease ladder in slabs (autoscale config, or a one-rung static
    /// ladder); a tenant's rung indexes into it.
    ladder: Vec<u64>,
    /// Virtual time of the event being handled (plumbed to the pool).
    clock: SimTime,
    fault_fired: bool,
    lease_grows: u64,
    lease_shrinks: u64,
    lease_rejected: u64,
    guardrail_violations: u64,
    /// Integrated leased slab-seconds, priced.
    lease_cost_units: f64,
    last_accrue: SimTime,
}

impl ServeWorld {
    fn new(cfg: &ServeConfig) -> Self {
        cfg.validate();
        let ladder = match &cfg.autoscale {
            Some(a) => a.ladder.clone(),
            None => vec![cfg.static_lease_slabs],
        };
        let tenants = cfg
            .tenants
            .iter()
            .map(|t| {
                let backend = match t.class {
                    TenantClass::Kv {
                        workload,
                        record_count,
                        ..
                    } => Backend::Kv(Box::new(KvBackend {
                        // Base coverage is deliberately lean: 35% DRAM +
                        // 40% fixed expander, so the flash-resident tail
                        // is real capacity pressure. That makes the lease
                        // a live performance lever in BOTH regimes —
                        // pre-fault a day-peak tenant leases to lift the
                        // tail out of flash, and the slabs it already
                        // holds when the fixed expander dies absorb the
                        // relocated pages (a reactive post-fault grant can
                        // only promote the hot set back; pages spilled to
                        // flash at fault time otherwise stay cold).
                        //
                        // Promotion is aggressive (vs the 32 MiB/s
                        // steady-tiering limit the autotune study uses):
                        // when a lease lands mid-incident, refilling the
                        // hot set quickly IS the recovery — throttling it
                        // just stretches the transient the lease was
                        // bought to end.
                        leased: LeasedKv::new(
                            record_count,
                            (7, 20),
                            (2, 5),
                            512.0 * 1024.0 * 1024.0,
                            derive_seed(cfg.seed, &format!("serve.kv.{}", t.name)),
                        ),
                        workload,
                    })),
                    TenantClass::Llm { .. } => Backend::Llm(Box::new(LlmBackend::new())),
                };
                TenantRt {
                    cfg: t.clone(),
                    backend,
                    queue: VecDeque::new(),
                    bucket: TokenBucket::new(t.admission_rate_rps, t.admission_burst),
                    busy: 0,
                    held_slabs: 0,
                    peak_slabs: 0,
                    rung: 0,
                    cooldown: 0,
                    backlog: Ewma::new(BACKLOG_EWMA_ALPHA),
                    arrivals: 0,
                    served: 0,
                    shed: 0,
                    rejected: 0,
                    max_queue: 0,
                    pre_hist: Histogram::new(),
                    post_hist: Histogram::new(),
                }
            })
            .collect::<Vec<_>>();
        let hosts = tenants.len();
        Self {
            cfg: cfg.clone(),
            tenants,
            pool: PoolManager::new(cfg.pool_slabs, hosts, 0.25),
            ladder,
            clock: SimTime::ZERO,
            fault_fired: false,
            lease_grows: 0,
            lease_shrinks: 0,
            lease_rejected: 0,
            guardrail_violations: 0,
            lease_cost_units: 0.0,
            last_accrue: SimTime::ZERO,
        }
    }

    /// Integrates the lease ledger up to `now` at the CXL price.
    fn accrue(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last_accrue).as_secs_f64();
        let held: u64 = self.tenants.iter().map(|t| t.held_slabs).sum();
        self.lease_cost_units +=
            held as f64 * dt * self.cfg.cost.dram_cost_per_slab_s * self.cfg.cost.cxl_cost_rel;
        self.last_accrue = now;
    }

    /// Moves tenant `ti`'s lease to `target` slabs, transactionally:
    /// a partial pool grant rolls back and rejects; a KV shrink goes
    /// through the rate-limited evacuation path before slabs return to
    /// the pool.
    fn set_lease(&mut self, ti: usize, target: u64) -> Result<(), CtlError> {
        let cur = self.tenants[ti].held_slabs;
        if target == cur {
            return Ok(());
        }
        self.accrue(self.clock);
        let t = &mut self.tenants[ti];
        let kv = match &mut t.backend {
            Backend::Kv(kv) => Some(&mut kv.leased),
            Backend::Llm(_) => None,
        };
        lease::resize(
            &mut self.pool,
            HostId(ti),
            &mut t.held_slabs,
            target,
            self.clock,
            kv,
        )?;
        t.peak_slabs = t.peak_slabs.max(target);
        if target > cur {
            self.lease_grows += 1;
        } else {
            self.lease_shrinks += 1;
        }
        Ok(())
    }

    /// Kills the fixed CXL capacity of every backend: KV stores fence
    /// and evacuate their fixed expander; the LLM cluster's expander
    /// goes offline and its interleave collapses to DRAM.
    fn inject_fault(&mut self) {
        for t in &mut self.tenants {
            match &mut t.backend {
                Backend::Kv(kv) => kv.leased.fail_fixed_expander(),
                Backend::Llm(lb) => {
                    let node = lb
                        .topo
                        .nodes()
                        .iter()
                        .find(|n| n.tier == MemoryTier::CxlExpander)
                        .expect("snc domain has a cxl expander")
                        .id;
                    lb.topo
                        .cxl_device_mut(node)
                        .expect("expander node has a device")
                        .health
                        .online = false;
                    let topo = lb.topo.clone();
                    lb.cluster.apply_topology(&topo);
                }
            }
        }
        self.fault_fired = true;
    }

    /// Audits the lease/grant/capacity triangle for every tenant.
    fn check_invariants(&self) -> Result<(), String> {
        for (ti, t) in self.tenants.iter().enumerate() {
            let kv = match &t.backend {
                Backend::Kv(kv) => Some(&kv.leased),
                Backend::Llm(_) => None,
            };
            lease::audit(&self.pool, HostId(ti), t.held_slabs, kv)
                .map_err(|e| format!("tenant {}: {e}", t.cfg.name))?;
        }
        Ok(())
    }

    /// Hands the run's totals to the current `cxl-obs` registry: each
    /// nonzero count under its name, overall and per tenant, as one
    /// call per request or actuation would have left it. A tenant's
    /// lease peak is a running max, not its final level: cells of a
    /// study share the registry, so only commutative aggregates stay
    /// identical under any worker schedule.
    fn record_totals(&self) {
        if !cxl_obs::active() {
            return;
        }
        let add = |name: &str, n: u64| {
            if n > 0 {
                cxl_obs::counter_add(name, n);
            }
        };
        for t in &self.tenants {
            let name = &t.cfg.name;
            add("serve/served", t.served);
            add("serve/shed", t.shed);
            add("serve/rejected", t.rejected);
            add(&format!("serve/{name}/served"), t.served);
            add(&format!("serve/{name}/shed"), t.shed);
            add(&format!("serve/{name}/rejected"), t.rejected);
            cxl_obs::merge("serve/sojourn_us", &t.pre_hist);
            cxl_obs::merge("serve/sojourn_us", &t.post_hist);
            if t.peak_slabs > 0 {
                cxl_obs::counter_max(&format!("serve/{name}/peak_lease_slabs"), t.peak_slabs);
            }
        }
        add("serve/faults_injected", u64::from(self.fault_fired));
        add("serve/lease_rejected", self.lease_rejected);
        add("serve/guardrail_violations", self.guardrail_violations);
    }
}

// ---------------------------------------------------------------------
// Event handlers
// ---------------------------------------------------------------------

fn on_arrival(e: &mut Engine<ServeWorld>, ti: usize, work: Work) {
    let now = e.now();
    let w = e.state_mut();
    w.clock = now;
    let t = &mut w.tenants[ti];
    t.arrivals += 1;
    // Gate order matters: the token budget is the tenant's admission
    // contract (an SLO-rate limit), so it is charged first; the bounded
    // queue is backpressure for traffic the budget already admitted.
    if !t.bucket.try_take(now, 1.0) {
        t.shed += 1;
        return;
    }
    if t.queue.len() >= t.cfg.queue_cap {
        t.rejected += 1;
        return;
    }
    t.queue.push_back(Queued { arrived: now, work });
    t.max_queue = t.max_queue.max(t.queue.len());
    dispatch(e, ti);
}

/// Starts service for queued requests while workers are free.
fn dispatch(e: &mut Engine<ServeWorld>, ti: usize) {
    loop {
        let now = e.now();
        let w = e.state_mut();
        let t = &mut w.tenants[ti];
        if t.busy >= t.capacity() || t.queue.is_empty() {
            return;
        }
        let q = t.queue.pop_front().expect("checked non-empty");
        t.busy += 1;
        let svc = match (&mut t.backend, q.work) {
            (Backend::Kv(kv), Work::Kv { ops }) => {
                kv.leased.store.service_request(now, kv.workload, ops)
            }
            (Backend::Llm(lb), Work::Llm { req }) => {
                let tt = token_time(&lb.cluster, lb.placement, t.busy);
                request_timing(tt, req, lb.kv_growth_per_kt).total
            }
            _ => unreachable!("tenant class and work kind are built together"),
        };
        let arrived = q.arrived;
        e.schedule_at(now + svc, move |e| on_complete(e, ti, arrived));
    }
}

fn on_complete(e: &mut Engine<ServeWorld>, ti: usize, arrived: SimTime) {
    let now = e.now();
    let w = e.state_mut();
    w.clock = now;
    let post_fault = w.cfg.fault_at.is_some_and(|f| now >= f);
    let t = &mut w.tenants[ti];
    t.busy -= 1;
    t.served += 1;
    let lat_us = now.saturating_sub(arrived).as_ns() / 1_000;
    if post_fault {
        t.post_hist.record(lat_us);
    } else {
        t.pre_hist.record(lat_us);
    }
    dispatch(e, ti);
}

/// One autoscale tick: refresh every tenant's backlog EWMA, walk its
/// lease rung with hysteresis and cooldown, resize the lease, and audit
/// invariants.
fn autoscale_tick(e: &mut Engine<ServeWorld>) {
    let now = e.now();
    let n = e.state().tenants.len();
    for ti in 0..n {
        let decision = {
            let w = e.state_mut();
            w.clock = now;
            let t = &mut w.tenants[ti];
            t.backlog.push((t.queue.len() + t.busy) as f64);
            if t.cooldown > 0 {
                t.cooldown -= 1;
                None
            } else {
                let ew = t.backlog.value().unwrap_or(0.0);
                let per_worker = ew / t.cfg.workers as f64;
                let rung = t.rung;
                let top = w.ladder.len() - 1;
                if per_worker > PANIC_BACKLOG_PER_WORKER && rung < top {
                    // Fault-sized excursion: skip the ladder walk.
                    Some(top)
                } else if per_worker > GROW_BACKLOG_PER_WORKER && rung < top {
                    Some(rung + 1)
                } else if per_worker < SHRINK_BACKLOG_PER_WORKER && rung > 0 {
                    Some(rung - 1)
                } else {
                    None
                }
            }
        };
        let Some(target) = decision else { continue };
        let w = e.state_mut();
        if w.set_lease(ti, w.ladder[target]).is_ok() {
            let t = &mut w.tenants[ti];
            t.rung = target;
            t.cooldown = COOLDOWN_TICKS;
        } else {
            // Contention for the shared pool is normal operation: count
            // it and retry on a later tick.
            w.lease_rejected += 1;
        }
        if let Err(msg) = w.check_invariants() {
            w.guardrail_violations += 1;
            debug_assert!(false, "serve invariant violated: {msg}");
        }
        // After a successful lease change a burst of queued work may now
        // fit; dispatch immediately rather than waiting for the next
        // completion.
        dispatch(e, ti);
    }
    // Newly freed slabs can unblock another tenant's queued grant only
    // on its own later tick; nothing to do here.
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Per-tenant outcome of a serving run.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Requests that arrived within the horizon.
    pub arrivals: u64,
    /// Requests completed within the horizon.
    pub served: u64,
    /// Requests shed by the admission token budget.
    pub shed: u64,
    /// Requests rejected by the queue-depth cutoff.
    pub rejected: u64,
    /// p99 sojourn (queueing + service), ms, over the whole run.
    /// `None` when the tenant served nothing — a suspended tenant has
    /// no latency distribution, not a zero one.
    pub p99_ms: Option<f64>,
    /// p99 sojourn before the fault instant, ms.
    pub p99_pre_fault_ms: Option<f64>,
    /// p99 sojourn at/after the fault instant, ms.
    pub p99_post_fault_ms: Option<f64>,
    /// Mean sojourn, ms.
    pub mean_ms: f64,
    /// Deepest the FIFO ever got.
    pub max_queue: usize,
    /// Largest lease the tenant held.
    pub peak_lease_slabs: u64,
    /// Lease held at the horizon.
    pub final_lease_slabs: u64,
    /// The tenant's p99 SLO target, ms (for reference in reports).
    pub slo_p99_ms: f64,
}

impl TenantReport {
    /// Fraction of arrivals dropped by either admission gate.
    pub fn drop_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        (self.shed + self.rejected) as f64 / self.arrivals as f64
    }

    /// p99 as a fraction of the tenant's SLO target (1.0 = exactly at
    /// SLO; > 1 = violating). `None` when the tenant served nothing.
    ///
    /// This is the unit tail comparisons across tenant classes must use:
    /// an LLM tenant's healthy p99 is three orders of magnitude above a
    /// KV tenant's, so raw worst-of-p99s would only ever describe the
    /// LLM tenant.
    pub fn slo_frac(&self) -> Option<f64> {
        self.p99_ms.map(|p| p / self.slo_p99_ms)
    }
}

/// Whole-run outcome: per-tenant rows plus shared ledgers.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Per-tenant outcomes, in config order.
    pub tenants: Vec<TenantReport>,
    /// Total requests served.
    pub served: u64,
    /// Total requests shed by token budgets.
    pub shed: u64,
    /// Total requests rejected by queue cutoffs.
    pub rejected: u64,
    /// Successful lease grows.
    pub lease_grows: u64,
    /// Successful lease shrinks.
    pub lease_shrinks: u64,
    /// Lease actions rejected by the pool or the evacuation path.
    pub lease_rejected: u64,
    /// `check_invariants` failures after actuation (must be 0).
    pub guardrail_violations: u64,
    /// Whether the configured fault actually fired.
    pub fault_fired: bool,
    /// Static base capacity bill (DRAM-priced slab-seconds).
    pub base_cost_units: f64,
    /// Leased capacity bill (CXL-priced slab-seconds, integrated).
    pub lease_cost_units: f64,
    /// Total bill.
    pub cost_units: f64,
    /// Total bill divided by requests served.
    pub cost_per_request: f64,
    /// Horizon, seconds.
    pub horizon_s: f64,
}

impl ServeReport {
    /// Worst per-tenant p99 across tenants that served anything, ms.
    pub fn worst_p99_ms(&self) -> f64 {
        self.tenants
            .iter()
            .filter_map(|t| t.p99_ms)
            .fold(0.0, f64::max)
    }

    /// Worst per-tenant p99-to-SLO ratio across tenants that served
    /// anything (see [`TenantReport::slo_frac`]).
    pub fn worst_slo_frac(&self) -> f64 {
        self.tenants
            .iter()
            .filter_map(|t| t.slo_frac())
            .fold(0.0, f64::max)
    }

    /// Total sheds + rejections as a fraction of all arrivals.
    pub fn drop_fraction(&self) -> f64 {
        let arrivals: u64 = self.tenants.iter().map(|t| t.arrivals).sum();
        if arrivals == 0 {
            return 0.0;
        }
        (self.shed + self.rejected) as f64 / arrivals as f64
    }
}

fn p99_ms(h: &Histogram) -> Option<f64> {
    h.try_percentile(99.0).map(|us| us as f64 / 1_000.0)
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Runs one serving scenario to its horizon and reports.
pub fn run_serve(cfg: &ServeConfig) -> ServeReport {
    cfg.validate();
    let horizon = cfg.horizon();
    let mut engine = Engine::new(ServeWorld::new(cfg));

    // One arrival stream per tenant, installed in tenant order. The
    // trace is materialised, but only its next arrival is pending; each
    // request's work is drawn, in arrival order, from the tenant's own
    // RNG stream as its arrival is pulled into the engine. The offered
    // load stays a pure function of (seed, tenant name).
    for (ti, t) in cfg.tenants.iter().enumerate() {
        let class = t.class;
        let mut work_rng = stream_rng(cfg.seed, &format!("serve.work.{}", t.name));
        let arrivals = generate_arrivals(cfg, ti).into_iter().map(move |at| {
            let work = match class {
                TenantClass::Kv {
                    ops_per_request, ..
                } => Work::Kv {
                    ops: ops_per_request,
                },
                TenantClass::Llm {
                    prompt_tokens,
                    mean_output_tokens,
                } => {
                    // Same draw shape as the Fig. 9 serving sim: uniform
                    // 0.5x–1.5x around the mean, at least one token.
                    let out = (mean_output_tokens as f64 * (0.5 + work_rng.gen::<f64>())).max(1.0);
                    Work::Llm {
                        req: Request {
                            prompt_tokens,
                            output_tokens: out as u32,
                        },
                    }
                }
            };
            (at, work)
        });
        engine.schedule_stream(arrivals, move |e, work| on_arrival(e, ti, work));
    }

    // Static provisioning: take the fixed lease up front, hold it for
    // the whole run. A rejection here (pool too small for every tenant)
    // is counted, not fatal — exactly the failure mode static
    // over-subscription has in practice.
    if cfg.autoscale.is_none() && cfg.static_lease_slabs > 0 {
        for ti in 0..cfg.tenants.len() {
            let w = engine.state_mut();
            if w.set_lease(ti, cfg.static_lease_slabs).is_err() {
                w.lease_rejected += 1;
            }
            if let Err(msg) = w.check_invariants() {
                w.guardrail_violations += 1;
                debug_assert!(false, "serve invariant violated: {msg}");
            }
        }
    }

    if let Some(a) = &cfg.autoscale {
        engine.schedule_every(a.period, |e| {
            autoscale_tick(e);
            true
        });
    }

    if let Some(at) = cfg.fault_at {
        engine.schedule_at(at, |e| {
            let now = e.now();
            let w = e.state_mut();
            w.clock = now;
            w.inject_fault();
        });
    }

    engine.run_until(horizon);

    let mut w = engine.into_state();
    w.accrue(horizon);
    w.record_totals();

    let horizon_s = horizon.as_secs_f64();
    let mut base_cost_units = 0.0;
    let tenants: Vec<TenantReport> = w
        .tenants
        .iter()
        .map(|t| {
            // Static base capacity in slab equivalents: the memory a
            // tenant pays for whether or not it leases. KV tenants hold
            // DRAM plus the fixed expander; LLM tenants hold their base
            // backend instances.
            let base_slab_equiv = match &t.backend {
                Backend::Kv(kv) => kv.leased.base_slabs(),
                Backend::Llm(_) => t.cfg.workers as f64,
            };
            base_cost_units += base_slab_equiv * horizon_s * w.cfg.cost.dram_cost_per_slab_s;
            let mut all = t.pre_hist.clone();
            all.merge(&t.post_hist);
            TenantReport {
                name: t.cfg.name.clone(),
                arrivals: t.arrivals,
                served: t.served,
                shed: t.shed,
                rejected: t.rejected,
                p99_ms: p99_ms(&all),
                p99_pre_fault_ms: p99_ms(&t.pre_hist),
                p99_post_fault_ms: p99_ms(&t.post_hist),
                mean_ms: all.mean() / 1_000.0,
                max_queue: t.max_queue,
                peak_lease_slabs: t.peak_slabs,
                final_lease_slabs: t.held_slabs,
                slo_p99_ms: t.cfg.slo_p99_ms,
            }
        })
        .collect();

    let served: u64 = tenants.iter().map(|t| t.served).sum();
    let shed: u64 = tenants.iter().map(|t| t.shed).sum();
    let rejected: u64 = tenants.iter().map(|t| t.rejected).sum();
    let cost_units = base_cost_units + w.lease_cost_units;
    ServeReport {
        tenants,
        served,
        shed,
        rejected,
        lease_grows: w.lease_grows,
        lease_shrinks: w.lease_shrinks,
        lease_rejected: w.lease_rejected,
        guardrail_violations: w.guardrail_violations,
        fault_fired: w.fault_fired,
        base_cost_units,
        lease_cost_units: w.lease_cost_units,
        cost_units,
        cost_per_request: if served > 0 {
            cost_units / served as f64
        } else {
            f64::INFINITY
        },
        horizon_s,
    }
}
