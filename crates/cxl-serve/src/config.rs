//! Tenant, diurnal-trace, admission, and autoscale configuration.

use cxl_sim::SimTime;
use cxl_ycsb::Workload;
use serde::Serialize;

/// One phase of the diurnal schedule shared by every tenant.
///
/// The schedule is a sequence of named phases (morning ramp, day peak,
/// evening, night trough); each tenant scales its base arrival rate by
/// its own per-phase multiplier, so tenant mixes can peak at different
/// times of day while sharing one clock.
#[derive(Debug, Clone, Serialize)]
pub struct Phase {
    /// Display name ("day", "night", ...).
    pub name: String,
    /// Phase duration in virtual time.
    pub dur: SimTime,
}

impl Phase {
    /// Convenience constructor.
    pub fn new(name: &str, dur: SimTime) -> Self {
        Self {
            name: name.to_string(),
            dur,
        }
    }
}

/// Bursty modulation on top of the diurnal rate: an alternating-renewal
/// process (exponential on/off holding times) multiplying the arrival
/// rate while "on" — the demand shape `cxl-pool`'s provisioning studies
/// assume, now driving actual request arrivals.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BurstConfig {
    /// Rate multiplier while a burst is active (>= 1).
    pub mult: f64,
    /// Mean burst duration, seconds.
    pub mean_on_s: f64,
    /// Mean gap between bursts, seconds.
    pub mean_off_s: f64,
}

impl BurstConfig {
    /// Panics, naming `tenant`, unless the multiplier is finite and at
    /// least 1 and both holding-time means are finite and positive. An
    /// infinite mean would otherwise reach the sampler as rate 0.
    pub(crate) fn validate(&self, tenant: &str) {
        assert!(
            self.mult.is_finite() && self.mult >= 1.0,
            "tenant {tenant} has burst mult {}: must be finite and >= 1",
            self.mult
        );
        for (field, mean) in [
            ("mean_on_s", self.mean_on_s),
            ("mean_off_s", self.mean_off_s),
        ] {
            assert!(
                mean.is_finite() && mean > 0.0,
                "tenant {tenant} has burst {field} {mean}: must be finite and > 0"
            );
        }
    }
}

/// What a tenant's requests do when dispatched.
#[derive(Debug, Clone, Copy, Serialize)]
pub enum TenantClass {
    /// KeyDB tenant: each request runs `ops_per_request` YCSB ops
    /// against a flash-backed store through
    /// [`cxl_kv::KvStore::service_request`].
    Kv {
        /// YCSB mix the tenant issues.
        workload: Workload,
        /// Store operations bundled per request (a pipelined batch).
        ops_per_request: u64,
        /// Pre-loaded records in the tenant's store.
        record_count: u64,
    },
    /// LLM tenant: each request is a prefill + decode priced by
    /// [`cxl_llm::server::request_timing`] at the live backend
    /// concurrency.
    Llm {
        /// Prompt tokens per request.
        prompt_tokens: u32,
        /// Mean output tokens per request (uniform 0.5x–1.5x draw, as
        /// in the Fig. 9 serving sim).
        mean_output_tokens: u32,
    },
}

/// One tenant of the serving front end.
#[derive(Debug, Clone, Serialize)]
pub struct TenantConfig {
    /// Tenant name — keys the per-tenant `cxl-obs` metric family
    /// (`serve/<name>/...`) and the report rows.
    pub name: String,
    /// Backend class and request shape.
    pub class: TenantClass,
    /// Base arrival rate, requests/s, before diurnal/burst modulation.
    pub base_rate_rps: f64,
    /// Per-phase rate multipliers, index-aligned with
    /// [`ServeConfig::phases`].
    pub phase_mults: Vec<f64>,
    /// Optional bursty modulation on top of the diurnal shape.
    pub burst: Option<BurstConfig>,
    /// Bounded FIFO depth; arrivals past it are `Rejected` (backpressure
    /// cutoff, counted separately from budget sheds).
    pub queue_cap: usize,
    /// Admission token budget refill, requests/s. 0 suspends the tenant:
    /// every arrival sheds once the initial burst drains.
    pub admission_rate_rps: f64,
    /// Admission token budget burst capacity, requests.
    pub admission_burst: f64,
    /// Base service concurrency (KeyDB worker threads / LLM backend
    /// instances) before any leased expansion.
    pub workers: usize,
    /// Per-tenant p99 SLO target, ms (reported; the guardrail the
    /// adaptive scenario must hold at nominal load).
    pub slo_p99_ms: f64,
}

/// The autoscaler grows a tenant's lease one rung when its EWMA backlog
/// exceeds this many requests per worker.
pub(crate) const GROW_BACKLOG_PER_WORKER: f64 = 2.0;

/// It shrinks the lease one rung when the EWMA backlog falls below this
/// many requests per worker.
pub(crate) const SHRINK_BACKLOG_PER_WORKER: f64 = 0.5;

/// Panic threshold: above this EWMA backlog per worker the lease jumps
/// straight to the top rung instead of climbing one rung per tick. A
/// fault-sized backlog excursion is not a gentle ramp — paying
/// rung-by-rung cooldowns through it bleeds p99 for seconds while the
/// signal is already unambiguous.
pub(crate) const PANIC_BACKLOG_PER_WORKER: f64 = 8.0;

/// Ticks a tenant's lease stays on cooldown after a change.
pub(crate) const COOLDOWN_TICKS: u32 = 2;

/// Smoothing factor of every tenant's backlog EWMA.
pub(crate) const BACKLOG_EWMA_ALPHA: f64 = 0.4;

// Hysteresis needs shrink < grow, and the panic jump sits above growth.
const _: () = assert!(
    SHRINK_BACKLOG_PER_WORKER < GROW_BACKLOG_PER_WORKER
        && GROW_BACKLOG_PER_WORKER < PANIC_BACKLOG_PER_WORKER
);
const _: () = assert!(0.0 < BACKLOG_EWMA_ALPHA && BACKLOG_EWMA_ALPHA <= 1.0);

/// Autoscaler configuration (present = adaptive leasing, absent =
/// static provisioning).
///
/// The autoscaler walks a lease ladder per tenant, resizing each lease
/// through the transactional [`crate::lease::resize`] and auditing every
/// tenant after each change. Its signal is one [`cxl_stats::Ewma`] of
/// backlog per tenant. Unlike the autotune study's hill climber — which
/// probes an *unknown* objective — the serving layer tracks a *known*
/// signal (backlog per worker), so the policy here is deterministic
/// threshold tracking with hysteresis and a per-tenant cooldown. Its
/// backlog thresholds (`GROW_BACKLOG_PER_WORKER`,
/// `SHRINK_BACKLOG_PER_WORKER`, `PANIC_BACKLOG_PER_WORKER`), its
/// cooldown (`COOLDOWN_TICKS`) and its EWMA factor
/// (`BACKLOG_EWMA_ALPHA`) are constants of this module.
#[derive(Debug, Clone, Serialize)]
pub struct AutoscaleConfig {
    /// Control-loop tick period.
    pub period: SimTime,
    /// Lease ladder in pool slabs (monotone, starts at 0).
    pub ladder: Vec<u64>,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            period: SimTime::from_ms(250),
            ladder: vec![0, 1, 2, 4, 6, 8],
        }
    }
}

/// Capacity pricing for cost-per-request accounting.
///
/// Slabs are the capacity quantum everywhere in the pooling stack, so
/// the ledger integrates *slab-seconds*: statically provisioned base
/// capacity (per-tenant DRAM + fixed expander, expressed in slab
/// equivalents) bills at the DRAM rate for the whole run; leased slabs
/// bill at the DRAM rate scaled by `cxl-cost`'s relative CXL price only
/// while held.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CostConfig {
    /// Cost units per slab-second of static (DRAM-priced) capacity.
    pub dram_cost_per_slab_s: f64,
    /// Relative cost of pooled CXL capacity vs DRAM (defaults to
    /// [`cxl_cost::PoolingConfig`]'s `cxl_cost_per_gib_rel`).
    pub cxl_cost_rel: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        Self {
            dram_cost_per_slab_s: 1.0,
            cxl_cost_rel: cxl_cost::PoolingConfig::default().cxl_cost_per_gib_rel,
        }
    }
}

/// Full serving-scenario configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ServeConfig {
    /// Tenant mix.
    pub tenants: Vec<TenantConfig>,
    /// Diurnal phase schedule (shared clock; per-tenant multipliers).
    pub phases: Vec<Phase>,
    /// Adaptive leasing when present; static provisioning when absent.
    pub autoscale: Option<AutoscaleConfig>,
    /// Slabs every tenant holds for the whole run under static
    /// provisioning (ignored when `autoscale` is set).
    pub static_lease_slabs: u64,
    /// Mid-run expander fault instant (the fixed CXL expander of every
    /// KV tenant dies and the LLM cluster's expander goes offline).
    pub fault_at: Option<SimTime>,
    /// Slabs in the shared lease pool.
    pub pool_slabs: u64,
    /// Capacity pricing.
    pub cost: CostConfig,
    /// Root seed; every stream is derived per tenant by label.
    pub seed: u64,
}

impl ServeConfig {
    /// Total virtual duration of the phase schedule.
    pub fn horizon(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for p in &self.phases {
            t += p.dur;
        }
        t
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (mismatched phase
    /// multiplier lengths, empty tenant/phase lists, a negative or
    /// non-finite base rate or phase multiplier, an SLO target that is
    /// not finite and positive, a burst whose multiplier or holding-time
    /// means are out of range, a fault scheduled past the horizon, or a
    /// non-monotone autoscale ladder).
    pub fn validate(&self) {
        assert!(!self.tenants.is_empty(), "need at least one tenant");
        assert!(!self.phases.is_empty(), "need at least one phase");
        for t in &self.tenants {
            assert_eq!(
                t.phase_mults.len(),
                self.phases.len(),
                "tenant {} has {} phase multipliers for {} phases",
                t.name,
                t.phase_mults.len(),
                self.phases.len()
            );
            // A negative rate would silently generate no arrivals, and a
            // NaN one would panic deep in the sampler without a name.
            assert!(
                t.base_rate_rps.is_finite() && t.base_rate_rps >= 0.0,
                "tenant {} has base_rate_rps {}: must be finite and >= 0",
                t.name,
                t.base_rate_rps
            );
            for (p, &m) in self.phases.iter().zip(&t.phase_mults) {
                assert!(
                    m.is_finite() && m >= 0.0,
                    "tenant {} has phase multiplier {m} for phase {}: must be finite and >= 0",
                    t.name,
                    p.name
                );
            }
            assert!(
                t.slo_p99_ms.is_finite() && t.slo_p99_ms > 0.0,
                "tenant {} has slo_p99_ms {}: must be finite and > 0",
                t.name,
                t.slo_p99_ms
            );
            if let Some(b) = &t.burst {
                b.validate(&t.name);
            }
            assert!(t.workers > 0, "tenant {} has no workers", t.name);
            assert!(t.queue_cap > 0, "tenant {} has no queue", t.name);
        }
        if let Some(at) = self.fault_at {
            assert!(at < self.horizon(), "fault scheduled past the horizon");
        }
        if let Some(a) = &self.autoscale {
            assert!(!a.ladder.is_empty(), "autoscale ladder must not be empty");
            assert!(
                a.ladder.windows(2).all(|w| w[0] < w[1]),
                "autoscale ladder must be strictly increasing"
            );
        }
    }
}
