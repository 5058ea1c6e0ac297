//! Open-loop multi-tenant serving front end over the CXL memory stack.
//!
//! Every workload experiment below this crate is closed-loop: a fixed
//! worker population drives the store or cluster as fast as it will go,
//! so offered load adapts to service speed and nothing ever queues
//! unboundedly. That is the right model for the paper's saturation
//! sweeps (§4–§5) and it is the wrong model for a serving fleet, where
//! clients arrive on their own schedule and the operator's questions
//! are about *tails, shedding, and elasticity*:
//!
//! * N tenants generate Poisson/bursty arrivals as [`cxl_sim`] events
//!   ([`arrival`]), each trace a pure function of `(seed, tenant name)`
//!   so runs are bit-identical at any `--jobs`;
//! * each tenant owns a bounded FIFO with two admission gates — a
//!   queue-depth cutoff (`Rejected`) and a [`cxl_sim::TokenBucket`]
//!   budget (`Shed`), both counted per tenant and handed to `cxl-obs`
//!   when the run ends;
//! * requests are priced on the real backends:
//!   [`cxl_kv::KvStore::service_request`] for KeyDB tenants and
//!   [`cxl_llm::server::request_timing`] at live concurrency for LLM
//!   tenants;
//! * an autoscaler walks one lease ladder per tenant, leasing
//!   `cxl-pool` slabs as tenants ramp and releasing them on the diurnal
//!   trough through the transactional [`lease::resize`], with a
//!   slab-second cost ledger priced by `cxl-cost`'s relative CXL rate
//!   ([`config::CostConfig`]).
//!
//! The headline scenario (`cxl_core::experiments::serve`) runs a
//! diurnal tenant mix through day/night phases with a mid-run expander
//! fault and shows SLO-aware admission plus adaptive leasing beating
//! static provisioning on both p99 and cost-per-request.

#![warn(missing_docs)]

pub mod arrival;
pub mod config;
pub mod lease;
pub mod sim;

pub use arrival::{expected_arrivals, generate_arrivals, rate_segments, RateSegment};
pub use config::{
    AutoscaleConfig, BurstConfig, CostConfig, Phase, ServeConfig, TenantClass, TenantConfig,
};
pub use sim::{run_serve, ServeReport, ServeWorld, TenantReport};

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::SimTime;
    use cxl_ycsb::Workload;

    /// Small two-tenant mix used across the in-crate tests, sized
    /// around the measured service times (KV ~9 us/op, LLM ~260 ms per
    /// 16-prompt/4-output request) so nominal load is comfortably
    /// under capacity.
    fn base_cfg() -> ServeConfig {
        ServeConfig {
            tenants: vec![
                TenantConfig {
                    name: "kv0".into(),
                    class: TenantClass::Kv {
                        workload: Workload::B,
                        ops_per_request: 64,
                        record_count: 6_000,
                    },
                    base_rate_rps: 400.0,
                    phase_mults: vec![1.0, 2.0, 0.5],
                    burst: Some(BurstConfig {
                        mult: 2.0,
                        mean_on_s: 0.2,
                        mean_off_s: 0.6,
                    }),
                    queue_cap: 256,
                    admission_rate_rps: 5_000.0,
                    admission_burst: 64.0,
                    workers: 4,
                    slo_p99_ms: 50.0,
                },
                TenantConfig {
                    name: "llm0".into(),
                    class: TenantClass::Llm {
                        prompt_tokens: 16,
                        mean_output_tokens: 4,
                    },
                    base_rate_rps: 4.0,
                    phase_mults: vec![1.0, 1.5, 0.5],
                    burst: None,
                    queue_cap: 64,
                    admission_rate_rps: 500.0,
                    admission_burst: 16.0,
                    workers: 3,
                    slo_p99_ms: 2_000.0,
                },
            ],
            phases: vec![
                Phase::new("morning", SimTime::from_ms(1_500)),
                Phase::new("peak", SimTime::from_ms(1_500)),
                Phase::new("night", SimTime::from_ms(1_500)),
            ],
            autoscale: Some(AutoscaleConfig {
                period: SimTime::from_ms(150),
                ladder: vec![0, 1, 2, 4],
            }),
            static_lease_slabs: 0,
            fault_at: None,
            pool_slabs: 12,
            cost: CostConfig::default(),
            seed: 42,
        }
    }

    #[test]
    fn serve_run_is_deterministic() {
        let cfg = base_cfg();
        let a = serde_json::to_string(&run_serve(&cfg)).unwrap();
        let b = serde_json::to_string(&run_serve(&cfg)).unwrap();
        assert_eq!(a, b, "same config + seed must be bit-identical");
    }

    #[test]
    fn nominal_load_has_no_drops_and_no_guardrail_violations() {
        let cfg = base_cfg();
        let r = run_serve(&cfg);
        assert!(r.served > 0);
        assert_eq!(r.shed, 0, "generous budgets must not shed at nominal load");
        assert_eq!(r.rejected, 0, "queues must not overflow at nominal load");
        assert_eq!(r.guardrail_violations, 0);
        for t in &r.tenants {
            assert!(t.p99_ms.is_some(), "tenant {} served nothing", t.name);
        }
    }

    #[test]
    fn tight_budget_sheds_and_full_queue_rejects() {
        let mut cfg = base_cfg();
        // Choke tenant 0: heavy 2000-op requests (~18 ms) on one worker
        // cap service at ~55 rps; the budget admits ~100 rps of the
        // 400+ offered. The excess over the budget sheds; the excess of
        // admitted over service overflows the two-slot queue.
        cfg.tenants[0].class = TenantClass::Kv {
            workload: Workload::B,
            ops_per_request: 2_000,
            record_count: 6_000,
        };
        cfg.tenants[0].admission_rate_rps = 100.0;
        cfg.tenants[0].admission_burst = 4.0;
        cfg.tenants[0].queue_cap = 2;
        cfg.tenants[0].workers = 1;
        let r = run_serve(&cfg);
        let t0 = &r.tenants[0];
        assert!(t0.shed > 0, "token budget must shed under overload");
        assert!(t0.rejected > 0, "bounded queue must reject under overload");
        assert!(
            t0.served + t0.shed + t0.rejected <= t0.arrivals,
            "outcomes cannot exceed arrivals"
        );
        // The other tenant is untouched by its neighbour's overload.
        assert_eq!(r.tenants[1].shed, 0);
    }

    #[test]
    fn suspended_tenant_sheds_everything_after_the_burst() {
        let mut cfg = base_cfg();
        // Zero rate + zero burst = the satellite-3 suspension contract.
        cfg.tenants[1].admission_rate_rps = 0.0;
        cfg.tenants[1].admission_burst = 0.0;
        let r = run_serve(&cfg);
        let t1 = &r.tenants[1];
        assert_eq!(t1.served, 0);
        assert_eq!(t1.shed, t1.arrivals, "every arrival sheds when suspended");
        assert!(
            t1.p99_ms.is_none(),
            "a tenant that served nothing has no latency distribution"
        );
    }

    #[test]
    fn autoscaler_leases_and_releases_with_the_diurnal_shape() {
        let mut cfg = base_cfg();
        // Drive the LLM tenant through a hard peak on one base backend
        // (~3.8 rps capacity): the 12 rps peak forces leasing (each
        // slab adds a backend), the near-idle trough forces release.
        cfg.tenants[1].base_rate_rps = 4.0;
        cfg.tenants[1].phase_mults = vec![0.5, 3.0, 0.1];
        cfg.tenants[1].workers = 1;
        let r = run_serve(&cfg);
        assert!(r.lease_grows > 0, "ramp must trigger lease growth");
        assert!(
            r.lease_shrinks > 0,
            "trough must trigger lease release (grows={}, shrinks={})",
            r.lease_grows,
            r.lease_shrinks
        );
        assert_eq!(r.guardrail_violations, 0);
        assert!(r.lease_cost_units > 0.0);
        assert!(r.tenants[1].peak_lease_slabs > 0);
    }

    #[test]
    fn static_provisioning_holds_the_lease_for_the_whole_run() {
        let mut cfg = base_cfg();
        cfg.autoscale = None;
        cfg.static_lease_slabs = 2;
        let r = run_serve(&cfg);
        assert_eq!(r.lease_grows, 2, "one grow per tenant at t=0");
        assert_eq!(r.lease_shrinks, 0);
        assert_eq!(r.guardrail_violations, 0);
        for t in &r.tenants {
            assert_eq!(t.final_lease_slabs, 2);
            assert_eq!(t.peak_lease_slabs, 2);
        }
        // 2 tenants x 2 slabs x horizon x dram rate x cxl rel price.
        let expect = 4.0 * r.horizon_s * cfg.cost.dram_cost_per_slab_s * cfg.cost.cxl_cost_rel;
        assert!(
            (r.lease_cost_units - expect).abs() < 1e-6,
            "static lease bill {} != {}",
            r.lease_cost_units,
            expect
        );
    }

    #[test]
    fn fault_fires_and_splits_the_latency_record() {
        let mut cfg = base_cfg();
        cfg.fault_at = Some(SimTime::from_ms(2_000));
        let r = run_serve(&cfg);
        assert!(r.fault_fired);
        assert_eq!(r.guardrail_violations, 0);
        for t in &r.tenants {
            assert!(
                t.p99_pre_fault_ms.is_some(),
                "tenant {} has no pre-fault record",
                t.name
            );
            assert!(
                t.p99_post_fault_ms.is_some(),
                "tenant {} has no post-fault record",
                t.name
            );
        }
    }

    #[test]
    fn pool_contention_is_counted_not_fatal() {
        let mut cfg = base_cfg();
        // A pool smaller than one rung: every grow attempt must be
        // rejected transactionally and counted.
        cfg.pool_slabs = 0;
        cfg.tenants[1].base_rate_rps = 12.0;
        cfg.tenants[1].phase_mults = vec![1.0, 1.0, 1.0];
        cfg.tenants[1].workers = 1;
        let r = run_serve(&cfg);
        assert_eq!(r.lease_grows, 0);
        assert!(r.lease_rejected > 0, "empty pool must reject lease grows");
        assert_eq!(r.guardrail_violations, 0, "rollback must hold invariants");
        for t in &r.tenants {
            assert_eq!(t.final_lease_slabs, 0);
        }
    }

    #[test]
    #[should_panic(expected = "tenant kv0 has base_rate_rps -400")]
    fn negative_base_rate_is_rejected() {
        let mut cfg = base_cfg();
        cfg.tenants[0].base_rate_rps = -400.0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tenant llm0 has phase multiplier NaN for phase peak")]
    fn nan_phase_multiplier_is_rejected() {
        let mut cfg = base_cfg();
        cfg.tenants[1].phase_mults[1] = f64::NAN;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tenant kv0 has slo_p99_ms 0")]
    fn zero_slo_target_is_rejected() {
        let mut cfg = base_cfg();
        cfg.tenants[0].slo_p99_ms = 0.0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tenant kv0 has burst mean_on_s inf")]
    fn infinite_burst_mean_is_rejected_before_sampling() {
        // Straight to the public generator, which skips `validate`.
        let mut cfg = base_cfg();
        cfg.tenants[0].burst.as_mut().unwrap().mean_on_s = f64::INFINITY;
        generate_arrivals(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "tenant kv0 has burst mult NaN")]
    fn nan_burst_multiplier_is_rejected() {
        let mut cfg = base_cfg();
        cfg.tenants[0].burst.as_mut().unwrap().mult = f64::NAN;
        cfg.validate();
    }
}
