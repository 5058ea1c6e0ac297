//! The Fig. 9 serving stack as a discrete-event simulation.
//!
//! The paper's framework: an HTTP server receives inference requests,
//! tokenizes them, and a router distributes them to CPU backend
//! instances, each holding a KV cache and generating tokens in a decode
//! loop. This module runs that architecture on the `cxl-sim` engine —
//! open-loop request arrivals, router queueing, per-token decode times
//! from the bandwidth model — and reports the serving-level metrics the
//! aggregate model cannot: time-to-first-token, per-request latency, and
//! queue depths.

use std::collections::VecDeque;

use rand::Rng;
use serde::Serialize;

use cxl_sim::{Engine, SimTime};
use cxl_stats::rng::stream_rng;
use cxl_stats::Histogram;

use crate::{LlmCluster, LlmPlacement};

/// A single inference request.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Request {
    /// Prompt tokens (prefill work).
    pub prompt_tokens: u32,
    /// Tokens to generate (decode work).
    pub output_tokens: u32,
}

/// Serving-stack configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ServerConfig {
    /// Extra decode cost per generated token from the growing KV cache,
    /// as a fraction of the base token time per 1 000 tokens of context
    /// (Fig. 10(c): KV reads add bandwidth linearly with cache size).
    pub kv_growth_per_kt: f64,
    /// Backend instances (each runs `threads_per_backend` threads).
    pub backends: usize,
    /// Memory placement for every backend.
    pub placement: LlmPlacement,
    /// Mean request arrival rate, requests/s (Poisson).
    pub arrival_rate: f64,
    /// Prompt length (the paper fixes a 2048-byte prompt context).
    pub prompt_tokens: u32,
    /// Mean output tokens per request (geometric-ish around this).
    pub mean_output_tokens: u32,
    /// Requests to simulate.
    pub requests: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            kv_growth_per_kt: 0.35,
            backends: 4,
            placement: LlmPlacement::MmemOnly,
            arrival_rate: 2.0,
            prompt_tokens: 512,
            mean_output_tokens: 128,
            requests: 400,
            seed: 42,
        }
    }
}

/// Serving metrics from one simulation.
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    /// Completed requests.
    pub completed: usize,
    /// Time-to-first-token histogram, ns.
    pub ttft: Histogram,
    /// End-to-end request latency histogram, ns.
    pub latency: Histogram,
    /// Delivered tokens per second over the run.
    pub tokens_per_sec: f64,
    /// Maximum router queue depth observed.
    pub max_queue_depth: usize,
    /// Virtual duration of the run.
    pub duration: SimTime,
}

/// Per-token decode time when `busy` backends run concurrently on the
/// cluster (bandwidth contention slows every backend as more run).
///
/// `busy = 0` returns [`SimTime::ZERO`] — no decode is in flight, so no
/// token is being paced. This is the same pricing [`simulate`]'s
/// dispatch loop uses internally; it is public so external serving
/// layers (`cxl-serve`) feed requests through the identical model.
pub fn token_time(cluster: &LlmCluster, placement: LlmPlacement, busy: usize) -> SimTime {
    if busy == 0 {
        return SimTime::ZERO;
    }
    let tpb = cluster.config().threads_per_backend;
    let rate = cluster
        .serving_rate(placement, busy * tpb)
        .tokens_per_sec
        .max(1e-9)
        / busy as f64;
    SimTime::from_secs_f64(1.0 / rate)
}

/// Prefill/decode timing of one request at a fixed per-token decode
/// time (see [`request_timing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Time from dispatch until the first token is out (prefill plus
    /// one decode step).
    pub first_token: SimTime,
    /// Total service time from dispatch to the last token.
    pub total: SimTime,
}

/// Prices one request at a per-token decode time `token_time` (from
/// [`token_time`]) and the KV-cache growth coefficient.
///
/// Prefill processes prompt tokens in batched matmuls, ~8x faster per
/// token than decode; then the first token completes. Decode slows as
/// the KV cache grows (Fig. 10(c)): token `i` reads `prompt + i` tokens
/// of context, and the linear growth sums to a closed form over the
/// remaining output tokens. This is the exact arithmetic of
/// [`simulate`]'s dispatch loop, extracted so queue-fed callers price
/// requests bit-identically.
pub fn request_timing(token_time: SimTime, req: Request, kv_growth_per_kt: f64) -> RequestTiming {
    let prefill_done_ns = token_time.as_ns() / 8 * req.prompt_tokens as u64 + token_time.as_ns();
    let rest = (req.output_tokens.max(1) - 1) as u64;
    let base_rest_ns = token_time.as_ns() * rest;
    let avg_context_kt = (req.prompt_tokens as f64 + req.output_tokens as f64 / 2.0) / 1_000.0;
    let kv_extra_ns = (base_rest_ns as f64 * kv_growth_per_kt * avg_context_kt) as u64;
    RequestTiming {
        first_token: SimTime::from_ns(prefill_done_ns),
        total: SimTime::from_ns(prefill_done_ns + base_rest_ns + kv_extra_ns),
    }
}

struct BackendState {
    /// When this backend finishes its current work.
    busy_until: SimTime,
}

struct ServerState {
    backends: Vec<BackendState>,
    queue: VecDeque<(SimTime, Request)>,
    max_queue_depth: usize,
    ttft: Histogram,
    latency: Histogram,
    tokens_done: u64,
    completed: usize,
    /// Per-token decode time when `b` backends run concurrently
    /// (index `b`, 1-based; index 0 unused).
    token_time_at: Vec<SimTime>,
    /// KV-cache growth coefficient (see [`ServerConfig`]).
    kv_growth_per_kt: f64,
}

/// Runs the Fig. 9 serving stack on the event engine.
///
/// Each backend serves one request at a time (the paper's backends pin
/// 12 threads each); the router assigns queued requests to the first
/// idle backend in arrival order. Per-token decode time comes from the
/// cluster's bandwidth model at the *concurrent* backend count, so
/// placements that survive saturation serve faster under load.
pub fn simulate(cluster: &LlmCluster, cfg: &ServerConfig) -> ServingReport {
    assert!(cfg.backends > 0, "need at least one backend");
    assert!(cfg.requests > 0, "need requests");
    assert!(
        cfg.arrival_rate > 0.0 && cfg.arrival_rate.is_finite(),
        "invalid arrival rate"
    );

    // Per-token decode time as a function of concurrently busy
    // backends: bandwidth contention slows every backend as more run.
    // (A request's pace is fixed at dispatch from the concurrency at
    // that moment — a mild approximation of full re-pacing.)
    let token_time_at: Vec<SimTime> = (0..=cfg.backends)
        .map(|b| token_time(cluster, cfg.placement, b))
        .collect();

    let state = ServerState {
        backends: (0..cfg.backends)
            .map(|_| BackendState {
                busy_until: SimTime::ZERO,
            })
            .collect(),
        queue: VecDeque::new(),
        max_queue_depth: 0,
        ttft: Histogram::new(),
        latency: Histogram::new(),
        tokens_done: 0,
        completed: 0,
        token_time_at,
        kv_growth_per_kt: cfg.kv_growth_per_kt,
    };
    let mut engine = Engine::new(state);

    // Open-loop arrivals as one stream: each request's interarrival gap
    // and output length are drawn only as its arrival is pulled into the
    // engine, so just the next arrival is pending.
    let mut rng = stream_rng(cfg.seed, "llm-server");
    let interarrival = cxl_stats::Exponential::new(cfg.arrival_rate);
    let (prompt_tokens, mean_output_tokens) = (cfg.prompt_tokens, cfg.mean_output_tokens);
    let mut t = 0.0f64;
    let arrivals = (0..cfg.requests).map(move |_| {
        t += interarrival.sample(&mut rng);
        let out_tokens = (mean_output_tokens as f64 * (0.5 + rng.gen::<f64>())) as u32;
        let req = Request {
            prompt_tokens,
            output_tokens: out_tokens.max(1),
        };
        (SimTime::from_secs_f64(t), req)
    });
    engine.schedule_stream(arrivals, |e, req| {
        let now = e.now();
        let state = e.state_mut();
        state.queue.push_back((now, req));
        state.max_queue_depth = state.max_queue_depth.max(state.queue.len());
        dispatch(e);
    });
    engine.run();

    let duration = engine.now();
    let state = engine.into_state();
    ServingReport {
        completed: state.completed,
        ttft: state.ttft,
        latency: state.latency,
        tokens_per_sec: if duration > SimTime::ZERO {
            state.tokens_done as f64 / duration.as_secs_f64()
        } else {
            0.0
        },
        max_queue_depth: state.max_queue_depth,
        duration,
    }
}

/// Assigns queued requests to idle backends.
fn dispatch(engine: &mut Engine<ServerState>) {
    let now = engine.now();
    loop {
        let state = engine.state_mut();
        if state.queue.is_empty() {
            return;
        }
        let Some(backend) = state.backends.iter().position(|b| b.busy_until <= now) else {
            return;
        };
        let (arrival, req) = state.queue.pop_front().expect("checked non-empty");
        // Concurrency after this assignment sets the decode pace.
        let busy = state.backends.iter().filter(|b| b.busy_until > now).count() + 1;
        let tt = state.token_time_at[busy.min(state.token_time_at.len() - 1)];
        let timing = request_timing(tt, req, state.kv_growth_per_kt);
        let finish = now + timing.total;
        state.backends[backend].busy_until = finish;
        state
            .ttft
            .record((now + timing.first_token).saturating_sub(arrival).as_ns());
        state.tokens_done += req.output_tokens as u64;
        // At completion: record latency and pull more work.
        engine.schedule_at(finish, move |e| {
            let now = e.now();
            e.state_mut().completed += 1;
            let sojourn = now.saturating_sub(arrival).as_ns();
            e.state_mut().latency.record(sojourn);
            dispatch(e);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LlmConfig;

    fn cluster() -> LlmCluster {
        LlmCluster::new(LlmConfig::default())
    }

    #[test]
    fn completes_every_request() {
        let r = simulate(&cluster(), &ServerConfig::default());
        assert_eq!(r.completed, 400);
        assert_eq!(r.latency.count(), 400);
        assert_eq!(r.ttft.count(), 400);
        assert!(r.tokens_per_sec > 0.0);
    }

    #[test]
    fn overload_grows_queue_and_latency() {
        let light = simulate(
            &cluster(),
            &ServerConfig {
                arrival_rate: 0.05,
                ..Default::default()
            },
        );
        let heavy = simulate(
            &cluster(),
            &ServerConfig {
                arrival_rate: 5.0,
                ..Default::default()
            },
        );
        assert!(heavy.max_queue_depth > light.max_queue_depth);
        assert!(
            heavy.latency.percentile(99.0) > 2 * light.latency.percentile(99.0),
            "light {} heavy {}",
            light.latency.percentile(99.0),
            heavy.latency.percentile(99.0)
        );
    }

    #[test]
    fn ttft_below_full_latency() {
        let r = simulate(&cluster(), &ServerConfig::default());
        assert!(r.ttft.percentile(50.0) < r.latency.percentile(50.0));
    }

    #[test]
    fn saturated_interleave_out_serves_mmem() {
        // 6 backends x 12 threads = 72 threads: past the MMEM knee, the
        // 3:1 placement should deliver more tokens per second end to end.
        let cfg = |p| ServerConfig {
            backends: 6,
            placement: p,
            arrival_rate: 8.0,
            requests: 300,
            ..Default::default()
        };
        let mmem = simulate(&cluster(), &cfg(LlmPlacement::MmemOnly));
        let il = simulate(&cluster(), &cfg(LlmPlacement::Interleave { n: 3, m: 1 }));
        assert!(
            il.tokens_per_sec > 1.3 * mmem.tokens_per_sec,
            "il {} mmem {}",
            il.tokens_per_sec,
            mmem.tokens_per_sec
        );
        assert!(il.latency.percentile(99.0) < mmem.latency.percentile(99.0));
    }

    #[test]
    fn kv_cache_growth_slows_long_generations() {
        let base = ServerConfig {
            arrival_rate: 0.05,
            requests: 150,
            ..Default::default()
        };
        let short = simulate(
            &cluster(),
            &ServerConfig {
                mean_output_tokens: 32,
                ..base.clone()
            },
        );
        let long = simulate(
            &cluster(),
            &ServerConfig {
                mean_output_tokens: 512,
                ..base.clone()
            },
        );
        // Longer generations cost more than proportionally versus the
        // growth-free model: the KV cache grows along the sequence.
        let flat = simulate(
            &cluster(),
            &ServerConfig {
                mean_output_tokens: 512,
                kv_growth_per_kt: 0.0,
                ..base
            },
        );
        let growth_overhead = long.latency.mean() / flat.latency.mean();
        assert!(growth_overhead > 1.15, "growth overhead {growth_overhead}");
        // And long generations are much slower than short ones either way.
        assert!(long.latency.mean() > 4.0 * short.latency.mean());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = simulate(&cluster(), &ServerConfig::default());
        let b = simulate(&cluster(), &ServerConfig::default());
        assert_eq!(a.tokens_per_sec, b.tokens_per_sec);
        assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
    }

    #[test]
    fn outputs_are_pinned_to_the_bit() {
        // Exact outputs at seed 42: any change to the arrival or
        // output-length draws, their order, the router's dispatch order
        // or the pricing moves at least one of these.
        let overloaded = ServerConfig {
            arrival_rate: 5.0,
            ..Default::default()
        };
        for (cfg, max_queue_depth, duration_ns, tps_bits, ttft, latency) in [
            (
                ServerConfig::default(),
                308,
                891_197_356_474,
                0x404c_3971_7e70_6144,
                [332_859_965_440, 674_309_865_472],
                [341_449_900_032, 682_899_800_064],
            ),
            (
                overloaded,
                361,
                890_533_642_669,
                0x404c_3ed4_155d_ae16,
                [392_989_507_584, 794_568_949_760],
                [401_579_442_176, 803_158_884_352],
            ),
        ] {
            let r = simulate(&cluster(), &cfg);
            let rate = cfg.arrival_rate;
            let p50_p99 = |h: &Histogram| [h.percentile(50.0), h.percentile(99.0)];
            assert_eq!(r.completed, 400, "rate {rate}");
            assert_eq!(r.max_queue_depth, max_queue_depth, "rate {rate}");
            assert_eq!(r.duration.as_ns(), duration_ns, "rate {rate}");
            assert_eq!(r.tokens_per_sec.to_bits(), tps_bits, "rate {rate}");
            assert_eq!(p50_p99(&r.ttft), ttft, "rate {rate}");
            assert_eq!(p50_p99(&r.latency), latency, "rate {rate}");
        }
    }

    #[test]
    #[should_panic(expected = "need at least one backend")]
    fn zero_backends_rejected() {
        simulate(
            &cluster(),
            &ServerConfig {
                backends: 0,
                ..Default::default()
            },
        );
    }
}
