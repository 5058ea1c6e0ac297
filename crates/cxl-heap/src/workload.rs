//! The heap workload proper: mutator pointer-chasing with nursery
//! churn, stop-the-world GC trace phases, and epoch-based pricing of
//! every page touch through `cxl-perf` — all driven as `cxl-sim`
//! events.
//!
//! The interesting dynamics are the **promotion storms**: a GC trace
//! sweeps every live page — including the cold tail — twice or more in
//! a short window (field scan plus mark-bit checks from every
//! referrer), which a recency-based hot-page policy cannot distinguish
//! from genuine reuse. The storm both burns the promotion budget and
//! evicts the mutator's resident hot set from DRAM, so the damage
//! shows up in *mutator* tail latency after the trace, not just in the
//! trace itself.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;
use serde::Serialize;

use cxl_sim::{Engine, SimTime};
use cxl_stats::Histogram;
use cxl_tier::{EvacuationReport, Location, PageId, PricedTier, Rw, TierConfig, TierManager};
use cxl_topology::{MemoryTier, NodeId, Topology};

use crate::graph::{GraphConfig, ObjectGraph};

/// Sizing and pacing knobs of one heap run.
#[derive(Debug, Clone, Serialize)]
pub struct HeapParams {
    /// Heap shape.
    pub graph: GraphConfig,
    /// Root seed (graph and mutator streams derive from it).
    pub seed: u64,
    /// Stop-the-world GC traces to run; mutator phases run between
    /// them and once more after the last (so `0` is a no-GC control).
    pub gc_cycles: u32,
    /// Mutator operations (pointer chases) per mutator phase.
    pub mutator_ops_per_cycle: u64,
    /// Pointer dereferences per mutator operation.
    pub chase_len: u32,
    /// Probability a chased object is also written.
    pub write_fraction: f64,
    /// Fraction of the heap (low ids, which fan-in also favours)
    /// forming the mutator's hot set.
    pub hot_fraction: f64,
    /// Probability a chase starts in the hot set.
    pub hot_bias: f64,
    /// A nursery page is allocated (and the oldest freed beyond the
    /// window) every this many mutator ops.
    pub alloc_every_ops: u64,
    /// Live nursery pages kept before the oldest is freed.
    pub nursery_pages: u64,
    /// Epoch length for repricing (flow solve + tier tick): mutator ops
    /// plus traced objects, checked once per engine chunk, so an epoch
    /// closes at the end of the first chunk that reaches it. Must be
    /// positive.
    pub epoch_ops: u64,
    /// Fixed CPU cost per mutator op, ns.
    pub cpu_ns_per_op: f64,
    /// Stall charged to an access whose hint fault promotes the page —
    /// the migrate-on-fault cost the faulting thread pays in the
    /// kernel (page copy, PTE swap, TLB shootdown). This is what makes
    /// a promotion storm visible in the *victim phase's* tail.
    pub promote_stall_ns: f64,
    /// CPU cost per traced object (header decode + ref enumeration), ns.
    pub trace_cpu_ns_per_obj: f64,
    /// Bytes touched per object field read.
    pub field_bytes: u64,
    /// Mutator ops executed per engine event.
    pub mutator_chunk: u64,
    /// Objects traced per engine event.
    pub trace_chunk: u32,
}

impl Default for HeapParams {
    fn default() -> Self {
        Self {
            graph: GraphConfig::default(),
            seed: 42,
            gc_cycles: 3,
            mutator_ops_per_cycle: 60_000,
            chase_len: 8,
            write_fraction: 0.2,
            hot_fraction: 0.05,
            hot_bias: 0.8,
            alloc_every_ops: 64,
            nursery_pages: 64,
            epoch_ops: 4_000,
            cpu_ns_per_op: 120.0,
            promote_stall_ns: 8_000.0,
            trace_cpu_ns_per_obj: 40.0,
            field_bytes: 64,
            mutator_chunk: 512,
            trace_chunk: 1_024,
        }
    }
}

impl HeapParams {
    /// A fast variant for tests.
    pub fn smoke() -> Self {
        Self {
            graph: GraphConfig {
                old_objects: 12_000,
                young_objects: 1_500,
                ..GraphConfig::default()
            },
            gc_cycles: 2,
            mutator_ops_per_cycle: 15_000,
            ..Self::default()
        }
    }
}

/// A mid-trace expander failure: during GC cycle `cycle`, once the
/// trace has visited `at_progress` of the heap, `node` goes offline
/// and its pages evacuate under the promotion rate limiter.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FaultPlan {
    /// GC cycle (0-based) the fault lands in.
    pub cycle: u32,
    /// Trace progress fraction (of objects visited) at the trigger.
    pub at_progress: f64,
    /// The failing node.
    pub node: NodeId,
}

/// What one run measured.
#[derive(Debug, Clone, Serialize)]
pub struct HeapReport {
    /// Per-op mutator latency, ns — all mutator phases.
    pub mutator: Histogram,
    /// Per-op mutator latency in phases *after* the first GC trace
    /// (where storm damage to the resident hot set shows up).
    pub mutator_post_gc: Histogram,
    /// Per-object trace cost, ns.
    pub trace: Histogram,
    /// Pages promoted during trace phases (the storm, in pages).
    pub trace_promotions: u64,
    /// Pages demoted during trace phases (hot-set eviction collateral).
    pub trace_demotions: u64,
    /// Pages promoted during mutator phases.
    pub mutator_promotions: u64,
    /// Far-memory (CXL or SSD) touches during trace phases.
    pub trace_far_touches: u64,
    /// All touches during trace phases.
    pub trace_touches: u64,
    /// Far-memory touches during mutator phases.
    pub mutator_far_touches: u64,
    /// All touches during mutator phases.
    pub mutator_touches: u64,
    /// Total virtual time spent tracing, ns.
    pub trace_duration_ns: u64,
    /// Objects visited across all traces.
    pub objects_traced: u64,
    /// GC cycles completed.
    pub gc_cycles: u32,
    /// Nursery pages allocated / freed (allocation churn volume).
    pub nursery_allocated: u64,
    /// Nursery pages freed.
    pub nursery_freed: u64,
    /// The evacuation report, when a fault plan fired.
    pub evacuation: Option<EvacuationReport>,
    /// Pages still resident on the failed node at run end (must be 0).
    pub stranded_pages: u64,
    /// Final tier-manager counters.
    pub tier: cxl_tier::TierStats,
    /// Virtual run duration.
    pub elapsed: SimTime,
}

impl HeapReport {
    /// Far-touch fraction of the trace phases.
    pub fn trace_far_fraction(&self) -> f64 {
        if self.trace_touches == 0 {
            0.0
        } else {
            self.trace_far_touches as f64 / self.trace_touches as f64
        }
    }

    /// Promotion-storm magnitude: trace-phase promotions per traced
    /// object. A recency policy misreading the sweep promotes a large
    /// fraction of the cold tail; a storm-aware one keeps this near 0.
    pub fn storm_magnitude(&self) -> f64 {
        if self.objects_traced == 0 {
            0.0
        } else {
            self.trace_promotions as f64 / self.objects_traced as f64
        }
    }
}

#[derive(Debug)]
struct TraceState {
    queue: VecDeque<u32>,
    visited: Vec<bool>,
    visited_count: u32,
    started_at: SimTime,
}

enum Phase {
    Mutator { remaining: u64, post_gc: bool },
    Trace(TraceState),
    Done,
}

/// The workload: a tiered heap plus the phase state machine the engine
/// pumps.
pub struct HeapWorkload {
    mem: PricedTier,
    /// The heap's objects. Graph page `i` is tier page `PageId(i)`: the
    /// graph's pages are the first the fresh tier manager allocates, in
    /// index order, and it hands out dense ids it never reuses.
    graph: ObjectGraph,
    nursery: VecDeque<PageId>,
    params: HeapParams,
    /// DRAM node nursery pages prefer, when segregating generations.
    nursery_node: Option<NodeId>,
    fault: Option<FaultPlan>,
    base_topo: Topology,
    /// True once per-node: is this a top-tier (DRAM) node.
    is_top: Vec<bool>,
    now: SimTime,
    ops_since_epoch: u64,
    rng: SmallRng,
    cycle: u32,
    phase: Phase,
    // Accumulators for the report.
    mutator_hist: Histogram,
    mutator_post_hist: Histogram,
    trace_hist: Histogram,
    trace_promotions: u64,
    trace_demotions: u64,
    mutator_promotions: u64,
    trace_far: u64,
    trace_touches: u64,
    mutator_far: u64,
    mutator_touches: u64,
    trace_duration: SimTime,
    objects_traced: u64,
    nursery_allocated: u64,
    nursery_freed: u64,
    evacuation: Option<EvacuationReport>,
    /// Stats snapshot at the current phase's start, for deltas.
    phase_promotions_start: u64,
    phase_demotions_start: u64,
}

impl HeapWorkload {
    /// Builds the heap: places the pages of `graph` through the tier
    /// manager. `graph` is `ObjectGraph::build(&params.graph,
    /// tier.page_size, params.seed)`, built by the caller, who
    /// usually sizes `tier`'s capacities off its page count.
    ///
    /// With `segregate`, old-generation pages prefer the slowest
    /// (non-top-tier) node on the accessor socket and young/nursery
    /// pages prefer DRAM — the placement a generational runtime that
    /// knows its tenured region is cold would pick. Without it, every
    /// page follows `tier.policy`.
    ///
    /// # Panics
    ///
    /// Panics if `params.epoch_ops` is zero, if `graph` holds another
    /// object count than `params.graph`, or if the heap does not fit the
    /// configured capacities.
    pub fn new(
        topo: &Topology,
        tier: TierConfig,
        params: HeapParams,
        graph: ObjectGraph,
        segregate: bool,
        fault: Option<FaultPlan>,
    ) -> Self {
        assert!(
            params.epoch_ops > 0,
            "HeapParams::epoch_ops must be positive"
        );
        assert_eq!(
            graph.first_page.len(),
            params.graph.object_count() as usize,
            "the graph is not built from HeapParams::graph"
        );
        let mut mem = PricedTier::new(topo, tier);
        let sys = mem.system();
        let socket = sys.sockets()[0];
        let old_node = sys
            .nodes()
            .iter()
            .find(|n| n.socket == socket && n.tier == MemoryTier::CxlExpander)
            .map(|n| n.id);
        let young_node = sys
            .nodes()
            .iter()
            .find(|n| n.socket == socket && n.tier == MemoryTier::LocalDram)
            .map(|n| n.id);
        let is_top = sys
            .nodes()
            .iter()
            .map(|n| n.tier == MemoryTier::LocalDram)
            .collect();
        let tm = mem.tier_mut();
        let young_page_start = graph.first_page[graph.young_start as usize];
        for p in 0..graph.page_count {
            let prefer = if !segregate {
                None
            } else if p >= young_page_start {
                young_node
            } else {
                old_node
            };
            let page = match prefer {
                Some(n) => tm
                    .alloc_preferring(n, SimTime::ZERO)
                    .expect("heap does not fit the configured capacities"),
                None => tm
                    .alloc(SimTime::ZERO)
                    .expect("heap does not fit the configured capacities"),
            };
            debug_assert_eq!(page, PageId(p as u64), "graph page ids are dense");
        }
        tm.drain_epoch(); // Discard load-phase traffic.
        let rng_seed = cxl_stats::rng::derive_seed(params.seed, "heap/mutator");
        let mutator_ops = params.mutator_ops_per_cycle;
        Self {
            mem,
            graph,
            nursery: VecDeque::new(),
            params,
            nursery_node: young_node.filter(|_| segregate),
            fault,
            base_topo: topo.clone(),
            is_top,
            now: SimTime::ZERO,
            ops_since_epoch: 0,
            rng: {
                use rand::SeedableRng;
                SmallRng::seed_from_u64(rng_seed)
            },
            cycle: 0,
            phase: Phase::Mutator {
                remaining: mutator_ops,
                post_gc: false,
            },
            mutator_hist: Histogram::new(),
            mutator_post_hist: Histogram::new(),
            trace_hist: Histogram::new(),
            trace_promotions: 0,
            trace_demotions: 0,
            mutator_promotions: 0,
            trace_far: 0,
            trace_touches: 0,
            mutator_far: 0,
            mutator_touches: 0,
            trace_duration: SimTime::ZERO,
            objects_traced: 0,
            nursery_allocated: 0,
            nursery_freed: 0,
            evacuation: None,
            phase_promotions_start: 0,
            phase_demotions_start: 0,
        }
    }

    /// The tier manager (inspection in tests and reports).
    pub fn tier(&self) -> &TierManager {
        self.mem.tier()
    }

    /// The tier page holding object `obj`'s header.
    fn page_of(&self, obj: u32) -> PageId {
        PageId(self.graph.first_page[obj as usize] as u64)
    }

    /// Touches one page, pricing the access at the current epoch
    /// latencies; `far` reports whether it landed off the top tier.
    fn touch(&mut self, page: PageId, rw: Rw, bytes: u64, far: &mut bool) -> f64 {
        let outcome = self.mem.tier_mut().touch(page, rw, bytes, self.now);
        let mut ns = outcome.fault_cost.as_ns() as f64;
        if outcome.promoted {
            ns += self.params.promote_stall_ns;
        }
        match outcome.location {
            Location::Node(node) => {
                ns += self.mem.latency_ns(node);
                *far |= !self.is_top[node.0];
            }
            Location::Ssd => {
                ns += cxl_perf::SSD_READ_LATENCY_NS;
                *far = true;
            }
        }
        ns
    }

    /// Runs one mutator operation: a pointer chase from a (biased)
    /// start object, with occasional field writes and nursery churn.
    /// Returns its service time in ns.
    fn mutator_op(&mut self, op_index: u64) -> f64 {
        let n = self.graph.object_count();
        let hot_n = ((n as f64 * self.params.hot_fraction) as u32).max(1);
        let mut cur = if self.rng.gen_bool(self.params.hot_bias) {
            self.rng.gen_range(0..hot_n)
        } else {
            self.rng.gen_range(0..n)
        };
        let mut ns = self.params.cpu_ns_per_op;
        let mut far = false;
        let mut touches = 0u64;
        for _ in 0..self.params.chase_len {
            let page = self.page_of(cur);
            let rw = if self.rng.gen_bool(self.params.write_fraction) {
                Rw::Write
            } else {
                Rw::Read
            };
            ns += self.touch(page, rw, self.params.field_bytes, &mut far);
            touches += 1;
            let edges = self.graph.out_edges(cur);
            if edges.is_empty() {
                break;
            }
            cur = edges[self.rng.gen_range(0..edges.len())];
        }
        // Bump-pointer allocation writes into the newest nursery page.
        if let Some(&newest) = self.nursery.back() {
            ns += self.touch(newest, Rw::Write, self.params.field_bytes, &mut far);
            touches += 1;
        }
        if self.params.alloc_every_ops > 0 && op_index.is_multiple_of(self.params.alloc_every_ops) {
            let page = match self.nursery_node {
                Some(nd) => self.mem.tier_mut().alloc_preferring(nd, self.now).ok(),
                None => self.mem.tier_mut().alloc(self.now).ok(),
            };
            if let Some(p) = page {
                self.nursery_allocated += 1;
                ns += self.touch(p, Rw::Write, self.tier().page_size(), &mut far);
                touches += 1;
                self.nursery.push_back(p);
                if self.nursery.len() as u64 > self.params.nursery_pages {
                    let dead = self.nursery.pop_front().expect("nursery non-empty");
                    self.mem.tier_mut().free(dead);
                    self.nursery_freed += 1;
                }
            }
        }
        if far {
            self.mutator_far += 1;
        }
        self.mutator_touches += touches;
        ns
    }

    /// Visits one object in the BFS trace: scan its fields, check the
    /// mark bit of every referent, mark (write) newly discovered ones.
    /// Returns the visit's service time in ns.
    fn trace_visit(&mut self, id: u32, ts: &mut TraceState) -> f64 {
        let mut ns = self.params.trace_cpu_ns_per_obj;
        let mut far = false;
        let mut touches = 1u64;
        let page = self.page_of(id);
        ns += self.touch(page, Rw::Read, self.params.field_bytes, &mut far);
        let start = self.graph.edge_index[id as usize] as usize;
        let end = self.graph.edge_index[id as usize + 1] as usize;
        for ei in start..end {
            let t = self.graph.edges[ei];
            let tpage = self.page_of(t);
            // Mark-bit check: a header read on the referent.
            ns += self.touch(tpage, Rw::Read, 8, &mut far);
            touches += 1;
            if !ts.visited[t as usize] {
                ts.visited[t as usize] = true;
                ts.visited_count += 1;
                ts.queue.push_back(t);
                // Set the mark bit.
                ns += self.touch(tpage, Rw::Write, 8, &mut far);
                touches += 1;
            }
        }
        if far {
            self.trace_far += 1;
        }
        self.trace_touches += touches;
        ns
    }

    /// Closes the epoch once it has reached `epoch_ops` ops.
    fn maybe_refresh(&mut self) {
        if self.ops_since_epoch >= self.params.epoch_ops {
            self.mem.reprice(self.now);
            self.ops_since_epoch = 0;
        }
    }

    /// The mid-trace expander failure: fence and drain the node, then
    /// reprice on the degraded topology.
    fn fire_fault(&mut self, plan: FaultPlan) {
        let mut degraded = self.base_topo.clone();
        cxl_fault::FaultKind::ExpanderOffline { node: plan.node }
            .apply(&mut degraded)
            .expect("fault plan references a CXL node");
        let report = self
            .mem
            .evacuate(&degraded, plan.node, &mut self.now)
            .expect("evacuation succeeds (survivors or SSD must have room)");
        self.ops_since_epoch = 0;
        self.evacuation = Some(report);
    }

    fn snapshot_phase_start(&mut self) {
        self.phase_promotions_start = self.tier().stats().promotions;
        self.phase_demotions_start = self.tier().stats().demotions;
    }

    fn start_trace(&mut self) {
        self.snapshot_phase_start();
        let n = self.graph.object_count() as usize;
        let mut ts = TraceState {
            queue: VecDeque::new(),
            visited: vec![false; n],
            visited_count: 0,
            started_at: self.now,
        };
        let mut ns = 0.0;
        let mut far = false;
        for r in 0..self.graph.roots {
            if !ts.visited[r as usize] {
                ts.visited[r as usize] = true;
                ts.visited_count += 1;
                ts.queue.push_back(r);
                let page = self.page_of(r);
                ns += self.touch(page, Rw::Write, 8, &mut far);
            }
        }
        // Live nursery pages are scanned once up front (they are the
        // remembered set's young side).
        let nursery: Vec<PageId> = self.nursery.iter().copied().collect();
        for p in nursery {
            ns += self.touch(p, Rw::Read, self.tier().page_size(), &mut far);
        }
        self.now += SimTime::from_ns_f64(ns);
        self.phase = Phase::Trace(ts);
    }

    /// Ends the current phase, folding its promotion/demotion deltas
    /// into the right accumulator.
    fn end_phase(&mut self, was_trace: bool) {
        let promos = self.tier().stats().promotions - self.phase_promotions_start;
        let demos = self.tier().stats().demotions - self.phase_demotions_start;
        if was_trace {
            self.trace_promotions += promos;
            self.trace_demotions += demos;
        } else {
            self.mutator_promotions += promos;
        }
    }

    /// Executes one chunk of the current phase. Returns `false` when
    /// the workload is done.
    fn pump_chunk(&mut self) -> bool {
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::Mutator {
                mut remaining,
                post_gc,
            } => {
                let batch = remaining.min(self.params.mutator_chunk);
                let done_before = self.params.mutator_ops_per_cycle - remaining;
                for i in 0..batch {
                    let ns = self.mutator_op(done_before + i);
                    self.now += SimTime::from_ns_f64(ns);
                    let v = ns as u64;
                    self.mutator_hist.record(v);
                    if post_gc {
                        self.mutator_post_hist.record(v);
                    }
                    self.ops_since_epoch += 1;
                }
                remaining -= batch;
                self.maybe_refresh();
                if remaining > 0 {
                    self.phase = Phase::Mutator { remaining, post_gc };
                } else if self.cycle < self.params.gc_cycles {
                    self.end_phase(false);
                    self.start_trace();
                } else {
                    self.end_phase(false);
                    return false;
                }
                true
            }
            Phase::Trace(mut ts) => {
                let mut visited_this_chunk = 0u32;
                while visited_this_chunk < self.params.trace_chunk {
                    let Some(id) = ts.queue.pop_front() else {
                        break;
                    };
                    let ns = self.trace_visit(id, &mut ts);
                    self.now += SimTime::from_ns_f64(ns);
                    let v = ns as u64;
                    self.trace_hist.record(v);
                    self.objects_traced += 1;
                    self.ops_since_epoch += 1;
                    visited_this_chunk += 1;
                    if let Some(plan) = self.fault {
                        if plan.cycle == self.cycle
                            && ts.visited_count as f64
                                >= plan.at_progress * self.graph.object_count() as f64
                        {
                            self.fault = None;
                            self.fire_fault(plan);
                        }
                    }
                }
                self.maybe_refresh();
                if ts.queue.is_empty() {
                    self.trace_duration += self.now.saturating_sub(ts.started_at);
                    self.end_phase(true);
                    self.cycle += 1;
                    self.snapshot_phase_start();
                    self.phase = Phase::Mutator {
                        remaining: self.params.mutator_ops_per_cycle,
                        post_gc: true,
                    };
                } else {
                    self.phase = Phase::Trace(ts);
                }
                true
            }
            Phase::Done => false,
        }
    }

    /// Hands the run's totals to the current `cxl-obs` registry, with
    /// the keys one call per chunk or event would have left: the mutator
    /// counters always (every run starts with a mutator chunk), the
    /// trace counters once a GC cycle has completed, and the far-object
    /// and fault counts when there were any.
    fn record_totals(&self) {
        cxl_obs::counter_add("heap/mutator_ops", self.mutator_hist.count());
        cxl_obs::merge("heap/mutator_op_ns", &self.mutator_hist);
        cxl_obs::merge("heap/trace_obj_ns", &self.trace_hist);
        if self.cycle > 0 {
            cxl_obs::counter_add("heap/gc_cycles", u64::from(self.cycle));
            cxl_obs::counter_add("heap/objects_traced", self.objects_traced);
            cxl_obs::counter_add("heap/trace_promotions", self.trace_promotions);
            cxl_obs::counter_add("heap/trace_demotions", self.trace_demotions);
        }
        if self.trace_far > 0 {
            cxl_obs::counter_add("heap/trace_far_objects", self.trace_far);
        }
        if let Some(r) = self.evacuation {
            cxl_obs::counter_add("heap/fault_evacuated_pages", r.total_pages());
        }
    }

    /// Drives the workload to completion on a fresh event engine and
    /// returns the report.
    pub fn run(mut self) -> HeapReport {
        self.snapshot_phase_start();
        let mut engine = Engine::new(self);
        fn pump(e: &mut Engine<HeapWorkload>) {
            if e.state_mut().pump_chunk() {
                let at = e.state().now.max(e.now());
                e.schedule_at(at, pump);
            }
        }
        engine.schedule_at(SimTime::ZERO, pump);
        engine.run();
        let w = engine.into_state();

        let failed_node = w.evacuation.map(|r| r.node);
        let stranded = match failed_node {
            None => 0,
            Some(node) => (0..w.graph.page_count as u64)
                .map(PageId)
                .chain(w.nursery.iter().copied())
                .filter(|&p| w.tier().location(p) == Location::Node(node))
                .count() as u64,
        };
        cxl_obs::counter_max("heap/stranded_pages", stranded);
        w.record_totals();

        HeapReport {
            mutator: w.mutator_hist,
            mutator_post_gc: w.mutator_post_hist,
            trace: w.trace_hist,
            trace_promotions: w.trace_promotions,
            trace_demotions: w.trace_demotions,
            mutator_promotions: w.mutator_promotions,
            trace_far_touches: w.trace_far,
            trace_touches: w.trace_touches,
            mutator_far_touches: w.mutator_far,
            mutator_touches: w.mutator_touches,
            trace_duration_ns: w.trace_duration.as_ns(),
            objects_traced: w.objects_traced,
            gc_cycles: w.cycle,
            nursery_allocated: w.nursery_allocated,
            nursery_freed: w.nursery_freed,
            evacuation: w.evacuation,
            stranded_pages: stranded,
            tier: w.mem.tier().stats().clone(),
            elapsed: w.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_tier::AllocPolicy;
    use cxl_topology::SncMode;

    const DRAM0: NodeId = NodeId(0);
    const CXL0: NodeId = NodeId(2);

    fn lean_tier(page_size: u64, heap_pages: u64) -> TierConfig {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 3);
        cfg.capacity_override = vec![
            (DRAM0, heap_pages / 2 * page_size),
            (NodeId(1), 0),
            (CXL0, 2 * heap_pages * page_size),
            (NodeId(3), 0),
        ];
        cfg.allow_ssd_spill = true;
        cfg
    }

    /// A workload over `params`' graph on a lean tier sized off it.
    fn workload(params: HeapParams, segregate: bool, fault: Option<FaultPlan>) -> HeapWorkload {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        let g = ObjectGraph::build(&params.graph, 4096, params.seed);
        let tier = lean_tier(4096, g.page_count as u64 + params.nursery_pages + 8);
        HeapWorkload::new(&topo, tier, params, g, segregate, fault)
    }

    fn smoke_workload(segregate: bool, fault: Option<FaultPlan>) -> HeapWorkload {
        workload(HeapParams::smoke(), segregate, fault)
    }

    #[test]
    fn smoke_run_completes_and_traces_everything() {
        let r = smoke_workload(false, None).run();
        let p = HeapParams::smoke();
        assert_eq!(r.gc_cycles, p.gc_cycles);
        assert_eq!(
            r.objects_traced,
            p.gc_cycles as u64 * p.graph.object_count() as u64,
            "every live object is traced each cycle"
        );
        assert_eq!(
            r.mutator.count(),
            (p.gc_cycles as u64 + 1) * p.mutator_ops_per_cycle
        );
        assert!(r.elapsed > SimTime::ZERO);
        assert!(r.nursery_allocated > r.nursery_freed);
    }

    #[test]
    fn runs_are_bit_identical() {
        let a = smoke_workload(false, None).run();
        let b = smoke_workload(false, None).run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn segregation_changes_placement_not_determinism() {
        let a = smoke_workload(true, None).run();
        let b = smoke_workload(true, None).run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn mid_trace_fault_strands_nothing() {
        let plan = FaultPlan {
            cycle: 1,
            at_progress: 0.5,
            node: CXL0,
        };
        let r = smoke_workload(false, Some(plan)).run();
        let ev = r.evacuation.expect("fault fired");
        assert_eq!(ev.node, CXL0);
        assert!(ev.total_pages() > 0);
        assert_eq!(r.stranded_pages, 0, "no page may stay on the dead node");
        assert_eq!(r.gc_cycles, HeapParams::smoke().gc_cycles);
    }

    #[test]
    fn no_gc_control_never_traces() {
        let mut params = HeapParams::smoke();
        params.gc_cycles = 0;
        let r = workload(params, false, None).run();
        assert_eq!(r.objects_traced, 0);
        assert_eq!(r.trace.count(), 0);
        assert_eq!(r.trace_promotions, 0);
    }

    #[test]
    #[should_panic(expected = "HeapParams::epoch_ops must be positive")]
    fn zero_epoch_ops_is_rejected() {
        let params = HeapParams {
            epoch_ops: 0,
            ..HeapParams::smoke()
        };
        workload(params, false, None);
    }

    #[test]
    #[should_panic(expected = "the graph is not built from HeapParams::graph")]
    fn another_configs_graph_is_rejected() {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        let params = HeapParams::smoke();
        let mut other = params.graph.clone();
        other.young_objects += 1;
        let g = ObjectGraph::build(&other, 4096, params.seed);
        HeapWorkload::new(&topo, lean_tier(4096, 4096), params, g, false, None);
    }
}
