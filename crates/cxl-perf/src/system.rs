//! The shared-resource memory system model and its bandwidth solver.
//!
//! A [`MemSystem`] is built from a [`Topology`]. Every potential
//! bottleneck in the §3 measurements becomes a *resource* with a scalar
//! capacity and a queueing-delay curve:
//!
//! * one DDR channel group per DRAM NUMA node (capacity in
//!   read-equivalent bytes: a written byte costs more than a read byte,
//!   which reproduces the 67 → 54.6 GB/s read→write peak drop),
//! * per-direction PCIe/CXL link halves plus a write-message credit pool
//!   for each CXL device,
//! * the CXL controller's internal DDR scheduler,
//! * per-direction UPI capacity plus a posted-write credit pool,
//! * the Remote Snoop Filter of each socket that owns CXL devices.
//!
//! Concurrent [`FlowSpec`]s are resolved with max-min water-filling: a
//! common scale factor grows until some resource saturates; the flows
//! crossing it freeze there, and the rest keep growing. Loaded latency is
//! the path idle latency plus the queueing delay of every resource on the
//! path at its final utilization.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use cxl_topology::{MemoryTier, NodeId, NumaNode, SocketId, Topology};

use crate::curve::QueueModel;
use crate::mix::AccessMix;
use crate::params::ModelParams;

/// Access distance classes from §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Distance {
    /// Socket-local DDR ("MMEM").
    LocalDram,
    /// Remote-socket DDR ("MMEM-r").
    RemoteDram,
    /// Socket-local CXL expander ("CXL").
    LocalCxl,
    /// Remote-socket CXL expander ("CXL-r").
    RemoteCxl,
}

impl Distance {
    /// The paper's label for the distance.
    pub fn label(self) -> &'static str {
        match self {
            Distance::LocalDram => "MMEM",
            Distance::RemoteDram => "MMEM-r",
            Distance::LocalCxl => "CXL",
            Distance::RemoteCxl => "CXL-r",
        }
    }

    /// Parses a paper label back into the distance (the inverse of
    /// [`Distance::label`]); `None` for unknown labels. Measurement
    /// sets name their curves with these labels.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "MMEM" => Some(Distance::LocalDram),
            "MMEM-r" => Some(Distance::RemoteDram),
            "CXL" => Some(Distance::LocalCxl),
            "CXL-r" => Some(Distance::RemoteCxl),
            _ => None,
        }
    }
}

/// Identity of a shared hardware resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// DDR channel group behind a DRAM NUMA node.
    DdrGroup(NodeId),
    /// DDR channels behind a CXL device (keyed by its NUMA node id).
    CxlBacking(NodeId),
    /// Device-to-host half of a CXL link (read data).
    CxlLinkD2h(NodeId),
    /// Host-to-device half of a CXL link (write data).
    CxlLinkH2d(NodeId),
    /// CXL.mem write message/credit pool of a device.
    CxlWriteMsg(NodeId),
    /// UPI direction from one socket to another.
    UpiDir(SocketId, SocketId),
    /// Posted-write credit pool for remote stores from a socket.
    UpiWriteCredit(SocketId, SocketId),
    /// Remote Snoop Filter of the socket owning CXL devices; throttles
    /// cross-socket CXL traffic (§3.2).
    Rsf(SocketId),
}

#[derive(Debug, Clone)]
struct Resource {
    kind: ResourceKind,
    cap_gbps: f64,
    queue: QueueModel,
}

/// One memory traffic flow to be solved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Socket the accessing cores run on.
    pub from: SocketId,
    /// Target NUMA node.
    pub node: NodeId,
    /// Read:write mix.
    pub mix: AccessMix,
    /// Offered payload byte rate, GB/s. Use a large value to probe peak
    /// bandwidth.
    pub offered_gbps: f64,
}

impl FlowSpec {
    /// Convenience constructor.
    pub fn new(from: SocketId, node: NodeId, mix: AccessMix, offered_gbps: f64) -> Self {
        Self {
            from,
            node,
            mix,
            offered_gbps,
        }
    }

    /// The first field that makes this flow unsolvable, if any.
    fn invalid_field(&self) -> Option<&'static str> {
        if !(self.offered_gbps.is_finite() && self.offered_gbps >= 0.0) {
            Some("offered_gbps")
        } else if !(0.0..=1.0).contains(&self.mix.read_fraction) {
            Some("read_fraction")
        } else {
            None
        }
    }
}

/// Result for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// Achieved payload bandwidth, GB/s.
    pub achieved_gbps: f64,
    /// Average access latency at the solved operating point, ns.
    pub latency_ns: f64,
    /// True when the flow was throttled below its offered rate.
    pub throttled: bool,
}

/// Per-resource latency decomposition of one flow (see
/// [`MemSystem::latency_breakdown`]).
#[derive(Debug, Clone, Serialize)]
pub struct LatencyBreakdown {
    /// Path idle latency, ns.
    pub idle_ns: f64,
    /// Queueing delay per resource on the path, ns.
    pub contributions: Vec<(ResourceKind, f64)>,
    /// Total loaded latency (idle + contributions), ns.
    pub total_ns: f64,
}

/// Result of a solve: per-flow outcomes and per-resource utilization.
#[derive(Debug, Clone, Serialize)]
pub struct SolveResult {
    /// Outcome per input flow, same order.
    pub flows: Vec<FlowOutcome>,
    /// Utilization in `[0, 1]` per resource actually used.
    pub utilization: Vec<(ResourceKind, f64)>,
}

impl SolveResult {
    /// Utilization of one resource, or 0.0 if unused.
    pub fn utilization_of(&self, kind: ResourceKind) -> f64 {
        self.utilization
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, u)| u)
            .unwrap_or(0.0)
    }
}

/// Recoverable failures of the performance model.
///
/// Before fault injection existed the solver could assume every node it
/// was asked about had resources behind it, and `panic!`ed otherwise.
/// With devices that can go offline mid-run that assumption is an
/// ordinary runtime condition, so the `try_*` entry points surface it
/// as a value instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfError {
    /// The resource graph has no entry of this kind — the topology
    /// never had it (e.g. UPI on a single-socket machine).
    MissingResource(ResourceKind),
    /// The target node's expander is offline; it has capacity 0 and no
    /// datapath, so no flow can reach it.
    NodeOffline(NodeId),
    /// The node id is not part of this topology at all.
    UnknownNode(NodeId),
    /// A flow of the solved set is not a flow: its `offered_gbps` is
    /// negative or not finite, or its mix's `read_fraction` lies
    /// outside `[0, 1]`. A zero rate is valid.
    InvalidFlow {
        /// Position of the flow in the solved set.
        index: usize,
        /// The offending field, `"offered_gbps"` or `"read_fraction"`.
        field: &'static str,
    },
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::InvalidFlow { index, field } => write!(
                f,
                "flow {index} has an invalid {field} (offered_gbps must be finite \
                 and non-negative, read_fraction within [0, 1])"
            ),
            PerfError::MissingResource(kind) => {
                write!(f, "resource {kind:?} not present in this topology")
            }
            PerfError::NodeOffline(node) => {
                write!(f, "node {node:?} is offline (expander failed)")
            }
            PerfError::UnknownNode(node) => {
                write!(f, "node {node:?} does not exist in this topology")
            }
        }
    }
}

impl std::error::Error for PerfError {}

/// Does nothing. Solving is a pure function of `(system, flows)` with
/// no process-wide state to clear; this shim remains only because the
/// `bench/` package still calls it before its traced run and probes.
#[doc(hidden)]
pub fn solve_cache_reset() {}

/// A segment of a flow's path: a resource plus the bytes it carries per
/// payload byte of the flow.
#[derive(Debug, Clone, Copy)]
struct Segment {
    res: usize,
    coef: f64,
    /// Fraction of the carried bytes that are writes (for knee shifting).
    write_share: f64,
}

/// Most segments one path can have: the expander's backing DDR, both
/// link halves and the write-message pool, three UPI segments and the
/// RSF.
const MAX_PATH_SEGMENTS: usize = 8;

/// One flow's path inside a [`Workspace`]: its segments are
/// `segments[start..end]`.
#[derive(Debug, Clone, Copy)]
struct PathSpan {
    start: usize,
    end: usize,
    idle_ns: f64,
}

/// The water-filling's working state.
///
/// Each thread keeps one ([`WORKSPACE`]), and every solve clears it
/// before it reads anything, so what one solve leaves to the next is
/// buffer capacity, never a value.
#[derive(Debug, Default)]
struct Workspace {
    /// All flows' path segments, flow after flow.
    segments: Vec<Segment>,
    /// Per flow, where its segments lie in `segments`.
    paths: Vec<PathSpan>,
    /// Per flow, the scale its offered rate is solved at.
    scale: Vec<f64>,
    /// Flows not yet frozen, in flow-index order.
    active: Vec<usize>,
    /// Per resource, the usage pinned by frozen flows.
    frozen: Vec<f64>,
    /// Per resource, this iteration's demand of the active flows.
    demand: Vec<f64>,
    /// Per resource, the final usage and its written share.
    used: Vec<f64>,
    write_used: Vec<f64>,
}

impl Workspace {
    /// Empties every list and zeroes the per-flow and per-resource
    /// arrays for a solve of `flows` flows over `resources` resources.
    /// Reserving each list's worst case up front means that, once a
    /// thread has solved on a system, no later solve of as many flows
    /// there allocates.
    fn reset(&mut self, flows: usize, resources: usize) {
        self.segments.clear();
        self.segments.reserve(flows * MAX_PATH_SEGMENTS);
        self.paths.clear();
        self.paths.reserve(flows);
        self.active.clear();
        self.active.reserve(flows);
        for v in [
            &mut self.frozen,
            &mut self.demand,
            &mut self.used,
            &mut self.write_used,
        ] {
            v.clear();
            v.resize(resources, 0.0);
        }
        self.scale.clear();
        self.scale.resize(flows, 0.0);
    }

    fn segments(&self, flow: usize) -> &[Segment] {
        let p = self.paths[flow];
        &self.segments[p.start..p.end]
    }
}

thread_local! {
    /// This thread's solve workspace. Only [`MemSystem::with_solved`]
    /// borrows it, for one whole solve.
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// A read-only view of a solved flow set in a [`Workspace`].
struct Solved<'a> {
    sys: &'a MemSystem,
    flows: &'a [FlowSpec],
    ws: &'a Workspace,
}

impl Solved<'_> {
    /// Queueing delay of one path segment at its resource's final
    /// utilization and write share, ns.
    fn delay_ns(&self, s: &Segment) -> f64 {
        let res = &self.sys.resources[s.res];
        let used = self.ws.used[s.res];
        let u = used / res.cap_gbps;
        let wf = if used > 0.0 {
            self.ws.write_used[s.res] / used
        } else {
            0.0
        };
        res.queue.delay_ns(u, wf)
    }

    fn outcome(&self, i: usize) -> FlowOutcome {
        let f = &self.flows[i];
        let achieved = f.offered_gbps * self.ws.scale[i];
        let mut latency = self.ws.paths[i].idle_ns;
        for s in self.ws.segments(i) {
            latency += self.delay_ns(s);
        }
        FlowOutcome {
            achieved_gbps: achieved,
            latency_ns: latency,
            throttled: achieved < f.offered_gbps * 0.999,
        }
    }

    fn result(&self) -> SolveResult {
        let used = &self.ws.used;
        let mut utilization = Vec::with_capacity(used.iter().filter(|&&u| u > 0.0).count());
        utilization.extend(
            self.sys
                .resources
                .iter()
                .zip(used)
                .filter(|&(_, &u)| u > 0.0)
                .map(|(r, &u)| (r.kind, (u / r.cap_gbps).min(1.0))),
        );
        SolveResult {
            flows: (0..self.flows.len()).map(|i| self.outcome(i)).collect(),
            utilization,
        }
    }

    fn breakdown(&self, i: usize) -> LatencyBreakdown {
        LatencyBreakdown {
            idle_ns: self.ws.paths[i].idle_ns,
            contributions: self
                .ws
                .segments(i)
                .iter()
                .map(|s| (self.sys.resources[s.res].kind, self.delay_ns(s)))
                .collect(),
            total_ns: self.outcome(i).latency_ns,
        }
    }
}

/// The solvable memory system.
#[derive(Debug, Clone)]
pub struct MemSystem {
    nodes: Vec<NumaNode>,
    /// Per node, indexed like `nodes`.
    routes: Vec<Route>,
    resources: Vec<Resource>,
    /// `upi[from][to]`, present on two-socket platforms for `from != to`.
    upi: [[Option<Upi>; 2]; 2],
    /// Per socket, its Remote Snoop Filter: absent on a socket without
    /// CXL devices and on RSF-fixed platforms.
    rsf: [Option<usize>; 2],
    sockets: Vec<SocketId>,
    /// The model parameters the resource graph was built from.
    params: ModelParams,
}

// `colocation::run_with` shares one system across runner threads; the
// solve workspace is per thread, not a field, to keep it `Sync`.
const _: fn() = || {
    fn send_sync_clone<T: Send + Sync + Clone>() {}
    send_sync_clone::<MemSystem>();
};

/// Where flows to one node go, resolved once in
/// [`MemSystem::with_params`] so that building a path looks up nothing.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// A DRAM node's DDR group.
    Dram { ddr: usize },
    /// An online expander: its backing DDR, device-to-host and
    /// host-to-device link halves, write-message pool, and latencies.
    Cxl {
        backing: usize,
        d2h: usize,
        h2d: usize,
        write_msg: usize,
        dev: CxlNodeParams,
    },
    /// An offline expander: no resources and no datapath.
    Offline,
}

/// The UPI resources in one direction between the two sockets.
#[derive(Debug, Clone, Copy)]
struct Upi {
    dir: usize,
    write_credit: usize,
}

#[derive(Debug, Clone, Copy)]
struct CxlNodeParams {
    controller_latency_ns: f64,
    /// Round-trip latency of a CXL switch between host and device
    /// (0.0 for the direct-attached testbed expanders).
    switch_hop_ns: f64,
}

impl MemSystem {
    /// Builds the resource graph for a topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than two sockets (the paper's
    /// platform and the UPI model are two-socket).
    pub fn new(topo: &Topology) -> Self {
        Self::with_params(topo, &ModelParams::default())
    }

    /// True when flows can target the node: DRAM nodes always, CXL
    /// nodes only while their expander is online. Built once from the
    /// topology's device health — rebuild the system after a fault.
    pub fn node_online(&self, node: NodeId) -> bool {
        matches!(
            self.routes.get(node.0),
            Some(Route::Dram { .. } | Route::Cxl { .. })
        )
    }

    /// Builds the resource graph from an explicit parameter set: the
    /// constructor for ablations, next-generation projections
    /// ([`ModelParams::rsf_fixed`]), and the `cxl-calib` fitter's
    /// candidate parameter vectors. `with_params(topo,
    /// &ModelParams::default())` is [`MemSystem::new`].
    ///
    /// # Panics
    ///
    /// Panics on more than two sockets or invalid parameters.
    pub fn with_params(topo: &Topology, params: &ModelParams) -> Self {
        params.validate();
        let p = *params;
        assert!(
            topo.sockets.len() <= 2,
            "the performance model covers 1- and 2-socket platforms"
        );
        let nodes = topo.nodes();
        let mut resources = Vec::new();
        let mut add = |kind: ResourceKind, cap: f64, queue: QueueModel| {
            resources.push(Resource {
                kind,
                cap_gbps: cap,
                queue,
            });
            resources.len() - 1
        };

        let ddr_queue = QueueModel {
            knee: p.ddr_knee_read,
            knee_write_shift: p.ddr_knee_read - p.ddr_knee_write,
            queue_scale_ns: p.ddr_queue_scale_ns,
            linear_ns: p.ddr_linear_ns,
        };
        let link_queue =
            QueueModel::fixed(p.cxl_link_knee, p.cxl_queue_scale_ns, p.ddr_linear_ns * 0.5);
        let upi_queue = QueueModel::fixed(p.upi_knee, p.upi_queue_scale_ns, p.ddr_linear_ns * 0.5);
        let rsf_queue = QueueModel::fixed(p.rsf_knee, p.rsf_queue_scale_ns, p.ddr_linear_ns);

        let mut routes = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let route = match n.tier {
                MemoryTier::LocalDram => {
                    let cap = n.peak_bandwidth_gbps() * p.ddr_read_efficiency;
                    Route::Dram {
                        ddr: add(ResourceKind::DdrGroup(n.id), cap, ddr_queue),
                    }
                }
                MemoryTier::CxlExpander => {
                    let dev = &topo.sockets[n.socket.0].cxl_devices
                        [n.device_index.expect("CXL node must carry a device index")];
                    if dev.health.online {
                        let backing = dev.backing_bandwidth_gbps()
                            * p.ddr_read_efficiency
                            * p.cxl_backing_efficiency;
                        let link = dev.effective_link_bandwidth_gbps();
                        let backing = add(ResourceKind::CxlBacking(n.id), backing, ddr_queue);
                        let d2h = add(ResourceKind::CxlLinkD2h(n.id), link, link_queue);
                        let h2d = add(ResourceKind::CxlLinkH2d(n.id), link, link_queue);
                        let write_msg = add(
                            ResourceKind::CxlWriteMsg(n.id),
                            link * p.cxl_write_msg_fraction,
                            link_queue,
                        );
                        Route::Cxl {
                            backing,
                            d2h,
                            h2d,
                            write_msg,
                            dev: CxlNodeParams {
                                controller_latency_ns: dev.effective_controller_latency_ns()
                                    * p.controller_latency_scale,
                                switch_hop_ns: dev.switch_hop_ns * p.switch_hop_scale,
                            },
                        }
                    } else {
                        // An offline expander contributes no resources
                        // and no latency parameters; flows addressed to
                        // its (still-enumerated) node fail with
                        // [`PerfError::NodeOffline`].
                        Route::Offline
                    }
                }
            };
            routes.push(route);
        }

        let sockets: Vec<SocketId> = topo.sockets.iter().map(|s| s.id).collect();
        let mut upi = [[None; 2]; 2];
        let mut rsf = [None; 2];
        if topo.sockets.len() == 2 {
            let upi_dir_bw: f64 = topo.upi.iter().map(|u| u.bandwidth_gbps).sum();
            let (a, b) = (sockets[0], sockets[1]);
            for (from, to) in [(a, b), (b, a)] {
                let dir = add(ResourceKind::UpiDir(from, to), upi_dir_bw, upi_queue);
                let write_credit = add(
                    ResourceKind::UpiWriteCredit(from, to),
                    p.upi_write_credit_gbps,
                    upi_queue,
                );
                upi[from.0][to.0] = Some(Upi { dir, write_credit });
            }
            for s in [a, b] {
                if !topo.sockets[s.0].cxl_devices.is_empty() && p.rsf_cap_gbps.is_finite() {
                    rsf[s.0] = Some(add(ResourceKind::Rsf(s), p.rsf_cap_gbps, rsf_queue));
                }
            }
        }

        Self {
            nodes,
            routes,
            resources,
            upi,
            rsf,
            sockets,
            params: p,
        }
    }

    /// The NUMA nodes of the underlying topology.
    pub fn nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// Looks up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn node(&self, id: NodeId) -> &NumaNode {
        &self.nodes[id.0]
    }

    /// Classifies the access distance from a socket to a node.
    pub fn distance(&self, from: SocketId, node: NodeId) -> Distance {
        let n = self.node(node);
        match (n.tier, n.socket == from) {
            (MemoryTier::LocalDram, true) => Distance::LocalDram,
            (MemoryTier::LocalDram, false) => Distance::RemoteDram,
            (MemoryTier::CxlExpander, true) => Distance::LocalCxl,
            (MemoryTier::CxlExpander, false) => Distance::RemoteCxl,
        }
    }

    /// The UPI resources from socket `from` to socket `to`.
    fn upi(&self, from: SocketId, to: SocketId) -> Result<Upi, PerfError> {
        self.upi
            .get(from.0)
            .and_then(|row| row.get(to.0).copied().flatten())
            .ok_or(PerfError::MissingResource(ResourceKind::UpiDir(from, to)))
    }

    /// Appends the path of a flow from `from` to `node` to `segments`
    /// and returns its idle latency, ns.
    fn push_path(
        &self,
        segments: &mut Vec<Segment>,
        from: SocketId,
        node: NodeId,
        mix: AccessMix,
    ) -> Result<f64, PerfError> {
        let n = self.nodes.get(node.0).ok_or(PerfError::UnknownNode(node))?;
        let r = mix.read_fraction;
        let w = mix.write_fraction();
        let wf = self.params.write_cost_factor();

        let ddr_coef = r + w * wf;
        let ddr_write_share = w * wf / ddr_coef.max(1e-12);
        match self.routes[node.0] {
            Route::Dram { ddr } => {
                segments.push(Segment {
                    res: ddr,
                    coef: ddr_coef,
                    write_share: ddr_write_share,
                });
            }
            Route::Cxl {
                backing,
                d2h,
                h2d,
                write_msg,
                ..
            } => {
                segments.push(Segment {
                    res: backing,
                    coef: ddr_coef,
                    write_share: ddr_write_share,
                });
                if r > 0.0 {
                    segments.push(Segment {
                        res: d2h,
                        coef: r,
                        write_share: 0.0,
                    });
                }
                if w > 0.0 {
                    for res in [h2d, write_msg] {
                        segments.push(Segment {
                            res,
                            coef: w,
                            write_share: 1.0,
                        });
                    }
                }
            }
            Route::Offline => return Err(PerfError::NodeOffline(node)),
        }

        let remote = n.socket != from;
        if remote {
            let coh = if mix.nt_writes {
                self.params.upi_nt_coherence_overhead
            } else {
                self.params.upi_coherence_overhead
            };
            let out = w * (1.0 + coh); // Accessor -> memory socket.
            let back = r + w * coh; // Memory socket -> accessor.
            if out > 0.0 {
                let upi = self.upi(from, n.socket)?;
                segments.push(Segment {
                    res: upi.dir,
                    coef: out,
                    write_share: 1.0,
                });
                segments.push(Segment {
                    res: upi.write_credit,
                    coef: w,
                    write_share: 1.0,
                });
            }
            if back > 0.0 {
                segments.push(Segment {
                    res: self.upi(n.socket, from)?.dir,
                    coef: back,
                    write_share: (w * coh) / back.max(1e-12),
                });
            }
            // The RSF is absent on RSF-fixed platform projections (§3.4).
            if let (Route::Cxl { .. }, Some(res)) = (self.routes[node.0], self.rsf[n.socket.0]) {
                segments.push(Segment {
                    res,
                    coef: 1.0,
                    write_share: w,
                });
            }
        }

        self.try_idle_latency_ns(from, node, mix)
    }

    /// Idle (unloaded) average access latency for a mix, ns.
    ///
    /// Blends per-operation read and write idle latencies by the mix's
    /// byte fractions, reproducing the §3.2 idle points.
    ///
    /// # Panics
    ///
    /// Panics on unknown or offline nodes; use
    /// [`MemSystem::try_idle_latency_ns`] when either is a live
    /// possibility.
    pub fn idle_latency_ns(&self, from: SocketId, node: NodeId, mix: AccessMix) -> f64 {
        self.try_idle_latency_ns(from, node, mix)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`MemSystem::idle_latency_ns`]: errors on
    /// unknown nodes and offline expanders instead of panicking.
    pub fn try_idle_latency_ns(
        &self,
        from: SocketId,
        node: NodeId,
        mix: AccessMix,
    ) -> Result<f64, PerfError> {
        let n = self.nodes.get(node.0).ok_or(PerfError::UnknownNode(node))?;
        let remote = n.socket != from;
        let (read_idle, write_idle) = match n.tier {
            MemoryTier::LocalDram => {
                let read = if remote {
                    self.params.mmem_read_idle_ns + self.params.upi_hop_ns
                } else {
                    self.params.mmem_read_idle_ns
                };
                let write = if mix.nt_writes {
                    if remote {
                        self.params.nt_write_idle_remote_ns
                    } else {
                        self.params.nt_write_idle_local_ns
                    }
                } else {
                    // Allocating writes pay a read-for-ownership round trip.
                    read
                };
                (read, write)
            }
            MemoryTier::CxlExpander => {
                let Route::Cxl { dev: params, .. } = self.routes[node.0] else {
                    return Err(PerfError::NodeOffline(node));
                };
                let base = self.params.mmem_read_idle_ns
                    + params.controller_latency_ns
                    + params.switch_hop_ns;
                let read = if remote {
                    base + self.params.cxl_remote_extra_ns
                } else {
                    base
                };
                let write = if mix.nt_writes {
                    self.params.cxl_nt_write_idle_ns
                        + if remote { self.params.upi_hop_ns } else { 0.0 }
                } else {
                    read
                };
                (read, write)
            }
        };
        Ok(mix.read_fraction * read_idle + mix.write_fraction() * write_idle)
    }

    /// Solves a set of concurrent flows with max-min water-filling.
    ///
    /// The result is a pure function of the system and the ordered flow
    /// set: nothing is cached between calls, so repeated operating
    /// points solve again and parallel runs see exactly what serial
    /// runs see. Each thread reuses one workspace's buffers from solve
    /// to solve, but never a value in them.
    ///
    /// # Panics
    ///
    /// Panics with the [`PerfError`] that [`MemSystem::try_solve`]
    /// returns: a flow that targets an unknown or offline node, or a
    /// [`PerfError::InvalidFlow`]. Use `try_solve` when faults may be in
    /// play.
    pub fn solve(&self, flows: &[FlowSpec]) -> SolveResult {
        self.try_solve(flows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`MemSystem::solve`]. Before any water-filling
    /// runs, it returns
    ///
    /// * [`PerfError::InvalidFlow`], naming the first flow whose
    ///   `offered_gbps` is negative or not finite or whose mix's
    ///   `read_fraction` lies outside `[0, 1]`, before any path is
    ///   built (a zero rate is valid);
    /// * [`PerfError::NodeOffline`] or [`PerfError::UnknownNode`] for a
    ///   flow addressed to an offline expander or an unknown node, and
    ///   [`PerfError::MissingResource`] for a path the topology lacks.
    pub fn try_solve(&self, flows: &[FlowSpec]) -> Result<SolveResult, PerfError> {
        self.with_solved(flows, |s| s.result())
    }

    /// Solves `flows` in this thread's [`WORKSPACE`] and hands `read` a
    /// view of the solved state. The only place that borrows the
    /// workspace; no `read` passed here solves again.
    fn with_solved<R>(
        &self,
        flows: &[FlowSpec],
        read: impl FnOnce(&Solved<'_>) -> R,
    ) -> Result<R, PerfError> {
        WORKSPACE.with(|ws| self.solve_in(&mut ws.borrow_mut(), flows, read))
    }

    /// [`MemSystem::with_solved`] in a given workspace.
    fn solve_in<R>(
        &self,
        ws: &mut Workspace,
        flows: &[FlowSpec],
        read: impl FnOnce(&Solved<'_>) -> R,
    ) -> Result<R, PerfError> {
        if let Some((index, field)) = flows
            .iter()
            .enumerate()
            .find_map(|(i, f)| f.invalid_field().map(|field| (i, field)))
        {
            return Err(PerfError::InvalidFlow { index, field });
        }
        ws.reset(flows.len(), self.resources.len());
        for f in flows {
            let start = ws.segments.len();
            let idle_ns = self.push_path(&mut ws.segments, f.from, f.node, f.mix)?;
            let end = ws.segments.len();
            ws.paths.push(PathSpan {
                start,
                end,
                idle_ns,
            });
        }
        self.water_fill(ws, flows);
        Ok(read(&Solved {
            sys: self,
            flows,
            ws,
        }))
    }

    /// The water-filling core, over the paths already in `ws`.
    ///
    /// The solver computes, per iteration, the *absolute* scale at
    /// which each resource saturates — `σ_res = (cap − frozen) /
    /// active-demand` — freezes the flows crossing the minimum-σ
    /// resource at exactly that σ, and repeats. Every quantity feeding
    /// a flow's final scale (frozen-usage accumulation order, active
    /// demand sums, σ comparisons) involves only flows of the same
    /// connected resource-sharing component, in flow-index order, so
    /// the result is **partition-invariant**: solving a component alone
    /// produces bit-identical scales to solving it inside a larger
    /// disjoint set, so adding a flow that shares no resource with the
    /// others never moves their bits.
    ///
    /// Per-resource demands are accumulated in one pass over the active
    /// flows (flow order, segments in path order) rather than one scan
    /// per resource: `O(active × segments + resources)` per iteration.
    fn water_fill(&self, ws: &mut Workspace, flows: &[FlowSpec]) {
        let Workspace {
            segments,
            paths,
            scale,
            active,
            frozen,
            demand,
            used,
            write_used,
        } = ws;
        let path = |i: usize| &segments[paths[i].start..paths[i].end];
        let crosses = |i: usize, res: usize| path(i).iter().any(|s| s.res == res);
        active.extend((0..flows.len()).filter(|&i| flows[i].offered_gbps > 0.0));

        let mut iterations = 0u64;
        while !active.is_empty() {
            iterations += 1;
            demand.iter_mut().for_each(|d| *d = 0.0);
            for &i in active.iter() {
                for s in path(i) {
                    demand[s.res] += flows[i].offered_gbps * s.coef;
                }
            }
            // Saturation scale per resource; the binding one is the min.
            let mut sigma_star = 1.0f64;
            let mut binding: Option<usize> = None;
            for (res, r) in self.resources.iter().enumerate() {
                if demand[res] <= 0.0 {
                    continue;
                }
                let sigma = (r.cap_gbps - frozen[res]).max(0.0) / demand[res];
                if sigma < sigma_star {
                    sigma_star = sigma;
                    binding = Some(res);
                }
            }

            match binding {
                None => {
                    // No resource binds below 1.0: everyone left
                    // reaches their offered rate.
                    for &i in active.iter() {
                        scale[i] = 1.0;
                    }
                    break;
                }
                Some(res) => {
                    // Freeze flows crossing the binding resource at σ*,
                    // pinning their usage (flow-index order).
                    for &i in active.iter() {
                        if crosses(i, res) {
                            scale[i] = sigma_star;
                            for s in path(i) {
                                frozen[s.res] += flows[i].offered_gbps * sigma_star * s.coef;
                            }
                        }
                    }
                    active.retain(|&i| !crosses(i, res));
                }
            }
        }

        // Final usage: one pass over all flows in index order (again
        // partition-invariant — a resource only ever sees its own
        // component's flows).
        for (i, f) in flows.iter().enumerate() {
            for s in path(i) {
                let add = f.offered_gbps * scale[i] * s.coef;
                used[s.res] += add;
                write_used[s.res] += add * s.write_share;
            }
        }

        // Wall class: host-side solver effort, kept out of the `sim`
        // section whose key set the goldens pin.
        cxl_obs::wall_counter_add("perf/solves", 1);
        cxl_obs::wall_counter_add("perf/solver_iterations", iterations);
    }

    /// Per-resource latency contributions of one flow at the solved
    /// operating point (diagnostics: *where* does remote-CXL latency
    /// come from?).
    ///
    /// Returns the path's idle latency plus `(resource, delay_ns)` pairs
    /// in path order; their sum equals the flow's
    /// [`FlowOutcome::latency_ns`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or as [`MemSystem::solve`]
    /// does.
    pub fn latency_breakdown(&self, flows: &[FlowSpec], index: usize) -> LatencyBreakdown {
        assert!(index < flows.len(), "flow index out of range");
        self.with_solved(flows, |s| s.breakdown(index))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Loaded latency and achieved bandwidth for a single flow: the
    /// outcome [`MemSystem::solve`] gives for `[flow]`, read without
    /// building a [`SolveResult`].
    ///
    /// # Panics
    ///
    /// Panics as [`MemSystem::solve`] does.
    pub fn loaded_point(&self, flow: FlowSpec) -> FlowOutcome {
        self.with_solved(std::slice::from_ref(&flow), |s| s.outcome(0))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Peak achievable bandwidth for a single flow, GB/s.
    pub fn max_bandwidth_gbps(&self, from: SocketId, node: NodeId, mix: AccessMix) -> f64 {
        self.loaded_point(FlowSpec::new(from, node, mix, 10_000.0))
            .achieved_gbps
    }

    /// Socket ids of the platform.
    pub fn sockets(&self) -> &[SocketId] {
        &self.sockets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_topology::{SncMode, Topology};
    use proptest::prelude::*;

    fn sys() -> MemSystem {
        MemSystem::new(&Topology::paper_testbed(SncMode::Snc4))
    }

    fn s0() -> SocketId {
        SocketId(0)
    }

    fn dram0() -> NodeId {
        NodeId(0)
    }

    fn dram_remote() -> NodeId {
        NodeId(4) // First SNC domain of socket 1.
    }

    fn cxl0() -> NodeId {
        NodeId(8) // First CXL device, attached to socket 0.
    }

    #[test]
    fn idle_latencies_match_section_3_2() {
        let m = sys();
        let read = AccessMix::read_only();
        assert!((m.idle_latency_ns(s0(), dram0(), read) - 97.0).abs() < 1e-9);
        assert!((m.idle_latency_ns(s0(), dram_remote(), read) - 130.0).abs() < 1e-9);
        assert!((m.idle_latency_ns(s0(), cxl0(), read) - 250.42).abs() < 0.5);
        assert!((m.idle_latency_ns(SocketId(1), cxl0(), read) - 485.0).abs() < 0.5);
        // Remote NT write-only idles at 71.77 ns.
        let wr = AccessMix::write_only();
        assert!((m.idle_latency_ns(s0(), dram_remote(), wr) - 71.77).abs() < 1e-9);
    }

    #[test]
    fn switch_hop_raises_cxl_idle_latency_exactly() {
        let direct = MemSystem::new(&Topology::pooled_host(256, 256, 0.0));
        let pooled = MemSystem::new(&Topology::pooled_host(256, 256, 70.0));
        let read = AccessMix::read_only();
        let pool_node = NodeId(1);
        let d = direct.idle_latency_ns(s0(), pool_node, read);
        let p = pooled.idle_latency_ns(s0(), pool_node, read);
        assert!((p - d - 70.0).abs() < 1e-9, "direct {d} pooled {p}");
        // NT writes post at the host bridge and never cross the switch.
        let wr = AccessMix::write_only();
        let dw = direct.idle_latency_ns(s0(), pool_node, wr);
        let pw = pooled.idle_latency_ns(s0(), pool_node, wr);
        assert!((dw - pw).abs() < 1e-9, "NT write direct {dw} pooled {pw}");
    }

    #[test]
    fn fabric_path_latency_feeds_the_solve_per_window() {
        // A fleet host sees every reachable pool as its own node priced
        // at that pool's fabric path latency — cross-rack windows pay
        // the spine and both cables on top of the ToR hop, and the
        // idle-latency solve must reproduce each path sum exactly.
        let fabric = cxl_topology::Fabric::rack_spine(2, 4);
        let near = fabric.path_latency_ns("rack0/host0", "rack0/pool").unwrap();
        let far = fabric.path_latency_ns("rack0/host0", "rack1/pool").unwrap();
        let topo = Topology::fleet_host(
            192,
            &[
                ("rack0/pool".to_string(), 256, near),
                ("rack1/pool".to_string(), 256, far),
            ],
        );
        let m = MemSystem::new(&topo);
        let read = AccessMix::read_only();
        let near_ns = m.idle_latency_ns(s0(), NodeId(1), read);
        let far_ns = m.idle_latency_ns(s0(), NodeId(2), read);
        assert!((far_ns - near_ns - (far - near)).abs() < 1e-9);
        assert!(far_ns > near_ns, "cross-rack must idle strictly higher");
        // The single-switch path through the fabric matches the
        // historical scalar model bit-for-bit.
        let scalar = MemSystem::new(&Topology::pooled_host(192, 256, 70.0));
        let scalar_ns = scalar.idle_latency_ns(s0(), NodeId(1), read);
        assert_eq!(near_ns.to_bits(), scalar_ns.to_bits());
    }

    #[test]
    fn cxl_latency_ratios_match_section_3_3() {
        let m = sys();
        let read = AccessMix::read_only();
        let local = m.idle_latency_ns(s0(), dram0(), read);
        let remote = m.idle_latency_ns(s0(), dram_remote(), read);
        let cxl = m.idle_latency_ns(s0(), cxl0(), read);
        let vs_local = cxl / local;
        let vs_remote = cxl / remote;
        assert!((2.4..=2.6).contains(&vs_local), "CXL/MMEM = {vs_local}");
        assert!(
            (1.5..=1.95).contains(&vs_remote),
            "CXL/MMEM-r = {vs_remote}"
        );
    }

    #[test]
    fn local_ddr_peaks_match_fig3a() {
        let m = sys();
        let read = m.max_bandwidth_gbps(s0(), dram0(), AccessMix::read_only());
        let write = m.max_bandwidth_gbps(s0(), dram0(), AccessMix::write_only());
        assert!((read - 66.8).abs() < 0.5, "read peak {read}");
        assert!((write - 54.6).abs() < 0.5, "write peak {write}");
    }

    #[test]
    fn local_cxl_peaks_match_fig3c() {
        let m = sys();
        let peak_21 = m.max_bandwidth_gbps(s0(), cxl0(), AccessMix::ratio(2, 1));
        assert!((peak_21 - 56.7).abs() < 1.0, "2:1 peak {peak_21}");
        let read_only = m.max_bandwidth_gbps(s0(), cxl0(), AccessMix::read_only());
        // Read-only is PCIe-direction-limited, hence below the 2:1 mix.
        assert!(read_only < peak_21, "read {read_only} vs 2:1 {peak_21}");
        assert!((read_only - 47.1).abs() < 1.0, "read-only {read_only}");
        let write_only = m.max_bandwidth_gbps(s0(), cxl0(), AccessMix::write_only());
        assert!(write_only < read_only, "write-only {write_only}");
    }

    #[test]
    fn remote_cxl_collapses_to_rsf_limit() {
        let m = sys();
        let peak = m.max_bandwidth_gbps(SocketId(1), cxl0(), AccessMix::ratio(2, 1));
        assert!((peak - 20.4).abs() < 1.2, "remote CXL peak {peak}");
        // UPI stays lightly utilized at that point (§3.2: < 30 %).
        let r = m.solve(&[FlowSpec::new(
            SocketId(1),
            cxl0(),
            AccessMix::ratio(2, 1),
            10_000.0,
        )]);
        let upi_back = r.utilization_of(ResourceKind::UpiDir(s0(), SocketId(1)));
        let upi_out = r.utilization_of(ResourceKind::UpiDir(SocketId(1), s0()));
        assert!(upi_back < 0.3, "UPI util {upi_back}");
        assert!(upi_out < 0.3, "UPI util {upi_out}");
    }

    #[test]
    fn remote_ddr_read_comparable_to_local_but_writes_collapse() {
        let m = sys();
        let read = m.max_bandwidth_gbps(s0(), dram_remote(), AccessMix::read_only());
        let local = m.max_bandwidth_gbps(s0(), dram0(), AccessMix::read_only());
        assert!(read > 0.9 * local, "remote read {read} local {local}");
        let w11 = m.max_bandwidth_gbps(s0(), dram_remote(), AccessMix::ratio(1, 1));
        let w01 = m.max_bandwidth_gbps(s0(), dram_remote(), AccessMix::write_only());
        assert!(w11 < read, "1:1 {w11} not below read {read}");
        assert!(w01 < w11, "write-only {w01} not lowest");
        assert!(w01 < 25.0, "write-only too high: {w01}");
    }

    #[test]
    fn latency_flat_then_spikes() {
        let m = sys();
        let mix = AccessMix::read_only();
        let idle = m.idle_latency_ns(s0(), dram0(), mix);
        let half = m
            .loaded_point(FlowSpec::new(s0(), dram0(), mix, 33.0))
            .latency_ns;
        let full = m
            .loaded_point(FlowSpec::new(s0(), dram0(), mix, 10_000.0))
            .latency_ns;
        assert!(half < idle + 15.0, "half-load latency {half}");
        assert!(full > 4.0 * idle, "saturated latency {full}");
    }

    #[test]
    fn knee_between_75_and_83_percent_for_reads() {
        let m = sys();
        let mix = AccessMix::read_only();
        let peak = m.max_bandwidth_gbps(s0(), dram0(), mix);
        let idle = m.idle_latency_ns(s0(), dram0(), mix);
        // Below 75 % of peak the latency is still near idle.
        let low = m
            .loaded_point(FlowSpec::new(s0(), dram0(), mix, 0.74 * peak))
            .latency_ns;
        assert!(low < idle * 1.25, "low {low} idle {idle}");
        // At 90 % the queue is clearly visible.
        let high = m
            .loaded_point(FlowSpec::new(s0(), dram0(), mix, 0.90 * peak))
            .latency_ns;
        assert!(high > idle * 1.3, "high {high} idle {idle}");
    }

    #[test]
    fn two_flows_share_a_ddr_group_fairly() {
        let m = sys();
        let mix = AccessMix::read_only();
        let f = FlowSpec::new(s0(), dram0(), mix, 10_000.0);
        let r = m.solve(&[f, f]);
        let total: f64 = r.flows.iter().map(|f| f.achieved_gbps).sum();
        let single = m.max_bandwidth_gbps(s0(), dram0(), mix);
        assert!(
            (total - single).abs() < 0.5,
            "total {total} single {single}"
        );
        assert!((r.flows[0].achieved_gbps - r.flows[1].achieved_gbps).abs() < 0.5);
    }

    #[test]
    fn flows_on_distinct_nodes_do_not_contend() {
        let m = sys();
        let mix = AccessMix::read_only();
        let r = m.solve(&[
            FlowSpec::new(s0(), NodeId(0), mix, 10_000.0),
            FlowSpec::new(s0(), NodeId(1), mix, 10_000.0),
        ]);
        let single = m.max_bandwidth_gbps(s0(), NodeId(0), mix);
        assert!((r.flows[0].achieved_gbps - single).abs() < 0.5);
        assert!((r.flows[1].achieved_gbps - single).abs() < 0.5);
    }

    #[test]
    fn unthrottled_flow_keeps_offered_rate() {
        let m = sys();
        let f = FlowSpec::new(s0(), dram0(), AccessMix::read_only(), 10.0);
        let out = m.loaded_point(f);
        assert!(!out.throttled);
        assert!((out.achieved_gbps - 10.0).abs() < 1e-9);
    }

    #[test]
    fn offloading_to_cxl_relieves_ddr_contention() {
        // §3.4's key insight: moving part of a heavy workload to CXL
        // lowers the latency of the DDR share even before DDR saturates.
        let m = sys();
        let mix = AccessMix::read_only();
        let all_ddr = m
            .loaded_point(FlowSpec::new(s0(), dram0(), mix, 62.0))
            .latency_ns;
        let split = m.solve(&[
            FlowSpec::new(s0(), dram0(), mix, 49.6),
            FlowSpec::new(s0(), cxl0(), mix, 12.4),
        ]);
        let ddr_lat = split.flows[0].latency_ns;
        assert!(
            ddr_lat < all_ddr,
            "DDR flow latency with offload {ddr_lat} vs without {all_ddr}"
        );
    }

    #[test]
    fn distance_classification() {
        let m = sys();
        assert_eq!(m.distance(s0(), dram0()), Distance::LocalDram);
        assert_eq!(m.distance(s0(), dram_remote()), Distance::RemoteDram);
        assert_eq!(m.distance(s0(), cxl0()), Distance::LocalCxl);
        assert_eq!(m.distance(SocketId(1), cxl0()), Distance::RemoteCxl);
        assert_eq!(Distance::LocalCxl.label(), "CXL");
    }

    #[test]
    fn single_socket_topology_builds() {
        let m = MemSystem::new(&Topology::snc_domain_with_cxl());
        assert_eq!(m.nodes().len(), 2);
        let bw = m.max_bandwidth_gbps(s0(), NodeId(0), AccessMix::read_only());
        assert!((bw - 66.8).abs() < 0.5);
    }

    #[test]
    fn breakdown_sums_to_total_latency() {
        let m = sys();
        let flows = [FlowSpec::new(s0(), dram0(), AccessMix::read_only(), 60.0)];
        let b = m.latency_breakdown(&flows, 0);
        let sum: f64 = b.idle_ns + b.contributions.iter().map(|&(_, d)| d).sum::<f64>();
        assert!(
            (sum - b.total_ns).abs() < 1e-9,
            "sum {sum} total {}",
            b.total_ns
        );
        assert!(b.total_ns > b.idle_ns, "60 GB/s should queue");
    }

    #[test]
    fn remote_cxl_latency_dominated_by_rsf_under_load() {
        let m = sys();
        let flows = [FlowSpec::new(
            SocketId(1),
            cxl0(),
            AccessMix::ratio(2, 1),
            19.0,
        )];
        let b = m.latency_breakdown(&flows, 0);
        let (kind, delay) = b
            .contributions
            .iter()
            .copied()
            .max_by(|a, c| a.1.total_cmp(&c.1))
            .expect("remote CXL path has resources");
        assert!(delay > 0.0, "queueing at 19 of ~20.6 GB/s");
        assert!(
            matches!(kind, ResourceKind::Rsf(_)),
            "dominant {kind:?} ({delay} ns)"
        );
    }

    #[test]
    fn idle_flow_has_no_contributions_above_linear() {
        let m = sys();
        let flows = [FlowSpec::new(s0(), dram0(), AccessMix::read_only(), 1.0)];
        let b = m.latency_breakdown(&flows, 0);
        // Only the gentle linear term, well under 1 ns at 1.5 % load.
        let total_delay: f64 = b.contributions.iter().map(|&(_, d)| d).sum();
        assert!(total_delay < 1.0, "delay {total_delay}");
    }

    #[test]
    fn rsf_fixed_platform_recovers_remote_cxl_bandwidth() {
        // §3.4: with proper CXL support, cross-socket CXL bandwidth
        // should approximate cross-socket MMEM bandwidth.
        let topo = Topology::paper_testbed(SncMode::Snc4);
        let fixed = MemSystem::with_params(&topo, &ModelParams::rsf_fixed());
        let mix = AccessMix::ratio(2, 1);
        let remote_cxl = fixed.max_bandwidth_gbps(SocketId(1), cxl0(), mix);
        let remote_ddr = fixed.max_bandwidth_gbps(s0(), dram_remote(), mix);
        let broken = sys().max_bandwidth_gbps(SocketId(1), cxl0(), mix);
        assert!(
            remote_cxl > 2.0 * broken,
            "fixed {remote_cxl} broken {broken}"
        );
        assert!(
            remote_cxl > 0.75 * remote_ddr,
            "remote CXL {remote_cxl} vs remote DDR {remote_ddr}"
        );
    }

    #[test]
    fn knee_tuning_moves_the_knee() {
        let topo = Topology::paper_testbed(SncMode::Snc4);
        let early = MemSystem::with_params(&topo, &ModelParams::default().with_knee(0.55));
        let mix = AccessMix::read_only();
        let peak = early.max_bandwidth_gbps(s0(), dram0(), mix);
        let at_65 = early
            .loaded_point(FlowSpec::new(s0(), dram0(), mix, 0.65 * peak))
            .latency_ns;
        let idle = early.idle_latency_ns(s0(), dram0(), mix);
        // With the knee at 0.55, 65 % load already queues visibly, unlike
        // the paper platform where the knee sits at 0.80.
        assert!(at_65 > idle * 1.15, "at_65 {at_65} idle {idle}");
        let stock = sys()
            .loaded_point(FlowSpec::new(s0(), dram0(), mix, 0.65 * peak))
            .latency_ns;
        assert!(at_65 > stock);
    }

    #[test]
    fn fpga_device_is_slower_than_asic() {
        use cxl_topology::{CxlDevice, DdrGeneration, Socket};
        let topo = Topology {
            sockets: vec![Socket::new(s0(), 14, 2, DdrGeneration::Ddr5_4800, 128)
                .with_devices(vec![CxlDevice::fpga_prototype()])],
            snc: SncMode::Disabled,
            upi: vec![],
        };
        let fpga = MemSystem::new(&topo);
        let asic = MemSystem::new(&Topology::snc_domain_with_cxl());
        let mix = AccessMix::read_only();
        let fpga_bw = fpga.max_bandwidth_gbps(s0(), NodeId(1), mix);
        let asic_bw = asic.max_bandwidth_gbps(s0(), NodeId(1), mix);
        assert!(fpga_bw < asic_bw, "fpga {fpga_bw} asic {asic_bw}");
        let fpga_lat = fpga.idle_latency_ns(s0(), NodeId(1), mix);
        let asic_lat = asic.idle_latency_ns(s0(), NodeId(1), mix);
        assert!(fpga_lat > asic_lat);
    }

    #[test]
    fn link_downgrade_moves_peak_but_not_idle_latency() {
        let healthy = MemSystem::new(&Topology::paper_testbed(SncMode::Disabled));
        let mut topo = Topology::paper_testbed(SncMode::Disabled);
        topo.cxl_device_mut(NodeId(2))
            .expect("expander")
            .health
            .lanes_override = Some(8);
        let degraded = MemSystem::new(&topo);
        let mix = AccessMix::read_only();
        let cxl = NodeId(2);
        // A narrower link lowers the achievable peak (the x8 PCIe
        // per-direction ceiling binds before the backing DDR)...
        let bw_h = healthy.max_bandwidth_gbps(s0(), cxl, mix);
        let bw_d = degraded.max_bandwidth_gbps(s0(), cxl, mix);
        assert!(
            bw_d < bw_h * 0.6,
            "x8 peak {bw_d} should sit well below x16 peak {bw_h}"
        );
        // ...but the unloaded datapath latency is untouched.
        let idle_h = healthy.idle_latency_ns(s0(), cxl, mix);
        let idle_d = degraded.idle_latency_ns(s0(), cxl, mix);
        assert!((idle_h - idle_d).abs() < 1e-9);
        // The other expander is unaffected.
        let bw_other = degraded.max_bandwidth_gbps(s0(), NodeId(3), mix);
        assert!((bw_other - bw_h).abs() < 1e-6);
    }

    #[test]
    fn latency_inflation_raises_idle_latency() {
        let mut topo = Topology::paper_testbed(SncMode::Disabled);
        topo.cxl_device_mut(NodeId(2))
            .expect("expander")
            .health
            .latency_factor = 2.0;
        let degraded = MemSystem::new(&topo);
        let mix = AccessMix::read_only();
        let idle = degraded.idle_latency_ns(s0(), NodeId(2), mix);
        // 97 ns DRAM + 2 x 153.4 ns controller ≈ 403.8 ns.
        assert!(
            (idle - (ModelParams::default().mmem_read_idle_ns + 2.0 * 153.4)).abs() < 1e-6,
            "idle {idle}"
        );
    }

    #[test]
    fn offline_expander_solves_as_error_not_panic() {
        let mut topo = Topology::paper_testbed(SncMode::Disabled);
        topo.cxl_device_mut(NodeId(2))
            .expect("expander")
            .health
            .online = false;
        let sys = MemSystem::new(&topo);
        assert!(!sys.node_online(NodeId(2)));
        assert!(sys.node_online(NodeId(0)));
        assert!(sys.node_online(NodeId(3)));
        let mix = AccessMix::read_only();
        let err = sys
            .try_solve(&[FlowSpec::new(s0(), NodeId(2), mix, 10.0)])
            .expect_err("offline node must not solve");
        assert_eq!(err, PerfError::NodeOffline(NodeId(2)));
        assert_eq!(
            sys.try_idle_latency_ns(s0(), NodeId(2), mix),
            Err(PerfError::NodeOffline(NodeId(2)))
        );
        // The rest of the machine still solves normally.
        let ok = sys
            .try_solve(&[FlowSpec::new(s0(), NodeId(3), mix, 10.0)])
            .expect("healthy expander serves");
        assert!(ok.flows[0].achieved_gbps > 9.9);
    }

    #[test]
    fn unknown_node_is_an_error() {
        let sys = sys();
        let mix = AccessMix::read_only();
        assert_eq!(
            sys.try_idle_latency_ns(s0(), NodeId(99), mix),
            Err(PerfError::UnknownNode(NodeId(99)))
        );
        assert!(sys
            .try_solve(&[FlowSpec::new(s0(), NodeId(99), mix, 1.0)])
            .is_err());
    }

    /// Six flows from socket 0 to the six socket-local nodes of the SNC-4
    /// testbed (4 DRAM SNC domains + 2 CXL expanders): every flow touches
    /// only its own node's resources — no UPI, no RSF — so the set
    /// decomposes into six singleton components.
    fn disjoint_flows() -> Vec<FlowSpec> {
        [0usize, 1, 2, 3, 8, 9]
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                // Distinct offered rates: distinct outcomes per flow.
                FlowSpec::new(s0(), NodeId(n), AccessMix::ratio(2, 1), 8.0 + i as f64)
            })
            .collect()
    }

    /// A solve's outputs as bits: per flow `(achieved_gbps, latency_ns,
    /// throttled)`, then every used resource's utilization in emission
    /// order.
    #[allow(clippy::type_complexity)]
    fn bits(r: &SolveResult) -> (Vec<(u64, u64, bool)>, Vec<(ResourceKind, u64)>) {
        let flows = r
            .flows
            .iter()
            .map(|o| {
                (
                    o.achieved_gbps.to_bits(),
                    o.latency_ns.to_bits(),
                    o.throttled,
                )
            })
            .collect();
        let util = r
            .utilization
            .iter()
            .map(|&(k, u)| (k, u.to_bits()))
            .collect();
        (flows, util)
    }

    /// Asserts a solve of `flows` reproduces the pinned bits (see
    /// [`bits`]).
    fn assert_pinned(
        flows: &[FlowSpec],
        want_flows: &[(u64, u64, bool)],
        want_util: &[(ResourceKind, u64)],
    ) {
        let (got_flows, got_util) = bits(&sys().try_solve(flows).unwrap());
        assert_eq!(got_flows, want_flows, "flow outcomes drifted");
        assert_eq!(got_util, want_util, "utilization drifted");
    }

    #[test]
    fn solve_outputs_are_pinned_to_the_bit() {
        use ResourceKind::*;
        let (s1, n) = (SocketId(1), NodeId);
        // Six resource-disjoint flows: six singleton components.
        assert_pinned(
            &disjoint_flows(),
            &[
                (0x4020000000000000, 0x40567ee1259b7517, false), // 8 GB/s, 89.98 ns
                (0x4022000000000000, 0x40569167f4f98e65, false), // 9 GB/s, 90.27 ns
                (0x4024000000000000, 0x4056a3eec457a7b2, false), // 10 GB/s, 90.56 ns
                (0x4026000000000000, 0x4056b67593b5c100, false), // 11 GB/s, 90.85 ns
                (0x4028000000000000, 0x40694bff5c9bd0da, false), // 12 GB/s, 202.37 ns
                (0x402a000000000000, 0x40695ef3ee4816e2, false), // 13 GB/s, 202.97 ns
            ],
            &[
                (DdrGroup(n(0)), 0x3fc077d4c56bd33c),
                (DdrGroup(n(1)), 0x3fc286cf5e194da3),
                (DdrGroup(n(2)), 0x3fc495c9f6c6c80a),
                (DdrGroup(n(3)), 0x3fc6a4c48f744272),
                (CxlBacking(n(8)), 0x3fcaff32d686cb98),
                (CxlLinkD2h(n(8)), 0x3fc5bd37a6f4de9c),
                (CxlLinkH2d(n(8)), 0x3fb5bd37a6f4de9c),
                (CxlWriteMsg(n(8)), 0x3fbcfc4a33f128cf),
                (CxlBacking(n(9)), 0x3fcd3f21bdbcb1e4),
                (CxlLinkD2h(n(9)), 0x3fc78cfc4a33f128),
                (CxlLinkH2d(n(9)), 0x3fb78cfc4a33f12a),
                (CxlWriteMsg(n(9)), 0x3fbf66a5b845418c),
            ],
        );
        // Remote DRAM and remote CXL share the UPI directions; local
        // DRAM stays alone.
        let mix = AccessMix::ratio(2, 1);
        assert_pinned(
            &[
                FlowSpec::new(s0(), dram_remote(), mix, 9.0),
                FlowSpec::new(s1, cxl0(), mix, 9.0),
                FlowSpec::new(s0(), dram0(), mix, 9.0),
            ],
            &[
                (0x4022000000000000, 0x405d51dc02a0cf3e, false), // 9 GB/s, 117.28 ns
                (0x4022000000000000, 0x4077beeaea87439a, false), // 9 GB/s, 379.93 ns
                (0x4022000000000000, 0x40569167f4f98e65, false), // 9 GB/s, 90.27 ns
            ],
            &[
                (DdrGroup(n(0)), 0x3fc286cf5e194da3),
                (DdrGroup(n(4)), 0x3fc286cf5e194da3),
                (CxlBacking(n(8)), 0x3fc43f6620e518b2),
                (CxlLinkD2h(n(8)), 0x3fc04de9bd37a6f5),
                (CxlLinkH2d(n(8)), 0x3fb04de9bd37a6f6),
                (CxlWriteMsg(n(8)), 0x3fb5bd37a6f4de9c),
                (UpiDir(s0(), s1), 0x3fc370a3d70a3d71),
                (UpiWriteCredit(s0(), s1), 0x3fc3333333333334),
                (UpiDir(s1, s0()), 0x3fc370a3d70a3d71),
                (UpiWriteCredit(s1, s0()), 0x3fc3333333333334),
                (Rsf(s0()), 0x3fdbf60ee9a18dab),
            ],
        );
        // Two saturating flows on one DDR group split its peak.
        let f = FlowSpec::new(s0(), dram0(), AccessMix::read_only(), 10_000.0);
        assert_pinned(
            &[f, f],
            &[
                (0x4040b4395810624e, 0x40c4a5e47ae147a9, true), // 33.408 GB/s, 10571.78 ns
                (0x4040b4395810624e, 0x40c4a5e47ae147a9, true),
            ],
            &[(DdrGroup(n(0)), 0x3ff0000000000000)],
        );
    }

    #[test]
    fn every_solve_counts_once() {
        // Nothing is memoized: a repeated flow set solves again.
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let _scope = cxl_obs::scope(reg.clone());
        let m = sys();
        let flow = [FlowSpec::new(s0(), dram0(), AccessMix::read_only(), 10.0)];
        m.solve(&flow);
        m.solve(&flow);
        m.loaded_point(flow[0]);
        m.loaded_point(flow[0]);
        m.latency_breakdown(&flow, 0);
        assert_eq!(reg.counter("perf/solves"), Some(5));
    }

    /// A valid 10 GB/s read flow to node 0 beside `bad`.
    fn beside_a_valid_flow(bad: FlowSpec) -> Result<SolveResult, PerfError> {
        let ok = FlowSpec::new(s0(), dram0(), AccessMix::read_only(), 10.0);
        sys().try_solve(&[ok, bad])
    }

    fn read_flow(offered_gbps: f64) -> FlowSpec {
        FlowSpec::new(s0(), dram0(), AccessMix::read_only(), offered_gbps)
    }

    fn invalid(index: usize, field: &'static str) -> Result<SolveResult, PerfError> {
        Err(PerfError::InvalidFlow { index, field })
    }

    #[test]
    fn infinite_rate_is_an_invalid_flow() {
        // Solved, it made the flow NaN, its neighbour 0 GB/s at NaN
        // latency, and the utilization list empty.
        let r = beside_a_valid_flow(read_flow(f64::INFINITY));
        assert_eq!(
            r.map(|r| bits(&r)),
            invalid(1, "offered_gbps").map(|r| bits(&r))
        );
    }

    #[test]
    fn nan_rate_is_an_invalid_flow() {
        // Solved, it gave a NaN outcome and NaN latency to its neighbour.
        let r = beside_a_valid_flow(read_flow(f64::NAN));
        assert_eq!(
            r.map(|r| bits(&r)),
            invalid(1, "offered_gbps").map(|r| bits(&r))
        );
    }

    #[test]
    fn negative_rate_is_an_invalid_flow() {
        // Solved, it came back as -0.0 GB/s.
        let r = beside_a_valid_flow(read_flow(-5.0));
        assert_eq!(
            r.map(|r| bits(&r)),
            invalid(1, "offered_gbps").map(|r| bits(&r))
        );
    }

    #[test]
    fn read_fraction_outside_zero_to_one_is_an_invalid_flow() {
        // A struct literal skips `AccessMix::from_read_fraction`'s check;
        // a NaN fraction solved to NaN latency.
        for read_fraction in [f64::NAN, -0.25, 1.5] {
            let mix = AccessMix {
                read_fraction,
                ..AccessMix::read_only()
            };
            let r = beside_a_valid_flow(FlowSpec::new(s0(), dram0(), mix, 10.0));
            assert_eq!(
                r.map(|r| bits(&r)),
                invalid(1, "read_fraction").map(|r| bits(&r)),
                "read fraction {read_fraction}"
            );
        }
    }

    #[test]
    fn invalid_flows_are_rejected_before_any_path_is_built() {
        // Flow 0 names an unknown node, but flow 1's rate is checked first.
        let unknown = FlowSpec::new(s0(), NodeId(99), AccessMix::read_only(), 1.0);
        let r = sys().try_solve(&[unknown, read_flow(f64::NAN)]);
        assert_eq!(
            r.map(|r| bits(&r)),
            invalid(1, "offered_gbps").map(|r| bits(&r))
        );
    }

    #[test]
    fn zero_rates_stay_valid() {
        for zero in [0.0, -0.0] {
            let r = beside_a_valid_flow(read_flow(zero)).expect("a zero rate solves");
            assert_eq!(r.flows[1].achieved_gbps, 0.0);
            assert!((r.flows[0].achieved_gbps - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "flow 1 has an invalid offered_gbps")]
    fn solve_panics_on_an_invalid_flow() {
        sys().solve(&[read_flow(1.0), read_flow(f64::INFINITY)]);
    }

    #[test]
    #[should_panic(expected = "flow 0 has an invalid offered_gbps")]
    fn loaded_point_panics_on_an_invalid_flow() {
        sys().loaded_point(read_flow(-5.0));
    }

    #[test]
    #[should_panic(expected = "flow 0 has an invalid read_fraction")]
    fn latency_breakdown_panics_on_an_invalid_flow() {
        let mix = AccessMix {
            read_fraction: f64::NAN,
            ..AccessMix::read_only()
        };
        sys().latency_breakdown(&[FlowSpec::new(s0(), dram0(), mix, 1.0)], 0);
    }

    /// The systems the workspace tests draw from: the paper testbed in
    /// each SNC mode, a single socket, an offline expander, and the
    /// RSF-fixed projection.
    fn drawn_system(kind: usize) -> MemSystem {
        let testbed = Topology::paper_testbed;
        match kind {
            0 => MemSystem::new(&testbed(SncMode::Snc4)),
            1 => MemSystem::new(&testbed(SncMode::Disabled)),
            2 => MemSystem::new(&Topology::snc_domain_with_cxl()),
            3 => {
                let mut topo = testbed(SncMode::Disabled);
                topo.cxl_device_mut(NodeId(2))
                    .expect("expander")
                    .health
                    .online = false;
                MemSystem::new(&topo)
            }
            _ => MemSystem::with_params(&testbed(SncMode::Snc4), &ModelParams::rsf_fixed()),
        }
    }

    /// One drawn flow: socket and node picks; a `read:write` ratio and
    /// whether writes are regular; a rate kind and a rate.
    type FlowDraw = ((usize, usize), (u32, u32, bool), (usize, f64));

    fn flow_draw() -> impl Strategy<Value = FlowDraw> {
        (
            (0usize..2, 0usize..16),
            (0u32..4, 0u32..4, any::<bool>()),
            (0usize..4, 0.0f64..80.0),
        )
    }

    /// The flows `draws` name on `sys`, each from one of its sockets to
    /// one of its online nodes, at a zero, a saturating or a drawn rate.
    fn drawn_flows(sys: &MemSystem, draws: &[FlowDraw]) -> Vec<FlowSpec> {
        let online: Vec<NodeId> = sys
            .nodes()
            .iter()
            .map(|n| n.id)
            .filter(|&n| sys.node_online(n))
            .collect();
        let sockets = sys.sockets();
        draws
            .iter()
            .map(|&((s, n), (r, w, regular), (rate_kind, rate))| {
                let mut mix = AccessMix::ratio(r.max(u32::from(r + w == 0)), w);
                if regular {
                    mix = mix.with_regular_writes();
                }
                let offered = match rate_kind {
                    0 => 0.0,
                    1 => 10_000.0,
                    _ => rate,
                };
                FlowSpec::new(
                    sockets[s % sockets.len()],
                    online[n % online.len()],
                    mix,
                    offered,
                )
            })
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn breakdown_bits(b: &LatencyBreakdown) -> (u64, Vec<(ResourceKind, u64)>, u64) {
        let contributions = b
            .contributions
            .iter()
            .map(|&(k, d)| (k, d.to_bits()))
            .collect();
        (b.idle_ns.to_bits(), contributions, b.total_ns.to_bits())
    }

    proptest! {
        /// A solve after any run of earlier solves (other systems,
        /// larger sets, sets that fail partway through their paths)
        /// equals, to the bit, the same solve in a fresh workspace.
        #[test]
        fn a_solve_reads_nothing_earlier_solves_left(
            kind in 0usize..5,
            draws in prop::collection::vec(flow_draw(), 1..=12),
            pick in 0usize..12,
            earlier in prop::collection::vec(
                (0usize..5, prop::collection::vec(flow_draw(), 1..=24), 0usize..4),
                0..6,
            ),
        ) {
            let run_earlier = || {
                for (kind, draws, poison) in &earlier {
                    let sys = drawn_system(*kind);
                    let mut set = drawn_flows(&sys, draws);
                    let last = set.len() - 1;
                    match poison {
                        2 => set[last].offered_gbps = f64::NAN,
                        3 => set[last].node = NodeId(99),
                        _ => {}
                    }
                    let _ = sys.try_solve(&set);
                }
            };
            let sys = drawn_system(kind);
            let flows = drawn_flows(&sys, &draws);
            let index = pick % flows.len();

            run_earlier();
            let warm_breakdown = sys.latency_breakdown(&flows, index);
            run_earlier();
            let warm = sys.try_solve(&flows).unwrap();

            let fresh = sys
                .solve_in(&mut Workspace::default(), &flows, |s| s.result())
                .unwrap();
            let fresh_breakdown = sys
                .solve_in(&mut Workspace::default(), &flows, |s| s.breakdown(index))
                .unwrap();
            prop_assert_eq!(bits(&warm), bits(&fresh));
            prop_assert_eq!(
                breakdown_bits(&warm_breakdown),
                breakdown_bits(&fresh_breakdown)
            );
        }
    }

    #[test]
    fn loaded_point_is_the_single_flow_solve_to_the_bit() {
        let mixes = [
            AccessMix::read_only(),
            AccessMix::write_only(),
            AccessMix::ratio(2, 1),
            AccessMix::ratio(1, 1).with_regular_writes(),
        ];
        for kind in 0..5 {
            let m = drawn_system(kind);
            for &from in m.sockets() {
                for node in m.nodes().iter().map(|n| n.id).filter(|&n| m.node_online(n)) {
                    for mix in mixes {
                        for offered in [0.0, 7.5, 40.0, 10_000.0] {
                            let f = FlowSpec::new(from, node, mix, offered);
                            let point = m.loaded_point(f);
                            let solved = m.solve(&[f]).flows[0];
                            assert_eq!(
                                (point.achieved_gbps.to_bits(), point.latency_ns.to_bits()),
                                (solved.achieved_gbps.to_bits(), solved.latency_ns.to_bits()),
                                "{f:?}"
                            );
                            assert_eq!(point.throttled, solved.throttled);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degraded_link_solves_below_the_healthy_peak() {
        let healthy = MemSystem::new(&Topology::paper_testbed(SncMode::Disabled));
        let mut topo = Topology::paper_testbed(SncMode::Disabled);
        topo.cxl_device_mut(NodeId(2))
            .expect("expander")
            .health
            .lanes_override = Some(4);
        let degraded = MemSystem::new(&topo);
        let mix = AccessMix::read_only();
        let flow = [FlowSpec::new(s0(), NodeId(2), mix, 10_000.0)];
        // The same flow on a x4 link binds well below the x16 peak.
        let bw_h = healthy.solve(&flow).flows[0].achieved_gbps;
        let bw_d = degraded.solve(&flow).flows[0].achieved_gbps;
        assert!(bw_d < bw_h * 0.5, "healthy {bw_h} degraded {bw_d}");
    }
}
