#![warn(missing_docs)]

//! Hardware topology model for the CXL reproduction.
//!
//! The paper's testbed (Fig. 2) is a dual-socket Intel Sapphire Rapids
//! server with 8 DDR5-4800 channels per socket, optional Sub-NUMA
//! Clustering (SNC-4), and two AsteraLabs A1000 CXL 1.1 Type-3 memory
//! expanders (PCIe Gen5 x16, 2 DDR5-4800 channels and 256 GB each)
//! attached to socket 0. This crate describes that hardware — sockets,
//! channels, interconnects, devices — and derives the NUMA node layout
//! the OS-level tiering layer and the performance model consume.
//!
//! # Examples
//!
//! ```
//! use cxl_topology::{SncMode, Topology};
//!
//! let topo = Topology::paper_testbed(SncMode::Snc4);
//! assert_eq!(topo.sockets.len(), 2);
//! // 4 SNC domains per socket + 2 CXL devices on socket 0.
//! assert_eq!(topo.nodes().len(), 10);
//! ```

pub mod builder;
pub mod device;
pub mod fabric;
pub mod health;
pub mod node;
pub mod socket;

pub use builder::TopologyBuilder;
pub use device::{CxlDevice, DdrGeneration, PcieLink};
pub use fabric::{
    validate_hop_ns, Fabric, FabricLink, FabricPath, FabricSwitch, SwitchId, CABLE_NS,
    SPINE_HOP_NS, TOR_HOP_NS,
};
pub use health::DeviceHealth;
pub use node::{MemoryTier, NodeId, NumaNode};
pub use socket::{Socket, SocketId, UpiLink};

use serde::{Deserialize, Serialize};

/// Sub-NUMA Clustering mode for each socket.
///
/// SNC decomposes a socket into semi-independent domains, each with a
/// dedicated slice of the DDR channels (§3.1). The paper enables SNC-4
/// for the raw-performance (§3) and bandwidth-bound (§5) experiments and
/// disables it for the capacity-bound ones (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SncMode {
    /// One NUMA node per socket (SNC disabled).
    Disabled,
    /// Four sub-NUMA domains per socket.
    Snc4,
}

impl SncMode {
    /// Number of sub-NUMA domains a socket is split into.
    pub fn domains(self) -> usize {
        match self {
            SncMode::Disabled => 1,
            SncMode::Snc4 => 4,
        }
    }
}

/// A complete machine description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// CPU sockets in the machine.
    pub sockets: Vec<Socket>,
    /// SNC mode applied to every socket.
    pub snc: SncMode,
    /// UPI links between sockets (empty for single-socket machines).
    pub upi: Vec<UpiLink>,
}

impl Topology {
    /// Builds the paper's CXL experiment server (Fig. 2(a)).
    ///
    /// Two SPR sockets, 8×DDR5-4800 + 512 GB per socket, two A1000
    /// expanders (256 GB each, 2×DDR5-4800 behind a Gen5 x16 link) on
    /// socket 0, and two UPI links between the sockets.
    pub fn paper_testbed(snc: SncMode) -> Self {
        let a1000 = || CxlDevice::a1000();
        let socket0 = Socket::new(SocketId(0), 56, 8, DdrGeneration::Ddr5_4800, 512)
            .with_devices(vec![a1000(), a1000()]);
        let socket1 = Socket::new(SocketId(1), 56, 8, DdrGeneration::Ddr5_4800, 512);
        Self {
            sockets: vec![socket0, socket1],
            snc,
            upi: vec![UpiLink::spr_default(), UpiLink::spr_default()],
        }
    }

    /// Builds the paper's baseline server: identical, but no CXL devices.
    pub fn baseline_server(snc: SncMode) -> Self {
        let mut t = Self::paper_testbed(snc);
        for s in &mut t.sockets {
            s.cxl_devices.clear();
        }
        t
    }

    /// Builds a single SNC-4 domain plus one CXL card, the unit used by
    /// the LLM bandwidth experiments (§5.1): 2 DDR channels + 1 A1000.
    pub fn snc_domain_with_cxl() -> Self {
        let socket0 = Socket::new(SocketId(0), 14, 2, DdrGeneration::Ddr5_4800, 128)
            .with_devices(vec![CxlDevice::a1000()]);
        Self {
            sockets: vec![socket0],
            snc: SncMode::Disabled,
            upi: Vec::new(),
        }
    }

    /// Builds one pooled host for the `cxl-pool` control plane (§7.1's
    /// CXL 2.0 pooling projection): a single socket with local DRAM
    /// plus one switch-attached expander node representing the host's
    /// window onto the shared memory pool.
    ///
    /// `pool_window_gib` sizes the node at the largest lease the pool
    /// manager may ever grant this host; the live lease is enforced by
    /// the tiering layer's capacity override, not by the topology.
    /// `switch_hop_ns` is the round-trip port-to-port latency of the
    /// switch between host and pool expander. Internally the hop is
    /// resolved through a degenerate single-switch [`Fabric`] — the
    /// same path lookup the multi-rack [`Topology::fleet_host`] uses —
    /// which sums to exactly `switch_hop_ns` for one switch, keeping
    /// this constructor bit-identical to the historical scalar model.
    pub fn pooled_host(local_dram_gib: u64, pool_window_gib: u64, switch_hop_ns: f64) -> Self {
        let fabric = Fabric::single_switch(switch_hop_ns);
        let path_ns = fabric
            .path_latency_ns("host", "pool")
            .expect("single-switch fabric connects host to pool");
        let mut dev = CxlDevice::a1000().behind_switch(path_ns);
        dev.name = "pooled A1000 (switch-attached)".to_string();
        dev.capacity_gib = pool_window_gib;
        let socket0 = Socket::new(SocketId(0), 56, 8, DdrGeneration::Ddr5_4800, local_dram_gib)
            .with_devices(vec![dev]);
        Self {
            sockets: vec![socket0],
            snc: SncMode::Disabled,
            upi: Vec::new(),
        }
    }

    /// Builds one fleet host: a single socket with local DRAM plus one
    /// switch-attached window per reachable pool, each priced at its
    /// own fabric path latency. `windows` is `(name, window_gib,
    /// path_ns)` per pool, typically produced by
    /// [`Fabric::path_latency_ns`] from this host's port — the node
    /// order follows the slice, so node 0 is DRAM and node `1 + i` is
    /// window `i`.
    ///
    /// # Panics
    /// Panics if `windows` is empty or any path latency is NaN,
    /// infinite, or negative (via [`CxlDevice::behind_switch`]).
    pub fn fleet_host(local_dram_gib: u64, windows: &[(String, u64, f64)]) -> Self {
        assert!(
            !windows.is_empty(),
            "a fleet host needs at least one pool window"
        );
        let devices = windows
            .iter()
            .map(|(name, gib, path_ns)| {
                let mut dev = CxlDevice::a1000().behind_switch(*path_ns);
                dev.name = format!("pool window ({name})");
                dev.capacity_gib = *gib;
                dev
            })
            .collect();
        let socket0 = Socket::new(SocketId(0), 56, 8, DdrGeneration::Ddr5_4800, local_dram_gib)
            .with_devices(devices);
        Self {
            sockets: vec![socket0],
            snc: SncMode::Disabled,
            upi: Vec::new(),
        }
    }

    /// Derives the NUMA node list the OS would enumerate.
    ///
    /// DRAM nodes come first (socket-major, domain-minor), then CXL
    /// devices as CPU-less nodes in socket order, matching how Linux
    /// exposes CXL Type-3 memory.
    pub fn nodes(&self) -> Vec<NumaNode> {
        let mut nodes = Vec::new();
        let mut id = 0usize;
        for s in &self.sockets {
            let domains = self.snc.domains();
            assert!(
                s.ddr_channels % domains == 0,
                "socket {} channels {} not divisible into {} SNC domains",
                s.id.0,
                s.ddr_channels,
                domains
            );
            let ch = s.ddr_channels / domains;
            let cap = s.dram_gib / domains as u64;
            for d in 0..domains {
                nodes.push(NumaNode {
                    id: NodeId(id),
                    socket: s.id,
                    tier: MemoryTier::LocalDram,
                    ddr_channels: ch,
                    capacity_gib: cap,
                    channel_bw_gbps: s.ddr_gen.channel_bandwidth_gbps(),
                    domain_index: d,
                    device_index: None,
                });
                id += 1;
            }
        }
        for s in &self.sockets {
            for (di, dev) in s.cxl_devices.iter().enumerate() {
                nodes.push(NumaNode {
                    id: NodeId(id),
                    socket: s.id,
                    tier: MemoryTier::CxlExpander,
                    ddr_channels: dev.ddr_channels,
                    // Offline or partially failed devices shrink (or
                    // zero) their node's capacity, but the node itself
                    // stays in the enumeration so NodeIds remain dense
                    // and stable across a fault — exactly like Linux,
                    // where a dead expander's node lingers with no
                    // usable pages.
                    capacity_gib: dev.effective_capacity_gib(),
                    channel_bw_gbps: dev.ddr_gen.channel_bandwidth_gbps(),
                    domain_index: 0,
                    device_index: Some(di),
                });
                id += 1;
            }
        }
        nodes
    }

    /// Renders a `numactl --hardware`-style description of the machine.
    ///
    /// # Examples
    ///
    /// ```
    /// use cxl_topology::{SncMode, Topology};
    /// let text = Topology::paper_testbed(SncMode::Snc4).describe();
    /// assert!(text.contains("node 8: CXL"));
    /// ```
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sockets: {}   SNC domains/socket: {}   UPI links: {}\n",
            self.sockets.len(),
            self.snc.domains(),
            self.upi.len()
        ));
        for n in self.nodes() {
            match n.tier {
                MemoryTier::LocalDram => out.push_str(&format!(
                    "node {}: DRAM  socket {} domain {}  {} GiB  {} ch @ {:.1} GB/s\n",
                    n.id.0,
                    n.socket.0,
                    n.domain_index,
                    n.capacity_gib,
                    n.ddr_channels,
                    n.channel_bw_gbps
                )),
                MemoryTier::CxlExpander => {
                    let dev = &self.sockets[n.socket.0].cxl_devices
                        [n.device_index.expect("CXL node carries device index")];
                    let health = if dev.health.is_healthy() {
                        String::new()
                    } else {
                        format!("  [{}]", dev.health.describe())
                    };
                    out.push_str(&format!(
                        "node {}: CXL   socket {} ({})  {} GiB  link {:.0} GB/s raw x {:.1}% eff{}\n",
                        n.id.0,
                        n.socket.0,
                        dev.name,
                        n.capacity_gib,
                        dev.link.raw_bandwidth_gbps(),
                        100.0 * dev.link_efficiency,
                        health
                    ));
                }
            }
        }
        out
    }

    /// Total DRAM capacity in GiB across all sockets.
    pub fn total_dram_gib(&self) -> u64 {
        self.sockets.iter().map(|s| s.dram_gib).sum()
    }

    /// Total CXL-expander capacity in GiB across all sockets.
    pub fn total_cxl_gib(&self) -> u64 {
        self.sockets
            .iter()
            .flat_map(|s| s.cxl_devices.iter())
            .map(|d| d.capacity_gib)
            .sum()
    }

    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.sockets.iter().map(|s| s.cores).sum()
    }

    /// Resolves a CXL node id to its `(socket index, device index)`
    /// position, or `None` for DRAM/unknown nodes.
    fn cxl_device_pos(&self, node: NodeId) -> Option<(usize, usize)> {
        self.nodes().into_iter().find_map(|n| {
            (n.id == node && n.tier == MemoryTier::CxlExpander).then(|| {
                (
                    n.socket.0,
                    n.device_index.expect("CXL node carries device index"),
                )
            })
        })
    }

    /// The CXL device backing a node, or `None` for DRAM/unknown nodes.
    pub fn cxl_device(&self, node: NodeId) -> Option<&CxlDevice> {
        let (s, d) = self.cxl_device_pos(node)?;
        Some(&self.sockets[s].cxl_devices[d])
    }

    /// Mutable access to the CXL device backing a node — the hook fault
    /// injection uses to flip [`DeviceHealth`] fields.
    pub fn cxl_device_mut(&mut self, node: NodeId) -> Option<&mut CxlDevice> {
        let (s, d) = self.cxl_device_pos(node)?;
        Some(&mut self.sockets[s].cxl_devices[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_host_exposes_switch_attached_window() {
        let t = Topology::pooled_host(256, 512, 70.0);
        let nodes = t.nodes();
        // One DRAM node (SNC disabled) + one pool window node.
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].tier, MemoryTier::LocalDram);
        assert_eq!(nodes[0].capacity_gib, 256);
        assert_eq!(nodes[1].tier, MemoryTier::CxlExpander);
        assert_eq!(nodes[1].capacity_gib, 512);
        let dev = t.cxl_device(nodes[1].id).expect("pool window device");
        assert!((dev.switch_hop_ns - 70.0).abs() < 1e-12);
        // Direct-attached testbed devices carry no switch hop.
        let testbed = Topology::paper_testbed(SncMode::Disabled);
        let direct = testbed.cxl_device(NodeId(2)).expect("A1000");
        assert_eq!(direct.switch_hop_ns, 0.0);
    }

    #[test]
    fn fleet_host_prices_each_window_at_its_path_latency() {
        let fabric = Fabric::rack_spine(2, 4);
        let near = fabric.path_latency_ns("rack0/host0", "rack0/pool").unwrap();
        let far = fabric.path_latency_ns("rack0/host0", "rack1/pool").unwrap();
        let t = Topology::fleet_host(
            192,
            &[
                ("rack0/pool".to_string(), 512, near),
                ("rack1/pool".to_string(), 512, far),
            ],
        );
        let nodes = t.nodes();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].tier, MemoryTier::LocalDram);
        let near_dev = t.cxl_device(nodes[1].id).expect("near window");
        let far_dev = t.cxl_device(nodes[2].id).expect("far window");
        assert_eq!(near_dev.switch_hop_ns, TOR_HOP_NS);
        assert_eq!(
            far_dev.switch_hop_ns,
            2.0 * TOR_HOP_NS + SPINE_HOP_NS + 2.0 * CABLE_NS
        );
        assert!(far_dev.switch_hop_ns > near_dev.switch_hop_ns);
    }

    #[test]
    #[should_panic(expected = "at least one pool window")]
    fn fleet_host_rejects_empty_windows() {
        Topology::fleet_host(192, &[]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn pooled_host_rejects_nan_hop() {
        Topology::pooled_host(256, 512, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn pooled_host_rejects_infinite_hop() {
        Topology::pooled_host(256, 512, f64::INFINITY);
    }

    #[test]
    fn paper_testbed_matches_fig2() {
        let t = Topology::paper_testbed(SncMode::Snc4);
        assert_eq!(t.sockets.len(), 2);
        assert_eq!(t.total_dram_gib(), 1024);
        assert_eq!(t.total_cxl_gib(), 512);
        let nodes = t.nodes();
        // 4 SNC domains x 2 sockets + 2 CXL devices.
        assert_eq!(nodes.len(), 10);
        let dram: Vec<_> = nodes
            .iter()
            .filter(|n| n.tier == MemoryTier::LocalDram)
            .collect();
        assert_eq!(dram.len(), 8);
        for n in &dram {
            assert_eq!(n.ddr_channels, 2);
            assert_eq!(n.capacity_gib, 128);
            // 2 x DDR5-4800 channels = 76.8 GB/s theoretical peak (§3.1).
            assert!((n.peak_bandwidth_gbps() - 76.8).abs() < 1e-9);
        }
        let cxl: Vec<_> = nodes
            .iter()
            .filter(|n| n.tier == MemoryTier::CxlExpander)
            .collect();
        assert_eq!(cxl.len(), 2);
        for n in &cxl {
            assert_eq!(n.socket, SocketId(0));
            assert_eq!(n.capacity_gib, 256);
        }
    }

    #[test]
    fn snc_disabled_gives_one_node_per_socket() {
        let t = Topology::paper_testbed(SncMode::Disabled);
        let nodes = t.nodes();
        assert_eq!(nodes.len(), 4); // 2 DRAM + 2 CXL.
        let n0 = &nodes[0];
        assert_eq!(n0.ddr_channels, 8);
        assert_eq!(n0.capacity_gib, 512);
        assert!((n0.peak_bandwidth_gbps() - 307.2).abs() < 1e-9);
    }

    #[test]
    fn baseline_server_has_no_cxl() {
        let t = Topology::baseline_server(SncMode::Disabled);
        assert_eq!(t.total_cxl_gib(), 0);
        assert!(t.nodes().iter().all(|n| n.tier == MemoryTier::LocalDram));
    }

    #[test]
    fn node_ids_are_dense_and_unique() {
        let t = Topology::paper_testbed(SncMode::Snc4);
        let nodes = t.nodes();
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id.0, i);
        }
    }

    #[test]
    fn describe_lists_every_node() {
        let t = Topology::paper_testbed(SncMode::Snc4);
        let d = t.describe();
        for i in 0..10 {
            assert!(
                d.contains(&format!("node {i}:")),
                "missing node {i} in:\n{d}"
            );
        }
        assert!(d.contains("AsteraLabs A1000"));
        assert!(d.contains("73.6% eff"));
        assert!(d.contains("SNC domains/socket: 4"));
    }

    #[test]
    fn offline_expander_keeps_node_ids_stable() {
        let mut t = Topology::paper_testbed(SncMode::Disabled);
        let before = t.nodes();
        t.cxl_device_mut(NodeId(2))
            .expect("node 2 is the first expander")
            .health
            .online = false;
        let after = t.nodes();
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.id, a.id);
            assert_eq!(b.tier, a.tier);
        }
        assert_eq!(after[2].capacity_gib, 0);
        assert_eq!(after[3].capacity_gib, 256, "other expander unaffected");
        assert!(t.describe().contains("[offline]"));
    }

    #[test]
    fn cxl_device_lookup_rejects_dram_nodes() {
        let mut t = Topology::paper_testbed(SncMode::Disabled);
        assert!(t.cxl_device(NodeId(0)).is_none());
        assert!(t.cxl_device(NodeId(99)).is_none());
        assert!(t.cxl_device_mut(NodeId(1)).is_none());
        assert_eq!(t.cxl_device(NodeId(2)).map(|d| d.capacity_gib), Some(256));
    }

    #[test]
    fn capacity_loss_shrinks_node() {
        let mut t = Topology::paper_testbed(SncMode::Disabled);
        t.cxl_device_mut(NodeId(3))
            .expect("node 3 is the second expander")
            .health
            .capacity_fraction = 0.25;
        assert_eq!(t.nodes()[3].capacity_gib, 64);
    }

    #[test]
    fn llm_domain_unit() {
        let t = Topology::snc_domain_with_cxl();
        let nodes = t.nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].tier, MemoryTier::LocalDram);
        assert!((nodes[0].peak_bandwidth_gbps() - 76.8).abs() < 1e-9);
        assert_eq!(nodes[1].tier, MemoryTier::CxlExpander);
    }
}
