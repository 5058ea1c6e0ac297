//! Multi-switch CXL fabric: switches, cables, and deterministic
//! shortest-path latency lookup.
//!
//! The paper's testbed never crosses a switch, and the pooling
//! projection (§7.1) adds exactly one: a flat `switch_hop_ns` scalar on
//! [`crate::CxlDevice`]. Fleet-scale topologies (racks of hosts behind
//! top-of-rack switches, joined by a spine) need the real thing — a
//! graph of switch nodes with per-hop traversal latencies and
//! inter-switch cable latencies, and a path lookup from a host port to
//! a device port. This module supplies that graph; the resolved path
//! latency is still *carried* by [`crate::CxlDevice::behind_switch`],
//! so the `cxl-perf` latency solve consumes fabric-routed and
//! single-switch devices identically. A single-switch path sums exactly
//! one hop, which is why fabric-routed single-switch topologies are
//! bit-identical to the historical scalar model.
//!
//! Determinism: switches, hosts, and devices live in insertion-ordered
//! vectors/maps, adjacency lists are walked in ascending switch id, and
//! the shortest-path search is a breadth-first search that settles each
//! switch exactly once — ties on hop count resolve to the neighbor
//! reached from the lowest-id predecessor, so the same fabric always
//! yields the same path (and the same floating-point latency sum, in
//! the same order).
//!
//! # Examples
//!
//! ```
//! use cxl_topology::Fabric;
//!
//! // One switch between host and pool device: the historical model.
//! let f = Fabric::single_switch(70.0);
//! let p = f.path("host", "pool").expect("connected");
//! assert_eq!(p.hops(), 1);
//! assert_eq!(p.latency_ns, 70.0); // exactly the scalar, bit-identical
//! ```

use std::collections::BTreeMap;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Top-of-rack switch port-to-port latency of [`Fabric::rack_spine`], ns.
pub const TOR_HOP_NS: f64 = 70.0;

/// Spine switch port-to-port latency of [`Fabric::rack_spine`], ns.
pub const SPINE_HOP_NS: f64 = 90.0;

/// ToR↔spine cable latency of [`Fabric::rack_spine`], ns.
pub const CABLE_NS: f64 = 20.0;

/// Index of a switch inside a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SwitchId(pub usize);

/// Validates a per-hop (or cable) latency: finite and non-negative.
///
/// # Panics
/// Panics otherwise — a NaN hop would silently poison every downstream
/// latency solve, so it is rejected at construction time.
pub fn validate_hop_ns(ns: f64, what: &str) {
    assert!(
        ns.is_finite() && ns >= 0.0,
        "{what} latency must be finite and non-negative, got {ns}"
    );
}

/// One CXL switch: a named node with a port-to-port traversal latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSwitch {
    /// Name, for reports ("rack0/tor", "spine").
    pub name: String,
    /// Round-trip port-to-port latency of traversing this switch, ns.
    pub hop_ns: f64,
}

/// An inter-switch cable with its own round-trip latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricLink {
    /// One endpoint.
    pub a: SwitchId,
    /// The other endpoint.
    pub b: SwitchId,
    /// Round-trip cable/retimer latency, ns.
    pub cable_ns: f64,
}

/// A resolved host→device route through the fabric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FabricPath {
    /// Switches traversed, host side first.
    pub switches: Vec<SwitchId>,
    /// Total round-trip latency: Σ switch hops + Σ cable latencies, ns.
    pub latency_ns: f64,
}

impl FabricPath {
    /// Number of switch traversals on the path.
    pub fn hops(&self) -> usize {
        self.switches.len()
    }
}

/// A multi-switch CXL fabric connecting host ports to device ports.
///
/// Hosts and devices attach to exactly one switch each (their edge
/// links are folded into the endpoint latencies, matching the
/// single-switch model where `switch_hop_ns` was the *whole* added
/// cost). Inter-switch cables carry their own latency.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    switches: Vec<FabricSwitch>,
    links: Vec<FabricLink>,
    hosts: BTreeMap<String, SwitchId>,
    devices: BTreeMap<String, SwitchId>,
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a switch with the given port-to-port traversal latency.
    ///
    /// # Panics
    /// Panics if `hop_ns` is NaN, infinite, or negative.
    pub fn add_switch(&mut self, name: impl Into<String>, hop_ns: f64) -> SwitchId {
        let name = name.into();
        validate_hop_ns(hop_ns, &format!("switch '{name}' hop"));
        self.switches.push(FabricSwitch { name, hop_ns });
        SwitchId(self.switches.len() - 1)
    }

    /// Connects two switches with a cable of the given latency.
    ///
    /// # Panics
    /// Panics on unknown endpoints, a self-link, or a NaN / infinite /
    /// negative cable latency.
    pub fn link_switches(&mut self, a: SwitchId, b: SwitchId, cable_ns: f64) {
        assert!(a.0 < self.switches.len(), "unknown switch {a:?}");
        assert!(b.0 < self.switches.len(), "unknown switch {b:?}");
        assert_ne!(a, b, "a switch cannot be cabled to itself");
        validate_hop_ns(cable_ns, "inter-switch cable");
        self.links.push(FabricLink { a, b, cable_ns });
    }

    /// Neighbor lists rebuilt from the cable set, sorted ascending by
    /// switch id (then cable latency) so BFS expansion order never
    /// depends on link insertion order. Path lookup runs once per
    /// topology construction, so recomputing keeps the struct free of
    /// derived state that could desync under serde round-trips.
    fn adjacency(&self) -> BTreeMap<usize, Vec<(usize, f64)>> {
        let mut adj: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
        for l in &self.links {
            adj.entry(l.a.0).or_default().push((l.b.0, l.cable_ns));
            adj.entry(l.b.0).or_default().push((l.a.0, l.cable_ns));
        }
        for neighbors in adj.values_mut() {
            neighbors.sort_by(|x, y| {
                x.0.cmp(&y.0)
                    .then(x.1.partial_cmp(&y.1).expect("finite cable"))
            });
        }
        adj
    }

    /// Attaches a host port to a switch.
    ///
    /// # Panics
    /// Panics on an unknown switch or a duplicate host name.
    pub fn attach_host(&mut self, name: impl Into<String>, sw: SwitchId) {
        let name = name.into();
        assert!(sw.0 < self.switches.len(), "unknown switch {sw:?}");
        let prev = self.hosts.insert(name.clone(), sw);
        assert!(prev.is_none(), "host '{name}' attached twice");
    }

    /// Attaches a device port to a switch.
    ///
    /// # Panics
    /// Panics on an unknown switch or a duplicate device name.
    pub fn attach_device(&mut self, name: impl Into<String>, sw: SwitchId) {
        let name = name.into();
        assert!(sw.0 < self.switches.len(), "unknown switch {sw:?}");
        let prev = self.devices.insert(name.clone(), sw);
        assert!(prev.is_none(), "device '{name}' attached twice");
    }

    /// The switches, in id order.
    pub fn switches(&self) -> &[FabricSwitch] {
        &self.switches
    }

    /// The inter-switch cables, in insertion order.
    pub fn links(&self) -> &[FabricLink] {
        &self.links
    }

    /// Deterministic shortest path (fewest switch traversals; hop-count
    /// ties resolve to the lowest-id predecessor chain) from a host
    /// port to a device port, or `None` when either name is unknown or
    /// the switches are disconnected.
    ///
    /// The returned latency is `Σ hop_ns` over every switch on the path
    /// plus `Σ cable_ns` over every inter-switch cable crossed, summed
    /// host-side first so equal fabrics produce bit-identical floats.
    pub fn path(&self, host: &str, device: &str) -> Option<FabricPath> {
        let &start = self.hosts.get(host)?;
        let &goal = self.devices.get(device)?;
        if start == goal {
            return Some(FabricPath {
                latency_ns: self.switches[start.0].hop_ns,
                switches: vec![start],
            });
        }
        // BFS settles each switch once; neighbors expand in ascending
        // id, so the predecessor tree (and the tie-break) is unique.
        let adjacency = self.adjacency();
        let mut prev: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
        let mut queue = VecDeque::from([start.0]);
        let mut seen = vec![false; self.switches.len()];
        seen[start.0] = true;
        'search: while let Some(u) = queue.pop_front() {
            if let Some(neighbors) = adjacency.get(&u) {
                for &(v, cable) in neighbors {
                    if !seen[v] {
                        seen[v] = true;
                        prev.insert(v, (u, cable));
                        if v == goal.0 {
                            break 'search;
                        }
                        queue.push_back(v);
                    }
                }
            }
        }
        if !seen[goal.0] {
            return None;
        }
        let mut switches = vec![goal];
        let mut cables = Vec::new();
        let mut cur = goal.0;
        while cur != start.0 {
            let (p, cable) = prev[&cur];
            cables.push(cable);
            switches.push(SwitchId(p));
            cur = p;
        }
        switches.reverse();
        cables.reverse();
        let mut latency_ns = 0.0;
        for (i, sw) in switches.iter().enumerate() {
            latency_ns += self.switches[sw.0].hop_ns;
            if i < cables.len() {
                latency_ns += cables[i];
            }
        }
        Some(FabricPath {
            switches,
            latency_ns,
        })
    }

    /// Path latency only, ns.
    pub fn path_latency_ns(&self, host: &str, device: &str) -> Option<f64> {
        self.path(host, device).map(|p| p.latency_ns)
    }

    /// The historical single-switch pooling fabric: one switch with
    /// `hop_ns` port-to-port, host `"host"` and device `"pool"` on it.
    /// `path("host", "pool")` resolves to exactly `hop_ns` — the scalar
    /// model as a degenerate fabric.
    pub fn single_switch(hop_ns: f64) -> Self {
        let mut f = Self::new();
        let sw = f.add_switch("switch", hop_ns);
        f.attach_host("host", sw);
        f.attach_device("pool", sw);
        f
    }

    /// A rack/spine fleet fabric: `racks` top-of-rack switches, each
    /// with `hosts_per_rack` host ports (`"rack{r}/host{h}"`) and one
    /// pooled device port (`"rack{r}/pool"`), all cabled to one spine
    /// switch. Intra-rack paths traverse only the ToR (one hop,
    /// [`TOR_HOP_NS`]); cross-rack paths pay
    /// `2·TOR_HOP_NS + SPINE_HOP_NS + 2·CABLE_NS`.
    ///
    /// # Panics
    /// Panics on zero racks/hosts.
    pub fn rack_spine(racks: usize, hosts_per_rack: usize) -> Self {
        assert!(racks > 0 && hosts_per_rack > 0, "empty fleet fabric");
        let mut f = Self::new();
        let spine = f.add_switch("spine", SPINE_HOP_NS);
        for r in 0..racks {
            let tor = f.add_switch(format!("rack{r}/tor"), TOR_HOP_NS);
            f.link_switches(tor, spine, CABLE_NS);
            f.attach_device(format!("rack{r}/pool"), tor);
            for h in 0..hosts_per_rack {
                f.attach_host(format!("rack{r}/host{h}"), tor);
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_path_is_exactly_the_scalar() {
        let f = Fabric::single_switch(70.0);
        let p = f.path("host", "pool").expect("connected");
        assert_eq!(p.hops(), 1);
        // Bit-identical, not approximately equal: this is what keeps
        // the historical goldens valid under the fabric model.
        assert_eq!(p.latency_ns, 70.0);
        assert_eq!(f.path_latency_ns("host", "pool"), Some(70.0));
    }

    #[test]
    fn rack_spine_cross_rack_pays_strictly_more() {
        let f = Fabric::rack_spine(2, 4);
        let intra = f.path("rack0/host0", "rack0/pool").expect("intra");
        let cross = f.path("rack0/host0", "rack1/pool").expect("cross");
        assert_eq!(intra.hops(), 1);
        assert_eq!(intra.latency_ns, TOR_HOP_NS);
        assert_eq!(cross.hops(), 3);
        assert_eq!(
            cross.latency_ns,
            TOR_HOP_NS + CABLE_NS + SPINE_HOP_NS + CABLE_NS + TOR_HOP_NS
        );
        assert!(cross.latency_ns > intra.latency_ns);
        // Symmetric for the far rack's hosts.
        let far = f.path("rack1/host3", "rack0/pool").expect("far");
        assert_eq!(far.latency_ns, cross.latency_ns);
    }

    #[test]
    fn bfs_prefers_fewest_switches_with_deterministic_tiebreak() {
        // Diamond: s0 -- {s1, s2} -- s3, plus a long direct cable
        // s0 -- s3. Direct edge wins on hop count; between the two
        // 2-cable routes the lower-id predecessor (s1) would be chosen.
        let mut f = Fabric::new();
        let s0 = f.add_switch("s0", 10.0);
        let s1 = f.add_switch("s1", 10.0);
        let s2 = f.add_switch("s2", 10.0);
        let s3 = f.add_switch("s3", 10.0);
        f.link_switches(s0, s1, 5.0);
        f.link_switches(s0, s2, 1.0);
        f.link_switches(s1, s3, 5.0);
        f.link_switches(s2, s3, 1.0);
        f.attach_host("h", s0);
        f.attach_device("d", s3);
        let p = f.path("h", "d").expect("connected");
        assert_eq!(p.hops(), 3, "fewest switches wins");
        assert_eq!(p.switches, vec![s0, s1, s3], "lowest-id tie-break");
        assert_eq!(p.latency_ns, 10.0 + 5.0 + 10.0 + 5.0 + 10.0);
        // Now add the direct cable: one fewer switch, so it wins even
        // though its cable is slow.
        f.link_switches(s0, s3, 500.0);
        let p = f.path("h", "d").expect("connected");
        assert_eq!(p.hops(), 2);
        assert_eq!(p.switches, vec![s0, s3]);
        assert_eq!(p.latency_ns, 10.0 + 500.0 + 10.0);
    }

    #[test]
    fn unknown_or_disconnected_endpoints_yield_none() {
        let mut f = Fabric::new();
        let s0 = f.add_switch("s0", 10.0);
        let s1 = f.add_switch("s1", 10.0); // never cabled to s0
        f.attach_host("h", s0);
        f.attach_device("d", s1);
        assert!(f.path("h", "d").is_none(), "disconnected");
        assert!(f.path("nope", "d").is_none(), "unknown host");
        assert!(f.path("h", "nope").is_none(), "unknown device");
    }

    #[test]
    fn path_order_is_insertion_independent() {
        // The same graph built in two different orders resolves the
        // same path with the same latency bits.
        let build = |flip: bool| {
            let mut f = Fabric::new();
            let s0 = f.add_switch("s0", 11.5);
            let s1 = f.add_switch("s1", 13.25);
            let s2 = f.add_switch("s2", 17.75);
            if flip {
                f.link_switches(s1, s2, 3.5);
                f.link_switches(s0, s1, 2.25);
            } else {
                f.link_switches(s0, s1, 2.25);
                f.link_switches(s1, s2, 3.5);
            }
            f.attach_host("h", s0);
            f.attach_device("d", s2);
            f.path("h", "d").expect("connected")
        };
        let a = build(false);
        let b = build(true);
        assert_eq!(a, b);
        assert_eq!(a.latency_ns.to_bits(), b.latency_ns.to_bits());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_switch_hop_is_rejected() {
        Fabric::new().add_switch("bad", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_cable_is_rejected() {
        let mut f = Fabric::new();
        let a = f.add_switch("a", 1.0);
        let b = f.add_switch("b", 1.0);
        f.link_switches(a, b, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "cabled to itself")]
    fn self_link_is_rejected() {
        let mut f = Fabric::new();
        let a = f.add_switch("a", 1.0);
        f.link_switches(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn duplicate_host_is_rejected() {
        let mut f = Fabric::new();
        let a = f.add_switch("a", 1.0);
        f.attach_host("h", a);
        f.attach_host("h", a);
    }
}
