//! Fluent topology construction with validation.
//!
//! The presets on [`Topology`] cover the paper's platforms; downstream
//! users modelling their own servers get a checked builder:
//!
//! ```
//! use cxl_topology::builder::TopologyBuilder;
//! use cxl_topology::{CxlDevice, DdrGeneration, SncMode};
//!
//! let topo = TopologyBuilder::new()
//!     .snc(SncMode::Snc4)
//!     .socket(48, 8, DdrGeneration::Ddr5_5600, 768)
//!     .with_cxl(CxlDevice::a1000())
//!     .socket(48, 8, DdrGeneration::Ddr5_5600, 768)
//!     .upi_links(3, 24.0)
//!     .build();
//! assert_eq!(topo.sockets.len(), 2);
//! assert_eq!(topo.total_cxl_gib(), 256);
//! ```

use crate::device::{CxlDevice, DdrGeneration};
use crate::socket::{Socket, SocketId, UpiLink};
use crate::{SncMode, Topology};

/// A checked builder for [`Topology`].
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    sockets: Vec<Socket>,
    snc: Option<SncMode>,
    upi: Vec<UpiLink>,
}

impl TopologyBuilder {
    /// Starts an empty builder (SNC disabled, no links).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the SNC mode for all sockets.
    pub fn snc(mut self, mode: SncMode) -> Self {
        self.snc = Some(mode);
        self
    }

    /// Adds a socket.
    pub fn socket(
        mut self,
        cores: usize,
        ddr_channels: usize,
        ddr_gen: DdrGeneration,
        dram_gib: u64,
    ) -> Self {
        let id = SocketId(self.sockets.len());
        self.sockets
            .push(Socket::new(id, cores, ddr_channels, ddr_gen, dram_gib));
        self
    }

    /// Attaches a CXL device to the most recently added socket.
    ///
    /// # Panics
    ///
    /// Panics if no socket has been added yet.
    pub fn with_cxl(mut self, device: CxlDevice) -> Self {
        self.sockets
            .last_mut()
            .expect("add a socket before attaching CXL devices")
            .cxl_devices
            .push(device);
        self
    }

    /// Adds `n` identical UPI links between the sockets.
    pub fn upi_links(mut self, n: usize, bandwidth_gbps: f64) -> Self {
        for _ in 0..n {
            self.upi.push(UpiLink { bandwidth_gbps });
        }
        self
    }

    /// Validates and builds the topology.
    ///
    /// # Panics
    ///
    /// Panics if:
    /// * no sockets were added,
    /// * any socket's channel count is not divisible by the SNC domain
    ///   count,
    /// * a multi-socket topology has no UPI links,
    /// * any capacity or bandwidth parameter is zero.
    pub fn build(self) -> Topology {
        assert!(
            !self.sockets.is_empty(),
            "topology needs at least one socket"
        );
        let snc = self.snc.unwrap_or(SncMode::Disabled);
        for s in &self.sockets {
            assert!(s.cores > 0, "socket {} has no cores", s.id.0);
            assert!(s.ddr_channels > 0, "socket {} has no DDR channels", s.id.0);
            assert!(s.dram_gib > 0, "socket {} has no DRAM", s.id.0);
            assert!(
                s.ddr_channels % snc.domains() == 0,
                "socket {}: {} channels not divisible into {} SNC domains",
                s.id.0,
                s.ddr_channels,
                snc.domains()
            );
            for d in &s.cxl_devices {
                assert!(d.capacity_gib > 0, "CXL device {} has no capacity", d.name);
                assert!(
                    d.link_efficiency > 0.0 && d.link_efficiency <= 1.0,
                    "CXL device {} efficiency out of range",
                    d.name
                );
            }
        }
        if self.sockets.len() > 1 {
            assert!(
                !self.upi.is_empty(),
                "multi-socket topology needs UPI links"
            );
        }
        for u in &self.upi {
            assert!(u.bandwidth_gbps > 0.0, "UPI link with zero bandwidth");
        }
        Topology {
            sockets: self.sockets,
            snc,
            upi: self.upi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_custom_platform() {
        let t = TopologyBuilder::new()
            .snc(SncMode::Snc4)
            .socket(64, 12, DdrGeneration::Ddr5_6400, 1024)
            .with_cxl(CxlDevice::a1000())
            .with_cxl(CxlDevice::a1000())
            .socket(64, 12, DdrGeneration::Ddr5_6400, 1024)
            .upi_links(4, 32.0)
            .build();
        assert_eq!(t.sockets.len(), 2);
        assert_eq!(t.total_cxl_gib(), 512);
        assert_eq!(t.upi.len(), 4);
        // 4 SNC domains x 2 sockets + 2 CXL nodes.
        assert_eq!(t.nodes().len(), 10);
    }

    #[test]
    fn single_socket_needs_no_upi() {
        let t = TopologyBuilder::new()
            .socket(8, 2, DdrGeneration::Ddr4_3200, 64)
            .build();
        assert_eq!(t.nodes().len(), 1);
    }

    #[test]
    #[should_panic(expected = "needs at least one socket")]
    fn empty_builder_rejected() {
        TopologyBuilder::new().build();
    }

    #[test]
    #[should_panic(expected = "add a socket before attaching")]
    fn cxl_before_socket_rejected() {
        let _ = TopologyBuilder::new().with_cxl(CxlDevice::a1000());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn snc_channel_mismatch_rejected() {
        TopologyBuilder::new()
            .snc(SncMode::Snc4)
            .socket(8, 6, DdrGeneration::Ddr5_4800, 64)
            .build();
    }

    #[test]
    #[should_panic(expected = "needs UPI links")]
    fn multi_socket_without_upi_rejected() {
        TopologyBuilder::new()
            .socket(8, 2, DdrGeneration::Ddr5_4800, 64)
            .socket(8, 2, DdrGeneration::Ddr5_4800, 64)
            .build();
    }
}
