//! CPU sockets and inter-socket links.

use serde::{Deserialize, Serialize};

use crate::device::{CxlDevice, DdrGeneration};

/// Identifier of a CPU socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SocketId(pub usize);

/// A UPI (Ultra Path Interconnect) link between two sockets.
///
/// Only its bandwidth is hardware description; the one-way hop latency
/// a remote access pays is a fitted model parameter
/// (`cxl_perf::ModelParams::upi_hop_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpiLink {
    /// Unidirectional bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

impl UpiLink {
    /// SPR UPI 2.0 link at 16 GT/s: ~32 GB/s per direction.
    pub fn spr_default() -> Self {
        Self {
            bandwidth_gbps: 32.0,
        }
    }
}

/// A CPU socket: cores, local DDR, and attached CXL devices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Socket {
    /// Socket identifier.
    pub id: SocketId,
    /// Physical core count.
    pub cores: usize,
    /// Number of local DDR channels.
    pub ddr_channels: usize,
    /// DDR generation of the local DIMMs.
    pub ddr_gen: DdrGeneration,
    /// Local DRAM capacity in GiB.
    pub dram_gib: u64,
    /// CXL Type-3 devices attached to this socket's PCIe root ports.
    pub cxl_devices: Vec<CxlDevice>,
}

impl Socket {
    /// Creates a socket without CXL devices.
    pub fn new(
        id: SocketId,
        cores: usize,
        ddr_channels: usize,
        ddr_gen: DdrGeneration,
        dram_gib: u64,
    ) -> Self {
        Self {
            id,
            cores,
            ddr_channels,
            ddr_gen,
            dram_gib,
            cxl_devices: Vec::new(),
        }
    }

    /// Attaches CXL devices (builder style).
    pub fn with_devices(mut self, devices: Vec<CxlDevice>) -> Self {
        self.cxl_devices = devices;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_socket_has_no_cxl_devices() {
        let s = Socket::new(SocketId(0), 56, 8, DdrGeneration::Ddr5_4800, 512);
        assert!(s.cxl_devices.is_empty());
    }

    #[test]
    fn with_devices_attaches() {
        let s = Socket::new(SocketId(1), 56, 8, DdrGeneration::Ddr5_4800, 512)
            .with_devices(vec![CxlDevice::a1000()]);
        assert_eq!(s.cxl_devices.len(), 1);
        assert_eq!(s.id, SocketId(1));
    }

    #[test]
    fn upi_defaults_are_positive() {
        let u = UpiLink::spr_default();
        assert!(u.bandwidth_gbps > 0.0);
    }
}
