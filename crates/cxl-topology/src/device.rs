//! CXL device and link descriptions.

use crate::health::DeviceHealth;
use serde::{Deserialize, Serialize};

/// DDR memory generation/speed, determining per-channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DdrGeneration {
    /// DDR4-3200: 25.6 GB/s per channel.
    Ddr4_3200,
    /// DDR5-4800: 38.4 GB/s per channel (the paper's testbed, §3.1).
    Ddr5_4800,
    /// DDR5-5600: 44.8 GB/s per channel (A1000 maximum supported speed).
    Ddr5_5600,
    /// DDR5-6400: 51.2 GB/s per channel (Emerald Rapids, Table 2).
    Ddr5_6400,
}

impl DdrGeneration {
    /// Theoretical per-channel bandwidth in GB/s.
    pub fn channel_bandwidth_gbps(self) -> f64 {
        match self {
            DdrGeneration::Ddr4_3200 => 25.6,
            DdrGeneration::Ddr5_4800 => 38.4,
            DdrGeneration::Ddr5_5600 => 44.8,
            DdrGeneration::Ddr5_6400 => 51.2,
        }
    }
}

/// A PCIe link carrying CXL.io/CXL.mem traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieLink {
    /// Per-lane data rate in GT/s (32 for Gen5, 64 for Gen6).
    pub gts_per_lane: f64,
    /// Lane count (x4, x8, x16).
    pub lanes: u32,
}

impl PcieLink {
    /// PCIe Gen5 x16 — the A1000 configuration.
    pub fn gen5_x16() -> Self {
        Self {
            gts_per_lane: 32.0,
            lanes: 16,
        }
    }

    /// PCIe Gen6 x16 — used by the §7 forward-looking ablations.
    pub fn gen6_x16() -> Self {
        Self {
            gts_per_lane: 64.0,
            lanes: 16,
        }
    }

    /// Raw unidirectional bandwidth in GB/s (before protocol overhead).
    ///
    /// PCIe Gen5 uses 128b/130b encoding; the ~1.5 % encoding loss is
    /// folded into the controller efficiency factor in `cxl-perf`, so the
    /// raw figure here is simply `GT/s × lanes / 8`.
    pub fn raw_bandwidth_gbps(&self) -> f64 {
        self.gts_per_lane * self.lanes as f64 / 8.0
    }
}

/// A CXL 1.1 Type-3 memory expansion device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CxlDevice {
    /// Marketing name, for reports.
    pub name: String,
    /// Host-facing PCIe/CXL link.
    pub link: PcieLink,
    /// DDR channels behind the controller.
    pub ddr_channels: usize,
    /// DDR generation of the backing DIMMs.
    pub ddr_gen: DdrGeneration,
    /// Backing capacity in GiB.
    pub capacity_gib: u64,
    /// ASIC controller port-to-DRAM idle latency contribution in ns
    /// (controller pipeline + PCIe PHY round trip), calibrated so a local
    /// CXL access idles at ≈250 ns (§3.2).
    pub controller_latency_ns: f64,
    /// Fraction of raw link bandwidth achievable after CXL/PCIe headers.
    ///
    /// The paper measures 73.6 % for the A1000 ASIC versus ~60 % for
    /// FPGA-based controllers (§3.4).
    pub link_efficiency: f64,
    /// Extra round-trip latency of a CXL 2.0 switch between the host
    /// port and the device, in ns. 0.0 for direct-attached expanders
    /// (the paper's testbed); switch-attached pool devices pay one
    /// port-to-port hop each way (§7.1 projects pooling through a
    /// switch).
    pub switch_hop_ns: f64,
    /// Mutable degradation state; [`DeviceHealth::healthy`] for a
    /// factory-fresh part. The nominal fields above never change — the
    /// `effective_*` accessors fold the health in.
    pub health: DeviceHealth,
}

impl CxlDevice {
    /// A healthy, direct-attached device from its nominal hardware
    /// parameters. All call sites should prefer this over field-by-field
    /// struct literals so new overlay fields (health, switch hop) pick up
    /// their defaults in one place.
    pub fn new(
        name: impl Into<String>,
        link: PcieLink,
        ddr_channels: usize,
        ddr_gen: DdrGeneration,
        capacity_gib: u64,
        controller_latency_ns: f64,
        link_efficiency: f64,
    ) -> Self {
        Self {
            name: name.into(),
            link,
            ddr_channels,
            ddr_gen,
            capacity_gib,
            controller_latency_ns,
            link_efficiency,
            switch_hop_ns: 0.0,
            health: DeviceHealth::healthy(),
        }
    }

    /// Places the device behind a CXL switch, adding `ns` of round-trip
    /// port-to-port latency to every access.
    ///
    /// # Panics
    /// Panics if `ns` is negative or non-finite.
    pub fn behind_switch(mut self, ns: f64) -> Self {
        crate::fabric::validate_hop_ns(ns, "switch hop");
        self.switch_hop_ns = ns;
        self
    }

    /// The AsteraLabs Leo A1000 as configured in the paper: Gen5 x16,
    /// two DDR5-4800 channels populated, 256 GiB.
    pub fn a1000() -> Self {
        // MMEM idles at ~97 ns and CXL at ~250.42 ns, so the
        // controller + PCIe datapath adds ~153 ns.
        Self::new(
            "AsteraLabs A1000",
            PcieLink::gen5_x16(),
            2,
            DdrGeneration::Ddr5_4800,
            256,
            153.4,
            0.736,
        )
    }

    /// An FPGA-based CXL controller, for the §3.4 ASIC-vs-FPGA comparison:
    /// same link, lower efficiency and higher latency.
    pub fn fpga_prototype() -> Self {
        Self::new(
            "FPGA prototype",
            PcieLink::gen5_x16(),
            2,
            DdrGeneration::Ddr5_4800,
            256,
            350.0,
            0.60,
        )
    }

    /// Lane count after any health-driven link downgrade (never above
    /// the nominal width; 0 when the device is offline).
    pub fn effective_lanes(&self) -> u32 {
        if !self.health.online {
            return 0;
        }
        self.health
            .lanes_override
            .map_or(self.link.lanes, |l| l.min(self.link.lanes))
    }

    /// Effective unidirectional link bandwidth in GB/s after headers,
    /// accounting for link downgrades and offline state.
    pub fn effective_link_bandwidth_gbps(&self) -> f64 {
        let raw = self.link.gts_per_lane * self.effective_lanes() as f64 / 8.0;
        raw * self.link_efficiency
    }

    /// Theoretical peak of the backing DDR channels in GB/s.
    pub fn backing_bandwidth_gbps(&self) -> f64 {
        self.ddr_gen.channel_bandwidth_gbps() * self.ddr_channels as f64
    }

    /// Controller latency contribution after any health-driven
    /// inflation (thermal throttling, retry storms).
    pub fn effective_controller_latency_ns(&self) -> f64 {
        self.controller_latency_ns * self.health.latency_factor
    }

    /// Capacity still mapped in, in GiB (0 when offline).
    pub fn effective_capacity_gib(&self) -> u64 {
        if !self.health.online {
            return 0;
        }
        (self.capacity_gib as f64 * self.health.capacity_fraction).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr_bandwidths() {
        assert!((DdrGeneration::Ddr5_4800.channel_bandwidth_gbps() - 38.4).abs() < 1e-12);
        assert!(
            DdrGeneration::Ddr5_6400.channel_bandwidth_gbps()
                > DdrGeneration::Ddr4_3200.channel_bandwidth_gbps()
        );
    }

    #[test]
    fn pcie_gen5_x16_is_64_gbps_raw() {
        let l = PcieLink::gen5_x16();
        assert!((l.raw_bandwidth_gbps() - 64.0).abs() < 1e-12);
        assert!((PcieLink::gen6_x16().raw_bandwidth_gbps() - 128.0).abs() < 1e-12);
    }

    #[test]
    fn a1000_matches_paper() {
        let d = CxlDevice::a1000();
        assert_eq!(d.capacity_gib, 256);
        assert_eq!(d.ddr_channels, 2);
        // 73.6 % of 64 GB/s ≈ 47.1 GB/s per direction (§3.4).
        let eff = d.effective_link_bandwidth_gbps();
        assert!((eff - 47.104).abs() < 1e-3, "eff={eff}");
        assert!((d.backing_bandwidth_gbps() - 76.8).abs() < 1e-9);
    }

    #[test]
    fn link_downgrade_halves_effective_bandwidth() {
        let mut d = CxlDevice::a1000();
        let healthy = d.effective_link_bandwidth_gbps();
        d.health.lanes_override = Some(8);
        assert_eq!(d.effective_lanes(), 8);
        assert!((d.effective_link_bandwidth_gbps() - healthy / 2.0).abs() < 1e-9);
        // Overrides never widen the link past its nominal lanes.
        d.health.lanes_override = Some(32);
        assert_eq!(d.effective_lanes(), 16);
    }

    #[test]
    fn offline_device_has_no_bandwidth_or_capacity() {
        let mut d = CxlDevice::a1000();
        d.health.online = false;
        assert_eq!(d.effective_lanes(), 0);
        assert_eq!(d.effective_link_bandwidth_gbps(), 0.0);
        assert_eq!(d.effective_capacity_gib(), 0);
    }

    #[test]
    fn latency_and_capacity_degradations_scale() {
        let mut d = CxlDevice::a1000();
        d.health.latency_factor = 2.0;
        d.health.capacity_fraction = 0.5;
        assert!((d.effective_controller_latency_ns() - 2.0 * 153.4).abs() < 1e-9);
        assert_eq!(d.effective_capacity_gib(), 128);
        // Nominal fields are untouched.
        assert!((d.controller_latency_ns - 153.4).abs() < 1e-12);
        assert_eq!(d.capacity_gib, 256);
    }

    #[test]
    fn behind_switch_accepts_valid_hops() {
        assert_eq!(CxlDevice::a1000().behind_switch(0.0).switch_hop_ns, 0.0);
        assert_eq!(CxlDevice::a1000().behind_switch(70.0).switch_hop_ns, 70.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn behind_switch_rejects_nan() {
        CxlDevice::a1000().behind_switch(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn behind_switch_rejects_infinite() {
        CxlDevice::a1000().behind_switch(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn behind_switch_rejects_negative() {
        CxlDevice::a1000().behind_switch(-1.0);
    }

    #[test]
    fn constructor_defaults_are_healthy_and_direct_attached() {
        let d = CxlDevice::new(
            "test",
            PcieLink::gen5_x16(),
            2,
            DdrGeneration::Ddr5_4800,
            256,
            153.4,
            0.736,
        );
        assert!(d.health.online);
        assert_eq!(d.switch_hop_ns, 0.0);
        assert_eq!(d, {
            let mut a = CxlDevice::a1000();
            a.name = "test".to_string();
            a
        });
    }

    #[test]
    fn behind_switch_sets_hop_latency_only() {
        let d = CxlDevice::a1000().behind_switch(70.0);
        assert!((d.switch_hop_ns - 70.0).abs() < 1e-12);
        assert!((d.controller_latency_ns - 153.4).abs() < 1e-12);
        assert!(d.health.online);
    }

    #[test]
    #[should_panic(expected = "switch hop latency")]
    fn behind_switch_rejects_negative_latency() {
        let _ = CxlDevice::a1000().behind_switch(-1.0);
    }

    #[test]
    fn fpga_is_strictly_worse() {
        let asic = CxlDevice::a1000();
        let fpga = CxlDevice::fpga_prototype();
        assert!(fpga.effective_link_bandwidth_gbps() < asic.effective_link_bandwidth_gbps());
        assert!(fpga.controller_latency_ns > asic.controller_latency_ns);
    }
}
