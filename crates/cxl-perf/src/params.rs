//! The model's free parameters as a first-class, serializable value.
//!
//! Historically every calibrated number lived as a `pub const` in
//! [`crate::calib`] and was read inline by the resource-graph builder.
//! That makes the calibration a compile-time property: nothing can fit,
//! perturb, or compare parameter sets at runtime. [`ModelParams`] lifts
//! the *fittable* surface — idle latencies, efficiencies, knee positions,
//! queueing scales, UPI coherence/credit costs, the RSF cap, and two
//! multiplicative device-cost knobs — into a plain struct the `cxl-calib`
//! fitter can sweep, serialize, and diff against the shipped defaults.
//!
//! [`ModelParams::default`] is **bit-identical** to the historical
//! constants: every field copies the corresponding [`crate::calib`]
//! value (or an exact-identity scale of `1.0`), and
//! [`crate::MemSystem::with_params`] performs the same arithmetic the
//! constant-reading builder did, so a system built from the defaults
//! produces byte-for-byte the sim-metrics goldens pinned in CI.
//!
//! What stays pinned (deliberately *not* here): the max-utilization
//! clamp of the queue curves ([`crate::calib::MAX_UTILIZATION`], a
//! numerical guard rather than a physical quantity), the SSD latency
//! constants (no loaded-latency measurement set covers them), and link
//! widths/speeds (those belong to the [`cxl_topology::CxlDevice`]
//! hardware description, not the model).

use serde::{Deserialize, Serialize};

use crate::calib;

macro_rules! named_fields {
    ($($name:ident),* $(,)?) => {
        /// Names of every fittable field, in declaration order. The
        /// `cxl-calib` parameter spaces refer to fields by these names.
        pub const FIELDS: &'static [&'static str] = &[$(stringify!($name)),*];

        /// Reads a field by name (`None` for unknown names).
        pub fn get(&self, field: &str) -> Option<f64> {
            match field {
                $(stringify!($name) => Some(self.$name),)*
                _ => None,
            }
        }

        /// Writes a field by name; returns `false` for unknown names.
        pub fn set(&mut self, field: &str, value: f64) -> bool {
            match field {
                $(stringify!($name) => {
                    self.$name = value;
                    true
                })*
                _ => false,
            }
        }
    };
}

/// Every free parameter of the analytic memory model. See the module
/// docs for the fitted-vs-pinned split; see [`crate::calib`] for the §3
/// provenance of each default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Idle load-to-use latency of socket-local DDR reads, ns.
    pub mmem_read_idle_ns: f64,
    /// Idle latency of a local non-temporal (posted) write, ns.
    pub nt_write_idle_local_ns: f64,
    /// Idle latency of a remote-socket NT write, ns.
    pub nt_write_idle_remote_ns: f64,
    /// One-way UPI hop latency added to remote reads, ns.
    pub upi_hop_ns: f64,
    /// Fraction of theoretical DDR bandwidth achievable for pure reads.
    pub ddr_read_efficiency: f64,
    /// Fraction achievable for pure NT writes.
    pub ddr_write_efficiency: f64,
    /// Utilization knee for a read-only stream on local DDR.
    pub ddr_knee_read: f64,
    /// Knee for a write-only stream (left of the read knee, §3.3).
    pub ddr_knee_write: f64,
    /// Queueing-delay scale for DDR memory controllers, ns.
    pub ddr_queue_scale_ns: f64,
    /// Gentle pre-knee latency growth, ns at full utilization.
    pub ddr_linear_ns: f64,
    /// Extra UPI bytes per payload byte for allocating remote writes.
    pub upi_coherence_overhead: f64,
    /// Extra UPI bytes per NT-written byte (invalidation-only traffic).
    pub upi_nt_coherence_overhead: f64,
    /// Posted-write credit limit across UPI, GB/s of write payload.
    pub upi_write_credit_gbps: f64,
    /// Utilization knee for UPI resources.
    pub upi_knee: f64,
    /// Queueing scale for UPI, ns.
    pub upi_queue_scale_ns: f64,
    /// Idle latency of an NT write to local CXL, ns.
    pub cxl_nt_write_idle_ns: f64,
    /// Extra idle latency of a remote CXL read beyond the local one, ns
    /// (the §3.2 485 − 250.42 gap).
    pub cxl_remote_extra_ns: f64,
    /// Scheduling efficiency of the CXL controller's internal DDR
    /// scheduler relative to the host IMC.
    pub cxl_backing_efficiency: f64,
    /// Cap on CXL write payload from CXL.mem message/credit overheads,
    /// as a fraction of the effective link bandwidth.
    pub cxl_write_msg_fraction: f64,
    /// Knee for the PCIe/CXL link direction resources.
    pub cxl_link_knee: f64,
    /// Queueing scale for CXL link and controller, ns.
    pub cxl_queue_scale_ns: f64,
    /// Remote Snoop Filter ceiling for cross-socket CXL traffic, GB/s.
    /// `f64::INFINITY` models the fixed next-generation CPUs of §3.4.
    pub rsf_cap_gbps: f64,
    /// Knee for the RSF resource.
    pub rsf_knee: f64,
    /// Queueing scale for the RSF, ns.
    pub rsf_queue_scale_ns: f64,
    /// Multiplier on every device's solved controller latency. `1.0`
    /// uses the [`cxl_topology::CxlDevice`] figure verbatim; fitting it
    /// against a measurement set calibrates an unknown ASIC without
    /// editing the hardware description.
    pub controller_latency_scale: f64,
    /// Multiplier on every device's switch-hop round trip (same role as
    /// `controller_latency_scale`, for CXL 2.0 switch ports).
    pub switch_hop_scale: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        Self {
            mmem_read_idle_ns: calib::MMEM_READ_IDLE_NS,
            nt_write_idle_local_ns: calib::NT_WRITE_IDLE_LOCAL_NS,
            nt_write_idle_remote_ns: calib::NT_WRITE_IDLE_REMOTE_NS,
            upi_hop_ns: calib::UPI_HOP_NS,
            ddr_read_efficiency: calib::DDR_READ_EFFICIENCY,
            ddr_write_efficiency: calib::DDR_WRITE_EFFICIENCY,
            ddr_knee_read: calib::DDR_KNEE_READ,
            ddr_knee_write: calib::DDR_KNEE_WRITE,
            ddr_queue_scale_ns: calib::DDR_QUEUE_SCALE_NS,
            ddr_linear_ns: calib::DDR_LINEAR_NS,
            upi_coherence_overhead: calib::UPI_COHERENCE_OVERHEAD,
            upi_nt_coherence_overhead: calib::UPI_NT_COHERENCE_OVERHEAD,
            upi_write_credit_gbps: calib::UPI_WRITE_CREDIT_GBPS,
            upi_knee: calib::UPI_KNEE,
            upi_queue_scale_ns: calib::UPI_QUEUE_SCALE_NS,
            cxl_nt_write_idle_ns: calib::CXL_NT_WRITE_IDLE_NS,
            // The same subtraction the resource-graph builder performed
            // historically, so the default is bit-identical to it.
            cxl_remote_extra_ns: calib::CXL_REMOTE_READ_IDLE_NS - calib::CXL_READ_IDLE_NS,
            cxl_backing_efficiency: calib::CXL_BACKING_EFFICIENCY,
            cxl_write_msg_fraction: calib::CXL_WRITE_MSG_FRACTION,
            cxl_link_knee: calib::CXL_LINK_KNEE,
            cxl_queue_scale_ns: calib::CXL_QUEUE_SCALE_NS,
            rsf_cap_gbps: calib::RSF_CAP_GBPS,
            rsf_knee: calib::RSF_KNEE,
            rsf_queue_scale_ns: calib::RSF_QUEUE_SCALE_NS,
            controller_latency_scale: 1.0,
            switch_hop_scale: 1.0,
        }
    }
}

impl ModelParams {
    named_fields!(
        mmem_read_idle_ns,
        nt_write_idle_local_ns,
        nt_write_idle_remote_ns,
        upi_hop_ns,
        ddr_read_efficiency,
        ddr_write_efficiency,
        ddr_knee_read,
        ddr_knee_write,
        ddr_queue_scale_ns,
        ddr_linear_ns,
        upi_coherence_overhead,
        upi_nt_coherence_overhead,
        upi_write_credit_gbps,
        upi_knee,
        upi_queue_scale_ns,
        cxl_nt_write_idle_ns,
        cxl_remote_extra_ns,
        cxl_backing_efficiency,
        cxl_write_msg_fraction,
        cxl_link_knee,
        cxl_queue_scale_ns,
        rsf_cap_gbps,
        rsf_knee,
        rsf_queue_scale_ns,
        controller_latency_scale,
        switch_hop_scale,
    );

    /// Read-equivalent cost of one written byte on a DDR channel group
    /// (the §3.2 67 → 54.6 GB/s read→write peak drop).
    pub fn write_cost_factor(&self) -> f64 {
        self.ddr_read_efficiency / self.ddr_write_efficiency
    }

    /// A projected next-generation CPU with the Remote Snoop Filter
    /// bottleneck removed (§3.4: remote CXL should then approximate
    /// remote DDR bandwidth).
    pub fn rsf_fixed() -> Self {
        Self {
            rsf_cap_gbps: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Moves the DDR knee, preserving the read/write gap (ablation:
    /// knee-position sensitivity).
    pub fn with_knee(mut self, knee_read: f64) -> Self {
        let gap = self.ddr_knee_read - self.ddr_knee_write;
        self.ddr_knee_read = knee_read;
        self.ddr_knee_write = (knee_read - gap).max(0.05);
        self
    }

    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is out of range.
    pub fn validate(&self) {
        let knee = |v: f64, what: &str| {
            assert!((0.05..1.0).contains(&v), "{what} knee out of range: {v}");
        };
        let nonneg = |v: f64, what: &str| {
            assert!(v >= 0.0 && v.is_finite(), "{what} must be finite >= 0: {v}");
        };
        let frac = |v: f64, what: &str| {
            assert!(v > 0.0 && v <= 1.0, "{what} must be in (0, 1]: {v}");
        };
        nonneg(self.mmem_read_idle_ns, "MMEM idle");
        nonneg(self.nt_write_idle_local_ns, "local NT-write idle");
        nonneg(self.nt_write_idle_remote_ns, "remote NT-write idle");
        nonneg(self.upi_hop_ns, "UPI hop");
        frac(self.ddr_read_efficiency, "DDR read efficiency");
        frac(self.ddr_write_efficiency, "DDR write efficiency");
        knee(self.ddr_knee_read, "DDR read");
        knee(self.ddr_knee_write, "DDR write");
        assert!(
            self.ddr_knee_write <= self.ddr_knee_read,
            "write knee must not exceed read knee"
        );
        nonneg(self.ddr_queue_scale_ns, "DDR queue scale");
        nonneg(self.ddr_linear_ns, "DDR linear term");
        nonneg(self.upi_coherence_overhead, "UPI coherence overhead");
        nonneg(self.upi_nt_coherence_overhead, "UPI NT coherence overhead");
        assert!(
            self.upi_write_credit_gbps > 0.0,
            "UPI write credit must be positive"
        );
        knee(self.upi_knee, "UPI");
        nonneg(self.upi_queue_scale_ns, "UPI queue scale");
        nonneg(self.cxl_nt_write_idle_ns, "CXL NT-write idle");
        nonneg(self.cxl_remote_extra_ns, "remote-CXL extra idle");
        frac(self.cxl_backing_efficiency, "CXL backing efficiency");
        frac(self.cxl_write_msg_fraction, "CXL write-message fraction");
        knee(self.cxl_link_knee, "CXL link");
        nonneg(self.cxl_queue_scale_ns, "CXL queue scale");
        // Infinity is a legal RSF cap (the §3.4 fixed-CPU projection).
        assert!(self.rsf_cap_gbps > 0.0, "RSF cap must be positive");
        knee(self.rsf_knee, "RSF");
        nonneg(self.rsf_queue_scale_ns, "RSF queue scale");
        assert!(
            self.controller_latency_scale > 0.0 && self.controller_latency_scale.is_finite(),
            "controller latency scale must be finite > 0"
        );
        assert!(
            self.switch_hop_scale > 0.0 && self.switch_hop_scale.is_finite(),
            "switch hop scale must be finite > 0"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_calibration_constants_exactly() {
        let p = ModelParams::default();
        assert_eq!(p.mmem_read_idle_ns, calib::MMEM_READ_IDLE_NS);
        assert_eq!(p.ddr_read_efficiency, calib::DDR_READ_EFFICIENCY);
        assert_eq!(p.rsf_cap_gbps, calib::RSF_CAP_GBPS);
        assert_eq!(
            p.cxl_remote_extra_ns,
            calib::CXL_REMOTE_READ_IDLE_NS - calib::CXL_READ_IDLE_NS
        );
        assert_eq!(p.controller_latency_scale, 1.0);
        assert_eq!(p.switch_hop_scale, 1.0);
        p.validate();
    }

    #[test]
    fn field_names_cover_every_serde_field() {
        // The named-field surface the fitter sweeps must not silently
        // fall out of sync with the struct definition.
        let json = serde_json::to_string(&ModelParams::default()).unwrap();
        let map: std::collections::BTreeMap<String, f64> = serde_json::from_str(&json).unwrap();
        let mut serde_fields: Vec<&str> = map.keys().map(String::as_str).collect();
        let mut named: Vec<&str> = ModelParams::FIELDS.to_vec();
        serde_fields.sort_unstable();
        named.sort_unstable();
        assert_eq!(serde_fields, named);
    }

    #[test]
    fn get_set_round_trip() {
        let mut p = ModelParams::default();
        for &f in ModelParams::FIELDS {
            let v = p.get(f).expect("listed field readable");
            assert!(p.set(f, v + 0.125));
            assert_eq!(p.get(f), Some(v + 0.125));
            assert!(p.set(f, v));
        }
        assert_eq!(p, ModelParams::default());
        assert_eq!(p.get("no_such_field"), None);
        assert!(!p.set("no_such_field", 1.0));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let p = ModelParams {
            ddr_knee_read: 0.7612345678901234,
            ..ModelParams::default()
        };
        let back: ModelParams = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn rsf_fixed_is_unbounded() {
        let p = ModelParams::rsf_fixed();
        assert!(p.rsf_cap_gbps.is_infinite());
        p.validate();
    }

    #[test]
    fn with_knee_preserves_gap() {
        let p = ModelParams::default().with_knee(0.6);
        assert!((p.ddr_knee_read - 0.6).abs() < 1e-12);
        assert!(
            (p.ddr_knee_read - p.ddr_knee_write - (calib::DDR_KNEE_READ - calib::DDR_KNEE_WRITE))
                .abs()
                < 1e-12
        );
        p.validate();
    }

    #[test]
    #[should_panic(expected = "DDR read knee out of range")]
    fn bad_knee_rejected() {
        ModelParams::default().with_knee(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "write knee must not exceed read knee")]
    fn crossed_knees_rejected() {
        let p = ModelParams {
            ddr_knee_write: 0.9,
            ddr_knee_read: 0.5,
            ..Default::default()
        };
        p.validate();
    }
}
