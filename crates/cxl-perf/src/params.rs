//! The model's free parameters as a first-class, serializable value.
//!
//! [`ModelParams`] is the single source of every calibrated number of
//! the analytic model — idle latencies, efficiencies, knee positions,
//! queueing scales, UPI coherence/credit costs, the RSF cap, and two
//! multiplicative device-cost knobs. [`MemSystem::with_params`] builds
//! the resource graph from it, and the `cxl-calib` fitter sweeps,
//! serializes, and diffs it against [`ModelParams::default`], whose
//! values are the §3 calibration.
//!
//! Each parameter is declared exactly once, as one entry of the
//! `model_params!` table below: its doc (naming the paper measurement
//! its default reproduces), its name, its default, and its valid range.
//! The struct, `Default`, the by-name accessors the fitter uses, and the
//! per-field range checks of [`ModelParams::validate`] are all generated
//! from that entry, so they cannot drift apart.
//!
//! What stays pinned (deliberately *not* here): the max-utilization
//! clamp of the queue curves (a numerical guard rather than a physical
//! quantity), the SSD figures [`SSD_READ_LATENCY_NS`] and
//! [`SSD_BW_GBPS`] (no loaded-latency measurement set covers them), and
//! link widths/speeds and controller latencies (those belong to the
//! [`cxl_topology::CxlDevice`] hardware description, not the model).
//!
//! [`MemSystem::with_params`]: crate::MemSystem::with_params

use serde::{Deserialize, Serialize};

/// SSD read latency (4 KiB, ns): ~90 µs for the testbed's NVMe drives.
pub const SSD_READ_LATENCY_NS: f64 = 90_000.0;

/// SSD sequential throughput, GB/s (1.92 TB data-center NVMe).
pub const SSD_BW_GBPS: f64 = 3.2;

/// The valid range of one parameter.
#[derive(Debug, Clone, Copy)]
enum Range {
    /// Finite and `>= 0`: latencies, queue scales, overhead ratios.
    NonNeg,
    /// In `(0, 1]`: efficiencies and fractions.
    Fraction,
    /// In `[0.05, 1)`: utilization knees.
    Knee,
    /// `> 0`, infinity allowed: bandwidth caps (an infinite RSF cap is
    /// the §3.4 fixed-CPU projection).
    Positive,
    /// Finite and `> 0`: multiplicative scales.
    Scale,
}

impl Range {
    /// Panics unless `value` lies in the range (NaN never does).
    fn check(self, field: &str, value: f64) {
        let (ok, want) = match self {
            Range::NonNeg => (value >= 0.0 && value.is_finite(), "finite and >= 0"),
            Range::Fraction => (value > 0.0 && value <= 1.0, "in (0, 1]"),
            Range::Knee => ((0.05..1.0).contains(&value), "in [0.05, 1)"),
            Range::Positive => (value > 0.0, "> 0"),
            Range::Scale => (value > 0.0 && value.is_finite(), "finite and > 0"),
        };
        assert!(ok, "model parameter {field} must be {want}: {value}");
    }
}

/// Declares [`ModelParams`] from one table of
/// `/// doc` `name = default, Range;` entries.
macro_rules! model_params {
    ($(
        $(#[$doc:meta])*
        $name:ident = $default:expr, $range:ident;
    )*) => {
        /// Every free parameter of the analytic memory model. See the
        /// module docs for the fitted-vs-pinned split; each field's doc
        /// gives the §3 provenance of its default.
        #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
        pub struct ModelParams {
            $($(#[$doc])* pub $name: f64,)*
        }

        impl Default for ModelParams {
            /// The §3 calibration of the paper's testbed (see the field
            /// docs).
            fn default() -> Self {
                Self { $($name: $default,)* }
            }
        }

        impl ModelParams {
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

            /// Checks every field against its declared range.
            fn check_ranges(&self) {
                $(Range::$range.check(stringify!($name), self.$name);)*
            }
        }
    };
}

model_params! {
    /// Idle load-to-use latency of socket-local DDR reads, ns. §3.2:
    /// "an initial memory latency of about 97 ns".
    mmem_read_idle_ns = 97.0, NonNeg;
    /// Idle latency of a local non-temporal (posted) write, ns. Posted
    /// writes complete at the write buffer, so local NT writes retire
    /// slightly faster than the remote 71.77 ns.
    nt_write_idle_local_ns = 69.0, NonNeg;
    /// Idle latency of a remote-socket NT write, ns. §3.2 reports
    /// 71.77 ns for remote write-only; distance adds almost nothing.
    nt_write_idle_remote_ns = 71.77, NonNeg;
    /// One-way UPI hop latency added to remote reads, ns. §3.2: remote
    /// reads idle at ~130 ns versus 97 ns local.
    upi_hop_ns = 33.0, NonNeg;
    /// Fraction of theoretical DDR bandwidth achievable for pure reads.
    /// §3.2: read-only peaks at ~67 GB/s, "87 % of its theoretical
    /// maximum" (76.8 GB/s for the 2-channel SNC domain).
    ddr_read_efficiency = 0.87, Fraction;
    /// Fraction achievable for pure NT writes. §3.2: write-only drops to
    /// 54.6 GB/s, i.e. 71.1 % of 76.8 GB/s.
    ddr_write_efficiency = 0.711, Fraction;
    /// Utilization knee for a read-only stream on local DDR. §3.2:
    /// latency "starts to significantly increase at 75 %–83 % of
    /// bandwidth utilization".
    ddr_knee_read = 0.80, Knee;
    /// Knee for a write-only stream. §3.3: "the latency-bandwidth
    /// knee-point shifts to the left as the proportion of write
    /// operations increases". Must not exceed `ddr_knee_read`.
    ddr_knee_write = 0.62, Knee;
    /// Queueing-delay scale for DDR memory controllers, ns. Sets how
    /// fast latency blows up past the knee; Fig. 3 shows saturation
    /// latencies of several hundred ns.
    ddr_queue_scale_ns = 55.0, NonNeg;
    /// Gentle pre-knee latency growth, ns at full utilization.
    ddr_linear_ns = 18.0, NonNeg;
    /// Extra UPI bytes moved per payload byte written remotely with
    /// regular (allocating) stores — ownership reads plus writeback.
    upi_coherence_overhead = 0.6, NonNeg;
    /// Extra UPI bytes per NT-written byte (invalidation-only traffic).
    /// §3.2: "the write-only workload generates minimal UPI traffic".
    upi_nt_coherence_overhead = 0.12, NonNeg;
    /// Posted-write credit limit across UPI, GB/s of write payload.
    /// Models the §3.2 finding that remote write-heavy mixes achieve the
    /// lowest bandwidth despite low UPI utilization (single-direction
    /// usage plus bounded posted-write credits).
    upi_write_credit_gbps = 20.0, Positive;
    /// Utilization knee for UPI resources. §3.2: "latency escalation
    /// occurs earlier in remote socket memory accesses".
    upi_knee = 0.70, Knee;
    /// Queueing scale for UPI, ns.
    upi_queue_scale_ns = 80.0, NonNeg;
    /// Idle latency of an NT write to local CXL, ns. CXL.mem writes are
    /// posted at the host bridge; slightly above DDR NT writes.
    cxl_nt_write_idle_ns = 85.0, NonNeg;
    /// Extra idle latency of a remote CXL read beyond the local one, ns.
    /// §3.2: remote CXL shows "an exceptionally high idle latency of
    /// 485 ns" against "a minimum latency of 250.42 ns" locally.
    cxl_remote_extra_ns = 485.0 - 250.42, NonNeg;
    /// Scheduling efficiency of the CXL controller's internal DDR
    /// scheduler relative to the host IMC. Chosen so the best-case mixed
    /// bandwidth of the A1000 lands at the measured 56.7 GB/s (§3.2).
    cxl_backing_efficiency = 0.915, Fraction;
    /// Cap on CXL write payload imposed by CXL.mem message/credit
    /// overheads, as a fraction of the effective link bandwidth.
    cxl_write_msg_fraction = 0.75, Fraction;
    /// Knee for the PCIe/CXL link direction resources.
    cxl_link_knee = 0.75, Knee;
    /// Queueing scale for CXL link and controller, ns. Fig. 3(c): CXL
    /// latency "remains relatively stable as bandwidth increases" —
    /// flatter than DDR because the link, not the DRAM queue, binds
    /// first.
    cxl_queue_scale_ns = 45.0, NonNeg;
    /// Remote Snoop Filter ceiling for cross-socket CXL traffic, GB/s.
    /// §3.2: remote CXL peaks at just 20.4 GB/s at a 2:1 mix while UPI
    /// stays under 30 % utilized; Intel attributes this to RSF limits.
    /// `f64::INFINITY` models the fixed next-generation CPUs of §3.4.
    rsf_cap_gbps = 20.6, Positive;
    /// Knee for the RSF resource.
    rsf_knee = 0.65, Knee;
    /// Queueing scale for the RSF, ns.
    rsf_queue_scale_ns = 120.0, NonNeg;
    /// Multiplier on every device's solved controller latency. `1.0`
    /// uses the [`cxl_topology::CxlDevice`] figure verbatim; fitting it
    /// against a measurement set calibrates an unknown ASIC without
    /// editing the hardware description.
    controller_latency_scale = 1.0, Scale;
    /// Multiplier on every device's switch-hop round trip (same role as
    /// `controller_latency_scale`, for CXL 2.0 switch ports).
    switch_hop_scale = 1.0, Scale;
}

impl ModelParams {
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

    /// Validates every field against the range declared beside it, then
    /// the one cross-field rule (the write knee sits left of the read
    /// knee).
    ///
    /// # Panics
    ///
    /// Panics if a parameter is out of range or NaN.
    pub fn validate(&self) {
        self.check_ranges();
        assert!(
            self.ddr_knee_write <= self.ddr_knee_read,
            "write knee must not exceed read knee"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_keeps_the_paper_anchors() {
        let p = ModelParams::default();
        p.validate();
        // §3.2 figures quoted verbatim by the field docs.
        assert_eq!(p.mmem_read_idle_ns, 97.0);
        assert_eq!(p.nt_write_idle_remote_ns, 71.77);
        assert_eq!(p.mmem_read_idle_ns + p.upi_hop_ns, 130.0);
        assert_eq!(
            p.cxl_remote_extra_ns.to_bits(),
            (485.0f64 - 250.42).to_bits()
        );
        assert!((p.ddr_read_efficiency * 76.8 - 67.0).abs() < 0.2);
        assert!((p.ddr_write_efficiency * 76.8 - 54.6).abs() < 0.1);
        assert!(p.ddr_knee_read >= 0.75 && p.ddr_knee_read <= 0.83);
        assert_eq!(p.controller_latency_scale, 1.0);
        assert_eq!(p.switch_hop_scale, 1.0);
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
        let d = ModelParams::default();
        let p = d.with_knee(0.6);
        assert!((p.ddr_knee_read - 0.6).abs() < 1e-12);
        assert!(
            (p.ddr_knee_read - p.ddr_knee_write - (d.ddr_knee_read - d.ddr_knee_write)).abs()
                < 1e-12
        );
        p.validate();
    }

    #[test]
    #[should_panic(expected = "model parameter ddr_knee_read must be in [0.05, 1): 1.5")]
    fn bad_knee_rejected() {
        ModelParams::default().with_knee(1.5).validate();
    }

    #[test]
    fn nan_is_rejected_in_every_field() {
        for &field in ModelParams::FIELDS {
            let mut p = ModelParams::default();
            p.set(field, f64::NAN);
            let err = std::panic::catch_unwind(|| p.validate())
                .expect_err("a NaN parameter must not validate");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains(field), "{field}: {msg}");
        }
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
