//! The Abstract Cost Model (§6, Table 3).
//!
//! A capacity-bound workload's execution time splits into segments
//! processed from MMEM, CXL memory, and SSD spill. Normalizing SSD-spill
//! throughput to 1, the model needs only the relative throughputs
//! `R_d` (all-in-MMEM) and `R_c` (all-in-CXL), the MMEM:CXL capacity
//! ratio `C`, and the relative server cost `R_t` to predict how many
//! CXL servers deliver baseline-cluster performance and what the TCO
//! saving is — no internal or sensitive data required.

use serde::{Deserialize, Serialize};

/// Input parameters (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModelParams {
    /// `R_d`: throughput with the working set in MMEM, relative to the
    /// SSD-spill baseline `P_s = 1`. Table 3 example: 10.
    pub rd: f64,
    /// `R_c`: throughput with the working set in CXL memory, relative to
    /// `P_s`. Table 3 example: 8.
    pub rc: f64,
    /// `C`: MMEM:CXL capacity ratio on a CXL server (2 means twice as
    /// much MMEM as CXL memory). Table 3 example: 2.
    pub c: f64,
    /// `R_t`: relative TCO of a CXL server vs. a baseline server.
    /// Table 3 example: 1.1.
    pub rt: f64,
}

impl Default for CostModelParams {
    /// The worked example of §6.
    fn default() -> Self {
        Self {
            rd: 10.0,
            rc: 8.0,
            c: 2.0,
            rt: 1.1,
        }
    }
}

/// The evaluated Abstract Cost Model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostModel {
    params: CostModelParams,
}

impl CostModel {
    /// Builds the model after validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `rd > 1`, `rc > 1`, `rd >= rc` (CXL is no faster
    /// than DRAM), `c > 0`, and `rt > 0`.
    pub fn new(params: CostModelParams) -> Self {
        assert!(params.rd > 1.0, "R_d must exceed the SSD baseline (1)");
        assert!(params.rc > 1.0, "R_c must exceed the SSD baseline (1)");
        assert!(
            params.rd >= params.rc,
            "R_d >= R_c: CXL cannot outrun MMEM for capacity-bound work"
        );
        assert!(params.c > 0.0, "capacity ratio C must be positive");
        assert!(params.rt > 0.0, "relative TCO R_t must be positive");
        Self { params }
    }

    /// The parameters.
    pub fn params(&self) -> CostModelParams {
        self.params
    }

    /// Baseline cluster execution time for working set `w` with
    /// `n_baseline` servers of MMEM capacity `d` (arbitrary units;
    /// only ratios matter).
    ///
    /// `T = N·D/R_d + (W − N·D)` — the in-memory segment plus the
    /// SSD-spill remainder at unit throughput.
    pub fn t_baseline(&self, w: f64, n_baseline: f64, d: f64) -> f64 {
        let in_mem = n_baseline * d;
        in_mem / self.params.rd + (w - in_mem)
    }

    /// CXL cluster execution time: MMEM segment + CXL segment + spill.
    pub fn t_cxl(&self, w: f64, n_cxl: f64, d: f64) -> f64 {
        let p = self.params;
        let mmem = n_cxl * d;
        let cxl = n_cxl * d / p.c;
        mmem / p.rd + cxl / p.rc + (w - mmem - cxl)
    }

    /// `N_cxl / N_baseline`: the fraction of servers needed with CXL
    /// memory to match baseline performance (§6):
    ///
    /// `C·R_c·(R_d − 1) / (R_c·R_d·(C+1) − C·R_c − R_d)`
    pub fn server_ratio(&self) -> f64 {
        let p = self.params;
        let num = p.c * p.rc * (p.rd - 1.0);
        let den = p.rc * p.rd * (p.c + 1.0) - p.c * p.rc - p.rd;
        num / den
    }

    /// TCO saving: `1 − (N_cxl/N_baseline)·R_t`.
    pub fn tco_saving(&self) -> f64 {
        1.0 - self.server_ratio() * self.params.rt
    }

    /// Derives `R_d`/`R_c` from raw measured throughputs, normalizing
    /// to the SSD baseline.
    ///
    /// # Panics
    ///
    /// Panics if `p_s` is not positive.
    pub fn from_measurements(p_s: f64, p_mmem: f64, p_cxl: f64, c: f64, rt: f64) -> Self {
        assert!(p_s > 0.0, "SSD baseline throughput must be positive");
        Self::new(CostModelParams {
            rd: p_mmem / p_s,
            rc: p_cxl / p_s,
            c,
            rt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CostModel {
        CostModel::new(CostModelParams::default())
    }

    #[test]
    fn worked_example_matches_paper() {
        // §6: Rd=10, Rc=8, C=2 => Ncxl/Nbaseline = 67.29 %.
        let m = example();
        let ratio = m.server_ratio();
        assert!((ratio - 0.6729).abs() < 0.0001, "ratio {ratio}");
        // With Rt=1.1 the TCO saving is 25.98 %.
        let saving = m.tco_saving();
        assert!((saving - 0.2598).abs() < 0.0005, "saving {saving}");
    }

    #[test]
    fn server_ratio_equalizes_execution_times() {
        // The ratio is derived from T_baseline = T_cxl; verify the
        // closed form against the time model directly.
        let m = example();
        let (w, d, n_base) = (100.0, 1.0, 30.0);
        let n_cxl = n_base * m.server_ratio();
        let tb = m.t_baseline(w, n_base, d);
        let tc = m.t_cxl(w, n_cxl, d);
        assert!((tb - tc).abs() < 1e-9, "tb {tb} tc {tc}");
    }

    #[test]
    fn faster_cxl_needs_fewer_servers() {
        let slow = CostModel::new(CostModelParams {
            rc: 4.0,
            ..Default::default()
        });
        let fast = CostModel::new(CostModelParams {
            rc: 9.0,
            ..Default::default()
        });
        assert!(fast.server_ratio() < slow.server_ratio());
    }

    #[test]
    fn more_cxl_capacity_needs_fewer_servers() {
        // Smaller C = more CXL per server = fewer servers.
        let lots = CostModel::new(CostModelParams {
            c: 1.0,
            ..Default::default()
        });
        let little = CostModel::new(CostModelParams {
            c: 8.0,
            ..Default::default()
        });
        assert!(lots.server_ratio() < little.server_ratio());
    }

    #[test]
    fn ratio_stays_in_unit_interval() {
        for rd in [2.0, 5.0, 10.0, 50.0] {
            for rc in [1.5, 3.0, 8.0] {
                if rc > rd {
                    continue;
                }
                for c in [0.5, 1.0, 2.0, 4.0] {
                    let m = CostModel::new(CostModelParams { rd, rc, c, rt: 1.1 });
                    let r = m.server_ratio();
                    assert!((0.0..=1.0).contains(&r), "rd={rd} rc={rc} c={c}: ratio {r}");
                }
            }
        }
    }

    #[test]
    fn expensive_cxl_servers_erode_saving() {
        let cheap = CostModel::new(CostModelParams {
            rt: 1.0,
            ..Default::default()
        });
        let pricey = CostModel::new(CostModelParams {
            rt: 1.3,
            ..Default::default()
        });
        assert!(cheap.tco_saving() > pricey.tco_saving());
    }

    #[test]
    fn from_measurements_normalizes() {
        // 10 kops SSD, 100 kops MMEM, 80 kops CXL == the worked example.
        let m = CostModel::from_measurements(10.0, 100.0, 80.0, 2.0, 1.1);
        assert!((m.server_ratio() - 0.6729).abs() < 0.0001);
    }

    #[test]
    #[should_panic(expected = "R_d >= R_c")]
    fn cxl_faster_than_mmem_rejected() {
        CostModel::new(CostModelParams {
            rd: 5.0,
            rc: 6.0,
            c: 2.0,
            rt: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "R_d must exceed")]
    fn degenerate_rd_rejected() {
        CostModel::new(CostModelParams {
            rd: 1.0,
            rc: 1.0,
            c: 2.0,
            rt: 1.0,
        });
    }
}
