//! Multi-tenant colocation: CXL as noisy-neighbor isolation.
//!
//! §4.3's elastic-compute scenario implicitly colocates tenants on one
//! server; §6 flags multi-application estates as future work. This study
//! puts a latency-sensitive tenant (a KV-style service) next to a
//! bandwidth-hungry batch tenant (an analytics scan) on one socket and
//! compares placements:
//!
//! * **shared DRAM** — both tenants on the DDR channels: the batch job
//!   pushes utilization past the knee and the service's latency spikes.
//! * **batch on CXL** — the hog streams from the expander; the service
//!   keeps quiet DDR channels.
//! * **service on CXL** — the naive inverse: the service pays the CXL
//!   idle-latency gap instead.
//!
//! The §3.4 recommendation ("regard CXL memory as a valuable resource
//! for load balancing") falls out as the batch-on-CXL placement winning
//! on both metrics at high batch intensity.

use serde::Serialize;

use cxl_perf::{AccessMix, FlowSpec, MemSystem};
use cxl_stats::report::Table;
use cxl_topology::{MemoryTier, NodeId, SncMode, Topology};

use crate::runner::Runner;

/// Where each tenant's memory lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ColocationPlacement {
    /// Both tenants in DRAM.
    SharedDram,
    /// Batch tenant on the CXL expander, service in DRAM.
    BatchOnCxl,
    /// Service on the CXL expander, batch in DRAM.
    ServiceOnCxl,
}

impl ColocationPlacement {
    /// All placements in report order.
    pub fn all() -> [ColocationPlacement; 3] {
        [
            ColocationPlacement::SharedDram,
            ColocationPlacement::BatchOnCxl,
            ColocationPlacement::ServiceOnCxl,
        ]
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ColocationPlacement::SharedDram => "shared DRAM",
            ColocationPlacement::BatchOnCxl => "batch on CXL",
            ColocationPlacement::ServiceOnCxl => "service on CXL",
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ColocationCell {
    /// Batch tenant's offered streaming intensity, GB/s.
    pub batch_offered_gbps: f64,
    /// Batch tenant's achieved bandwidth, GB/s.
    pub batch_achieved_gbps: f64,
    /// Service tenant's average memory access latency, ns.
    pub service_latency_ns: f64,
}

/// The study: placements × batch intensities.
#[derive(Debug, Clone, Serialize)]
pub struct ColocationStudy {
    /// Batch intensities swept, GB/s.
    pub intensities: Vec<f64>,
    /// `(placement label, cells)` rows.
    pub rows: Vec<(&'static str, Vec<ColocationCell>)>,
}

impl ColocationStudy {
    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics if absent.
    pub fn cell(&self, p: ColocationPlacement, intensity: f64) -> ColocationCell {
        let idx = self
            .intensities
            .iter()
            .position(|&i| (i - intensity).abs() < 1e-9)
            .expect("intensity present");
        self.rows
            .iter()
            .find(|(l, _)| *l == p.label())
            .expect("placement present")
            .1[idx]
    }

    /// Renders the service-latency table.
    pub fn latency_table(&self) -> Table {
        let mut headers = vec!["placement".to_string()];
        headers.extend(self.intensities.iter().map(|i| format!("{i:.0} GB/s")));
        let href: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "colocation",
            "Service memory latency (ns) vs batch-tenant intensity",
            &href,
        );
        for (label, cells) in &self.rows {
            let mut row = vec![label.to_string()];
            row.extend(cells.iter().map(|c| format!("{:.0}", c.service_latency_ns)));
            t.push_row(row);
        }
        t
    }
}

/// The service tenant's constant light load, GB/s (latency-sensitive,
/// not bandwidth-hungry).
const SERVICE_LOAD_GBPS: f64 = 4.0;

/// Runs the study on an explicit runner. The `(placement, intensity)`
/// grid is flattened into independent analytic solves over one shared
/// [`MemSystem`].
pub fn run_with(runner: &Runner, intensities: &[f64]) -> ColocationStudy {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let sys = MemSystem::new(&topo);
    let nodes = sys.nodes().to_vec();
    let dram = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::LocalDram)
        .expect("DRAM node")
        .id;
    let cxl = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::CxlExpander)
        .expect("CXL node")
        .id;
    let socket = sys.sockets()[0];

    let place = |p: ColocationPlacement| -> (NodeId, NodeId) {
        // (service node, batch node).
        match p {
            ColocationPlacement::SharedDram => (dram, dram),
            ColocationPlacement::BatchOnCxl => (dram, cxl),
            ColocationPlacement::ServiceOnCxl => (cxl, dram),
        }
    };

    let mut grid = Vec::new();
    for p in ColocationPlacement::all() {
        for &intensity in intensities {
            grid.push((p, intensity));
        }
    }
    let cells = runner.map(grid, |(p, intensity)| {
        let (service_node, batch_node) = place(p);
        let flows = [
            FlowSpec::new(
                socket,
                service_node,
                AccessMix::ratio(3, 1),
                SERVICE_LOAD_GBPS,
            ),
            FlowSpec::new(socket, batch_node, AccessMix::read_only(), intensity),
        ];
        let solved = sys.solve(&flows);
        ColocationCell {
            batch_offered_gbps: intensity,
            batch_achieved_gbps: solved.flows[1].achieved_gbps,
            service_latency_ns: solved.flows[0].latency_ns,
        }
    });

    let rows = ColocationPlacement::all()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let start = i * intensities.len();
            (p.label(), cells[start..start + intensities.len()].to_vec())
        })
        .collect();

    ColocationStudy {
        intensities: intensities.to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> ColocationStudy {
        run_with(&Runner::from_env(), &[50.0, 150.0, 250.0])
    }

    #[test]
    fn quiet_batch_favors_shared_dram() {
        let s = study();
        let shared = s.cell(ColocationPlacement::SharedDram, 50.0);
        let svc_cxl = s.cell(ColocationPlacement::ServiceOnCxl, 50.0);
        // At low batch load the service is better off in DRAM.
        assert!(shared.service_latency_ns < svc_cxl.service_latency_ns);
    }

    #[test]
    fn heavy_batch_makes_cxl_isolation_win() {
        let s = study();
        let shared = s.cell(ColocationPlacement::SharedDram, 250.0);
        let isolated = s.cell(ColocationPlacement::BatchOnCxl, 250.0);
        // The hog past the DDR knee spikes the shared-DRAM service
        // latency; moving the hog to CXL restores it.
        assert!(
            shared.service_latency_ns > 1.5 * isolated.service_latency_ns,
            "shared {} isolated {}",
            shared.service_latency_ns,
            isolated.service_latency_ns
        );
        // And the isolated service sits near its idle latency.
        assert!(isolated.service_latency_ns < 130.0);
    }

    #[test]
    fn batch_throughput_tradeoff_is_bounded() {
        // The hog loses bandwidth on CXL (link-limited) but not
        // catastrophically — the §3.4 load-balancing trade.
        let s = study();
        let shared = s.cell(ColocationPlacement::SharedDram, 250.0);
        let isolated = s.cell(ColocationPlacement::BatchOnCxl, 250.0);
        assert!(isolated.batch_achieved_gbps > 0.15 * shared.batch_achieved_gbps);
        assert!(isolated.batch_achieved_gbps < shared.batch_achieved_gbps);
    }

    #[test]
    fn service_on_cxl_is_never_best() {
        let s = study();
        for &i in &s.intensities {
            let svc_cxl = s.cell(ColocationPlacement::ServiceOnCxl, i);
            let best_other = s
                .cell(ColocationPlacement::SharedDram, i)
                .service_latency_ns
                .min(
                    s.cell(ColocationPlacement::BatchOnCxl, i)
                        .service_latency_ns,
                );
            assert!(
                svc_cxl.service_latency_ns > best_other,
                "at {i}: svc-on-CXL {} vs best {}",
                svc_cxl.service_latency_ns,
                best_other
            );
        }
    }

    #[test]
    fn table_renders() {
        let t = study().latency_table();
        assert_eq!(t.rows.len(), 3);
        assert!(t.render().contains("batch on CXL"));
    }
}
