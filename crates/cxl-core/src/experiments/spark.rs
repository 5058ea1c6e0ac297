//! Fig. 7: Spark TPC-H execution time and shuffle share (§4.2).

use serde::Serialize;

use cxl_spark::runner::run_all;
use cxl_spark::{ClusterConfig, QueryResult};
use cxl_stats::report::{fmt_f64, Table};

use crate::runner::Runner;

/// The Fig. 7 study: every configuration × query.
#[derive(Debug, Clone, Serialize)]
pub struct SparkStudy {
    /// Results per configuration (Table 1 order), each with the four
    /// queries.
    pub configs: Vec<(String, Vec<QueryResult>)>,
}

/// The configurations of §4.2.1.
pub fn paper_configs() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::baseline(),
        ClusterConfig::cxl_interleave(3, 1),
        ClusterConfig::cxl_interleave(1, 1),
        ClusterConfig::cxl_interleave(1, 3),
        ClusterConfig::spill(0.8),
        ClusterConfig::spill(0.6),
        ClusterConfig::hot_promote(),
    ]
}

/// Runs every configuration over Q5/Q7/Q8/Q9 on an explicit runner.
/// The query model is analytic (no randomness), so each configuration
/// is an independent cell.
pub fn run_with(runner: &Runner) -> SparkStudy {
    let configs = runner.map(paper_configs(), |c| (c.placement.label(), run_all(&c)));
    SparkStudy { configs }
}

impl SparkStudy {
    /// Baseline (MMEM) execution times per query.
    fn baseline(&self) -> &[QueryResult] {
        &self
            .configs
            .iter()
            .find(|(l, _)| l == "MMEM")
            .expect("baseline present")
            .1
    }

    /// Normalized execution time of a configuration for a query.
    pub fn normalized(&self, config: &str, query: &str) -> f64 {
        let base = self
            .baseline()
            .iter()
            .find(|r| r.name == query)
            .expect("query present")
            .exec_time_s;
        let t = self
            .configs
            .iter()
            .find(|(l, _)| l == config)
            .expect("config present")
            .1
            .iter()
            .find(|r| r.name == query)
            .expect("query present")
            .exec_time_s;
        t / base
    }

    /// Fig. 7(a): normalized execution times.
    pub fn fig7a(&self) -> Table {
        let mut t = Table::new(
            "fig7a",
            "TPC-H execution time normalized to MMEM",
            &["config", "Q5", "Q7", "Q8", "Q9"],
        );
        for (label, results) in &self.configs {
            let mut row = vec![label.clone()];
            for r in results {
                row.push(format!(
                    "{:.2}x",
                    r.exec_time_s / self.baseline_time(r.name)
                ));
            }
            t.push_row(row);
        }
        t
    }

    fn baseline_time(&self, query: &str) -> f64 {
        self.baseline()
            .iter()
            .find(|r| r.name == query)
            .expect("query present")
            .exec_time_s
    }

    /// Fig. 7(b): shuffle time percentage, split into write and read.
    pub fn fig7b(&self) -> Table {
        let mut t = Table::new(
            "fig7b",
            "Shuffle share of execution time (%)",
            &["config", "query", "shuffle write", "shuffle read", "total"],
        );
        for (label, results) in &self.configs {
            for r in results {
                t.push_row(vec![
                    label.clone(),
                    r.name.to_string(),
                    fmt_f64(100.0 * r.shuffle_write_s / r.exec_time_s),
                    fmt_f64(100.0 * r.shuffle_read_s / r.exec_time_s),
                    fmt_f64(100.0 * r.shuffle_fraction()),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_runs() {
        let s = run_with(&Runner::from_env());
        assert_eq!(s.configs.len(), 7);
        for (_, rs) in &s.configs {
            assert_eq!(rs.len(), 4);
        }
    }

    #[test]
    fn normalized_band_matches_paper() {
        let s = run_with(&Runner::from_env());
        // §4.2.2: interleave slowdowns 1.4x–9.8x.
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for cfg in ["3:1", "1:1", "1:3"] {
            for q in ["Q5", "Q7", "Q8", "Q9"] {
                let n = s.normalized(cfg, q);
                min = min.min(n);
                max = max.max(n);
            }
        }
        assert!((1.2..=2.0).contains(&min), "min {min}");
        assert!((4.0..=12.0).contains(&max), "max {max}");
        // Hot-Promote: >34 % slowdown (§4.2.2).
        assert!(s.normalized("Hot-Promote", "Q9") > 1.34);
    }

    #[test]
    fn tables_render() {
        let s = run_with(&Runner::from_env());
        let a = s.fig7a();
        assert_eq!(a.rows.len(), 7);
        assert!(a.render().contains("Q9"));
        let b = s.fig7b();
        assert_eq!(b.rows.len(), 28);
    }
}
