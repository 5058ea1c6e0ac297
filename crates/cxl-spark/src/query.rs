//! TPC-H query profiles.
//!
//! The paper selects Q5, Q7, Q8 and Q9 for their intensive data
//! shuffling (§4.2.1, following prior shuffle-acceleration studies).
//! Stage volumes below are scaled to
//! the 7 TB initial dataset; they follow the queries' join structure
//! (Q9 joins six tables including the two largest and shuffles the
//! most; Q5/Q7 are lighter).

use serde::{Deserialize, Serialize};

/// One Spark stage: scan, hash-partition, and shuffle volumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Bytes scanned from table storage / previous stage output, GB.
    pub scan_gb: f64,
    /// Shuffle bytes written (map side), GB.
    pub shuffle_write_gb: f64,
    /// Shuffle bytes read (reduce side), GB.
    pub shuffle_read_gb: f64,
    /// Fraction of shuffled bytes that take a dependent (hash-table)
    /// access path rather than streaming.
    pub hash_fraction: f64,
}

/// A named query: an ordered list of stages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryProfile {
    /// TPC-H query name, e.g. `"Q9"`.
    pub name: &'static str,
    /// Stages in execution order.
    pub stages: Vec<StageProfile>,
}

impl QueryProfile {
    /// Total bytes scanned, GB.
    pub fn total_scan_gb(&self) -> f64 {
        self.stages.iter().map(|s| s.scan_gb).sum()
    }

    /// Total shuffle bytes written, GB.
    pub fn total_shuffle_write_gb(&self) -> f64 {
        self.stages.iter().map(|s| s.shuffle_write_gb).sum()
    }

    /// Total shuffle bytes read, GB.
    pub fn total_shuffle_read_gb(&self) -> f64 {
        self.stages.iter().map(|s| s.shuffle_read_gb).sum()
    }

    /// Total bytes moved, GB.
    #[cfg(test)]
    fn total_gb(&self) -> f64 {
        self.total_scan_gb() + self.total_shuffle_write_gb() + self.total_shuffle_read_gb()
    }
}

fn stage(scan: f64, w: f64, r: f64, hash: f64) -> StageProfile {
    StageProfile {
        scan_gb: scan,
        shuffle_write_gb: w,
        shuffle_read_gb: r,
        hash_fraction: hash,
    }
}

/// The four shuffle-heavy TPC-H queries of §4.2 at 7 TB scale.
pub fn tpch_queries() -> Vec<QueryProfile> {
    vec![
        // Q5: 6-way join (customer/orders/lineitem/supplier/nation/region)
        // pruned by region; moderate shuffle.
        QueryProfile {
            name: "Q5",
            stages: vec![
                stage(1_100.0, 500.0, 0.0, 0.30),
                stage(0.0, 450.0, 500.0, 0.35),
                stage(0.0, 120.0, 450.0, 0.35),
                stage(0.0, 0.0, 120.0, 0.25),
            ],
        },
        // Q7: supplier/customer nation pairs; lineitem-dominated shuffle.
        QueryProfile {
            name: "Q7",
            stages: vec![
                stage(1_300.0, 650.0, 0.0, 0.30),
                stage(0.0, 380.0, 650.0, 0.35),
                stage(0.0, 0.0, 380.0, 0.25),
            ],
        },
        // Q8: market-share query, two years of lineitem joined with seven
        // tables; wide shuffles.
        QueryProfile {
            name: "Q8",
            stages: vec![
                stage(1_700.0, 900.0, 0.0, 0.30),
                stage(0.0, 700.0, 900.0, 0.35),
                stage(0.0, 250.0, 700.0, 0.35),
                stage(0.0, 0.0, 250.0, 0.25),
            ],
        },
        // Q9: product-type profit measure; joins lineitem with partsupp
        // (the heaviest pair), shuffles the most of the four.
        QueryProfile {
            name: "Q9",
            stages: vec![
                stage(2_200.0, 1_400.0, 0.0, 0.35),
                stage(0.0, 1_100.0, 1_400.0, 0.40),
                stage(0.0, 450.0, 1_100.0, 0.40),
                stage(0.0, 0.0, 450.0, 0.30),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_queries_in_paper_order() {
        let qs = tpch_queries();
        let names: Vec<&str> = qs.iter().map(|q| q.name).collect();
        assert_eq!(names, ["Q5", "Q7", "Q8", "Q9"]);
    }

    #[test]
    fn q9_is_the_heaviest() {
        let qs = tpch_queries();
        let q9 = qs.iter().find(|q| q.name == "Q9").unwrap();
        for q in &qs {
            if q.name != "Q9" {
                assert!(q9.total_gb() > q.total_gb(), "{} >= Q9", q.name);
            }
        }
    }

    #[test]
    fn shuffle_reads_match_writes_shifted() {
        // Every shuffle write is read by a later stage.
        for q in tpch_queries() {
            let w = q.total_shuffle_write_gb();
            let r = q.total_shuffle_read_gb();
            assert!((w - r).abs() < 1e-9, "{}: write {w} read {r}", q.name);
        }
    }

    #[test]
    fn volumes_positive_and_fractions_sane() {
        for q in tpch_queries() {
            assert!(q.total_gb() > 0.0);
            for s in &q.stages {
                assert!((0.0..=1.0).contains(&s.hash_fraction));
            }
        }
    }
}
