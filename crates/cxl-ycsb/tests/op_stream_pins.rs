//! Pins the op streams `Generator::batch` draws for every workload,
//! on both sides of the key count up to which the scrambled Zipfian
//! chooser draws from its inverse table (2^16 keys).
//!
//! Each (record count, seed) pair folds the six workloads' ops into one
//! FNV-1a digest and sums the `ycsb/ops/*` counters they add. A change
//! to the key choosers that moves a digest changed the streams every
//! YCSB-driven study runs on.

use std::sync::Arc;

use cxl_ycsb::{Generator, GeneratorConfig, Op, Workload};

/// Ops drawn per workload.
const OPS: usize = 25_000;

/// The `ycsb/ops/*` counters, in the order of the pinned totals.
const COUNTERS: [&str; 5] = [
    "ycsb/ops/read",
    "ycsb/ops/update",
    "ycsb/ops/insert",
    "ycsb/ops/scan",
    "ycsb/ops/rmw",
];

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Folds one op into the digest: a kind tag, the key, a scan's length.
fn fold(h: u64, op: Op) -> u64 {
    let (tag, len) = match op {
        Op::Read(_) => (0u8, 0u32),
        Op::Update(_) => (1, 0),
        Op::Insert(_) => (2, 0),
        Op::Scan { len, .. } => (3, len),
        Op::ReadModifyWrite(_) => (4, 0),
    };
    let h = fnv1a(h, &[tag]);
    let h = fnv1a(h, &op.key().to_le_bytes());
    fnv1a(h, &len.to_le_bytes())
}

/// The digest of workloads A–F at one size and seed, and the
/// `ycsb/ops/*` totals their batches add.
fn streams(record_count: u64, seed: u64) -> (u64, [u64; 5]) {
    let reg = Arc::new(cxl_obs::Registry::new());
    let _scope = cxl_obs::scope(reg.clone());
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in Workload::extended() {
        let cfg = GeneratorConfig {
            record_count,
            value_size: 1024,
            seed,
        };
        h = Generator::new(w, cfg).batch(OPS).into_iter().fold(h, fold);
    }
    (h, COUNTERS.map(|name| reg.counter(name).unwrap_or(0)))
}

/// The `ycsb/ops/*` totals at seed 42 and at seed 7. Which kind an op
/// is does not depend on the key space, so they hold at every size.
const SEED42: [u64; 5] = [97_553, 13_726, 2_449, 23_786, 12_486];
const SEED7: [u64; 5] = [97_326, 13_868, 2_658, 23_657, 12_491];

fn check(record_count: u64, seed: u64, digest: u64, totals: [u64; 5]) {
    assert_eq!(
        streams(record_count, seed),
        (digest, totals),
        "{record_count} records, seed {seed}"
    );
}

#[test]
fn streams_below_the_table_limit_are_pinned() {
    check(20_000, 42, 0x7d4e_b609_04e5_c54d, SEED42);
    check(20_000, 7, 0x3f5f_7bda_6aeb_4ba2, SEED7);
    check(40_000, 42, 0xd519_be90_fe73_8e61, SEED42);
    check(40_000, 7, 0xaecc_4484_0b6b_d7f9, SEED7);
}

#[test]
fn streams_at_the_table_limit_are_pinned() {
    check(65_536, 42, 0x888f_f75e_0aa1_e6a7, SEED42);
    check(65_536, 7, 0x6d54_77b4_3bf5_baa8, SEED7);
}

#[test]
fn streams_above_the_table_limit_are_pinned() {
    check(65_537, 42, 0x4369_b109_8586_213a, SEED42);
    check(65_537, 7, 0x51a5_035e_6cdd_6680, SEED7);
    check(200_000, 42, 0xbad0_02e1_50a1_7b72, SEED42);
    check(200_000, 7, 0xb84b_2966_f01f_0a9e, SEED7);
}
