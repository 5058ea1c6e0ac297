//! Serialization round trips for the public configuration types.
//!
//! Downstream tooling stores experiment configurations as JSON (the
//! bench binaries emit it with `--json`); these tests pin that every
//! config type survives a serde round trip unchanged.

use cxl_repro::cost::{CostModelParams, PoolingConfig};
use cxl_repro::perf::{AccessMix, ModelParams};
use cxl_repro::spark::ClusterConfig;
use cxl_repro::topology::{CxlDevice, SncMode, Topology};
use cxl_repro::ycsb::{GeneratorConfig, Op, Workload};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn topology_roundtrips() {
    let t = Topology::paper_testbed(SncMode::Snc4);
    let back = roundtrip(&t);
    assert_eq!(back.sockets.len(), t.sockets.len());
    assert_eq!(back.snc, t.snc);
    assert_eq!(back.total_cxl_gib(), t.total_cxl_gib());
    assert_eq!(back.nodes(), t.nodes());
}

#[test]
fn cxl_device_roundtrips() {
    let d = CxlDevice::a1000();
    let back = roundtrip(&d);
    assert_eq!(back, d);
}

#[test]
fn access_mix_roundtrips() {
    for mix in [
        AccessMix::read_only(),
        AccessMix::write_only(),
        AccessMix::ratio(2, 1).with_regular_writes(),
    ] {
        let back = roundtrip(&mix);
        assert_eq!(back, mix);
        assert_eq!(back.label(), mix.label());
    }
}

#[test]
fn model_params_roundtrips() {
    let p = ModelParams::default().with_knee(0.7);
    let back = roundtrip(&p);
    assert_eq!(back, p);
    back.validate();
}

#[test]
fn cost_and_pooling_configs_roundtrip() {
    let c = CostModelParams::default();
    assert_eq!(roundtrip(&c), c);
    let p = PoolingConfig::default();
    assert_eq!(roundtrip(&p), p);
}

#[test]
fn spark_cluster_config_roundtrips() {
    let c = ClusterConfig::cxl_interleave(1, 3);
    let back = roundtrip(&c);
    assert_eq!(back.servers, c.servers);
    assert_eq!(back.placement, c.placement);
    assert_eq!(back.params, c.params);
}

#[test]
fn ycsb_types_roundtrip() {
    let g = GeneratorConfig::default();
    let back = roundtrip(&g);
    assert_eq!(back.record_count, g.record_count);
    for w in Workload::extended() {
        assert_eq!(roundtrip(&w), w);
    }
    let ops = [
        Op::Read(7),
        Op::Update(9),
        Op::Insert(11),
        Op::Scan { start: 3, len: 42 },
        Op::ReadModifyWrite(5),
    ];
    for op in ops {
        assert_eq!(roundtrip(&op), op);
    }
}

#[test]
fn reports_serialize_to_json() {
    // Report types are serialize-only; pin that they produce valid JSON
    // with the expected top-level fields.
    let study = cxl_repro::core_api::experiments::cost::run();
    let json = serde_json::to_value(&study).expect("serializes");
    assert!(json.get("server_ratio").is_some());
    assert!(json.get("tco_saving").is_some());

    let row = cxl_repro::core_api::experiments::slo::probe(
        cxl_repro::core_api::CapacityConfig::Mmem,
        &cxl_repro::core_api::experiments::slo::SloParams {
            record_count: 10_000,
            warmup_ops: 0,
            ops: 5_000,
            rates: vec![2e5],
            ..Default::default()
        },
    );
    let json = serde_json::to_value(&row).expect("serializes");
    assert_eq!(json["config"], "MMEM");
}
