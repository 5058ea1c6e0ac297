#![warn(missing_docs)]

//! YCSB workload generation (§4.1.1).
//!
//! The paper benchmarks KeyDB with four YCSB workloads at 1 KB record
//! size: A (50/50 read/update, Zipfian), B (95/5, Zipfian), C (read-only,
//! Zipfian), and D (95/5 read/insert, latest). This crate produces those
//! operation streams deterministically, live ([`Generator`]) or as a
//! recorded stream that replays into any number of stores ([`OpTrace`]).

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use cxl_stats::dist::{KeyChooser, Latest, ScrambledZipfian};
use cxl_stats::rng::stream_rng;

/// The YCSB core workloads. The paper's experiments use A–D; E and F
/// complete the standard suite (scans and read-modify-write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// 50 % read / 50 % update, Zipfian (update-intensive).
    A,
    /// 95 % read / 5 % update, Zipfian (read-heavy).
    B,
    /// 100 % read, Zipfian (read-only).
    C,
    /// 95 % read / 5 % insert, latest (read newest).
    D,
    /// 95 % scan / 5 % insert, Zipfian start keys (short ranges).
    E,
    /// 50 % read / 50 % read-modify-write, Zipfian.
    F,
}

impl Workload {
    /// The four workloads the paper evaluates, in paper order.
    pub fn all() -> [Workload; 4] {
        [Workload::A, Workload::B, Workload::C, Workload::D]
    }

    /// The full YCSB core suite including E and F.
    pub fn extended() -> [Workload; 6] {
        [
            Workload::A,
            Workload::B,
            Workload::C,
            Workload::D,
            Workload::E,
            Workload::F,
        ]
    }

    /// Human label, e.g. `"YCSB-A"`.
    pub fn label(self) -> &'static str {
        match self {
            Workload::A => "YCSB-A",
            Workload::B => "YCSB-B",
            Workload::C => "YCSB-C",
            Workload::D => "YCSB-D",
            Workload::E => "YCSB-E",
            Workload::F => "YCSB-F",
        }
    }

    /// Fraction of operations that are reads (scans count as reads;
    /// read-modify-writes count as writes).
    pub fn read_fraction(self) -> f64 {
        match self {
            Workload::A | Workload::F => 0.5,
            Workload::B | Workload::D | Workload::E => 0.95,
            Workload::C => 1.0,
        }
    }

    /// True when the write half inserts new keys (workloads D and E)
    /// rather than updating existing ones.
    pub fn writes_insert(self) -> bool {
        matches!(self, Workload::D | Workload::E)
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Read the value of a key.
    Read(u64),
    /// Update the value of an existing key.
    Update(u64),
    /// Insert a new key.
    Insert(u64),
    /// Scan `len` consecutive keys starting at the given key.
    Scan {
        /// First key of the range.
        start: u64,
        /// Number of keys scanned (YCSB default: uniform in 1..=100).
        len: u32,
    },
    /// Read a key, then write it back (workload F).
    ReadModifyWrite(u64),
}

/// The per-type op counters, indexed by [`Op::kind`].
const OP_COUNTERS: [&str; 5] = [
    "ycsb/ops/read",
    "ycsb/ops/update",
    "ycsb/ops/insert",
    "ycsb/ops/scan",
    "ycsb/ops/rmw",
];

/// Adds a per-type op tally to the `ycsb/ops/*` counters.
fn flush_tally(tally: &[u64; 5]) {
    for (name, &count) in OP_COUNTERS.iter().zip(tally) {
        if count > 0 {
            cxl_obs::counter_add(name, count);
        }
    }
}

impl Op {
    /// The op's type as an index into [`OP_COUNTERS`]; also its tag in
    /// an [`OpTrace`] word.
    fn kind(self) -> usize {
        match self {
            Op::Read(_) => 0,
            Op::Update(_) => 1,
            Op::Insert(_) => 2,
            Op::Scan { .. } => 3,
            Op::ReadModifyWrite(_) => 4,
        }
    }

    /// The (first) key the operation targets.
    pub fn key(self) -> u64 {
        match self {
            Op::Read(k) | Op::Update(k) | Op::Insert(k) | Op::ReadModifyWrite(k) => k,
            Op::Scan { start, .. } => start,
        }
    }

    /// True for operations with a write component.
    pub fn is_write(self) -> bool {
        matches!(self, Op::Update(_) | Op::Insert(_) | Op::ReadModifyWrite(_))
    }
}

/// Workload generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of pre-loaded records.
    pub record_count: u64,
    /// Value size in bytes (1 KiB in the paper).
    pub value_size: u64,
    /// Root seed for deterministic generation.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            record_count: 1_000_000,
            value_size: 1024,
            seed: 42,
        }
    }
}

enum Chooser {
    Zipf(ScrambledZipfian),
    Latest(Latest),
}

/// A deterministic YCSB operation stream.
pub struct Generator {
    workload: Workload,
    cfg: GeneratorConfig,
    chooser: Chooser,
    rng: SmallRng,
    next_insert_key: u64,
}

impl Generator {
    /// Creates a generator for a workload.
    ///
    /// # Panics
    ///
    /// Panics if `record_count == 0`.
    pub fn new(workload: Workload, cfg: GeneratorConfig) -> Self {
        assert!(cfg.record_count > 0, "record count must be positive");
        let chooser = if workload == Workload::D {
            Chooser::Latest(Latest::new(cfg.record_count))
        } else {
            Chooser::Zipf(ScrambledZipfian::new(cfg.record_count))
        };
        Self {
            workload,
            cfg,
            chooser,
            rng: stream_rng(cfg.seed, &format!("ycsb.{}", workload.label())),
            next_insert_key: cfg.record_count,
        }
    }

    /// The workload this generator produces.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Total keys in existence (grows under workload D inserts).
    #[cfg(test)]
    fn key_count(&self) -> u64 {
        self.next_insert_key
    }

    fn next_key(&mut self) -> u64 {
        match &mut self.chooser {
            Chooser::Zipf(z) => z.next_key(&mut self.rng),
            Chooser::Latest(l) => l.next_key(&mut self.rng),
        }
    }

    /// Draws the next operation and counts it, one `cxl-obs` call per
    /// op: the reference [`Generator::batch`] is tested against.
    #[cfg(test)]
    fn next_op(&mut self) -> Op {
        let op = self.draw_op();
        cxl_obs::counter_add(OP_COUNTERS[op.kind()], 1);
        op
    }

    fn draw_op(&mut self) -> Op {
        let is_read = self.rng.gen::<f64>() < self.workload.read_fraction();
        if is_read {
            let key = self.next_key();
            return match self.workload {
                Workload::E => Op::Scan {
                    start: key,
                    len: self.rng.gen_range(1..=100),
                },
                _ => Op::Read(key),
            };
        }
        if self.workload == Workload::F {
            return Op::ReadModifyWrite(self.next_key());
        }
        if self.workload.writes_insert() {
            let key = self.next_insert_key;
            self.next_insert_key += 1;
            if let Chooser::Latest(l) = &mut self.chooser {
                l.advance();
            }
            Op::Insert(key)
        } else {
            let key = self.next_key();
            Op::Update(key)
        }
    }

    /// Generates the next `n` operations and adds them to the per-type
    /// `ycsb/ops/*` counters, tallied locally and flushed once per type
    /// per batch: drawing ops one at a time and counting each would give
    /// the same stream and totals, with one `cxl-obs` call per op (the
    /// `KvStore` run loops and serving sessions draw through here).
    pub fn batch(&mut self, n: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        self.fill(&mut ops, n);
        ops
    }

    /// [`Generator::batch`] into a caller's buffer: replaces `buf`'s
    /// contents with the next `n` ops, so a reused buffer draws block
    /// after block without allocating.
    pub fn fill(&mut self, buf: &mut Vec<Op>, n: usize) {
        let mut tally = [0u64; 5];
        buf.clear();
        buf.extend((0..n).map(|_| {
            let op = self.draw_op();
            tally[op.kind()] += 1;
            op
        }));
        flush_tally(&tally);
    }
}

/// Bits of an [`OpTrace`] word that hold the key; the three above them
/// hold the op's [`Op::kind`].
const KEY_BITS: u32 = 29;

/// The key field of a word whose key does not fit in [`KEY_BITS`]: the
/// full key follows in two words, low half first.
const WIDE_KEY: u32 = (1 << KEY_BITS) - 1;

/// A recorded YCSB op stream, replayable into any number of stores.
///
/// Fig. 5 runs the same stream against all seven Table 1
/// configurations. Each op drawn over its 200,000 keys costs a
/// closed-form Zipfian sample (two `powf` calls), so the study records
/// each stream once and replays it into every configuration's store
/// instead of drawing it seven times.
///
/// Ops are packed into `u32` words: the op's kind in the top three
/// bits and its key in the low 29. A scan's length takes a second
/// word, and a key of 2^29 − 1 or above takes two more words. Workloads
/// A–D over fewer than 2^29 − 1 keys therefore take 4 bytes an op.
#[derive(Debug)]
pub struct OpTrace {
    workload: Workload,
    cfg: GeneratorConfig,
    words: Vec<u32>,
    /// Ops of each kind, indexed by [`Op::kind`].
    tally: [u64; 5],
}

impl OpTrace {
    /// Records the first `ops` ops of `Generator::new(workload, cfg)`.
    ///
    /// Recording adds nothing to the `ycsb/ops/*` counters; each
    /// [`OpTrace::replay`] adds the trace's totals, as drawing the ops
    /// live would.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.record_count == 0`, as [`Generator::new`] does.
    pub fn record(workload: Workload, cfg: GeneratorConfig, ops: u64) -> Self {
        let mut generator = Generator::new(workload, cfg);
        let mut trace = Self {
            workload,
            cfg,
            words: Vec::with_capacity(ops as usize),
            tally: [0; 5],
        };
        for _ in 0..ops {
            trace.push(generator.draw_op());
        }
        trace
    }

    fn push(&mut self, op: Op) {
        self.tally[op.kind()] += 1;
        let tag = (op.kind() as u32) << KEY_BITS;
        let key = op.key();
        if key < u64::from(WIDE_KEY) {
            self.words.push(tag | key as u32);
        } else {
            self.words
                .extend([tag | WIDE_KEY, key as u32, (key >> 32) as u32]);
        }
        if let Op::Scan { len, .. } = op {
            self.words.push(len);
        }
    }

    /// The workload the trace was drawn from.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The generator configuration the trace was drawn from.
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Recorded ops.
    pub fn len(&self) -> u64 {
        self.tally.iter().sum()
    }

    /// True when the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays the ops in recorded order, adding the trace's per-type
    /// totals to the `ycsb/ops/*` counters once.
    pub fn replay(&self) -> Replay<'_> {
        flush_tally(&self.tally);
        Replay {
            words: self.words.iter(),
        }
    }
}

/// The ops of an [`OpTrace`], in recorded order (see
/// [`OpTrace::replay`]).
pub struct Replay<'a> {
    words: std::slice::Iter<'a, u32>,
}

impl Iterator for Replay<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let word = *self.words.next()?;
        let mut extra = || *self.words.next().expect("an op's extra words follow it");
        let mut key = u64::from(word & WIDE_KEY);
        if key == u64::from(WIDE_KEY) {
            key = u64::from(extra()) | u64::from(extra()) << 32;
        }
        Some(match word >> KEY_BITS {
            0 => Op::Read(key),
            1 => Op::Update(key),
            2 => Op::Insert(key),
            3 => Op::Scan {
                start: key,
                len: extra(),
            },
            4 => Op::ReadModifyWrite(key),
            kind => unreachable!("no op kind {kind}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(w: Workload) -> Generator {
        Generator::new(
            w,
            GeneratorConfig {
                record_count: 100_000,
                value_size: 1024,
                seed: 7,
            },
        )
    }

    #[test]
    fn batch_is_bit_identical_to_per_op_generation() {
        use std::sync::Arc;
        for w in Workload::extended() {
            // Same seed, two replicas: one draws per-op, one in blocks.
            // The op streams and the per-type obs counter totals must
            // both match exactly.
            let unbatched_reg = Arc::new(cxl_obs::Registry::new());
            let unbatched = {
                let _scope = cxl_obs::scope(unbatched_reg.clone());
                let mut g = gen(w);
                (0..1000).map(|_| g.next_op()).collect::<Vec<_>>()
            };
            let batched_reg = Arc::new(cxl_obs::Registry::new());
            let batched = {
                let _scope = cxl_obs::scope(batched_reg.clone());
                let mut g = gen(w);
                let mut ops = Vec::new();
                // Uneven block sizes to cross every tally path.
                for n in [1usize, 7, 64, 256, 672] {
                    ops.extend(g.batch(n));
                }
                ops
            };
            assert_eq!(unbatched, batched, "{}: op streams diverged", w.label());
            for name in OP_COUNTERS {
                assert_eq!(
                    unbatched_reg.counter(name),
                    batched_reg.counter(name),
                    "{}: counter {name} diverged",
                    w.label()
                );
            }
        }
    }

    #[test]
    fn replay_is_bit_identical_to_batch_generation() {
        use std::sync::Arc;
        for w in Workload::extended() {
            // Same config: one replica draws in blocks, one records a
            // trace and replays it. The op streams and the per-type obs
            // counter totals must both match exactly.
            let cfg = *gen(w).config();
            let batched_reg = Arc::new(cxl_obs::Registry::new());
            let batched = {
                let _scope = cxl_obs::scope(batched_reg.clone());
                gen(w).batch(1000)
            };
            let trace = OpTrace::record(w, cfg, 1000);
            let replayed_reg = Arc::new(cxl_obs::Registry::new());
            let replayed = {
                let _scope = cxl_obs::scope(replayed_reg.clone());
                trace.replay().collect::<Vec<_>>()
            };
            assert_eq!(batched, replayed, "{}: op streams diverged", w.label());
            assert_eq!((trace.workload(), *trace.config()), (w, cfg));
            assert_eq!(trace.len(), 1000);
            for name in OP_COUNTERS {
                assert_eq!(
                    batched_reg.counter(name),
                    replayed_reg.counter(name),
                    "{}: counter {name} diverged",
                    w.label()
                );
            }
            if Workload::all().contains(&w) {
                assert_eq!(trace.words.len(), 1000, "{}: 4 bytes an op", w.label());
            }
        }
    }

    #[test]
    fn trace_packs_wide_keys_and_scan_lengths() {
        let mut trace = OpTrace::record(Workload::A, *gen(Workload::A).config(), 0);
        let ops = [
            Op::Read(0),
            Op::Update(u64::from(WIDE_KEY) - 1),
            Op::Insert(u64::from(WIDE_KEY)),
            Op::Scan {
                start: 1 << 32,
                len: 100,
            },
            Op::ReadModifyWrite(u64::MAX),
            Op::Scan { start: 7, len: 1 },
        ];
        for op in ops {
            trace.push(op);
        }
        assert_eq!(trace.replay().collect::<Vec<_>>(), ops);
        assert_eq!(trace.words.len(), 1 + 1 + 3 + 4 + 3 + 2);
    }

    #[test]
    fn recording_counts_nothing_until_replayed() {
        use std::sync::Arc;
        let reg = Arc::new(cxl_obs::Registry::new());
        let _scope = cxl_obs::scope(reg.clone());
        let trace = OpTrace::record(Workload::C, *gen(Workload::C).config(), 500);
        assert_eq!(reg.counter("ycsb/ops/read"), None);
        for replays in 1..=2 {
            assert_eq!(trace.replay().count(), 500);
            assert_eq!(reg.counter("ycsb/ops/read"), Some(500 * replays));
        }
    }

    #[test]
    fn workload_mixes() {
        const N: usize = 50_000;
        for w in Workload::all() {
            let mut g = gen(w);
            let reads = g.batch(N).iter().filter(|o| !o.is_write()).count();
            let frac = reads as f64 / N as f64;
            assert!(
                (frac - w.read_fraction()).abs() < 0.02,
                "{}: observed {frac}",
                w.label()
            );
        }
    }

    #[test]
    fn workload_c_is_pure_reads() {
        let mut g = gen(Workload::C);
        assert!(g.batch(10_000).iter().all(|o| matches!(o, Op::Read(_))));
    }

    #[test]
    fn workload_a_updates_existing_keys() {
        let mut g = gen(Workload::A);
        for op in g.batch(10_000) {
            match op {
                Op::Read(k) | Op::Update(k) => assert!(k < 100_000),
                other => panic!("unexpected op in workload A: {other:?}"),
            }
        }
    }

    #[test]
    fn workload_d_inserts_monotonic_keys() {
        let mut g = gen(Workload::D);
        let mut last_insert = None;
        for op in g.batch(20_000) {
            if let Op::Insert(k) = op {
                if let Some(prev) = last_insert {
                    assert_eq!(k, prev + 1);
                }
                last_insert = Some(k);
            }
        }
        assert!(last_insert.is_some());
        assert!(g.key_count() > 100_000);
    }

    #[test]
    fn workload_d_reads_prefer_recent() {
        let mut g = gen(Workload::D);
        // Warm up with inserts mixed in.
        g.batch(20_000);
        let count = g.key_count();
        let recent_floor = count - count / 20; // Newest 5 %.
        let reads: Vec<u64> = g
            .batch(20_000)
            .into_iter()
            .filter_map(|o| match o {
                Op::Read(k) => Some(k),
                _ => None,
            })
            .collect();
        let recent = reads.iter().filter(|&&k| k >= recent_floor).count();
        let frac = recent as f64 / reads.len() as f64;
        assert!(frac > 0.5, "recent-read fraction {frac}");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = gen(Workload::A);
        let mut b = gen(Workload::A);
        assert_eq!(a.batch(1000), b.batch(1000));
    }

    #[test]
    fn different_workloads_use_different_streams() {
        let mut a = gen(Workload::B);
        let mut c = gen(Workload::C);
        let ka: Vec<u64> = a.batch(100).iter().map(|o| o.key()).collect();
        let kc: Vec<u64> = c.batch(100).iter().map(|o| o.key()).collect();
        assert_ne!(ka, kc);
    }

    #[test]
    fn zipfian_hot_keys_dominate() {
        let mut g = gen(Workload::C);
        let ops = g.batch(100_000);
        let mut counts = std::collections::HashMap::new();
        for op in &ops {
            *counts.entry(op.key()).or_insert(0u64) += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top_1pct: u64 = freq.iter().take(freq.len() / 100 + 1).sum();
        let frac = top_1pct as f64 / ops.len() as f64;
        assert!(frac > 0.2, "top-1% key mass {frac}");
    }

    #[test]
    fn workload_e_scans_with_bounded_length() {
        let mut g = gen(Workload::E);
        let mut scans = 0;
        let mut inserts = 0;
        for op in g.batch(20_000) {
            match op {
                Op::Scan { start, len } => {
                    scans += 1;
                    assert!(start < g.key_count());
                    assert!((1..=100).contains(&len));
                    assert!(!op.is_write());
                }
                Op::Insert(_) => inserts += 1,
                other => panic!("unexpected op in E: {other:?}"),
            }
        }
        assert!(scans > 18_000);
        assert!(inserts > 500);
    }

    #[test]
    fn workload_f_mixes_reads_and_rmw() {
        let mut g = gen(Workload::F);
        let mut rmw = 0;
        for op in g.batch(20_000) {
            match op {
                Op::Read(_) => {}
                Op::ReadModifyWrite(k) => {
                    rmw += 1;
                    assert!(k < 100_000);
                    assert!(op.is_write());
                }
                other => panic!("unexpected op in F: {other:?}"),
            }
        }
        let frac = rmw as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.02, "rmw fraction {frac}");
    }

    #[test]
    fn extended_suite_has_six_workloads() {
        assert_eq!(Workload::extended().len(), 6);
        assert_eq!(Workload::E.label(), "YCSB-E");
        assert_eq!(Workload::F.label(), "YCSB-F");
    }

    #[test]
    #[should_panic(expected = "record count must be positive")]
    fn empty_dataset_panics() {
        Generator::new(
            Workload::A,
            GeneratorConfig {
                record_count: 0,
                value_size: 1024,
                seed: 1,
            },
        );
    }
}
