//! The metrics registry: named counters, maxima, gauges, histograms.

use std::collections::BTreeMap;
use std::sync::Mutex;

use cxl_stats::Histogram;
use serde::Value;

/// Determinism class of a metric.
///
/// [`Class::Sim`] values are functions of simulated time and simulated
/// state: across runs of the same cells — at any worker count — the
/// aggregated value is bit-identical, because every mutation (counter
/// add, bucket increment, max) is commutative. [`Class::Wall`] values
/// depend on the wall clock or thread scheduling and are excluded from
/// determinism comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Deterministic in simulated time; safe to diff across `--jobs`.
    Sim,
    /// Wall-clock or scheduling dependent.
    Wall,
}

/// Current value of one metric.
#[derive(Debug, Clone)]
enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// High-water mark.
    Max(u64),
    /// Last-written value.
    Gauge(f64),
    /// Distribution of `u64` samples.
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Max(_) => "max",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    class: Class,
    value: MetricValue,
}

/// A thread-safe collection of named metrics.
///
/// Names are free-form `/`-separated paths (`tier/promotions`,
/// `kv/access_ns/cxl`). The first write fixes a name's shape and
/// [`Class`]; a later write of a different shape panics (instrumentation
/// bug), while class is required to match only in debug builds.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn update(
        &self,
        class: Class,
        name: &str,
        apply: impl FnOnce(&mut MetricValue),
        init: impl FnOnce() -> MetricValue,
    ) {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        // Look up before inserting: only a metric's first write
        // allocates its name.
        let entry = match m.get_mut(name) {
            Some(entry) => entry,
            None => m.entry(name.to_string()).or_insert(Metric {
                class,
                value: init(),
            }),
        };
        debug_assert!(
            entry.class == class,
            "metric {name:?} re-registered with a different determinism class"
        );
        apply(&mut entry.value);
    }

    /// Adds `n` to the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-counter metric.
    pub fn counter_add(&self, class: Class, name: &str, n: u64) {
        self.update(
            class,
            name,
            |v| match v {
                MetricValue::Counter(c) => *c += n,
                other => panic!("metric {name:?} is a {}, not a counter", other.type_name()),
            },
            || MetricValue::Counter(0),
        );
    }

    /// Raises the high-water mark `name` to at least `v`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-max metric.
    pub fn counter_max(&self, class: Class, name: &str, v: u64) {
        self.update(
            class,
            name,
            |val| match val {
                MetricValue::Max(m) => *m = (*m).max(v),
                other => panic!("metric {name:?} is a {}, not a max", other.type_name()),
            },
            || MetricValue::Max(0),
        );
    }

    /// Sets the gauge `name` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-gauge metric.
    pub fn gauge_set(&self, class: Class, name: &str, v: f64) {
        self.update(
            class,
            name,
            |val| match val {
                MetricValue::Gauge(g) => *g = v,
                other => panic!("metric {name:?} is a {}, not a gauge", other.type_name()),
            },
            || MetricValue::Gauge(0.0),
        );
    }

    /// Records one sample into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-histogram metric.
    pub fn record(&self, class: Class, name: &str, value: u64) {
        self.update(
            class,
            name,
            |val| match val {
                MetricValue::Histogram(h) => h.record(value),
                other => panic!(
                    "metric {name:?} is a {}, not a histogram",
                    other.type_name()
                ),
            },
            || MetricValue::Histogram(Histogram::new()),
        );
    }

    /// Adds every sample of `h` to the histogram `name`: the same state
    /// one [`Registry::record`] per sample would leave, since histogram
    /// sums are exact. An empty `h` changes nothing and registers no
    /// metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-histogram metric.
    pub fn merge(&self, class: Class, name: &str, h: &Histogram) {
        if h.count() == 0 {
            return;
        }
        self.update(
            class,
            name,
            |val| match val {
                MetricValue::Histogram(mine) => mine.merge(h),
                other => panic!(
                    "metric {name:?} is a {}, not a histogram",
                    other.type_name()
                ),
            },
            || MetricValue::Histogram(Histogram::new()),
        );
    }

    /// Value of the counter `name` (`None` when absent or another shape).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self
            .metrics
            .lock()
            .expect("metrics registry poisoned")
            .get(name)
        {
            Some(Metric {
                value: MetricValue::Counter(c),
                ..
            }) => Some(*c),
            _ => None,
        }
    }

    /// Value of the high-water mark `name`.
    pub fn max(&self, name: &str) -> Option<u64> {
        match self
            .metrics
            .lock()
            .expect("metrics registry poisoned")
            .get(name)
        {
            Some(Metric {
                value: MetricValue::Max(m),
                ..
            }) => Some(*m),
            _ => None,
        }
    }

    /// Value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self
            .metrics
            .lock()
            .expect("metrics registry poisoned")
            .get(name)
        {
            Some(Metric {
                value: MetricValue::Gauge(g),
                ..
            }) => Some(*g),
            _ => None,
        }
    }

    /// Clone of the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self
            .metrics
            .lock()
            .expect("metrics registry poisoned")
            .get(name)
        {
            Some(Metric {
                value: MetricValue::Histogram(h),
                ..
            }) => Some(h.clone()),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics
            .lock()
            .expect("metrics registry poisoned")
            .len()
    }

    /// True when no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn section(&self, class: Class) -> Value {
        let m = self.metrics.lock().expect("metrics registry poisoned");
        Value::Object(
            m.iter()
                .filter(|(_, metric)| metric.class == class)
                .map(|(name, metric)| (name.clone(), metric_value_json(&metric.value)))
                .collect(),
        )
    }

    /// Full JSON export: `{"schema": "cxl-obs/v1", "sim": {…}, "wall": {…}}`.
    ///
    /// Metric names are sorted, numbers print with shortest-round-trip
    /// formatting, and the `sim` section is a pure function of the
    /// simulated work — two runs of the same cells produce byte-equal
    /// `sim` sections at any worker count.
    pub fn export_json(&self) -> String {
        let v = Value::Object(vec![
            ("schema".to_string(), Value::Str("cxl-obs/v1".to_string())),
            ("sim".to_string(), self.section(Class::Sim)),
            ("wall".to_string(), self.section(Class::Wall)),
        ]);
        serde_json::to_string_pretty(&v).expect("metrics serialize")
    }

    /// JSON export of the deterministic ([`Class::Sim`]) section only —
    /// the byte-comparable payload for `--jobs` cross-checks.
    pub fn export_sim_json(&self) -> String {
        serde_json::to_string_pretty(&self.section(Class::Sim)).expect("metrics serialize")
    }
}

fn metric_value_json(v: &MetricValue) -> Value {
    use serde::Serialize as _;
    match v {
        MetricValue::Counter(c) => Value::Object(vec![
            ("type".into(), Value::Str("counter".into())),
            ("value".into(), c.to_value()),
        ]),
        MetricValue::Max(m) => Value::Object(vec![
            ("type".into(), Value::Str("max".into())),
            ("value".into(), m.to_value()),
        ]),
        MetricValue::Gauge(g) => Value::Object(vec![
            ("type".into(), Value::Str("gauge".into())),
            ("value".into(), Value::F64(*g)),
        ]),
        MetricValue::Histogram(h) => {
            let (p50, p95, p99, p999) = h.tail();
            Value::Object(vec![
                ("type".into(), Value::Str("histogram".into())),
                ("count".into(), h.count().to_value()),
                ("min".into(), h.min().to_value()),
                ("max".into(), h.max().to_value()),
                ("mean".into(), Value::F64(h.mean())),
                ("p50".into(), p50.to_value()),
                ("p95".into(), p95.to_value()),
                ("p99".into(), p99.to_value()),
                ("p999".into(), p999.to_value()),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "a", 1);
        r.counter_add(Class::Sim, "a", 41);
        assert_eq!(r.counter("a"), Some(42));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn max_keeps_high_water_mark() {
        let r = Registry::new();
        r.counter_max(Class::Sim, "hwm", 10);
        r.counter_max(Class::Sim, "hwm", 3);
        r.counter_max(Class::Sim, "hwm", 17);
        assert_eq!(r.max("hwm"), Some(17));
    }

    #[test]
    fn gauges_take_last_write() {
        let r = Registry::new();
        r.gauge_set(Class::Sim, "g", 0.25);
        r.gauge_set(Class::Sim, "g", 0.75);
        assert_eq!(r.gauge("g"), Some(0.75));
    }

    #[test]
    fn histograms_record() {
        let r = Registry::new();
        r.record(Class::Sim, "h", 100);
        r.record(Class::Sim, "h", 300);
        r.record(Class::Sim, "h", 200);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn merge_equals_recording_each_sample() {
        let samples = [0, 7, 97, 250, 485, 1_000_000, u64::MAX];
        let one_by_one = Registry::new();
        let mut h = Histogram::new();
        for v in samples {
            one_by_one.record(Class::Sim, "h", v);
            h.record(v);
        }
        let merged = Registry::new();
        merged.merge(Class::Sim, "h", &Histogram::new());
        assert!(merged.is_empty(), "an empty merge registers nothing");
        merged.merge(Class::Sim, "h", &h);
        assert_eq!(merged.histogram("h"), one_by_one.histogram("h"));
        assert_eq!(merged.export_json(), one_by_one.export_json());
        // Into an existing histogram, too.
        one_by_one.record(Class::Sim, "h", 3);
        merged.merge(Class::Sim, "h", &{
            let mut more = Histogram::new();
            more.record(3);
            more
        });
        assert_eq!(merged.histogram("h"), one_by_one.histogram("h"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn shape_mismatch_panics() {
        let r = Registry::new();
        r.record(Class::Sim, "x", 1);
        r.counter_add(Class::Sim, "x", 1);
    }

    #[test]
    fn export_is_sorted_and_parses() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "z/last", 1);
        r.counter_add(Class::Sim, "a/first", 2);
        r.record(Class::Wall, "wall/hist", 5);
        let full = r.export_json();
        let v = serde_json::parse_value(&full).expect("export parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("cxl-obs/v1"));
        let sim = v.get("sim").expect("sim section");
        assert!(sim.get("a/first").is_some());
        assert!(sim.get("wall/hist").is_none());
        assert!(v.get("wall").and_then(|w| w.get("wall/hist")).is_some());
        // Sorted: "a/first" appears before "z/last".
        assert!(full.find("a/first").unwrap() < full.find("z/last").unwrap());
    }

    #[test]
    fn sim_export_excludes_wall_metrics() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "det", 1);
        r.counter_add(Class::Wall, "sched", 1);
        let sim = r.export_sim_json();
        assert!(sim.contains("det"));
        assert!(!sim.contains("sched"));
    }
}
