//! Named counters, gauges, and fixed-bucket histograms with a
//! deterministic snapshot.
//!
//! The registry splits every metric into one of two classes at
//! registration time:
//!
//! * [`Class::Det`] — values that are a pure function of the job stream
//!   (packets, cycles, outcome counts, queue positions). Snapshots of
//!   this section must be byte-identical across repeated runs and any
//!   `--jobs` fan-out; CI `cmp`-gates exactly that.
//! * [`Class::Wall`] — anything schedule- or clock-dependent (wait and
//!   service latencies, derived backoff, process-global cache state).
//!   These render under a separate `"nondeterministic"` key so no
//!   consumer can accidentally diff them.
//!
//! Handles are cheap `Arc` clones; recording is lock-free atomics.
//! Registration takes the registry lock once and is idempotent: asking
//! for an existing name returns the existing instrument (a kind or
//! class mismatch panics — that is a programming error, not load).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Determinism class of a metric — decides which snapshot section it
/// renders under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Architectural: a pure function of the job stream, byte-identical
    /// across runs and worker counts.
    Det,
    /// Wall-clock / schedule-dependent: excluded from `cmp`-gated
    /// reports.
    Wall,
}

/// Monotone event count.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins level (queue depth, derived backoff, residency).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise to `v` if `v` is larger (high-water tracking).
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing. Bucket `i` counts
    /// observations `v <= bounds[i]`; one extra overflow bucket catches
    /// the rest.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Fixed-bucket histogram. Bounds are part of the metric's identity:
/// re-registering the same name with different bounds panics.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    pub fn observe(&self, v: u64) {
        let c = &self.0;
        let idx = c.bounds.partition_point(|&b| b < v);
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Immutable value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram { bounds: Vec<u64>, buckets: Vec<u64>, count: u64, sum: u64 },
}

impl MetricValue {
    /// Upper bound of the bucket that contains the q-permille
    /// observation (`permille` in `0..=1000`). Returns `None` for
    /// non-histograms and empty histograms; observations that landed in
    /// the overflow bucket report `u64::MAX`.
    pub fn quantile_le(&self, permille: u64) -> Option<u64> {
        let MetricValue::Histogram { bounds, buckets, count, .. } = self else {
            return None;
        };
        if *count == 0 {
            return None;
        }
        let rank = (count * permille).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Scalar reading for counters and gauges.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram { .. } => None,
        }
    }

    fn to_json(&self) -> String {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v.to_string(),
            MetricValue::Histogram { bounds, buckets, count, sum } => {
                let join =
                    |xs: &[u64]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
                format!(
                    "{{\"bounds\":[{}],\"buckets\":[{}],\"count\":{count},\"sum\":{sum}}}",
                    join(bounds),
                    join(buckets)
                )
            }
        }
    }
}

/// Point-in-time view of a registry, split by determinism class and
/// sorted by metric name in both sections.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub det: Vec<(String, MetricValue)>,
    pub wall: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look a metric up by name in either section.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.det.iter().chain(self.wall.iter()).find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn section_json(section: &[(String, MetricValue)]) -> String {
        let fields: Vec<String> =
            section.iter().map(|(n, v)| format!("{}:{}", json_str(n), v.to_json())).collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The deterministic section alone — the `cmp`-gated artifact.
    pub fn det_json(&self) -> String {
        format!("{{\"deterministic\":{}}}", Self::section_json(&self.det))
    }

    /// Both sections, wall-clock values clearly quarantined.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"deterministic\":{},\"nondeterministic\":{}}}",
            Self::section_json(&self.det),
            Self::section_json(&self.wall)
        )
    }

    /// Merge two snapshots name-by-name: counters and histogram buckets
    /// add, gauges keep the maximum (a merged gauge is a high-water
    /// mark, not a level). Merging is commutative and associative, so a
    /// fold over per-shard snapshots is shard-order-independent.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            det: Self::merge_section(&self.det, &other.det),
            wall: Self::merge_section(&self.wall, &other.wall),
        }
    }

    fn merge_section(
        a: &[(String, MetricValue)],
        b: &[(String, MetricValue)],
    ) -> Vec<(String, MetricValue)> {
        let mut merged: BTreeMap<String, MetricValue> = a.iter().cloned().collect();
        for (name, v) in b {
            match merged.get_mut(name) {
                None => {
                    merged.insert(name.clone(), v.clone());
                }
                Some(have) => merge_values(have, v),
            }
        }
        merged.into_iter().collect()
    }
}

fn merge_values(into: &mut MetricValue, from: &MetricValue) {
    match (into, from) {
        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
        (
            MetricValue::Histogram { bounds: ba, buckets: ka, count: ca, sum: sa },
            MetricValue::Histogram { bounds: bb, buckets: kb, count: cb, sum: sb },
        ) => {
            assert_eq!(ba, bb, "histogram bounds mismatch in merge");
            for (a, b) in ka.iter_mut().zip(kb) {
                *a += b;
            }
            *ca += cb;
            *sa += sb;
        }
        (a, b) => panic!("metric kind mismatch in merge: {a:?} vs {b:?}"),
    }
}

/// The registry: a name → instrument map behind one mutex (taken only
/// at registration and snapshot time; recording never locks).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, (Class, Instrument)>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, (Class, Instrument)>> {
        // A panic while holding the lock leaves plain data behind;
        // observability must keep working through chaos-killed workers.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn counter(&self, name: &str, class: Class) -> Counter {
        let mut map = self.lock();
        match map.get(name) {
            Some((have, Instrument::Counter(c))) => {
                assert_eq!(*have, class, "counter {name} re-registered under another class");
                c.clone()
            }
            Some(_) => panic!("metric {name} already registered with another kind"),
            None => {
                let c = Counter(Arc::new(AtomicU64::new(0)));
                map.insert(name.to_string(), (class, Instrument::Counter(c.clone())));
                c
            }
        }
    }

    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        let mut map = self.lock();
        match map.get(name) {
            Some((have, Instrument::Gauge(g))) => {
                assert_eq!(*have, class, "gauge {name} re-registered under another class");
                g.clone()
            }
            Some(_) => panic!("metric {name} already registered with another kind"),
            None => {
                let g = Gauge(Arc::new(AtomicU64::new(0)));
                map.insert(name.to_string(), (class, Instrument::Gauge(g.clone())));
                g
            }
        }
    }

    pub fn histogram(&self, name: &str, class: Class, bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name} needs at least one bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram {name} bounds must increase");
        let mut map = self.lock();
        match map.get(name) {
            Some((have, Instrument::Histogram(h))) => {
                assert_eq!(*have, class, "histogram {name} re-registered under another class");
                assert_eq!(h.0.bounds, bounds, "histogram {name} re-registered with other bounds");
                h.clone()
            }
            Some(_) => panic!("metric {name} already registered with another kind"),
            None => {
                let h = Histogram(Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }));
                map.insert(name.to_string(), (class, Instrument::Histogram(h.clone())));
                h
            }
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        let mut snap = Snapshot::default();
        for (name, (class, inst)) in map.iter() {
            let value = match inst {
                Instrument::Counter(c) => MetricValue::Counter(c.get()),
                Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                Instrument::Histogram(h) => MetricValue::Histogram {
                    bounds: h.0.bounds.clone(),
                    buckets: h.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                    count: h.0.count.load(Ordering::Relaxed),
                    sum: h.0.sum.load(Ordering::Relaxed),
                },
            };
            match class {
                Class::Det => snap.det.push((name.clone(), value)),
                Class::Wall => snap.wall.push((name.clone(), value)),
            }
        }
        // BTreeMap iteration is already name-sorted; keep that order.
        snap
    }
}

/// Minimal JSON string escaper (the crate stays dependency-free, so it
/// cannot borrow `majc_core::json::quote`).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("jobs.total", Class::Det);
        let b = reg.counter("jobs.total", Class::Det);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.get("jobs.total"), Some(&MetricValue::Counter(3)));
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", Class::Det);
        reg.gauge("x", Class::Det);
    }

    #[test]
    #[should_panic(expected = "another class")]
    fn class_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", Class::Det);
        reg.counter("x", Class::Wall);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", Class::Wall, &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        match snap.get("lat").unwrap() {
            MetricValue::Histogram { buckets, count, sum, .. } => {
                assert_eq!(buckets, &[2, 2, 2], "le-10 / le-100 / overflow");
                assert_eq!(*count, 6);
                assert_eq!(*sum, 5222);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!((h.count(), h.sum()), (6, 5222), "live reads match the snapshot");
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", Class::Wall, &[10, 100, 1000]);
        for _ in 0..98 {
            h.observe(5);
        }
        h.observe(500);
        h.observe(1_000_000);
        let snap = reg.snapshot();
        let v = snap.get("lat").unwrap();
        assert_eq!(v.quantile_le(500), Some(10));
        assert_eq!(v.quantile_le(990), Some(1000));
        assert_eq!(v.quantile_le(1000), Some(u64::MAX), "overflow bucket");
        assert_eq!(MetricValue::Counter(3).quantile_le(500), None);
    }

    #[test]
    fn snapshot_json_is_sorted_and_sectioned() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count", Class::Det).add(2);
        reg.counter("a.count", Class::Det).add(1);
        reg.gauge("z.level", Class::Wall).set(9);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"deterministic\":{\"a.count\":1,\"b.count\":2},\
             \"nondeterministic\":{\"z.level\":9}}"
        );
        let det = reg.snapshot().det_json();
        assert!(!det.contains("z.level"), "wall metrics never leak into the det report");
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |jobs: u64, depth: u64, lat: &[u64]| {
            let reg = MetricsRegistry::new();
            reg.counter("jobs", Class::Det).add(jobs);
            reg.gauge("depth.peak", Class::Det).set(depth);
            let h = reg.histogram("lat", Class::Wall, &[10, 100]);
            for &v in lat {
                h.observe(v);
            }
            reg.snapshot()
        };
        let a = mk(3, 2, &[5, 50]);
        let b = mk(4, 7, &[500]);
        let ab = a.merge(&b);
        let ba = b.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("jobs"), Some(&MetricValue::Counter(7)));
        assert_eq!(ab.get("depth.peak"), Some(&MetricValue::Gauge(7)), "gauges merge as max");
        match ab.get("lat").unwrap() {
            MetricValue::Histogram { buckets, count, sum, .. } => {
                assert_eq!(buckets, &[1, 1, 1]);
                assert_eq!((*count, *sum), (3, 555));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn json_str_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
