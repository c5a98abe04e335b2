//! Named counters and log₂ histograms.
//!
//! The registry is the fleet-aggregatable side of the telemetry story:
//! every series behind Tables 1–3 (syscalls by kind, TLB misses, pages
//! protected, shadow-VA consumed, pool free-list hit rate, per-pool
//! wastage) is a named counter or histogram here, snapshotted into the
//! `BENCH_*.json` artifacts. Hot paths register once and keep an integer
//! [`CounterHandle`]; convenience paths use `add_named` (linear scan over
//! a handful of names — fine at simulator speeds).

/// Cheap index into the registry's counter table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHandle(pub(crate) usize);

/// Cheap index into the registry's histogram table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// A log₂-bucketed histogram: bucket *i* counts values `v` with
/// `floor(log2(v)) == i` (value 0 lands in bucket 0 alongside 1).
///
/// 64 buckets cover the whole `u64` range, so sizing never clips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl Histogram {
    /// Index of the bucket `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 { 0 } else { self.max }
    }

    /// Count in bucket `i` (values in `[2^i, 2^(i+1))`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// The non-empty buckets as `(bucket_floor, count)` pairs, where
    /// `bucket_floor` is `2^i` (1 for bucket 0).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (1u64 << i, *c))
            .collect()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), resolved to the floor of the
    /// log₂ bucket containing it — the histogram's resolution limit. 0
    /// when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return 1u64 << i;
            }
        }
        self.max
    }
}

/// Point-in-time copy of one histogram, as exported to JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median, at log₂-bucket resolution (see [`Histogram::percentile`]).
    pub p50: u64,
    /// 99th percentile, at log₂-bucket resolution.
    pub p99: u64,
    /// 99.9th percentile, at log₂-bucket resolution.
    pub p999: u64,
    /// Non-empty `(bucket_floor, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, in registration order.
    pub counters: Vec<(String, u64)>,
    /// All histograms, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter in the snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Serializes the snapshot as `{ "counters": {..}, "histograms": [..] }`.
    ///
    /// Series are emitted sorted by name, not in registration order:
    /// different configurations touch counters in different orders, and
    /// artifact diffing needs byte-stable key emission across them.
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        let mut counters: Vec<_> =
            self.counters.iter().map(|(n, v)| (n.clone(), Json::from_u64(*v))).collect();
        counters.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut by_name: Vec<_> = self.histograms.iter().collect();
        by_name.sort_by(|a, b| a.name.cmp(&b.name));
        let histograms = by_name
            .into_iter()
            .map(|h| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(h.name.clone())),
                    ("count".into(), Json::from_u64(h.count)),
                    ("sum".into(), Json::from_u64(h.sum)),
                    ("min".into(), Json::from_u64(h.min)),
                    ("max".into(), Json::from_u64(h.max)),
                    ("p50".into(), Json::from_u64(h.p50)),
                    ("p99".into(), Json::from_u64(h.p99)),
                    ("p999".into(), Json::from_u64(h.p999)),
                    (
                        "buckets".into(),
                        Json::Arr(
                            h.buckets
                                .iter()
                                .map(|(f, c)| {
                                    Json::Arr(vec![Json::from_u64(*f), Json::from_u64(*c)])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("histograms".into(), Json::Arr(histograms)),
        ])
    }
}

/// The registry proper: flat name→value tables with handle access.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter and returns its handle.
    pub fn counter_handle(&mut self, name: &str) -> CounterHandle {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterHandle(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterHandle(self.counters.len() - 1)
    }

    /// Adds through a handle — the hot path.
    pub fn add(&mut self, h: CounterHandle, delta: u64) {
        self.counters[h.0].1 += delta;
    }

    /// Adds by name, registering on first use.
    pub fn add_named(&mut self, name: &str, delta: u64) {
        let h = self.counter_handle(name);
        self.add(h, delta);
    }

    /// Current value of a named counter (0 if unregistered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Registers (or finds) a histogram and returns its handle.
    pub fn histogram_handle(&mut self, name: &str) -> HistogramHandle {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramHandle(i);
        }
        self.histograms.push((name.to_string(), Histogram::default()));
        HistogramHandle(self.histograms.len() - 1)
    }

    /// Observes through a handle.
    pub fn observe(&mut self, h: HistogramHandle, value: u64) {
        self.histograms[h.0].1.observe(value);
    }

    /// Observes by name, registering on first use.
    pub fn observe_named(&mut self, name: &str, value: u64) {
        let h = self.histogram_handle(name);
        self.observe(h, value);
    }

    /// A named histogram's read side, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Copies every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| HistogramSnapshot {
                    name: n.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.percentile(0.50),
                    p99: h.percentile(0.99),
                    p999: h.percentile(0.999),
                    buckets: h.nonzero_buckets(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_idempotent() {
        let mut r = MetricsRegistry::new();
        let a = r.counter_handle("a");
        let b = r.counter_handle("b");
        assert_eq!(r.counter_handle("a"), a);
        r.add(a, 2);
        r.add(b, 5);
        r.add_named("a", 1);
        assert_eq!(r.counter_value("a"), 3);
        assert_eq!(r.counter_value("b"), 5);
        assert_eq!(r.counter_value("missing"), 0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(7), 2);
        assert_eq!(Histogram::bucket_of(8), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_observe_tracks_extremes_and_buckets() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.bucket(0), 2, "0 and 1 share bucket 0");
        assert_eq!(h.bucket(1), 2, "2 and 3");
        assert_eq!(h.bucket(2), 1, "4");
        assert_eq!(h.bucket(10), 1, "1024");
        assert_eq!(h.nonzero_buckets(), vec![(1, 2), (2, 2), (4, 1), (1024, 1)]);
    }

    #[test]
    fn empty_histogram_reports_zero_extremes() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn percentiles_resolve_to_bucket_floors() {
        let mut h = Histogram::default();
        // 99 small observations and one huge outlier.
        for _ in 0..99 {
            h.observe(100); // bucket 6 (floor 64)
        }
        h.observe(1_000_000); // bucket 19 (floor 524288)
        assert_eq!(h.percentile(0.50), 64);
        assert_eq!(h.percentile(0.99), 64);
        assert_eq!(h.percentile(0.999), 524_288);
        assert_eq!(h.percentile(1.0), 524_288);
    }

    #[test]
    fn snapshot_preserves_registration_order() {
        let mut r = MetricsRegistry::new();
        r.add_named("z", 1);
        r.add_named("a", 2);
        r.observe_named("lat", 5);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("z".to_string(), 1), ("a".to_string(), 2)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].name, "lat");
        assert_eq!(s.histograms[0].count, 1);
        assert_eq!(s.counter("z"), 1);
        assert_eq!(s.counter("nope"), 0);
    }

    #[test]
    fn snapshot_to_json_contains_series() {
        let mut r = MetricsRegistry::new();
        r.add_named("vmm.mmap", 7);
        r.observe_named("alloc.bytes", 48);
        let j = r.snapshot().to_json();
        let text = j.to_string();
        assert!(text.contains("\"vmm.mmap\":7"));
        assert!(text.contains("\"alloc.bytes\""));
    }

    #[test]
    fn snapshot_json_is_sorted_regardless_of_registration_order() {
        let mut a = MetricsRegistry::new();
        a.add_named("zeta", 1);
        a.add_named("alpha", 2);
        a.observe_named("h.z", 5);
        a.observe_named("h.a", 5);
        let mut b = MetricsRegistry::new();
        b.add_named("alpha", 2);
        b.add_named("zeta", 1);
        b.observe_named("h.a", 5);
        b.observe_named("h.z", 5);
        assert_eq!(a.snapshot().to_json().to_string(), b.snapshot().to_json().to_string());
    }
}
