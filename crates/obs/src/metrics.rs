//! Named counters, gauges, and log-scale latency histograms.
//!
//! Instruments live in a process-global registry keyed by name, so any
//! layer can record into `sam.embed_cache.hit` without plumbing handles.
//! Lookup takes a mutex; call sites on hot paths should either hold the
//! returned `Arc` (the pool workers do) or gate on
//! [`crate::enabled`]/[`crate::full`] like the pipeline does.
//!
//! ## Units
//!
//! Histogram values are plain `u64`s; the *name suffix* declares the
//! unit. By convention: `*.lat` histograms hold **microseconds** (fed by
//! [`record_ms`], read back as milliseconds by [`latency_rows`]),
//! `*_ns` counters hold nanoseconds, and everything else is a count.

use std::borrow::Cow;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lock;

use std::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

const N_BUCKETS: usize = 512;

/// A lock-free log-scale histogram over `u64` values.
///
/// Values with the same floor-log2 exponent `e` share 8 sub-buckets
/// selected by the three bits below the leading bit, so every bucket
/// spans at most 1/8 of an octave and the reported percentile midpoint
/// is within ~6% of the true order statistic. 512 buckets cover the
/// whole `u64` range; recording is two relaxed `fetch_add`s plus a
/// `fetch_max`.
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // e >= 3
    e * 8 + ((v >> (e - 3)) & 7) as usize
}

fn bucket_mid(idx: usize) -> f64 {
    if idx < 8 {
        return idx as f64;
    }
    let (e, sub) = (idx / 8, idx % 8);
    let width = 1u64 << (e - 3);
    let lo = (8 + sub as u64) * width;
    lo as f64 + (width.saturating_sub(1)) as f64 / 2.0
}

/// Inclusive upper bound of bucket `idx` — the largest value that
/// [`bucket_index`] maps into it (the Prometheus `le=` bound).
fn bucket_hi(idx: usize) -> f64 {
    if idx < 8 {
        return idx as f64;
    }
    let (e, sub) = (idx / 8, idx % 8);
    let width = 1u64 << (e - 3);
    let lo = (8 + sub as u64) * width;
    (lo + (width - 1)) as f64
}

impl Histogram {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest recorded value (exact, not bucketed; 0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate `p`-th percentile (`p` in `[0, 1]`) as the midpoint
    /// of the bucket holding that order statistic. 0 when empty.
    pub(crate) fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * (n as f64 - 1.0)).round() as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            if cum > rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(N_BUCKETS - 1)
    }

    /// Sum of all recorded values (native unit).
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts as `(upper_bound, cumulative_count)`
    /// pairs in ascending bound order, one pair per *non-empty* bucket.
    /// `upper_bound` is the largest value the bucket can hold, so the
    /// pairs are exactly Prometheus `le=` cumulative buckets (monotone
    /// non-decreasing counts by construction). Empty when no values
    /// were recorded.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((bucket_hi(i), cum));
        }
        out
    }

    /// Point-in-time summary statistics.
    pub fn stats(&self) -> HistogramStats {
        HistogramStats {
            count: self.count(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            max: self.max(),
        }
    }
}

/// Summary of one histogram, in the histogram's native unit.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Number of recorded values.
    pub count: u64,
    /// Mean value.
    pub(crate) mean: f64,
    /// Median (bucket midpoint).
    pub(crate) p50: f64,
    /// 90th percentile (bucket midpoint).
    pub(crate) p90: f64,
    /// 99th percentile (bucket midpoint).
    pub p99: f64,
    /// Exact maximum.
    pub(crate) max: u64,
}

// ---- the registry ----------------------------------------------------------

struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
    })
}

fn get_or_insert<T: Default>(table: &Mutex<Vec<(String, Arc<T>)>>, name: Cow<'_, str>) -> Arc<T> {
    let mut t = lock(table);
    if let Some((_, v)) = t.iter().find(|(k, _)| *k == name) {
        return Arc::clone(v);
    }
    let v = Arc::<T>::default();
    t.push((name.into_owned(), Arc::clone(&v)));
    v
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: impl Into<Cow<'static, str>>) -> Arc<Counter> {
    get_or_insert(&registry().counters, name.into())
}

/// The gauge registered under `name` (created on first use).
pub fn gauge(name: impl Into<Cow<'static, str>>) -> Arc<Gauge> {
    get_or_insert(&registry().gauges, name.into())
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: impl Into<Cow<'static, str>>) -> Arc<Histogram> {
    get_or_insert(&registry().histograms, name.into())
}

/// Record a stage latency in milliseconds into the `*.lat` histogram
/// `name` (stored as integer microseconds). No-op when recording is off,
/// so pipeline code can call this unconditionally.
pub fn record_ms(name: impl Into<Cow<'static, str>>, ms: f64) {
    if !crate::enabled() {
        return;
    }
    histogram(name).record((ms.max(0.0) * 1e3).round() as u64);
}

/// Point-in-time copy of every registered instrument.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub(crate) gauges: Vec<(String, i64)>,
    /// Histogram name → summary statistics (native unit).
    pub histograms: Vec<(String, HistogramStats)>,
}

/// Snapshot every registered metric, names sorted.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut snap = MetricsSnapshot {
        counters: lock(&reg.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect(),
        gauges: lock(&reg.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect(),
        histograms: lock(&reg.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect(),
    };
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    snap
}

/// One row of the per-stage latency table (milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Stage name with the `.lat` suffix stripped.
    pub stage: String,
    /// Number of recorded runs.
    pub count: u64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
}

/// Rows for every `*.lat` histogram (the ones fed by [`record_ms`]),
/// converted from stored microseconds to milliseconds, sorted by name.
pub fn latency_rows() -> Vec<LatencyRow> {
    let mut rows: Vec<LatencyRow> = lock(&registry().histograms)
        .iter()
        .filter(|(k, _)| k.ends_with(".lat"))
        .map(|(k, v)| {
            let s = v.stats();
            LatencyRow {
                stage: k.trim_end_matches(".lat").to_string(),
                count: s.count,
                p50_ms: s.p50 / 1e3,
                p90_ms: s.p90 / 1e3,
                p99_ms: s.p99 / 1e3,
                mean_ms: s.mean / 1e3,
            }
        })
        .filter(|r| r.count > 0)
        .collect();
    rows.sort_by(|a, b| a.stage.cmp(&b.stage));
    rows
}

/// Live handles to every registered histogram, name-sorted — for
/// renderers (the Prometheus exposition) that need bucket-level access
/// beyond what [`HistogramStats`] summarizes.
pub(crate) fn histogram_handles() -> Vec<(String, Arc<Histogram>)> {
    let mut hs: Vec<(String, Arc<Histogram>)> = lock(&registry().histograms)
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    hs.sort_by(|a, b| a.0.cmp(&b.0));
    hs
}

/// Unregister every metric. `Arc` handles held by callers keep working
/// but record into detached instruments no longer visible to snapshots.
pub(crate) fn reset_metrics() {
    let reg = registry();
    lock(&reg.counters).clear();
    lock(&reg.gauges).clear();
    lock(&reg.histograms).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < 1 << 40 {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS);
            assert!(idx >= prev, "index must not decrease at v={v}");
            prev = idx;
            v = (v + 1).next_multiple_of((v / 7).max(1));
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_mid_inside_bucket() {
        for v in [0u64, 1, 7, 8, 9, 100, 1023, 1 << 20, u64::MAX / 3] {
            let idx = bucket_index(v);
            let mid = bucket_mid(idx);
            // The midpoint is within ~1/16 octave of the value.
            if v >= 8 {
                assert!((mid - v as f64).abs() / v as f64 <= 0.07, "v={v} mid={mid}");
            } else {
                assert_eq!(mid, v as f64);
            }
        }
    }

    /// Percentiles against a sorted-vector oracle: deterministic
    /// pseudo-random values spanning several orders of magnitude.
    #[test]
    fn percentiles_match_sorted_oracle() {
        let h = Histogram::default();
        let mut values = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..10_000 {
            // xorshift64* — no external rand dependency in this crate.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let v = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % 5_000_000;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for p in [0.5, 0.9, 0.99] {
            let oracle = values[((p * (values.len() as f64 - 1.0)).round()) as usize] as f64;
            let got = h.percentile(p);
            let rel = (got - oracle).abs() / oracle.max(1.0);
            assert!(rel <= 0.07, "p{p}: oracle {oracle} got {got} rel {rel}");
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), *values.last().unwrap());
        let mean_oracle = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((h.mean() - mean_oracle).abs() < 1e-6);
    }

    #[test]
    fn percentile_extremes_and_empty() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0.0);
        h.record(42);
        // A single value: every percentile lands in its bucket.
        for p in [0.0, 0.5, 1.0] {
            assert!((h.percentile(p) - 42.0).abs() <= 3.0);
        }
    }

    #[test]
    fn registry_returns_same_instrument() {
        let a = counter("test.metrics.same");
        let b = counter("test.metrics.same");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn latency_rows_convert_to_ms() {
        let h = histogram("test.stage.lat");
        h.record(2_000); // 2 ms in µs
        h.record(4_000);
        let rows = latency_rows();
        let row = rows.iter().find(|r| r.stage == "test.stage").unwrap();
        assert_eq!(row.count, 2);
        assert!((row.mean_ms - 3.0).abs() < 0.2);
        assert!(row.p50_ms >= 1.5 && row.p50_ms <= 4.5);
    }
}
