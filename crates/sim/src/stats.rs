//! Statistical aggregations used to report experiment results.
//!
//! The HCloud paper reports boxplots whose boundaries are the 25th/75th
//! percentiles, whiskers the 5th/95th, and a line at the *mean*
//! (Figures 4, 10); CDFs (Figure 9); and p95s of normalized performance
//! (Figures 14–16). This module provides exactly those aggregations:
//!
//! * [`percentile`] — linear-interpolation percentile of a sample;
//! * [`Boxplot`] — the paper's five-number-plus-mean summary;
//! * [`Cdf`] — empirical cumulative distribution function;
//! * [`Histogram`] — fixed-width binning for utilization heatmaps;
//! * [`OnlineStats`] — streaming mean/variance (Welford) for monitors that
//!   cannot afford to keep every sample;
//! * [`SortedSample`] — sort once, answer every batch statistic from the
//!   shared buffer;
//! * [`RollingQuantiles`] — a bounded FIFO window kept sorted beside its
//!   arrival order, for exact percentile reads on every event.

use std::collections::VecDeque;
use std::fmt;

/// Computes the `p`-th percentile (`0 ≤ p ≤ 100`) of `values` using linear
/// interpolation between closest ranks (the "exclusive" variant used by
/// numpy's default).
///
/// Returns `None` for an empty slice.
///
/// ```
/// use hcloud_sim::stats::percentile;
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 50.0), Some(2.5));
/// assert_eq!(percentile(&v, 0.0), Some(1.0));
/// assert_eq!(percentile(&v, 100.0), Some(4.0));
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0,100], got {p}"
    );
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_sorted(&sorted, p))
}

/// Like [`percentile`] but assumes `sorted` is already ascending.
///
/// # Panics
/// Panics if `sorted` is empty or `p` is out of `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0,100], got {p}"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The paper's boxplot summary: p5/p25/mean/p75/p95, plus min/max and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boxplot {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Arithmetic mean (the horizontal line in the paper's boxplots).
    pub mean: f64,
    /// Median, for completeness.
    pub p50: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub count: usize,
}

impl Boxplot {
    /// Summarizes a sample. Returns `None` if `values` is empty.
    pub fn from_values(values: &[f64]) -> Option<Boxplot> {
        SortedSample::from_values(values).map(|s| s.boxplot())
    }
}

/// A sample sorted exactly once, answering every batch statistic from the
/// shared buffer.
///
/// [`Boxplot::from_values`] and [`Cdf::from_values`] each used to clone and
/// re-sort; building a `SortedSample` first lets a caller derive a boxplot,
/// a CDF and arbitrary percentiles from one sort. The mean is accumulated
/// over the *original* observation order at construction, so summaries are
/// bit-identical to summing before the sort (f64 addition is not
/// associative).
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSample {
    sorted: Vec<f64>,
    mean: f64,
}

impl SortedSample {
    /// Sorts `values` (ascending). Returns `None` if empty.
    ///
    /// # Panics
    /// Panics if `values` contains a NaN.
    pub fn from_values(values: &[f64]) -> Option<SortedSample> {
        let mean = mean(values)?;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Some(SortedSample { sorted, mean })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` for a constructed sample (construction rejects empty
    /// input), but required by the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The ascending observations.
    pub fn as_slice(&self) -> &[f64] {
        &self.sorted
    }

    /// Mean over the original observation order.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), linear interpolation;
    /// `None` on an empty sample, matching
    /// [`RollingQuantiles::percentile`]. (Construction rejects empty
    /// input, so a sample obtained via [`SortedSample::from_values`]
    /// always answers `Some` — the `Option` exists so every percentile
    /// read in the crate has one signature and callers can't forget the
    /// empty case when samples arrive by other routes.)
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(percentile_sorted(&self.sorted, p))
    }

    /// The paper's five-number-plus-mean summary.
    pub fn boxplot(&self) -> Boxplot {
        // Construction guarantees a non-empty buffer, so the percentile
        // reads go straight to the sorted slice.
        Boxplot {
            p5: percentile_sorted(&self.sorted, 5.0),
            p25: percentile_sorted(&self.sorted, 25.0),
            mean: self.mean,
            p50: percentile_sorted(&self.sorted, 50.0),
            p75: percentile_sorted(&self.sorted, 75.0),
            p95: percentile_sorted(&self.sorted, 95.0),
            min: self.sorted[0],
            max: *self.sorted.last().expect("non-empty"),
            count: self.sorted.len(),
        }
    }

    /// Reuses the sorted buffer as an empirical CDF (no re-sort).
    pub fn into_cdf(self) -> Cdf {
        Cdf {
            sorted: self.sorted,
        }
    }
}

impl fmt::Display for Boxplot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p5={:.2} p25={:.2} mean={:.2} p75={:.2} p95={:.2}",
            self.count, self.p5, self.p25, self.mean, self.p75, self.p95
        )
    }
}

/// An empirical cumulative distribution function.
///
/// Used by the queueing-time estimator (Figure 9 right): "99 out of 100 jobs
/// waiting for a 4-vCPU instance were scheduled in less than 1.4 s" is
/// exactly `cdf.quantile(0.99)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from observations. Returns `None` if empty.
    pub fn from_values(values: &[f64]) -> Option<Cdf> {
        SortedSample::from_values(values).map(SortedSample::into_cdf)
    }

    /// `P(X ≤ x)`.
    pub fn prob_le(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`): smallest recorded x with
    /// `P(X ≤ x) ≥ q`.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if q <= 0.0 {
            return self.sorted[0];
        }
        // The epsilon guards against `k/n * n` rounding just above `k`,
        // which would shift the index past the correct support point.
        let idx =
            (((q * self.sorted.len() as f64) - 1e-9).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no observations (never true for a constructed
    /// `Cdf`, but required by the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Iterates `(x, P(X ≤ x))` support points, for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }
}

/// Fixed-width histogram over `[lo, hi]`, with underflow/overflow clamped to
/// the edge bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "invalid histogram range [{lo}, {hi}]");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Records one observation (clamped into range).
    pub fn record(&mut self, x: f64) {
        let bins = self.counts.len();
        let frac = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((frac * bins as f64) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fraction of observations in bin `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn fraction(&self, idx: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[idx] as f64 / self.total as f64
        }
    }
}

/// Streaming mean and variance via Welford's algorithm.
///
/// Monitors that watch thousands of utilization samples per simulated
/// second use this instead of retaining every sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance; `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Population standard deviation; `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A bounded rolling window with exact quantile reads.
///
/// Holds the window twice: a FIFO in arrival order, which decides what
/// `push` evicts once the window is full, and the same values sorted by
/// [`f64::total_cmp`], which [`percentile`](RollingQuantiles::percentile)
/// reads through [`percentile_sorted`] without cloning or sorting. A push
/// is two binary searches plus one shift of the sorted run between the
/// evicted and the inserted value, O(cap); a read is O(1). This is the
/// container behind the QoS monitor's per-type quality windows and the
/// queueing estimator's interval and wait windows, which are read on
/// every event.
///
/// `total_cmp` keeps `-0.0` and `0.0` apart and orders `-0.0` first; for
/// every other value the order is the usual one.
///
/// ```
/// use hcloud_sim::stats::RollingQuantiles;
/// let mut w = RollingQuantiles::new(3);
/// for v in [4.0, 1.0, 3.0, 2.0] {
///     w.push(v);
/// }
/// // 4.0 was evicted: the window is [1, 3, 2].
/// assert_eq!(w.percentile(50.0), Some(2.0));
/// assert_eq!(w.percentile(100.0), Some(3.0));
/// assert_eq!(w.iter().collect::<Vec<_>>(), [1.0, 3.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct RollingQuantiles {
    cap: usize,
    buf: VecDeque<f64>,
    /// `buf`'s contents ordered by `f64::total_cmp`.
    sorted: Vec<f64>,
}

impl RollingQuantiles {
    /// Creates a window keeping the most recent `cap` samples.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "rolling window must be positive");
        RollingQuantiles {
            cap,
            buf: VecDeque::with_capacity(cap + 1),
            sorted: Vec::with_capacity(cap),
        }
    }

    /// Records one sample, evicting the oldest when the window is full.
    ///
    /// # Panics
    /// Panics if `value` is NaN (a NaN would poison every percentile).
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN pushed into RollingQuantiles");
        self.buf.push_back(value);
        let insert_at = |sorted: &[f64]| sorted.partition_point(|x| x.total_cmp(&value).is_le());
        if self.buf.len() <= self.cap {
            self.sorted.insert(insert_at(&self.sorted), value);
            return;
        }
        let old = self.buf.pop_front().expect("overfull window is non-empty");
        // Equal values are bit-identical: a repeat leaves the sorted copy
        // as it is.
        if old.to_bits() == value.to_bits() {
            return;
        }
        // Evict the last copy of `old` and insert `value` with one shift
        // of the run between them.
        let out = self.sorted.partition_point(|x| x.total_cmp(&old).is_le()) - 1;
        debug_assert_eq!(self.sorted[out].to_bits(), old.to_bits(), "out of sync");
        let at = insert_at(&self.sorted);
        if at > out {
            self.sorted.copy_within(out + 1..at, out);
            self.sorted[at - 1] = value;
        } else {
            self.sorted.copy_within(at..out, at + 1);
            self.sorted[at] = value;
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`) of the window; `None` when
    /// empty. Bit-identical to sorting the window and calling
    /// [`percentile_sorted`].
    ///
    /// # Panics
    /// Panics if the window is non-empty and `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| percentile_sorted(&self.sorted, p))
    }

    /// The samples in insertion order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 25.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 10.0), Some(14.0));
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let v = [50.0, 10.0, 30.0, 20.0, 40.0];
        assert_eq!(percentile(&v, 50.0), Some(30.0));
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn boxplot_orders_fields() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = Boxplot::from_values(&values).unwrap();
        assert!(b.min <= b.p5 && b.p5 <= b.p25 && b.p25 <= b.p50);
        assert!(b.p50 <= b.p75 && b.p75 <= b.p95 && b.p95 <= b.max);
        assert_eq!(b.count, 100);
        assert!((b.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_prob_and_quantile_agree() {
        let cdf = Cdf::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(cdf.prob_le(3.0), 0.6);
        assert_eq!(cdf.prob_le(0.5), 0.0);
        assert_eq!(cdf.prob_le(5.0), 1.0);
        assert_eq!(cdf.quantile(0.6), 3.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf = Cdf::from_values(&[3.0, 1.0, 2.0]).unwrap();
        let pts: Vec<_> = cdf.points().collect();
        assert_eq!(pts, vec![(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(5.0);
        h.record(95.0);
        h.record(100.0); // edge goes to last bin
        h.record(-10.0); // clamps to first bin
        h.record(150.0); // clamps to last bin
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 3);
        assert_eq!(h.total(), 5);
        assert!((h.fraction(0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn online_stats_match_batch() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &v in &values {
            s.record(v);
        }
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.variance(), Some(4.0));
        assert_eq!(s.std_dev(), Some(2.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let values: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &v in &values {
            whole.record(v);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &v in &values[..20] {
            a.record(v);
        }
        for &v in &values[20..] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn sorted_sample_matches_per_statistic_paths() {
        let values = [9.0, 1.0, 5.0, 5.0, 3.0, 7.0];
        let s = SortedSample::from_values(&values).unwrap();
        assert_eq!(Some(s.boxplot()), Boxplot::from_values(&values));
        assert_eq!(s.percentile(50.0), percentile(&values, 50.0));
        assert_eq!(s.mean(), mean(&values).unwrap());
        let cdf = s.clone().into_cdf();
        assert_eq!(Some(cdf), Cdf::from_values(&values));
    }

    #[test]
    fn sorted_sample_empty_is_none() {
        assert!(SortedSample::from_values(&[]).is_none());
    }

    /// Every percentile read in the crate abstains on empty input with
    /// the same `Option` signature — `SortedSample` included.
    #[test]
    fn empty_percentile_semantics_are_uniform() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(RollingQuantiles::new(4).percentile(50.0), None);
        let s = SortedSample::from_values(&[2.0]).unwrap();
        assert_eq!(s.percentile(50.0), Some(2.0));
    }

    #[test]
    fn rolling_quantiles_evicts_and_matches_sorted_window() {
        // The monitor's usage pattern: a bounded window read after every
        // push. Thirteen distinct values in a window of 8 make duplicates
        // common, so eviction must drop exactly one copy of a repeated
        // value.
        let mut w = RollingQuantiles::new(8);
        let mut reference = VecDeque::new();
        for i in 0..100u64 {
            let v = (((i * 7919) % 13) as f64) / 13.0;
            if reference.len() == 8 {
                reference.pop_front();
            }
            reference.push_back(v);
            w.push(v);
            assert_eq!(w.len(), reference.len());
            let mut sorted: Vec<f64> = reference.iter().copied().collect();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
                assert_eq!(
                    w.percentile(p),
                    Some(percentile_sorted(&sorted, p)),
                    "step {i}, p{p}"
                );
            }
        }
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn quantile_set_windowed_churn_matches_reference() {
        // A longer churn over mostly distinct values: a window of 16 read
        // at p10 after every push must agree with clone-and-sort.
        let window = 16;
        let mut w = RollingQuantiles::new(window);
        let mut buf = VecDeque::new();
        for i in 0..400u64 {
            let v = (((i * 2654435761) % 1013) as f64) / 1013.0;
            if buf.len() == window {
                buf.pop_front();
            }
            w.push(v);
            buf.push_back(v);
            let mut sorted: Vec<f64> = buf.iter().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(w.len(), sorted.len());
            assert_eq!(
                w.percentile(10.0),
                Some(percentile_sorted(&sorted, 10.0)),
                "step {i}"
            );
        }
    }

    #[test]
    fn quantile_set_duplicates_and_removal() {
        let mut w = RollingQuantiles::new(4);
        for _ in 0..3 {
            w.push(2.0);
        }
        w.push(1.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.percentile(0.0), Some(1.0));
        assert_eq!(w.percentile(100.0), Some(2.0));
        // Evicting the oldest 2.0 drops one copy, not all three.
        w.push(3.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.percentile(50.0), Some(2.0));
        assert_eq!(w.iter().collect::<Vec<_>>(), [2.0, 2.0, 1.0, 3.0]);
        // The remaining copies go one at a time until none is left.
        w.push(3.0);
        assert_eq!(w.percentile(50.0), Some(2.5));
        w.push(3.0);
        assert_eq!(w.iter().collect::<Vec<_>>(), [1.0, 3.0, 3.0, 3.0]);
        assert_eq!(w.percentile(0.0), Some(1.0));
        assert_eq!(w.percentile(50.0), Some(3.0));
        // Pushing a value equal to the one it evicts leaves the window as is.
        w.push(3.0);
        w.push(3.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.percentile(0.0), Some(3.0));
        assert_eq!(w.percentile(100.0), Some(3.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// After every push the sorted copy is, bit for bit, the window
        /// sorted by `total_cmp`: every entry, where the percentile test
        /// in `tests/properties.rs` reads a few. Pools of two to six
        /// values make nearly every push evict a duplicate, and often its
        /// own value (the early return); windows of size 1 to 4 evict on
        /// every push, and the larger one shifts runs in both directions.
        #[test]
        fn rolling_quantiles_sorted_copy_is_the_sorted_window(
            cap_pick in 0usize..6,
            pool_size in 2usize..7,
            picks in proptest::prop::collection::vec(0usize..6, 1..200),
        ) {
            const POOL: [f64; 6] = [0.5, 1.0, -0.0, 0.0, 0.25, 7.0];
            let cap = [1, 1, 2, 3, 4, 33][cap_pick];
            let mut w = RollingQuantiles::new(cap);
            let mut pushed = Vec::new();
            for i in picks {
                let v = POOL[i % pool_size];
                w.push(v);
                pushed.push(v);
                let mut window = pushed[pushed.len().saturating_sub(cap)..].to_vec();
                window.sort_by(f64::total_cmp);
                let got: Vec<u64> = w.sorted.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u64> = window.iter().map(|x| x.to_bits()).collect();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn rolling_quantiles_empty() {
        let w = RollingQuantiles::new(4);
        assert!(w.is_empty());
        assert_eq!(w.percentile(50.0), None);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rolling_quantiles_zero_cap_rejected() {
        RollingQuantiles::new(0);
    }

    #[test]
    #[should_panic(expected = "NaN pushed")]
    fn rolling_quantiles_rejects_nan() {
        RollingQuantiles::new(4).push(f64::NAN);
    }
}
