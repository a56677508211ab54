//! Per-instance-type resource-quality monitoring.
//!
//! Section 4.2: "we compare the 90th percentile of quality of that
//! instance type (monitored over time) against the target quality (QT)
//! the job needs." [`QualityMonitor`] keeps a bounded rolling window of
//! delivered-quality observations per instance type and answers quantile
//! queries. Until enough observations accumulate it answers with a
//! conservative prior (small instances presumed mediocre, full servers
//! presumed excellent).
//!
//! Note the paper's convention: an instance type is good enough for a job
//! when `Q90 > QT`, where `Q90` here is the high quantile of *delivered
//! quality* — i.e. "90% of the time this instance type delivers at least
//! this much". To be conservative we use the **10th percentile of
//! delivered quality** as the guarantee level (equivalently the 90th
//! percentile of degradation), which matches the paper's intent: tighten
//! the constraint and more jobs stay on reserved.

use hcloud_cloud::InstanceType;
use hcloud_sim::stats::RollingQuantiles;

/// Rolling quality observations per instance type.
///
/// Each per-type window is a [`RollingQuantiles`], which keeps a sorted
/// copy of its samples: `record` is one ordered insert and eviction, and
/// `q90` reads the exact 10th percentile from that copy instead of
/// cloning + sorting the window on every query (the scheduler asks per
/// placement decision). The windows sit in a table indexed by
/// [`InstanceType::index`], created on a type's first sample.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    window: usize,
    samples: [Option<RollingQuantiles>; InstanceType::COUNT],
}

impl Default for QualityMonitor {
    fn default() -> Self {
        QualityMonitor::new(512)
    }
}

impl QualityMonitor {
    /// Creates a monitor keeping up to `window` samples per type.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "monitor window must be positive");
        QualityMonitor {
            window,
            samples: std::array::from_fn(|_| None),
        }
    }

    /// Records a delivered-quality observation `q ∈ [0, 1]` for `itype`.
    pub fn record(&mut self, itype: InstanceType, q: f64) {
        debug_assert!((0.0..=1.0).contains(&q), "quality {q} out of range");
        let window = self.window;
        self.samples[itype.index()]
            .get_or_insert_with(|| RollingQuantiles::new(window))
            .push(q);
    }

    /// Number of samples held for `itype`.
    pub fn sample_count(&self, itype: InstanceType) -> usize {
        self.samples[itype.index()]
            .as_ref()
            .map_or(0, RollingQuantiles::len)
    }

    /// The quality level `itype` delivers at least 90% of the time
    /// (the `Q90` the dynamic policy compares against a job's `QT`).
    ///
    /// With fewer than 10 observations, returns a prior based on how much
    /// of the server the instance shares with external tenants.
    pub fn q90(&self, itype: InstanceType) -> f64 {
        match &self.samples[itype.index()] {
            // 10th percentile of delivered quality =
            // guaranteed-90%-of-the-time level. An empty window (only
            // reachable if the ≥10 guard changes) degrades to the prior
            // rather than feeding a sentinel into the P8 comparison.
            Some(b) if b.len() >= 10 => b.percentile(10.0).unwrap_or_else(|| Self::prior(itype)),
            _ => Self::prior(itype),
        }
    }

    /// The cold-start prior: full servers deliver ~1.0; the more of the
    /// server is shared, the lower the presumed guarantee.
    pub fn prior(itype: InstanceType) -> f64 {
        1.0 - 0.35 * itype.external_share()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_orders_by_size() {
        let p1 = QualityMonitor::prior(InstanceType::standard(1));
        let p8 = QualityMonitor::prior(InstanceType::standard(8));
        let p16 = QualityMonitor::prior(InstanceType::full_server());
        assert!(p1 < p8 && p8 < p16);
        assert_eq!(p16, 1.0);
    }

    #[test]
    fn cold_monitor_returns_prior() {
        let m = QualityMonitor::default();
        assert_eq!(
            m.q90(InstanceType::standard(2)),
            QualityMonitor::prior(InstanceType::standard(2))
        );
    }

    #[test]
    fn q90_reflects_low_tail() {
        let mut m = QualityMonitor::default();
        let t = InstanceType::standard(2);
        // 90 good observations, 10 bad ones.
        for _ in 0..90 {
            m.record(t, 0.95);
        }
        for _ in 0..10 {
            m.record(t, 0.40);
        }
        let q = m.q90(t);
        assert!(q < 0.95, "q90 {q} must reflect the bad tail");
        assert!(q >= 0.40);
    }

    #[test]
    fn window_evicts_old_samples() {
        let mut m = QualityMonitor::new(50);
        let t = InstanceType::standard(4);
        for _ in 0..50 {
            m.record(t, 0.2);
        }
        for _ in 0..50 {
            m.record(t, 0.9);
        }
        assert_eq!(m.sample_count(t), 50);
        assert!(m.q90(t) > 0.8, "old bad samples should have been evicted");
    }

    #[test]
    fn types_are_tracked_independently() {
        let mut m = QualityMonitor::default();
        for _ in 0..20 {
            m.record(InstanceType::standard(1), 0.5);
            m.record(InstanceType::full_server(), 1.0);
        }
        assert!(m.q90(InstanceType::full_server()) > m.q90(InstanceType::standard(1)));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        QualityMonitor::new(0);
    }
}
