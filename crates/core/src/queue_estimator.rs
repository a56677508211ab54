//! Queueing-time estimation from reserved-capacity release rates.
//!
//! Section 4.2: "Queueing time is estimated using a simple feedback loop
//! based on the rate at which instances of a given type are being released
//! over time. For example, if out of 100 jobs waiting for an instance with
//! 4 vCPUs ..., 99 were scheduled in less than 1.4 seconds, the system
//! will estimate that there is a 0.99 probability that the queueing time
//! ... will be 1.4 seconds."
//!
//! [`QueueEstimator`] watches events that free capacity on the reserved
//! pool and keeps, per requested size, a rolling window of inter-release
//! intervals. The estimated wait for a newly queued job is the
//! high-quantile interval scaled by how many queued jobs are ahead of it.

use std::collections::HashMap;

use hcloud_sim::stats::RollingQuantiles;
use hcloud_sim::{SimDuration, SimTime};

/// Rolling release-interval statistics per requested core size.
///
/// Interval and wait windows are [`RollingQuantiles`], so the
/// high-quantile reads in [`QueueEstimator::estimate_wait`] index a
/// sorted copy of the window instead of cloning + sorting per query.
#[derive(Debug, Clone)]
pub struct QueueEstimator {
    window: usize,
    last_release: HashMap<u32, SimTime>,
    intervals: HashMap<u32, RollingQuantiles>,
    waits: HashMap<u32, RollingQuantiles>,
}

impl Default for QueueEstimator {
    fn default() -> Self {
        QueueEstimator::new(128)
    }
}

impl QueueEstimator {
    /// Creates an estimator keeping up to `window` intervals per size.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "estimator window must be positive");
        QueueEstimator {
            window,
            last_release: HashMap::new(),
            intervals: HashMap::new(),
            waits: HashMap::new(),
        }
    }

    /// Records a *measured* queueing time for a job that needed `size`
    /// cores. Measured waits dominate the estimate once enough are known
    /// — this is exactly the paper's formulation ("out of 100 jobs
    /// waiting for an instance with 4 vCPUs, 99 were scheduled in less
    /// than 1.4 seconds").
    pub fn record_wait(&mut self, size: u32, wait: SimDuration) {
        let window = self.window;
        self.waits
            .entry(size)
            .or_insert_with(|| RollingQuantiles::new(window))
            .push(wait.as_secs_f64());
    }

    /// Records that `freed_cores` became available on the reserved pool at
    /// `now`. The event counts as a release for every size it could
    /// satisfy (a 8-core release also unblocks 4-, 2- and 1-core waiters).
    pub fn record_release(&mut self, freed_cores: u32, now: SimTime) {
        for &size in &[1u32, 2, 4, 8, 16] {
            if size > freed_cores {
                break;
            }
            if let Some(&last) = self.last_release.get(&size) {
                let dt = now.saturating_since(last).as_secs_f64();
                let window = self.window;
                self.intervals
                    .entry(size)
                    .or_insert_with(|| RollingQuantiles::new(window))
                    .push(dt);
            }
            self.last_release.insert(size, now);
        }
    }

    /// Number of recorded intervals for `size`.
    pub fn interval_count(&self, size: u32) -> usize {
        self.intervals.get(&size).map_or(0, RollingQuantiles::len)
    }

    /// The `q`-quantile of the release-interval distribution for jobs
    /// needing `size` cores; `None` until at least 5 intervals are known.
    pub fn release_interval_quantile(&self, size: u32, q: f64) -> Option<SimDuration> {
        let buf = self.intervals.get(&size)?;
        if buf.len() < 5 {
            return None;
        }
        let v = buf.percentile(q * 100.0)?;
        Some(SimDuration::from_secs_f64(v))
    }

    /// The estimated queueing time for a job needing `size` cores with
    /// `ahead` queued jobs in front of it at sim time `now`; `None` while
    /// the estimator is cold (the caller should then fall back to a
    /// pessimistic default).
    ///
    /// With ≥10 measured waits for this size, the estimate is their 99th
    /// percentile (the paper's feedback formulation). Before that it
    /// falls back to the release-interval tail scaled by queue position —
    /// computed in `f64` and clamped to [`MAX_ESTIMATE_SECS`], because a
    /// very deep queue times a long tail interval overflows the
    /// duration's microsecond range into a non-finite value — minus the
    /// part of the current release cycle that has already elapsed (a job
    /// queueing mid-cycle does not restart the cycle; the credit is
    /// capped at one interval so the estimate never goes negative).
    pub fn estimate_wait(&self, size: u32, ahead: usize, now: SimTime) -> Option<SimDuration> {
        if let Some(buf) = self.waits.get(&size) {
            if buf.len() >= 10 {
                let q99 = buf.percentile(99.0)?;
                return Some(SimDuration::from_secs_f64(q99));
            }
        }
        let q99 = self.release_interval_quantile(size, 0.99)?.as_secs_f64();
        let mut scaled = q99 * (ahead as f64 + 1.0);
        if !scaled.is_finite() || scaled > MAX_ESTIMATE_SECS {
            scaled = MAX_ESTIMATE_SECS;
        }
        if let Some(&last) = self.last_release.get(&size) {
            let elapsed = now.saturating_since(last).as_secs_f64().min(q99);
            scaled = (scaled - elapsed).max(0.0);
        }
        Some(SimDuration::from_secs_f64(scaled))
    }
}

/// Upper bound on a scaled queueing-time estimate, in seconds (~116
/// days): far beyond any plausible wait, but comfortably inside the
/// duration type's finite range even after scaling.
pub const MAX_ESTIMATE_SECS: f64 = 1e7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_estimator_abstains() {
        let e = QueueEstimator::default();
        assert_eq!(e.estimate_wait(4, 0, SimTime::ZERO), None);
    }

    #[test]
    fn regular_releases_give_tight_estimates() {
        let mut e = QueueEstimator::default();
        for k in 0..50u64 {
            e.record_release(4, SimTime::from_secs(k * 2));
        }
        // Query at the moment of the last release: no elapsed-cycle credit.
        let est = e
            .estimate_wait(4, 0, SimTime::from_secs(98))
            .expect("50 releases recorded");
        assert!((1.9..2.5).contains(&est.as_secs_f64()), "estimate {est}");
    }

    #[test]
    fn waiting_behind_others_scales_estimate() {
        let mut e = QueueEstimator::default();
        for k in 0..50u64 {
            e.record_release(4, SimTime::from_secs(k));
        }
        let now = SimTime::from_secs(49);
        let alone = e.estimate_wait(4, 0, now).expect("50 releases recorded");
        let behind = e.estimate_wait(4, 3, now).expect("50 releases recorded");
        assert_eq!(behind.as_micros(), alone.as_micros() * 4);
    }

    #[test]
    fn large_releases_unblock_small_sizes() {
        let mut e = QueueEstimator::default();
        for k in 0..20u64 {
            e.record_release(16, SimTime::from_secs(k * 3));
        }
        let now = SimTime::from_secs(57);
        assert!(e.estimate_wait(1, 0, now).is_some());
        assert!(e.estimate_wait(16, 0, now).is_some());
    }

    #[test]
    fn small_releases_do_not_unblock_large_sizes() {
        let mut e = QueueEstimator::default();
        for k in 0..20u64 {
            e.record_release(2, SimTime::from_secs(k));
        }
        let now = SimTime::from_secs(19);
        assert!(e.estimate_wait(2, 0, now).is_some());
        assert_eq!(e.estimate_wait(8, 0, now), None);
    }

    /// Regression: the cold-path estimate ignored in-flight releases — a
    /// job queueing mid-cycle was quoted a full interval even when the
    /// next release was imminent.
    #[test]
    fn elapsed_release_cycle_is_credited() {
        let mut e = QueueEstimator::default();
        for k in 0..50u64 {
            e.record_release(4, SimTime::from_secs(k * 2));
        }
        let fresh = e
            .estimate_wait(4, 0, SimTime::from_secs(98))
            .expect("warm estimator");
        let mid_cycle = e
            .estimate_wait(4, 0, SimTime::from_secs(99))
            .expect("warm estimator");
        assert!(
            mid_cycle.as_secs_f64() <= fresh.as_secs_f64() - 0.9,
            "one elapsed second must be credited: {mid_cycle} vs {fresh}"
        );
        // The credit is capped at one interval: a long-idle estimator
        // floors at zero instead of going negative.
        let idle = e
            .estimate_wait(4, 0, SimTime::from_secs(10_000))
            .expect("warm estimator");
        assert_eq!(idle, SimDuration::ZERO);
    }

    /// Regression: `q99.mul_f64((ahead + 1) as f64)` on a 10⁵-deep queue
    /// with a long-tailed release distribution overflowed the duration
    /// range into a non-finite estimate.
    #[test]
    fn very_deep_queue_estimate_stays_finite() {
        let mut e = QueueEstimator::default();
        for k in 0..20u64 {
            e.record_release(4, SimTime::from_secs(k * 1_000_000));
        }
        let est = e
            .estimate_wait(4, 100_000, SimTime::from_secs(19_000_000))
            .expect("warm estimator");
        assert!(est.as_secs_f64().is_finite());
        assert!(
            est.as_secs_f64() <= MAX_ESTIMATE_SECS,
            "estimate {est} must be clamped"
        );
        // An empty queue on the same distribution stays well-behaved too.
        let empty = e
            .estimate_wait(4, 0, SimTime::from_secs(19_000_000))
            .expect("warm estimator");
        assert!(empty.as_secs_f64().is_finite());
        assert!(empty <= est);
    }

    #[test]
    fn quantiles_reflect_tail() {
        let mut e = QueueEstimator::default();
        let mut t = SimTime::ZERO;
        // Mostly 1-second releases with occasional 10-second gaps.
        for k in 0..100u64 {
            let gap = if k % 10 == 9 { 10 } else { 1 };
            t += SimDuration::from_secs(gap);
            e.record_release(4, t);
        }
        let q50 = e
            .release_interval_quantile(4, 0.5)
            .expect("100 releases recorded");
        let q99 = e
            .release_interval_quantile(4, 0.99)
            .expect("100 releases recorded");
        assert!(q50.as_secs_f64() <= 1.5);
        assert!(q99.as_secs_f64() >= 9.0);
    }

    #[test]
    fn window_bounds_memory() {
        let mut e = QueueEstimator::new(10);
        for k in 0..100u64 {
            e.record_release(1, SimTime::from_secs(k));
        }
        assert_eq!(e.interval_count(1), 10);
    }
}
