//! The external-load (interference) process.
//!
//! Section 2.2: "We model interference by imposing external load that
//! fluctuates ±10% around a 25% utilization." On top of that band the
//! model adds what Figures 1–2 demonstrate real clouds have:
//!
//! * **spatial variability** — each server gets a persistent load offset
//!   and a persistent per-resource mix (some neighbours are network-heavy,
//!   some cache-heavy);
//! * **temporal variability** — the level is re-drawn every `interval`
//!   (default 10 s), with occasional heavy spikes producing the long tails
//!   of the violin plots.
//!
//! The level is a **pure function** of `(rng factory, server seed, time)`:
//! two strategies observing the same server at the same instant see the
//! same interference, and experiments are exactly repeatable — the
//! property the paper's container methodology provides. A `ServerLoad`
//! profile draws a server's persistent part once and memoizes the level
//! of the last epoch it was asked about; it returns the same bits the
//! stateless [`ExternalLoadModel::pressure`] recomputes on every call.

use std::cell::Cell;

use hcloud_interference::ResourceVector;
use hcloud_sim::dist::{Normal, Sample, TruncatedNormal, Uniform};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use rand::Rng;

/// Configuration of the external-load process.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalLoadModel {
    /// Mean external utilization (the paper's default: 0.25).
    pub mean: f64,
    /// Half-width of the fluctuation band (the paper's ±10% ⇒ 0.10).
    pub fluctuation: f64,
    /// Std-dev of the persistent per-server offset (spatial variability).
    pub spatial_sigma: f64,
    /// Per-interval probability of an interference spike.
    pub spike_prob: f64,
    /// Spike magnitude range (added to the level).
    pub spike_range: (f64, f64),
    /// How often the temporal component is re-drawn.
    pub interval: SimDuration,
}

impl Default for ExternalLoadModel {
    fn default() -> Self {
        ExternalLoadModel {
            mean: 0.25,
            fluctuation: 0.10,
            spatial_sigma: 0.04,
            spike_prob: 0.015,
            spike_range: (0.25, 0.65),
            interval: SimDuration::from_secs(10),
        }
    }
}

impl ExternalLoadModel {
    /// The default process with a different mean utilization — the
    /// Figure 14b sweep knob (0–100% external load).
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&mean),
            "external mean must be in [0,1], got {mean}"
        );
        ExternalLoadModel {
            mean,
            ..ExternalLoadModel::default()
        }
    }

    /// A process with no external load at all (reserved servers).
    pub fn none() -> Self {
        ExternalLoadModel {
            mean: 0.0,
            fluctuation: 0.0,
            spatial_sigma: 0.0,
            spike_prob: 0.0,
            ..ExternalLoadModel::default()
        }
    }

    /// Whether the process imposes no load at all: every level is 0.
    fn is_silent(&self) -> bool {
        self.mean == 0.0 && self.spike_prob == 0.0
    }

    /// The temporal epoch `t` falls in: the level is re-drawn once per
    /// `interval`, so it is a function of this index alone.
    pub(crate) fn epoch(&self, t: SimTime) -> u64 {
        t.as_micros() / self.interval.as_micros().max(1)
    }

    /// The persistent spatial offset of server `server_seed`.
    fn spatial(&self, factory: &RngFactory, server_seed: u64) -> f64 {
        if self.is_silent() {
            return 0.0;
        }
        let mut rng = factory.indexed_stream("external.spatial", server_seed);
        Normal::new(0.0, self.spatial_sigma).sample(&mut rng)
    }

    /// The level in epoch `k` of a server with spatial offset `spatial`.
    fn epoch_level(&self, factory: &RngFactory, server_seed: u64, spatial: f64, k: u64) -> f64 {
        if self.is_silent() {
            return 0.0;
        }
        let idx = server_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(k);
        let mut rng = factory.indexed_stream("external.temporal", idx);
        let temporal = if self.fluctuation > 0.0 {
            TruncatedNormal::new(
                0.0,
                self.fluctuation / 2.0,
                -self.fluctuation,
                self.fluctuation,
            )
            .sample(&mut rng)
        } else {
            0.0
        };
        let spike = if rng.gen::<f64>() < self.spike_prob {
            Uniform::new(self.spike_range.0, self.spike_range.1).sample(&mut rng)
        } else {
            0.0
        };
        (self.mean + spatial + temporal + spike).clamp(0.0, 0.95)
    }

    /// The external utilization level of server `server_seed` at `t`,
    /// in `[0, 0.95]`.
    pub fn level(&self, factory: &RngFactory, server_seed: u64, t: SimTime) -> f64 {
        let spatial = self.spatial(factory, server_seed);
        self.epoch_level(factory, server_seed, spatial, self.epoch(t))
    }

    /// The per-resource mix direction of server `server_seed`: entries in
    /// `[0.6, 1.4]` with unit mean, persistent per server.
    pub fn mix(&self, factory: &RngFactory, server_seed: u64) -> ResourceVector {
        let mut rng = factory.indexed_stream("external.mix", server_seed);
        let raw = ResourceVector::from_fn(|_| Uniform::new(0.6, 1.4).sample(&mut rng));
        raw.scale(1.0 / raw.mean())
    }

    /// Server `server_seed`'s load profile: its spatial offset and
    /// resource mix, drawn once here instead of on every query.
    pub(crate) fn server_load(&self, factory: &RngFactory, server_seed: u64) -> ServerLoad {
        ServerLoad {
            server_seed,
            spatial: self.spatial(factory, server_seed),
            mix: self.mix(factory, server_seed),
            last: Cell::new(None),
        }
    }

    /// The external pressure vector an instance occupying `1 − share` of
    /// the server experiences: the level, capped by the share external
    /// tenants can occupy, spread along the server's resource mix.
    ///
    /// `share` is [`crate::InstanceType::external_share`]: 0 for a full
    /// server (⇒ zero pressure), 15/16 for a 1-vCPU slice. This builds
    /// the server's profile on the fly; holders of a `ServerLoad` ask
    /// it instead.
    pub fn pressure(
        &self,
        factory: &RngFactory,
        server_seed: u64,
        t: SimTime,
        share: f64,
    ) -> ResourceVector {
        debug_assert!((0.0..=1.0).contains(&share), "share must be in [0,1]");
        if share == 0.0 {
            return ResourceVector::ZERO;
        }
        self.server_load(factory, server_seed)
            .pressure(self, factory, t, share)
    }
}

/// One server's external load: the persistent spatial offset and
/// resource mix, plus the level of the last epoch queried.
///
/// The level is a pure function of the epoch, so the memo only saves
/// work: every answer is bit-identical to [`ExternalLoadModel::pressure`].
/// Queries within one epoch (the monitor's quality sample, then each
/// co-scheduled job's update) cost one scaling of the mix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServerLoad {
    server_seed: u64,
    spatial: f64,
    mix: ResourceVector,
    /// `(epoch, level)` of the last epoch queried.
    last: Cell<Option<(u64, f64)>>,
}

impl ServerLoad {
    /// The server's external utilization level at `t` under `model`.
    fn level(&self, model: &ExternalLoadModel, factory: &RngFactory, t: SimTime) -> f64 {
        let k = model.epoch(t);
        match self.last.get() {
            Some((epoch, level)) if epoch == k => level,
            _ => {
                let level = model.epoch_level(factory, self.server_seed, self.spatial, k);
                self.last.set(Some((k, level)));
                level
            }
        }
    }

    /// [`ExternalLoadModel::pressure`] on this server, for a `share > 0`.
    pub(crate) fn pressure(
        &self,
        model: &ExternalLoadModel,
        factory: &RngFactory,
        t: SimTime,
        share: f64,
    ) -> ResourceVector {
        self.mix.scale(self.level(model, factory, t) * share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factory() -> RngFactory {
        RngFactory::new(2024)
    }

    #[test]
    fn level_is_deterministic() {
        let m = ExternalLoadModel::default();
        let t = SimTime::from_secs(333);
        assert_eq!(m.level(&factory(), 5, t), m.level(&factory(), 5, t));
    }

    #[test]
    fn level_stays_constant_within_interval() {
        let m = ExternalLoadModel::default();
        let a = m.level(&factory(), 9, SimTime::from_secs(100));
        let b = m.level(&factory(), 9, SimTime::from_secs(109));
        assert_eq!(a, b);
    }

    #[test]
    fn level_varies_across_intervals_and_servers() {
        let m = ExternalLoadModel::default();
        let t = SimTime::from_secs(100);
        let a = m.level(&factory(), 1, t);
        let b = m.level(&factory(), 2, t);
        let c = m.level(&factory(), 1, SimTime::from_secs(200));
        assert!(a != b || a != c, "no variability observed");
    }

    #[test]
    fn long_run_mean_near_configured_mean() {
        let m = ExternalLoadModel::default();
        let f = factory();
        let n = 5000;
        let sum: f64 = (0..n)
            .map(|i| m.level(&f, i % 50, SimTime::from_secs(10 * i)))
            .sum();
        let mean = sum / n as f64;
        // Spikes push the mean slightly above 0.25.
        assert!((0.22..0.32).contains(&mean), "mean level {mean}");
    }

    #[test]
    fn levels_respect_bounds() {
        let m = ExternalLoadModel::default();
        let f = factory();
        for i in 0..2000 {
            let l = m.level(&f, i, SimTime::from_secs(i));
            assert!((0.0..=0.95).contains(&l), "level {l} out of bounds");
        }
    }

    #[test]
    fn none_model_is_silent() {
        let m = ExternalLoadModel::none();
        let f = factory();
        assert_eq!(m.level(&f, 1, SimTime::from_secs(5)), 0.0);
        assert_eq!(
            m.pressure(&f, 1, SimTime::from_secs(5), 0.9375),
            ResourceVector::ZERO
        );
    }

    #[test]
    fn full_server_sees_no_pressure() {
        let m = ExternalLoadModel::default();
        assert_eq!(
            m.pressure(&factory(), 3, SimTime::from_secs(50), 0.0),
            ResourceVector::ZERO
        );
    }

    #[test]
    fn pressure_scales_with_share() {
        let m = ExternalLoadModel::default();
        let f = factory();
        let t = SimTime::from_secs(77);
        let small = m.pressure(&f, 4, t, 15.0 / 16.0);
        let half = m.pressure(&f, 4, t, 0.5);
        assert!(small.sum() > half.sum());
    }

    #[test]
    fn mix_has_unit_mean_and_is_persistent() {
        let m = ExternalLoadModel::default();
        let f = factory();
        let mix = m.mix(&f, 11);
        assert!((mix.mean() - 1.0).abs() < 1e-9);
        assert_eq!(mix, m.mix(&f, 11));
        assert_ne!(mix, m.mix(&f, 12));
    }

    #[test]
    fn spikes_occur_at_roughly_configured_rate() {
        let m = ExternalLoadModel::default();
        let f = factory();
        let n = 20_000u64;
        let spikes = (0..n)
            .filter(|&i| m.level(&f, i, SimTime::from_secs(10 * i)) > m.mean + m.fluctuation + 0.1)
            .count();
        let rate = spikes as f64 / n as f64;
        assert!((0.005..0.05).contains(&rate), "spike rate {rate}");
    }
}
