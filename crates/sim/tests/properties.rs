//! Property-based tests for the simulation substrate.

use hcloud_sim::dist::{Dist, Sample};
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::series::StepSeries;
use hcloud_sim::slot::{SlotKey, SlotMap};
use hcloud_sim::stats::{
    percentile, percentile_sorted, Boxplot, Cdf, OnlineStats, RollingQuantiles,
};
use hcloud_sim::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------------------------------------------------------------
    // RNG
    // ---------------------------------------------------------------

    /// Named streams are reproducible and independent of creation order.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), name in "[a-z]{1,12}") {
        use rand::RngCore;
        let f = RngFactory::new(seed);
        let mut a = f.stream(&name);
        let _ = f.stream("interloper");
        let mut b = f.stream(&name);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    // ---------------------------------------------------------------
    // Distributions
    // ---------------------------------------------------------------

    /// Samples from positive-support distributions are positive and
    /// finite.
    #[test]
    fn positive_distributions_stay_positive(seed in any::<u64>(), mean in 0.001f64..1000.0) {
        use rand::SeedableRng;
        let mut rng = SimRng::seed_from_u64(seed);
        for d in [Dist::exponential(mean), Dist::log_normal_mean(mean, 0.8)] {
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x > 0.0, "sample {x} from {d:?}");
            }
        }
    }

    // ---------------------------------------------------------------
    // Statistics
    // ---------------------------------------------------------------

    /// Percentiles are bounded by min/max and monotone in p.
    #[test]
    fn percentile_bounds_and_monotonicity(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut last = min;
        for p in [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0] {
            let v = percentile(&values, p).expect("non-empty");
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            prop_assert!(v >= last - 1e-9, "percentile not monotone");
            last = v;
        }
    }

    /// Boxplot fields are ordered min ≤ p5 ≤ p25 ≤ p50 ≤ p75 ≤ p95 ≤ max.
    #[test]
    fn boxplot_fields_are_ordered(values in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let b = Boxplot::from_values(&values).expect("non-empty");
        prop_assert!(b.min <= b.p5 + 1e-9);
        prop_assert!(b.p5 <= b.p25 + 1e-9);
        prop_assert!(b.p25 <= b.p50 + 1e-9);
        prop_assert!(b.p50 <= b.p75 + 1e-9);
        prop_assert!(b.p75 <= b.p95 + 1e-9);
        prop_assert!(b.p95 <= b.max + 1e-9);
        prop_assert!(b.mean >= b.min - 1e-9 && b.mean <= b.max + 1e-9);
        prop_assert_eq!(b.count, values.len());
    }

    /// quantile(prob_le(x)) ≤ x and prob_le is within [0, 1].
    #[test]
    fn cdf_quantile_prob_consistency(values in prop::collection::vec(0.0f64..1e4, 1..100), x in 0.0f64..1e4) {
        let cdf = Cdf::from_values(&values).expect("non-empty");
        let p = cdf.prob_le(x);
        prop_assert!((0.0..=1.0).contains(&p));
        if p > 0.0 {
            prop_assert!(cdf.quantile(p) <= x + 1e-9);
        }
    }

    /// Merging online stats equals feeding everything sequentially.
    #[test]
    fn online_stats_merge_is_concatenation(
        a in prop::collection::vec(-100.0f64..100.0, 0..50),
        b in prop::collection::vec(-100.0f64..100.0, 0..50),
    ) {
        let mut whole = OnlineStats::new();
        for &v in a.iter().chain(b.iter()) {
            whole.record(v);
        }
        let mut left = OnlineStats::new();
        for &v in &a {
            left.record(v);
        }
        let mut right = OnlineStats::new();
        for &v in &b {
            right.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        match (left.mean(), whole.mean()) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
            (None, None) => {}
            _ => prop_assert!(false, "mean presence mismatch"),
        }
    }

    // ---------------------------------------------------------------
    // Incremental containers (RollingQuantiles, SlotMap)
    // ---------------------------------------------------------------

    /// `RollingQuantiles` tracks a clone-and-sort reference bit for bit:
    /// after every push it holds the last `cap` values in arrival order,
    /// and each percentile equals `percentile_sorted` over them sorted by
    /// `f64::total_cmp`. The values come from a small pool, so duplicates
    /// are common and `-0.0` meets `0.0`: both are kept, `-0.0` first.
    #[test]
    fn rolling_quantiles_matches_sorted_window(
        cap in 1usize..=64,
        picks in prop::collection::vec(0usize..8, 1..300),
    ) {
        const POOL: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, -3.5, 1e3];
        let mut w = RollingQuantiles::new(cap);
        let mut pushed: Vec<f64> = Vec::new();
        for i in picks {
            w.push(POOL[i]);
            pushed.push(POOL[i]);
            let window = &pushed[pushed.len().saturating_sub(cap)..];
            prop_assert_eq!(w.len(), window.len());
            let got: Vec<u64> = w.iter().map(f64::to_bits).collect();
            let want: Vec<u64> = window.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
            let mut sorted = window.to_vec();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 7.3, 25.0, 50.0, 66.6, 90.0, 95.0, 100.0] {
                prop_assert_eq!(
                    w.percentile(p).map(f64::to_bits),
                    Some(percentile_sorted(&sorted, p).to_bits()),
                    "p = {}", p
                );
            }
        }
    }

    /// `SlotMap` agrees with a naive model under random insert / retire /
    /// remove / get sequences: a live key reads its value; a retired or
    /// removed key fails typed with its own key from then on, even after
    /// its slot is reused; an insert reuses a removed slot (under a key
    /// never issued before) when one is free and otherwise appends; a
    /// retired index is never reused; `len` and `live_len` stay exact.
    #[test]
    fn slotmap_matches_naive_model(
        ops in prop::collection::vec((0u8..4, any::<u16>()), 1..200),
    ) {
        let mut m: SlotMap<u16> = SlotMap::new();
        // Every key ever issued, with its value while live.
        let mut issued: Vec<(SlotKey, Option<u16>)> = Vec::new();
        let mut retired: Vec<usize> = Vec::new();
        let mut reusable: Vec<usize> = Vec::new();
        let mut slots = 0usize;
        for (op, x) in ops {
            let pick = (!issued.is_empty()).then(|| x as usize % issued.len());
            match (op, pick) {
                (0, _) => {
                    let k = m.insert(x);
                    if let Some(at) = reusable.iter().position(|&i| i == k.index()) {
                        reusable.swap_remove(at);
                    } else {
                        prop_assert!(reusable.is_empty(), "a free slot was left unused");
                        prop_assert_eq!(k.index(), slots, "fresh slots append");
                        slots += 1;
                    }
                    prop_assert!(!retired.contains(&k.index()), "retired index reused");
                    prop_assert!(issued.iter().all(|&(old, _)| old != k), "key issued twice");
                    issued.push((k, Some(x)));
                }
                (1, Some(i)) => {
                    let (k, live) = issued[i];
                    prop_assert_eq!(m.retire(k).is_ok(), live.is_some());
                    if live.is_some() {
                        retired.push(k.index());
                        issued[i].1 = None;
                    }
                }
                (2, Some(i)) => {
                    let (k, live) = issued[i];
                    match m.remove(k) {
                        Ok(v) => {
                            prop_assert_eq!(Some(v), live);
                            reusable.push(k.index());
                            issued[i].1 = None;
                        }
                        Err(stale) => {
                            prop_assert!(live.is_none());
                            prop_assert_eq!(stale.key, k);
                        }
                    }
                }
                (_, Some(i)) => {
                    let (k, live) = issued[i];
                    prop_assert_eq!(m.contains(k), live.is_some());
                    prop_assert_eq!(m.get(k).ok().copied(), live);
                    match m.get_mut(k) {
                        Ok(v) => {
                            *v = v.wrapping_add(1);
                            issued[i].1 = Some(*v);
                        }
                        Err(stale) => {
                            prop_assert!(live.is_none());
                            prop_assert_eq!(stale.key, k);
                        }
                    }
                }
                _ => {}
            }
            let live = issued.iter().filter(|(_, v)| v.is_some()).count();
            prop_assert_eq!(m.live_len(), live);
            prop_assert_eq!(m.len(), slots);
        }
        let got: Vec<(SlotKey, u16)> = m.iter().map(|(k, &v)| (k, v)).collect();
        let mut want: Vec<(SlotKey, u16)> = issued
            .iter()
            .filter_map(|&(k, v)| v.map(|v| (k, v)))
            .collect();
        want.sort();
        prop_assert_eq!(got, want, "iteration = live entries in index order");
    }

    // ---------------------------------------------------------------
    // Step series
    // ---------------------------------------------------------------

    /// The time-weighted mean lies within [min, max] of the window, and
    /// integrals are additive over adjacent windows.
    #[test]
    fn series_mean_bounds_and_integral_additivity(
        deltas in prop::collection::vec((1u64..100, -50.0f64..50.0), 1..50),
        split in 1u64..5000,
    ) {
        let mut s = StepSeries::new(0.0);
        let mut t = SimTime::ZERO;
        for (dt, v) in &deltas {
            t += SimDuration::from_secs(*dt);
            s.record(t, *v);
        }
        let end = t + SimDuration::from_secs(10);
        let mid = SimTime::from_secs(split.min(end.as_micros() / 1_000_000 - 1));
        let whole = s.integral(SimTime::ZERO, end);
        let parts = s.integral(SimTime::ZERO, mid) + s.integral(mid, end);
        prop_assert!((whole - parts).abs() < 1e-6 * whole.abs().max(1.0));

        let mean = s.time_weighted_mean(SimTime::ZERO, end).expect("window non-empty");
        let lo = s.min_over(SimTime::ZERO, end);
        let hi = s.max_over(SimTime::ZERO, end);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }
}
