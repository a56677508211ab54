//! The Quasar classification engine.
//!
//! Section 3.3: "When a job is submitted, it is first profiled on two
//! instance types, while injecting interference in two shared resources,
//! e.g., last level cache and network bandwidth. This signal is used by a
//! set of classification techniques which find similarities between the
//! new and previously-scheduled jobs."
//!
//! [`QuasarEngine`] reproduces that pipeline:
//!
//! 1. a **corpus** of previously-scheduled jobs (drawn from the workload
//!    app classes) is factorized into low-rank latent factors;
//! 2. **profiling** a new job yields four noisy measurements of its true
//!    sensitivity vector (2 instance types × 2 interference sources);
//!    profiling on small, shared instances yields noisier measurements;
//! 3. **classification** folds the sparse signal into the latent space and
//!    reconstructs the full sensitivity vector, the scalar quality
//!    requirement `Q`, and the resource amount (core count) the job needs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use hcloud_cloud::instance_type::VALID_SIZES;
use hcloud_interference::{resource_quality, Resource, ResourceVector, NUM_RESOURCES};
use hcloud_sim::dist::{Normal, Sample};
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::SimDuration;
use hcloud_workloads::{AppClass, JobSpec};

use crate::matrix::{FoldIn, Matrix, MatrixFactorization};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QuasarConfig {
    /// Number of previously-scheduled jobs in the training corpus.
    pub corpus_size: usize,
    /// Factorization rank.
    pub rank: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// SGD L2 regularization.
    pub regularization: f64,
    /// Ridge strength for fold-in.
    pub ridge: f64,
    /// The resources observed during profiling (2 instance types × 2
    /// injected interference sources = 4 measurements).
    pub profiled_resources: [Resource; 4],
    /// Wall-clock cost of profiling a job the first time it is submitted
    /// ("5-10 sec", Section 5.2).
    pub profiling_time: SimDuration,
    /// Wall-clock cost of classification ("20 msec on average").
    pub classification_time: SimDuration,
}

impl Default for QuasarConfig {
    fn default() -> Self {
        QuasarConfig {
            corpus_size: 240,
            rank: 4,
            epochs: 120,
            learning_rate: 0.05,
            regularization: 0.01,
            ridge: 0.05,
            profiled_resources: [
                Resource::CacheLlc,
                Resource::NetBandwidth,
                Resource::Cpu,
                Resource::MemBandwidth,
            ],
            profiling_time: SimDuration::from_millis(7_500),
            classification_time: SimDuration::from_millis(20),
        }
    }
}

/// Where profiling runs, which determines measurement noise.
///
/// Profiling on dedicated or large instances is clean; on small shared
/// instances, external interference corrupts the signal — the mechanism
/// behind OdM's "lower accuracy" provisioning decisions (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingEnvironment {
    /// Std-dev of measurement noise added to each profiled sensitivity.
    pub noise_sigma: f64,
}

impl ProfilingEnvironment {
    /// Profiling on reserved or full-server instances.
    pub fn clean() -> Self {
        ProfilingEnvironment { noise_sigma: 0.03 }
    }

    /// Profiling on small shared instances under external load.
    pub fn noisy() -> Self {
        ProfilingEnvironment { noise_sigma: 0.12 }
    }
}

/// The sparse signal profiling produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSignal {
    /// The measured sensitivity to each of
    /// [`QuasarConfig::profiled_resources`], in order.
    pub measurements: [f64; 4],
    /// Noisy observation of the job's parallelism/size needs.
    pub cores_hint: u32,
}

/// What classification estimates about a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEstimate {
    /// Reconstructed sensitivity vector.
    pub sensitivity: ResourceVector,
    /// The resource quality requirement `Q ∈ [0, 1]` derived from the
    /// reconstruction (what the mapping policies consume as `QT`).
    pub quality: f64,
    /// Estimated cores needed to meet QoS.
    pub cores: u32,
}

/// What training produces for one corpus: the factorization and its
/// fold-in against the profiled resources, eliminated once.
#[derive(Debug)]
struct Trained {
    factorization: MatrixFactorization,
    fold_in: FoldIn,
}

/// Every input of [`Trained::new`]: the factory's seed and each
/// [`QuasarConfig`] field that training or fold-in reads, floats by bit
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CorpusKey {
    seed: u64,
    corpus_size: usize,
    rank: usize,
    epochs: usize,
    learning_rate: u64,
    regularization: u64,
    ridge: u64,
    profiled_resources: [Resource; 4],
}

impl Trained {
    /// Builds the corpus and trains its factorization. A pure function of
    /// the [`CorpusKey`] of `config` and `factory`.
    fn new(config: &QuasarConfig, factory: &RngFactory) -> Trained {
        assert!(config.corpus_size >= NUM_RESOURCES, "corpus too small");
        let mut corpus_rng = factory.stream("quasar.corpus");
        let mut r = Matrix::zeros(config.corpus_size, NUM_RESOURCES);
        for i in 0..config.corpus_size {
            let class = AppClass::ALL[i % AppClass::ALL.len()];
            let s = class.sample_sensitivity(&mut corpus_rng);
            for (j, &v) in s.as_array().iter().enumerate() {
                r.set(i, j, v);
            }
        }
        let mut train_rng = factory.stream("quasar.train");
        let factorization = MatrixFactorization::train(
            &r,
            config.rank,
            config.epochs,
            config.learning_rate,
            config.regularization,
            &mut train_rng,
        );
        let fold_in = factorization.fold_in_at(
            &config.profiled_resources.map(Resource::index),
            config.ridge,
        );
        Trained {
            factorization,
            fold_in,
        }
    }

    /// [`Trained::new`], trained at most once per key per process: every
    /// run of a seed shares one corpus, so only the first pays the SGD.
    /// Training runs outside the lock; two threads that miss together
    /// both train, and the first to insert wins (the two are equal).
    fn shared(config: &QuasarConfig, factory: &RngFactory) -> Arc<Trained> {
        static MEMO: OnceLock<Mutex<HashMap<CorpusKey, Arc<Trained>>>> = OnceLock::new();
        let memo = MEMO.get_or_init(Mutex::default);
        let key = CorpusKey {
            seed: factory.master_seed(),
            corpus_size: config.corpus_size,
            rank: config.rank,
            epochs: config.epochs,
            learning_rate: config.learning_rate.to_bits(),
            regularization: config.regularization.to_bits(),
            ridge: config.ridge.to_bits(),
            profiled_resources: config.profiled_resources,
        };
        // The map is never left half-updated, so a poisoned lock is safe.
        let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(trained) = lock().get(&key) {
            return Arc::clone(trained);
        }
        let trained = Arc::new(Trained::new(config, factory));
        Arc::clone(lock().entry(key).or_insert(trained))
    }
}

/// The profiling + classification engine.
#[derive(Debug, Clone)]
pub struct QuasarEngine {
    config: QuasarConfig,
    trained: Arc<Trained>,
    profile_rng: SimRng,
}

impl QuasarEngine {
    /// Builds the corpus, trains the factorization, and returns a ready
    /// engine. Deterministic in `factory`; the trained corpus is shared
    /// by every engine of the same seed and configuration in the process.
    pub fn new(config: QuasarConfig, factory: &RngFactory) -> QuasarEngine {
        let trained = Trained::shared(&config, factory);
        QuasarEngine::with_trained(config, trained, factory)
    }

    fn with_trained(
        config: QuasarConfig,
        trained: Arc<Trained>,
        factory: &RngFactory,
    ) -> QuasarEngine {
        QuasarEngine {
            config,
            trained,
            profile_rng: factory.stream("quasar.profile"),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &QuasarConfig {
        &self.config
    }

    /// Time the profiling run occupies (charged on first submission only).
    pub fn profiling_time(&self) -> SimDuration {
        self.config.profiling_time
    }

    /// Time classification takes.
    pub fn classification_time(&self) -> SimDuration {
        self.config.classification_time
    }

    /// Profiles `job` in `env`, producing the sparse noisy signal.
    pub fn profile(&mut self, job: &JobSpec, env: &ProfilingEnvironment) -> ProfileSignal {
        let noise = Normal::new(0.0, env.noise_sigma);
        let measurements = self.config.profiled_resources.map(|res| {
            let truth = job.sensitivity.get(res);
            (truth + noise.sample(&mut self.profile_rng)).clamp(0.0, 1.0)
        });
        // Sizing observation: mostly right, occasionally off by one size
        // step; noisier environments mis-size more often.
        let steps = Normal::new(0.0, env.noise_sigma * 3.0).sample(&mut self.profile_rng);
        let true_idx = VALID_SIZES
            .iter()
            .position(|&s| s >= job.cores.min(16))
            .unwrap_or(VALID_SIZES.len() - 1);
        let idx =
            (true_idx as f64 + steps.round()).clamp(0.0, (VALID_SIZES.len() - 1) as f64) as usize;
        ProfileSignal {
            measurements,
            cores_hint: VALID_SIZES[idx],
        }
    }

    /// Classifies a profile signal into a full estimate.
    pub fn classify(&self, signal: &ProfileSignal) -> JobEstimate {
        // Training asserts `rank <= NUM_RESOURCES`.
        let mut latent = [0.0; NUM_RESOURCES];
        let latent = &mut latent[..self.config.rank];
        self.trained.fold_in.latent(&signal.measurements, latent);
        let factorization = &self.trained.factorization;
        let sensitivity =
            ResourceVector::from_fn(|i| factorization.reconstruct(latent, i).clamp(0.0, 1.0));
        JobEstimate {
            quality: resource_quality(&sensitivity),
            sensitivity,
            cores: signal.cores_hint,
        }
    }

    /// Profile + classify in one step.
    pub fn estimate(&mut self, job: &JobSpec, env: &ProfilingEnvironment) -> JobEstimate {
        let signal = self.profile(job, env);
        self.classify(&signal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcloud_sim::SimTime;
    use hcloud_workloads::{JobId, JobKind};

    fn engine() -> QuasarEngine {
        QuasarEngine::new(QuasarConfig::default(), &RngFactory::new(11))
    }

    fn job_of(class: AppClass, seed: u64) -> JobSpec {
        let mut rng = SimRng::from_seed_u64(seed);
        JobSpec {
            id: JobId(seed),
            class,
            arrival: SimTime::ZERO,
            kind: JobKind::Batch {
                work_core_secs: 600.0,
            },
            cores: 4,
            sensitivity: class.sample_sensitivity(&mut rng),
        }
    }

    #[test]
    fn clean_classification_recovers_quality() {
        let mut e = engine();
        let env = ProfilingEnvironment::clean();
        let mut total_err = 0.0;
        let mut n = 0;
        for (i, class) in AppClass::ALL.iter().enumerate() {
            for k in 0..10 {
                let job = job_of(*class, (i * 100 + k) as u64);
                let est = e.estimate(&job, &env);
                total_err += (est.quality - job.quality_requirement()).abs();
                n += 1;
            }
        }
        let mean_err = total_err / n as f64;
        assert!(mean_err < 0.09, "mean |ΔQ| = {mean_err}");
    }

    #[test]
    fn classification_separates_memcached_from_hadoop() {
        let mut e = engine();
        let env = ProfilingEnvironment::clean();
        let mut mc_min = f64::MAX;
        let mut hd_max = f64::MIN;
        for k in 0..20 {
            let mc = e.estimate(&job_of(AppClass::Memcached, k), &env);
            let hd = e.estimate(&job_of(AppClass::HadoopRecommender, 1000 + k), &env);
            mc_min = mc_min.min(mc.quality);
            hd_max = hd_max.max(hd.quality);
        }
        assert!(
            mc_min > hd_max,
            "memcached min Q {mc_min} should exceed hadoop max Q {hd_max}"
        );
    }

    #[test]
    fn noisy_profiling_degrades_accuracy() {
        let run = |env: ProfilingEnvironment| {
            let mut e = engine();
            let mut err = 0.0;
            for k in 0..60 {
                let class = AppClass::ALL[(k % 6) as usize];
                let job = job_of(class, 5000 + k);
                let est = e.estimate(&job, &env);
                err += est.sensitivity.distance(&job.sensitivity);
            }
            err / 60.0
        };
        let clean = run(ProfilingEnvironment::clean());
        let noisy = run(ProfilingEnvironment::noisy());
        assert!(noisy > clean, "noisy {noisy} should exceed clean {clean}");
    }

    #[test]
    fn sizing_mostly_correct_when_clean() {
        let mut e = engine();
        let env = ProfilingEnvironment::clean();
        let correct = (0..100)
            .filter(|&k| {
                let job = job_of(AppClass::SparkBatch, 9000 + k);
                e.estimate(&job, &env).cores == 4
            })
            .count();
        assert!(correct >= 90, "correct sizings {correct}/100");
    }

    #[test]
    fn sizing_errors_grow_with_noise() {
        let count_wrong = |env: ProfilingEnvironment| {
            let mut e = engine();
            (0..200)
                .filter(|&k| {
                    let job = job_of(AppClass::SparkBatch, 7000 + k);
                    e.estimate(&job, &env).cores != 4
                })
                .count()
        };
        let clean_wrong = count_wrong(ProfilingEnvironment::clean());
        let noisy_wrong = count_wrong(ProfilingEnvironment::noisy());
        assert!(noisy_wrong > clean_wrong, "{noisy_wrong} vs {clean_wrong}");
    }

    #[test]
    fn estimates_are_deterministic_given_factory() {
        let mut a = engine();
        let mut b = engine();
        let job = job_of(AppClass::Memcached, 1);
        let env = ProfilingEnvironment::clean();
        assert_eq!(a.estimate(&job, &env), b.estimate(&job, &env));
    }

    /// Bit patterns of every estimate `engine` makes for a fixed job
    /// stream, clean and noisy.
    fn estimate_stream(mut engine: QuasarEngine) -> Vec<u64> {
        let mut bits = Vec::new();
        for k in 0..120u64 {
            let job = job_of(AppClass::ALL[(k % 6) as usize], 4200 + k);
            for env in [ProfilingEnvironment::clean(), ProfilingEnvironment::noisy()] {
                let est = engine.estimate(&job, &env);
                bits.extend(est.sensitivity.as_array().map(f64::to_bits));
                bits.push(est.quality.to_bits());
                bits.push(u64::from(est.cores));
            }
        }
        bits
    }

    #[test]
    fn shared_corpus_estimates_match_a_fresh_training() {
        let config = QuasarConfig::default();
        // No other test uses this seed, so its corpus is not yet memoized.
        let factory = RngFactory::new(2016).child("quasar");
        let fresh = QuasarEngine::with_trained(
            config.clone(),
            Arc::new(Trained::new(&config, &factory)),
            &factory,
        );
        let want = estimate_stream(fresh);

        // Two threads released together both miss and both train; each
        // gets the corpus inserted first.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        estimate_stream(QuasarEngine::new(config.clone(), &factory))
                    })
                })
                .collect();
            for thread in threads {
                assert_eq!(thread.join().expect("estimating thread"), want);
            }
        });

        let first = QuasarEngine::new(config.clone(), &factory);
        let second = QuasarEngine::new(config.clone(), &factory);
        assert!(Arc::ptr_eq(&first.trained, &second.trained), "trained once");
        assert_eq!(estimate_stream(first), want);
        assert_eq!(estimate_stream(second), want);

        // Another seed or a field fold-in reads is another corpus.
        let other_seed = QuasarEngine::new(config.clone(), &RngFactory::new(2017).child("quasar"));
        let other_ridge = QuasarEngine::new(
            QuasarConfig {
                ridge: 0.1,
                ..config.clone()
            },
            &factory,
        );
        let shared = QuasarEngine::new(config, &factory);
        assert!(!Arc::ptr_eq(&other_seed.trained, &shared.trained));
        assert!(!Arc::ptr_eq(&other_ridge.trained, &shared.trained));
    }

    #[test]
    fn overhead_constants_match_section_5_2() {
        let e = engine();
        let prof = e.profiling_time().as_secs_f64();
        let class = e.classification_time().as_secs_f64();
        assert!((5.0..=10.0).contains(&prof), "profiling {prof}s");
        assert!(class <= 0.05, "classification {class}s");
    }

    #[test]
    fn estimated_sensitivity_is_unit_range() {
        let mut e = engine();
        let env = ProfilingEnvironment::noisy();
        for k in 0..30 {
            let job = job_of(AppClass::ALL[(k % 6) as usize], 333 + k);
            let est = e.estimate(&job, &env);
            assert!(est.sensitivity.is_unit_range());
            assert!((0.0..=1.0).contains(&est.quality));
        }
    }
}
