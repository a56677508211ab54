//! The self-describing experiment registry.
//!
//! Every bench binary is one experiment: it reproduces a paper figure or
//! table, replicates a headline claim across seeds, extends the paper, or
//! guards performance. This module is the single typed list of those
//! experiments — one [`ExperimentInfo`] per `src/bin/*.rs` file — so
//! tooling can enumerate coverage instead of guessing from filenames:
//!
//! * each binary declares `const INFO: &ExperimentInfo = &registry::…`
//!   and [`announce`]s it at startup (or constructs its harness with
//!   [`crate::Harness::for_experiment`], which announces for it);
//! * [`crate::report::write_json`] reads the announced entry to stamp
//!   every `results/*.json` artifact with the producing experiment's id
//!   and the artifact [`crate::artifacts::SCHEMA_VERSION`];
//! * the dashboard generator (`render_dashboard`, `hcloud-cli
//!   dashboard`) walks [`ALL`] against `results/`, the goldens and the
//!   committed `BENCH_*.json` files to render
//!   `docs/alignment/STATUS.md`.
//!
//! A completeness test pins the registry to the filesystem: every
//! `src/bin/*.rs` appears exactly once in [`ALL`], and every registered
//! golden exists — no unregistered or phantom experiments.

use std::sync::Mutex;

/// What kind of experiment a binary is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// Reproduces a numbered paper figure.
    PaperFigure,
    /// Reproduces a numbered paper table.
    PaperTable,
    /// Replicates headline claims across seeds.
    Replication,
    /// Goes beyond the paper (Section 5.5 directions, ablations).
    Extension,
    /// Guards wall-clock and result digests.
    Perf,
    /// Renders other experiments' outputs; runs no simulation itself.
    Tooling,
}

impl ExperimentKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::PaperFigure => "paper-figure",
            ExperimentKind::PaperTable => "paper-table",
            ExperimentKind::Replication => "replication",
            ExperimentKind::Extension => "extension",
            ExperimentKind::Perf => "perf",
            ExperimentKind::Tooling => "tooling",
        }
    }
}

/// One experiment's self-description: everything the dashboard needs to
/// render a coverage row without running the binary.
#[derive(Debug)]
pub struct ExperimentInfo {
    /// Registry id == the binary's `src/bin/<id>.rs` stem.
    pub id: &'static str,
    /// The paper figure/table/claim this experiment covers.
    pub paper_ref: &'static str,
    /// What kind of experiment this is.
    pub kind: ExperimentKind,
    /// One-line statement of the claim the binary checks.
    pub claim: &'static str,
    /// Scenario kinds exercised (`"-"` when none are simulated).
    pub scenarios: &'static str,
    /// Strategies exercised (`"-"` when none).
    pub strategies: &'static str,
    /// `results/<stem>.json` artifacts the binary writes.
    pub artifacts: &'static [&'static str],
    /// Committed golden this experiment is diffed against in CI,
    /// relative to the repo root.
    pub golden: Option<&'static str>,
    /// CI runs this binary under `HCLOUD_TRACE=full`.
    pub trace_covered: bool,
    /// CI runs this binary under `HCLOUD_AUDIT=strict`.
    pub audit_covered: bool,
    /// CI runs this binary under an active fault plan.
    pub fault_covered: bool,
    /// The CI job that executes the binary (`"manual"` when none does).
    pub ci_job: &'static str,
}

impl ExperimentInfo {
    /// The `results/<stem>.json` paths this experiment produces,
    /// relative to the repo root.
    pub fn artifact_paths(&self) -> impl Iterator<Item = String> + '_ {
        self.artifacts
            .iter()
            .map(|stem| format!("results/{stem}.json"))
    }
}

macro_rules! experiments {
    ($($name:ident => { $($field:ident : $value:expr),* $(,)? })*) => {
        $(pub static $name: ExperimentInfo = ExperimentInfo { $($field: $value),* };)*
        /// Every registered experiment, in `src/bin/` order.
        pub static ALL: &[&ExperimentInfo] = &[$(&$name),*];
    };
}

experiments! {
    ABLATIONS => {
        id: "ablations",
        paper_ref: "beyond-paper ablations",
        kind: ExperimentKind::Extension,
        claim: "removing soft limits / QoS checks / Quasar profiling each degrades the dynamic policy",
        scenarios: "high-variability",
        strategies: "HM",
        artifacts: &["ablation_limits", "ablation_quasar"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    EXT_DATA_LOCALITY => {
        id: "ext_data_locality",
        paper_ref: "§5.5 data management",
        kind: ExperimentKind::Extension,
        claim: "data-transfer penalties shift the hybrid split toward the private facility",
        scenarios: "high-variability",
        strategies: "HF HM",
        artifacts: &["ext_data_locality"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    EXT_FAULT_RESILIENCE => {
        id: "ext_fault_resilience",
        paper_ref: "fault-injection extension",
        kind: ExperimentKind::Extension,
        claim: "SLO attainment degrades gracefully as full-chaos fault intensity rises",
        scenarios: "high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["ext_fault_resilience"],
        golden: None,
        trace_covered: true,
        audit_covered: true,
        fault_covered: true,
        ci_job: "smoke",
    }
    EXT_LONG_HORIZON => {
        id: "ext_long_horizon",
        paper_ref: "§5.5 long-horizon + spot market",
        kind: ExperimentKind::Extension,
        claim: "DSL-authored multi-week demand shapes run digest-pinned under HM, and spot-market preemption recovers through the fault-requeue path with an exactly reconciled billing partition",
        scenarios: "dsl-diurnal dsl-flash-crowd dsl-batch-burst",
        strategies: "HM",
        artifacts: &["ext_long_horizon"],
        golden: Some("crates/bench/goldens/ext_long_horizon_fast.json"),
        trace_covered: false,
        audit_covered: true,
        fault_covered: true,
        ci_job: "long-horizon",
    }
    EXT_MULTI_TENANT => {
        id: "ext_multi_tenant",
        paper_ref: "§6 shared-cluster extension",
        kind: ExperimentKind::Extension,
        claim: "weighted fair share holds per-tenant SLOs under Zipf-skewed tenant populations, and starved guaranteed queues reclaim share via preemption",
        scenarios: "high-variability",
        strategies: "SR HM",
        artifacts: &["ext_multi_tenant"],
        golden: Some("crates/bench/goldens/ext_multi_tenant_fast.json"),
        trace_covered: true,
        audit_covered: true,
        fault_covered: true,
        ci_job: "tenancy",
    }
    EXT_SPOT_PARTITIONING => {
        id: "ext_spot_partitioning",
        paper_ref: "§5.5 spot + partitioning",
        kind: ExperimentKind::Extension,
        claim: "spot bidding and server partitioning extend the cost/performance frontier",
        scenarios: "high-variability",
        strategies: "HM",
        artifacts: &["ext_spot_bids", "ext_partitioning"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    EXT_THEORY_STRATEGIES => {
        id: "ext_theory_strategies",
        paper_ref: "post-paper autoscaling theory",
        kind: ExperimentKind::Extension,
        claim: "the reservation-autoscale and queueing-capacity registry strategies survive full chaos and Zipf tenancy head-to-head with HF/HM, digest-pinned",
        scenarios: "high-variability",
        strategies: "HF HM RA QC",
        artifacts: &["ext_theory_strategies"],
        golden: Some("crates/bench/goldens/ext_theory_strategies_fast.json"),
        trace_covered: false,
        audit_covered: true,
        fault_covered: true,
        ci_job: "theory",
    }
    FIG01 => {
        id: "fig01_variability_batch",
        paper_ref: "Figure 1",
        kind: ExperimentKind::PaperFigure,
        claim: "Hadoop completion times spread widely on small shared instances, stay tight on m16",
        scenarios: "-",
        strategies: "-",
        artifacts: &["fig01_variability_batch"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG02 => {
        id: "fig02_variability_memcached",
        paper_ref: "Figure 2",
        kind: ExperimentKind::PaperFigure,
        claim: "memcached latency is unpredictable on shared instance types",
        scenarios: "-",
        strategies: "-",
        artifacts: &["fig02_variability_memcached"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG03_TAB02 => {
        id: "fig03_tab02_scenarios",
        paper_ref: "Figure 3 / Table 2",
        kind: ExperimentKind::PaperFigure,
        claim: "the three workload scenarios match the paper's demand curves and parameters",
        scenarios: "static low-variability high-variability",
        strategies: "-",
        artifacts: &["fig03_scenarios"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG04_FIG05 => {
        id: "fig04_fig05_basic_strategies",
        paper_ref: "Figures 4-5",
        kind: ExperimentKind::PaperFigure,
        claim: "basic strategies trade performance for cost; profiling info narrows the gap",
        scenarios: "static low-variability high-variability",
        strategies: "SR OdF OdM",
        artifacts: &["fig04a_batch", "fig04b_memcached", "fig05_cost"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "test",
    }
    FIG06_FIG07 => {
        id: "fig06_fig07_mapping_policies",
        paper_ref: "Figures 6-7",
        kind: ExperimentKind::PaperFigure,
        claim: "the dynamic P8 policy keeps both sides >=90% of isolation at ~80% reserved utilization; strict quality thresholds (P3, P4) drop to ~63% reserved and ~46-48% on-demand",
        scenarios: "high-variability",
        strategies: "HF HM",
        artifacts: &["fig06_07_policies"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG09 => {
        id: "fig09_dynamic_policy",
        paper_ref: "Figure 9",
        kind: ExperimentKind::PaperFigure,
        claim: "the soft utilization limit adapts to queue pressure and wait-time validation triggers",
        scenarios: "high-variability",
        strategies: "HM",
        artifacts: &["fig09a_soft_limit", "fig09b_wait_validation"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG10_FIG11 => {
        id: "fig10_fig11_hybrid",
        paper_ref: "Figures 10-11",
        kind: ExperimentKind::PaperFigure,
        claim: "hybrid strategies approach SR performance at a fraction of its cost",
        scenarios: "static low-variability high-variability",
        strategies: "SR HF HM",
        artifacts: &["fig10a_batch", "fig10b_memcached", "fig11_cost"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "test",
    }
    FIG12 => {
        id: "fig12_price_ratio",
        paper_ref: "Figure 12",
        kind: ExperimentKind::PaperFigure,
        claim: "hybrid cost advantage persists across on-demand:reserved price ratios",
        scenarios: "static low-variability high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["fig12_price_ratio"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG13 => {
        id: "fig13_duration",
        paper_ref: "Figure 13",
        kind: ExperimentKind::PaperFigure,
        claim: "reserved amortization flips the cost ranking as deployment duration grows",
        scenarios: "static low-variability high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["fig13_duration"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG14 => {
        id: "fig14_spinup_external",
        paper_ref: "Figure 14",
        kind: ExperimentKind::PaperFigure,
        claim: "performance degrades with spin-up time and external load, HM most robust",
        scenarios: "high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["fig14a_spinup", "fig14b_external"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG15 => {
        id: "fig15_retention",
        paper_ref: "Figure 15",
        kind: ExperimentKind::PaperFigure,
        claim: "longer retention trades cost for performance on the on-demand side",
        scenarios: "high-variability",
        strategies: "OdM HM",
        artifacts: &["fig15_retention"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG16 => {
        id: "fig16_sensitive_fraction",
        paper_ref: "Figure 16",
        kind: ExperimentKind::PaperFigure,
        claim: "cost and performance degrade as the interference-sensitive fraction rises",
        scenarios: "high-variability",
        strategies: "SR OdM HM",
        artifacts: &["fig16_sensitive"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG17 => {
        id: "fig17_pricing_models",
        paper_ref: "Figure 17",
        kind: ExperimentKind::PaperFigure,
        claim: "the strategy ranking survives AWS-, GCE- and Azure-style pricing models",
        scenarios: "static low-variability high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["fig17_pricing_models"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG18 => {
        id: "fig18_allocation",
        paper_ref: "Figure 18",
        kind: ExperimentKind::PaperFigure,
        claim: "allocation traces track required cores; hybrids blend reserved and on-demand",
        scenarios: "high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["fig18_allocation"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG19_20 => {
        id: "fig19_20_utilization",
        paper_ref: "Figures 19-20",
        kind: ExperimentKind::PaperFigure,
        claim: "per-instance utilization heatmaps show hybrids packing reserved capacity densely",
        scenarios: "high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &[
            "fig19_20_util_sr",
            "fig19_20_util_odf",
            "fig19_20_util_odm",
            "fig19_20_util_hf",
            "fig19_20_util_hm",
        ],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    FIG21 => {
        id: "fig21_breakdown",
        paper_ref: "Figure 21",
        kind: ExperimentKind::PaperFigure,
        claim: "HM sends batch to on-demand and keeps latency-critical work on reserved",
        scenarios: "low-variability",
        strategies: "HM",
        artifacts: &["fig21_breakdown"],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    PERF_FLEET => {
        id: "perf_fleet",
        paper_ref: "perf: fleet-scale engine",
        kind: ExperimentKind::Perf,
        claim: "the ~1M-job fleet run is digest-identical across worker counts",
        scenarios: "high-variability-fleet",
        strategies: "OdM",
        artifacts: &["BENCH_fleet"],
        golden: Some("crates/bench/goldens/BENCH_fleet_fast.json"),
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "perf-fleet",
    }
    PERF_HOTPATH => {
        id: "perf_hotpath",
        paper_ref: "perf: scheduler hot path",
        kind: ExperimentKind::Perf,
        claim: "per-arrival provisioning decisions stay cheap; digests pin every simulated byte",
        scenarios: "high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["BENCH_hotpath"],
        golden: Some("crates/bench/goldens/BENCH_hotpath_fast.json"),
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "perf",
    }
    RENDER_DASHBOARD => {
        id: "render_dashboard",
        paper_ref: "coverage dashboard",
        kind: ExperimentKind::Tooling,
        claim: "docs/alignment/{STATUS.md,PERF_TRAJECTORY.json} regenerate byte-identically",
        scenarios: "-",
        strategies: "-",
        artifacts: &[],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "dashboard",
    }
    RENDER_FIGURES => {
        id: "render_figures",
        paper_ref: "figure rendering",
        kind: ExperimentKind::Tooling,
        claim: "SVG charts regenerate from the committed results/*.json series",
        scenarios: "-",
        strategies: "-",
        artifacts: &[],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    REPLICATION => {
        id: "replication",
        paper_ref: "headline claims xN seeds",
        kind: ExperimentKind::Replication,
        claim: "SR>OdM performance, hybrid cost savings and profiling gains replicate across seeds",
        scenarios: "static low-variability high-variability",
        strategies: "SR OdF OdM HF HM",
        artifacts: &["replication"],
        golden: None,
        trace_covered: true,
        audit_covered: true,
        fault_covered: false,
        ci_job: "smoke",
    }
    TAB01_03 => {
        id: "tab01_03_strategies",
        paper_ref: "Tables 1 & 3",
        kind: ExperimentKind::PaperTable,
        claim: "the qualitative configuration comparison and strategy matrix match the paper",
        scenarios: "-",
        strategies: "SR OdF OdM HF HM",
        artifacts: &[],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
    TAB_OVERHEADS => {
        id: "tab_overheads",
        paper_ref: "§5.2 overheads",
        kind: ExperimentKind::PaperTable,
        claim: "provisioning-decision overheads stay within the paper's reported budget",
        scenarios: "high-variability",
        strategies: "HM",
        artifacts: &[],
        golden: None,
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "manual",
    }
}

/// Looks an experiment up by registry id.
pub fn find(id: &str) -> Option<&'static ExperimentInfo> {
    ALL.iter().copied().find(|e| e.id == id)
}

static CURRENT: Mutex<Option<&'static ExperimentInfo>> = Mutex::new(None);

/// Declares `info` the running experiment. Binaries call this (directly
/// or through [`crate::Harness::for_experiment`]) before writing
/// artifacts, so [`crate::report::write_json`] can stamp them.
pub fn announce(info: &'static ExperimentInfo) {
    *CURRENT.lock().expect("registry lock poisoned") = Some(info);
}

/// The experiment announced by this process, if any.
pub fn current() -> Option<&'static ExperimentInfo> {
    *CURRENT.lock().expect("registry lock poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// The repo root, from the bench crate's manifest directory.
    fn repo_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/bench sits two levels under the repo root")
    }

    #[test]
    fn every_binary_is_registered_exactly_once() {
        let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut stems = BTreeSet::new();
        for entry in std::fs::read_dir(&bin_dir).expect("src/bin exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                stems.insert(
                    path.file_stem()
                        .and_then(|s| s.to_str())
                        .expect("utf-8 stem")
                        .to_string(),
                );
            }
        }
        let ids: BTreeSet<String> = ALL.iter().map(|e| e.id.to_string()).collect();
        assert_eq!(ids.len(), ALL.len(), "duplicate registry ids");
        assert_eq!(
            ids, stems,
            "registry ids and src/bin/*.rs stems must match exactly"
        );
    }

    #[test]
    fn registered_goldens_and_committed_artifacts_exist() {
        let root = repo_root();
        for e in ALL {
            if let Some(golden) = e.golden {
                assert!(
                    root.join(golden).is_file(),
                    "{}: golden {golden} missing",
                    e.id
                );
            }
            for artifact in e.artifact_paths() {
                assert!(
                    root.join(&artifact).is_file(),
                    "{}: committed artifact {artifact} missing (run the binary and commit it)",
                    e.id
                );
            }
        }
    }

    #[test]
    fn artifact_stems_are_claimed_by_one_experiment() {
        let mut seen = BTreeSet::new();
        for e in ALL {
            for stem in e.artifacts {
                assert!(seen.insert(*stem), "artifact {stem} registered twice");
            }
        }
    }

    #[test]
    fn ci_jobs_use_known_names() {
        let jobs: BTreeSet<&str> = [
            "test",
            "perf",
            "perf-fleet",
            "smoke",
            "dashboard",
            "manual",
            "tenancy",
            "theory",
            "long-horizon",
        ]
        .into_iter()
        .collect();
        for e in ALL {
            assert!(
                jobs.contains(e.ci_job),
                "{}: unknown CI job {}",
                e.id,
                e.ci_job
            );
        }
    }

    #[test]
    fn announce_is_visible_process_wide() {
        announce(&REPLICATION);
        let cur = current().expect("announced");
        assert_eq!(cur.id, "replication");
        assert!(find("perf_fleet").is_some());
        assert!(find("no_such_bench").is_none());
        // Re-announcing moves the pointer (bins announce exactly once;
        // tests may announce repeatedly).
        announce(&PERF_HOTPATH);
        assert_eq!(current().expect("announced").id, "perf_hotpath");
        announce(&REPLICATION);
    }
}
