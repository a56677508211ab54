//! The self-describing experiment registry, and `hcloud-bench`'s
//! dispatch table.
//!
//! Every experiment reproduces a paper figure or table, replicates a
//! headline claim across seeds, extends the paper, guards performance, or
//! renders other experiments' outputs. Each is one module under
//! `src/experiments/` with a `pub fn run(h: &mut Harness)`, and this
//! module is the single typed list of them — one [`ExperimentInfo`] per
//! module, carrying that `run` — so tooling can enumerate coverage
//! instead of guessing from filenames:
//!
//! * `hcloud-bench <id>…|all` resolves its arguments with [`select`] and
//!   runs each entry through one shared [`crate::Harness`];
//! * [`crate::Harness::write_json`] stamps every `results/*.json`
//!   artifact with the running experiment's id and the artifact
//!   [`crate::artifacts::SCHEMA_VERSION`];
//! * the dashboard generator (`hcloud-bench render_dashboard`) walks
//!   [`ALL`] against `results/`, the goldens and the committed
//!   `BENCH_*.json` files to render `docs/alignment/STATUS.md`;
//! * the golden walk (`tests/goldens.rs`) runs every entry with a
//!   [`ExperimentInfo::golden`] or [`ExperimentInfo::audit_covered`] and
//!   checks its golden and its audit and trace coverage.
//!
//! The `experiments!` table names each entry by its module, so an id
//! cannot drift from its code. A completeness test pins the registry to
//! the filesystem: every `src/experiments/*.rs` appears exactly once in
//! [`ALL`], and every registered golden exists — no unregistered or
//! phantom experiments.

use crate::Harness;

/// What kind of experiment an entry is.
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
/// render a coverage row without running it, and the function that runs
/// it.
#[derive(Debug)]
pub struct ExperimentInfo {
    /// Registry id == the experiment's `src/experiments/<id>.rs` stem.
    pub id: &'static str,
    /// Runs the experiment: prints its tables to stdout and writes its
    /// artifacts.
    pub run: fn(&mut Harness),
    /// The paper figure/table/claim this experiment covers.
    pub paper_ref: &'static str,
    /// What kind of experiment this is.
    pub kind: ExperimentKind,
    /// One-line statement of the claim the experiment checks.
    pub claim: &'static str,
    /// Scenario kinds exercised (`"-"` when none are simulated).
    pub scenarios: &'static str,
    /// Strategies exercised (`"-"` when none).
    pub strategies: &'static str,
    /// `results/<stem>.json` artifacts the experiment writes.
    pub artifacts: &'static [&'static str],
    /// Committed FAST golden, relative to the repo root. The golden walk
    /// (`tests/goldens.rs`) runs the experiment FAST and requires its
    /// first artifact to hold every field of the golden.
    pub golden: Option<&'static str>,
    /// The golden walk's checked run (see `audit_covered`) also sets
    /// `HCLOUD_TRACE=full`, requires one trace file per simulated run and
    /// replays each offline. Needs `audit_covered`.
    pub trace_covered: bool,
    /// The golden walk (`tests/goldens.rs`) reruns the experiment FAST
    /// under `HCLOUD_JOBS=4 HCLOUD_AUDIT=strict`, and it must keep its
    /// stdout and artifacts byte for byte.
    pub audit_covered: bool,
    /// Some of the experiment's runs carry an active fault plan in their
    /// own configuration (its chaos variants).
    pub fault_covered: bool,
    /// The CI job that executes the experiment (`"manual"` when none
    /// does).
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

/// Builds [`ALL`]: each entry is keyed by its module under
/// `crate::experiments`, which gives both its `id` and its `run`.
macro_rules! experiments {
    ($($module:ident => { $($field:ident : $value:expr),* $(,)? })*) => {
        /// Every registered experiment, in `src/experiments/` order.
        pub static ALL: &[ExperimentInfo] = &[$(ExperimentInfo {
            id: stringify!($module),
            run: crate::experiments::$module::run,
            $($field: $value),*
        }),*];
    };
}

experiments! {
    ablations => {
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
        ci_job: "test",
    }
    ext_data_locality => {
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
        ci_job: "test",
    }
    ext_fault_resilience => {
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
        ci_job: "test",
    }
    ext_long_horizon => {
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
        ci_job: "test",
    }
    ext_multi_tenant => {
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
        ci_job: "test",
    }
    ext_spot_partitioning => {
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
        ci_job: "test",
    }
    ext_theory_strategies => {
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
        ci_job: "test",
    }
    fig01_variability_batch => {
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
        ci_job: "test",
    }
    fig02_variability_memcached => {
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
        ci_job: "test",
    }
    fig03_tab02_scenarios => {
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
        ci_job: "test",
    }
    fig04_fig05_basic_strategies => {
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
    fig06_fig07_mapping_policies => {
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
        ci_job: "test",
    }
    fig09_dynamic_policy => {
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
        ci_job: "test",
    }
    fig10_fig11_hybrid => {
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
    fig12_price_ratio => {
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
        ci_job: "test",
    }
    fig13_duration => {
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
        ci_job: "test",
    }
    fig14_spinup_external => {
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
        ci_job: "test",
    }
    fig15_retention => {
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
        ci_job: "test",
    }
    fig16_sensitive_fraction => {
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
        ci_job: "test",
    }
    fig17_pricing_models => {
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
        ci_job: "test",
    }
    fig18_allocation => {
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
        ci_job: "test",
    }
    fig19_20_utilization => {
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
        ci_job: "test",
    }
    fig21_breakdown => {
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
        ci_job: "test",
    }
    perf_fleet => {
        paper_ref: "perf: fleet-scale engine",
        kind: ExperimentKind::Perf,
        claim: "the ~1M-job fleet run is digest-pinned, and profiling it moves no byte",
        scenarios: "high-variability-fleet",
        strategies: "OdM",
        artifacts: &["BENCH_fleet"],
        golden: Some("crates/bench/goldens/BENCH_fleet_fast.json"),
        trace_covered: false,
        audit_covered: false,
        fault_covered: false,
        ci_job: "perf",
    }
    perf_hotpath => {
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
    render_dashboard => {
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
    render_figures => {
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
    replication => {
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
        ci_job: "test",
    }
    tab01_03_strategies => {
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
        ci_job: "test",
    }
    tab_overheads => {
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
        ci_job: "test",
    }
}

/// Looks an experiment up by registry id.
pub fn find(id: &str) -> Option<&'static ExperimentInfo> {
    ALL.iter().find(|e| e.id == id)
}

/// Resolves `hcloud-bench` arguments, in order: each is a registry id, or
/// `all` for every entry that is not [`ExperimentKind::Tooling`], in
/// registry order. An unknown id is an error listing the known ones.
pub fn select(args: &[String]) -> Result<Vec<&'static ExperimentInfo>, String> {
    let mut selected = Vec::new();
    for arg in args {
        if arg == "all" {
            selected.extend(ALL.iter().filter(|e| e.kind != ExperimentKind::Tooling));
            continue;
        }
        match find(arg) {
            Some(info) => selected.push(info),
            None => {
                let known: Vec<&str> = ALL.iter().map(|e| e.id).collect();
                return Err(format!(
                    "unknown experiment {arg:?}; expected `all` or one of: {}",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(selected)
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
    fn every_experiment_module_is_registered_exactly_once() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let mut stems = BTreeSet::new();
        for entry in std::fs::read_dir(&dir).expect("src/experiments exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("rs")
                && path.file_stem().and_then(|s| s.to_str()) != Some("mod")
            {
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
            "registry ids and src/experiments/*.rs stems must match exactly"
        );
        let mut ordered: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        ordered.sort_unstable();
        assert!(
            ALL.iter().map(|e| e.id).eq(ordered),
            "registry order is the module order"
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
                    "{}: committed artifact {artifact} missing (run the experiment and commit it)",
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
        let jobs: BTreeSet<&str> = ["test", "perf", "dashboard", "manual"]
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
    fn select_expands_all_and_rejects_unknown_ids() {
        let args = |ids: &[&str]| ids.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ids = |infos: Vec<&ExperimentInfo>| infos.iter().map(|e| e.id).collect::<Vec<_>>();

        let picked = select(&args(&["fig13_duration", "fig12_price_ratio"])).expect("known ids");
        assert_eq!(ids(picked), ["fig13_duration", "fig12_price_ratio"]);

        let all = ids(select(&args(&["all"])).expect("all"));
        let expected: Vec<&str> = ALL
            .iter()
            .filter(|e| e.kind != ExperimentKind::Tooling)
            .map(|e| e.id)
            .collect();
        assert_eq!(all, expected, "`all` is every non-tooling entry, in order");
        assert!(!all.contains(&"render_dashboard"));
        assert!(all.contains(&"perf_fleet"));

        let err = select(&args(&["replication", "no_such_bench"])).expect_err("unknown id");
        assert!(err.contains("no_such_bench"), "{err}");
        assert!(
            err.contains("render_dashboard"),
            "lists the known ids: {err}"
        );
        assert!(find("perf_fleet").is_some());
        assert!(find("no_such_bench").is_none());
    }
}
