//! One module per registered experiment: each holds `pub fn run(h: &mut
//! Harness)`, and [`crate::registry::ALL`] pairs it with its
//! `ExperimentInfo`. Run one with `hcloud-bench <id>`.

pub mod ablations;
pub mod ext_data_locality;
pub mod ext_fault_resilience;
pub mod ext_long_horizon;
pub mod ext_multi_tenant;
pub mod ext_spot_partitioning;
pub mod ext_theory_strategies;
pub mod fig01_variability_batch;
pub mod fig02_variability_memcached;
pub mod fig03_tab02_scenarios;
pub mod fig04_fig05_basic_strategies;
pub mod fig06_fig07_mapping_policies;
pub mod fig09_dynamic_policy;
pub mod fig10_fig11_hybrid;
pub mod fig12_price_ratio;
pub mod fig13_duration;
pub mod fig14_spinup_external;
pub mod fig15_retention;
pub mod fig16_sensitive_fraction;
pub mod fig17_pricing_models;
pub mod fig18_allocation;
pub mod fig19_20_utilization;
pub mod fig21_breakdown;
pub mod perf_fleet;
pub mod perf_hotpath;
pub mod render_dashboard;
pub mod render_figures;
pub mod replication;
pub mod tab01_03_strategies;
pub mod tab_overheads;
