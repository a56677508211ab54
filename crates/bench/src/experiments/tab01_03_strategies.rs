//! Tables 1 and 3: qualitative comparison of provisioning configurations
//! and the strategy resource matrix.

use hcloud::StrategyRegistry;

use crate::{Harness, Table};

/// Runs the experiment.
pub fn run(_: &mut Harness) {
    println!("Table 1: Comparison of system configurations\n");
    let mut t1 = Table::new(vec![
        "Configuration",
        "Cost",
        "Perf. unpredictability",
        "Spin-up",
        "Flexibility",
        "Typical usage",
    ]);
    t1.row(vec![
        "Reserved".into(),
        "High upfront, low per hour".into(),
        "no".into(),
        "no".into(),
        "no".into(),
        "long-term".into(),
    ]);
    t1.row(vec![
        "On-demand".into(),
        "No upfront, high per hour".into(),
        "yes".into(),
        "yes".into(),
        "yes".into(),
        "short-term".into(),
    ]);
    t1.row(vec![
        "Hybrid".into(),
        "Medium upfront, medium per hour".into(),
        "low".into(),
        "some".into(),
        "yes".into(),
        "long-term".into(),
    ]);
    println!("{t1}");

    println!("Table 3: Resource provisioning strategies\n");
    let mut t3 = Table::new(vec!["", "SR", "OdF", "OdM", "HF", "HM"]);
    let yes_no = |b: bool| if b { "Yes" } else { "No" }.to_string();
    t3.row(
        std::iter::once("Reserved resources".to_string())
            .chain(
                StrategyRegistry::paper()
                    .iter()
                    .map(|s| yes_no(s.uses_reserved())),
            )
            .collect(),
    );
    t3.row(
        std::iter::once("On-demand resources".to_string())
            .chain(StrategyRegistry::paper().iter().map(|s| {
                if !s.uses_on_demand() {
                    "No".to_string()
                } else if s.on_demand_full_only() {
                    "Yes (full servers)".to_string()
                } else {
                    "Yes".to_string()
                }
            }))
            .collect(),
    );
    println!("{t3}");
}
