//! `hcloud-benchmark`: runs the workloads one after another in this
//! process and thread, prints every metric with its unit to stderr, and
//! ends stdout with one JSON result line.
//!
//! Exit codes: 0 when every check passed, 1 when a correctness check or
//! the harness failed (the workload and check are named on stderr), 2 on
//! a malformed argument.

use std::process::ExitCode;

use hcloud_benchmark::protocol::run_workload;
use hcloud_benchmark::{args, result_json};

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hcloud-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut reports = Vec::new();
    for (i, &workload) in args.workloads.iter().enumerate() {
        let report = run_workload(workload, &args.protocol, i > 0);
        let name = workload.name();
        for note in &report.notes {
            eprintln!("[{name}] {note}");
        }
        for m in &report.metrics {
            eprintln!("[{name}] {} {} {}", m.def.name, m.value, m.def.unit);
        }
        for f in &report.failures {
            eprintln!("[{name}] FAILED check {}: {}", f.check, f.detail);
        }
        for e in &report.errors {
            eprintln!("[{name}] ERROR {}: {}", e.check, e.detail);
        }
        reports.push(report);
    }
    println!("{}", result_json(&reports));
    if reports
        .iter()
        .any(|r| !r.failures.is_empty() || !r.errors.is_empty())
    {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
