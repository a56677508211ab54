//! `hcloud-bench <id>…|all`: runs registered experiments.
//!
//! Each argument is a registry id (see `hcloud_bench::registry`) or
//! `all`, every entry except the tooling ones, in registry order. One
//! harness serves the whole process, so the experiments share one run
//! cache and a run is simulated at most once. Exits 2 on a malformed
//! `HCLOUD_*` variable or an unknown id, 3 on an audit violation, and 1
//! when an artifact could not be written.

use std::process::ExitCode;

use hcloud_bench::{artifacts, registry, ExperimentCtx, Harness};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = match registry::select(&args) {
        Ok(experiments) if !experiments.is_empty() => experiments,
        Ok(_) => usage("no experiment given"),
        Err(message) => usage(&message),
    };
    let mut h = Harness::with_ctx(ExperimentCtx::from_env_or_exit());
    for &info in &experiments {
        h.run_experiment(info);
    }
    if experiments.len() > 1 {
        h.report("hcloud-bench");
    }
    artifacts::exit_code()
}

/// Prints `message` and the usage line, then exits 2.
fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: hcloud-bench <experiment id>... | all");
    std::process::exit(2);
}
