//! `hcloud-cli` — run HCloud provisioning experiments from the shell.
//!
//! ```text
//! hcloud-cli compare  --scenario high [--scale 0.25] [--minutes 40] [--seed 42]
//! hcloud-cli run      --scenario high --strategy HM [--no-profiling]
//!                     [--policy P8] [--spot 0.6] [--pricing aws|gce|azure]
//! hcloud-cli sweep    --knob spinup|external|retention|sensitive
//!                     [--scenario high] [--strategy HM]
//! hcloud-cli export   --scenario low --out scenario.json
//! hcloud-cli run      --scenario-file scenario.json --strategy HF
//! hcloud-cli validate --file scenario.json
//! hcloud-cli advise   --scenario high --weeks 30 --perf-floor 0.9
//! hcloud-cli trace    --file results/traces/replication-004-HighVariability-HM-seed42.jsonl
//!                     [--limit 50]
//! ```
//!
//! Everything is deterministic in `--seed` (default 42). The default
//! `--scale 0.25 --minutes 40` keeps runs under a second; pass
//! `--scale 1 --minutes 120` for paper-scale experiments.
//!
//! Malformed input exits 2: a scenario file under `validate`, or an
//! `HCLOUD_*` variable under `compare` (as in `hcloud-bench`). Other
//! failures exit 1.

mod advise;
mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        // A malformed scenario file is its own exit code (2) so CI can
        // tell "bad input document" apart from "run failed".
        Ok(args::Command::Validate(file)) => match commands::validate_file(&file) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Ok(command) => match commands::run(command) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
