//! Command-line parsing. Every malformed argument is an error naming it.

use std::path::PathBuf;

use crate::protocol::Protocol;
use crate::workload::Workload;

/// Parsed command line: which workloads, and how to measure them.
#[derive(Debug)]
pub struct Args {
    pub workloads: Vec<Workload>,
    pub protocol: Protocol,
}

pub const USAGE: &str = "usage: hcloud-benchmark [--workload NAME] [--seed N] [--seconds N] \
[--reps N] [--trace 0|1] [--out-dir DIR]";

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: expected a non-negative integer, got {raw:?}"))
}

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut protocol = Protocol {
        seed: 42,
        seconds: 10.0,
        min_reps: 5,
        trace: false,
        out_dir: PathBuf::from("target/benchmark/out"),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag}: missing value ({USAGE})"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "--workload: unknown workload {value:?} (known: {})",
                        known.join(", ")
                    )
                })?;
                workloads = vec![w];
            }
            "--seed" => protocol.seed = number(&flag, &value)?,
            "--seconds" => protocol.seconds = number::<u32>(&flag, &value)? as f64,
            "--reps" => {
                protocol.min_reps = number(&flag, &value)?;
                if protocol.min_reps == 0 {
                    return Err("--reps: must be at least 1".to_string());
                }
            }
            "--trace" => {
                protocol.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            "--out-dir" => protocol.out_dir = PathBuf::from(value),
            _ => return Err(format!("{flag}: unknown argument ({USAGE})")),
        }
    }
    Ok(Args {
        workloads,
        protocol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_run_every_workload_untraced() {
        let a = parse_str("").unwrap();
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert_eq!(a.protocol.seed, 42);
        assert_eq!(a.protocol.min_reps, 5);
        assert!(!a.protocol.trace);
    }

    #[test]
    fn contract_arguments_parse() {
        let a = parse_str("--workload tenant-zipf --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::TenantZipf]);
        assert_eq!(a.protocol.seed, 7);
        assert_eq!(a.protocol.seconds, 10.0);
        assert!(a.protocol.trace);
    }

    #[test]
    fn malformed_arguments_name_the_flag() {
        for (args, flag) in [
            ("--workload nope", "--workload"),
            ("--seed abc", "--seed"),
            ("--seed -1", "--seed"),
            ("--reps 0", "--reps"),
            ("--reps x", "--reps"),
            ("--trace 2", "--trace"),
            ("--seconds 1.5", "--seconds"),
            ("--bogus 1", "--bogus"),
            ("--seed", "--seed"),
        ] {
            let err = parse_str(args).unwrap_err();
            assert!(err.starts_with(flag), "{args}: {err}");
        }
    }
}
