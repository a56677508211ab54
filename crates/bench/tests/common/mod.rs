//! The `hcloud-bench` runner the binary's integration tests share.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// One finished `hcloud-bench` run; its directory goes when it drops.
pub struct Run {
    pub dir: PathBuf,
    pub out: Output,
}

impl Run {
    /// Runs `hcloud-bench <args>` under `env` alone, every other
    /// `HCLOUD_*` variable cleared, in a fresh directory named after
    /// `tag`.
    pub fn new(tag: &str, args: &[&str], env: &[(&str, &str)]) -> Run {
        let dir = std::env::temp_dir().join(format!("hcloud-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hcloud-bench"));
        cmd.args(args).current_dir(&dir);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("HCLOUD_") {
                cmd.env_remove(key);
            }
        }
        cmd.envs(env.iter().copied());
        Run {
            out: cmd.output().expect("hcloud-bench runs"),
            dir,
        }
    }

    /// The run's stderr, lossily decoded.
    pub fn stderr(&self) -> String {
        String::from_utf8_lossy(&self.out.stderr).into_owned()
    }

    /// Every file with extension `ext` directly under `sub`, by name.
    pub fn files(&self, sub: &str, ext: &str) -> BTreeMap<String, Vec<u8>> {
        let Ok(entries) = std::fs::read_dir(self.dir.join(sub)) else {
            return BTreeMap::new();
        };
        entries
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().and_then(|e| e.to_str()) == Some(ext))
            .map(|path| {
                let name = path.file_name().expect("file name").to_string_lossy();
                (name.into_owned(), std::fs::read(&path).expect("readable"))
            })
            .collect()
    }

    /// The `N` of the `[name] engine: N simulated, …` line on stderr.
    pub fn simulated(&self, name: &str) -> usize {
        let prefix = format!("[{name}] engine: ");
        self.stderr()
            .lines()
            .find_map(|line| line.strip_prefix(&prefix))
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no `{prefix}N simulated` line"))
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
