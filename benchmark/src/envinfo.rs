//! The machine record that goes with every result: core count, CPU
//! model, git revision, where the durable workload's files live, and the
//! process's peak resident set.

use crate::json::{obj, Value};
use std::path::Path;
use std::process::Command;

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM` of this process in MiB — the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first CPU this process may run on (`Cpus_allowed_list`).
pub fn first_allowed_cpu() -> Option<u32> {
    let list = proc_field("/proc/self/status", "Cpus_allowed_list")?;
    list.split([',', '-']).next()?.trim().parse().ok()
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`): `tmpfs`, `ext4`, …
pub fn fs_kind(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `env` object of `results.json`. `storage_dir` is where the durable
/// workload's WAL and snapshots really live (resolved, not as given) and
/// `storage_dir_kind` the filesystem under it, because `fsync` on a disk
/// and on a tmpfs are different costs.
pub fn record(seed: u64, out_dir: &Path) -> Value {
    let _ = std::fs::create_dir_all(out_dir);
    let real_dir = out_dir
        .canonicalize()
        .unwrap_or_else(|_| out_dir.to_path_buf());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    obj([
        ("nproc", Value::Num(nproc as f64)),
        (
            "cpu_model",
            Value::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("git_rev", Value::Str(git_rev())),
        ("storage_dir", Value::Str(real_dir.display().to_string())),
        ("storage_dir_kind", Value::Str(fs_kind(&real_dir))),
        ("seed", Value::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib() > 1.0);
        assert!(first_allowed_cpu().is_some());
        assert_ne!(fs_kind(Path::new("/proc")), "unknown");
    }
}
