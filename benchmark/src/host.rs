//! What the host could change under the numbers: its fingerprint, the
//! benchmark's scratch directory, and the process's peak memory.

use crate::adapter;
use std::path::{Path, PathBuf};

/// Pool width of the "default" runs: what the program would pick on
/// this host, capped so the load never exceeds a small CI machine.
pub fn default_width() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark package's directory: `benchmark/` under the current
/// directory when run from a checkout's root (as the `BENCHMARK.json`
/// command does), else where the package was built.
fn package_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// `benchmark/out/`, created on demand; everything a run writes goes
/// under it.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Golden outputs committed with the benchmark.
pub fn golden_path(workload: &str, seed: u64) -> PathBuf {
    package_dir()
        .join("golden")
        .join(format!("{workload}.seed{seed}.txt"))
}

/// A directory under `out/` that does not exist yet, unique to this
/// process and `tag`.
pub fn fresh_dir(tag: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir()?.join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(dir)
}

/// Points the program's persisted GEMM autotune table at a path under
/// `out/` that never exists, so no table left by an earlier run can
/// differ between two runs. Call before any thread starts.
pub fn pin_autotune() -> std::io::Result<()> {
    let path = out_dir()?.join(format!("no-autotune-{}.json", std::process::id()));
    std::env::set_var(adapter::AUTOTUNE_PATH_ENV, path);
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout is at, read from `.git` without running git;
/// "unknown" outside a repository.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Host and run identity, recorded in every output.
pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub isa: &'static str,
    pub width: usize,
    pub git_rev: String,
    pub seed: u64,
}

impl Fingerprint {
    pub fn take(seed: u64) -> Self {
        Self {
            cpu: cpu_model(),
            nproc: nproc(),
            isa: adapter::isa_name(),
            width: default_width(),
            git_rev: git_rev(),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": \"{}\", \"nproc\": {}, \"isa\": \"{}\", \"pool_width\": {}, \
             \"git_rev\": \"{}\", \"seed\": {}}}",
            self.cpu.replace(['"', '\\'], " "),
            self.nproc,
            self.isa,
            self.width,
            self.git_rev.replace(['"', '\\'], " "),
            self.seed
        )
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cpu \"{}\", nproc {}, isa {}, pool width W = {}, git {}, seed {}",
            self.cpu, self.nproc, self.isa, self.width, self.git_rev, self.seed
        )
    }
}
