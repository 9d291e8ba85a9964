//! What the operating system and the build say about a run: the
//! environment stamp written into every record, and the `/proc` readers
//! behind `peak_rss_mb` and the `proc.*` layer metrics (Linux only — off
//! Linux they read 0 and the run reports it as a failure).

use morestress_linalg::KernelChoice;

use crate::json::{obj, Value};

/// Worker-pool cap every run pins: one worker, so every measured phase is
/// one busy thread. On the shared 2-vCPU hosts the benchmark is accepted
/// on, a second busy thread gets between nothing and a whole core from one
/// minute to the next, and anything timed across both measures the host's
/// scheduler rather than the program (see the README's noise section).
pub fn pinned_pool_cap() -> usize {
    1
}

/// Pool cap of the one parallel replay of a traced run
/// (`factor.par_speedup`): `min(nproc, 4)`.
pub fn parallel_pool_cap() -> usize {
    nproc().min(4)
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The environment stamp: `nproc`, pool cap, git commit and `rustc`
/// version (both handed in by `run.sh`; `unknown` when absent, as in a
/// checkout that is not a git repository), the resolved dense kernel and
/// the CPU's `fma`/`avx2` flags.
pub fn stamp() -> Value {
    let var = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    #[cfg(target_arch = "x86_64")]
    let (fma, avx2) = (
        std::arch::is_x86_feature_detected!("fma"),
        std::arch::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (fma, avx2) = (false, false);
    obj([
        ("nproc", (nproc() as f64).into()),
        ("pool_cap", (pinned_pool_cap() as f64).into()),
        ("git_commit", var("MORESTRESS_BENCH_COMMIT").into()),
        ("rustc", var("MORESTRESS_BENCH_RUSTC").into()),
        ("kernel", KernelChoice::default().resolved_name().into()),
        ("fma", fma.into()),
        ("avx2", avx2.into()),
    ])
}

/// Peak resident set (`VmHWM`) of this process in MB, or `None` when
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time and minor page faults of this process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcUsage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: f64,
}

impl ProcUsage {
    /// Reads `/proc/self/stat`; `None` when it is missing or malformed.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name (field 2) may contain spaces; fields are counted
        // from the closing parenthesis, after which `state` is field 3.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| fields.get(n - 3)?.parse::<f64>().ok();
        // USER_HZ is 100 on every Linux ABI Rust targets.
        const TICKS_PER_S: f64 = 100.0;
        Some(Self {
            minflt: field(10)?,
            user_s: field(14)? / TICKS_PER_S,
            sys_s: field(15)? / TICKS_PER_S,
        })
    }

    /// The sum of two usages.
    pub fn plus(self, other: ProcUsage) -> ProcUsage {
        ProcUsage {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            minflt: self.minflt + other.minflt,
        }
    }

    /// Usage accumulated since `earlier`.
    pub fn since(self, earlier: ProcUsage) -> ProcUsage {
        ProcUsage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        let before = ProcUsage::now().expect("/proc/self/stat");
        let pages: Vec<u8> = vec![1; 8 << 20];
        std::hint::black_box(&pages);
        let delta = ProcUsage::now().expect("/proc/self/stat").since(before);
        assert!(delta.minflt > 0.0 && delta.user_s >= 0.0 && delta.sys_s >= 0.0);
    }

    #[test]
    fn stamp_names_every_field() {
        let stamp = stamp();
        for key in [
            "nproc",
            "pool_cap",
            "git_commit",
            "rustc",
            "kernel",
            "fma",
            "avx2",
        ] {
            assert!(stamp.get(key).is_some(), "{key}");
        }
        assert_eq!(pinned_pool_cap(), 1);
        assert!((1..=4).contains(&parallel_pool_cap()));
    }
}
