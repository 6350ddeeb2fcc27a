//! The host a result was measured on, and peak resident memory.

/// What every result records about where it was measured, so results
/// from different hosts are never compared silently.
#[derive(Clone, Debug)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain that built the benchmark.
    pub rustc: String,
    /// The source revision: a git commit, or a hash of the source tree
    /// when the checkout is not a git repository.
    pub commit: String,
}

impl Host {
    /// Detects the host. The toolchain and revision come from the
    /// launcher (`run.sh`), which already runs outside the measurement.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env("E2EBENCH_RUSTC"),
            commit: env("E2EBENCH_COMMIT"),
        }
    }
}

/// Whose peak resident set to read.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    /// This process.
    SelfProcess,
    /// The largest descendant this process has waited for.
    Children,
}

/// `struct rusage` on Linux: two `timeval`s then fourteen `long`s, all
/// eight bytes wide on the 64-bit targets this benchmark runs on.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size in MB (`ru_maxrss`, which Linux reports in
/// KiB), or `None` when the call fails.
pub fn peak_rss_mb(who: Who) -> Option<f64> {
    let code = match who {
        Who::SelfProcess => 0,
        Who::Children => -1,
    };
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` (18 eight-byte fields), and `getrusage` writes at
    // most that struct through the pointer.
    let rc = unsafe { getrusage(code, &mut usage) };
    (rc == 0).then(|| usage.longs[0] as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive() {
        let mb = peak_rss_mb(Who::SelfProcess).unwrap();
        assert!(mb > 0.1 && mb < 100_000.0, "{mb}");
        assert!(peak_rss_mb(Who::Children).is_some());
    }
}
