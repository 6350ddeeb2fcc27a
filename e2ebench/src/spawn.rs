//! `segsim` processes spawned by the benchmark, and their start-up
//! timed from outside: from the spawn until a file the program writes
//! once it can run its first replica is there.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How often a start-up probe looks for its files.
pub const POLL: Duration = Duration::from_micros(100);

/// Runs `segsim args…` to completion; `Err` carries its stderr.
/// `on_spawn` runs while the process is alive (the set-up probe).
pub fn segsim<F: FnOnce() -> Option<f64>>(
    exe: &Path,
    args: &[String],
    log: &Path,
    on_spawn: F,
) -> Result<Option<f64>, String> {
    let stderr = std::fs::File::create(log).map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let probed = on_spawn();
    let status = child.wait().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(probed)
    } else {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(5).collect();
        Err(format!(
            "segsim {} exited {status}: {}",
            args[0],
            tail.join(" | ")
        ))
    }
}

/// Seconds from `started` until every file in `paths` is non-empty,
/// polled from outside every [`POLL`]; `None` after a minute.
pub fn wait_written(paths: &[PathBuf], started: Instant) -> Option<f64> {
    while started.elapsed() < Duration::from_secs(60) {
        if paths
            .iter()
            .all(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 0))
        {
            return Some(started.elapsed().as_secs_f64());
        }
        std::thread::sleep(POLL);
    }
    None
}

/// One start-up of `segsim args…`: the seconds from the spawn until
/// `ready` is non-empty. The process is then killed and waited for.
pub fn startup(exe: &Path, args: &[String], ready: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let secs = wait_written(&[ready.to_path_buf()], started);
    let _ = child.kill();
    let _ = child.wait();
    secs.ok_or_else(|| format!("segsim {}: {} never appeared", args[0], ready.display()))
}
