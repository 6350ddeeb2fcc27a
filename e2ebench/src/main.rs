//! `e2ebench`: the repository's end-to-end benchmark with a per-layer
//! split. See `e2ebench/README.md` for the workloads, the metrics and
//! the layer → end-to-end prediction table.
//!
//! ```text
//! bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! e2ebench --write-manifest BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it print the same metrics as a table and a `report` object with the
//! host, the seed and how each figure was taken.

mod cycle;
mod host;
mod http;
mod manifest;
mod report;
mod serve;
mod shard;
mod spawn;
mod stats;
mod sweeps;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// One invocation's settings.
pub struct Run {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Seconds the untraced run measures for.
    pub seconds: u64,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// The `segsim` binary, for the start-up probes and `shard_local`.
    pub segsim: PathBuf,
}

/// The run's scratch directory, removed however the run ends (a
/// panicking run included), with the shared parent once no other run
/// uses it.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    segsim: PathBuf,
}

const USAGE: &str = "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--segsim PATH]\n       e2ebench --write-manifest PATH";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut segsim = PathBuf::from(".bench_build/release/segsim");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--segsim" => segsim = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !manifest::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(manifest::RUN_SECONDS);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        segsim,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-manifest") {
        let Some(path) = argv.get(1) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match std::fs::write(path, manifest::render()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.segsim.is_file() {
        eprintln!("e2ebench: no segsim binary at {}", args.segsim.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        work: PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
        segsim: args.segsim,
    };
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("e2ebench: {}: {e}", run.work.display());
        return ExitCode::FAILURE;
    }
    let _scratch = Scratch(run.work.clone());

    let mut tally = report::Tally::default();
    let values = match (args.workload.as_str(), args.trace) {
        ("sweep_dynamics", false) => sweeps::measure(&sweeps::DYNAMICS, &run, &mut tally),
        ("sweep_dynamics", true) => sweeps::traced(&sweeps::DYNAMICS, 2, &run, &mut tally),
        ("sweep_small_journaled", false) => {
            sweeps::measure(&sweeps::SMALL_JOURNALED, &run, &mut tally)
        }
        ("sweep_small_journaled", true) => {
            sweeps::traced(&sweeps::SMALL_JOURNALED, 8, &run, &mut tally)
        }
        ("serve_mixed", false) => serve::measure(&run, &mut tally),
        ("serve_mixed", true) => serve::traced(&run, &mut tally),
        ("shard_local", false) => shard::measure(&run, &mut tally),
        ("shard_local", true) => shard::traced(&run, &mut tally),
        _ => unreachable!("workload names are validated by parse"),
    };
    let h = host::Host::detect();
    let header = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", h.nproc.to_string()),
        ("cpu_model", h.cpu_model),
        ("rustc", h.rustc),
        ("commit", h.commit),
    ];
    report::print(&header, &values, &tally);
    ExitCode::SUCCESS
}
