//! `shard_local`: `segsim shard --workers 2` as a user runs it, and its
//! parts — the two `segsim sweep --shard i/2` workers and the merge —
//! spawned one by one in the traced run.

use crate::cycle::{
    check_rows, closed_loop, job_seed, reread, rows_in, Client, Digest, Fresh, Mix,
};
use crate::host::{peak_rss_mb, Who};
use crate::report::{end_to_end, Layers, Samples, Tally, Value};
use crate::spawn::{segsim, wait_written};
use crate::trace::{check_lines, fill, result_lines, run_traced, Pool, Spans};
use crate::Run;
use seg_engine::{shard_journal_path, Engine, Observer, ShardIndex, SweepSpec};
use seg_grid::rng::Xoshiro256pp;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker processes, one engine thread each (the host's `nproc`).
const WORKERS: u32 = 2;
/// Replicas per fresh job: enough that a job lasts a few seconds, so
/// the coordinator's 100 ms poll, which rounds every job's end up to
/// its next tick, moves a job's time by a few percent at most.
const REPLICAS: u32 = 1280;

/// Requests per cycle besides the fresh job. A resubmit costs two of
/// the coordinator's 100 ms polls, so one per cycle keeps most of the
/// run on fresh jobs.
const MIX: Mix = Mix {
    resubmits: 1,
    restreams: 2,
};

/// The `segsim sweep` flags of fresh job `index`.
fn sweep_flags(seed: u64, index: u64) -> Vec<String> {
    [
        "--side",
        "128",
        "--horizon",
        "2",
        "--tau",
        "0.45",
        "--replicas",
        &REPLICAS.to_string(),
        "--seed",
        &job_seed(seed, index).to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The spec `segsim` builds from [`sweep_flags`].
fn spec_of(seed: u64, index: u64) -> SweepSpec {
    SweepSpec::builder()
        .side(128)
        .horizon(2)
        .tau(0.45)
        .replicas(REPLICAS)
        .master_seed(job_seed(seed, index))
        .build()
}

struct Job {
    index: u64,
    args: Vec<String>,
    dir: PathBuf,
    rows: Digest,
}

struct ShardClient<'a> {
    exe: &'a Path,
    seed: u64,
    work: PathBuf,
}

impl ShardClient<'_> {
    fn shard_args(&self, index: u64, dir: &Path) -> Vec<String> {
        let mut args: Vec<String> = ["shard", "--workers", "2", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(sweep_flags(self.seed, index));
        args.extend([
            "--checkpoint".to_string(),
            dir.join("ck").join("ck.jsonl").display().to_string(),
            "--out".to_string(),
            dir.join("rows.jsonl").display().to_string(),
        ]);
        args
    }
}

impl Client for ShardClient<'_> {
    type Job = Job;

    fn fresh(&mut self, index: u64, tally: &mut Tally) -> Option<(Job, Fresh)> {
        let dir = self.work.join(format!("job{index}"));
        if let Err(e) = std::fs::create_dir_all(dir.join("ck")) {
            tally.fail(format!("job dir: {e}"));
            return None;
        }
        let args = self.shard_args(index, &dir);
        let base = dir.join("ck").join("ck.jsonl");
        // set-up ends when both workers' shard journals hold their
        // header: each can then run its first replica
        let journals: Vec<PathBuf> = (0..WORKERS)
            .map(|i| shard_journal_path(&base, ShardIndex::new(i, WORKERS)))
            .collect();
        let started = Instant::now();
        let outcome = segsim(self.exe, &args, &dir.join("stderr.log"), || {
            wait_written(&journals, started)
        });
        let ttlr = started.elapsed().as_secs_f64();
        let setup = match outcome {
            Ok(setup) => setup,
            Err(e) => {
                tally.fail(format!("fresh job {index}: {e}"));
                return None;
            }
        };
        let rows = std::fs::read(dir.join("rows.jsonl")).unwrap_or_default();
        let count = rows_in(&rows) as u64;
        tally.ops(
            u64::from(REPLICAS),
            u64::from(REPLICAS).saturating_sub(count),
        );
        check_rows(
            &format!("job {index} --out"),
            &spec_of(self.seed, index),
            &rows,
            tally,
        );
        tally.check(setup.is_some(), || {
            format!("job {index}: shard journals never appeared")
        });
        Some((
            Job {
                index,
                args,
                dir,
                rows: Digest::of(&rows),
            },
            Fresh {
                ttlr,
                replicas: REPLICAS as usize,
                setup,
            },
        ))
    }

    fn resubmit(&mut self, job: &Job, tally: &mut Tally) -> Option<f64> {
        // the same command again: every worker finds its journal
        // complete, and the merge rewrites the output from the journals
        let started = Instant::now();
        let outcome = segsim(self.exe, &job.args, &job.dir.join("stderr.log"), || None);
        let secs = started.elapsed().as_secs_f64();
        if let Err(e) = outcome {
            tally.fail(format!("resubmit of job {}: {e}", job.index));
            return None;
        }
        let rows = std::fs::read(job.dir.join("rows.jsonl")).unwrap_or_default();
        tally
            .check(Digest::of(&rows) == job.rows, || {
                format!("resubmit of job {} rewrote different rows", job.index)
            })
            .then_some(secs)
    }

    fn restream(&mut self, job: &Job, tally: &mut Tally) -> Option<(usize, f64)> {
        reread(&job.dir.join("rows.jsonl"), job.rows, tally)
    }
}

/// Runs a single-process `segsim sweep` of job `index` and checks that
/// `rows` are byte-identical to its output.
fn check_against_single_process(
    run: &Run,
    index: u64,
    rows: Digest,
    dir: &Path,
    tally: &mut Tally,
) {
    let _ = std::fs::create_dir_all(dir);
    let out = dir.join("single.jsonl");
    let mut args = vec!["sweep".to_string(), "--threads".into(), "2".into()];
    args.extend(sweep_flags(run.seed, index));
    args.extend(["--out".to_string(), out.display().to_string()]);
    match segsim(&run.segsim, &args, &dir.join("single.log"), || None) {
        Ok(_) => {
            let single = std::fs::read(&out).unwrap_or_default();
            tally.check(Digest::of(&single) == rows, || {
                format!("job {index}: sharded output differs from a single-process sweep")
            });
        }
        Err(e) => tally.fail(format!("single-process reference: {e}")),
    }
}

/// The untraced run: end-to-end metrics.
pub fn measure(run: &Run, tally: &mut Tally) -> Vec<Value> {
    let mut samples = Samples::default();
    let mut client = ShardClient {
        exe: &run.segsim,
        seed: run.seed,
        work: run.work.clone(),
    };
    let mut rng = Xoshiro256pp::seed_from_u64(run.seed);
    let deadline = Instant::now() + Duration::from_secs(run.seconds);
    let jobs = closed_loop(
        &mut client,
        MIX,
        (0, 1),
        &mut rng,
        deadline,
        &mut samples,
        tally,
    );
    let rss = peak_rss_mb(Who::Children).unwrap_or(f64::NAN);
    if let Some(job) = jobs.first() {
        check_against_single_process(run, job.index, job.rows, &run.work.join("single"), tally);
    }
    end_to_end(&samples, rss, tally)
}

fn seconds_of(exe: &Path, args: &[String], log: &Path, tally: &mut Tally) -> Option<f64> {
    let started = Instant::now();
    match segsim(exe, args, log, || None) {
        Ok(_) => Some(started.elapsed().as_secs_f64()),
        Err(e) => {
            tally.fail(e);
            None
        }
    }
}

/// The traced run: the shard pipeline's parts timed one by one, the
/// coordinated run for comparison, and the tasks traced in-process.
pub fn traced(run: &Run, tally: &mut Tally) -> Vec<Value> {
    let mut layers = Layers::default();
    let index = 0;
    let dir = run.work.join("parts");
    let _ = std::fs::create_dir_all(&dir);
    let base = dir.join("ck.jsonl");
    let sweep = |extra: &[&str]| -> Vec<String> {
        let mut a = vec!["sweep".to_string()];
        a.extend(sweep_flags(run.seed, index));
        a.extend(["--checkpoint".to_string(), base.display().to_string()]);
        a.extend(extra.iter().map(|s| s.to_string()));
        a
    };

    // the two workers, concurrently, each timed from spawn to exit
    let workers: Vec<Option<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|i| {
                let args = sweep(&["--threads", "1", "--shard", &format!("{i}/{WORKERS}")]);
                let log = dir.join(format!("worker{i}.log"));
                let exe = &run.segsim;
                scope.spawn(move || {
                    let mut t = Tally::default();
                    (seconds_of(exe, &args, &log, &mut t), t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (secs, t) = h.join().expect("worker thread panicked");
                tally.absorb(t);
                secs
            })
            .collect()
    });
    let worker_secs: Vec<f64> = workers.into_iter().flatten().collect();
    let out = dir.join("rows.jsonl");
    let merge = seconds_of(
        &run.segsim,
        &sweep(&["--threads", "2", "--out", &out.display().to_string()]),
        &dir.join("merge.log"),
        tally,
    );
    let journal_bytes: u64 = (0..WORKERS)
        .map(|i| {
            std::fs::metadata(shard_journal_path(&base, ShardIndex::new(i, WORKERS)))
                .map_or(0, |m| m.len())
        })
        .sum();

    // the same job through the coordinator
    let mut client = ShardClient {
        exe: &run.segsim,
        seed: run.seed,
        work: run.work.join("coordinated"),
    };
    let coordinated = client.fresh(index, tally);
    let parts_rows = std::fs::read(&out).unwrap_or_default();
    if let Some((job, _)) = &coordinated {
        tally.check(job.rows == Digest::of(&parts_rows), || {
            "segsim shard output differs from its parts run by hand".into()
        });
    }
    check_against_single_process(
        run,
        index,
        Digest::of(&parts_rows),
        &run.work.join("single"),
        tally,
    );

    let worker_max = worker_secs.iter().copied().fold(0.0, f64::max);
    let worker_min = worker_secs.iter().copied().fold(f64::INFINITY, f64::min);
    if worker_secs.len() == WORKERS as usize {
        layers.set("shard.worker_max_s", worker_max);
        layers.set("shard.worker_min_s", worker_min);
    }
    if let Some(m) = merge {
        layers.set("shard.merge_s", m);
        if let Some((_, fresh)) = &coordinated {
            layers.set("shard.coordination_s", fresh.ttlr - (worker_max + m));
            layers.describe(
                "shard.coordination_s",
                format!(
                    "segsim shard wall {:.6} s - (slowest worker {worker_max:.6} s + merge {m:.6} s)",
                    fresh.ttlr
                ),
            );
        }
    }
    layers.set("shard.journal_bytes", journal_bytes as f64);

    // the tasks in-process: pool figures untraced, then traced
    let spec = spec_of(run.seed, index);
    let result = Engine::new()
        .threads(2)
        .run(&spec, &[Observer::TerminalStats]);
    let mut pool = Pool::default();
    pool.add(&result);
    let mut spans = Spans::default();
    let trace_dir = run.work.join("traced");
    match run_traced(&spec, &trace_dir, &mut spans, tally) {
        Ok(lines) => {
            check_lines("shard spec", &lines, &result_lines(&result), tally);
            let traced_rows =
                std::fs::read(trace_dir.join("traced_rows.jsonl")).unwrap_or_default();
            tally.check(traced_rows == parts_rows, || {
                "traced rows differ from the merged shard output".into()
            });
        }
        Err(e) => tally.fail(format!("traced: {e}")),
    }
    fill(&mut layers, &spans, &pool);
    layers.in_manifest_order()
}
