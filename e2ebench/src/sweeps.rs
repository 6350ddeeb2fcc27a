//! The in-process sweep workloads: `Engine::run_full` with a checkpoint
//! journal and a JSONL streaming sink, on two engine threads.

use crate::cycle::{check_rows, closed_loop, job_seed, reread, Client, Digest, Fresh, Mix};
use crate::host::{peak_rss_mb, Who};
use crate::report::{end_to_end, Layers, Samples, Tally, Value};
use crate::spawn::startup;
use crate::trace::{check_lines, fill, result_lines, run_traced, Pool, Spans};
use crate::Run;
use seg_engine::{
    header_line, spec_fingerprint, Engine, Observer, StreamingSink, SweepResult, SweepSpec, Variant,
};
use seg_grid::rng::Xoshiro256pp;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The sweep one fresh job runs; only the master seed varies per job.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Torus side.
    pub side: u32,
    /// Horizon `w`.
    pub horizon: u32,
    /// Intolerance τ.
    pub tau: f64,
    /// Variants, in [`Variant::flag`] spelling.
    pub variants: &'static [&'static str],
    /// Replicas per point.
    pub replicas: u32,
    /// Per-replica event budget (`None` runs to stability).
    pub max_events: Option<u64>,
}

impl Shape {
    /// The spec of the job with master seed `seed`.
    pub fn spec(&self, seed: u64) -> SweepSpec {
        let variants: Vec<Variant> = self
            .variants
            .iter()
            .map(|v| v.parse().expect("benchmark variants parse"))
            .collect();
        let mut b = SweepSpec::builder()
            .side(self.side)
            .horizon(self.horizon)
            .tau(self.tau)
            .variants(variants)
            .replicas(self.replicas)
            .master_seed(seed);
        if let Some(budget) = self.max_events {
            b = b.max_events(budget);
        }
        b.build()
    }

    /// The `segsim sweep` flags that build [`Shape::spec`]`(seed)`.
    pub fn flags(&self, seed: u64) -> Vec<String> {
        let mut f = vec![
            "--side".to_string(),
            self.side.to_string(),
            "--horizon".into(),
            self.horizon.to_string(),
            "--tau".into(),
            self.tau.to_string(),
            "--variant".into(),
            self.variants.join(","),
            "--replicas".into(),
            self.replicas.to_string(),
            "--seed".into(),
            seed.to_string(),
        ];
        if let Some(budget) = self.max_events {
            f.extend(["--max-events".into(), budget.to_string()]);
        }
        f
    }
}

/// `sweep_dynamics`: the paper process at side 256, w = 8, where flip
/// dynamics dominate each replica.
pub const DYNAMICS: Shape = Shape {
    side: 256,
    horizon: 8,
    tau: 0.45,
    variants: &["paper"],
    replicas: 8,
    max_events: None,
};

/// `sweep_small_journaled`: many small replicas of all three 2-D
/// simulators, where setup, observers and I/O outweigh dynamics.
pub const SMALL_JOURNALED: Shape = Shape {
    side: 64,
    horizon: 1,
    tau: 0.45,
    variants: &["paper", "two-sided:0.7", "noise:0.01"],
    replicas: 200,
    max_events: Some(4000),
};

/// Requests per cycle besides the fresh job: resubmits (journal
/// resumes) and re-reads of the rows are cheap next to a sweep.
const MIX: Mix = Mix {
    resubmits: 4,
    restreams: 2,
};
/// Engine threads (the host's `nproc`).
const THREADS: usize = 2;

const OBSERVERS: [Observer; 1] = [Observer::TerminalStats];

/// A finished job, as the client remembers it.
pub struct Job {
    spec: SweepSpec,
    dir: PathBuf,
    lines: Digest,
    rows: Digest,
}

impl Job {
    fn ck(&self) -> PathBuf {
        self.dir.join("ck.jsonl")
    }
    fn rows_path(&self) -> PathBuf {
        self.dir.join("rows.jsonl")
    }
}

struct InProcess<'a> {
    shape: &'a Shape,
    seed: u64,
    dir: PathBuf,
    engine: Engine,
    segsim: PathBuf,
    probes: u64,
}

impl InProcess<'_> {
    fn fresh_result(&mut self, index: u64, tally: &mut Tally) -> Option<(Job, SweepResult, f64)> {
        let spec = self.shape.spec(job_seed(self.seed, index));
        let job = Job {
            spec,
            dir: self.dir.join(format!("job{index}")),
            lines: Digest::of(&[]),
            rows: Digest::of(&[]),
        };
        let started = Instant::now();
        let outcome = StreamingSink::jsonl(&job.rows_path(), &job.spec, false)
            .map_err(|e| e.to_string())
            .and_then(|stream| {
                self.engine
                    .run_full(&job.spec, &OBSERVERS, Some(&job.ck()), Some(&stream))
                    .map_err(|e| e.to_string())
            });
        let ttlr = started.elapsed().as_secs_f64();
        let result = match outcome {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("fresh job {index}: {e}"));
                return None;
            }
        };
        let tasks = job.spec.task_count() as u64;
        tally.ops(tasks, tasks - result.records().len() as u64);
        let rows = std::fs::read(job.rows_path()).unwrap_or_default();
        check_rows(&format!("job {index} rows"), &job.spec, &rows, tally);
        let job = Job {
            lines: Digest::of_lines(&result_lines(&result)),
            rows: Digest::of(&rows),
            ..job
        };
        Some((job, result, ttlr))
    }
}

impl Client for InProcess<'_> {
    type Job = Job;

    fn fresh(&mut self, index: u64, tally: &mut Tally) -> Option<(Job, Fresh)> {
        let (job, _, ttlr) = self.fresh_result(index, tally)?;
        let replicas = job.spec.task_count();
        Some((
            job,
            Fresh {
                ttlr,
                replicas,
                setup: None,
            },
        ))
    }

    fn resubmit(&mut self, job: &Job, tally: &mut Tally) -> Option<f64> {
        // the same spec again: the fingerprint-keyed journal answers
        // every task, the stream resumes with nothing left to write
        let started = Instant::now();
        let outcome = StreamingSink::jsonl(&job.rows_path(), &job.spec, true)
            .map_err(|e| e.to_string())
            .and_then(|stream| {
                self.engine
                    .run_full(&job.spec, &OBSERVERS, Some(&job.ck()), Some(&stream))
                    .map_err(|e| e.to_string())
            });
        let secs = started.elapsed().as_secs_f64();
        match outcome {
            Ok(result) => {
                let rows_now = std::fs::metadata(job.rows_path()).map_or(0, |m| m.len());
                tally.check(
                    Digest::of_lines(&result_lines(&result)) == job.lines
                        && rows_now == job.rows.len() as u64,
                    || "resubmit was not answered from the journal unchanged".into(),
                );
                Some(secs)
            }
            Err(e) => {
                tally.fail(format!("resubmit: {e}"));
                None
            }
        }
    }

    fn restream(&mut self, job: &Job, tally: &mut Tally) -> Option<(usize, f64)> {
        reread(&job.rows_path(), job.rows, tally)
    }

    fn setup(&mut self, tally: &mut Tally) -> Option<f64> {
        // one per cycle, so the samples spread over the whole run
        // rather than one moment of it
        self.probes += 1;
        let dir = self.dir.join("setup");
        let seed = job_seed(self.seed, u64::MAX - self.probes);
        setup_once(self.shape, seed, &self.segsim, &dir, tally)
    }
}

/// One start-up of the workload's sweep as a user runs it: `segsim
/// sweep` with the job's spec, threads, journal and row stream, timed
/// from the spawn until its journal holds the header — the last step
/// before `run_full` hands replicas to the pool. The header is checked
/// against the spec, so the probe is known to run the workload's sweep.
fn setup_once(shape: &Shape, seed: u64, exe: &Path, dir: &Path, tally: &mut Tally) -> Option<f64> {
    let ck = dir.join("ck.jsonl");
    let mut args = vec!["sweep".to_string()];
    args.extend(shape.flags(seed));
    args.extend([
        "--threads".into(),
        THREADS.to_string(),
        "--checkpoint".into(),
        ck.display().to_string(),
        "--stream".into(),
        "--out".into(),
        dir.join("rows.jsonl").display().to_string(),
    ]);
    let secs = std::fs::create_dir_all(dir)
        .map_err(|e| e.to_string())
        .and_then(|()| startup(exe, &args, &ck));
    let header = std::fs::read_to_string(&ck).unwrap_or_default();
    let _ = std::fs::remove_dir_all(dir);
    match secs {
        Ok(secs) => {
            let spec = shape.spec(seed);
            let expected = header_line(spec_fingerprint(&spec), spec.task_count());
            tally
                .check(header.lines().next() == Some(expected.as_str()), || {
                    format!(
                        "segsim sweep start-up wrote journal header {header:?}, not {expected:?}"
                    )
                })
                .then_some(secs)
        }
        Err(e) => {
            tally.fail(format!("segsim sweep start-up: {e}"));
            None
        }
    }
}

fn client<'a>(shape: &'a Shape, run: &Run, dir: &Path) -> InProcess<'a> {
    InProcess {
        shape,
        seed: run.seed,
        dir: dir.to_path_buf(),
        engine: Engine::new().threads(THREADS),
        segsim: run.segsim.clone(),
        probes: 0,
    }
}

/// The untraced run: end-to-end metrics.
pub fn measure(shape: &Shape, run: &Run, tally: &mut Tally) -> Vec<Value> {
    let mut samples = Samples::default();
    let mut c = client(shape, run, &run.work);
    let mut rng = Xoshiro256pp::seed_from_u64(run.seed);
    let deadline = Instant::now() + Duration::from_secs(run.seconds);
    closed_loop(&mut c, MIX, (0, 1), &mut rng, deadline, &mut samples, tally);
    let rss = peak_rss_mb(Who::SelfProcess).unwrap_or(f64::NAN);
    end_to_end(&samples, rss, tally)
}

/// The traced run: `jobs` fresh jobs untraced (for the pool figures),
/// then the same tasks again through the traced layer calls.
pub fn traced(shape: &Shape, jobs: u64, run: &Run, tally: &mut Tally) -> Vec<Value> {
    let mut c = client(shape, run, &run.work);
    let mut pool = Pool::default();
    let mut spans = Spans::default();
    for index in 0..jobs {
        let Some((job, result, _)) = c.fresh_result(index, tally) else {
            continue;
        };
        pool.add(&result);
        let trace_dir = job.dir.join("traced");
        match run_traced(&job.spec, &trace_dir, &mut spans, tally) {
            Ok(lines) => {
                check_lines(
                    &format!("job {index}"),
                    &lines,
                    &result_lines(&result),
                    tally,
                );
                let traced_rows =
                    std::fs::read(trace_dir.join("traced_rows.jsonl")).unwrap_or_default();
                tally.check(Digest::of(&traced_rows) == job.rows, || {
                    format!("job {index}: traced rows differ from the untraced stream")
                });
            }
            Err(e) => tally.fail(format!("traced job {index}: {e}")),
        }
    }
    let mut layers = Layers::default();
    fill(&mut layers, &spans, &pool);
    layers.in_manifest_order()
}
