//! The traced re-execution: a sweep's tasks run again on one thread
//! through each layer's public calls, timing every call from here (the
//! program itself carries no instrumentation).
//!
//! The sequence mirrors `seg_engine::replica::run_replica` call for
//! call, so the records it produces must equal the untraced run's byte
//! for byte — that equality is one of the benchmark's output checks.

use crate::report::{Layers, Tally};
use crate::stats::{nearest_rank, pool_busy_ratio, ratio, tail, unattributed_ratio};
use seg_core::interval::{ComfortBand, IntervalSim};
use seg_core::variants::{UpdateRule, VariantSim};
use seg_core::{Intolerance, Simulation};
use seg_engine::{
    record_line, Checkpoint, FinalState, Observer, ReplicaRecord, ReplicaTask, StreamingSink,
    SweepResult, SweepSpec, Variant,
};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{Torus, TypeField};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Accumulated span time per layer, plus the exact counts.
#[derive(Debug, Default)]
pub struct Spans {
    field_sample: f64,
    build: f64,
    dynamics: f64,
    observe: f64,
    encode: f64,
    checkpoint_append: f64,
    sink_append: f64,
    flips: u64,
    replicas: usize,
    /// Σ per-replica traced time, field sampling through observers
    /// (audits excluded).
    replica_time: f64,
    /// Wall time of the traced loops (audits excluded).
    wall: f64,
    checkpoint_bytes: u64,
    sink_bytes: u64,
}

impl Spans {
    fn span_total(&self) -> f64 {
        self.field_sample
            + self.build
            + self.dynamics
            + self.observe
            + self.encode
            + self.checkpoint_append
            + self.sink_append
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Runs `spec`'s tasks on this thread with every layer call timed, into
/// a journal and a streaming sink under `dir` (both as the workload
/// writes them). Returns each record's journal line. Checks that every
/// paper-process simulation passes [`Simulation::audit`].
pub fn run_traced(
    spec: &SweepSpec,
    dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> std::io::Result<Vec<String>> {
    let observers = [Observer::TerminalStats];
    std::fs::create_dir_all(dir)?;
    let ck_path = dir.join("traced_ck.jsonl");
    let rows_path = dir.join("traced_rows.jsonl");
    let (_, journal) = Checkpoint::resume(&ck_path, spec)
        .map_err(|e| std::io::Error::other(format!("traced journal: {e}")))?;
    let sink = StreamingSink::jsonl(&rows_path, spec, false)?;
    let mut lines = Vec::with_capacity(spec.task_count());
    let mut audit_secs = 0.0;
    let loop_start = Instant::now();
    for task in spec.tasks() {
        // the replica's own time covers what `run_replica` covers (and
        // `ReplicaRecord::wall_secs` measures): not the journal or sink
        let started = Instant::now();
        let (rec, audit) = replica(&task, &observers, spans, tally)?;
        spans.replica_time += started.elapsed().as_secs_f64() - audit;
        audit_secs += audit;
        let line = timed(&mut spans.encode, || record_line(&rec));
        timed(&mut spans.checkpoint_append, || journal.append(&rec))?;
        timed(&mut spans.sink_append, || sink.append(&rec))?;
        spans.replicas += 1;
        lines.push(line);
    }
    spans.wall += loop_start.elapsed().as_secs_f64() - audit_secs;
    drop(journal);
    spans.checkpoint_bytes += std::fs::metadata(&ck_path)?.len();
    spans.sink_bytes += std::fs::metadata(&rows_path)?.len();
    Ok(lines)
}

/// One replica through the public calls. Returns the record and the
/// seconds spent auditing (excluded from every span and total).
fn replica(
    task: &ReplicaTask,
    observers: &[Observer],
    spans: &mut Spans,
    tally: &mut Tally,
) -> std::io::Result<(ReplicaRecord, f64)> {
    let p = task.point;
    let torus = Torus::new(p.side);
    let nsize = (2 * p.horizon + 1) * (2 * p.horizon + 1);
    let mut metrics = BTreeMap::new();
    let mut audit = 0.0;
    // the replica RNG is seeded first, exactly as `ModelConfig::build`
    // and the variant constructors do, so the field comes out identical
    let mut rng = Xoshiro256pp::seed_from_u64(task.seed);
    let (state, events) = match p.variant {
        Variant::Paper => {
            let field = timed(&mut spans.field_sample, || {
                TypeField::random(torus, p.density, &mut rng)
            });
            let intol = Intolerance::new(nsize, p.tau);
            let mut sim = timed(&mut spans.build, || {
                Simulation::from_field(field, p.horizon, intol, rng)
            });
            timed(&mut spans.dynamics, || sim.run_to_stable(task.max_events));
            metrics.insert("sim_time".to_string(), sim.time());
            metrics.insert("terminated".to_string(), f64::from(sim.is_stable()));
            let t = Instant::now();
            let ok = sim.audit();
            audit = t.elapsed().as_secs_f64();
            tally.check(ok, || {
                format!("Simulation::audit failed on task {}", task.task_index)
            });
            let events = sim.flips();
            (FinalState::Grid(sim), events)
        }
        Variant::FlipWhenUnhappy | Variant::Noise(_) => {
            let rule = match p.variant {
                Variant::Noise(eps) => UpdateRule::Noise(eps),
                _ => UpdateRule::FlipWhenUnhappy,
            };
            let field = timed(&mut spans.field_sample, || {
                TypeField::random(torus, p.density, &mut rng)
            });
            let intol = Intolerance::new(nsize, p.tau);
            let mut sim = timed(&mut spans.build, || {
                VariantSim::from_field(field, p.horizon, intol, rule, rng)
            });
            timed(&mut spans.dynamics, || sim.run(task.max_events));
            let events = sim.flips();
            (FinalState::VariantGrid(sim), events)
        }
        Variant::TwoSided { tau_hi } => {
            // `IntervalSim::random` samples at density 1/2 whatever the
            // point says; split into its two calls to time them apart
            let field = timed(&mut spans.field_sample, || {
                TypeField::random(torus, 0.5, &mut rng)
            });
            let band = ComfortBand::new(nsize, p.tau, tau_hi);
            let mut sim = timed(&mut spans.build, || {
                IntervalSim::from_field(field, p.horizon, band, rng)
            });
            let stable = timed(&mut spans.dynamics, || sim.run(task.max_events));
            metrics.insert("terminated".to_string(), f64::from(stable));
            metrics.insert("discontent".to_string(), sim.discontent_count() as f64);
            let events = sim.flips();
            (FinalState::TwoSided(sim), events)
        }
        other => {
            return Err(std::io::Error::other(format!(
                "the traced run covers the 2-D grid variants, not {other}"
            )))
        }
    };
    spans.flips += events;
    metrics.insert("events".to_string(), events as f64);
    timed(&mut spans.observe, || {
        observers
            .iter()
            .try_for_each(|o| o.apply(task, &state, &mut metrics))
    })?;
    let rec = ReplicaRecord {
        task: *task,
        events,
        wall_secs: 0.0,
        metrics,
    };
    Ok((rec, audit))
}

/// Pool figures from untraced results: Σ replica seconds, busy ratio
/// and the per-replica p50/p90 (ms).
#[derive(Debug, Default)]
pub struct Pool {
    replica_secs: Vec<f64>,
    /// `(wall seconds, threads)` of each sweep.
    sweeps: Vec<(f64, usize)>,
}

impl Pool {
    /// Adds one finished untraced sweep.
    pub fn add(&mut self, result: &SweepResult) {
        let t = result.throughput();
        self.replica_secs
            .extend(result.records().iter().map(|r| r.wall_secs));
        self.sweeps.push((t.wall_secs, t.threads));
    }

    fn replica_total(&self) -> f64 {
        self.replica_secs.iter().sum()
    }
}

/// Compares traced journal lines with the untraced ones, task by task.
pub fn check_lines(what: &str, traced: &[String], untraced: &[String], tally: &mut Tally) {
    let first_diff = traced.iter().zip(untraced).position(|(a, b)| a != b);
    tally.check(
        traced.len() == untraced.len() && first_diff.is_none(),
        || match first_diff {
            Some(i) => format!(
                "{what}: traced record {i} differs:\n  traced   {}\n  untraced {}",
                traced[i], untraced[i]
            ),
            None => format!(
                "{what}: {} traced records against {} untraced",
                traced.len(),
                untraced.len()
            ),
        },
    );
}

/// The journal lines of an untraced result.
pub fn result_lines(result: &SweepResult) -> Vec<String> {
    result.records().iter().map(record_line).collect()
}

/// Writes the traced layer figures (and the pool figures, when an
/// untraced baseline ran) into `layers`.
pub fn fill(layers: &mut Layers, spans: &Spans, pool: &Pool) {
    let replica_ms: Vec<f64> = pool.replica_secs.iter().map(|s| s * 1e3).collect();
    layers.set("grid.field_sample_s", spans.field_sample);
    layers.set("core.build_s", spans.build);
    layers.set("core.dynamics_s", spans.dynamics);
    layers.set("core.flips", spans.flips as f64);
    layers.set(
        "core.flips_per_s",
        ratio(spans.flips as f64, spans.dynamics),
    );
    layers.set(
        "core.dynamics_share",
        ratio(spans.dynamics, spans.replica_time),
    );
    layers.set("observe.terminal_stats_s", spans.observe);
    layers.set("checkpoint.encode_s", spans.encode);
    layers.set("checkpoint.append_s", spans.checkpoint_append);
    layers.set("checkpoint.bytes", spans.checkpoint_bytes as f64);
    layers.set("sink.append_s", spans.sink_append);
    layers.set("sink.bytes", spans.sink_bytes as f64);
    layers.set(
        "engine.pool_busy_ratio",
        pool_busy_ratio(pool.replica_total(), &pool.sweeps),
    );
    layers.set(
        "engine.replica_p50_ms",
        nearest_rank(&replica_ms, 0.5).unwrap_or(0.0),
    );
    layers.describe(
        "engine.replica_p50_ms",
        format!("p50 of n={} untraced replicas", replica_ms.len()),
    );
    // few replicas leave no rank with ten beyond it: the median stands in
    let t = tail(&replica_ms, 0.9);
    layers.set(
        "engine.replica_p90_ms",
        t.map_or(nearest_rank(&replica_ms, 0.5).unwrap_or(0.0), |t| t.value),
    );
    layers.describe(
        "engine.replica_p90_ms",
        t.map_or(
            format!("no tail with n={}, p50 reported", replica_ms.len()),
            |t| {
                format!(
                    "p{:.0} of n={} untraced replicas (>= 10 beyond)",
                    t.q * 100.0,
                    t.n
                )
            },
        ),
    );
    layers.set(
        "trace.unattributed_ratio",
        unattributed_ratio(spans.wall, spans.span_total()),
    );
    layers.set(
        "trace.overhead_ratio",
        ratio(spans.replica_time, pool.replica_total()),
    );
    layers.set("trace.wall_s", spans.wall);
    layers.set("trace.traced_replica_s", spans.replica_time);
    layers.set("trace.untraced_replica_s", pool.replica_total());
    layers.describe(
        "trace.unattributed_ratio",
        format!(
            "(traced wall {:.6} s - layer spans {:.6} s) / traced wall, {} replicas, audits excluded",
            spans.wall,
            spans.span_total(),
            spans.replicas
        ),
    );
    layers.describe(
        "trace.overhead_ratio",
        format!(
            "traced replica time {:.6} s on 1 thread / untraced sum of wall_secs {:.6} s over {} replicas",
            spans.replica_time,
            pool.replica_total(),
            pool.replica_secs.len()
        ),
    );
    layers.describe(
        "engine.pool_busy_ratio",
        format!(
            "sum of wall_secs {:.6} s / sum of wall x threads over {} sweeps",
            pool.replica_total(),
            pool.sweeps.len()
        ),
    );
}
