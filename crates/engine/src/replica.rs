//! Execution of a single replica and its result record.

use crate::observe::Observer;
use crate::spec::{ReplicaTask, Variant};
use seg_core::interval::IntervalSim;
use seg_core::multi::MultiSim;
use seg_core::ring::{RingKawasaki, RingSim};
use seg_core::trace::trace_run;
use seg_core::variants::{Baseline, KawasakiSim, UpdateRule, VariantSim};
use seg_core::{ModelConfig, Simulation};
use seg_grid::TypeField;
use std::collections::BTreeMap;
use std::time::Instant;

/// The final state of a replica's dynamics, handed to observers.
#[derive(Clone, Debug)]
pub enum FinalState {
    /// The paper's process.
    Grid(Simulation),
    /// A [`VariantSim`] run (flip-when-unhappy or noise).
    VariantGrid(VariantSim),
    /// The 2-D Kawasaki swap dynamics.
    Kawasaki(KawasakiSim),
    /// The 1-D Glauber ring.
    Ring(RingSim),
    /// The 1-D Kawasaki ring.
    RingKawasaki(RingKawasaki),
    /// The §V two-sided comfort band.
    TwoSided(IntervalSim),
    /// The k-type extension.
    Multi(MultiSim),
    /// No dynamics ran ([`Variant::Probe`]): observers do all the work.
    Probe,
}

impl FinalState {
    /// The final 2-D configuration, when the variant has one.
    pub fn field(&self) -> Option<&TypeField> {
        match self {
            FinalState::Grid(s) => Some(s.field()),
            FinalState::VariantGrid(s) => Some(s.field()),
            FinalState::Kawasaki(s) => Some(s.field()),
            FinalState::TwoSided(s) => Some(s.field()),
            FinalState::Ring(_)
            | FinalState::RingKawasaki(_)
            | FinalState::Multi(_)
            | FinalState::Probe => None,
        }
    }

    /// The paper-process simulation, when this replica ran one.
    pub fn simulation(&self) -> Option<&Simulation> {
        match self {
            FinalState::Grid(s) => Some(s),
            _ => None,
        }
    }
}

/// The result of one replica: its task, the effective events it
/// performed, and a name → value map of measured metrics.
///
/// Everything except `wall_secs` is a pure function of the task (and so
/// identical at any thread count); wall time is measurement-only and is
/// never written to sinks.
#[derive(Clone, Debug)]
pub struct ReplicaRecord {
    /// The task this record answers.
    pub task: ReplicaTask,
    /// Effective events performed (flips, or swaps for Kawasaki runs).
    pub events: u64,
    /// Wall-clock seconds this replica took (excluded from sink output).
    pub wall_secs: f64,
    /// Measured metrics by name, ordered (and therefore serialized)
    /// deterministically.
    pub metrics: BTreeMap<String, f64>,
}

impl ReplicaRecord {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// The metric names [`run_replica`] itself records for a `variant`
/// replica, before any observer runs — a pure function of the variant,
/// kept in lockstep with `run_replica`'s inserts (enforced by a test).
/// Together with [`Observer::metric_names`] this predicts a sweep's
/// sink columns up front, which is what lets a streaming CSV write its
/// header before any replica has run.
pub fn variant_metric_names(variant: &Variant) -> Vec<&'static str> {
    match variant {
        Variant::Paper => vec!["events", "sim_time", "terminated"],
        Variant::FlipWhenUnhappy | Variant::Noise(_) => vec!["events"],
        Variant::Kawasaki => vec!["events", "failed_attempts"],
        Variant::RingGlauber => vec!["events", "mean_run", "terminated"],
        Variant::RingKawasaki => vec!["events", "mean_run"],
        Variant::TwoSided { .. } => vec!["discontent", "events", "terminated"],
        Variant::MultiType { .. } => vec!["events", "terminated"],
        Variant::Probe => vec!["events"],
    }
}

/// Runs one replica to completion (or its event budget), applies the
/// observers, and returns the record.
///
/// # Panics
///
/// Panics if an observer's file output fails — the sweep is an
/// experiment run, and a missing output is a failed experiment.
pub fn run_replica(task: &ReplicaTask, observers: &[Observer]) -> ReplicaRecord {
    let t0 = Instant::now();
    let mut metrics = BTreeMap::new();
    let p = task.point;
    let trace_req = observers.iter().find_map(|o| match o {
        Observer::Trace { sample_every, dir } => Some((*sample_every, dir.clone())),
        _ => None,
    });

    let grid = || {
        ModelConfig::new(p.side, p.horizon, p.tau)
            .initial_density(p.density)
            .seed(task.seed)
    };
    let (state, events) = match p.variant {
        Variant::Paper => {
            let mut sim = grid().build();
            if let Some((sample_every, dir)) = trace_req {
                let trace = trace_run(&mut sim, sample_every, task.max_events);
                crate::observe::write_trace(&dir, task, &trace)
                    .unwrap_or_else(|e| panic!("trace output failed: {e}"));
            } else {
                sim.run_to_stable(task.max_events);
            }
            metrics.insert("sim_time".into(), sim.time());
            metrics.insert("terminated".into(), f64::from(sim.is_stable()));
            let events = sim.flips();
            (FinalState::Grid(sim), events)
        }
        Variant::FlipWhenUnhappy | Variant::Noise(_) => {
            let update = match p.variant {
                Variant::Noise(eps) => UpdateRule::Noise(eps),
                _ => UpdateRule::FlipWhenUnhappy,
            };
            let config = grid();
            let mut sim = config.build_with(Baseline::new(config.intolerance(), update));
            sim.run(task.max_events);
            let events = sim.flips();
            (FinalState::VariantGrid(sim), events)
        }
        Variant::Kawasaki => {
            let mut k = KawasakiSim::new(grid().build());
            k.run(task.max_events);
            metrics.insert("failed_attempts".into(), k.failed_attempts() as f64);
            let events = k.swaps();
            (FinalState::Kawasaki(k), events)
        }
        Variant::RingGlauber => {
            let mut ring = RingSim::random(p.side as usize, p.horizon, p.tau, p.density, task.seed);
            let stable = ring.run_to_stable(task.max_events);
            metrics.insert("terminated".into(), f64::from(stable));
            metrics.insert("mean_run".into(), ring.mean_run_length());
            let events = ring.flips();
            (FinalState::Ring(ring), events)
        }
        Variant::RingKawasaki => {
            let inner = RingSim::random(p.side as usize, p.horizon, p.tau, p.density, task.seed);
            let mut k = RingKawasaki::new(inner);
            k.run(task.max_events);
            metrics.insert("mean_run".into(), k.ring().mean_run_length());
            let events = k.swaps();
            (FinalState::RingKawasaki(k), events)
        }
        Variant::TwoSided { tau_hi } => {
            let mut sim = IntervalSim::random(p.side, p.horizon, p.tau, tau_hi, task.seed);
            let stable = sim.run(task.max_events);
            metrics.insert("terminated".into(), f64::from(stable));
            metrics.insert("discontent".into(), sim.discontent_count() as f64);
            let events = sim.flips();
            (FinalState::TwoSided(sim), events)
        }
        Variant::MultiType { k } => {
            let mut sim = MultiSim::random(p.side, p.horizon, k, p.tau, task.seed);
            let stable = sim.run(task.max_events);
            metrics.insert("terminated".into(), f64::from(stable));
            let events = sim.flips();
            (FinalState::Multi(sim), events)
        }
        Variant::Probe => (FinalState::Probe, 0),
    };

    metrics.insert("events".into(), events as f64);
    for o in observers {
        o.apply(task, &state, &mut metrics)
            .unwrap_or_else(|e| panic!("observer output failed: {e}"));
    }

    ReplicaRecord {
        task: *task,
        events,
        wall_secs: t0.elapsed().as_secs_f64(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn task_for(variant: Variant, budget: u64) -> ReplicaTask {
        let spec = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.42)
            .variant(variant)
            .max_events(budget)
            .master_seed(5)
            .build();
        spec.tasks()[0]
    }

    #[test]
    fn paper_replica_terminates_and_reports() {
        let rec = run_replica(&task_for(Variant::Paper, u64::MAX), &[]);
        assert_eq!(rec.metric("terminated"), Some(1.0));
        assert_eq!(rec.metric("events"), Some(rec.events as f64));
        assert!(rec.metric("sim_time").unwrap() > 0.0);
    }

    #[test]
    fn replica_is_a_pure_function_of_its_task() {
        let t = task_for(Variant::Paper, 500);
        let a = run_replica(&t, &[]);
        let b = run_replica(&t, &[]);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn all_variants_execute() {
        for v in [
            Variant::Paper,
            Variant::FlipWhenUnhappy,
            Variant::Noise(0.05),
            Variant::Kawasaki,
            Variant::RingGlauber,
            Variant::RingKawasaki,
            Variant::TwoSided { tau_hi: 0.9 },
            Variant::MultiType { k: 3 },
            Variant::Probe,
        ] {
            let rec = run_replica(&task_for(v, 2_000), &[]);
            assert!(rec.metrics.contains_key("events"), "{v}: missing events");
            // the prediction matches what actually ran, exactly
            let mut predicted: Vec<&str> = variant_metric_names(&v);
            predicted.sort_unstable();
            let actual: Vec<&str> = rec.metrics.keys().map(String::as_str).collect();
            assert_eq!(predicted, actual, "{v}: predicted metrics diverged");
        }
    }

    #[test]
    fn final_state_exposes_fields_appropriately() {
        let rec_task = task_for(Variant::RingGlauber, 100);
        let mut ring = RingSim::random(32, 1, 0.42, 0.5, rec_task.seed);
        ring.run_to_stable(100);
        assert!(FinalState::Ring(ring).field().is_none());
    }
}
