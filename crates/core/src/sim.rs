//! The exact event-driven Glauber dynamics (§II-A), and the one 2-D
//! simulator every Glauber-type rule on the grid runs on.

use crate::intolerance::Intolerance;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, ClassTable, IndexedSet, Point, Torus, TypeField, WindowCounts};

/// Summary of a [`GridSim::run_to_stable`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunReport {
    /// Number of flips performed during this call.
    pub flips: u64,
    /// Whether the process reached a stable state (no tracked agents).
    pub terminated: bool,
    /// Continuous time elapsed during this call.
    pub elapsed_time: f64,
}

/// A single step, as recorded by [`GridSim::step`].
///
/// Under every rule but the noise baseline a step flips its agent; a
/// noise ring that declines leaves `new_type` at the agent's old type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlipEvent {
    /// The sampled agent.
    pub at: Point,
    /// Its type after the step.
    pub new_type: AgentType,
    /// Continuous time of the event.
    pub time: f64,
}

/// What sets one Glauber-type process on the grid apart from another:
/// which agents may act, whether a sampled agent flips, and whether the
/// continuous-time clock runs. Implemented by [`Intolerance`] (the
/// paper), [`crate::variants::Baseline`] (§I-A) and
/// [`crate::interval::ComfortBand`] (§V).
pub trait Rule: Copy + std::fmt::Debug {
    /// Whether [`GridSim::step`] advances the exponential clock. Rules
    /// without a clock leave [`GridSim::time`] at zero.
    const CLOCKED: bool;

    /// The neighborhood size `N` the rule's thresholds are for.
    fn neighborhood_size(&self) -> u32;

    /// Whether an agent with same-type count `s` is tracked, i.e. may be
    /// sampled by [`GridSim::step`].
    fn is_tracked(&self, s: u32) -> bool;

    /// Whether an agent with same-type count `s` counts as unhappy.
    fn is_unhappy(&self, s: u32) -> bool;

    /// Whether a sampled tracked agent with same-type count `s` flips.
    /// Always, unless the rule says otherwise; a rule may draw from
    /// `rng` here.
    #[inline]
    fn flips(&self, _s: u32, _rng: &mut Xoshiro256pp) -> bool {
        true
    }

    /// The fused kernel's lookup table: tracked and unhappy bits by
    /// same-type count.
    fn class_table(&self) -> ClassTable {
        // s = 0 is unreachable (an agent counts itself); guard it so
        // building the table never evaluates flip arithmetic on it
        ClassTable::build_same_count(self.neighborhood_size(), |s| {
            (s >= 1 && self.is_tracked(s), self.is_unhappy(s))
        })
    }
}

/// A Glauber-type process on the torus under a [`Rule`].
///
/// Every agent carries a rate-1 Poisson clock. Rings of untracked agents
/// change nothing, so the simulation integrates them out: each step
/// samples a uniform agent of the tracked set, lets the rule decide
/// whether it flips and, for a clocked rule, advances time by `Exp(F)`
/// with `F` tracked agents. A flip touches the `(2w+1)²` neighborhoods
/// containing it, updated by one fused pass
/// ([`WindowCounts::apply_flip_fused`]) that also keeps the tracked set
/// and the unhappy count.
#[derive(Clone, Debug)]
pub struct GridSim<R> {
    field: TypeField,
    counts: WindowCounts,
    rule: R,
    /// `rule`'s classes, precomputed for the fused flip kernel.
    classes: ClassTable,
    tracked: IndexedSet,
    /// Incrementally-maintained number of unhappy agents.
    unhappy: usize,
    rng: Xoshiro256pp,
    time: f64,
    flips: u64,
}

/// The paper's process, simulated exactly.
///
/// A ring flips the agent iff it is unhappy and the flip makes it happy,
/// so the tracked set is the flippable agents: with `F` of them the time
/// to the next effective event is `Exp(F)` and the flipping agent is
/// uniform over the set — exactly the law of the embedded jump chain of
/// the paper's continuous-time process. Each step is O(N).
///
/// # Example
///
/// ```
/// use seg_core::ModelConfig;
/// let mut sim = ModelConfig::new(64, 2, 0.4).seed(11).build();
/// let before = sim.unhappy_count();
/// sim.run_to_stable(100_000);
/// assert_eq!(sim.flippable_count(), 0);
/// let after = sim.unhappy_count();
/// assert!(after <= before);
/// ```
pub type Simulation = GridSim<Intolerance>;

impl<R: Rule> GridSim<R> {
    /// Builds the process over an explicit initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the torus (see
    /// [`WindowCounts::new`]) or the rule is sized for another `N`.
    pub fn new(field: TypeField, horizon: u32, rule: R, rng: Xoshiro256pp) -> Self {
        let counts = WindowCounts::new(&field, horizon);
        assert_eq!(
            rule.neighborhood_size(),
            counts.neighborhood_size(),
            "rule sized for N = {}, window has N = {}",
            rule.neighborhood_size(),
            counts.neighborhood_size()
        );
        let classes = rule.class_table();
        let mut unhappy = 0;
        let tracked = IndexedSet::from_fn(field.torus().len(), |i| {
            let c = classes.class(field.get_index(i), counts.plus_count_index(i));
            unhappy += usize::from(c & ClassTable::UNHAPPY != 0);
            c & ClassTable::TRACKED != 0
        });
        GridSim {
            field,
            counts,
            rule,
            classes,
            tracked,
            unhappy,
            rng,
            time: 0.0,
            flips: 0,
        }
    }

    /// The torus.
    #[inline]
    pub fn torus(&self) -> Torus {
        self.field.torus()
    }

    /// The horizon `w`.
    #[inline]
    pub fn horizon(&self) -> u32 {
        self.counts.horizon()
    }

    /// The rule.
    #[inline]
    pub fn rule(&self) -> R {
        self.rule
    }

    /// The current configuration.
    #[inline]
    pub fn field(&self) -> &TypeField {
        &self.field
    }

    /// The per-agent neighborhood counts.
    #[inline]
    pub fn counts(&self) -> &WindowCounts {
        &self.counts
    }

    /// Continuous time elapsed since the initial configuration (zero
    /// under a rule without a clock).
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total flips since the initial configuration.
    #[inline]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Same-type count `S(u)` of the agent at `u`.
    #[inline]
    pub fn same_count(&self, u: Point) -> u32 {
        self.counts.same_count(u, self.field.get(u))
    }

    /// Whether the agent at `u` is happy.
    #[inline]
    pub fn is_happy(&self, u: Point) -> bool {
        !self.rule.is_unhappy(self.same_count(u))
    }

    /// Number of currently unhappy agents. Maintained incrementally by the
    /// fused flip kernel, so this is O(1).
    #[inline]
    pub fn unhappy_count(&self) -> usize {
        self.unhappy
    }

    /// Number of currently tracked agents (for the paper's rule, unhappy
    /// and improvable). The process is stable iff this is zero.
    #[inline]
    pub fn flippable_count(&self) -> usize {
        self.tracked.len()
    }

    /// Whether the process has reached a stable state.
    #[inline]
    pub fn is_stable(&self) -> bool {
        self.tracked.is_empty()
    }

    /// Performs one step: samples a uniform tracked agent, advances the
    /// exponential clock (clocked rules only), and flips the agent if the
    /// rule says so, updating all affected bookkeeping. Returns `None`
    /// when stable.
    pub fn step(&mut self) -> Option<FlipEvent> {
        let f = self.tracked.len();
        let i = self.tracked.sample(&mut self.rng)?;
        if R::CLOCKED {
            self.time += self.rng.next_exponential(f as f64);
        }
        let at = self.torus().from_index(i);
        let ty = self.field.get_index(i);
        if self
            .rule
            .flips(self.counts.same_count_index(i, ty), &mut self.rng)
        {
            Some(self.force_flip_at(at))
        } else {
            Some(FlipEvent {
                at,
                new_type: ty,
                time: self.time,
            })
        }
    }

    /// Flips the agent at `at` unconditionally and repairs all bookkeeping.
    ///
    /// Exposed for the swap dynamics and for constructing the paper's
    /// geometric scenarios (e.g. the flip schedules of Lemma 5); the
    /// dynamics themselves only ever flip via [`GridSim::step`].
    pub fn force_flip_at(&mut self, at: Point) -> FlipEvent {
        let new_type = self.field.flip(at);
        self.flips += 1;
        // One fused pass over the window: count delta, reclassification of
        // every agent whose neighborhood contains `at`, and the unhappy
        // delta — same insert/remove order as the historical two-pass
        // update, so seeded trajectories are unchanged.
        let unhappy_delta = self.counts.apply_flip_fused(
            at,
            new_type,
            &self.field,
            &self.classes,
            &mut self.tracked,
        );
        self.unhappy = (self.unhappy as i64 + unhappy_delta) as usize;
        FlipEvent {
            at,
            new_type,
            time: self.time,
        }
    }

    /// Runs until stable or until `max_steps` more steps have been taken.
    /// Every step flips under the paper's rule, the comfort band and
    /// flip-when-unhappy, so there the budget counts flips; a declined
    /// noise ring uses up one step too.
    pub fn run_to_stable(&mut self, max_steps: u64) -> RunReport {
        let t0 = self.time;
        let f0 = self.flips;
        for _ in 0..max_steps {
            if self.step().is_none() {
                break;
            }
        }
        RunReport {
            flips: self.flips - f0,
            terminated: self.is_stable(),
            elapsed_time: self.time - t0,
        }
    }

    /// Full consistency audit: recomputes counts, the tracked set and the
    /// unhappy total from scratch against the rule's own predicates and
    /// compares. O(n²·N); for tests and debugging.
    pub fn audit(&self) -> bool {
        if !self.counts.verify_against(&self.field) {
            return false;
        }
        let mut unhappy = 0;
        for i in 0..self.torus().len() {
            let s = self.counts.same_count_index(i, self.field.get_index(i));
            if self.rule.is_tracked(s) != self.tracked.contains(i) {
                return false;
            }
            unhappy += usize::from(self.rule.is_unhappy(s));
        }
        unhappy == self.unhappy
    }

    /// Iterates the currently tracked agents (arbitrary order).
    pub fn flippable_agents(&self) -> impl Iterator<Item = Point> + '_ {
        let t = self.torus();
        self.tracked.iter().map(move |i| t.from_index(i))
    }

    /// Mutable access to the RNG (for dynamics layered on top).
    pub(crate) fn rng_mut(&mut self) -> &mut Xoshiro256pp {
        &mut self.rng
    }
}

impl Simulation {
    /// Builds the paper's process from an explicit initial configuration.
    ///
    /// # Panics
    ///
    /// As [`GridSim::new`].
    pub fn from_field(
        field: TypeField,
        horizon: u32,
        intol: Intolerance,
        rng: Xoshiro256pp,
    ) -> Self {
        GridSim::new(field, horizon, intol, rng)
    }

    /// The intolerance.
    #[inline]
    pub fn intolerance(&self) -> Intolerance {
        self.rule
    }

    /// Runs until continuous time reaches `t_end` or the process is
    /// stable, whichever comes first.
    pub fn run_until_time(&mut self, t_end: f64) -> RunReport {
        let t0 = self.time;
        let f0 = self.flips;
        while self.time < t_end && self.step().is_some() {}
        RunReport {
            flips: self.flips - f0,
            terminated: self.is_stable(),
            elapsed_time: self.time - t0,
        }
    }

    /// Replaces the intolerance mid-run and rebuilds the flippable set —
    /// the "time-varying intolerance" variant mentioned in §I-A.
    ///
    /// # Panics
    ///
    /// Panics if the new intolerance is sized for a different `N`.
    pub fn set_intolerance(&mut self, intol: Intolerance) {
        assert_eq!(
            intol.neighborhood_size(),
            self.counts.neighborhood_size(),
            "intolerance must match the window size"
        );
        self.rule = intol;
        self.classes = intol.class_table();
        // reclassify in place: agents still tracked keep their slots
        self.unhappy = 0;
        for i in 0..self.torus().len() {
            let c = self
                .classes
                .class(self.field.get_index(i), self.counts.plus_count_index(i));
            if c & ClassTable::TRACKED != 0 {
                self.tracked.insert(i);
            } else {
                self.tracked.remove(i);
            }
            self.unhappy += usize::from(c & ClassTable::UNHAPPY != 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ModelConfig;

    #[test]
    fn uniform_field_is_immediately_stable() {
        let mut sim = ModelConfig::new(32, 2, 0.45)
            .initial_density(1.0)
            .seed(3)
            .build();
        assert!(sim.is_stable());
        let r = sim.run_to_stable(100);
        assert!(r.terminated);
        assert_eq!(r.flips, 0);
    }

    #[test]
    fn step_decreases_or_preserves_flippable_invariants() {
        let mut sim = ModelConfig::new(48, 2, 0.45).seed(5).build();
        for _ in 0..200 {
            if sim.step().is_none() {
                break;
            }
        }
        assert!(sim.audit(), "bookkeeping diverged");
    }

    #[test]
    fn run_to_stable_terminates_below_half() {
        let mut sim = ModelConfig::new(48, 2, 0.4).seed(9).build();
        let r = sim.run_to_stable(1_000_000);
        assert!(r.terminated, "τ < 1/2 must terminate");
        assert_eq!(sim.unhappy_count(), 0, "all agents happy for τ < 1/2");
        assert!(sim.audit());
    }

    #[test]
    fn run_to_stable_terminates_above_half() {
        let mut sim = ModelConfig::new(48, 2, 0.55).seed(10).build();
        let r = sim.run_to_stable(5_000_000);
        assert!(r.terminated, "flippable set must empty out");
        // For τ > 1/2 unhappy-but-unimprovable agents may persist.
        assert!(sim.flippable_count() == 0);
        assert!(sim.audit());
    }

    #[test]
    fn time_advances_monotonically() {
        let mut sim = ModelConfig::new(48, 2, 0.45).seed(6).build();
        let mut last = 0.0;
        for _ in 0..100 {
            match sim.step() {
                Some(ev) => {
                    assert!(ev.time >= last);
                    last = ev.time;
                }
                None => break,
            }
        }
        assert_eq!(sim.time(), last);
    }

    #[test]
    fn flips_only_make_flippers_happy() {
        let mut sim = ModelConfig::new(48, 3, 0.42).seed(12).build();
        for _ in 0..300 {
            let before = sim.clone();
            match sim.step() {
                Some(ev) => {
                    assert!(
                        !before.is_happy(ev.at),
                        "flipped agent must have been unhappy"
                    );
                    assert!(sim.is_happy(ev.at), "flip must make the agent happy");
                }
                None => break,
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = ModelConfig::new(32, 2, 0.44).seed(seed).build();
            sim.run_to_stable(100_000);
            (sim.flips(), sim.field().plus_total())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn set_intolerance_rebuilds_flippable_set() {
        // anneal: start tolerant (static), then raise τ into the
        // segregation window — activity must ignite.
        let mut sim = ModelConfig::new(48, 2, 0.2).seed(21).build();
        sim.run_to_stable(1_000);
        assert!(sim.is_stable());
        sim.set_intolerance(crate::intolerance::Intolerance::new(25, 0.44));
        assert!(sim.flippable_count() > 0, "raised τ must create work");
        assert!(sim.audit());
        let r = sim.run_to_stable(10_000_000);
        assert!(r.terminated && r.flips > 0);
    }

    #[test]
    #[should_panic(expected = "match the window size")]
    fn set_intolerance_rejects_wrong_n() {
        let mut sim = ModelConfig::new(48, 2, 0.4).seed(0).build();
        sim.set_intolerance(crate::intolerance::Intolerance::new(49, 0.4));
    }

    #[test]
    fn run_until_time_respects_deadline() {
        let mut sim = ModelConfig::new(64, 3, 0.45).seed(14).build();
        sim.run_until_time(0.05);
        assert!(sim.time() >= 0.05 || sim.is_stable());
    }
}
