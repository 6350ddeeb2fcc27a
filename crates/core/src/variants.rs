//! Model variants and baselines (§I-A's discussion).
//!
//! The paper assumes Glauber dynamics with flips that only happen when
//! they make the flipper happy ([`crate::sim::Simulation`]). §I-A lists
//! the nearby variants studied in the literature; this module implements
//! them as baselines:
//!
//! - [`UpdateRule::FlipWhenUnhappy`] — unhappy agents flip regardless of
//!   the outcome ("swap (or flip) regardless");
//! - [`UpdateRule::Noise`] — with probability ε an acting agent ignores
//!   the rule and flips unconditionally ("a small probability of acting
//!   differently than what the general rule prescribes");
//! - [`KawasakiSim`] — the closed-system swap dynamics (2-D analogue of
//!   the Kawasaki ring model of Brandt et al.).

use crate::intolerance::Intolerance;
use crate::sim::{GridSim, Rule, Simulation};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, Point, TypeField};

/// The local update rule of a [`VariantSim`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum UpdateRule {
    /// Flip whenever unhappy.
    FlipWhenUnhappy,
    /// The paper's rule, except that each acting agent deviates (flips
    /// unconditionally) with probability ε.
    Noise(f64),
}

/// The [`Rule`] of the §I-A baselines: every unhappy agent acts, in
/// discrete time (one step per ring), and flips per its [`UpdateRule`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Baseline {
    intol: Intolerance,
    update: UpdateRule,
}

impl Baseline {
    /// The baseline `update` over the happiness thresholds of `intol`.
    ///
    /// # Panics
    ///
    /// Panics if ε is outside `[0, 1]` for [`UpdateRule::Noise`].
    pub fn new(intol: Intolerance, update: UpdateRule) -> Self {
        if let UpdateRule::Noise(eps) = update {
            assert!((0.0..=1.0).contains(&eps), "noise ε must lie in [0, 1]");
        }
        Baseline { intol, update }
    }
}

impl Rule for Baseline {
    const CLOCKED: bool = false;

    #[inline]
    fn neighborhood_size(&self) -> u32 {
        self.intol.neighborhood_size()
    }

    #[inline]
    fn is_tracked(&self, s: u32) -> bool {
        self.is_unhappy(s)
    }

    #[inline]
    fn is_unhappy(&self, s: u32) -> bool {
        !self.intol.is_happy(s)
    }

    #[inline]
    fn flips(&self, s: u32, rng: &mut Xoshiro256pp) -> bool {
        match self.update {
            UpdateRule::FlipWhenUnhappy => true,
            // the rule is tested first, so ε is drawn only when it fails
            UpdateRule::Noise(eps) => self.intol.flip_makes_happy(s) || rng.next_bool(eps),
        }
    }
}

/// A §I-A baseline: the grid process under a [`Baseline`] rule, for the
/// variant comparisons of `exp_variants`. Each step is one ring of a
/// uniformly chosen unhappy agent's clock, no-op rings of the noise rule
/// included.
pub type VariantSim = GridSim<Baseline>;

impl VariantSim {
    /// Builds the baseline `rule` over an explicit field.
    ///
    /// # Panics
    ///
    /// As [`Baseline::new`] and [`GridSim::new`].
    pub fn from_field(
        field: TypeField,
        horizon: u32,
        intol: Intolerance,
        rule: UpdateRule,
        rng: Xoshiro256pp,
    ) -> Self {
        GridSim::new(field, horizon, Baseline::new(intol, rule), rng)
    }

    /// Runs for at most `max_steps` rings; returns the number of *flips*
    /// performed. Under `FlipWhenUnhappy` and `Noise` the process may
    /// never stabilize — the step cap is the only terminator.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        self.run_to_stable(max_steps).flips
    }
}

/// The closed-system Kawasaki swap dynamics: two unhappy agents of
/// opposite types exchange positions iff the swap makes both happy. The
/// total count of each type is conserved (§I-A's "closed" model).
#[derive(Clone, Debug)]
pub struct KawasakiSim {
    sim: Simulation,
    swaps: u64,
    failed_attempts: u64,
}

impl KawasakiSim {
    /// Wraps a [`Simulation`] (its Glauber stepper is not used).
    pub fn new(sim: Simulation) -> Self {
        KawasakiSim {
            sim,
            swaps: 0,
            failed_attempts: 0,
        }
    }

    /// The inner state.
    pub fn field(&self) -> &TypeField {
        self.sim.field()
    }

    /// Completed swaps.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Rejected swap attempts.
    pub fn failed_attempts(&self) -> u64 {
        self.failed_attempts
    }

    /// Unhappy agents of the given type, freshly scanned.
    fn unhappy_of(&self, ty: AgentType) -> Vec<Point> {
        let t = self.sim.torus();
        t.points()
            .filter(|p| self.sim.field().get(*p) == ty && !self.sim.is_happy(*p))
            .collect()
    }

    /// Attempts one swap: samples an unhappy agent of each type uniformly
    /// and swaps iff both become happy. Returns `Some(true)` on a swap,
    /// `Some(false)` on a rejected attempt, `None` when one side has no
    /// unhappy agents (the process is stuck/stable).
    pub fn try_swap(&mut self) -> Option<bool> {
        let plus = self.unhappy_of(AgentType::Plus);
        let minus = self.unhappy_of(AgentType::Minus);
        if plus.is_empty() || minus.is_empty() {
            return None;
        }
        let rng = self.sim.rng_mut();
        let a = plus[rng.next_below(plus.len() as u64) as usize];
        let b = minus[rng.next_below(minus.len() as u64) as usize];
        // swapping opposite types == flipping both
        self.sim.force_flip_at(a);
        self.sim.force_flip_at(b);
        if self.sim.is_happy(a) && self.sim.is_happy(b) {
            self.swaps += 1;
            Some(true)
        } else {
            // revert
            self.sim.force_flip_at(a);
            self.sim.force_flip_at(b);
            self.failed_attempts += 1;
            Some(false)
        }
    }

    /// Runs until `max_attempts` attempts have been made or no opposite
    /// unhappy pair exists. Returns the number of successful swaps.
    pub fn run(&mut self, max_attempts: u64) -> u64 {
        let s0 = self.swaps;
        for _ in 0..max_attempts {
            if self.try_swap().is_none() {
                break;
            }
        }
        self.swaps - s0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use seg_grid::Torus;

    fn variant(n: u32, w: u32, tau: f64, rule: UpdateRule, seed: u64) -> VariantSim {
        let torus = Torus::new(n);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let field = TypeField::random(torus, 0.5, &mut rng);
        let intol = Intolerance::new((2 * w + 1) * (2 * w + 1), tau);
        VariantSim::from_field(field, w, intol, rule, rng)
    }

    #[test]
    fn flip_when_unhappy_keeps_churning_above_half() {
        // at τ > 1/2 unconditional flips can cycle; the run cap terminates
        let mut v = variant(32, 2, 0.6, UpdateRule::FlipWhenUnhappy, 4);
        let flips = v.run(20_000);
        assert!(flips > 0, "unconditional rule must flip");
    }

    #[test]
    fn noise_injects_disorder() {
        let mut quiet = variant(32, 2, 0.45, UpdateRule::Noise(0.0), 6);
        quiet.run(100_000);
        assert_eq!(quiet.unhappy_count(), 0);
        let mut noisy = variant(32, 2, 0.45, UpdateRule::Noise(0.5), 6);
        noisy.run(100_000);
        // noise keeps producing unhappy agents; extremely unlikely to be 0
        assert!(noisy.flips() >= quiet.flips());
    }

    #[test]
    fn kawasaki_conserves_type_counts() {
        let sim = ModelConfig::new(48, 2, 0.45).seed(9).build();
        let plus_before = sim.field().plus_total();
        let mut k = KawasakiSim::new(sim);
        k.run(2_000);
        assert_eq!(
            k.field().plus_total(),
            plus_before,
            "Kawasaki dynamics is closed"
        );
    }

    #[test]
    fn kawasaki_swaps_make_both_happy() {
        let sim = ModelConfig::new(48, 2, 0.4).seed(11).build();
        let mut k = KawasakiSim::new(sim);
        let mut checked = 0;
        for _ in 0..500 {
            match k.try_swap() {
                Some(true) => checked += 1,
                Some(false) => {}
                None => break,
            }
        }
        // sanity: some swaps happened and the invariant held throughout
        // (violations would have been caught inside try_swap's revert)
        assert!(checked > 0 || k.failed_attempts() > 0);
    }

    #[test]
    #[should_panic(expected = "noise ε")]
    fn variant_rejects_bad_noise() {
        let _ = variant(16, 1, 0.4, UpdateRule::Noise(1.5), 0);
    }
}
