//! Regression and property tests for the fused flip kernel and the
//! incrementally-maintained ring/Kawasaki agent sets.
//!
//! The golden table below was recorded from the pre-fusion two-pass
//! implementation (apply counts, then reclassify the window in a second
//! walk). The fused kernel must reproduce those trajectories *bit for
//! bit*: it performs the same insert/remove sequence on the flippable
//! set, so every seeded run samples the same agents in the same order.
//! A second table pins the other 2-D dynamics (the §I-A baselines, the
//! §V comfort band and Kawasaki swaps) the same way.

use proptest::prelude::*;
use seg_core::interval::{ComfortBand, IntervalSim};
use seg_core::ring::{RingKawasaki, RingSim};
use seg_core::variants::{Baseline, KawasakiSim, UpdateRule, VariantSim};
use seg_core::{GridSim, Intolerance, ModelConfig, Rule, Simulation};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, Torus, TypeField};

/// `(n, w, tau, seed, terminated, flips, plus_total)` recorded from the
/// pre-PR implementation with `run_to_stable(2_000_000)`.
const GOLDEN: &[(u32, u32, f64, u64, bool, u64, usize)] = &[
    (32, 1, 0.44, 1, true, 220, 569),
    (32, 1, 0.44, 2, true, 227, 495),
    (32, 1, 0.44, 3, true, 205, 512),
    (32, 2, 0.44, 1, true, 395, 654),
    (32, 2, 0.44, 2, true, 374, 490),
    (32, 2, 0.44, 3, true, 413, 668),
    (48, 2, 0.55, 1, true, 1500, 646),
    (48, 2, 0.55, 2, true, 1537, 1349),
    (48, 2, 0.55, 3, true, 1541, 731),
    (48, 3, 0.42, 1, true, 1046, 866),
    (48, 3, 0.42, 2, true, 1046, 1132),
    (48, 3, 0.42, 3, true, 1076, 1266),
    (64, 4, 0.45, 1, true, 2591, 2070),
    (64, 4, 0.45, 2, true, 2420, 2866),
    (64, 4, 0.45, 3, true, 2243, 1104),
];

#[test]
fn fused_kernel_reproduces_pre_fusion_goldens() {
    for &(n, w, tau, seed, terminated, flips, plus_total) in GOLDEN {
        let mut sim = ModelConfig::new(n, w, tau).seed(seed).build();
        let r = sim.run_to_stable(2_000_000);
        assert_eq!(
            (r.terminated, sim.flips(), sim.field().plus_total()),
            (terminated, flips, plus_total),
            "trajectory diverged for n={n} w={w} τ={tau} seed={seed}"
        );
    }
}

/// The 2-D dynamics other than the paper's rule, built as the engine
/// builds them for a replica.
#[derive(Clone, Copy, Debug)]
enum Dynamics {
    FlipWhenUnhappy,
    Noise(f64),
    /// The §V comfort band `[τ, τ_hi]`.
    TwoSided(f64),
    Kawasaki,
}

/// The cap of every [`RULE_GOLDEN`] run: rings for the baselines, flips
/// for the band, swap attempts for Kawasaki.
const RULE_BUDGET: u64 = 1_500;

/// `(dynamics, n, w, tau, seed, events, plus_total, unhappy, terminated)`.
type RuleRow = (Dynamics, u32, u32, f64, u64, u64, usize, usize, bool);

/// [`RuleRow`]s recorded from the separate `VariantSim`, `IntervalSim`
/// and `KawasakiSim` implementations, each run capped at
/// [`RULE_BUDGET`]. `events` counts
/// flips (swaps for Kawasaki); `unhappy` is the unhappy or discontent
/// count of the final configuration.
#[rustfmt::skip]
const RULE_GOLDEN: &[RuleRow] = &[
    (Dynamics::FlipWhenUnhappy, 32, 1, 0.44, 1, 240, 571, 0, true),
    (Dynamics::FlipWhenUnhappy, 32, 1, 0.44, 2, 241, 491, 0, true),
    (Dynamics::FlipWhenUnhappy, 32, 1, 0.44, 3, 197, 508, 0, true),
    (Dynamics::FlipWhenUnhappy, 48, 2, 0.55, 1, 1500, 1096, 108, false),
    (Dynamics::FlipWhenUnhappy, 48, 2, 0.55, 2, 1500, 1150, 111, false),
    (Dynamics::FlipWhenUnhappy, 48, 2, 0.55, 3, 1500, 1016, 132, false),
    (Dynamics::Noise(0.02), 32, 1, 0.44, 1, 240, 571, 0, true),
    (Dynamics::Noise(0.02), 32, 1, 0.44, 2, 241, 491, 0, true),
    (Dynamics::Noise(0.02), 32, 1, 0.44, 3, 197, 508, 0, true),
    (Dynamics::Noise(0.02), 48, 2, 0.55, 1, 1131, 1005, 96, false),
    (Dynamics::Noise(0.02), 48, 2, 0.55, 2, 1146, 1236, 123, false),
    (Dynamics::Noise(0.02), 48, 2, 0.55, 3, 1163, 931, 129, false),
    (Dynamics::Noise(0.1), 32, 1, 0.44, 1, 240, 571, 0, true),
    (Dynamics::Noise(0.1), 32, 1, 0.44, 2, 241, 491, 0, true),
    (Dynamics::Noise(0.1), 32, 1, 0.44, 3, 197, 508, 0, true),
    (Dynamics::Noise(0.1), 48, 2, 0.55, 1, 1172, 938, 130, false),
    (Dynamics::Noise(0.1), 48, 2, 0.55, 2, 1176, 1192, 117, false),
    (Dynamics::Noise(0.1), 48, 2, 0.55, 3, 1186, 1162, 151, false),
    (Dynamics::TwoSided(0.8), 32, 1, 0.44, 1, 173, 580, 366, true),
    (Dynamics::TwoSided(0.8), 32, 1, 0.44, 2, 149, 505, 341, true),
    (Dynamics::TwoSided(0.8), 32, 1, 0.44, 3, 136, 505, 281, true),
    (Dynamics::TwoSided(0.8), 48, 2, 0.55, 1, 1488, 936, 1816, true),
    (Dynamics::TwoSided(0.8), 48, 2, 0.55, 2, 1500, 1550, 1807, false),
    (Dynamics::TwoSided(0.8), 48, 2, 0.55, 3, 1500, 950, 1816, false),
    (Dynamics::Kawasaki, 32, 1, 0.44, 1, 96, 517, 17, true),
    (Dynamics::Kawasaki, 32, 1, 0.44, 2, 104, 520, 11, true),
    (Dynamics::Kawasaki, 32, 1, 0.44, 3, 98, 513, 5, true),
    (Dynamics::Kawasaki, 48, 2, 0.55, 1, 614, 1156, 89, false),
    (Dynamics::Kawasaki, 48, 2, 0.55, 2, 658, 1152, 67, false),
    (Dynamics::Kawasaki, 48, 2, 0.55, 3, 664, 1130, 85, false),
];

/// Runs one [`RULE_GOLDEN`] row: `(events, plus_total, unhappy, terminated)`.
fn run_rule(dynamics: Dynamics, n: u32, w: u32, tau: f64, seed: u64) -> (u64, usize, usize, bool) {
    let nsize = (2 * w + 1) * (2 * w + 1);
    let baseline = |rule: UpdateRule| {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let field = TypeField::random(Torus::new(n), 0.5, &mut rng);
        let mut sim = VariantSim::from_field(field, w, Intolerance::new(nsize, tau), rule, rng);
        sim.run(RULE_BUDGET);
        let unhappy = sim.unhappy_count();
        (sim.flips(), sim.field().plus_total(), unhappy, unhappy == 0)
    };
    match dynamics {
        Dynamics::FlipWhenUnhappy => baseline(UpdateRule::FlipWhenUnhappy),
        Dynamics::Noise(eps) => baseline(UpdateRule::Noise(eps)),
        Dynamics::TwoSided(tau_hi) => {
            let mut sim = IntervalSim::random(n, w, tau, tau_hi, seed);
            let stable = sim.run(RULE_BUDGET);
            let plus = sim.field().plus_total();
            (sim.flips(), plus, sim.discontent_count(), stable)
        }
        Dynamics::Kawasaki => {
            let mut k = KawasakiSim::new(ModelConfig::new(n, w, tau).seed(seed).build());
            k.run(RULE_BUDGET);
            // recount the final configuration's unhappy agents
            let intol = Intolerance::new(nsize, tau);
            let rng = Xoshiro256pp::seed_from_u64(0);
            let unhappy = Simulation::from_field(k.field().clone(), w, intol, rng).unhappy_count();
            let stopped_early = k.swaps() + k.failed_attempts() < RULE_BUDGET;
            (k.swaps(), k.field().plus_total(), unhappy, stopped_early)
        }
    }
}

#[test]
fn rule_trajectories_reproduce_goldens() {
    for &(dynamics, n, w, tau, seed, events, plus_total, unhappy, terminated) in RULE_GOLDEN {
        assert_eq!(
            run_rule(dynamics, n, w, tau, seed),
            (events, plus_total, unhappy, terminated),
            "{dynamics:?} trajectory diverged for n={n} w={w} τ={tau} seed={seed}"
        );
    }
}

/// Brute-force flippable indices of a ring, from public state only.
fn ring_flippable_brute(sim: &RingSim) -> Vec<usize> {
    let types = sim.types();
    let n = types.len();
    let nsize = sim.intolerance().neighborhood_size() as usize;
    let w = (nsize - 1) / 2;
    (0..n)
        .filter(|&i| {
            let s = (0..nsize)
                .filter(|&d| types[(i + n + d - w) % n] == types[i])
                .count() as u32;
            sim.intolerance().is_flippable(s)
        })
        .collect()
}

/// Brute-force unhappy indices of the given type.
fn ring_unhappy_brute(sim: &RingSim, ty: AgentType) -> Vec<usize> {
    let types = sim.types();
    let n = types.len();
    let nsize = sim.intolerance().neighborhood_size() as usize;
    let w = (nsize - 1) / 2;
    (0..n)
        .filter(|&i| {
            if types[i] != ty {
                return false;
            }
            let s = (0..nsize)
                .filter(|&d| types[(i + n + d - w) % n] == types[i])
                .count() as u32;
            !sim.intolerance().is_happy(s)
        })
        .collect()
}

/// Mixes dynamics steps with forced flips at pseudo-random sites
/// (Lemma-5-style schedules flip non-flippable agents too), then checks
/// the audit and the unhappy counter against a brute-force recount.
fn audit_after_mixed_flips<R: Rule>(
    mut sim: GridSim<R>,
    seed: u64,
    steps: usize,
) -> Result<(), TestCaseError> {
    let t = sim.torus();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    for k in 0..steps {
        if k % 3 == 0 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = ((state >> 33) % t.len() as u64) as usize;
            sim.force_flip_at(t.from_index(i));
        } else if sim.step().is_none() {
            break;
        }
    }
    prop_assert!(
        sim.audit(),
        "{:?}: audit failed after {steps} mixed flips",
        sim.rule()
    );
    let brute_unhappy = t.points().filter(|p| !sim.is_happy(*p)).count();
    prop_assert_eq!(sim.unhappy_count(), brute_unhappy);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) The fused kernel leaves the full audit true after arbitrary
    /// mixes of dynamics steps and forced (schedule-style) flips, and the
    /// O(1) unhappy counter matches a brute-force recount — under the
    /// paper's rule, both §I-A baselines and the §V comfort band.
    #[test]
    fn fused_kernel_audit_after_random_flips(
        seed in any::<u64>(),
        w in 1u32..4,
        tau in 0.2f64..0.7,
        steps in 1usize..120,
    ) {
        let config = ModelConfig::new(24, w, tau).seed(seed);
        let intol = config.intolerance();
        let band = ComfortBand::new(config.neighborhood_size(), tau, (tau + 0.3).min(1.0));
        audit_after_mixed_flips(config.build(), seed, steps)?;
        let unhappy = Baseline::new(intol, UpdateRule::FlipWhenUnhappy);
        audit_after_mixed_flips(config.build_with(unhappy), seed, steps)?;
        let noise = Baseline::new(intol, UpdateRule::Noise(0.3));
        audit_after_mixed_flips(config.build_with(noise), seed, steps)?;
        audit_after_mixed_flips(config.build_with(band), seed, steps)?;
    }

    /// (b) The ring's maintained flippable set always equals the
    /// brute-force recomputation after random step sequences.
    #[test]
    fn ring_flippable_set_matches_brute_force(
        seed in any::<u64>(),
        w in 1u32..6,
        tau in 0.2f64..0.6,
        steps in 0usize..200,
    ) {
        let mut sim = RingSim::random(120, w, tau, 0.5, seed);
        prop_assert_eq!(sim.flippable(), ring_flippable_brute(&sim));
        for _ in 0..steps {
            if sim.step().is_none() {
                break;
            }
        }
        prop_assert_eq!(sim.flippable(), ring_flippable_brute(&sim));
        prop_assert_eq!(sim.flippable_count(), ring_flippable_brute(&sim).len());
    }

    /// (b) The Kawasaki unhappy-per-type sets equal the brute-force
    /// recomputation after random accept/reject sequences, and rejected
    /// attempts leave the configuration untouched.
    #[test]
    fn kawasaki_sets_match_brute_force(
        seed in any::<u64>(),
        w in 1u32..5,
        tau in 0.3f64..0.55,
        attempts in 0usize..150,
    ) {
        let inner = RingSim::random(120, w, tau, 0.5, seed);
        let mut k = RingKawasaki::new(inner);
        for _ in 0..attempts {
            let before = k.ring().types().to_vec();
            match k.try_swap() {
                Some(true) => {}
                Some(false) => {
                    prop_assert_eq!(
                        before, k.ring().types().to_vec(),
                        "rejected swap mutated the configuration"
                    );
                }
                None => break,
            }
        }
        prop_assert_eq!(k.unhappy_plus(), ring_unhappy_brute(k.ring(), AgentType::Plus));
        prop_assert_eq!(k.unhappy_minus(), ring_unhappy_brute(k.ring(), AgentType::Minus));
        // the inner Glauber set stayed consistent through Kawasaki moves
        prop_assert_eq!(k.ring().flippable(), ring_flippable_brute(k.ring()));
    }
}
