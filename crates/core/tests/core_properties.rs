//! Property-based tests for the model crate.

use proptest::prelude::*;
use seg_core::interval::ComfortBand;
use seg_core::intolerance::Intolerance;
use seg_core::metrics::{cluster_sizes_of_type, interface_length, largest_same_type_cluster};
use seg_core::multi::MultiSim;
use seg_core::ring::RingSim;
use seg_core::ModelConfig;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, Point, Torus, TypeField};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// §IV-C mirror identity in exact integer arithmetic: for a threshold
    /// `K ≥ (N+2)/2` (the τ > 1/2 regime), the *super-unhappy* agents —
    /// the only ones that act — are exactly the agents that a τ̄ < 1/2
    /// model with the reflected threshold `K̄ = N − K + 2` would flip:
    /// `S < K ∧ N−S+1 ≥ K  ⟺  S < K̄`, and below one half flippable
    /// coincides with unhappy. This is the paper's "super-unhappy agents
    /// act in the same way as unhappy agents do for τ < 1/2", with the
    /// `+2/N` of τ̄ appearing as the `+2` in `K̄`.
    #[test]
    fn super_unhappy_mirror(side in 1u32..10, k_raw in 0u32..500, s_raw in 1u32..500) {
        let n = (2 * side + 1) * (2 * side + 1);
        let s = 1 + s_raw % n;
        // restrict to the τ > 1/2 regime: K in [(N+2)/2, N]
        let k_lo = n.div_ceil(2) + 1;
        let k = k_lo + k_raw % (n - k_lo + 1);
        let k_bar = n + 2 - k;
        let high = Intolerance::from_threshold(n, k);
        let low = Intolerance::from_threshold(n, k_bar);
        prop_assert_eq!(
            high.is_super_unhappy(s),
            low.is_flippable(s),
            "n={} K={} K̄={} S={}", n, k, k_bar, s
        );
        // and below one half, flippable ⇔ unhappy
        prop_assert_eq!(low.is_flippable(s), !low.is_happy(s));
    }

    /// The paper's model is the τ_hi = 1 slice of the comfort band.
    #[test]
    fn band_generalizes_intolerance(side in 1u32..8, tau in 0.0f64..=1.0, s_raw in 1u32..400) {
        let n = (2 * side + 1) * (2 * side + 1);
        let s = 1 + s_raw % n;
        let band = ComfortBand::new(n, tau, 1.0);
        let intol = Intolerance::new(n, tau);
        prop_assert_eq!(band.is_content(s), intol.is_happy(s));
        prop_assert_eq!(band.is_flippable(s), intol.is_flippable(s));
    }

    /// Termination within the Lyapunov bound for arbitrary (τ, seed).
    #[test]
    fn termination_within_lyapunov_bound(seed in any::<u64>(), tau in 0.05f64..0.95) {
        let mut sim = ModelConfig::new(20, 1, tau).seed(seed).build();
        let bound = seg_core::lyapunov::max_remaining_flips(&sim);
        let report = sim.run_to_stable(u64::MAX);
        prop_assert!(report.terminated);
        prop_assert!(report.flips <= bound);
    }

    /// Stable states of the 2-type multi-model and the reference model
    /// agree on the happiness predicate (k = 2 reduction).
    #[test]
    fn multi_two_types_stabilizes_all_happy(seed in any::<u64>()) {
        let mut m = MultiSim::random(24, 1, 2, 0.4, seed);
        prop_assert!(m.run(1_000_000));
        prop_assert_eq!(m.unhappy_count(), 0);
    }

    /// Ring run lengths always partition the ring, before and after
    /// dynamics.
    #[test]
    fn ring_runs_partition(seed in any::<u64>(), tau in 0.2f64..0.48) {
        let mut r = RingSim::random(300, 3, tau, 0.5, seed);
        prop_assert_eq!(r.run_lengths().iter().sum::<usize>(), 300);
        r.run_to_stable(1_000_000);
        prop_assert_eq!(r.run_lengths().iter().sum::<usize>(), 300);
    }

    /// Flips conserve nothing in the open system but stay on the torus:
    /// plus totals change by exactly ±1 per flip.
    #[test]
    fn flip_changes_total_by_one(seed in any::<u64>(), tau in 0.3f64..0.49) {
        let mut sim = ModelConfig::new(24, 1, tau).seed(seed).build();
        for _ in 0..50 {
            let before = sim.field().plus_total() as i64;
            match sim.step() {
                Some(_) => {
                    let after = sim.field().plus_total() as i64;
                    prop_assert_eq!((after - before).abs(), 1);
                }
                None => break,
            }
        }
    }
}

/// Reference clusters: a depth-first search over [`Torus::offset`], as
/// `(type, size)` per 4-connected same-type cluster.
fn reference_clusters<T: Copy + Eq>(torus: Torus, at: impl Fn(Point) -> T) -> Vec<(T, usize)> {
    let mut seen = vec![false; torus.len()];
    let mut out = Vec::new();
    for start in 0..torus.len() {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let ty = at(torus.from_index(start));
        let (mut stack, mut size) = (vec![start], 0);
        while let Some(i) = stack.pop() {
            size += 1;
            let p = torus.from_index(i);
            for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                let q = torus.offset(p, dx, dy);
                let j = torus.index(q);
                if !seen[j] && at(q) == ty {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        out.push((ty, size));
    }
    out
}

/// Reference interface: every cell's right and down edge (wrapping) whose
/// ends differ in type.
fn reference_interface(field: &TypeField) -> usize {
    let t = field.torus();
    t.points()
        .map(|p| {
            [(1, 0), (0, 1)]
                .into_iter()
                .filter(|&(dx, dy)| field.get(t.offset(p, dx, dy)) != field.get(p))
                .count()
        })
        .sum()
}

/// Checks every field observer against the references.
fn assert_observers_match_reference(f: &TypeField, what: &str) {
    let reference = reference_clusters(f.torus(), |p| f.get(p));
    assert_eq!(
        interface_length(f),
        reference_interface(f),
        "interface, {what}"
    );
    let largest = reference.iter().map(|c| c.1).max().unwrap_or(0);
    assert_eq!(
        largest_same_type_cluster(f),
        largest,
        "largest cluster, {what}"
    );
    for ty in [AgentType::Plus, AgentType::Minus] {
        let mut sizes: Vec<usize> = reference
            .iter()
            .filter_map(|&(t, size)| (t == ty).then_some(size))
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(cluster_sizes_of_type(f, ty), sizes, "{ty} clusters, {what}");
    }
}

#[test]
fn observers_match_a_brute_force_search_on_random_fields() {
    let mut rng = Xoshiro256pp::seed_from_u64(14);
    for n in (1..=12).chain([17]) {
        for density in [0.0, 0.3, 0.5, 1.0] {
            for rep in 0..3 {
                let f = TypeField::random(Torus::new(n), density, &mut rng);
                assert_observers_match_reference(&f, &format!("n = {n}, p = {density}, #{rep}"));
            }
        }
        for k in 2..=4 {
            let m = MultiSim::random(n, 0, k, 0.5, u64::from(n) * 10 + u64::from(k));
            let reference = reference_clusters(Torus::new(n), |p| m.type_at(p));
            let largest = reference.iter().map(|c| c.1).max().unwrap_or(0);
            assert_eq!(m.largest_cluster(), largest, "multi-type, n = {n}, k = {k}");
        }
    }
}

#[test]
fn observers_join_clusters_across_each_seam() {
    use AgentType::{Minus, Plus};
    for n in 4..=9u32 {
        let t = Torus::new(n);
        let last = n - 1;
        // two cells of the top row joined by a path along the bottom row:
        // connected only through the y-seam
        let y_seam = TypeField::from_fn(t, |p| {
            let top = p.y == 0 && (p.x == 0 || p.x == 2);
            let bottom = p.y == last && p.x <= 2;
            if top || bottom {
                Plus
            } else {
                Minus
            }
        });
        // the same shape transposed: only through the x-seam
        let x_seam = TypeField::from_fn(t, |p| {
            let left = p.x == 0 && (p.y == 0 || p.y == 2);
            let right = p.x == last && p.y <= 2;
            if left || right {
                Plus
            } else {
                Minus
            }
        });
        // the four corners: each touches one other across each seam
        let corners = TypeField::from_fn(t, |p| {
            if (p.x == 0 || p.x == last) && (p.y == 0 || p.y == last) {
                Plus
            } else {
                Minus
            }
        });
        for (f, size, shape) in [
            (y_seam, 5, "y-seam"),
            (x_seam, 5, "x-seam"),
            (corners, 4, "corners"),
        ] {
            assert_eq!(
                cluster_sizes_of_type(&f, Plus),
                vec![size],
                "{shape}, n = {n}"
            );
            assert_observers_match_reference(&f, &format!("{shape}, n = {n}"));
        }
    }
}

#[test]
fn observers_on_the_smallest_tori() {
    use AgentType::{Minus, Plus};
    // side 1: the one agent is its own neighbour in every direction
    let one = TypeField::uniform(Torus::new(1), Plus);
    assert_eq!(interface_length(&one), 0);
    assert_eq!(largest_same_type_cluster(&one), 1);
    // side 2: two edges join each adjacent pair, one each way round, so
    // a checkerboard's 4 cells contribute 2 interface edges each
    let t = Torus::new(2);
    let checker = TypeField::from_fn(t, |p| if (p.x + p.y) % 2 == 0 { Plus } else { Minus });
    assert_eq!(interface_length(&checker), 8);
    assert_eq!(largest_same_type_cluster(&checker), 1);
    let halves = TypeField::from_fn(t, |p| if p.x == 0 { Plus } else { Minus });
    assert_eq!(interface_length(&halves), 4);
    assert_eq!(cluster_sizes_of_type(&halves, Plus), vec![2]);
}
