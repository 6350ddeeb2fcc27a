//! Configuration-level segregation metrics.

use crate::sim::Simulation;
use seg_grid::{AgentType, TypeField};

/// Snapshot statistics of a configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigStats {
    /// Number of `+1` agents.
    pub plus: usize,
    /// Number of `-1` agents.
    pub minus: usize,
    /// Number of unhappy agents.
    pub unhappy: usize,
    /// Number of flippable agents (unhappy and improvable).
    pub flippable: usize,
    /// Fraction of happy agents in `[0, 1]`.
    pub happy_fraction: f64,
    /// Number of von-Neumann-adjacent opposite-type pairs (the interface
    /// length; complete segregation into two half-planes minimizes it).
    pub interface_length: usize,
    /// Size of the largest same-type 4-connected cluster.
    pub largest_cluster: usize,
}

/// Computes all [`ConfigStats`] for the current simulation state.
pub fn config_stats(sim: &Simulation) -> ConfigStats {
    let field = sim.field();
    let plus = field.plus_total();
    let n = field.torus().len();
    let unhappy = sim.unhappy_count();
    ConfigStats {
        plus,
        minus: n - plus,
        unhappy,
        flippable: sim.flippable_count(),
        happy_fraction: 1.0 - unhappy as f64 / n as f64,
        interface_length: interface_length(field),
        largest_cluster: largest_same_type_cluster(field),
    }
}

/// Number of von-Neumann-adjacent opposite-type pairs on the torus: each
/// cell's right and down edge counts, wrapping across both seams. On side
/// 2 two edges join each adjacent pair, one each way round, so the pair
/// counts once per direction; on side 1 the interface is 0.
pub fn interface_length(field: &TypeField) -> usize {
    let (n, cells) = (field.torus().side() as usize, field.as_slice());
    let mut count = 0usize;
    for (y, row) in cells.chunks_exact(n).enumerate() {
        let below = &cells[(y + 1) % n * n..][..n];
        count += row.windows(2).filter(|p| p[0] != p[1]).count();
        count += usize::from(row[n - 1] != row[0]);
        count += row.iter().zip(below).filter(|(a, b)| a != b).count();
    }
    count
}

/// Size of the largest 4-connected same-type cluster. Clusters connect
/// across both seams of the torus; on side 1 the one agent is a cluster
/// of size 1.
pub fn largest_same_type_cluster(field: &TypeField) -> usize {
    largest_cluster(field.as_slice(), field.torus().side() as usize)
}

/// [`largest_same_type_cluster`] over any cell type.
pub(crate) fn largest_cluster<T: Copy + Eq>(cells: &[T], side: usize) -> usize {
    clusters(cells, side).map(|c| c.1).max().unwrap_or(0)
}

/// Sizes of all 4-connected clusters of type `ty`, largest first.
pub fn cluster_sizes_of_type(field: &TypeField, ty: AgentType) -> Vec<usize> {
    let clusters = clusters(field.as_slice(), field.torus().side() as usize);
    let mut sizes: Vec<usize> = clusters.filter(|c| c.0 == ty).map(|c| c.1).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// The 4-connected same-value clusters of a row-major `side × side`
/// torus, as `(value, size)`. One raster scan labels each cell from its
/// left or up neighbour, merging labels only where both match under
/// different ones; a short pass then merges across the two seams.
fn clusters<T: Copy + Eq>(cells: &[T], side: usize) -> impl Iterator<Item = (T, usize)> + '_ {
    debug_assert_eq!(cells.len(), side * side);
    assert!(side < 1 << 16, "side {side} too large for u32 labels");
    // label[i] is a cell of i's cluster no later than i; self-labelled
    // cells form a union-find forest rooted at each set's first cell
    let (mut label, mut l) = (vec![0u32; cells.len()], 0u32);
    for y in 0..side {
        for x in 0..side {
            let (i, ui) = (y * side + x, (y * side + x).saturating_sub(side));
            let left = x > 0 && cells[i - 1] == cells[i];
            let up = y > 0 && cells[ui] == cells[i];
            // `l` is still the left label; the up one is read a step rootwards
            let (a, b) = (l, label[label[ui] as usize]);
            let unless_left = if up { b } else { i as u32 };
            l = if left { a } else { unless_left };
            if left && up && a != b {
                l = union(&mut label, a, b);
            }
            label[i] = l;
        }
    }
    let last_row = cells.len() - side;
    for k in 0..side {
        if cells[k * side] == cells[k * side + side - 1] {
            union(&mut label, (k * side) as u32, (k * side + side - 1) as u32);
        }
        if cells[k] == cells[last_row + k] {
            union(&mut label, k as u32, (last_row + k) as u32);
        }
    }
    // labels precede their cells, so one ascending pass flattens them
    let mut size = vec![0u32; cells.len()];
    for i in 0..cells.len() {
        label[i] = label[label[i] as usize];
        size[label[i] as usize] += 1;
    }
    // yielded lazily: a result vector allocated beside the tables
    // fragmented the heap and raised peak memory on large tori
    let roots = (0..cells.len()).filter(move |&i| label[i] as usize == i);
    roots.map(move |i| (cells[i], size[i] as usize))
}

/// Root of cell `x`'s set, halving the path on the way.
fn find(label: &mut [u32], mut x: u32) -> u32 {
    while label[x as usize] != x {
        label[x as usize] = label[label[x as usize] as usize];
        x = label[x as usize];
    }
    x
}

/// Merges the sets of cells `a` and `b` under the smaller root, returned.
fn union(label: &mut [u32], a: u32, b: u32) -> u32 {
    let (ra, rb) = (find(label, a), find(label, b));
    label[ra.max(rb) as usize] = ra.min(rb);
    ra.min(rb)
}

/// Whether the configuration is completely segregated: one type covers the
/// whole torus (§V, the Fontes-et-al. regime).
pub fn is_completely_segregated(field: &TypeField) -> bool {
    field.is_monochromatic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use seg_grid::{Torus, TypeField};

    #[test]
    fn interface_of_uniform_field_is_zero() {
        let t = Torus::new(16);
        let f = TypeField::uniform(t, AgentType::Plus);
        assert_eq!(interface_length(&f), 0);
        assert!(is_completely_segregated(&f));
        assert_eq!(largest_same_type_cluster(&f), 256);
    }

    #[test]
    fn interface_of_checkerboard_is_maximal() {
        let t = Torus::new(16);
        let f = TypeField::from_fn(t, |p| {
            if (p.x + p.y) % 2 == 0 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        // every edge is an interface edge: 2 edges per site
        assert_eq!(interface_length(&f), 2 * 256);
        assert_eq!(largest_same_type_cluster(&f), 1);
    }

    #[test]
    fn halves_have_two_interfaces_on_torus() {
        let t = Torus::new(16);
        let f = TypeField::from_fn(t, |p| {
            if p.x < 8 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        // two vertical seams of length 16 each (x = 7→8 and wrap 15→0)
        assert_eq!(interface_length(&f), 32);
        assert_eq!(largest_same_type_cluster(&f), 128);
        let sizes = cluster_sizes_of_type(&f, AgentType::Plus);
        assert_eq!(sizes, vec![128]);
    }

    #[test]
    fn stats_are_consistent() {
        let sim = ModelConfig::new(32, 2, 0.45).seed(5).build();
        let s = config_stats(&sim);
        assert_eq!(s.plus + s.minus, 1024);
        assert!(s.flippable <= s.unhappy, "flippable ⊆ unhappy for τ < 1/2");
        assert!((0.0..=1.0).contains(&s.happy_fraction));
        assert!(s.largest_cluster >= 1);
    }

    #[test]
    fn dynamics_reduces_interface() {
        let mut sim = ModelConfig::new(64, 2, 0.45).seed(8).build();
        let before = interface_length(sim.field());
        sim.run_to_stable(1_000_000);
        let after = interface_length(sim.field());
        assert!(
            after < before,
            "segregation dynamics must coarsen: {before} → {after}"
        );
    }

    #[test]
    fn cluster_sizes_sum_to_type_total() {
        let sim = ModelConfig::new(48, 2, 0.4).seed(2).build();
        let f = sim.field();
        let sizes = cluster_sizes_of_type(f, AgentType::Plus);
        assert_eq!(sizes.iter().sum::<usize>(), f.plus_total());
        // sorted descending
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
