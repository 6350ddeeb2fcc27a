//! A dense index set with O(1) insert, remove and uniform sampling.

use crate::rng::Xoshiro256pp;

/// A set of cell indices over a fixed universe `0..capacity` with O(1)
/// insert, remove, membership and uniform sampling.
///
/// This is the bookkeeping structure behind every incrementally-maintained
/// agent set of the dynamics layer: the *flippable* agents of the 2-D
/// simulation, the active/unhappy sets of the variants, and the ring
/// models' flippable and unhappy-per-type sets. Insertion order determines
/// iteration and sampling order, so two runs that perform the same
/// insert/remove sequence sample identically — the property the
/// simulations rely on for bit-identical seeded trajectories.
///
/// # Example
///
/// ```
/// use seg_grid::{rng::Xoshiro256pp, IndexedSet};
/// let mut s = IndexedSet::new(8);
/// s.insert(3);
/// s.insert(5);
/// s.remove(3);
/// assert_eq!(s.len(), 1);
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// assert_eq!(s.sample(&mut rng), Some(5));
/// ```
#[derive(Clone, Debug)]
pub struct IndexedSet {
    items: Vec<u32>,
    /// position of each index in `items`, or `u32::MAX` when absent.
    pos: Vec<u32>,
}

impl IndexedSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexedSet {
            items: Vec::new(),
            pos: vec![u32::MAX; capacity],
        }
    }

    /// The set of every `i ∈ 0..capacity` with `member(i)`, in the
    /// internal order that inserting them in ascending order into
    /// [`IndexedSet::new`] gives. Membership is gathered 64 indices at a
    /// time into a bit mask, so no branch is taken per index on it.
    pub fn from_fn(capacity: usize, mut member: impl FnMut(usize) -> bool) -> Self {
        let mut set = IndexedSet::new(capacity);
        for start in (0..capacity).step_by(64) {
            let mut bits = 0u64;
            for i in start..capacity.min(start + 64) {
                bits |= u64::from(member(i)) << (i - start);
            }
            while bits != 0 {
                set.insert(start + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        set
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.pos[i] != u32::MAX
    }

    /// Inserts `i`; a no-op when already present.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        if self.pos[i] == u32::MAX {
            self.pos[i] = self.items.len() as u32;
            self.items.push(i as u32);
        }
    }

    /// Removes `i` (swap-remove); a no-op when absent.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        let p = self.pos[i];
        if p == u32::MAX {
            return;
        }
        let last = *self.items.last().expect("non-empty when pos is set");
        self.items[p as usize] = last;
        self.pos[last as usize] = p;
        self.items.pop();
        self.pos[i] = u32::MAX;
    }

    /// Removes every element, keeping the capacity.
    pub fn clear(&mut self) {
        for &i in &self.items {
            self.pos[i as usize] = u32::MAX;
        }
        self.items.clear();
    }

    /// Samples a uniform element, or `None` when empty. Consumes one RNG
    /// draw iff the set is non-empty.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> Option<usize> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items[rng.next_below(self.items.len() as u64) as usize] as usize)
        }
    }

    /// Iterates the elements in internal (insertion/swap) order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.items.iter().map(|i| *i as usize)
    }

    /// The elements in ascending order (for presentation and tests; the
    /// internal order is what sampling uses).
    pub fn sorted(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.iter().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = IndexedSet::new(10);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(7);
        s.insert(3); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(7));
        s.remove(3);
        assert!(!s.contains(3));
        s.remove(3); // idempotent
        assert_eq!(s.len(), 1);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(s.sample(&mut rng), Some(7));
    }

    #[test]
    fn clear_resets_membership() {
        let mut s = IndexedSet::new(5);
        for i in 0..5 {
            s.insert(i);
        }
        s.clear();
        assert!(s.is_empty());
        assert!((0..5).all(|i| !s.contains(i)));
        s.insert(2);
        assert_eq!(s.sorted(), vec![2]);
    }

    #[test]
    fn sorted_is_ascending() {
        let mut s = IndexedSet::new(10);
        for i in [9, 1, 5, 3] {
            s.insert(i);
        }
        assert_eq!(s.sorted(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn from_fn_matches_ascending_inserts() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for cap in [0, 1, 7, 64, 300] {
            let member: Vec<bool> = (0..cap).map(|_| rng.next_bool(0.4)).collect();
            let built = IndexedSet::from_fn(cap, |i| member[i]);
            let mut inserted = IndexedSet::new(cap);
            (0..cap)
                .filter(|&i| member[i])
                .for_each(|i| inserted.insert(i));
            assert_eq!(built.items, inserted.items, "capacity {cap}");
            assert_eq!(built.pos, inserted.pos, "capacity {cap}");
        }
    }
}
