//! A binary indexed sum tree supporting O(log n) priority updates and prefix-sum sampling —
//! the standard data structure behind proportional prioritized experience replay.

/// Fixed-capacity sum tree. Leaves hold non-negative priorities; internal nodes hold the sum
/// of their children, so sampling a priority-proportional index is a root-to-leaf descent.
#[derive(Debug, Clone)]
pub struct SumTree {
    capacity: usize,
    /// Binary heap layout: `nodes[1]` is the root, leaves start at `capacity`.
    nodes: Vec<f64>,
}

impl SumTree {
    /// Creates a tree able to hold `capacity` priorities, all initially zero.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sum tree capacity must be positive");
        let cap = capacity.next_power_of_two();
        SumTree {
            capacity: cap,
            nodes: vec![0.0; 2 * cap],
        }
    }

    /// Number of leaf slots (rounded up to the next power of two).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total priority mass.
    pub fn total(&self) -> f64 {
        self.nodes[1]
    }

    /// Priority currently stored at `index`.
    pub fn get(&self, index: usize) -> f64 {
        debug_assert!(index < self.capacity);
        self.nodes[self.capacity + index]
    }

    /// Sets the priority at `index`, updating all ancestor sums.
    ///
    /// # Panics
    ///
    /// When `priority` is negative, NaN or infinite (in release builds too): one such
    /// leaf would poison every ancestor sum and so every later prefix search.
    pub fn set(&mut self, index: usize, priority: f64) {
        debug_assert!(index < self.capacity, "index {index} >= {}", self.capacity);
        assert!(
            priority >= 0.0 && priority.is_finite(),
            "priority {priority} is not a finite non-negative number"
        );
        let mut node = self.capacity + index;
        let delta = priority - self.nodes[node];
        self.nodes[node] = priority;
        while node > 1 {
            node /= 2;
            self.nodes[node] += delta;
        }
    }

    /// Finds the leaf index whose cumulative priority interval contains `prefix`
    /// (`0 <= prefix < total()`). Returns the last non-empty leaf when rounding pushes the
    /// prefix past the total.
    pub fn find_prefix(&self, prefix: f64) -> usize {
        let mut node = 1;
        let mut remaining = prefix.max(0.0);
        while node < self.capacity {
            let left = 2 * node;
            if remaining < self.nodes[left] || self.nodes[left + 1] <= 0.0 {
                node = left;
            } else {
                remaining -= self.nodes[left];
                node = left + 1;
            }
        }
        node - self.capacity
    }

    /// Minimum non-zero priority among the first `len` leaves (used for importance-sampling
    /// weight normalisation). Returns `None` when all of them are zero.
    pub fn min_priority(&self, len: usize) -> Option<f64> {
        (0..len.min(self.capacity))
            .map(|i| self.nodes[self.capacity + i])
            .filter(|&p| p > 0.0)
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.min(p))))
    }
}

/// Checkpoint format: leaf capacity (`u64`, already rounded to a power of two), then the
/// **entire** node array (`2·capacity` f64 raw bits) — internal sums included.
///
/// Persisting only the leaves and rebuilding on load would *not* be bit-exact: internal
/// node values accumulate `+=` deltas in the historical order of [`SumTree::set`] calls,
/// so a rebuilt root can differ from the live one in the last ulp, which is enough to
/// flip a [`SumTree::find_prefix`] descent and derail every subsequent prioritized
/// sampling draw. The node array is the state; it is saved verbatim.
impl crowd_ckpt::SaveState for SumTree {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_usize(self.capacity);
        w.put_f64_slice(&self.nodes);
    }
}

impl crowd_ckpt::LoadState for SumTree {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        let capacity = r.take_usize()?;
        if capacity != self.capacity {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "sum tree",
                detail: format!(
                    "snapshot capacity {capacity} does not match live capacity {}",
                    self.capacity
                ),
            });
        }
        let nodes = r.take_f64_vec()?;
        if nodes.len() != 2 * capacity {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "sum tree",
                detail: format!("{} nodes for capacity {capacity}", nodes.len()),
            });
        }
        self.nodes = nodes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_preserves_internal_sums_bit_for_bit() {
        use crowd_ckpt::{LoadState, SaveState, StateReader, StateWriter};
        // Build a tree through an update history whose internal sums depend on the
        // accumulation order (values with different exponents).
        let mut tree = SumTree::new(8);
        for (i, p) in [1e-3, 7.25, 1e9, 0.1, 3.5, 1e-7, 42.0, 0.9]
            .iter()
            .enumerate()
        {
            tree.set(i, *p);
        }
        tree.set(2, 0.5); // churn so internal nodes carry += residue
        tree.set(5, 123.456);
        let mut w = StateWriter::new();
        tree.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = SumTree::new(8);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        for (a, b) in tree.nodes.iter().zip(&restored.nodes) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Capacity mismatch is a typed error.
        let mut wrong = SumTree::new(16);
        assert!(wrong.load_state(&mut StateReader::new(&bytes)).is_err());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(SumTree::new(5).capacity(), 8);
        assert_eq!(SumTree::new(8).capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = SumTree::new(0);
    }

    #[test]
    fn set_and_total() {
        let mut t = SumTree::new(4);
        t.set(0, 1.0);
        t.set(1, 2.0);
        t.set(2, 3.0);
        assert!((t.total() - 6.0).abs() < 1e-9);
        t.set(1, 0.5);
        assert!((t.total() - 4.5).abs() < 1e-9);
        assert_eq!(t.get(2), 3.0);
    }

    #[test]
    fn find_prefix_selects_correct_leaf() {
        let mut t = SumTree::new(4);
        t.set(0, 1.0);
        t.set(1, 2.0);
        t.set(2, 3.0);
        t.set(3, 4.0);
        // Cumulative boundaries: [0,1), [1,3), [3,6), [6,10).
        assert_eq!(t.find_prefix(0.5), 0);
        assert_eq!(t.find_prefix(1.0), 1);
        assert_eq!(t.find_prefix(2.9), 1);
        assert_eq!(t.find_prefix(3.0), 2);
        assert_eq!(t.find_prefix(9.9), 3);
    }

    #[test]
    fn find_prefix_skips_zero_leaves() {
        let mut t = SumTree::new(8);
        t.set(3, 5.0);
        for prefix in [0.0, 1.0, 4.9] {
            assert_eq!(t.find_prefix(prefix), 3);
        }
    }

    #[test]
    fn sampling_distribution_is_proportional() {
        use crowd_tensor::Rng;
        let mut t = SumTree::new(4);
        t.set(0, 1.0);
        t.set(1, 3.0);
        let mut rng = Rng::seed_from(0);
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            let p = rng.unit() as f64 * t.total();
            counts[t.find_prefix(p)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn min_priority_ignores_zeros() {
        let mut t = SumTree::new(4);
        assert_eq!(t.min_priority(4), None);
        t.set(0, 2.0);
        t.set(2, 0.5);
        assert_eq!(t.min_priority(4), Some(0.5));
        assert_eq!(t.min_priority(1), Some(2.0));
    }
}
