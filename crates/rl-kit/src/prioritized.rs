//! Proportional prioritized experience replay (Schaul et al., 2015 — the paper's \[25\]).
//!
//! Transition `i` is sampled with probability `p_i^α / Σ p_j^α` where `p_i = |δ_i| + ε` is its
//! last absolute TD error. Sampling returns importance-sampling weights
//! `w_i = (N · P(i))^{-β} / max_j w_j` so the gradient stays unbiased as β anneals to 1.

use crate::sum_tree::SumTree;
use crowd_tensor::Rng;

/// One sampled transition: its slot, a reference-by-index into the buffer, and its
/// importance-sampling weight.
#[derive(Debug, Clone, PartialEq)]
pub struct PrioritizedSample {
    /// Slot in the buffer; pass back to [`PrioritizedReplay::update_priority`].
    pub index: usize,
    /// Importance-sampling weight, already normalised to max 1.
    pub weight: f32,
}

/// Ring-buffer prioritized replay memory.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay<T> {
    capacity: usize,
    items: Vec<Option<T>>,
    tree: SumTree,
    next_slot: usize,
    len: usize,
    alpha: f64,
    beta: f64,
    beta_increment: f64,
    epsilon: f64,
    max_priority: f64,
}

impl<T> PrioritizedReplay<T> {
    /// Creates a buffer with the given capacity and the standard α=0.6, β=0.4→1.0 schedule.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        PrioritizedReplay {
            capacity,
            items: std::iter::repeat_with(|| None).take(capacity).collect(),
            tree: SumTree::new(capacity),
            next_slot: 0,
            len: 0,
            alpha: 0.6,
            beta: 0.4,
            beta_increment: 1e-4,
            epsilon: 1e-3,
            max_priority: 1.0,
        }
    }

    /// Overrides the priority exponent α (0 = uniform, 1 = fully proportional).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.max(0.0);
        self
    }

    /// Overrides the initial β and its per-sample increment.
    pub fn with_beta(mut self, beta: f64, increment: f64) -> Self {
        self.beta = beta.clamp(0.0, 1.0);
        self.beta_increment = increment.max(0.0);
        self
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current annealed β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Inserts a transition with maximal priority so it is sampled at least once soon.
    pub fn push(&mut self, item: T) {
        let slot = self.next_slot;
        self.items[slot] = Some(item);
        self.tree.set(slot, self.max_priority.powf(self.alpha));
        self.next_slot = (self.next_slot + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
    }

    /// Immutable access to the transition stored in `slot`.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.items.get(slot).and_then(|o| o.as_ref())
    }

    /// Samples `batch` slots proportionally to priority, annealing β. Returns an empty vector
    /// when the buffer is empty.
    pub fn sample(&mut self, batch: usize, rng: &mut Rng) -> Vec<PrioritizedSample> {
        if self.len == 0 || batch == 0 {
            return Vec::new();
        }
        self.beta = (self.beta + self.beta_increment).min(1.0);
        let total = self.tree.total();
        if total <= 0.0 {
            // All priorities zero (should not happen because pushes use max priority); fall
            // back to uniform sampling over stored items.
            return (0..batch)
                .map(|_| PrioritizedSample {
                    index: rng.below(self.len),
                    weight: 1.0,
                })
                .collect();
        }
        let n = self.len as f64;
        let min_p = self.tree.min_priority(self.capacity).unwrap_or(1.0) / total;
        let max_weight = (n * min_p).powf(-self.beta);
        let mut out = Vec::with_capacity(batch);
        for _ in 0..batch {
            let prefix = rng.unit() as f64 * total;
            let index = self.tree.find_prefix(prefix);
            // Guard against selecting an empty slot (possible only before the buffer wraps,
            // when the tree still has zero-priority leaves past `len`).
            let index = if self.items[index].is_some() {
                index
            } else {
                rng.below(self.len)
            };
            let p = (self.tree.get(index) / total).max(1e-12);
            let weight = ((n * p).powf(-self.beta) / max_weight) as f32;
            out.push(PrioritizedSample {
                index,
                weight: weight.min(1.0),
            });
        }
        out
    }

    /// Samples `batch` slots like [`PrioritizedReplay::sample`], but pairs every sample
    /// with a *borrow* of the stored transition, so callers that only read the sampled
    /// items (the DQN learner assembling one packed minibatch) need not clone them out of
    /// the buffer. The borrows hold the buffer until dropped; re-prioritise afterwards via
    /// [`PrioritizedReplay::update_priority`] with the returned slot indices.
    pub fn sample_refs(&mut self, batch: usize, rng: &mut Rng) -> Vec<(PrioritizedSample, &T)> {
        let samples = self.sample(batch, rng);
        samples
            .into_iter()
            .map(|sample| {
                let item = self.items[sample.index]
                    .as_ref()
                    .expect("sampled slot must be occupied");
                (sample, item)
            })
            .collect()
    }

    /// Current priority mass of `slot` as stored in the sum tree (`p^α`; 0.0 for empty
    /// slots). Exposed so equivalence tests can compare two buffers' sampling state
    /// bit for bit.
    pub fn priority(&self, slot: usize) -> f64 {
        self.tree.get(slot)
    }

    /// Updates the priority of `slot` from a new absolute TD error.
    ///
    /// # Panics
    ///
    /// When `td_error` is NaN or infinite: such a priority would corrupt the sum tree's
    /// sampling for good. `DqnLearner::learn` refuses non-finite TD errors before it
    /// writes any priority.
    pub fn update_priority(&mut self, slot: usize, td_error: f32) {
        assert!(
            td_error.is_finite(),
            "non-finite TD error {td_error} for replay slot {slot}"
        );
        let p = (td_error.abs() as f64 + self.epsilon).min(1e4);
        self.max_priority = self.max_priority.max(p);
        self.tree.set(slot, p.powf(self.alpha));
    }
}

/// Checkpoint format: capacity (`u64`, validated), ring-cursor state (`next_slot`,
/// `len`), the α/β annealing state and ε/max-priority (f64 raw bits), the embedded
/// [`SumTree`] (full node array — see its impl for why), then one `Option<T>` per slot
/// in slot order. β is live state, not configuration: it anneals per sample, and the
/// importance-sampling weights of the next minibatch depend on its exact value.
impl<T: crowd_ckpt::SaveState> crowd_ckpt::SaveState for PrioritizedReplay<T> {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_usize(self.capacity);
        w.put_usize(self.next_slot);
        w.put_usize(self.len);
        w.put_f64(self.alpha);
        w.put_f64(self.beta);
        w.put_f64(self.beta_increment);
        w.put_f64(self.epsilon);
        w.put_f64(self.max_priority);
        w.save(&self.tree);
        for slot in &self.items {
            match slot {
                None => w.put_bool(false),
                Some(item) => {
                    w.put_bool(true);
                    item.save_state(w);
                }
            }
        }
    }
}

impl<T: crowd_ckpt::DecodeState> crowd_ckpt::LoadState for PrioritizedReplay<T> {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        let capacity = r.take_usize()?;
        if capacity != self.capacity {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "prioritized replay",
                detail: format!(
                    "snapshot capacity {capacity} does not match live capacity {}",
                    self.capacity
                ),
            });
        }
        let next_slot = r.take_usize()?;
        let len = r.take_usize()?;
        if next_slot >= capacity || len > capacity {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "prioritized replay",
                detail: format!("cursor {next_slot}/len {len} out of range for {capacity}"),
            });
        }
        self.next_slot = next_slot;
        self.len = len;
        self.alpha = r.take_f64()?;
        self.beta = r.take_f64()?;
        self.beta_increment = r.take_f64()?;
        self.epsilon = r.take_f64()?;
        self.max_priority = r.take_f64()?;
        crowd_ckpt::LoadState::load_state(&mut self.tree, r)?;
        for slot in &mut self.items {
            *slot = if r.take_bool()? {
                Some(T::decode_state(r)?)
            } else {
                None
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointed_buffer_samples_identically_to_the_original() {
        use crowd_ckpt::{LoadState, SaveState, StateReader, StateWriter};
        // Build a buffer with churn (wraps, priority updates, partially annealed β)…
        let mut buf = PrioritizedReplay::new(8);
        let mut rng = Rng::seed_from(53);
        for i in 0..11u32 {
            buf.push(i);
        }
        for slot in 0..8 {
            buf.update_priority(slot, 0.1 + slot as f32);
        }
        buf.sample(16, &mut rng); // anneal β a little
        let rng_snapshot = rng.clone();

        let mut w = StateWriter::new();
        buf.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored: PrioritizedReplay<u32> = PrioritizedReplay::new(8);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();

        // …and require the restored buffer to make the exact same draws with the exact
        // same weights from an identical RNG state.
        let mut rng_b = rng_snapshot;
        let a = buf.sample(32, &mut rng);
        let b = restored.sample(32, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(buf.beta().to_bits(), restored.beta().to_bits());
        for slot in 0..8 {
            assert_eq!(
                buf.priority(slot).to_bits(),
                restored.priority(slot).to_bits()
            );
            assert_eq!(buf.get(slot), restored.get(slot));
        }
        // Ring cursor survives: the next push overwrites the same slot.
        buf.push(99);
        restored.push(99);
        for slot in 0..8 {
            assert_eq!(buf.get(slot), restored.get(slot));
        }
    }

    #[test]
    fn prioritized_capacity_and_cursor_are_validated() {
        use crowd_ckpt::{LoadState, SaveState, StateReader, StateWriter};
        let mut buf = PrioritizedReplay::new(4);
        buf.push(1u32);
        let mut w = StateWriter::new();
        buf.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut wrong: PrioritizedReplay<u32> = PrioritizedReplay::new(8);
        assert!(wrong.load_state(&mut StateReader::new(&bytes)).is_err());
    }

    #[test]
    fn push_and_len_wraps() {
        let mut buf = PrioritizedReplay::new(4);
        for i in 0..6 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 4);
        // Oldest two were overwritten: slots contain 4, 5, 2, 3.
        assert_eq!(buf.get(0), Some(&4));
        assert_eq!(buf.get(1), Some(&5));
        assert_eq!(buf.get(2), Some(&2));
        assert_eq!(buf.get(3), Some(&3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: PrioritizedReplay<u8> = PrioritizedReplay::new(0);
    }

    #[test]
    #[should_panic(expected = "non-finite TD error")]
    fn nan_td_error_panics() {
        let mut buf: PrioritizedReplay<u8> = PrioritizedReplay::new(4);
        buf.push(1);
        buf.update_priority(0, f32::NAN);
    }

    #[test]
    fn empty_sample_is_empty() {
        let mut buf: PrioritizedReplay<u8> = PrioritizedReplay::new(4);
        let mut rng = Rng::seed_from(0);
        assert!(buf.sample(8, &mut rng).is_empty());
    }

    #[test]
    fn high_priority_items_are_sampled_more() {
        let mut buf = PrioritizedReplay::new(8).with_alpha(1.0);
        for i in 0..8 {
            buf.push(i);
        }
        // Give slot 3 a huge TD error, everything else tiny.
        for slot in 0..8 {
            buf.update_priority(slot, if slot == 3 { 10.0 } else { 0.01 });
        }
        let mut rng = Rng::seed_from(1);
        let mut count3 = 0;
        let total = 4000;
        for s in buf.sample(total, &mut rng) {
            if s.index == 3 {
                count3 += 1;
            }
        }
        assert!(
            count3 > total / 2,
            "slot 3 sampled only {count3}/{total} times"
        );
    }

    #[test]
    fn weights_are_normalised_and_smaller_for_likelier_items() {
        let mut buf = PrioritizedReplay::new(4)
            .with_alpha(1.0)
            .with_beta(1.0, 0.0);
        for i in 0..4 {
            buf.push(i);
        }
        buf.update_priority(0, 10.0);
        buf.update_priority(1, 0.1);
        buf.update_priority(2, 0.1);
        buf.update_priority(3, 0.1);
        let mut rng = Rng::seed_from(2);
        let samples = buf.sample(200, &mut rng);
        assert!(samples
            .iter()
            .all(|s| s.weight <= 1.0 + 1e-6 && s.weight > 0.0));
        let w_high = samples.iter().find(|s| s.index == 0).map(|s| s.weight);
        let w_low = samples.iter().find(|s| s.index != 0).map(|s| s.weight);
        if let (Some(h), Some(l)) = (w_high, w_low) {
            assert!(
                h < l,
                "high-priority weight {h} should be below low-priority {l}"
            );
        }
    }

    #[test]
    fn sample_refs_matches_sample_and_borrows_items() {
        // Same RNG state, same draws: sample_refs must return the same slots and weights
        // as sample, with each slot's stored item attached by reference.
        let mut by_value = PrioritizedReplay::new(8);
        let mut by_ref = PrioritizedReplay::new(8);
        for i in 0..6 {
            by_value.push(i * 10);
            by_ref.push(i * 10);
        }
        by_value.update_priority(2, 5.0);
        by_ref.update_priority(2, 5.0);
        let mut rng_a = Rng::seed_from(9);
        let mut rng_b = Rng::seed_from(9);
        let plain = by_value.sample(5, &mut rng_a);
        let with_refs = by_ref.sample_refs(5, &mut rng_b);
        assert_eq!(plain.len(), with_refs.len());
        for (p, (s, item)) in plain.iter().zip(&with_refs) {
            assert_eq!(p, s);
            assert_eq!(Some(*item), by_value.get(p.index));
        }
    }

    #[test]
    fn priority_reflects_updates_and_empty_slots() {
        let mut buf = PrioritizedReplay::new(4).with_alpha(1.0);
        buf.push(1);
        buf.push(2);
        buf.update_priority(0, 3.0);
        assert!((buf.priority(0) - (3.0f64 + 1e-3)).abs() < 1e-9);
        // Slot 2 was never pushed: zero mass.
        assert_eq!(buf.priority(2), 0.0);
    }

    #[test]
    fn beta_anneals_towards_one() {
        let mut buf = PrioritizedReplay::new(4).with_beta(0.4, 0.1);
        buf.push(0);
        let mut rng = Rng::seed_from(3);
        for _ in 0..10 {
            buf.sample(1, &mut rng);
        }
        assert!((buf.beta() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_buffer_never_returns_empty_slots() {
        let mut buf = PrioritizedReplay::new(16);
        buf.push(42);
        buf.push(43);
        let mut rng = Rng::seed_from(4);
        for s in buf.sample(64, &mut rng) {
            assert!(buf.get(s.index).is_some());
        }
    }
}
