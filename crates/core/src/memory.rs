//! Transition storage: what one experience `(s_i, a_i, r_i, s_{i+1}-distribution)` looks like
//! once the future-state predictors have done their work.
//!
//! One feedback yields one [`Experience`] — the state the decision was taken in and the
//! predicted future-state branches — and several [`Transition`]s over it: the completed
//! task (if any) and the tasks ranked above it. Those transitions hold one `Arc` to the
//! experience, so a feedback's state and branches are stored once however many
//! transitions it produces, in memory and in a checkpoint ([`save_replay`]).
//!
//! The branches themselves share one tensor. A predicted future pool is the current pool
//! minus the tasks that expire first (Sec. IV-D), so every branch is a row suffix of one
//! deadline-sorted pool, clipped to `maxT` rows. An experience stores those rows once, as
//! its `future` tensor, and each branch as a `(first row, row count)` window into it.

use crate::state::{StateRows, StateTensor};
use crowd_ckpt::{CkptError, StateReader, StateWriter};
use crowd_rl_kit::PrioritizedReplay;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One branch of the predicted future-state distribution: "with probability `probability`
/// the next decision happens in a world whose state is rows `first_row..first_row + rows`
/// of the experience's future tensor" ([`Experience::branch_rows`]).
///
/// For MDP(w) the branches enumerate which of the currently available tasks will have
/// expired by the time the same worker returns (Sec. IV-D); for MDP(r) they do the same over
/// the much shorter next-arrival window, with the expected next worker substituted into the
/// state (Sec. V-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FutureBranch {
    /// Probability mass of this branch (branches of a transition sum to at most 1; the
    /// remainder is the ignored tail of the gap distribution, exactly as the paper ignores
    /// gaps beyond one week).
    pub probability: f32,
    /// First row of the branch's state inside the future tensor.
    pub first_row: usize,
    /// Number of rows (tasks) of the branch's state; 0 for a branch with no task left.
    pub rows: usize,
}

/// What one feedback contributes to a replay memory: the state the decision was taken in
/// and its predicted future-state distribution. Shared (`Arc`) by every transition
/// generated from that feedback.
///
/// Every branch window must lie inside `future` ([`Experience::branch_rows`] panics
/// otherwise; a checkpoint holding such a window is refused as corrupt).
#[derive(Debug, Clone, PartialEq)]
pub struct Experience {
    /// State the decision was taken in.
    pub state: StateTensor,
    /// The rows every branch's state is a window of.
    pub future: StateTensor,
    /// Predicted future-state distribution, as windows into `future`.
    pub branches: Vec<FutureBranch>,
}

impl Experience {
    /// The state of `branch`, one of this experience's branches: its window of the
    /// future tensor.
    ///
    /// # Panics
    ///
    /// When the window reaches past the future tensor.
    pub fn branch_rows(&self, branch: &FutureBranch) -> StateRows<'_> {
        self.future.window(branch.first_row, branch.rows)
    }

    /// Bytes of the experience's shared allocation (the `Arc` header included) and of
    /// everything it owns: the state, the future tensor and the branch list.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Experience>()
            + 2 * std::mem::size_of::<usize>()
            + self.state.heap_bytes()
            + self.future.heap_bytes()
            + self.branches.capacity() * std::mem::size_of::<FutureBranch>()
    }
}

/// A stored transition ready for the double-DQN learner: one action taken in a shared
/// [`Experience`] and the reward it earned.
#[derive(Debug, Clone)]
pub struct Transition {
    /// The feedback's state and future branches, shared with its other transitions.
    pub experience: Arc<Experience>,
    /// Row of the chosen task inside the experience's state (not the display position).
    pub action_row: usize,
    /// Immediate reward: 1/0 for MDP(w), the quality gain for MDP(r).
    pub reward: f32,
}

impl Transition {
    /// State the decision was taken in.
    pub fn state(&self) -> &StateTensor {
        &self.experience.state
    }

    /// Predicted future-state distribution.
    pub fn branches(&self) -> &[FutureBranch] {
        &self.experience.branches
    }

    /// Total probability mass covered by the future branches.
    pub fn branch_mass(&self) -> f32 {
        self.branches().iter().map(|b| b.probability).sum()
    }
}

/// Checkpoint format: the state, the future tensor, then the branch count (`u64`) and
/// per branch its probability (f32 raw bits), first row and row count (`u64` each).
impl crowd_ckpt::SaveState for Experience {
    fn save_state(&self, w: &mut StateWriter) {
        w.save(&self.state);
        w.save(&self.future);
        w.put_usize(self.branches.len());
        for branch in &self.branches {
            w.put_f32(branch.probability);
            w.put_usize(branch.first_row);
            w.put_usize(branch.rows);
        }
    }
}

impl crowd_ckpt::DecodeState for Experience {
    fn decode_state(r: &mut StateReader<'_>) -> crowd_ckpt::Result<Self> {
        let state = r.decode()?;
        let future: StateTensor = r.decode()?;
        // 20 bytes per branch bound the allocation by the bytes actually present.
        let len = r.take_len("future branches", 20)?;
        let mut branches = Vec::with_capacity(len);
        for _ in 0..len {
            let branch = FutureBranch {
                probability: r.take_f32()?,
                first_row: r.take_usize()?,
                rows: r.take_usize()?,
            };
            let fits = branch
                .first_row
                .checked_add(branch.rows)
                .is_some_and(|end| end <= future.real_tasks());
            if !fits {
                return Err(CkptError::Corrupt {
                    what: "future branch",
                    detail: format!(
                        "window {}+{} past a {}-row future tensor",
                        branch.first_row,
                        branch.rows,
                        future.real_tasks()
                    ),
                });
            }
            branches.push(branch);
        }
        Ok(Experience {
            state,
            future,
            branches,
        })
    }
}

/// Identity of a transition's shared experience: the address of its allocation.
fn experience_key(transition: &Transition) -> *const Experience {
    Arc::as_ptr(&transition.experience)
}

/// Writes a replay memory of transitions with each shared experience once: the
/// experience table (`vec(Experience)`, in order of first appearance in slot order),
/// then the replay in the `PrioritizedReplay` layout with every stored transition as its
/// table index (`u64`), action row (`u64`) and reward (f32 raw bits). The table order
/// depends only on the slots, so two identical memories write identical bytes.
pub fn save_replay(memory: &PrioritizedReplay<Transition>, w: &mut StateWriter) {
    let mut index: HashMap<*const Experience, usize> = HashMap::new();
    let mut table: Vec<&Experience> = Vec::new();
    for transition in memory.iter() {
        index.entry(experience_key(transition)).or_insert_with(|| {
            table.push(&transition.experience);
            table.len() - 1
        });
    }
    w.put_usize(table.len());
    for experience in table {
        w.save(experience);
    }
    memory.save_state_with(w, |transition, w| {
        w.put_usize(index[&experience_key(transition)]);
        w.put_usize(transition.action_row);
        w.put_f32(transition.reward);
    });
}

/// Restores a replay memory written by [`save_replay`], rebuilding the sharing: the
/// transitions that referred to one table entry hold one `Arc` again.
///
/// # Errors
///
/// [`CkptError::Corrupt`] for an experience index past the table or an action row at or
/// past its state's rows, besides the errors of the embedded layouts.
pub fn load_replay(
    memory: &mut PrioritizedReplay<Transition>,
    r: &mut StateReader<'_>,
) -> crowd_ckpt::Result<()> {
    let table: Vec<Arc<Experience>> = {
        // Every encoded experience occupies more than one byte, so the length guard bounds
        // the allocation by the bytes actually present.
        let len = r.take_len("experience table", 1)?;
        (0..len)
            .map(|_| r.decode().map(Arc::new))
            .collect::<crowd_ckpt::Result<_>>()?
    };
    memory.load_state_with(r, |r| {
        let index = r.take_usize()?;
        let experience = table.get(index).ok_or_else(|| CkptError::Corrupt {
            what: "replay transition",
            detail: format!(
                "experience index {index} past a {}-entry table",
                table.len()
            ),
        })?;
        let action_row = r.take_usize()?;
        if action_row >= experience.state.real_tasks() {
            return Err(CkptError::Corrupt {
                what: "replay transition",
                detail: format!(
                    "action row {action_row} past a {}-row state",
                    experience.state.real_tasks()
                ),
            });
        }
        Ok(Transition {
            experience: Arc::clone(experience),
            action_row,
            reward: r.take_f32()?,
        })
    })
}

/// Heap bytes of a replay memory of transitions: its slot array and sum tree, plus every
/// shared experience once.
pub(crate) fn replay_bytes(memory: &PrioritizedReplay<Transition>) -> usize {
    let mut counted: HashSet<*const Experience> = HashSet::new();
    memory.heap_bytes(|transition| {
        if counted.insert(experience_key(transition)) {
            transition.experience.heap_bytes()
        } else {
            0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{StateKind, StateTransformer};
    use crowd_sim::{TaskId, TaskSnapshot};

    fn snap(id: u32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![1.0, id as f32],
            quality: 0.0,
            award: 1.0,
            category: 0,
            domain: 0,
            deadline: 100 + id as u64,
            completions: 0,
        }
    }

    /// One feedback's experience over a pool of `n` tasks, with two overlapping future
    /// branches: all of the future tensor's rows, and all but its first.
    fn experience(n: u32) -> Arc<Experience> {
        let tf = StateTransformer::new(StateKind::Worker, 8, 2, 2);
        let snaps: Vec<TaskSnapshot> = (0..n).map(snap).collect();
        let state = tf.build(&snaps, &[0.5, 0.25], 0.5);
        let future = tf.build(&snaps[..n as usize / 2], &[0.5, 0.25], 0.5);
        let rows = future.real_tasks();
        Arc::new(Experience {
            branches: vec![
                FutureBranch {
                    probability: 0.6,
                    first_row: 0,
                    rows,
                },
                FutureBranch {
                    probability: 0.3,
                    first_row: rows.min(1),
                    rows: rows - rows.min(1),
                },
            ],
            future,
            state,
        })
    }

    /// The transitions of one feedback: action rows `0..k`, the first one rewarded.
    fn feedback(experience: &Arc<Experience>, k: usize) -> Vec<Transition> {
        (0..k)
            .map(|row| Transition {
                experience: Arc::clone(experience),
                action_row: row,
                reward: if row == 0 { 1.0 } else { 0.0 },
            })
            .collect()
    }

    fn memory_of(
        transitions: impl IntoIterator<Item = Transition>,
    ) -> PrioritizedReplay<Transition> {
        let mut memory = PrioritizedReplay::new(16);
        for transition in transitions {
            memory.push(transition);
        }
        memory
    }

    fn encode(memory: &PrioritizedReplay<Transition>) -> Vec<u8> {
        let mut w = StateWriter::new();
        save_replay(memory, &mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> crowd_ckpt::Result<PrioritizedReplay<Transition>> {
        let mut memory = PrioritizedReplay::new(16);
        let mut r = StateReader::new(bytes);
        load_replay(&mut memory, &mut r)?;
        r.finish("replay")?;
        Ok(memory)
    }

    #[test]
    fn branch_mass_sums_probabilities() {
        let t = &feedback(&experience(3), 1)[0];
        assert!((t.branch_mass() - 0.9).abs() < 1e-6);
    }

    #[test]
    fn branches_are_shared_not_copied() {
        let shared = experience(3);
        let group = feedback(&shared, 3);
        assert_eq!(Arc::strong_count(&shared), 4);
        assert!(Arc::ptr_eq(&group[0].experience, &group[2].experience));
        assert_eq!(group[1].state().real_tasks(), 3);
    }

    #[test]
    fn branch_rows_are_windows_of_the_future_tensor() {
        let shared = experience(6);
        let [whole, tail] = [0, 1].map(|b| shared.branch_rows(&shared.branches[b]));
        assert_eq!(whole, shared.future.as_rows());
        assert_eq!(tail.rows(), 2);
        assert_eq!(tail.task_ids(), &shared.future.task_ids()[1..]);
        assert_eq!(tail.features(), &whole.features()[whole.row_dim()..]);
    }

    #[test]
    fn roundtrip_rebuilds_the_sharing_and_writes_identical_bytes() {
        let (a, b) = (experience(4), experience(5));
        let mut transitions = feedback(&a, 3);
        transitions.extend(feedback(&b, 2));
        transitions.extend(feedback(&a, 1));
        let memory = memory_of(transitions);
        let bytes = encode(&memory);
        let restored = decode(&bytes).unwrap();
        assert_eq!(encode(&restored), bytes);

        let slots: Vec<&Transition> = restored.iter().collect();
        assert_eq!(slots.len(), 6);
        for (t, u) in memory.iter().zip(&slots) {
            assert_eq!(*t.experience, *u.experience);
            assert_eq!(
                (t.action_row, t.reward.to_bits()),
                (u.action_row, u.reward.to_bits())
            );
        }
        // Slots 0..3 and 5 came from one feedback, slots 3..5 from another.
        for i in [1, 2, 5] {
            assert!(Arc::ptr_eq(&slots[0].experience, &slots[i].experience));
        }
        assert!(Arc::ptr_eq(&slots[3].experience, &slots[4].experience));
        assert!(!Arc::ptr_eq(&slots[0].experience, &slots[3].experience));
    }

    #[test]
    fn each_extra_transition_of_a_feedback_costs_a_constant_number_of_bytes() {
        let shared = experience(6);
        let sizes: Vec<usize> = (1..=6)
            .map(|k| encode(&memory_of(feedback(&shared, k))).len())
            .collect();
        // A table index, an action row and a reward (an empty slot writes its presence
        // flag too); no state bytes.
        let per_transition = 8 + 8 + 4;
        for pair in sizes.windows(2) {
            assert_eq!(pair[1] - pair[0], per_transition);
        }
    }

    #[test]
    fn damaged_replays_are_refused_as_corrupt() {
        let shared = experience(3);
        let is_corrupt = |bytes: &[u8]| matches!(decode(bytes), Err(CkptError::Corrupt { .. }));

        // An experience index past the table.
        let memory = memory_of(feedback(&shared, 2));
        let mut w = StateWriter::new();
        w.put_usize(1);
        w.save(&*shared);
        memory.save_state_with(&mut w, |t, w| {
            w.put_usize(1);
            w.put_usize(t.action_row);
            w.put_f32(t.reward);
        });
        assert!(is_corrupt(w.as_bytes()));

        // An action row at the state's row count.
        let mut past = feedback(&shared, 1);
        past[0].action_row = 3;
        assert!(is_corrupt(&encode(&memory_of(past))));

        // An experience table of one entry written by `write`, then the transitions.
        let with_experience = |write: &dyn Fn(&mut StateWriter)| {
            let mut w = StateWriter::new();
            w.put_usize(1);
            write(&mut w);
            memory.save_state_with(&mut w, |t, w| {
                w.put_usize(0);
                w.put_usize(t.action_row);
                w.put_f32(t.reward);
            });
            w.into_bytes()
        };
        let branches = |w: &mut StateWriter, windows: &[(usize, usize)]| {
            w.put_usize(windows.len());
            for &(first_row, rows) in windows {
                w.put_f32(0.5);
                w.put_usize(first_row);
                w.put_usize(rows);
            }
        };
        let intact = with_experience(&|w| {
            w.save(&shared.state);
            w.save(&shared.future);
            branches(w, &[(0, 1), (1, 0)]);
        });
        assert!(decode(&intact).is_ok());

        // Task ids that disagree with the state's rows.
        assert!(is_corrupt(&with_experience(&|w| {
            w.save(shared.state.features());
            w.save(&shared.state.task_ids()[1..].to_vec());
            w.save(&shared.future);
            branches(w, &[(0, 1)]);
        })));

        // Windows past the one-row future tensor, or overflowing `first_row + rows`.
        for window in [(0, 2), (1, 1), (2, 0), (usize::MAX, 2)] {
            assert!(
                is_corrupt(&with_experience(&|w| {
                    w.save(&shared.state);
                    w.save(&shared.future);
                    branches(w, &[(0, 1), window]);
                })),
                "window {window:?}"
            );
        }
    }

    #[test]
    fn replay_bytes_count_a_feedbacks_experience_once() {
        let mut memory = memory_of(feedback(&experience(4), 2));
        let before = replay_bytes(&memory);
        let shared = experience(7);
        for transition in feedback(&shared, 5) {
            memory.push(transition);
        }
        assert_eq!(replay_bytes(&memory) - before, shared.heap_bytes());
    }
}
