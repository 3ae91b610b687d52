//! The State Transformer (paper Sec. IV-B / V-B).
//!
//! A state is the arriving worker plus the set of available tasks. The transformer
//! concatenates each task's feature with the worker's feature (and, for MDP(r), the worker
//! quality and task quality) into one row per task, zero-pads to `maxT` rows and records a
//! row mask. The Q-network reads only the first `real_tasks` rows, so padding never
//! reaches it.

use crowd_sim::{ArrivalContext, ArrivalView, TaskId, TaskRef, TaskSnapshot};
use crowd_tensor::Matrix;

/// Which MDP the state is built for: MDP(r) appends the two quality dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// MDP(w): rows are `[f_tj | f_wi]`.
    Worker,
    /// MDP(r): rows are `[f_tj | f_wi | q_wi | q_tj]`.
    Requester,
}

/// A fixed-size state representation ready to be fed to the Q-network.
#[derive(Debug, Clone, PartialEq)]
pub struct StateTensor {
    /// `[max_tasks, row_dim]` feature matrix (zero rows beyond `real_tasks`).
    pub features: Matrix,
    /// `[max_tasks, 1]` column with 1.0 for real task rows and 0.0 for padding.
    pub row_mask: Matrix,
    /// Tasks actually represented, in row order.
    pub task_ids: Vec<TaskId>,
    /// Number of real (non-padded) rows.
    pub real_tasks: usize,
}

/// Checkpoint format: feature matrix, row mask, task ids, real-row count (`u64`).
/// State tensors appear in snapshots only inside stored transitions.
impl crowd_ckpt::SaveState for StateTensor {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.save(&self.features);
        w.save(&self.row_mask);
        w.save(&self.task_ids);
        w.put_usize(self.real_tasks);
    }
}

impl crowd_ckpt::DecodeState for StateTensor {
    fn decode_state(r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<Self> {
        let features: Matrix = r.decode()?;
        let row_mask: Matrix = r.decode()?;
        let task_ids: Vec<TaskId> = r.decode()?;
        let real_tasks = r.take_usize()?;
        if real_tasks != task_ids.len() || real_tasks > features.rows() {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "state tensor",
                detail: format!(
                    "{real_tasks} real rows vs {} task ids in a {}-row state",
                    task_ids.len(),
                    features.rows()
                ),
            });
        }
        Ok(StateTensor {
            features,
            row_mask,
            task_ids,
            real_tasks,
        })
    }
}

/// Builds [`StateTensor`]s from arrival contexts or raw snapshot lists.
#[derive(Debug, Clone)]
pub struct StateTransformer {
    kind: StateKind,
    max_tasks: usize,
    task_dim: usize,
    worker_dim: usize,
}

impl StateTransformer {
    /// Creates a transformer for the given MDP, pool capacity and feature dimensions.
    pub fn new(kind: StateKind, max_tasks: usize, task_dim: usize, worker_dim: usize) -> Self {
        StateTransformer {
            kind,
            max_tasks,
            task_dim,
            worker_dim,
        }
    }

    /// Dimension of one state row.
    pub fn row_dim(&self) -> usize {
        match self.kind {
            StateKind::Worker => self.task_dim + self.worker_dim,
            StateKind::Requester => self.task_dim + self.worker_dim + 2,
        }
    }

    /// Maximum number of task rows.
    pub fn max_tasks(&self) -> usize {
        self.max_tasks
    }

    /// Which MDP this transformer serves.
    pub fn kind(&self) -> StateKind {
        self.kind
    }

    /// Builds the state for a borrowed arrival view — the hot path. Task features are read
    /// straight out of the platform's arena and packed into the state matrix; the only
    /// allocations are the state tensor itself.
    pub fn from_view(&self, view: &ArrivalView<'_>) -> StateTensor {
        self.build_rows(
            view.n_tasks(),
            |i| view.task(i),
            view.worker_feature,
            view.worker_quality,
        )
    }

    /// Builds the state for an owned arrival context (warm-start replay, tests).
    pub fn from_context(&self, ctx: &ArrivalContext) -> StateTensor {
        self.from_view(&ctx.view())
    }

    /// Builds the state from an explicit snapshot list, worker feature and worker quality
    /// (used by the future-state predictors, which synthesise hypothetical pools).
    pub fn build(
        &self,
        available: &[TaskSnapshot],
        worker_feature: &[f32],
        worker_quality: f32,
    ) -> StateTensor {
        self.build_rows(
            available.len(),
            |i| available[i].as_ref(),
            worker_feature,
            worker_quality,
        )
    }

    /// Shared row packer over any borrowed task accessor.
    ///
    /// When the pool exceeds `max_tasks`, the tasks closest to their deadline are kept — they
    /// are the ones whose value is most time-critical.
    fn build_rows<'a>(
        &self,
        n_tasks: usize,
        task_at: impl Fn(usize) -> TaskRef<'a>,
        worker_feature: &[f32],
        worker_quality: f32,
    ) -> StateTensor {
        let mut order: Vec<usize> = (0..n_tasks).collect();
        if n_tasks > self.max_tasks {
            order.sort_by_key(|&i| task_at(i).deadline);
            order.truncate(self.max_tasks);
        }
        let real_tasks = order.len();
        let row_dim = self.row_dim();
        let mut features = Matrix::zeros(self.max_tasks, row_dim);
        let mut row_mask = Matrix::zeros(self.max_tasks, 1);
        let mut task_ids = Vec::with_capacity(real_tasks);
        for (row, &idx) in order.iter().enumerate() {
            let task = task_at(idx);
            task_ids.push(task.id);
            row_mask.set(row, 0, 1.0);
            let dst = features.row_mut(row);
            let t_len = task.feature.len().min(self.task_dim);
            dst[..t_len].copy_from_slice(&task.feature[..t_len]);
            let w_len = worker_feature.len().min(self.worker_dim);
            dst[self.task_dim..self.task_dim + w_len].copy_from_slice(&worker_feature[..w_len]);
            if self.kind == StateKind::Requester {
                dst[self.task_dim + self.worker_dim] = worker_quality;
                dst[self.task_dim + self.worker_dim + 1] = task.quality;
            }
        }
        StateTensor {
            features,
            row_mask,
            task_ids,
            real_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_sim::WorkerId;

    fn snapshot(id: u32, deadline: u64, quality: f32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![id as f32, 1.0, 0.0],
            quality,
            award: 10.0,
            category: 0,
            domain: 0,
            deadline,
            completions: 0,
        }
    }

    fn context(n: u32) -> ArrivalContext {
        ArrivalContext {
            time: 0,
            worker_id: WorkerId(0),
            worker_feature: vec![0.5, 0.25],
            worker_quality: 0.9,
            is_new_worker: false,
            available: (0..n)
                .map(|i| snapshot(i, 100 + i as u64, 0.1 * i as f32))
                .collect(),
        }
    }

    #[test]
    fn worker_state_layout() {
        let tf = StateTransformer::new(StateKind::Worker, 4, 3, 2);
        assert_eq!(tf.row_dim(), 5);
        let st = tf.from_context(&context(2));
        assert_eq!(st.features.shape(), (4, 5));
        assert_eq!(st.real_tasks, 2);
        assert_eq!(st.task_ids, vec![TaskId(0), TaskId(1)]);
        // Row 1 = [task feature | worker feature].
        assert_eq!(st.features.row(1), &[1.0, 1.0, 0.0, 0.5, 0.25]);
        // Padding rows are zero and masked out.
        assert_eq!(st.features.row(3), &[0.0; 5]);
        assert_eq!(st.row_mask.col(0), vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn requester_state_appends_qualities() {
        let tf = StateTransformer::new(StateKind::Requester, 3, 3, 2);
        assert_eq!(tf.row_dim(), 7);
        let st = tf.from_context(&context(2));
        // Worker quality then task quality at the end of each real row.
        assert_eq!(st.features.get(0, 5), 0.9);
        assert_eq!(st.features.get(0, 6), 0.0);
        assert_eq!(st.features.get(1, 5), 0.9);
        assert!((st.features.get(1, 6) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn oversized_pool_keeps_earliest_deadlines() {
        let tf = StateTransformer::new(StateKind::Worker, 2, 3, 2);
        let ctx = context(5); // deadlines 100..104
        let st = tf.from_context(&ctx);
        assert_eq!(st.real_tasks, 2);
        assert_eq!(st.task_ids, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn empty_pool_is_all_padding() {
        let tf = StateTransformer::new(StateKind::Worker, 3, 3, 2);
        let st = tf.from_context(&context(0));
        assert_eq!(st.real_tasks, 0);
        assert!(st.task_ids.is_empty());
        assert_eq!(st.row_mask.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn mismatched_feature_lengths_are_truncated_not_panicking() {
        let tf = StateTransformer::new(StateKind::Worker, 2, 2, 2);
        // Task features are length 3 but task_dim is 2: extra entries are dropped.
        let st = tf.build(&[snapshot(0, 10, 0.0)], &[0.1], 0.5);
        assert_eq!(st.features.row(0), &[0.0, 1.0, 0.1, 0.0]);
    }
}
