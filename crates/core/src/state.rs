//! The State Transformer (paper Sec. IV-B / V-B).
//!
//! A state is the arriving worker plus the set of available tasks. The transformer
//! concatenates each task's feature with the worker's feature (and, for MDP(r), the worker
//! quality and task quality) into one row per task. A state holds exactly one row per
//! represented task, no padding: pools larger than `maxT` are truncated to the `maxT`
//! tasks closest to their deadline, and smaller pools keep only their real rows.
//!
//! [`StateRows`] borrows a run of consecutive rows — a whole state, or a window of one
//! (the future-state branches of a stored experience are windows of one tensor).

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

/// A state ready to be fed to the Q-network: one row per represented task, no padding.
///
/// The feature matrix has exactly one row per task id — row `i` belongs to
/// `task_ids()[i]` — so the row count has one source of truth,
/// [`StateTensor::real_tasks`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateTensor {
    features: Matrix,
    task_ids: Vec<TaskId>,
}

impl StateTensor {
    /// A state from its `[task_ids.len(), row_dim]` feature rows; `None` when the row
    /// count and the id count differ.
    pub fn new(features: Matrix, task_ids: Vec<TaskId>) -> Option<Self> {
        (features.rows() == task_ids.len()).then_some(StateTensor { features, task_ids })
    }

    /// A state with no task rows (an empty pool).
    pub fn empty(row_dim: usize) -> Self {
        StateTensor {
            features: Matrix::zeros(0, row_dim),
            task_ids: Vec::new(),
        }
    }

    /// `[real_tasks, row_dim]` feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Tasks represented, in row order.
    pub fn task_ids(&self) -> &[TaskId] {
        &self.task_ids
    }

    /// Number of task rows.
    pub fn real_tasks(&self) -> usize {
        self.features.rows()
    }

    /// Heap bytes owned by this state: the feature rows and the task ids.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.features.as_slice())
            + self.task_ids.capacity() * std::mem::size_of::<TaskId>()
    }

    /// All rows of the state, borrowed.
    pub fn as_rows(&self) -> StateRows<'_> {
        self.window(0, self.real_tasks())
    }

    /// The `count` rows from row `first` on, borrowed.
    ///
    /// # Panics
    ///
    /// When the window reaches past the state's rows.
    pub fn window(&self, first: usize, count: usize) -> StateRows<'_> {
        let end = first
            .checked_add(count)
            .filter(|&end| end <= self.real_tasks())
            .unwrap_or_else(|| {
                panic!(
                    "window {first}+{count} past a {}-row state",
                    self.real_tasks()
                )
            });
        let row_dim = self.features.cols();
        StateRows {
            features: &self.features.as_slice()[first * row_dim..end * row_dim],
            task_ids: &self.task_ids[first..end],
            row_dim,
        }
    }
}

/// A borrowed run of consecutive state rows: row `i` is `task_ids()[i]`'s
/// `row_dim`-wide feature row, row-major in `features()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateRows<'a> {
    features: &'a [f32],
    task_ids: &'a [TaskId],
    row_dim: usize,
}

impl<'a> StateRows<'a> {
    /// The rows' features, row-major (`rows() * row_dim()` values).
    pub fn features(&self) -> &'a [f32] {
        self.features
    }

    /// Tasks represented, in row order.
    pub fn task_ids(&self) -> &'a [TaskId] {
        self.task_ids
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.task_ids.len()
    }

    /// Width of one row.
    pub fn row_dim(&self) -> usize {
        self.row_dim
    }
}

/// Checkpoint format: feature matrix (`[real_tasks, row_dim]`), then the task ids (their
/// count must equal the matrix's rows). State tensors appear in snapshots only inside
/// stored experiences.
impl crowd_ckpt::SaveState for StateTensor {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.save(&self.features);
        w.save(&self.task_ids);
    }
}

impl crowd_ckpt::DecodeState for StateTensor {
    fn decode_state(r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<Self> {
        let features: Matrix = r.decode()?;
        let task_ids: Vec<TaskId> = r.decode()?;
        let (ids, rows) = (task_ids.len(), features.rows());
        StateTensor::new(features, task_ids).ok_or_else(|| crowd_ckpt::CkptError::Corrupt {
            what: "state tensor",
            detail: format!("{ids} task ids in a {rows}-row state"),
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

    /// Maximum number of task rows a state keeps.
    pub fn max_tasks(&self) -> usize {
        self.max_tasks
    }

    /// Which MDP this transformer serves.
    pub fn kind(&self) -> StateKind {
        self.kind
    }

    /// Width of a task feature.
    pub fn task_dim(&self) -> usize {
        self.task_dim
    }

    /// Width of a worker feature.
    pub fn worker_dim(&self) -> usize {
        self.worker_dim
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
        self.rows_of(
            order.iter().map(|&i| task_at(i)),
            worker_feature,
            worker_quality,
        )
    }

    /// One row per task of `tasks`, in their order, with no truncation to `max_tasks`:
    /// the rows of an already ordered pool (the predictors' deadline-sorted future
    /// pool, whose branches are windows of these rows).
    ///
    /// # Panics
    ///
    /// When a task feature is not `task_dim` wide or the worker feature not
    /// `worker_dim` wide: the serve boundary refuses such requests, and everything
    /// else builds features from the platform's own feature space.
    pub(crate) fn rows_of<'a>(
        &self,
        tasks: impl ExactSizeIterator<Item = TaskRef<'a>>,
        worker_feature: &[f32],
        worker_quality: f32,
    ) -> StateTensor {
        assert_eq!(
            worker_feature.len(),
            self.worker_dim,
            "worker feature width differs from the transformer's"
        );
        let mut features = Matrix::zeros(tasks.len(), self.row_dim());
        let mut task_ids = Vec::with_capacity(tasks.len());
        for (row, task) in tasks.enumerate() {
            assert_eq!(
                task.feature.len(),
                self.task_dim,
                "task {} feature width differs from the transformer's",
                task.id.0
            );
            task_ids.push(task.id);
            let dst = features.row_mut(row);
            dst[..self.task_dim].copy_from_slice(task.feature);
            dst[self.task_dim..self.task_dim + self.worker_dim].copy_from_slice(worker_feature);
            if self.kind == StateKind::Requester {
                dst[self.task_dim + self.worker_dim] = worker_quality;
                dst[self.task_dim + self.worker_dim + 1] = task.quality;
            }
        }
        StateTensor { features, task_ids }
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
        // Exactly one row per real task, no padding up to max_tasks = 4.
        assert_eq!(st.features.shape(), (2, 5));
        assert_eq!(st.real_tasks(), 2);
        assert_eq!(st.task_ids, vec![TaskId(0), TaskId(1)]);
        // Row 1 = [task feature | worker feature].
        assert_eq!(st.features.row(1), &[1.0, 1.0, 0.0, 0.5, 0.25]);
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
        assert_eq!(st.features.shape(), (2, 5));
        assert_eq!(st.task_ids, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn empty_pool_has_no_rows() {
        let tf = StateTransformer::new(StateKind::Worker, 3, 3, 2);
        let st = tf.from_context(&context(0));
        assert_eq!(st.features.shape(), (0, 5));
        assert_eq!(st.real_tasks(), 0);
        assert!(st.task_ids.is_empty());
        assert_eq!(st, StateTensor::empty(5));
    }

    #[test]
    fn decoding_refuses_task_ids_that_disagree_with_the_rows() {
        use crowd_ckpt::{CkptError, StateReader, StateWriter};
        let tf = StateTransformer::new(StateKind::Worker, 4, 3, 2);
        let st = tf.from_context(&context(3));
        let mut w = StateWriter::new();
        w.save(&st);
        let decoded: StateTensor = StateReader::new(w.as_bytes()).decode().unwrap();
        assert_eq!(decoded, st);

        let mut w = StateWriter::new();
        w.save(st.features());
        w.save(&st.task_ids()[..2].to_vec());
        let err = StateReader::new(w.as_bytes())
            .decode::<StateTensor>()
            .unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "feature width differs")]
    fn mismatched_feature_lengths_panic() {
        let tf = StateTransformer::new(StateKind::Worker, 2, 2, 2);
        // Task features are length 3 but task_dim is 2: a caller bug, refused loudly
        // rather than silently truncated.
        tf.build(&[snapshot(0, 10, 0.0)], &[0.1, 0.2], 0.5);
    }

    #[test]
    #[should_panic(expected = "worker feature width differs")]
    fn a_short_worker_feature_panics() {
        let tf = StateTransformer::new(StateKind::Worker, 2, 3, 2);
        tf.build(&[snapshot(0, 10, 0.0)], &[0.1], 0.5);
    }

    #[test]
    fn windows_borrow_consecutive_rows() {
        let tf = StateTransformer::new(StateKind::Worker, 8, 3, 2);
        let st = tf.from_context(&context(4));
        assert_eq!(st.as_rows().rows(), 4);
        assert_eq!(st.as_rows().features(), st.features().as_slice());
        let window = st.window(1, 2);
        assert_eq!(window.rows(), 2);
        assert_eq!(window.row_dim(), 5);
        assert_eq!(window.task_ids(), &[TaskId(1), TaskId(2)]);
        assert_eq!(&window.features()[..5], st.features().row(1));
        assert_eq!(st.window(4, 0).rows(), 0);
    }

    #[test]
    #[should_panic(expected = "past a 4-row state")]
    fn a_window_past_the_rows_panics() {
        let tf = StateTransformer::new(StateKind::Worker, 8, 3, 2);
        tf.from_context(&context(4)).window(3, 2);
    }
}
