//! Gradient-descent optimizers operating on a [`ParamStore`].

use crate::param::{ParamId, ParamStore};
use crate::Result;
use crowd_tensor::Matrix;

/// A first-order optimizer that applies `(ParamId, gradient)` pairs to a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update step. Gradients are the output of
    /// [`GraphBinding::gradients`](crate::param::GraphBinding::gradients).
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Clips a gradient to the given global L2 norm; returns the (possibly scaled) gradient.
fn clip(grad: &Matrix, max_norm: Option<f32>) -> Matrix {
    match max_norm {
        Some(max) if grad.norm() > max && max > 0.0 => grad.scale(max / grad.norm()),
        _ => grad.clone(),
    }
}

/// Adam (Kingma & Ba) with bias correction and optional gradient clipping. This is the
/// optimizer used for both Q-networks and the Greedy+NN baseline (paper Sec. VII-B1 uses a
/// learning rate of 0.001).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    max_grad_norm: Option<f32>,
    t: u64,
    first_moment: Vec<Option<Matrix>>,
    second_moment: Vec<Option<Matrix>>,
}

impl Adam {
    /// Creates Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            max_grad_norm: None,
            t: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Enables per-parameter gradient-norm clipping.
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// Number of update steps performed so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    fn ensure(&mut self, idx: usize) {
        if self.first_moment.len() <= idx {
            self.first_moment.resize(idx + 1, None);
            self.second_moment.resize(idx + 1, None);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) -> Result<()> {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (pid, grad) in grads {
            let grad = clip(grad, self.max_grad_norm);
            let idx = pid.index();
            self.ensure(idx);
            let (rows, cols) = grad.shape();

            let m_prev = self.first_moment[idx]
                .take()
                .unwrap_or_else(|| Matrix::zeros(rows, cols));
            let v_prev = self.second_moment[idx]
                .take()
                .unwrap_or_else(|| Matrix::zeros(rows, cols));

            let mut m = m_prev.scale(self.beta1);
            m.add_scaled_assign(&grad, 1.0 - self.beta1)?;
            let grad_sq = grad.hadamard(&grad)?;
            let mut v = v_prev.scale(self.beta2);
            v.add_scaled_assign(&grad_sq, 1.0 - self.beta2)?;

            let param = store.get_mut(*pid);
            {
                let p = param.as_mut_slice();
                let ms = m.as_slice();
                let vs = v.as_slice();
                for i in 0..p.len() {
                    let m_hat = ms[i] / bc1;
                    let v_hat = vs[i] / bc2;
                    p[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                }
            }

            self.first_moment[idx] = Some(m);
            self.second_moment[idx] = Some(v);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Checkpoint format: learning rate, β₁, β₂, ε and the clip threshold (raw bits), the
/// step counter `t` (`u64`), then the first- and second-moment slot vectors
/// (`Vec<Option<Matrix>>`). Restoring `t` with the moments matters: Adam's bias
/// correction depends on it, so a resumed step `t+1` is bit-identical to the
/// uninterrupted one.
impl crowd_ckpt::SaveState for Adam {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_f32(self.lr);
        w.put_f32(self.beta1);
        w.put_f32(self.beta2);
        w.put_f32(self.eps);
        w.save(&self.max_grad_norm);
        w.put_u64(self.t);
        w.save(&self.first_moment);
        w.save(&self.second_moment);
    }
}

impl crowd_ckpt::LoadState for Adam {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        self.lr = r.take_f32()?;
        self.beta1 = r.take_f32()?;
        self.beta2 = r.take_f32()?;
        self.eps = r.take_f32()?;
        self.max_grad_norm = r.decode()?;
        self.t = r.take_u64()?;
        self.first_moment = r.decode()?;
        self.second_moment = r.decode()?;
        if self.first_moment.len() != self.second_moment.len() {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "adam moments",
                detail: format!(
                    "{} first-moment slots vs {} second-moment slots",
                    self.first_moment.len(),
                    self.second_moment.len()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;

    fn quadratic_grad(store: &ParamStore, id: ParamId) -> Matrix {
        // Gradient of f(w) = ||w - 3||^2 is 2(w - 3).
        store.get(id).map(|v| 2.0 * (v - 3.0))
    }

    #[test]
    fn checkpointed_adam_resumes_bit_identically() {
        use crowd_ckpt::{Snapshot, SnapshotFile};
        // Train a few steps, snapshot, train on: the continuation from the restored
        // state must match the uninterrupted run to the bit (moments + t + params).
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::filled(2, 2, -4.0));
        let mut opt = Adam::new(0.05).with_grad_clip(3.0);
        for _ in 0..10 {
            let g = quadratic_grad(&store, id);
            opt.step(&mut store, &[(id, g)]).unwrap();
        }
        let mut snap = Snapshot::new();
        snap.put("store", &store);
        snap.put("adam", &opt);
        let file = SnapshotFile::from_bytes(snap.to_bytes()).unwrap();

        let mut resumed_store = ParamStore::new();
        resumed_store.register("w", Matrix::zeros(2, 2));
        let mut resumed_opt = Adam::new(0.05); // clip comes from the snapshot
        file.load_into("store", &mut resumed_store).unwrap();
        file.load_into("adam", &mut resumed_opt).unwrap();
        assert_eq!(resumed_opt.steps(), 10);

        for _ in 0..25 {
            let g = quadratic_grad(&store, id);
            opt.step(&mut store, &[(id, g)]).unwrap();
            let g = quadratic_grad(&resumed_store, id);
            resumed_opt.step(&mut resumed_store, &[(id, g)]).unwrap();
        }
        for (a, b) in store
            .get(id)
            .as_slice()
            .iter()
            .zip(resumed_store.get(id).as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::filled(3, 1, -5.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = quadratic_grad(&store, id);
            opt.step(&mut store, &[(id, g)]).unwrap();
        }
        assert_eq!(opt.steps(), 500);
        assert!(store
            .get(id)
            .as_slice()
            .iter()
            .all(|v| (v - 3.0).abs() < 1e-2));
    }

    #[test]
    fn gradient_clipping_limits_update_magnitude() {
        let huge = Matrix::filled(1, 1, 1000.0);
        // Clipped to the requested L2 norm; unclipped without a threshold.
        assert!((clip(&huge, Some(1.0)).get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(clip(&huge, None).get(0, 0), 1000.0);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    fn adam_handles_multiple_params_with_distinct_state() {
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::zeros(1, 1));
        let b = store.register("b", Matrix::filled(1, 1, 10.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            let ga = quadratic_grad(&store, a);
            let gb = quadratic_grad(&store, b);
            opt.step(&mut store, &[(a, ga), (b, gb)]).unwrap();
        }
        assert!((store.get(a).get(0, 0) - 3.0).abs() < 0.05);
        assert!((store.get(b).get(0, 0) - 3.0).abs() < 0.05);
    }
}
