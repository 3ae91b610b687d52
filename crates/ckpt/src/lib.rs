//! Bit-exact checkpoint/resume for the crowd-RL workspace: a hand-rolled, versioned,
//! little-endian binary snapshot format with per-section CRC32 integrity, and the
//! [`SaveState`] / [`LoadState`] / [`DecodeState`] traits the rest of the workspace
//! implements on top of it.
//!
//! The offline build container has no `serde` (no crates.io access), so the format is
//! written by hand and specified byte by byte in `docs/CHECKPOINT_FORMAT.md` at the
//! repository root — precisely enough that a foreign-language loader could be written
//! from the document alone. The contract that makes the format worth having is **bit-exact
//! resumption**: floats are stored as raw IEEE-754 bits, RNGs as their word states, and
//! every stateful component of the stack (network parameters, Adam moments, prioritized
//! replay with its sum tree, exploration schedules, arrival statistics, the platform
//! replay cursor) round-trips exactly, so a training run that is checkpointed, killed
//! and resumed in a fresh process is **bit-identical** to one that never stopped
//! (`tests/checkpoint_equivalence.rs`, at `CROWD_THREADS=1` and `4`).
//!
//! Complementing the point-in-time snapshots, the [`wal`] module frames append-only
//! record-batch logs — CRC-checked segments with atomic rotation and torn-tail
//! detection — which the `crowd-serve` decision log builds on
//! (`docs/DECISION_LOG_FORMAT.md` at the repository root).
//!
//! Both disk paths run through the [`io`] module's [`Fs`] storage abstraction: the
//! default backend is the real filesystem, and [`Fs::faulty`] swaps in a deterministic
//! fault injector (seeded, operation-counter-keyed [`FaultPlan`]s of short writes,
//! fsync failures, rename failures, read-time corruption and latency) so the test
//! suites can prove that a fault at *any* numbered I/O site yields either bit-identical
//! recovery or a typed error — never silent divergence.
//!
//! # Layering
//!
//! This crate is the *leaf* of the workspace graph — it depends on nothing, and every
//! other crate depends on it to implement the traits for its own types:
//!
//! * `crowd-tensor`: `Rng` word states, `Matrix` raw bits;
//! * `crowd-nn`: `ParamStore`, `Adam` moment buffers;
//! * `crowd-rl-kit`: `SumTree` (full node array — see below), `PrioritizedReplay`,
//!   `EpsilonGreedy` / `GaussianQNoise` schedule positions;
//! * `crowd-sim`: the `Platform` replay state (behaviour RNG, per-shard
//!   quality/completion arrays and worker arenas, event cursor) and the `Policy`
//!   checkpoint hooks;
//! * `crowd-rl-core`: `DqnLearner`, `DdqnAgent`, `ArrivalStats`, stored transitions;
//! * `crowd-metrics`: metric accumulators (timers are measurements and are never
//!   checkpointed);
//! * `crowd-experiments`: `Session::checkpoint` / `Session::resume_from` and the
//!   per-member `SessionBatch` snapshots.
//!
//! # In-memory roundtrip: `ParamStore` and `Adam`
//!
//! Parameters and optimizer moments restore to the **bit**, not to a tolerance:
//!
//! ```
//! use crowd_ckpt::{Snapshot, SnapshotFile};
//! use crowd_nn::{Adam, Optimizer, ParamStore};
//! use crowd_tensor::{Matrix, Rng};
//!
//! // A store with one trained-on parameter, so Adam owns real moment buffers.
//! let mut rng = Rng::seed_from(7);
//! let mut store = ParamStore::new();
//! let w = store.register("layer.w", Matrix::randn(4, 3, &mut rng));
//! let mut opt = Adam::new(0.001);
//! let grad = store.get(w).scale(0.5);
//! opt.step(&mut store, &[(w, grad)]).unwrap();
//!
//! // Save both into named sections of one snapshot (all in memory).
//! let mut snap = Snapshot::new();
//! snap.put("params", &store);
//! snap.put("adam", &opt);
//! let bytes = snap.to_bytes();
//!
//! // Load into freshly constructed twins — an empty store adopts the saved layout.
//! let file = SnapshotFile::from_bytes(bytes).unwrap();
//! let mut restored = ParamStore::new();
//! file.load_into("params", &mut restored).unwrap();
//! let mut restored_opt = Adam::new(0.001);
//! file.load_into("adam", &mut restored_opt).unwrap();
//!
//! assert_eq!(restored.len(), store.len());
//! for ((_, name, a), (_, _, b)) in store.iter().zip(restored.iter()) {
//!     for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
//!         assert_eq!(x.to_bits(), y.to_bits(), "{name} must restore bit-exactly");
//!     }
//! }
//! assert_eq!(restored_opt.steps(), 1);
//! ```
//!
//! And a damaged snapshot is a **typed error**, never a panic or a half-load:
//!
//! ```
//! use crowd_ckpt::{CkptError, Snapshot, SnapshotFile};
//! use crowd_tensor::Rng;
//!
//! let mut snap = Snapshot::new();
//! snap.put("rng", &Rng::seed_from(3));
//! let mut bytes = snap.to_bytes();
//! let last = bytes.len() - 1;
//! bytes[last] ^= 0xFF; // flip a payload byte
//! assert!(matches!(
//!     SnapshotFile::from_bytes(bytes),
//!     Err(CkptError::CrcMismatch { .. })
//! ));
//! ```
//!
//! # Quickstart: checkpointing a Table-1 run
//!
//! The `table1_efficiency` binary (crate `crowd-experiments`) wires the subsystem into
//! the paper's efficiency experiment:
//!
//! ```text
//! # snapshot every 500 evaluated arrivals to table1.ckpt (atomic rename on each write)
//! cargo run --release --bin table1_efficiency -- --checkpoint-every 500
//!
//! # kill it mid-replay, then continue exactly where it stopped:
//! cargo run --release --bin table1_efficiency -- --resume table1.ckpt
//! ```
//!
//! The resumed sweep reproduces the uninterrupted sweep's numbers bit for bit — the same
//! guarantee `tests/checkpoint_equivalence.rs` proves for the session layer.
//!
//! # Why `SumTree` saves its internal nodes
//!
//! A naïve reimplementation would persist only the leaf priorities and rebuild the tree
//! on load. That is *not* bit-exact: internal node sums accumulate `+=` deltas in the
//! historical order of `set` calls, so a rebuilt tree can differ in the last ulp of
//! `total()` — enough to flip a prefix-sum descent and derail every subsequent sampling
//! decision. The format therefore stores the full node array verbatim. The same
//! reasoning applies wherever an f32/f64 accumulation order is part of the live state.

pub mod crc32;
pub mod error;
pub mod io;
pub mod rw;
pub mod snapshot;
pub mod wal;

pub use crc32::crc32;
pub use error::{CkptError, Result};
pub use io::{FaultKind, FaultPlan, FaultProbe, FaultRule, Fs, OpClass};
pub use rw::{StateReader, StateWriter};
pub use snapshot::{Snapshot, SnapshotFile, FORMAT_VERSION, MAGIC};
pub use wal::{SegmentScan, SegmentWriter, WAL_MAGIC, WAL_VERSION};

/// Serialises a component's dynamic state into a [`StateWriter`].
///
/// Implementations must write **only** state that cannot be reconstructed from
/// configuration (weights, RNG words, counters, buffers — not shapes, names or
/// hyper-parameters, except where those serve as load-time validation), and must write
/// floats via the raw-bits primitives so roundtrips are bit-exact.
pub trait SaveState {
    /// Appends this component's state to `w`.
    fn save_state(&self, w: &mut StateWriter);
}

/// Restores a component **in place** from a [`StateReader`].
///
/// The target is an already-constructed object (built from the same configuration that
/// built the saved one); `load_state` overwrites its dynamic state and validates
/// structural invariants (shapes, capacities, parameter names) against the stream,
/// returning [`CkptError::Corrupt`] on mismatch rather than half-loading.
pub trait LoadState {
    /// Overwrites this component's state from `r`.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<()>;
}

/// Decodes an owned value from a [`StateReader`] — for element types that are built
/// from the stream rather than restored into (stored transitions, history records).
pub trait DecodeState: Sized {
    /// Reads one value of `Self` from `r`.
    fn decode_state(r: &mut StateReader<'_>) -> Result<Self>;
}

/// Anything decodable is loadable in place by wholesale replacement.
impl<T: DecodeState> LoadState for T {
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<()> {
        *self = T::decode_state(r)?;
        Ok(())
    }
}

macro_rules! scalar_state {
    ($ty:ty, $put:ident, $take:ident) => {
        impl SaveState for $ty {
            fn save_state(&self, w: &mut StateWriter) {
                w.$put(*self);
            }
        }
        impl DecodeState for $ty {
            fn decode_state(r: &mut StateReader<'_>) -> Result<Self> {
                r.$take()
            }
        }
    };
}

scalar_state!(u8, put_u8, take_u8);
scalar_state!(u16, put_u16, take_u16);
scalar_state!(u32, put_u32, take_u32);
scalar_state!(u64, put_u64, take_u64);
scalar_state!(usize, put_usize, take_usize);
scalar_state!(f32, put_f32, take_f32);
scalar_state!(f64, put_f64, take_f64);
scalar_state!(bool, put_bool, take_bool);

impl SaveState for String {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_str(self);
    }
}

impl DecodeState for String {
    fn decode_state(r: &mut StateReader<'_>) -> Result<Self> {
        r.take_str()
    }
}

impl SaveState for str {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_str(self);
    }
}

impl<T: SaveState> SaveState for Vec<T> {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.len());
        for item in self {
            item.save_state(w);
        }
    }
}

impl<T: DecodeState> DecodeState for Vec<T> {
    fn decode_state(r: &mut StateReader<'_>) -> Result<Self> {
        // Every encodable element occupies at least one byte, so the length guard bounds
        // the allocation by the bytes actually present.
        let len = r.take_len("vec", 1)?;
        (0..len).map(|_| T::decode_state(r)).collect()
    }
}

impl<T: SaveState> SaveState for Option<T> {
    fn save_state(&self, w: &mut StateWriter) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.save_state(w);
            }
        }
    }
}

impl<T: DecodeState> DecodeState for Option<T> {
    fn decode_state(r: &mut StateReader<'_>) -> Result<Self> {
        if r.take_bool()? {
            Ok(Some(T::decode_state(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: SaveState, B: SaveState> SaveState for (A, B) {
    fn save_state(&self, w: &mut StateWriter) {
        self.0.save_state(w);
        self.1.save_state(w);
    }
}

impl<A: DecodeState, B: DecodeState> DecodeState for (A, B) {
    fn decode_state(r: &mut StateReader<'_>) -> Result<Self> {
        Ok((A::decode_state(r)?, B::decode_state(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: SaveState + DecodeState + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = StateWriter::new();
        value.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = T::decode_state(&mut r).unwrap();
        assert_eq!(back, value);
        r.finish("roundtrip").unwrap();
    }

    #[test]
    fn std_type_roundtrips() {
        roundtrip(42u8);
        roundtrip(7u16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(123usize);
        roundtrip(-1.5f32);
        roundtrip(std::f64::consts::E);
        roundtrip(true);
        roundtrip("snapshot".to_string());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u64));
        roundtrip((3u32, "pair".to_string()));
        roundtrip(Vec::<(u64, f32)>::new());
    }

    #[test]
    fn loadstate_blanket_replaces_in_place() {
        let mut w = StateWriter::new();
        77u64.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut target = 0u64;
        let mut r = StateReader::new(&bytes);
        target.load_state(&mut r).unwrap();
        assert_eq!(target, 77);
    }

    #[test]
    fn nested_collections_roundtrip() {
        roundtrip(vec![vec![1.0f32, 2.0], vec![], vec![f32::MIN]]);
        roundtrip(vec![(1u64, vec![0.5f64]), (2, vec![])]);
        roundtrip(Some(vec!["a".to_string(), String::new()]));
    }
}
