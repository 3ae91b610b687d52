//! Checkpoint-format fixtures: the deterministic golden snapshot behind the
//! format-stability CI check, and the corruption helpers behind the loader robustness
//! tests.
//!
//! The golden snapshot is built **without any transcendental math** (no `ln`/`cos`/
//! `powf` except exact cases) — every float is an explicit literal or the product of
//! pure integer/IEEE-exact arithmetic — so its bytes are identical on every platform
//! and toolchain. `tests/checkpoint_equivalence.rs::format_stability_golden_snapshot`
//! asserts `golden_snapshot().to_bytes()` equals the committed
//! `tests/fixtures/format_v3.ckpt` byte for byte: any change to what the writer emits
//! (field added/reordered/re-encoded) fails CI until the format version is bumped and a
//! new golden file is committed consciously.

use crowd_ckpt::{Snapshot, StateWriter};
use crowd_nn::{Adam, Optimizer, ParamStore};
use crowd_rl_kit::{EpsilonGreedy, PrioritizedReplay, Schedule};
use crowd_tensor::{Matrix, Rng};

/// Builds the golden snapshot: one exemplar of every layer the format
/// covers at the kit level — RNG, parameters, Adam moments, prioritized replay (with
/// its sum tree), an exploration schedule — all from explicit values.
pub fn golden_snapshot() -> Snapshot {
    let mut snap = Snapshot::new();

    // RNG: integer-only seeding (SplitMix64), advanced a few integer draws.
    let mut rng = Rng::seed_from(0x5EED);
    for _ in 0..5 {
        rng.next_u64();
    }
    snap.put("rng", &rng);

    // Parameters: explicit matrices, exercising negative zero and subnormals.
    let mut store = ParamStore::new();
    let w = store.register(
        "golden.w",
        Matrix::from_vec(2, 3, vec![1.0, -2.5, 0.5, -0.0, 1.0e-40, 3.25]).unwrap(),
    );
    store.register(
        "golden.b",
        Matrix::from_vec(1, 3, vec![0.125, -0.375, 2.0]).unwrap(),
    );
    snap.put("params", &store);

    // Adam: one step on an exact-arithmetic gradient (powers of two throughout the
    // update keep every operation IEEE-exact across platforms).
    let mut adam = Adam::new(0.5);
    let grad = Matrix::from_vec(2, 3, vec![0.5, -0.25, 1.0, 2.0, -4.0, 0.0625]).unwrap();
    adam.step(&mut store, &[(w, grad)]).unwrap();
    snap.put("adam", &adam);

    // Prioritized replay over plain integers, α = 1 so priority updates stay exact
    // (`powf(x, 1.0)` is the identity under IEEE-754).
    let mut replay: PrioritizedReplay<u32> = PrioritizedReplay::new(4).with_alpha(1.0);
    for i in 0..6u32 {
        replay.push(i * 11);
    }
    replay.update_priority(1, 2.5);
    replay.update_priority(3, 0.25);
    snap.put("replay", &replay);

    // An exploration schedule position.
    snap.put(
        "explore",
        &EpsilonGreedy::new(Schedule::Linear {
            start: 0.9,
            end: 0.98,
            steps: 2000,
        }),
    );

    // A raw section exercising every scalar writer primitive.
    let mut w = StateWriter::new();
    w.put_u8(0xA5);
    w.put_bool(true);
    w.put_u16(0xBEEF);
    w.put_u32(0xDEAD_BEEF);
    w.put_u64(0x0123_4567_89AB_CDEF);
    w.put_f32(f32::NAN);
    w.put_f64(-0.0);
    w.put_str("golden");
    w.put_f32_slice(&[f32::MIN_POSITIVE, f32::MAX]);
    snap.put_raw("scalars", w.into_bytes());

    snap
}

/// Flips one bit in `bytes[pos]` (robustness-test helper).
pub fn flip_byte(bytes: &[u8], pos: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[pos] ^= 0x10;
    out
}

/// Truncates `bytes` to `len` (robustness-test helper).
pub fn truncate(bytes: &[u8], len: usize) -> Vec<u8> {
    bytes[..len.min(bytes.len())].to_vec()
}

/// Replaces the header's format-version field (robustness-test helper).
pub fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out
}

/// Replaces the magic bytes (robustness-test helper).
pub fn with_magic(bytes: &[u8], magic: &[u8; 8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[..8].copy_from_slice(magic);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_snapshot_is_deterministic_and_valid() {
        let a = golden_snapshot().to_bytes();
        let b = golden_snapshot().to_bytes();
        assert_eq!(
            a, b,
            "the golden snapshot must encode identically every time"
        );
        let file = crowd_ckpt::SnapshotFile::from_bytes(a).unwrap();
        assert_eq!(
            file.section_names().collect::<Vec<_>>(),
            ["rng", "params", "adam", "replay", "explore", "scalars"]
        );
    }

    #[test]
    fn corruption_helpers_produce_loader_errors() {
        use crowd_ckpt::{CkptError, SnapshotFile};
        let clean = golden_snapshot().to_bytes();
        assert!(SnapshotFile::from_bytes(clean.clone()).is_ok());
        assert!(matches!(
            SnapshotFile::from_bytes(with_magic(&clean, b"NOTCKPT!")),
            Err(CkptError::BadMagic { .. })
        ));
        assert!(matches!(
            SnapshotFile::from_bytes(with_version(&clean, 99)),
            Err(CkptError::UnsupportedVersion { found: 99, .. })
        ));
        assert!(SnapshotFile::from_bytes(truncate(&clean, clean.len() - 1)).is_err());
        let last = clean.len() - 1;
        assert!(matches!(
            SnapshotFile::from_bytes(flip_byte(&clean, last)),
            Err(CkptError::CrcMismatch { .. })
        ));
    }
}
