//! Compact feature storage: IEEE 754 half-precision (binary16) conversion and the
//! [`FeatureArena`] that backs the platform's feature stores.
//!
//! The container has no external crates and stable Rust has no native `f16`, so the
//! conversions are hand-rolled: [`f32_to_f16_bits`] rounds to nearest-even (the IEEE
//! default), [`f16_bits_to_f32`] is exact (every binary16 value is representable in
//! `f32`). Together they pin the quantisation contract of the compact arenas:
//!
//! * **Task features are lossless.** The feature space emits one-hot 0.0/1.0 rows, and
//!   both values are exactly representable in binary16, so a compact task arena decodes
//!   to the exact same bits the f32 arena would hold.
//! * **Worker features quantise on every commit.** A committed worker feature is the
//!   f16 round-trip `f16_bits_to_f32(f32_to_f16_bits(x))` of the f32 value the update
//!   rule computed; the next arrival observes exactly that round-tripped value. Relative
//!   error is bounded by 2⁻¹¹ per component (half's 11-bit significand); the error
//!   compounds across commits by construction, which is why compact storage is an
//!   explicit opt-in ([`crate::ShardSpec::compact_features`]) and the default f32 path
//!   stays bit-identical at every shard count of the [`Platform`](crate::Platform).

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to nearest-even.
///
/// Overflow (|x| > 65504 after rounding) becomes signed infinity; values below the
/// smallest subnormal half underflow to signed zero; NaN maps to a quiet NaN.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // Infinity stays infinity; any NaN becomes the canonical quiet NaN.
        return if abs > 0x7f80_0000 {
            sign | 0x7e00
        } else {
            sign | 0x7c00
        };
    }
    // Rebias the exponent from f32 (bias 127) to f16 (bias 15).
    let exp = (abs >> 23) as i32 - 127 + 15;
    let man = abs & 0x007f_ffff;
    if exp >= 0x1f {
        return sign | 0x7c00; // overflow → infinity
    }
    if exp <= 0 {
        // Subnormal half (or zero). Shift the significand — with its implicit leading
        // one — far enough right that the result's exponent field is zero.
        if exp < -10 {
            return sign; // underflows past the smallest subnormal → signed zero
        }
        let man = man | 0x0080_0000;
        let shift = (14 - exp) as u32; // 14..=24
        let half = man >> shift;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let round_up = rem > halfway || (rem == halfway && half & 1 == 1);
        return sign | (half + round_up as u32) as u16;
    }
    let half = ((exp as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && half & 1 == 1);
    // Rounding may carry into the exponent field; the carry is correct by construction
    // (1.111…×2ᵉ rounds to 1.000…×2ᵉ⁺¹), including the carry into infinity.
    sign | (half + round_up as u32) as u16
}

/// Converts IEEE 754 binary16 bits back to the exactly-equal `f32`.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = (bits >> 10) & 0x1f;
    let man = (bits & 0x3ff) as u32;
    let bits32 = match exp {
        0 => {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal half: normalise into an f32 with an explicit exponent.
                let mut exp32: u32 = 127 - 15 + 1;
                let mut man = man;
                while man & 0x400 == 0 {
                    man <<= 1;
                    exp32 -= 1;
                }
                sign | (exp32 << 23) | ((man & 0x3ff) << 13)
            }
        }
        0x1f => sign | 0x7f80_0000 | (man << 13), // infinity / NaN
        _ => sign | ((exp as u32 + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(bits32)
}

/// The f16 round-trip a compact arena applies to every stored value.
pub fn f16_round_trip(value: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// A feature arena of fixed-width f32 rows, stored either at full precision or as
/// binary16 bits (half the bytes). Rows are read back as `f32`: the f32 variant borrows
/// them zero-copy, the f16 variant decodes into a caller-provided buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureArena {
    /// Full-precision rows; reads borrow straight from the arena.
    F32(Vec<f32>),
    /// Rows stored as binary16 bits; every write quantises ([`f16_round_trip`]).
    F16(Vec<u16>),
}

impl FeatureArena {
    /// Builds an arena from f32 row data, quantising once when `compact` is set.
    pub fn from_f32(data: Vec<f32>, compact: bool) -> Self {
        if compact {
            FeatureArena::F16(data.iter().map(|&v| f32_to_f16_bits(v)).collect())
        } else {
            FeatureArena::F32(data)
        }
    }

    /// True for the binary16 variant.
    pub fn is_compact(&self) -> bool {
        matches!(self, FeatureArena::F16(_))
    }

    /// Number of `dim`-wide rows.
    pub fn n_rows(&self, dim: usize) -> usize {
        match self {
            FeatureArena::F32(v) => v.len() / dim.max(1),
            FeatureArena::F16(v) => v.len() / dim.max(1),
        }
    }

    /// Bytes of the stored representation (the RSS the arena costs).
    pub fn bytes(&self) -> usize {
        match self {
            FeatureArena::F32(v) => v.len() * 4,
            FeatureArena::F16(v) => v.len() * 2,
        }
    }

    /// Borrows row `row` when the arena is full-precision; `None` for f16 (use
    /// [`FeatureArena::decode_row_into`]).
    pub fn row_f32(&self, row: usize, dim: usize) -> Option<&[f32]> {
        match self {
            FeatureArena::F32(v) => Some(&v[row * dim..(row + 1) * dim]),
            FeatureArena::F16(_) => None,
        }
    }

    /// Decodes row `row` into `out` (cleared first; no-alloc once capacity has grown).
    pub fn decode_row_into(&self, row: usize, dim: usize, out: &mut Vec<f32>) {
        out.clear();
        match self {
            FeatureArena::F32(v) => out.extend_from_slice(&v[row * dim..(row + 1) * dim]),
            FeatureArena::F16(v) => out.extend(
                v[row * dim..(row + 1) * dim]
                    .iter()
                    .map(|&b| f16_bits_to_f32(b)),
            ),
        }
    }

    /// Overwrites row `row` from f32 values, quantising in the f16 variant.
    pub fn write_row(&mut self, row: usize, dim: usize, src: &[f32]) {
        debug_assert_eq!(src.len(), dim);
        match self {
            FeatureArena::F32(v) => v[row * dim..(row + 1) * dim].copy_from_slice(src),
            FeatureArena::F16(v) => {
                for (slot, &value) in v[row * dim..(row + 1) * dim].iter_mut().zip(src) {
                    *slot = f32_to_f16_bits(value);
                }
            }
        }
    }

    /// Serialises the arena: a variant tag, then the row data (f32 raw bits via the
    /// standard f32-slice encoding, or the f16 bit vector as length + little-endian
    /// byte pairs).
    pub fn save_into(&self, w: &mut crowd_ckpt::StateWriter) {
        match self {
            FeatureArena::F32(v) => {
                w.put_u8(0);
                w.put_f32_slice(v);
            }
            FeatureArena::F16(v) => {
                w.put_u8(1);
                w.put_usize(v.len());
                for &bits in v {
                    w.put_u16(bits);
                }
            }
        }
    }

    /// Reads back [`FeatureArena::save_into`]. The variant tag is validated against
    /// `compact` so a snapshot taken at one precision cannot silently load into the
    /// other.
    pub fn load_from(
        r: &mut crowd_ckpt::StateReader<'_>,
        compact: bool,
    ) -> crowd_ckpt::Result<Self> {
        let tag = r.take_u8()?;
        let corrupt = |detail: String| crowd_ckpt::CkptError::Corrupt {
            what: "feature arena",
            detail,
        };
        match (tag, compact) {
            (0, false) => Ok(FeatureArena::F32(r.take_f32_vec()?)),
            (1, true) => {
                let len = r.take_usize()?;
                let mut bits = Vec::with_capacity(len);
                for _ in 0..len {
                    bits.push(r.take_u16()?);
                }
                Ok(FeatureArena::F16(bits))
            }
            (0, true) | (1, false) => Err(corrupt(format!(
                "snapshot stores {} rows, this environment is configured for {}",
                if tag == 0 { "f32" } else { "f16" },
                if compact { "f16" } else { "f32" },
            ))),
            (tag, _) => Err(corrupt(format!("unknown arena variant tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_half_values_convert_exactly() {
        // (f32, expected binary16 bits) pairs from the IEEE 754 tables.
        let cases: &[(f32, u16)] = &[
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3c00),
            (-2.0, 0xc000),
            (0.5, 0x3800),
            (65504.0, 0x7bff),        // largest finite half
            (6.103_515_6e-5, 0x0400), // smallest normal half, 2^-14
            (5.960_464_5e-8, 0x0001), // smallest subnormal half, 2^-24
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
        ];
        for &(value, bits) in cases {
            assert_eq!(f32_to_f16_bits(value), bits, "encoding {value}");
            assert_eq!(
                f16_bits_to_f32(bits).to_bits(),
                value.to_bits(),
                "decoding {bits:#06x}"
            );
        }
        // 0.1 is not representable; the nearest half is 0x2e66 ≈ 0.0999756.
        assert_eq!(f32_to_f16_bits(0.1), 0x2e66);
        assert!((f16_bits_to_f32(0x2e66) - 0.1).abs() < 1e-4);
    }

    #[test]
    fn rounding_is_nearest_even_and_saturating() {
        // 2^-25 is exactly halfway between 0 and the smallest subnormal; even → 0.
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25)), 0x0000);
        // Just above the halfway point rounds up to the smallest subnormal.
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25) * 1.5), 0x0001);
        // Largest finite half + one f32 ulp still rounds back to 65504...
        assert_eq!(f32_to_f16_bits(65504.001), 0x7bff);
        // ...but 65520 is halfway to the next (unrepresentable) step and rounds to ∞.
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e9), 0xfc00);
        // NaN is preserved as a quiet NaN.
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn round_trip_is_idempotent() {
        // Decoding then re-encoding must reproduce the same bits for every finite half,
        // i.e. the round-trip is a projection. Exhaustive over all 2^16 bit patterns.
        for bits in 0..=u16::MAX {
            let value = f16_bits_to_f32(bits);
            if value.is_nan() {
                continue;
            }
            assert_eq!(f32_to_f16_bits(value), bits, "pattern {bits:#06x}");
        }
    }

    #[test]
    fn round_trip_error_is_bounded() {
        let mut rng = crowd_tensor::Rng::seed_from(11);
        for _ in 0..10_000 {
            let x = rng.uniform(-4.0, 4.0);
            let rt = f16_round_trip(x);
            assert!(
                (rt - x).abs() <= x.abs().max(6.2e-5) * (1.0 / 1024.0),
                "{x} round-tripped to {rt}"
            );
            // Projection: a second trip is exact.
            assert_eq!(f16_round_trip(rt).to_bits(), rt.to_bits());
        }
    }

    #[test]
    fn arena_variants_agree_on_representable_rows() {
        // One-hot rows (the task-feature case) are exactly representable, so both
        // variants decode identically.
        let data = vec![0.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        let f32a = FeatureArena::from_f32(data.clone(), false);
        let f16a = FeatureArena::from_f32(data.clone(), true);
        assert!(!f32a.is_compact());
        assert!(f16a.is_compact());
        assert_eq!(f32a.n_rows(3), 2);
        assert_eq!(f16a.n_rows(3), 2);
        assert_eq!(f16a.bytes() * 2, f32a.bytes());
        let mut out = Vec::new();
        for row in 0..2 {
            f16a.decode_row_into(row, 3, &mut out);
            assert_eq!(out.as_slice(), f32a.row_f32(row, 3).unwrap());
        }
        assert!(f16a.row_f32(0, 3).is_none());
    }

    #[test]
    fn writes_quantise_in_the_compact_variant() {
        let mut arena = FeatureArena::from_f32(vec![0.0; 4], true);
        let row = [0.1, 0.2, 0.3, 0.4];
        arena.write_row(0, 4, &row);
        let mut out = Vec::new();
        arena.decode_row_into(0, 4, &mut out);
        for (decoded, original) in out.iter().zip(&row) {
            assert_eq!(decoded.to_bits(), f16_round_trip(*original).to_bits());
        }
    }

    #[test]
    fn arena_checkpoint_round_trips_and_rejects_precision_mismatch() {
        let data = vec![0.25, 0.5, 0.75, 1.0];
        for compact in [false, true] {
            let arena = FeatureArena::from_f32(data.clone(), compact);
            let mut w = crowd_ckpt::StateWriter::new();
            arena.save_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = crowd_ckpt::StateReader::new(&bytes);
            let restored = FeatureArena::load_from(&mut r, compact).unwrap();
            assert_eq!(restored, arena);
            // The opposite precision must refuse the snapshot, not reinterpret it.
            let mut r = crowd_ckpt::StateReader::new(&bytes);
            assert!(FeatureArena::load_from(&mut r, !compact).is_err());
        }
    }
}
