//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over byte slices.
//!
//! Reflected algorithm, polynomial `0xEDB88320`, initial value `0xFFFF_FFFF`, final XOR
//! `0xFFFF_FFFF` — byte-compatible with zlib's `crc32()`, so the committed golden
//! snapshot can be cross-checked with any standard tool.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the classic
/// bytewise table; `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes`: eight bytes per step (slicing-by-8), then the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

/// CRC-32 of a byte string fed in pieces: `update` with every piece in order, then
/// `finish` gives the bits [`crc32`] gives for the whole string. The WAL reader checks a
/// frame's CRC this way while it streams the frame through a fixed read buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    /// The running register, before the final XOR.
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }
}

impl Crc32 {
    /// Folds `bytes` into the running CRC.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        self.state = update_register(self.state, bytes);
    }

    /// The CRC-32 of everything fed so far.
    pub(crate) fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Folds `bytes` into the CRC register `crc`: eight bytes per step (slicing-by-8), then
/// the tail bytewise.
fn update_register(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of any sub-range of one byte string, each in time logarithmic in the range
/// length after one bytewise pass over the string. It rests on the linearity zlib's
/// `crc32_combine` uses, `crc(a ++ b) = crc(a)·x^(8·|b|) mod P ^ crc(b)`: with every
/// prefix CRC stored, `crc(bytes[s..e]) = prefix[e] ^ prefix[s]·x^(8·(e − s)) mod P`.
/// Searching a damaged region for a valid frame at every offset stays linear this way
/// instead of re-reading the rest of the region at each offset.
pub(crate) struct RangeCrc {
    /// `prefix[i]` is `crc32(&bytes[..i])`.
    prefix: Vec<u32>,
}

impl RangeCrc {
    /// One bytewise pass storing the CRC of every prefix of `bytes`.
    pub(crate) fn new(bytes: &[u8]) -> RangeCrc {
        let mut prefix = Vec::with_capacity(bytes.len() + 1);
        prefix.push(0);
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            prefix.push(crc ^ 0xFFFF_FFFF);
        }
        RangeCrc { prefix }
    }

    /// `crc32(&bytes[range])` for the `bytes` this was built from.
    pub(crate) fn crc(&self, range: std::ops::Range<usize>) -> u32 {
        let shift = x_pow_8n(range.end - range.start);
        self.prefix[range.end] ^ mul_mod_p(shift, self.prefix[range.start])
    }
}

/// `x^(2^k) mod P` for `k` in `0..32`; the sequence has period 32, because the order of
/// `x` modulo `P` divides `2^32 − 1`.
static X_POW_2K: [u32; 32] = build_x_pow_2k();

const fn build_x_pow_2k() -> [u32; 32] {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x^1 (reflected: bit 31 is x^0)
    let mut k = 1;
    while k < 32 {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

/// `a(x)·b(x) mod P` with both polynomials in the reflected order `crc32` uses.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    product
}

/// `x^(8·n) mod P`: the factor that moves a CRC past `n` more bytes.
fn x_pow_8n(mut n: usize) -> u32 {
    let mut power = 1 << 31; // x^0
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            power = mul_mod_p(X_POW_2K[k % 32], power);
        }
        n >>= 1;
        k += 1;
    }
    power
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_alignment() {
        let bytewise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            crc ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bytewise(&data[start..end]));
            }
        }
    }

    #[test]
    fn range_crc_matches_crc32_of_every_sub_range() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 73 + 5) as u8).collect();
        let ranges = RangeCrc::new(&data);
        for start in 0..=data.len() {
            for end in start..=data.len() {
                assert_eq!(ranges.crc(start..end), crc32(&data[start..end]));
            }
        }
        // Lengths far past the 32-entry period of the power table.
        let long: Vec<u8> = (0..300_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let ranges = RangeCrc::new(&long);
        for (start, end) in [(0, 300_000), (7, 299_993), (65_536, 196_609), (1, 2)] {
            assert_eq!(ranges.crc(start..end), crc32(&long[start..end]));
        }
    }

    #[test]
    fn piecewise_updates_match_the_whole_string() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 29 + 3) as u8).collect();
        for split in 0..=data.len() {
            for second in split..=data.len() {
                let mut crc = Crc32::default();
                crc.update(&data[..split]);
                crc.update(&data[split..second]);
                crc.update(&data[second..]);
                assert_eq!(
                    crc.finish(),
                    crc32(&data),
                    "pieces split at {split}, {second}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at byte {byte} bit {bit} missed");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
