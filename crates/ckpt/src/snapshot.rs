//! The snapshot container: magic, format version, section table with per-section CRC32,
//! then the concatenated section payloads.
//!
//! [`Snapshot`] is the write side (named sections built from [`SaveState`] impls or raw
//! payload bytes); [`SnapshotFile`] is the fully validated read side. `from_bytes`
//! validates *everything* — magic, version, table bounds, per-section CRCs — before
//! returning, so by the time a caller loads state the bytes are known-good and a load
//! can only fail on logical mismatches (shape/config drift), never on silent damage.
//!
//! The byte-level layout is specified in `docs/CHECKPOINT_FORMAT.md` at the repository
//! root, down to every field the writer emits.

use crate::crc32::crc32;
use crate::error::{CkptError, Result};
use crate::io::Fs;
use crate::rw::{StateReader, StateWriter};
use crate::{DecodeState, LoadState, SaveState};
use std::ops::Range;
use std::path::Path;

/// The eight magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"CRWDCKPT";

/// The single format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 6;

/// Byte length of the fixed header (magic + version + section count).
const HEADER_LEN: usize = 8 + 4 + 4;

/// Fixed bytes of one section-table entry beyond the name: offset (8) + len (8) + crc (4).
const ENTRY_FIXED_LEN: usize = 8 + 8 + 4;

/// A snapshot under construction: an ordered list of named sections.
#[derive(Debug, Default)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Number of sections added so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no section has been added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Serialises `state` into a new section named `name`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate section name or a name longer than 65535 bytes — both are
    /// programming errors in the caller, not runtime conditions.
    pub fn put(&mut self, name: &str, state: &impl SaveState) {
        let mut w = StateWriter::new();
        state.save_state(&mut w);
        self.put_raw(name, w.into_bytes());
    }

    /// Adds a section from pre-built payload bytes (same constraints as
    /// [`Snapshot::put`]).
    pub fn put_raw(&mut self, name: &str, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section {name:?}"
        );
        assert!(
            name.len() <= u16::MAX as usize,
            "section name longer than 65535 bytes"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Encodes the snapshot: header, section table, then the payloads in section order,
    /// contiguous and gap-free.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_len: usize = self
            .sections
            .iter()
            .map(|(name, _)| 2 + name.len() + ENTRY_FIXED_LEN)
            .sum();
        let mut out = Vec::with_capacity(
            HEADER_LEN + table_len + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = HEADER_LEN + table_len;
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len();
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the snapshot to `path` atomically through `fs` ([`Fs::publish`]), so a
    /// crash mid-write never leaves a truncated file at the checkpoint path — the
    /// previous complete snapshot survives. The fault-injection suites pass
    /// [`Fs::faulty`] here to poison any numbered I/O site of the write.
    pub fn write_to(&self, fs: &Fs, path: impl AsRef<Path>) -> Result<()> {
        fs.publish(path.as_ref(), &self.to_bytes())?;
        Ok(())
    }
}

/// A parsed, fully CRC-verified snapshot.
#[derive(Debug)]
pub struct SnapshotFile {
    bytes: Vec<u8>,
    sections: Vec<(String, Range<usize>)>,
}

impl SnapshotFile {
    /// Reads and validates a snapshot file through `fs` (fault-injection suites poison
    /// the read to prove corruption is always a typed error).
    pub fn read(fs: &Fs, path: impl AsRef<Path>) -> Result<Self> {
        SnapshotFile::from_bytes(fs.read(path.as_ref())?)
    }

    /// Validates `bytes` as a snapshot: magic, version, section-table bounds and every
    /// section's CRC32. Nothing is loaded until all validation passes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
            let mut found = [0u8; 8];
            let n = bytes.len().min(8);
            found[..n].copy_from_slice(&bytes[..n]);
            return Err(CkptError::BadMagic { found });
        }
        let mut header = StateReader::new(&bytes[8..HEADER_LEN]);
        let version = header.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = header.take_u32()? as usize;

        let mut table = StateReader::new(&bytes[HEADER_LEN..]);
        let mut sections: Vec<(String, Range<usize>)> = Vec::new();
        for _ in 0..count {
            let name_len = table.take_u16()? as usize;
            let name_bytes = table.take_bytes(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|e| CkptError::Corrupt {
                    what: "section name",
                    detail: format!("not valid UTF-8: {e}"),
                })?
                .to_string();
            let offset = table.take_u64()?;
            let len = table.take_u64()?;
            let crc = table.take_u32()?;
            let start = usize::try_from(offset).map_err(|_| CkptError::Corrupt {
                what: "section offset",
                detail: format!("offset {offset} exceeds the host pointer width"),
            })?;
            let end = usize::try_from(len)
                .ok()
                .and_then(|l| start.checked_add(l))
                .ok_or_else(|| CkptError::Corrupt {
                    what: "section length",
                    detail: format!("section {name:?} length {len} overflows"),
                })?;
            if end > bytes.len() {
                return Err(CkptError::Truncated {
                    what: "section payload",
                    needed: end,
                    available: bytes.len(),
                });
            }
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(CkptError::Corrupt {
                    what: "section table",
                    detail: format!("duplicate section name {name:?}"),
                });
            }
            let computed = crc32(&bytes[start..end]);
            if computed != crc {
                return Err(CkptError::CrcMismatch {
                    section: name,
                    stored: crc,
                    computed,
                });
            }
            sections.push((name, start..end));
        }
        Ok(SnapshotFile { bytes, sections })
    }

    /// Names of every section, in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// True when a section with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }

    /// A reader positioned at the start of the named section's payload.
    pub fn reader(&self, name: &str) -> Result<StateReader<'_>> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, range)| StateReader::new(&self.bytes[range.clone()]))
            .ok_or_else(|| CkptError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Restores `target` in place from the named section, requiring the load to consume
    /// the section exactly (leftover bytes mean format skew and fail loudly).
    pub fn load_into(&self, name: &str, target: &mut impl LoadState) -> Result<()> {
        let mut r = self.reader(name)?;
        target.load_state(&mut r)?;
        r.finish("section payload")
    }

    /// Decodes an owned value from the named section (same exact-consumption rule as
    /// [`SnapshotFile::load_into`]).
    pub fn decode<T: DecodeState>(&self, name: &str) -> Result<T> {
        let mut r = self.reader(name)?;
        let value = T::decode_state(&mut r)?;
        r.finish("section payload")?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::new();
        let mut w = StateWriter::new();
        w.put_u64(99);
        w.put_f32_slice(&[1.5, -2.5]);
        snap.put_raw("alpha", w.into_bytes());
        snap.put_raw("beta", vec![7, 8, 9]);
        snap
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let bytes = sample().to_bytes();
        let file = SnapshotFile::from_bytes(bytes).unwrap();
        assert_eq!(file.section_names().collect::<Vec<_>>(), ["alpha", "beta"]);
        assert!(file.contains("alpha") && !file.contains("gamma"));
        let mut r = file.reader("alpha").unwrap();
        assert_eq!(r.take_u64().unwrap(), 99);
        assert_eq!(r.take_f32_vec().unwrap(), vec![1.5, -2.5]);
        r.finish("alpha").unwrap();
        assert_eq!(
            file.reader("beta").unwrap().take_bytes(3).unwrap(),
            [7, 8, 9]
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotFile::from_bytes(bytes),
            Err(CkptError::BadMagic { .. })
        ));
        // A short random file is also "bad magic", never a panic.
        assert!(matches!(
            SnapshotFile::from_bytes(vec![1, 2, 3]),
            Err(CkptError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match SnapshotFile::from_bytes(bytes) {
            Err(CkptError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotFile::from_bytes(bytes[..cut].to_vec())
                .expect_err(&format!("truncation at {cut} bytes must fail"));
            assert!(
                matches!(
                    err,
                    CkptError::BadMagic { .. }
                        | CkptError::Truncated { .. }
                        | CkptError::CrcMismatch { .. }
                        | CkptError::Corrupt { .. }
                ),
                "unexpected error at cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn any_payload_byte_flip_is_a_crc_mismatch() {
        let snap = sample();
        let clean = snap.to_bytes();
        // Payloads start after header + table; flip every payload byte in turn.
        let payload_start = clean.len() - (8 + 4 * 2 + 3); // alpha (8 + 2 f32s + len) + beta (3)
        for pos in payload_start..clean.len() {
            let mut damaged = clean.clone();
            damaged[pos] ^= 0x40;
            assert!(
                matches!(
                    SnapshotFile::from_bytes(damaged),
                    Err(CkptError::CrcMismatch { .. })
                ),
                "flip at byte {pos} was not caught by a CRC"
            );
        }
    }

    #[test]
    fn duplicate_sections_rejected_on_read_and_panic_on_write() {
        // Hand-craft a duplicate table by encoding the same section twice.
        let mut snap = Snapshot::new();
        snap.put_raw("dup", vec![1]);
        let mut bytes = snap.to_bytes();
        // Bump the count to 2 and append a copy of the single table entry, fixing offsets
        // is unnecessary: duplication is detected before payload validation of the copy.
        bytes[12..16].copy_from_slice(&2u32.to_le_bytes());
        let entry = bytes[HEADER_LEN..HEADER_LEN + 2 + 3 + ENTRY_FIXED_LEN].to_vec();
        bytes.splice(
            HEADER_LEN + 2 + 3 + ENTRY_FIXED_LEN..HEADER_LEN + 2 + 3 + ENTRY_FIXED_LEN,
            entry,
        );
        // Offsets now point into shifted data, so either Corrupt (duplicate) or a CRC
        // error is acceptable; both are typed, neither panics.
        assert!(SnapshotFile::from_bytes(bytes).is_err());

        let result = std::panic::catch_unwind(|| {
            let mut s = Snapshot::new();
            s.put_raw("x", vec![]);
            s.put_raw("x", vec![]);
        });
        assert!(result.is_err(), "duplicate put_raw must panic");
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join("crowd_ckpt_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let snap = sample();
        snap.write_to(&Fs::real(), &path).unwrap();
        let file = SnapshotFile::read(&Fs::real(), &path).unwrap();
        assert_eq!(file.section_names().count(), 2);
        // The tmp name appends to the full name — the *.ckpt.tmp gitignore pattern and
        // the "<path>.tmp" doc depend on it — and must be gone after the rename.
        assert!(
            !dir.join("roundtrip.ckpt.tmp").exists(),
            "tmp file left behind"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_section_is_typed() {
        let file = SnapshotFile::from_bytes(sample().to_bytes()).unwrap();
        assert!(matches!(
            file.reader("nope"),
            Err(CkptError::MissingSection { .. })
        ));
    }
}
