//! Write-ahead-log framing: segmented, CRC-checked record-batch files.
//!
//! The snapshot format in [`crate::snapshot`] captures a *point-in-time* state; this
//! module is its streaming sibling — an append-only log of opaque record batches that a
//! crashed process replays to reconstruct the state it never snapshotted. The decision
//! log of the `crowd-serve` crate is the first user; the framing itself is generic (the
//! payload bytes are opaque to this layer) and specified byte by byte in
//! `docs/DECISION_LOG_FORMAT.md` at the repository root.
//!
//! # Layout
//!
//! A log is a directory of segment files named `segment-<index08>.wlog` with strictly
//! consecutive indices. A fresh log starts at segment 0; a *compacted* log may start at
//! a later index, with a base snapshot standing in for the deleted prefix. This module
//! owns only the framing of one segment and the file names; the directory rules
//! (contiguity, which start index is legal, leftovers) belong to the log that uses it —
//! the `crowd-serve` decision log lists its directory in one place. Every function here
//! takes the [`Fs`] storage handle its I/O goes through. Each segment is:
//!
//! ```text
//! magic "CRWDWLOG" (8) | version u32 LE (4) | segment index u64 LE (8)   — 20-byte header
//! then zero or more record batches:
//! payload length u32 LE (4) | CRC-32/IEEE of payload u32 LE (4) | payload bytes
//! ```
//!
//! # Durability contract
//!
//! * **Atomic segment creation** — a segment is materialised by writing its header to
//!   `<name>.tmp`, syncing, renaming to the final name and syncing the directory
//!   ([`Fs::publish`]). A crash mid-rotation leaves a `.tmp` file that readers ignore
//!   (and recovery deletes); a named segment therefore always has a complete, valid
//!   header.
//! * **Torn tails are detectable and safe** — an append that was cut by a crash leaves a
//!   trailing batch whose length field, payload bytes or CRC are incomplete.
//!   [`read_segment`] stops at the first such batch and reports the clean prefix length;
//!   callers truncate to it ([`SegmentWriter::resume`]) and continue appending. Because
//!   writers acknowledge work only *after* [`SegmentWriter::sync`] returns, a torn batch
//!   was by construction never acknowledged, so dropping it loses nothing that was
//!   promised.
//! * **Damage behind a valid batch is reported** — a torn append is always the *last*
//!   thing in a file: writes land in order, and a writer truncates a failed append
//!   before appending again. So when [`read_segment`] finds a complete, CRC-valid batch
//!   anywhere past the point where the clean prefix stops, it reports that offset
//!   ([`SegmentScan::valid_frame_after`]). Under per-batch sync that is damage to
//!   acknowledged bytes, and the caller must refuse to truncate; without it a power
//!   loss may persist pages out of order, and the caller may treat it as a tear.
//! * **Sealed segments must be clean** — only the highest-indexed segment may carry a
//!   torn tail (it was the active one when the process died). A torn or short batch in
//!   any earlier segment means bytes rotted *after* they were sealed, which replay-based
//!   recovery must not paper over; readers of a whole log treat it as corruption.
//!
//! # Reading
//!
//! [`read_segment`] never holds a segment: it streams the file through one
//! [`READ_CHUNK`]-byte buffer, once to validate every frame and once more
//! ([`SegmentScan::next_batch`]) to hand out each payload after re-checking its CRC on
//! the bytes handed out. Only a damaged segment's torn region is held whole, for the
//! search behind it.

use crate::crc32::{crc32, Crc32, RangeCrc};
use crate::error::{CkptError, Result};
use crate::io::{Fs, StorageFile, StorageReader};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// First eight bytes of every segment file.
pub const WAL_MAGIC: [u8; 8] = *b"CRWDWLOG";

/// The single segment-format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;

/// Byte length of the fixed segment header (magic + version + segment index).
pub const SEGMENT_HEADER_LEN: u64 = 8 + 4 + 8;

/// Byte length of a record-batch header (payload length + CRC-32).
pub const BATCH_HEADER_LEN: u64 = 4 + 4;

/// File name of the segment with the given index (`segment-00000007.wlog`).
pub fn segment_file_name(index: u64) -> String {
    format!("segment-{index:08}.wlog")
}

/// Parses a segment file name back to its index; `None` for foreign files.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("segment-")?.strip_suffix(".wlog")?;
    if digits.len() < 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn encode_header(index: u64) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut h = [0u8; SEGMENT_HEADER_LEN as usize];
    h[0..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&index.to_le_bytes());
    h
}

/// An open segment accepting record-batch appends.
///
/// The writer never buffers: every [`SegmentWriter::append`] issues the batch to the OS
/// in one `write_all`, and [`SegmentWriter::sync`] makes everything appended so far
/// durable. Acknowledge work to callers only after `sync` returns.
pub struct SegmentWriter {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    index: u64,
    len: u64,
}

impl fmt::Debug for SegmentWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentWriter")
            .field("path", &self.path)
            .field("index", &self.index)
            .field("len", &self.len)
            .finish()
    }
}

impl SegmentWriter {
    /// Creates segment `index` inside `dir` atomically: the 20-byte header is published
    /// with [`Fs::publish`] (`<name>.tmp`, sync, rename, directory sync). Fails if the
    /// segment already exists. A failed directory sync is an error — the segment *name*
    /// is part of what recovery reads, so acknowledging appends into a segment whose
    /// name might vanish would break the ack barrier.
    pub fn create(fs: &Fs, dir: &Path, index: u64) -> Result<SegmentWriter> {
        let path = dir.join(segment_file_name(index));
        if fs.exists(&path) {
            return Err(CkptError::Corrupt {
                what: "wal segment",
                detail: format!("{} already exists", path.display()),
            });
        }
        let file = fs.publish(&path, &encode_header(index))?;
        Ok(SegmentWriter {
            file,
            path,
            index,
            len: SEGMENT_HEADER_LEN,
        })
    }

    /// Reopens an existing segment for appending, first truncating it to `keep_len`
    /// bytes (the clean-prefix length reported by [`read_segment`]) so a torn tail left
    /// by a crash is physically removed before new batches land after it.
    pub fn resume(fs: &Fs, path: &Path, index: u64, keep_len: u64) -> Result<SegmentWriter> {
        let mut file = fs.open_rw(path)?;
        file.set_len(keep_len)?;
        file.sync_all()?;
        file.seek_end()?;
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            index,
            len: keep_len,
        })
    }

    /// Truncates the file back to the clean length this writer has accounted for —
    /// the self-healing step after a failed [`SegmentWriter::append`]: a short write
    /// may have landed a partial frame on disk, and retrying the append without first
    /// removing it would leave garbage between valid batches. Safe to call at any
    /// time; a writer whose last append succeeded is a no-op truncate.
    pub fn truncate_to_len(&mut self) -> Result<()> {
        self.file.set_len(self.len)?;
        self.file.sync_data()?;
        self.file.seek_end()?;
        Ok(())
    }

    /// Rolls the writer's *accounted* clean length back to `len` without touching the
    /// file. For callers whose durability barrier failed after a physically complete
    /// append (`write_all` succeeded, `sync` did not): the frame's durability is
    /// unknown, so it must not be counted — rewind, then [`truncate_to_len`] physically
    /// removes it before the retry lands the batch exactly once.
    ///
    /// [`truncate_to_len`]: SegmentWriter::truncate_to_len
    ///
    /// # Panics
    ///
    /// Panics when `len` is ahead of the current accounted length or inside the header.
    pub fn rewind_to(&mut self, len: u64) {
        assert!(
            len >= SEGMENT_HEADER_LEN && len <= self.len,
            "rewind target {len} outside [{SEGMENT_HEADER_LEN}, {}]",
            self.len
        );
        self.len = len;
    }

    /// Appends one record batch (`len | crc32 | payload`). Not yet durable — call
    /// [`SegmentWriter::sync`] before acknowledging.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| CkptError::Corrupt {
            what: "wal batch",
            detail: format!("payload of {} bytes exceeds the u32 frame", payload.len()),
        })?;
        let mut frame = Vec::with_capacity(BATCH_HEADER_LEN as usize + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Makes every appended batch durable (`fdatasync`).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Current byte length of the segment (header plus all appended frames).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no batch has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len <= SEGMENT_HEADER_LEN
    }

    /// This segment's index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Path of the segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Bytes per streamed read: a segment scan reads its file through one buffer of this
/// size, and each refill is one numbered [`OpClass::Read`](crate::io::OpClass::Read) op,
/// so a scan's read ops grow with the segment's size, not with its batch count.
pub const READ_CHUNK: usize = 64 * 1024;

/// A file streamed front to back through one fixed [`READ_CHUNK`] buffer.
struct ChunkReader {
    file: Box<dyn StorageReader>,
    /// File length when it was opened.
    size: u64,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    start: u64,
    /// Bytes of `buf` holding file data.
    filled: usize,
    /// Next unconsumed byte of `buf`.
    pos: usize,
}

impl ChunkReader {
    fn open(fs: &Fs, path: &Path) -> Result<ChunkReader> {
        let file = fs.open_read(path)?;
        Ok(ChunkReader {
            size: file.size(),
            file,
            buf: vec![0; READ_CHUNK],
            start: 0,
            filled: 0,
            pos: 0,
        })
    }

    /// File offset of the next byte [`ChunkReader::stream`] hands out.
    fn offset(&self) -> u64 {
        self.start + self.pos as u64
    }

    /// Continues at `offset`, dropping what the buffer holds.
    fn seek(&mut self, offset: u64) {
        (self.start, self.filled, self.pos) = (offset, 0, 0);
    }

    /// Hands the next `len` bytes to `piece` in order, one buffer-load at a time. The
    /// caller keeps the range inside the file; a file that ends early is an I/O error.
    fn stream(&mut self, mut len: u64, mut piece: impl FnMut(&[u8])) -> Result<()> {
        while len > 0 {
            if self.pos == self.filled {
                self.refill()?;
            }
            let take = (self.filled - self.pos).min(usize::try_from(len).unwrap_or(usize::MAX));
            piece(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            len -= take as u64;
        }
        Ok(())
    }

    /// The next `N` bytes as an array.
    fn read_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        let mut at = 0;
        self.stream(N as u64, |piece| {
            out[at..at + piece.len()].copy_from_slice(piece);
            at += piece.len();
        })?;
        Ok(out)
    }

    fn refill(&mut self) -> Result<()> {
        self.start += self.pos as u64;
        let want = self.size.saturating_sub(self.start).min(READ_CHUNK as u64) as usize;
        let read = self.file.read_at(self.start, &mut self.buf[..want])?;
        if want == 0 || read < want {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "file ended at byte {} of {}",
                    self.start + read as u64,
                    self.size
                ),
            )
            .into());
        }
        (self.filled, self.pos) = (read, 0);
        Ok(())
    }
}

/// What [`read_segment`]'s validating pass found in one segment file, and the open
/// file its batches are then decoded from ([`SegmentScan::next_batch`]). A scan holds
/// one read buffer of [`READ_CHUNK`] bytes and one batch payload, never the segment.
pub struct SegmentScan {
    /// Segment index stored in the header.
    pub index: u64,
    /// Number of CRC-verified record batches in the clean prefix.
    pub batches: usize,
    /// Byte length of the clean prefix (header plus every complete batch); equals the
    /// file length when the segment is clean.
    pub clean_len: u64,
    /// Bytes past the clean prefix — a torn trailing batch ([`SegmentScan::is_torn`]).
    pub torn_bytes: u64,
    /// Offset of the first complete, CRC-valid batch found past the clean prefix when
    /// it is torn, searching byte by byte (so a damaged length field cannot hide it).
    /// `Some` means the "tear" has written batches behind it.
    pub valid_frame_after: Option<u64>,
    reader: ChunkReader,
    /// The payload [`SegmentScan::next_batch`] last decoded.
    frame: Vec<u8>,
}

impl fmt::Debug for SegmentScan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentScan")
            .field("index", &self.index)
            .field("batches", &self.batches)
            .field("clean_len", &self.clean_len)
            .field("torn_bytes", &self.torn_bytes)
            .field("valid_frame_after", &self.valid_frame_after)
            .finish()
    }
}

impl SegmentScan {
    /// True when the file ends in an incomplete or CRC-damaged batch.
    pub fn is_torn(&self) -> bool {
        self.torn_bytes > 0
    }

    /// The next record-batch payload of the clean prefix, in append order; `None`
    /// after the last. This second pass reads each frame again and checks its CRC on
    /// the very bytes it returns, because that read can be damaged too: a frame that
    /// fails, or whose length runs past the clean prefix the first pass validated, is a
    /// typed error and its bytes are never handed out.
    pub fn next_batch(&mut self) -> Result<Option<&[u8]>> {
        let offset = self.reader.offset();
        if offset >= self.clean_len {
            return Ok(None);
        }
        let header = self.reader.read_array::<{ BATCH_HEADER_LEN as usize }>()?;
        let (len, stored) = frame_header(&header);
        let body = offset + BATCH_HEADER_LEN;
        if len == 0 || len as u64 > self.clean_len.saturating_sub(body) {
            return Err(CkptError::Corrupt {
                what: "wal batch",
                detail: format!(
                    "the batch at byte {offset} reads as {len} bytes long, past the clean \
                     prefix of {} bytes that the first pass validated",
                    self.clean_len
                ),
            });
        }
        self.frame.clear();
        let frame = &mut self.frame;
        self.reader
            .stream(len as u64, |piece| frame.extend_from_slice(piece))?;
        let computed = crc32(&self.frame);
        if computed != stored {
            return Err(CkptError::CrcMismatch {
                section: format!("wal batch at byte {offset}"),
                stored,
                computed,
            });
        }
        Ok(Some(&self.frame))
    }
}

/// Opens one segment and validates it in a first streaming pass: the header strictly
/// (a named segment always has a complete header — see the module docs on atomic
/// creation), then every batch's CRC until the clean end of the file or the first
/// torn or CRC-damaged frame. When the clean prefix stops short of the end, the rest of
/// the file is read again and searched for a valid frame
/// ([`SegmentScan::valid_frame_after`]); deciding what that means is the caller's. The
/// returned scan then decodes the clean prefix's batches ([`SegmentScan::next_batch`]).
///
/// The first pass holds one read buffer; only the damage path holds the torn region,
/// for the search. A re-read that finds the first damaged frame intact is an error:
/// the storage returned different bytes on two reads, and truncating the frame as a
/// tear would drop a batch that is whole on disk.
pub fn read_segment(fs: &Fs, path: &Path) -> Result<SegmentScan> {
    let mut reader = ChunkReader::open(fs, path)?;
    let size = reader.size;
    if size < SEGMENT_HEADER_LEN {
        return Err(CkptError::Truncated {
            what: "wal segment header",
            needed: SEGMENT_HEADER_LEN as usize,
            available: size as usize,
        });
    }
    let header = reader.read_array::<{ SEGMENT_HEADER_LEN as usize }>()?;
    if header[0..8] != WAL_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&header[0..8]);
        return Err(CkptError::BadMagic { found });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(CkptError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let index = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));

    let mut batches = 0;
    let mut offset = SEGMENT_HEADER_LEN;
    while size - offset >= BATCH_HEADER_LEN {
        let (len, stored) = frame_header(&reader.read_array()?);
        let body = offset + BATCH_HEADER_LEN;
        if len == 0 || len as u64 > size - body {
            break;
        }
        let mut crc = Crc32::default();
        reader.stream(len as u64, |piece| crc.update(piece))?;
        if crc.finish() != stored {
            break;
        }
        offset = body + len as u64;
        batches += 1;
    }
    let valid_frame_after = if offset < size {
        search_torn_region(&mut reader, offset)?
    } else {
        None
    };
    reader.seek(SEGMENT_HEADER_LEN);
    Ok(SegmentScan {
        index,
        batches,
        clean_len: offset,
        torn_bytes: size - offset,
        valid_frame_after,
        reader,
        frame: Vec::new(),
    })
}

/// Reads the torn region `[clean_len, end of file)` into memory and returns the offset
/// of the first complete, CRC-valid frame that starts past `clean_len`. Every later
/// offset could start a frame once a length field is damaged. Lengths that overrun the
/// file are rejected first; the CRCs of the rest come from one prefix pass over the
/// region, so the search stays linear in its size.
fn search_torn_region(reader: &mut ChunkReader, clean_len: u64) -> Result<Option<u64>> {
    reader.seek(clean_len);
    let mut torn = Vec::with_capacity((reader.size - clean_len) as usize);
    reader.stream(reader.size - clean_len, |piece| {
        torn.extend_from_slice(piece)
    })?;
    let crcs = RangeCrc::new(&torn);
    let valid_at =
        |at: usize| frame_at(&torn, at).is_some_and(|(range, stored)| crcs.crc(range) == stored);
    if valid_at(0) {
        return Err(CkptError::Corrupt {
            what: "wal segment",
            detail: format!(
                "the batch at byte {clean_len} failed its CRC on one read and passed it on \
                 a re-read — not a torn tail: the storage returned different bytes for it, \
                 and truncating there would drop a batch that is whole on disk"
            ),
        });
    }
    Ok((1..torn.len())
        .find(|&at| valid_at(at))
        .map(|at| clean_len + at as u64))
}

/// Payload length and stored CRC of a frame header.
fn frame_header(header: &[u8; BATCH_HEADER_LEN as usize]) -> (u32, u32) {
    (
        u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")),
        u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")),
    )
}

/// Payload byte range and stored CRC of the frame at `offset` when its header and
/// payload are both complete; `None` at the end of the bytes, for a cut header or
/// payload, and for a zero length (zeroed preallocation) — the shapes a torn tail takes.
fn frame_at(bytes: &[u8], offset: usize) -> Option<(Range<usize>, u32)> {
    let header = bytes.get(offset..offset + BATCH_HEADER_LEN as usize)?;
    let (len, crc) = frame_header(header.try_into().expect("8 bytes"));
    let body = offset + BATCH_HEADER_LEN as usize;
    let len = len as usize;
    (len > 0 && len <= bytes.len() - body).then_some((body..body + len, crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every batch payload of the scanned segment, decoded by the second pass.
    fn payloads(scan: &mut SegmentScan) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(payload) = scan.next_batch().unwrap() {
            out.push(payload.to_vec());
        }
        assert_eq!(out.len(), scan.batches, "{scan:?}");
        out
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(segment_file_name(7), "segment-00000007.wlog");
        assert_eq!(parse_segment_file_name("segment-00000007.wlog"), Some(7));
        assert_eq!(
            parse_segment_file_name("segment-123456789.wlog"),
            Some(123_456_789)
        );
        assert_eq!(parse_segment_file_name("segment-0000000x.wlog"), None);
        assert_eq!(parse_segment_file_name("other.wlog"), None);
        assert_eq!(parse_segment_file_name("segment-00000007.wlog.tmp"), None);
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        assert!(w.is_empty());
        w.append(b"first").unwrap();
        w.append(&[0xAB; 300]).unwrap();
        w.sync().unwrap();
        assert_eq!(w.len(), SEGMENT_HEADER_LEN + 2 * BATCH_HEADER_LEN + 5 + 300);

        let mut scan = read_segment(&Fs::real(), w.path()).unwrap();
        assert_eq!(scan.index, 0);
        assert!(!scan.is_torn());
        assert_eq!(scan.clean_len, w.len());
        assert_eq!(
            payloads(&mut scan),
            vec![b"first".to_vec(), vec![0xAB; 300]]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_torn_tail_cut_point_drops_only_the_last_batch() {
        let dir = tmp_dir("torn");
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        w.append(b"keep-me").unwrap();
        w.append(b"torn-away").unwrap();
        w.sync().unwrap();
        let full = std::fs::read(w.path()).unwrap();
        let clean_prefix = SEGMENT_HEADER_LEN as usize + BATCH_HEADER_LEN as usize + 7;

        for cut in clean_prefix..full.len() {
            std::fs::write(w.path(), &full[..cut]).unwrap();
            let mut scan = read_segment(&Fs::real(), w.path()).unwrap();
            assert_eq!(
                payloads(&mut scan),
                vec![b"keep-me".to_vec()],
                "cut at {cut}"
            );
            assert_eq!(scan.clean_len, clean_prefix as u64, "cut at {cut}");
            assert_eq!(scan.is_torn(), cut > clean_prefix, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_damage_ends_the_clean_prefix() {
        let dir = tmp_dir("crc");
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        w.append(b"good").unwrap();
        w.append(b"flipped").unwrap();
        w.sync().unwrap();
        let mut bytes = std::fs::read(w.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(w.path(), &bytes).unwrap();
        let mut scan = read_segment(&Fs::real(), w.path()).unwrap();
        assert_eq!(payloads(&mut scan), vec![b"good".to_vec()]);
        assert!(scan.is_torn());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_before_a_valid_batch_reports_where_the_valid_batch_is() {
        let dir = tmp_dir("mid-crc");
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        w.append(b"first").unwrap();
        w.append(b"damaged").unwrap();
        w.append(b"acknowledged-after").unwrap();
        w.sync().unwrap();
        let path = w.path().to_path_buf();
        let full = std::fs::read(&path).unwrap();
        let second = SEGMENT_HEADER_LEN as usize + BATCH_HEADER_LEN as usize + 5;
        let third = second + BATCH_HEADER_LEN as usize + 7;

        // Damage to the second frame's payload, its CRC field, or its length field
        // (grown past the file, grown within it, shrunk, zeroed): the clean prefix ends
        // before it either way, and the byte-by-byte search still finds the third.
        let damage: [(usize, u8); 6] = [
            (second + BATCH_HEADER_LEN as usize, 0x40),
            (second + 4, 0x01),
            (second + 3, 0x01),
            (second, 0x10),
            (second, 0x04),
            (second, 0x07),
        ];
        for (at, mask) in damage {
            let mut bytes = full.clone();
            bytes[at] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            let mut scan = read_segment(&Fs::real(), &path).unwrap();
            assert_eq!(payloads(&mut scan), vec![b"first".to_vec()], "flip at {at}");
            assert_eq!(scan.clean_len, second as u64, "flip at {at}");
            assert_eq!(scan.valid_frame_after, Some(third as u64), "flip at {at}");
        }

        // The same damage on the final batch, followed only by zero bytes (a zeroed
        // preallocation) or by a cut frame, has nothing valid behind it.
        for tail in [vec![0u8; 40], full[third..full.len() - 2].to_vec()] {
            for (at, mask) in damage {
                let mut bytes = full[..third].to_vec();
                bytes[at] ^= mask;
                bytes.extend_from_slice(&tail);
                std::fs::write(&path, &bytes).unwrap();
                let mut scan = read_segment(&Fs::real(), &path).unwrap();
                assert_eq!(payloads(&mut scan), vec![b"first".to_vec()], "flip at {at}");
                assert_eq!(scan.torn_bytes, (bytes.len() - second) as u64);
                assert_eq!(scan.valid_frame_after, None, "flip at {at}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_the_torn_tail_before_appending() {
        let dir = tmp_dir("resume");
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        w.append(b"stable").unwrap();
        w.sync().unwrap();
        let path = w.path().to_path_buf();
        let clean = w.len();
        drop(w);
        // Simulate a torn append past the clean prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]); // half a batch header + garbage
        std::fs::write(&path, &bytes).unwrap();

        let mut w = SegmentWriter::resume(&Fs::real(), &path, 0, clean).unwrap();
        w.append(b"after-crash").unwrap();
        w.sync().unwrap();
        let mut scan = read_segment(&Fs::real(), &path).unwrap();
        assert_eq!(
            payloads(&mut scan),
            vec![b"stable".to_vec(), b"after-crash".to_vec()]
        );
        assert!(!scan.is_torn());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_validation_is_strict() {
        let dir = tmp_dir("header");
        let path = dir.join(segment_file_name(0));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            read_segment(&Fs::real(), &path),
            Err(CkptError::Truncated { .. })
        ));
        std::fs::write(&path, b"NOTAWLOGxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            read_segment(&Fs::real(), &path),
            Err(CkptError::BadMagic { .. })
        ));
        let mut h = encode_header(0).to_vec();
        h[8] = 99;
        std::fs::write(&path, &h).unwrap();
        assert!(matches!(
            read_segment(&Fs::real(), &path),
            Err(CkptError::UnsupportedVersion { found: 99, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_to_len_heals_a_partial_frame_between_appends() {
        use crate::io::FaultPlan;
        let dir = tmp_dir("heal");
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        w.append(b"durable").unwrap();
        w.sync().unwrap();
        let path = w.path().to_path_buf();
        let clean_len = w.len();
        drop(w);

        // Resume through an injected fs and poison the first append's write: resume
        // issues OpenFile(0), SetLen(1), SyncAll(2), so the append's write is op 3 and
        // lands as a short write (half the frame persists, then an error).
        let (fs, probe) = Fs::faulty(FaultPlan::fail_op(3));
        let mut w = SegmentWriter::resume(&fs, &path, 0, clean_len).unwrap();
        let err = w.append(b"torn-frame-payload").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(probe.fired().len(), 1);
        let on_disk = std::fs::read(&path).unwrap().len() as u64;
        assert!(on_disk > clean_len, "short write left partial bytes");

        // Heal, retry, and the segment holds exactly the acknowledged batches.
        w.truncate_to_len().unwrap();
        w.append(b"after-heal").unwrap();
        w.sync().unwrap();
        let mut scan = read_segment(&Fs::real(), &path).unwrap();
        assert_eq!(
            payloads(&mut scan),
            vec![b"durable".to_vec(), b"after-heal".to_vec()]
        );
        assert!(!scan.is_torn());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fault plan that corrupts exactly read op `op`.
    fn corrupt_read_at(op: u64) -> crate::io::FaultPlan {
        use crate::io::{FaultKind, FaultPlan, FaultRule, OpClass};
        FaultPlan::none().with_rule(FaultRule {
            from_op: op,
            to_op: op + 1,
            class: Some(OpClass::Read),
            kind: FaultKind::CorruptRead,
            once: true,
        })
    }

    #[test]
    fn a_segment_larger_than_the_read_buffer_streams_in_chunk_sized_reads() {
        use crate::io::FaultPlan;
        // Payloads of assorted sizes, some longer than a read chunk, so frame headers
        // and payloads straddle chunk boundaries at many offsets.
        let dir = tmp_dir("chunks");
        let payloads_in: Vec<Vec<u8>> = (0..40u32)
            .map(|i| vec![i as u8; 1 + (i as usize * 7919) % (READ_CHUNK + READ_CHUNK / 3)])
            .collect();
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        for payload in &payloads_in {
            w.append(payload).unwrap();
        }
        w.sync().unwrap();
        let size = w.len();
        let path = w.path().to_path_buf();
        drop(w);

        let (fs, probe) = Fs::faulty(FaultPlan::none());
        let mut scan = read_segment(&fs, &path).unwrap();
        let chunks = size.div_ceil(READ_CHUNK as u64);
        assert_eq!(probe.ops(), chunks, "the first pass reads each chunk once");
        assert_eq!(payloads(&mut scan), payloads_in);
        assert_eq!(probe.ops(), 2 * chunks, "so does the second");

        // A tail cut inside the last frame: the clean prefix keeps every earlier one.
        let full = std::fs::read(&path).unwrap();
        let last = payloads_in.last().unwrap().len() as u64 + BATCH_HEADER_LEN;
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let mut scan = read_segment(&Fs::real(), &path).unwrap();
        assert_eq!(scan.clean_len, size - last);
        assert_eq!(scan.valid_frame_after, None);
        assert_eq!(
            payloads(&mut scan),
            payloads_in[..payloads_in.len() - 1].to_vec()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_first_pass_read_that_a_re_read_contradicts_is_refused_not_truncated() {
        // Op 0 is the first pass's only read of this one-chunk segment; its corrupted
        // byte lands in the middle payload, so that frame fails its CRC once and passes
        // on the re-read. Truncating there would drop two whole batches.
        let dir = tmp_dir("flaky-first-pass");
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        for payload in [vec![1u8; 100], vec![2u8; 400], vec![3u8; 100]] {
            w.append(&payload).unwrap();
        }
        w.sync().unwrap();
        let (fs, probe) = Fs::faulty(corrupt_read_at(0));
        let err = read_segment(&fs, w.path()).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("different bytes"), "{err}");
        assert_eq!(probe.fired().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupted_second_pass_read_is_a_crc_error_never_a_payload() {
        let dir = tmp_dir("flaky-second-pass");
        let payloads_in = [vec![1u8; 100], vec![2u8; 400], vec![3u8; 100]];
        let mut w = SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        for payload in &payloads_in {
            w.append(payload).unwrap();
        }
        w.sync().unwrap();
        // Op 0 validates the segment; op 1, the second pass's read, flips a byte of the
        // middle payload after the first pass found every frame intact.
        let (fs, probe) = Fs::faulty(corrupt_read_at(1));
        let mut scan = read_segment(&fs, w.path()).unwrap();
        assert_eq!(scan.batches, 3);
        assert_eq!(scan.next_batch().unwrap(), Some(&payloads_in[0][..]));
        let err = scan.next_batch().unwrap_err();
        assert!(matches!(err, CkptError::CrcMismatch { .. }), "{err}");
        assert_eq!(probe.fired(), vec![(1, crate::io::OpClass::Read)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let dir = tmp_dir("overwrite");
        SegmentWriter::create(&Fs::real(), &dir, 0).unwrap();
        assert!(matches!(
            SegmentWriter::create(&Fs::real(), &dir, 0),
            Err(CkptError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
