//! Spill tier for paged stores: sealed pages serialized to a per-run
//! temporary file under a configurable byte budget.
//!
//! A [`SpillFile`] is an append-only frame store on disk. Writers encode a
//! sealed page (one frame, any byte layout they like) with
//! [`SpillFile::append_frame`] and keep only the returned [`SpillFrame`]
//! handle; readers hand the handle back to [`SpillFile::read_frame`] to
//! recover the bytes. The file lives in the system temp directory, is
//! private to the run, and is removed when the last handle drops — a
//! crash leaves at most one orphaned `plsim-spill-*.bin` for the OS
//! tmp-reaper.
//!
//! The byte budget is written as a plain byte count with an optional
//! `k`/`m`/`g` suffix (×1024 steps); [`parse_byte_budget`] lives here so
//! the CLI and any other front end agree on the syntax.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Parses a byte budget: decimal digits with an optional `k`/`m`/`g`
/// suffix (case-insensitive, ×1024 steps). Returns `None` for anything
/// malformed or zero — a zero budget would evict the open page.
#[must_use]
pub fn parse_byte_budget(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, scale) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(scale).filter(|&b| b > 0)
}

/// A frame handle: where one sealed page's bytes live in the spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillFrame {
    offset: u64,
    len: u32,
}

impl SpillFrame {
    /// Byte length of the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the frame is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Process-wide counter so concurrent runs (tests, sharded worlds) never
/// collide on a spill path.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

struct SpillInner {
    file: File,
    len: u64,
}

/// An append-only on-disk frame store for spilled pages.
///
/// Append and read are internally locked, so one `SpillFile` may be shared
/// (behind an `Arc`) by a store and its clones; frames are immutable once
/// written, so readback needs no coordination beyond the file lock.
pub struct SpillFile {
    path: PathBuf,
    inner: Mutex<SpillInner>,
}

impl std::fmt::Debug for SpillFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillFile")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl SpillFile {
    /// Creates a fresh spill file in the system temp directory.
    ///
    /// # Panics
    ///
    /// Panics when the temp directory is not writable — a spill tier
    /// without a backing file cannot honor its budget, and silently
    /// falling back to RAM would defeat the point.
    #[must_use]
    pub fn create() -> SpillFile {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("plsim-spill-{}-{seq}.bin", std::process::id()));
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot create spill file {}: {e}", path.display()));
        SpillFile {
            path,
            inner: Mutex::new(SpillInner { file, len: 0 }),
        }
    }

    /// Appends one frame and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (disk full): the budget contract cannot be
    /// kept once the spill tier stops accepting pages.
    pub fn append_frame(&self, bytes: &[u8]) -> SpillFrame {
        let mut inner = self.inner.lock().expect("spill file poisoned");
        let offset = inner.len;
        inner
            .file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| inner.file.write_all(bytes))
            .unwrap_or_else(|e| panic!("spill write failed at {}: {e}", self.path.display()));
        inner.len = offset + bytes.len() as u64;
        SpillFrame {
            offset,
            len: u32::try_from(bytes.len()).expect("frame larger than 4 GiB"),
        }
    }

    /// Reads the frame back into `buf` (resized to the frame length).
    ///
    /// # Panics
    ///
    /// Panics on I/O failure or a handle from a different file.
    pub fn read_frame(&self, frame: SpillFrame, buf: &mut Vec<u8>) {
        buf.resize(frame.len(), 0);
        let mut inner = self.inner.lock().expect("spill file poisoned");
        assert!(
            frame.offset + u64::from(frame.len) <= inner.len,
            "spill frame out of range (foreign handle?)"
        );
        inner
            .file
            .seek(SeekFrom::Start(frame.offset))
            .and_then(|_| inner.file.read_exact(buf))
            .unwrap_or_else(|e| panic!("spill read failed at {}: {e}", self.path.display()));
    }

    /// Total bytes written so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.inner.lock().expect("spill file poisoned").len
    }

    /// Whether no frame has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // Best effort: an undeletable temp file is the OS reaper's job.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_in_any_order() {
        let spill = SpillFile::create();
        let a = spill.append_frame(&[1, 2, 3]);
        let b = spill.append_frame(&[9; 100]);
        let c = spill.append_frame(&[]);
        assert_eq!(spill.len(), 103);
        let mut buf = Vec::new();
        spill.read_frame(b, &mut buf);
        assert_eq!(buf, vec![9; 100]);
        spill.read_frame(a, &mut buf);
        assert_eq!(buf, vec![1, 2, 3]);
        spill.read_frame(c, &mut buf);
        assert!(buf.is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn file_is_removed_on_drop() {
        let spill = SpillFile::create();
        let path = spill.path.clone();
        spill.append_frame(&[42]);
        assert!(path.exists());
        drop(spill);
        assert!(!path.exists());
    }

    #[test]
    fn budget_parsing_accepts_suffixes() {
        assert_eq!(parse_byte_budget("1024"), Some(1024));
        assert_eq!(parse_byte_budget("4k"), Some(4096));
        assert_eq!(parse_byte_budget("4K"), Some(4096));
        assert_eq!(parse_byte_budget("2m"), Some(2 << 20));
        assert_eq!(parse_byte_budget("1g"), Some(1 << 30));
        assert_eq!(parse_byte_budget(" 8m "), Some(8 << 20));
        assert_eq!(parse_byte_budget("0"), None);
        assert_eq!(parse_byte_budget("0k"), None);
        assert_eq!(parse_byte_budget(""), None);
        assert_eq!(parse_byte_budget("abc"), None);
        assert_eq!(parse_byte_budget("-1"), None);
        assert_eq!(parse_byte_budget("9999999999999999999g"), None);
    }
}
