//! The append-only, checksummed, fsync'd record journal.
//!
//! File layout (`DESIGN.md` §9):
//!
//! ```text
//! "SPEJRNL\x02"                 8-byte magic, last byte = format version
//! frame(header payload)          caller-defined manifest bytes
//! frame(record payload) ...      zero or more records
//!
//! frame(p) = [u32 LE len(p)] [u64 LE fnv1a(p)] [p]
//! ```
//!
//! Crash safety comes from three properties:
//!
//! 1. **Append-only**: committed bytes are never rewritten, so a crash
//!    can only damage the tail;
//! 2. **Framing**: a torn tail (partial frame header, short payload, or
//!    checksum mismatch) is detected on read and dropped — iteration
//!    ends at the valid prefix with [`JournalIter::truncated_tail`] set,
//!    and the drop point is triaged as a [`TailCorruption`] carrying
//!    the frame's byte offset and the reason its validation failed;
//! 3. **Durability**: [`Journal::append`] flushes and fsyncs before
//!    returning, so an acknowledged record survives power loss. An
//!    append that fails leaves the committed prefix unchanged, byte for
//!    byte: the file is cut back to it before the error returns, so a
//!    retry cannot write its frame twice (and if the cut fails too, the
//!    journal refuses every later append).
//!
//! [`JournalIter`] is the one reader. It **streams** one frame at a
//! time, so replaying a multi-GB campaign journal needs memory
//! proportional to the largest frame actually present (plus whatever
//! live state the caller folds records into), not to the journal;
//! `spe_harness::checkpoint` resumes through it and reopens the journal
//! for appending with [`JournalIter::into_appender`], and journal
//! compaction (`DESIGN.md` §11) rewrites through it combined with
//! [`promote`]'s write-new → fsync → atomic-rename sequence.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of every journal file; the final byte is the format
/// version. A journal of any other version is refused at open with
/// [`JournalError::BadMagic`].
pub const MAGIC: [u8; 8] = *b"SPEJRNL\x02";

/// Frame header size: u32 length + u64 checksum.
const FRAME_HEADER: usize = 4 + 8;

/// Upper bound on a single frame payload (1 GiB) — rejects absurd
/// lengths read from corrupt frame headers before any allocation.
const MAX_PAYLOAD: u32 = 1 << 30;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Errors of journal creation, appending and reading. Every variant
/// names the journal file it concerns, and I/O failures additionally
/// carry the operation that failed — a campaign that degrades or aborts
/// over a journal fault must be diagnosable from the error text alone.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O error from the filesystem, tagged with the operation
    /// (`"create"`, `"append"`, `"fsync"`, `"read"`, ...) and path.
    Io {
        /// What the journal was doing when the filesystem failed.
        op: &'static str,
        /// The journal (or directory) the operation targeted.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file does not start with the journal magic (wrong file, or a
    /// journal of an incompatible format version).
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// The file has no valid header frame — it ends before one (a crash
    /// during [`Journal::create`]) or the header frame fails validation;
    /// there is no state to resume from.
    NoHeader {
        /// The offending file.
        path: PathBuf,
        /// Why the header frame failed validation; `None` when the file
        /// ends cleanly after the magic.
        corruption: Option<TailCorruption>,
    },
    /// Another process (or another `Journal` in this process) holds the
    /// journal open for appending. Writers take an exclusive OS-level
    /// file lock: two concurrent resumes of one campaign would otherwise
    /// interleave individually-valid frames and silently double-count
    /// work on replay.
    Busy {
        /// The locked journal.
        path: PathBuf,
    },
}

impl JournalError {
    fn io(op: &'static str, path: &Path, source: io::Error) -> JournalError {
        JournalError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, path, source } => {
                write!(f, "journal {op} failed on {}: {source}", path.display())
            }
            JournalError::BadMagic { path } => write!(
                f,
                "{} is not a journal (bad magic or version)",
                path.display()
            ),
            JournalError::NoHeader { path, corruption } => {
                write!(f, "journal {} has no complete header frame", path.display())?;
                match corruption {
                    Some(c) => write!(f, ": {c}"),
                    None => Ok(()),
                }
            }
            JournalError::Busy { path } => {
                write!(f, "journal {} is locked by another writer", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Test-only fault injection for journal appends.
///
/// The fault-injection suites (`tests/orchestrator_faults.rs`, this
/// crate's own corruption tests) must provoke `ENOSPC`/`EIO`-style
/// append failures deterministically, which no real filesystem does on
/// cue. An injection arms the **next `count` appends whose journal path
/// contains `path_contains`** to fail with the given OS error after the
/// frame is written, where a failed fsync strikes, so every injected
/// fault exercises [`Journal::append`]'s cut back to the committed
/// prefix. Scoping by path substring keeps
/// concurrently running tests (one process, many journals) from
/// consuming each other's faults.
#[doc(hidden)]
pub mod faults {
    use std::io;
    use std::path::Path;
    use std::sync::Mutex;

    struct Injection {
        path_contains: String,
        remaining: u32,
        errno: i32,
    }

    static INJECTED: Mutex<Vec<Injection>> = Mutex::new(Vec::new());

    /// Arms `count` append failures (OS error `errno`, e.g. 5 = EIO,
    /// 28 = ENOSPC) for journals whose path contains `path_contains`.
    pub fn inject_append_failures(path_contains: &str, count: u32, errno: i32) {
        INJECTED.lock().expect("poisoned").push(Injection {
            path_contains: path_contains.to_string(),
            remaining: count,
            errno,
        });
    }

    /// Disarms every injection.
    pub fn clear() {
        INJECTED.lock().expect("poisoned").clear();
    }

    pub(crate) fn take(path: &Path) -> Option<io::Error> {
        let mut injected = INJECTED.lock().expect("poisoned");
        let path = path.to_string_lossy();
        for inj in injected.iter_mut() {
            if inj.remaining > 0 && path.contains(&inj.path_contains) {
                inj.remaining -= 1;
                return Some(io::Error::from_raw_os_error(inj.errno));
            }
        }
        None
    }
}

/// An open journal, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// File length after the last acknowledged append (the gauge the
    /// telemetry sink reports as journal growth, and the length a failed
    /// append is cut back to).
    len: u64,
    /// A failed append's bytes could not be cut off: every later append
    /// is refused.
    torn: bool,
}

impl Journal {
    /// Creates a new journal at `path` (truncating any existing file)
    /// with the given header payload, fsync'd before returning.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be created or
    /// written, [`JournalError::Busy`] when another writer holds it.
    pub fn create(path: impl AsRef<Path>, header: &[u8]) -> Result<Journal, JournalError> {
        let path = path.as_ref();
        // Open *without* truncating, take the writer lock, and only then
        // clear the file: truncating first would destroy a live
        // journal's committed frames even though this call then fails
        // `Busy` — the active writer would keep appending into a
        // zero-filled hole.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| JournalError::io("create", path, e))?;
        lock_exclusive(&file, path)?;
        file.set_len(0)
            .map_err(|e| JournalError::io("truncate", path, e))?;
        file.write_all(&MAGIC)
            .map_err(|e| JournalError::io("write magic", path, e))?;
        write_frame(&mut file, header).map_err(|e| JournalError::io("write header", path, e))?;
        file.sync_all()
            .map_err(|e| JournalError::io("fsync", path, e))?;
        // Durability of the file itself, not just its contents: fsync
        // the parent directory so the new entry survives power loss
        // (without this, acknowledged appends can land in a file the
        // directory no longer names after a crash).
        sync_parent_dir(path)?;
        let len = (MAGIC.len() + FRAME_HEADER + header.len()) as u64;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            len,
            torn: false,
        })
    }

    /// Appends one record frame, flushed and fsync'd before returning —
    /// an acknowledged append is durable.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the write or sync fails. The
    /// file is then cut back to the committed prefix, byte for byte, so
    /// a retried append writes its frame once. If that cut fails too,
    /// this and every later append is refused, rather than written after
    /// bytes the journal could not remove.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        if self.torn {
            return Err(JournalError::io(
                "append",
                &self.path,
                io::Error::other("an earlier failed append could not be rolled back"),
            ));
        }
        let telemetry = spe_telemetry::global();
        let write_timer = spe_telemetry::Timer::start(&*telemetry);
        let written =
            write_frame(&mut self.file, payload).and_then(|()| match faults::take(&self.path) {
                Some(injected) => Err(injected),
                None => Ok(()),
            });
        if let Err(e) = written {
            return Err(self.roll_back("append", e));
        }
        let write_ns = write_timer.stop_nanos();
        let sync_timer = spe_telemetry::Timer::start(&*telemetry);
        if let Err(e) = self.file.sync_data() {
            return Err(self.roll_back("fsync", e));
        }
        self.len += (FRAME_HEADER + payload.len()) as u64;
        if telemetry.enabled() {
            use spe_telemetry::names;
            telemetry.histogram(names::JOURNAL_APPEND_NS, write_ns);
            telemetry.histogram(names::JOURNAL_FSYNC_NS, sync_timer.stop_nanos());
            telemetry.counter(names::JOURNAL_APPENDS, 1);
            telemetry.counter(
                names::JOURNAL_APPENDED_BYTES,
                (FRAME_HEADER + payload.len()) as u64,
            );
            telemetry.gauge(
                names::JOURNAL_LEN_BYTES,
                i64::try_from(self.len).unwrap_or(i64::MAX),
            );
        }
        Ok(())
    }

    /// Cuts the file back to the last acknowledged length and seeks
    /// there after a failed append; returns `cause` as the append's
    /// error. When the cut fails as well, the journal is marked torn.
    fn roll_back(&mut self, op: &'static str, cause: io::Error) -> JournalError {
        let len = self.len;
        let cut = self
            .file
            .set_len(len)
            .and_then(|()| self.file.seek(SeekFrom::Start(len)));
        if cut.is_err() {
            self.torn = true;
        }
        JournalError::io(op, &self.path, cause)
    }
}

/// Atomically replaces the journal at `dst` with the one at `tmp`:
/// fsync `tmp`'s contents, `rename(tmp, dst)` (atomic on POSIX — at
/// every instant `dst` names either the complete old journal or the
/// complete new one, never a mixture), then fsync the parent directory
/// so the rename itself survives power loss.
///
/// This is the commit point of journal compaction (`DESIGN.md` §11): a
/// crash before the rename leaves the original journal untouched (plus
/// a stray `tmp`, overwritten by the next compaction); a crash after it
/// leaves the compacted journal. Both are valid, resumable states.
///
/// # Errors
///
/// Returns [`JournalError::Io`] naming the failing operation and path.
pub fn promote(tmp: impl AsRef<Path>, dst: impl AsRef<Path>) -> Result<(), JournalError> {
    let (tmp, dst) = (tmp.as_ref(), dst.as_ref());
    File::open(tmp)
        .and_then(|f| f.sync_all())
        .map_err(|e| JournalError::io("fsync before promote", tmp, e))?;
    std::fs::rename(tmp, dst).map_err(|e| JournalError::io("promote rename", dst, e))?;
    sync_parent_dir(dst)
}

/// Fsyncs `path`'s parent directory (unix only) so directory-entry
/// changes — creation, rename — survive power loss.
fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| JournalError::io("fsync parent dir", dir, e))?;
    }
    Ok(())
}

/// Takes the writer's exclusive advisory lock on the journal file; held
/// until the [`Journal`] is dropped. A second writer — concurrent
/// resumes of one campaign from two processes, say — fails fast with
/// [`JournalError::Busy`] instead of interleaving frames that would
/// silently double-count work on replay.
fn lock_exclusive(file: &File, path: &Path) -> Result<(), JournalError> {
    file.try_lock().map_err(|e| match e {
        std::fs::TryLockError::WouldBlock => JournalError::Busy {
            path: path.to_path_buf(),
        },
        std::fs::TryLockError::Error(e) => JournalError::io("lock", path, e),
    })
}

fn write_frame(file: &mut File, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() as u64 <= MAX_PAYLOAD as u64,
        "journal frame payload too large"
    );
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    file.write_all(&frame)
}

/// Why the first invalid frame of a journal tail failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionReason {
    /// Fewer than 12 bytes remained — a frame header torn mid-write.
    TruncatedHeader,
    /// The length field exceeds the 1 GiB frame cap — a corrupted (or
    /// bit-flipped) header read as an absurd length.
    OversizedLength(u32),
    /// The header promised more payload bytes than the file holds — a
    /// payload torn mid-write.
    TruncatedPayload,
    /// The payload's FNV-1a hash does not match the frame header — a
    /// bit flip (in payload or header) inside a fully-written frame.
    ChecksumMismatch,
}

impl fmt::Display for CorruptionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionReason::TruncatedHeader => write!(f, "torn frame header"),
            CorruptionReason::OversizedLength(len) => {
                write!(f, "frame length {len} exceeds the payload cap")
            }
            CorruptionReason::TruncatedPayload => write!(f, "torn frame payload"),
            CorruptionReason::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

/// Triage of the point where a journal stopped validating: the byte
/// offset of the first invalid frame and the reason it failed. A torn
/// tail from a crash shows up as `TruncatedHeader`/`TruncatedPayload`
/// at the end of the file; a mid-journal bit flip shows up as
/// `ChecksumMismatch` (or `OversizedLength`) with everything after the
/// flipped frame dropped — either way the valid prefix is a consistent
/// state, and the offset tells an operator *where* the damage starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailCorruption {
    /// Byte offset of the first invalid frame (= the valid prefix
    /// length).
    pub offset: u64,
    /// Why that frame failed validation.
    pub reason: CorruptionReason,
}

impl fmt::Display for TailCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte offset {}", self.reason, self.offset)
    }
}

/// A streaming journal reader: yields one record frame at a time, so
/// replay memory is bounded by the largest single frame (plus the live
/// state the caller accumulates), never by journal size.
///
/// Iteration ends at the first invalid frame; [`JournalIter::corruption`]
/// then triages it (offset + reason), and
/// [`JournalIter::truncated_tail`] reports whether any bytes were
/// dropped. [`JournalIter::open_locked`] additionally takes the writer's
/// exclusive lock up front, and [`JournalIter::into_appender`] converts
/// the exhausted iterator into an appending [`Journal`] positioned at
/// the valid prefix — the resume paths in `spe_harness::checkpoint`
/// lock, replay, truncate, and append in **one streaming pass**.
///
/// # Examples
///
/// ```
/// use spe_persist::journal::{Journal, JournalIter};
///
/// let dir = std::env::temp_dir().join(format!("spe-journal-iter-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("stream.journal");
/// let mut j = Journal::create(&path, b"manifest")?;
/// j.append(b"one")?;
/// j.append(b"two")?;
/// drop(j);
///
/// let mut iter = JournalIter::open(&path)?;
/// assert_eq!(iter.header(), b"manifest");
/// let records: Vec<Vec<u8>> = (&mut iter).collect::<Result<_, _>>()?;
/// assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
/// assert!(!iter.truncated_tail());
/// assert!(iter.corruption().is_none());
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct JournalIter {
    reader: BufReader<File>,
    path: PathBuf,
    header: Vec<u8>,
    /// Offset just past the last valid frame read so far.
    valid_len: u64,
    file_len: u64,
    corruption: Option<TailCorruption>,
    fused: bool,
    locked: bool,
}

impl JournalIter {
    /// Opens the journal read-only (no writer lock) and validates the
    /// magic and header frame.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::BadMagic`] / [`JournalError::NoHeader`]
    /// when the file is not a journal, [`JournalError::Io`] on read
    /// failure.
    pub fn open(path: impl AsRef<Path>) -> Result<JournalIter, JournalError> {
        JournalIter::open_inner(path.as_ref(), false)
    }

    /// As [`JournalIter::open`], additionally taking the writer's
    /// exclusive lock for the iterator's lifetime — use when the scan
    /// precedes appending ([`JournalIter::into_appender`]) or a
    /// compaction rewrite, so no concurrent writer can extend the file
    /// between scan and write.
    ///
    /// # Errors
    ///
    /// As [`JournalIter::open`], plus [`JournalError::Busy`] when
    /// another writer holds the journal.
    pub fn open_locked(path: impl AsRef<Path>) -> Result<JournalIter, JournalError> {
        JournalIter::open_inner(path.as_ref(), true)
    }

    fn open_inner(path: &Path, locked: bool) -> Result<JournalIter, JournalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(locked)
            .open(path)
            .map_err(|e| JournalError::io("open", path, e))?;
        if locked {
            lock_exclusive(&file, path)?;
        }
        let file_len = file
            .metadata()
            .map_err(|e| JournalError::io("stat", path, e))?
            .len();
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 8];
        match reader.read_exact(&mut magic) {
            Ok(()) if magic == MAGIC => {}
            Ok(()) => {
                return Err(JournalError::BadMagic {
                    path: path.to_path_buf(),
                })
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(JournalError::BadMagic {
                    path: path.to_path_buf(),
                })
            }
            Err(e) => return Err(JournalError::io("read magic", path, e)),
        }
        let mut iter = JournalIter {
            reader,
            path: path.to_path_buf(),
            header: Vec::new(),
            valid_len: MAGIC.len() as u64,
            file_len,
            corruption: None,
            fused: false,
            locked,
        };
        match iter.read_frame() {
            Ok(Some(header)) => {
                iter.header = header;
                Ok(iter)
            }
            Ok(None) => Err(JournalError::NoHeader {
                path: path.to_path_buf(),
                corruption: iter.corruption,
            }),
            Err(e) => Err(e),
        }
    }

    /// The header frame's payload.
    pub fn header(&self) -> &[u8] {
        &self.header
    }

    /// The path the iterator was opened on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the valid prefix scanned so far (final once the
    /// iterator is exhausted).
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Whether bytes past the valid prefix will be (or were) dropped.
    /// Meaningful once the iterator is exhausted.
    pub fn truncated_tail(&self) -> bool {
        self.valid_len < self.file_len
    }

    /// Triage of the first invalid frame, if iteration stopped on one:
    /// its byte offset and the validation that failed. `None` while
    /// frames remain or when the journal ended cleanly on a frame
    /// boundary.
    pub fn corruption(&self) -> Option<&TailCorruption> {
        self.corruption.as_ref()
    }

    /// Converts an **exhausted, [`JournalIter::open_locked`]** iterator
    /// into an appending [`Journal`]: any invalid tail is physically
    /// truncated and the write position set to the valid prefix — the
    /// lock taken at open is carried over, so no other writer can have
    /// slipped in between scan and append.
    ///
    /// Remaining unread frames are drained (and validated) first, so
    /// calling this early cannot truncate valid records.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when draining, truncating, or
    /// seeking fails.
    ///
    /// # Panics
    ///
    /// Panics if the iterator was opened without the lock
    /// ([`JournalIter::open`]) — appending without the scan-time lock
    /// could truncate frames a concurrent writer committed.
    pub fn into_appender(mut self) -> Result<Journal, JournalError> {
        assert!(
            self.locked,
            "into_appender requires JournalIter::open_locked"
        );
        for record in &mut self {
            record?;
        }
        let path = self.path;
        let mut file = self.reader.into_inner();
        if self.valid_len < self.file_len {
            file.set_len(self.valid_len)
                .map_err(|e| JournalError::io("truncate torn tail", &path, e))?;
            file.sync_all()
                .map_err(|e| JournalError::io("fsync", &path, e))?;
        }
        file.seek(SeekFrom::Start(self.valid_len))
            .map_err(|e| JournalError::io("seek", &path, e))?;
        Ok(Journal {
            file,
            path,
            len: self.valid_len,
            torn: false,
        })
    }

    /// Reads and validates the frame at the current position. `Ok(None)`
    /// when no further valid frame exists (clean end or corruption —
    /// the latter recorded in `self.corruption`).
    fn read_frame(&mut self) -> Result<Option<Vec<u8>>, JournalError> {
        let mut header = [0u8; FRAME_HEADER];
        let mut got = 0usize;
        while got < header.len() {
            match self.reader.read(&mut header[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(JournalError::io("read frame header", &self.path, e)),
            }
        }
        if got < header.len() {
            if got > 0 || self.valid_len < self.file_len {
                self.corruption = Some(TailCorruption {
                    offset: self.valid_len,
                    reason: CorruptionReason::TruncatedHeader,
                });
            }
            return Ok(None);
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            self.corruption = Some(TailCorruption {
                offset: self.valid_len,
                reason: CorruptionReason::OversizedLength(len),
            });
            return Ok(None);
        }
        let checksum = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        // The length field is untrusted until the checksum passes: the
        // buffer grows with the bytes actually read, so a corrupt header
        // claiming up to 1 GiB costs no more memory than the file holds.
        let left = self
            .file_len
            .saturating_sub(self.valid_len + FRAME_HEADER as u64);
        let mut payload = Vec::with_capacity(left.min(u64::from(len)) as usize);
        (&mut self.reader)
            .take(u64::from(len))
            .read_to_end(&mut payload)
            .map_err(|e| JournalError::io("read frame payload", &self.path, e))?;
        if payload.len() < len as usize {
            self.corruption = Some(TailCorruption {
                offset: self.valid_len,
                reason: CorruptionReason::TruncatedPayload,
            });
            return Ok(None);
        }
        if fnv1a(&payload) != checksum {
            self.corruption = Some(TailCorruption {
                offset: self.valid_len,
                reason: CorruptionReason::ChecksumMismatch,
            });
            return Ok(None);
        }
        self.valid_len += (FRAME_HEADER + payload.len()) as u64;
        Ok(Some(payload))
    }
}

impl Iterator for JournalIter {
    type Item = Result<Vec<u8>, JournalError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        match self.read_frame() {
            Ok(Some(payload)) => Some(Ok(payload)),
            Ok(None) => {
                self.fused = true;
                None
            }
            Err(e) => {
                self.fused = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spe-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// A journal's valid prefix, streamed to the end.
    #[derive(Debug)]
    struct Prefix {
        header: Vec<u8>,
        records: Vec<Vec<u8>>,
        truncated_tail: bool,
        valid_len: u64,
    }

    fn read(path: &Path) -> Result<Prefix, JournalError> {
        let mut iter = JournalIter::open(path)?;
        let records = (&mut iter).collect::<Result<_, _>>()?;
        Ok(Prefix {
            header: iter.header().to_vec(),
            records,
            truncated_tail: iter.truncated_tail(),
            valid_len: iter.valid_len(),
        })
    }

    /// Reopens a journal for appending under the writer lock.
    fn reopen(path: &Path) -> Result<Journal, JournalError> {
        JournalIter::open_locked(path)?.into_appender()
    }

    #[test]
    fn roundtrip_header_and_records() {
        let path = temp_path("roundtrip.journal");
        let mut j = Journal::create(&path, b"header").unwrap();
        j.append(b"one").unwrap();
        j.append(b"").unwrap();
        j.append(&[0xff; 1000]).unwrap();
        drop(j);
        let c = read(&path).unwrap();
        assert_eq!(c.header, b"header");
        assert_eq!(c.records.len(), 3);
        assert_eq!(c.records[0], b"one");
        assert_eq!(c.records[1], b"");
        assert_eq!(c.records[2], vec![0xff; 1000]);
        assert!(!c.truncated_tail);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        let path = temp_path("torn.journal");
        let mut j = Journal::create(&path, b"h").unwrap();
        j.append(b"first record").unwrap();
        j.append(b"second record").unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Find where the second record's frame begins.
        let c = read(&path).unwrap();
        let second_start = full.len() - (FRAME_HEADER + b"second record".len());
        assert_eq!(c.valid_len, full.len() as u64);
        for cut in second_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let c = read(&path).unwrap();
            assert_eq!(c.records, vec![b"first record".to_vec()], "cut {cut}");
            assert!(c.truncated_tail, "cut {cut}");
            assert_eq!(c.valid_len as usize, second_start, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_checksum_stops_the_read() {
        let path = temp_path("corrupt.journal");
        let mut j = Journal::create(&path, b"h").unwrap();
        j.append(b"good").unwrap();
        j.append(b"flipped").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip a payload bit of the final record
        std::fs::write(&path, &bytes).unwrap();
        let c = read(&path).unwrap();
        assert_eq!(c.records, vec![b"good".to_vec()]);
        assert!(c.truncated_tail);
    }

    #[test]
    fn streaming_iter_triages_corruption_with_offset_and_reason() {
        let path = temp_path("triage.journal");
        let mut j = Journal::create(&path, b"h").unwrap();
        j.append(b"good record").unwrap();
        j.append(b"will be flipped").unwrap();
        j.append(b"lost after the flip").unwrap();
        drop(j);
        let clean = std::fs::read(&path).unwrap();
        // Offset of the second record's frame.
        let tail = [b"will be flipped".len(), b"lost after the flip".len()]
            .iter()
            .map(|l| FRAME_HEADER + l)
            .sum::<usize>();
        let second_start = clean.len() - tail;

        // Mid-journal payload bit flip: checksum mismatch at that frame,
        // later (individually valid) frames dropped with it.
        let mut bytes = clean.clone();
        bytes[second_start + FRAME_HEADER + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut iter = JournalIter::open(&path).unwrap();
        let records: Vec<Vec<u8>> = (&mut iter).collect::<Result<_, _>>().unwrap();
        assert_eq!(records, vec![b"good record".to_vec()]);
        assert!(iter.truncated_tail());
        let corruption = iter.corruption().expect("triaged");
        assert_eq!(corruption.offset, second_start as u64);
        assert_eq!(corruption.reason, CorruptionReason::ChecksumMismatch);

        // Length-field bit flip into an absurd frame size.
        let mut bytes = clean.clone();
        bytes[second_start + 3] ^= 0x80; // high byte of the u32 length
        std::fs::write(&path, &bytes).unwrap();
        let mut iter = JournalIter::open(&path).unwrap();
        assert_eq!((&mut iter).count(), 1);
        assert!(matches!(
            iter.corruption().expect("triaged").reason,
            CorruptionReason::OversizedLength(_)
        ));

        // Torn tail: header cut short.
        std::fs::write(&path, &clean[..second_start + 5]).unwrap();
        let mut iter = JournalIter::open(&path).unwrap();
        assert_eq!((&mut iter).count(), 1);
        let corruption = *iter.corruption().expect("triaged");
        assert_eq!(corruption.reason, CorruptionReason::TruncatedHeader);
        assert_eq!(corruption.offset, second_start as u64);

        // Torn tail: payload cut short.
        std::fs::write(&path, &clean[..second_start + FRAME_HEADER + 4]).unwrap();
        let mut iter = JournalIter::open(&path).unwrap();
        assert_eq!((&mut iter).count(), 1);
        assert_eq!(
            iter.corruption().expect("triaged").reason,
            CorruptionReason::TruncatedPayload
        );
        assert!(!format!("{}", iter.corruption().unwrap()).is_empty());
    }

    #[test]
    fn open_append_truncates_the_torn_tail() {
        let path = temp_path("reopen.journal");
        let mut j = Journal::create(&path, b"h").unwrap();
        j.append(b"kept").unwrap();
        drop(j);
        // Torn frame: plausible header, missing payload.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[10, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);
        let mut j = reopen(&path).unwrap();
        j.append(b"after crash").unwrap();
        drop(j);
        let c = read(&path).unwrap();
        assert_eq!(c.records, vec![b"kept".to_vec(), b"after crash".to_vec()]);
        assert!(!c.truncated_tail);
    }

    #[test]
    fn locked_iter_becomes_an_appender_in_one_pass() {
        let path = temp_path("iter-appender.journal");
        let mut j = Journal::create(&path, b"h").unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        drop(j);
        // Torn tail to be truncated by the appender conversion.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[99, 0, 0, 0, 9]).unwrap();
        drop(f);
        let mut iter = JournalIter::open_locked(&path).unwrap();
        let mut n = 0;
        for rec in &mut iter {
            rec.unwrap();
            n += 1;
        }
        assert_eq!(n, 2);
        // The lock is already held: a second writer fails Busy.
        assert!(matches!(reopen(&path), Err(JournalError::Busy { .. })));
        let mut j = iter.into_appender().unwrap();
        j.append(b"three").unwrap();
        drop(j);
        let c = read(&path).unwrap();
        assert_eq!(
            c.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert!(!c.truncated_tail);
    }

    #[test]
    fn a_second_writer_is_rejected_while_the_first_holds_the_journal() {
        let path = temp_path("locked.journal");
        let mut j = Journal::create(&path, b"h").unwrap();
        j.append(b"rec").unwrap();
        assert!(
            matches!(reopen(&path), Err(JournalError::Busy { .. })),
            "concurrent writers must fail fast"
        );
        // A racing `create` must also fail Busy — and must NOT have
        // damaged the live journal (truncation only happens under the
        // lock).
        assert!(matches!(
            Journal::create(&path, b"other"),
            Err(JournalError::Busy { .. })
        ));
        j.append(b"still fine").unwrap();
        drop(j); // releases the lock
        let c = read(&path).unwrap();
        assert_eq!(c.header, b"h", "live journal survived the racing create");
        assert_eq!(c.records, vec![b"rec".to_vec(), b"still fine".to_vec()]);
        let mut j2 = reopen(&path).unwrap();
        j2.append(b"after").unwrap();
        drop(j2);
        assert_eq!(read(&path).unwrap().records.len(), 3);
    }

    #[test]
    fn bad_magic_and_missing_header_are_errors() {
        let path = temp_path("magic.journal");
        std::fs::write(&path, b"not a journal at all").unwrap();
        assert!(matches!(read(&path), Err(JournalError::BadMagic { .. })));
        std::fs::write(&path, MAGIC).unwrap();
        assert!(matches!(
            read(&path),
            Err(JournalError::NoHeader {
                corruption: None,
                ..
            })
        ));
        assert!(reopen(&path).is_err());
    }

    #[test]
    fn a_corrupt_header_frame_is_triaged_not_read_as_missing() {
        let path = temp_path("corrupt-header.journal");
        drop(Journal::create(&path, b"manifest").unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        // One bit of the manifest payload, past the magic and the
        // frame's length and checksum.
        bytes[MAGIC.len() + FRAME_HEADER] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = read(&path).unwrap_err();
        let expected = TailCorruption {
            offset: MAGIC.len() as u64,
            reason: CorruptionReason::ChecksumMismatch,
        };
        match &err {
            JournalError::NoHeader { corruption, .. } => {
                assert_eq!(*corruption, Some(expected));
            }
            other => panic!("expected NoHeader, got {other:?}"),
        }
        let text = err.to_string();
        assert!(
            text.contains("checksum mismatch at byte offset 8"),
            "the error names the damage: {text}"
        );
    }

    #[test]
    fn errors_name_the_path_and_operation() {
        let path = temp_path("named-errors.journal");
        std::fs::write(&path, b"junk").unwrap();
        let err = read(&path).unwrap_err();
        assert!(
            err.to_string().contains("named-errors.journal"),
            "error names the file: {err}"
        );
        let missing = temp_path("does-not-exist.journal");
        std::fs::remove_file(&missing).ok();
        let err = JournalIter::open(&missing).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("open") && text.contains("does-not-exist.journal"),
            "I/O error names operation and path: {text}"
        );
    }

    #[test]
    fn injected_append_failures_surface_as_io_errors() {
        let path = temp_path("injected.journal");
        let mut j = Journal::create(&path, b"h").unwrap();
        j.append(b"before").unwrap();
        faults::inject_append_failures("injected.journal", 2, 28); // ENOSPC
        let err = j.append(b"fails").unwrap_err();
        match &err {
            JournalError::Io { op, source, .. } => {
                assert_eq!(*op, "append");
                assert_eq!(source.raw_os_error(), Some(28));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(j.append(b"fails too").is_err());
        // The injection budget is spent; appends recover, and the
        // committed prefix never saw the failed writes.
        j.append(b"after").unwrap();
        drop(j);
        let c = read(&path).unwrap();
        assert_eq!(c.records, vec![b"before".to_vec(), b"after".to_vec()]);
        faults::clear();
    }

    #[test]
    fn version_bump_invalidates_old_readers() {
        let path = temp_path("version.journal");
        Journal::create(&path, b"h").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = MAGIC[7] + 1; // future format version
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read(&path), Err(JournalError::BadMagic { .. })));
    }

    #[test]
    fn promote_atomically_replaces_a_journal() {
        let dst = temp_path("promote-dst.journal");
        let tmp = temp_path("promote-tmp.journal");
        let mut j = Journal::create(&dst, b"old").unwrap();
        j.append(b"old record").unwrap();
        drop(j);
        let mut j = Journal::create(&tmp, b"new").unwrap();
        j.append(b"new record").unwrap();
        drop(j);
        promote(&tmp, &dst).unwrap();
        assert!(!tmp.exists(), "tmp was renamed away");
        let c = read(&dst).unwrap();
        assert_eq!(c.header, b"new");
        assert_eq!(c.records, vec![b"new record".to_vec()]);
    }
}
