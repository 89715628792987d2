//! Append-only, versioned, crash-safe on-disk journals.
//!
//! Long SPE campaigns (the paper's Table 2 reports multi-day enumeration
//! budgets) must survive crashes and preemption. This crate provides the
//! persistence substrate the harness builds checkpointable campaigns on
//! (`spe_harness::checkpoint`): a [`journal`] of fsync'd, checksummed
//! record frames plus a dependency-free binary [`codec`] for the record
//! payloads. `DESIGN.md` §9 documents the format and the argument for why
//! resuming from a journal reproduces a byte-identical final report.
//!
//! Like the rest of the workspace, the crate has **no external
//! dependencies** (mirroring the `vendor/` shim policy): framing,
//! checksumming and serialization are implemented here directly. The
//! only in-workspace dependency is `spe-telemetry`, through whose
//! process-global sink each append reports its write/fsync latency
//! and the journal's growth (a no-op unless a sink is installed).
//!
//! # Journal format
//!
//! A journal file is a magic string, a version byte, one *header* frame,
//! and any number of *record* frames. Every frame is
//! `[u32 LE payload length][u64 LE FNV-1a of payload][payload bytes]`,
//! and every append is flushed and fsync'd before it is acknowledged. A
//! torn tail frame — the visible form of a crash mid-append — fails its
//! length or checksum test and is dropped on read, so the journal's
//! valid prefix is always a consistent campaign state.
//!
//! [`JournalIter`] is the one reader: it streams one frame at a time,
//! so replay memory is bounded by the largest frame, not the journal.
//! It can carry the writer lock from scan into append
//! ([`JournalIter::into_appender`]) or into a compaction rewrite
//! committed by [`journal::promote`]'s atomic rename (`DESIGN.md` §11).
//!
//! The example below is the runnable form of the `DESIGN.md` §9 format
//! walkthrough (CI runs it as a doctest):
//!
//! ```
//! use spe_persist::journal::{Journal, JournalIter};
//!
//! let dir = std::env::temp_dir().join(format!("spe-journal-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("campaign.journal");
//!
//! // Create: magic + version + one header frame, fsync'd.
//! let mut j = Journal::create(&path, b"manifest: files, config, shards")?;
//! j.append(b"progress: job 0, emitted 1024, 2 findings")?;
//! j.append(b"progress: job 0, emitted 1500, done")?;
//! drop(j);
//!
//! // Simulate a crash mid-append: a torn half-frame at the tail.
//! use std::io::Write;
//! let mut f = std::fs::OpenOptions::new().append(true).open(&path)?;
//! f.write_all(&[0x2a, 0x00, 0x00, 0x00, 0xde, 0xad])?; // length says 42, bytes missing
//! drop(f);
//!
//! // Read: the valid prefix survives, the torn tail is reported + dropped.
//! let mut iter = JournalIter::open(&path)?;
//! assert_eq!(iter.header(), b"manifest: files, config, shards");
//! assert_eq!((&mut iter).collect::<Result<Vec<_>, _>>()?.len(), 2);
//! assert!(iter.truncated_tail());
//!
//! // Re-opening for append under the writer lock truncates the torn
//! // tail first, so new records land on a frame boundary.
//! let mut j = JournalIter::open_locked(&path)?.into_appender()?;
//! j.append(b"progress: job 1, emitted 512")?;
//! drop(j);
//! let mut iter = JournalIter::open(&path)?;
//! assert_eq!((&mut iter).count(), 3);
//! assert!(!iter.truncated_tail());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod journal;

pub use codec::{DecodeError, Decoder, Encoder};
pub use journal::{CorruptionReason, Journal, JournalError, JournalIter, TailCorruption};
