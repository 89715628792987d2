//! A frame header's length field is untrusted until the payload's
//! checksum passes: a journal whose record claims 1 GiB but holds a few
//! bytes must be triaged as a torn payload without allocating the
//! claimed length.
//!
//! One test, alone in its binary: the measurement uses a process-global
//! counting allocator, and sibling tests would pollute the peak.

use spe_persist::{CorruptionReason, Journal, JournalIter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator with live/peak byte counters.
struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(p, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_frame_claiming_a_gigabyte_is_triaged_without_allocating_it() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("frame-memory");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("lying-length.journal");
    drop(Journal::create(&path, b"manifest").expect("create"));
    let header_end = std::fs::metadata(&path).expect("metadata").len();
    // A record frame whose length field claims the 1 GiB cap, followed
    // by a few payload bytes.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open for append");
    f.write_all(&(1u32 << 30).to_le_bytes()).expect("length");
    f.write_all(&0u64.to_le_bytes()).expect("checksum");
    f.write_all(b"0123456789").expect("payload");
    drop(f);

    let baseline = CURRENT.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let mut iter = JournalIter::open(&path).expect("open");
    assert!(iter.next().is_none(), "the lying frame is not a record");
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);

    let corruption = *iter.corruption().expect("triaged");
    assert_eq!(corruption.reason, CorruptionReason::TruncatedPayload);
    assert_eq!(corruption.offset, header_end);
    assert!(
        peak < 1 << 20,
        "reading a {}-byte journal peaked at {peak} bytes",
        header_end + 22
    );
    std::fs::remove_file(&path).ok();
}
