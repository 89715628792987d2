//! Resume memory is bounded by **live job state**, not journal size:
//! the resume path replays through the streaming [`JournalIter`], so a
//! multi-thousand-frame journal must replay in a small, flat footprint,
//! while collecting the same journal's records into memory necessarily
//! allocates it whole.
//!
//! One test, alone in its binary: the measurement uses the
//! process-global counting allocator of `tests/counting`, and sibling
//! tests would pollute the peaks.

mod counting;

use counting::measure;
use spe::harness::checkpoint::{
    resume_campaign, run_campaign_checkpointed, CampaignStatus, CheckpointOptions,
};
use spe::harness::CampaignConfig;
use spe::persist::JournalIter;

/// A straight-line program with eight candidate variables feeding many
/// holes: its canonical variant space dwarfs any budget this test uses,
/// so the checkpointed run emits exactly `budget` variants.
const WIDE_SOURCE: &str = "int main() {
    int a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6, h = 7;
    a = b + c;
    d = e + f;
    g = h + a;
    b = c + d;
    e = f + g;
    h = a + b;
    c = d + e;
    f = g + h;
    return a + b;
}
";

#[test]
fn streaming_resume_stays_flat_over_a_multi_thousand_frame_journal() {
    let files = vec![spe::corpus::TestFile {
        name: "wide.c".into(),
        source: WIDE_SOURCE.into(),
    }];
    // No compilers: each variant only parses, so the journal grows by
    // one counter-only `Progress` frame per variant (`every: 1`) at
    // negligible compute cost — frame *count* is what this test needs.
    let config = CampaignConfig {
        compilers: vec![],
        budget: 5_000,
        algorithm: spe::core::Algorithm::Paper,
        check_wrong_code: false,
        fuel: 1_000,
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("resume-memory");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("wide.journal");
    let status = run_campaign_checkpointed(
        &files,
        &config,
        1,
        &path,
        &CheckpointOptions {
            every: 1,
            stop_after: None,
        },
    )
    .expect("checkpointed run");
    assert!(matches!(status, CampaignStatus::Complete(_)));

    // Count frames by streaming — materializing here would defeat the
    // point of a memory test.
    let mut frames = 0usize;
    for record in JournalIter::open(&path).expect("open") {
        record.expect("valid frame");
        frames += 1;
    }
    assert!(frames > 3_000, "journal is multi-thousand-frame: {frames}");
    let journal_bytes = std::fs::metadata(&path).expect("metadata").len() as usize;

    // Materializing the journal allocates at least the whole record set.
    let (records, read_peak) = measure(|| {
        JournalIter::open(&path)
            .expect("open")
            .collect::<Result<Vec<_>, _>>()
            .expect("read")
    });
    assert_eq!(records.len(), frames);
    drop(records);

    // The streaming resume replays the same frames with a peak bounded
    // by live job state (one job here), far under both the materialized
    // read and the journal's own size.
    let (resumed, resume_peak) =
        measure(|| resume_campaign(&path, 1, &CheckpointOptions::default()).expect("resume"));
    let report = match resumed {
        CampaignStatus::Complete(report) => report,
        CampaignStatus::Interrupted => panic!("finished journal replays to completion"),
    };
    assert_eq!(report.files_processed, 1);
    drop(report);

    assert!(
        resume_peak * 2 < read_peak,
        "streaming resume ({resume_peak} B peak) must stay well under the \
         materializing read ({read_peak} B peak) over {frames} frames"
    );
    assert!(
        resume_peak < journal_bytes,
        "resume peak ({resume_peak} B) must not scale with the journal \
         ({journal_bytes} B on disk)"
    );
    assert!(
        resume_peak < 256 * 1024,
        "resume peak ({resume_peak} B) exceeds the live-state bound"
    );
    std::fs::remove_file(&path).ok();
}
