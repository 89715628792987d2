//! Determinism of the parallel campaign: for any worker count, the merged
//! report must be byte-identical to the serial one — same findings in the
//! same order with the same reproducers, same counters, same triage
//! tables.

use spe_corpus::{generate, CorpusConfig};
use spe_harness::{run_campaign_parallel, Campaign, CampaignConfig};
use spe_simcc::{Compiler, CompilerId};

fn config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 48,
        algorithm: spe_core::Algorithm::Paper,
        check_wrong_code: true,
        fuel: 20_000,
    }
}

#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    // A 10-file generated corpus; the fixed seed keeps the workload
    // meaningful (several files expose seeded bugs) and reproducible.
    let files = generate(&CorpusConfig { files: 10, seed: 7 });
    assert_eq!(files.len(), 10);
    let config = config();
    let serial = Campaign::default().run(&files, &config);
    assert!(
        serial.files_processed >= 8,
        "most generated files should analyze, got {}",
        serial.files_processed
    );
    assert!(serial.variants_tested > 0);
    for workers in [1usize, 2, 4] {
        let parallel = run_campaign_parallel(&files, &config, workers);
        assert_eq!(
            parallel, serial,
            "{workers}-worker campaign diverged from serial"
        );
    }
}

#[test]
fn parallel_campaign_matches_on_the_paper_seed_corpus() {
    let files = spe_corpus::seeds::all();
    let config = config();
    let serial = Campaign::default().run(&files, &config);
    assert!(
        !serial.findings.is_empty(),
        "the seed corpus exposes seeded compiler bugs"
    );
    for workers in [2usize, 4] {
        let parallel = run_campaign_parallel(&files, &config, workers);
        assert_eq!(parallel, serial, "{workers} workers");
        // The rendered triage table is a function of the findings, so it
        // is identical too; spot-check the derived orderings used there.
        let serial_sigs: Vec<_> = serial
            .findings
            .iter()
            .map(|f| (&f.file, &f.compiler.family, &f.signature))
            .collect();
        let parallel_sigs: Vec<_> = parallel
            .findings
            .iter()
            .map(|f| (&f.file, &f.compiler.family, &f.signature))
            .collect();
        assert_eq!(serial_sigs, parallel_sigs);
    }
}

#[test]
fn worker_counts_beyond_the_workload_are_safe() {
    let files = generate(&CorpusConfig { files: 2, seed: 3 });
    let config = config();
    let serial = Campaign::default().run(&files, &config);
    let parallel = run_campaign_parallel(&files, &config, 16);
    assert_eq!(parallel, serial);
}
