//! Bug hunting: differential-test the simulated trunk compilers with SPE
//! variants of the paper's own figure programs (§2 and Figure 11).
//!
//! Run with `cargo run --example bug_hunt`.

use spe::core::Algorithm;
use spe::harness::{Campaign, CampaignConfig};
use spe::simcc::{Compiler, CompilerId};

fn main() {
    let files = spe::corpus::seeds::all();
    println!("Hunting bugs in {} seed skeletons...\n", files.len());
    let report = Campaign::default().run(
        &files,
        &CampaignConfig {
            compilers: vec![
                Compiler::new(CompilerId::gcc(700), 0),
                Compiler::new(CompilerId::gcc(700), 3),
                Compiler::new(CompilerId::clang(390), 0),
                Compiler::new(CompilerId::clang(390), 3),
            ],
            budget: 300,
            algorithm: Algorithm::Paper,
            check_wrong_code: true,
            fuel: 50_000,
        },
    );
    println!(
        "{} variants tested, {} skipped by the UB oracle, {} reports ({} duplicates)\n",
        report.variants_tested,
        report.variants_ub_skipped,
        report.findings.len(),
        report.duplicates(),
    );
    for f in &report.findings {
        println!(
            "[{}] {} at -O{}: {}",
            f.kind.label(),
            f.compiler,
            f.opt,
            f.signature
        );
        if let Some(bug) = f.bug_id {
            println!("    root cause (triaged): {bug}  [from {}]", f.file);
        }
    }
}
