//! Golden digest of the simulated compiler's execution layer.
//!
//! The identity suites (`oracle_identity`, `backend_identity`, …) compare
//! two campaign paths that share one pass pipeline, one VM and one
//! reference interpreter, so a behaviour change inside that layer would
//! pass them unnoticed. This test pins the layer itself: for every
//! enumerated variant of the paper seeds and of a generated corpus sample,
//! under every optimization level and every wrong-code defect in
//! isolation, it folds the optimized program, the triggered defects, the
//! coverage, the lowered image, the VM run and the reference run into one
//! FNV-1a digest.
//!
//! `gcc-samevar6-wc` is left out: its victim choice is pinned by its own
//! determinism test in `spe-simcc`'s pass tests.

use spe::core::{Algorithm, Enumerator, EnumeratorConfig, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::minic::ast::Program;
use spe::simcc::bugs::{registry, BugKind, BugSpec};
use spe::simcc::coverage::Coverage;
use spe::simcc::{interp, passes, reference_limits, vm};
use std::ops::ControlFlow;

/// The digest recorded when the reference's head check began to follow
/// a loop's slice (array-element writes, goto back-edges and slices that
/// repeat): 12 of the 1003 reference runs changed from `FuelExhausted`
/// to `NonTerminating`, and nothing else moved. Before that it was
/// `0x3b68_7f07_f7e1_9617`, recorded when the reference learned to stop
/// loops that cannot exit (`Ub::NonTerminating`, 6 runs moved), and
/// before that `0x8abb_d63d_9750_f45b`.
const GOLDEN: u64 = 0x578a_67c7_df4d_9e37;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Every variant (Paper algorithm, budget 50) of the six paper seeds and
/// of the first 20 generated files at seed 42, parsed.
fn programs() -> Vec<Program> {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 20,
        seed: 42,
    }));
    let enumerator = Enumerator::new(EnumeratorConfig {
        algorithm: Algorithm::Paper,
        budget: 50,
        ..Default::default()
    });
    let mut out = Vec::new();
    for file in &files {
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            continue;
        };
        enumerator.enumerate(&sk, &mut |v| {
            if let Ok(p) = spe::minic::parse(&v.source(&sk)) {
                out.push(p);
            }
            ControlFlow::Continue(())
        });
    }
    out
}

fn digest_case(h: &mut Fnv, p: &Program, opt: u8, wrong_code: Vec<&BugSpec>) {
    let mut coverage = Coverage::new();
    let mut ctx = passes::PassCtx {
        opt,
        wrong_code,
        coverage: &mut coverage,
        miscompiled_by: Vec::new(),
    };
    let optimized = passes::optimize(p, &mut ctx);
    let miscompiled_by = std::mem::take(&mut ctx.miscompiled_by);
    h.write(spe::minic::print_program(&optimized).as_bytes());
    h.write(format!("{miscompiled_by:?}").as_bytes());
    h.write(&coverage.points_hit().to_le_bytes());
    let image = vm::lower(&optimized);
    h.write(format!("{image:?}").as_bytes());
    if let Ok(image) = image {
        h.write(format!("{:?}", vm::execute(&image, 80_000)).as_bytes());
    }
}

#[test]
fn execution_layer_matches_its_golden_digest() {
    let bugs: Vec<&BugSpec> = registry()
        .iter()
        .filter(|b| b.kind == BugKind::WrongCode && b.id != "gcc-samevar6-wc")
        .collect();
    assert_eq!(bugs.len(), 4, "wrong-code registry changed");
    let programs = programs();
    assert!(programs.len() > 500, "only {} programs", programs.len());

    let mut h = Fnv::new();
    for p in &programs {
        h.write(format!("{:?}", interp::run(p, reference_limits(20_000))).as_bytes());
        for opt in 0..=3 {
            digest_case(&mut h, p, opt, Vec::new());
            for &bug in &bugs {
                digest_case(&mut h, p, opt, vec![bug]);
            }
        }
    }
    assert_eq!(h.0, GOLDEN, "execution-layer digest {:#018x}", h.0);
}
