//! `Clone::clone_from` on the mini-C AST, checked against equality.
//!
//! The wrong-code oracle refreshes one tree per job with `clone_from`
//! before each `-O1`+ pass run (DESIGN §13), and the AST's `clone_from`
//! reuses the target's boxes, strings and vectors wherever the two trees
//! have the same shape. Whatever the target held before, the result must
//! equal the source. The property runs over every ordered pair of a pool
//! of the paper seeds, generated programs and their `-O3` outputs, which
//! differ from their inputs exactly where the passes rewrote them.

use spe::corpus::{generate, seeds, CorpusConfig};
use spe::minic::ast::Program;
use spe::simcc::bugs::{registry, BugKind};
use spe::simcc::coverage::Coverage;
use spe::simcc::passes::{optimize, PassCtx};

/// The parsed seeds and `generated` files at `seed`, each followed by
/// its `-O3` output with every wrong-code defect armed.
fn pool(seed: u64, generated: usize) -> Vec<Program> {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: generated,
        seed,
    }));
    let wrong_code: Vec<_> = registry()
        .iter()
        .filter(|b| matches!(b.kind, BugKind::WrongCode))
        .collect();
    let mut out = Vec::new();
    for file in files {
        let Ok(p) = spe::minic::parse(&file.source) else {
            continue;
        };
        let mut ctx = PassCtx {
            opt: 3,
            wrong_code: wrong_code.clone(),
            coverage: &mut Coverage::off(),
            miscompiled_by: Vec::new(),
        };
        let optimized = optimize(&p, &mut ctx).into_owned();
        out.push(p);
        out.push(optimized);
    }
    out
}

#[test]
fn clone_from_equals_the_source_on_every_ordered_pair() {
    for seed in [1, 7] {
        let programs = pool(seed, 24);
        assert!(
            programs.len() > 40,
            "seed {seed}: pool of {}",
            programs.len()
        );
        let mut rewritten = 0;
        for (i, b) in programs.iter().enumerate() {
            for (j, a) in programs.iter().enumerate() {
                let mut target = a.clone();
                target.clone_from(b);
                assert!(
                    target == *b,
                    "seed {seed}: program {j} refreshed from program {i} differs:\n{}\nvs\n{}",
                    spe::minic::print_program(&target),
                    spe::minic::print_program(b)
                );
            }
            rewritten += usize::from(i % 2 == 1 && programs[i - 1] != *b);
        }
        assert!(rewritten > 0, "seed {seed}: -O3 rewrote no program");
    }
}

#[test]
fn clone_from_keeps_the_buffers_of_a_tree_of_the_same_shape() {
    let a = "int a, b; int main() { int x = a + b; return x; }";
    let b = "int c, d; int main() { int y = d + c; return y; }";
    let mut target = spe::minic::parse(a).expect("parses");
    let source = spe::minic::parse(b).expect("parses");
    let body = |p: &Program| match &p.items[1] {
        spe::minic::ast::Item::Func(f) => f.body.as_ptr(),
        _ => unreachable!("the second item is main"),
    };
    let before = body(&target);
    target.clone_from(&source);
    assert_eq!(target, source);
    assert_eq!(body(&target), before, "the body vector was reallocated");
}
