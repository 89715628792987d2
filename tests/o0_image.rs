//! The wrong-code oracle's `-O0` image, checked against plain lowering.
//!
//! `CachedOracle` lowers `-O0` once per job, logging each hole site, and
//! serves every later variant by re-aiming the sites whose hole changed
//! (DESIGN §13). Every image it serves (`CachedOracle::o0_image`) must
//! equal `vm::lower` of the parsed variant, and it must reject exactly
//! the variants `vm::lower` rejects. The corpus runs cover every Paper
//! budget-50 variant of the seeds and of 40 generated files, at one and
//! at two shards per file; the fixtures spell each hole with every name
//! to reach each branch: a name that resolves nowhere, an object of
//! another size, a local that shadows a global, holes in global `&x`
//! initializers, and programs that no spelling of their holes lowers.

use spe::core::{Algorithm, EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig, TestFile};
use spe::minic::ast::{OccId, Program};
use spe::simcc::incremental::{CacheStats, CachedOracle};
use spe::simcc::{vm, Compiler, CompilerId};
use std::ops::ControlFlow;

const FUEL: u64 = 20_000;

fn compilers() -> [Compiler; 2] {
    [
        Compiler::new(CompilerId::gcc(485), 0),
        Compiler::new(CompilerId::clang(360), 0),
    ]
}

/// Checks the served `-O0` image of every variant of `files` (Paper,
/// budget 50, `shards` shards per file, one oracle per (file, shard)
/// job) against `vm::lower` of the parsed variant; returns the summed
/// `-O0` counters and the number of jobs.
fn images_match_lowering(files: &[TestFile], shards: usize) -> (CacheStats, u64) {
    let enumerator = ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm: Algorithm::Paper,
            granularity: Granularity::Intra,
            budget: 50,
        },
        shards,
    );
    let (mut total, mut jobs) = (CacheStats::default(), 0);
    for file in files {
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            continue;
        };
        let space = enumerator.prepare(&sk);
        let occs: Vec<_> = sk.hole_occs().collect();
        for shard in 0..shards {
            let mut cache =
                CachedOracle::new(sk.program().clone(), &occs, &compilers(), true, FUEL)
                    .expect("every hole is a use site of its skeleton");
            let mut prev = Vec::new();
            let mut changed = Vec::new();
            enumerator.enumerate_shard_prepared(&space, shard, &mut |v| {
                let names: Vec<&str> = v.names.iter().map(|&id| sk.names().name(id)).collect();
                v.changed_holes_into(&prev, &mut changed);
                prev.clone_from(&v.names);
                let served = cache.o0_image(&names, Some(&changed));
                let src = v.source(&sk);
                let lowered = vm::lower(&spe::minic::parse(&src).expect("variants parse")).ok();
                assert!(
                    served == lowered,
                    "{} shard {shard}:\n{src}\nserved {served:?}\nlowered {lowered:?}",
                    file.name
                );
                ControlFlow::Continue(())
            });
            add(&mut total, cache.stats());
            jobs += 1;
        }
    }
    (total, jobs)
}

fn add(total: &mut CacheStats, s: CacheStats) {
    total.o0_patched += s.o0_patched;
    total.o0_lowered += s.o0_lowered;
}

#[test]
fn served_images_equal_lowering_on_every_variant() {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig { files: 40, seed: 1 }));
    for shards in [1, 2] {
        let (stats, jobs) = images_match_lowering(&files, shards);
        // A job lowers in full to make its template, and again only while
        // its variants do not lower at all: a struct seed's, or a
        // shard's first few Paper variants that name a variable before
        // its declaration.
        assert!(
            stats.o0_patched > 1_500 && stats.o0_lowered < jobs * 6 / 5,
            "{shards} shards over {jobs} jobs: {stats:?}"
        );
    }
}

/// Every use site of `p`, in walk order.
fn use_sites(p: &Program) -> Vec<OccId> {
    let mut occs = Vec::new();
    p.clone().for_each_ident_mut(&mut |id| occs.push(id.occ));
    occs
}

/// `p` with use site `i` (in walk order) spelled `names[i]`.
fn respelled(p: &Program, names: &[&str]) -> Program {
    let mut q = p.clone();
    let mut i = 0;
    q.for_each_ident_mut(&mut |id| {
        id.name = names[i].to_string();
        i += 1;
    });
    q
}

/// Each fixture makes every use site a hole and respells one hole at a
/// time with every name of its pool and then back, as a job's delta
/// would, comparing each served image with `vm::lower`. Returns the
/// oracle's counters.
fn check_fixture(src: &str, pool: &[&str]) -> CacheStats {
    let prog = spe::minic::parse(src).expect("fixture parses");
    let holes = use_sites(&prog);
    let mut cache = CachedOracle::new(prog.clone(), &holes, &compilers(), true, FUEL)
        .expect("every use site is an identifier");
    let base: Vec<String> = {
        let mut names = Vec::new();
        prog.clone()
            .for_each_ident_mut(&mut |id| names.push(id.name.clone()));
        names
    };
    let mut prev: Vec<&str> = base.iter().map(String::as_str).collect();
    for h in 0..holes.len() {
        let back = prev[h];
        for name in pool.iter().copied().chain([back]) {
            let mut names = prev.clone();
            names[h] = name;
            let changed: Vec<usize> = (0..holes.len()).filter(|&i| names[i] != prev[i]).collect();
            let served = cache.o0_image(&names, Some(&changed));
            let lowered = vm::lower(&respelled(&prog, &names)).ok();
            assert!(
                served == lowered,
                "hole {h} spelled {name} in {src}\nserved {served:?}\nlowered {lowered:?}"
            );
            prev = names;
        }
    }
    cache.stats()
}

#[test]
fn served_images_equal_lowering_on_every_branch() {
    // A name that resolves nowhere: `unsupported`, as lowering says.
    let s = check_fixture(
        "int a, b; int main() { int c = 1; a = c; return b; }",
        &["a", "b", "c", "zz"],
    );
    assert_eq!(s.o0_lowered, 1, "{s:?}");
    // An array where the template holds a scalar, and back: another size
    // lowers in full, loaded or decayed.
    let s = check_fixture(
        "int a, u[4]; int main() { int *p = &a; u[1] = 2; return a + *p + u[1]; }",
        &["a", "u", "p"],
    );
    assert!(s.o0_lowered > 1 && s.o0_patched > 0, "{s:?}");
    // Locals that shadow globals, in nested scopes and in a loop scope
    // that has ended: the site resolves where it stands.
    let s = check_fixture(
        "int a, b;
         int f(int b) { return a + b; }
         int main() {
             int a = 2;
             { int b = 3; a = b; }
             for (int b = 0; b < 2; b++) a = a + b;
             return a + b + f(a);
         }",
        &["a", "b"],
    );
    assert_eq!(s.o0_lowered, 1, "{s:?}");
    // Holes in global `&x` initializers: a whole cell, an initializer
    // list, an address with arithmetic on it, and a global initialized
    // twice, whose first initializer the second overwrites.
    let s = check_fixture(
        "int a, b, c[2];
         int *p = &a;
         int *q[2] = {&b, &a};
         int *r = &c + 1;
         int *t = &a;
         int *t = &b;
         int main() { return *p + *q[0] + *t; }",
        &["a", "b", "c", "zz"],
    );
    assert!(s.o0_lowered > 1 && s.o0_patched > 0, "{s:?}");
}

// A program that fails to lower for a reason no hole changes is lowered
// once per job; every later variant is `unsupported` without lowering.

#[test]
fn a_struct_definition_is_lowered_once_per_job() {
    let s = check_fixture(
        "struct s { int x; }; int a, b; int main() { int c = 1; a = c; return b; }",
        &["a", "b", "c", "zz"],
    );
    assert_eq!(s.o0_lowered, 1, "{s:?}");
}

#[test]
fn a_call_to_an_undefined_function_is_lowered_once_per_job() {
    let s = check_fixture(
        "int a, b; int main() { int c = f(a); return b + c; }",
        &["a", "b", "c", "zz"],
    );
    assert_eq!(s.o0_lowered, 1, "{s:?}");
}
