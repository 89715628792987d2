//! Byte-identity of the template render path against re-printing the
//! AST with the holes renamed, over every corpus seed skeleton, every
//! enumeration algorithm and sharded as well as serial streaming.
//!
//! The compiled [`RenderTemplate`](spe::skeleton::RenderTemplate) replaces
//! per-variant AST re-printing; the shard-determinism guarantees of the
//! engine only carry over if its output is byte-for-byte what printing
//! the renamed AST gives. Parsing a render must also give back exactly
//! that renamed AST: the campaign's splice cache starts from the
//! skeleton's own program instead of parsing a render.

use spe::core::{Algorithm, Enumerator, EnumeratorConfig, ShardedEnumerator, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::minic::ast::{OccId, Program};
use spe::minic::{parse, print_program};
use spe::skeleton::NameId;
use std::collections::HashMap;
use std::ops::ControlFlow;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Paper,
    Algorithm::Canonical,
    Algorithm::Orbit,
    Algorithm::Naive,
];

fn config(algorithm: Algorithm) -> EnumeratorConfig {
    EnumeratorConfig {
        algorithm,
        budget: 300,
        ..Default::default()
    }
}

/// The skeleton's program with hole `h` renamed to `names[h]`.
fn renamed(sk: &Skeleton, names: &[NameId]) -> Program {
    assert_eq!(names.len(), sk.num_holes(), "one name per hole");
    let occ_names: HashMap<OccId, &str> = sk
        .hole_occs()
        .zip(names)
        .map(|(occ, &n)| (occ, sk.names().name(n)))
        .collect();
    let mut program = sk.program().clone();
    program.for_each_ident_mut(&mut |id| {
        if let Some(name) = occ_names.get(&id.occ) {
            id.name = name.to_string();
        }
    });
    program
}

/// Renders every variant `algorithm` emits (up to `budget`) and checks
/// it against the renamed program, printed and parsed; returns how many
/// variants were checked.
fn check_renders(sk: &Skeleton, name: &str, algorithm: Algorithm, budget: usize) -> u64 {
    let mut buf = String::new();
    let mut checked = 0u64;
    let config = EnumeratorConfig {
        budget,
        ..config(algorithm)
    };
    Enumerator::new(config).enumerate(sk, &mut |v| {
        // Template path: compiled segments + interned names into a
        // reused buffer.
        v.render_into(sk, &mut buf);
        let expected = renamed(sk, &v.names);
        assert_eq!(
            buf,
            print_program(&expected),
            "render drift on {name} under {algorithm:?} at variant {}",
            v.index
        );
        assert!(
            parse(&buf).is_ok_and(|parsed| parsed == expected),
            "parsing variant {} of {name} under {algorithm:?} does not give back \
             the renamed skeleton",
            v.index
        );
        checked += 1;
        ControlFlow::Continue(())
    });
    checked
}

#[test]
fn template_render_matches_legacy_realize_for_every_seed_and_algorithm() {
    for file in seeds::all() {
        let sk = Skeleton::from_source(&file.source)
            .unwrap_or_else(|e| panic!("seed {} does not analyze: {e}", file.name));
        for algorithm in ALGORITHMS {
            let checked = check_renders(&sk, &file.name, algorithm, 300);
            assert!(checked > 0, "{}: {algorithm:?} emitted nothing", file.name);
        }
    }
}

#[test]
fn parsing_a_render_gives_back_the_renamed_skeleton_on_generated_files() {
    for seed in [1, 7] {
        let mut analyzed = 0;
        for file in generate(&CorpusConfig { files: 200, seed }) {
            let Ok(sk) = Skeleton::from_source(&file.source) else {
                continue;
            };
            analyzed += 1;
            check_renders(&sk, &file.name, Algorithm::Paper, 50);
        }
        assert!(
            analyzed > 100,
            "corpus seed {seed}: {analyzed} files analyze"
        );
    }
}

#[test]
fn identity_render_matches_printed_source_for_every_seed() {
    for file in seeds::all() {
        let sk = Skeleton::from_source(&file.source)
            .unwrap_or_else(|e| panic!("seed {} does not analyze: {e}", file.name));
        assert_eq!(sk.render(&[]), sk.source(), "seed {}", file.name);
        assert_eq!(
            sk.template().num_slots(),
            sk.num_holes(),
            "seed {} template must expose one slot per hole",
            file.name
        );
    }
}

#[test]
fn sharded_rendering_is_byte_identical_to_serial_for_every_seed() {
    for file in seeds::all() {
        let sk = Skeleton::from_source(&file.source)
            .unwrap_or_else(|e| panic!("seed {} does not analyze: {e}", file.name));
        for algorithm in ALGORITHMS {
            let serial = Enumerator::new(config(algorithm)).collect_sources(&sk);
            for shards in [2usize, 4] {
                // Every shard of one prepared space, concatenated in shard
                // order — what the campaign orchestrator streams.
                let sharded = ShardedEnumerator::new(config(algorithm), shards);
                let space = sharded.prepare(&sk);
                let mut merged = Vec::new();
                for shard in 0..shards {
                    sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                        merged.push(v.source(&sk));
                        ControlFlow::Continue(())
                    });
                }
                assert_eq!(
                    merged, serial,
                    "seed {} under {algorithm:?} with {shards} shards",
                    file.name
                );
            }
        }
    }
}
