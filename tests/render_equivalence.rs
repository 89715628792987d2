//! Byte-identity of the template render path against the legacy realize
//! path, over every corpus seed skeleton, every enumeration algorithm and
//! sharded as well as serial streaming.
//!
//! The compiled [`RenderTemplate`](spe::skeleton::RenderTemplate) replaces
//! per-variant AST re-printing; the shard-determinism guarantees of the
//! engine only carry over if its output is byte-for-byte the old
//! `Skeleton::realize` output. This suite is the differential oracle.

use spe::core::{Algorithm, Enumerator, EnumeratorConfig, ShardedEnumerator, Skeleton};
use spe::corpus::seeds;
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

#[test]
fn template_render_matches_legacy_realize_for_every_seed_and_algorithm() {
    for file in seeds::all() {
        let sk = Skeleton::from_source(&file.source)
            .unwrap_or_else(|e| panic!("seed {} does not analyze: {e}", file.name));
        for algorithm in ALGORITHMS {
            let mut buf = String::new();
            let mut checked = 0u64;
            Enumerator::new(config(algorithm)).enumerate(&sk, &mut |v| {
                // Template path: compiled segments + interned names into a
                // reused buffer.
                v.render_into(&sk, &mut buf);
                // Legacy path: occurrence-keyed string map + AST re-walk.
                let legacy = sk.realize(&sk.rename_map(&v.names));
                assert_eq!(
                    buf, legacy,
                    "render drift on seed {} under {algorithm:?} at variant {}",
                    file.name, v.index
                );
                checked += 1;
                ControlFlow::Continue(())
            });
            assert!(checked > 0, "{}: {algorithm:?} emitted nothing", file.name);
        }
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
