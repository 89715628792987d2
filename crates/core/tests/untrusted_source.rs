//! Untrusted source text never panics the front end: `lex`, `parse`,
//! `analyze`, `Skeleton::from_source` and `prepare` each return a value
//! or a typed error on arbitrary input.

use proptest::prelude::*;
use spe_core::{Algorithm, EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton};

/// C punctuation, digits, letters, quotes, `#`, whitespace and a few
/// bytes that are not ASCII (decoded lossily).
const SOURCE_BYTES: &[u8] =
    b"+-*/%<>=!~&|^(){}[];,?:. \t\n#'\"\\0123456789xuLabcdfgimnortvw_\xc3\xa9\xff\x80";

/// Statements and stray tokens of mini-C: most draws of these, placed in
/// a function body after [`PRELUDE`], get past the parser and the scope
/// analysis.
const SOURCE_PIECES: &[&str] = &[
    "a = b;",
    "b = a + g;",
    "x = y;",
    "g = a * b - g;",
    "*p = a;",
    "while (b) b = b - 1;",
    "if (a) a = b; else b = a;",
    "for (int i = 0; i < 2; i++) a = i;",
    "{ int c = a; c = c + b; }",
    "int d = a;",
    "d = d + a;",
    "return a;",
    "goto l;",
    "l: ;",
    "{",
    "}",
    "a",
    "=",
    ";",
    "(",
];

const PRELUDE: &str = "int g;\nint main() {\nint a, b = 1;\nint *p = &g;\ndouble x, y;\n";
/// Runs every front-end stage that its predecessor admits. A stage's
/// typed error ends the chain; a panic fails the property.
fn front_end(src: &str) {
    let _ = spe_minic::lexer::lex(src);
    if let Ok(program) = spe_minic::parse(src) {
        let _ = spe_minic::analyze(&program);
    }
    let Ok(sk) = Skeleton::from_source(src) else {
        return;
    };
    for algorithm in [
        Algorithm::Paper,
        Algorithm::Canonical,
        Algorithm::Orbit,
        Algorithm::Naive,
    ] {
        let config = EnumeratorConfig {
            algorithm,
            granularity: Granularity::Intra,
            budget: 50,
        };
        let _ = ShardedEnumerator::new(config, 2).prepare(&sk);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic_the_front_end(
        picks in proptest::collection::vec(0usize..SOURCE_BYTES.len(), 0..65)
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| SOURCE_BYTES[i]).collect();
        front_end(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_fragments_never_panic_the_front_end(
        picks in proptest::collection::vec(0usize..SOURCE_PIECES.len(), 0..24)
    ) {
        let body: Vec<&str> = picks.iter().map(|&i| SOURCE_PIECES[i]).collect();
        front_end(&format!("{PRELUDE}{}\n}}\n", body.join("\n")));
    }
}
