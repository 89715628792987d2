//! The byte-matching lexer against a reference copy of the linear-scan
//! lexer it replaced: token kinds, positions and errors must agree on
//! every input, which pins longest-first punctuator matching.

use proptest::prelude::*;
use spe_minic::lexer::{lex, LexError, Pos, Tok};

/// An owned token kind, as the reference lexer produced it.
#[derive(Debug, Clone, PartialEq)]
enum RefTok {
    Ident(String),
    Int(i64),
    Char(u8),
    Str(String),
    Punct(&'static str),
    Eof,
}

type Lexed = Result<Vec<(RefTok, Pos)>, LexError>;

const PUNCTS3: &[&str] = &["<<=", ">>="];
const PUNCTS2: &[&str] = &[
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "->", "++", "--",
];
const PUNCTS1: &[&str] = &[
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^", "(", ")", "{", "}", "[", "]",
    ";", ",", "?", ":", ".",
];

/// The reference: the linear-scan lexer, owned tokens and all.
fn reference_lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let mut out = Vec::new();

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let pos = Pos { line, col };
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                bump!();
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            pos,
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
            }
            b'0'..=b'9' => {
                let start = i;
                let v = if c == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 32) == b'x' {
                    bump!();
                    bump!();
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        bump!();
                    }
                    i64::from_str_radix(&src[start + 2..i], 16).map_err(|e| LexError {
                        message: format!("bad hex literal: {e}"),
                        pos,
                    })?
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        bump!();
                    }
                    src[start..i].parse().map_err(|e| LexError {
                        message: format!("bad integer literal: {e}"),
                        pos,
                    })?
                };
                while i < bytes.len() && matches!(bytes[i] | 32, b'u' | b'l') {
                    bump!();
                }
                out.push((RefTok::Int(v), pos));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    bump!();
                }
                out.push((RefTok::Ident(src[start..i].to_string()), pos));
            }
            b'\'' => {
                bump!();
                if i >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated char literal".into(),
                        pos,
                    });
                }
                let v = if bytes[i] == b'\\' {
                    bump!();
                    let esc = bytes.get(i).copied().ok_or_else(|| LexError {
                        message: "unterminated escape".into(),
                        pos,
                    })?;
                    bump!();
                    match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'0' => 0,
                        other => other,
                    }
                } else {
                    let v = bytes[i];
                    bump!();
                    v
                };
                if i >= bytes.len() || bytes[i] != b'\'' {
                    return Err(LexError {
                        message: "unterminated char literal".into(),
                        pos,
                    });
                }
                bump!();
                out.push((RefTok::Char(v), pos));
            }
            b'"' => {
                bump!();
                let start = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        bump!();
                        if i >= bytes.len() {
                            break;
                        }
                    }
                    bump!();
                }
                if i >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        pos,
                    });
                }
                let body = src[start..i].to_string();
                bump!();
                out.push((RefTok::Str(body), pos));
            }
            _ => {
                let rest = &src[i..];
                let matched = PUNCTS3
                    .iter()
                    .chain(PUNCTS2)
                    .chain(PUNCTS1)
                    .find(|p| rest.starts_with(**p));
                match matched {
                    Some(p) => {
                        for _ in 0..p.len() {
                            bump!();
                        }
                        out.push((RefTok::Punct(p), pos));
                    }
                    None => {
                        return Err(LexError {
                            message: format!("unexpected byte {:?}", c as char),
                            pos,
                        })
                    }
                }
            }
        }
    }
    out.push((RefTok::Eof, Pos { line, col }));
    Ok(out)
}

/// The lexer under test, its tokens copied into the reference's form.
fn lexed(src: &str) -> Lexed {
    Ok(lex(src)?
        .into_iter()
        .map(|t| {
            let tok = match t.tok {
                Tok::Ident(s) => RefTok::Ident(s.to_string()),
                Tok::Int(v) => RefTok::Int(v),
                Tok::Char(c) => RefTok::Char(c),
                Tok::Str(s) => RefTok::Str(s.to_string()),
                Tok::Punct(p) => RefTok::Punct(p),
                Tok::Eof => RefTok::Eof,
            };
            (tok, t.pos)
        })
        .collect())
}

fn assert_matches_reference(src: &str) {
    assert_eq!(lexed(src), reference_lex(src), "input {src:?}");
}

/// Every byte any punctuator uses.
fn punct_alphabet() -> Vec<u8> {
    let mut bytes: Vec<u8> = PUNCTS3
        .iter()
        .chain(PUNCTS2)
        .chain(PUNCTS1)
        .flat_map(|p| p.bytes())
        .collect();
    bytes.sort_unstable();
    bytes.dedup();
    bytes
}

#[test]
fn every_punctuator_string_of_up_to_three_bytes_matches_the_reference() {
    let alphabet = punct_alphabet();
    assert_eq!(alphabet.len(), 24);
    let mut inputs: Vec<Vec<u8>> = vec![Vec::new()];
    let mut checked = 0;
    for _ in 0..3 {
        inputs = inputs
            .iter()
            .flat_map(|s| {
                alphabet.iter().map(move |&b| {
                    let mut t = s.clone();
                    t.push(b);
                    t
                })
            })
            .collect();
        for s in &inputs {
            assert_matches_reference(std::str::from_utf8(s).expect("ASCII"));
            checked += 1;
        }
    }
    assert_eq!(checked, 24 + 24 * 24 + 24 * 24 * 24);
}

#[test]
fn seeds_and_a_generated_corpus_match_the_reference() {
    let seeds = spe_corpus::seeds::all();
    assert_eq!(seeds.len(), 6);
    let generated = spe_corpus::generate(&spe_corpus::CorpusConfig {
        files: 300,
        seed: 1,
    });
    for f in seeds.iter().chain(&generated) {
        assert!(lex(&f.source).is_ok(), "{} lexes", f.name);
        assert_matches_reference(&f.source);
    }
}

/// Bytes of C text, plus a few that are not ASCII.
const SOURCE_BYTES: &[u8] =
    b"+-*/%<>=!~&|^(){}[];,?:. \t\n\r#'\"\\0123456789xXuUlLabcdefz_\xc3\xa9\xff\x80";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_source_text_matches_the_reference(
        picks in proptest::collection::vec(0usize..SOURCE_BYTES.len(), 0..65)
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| SOURCE_BYTES[i]).collect();
        assert_matches_reference(&String::from_utf8_lossy(&bytes));
    }
}
