//! Lexer for mini-C.
//!
//! [`lex`] turns source text into [`Token`]s that borrow from it:
//! identifiers, keywords and string-literal bodies are `&'src str`
//! slices of the input, so lexing allocates only the token vector, and
//! the parser copies out just the names it stores in the AST.
//! Punctuators are matched on bytes, longest first (three bytes, then
//! two, then one).

use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds produced by the lexer.
///
/// Identifier and string-literal tokens borrow their text from the
/// source (`'src`), so lexing allocates nothing per token: the parser
/// copies out only the names it stores in the AST.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'src> {
    /// Identifier or keyword.
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// Character literal.
    Char(u8),
    /// String literal (body, escapes kept verbatim).
    Str(&'src str),
    /// Any punctuation / operator, e.g. `"+="`, `"{"`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Char(c) => write!(f, "char literal `{}`", *c as char),
            Tok::Str(s) => write!(f, "string literal \"{s}\""),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position; its text borrows from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// The token's kind and payload.
    pub tok: Tok<'src>,
    /// Where it starts.
    pub pos: Pos,
}

/// Error produced for unlexable input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Explanation.
    pub message: String,
    /// Where the problem is.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// The punctuator at the start of `rest`, longest match first: three
/// bytes, then two, then one.
fn punct(rest: &[u8]) -> Option<&'static str> {
    Some(match rest {
        [b'<', b'<', b'=', ..] => "<<=",
        [b'>', b'>', b'=', ..] => ">>=",
        [b'<', b'<', ..] => "<<",
        [b'>', b'>', ..] => ">>",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b'=', b'=', ..] => "==",
        [b'!', b'=', ..] => "!=",
        [b'&', b'&', ..] => "&&",
        [b'|', b'|', ..] => "||",
        [b'+', b'=', ..] => "+=",
        [b'-', b'=', ..] => "-=",
        [b'*', b'=', ..] => "*=",
        [b'/', b'=', ..] => "/=",
        [b'%', b'=', ..] => "%=",
        [b'-', b'>', ..] => "->",
        [b'+', b'+', ..] => "++",
        [b'-', b'-', ..] => "--",
        [b'+', ..] => "+",
        [b'-', ..] => "-",
        [b'*', ..] => "*",
        [b'/', ..] => "/",
        [b'%', ..] => "%",
        [b'<', ..] => "<",
        [b'>', ..] => ">",
        [b'=', ..] => "=",
        [b'!', ..] => "!",
        [b'~', ..] => "~",
        [b'&', ..] => "&",
        [b'|', ..] => "|",
        [b'^', ..] => "^",
        [b'(', ..] => "(",
        [b')', ..] => ")",
        [b'{', ..] => "{",
        [b'}', ..] => "}",
        [b'[', ..] => "[",
        [b']', ..] => "]",
        [b';', ..] => ";",
        [b',', ..] => ",",
        [b'?', ..] => "?",
        [b':', ..] => ":",
        [b'.', ..] => ".",
        _ => return None,
    })
}

/// Lexes mini-C source into tokens that borrow their text from `src`.
///
/// Line (`//`) and block (`/* */`) comments are skipped; preprocessor
/// lines (starting with `#`) are skipped wholesale, matching how the
/// paper's pipeline treats already-preprocessed test files.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated literals/comments or stray bytes.
///
/// # Examples
///
/// ```
/// use spe_minic::lexer::{lex, Tok};
/// let toks = lex("int a = 1; // x").unwrap();
/// assert_eq!(toks.len(), 6); // int a = 1 ; EOF
/// assert_eq!(toks[0].tok, Tok::Ident("int"));
/// ```
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
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
                // Skip the rest of the preprocessor line.
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
                if c == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 32) == b'x' {
                    bump!();
                    bump!();
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        bump!();
                    }
                    let text = &src[start + 2..i];
                    let v = i64::from_str_radix(text, 16).map_err(|e| LexError {
                        message: format!("bad hex literal: {e}"),
                        pos,
                    })?;
                    skip_int_suffix(bytes, &mut i, &mut line, &mut col);
                    out.push(Token {
                        tok: Tok::Int(v),
                        pos,
                    });
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        bump!();
                    }
                    let text = &src[start..i];
                    let v: i64 = text.parse().map_err(|e| LexError {
                        message: format!("bad integer literal: {e}"),
                        pos,
                    })?;
                    skip_int_suffix(bytes, &mut i, &mut line, &mut col);
                    out.push(Token {
                        tok: Tok::Int(v),
                        pos,
                    });
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    bump!();
                }
                out.push(Token {
                    tok: Tok::Ident(&src[start..i]),
                    pos,
                });
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
                    unescape(esc)
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
                out.push(Token {
                    tok: Tok::Char(v),
                    pos,
                });
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
                let body = &src[start..i];
                bump!();
                out.push(Token {
                    tok: Tok::Str(body),
                    pos,
                });
            }
            _ => match punct(&bytes[i..]) {
                Some(p) => {
                    // Punctuators hold no newline: only the column moves.
                    i += p.len();
                    col += p.len() as u32;
                    out.push(Token {
                        tok: Tok::Punct(p),
                        pos,
                    });
                }
                None => {
                    return Err(LexError {
                        message: format!("unexpected byte {:?}", c as char),
                        pos,
                    })
                }
            },
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}

fn skip_int_suffix(bytes: &[u8], i: &mut usize, line: &mut u32, col: &mut u32) {
    while *i < bytes.len() && matches!(bytes[*i] | 32, b'u' | b'l') {
        if bytes[*i] == b'\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
        *i += 1;
    }
}

fn unescape(esc: u8) -> u8 {
    match esc {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        b'0' => 0,
        b'\\' => b'\\',
        b'\'' => b'\'',
        b'"' => b'"',
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            kinds("int a=1;"),
            vec![
                Tok::Ident("int"),
                Tok::Ident("a"),
                Tok::Punct("="),
                Tok::Int(1),
                Tok::Punct(";"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_compound_operators() {
        assert_eq!(
            kinds("a<<=b >>= c << >> <= >= == != && || ++ -- ->"),
            vec![
                Tok::Ident("a"),
                Tok::Punct("<<="),
                Tok::Ident("b"),
                Tok::Punct(">>="),
                Tok::Ident("c"),
                Tok::Punct("<<"),
                Tok::Punct(">>"),
                Tok::Punct("<="),
                Tok::Punct(">="),
                Tok::Punct("=="),
                Tok::Punct("!="),
                Tok::Punct("&&"),
                Tok::Punct("||"),
                Tok::Punct("++"),
                Tok::Punct("--"),
                Tok::Punct("->"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments_and_preprocessor() {
        assert_eq!(
            kinds("#include <stdio.h>\nint /* hi */ x; // done"),
            vec![
                Tok::Ident("int"),
                Tok::Ident("x"),
                Tok::Punct(";"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn hex_and_suffixed_literals() {
        assert_eq!(
            kinds("0x10 42u 7L"),
            vec![Tok::Int(16), Tok::Int(42), Tok::Int(7), Tok::Eof]
        );
    }

    #[test]
    fn char_and_string_literals() {
        assert_eq!(
            kinds(r#"'a' '\n' "hi\n""#),
            vec![
                Tok::Char(b'a'),
                Tok::Char(b'\n'),
                Tok::Str("hi\\n"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("int\n  x;").expect("lexes");
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn rejects_stray_bytes() {
        assert!(lex("int a @ b;").is_err());
    }
}
