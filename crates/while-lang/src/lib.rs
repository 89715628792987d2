//! The WHILE language of the SPE paper (§3), plus a small optimizing
//! compiler with injected defects.
//!
//! The paper formalizes skeletal program enumeration on a WHILE-style
//! language (Figure 4): arithmetic and boolean expressions, assignment,
//! sequencing, `while` and `if`. All variables are global, so the hole
//! variable set of every hole is the full variable set — SPE degenerates
//! to plain set-partition enumeration (Bell numbers).
//!
//! The crate also ships [`compiler`], a tiny stack-machine compiler with
//! seeded bugs. It plays the role CompCert and the two Scala compilers
//! play in §5.3 of the paper: a *second* language toolchain demonstrating
//! that SPE generalizes beyond C.
//!
//! # Quick start
//!
//! ```
//! use spe_while::{parse, interpret, Outcome};
//!
//! // Figure 5(a) of the paper.
//! let p = parse("a := 10; b := 1; while a do a := a - b")?;
//! match interpret(&p, 10_000)? {
//!     Outcome::Finished(state) => {
//!         assert_eq!(state.get("a"), Some(&0));
//!         assert_eq!(state.get("b"), Some(&1));
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

pub mod compiler;

/// Unique id of a variable occurrence (a hole of the skeleton).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WOcc(pub u32);

/// Arithmetic expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AExpr {
    /// Variable read.
    Var(String, WOcc),
    /// Integer constant.
    Num(i64),
    /// `a1 op a2` with `op ∈ {+, -, *}`.
    Op(char, Box<AExpr>, Box<AExpr>),
}

/// Boolean expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// `true` / `false`.
    Const(bool),
    /// `not b`.
    Not(Box<BExpr>),
    /// `b1 and b2` (`true`) / `b1 or b2` (`false`).
    Logic(bool, Box<BExpr>, Box<BExpr>),
    /// `a1 < a2`, `a1 <= a2`, `a1 = a2`.
    Rel(&'static str, Box<AExpr>, Box<AExpr>),
    /// Truthiness of an arithmetic expression (`while a do …`).
    Truthy(Box<AExpr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum WStmt {
    /// `x := a`.
    Assign(String, WOcc, AExpr),
    /// `skip`.
    Skip,
    /// `while b do S`.
    While(BExpr, Vec<WStmt>),
    /// `if b then S1 else S2`.
    If(BExpr, Vec<WStmt>, Vec<WStmt>),
}

/// A WHILE program: a statement sequence plus occurrence bookkeeping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WProgram {
    /// Top-level statements.
    pub stmts: Vec<WStmt>,
    /// Number of occurrence ids handed out.
    pub max_occ: u32,
}

impl WProgram {
    /// All distinct variable names, in order of first occurrence.
    pub fn variables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.for_each_occ(&mut |name, _| {
            if !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
        });
        out
    }

    /// Visits `(name, occ)` for every variable occurrence in source order.
    pub fn for_each_occ<'s, F: FnMut(&'s str, WOcc)>(&'s self, f: &mut F) {
        for s in &self.stmts {
            visit_stmt(s, f);
        }
    }
}

fn visit_aexpr<'s, F: FnMut(&'s str, WOcc)>(e: &'s AExpr, f: &mut F) {
    match e {
        AExpr::Var(n, o) => f(n, *o),
        AExpr::Num(_) => {}
        AExpr::Op(_, a, b) => {
            visit_aexpr(a, f);
            visit_aexpr(b, f);
        }
    }
}

fn visit_bexpr<'s, F: FnMut(&'s str, WOcc)>(e: &'s BExpr, f: &mut F) {
    match e {
        BExpr::Const(_) => {}
        BExpr::Not(b) => visit_bexpr(b, f),
        BExpr::Logic(_, a, b) => {
            visit_bexpr(a, f);
            visit_bexpr(b, f);
        }
        BExpr::Rel(_, a, b) => {
            visit_aexpr(a, f);
            visit_aexpr(b, f);
        }
        BExpr::Truthy(a) => visit_aexpr(a, f),
    }
}

fn visit_stmt<'s, F: FnMut(&'s str, WOcc)>(s: &'s WStmt, f: &mut F) {
    match s {
        WStmt::Assign(n, o, e) => {
            f(n, *o);
            visit_aexpr(e, f);
        }
        WStmt::Skip => {}
        WStmt::While(b, body) => {
            visit_bexpr(b, f);
            for s in body {
                visit_stmt(s, f);
            }
        }
        WStmt::If(b, t, e) => {
            visit_bexpr(b, f);
            for s in t {
                visit_stmt(s, f);
            }
            for s in e {
                visit_stmt(s, f);
            }
        }
    }
}

/// One piece of a WHILE print template: literal source text or a variable
/// occurrence site (the WHILE analogue of `spe-minic`'s `TemplatePiece`).
///
/// Concatenating the pieces — substituting each [`WPiece::Occ`] with its
/// original name — reproduces [`WProgram`]'s `Display` output byte for
/// byte: the template printer shares the same traversal and only diverts
/// occurrence names into their own pieces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WPiece {
    /// Literal text between occurrences (possibly empty).
    Text(String),
    /// A variable occurrence: downstream renderers splice the variant's
    /// chosen name here.
    Occ {
        /// The occurrence id of the site.
        occ: WOcc,
        /// The name the original program uses here.
        name: String,
    },
}

/// Print sink: accumulates text, optionally diverting occurrence names
/// into template pieces.
struct Emit {
    out: String,
    pieces: Option<Vec<WPiece>>,
}

impl Emit {
    fn text(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn ch(&mut self, c: char) {
        self.out.push(c);
    }

    fn occ(&mut self, name: &str, occ: WOcc) {
        match &mut self.pieces {
            Some(pieces) => {
                pieces.push(WPiece::Text(std::mem::take(&mut self.out)));
                pieces.push(WPiece::Occ {
                    occ,
                    name: name.to_string(),
                });
            }
            None => self.out.push_str(name),
        }
    }
}

/// Prints a program into template pieces: static text with every variable
/// occurrence split out as a [`WPiece::Occ`]. The compile-once half of
/// fast WHILE variant rendering — realize any number of partitions by
/// splicing names between the pieces, with no AST rebuild.
pub fn print_template(p: &WProgram) -> Vec<WPiece> {
    let mut emit = Emit {
        out: String::new(),
        pieces: Some(Vec::new()),
    };
    fmt_seq(&p.stmts, &mut emit, 0);
    let mut pieces = emit.pieces.expect("template mode");
    pieces.push(WPiece::Text(emit.out));
    pieces
}

fn fmt_aexpr(e: &AExpr, out: &mut Emit) {
    match e {
        AExpr::Var(n, o) => out.occ(n, *o),
        AExpr::Num(v) => out.text(&v.to_string()),
        AExpr::Op(c, a, b) => {
            out.ch('(');
            fmt_aexpr(a, out);
            out.ch(' ');
            out.ch(*c);
            out.ch(' ');
            fmt_aexpr(b, out);
            out.ch(')');
        }
    }
}

fn fmt_bexpr(e: &BExpr, out: &mut Emit) {
    match e {
        BExpr::Const(v) => out.text(if *v { "true" } else { "false" }),
        BExpr::Not(b) => {
            out.text("not ");
            fmt_bexpr(b, out);
        }
        BExpr::Logic(and, a, b) => {
            out.ch('(');
            fmt_bexpr(a, out);
            out.text(if *and { " and " } else { " or " });
            fmt_bexpr(b, out);
            out.ch(')');
        }
        BExpr::Rel(op, a, b) => {
            fmt_aexpr(a, out);
            out.ch(' ');
            out.text(op);
            out.ch(' ');
            fmt_aexpr(b, out);
        }
        BExpr::Truthy(a) => fmt_aexpr(a, out),
    }
}

fn fmt_seq(stmts: &[WStmt], out: &mut Emit, indent: usize) {
    for (i, s) in stmts.iter().enumerate() {
        if i > 0 {
            out.text(";\n");
        }
        fmt_stmt(s, out, indent);
    }
}

fn fmt_stmt(s: &WStmt, out: &mut Emit, indent: usize) {
    let pad = "  ".repeat(indent);
    match s {
        WStmt::Assign(n, o, e) => {
            out.text(&pad);
            out.occ(n, *o);
            out.text(" := ");
            fmt_aexpr(e, out);
        }
        WStmt::Skip => {
            out.text(&pad);
            out.text("skip");
        }
        WStmt::While(b, body) => {
            out.text(&pad);
            out.text("while ");
            fmt_bexpr(b, out);
            out.text(" do begin\n");
            fmt_seq(body, out, indent + 1);
            out.ch('\n');
            out.text(&pad);
            out.text("end");
        }
        WStmt::If(b, t, e) => {
            out.text(&pad);
            out.text("if ");
            fmt_bexpr(b, out);
            out.text(" then begin\n");
            fmt_seq(t, out, indent + 1);
            out.ch('\n');
            out.text(&pad);
            out.text("end else begin\n");
            fmt_seq(e, out, indent + 1);
            out.ch('\n');
            out.text(&pad);
            out.text("end");
        }
    }
}

impl fmt::Display for WProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut emit = Emit {
            out: String::new(),
            pieces: None,
        };
        fmt_seq(&self.stmts, &mut emit, 0);
        f.write_str(&emit.out)
    }
}

/// Parse error with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WParseError(pub String);

impl fmt::Display for WParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WHILE parse error: {}", self.0)
    }
}

impl std::error::Error for WParseError {}

/// Parses a WHILE program.
///
/// Statements are separated by `;`: `x := a`, `skip`,
/// `while b do S`, `if b then S [else S]`; compound bodies use
/// `begin … end`. Boolean operators: `not`, `and`, `or`; relations `<`,
/// `<=`, `=`. A bare arithmetic expression in boolean position means
/// "non-zero" (`while a do …`), matching the paper's Figure 5.
///
/// # Errors
///
/// Returns [`WParseError`] on malformed input.
///
/// # Examples
///
/// ```
/// let p = spe_while::parse("x := 1; if x < 2 then y := x else skip")?;
/// assert_eq!(p.stmts.len(), 2);
/// # Ok::<(), spe_while::WParseError>(())
/// ```
pub fn parse(src: &str) -> Result<WProgram, WParseError> {
    let toks = wlex(src)?;
    let mut p = WParser {
        toks,
        at: 0,
        next_occ: 0,
    };
    let stmts = p.seq(&[])?;
    if p.at != p.toks.len() {
        return Err(WParseError(format!(
            "trailing input at token {:?}",
            p.toks[p.at]
        )));
    }
    Ok(WProgram {
        stmts,
        max_occ: p.next_occ,
    })
}

#[derive(Debug, Clone, PartialEq)]
enum WTok {
    Ident(String),
    Num(i64),
    Sym(&'static str),
}

fn wlex(src: &str) -> Result<Vec<WTok>, WParseError> {
    let mut out = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'0'..=b'9' => {
                let s = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                out.push(WTok::Num(
                    src[s..i]
                        .parse()
                        .map_err(|e| WParseError(format!("bad number: {e}")))?,
                ));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let s = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(WTok::Ident(src[s..i].to_string()));
            }
            b':' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(WTok::Sym(":="));
                i += 2;
            }
            b'<' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(WTok::Sym("<="));
                i += 2;
            }
            b'<' => {
                out.push(WTok::Sym("<"));
                i += 1;
            }
            b'=' => {
                out.push(WTok::Sym("="));
                i += 1;
            }
            b'+' => {
                out.push(WTok::Sym("+"));
                i += 1;
            }
            b'-' => {
                out.push(WTok::Sym("-"));
                i += 1;
            }
            b'*' => {
                out.push(WTok::Sym("*"));
                i += 1;
            }
            b'(' => {
                out.push(WTok::Sym("("));
                i += 1;
            }
            b')' => {
                out.push(WTok::Sym(")"));
                i += 1;
            }
            b';' => {
                out.push(WTok::Sym(";"));
                i += 1;
            }
            other => return Err(WParseError(format!("unexpected byte {:?}", other as char))),
        }
    }
    Ok(out)
}

struct WParser {
    toks: Vec<WTok>,
    at: usize,
    next_occ: u32,
}

impl WParser {
    fn peek(&self) -> Option<&WTok> {
        self.toks.get(self.at)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(WTok::Sym(t)) if *t == s) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(WTok::Ident(t)) if t == kw) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(WTok::Ident(t)) if t == kw)
    }

    fn new_occ(&mut self) -> WOcc {
        let o = WOcc(self.next_occ);
        self.next_occ += 1;
        o
    }

    /// Parses statements until EOF or one of the `stop` keywords.
    fn seq(&mut self, stop: &[&str]) -> Result<Vec<WStmt>, WParseError> {
        let mut out = Vec::new();
        loop {
            if self.peek().is_none() || stop.iter().any(|k| self.peek_kw(k)) {
                break;
            }
            out.push(self.stmt(stop)?);
            if !self.eat_sym(";") {
                break;
            }
        }
        Ok(out)
    }

    fn block_or_single(&mut self, stop: &[&str]) -> Result<Vec<WStmt>, WParseError> {
        if self.eat_kw("begin") {
            let body = self.seq(&["end"])?;
            if !self.eat_kw("end") {
                return Err(WParseError("expected `end`".into()));
            }
            Ok(body)
        } else {
            Ok(vec![self.stmt(stop)?])
        }
    }

    fn stmt(&mut self, stop: &[&str]) -> Result<WStmt, WParseError> {
        if self.eat_kw("skip") {
            return Ok(WStmt::Skip);
        }
        if self.eat_kw("while") {
            let b = self.bexpr()?;
            if !self.eat_kw("do") {
                return Err(WParseError("expected `do`".into()));
            }
            let body = self.block_or_single(stop)?;
            return Ok(WStmt::While(b, body));
        }
        if self.eat_kw("if") {
            let b = self.bexpr()?;
            if !self.eat_kw("then") {
                return Err(WParseError("expected `then`".into()));
            }
            let mut stop_then = stop.to_vec();
            stop_then.push("else");
            let t = self.block_or_single(&stop_then)?;
            let e = if self.eat_kw("else") {
                self.block_or_single(stop)?
            } else {
                Vec::new()
            };
            return Ok(WStmt::If(b, t, e));
        }
        // Assignment.
        let name = match self.peek() {
            Some(WTok::Ident(n)) => n.clone(),
            other => return Err(WParseError(format!("expected statement, found {other:?}"))),
        };
        self.at += 1;
        if !self.eat_sym(":=") {
            return Err(WParseError(format!("expected `:=` after `{name}`")));
        }
        let occ = self.new_occ();
        let e = self.aexpr()?;
        Ok(WStmt::Assign(name, occ, e))
    }

    fn aexpr(&mut self) -> Result<AExpr, WParseError> {
        let mut lhs = self.aterm()?;
        loop {
            let op = if self.eat_sym("+") {
                '+'
            } else if self.eat_sym("-") {
                '-'
            } else {
                break;
            };
            let rhs = self.aterm()?;
            lhs = AExpr::Op(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn aterm(&mut self) -> Result<AExpr, WParseError> {
        let mut lhs = self.afactor()?;
        while self.eat_sym("*") {
            let rhs = self.afactor()?;
            lhs = AExpr::Op('*', Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn afactor(&mut self) -> Result<AExpr, WParseError> {
        match self.peek().cloned() {
            Some(WTok::Num(v)) => {
                self.at += 1;
                Ok(AExpr::Num(v))
            }
            Some(WTok::Ident(n))
                if !matches!(
                    n.as_str(),
                    "true"
                        | "false"
                        | "not"
                        | "and"
                        | "or"
                        | "do"
                        | "then"
                        | "else"
                        | "begin"
                        | "end"
                ) =>
            {
                self.at += 1;
                let occ = self.new_occ();
                Ok(AExpr::Var(n, occ))
            }
            Some(WTok::Sym("(")) => {
                self.at += 1;
                let e = self.aexpr()?;
                if !self.eat_sym(")") {
                    return Err(WParseError("expected `)`".into()));
                }
                Ok(e)
            }
            other => Err(WParseError(format!("expected expression, found {other:?}"))),
        }
    }

    fn bexpr(&mut self) -> Result<BExpr, WParseError> {
        let mut lhs = self.bterm()?;
        while self.eat_kw("or") {
            let rhs = self.bterm()?;
            lhs = BExpr::Logic(false, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bterm(&mut self) -> Result<BExpr, WParseError> {
        let mut lhs = self.bfactor()?;
        while self.eat_kw("and") {
            let rhs = self.bfactor()?;
            lhs = BExpr::Logic(true, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bfactor(&mut self) -> Result<BExpr, WParseError> {
        if self.eat_kw("true") {
            return Ok(BExpr::Const(true));
        }
        if self.eat_kw("false") {
            return Ok(BExpr::Const(false));
        }
        if self.eat_kw("not") {
            return Ok(BExpr::Not(Box::new(self.bfactor()?)));
        }
        // `(` may open either an arithmetic or a boolean
        // sub-expression; try arithmetic first and backtrack.
        let save_at = self.at;
        let save_occ = self.next_occ;
        if matches!(self.peek(), Some(WTok::Sym("("))) {
            if let Ok(a) = self.aexpr() {
                return self.relation_or_truthy(a);
            }
            self.at = save_at;
            self.next_occ = save_occ;
            self.at += 1; // consume `(`
            let b = self.bexpr()?;
            if !self.eat_sym(")") {
                return Err(WParseError("expected `)` after boolean".into()));
            }
            return Ok(b);
        }
        let a = self.aexpr()?;
        self.relation_or_truthy(a)
    }

    fn relation_or_truthy(&mut self, a: AExpr) -> Result<BExpr, WParseError> {
        if self.eat_sym("<=") {
            return Ok(BExpr::Rel("<=", Box::new(a), Box::new(self.aexpr()?)));
        }
        if self.eat_sym("<") {
            return Ok(BExpr::Rel("<", Box::new(a), Box::new(self.aexpr()?)));
        }
        if self.eat_sym("=") {
            return Ok(BExpr::Rel("=", Box::new(a), Box::new(self.aexpr()?)));
        }
        Ok(BExpr::Truthy(Box::new(a)))
    }
}

/// Final variable state of a terminated program.
pub type WState = BTreeMap<String, i64>;

/// Result of running a WHILE program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Terminated with the given final state.
    Finished(WState),
    /// Exhausted its fuel (treated as non-terminating).
    Timeout,
}

/// Runtime error (arithmetic overflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WRuntimeError(pub String);

impl fmt::Display for WRuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WHILE runtime error: {}", self.0)
    }
}

impl std::error::Error for WRuntimeError {}

/// Reference interpreter: big-step with a fuel bound. Variables start at
/// 0; WHILE has no undefined behaviour, making it a clean differential
/// oracle.
///
/// # Errors
///
/// Returns [`WRuntimeError`] on arithmetic overflow.
pub fn interpret(p: &WProgram, fuel: u64) -> Result<Outcome, WRuntimeError> {
    let mut state: WState = BTreeMap::new();
    for v in p.variables() {
        state.insert(v, 0);
    }
    let mut remaining = fuel;
    if run_seq(&p.stmts, &mut state, &mut remaining)? {
        Ok(Outcome::Finished(state))
    } else {
        Ok(Outcome::Timeout)
    }
}

fn run_seq(stmts: &[WStmt], state: &mut WState, fuel: &mut u64) -> Result<bool, WRuntimeError> {
    for s in stmts {
        if !run_stmt(s, state, fuel)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn run_stmt(s: &WStmt, state: &mut WState, fuel: &mut u64) -> Result<bool, WRuntimeError> {
    if *fuel == 0 {
        return Ok(false);
    }
    *fuel -= 1;
    match s {
        WStmt::Assign(n, _, e) => {
            let v = eval_a(e, state)?;
            state.insert(n.clone(), v);
            Ok(true)
        }
        WStmt::Skip => Ok(true),
        WStmt::While(b, body) => {
            while eval_b(b, state)? {
                if *fuel == 0 {
                    return Ok(false);
                }
                *fuel -= 1;
                if !run_seq(body, state, fuel)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        WStmt::If(b, t, e) => {
            if eval_b(b, state)? {
                run_seq(t, state, fuel)
            } else {
                run_seq(e, state, fuel)
            }
        }
    }
}

fn eval_a(e: &AExpr, state: &WState) -> Result<i64, WRuntimeError> {
    match e {
        AExpr::Var(n, _) => Ok(*state.get(n).unwrap_or(&0)),
        AExpr::Num(v) => Ok(*v),
        AExpr::Op(c, a, b) => {
            let (x, y) = (eval_a(a, state)?, eval_a(b, state)?);
            let r = match c {
                '+' => x.checked_add(y),
                '-' => x.checked_sub(y),
                '*' => x.checked_mul(y),
                other => return Err(WRuntimeError(format!("unknown operator {other}"))),
            };
            r.ok_or_else(|| WRuntimeError("arithmetic overflow".into()))
        }
    }
}

fn eval_b(e: &BExpr, state: &WState) -> Result<bool, WRuntimeError> {
    match e {
        BExpr::Const(v) => Ok(*v),
        BExpr::Not(b) => Ok(!eval_b(b, state)?),
        BExpr::Logic(true, a, b) => Ok(eval_b(a, state)? && eval_b(b, state)?),
        BExpr::Logic(false, a, b) => Ok(eval_b(a, state)? || eval_b(b, state)?),
        BExpr::Rel("<", a, b) => Ok(eval_a(a, state)? < eval_a(b, state)?),
        BExpr::Rel("<=", a, b) => Ok(eval_a(a, state)? <= eval_a(b, state)?),
        BExpr::Rel("=", a, b) => Ok(eval_a(a, state)? == eval_a(b, state)?),
        BExpr::Rel(op, _, _) => Err(WRuntimeError(format!("unknown relation {op}"))),
        BExpr::Truthy(a) => Ok(eval_a(a, state)? != 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_figure5() {
        let p = parse("a := 10; b := 1; while a do a := a - b").expect("parses");
        assert_eq!(p.stmts.len(), 3);
        let printed = p.to_string();
        let again = parse(&printed).expect("reparses");
        assert_eq!(again.stmts.len(), 3);
    }

    #[test]
    fn figure5_has_six_holes_and_two_vars() {
        let p = parse("a := 10; b := 1; while a do a := a - b").expect("parses");
        assert_eq!(p.max_occ, 6);
        assert_eq!(p.variables(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn interprets_figure5() {
        let p = parse("a := 10; b := 1; while a do a := a - b").expect("parses");
        match interpret(&p, 1000).expect("runs") {
            Outcome::Finished(s) => {
                assert_eq!(s["a"], 0);
                assert_eq!(s["b"], 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alpha_equivalent_programs_have_renamed_outputs() {
        // P and P1 of Figure 5 (a <-> b swapped).
        let p = parse("a := 10; b := 1; while a do a := a - b").expect("parses");
        let p1 = parse("b := 10; a := 1; while b do b := b - a").expect("parses");
        let (Outcome::Finished(s), Outcome::Finished(s1)) = (
            interpret(&p, 1000).expect("runs"),
            interpret(&p1, 1000).expect("runs"),
        ) else {
            panic!("timeout");
        };
        assert_eq!(s["a"], s1["b"]);
        assert_eq!(s["b"], s1["a"]);
    }

    #[test]
    fn if_then_else_and_booleans() {
        let p = parse("x := 3; if x < 5 and not (x = 2) then y := 1 else y := 2").expect("parses");
        let Outcome::Finished(s) = interpret(&p, 1000).expect("runs") else {
            panic!("timeout");
        };
        assert_eq!(s["y"], 1);
    }

    #[test]
    fn begin_end_blocks() {
        let p = parse("i := 0; s := 0; while i < 3 do begin s := s + i; i := i + 1 end")
            .expect("parses");
        let Outcome::Finished(s) = interpret(&p, 1000).expect("runs") else {
            panic!("timeout");
        };
        assert_eq!(s["s"], 3);
        assert_eq!(s["i"], 3);
    }

    #[test]
    fn nontermination_times_out() {
        let p = parse("x := 1; while true do x := x + 0").expect("parses");
        assert_eq!(interpret(&p, 100).expect("runs"), Outcome::Timeout);
    }

    #[test]
    fn overflow_is_an_error() {
        let p = parse("x := 2; while true do x := x * x").expect("parses");
        assert!(interpret(&p, 10_000).is_err());
    }

    #[test]
    fn template_pieces_reassemble_to_display() {
        let srcs = [
            "a := 10; b := 1; while a do a := a - b",
            "i := 0; s := 0; while i < 3 do begin s := s + i; i := i + 1 end",
            "x := 3; if x < 5 and not (x = 2) then y := 1 else y := 2",
        ];
        for src in srcs {
            let p = parse(src).expect("parses");
            let rebuilt: String = print_template(&p)
                .iter()
                .map(|piece| match piece {
                    WPiece::Text(t) => t.as_str(),
                    WPiece::Occ { name, .. } => name.as_str(),
                })
                .collect();
            assert_eq!(rebuilt, p.to_string(), "template drifted for {src}");
        }
    }

    #[test]
    fn template_has_one_piece_per_occurrence() {
        let p = parse("a := 10; b := 1; while a do a := a - b").expect("parses");
        let occs = print_template(&p)
            .iter()
            .filter(|piece| matches!(piece, WPiece::Occ { .. }))
            .count();
        assert_eq!(occs as u32, p.max_occ);
    }

    #[test]
    fn parse_errors() {
        assert!(parse("x :=").is_err());
        assert!(parse("while do x := 1").is_err());
        assert!(parse("x = 1").is_err());
    }

    #[test]
    fn occurrence_order_matches_characteristic_vector() {
        // Figure 5: sP = ⟨a, b, a, a, a, b⟩ — the characteristic vector
        // lists holes in source order.
        let p = parse("a := 10; b := 1; while a do a := a - b").expect("parses");
        let mut names = Vec::new();
        p.for_each_occ(&mut |n, _| names.push(n.to_string()));
        assert_eq!(names, vec!["a", "b", "a", "a", "a", "b"]);
    }

    #[test]
    fn display_roundtrip_preserves_semantics() {
        let srcs = [
            "a := 10; b := 1; while a do a := a - b",
            "i := 0; s := 0; while i < 5 do begin s := s + i * i; i := i + 1 end",
            "x := 3; if x < 5 then y := 1 else y := 2; z := x + y",
        ];
        for src in srcs {
            let p = parse(src).expect("parses");
            let q = parse(&p.to_string()).expect("reparses");
            assert_eq!(
                interpret(&p, 10_000).expect("p runs"),
                interpret(&q, 10_000).expect("q runs"),
                "{src}"
            );
        }
    }
}
