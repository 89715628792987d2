//! Pretty-printer for mini-C, plain or as a render template.
//!
//! [`print_template`] is how skeleton variants are *realized*: it marks
//! every variable use site ([`crate::ast::OccId`]) in the printed text,
//! so a renderer can splice a different (visible, type-compatible)
//! variable name into each while declarations stay fixed.
//!
//! Both forms write straight into one output buffer: printing allocates
//! only that buffer (and, for a template, its site list).

use crate::ast::*;
use std::fmt::Write as _;
use std::ops::Range;

/// Prints a program back to compilable mini-C source.
///
/// # Examples
///
/// ```
/// let src = "int a, b = 1;\nint main() {\n    b = b - a;\n    return 0;\n}\n";
/// let prog = spe_minic::parse(src).unwrap();
/// let printed = spe_minic::print_program(&prog);
/// let reparsed = spe_minic::parse(&printed).unwrap();
/// assert_eq!(spe_minic::print_program(&reparsed), printed); // fixpoint
/// ```
pub fn print_program(p: &Program) -> String {
    Printer::print(p, None).out
}

/// A program printed as a render *template*: [`print_program`]'s text
/// plus the place of every variable use site in it.
///
/// The text is byte-identical to [`print_program`]'s, because both share
/// one traversal; the template printer only records where each
/// occurrence's name lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrintTemplate {
    /// The printed program.
    pub text: String,
    /// Every use site in print order: its occurrence id and the byte
    /// range of its (original) name in `text`. Downstream renderers
    /// splice a variant's chosen name there.
    pub sites: Vec<(OccId, Range<usize>)>,
}

/// Prints a program as a template: its text with every variable use site
/// marked.
///
/// This is the compile-once half of fast variant rendering: walk the AST
/// once here, then realize any number of renamings by splicing names
/// between the static spans, with no further AST traversal.
///
/// ```
/// use spe_minic::{parse, print_program, print_template};
///
/// let prog = parse("int a, b; void f() { a = b; }").unwrap();
/// let t = print_template(&prog);
/// assert_eq!(t.text, print_program(&prog));
/// let names: Vec<&str> = t.sites.iter().map(|(_, r)| &t.text[r.clone()]).collect();
/// assert_eq!(names, ["a", "b"]);
/// ```
pub fn print_template(p: &Program) -> PrintTemplate {
    let pr = Printer::print(p, Some(Vec::new()));
    PrintTemplate {
        text: pr.out,
        sites: pr.sites.unwrap_or_default(),
    }
}

/// Use sites with the byte range of each one's name, in print order.
type Sites = Vec<(OccId, Range<usize>)>;

struct Printer {
    out: String,
    indent: usize,
    /// When set, every occurrence's place in `out` is recorded here.
    sites: Option<Sites>,
}

impl Printer {
    fn print(p: &Program, sites: Option<Sites>) -> Printer {
        let mut pr = Printer {
            out: String::new(),
            indent: 0,
            sites,
        };
        for item in &p.items {
            pr.item(item);
        }
        pr
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn stars(&mut self, n: u8) {
        for _ in 0..n {
            self.out.push('*');
        }
    }

    /// `[n]` for an array dimension.
    fn array(&mut self, n: Option<u64>) {
        if let Some(n) = n {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "[{n}]");
        }
    }

    /// The base type's spelling, e.g. `int` or `struct s`.
    fn base(&mut self, ty: &Type) {
        self.out.push_str(ty.base.keyword());
        if let BaseType::Struct(name) = &ty.base {
            self.out.push(' ');
            self.out.push_str(name);
        }
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Global(decls) => {
                self.decl_line(decls);
                self.out.push('\n');
            }
            Item::Struct(s) => {
                self.out.push_str("struct ");
                self.out.push_str(&s.name);
                self.out.push_str(" {\n");
                self.indent += 1;
                for f in &s.fields {
                    self.pad();
                    self.declarator_full(f);
                    self.out.push_str(";\n");
                }
                self.indent -= 1;
                self.out.push_str("};\n");
            }
            Item::Func(f) => {
                if f.is_static {
                    self.out.push_str("static ");
                }
                self.base(&f.ret);
                self.out.push(' ');
                self.stars(f.ret.pointers);
                self.out.push_str(&f.name);
                self.out.push('(');
                if f.params.is_empty() {
                    self.out.push_str("void");
                } else {
                    for (i, p) in f.params.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.base(&p.ty);
                        self.out.push(' ');
                        self.stars(p.ty.pointers);
                        self.out.push_str(&p.name);
                        self.array(p.ty.array);
                    }
                }
                self.out.push_str(") {\n");
                self.indent += 1;
                for s in &f.body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.out.push_str("}\n");
            }
        }
    }

    fn decl_line(&mut self, decls: &[VarDeclarator]) {
        debug_assert!(!decls.is_empty(), "empty declaration");
        self.base(&decls[0].ty);
        self.out.push(' ');
        for (i, d) in decls.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.stars(d.ty.pointers);
            self.out.push_str(&d.name);
            self.array(d.ty.array);
            if let Some(init) = &d.init {
                self.out.push_str(" = ");
                self.expr(init, 1);
            }
        }
        self.out.push(';');
    }

    fn declarator_full(&mut self, d: &VarDeclarator) {
        self.base(&d.ty);
        self.out.push(' ');
        self.stars(d.ty.pointers);
        self.out.push_str(&d.name);
        self.array(d.ty.array);
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Expr(e) => {
                self.pad();
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::Decl(decls) => {
                self.pad();
                self.decl_line(decls);
                self.out.push('\n');
            }
            Stmt::Block(body) => {
                self.pad();
                self.out.push_str("{\n");
                self.indent += 1;
                for s in body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            Stmt::If(c, t, e) => {
                self.pad();
                self.out.push_str("if (");
                self.expr(c, 0);
                self.out.push_str(")\n");
                self.nested(t);
                if let Some(e) = e {
                    self.pad();
                    self.out.push_str("else\n");
                    self.nested(e);
                }
            }
            Stmt::While(c, b) => {
                self.pad();
                self.out.push_str("while (");
                self.expr(c, 0);
                self.out.push_str(")\n");
                self.nested(b);
            }
            Stmt::DoWhile(b, c) => {
                self.pad();
                self.out.push_str("do\n");
                self.nested(b);
                self.pad();
                self.out.push_str("while (");
                self.expr(c, 0);
                self.out.push_str(");\n");
            }
            Stmt::For(init, cond, step, b) => {
                self.pad();
                self.out.push_str("for (");
                match init {
                    Some(ForInit::Decl(d)) => self.decl_line(d),
                    Some(ForInit::Expr(e)) => {
                        self.expr(e, 0);
                        self.out.push(';');
                    }
                    None => self.out.push(';'),
                }
                if let Some(c) = cond {
                    self.out.push(' ');
                    self.expr(c, 0);
                }
                self.out.push(';');
                if let Some(st) = step {
                    self.out.push(' ');
                    self.expr(st, 0);
                }
                self.out.push_str(")\n");
                self.nested(b);
            }
            Stmt::Return(e) => {
                self.pad();
                match e {
                    Some(e) => {
                        self.out.push_str("return ");
                        self.expr(e, 0);
                        self.out.push_str(";\n");
                    }
                    None => self.out.push_str("return;\n"),
                }
            }
            Stmt::Break => {
                self.pad();
                self.out.push_str("break;\n");
            }
            Stmt::Continue => {
                self.pad();
                self.out.push_str("continue;\n");
            }
            Stmt::Goto(l) => {
                self.pad();
                self.out.push_str("goto ");
                self.out.push_str(l);
                self.out.push_str(";\n");
            }
            Stmt::Label(l, inner) => {
                self.pad();
                self.out.push_str(l);
                self.out.push_str(":\n");
                self.stmt(inner);
            }
            Stmt::Empty => {
                self.pad();
                self.out.push_str(";\n");
            }
        }
    }

    /// Prints a nested statement, indenting single statements and keeping
    /// blocks at the same level.
    fn nested(&mut self, s: &Stmt) {
        if matches!(s, Stmt::Block(_)) {
            self.stmt(s);
        } else {
            self.indent += 1;
            self.stmt(s);
            self.indent -= 1;
        }
    }

    /// Precedence levels: 0 comma, 1 assignment, 2 ternary, 3..=12 binary
    /// (BinaryOp precedence + 2), 13 unary/cast, 14 postfix, 15 primary.
    fn expr(&mut self, e: &Expr, min_prec: u8) {
        let prec = expr_prec(e);
        let parens = prec < min_prec;
        if parens {
            self.out.push('(');
        }
        match &e.kind {
            ExprKind::IntLit(v) => {
                // Writing into a `String` cannot fail.
                let _ = write!(self.out, "{v}");
            }
            ExprKind::CharLit(c) => {
                self.out.push('\'');
                escape_char(*c, &mut self.out);
                self.out.push('\'');
            }
            ExprKind::StrLit(s) => {
                self.out.push('"');
                self.out.push_str(s);
                self.out.push('"');
            }
            ExprKind::Ident(id) => {
                let start = self.out.len();
                self.out.push_str(&id.name);
                if let Some(sites) = &mut self.sites {
                    sites.push((id.occ, start..self.out.len()));
                }
            }
            ExprKind::Unary(op, inner) => {
                self.out.push_str(op.as_str());
                // Avoid `- -x` printing as `--x` and `& &x` as `&&x`.
                if merges(op.as_str(), inner) {
                    self.out.push(' ');
                }
                self.expr(inner, 13);
            }
            ExprKind::Post(op, inner) => {
                self.expr(inner, 14);
                self.out.push_str(op.as_str());
            }
            ExprKind::Binary(op, a, b) => {
                let p = op.precedence() + 2;
                self.expr(a, p);
                self.out.push(' ');
                self.out.push_str(op.as_str());
                self.out.push(' ');
                self.expr(b, p + 1);
            }
            ExprKind::Assign(op, a, b) => {
                self.expr(a, 13);
                self.out.push(' ');
                self.out.push_str(op.as_str());
                self.out.push(' ');
                self.expr(b, 1);
            }
            ExprKind::Ternary(c, t, els) => {
                self.expr(c, 3);
                self.out.push_str(" ? ");
                self.expr(t, 0);
                self.out.push_str(" : ");
                self.expr(els, 2);
            }
            ExprKind::Call(name, args) => {
                if name == "__init_list" {
                    self.out.push('{');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.expr(a, 1);
                    }
                    self.out.push('}');
                } else {
                    self.out.push_str(name);
                    self.out.push('(');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.expr(a, 1);
                    }
                    self.out.push(')');
                }
            }
            ExprKind::Index(a, i) => {
                self.expr(a, 14);
                self.out.push('[');
                self.expr(i, 0);
                self.out.push(']');
            }
            ExprKind::Member(a, field, arrow) => {
                self.expr(a, 14);
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(field);
            }
            ExprKind::Cast(ty, inner) => {
                self.out.push('(');
                self.base(ty);
                if ty.pointers > 0 {
                    self.out.push(' ');
                    self.stars(ty.pointers);
                }
                self.out.push(')');
                self.expr(inner, 13);
            }
            ExprKind::Comma(a, b) => {
                self.expr(a, 1);
                self.out.push_str(", ");
                self.expr(b, 1);
            }
        }
        if parens {
            self.out.push(')');
        }
    }
}

fn expr_prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Comma(_, _) => 0,
        ExprKind::Assign(_, _, _) => 1,
        ExprKind::Ternary(_, _, _) => 2,
        ExprKind::Binary(op, _, _) => op.precedence() + 2,
        ExprKind::Unary(_, _) | ExprKind::Cast(_, _) => 13,
        ExprKind::Post(_, _)
        | ExprKind::Call(_, _)
        | ExprKind::Index(_, _)
        | ExprKind::Member(_, _, _) => 14,
        ExprKind::IntLit(_) | ExprKind::CharLit(_) | ExprKind::StrLit(_) | ExprKind::Ident(_) => 15,
    }
}

fn merges(op: &str, inner: &Expr) -> bool {
    match &inner.kind {
        ExprKind::Unary(i, _) => {
            let i = i.as_str();
            (op == "-" && (i == "-" || i == "--"))
                || (op == "&" && i == "&")
                || (op == "*" && i == "*")
                || (op == "+" && i == "+")
        }
        ExprKind::IntLit(v) => op == "-" && *v < 0,
        _ => false,
    }
}

/// Writes the body of a character literal for `c`.
fn escape_char(c: u8, out: &mut String) {
    match c {
        b'\n' => out.push_str("\\n"),
        b'\t' => out.push_str("\\t"),
        b'\r' => out.push_str("\\r"),
        0 => out.push_str("\\0"),
        b'\\' => out.push_str("\\\\"),
        b'\'' => out.push_str("\\'"),
        c if c.is_ascii_graphic() || c == b' ' => out.push(c as char),
        c => {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\x");
            out.push(HEX[usize::from(c >> 4)] as char);
            out.push(HEX[usize::from(c & 15)] as char);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Prints `p` with the use sites in `rename` renamed, by rewriting a
    /// clone of the AST: the re-walk template substitution must match.
    fn rewalk(p: &Program, rename: &HashMap<OccId, String>) -> String {
        let mut p = p.clone();
        p.for_each_ident_mut(&mut |id| {
            if let Some(name) = rename.get(&id.occ) {
                id.name.clone_from(name);
            }
        });
        print_program(&p)
    }
    use crate::parse;

    fn roundtrip(src: &str) {
        let p1 = parse(src).expect("first parse");
        let s1 = print_program(&p1);
        let p2 = parse(&s1).unwrap_or_else(|e| panic!("reparse failed: {e}\n{s1}"));
        let s2 = print_program(&p2);
        assert_eq!(s1, s2, "printer not a fixpoint for:\n{src}");
    }

    #[test]
    fn roundtrips_paper_programs() {
        roundtrip("int a, b = 1; int main() { b = b - a; if (a) a = a - b; return 0; }");
        roundtrip("int a = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }");
        roundtrip(
            "struct s { char c[1]; }; struct s a, b, c; int d; int e; \
             void bar(void) { e ? (d==0 ? b : c).c : (d==0 ? b : c).c; }",
        );
        roundtrip(
            "int main() { int *p = 0; trick: if (p) return *p; int x = 0; p = &x; goto trick; return 0; }",
        );
        roundtrip(
            "double u[1782225]; int a, b, d, e; static void foo(int *p1) { double c = 0.0; \
             for (; a < 1335; a++) { b = 0; for (; b < 1335; b++) c = c + u[a + 1335 * a]; \
             u[1336 * a] *= 2; } *p1 = c; } int main() { return 0; }"
                .replace("0.0", "0")
                .as_str(),
        );
    }

    #[test]
    fn roundtrips_control_flow() {
        roundtrip(
            "int i; void f() { do { i++; } while (i < 3); for (int j = 0; j < 4; j++) i += j; }",
        );
        roundtrip("int x; void f() { while (x) if (x > 2) break; else continue; }");
    }

    #[test]
    fn roundtrips_expressions() {
        roundtrip("int a, b, c; void f() { a = b + c * a - (b - c); }");
        roundtrip("int a, b; void f() { a = b << 2 | a >> 1 & 3; }");
        roundtrip("int a, b; void f() { a = a && b || !a; }");
        roundtrip("int a; int *p; void f() { *p = -a; p = &a; a = *p + ~a; }");
        roundtrip("int a, b; void f() { a = b ? a : b; a = (a, b); }");
        roundtrip("int a; void f() { a = (int) 'x'; a++; --a; }");
        roundtrip("int u[3]; int a; void f() { u[a + 1] = u[0]; }");
    }

    #[test]
    fn negative_literals_do_not_merge() {
        let p = parse("int a; void f() { a = -1; a = - -a; }").expect("parses");
        let s = print_program(&p);
        assert!(!s.contains("--"), "merged unary minuses: {s}");
        roundtrip(&s);
    }

    #[test]
    fn rename_map_changes_use_sites_only() {
        let p = parse("int a, b; void f() { a = b + a; }").expect("parses");
        // Occurrences in order: a(0), b(1), a(2).
        let mut map = HashMap::new();
        map.insert(OccId(1), "a".to_string());
        map.insert(OccId(2), "b".to_string());
        let s = rewalk(&p, &map);
        assert!(s.contains("a = a + b;"), "got: {s}");
        assert!(s.contains("int a, b;"), "declarations must not change: {s}");
    }

    /// Splices `map`'s names into a template's sites; unmapped sites
    /// keep their original names.
    fn splice(t: &PrintTemplate, map: &HashMap<OccId, String>) -> String {
        let mut out = String::new();
        let mut at = 0;
        for (occ, range) in &t.sites {
            out.push_str(&t.text[at..range.start]);
            out.push_str(map.get(occ).map_or(&t.text[range.clone()], String::as_str));
            at = range.end;
        }
        out.push_str(&t.text[at..]);
        out
    }

    #[test]
    fn template_pieces_reassemble_to_print_program() {
        let sources = [
            "int a, b = 1; int main() { b = b - a; if (a) a = a - b; return 0; }",
            "int a = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }",
            "int u[3]; int a; void f() { u[a + 1] = u[0]; a = a ? -a : (a, a); }",
            "int g; void f() { for (int j = 0; j < 4; j++) g += j; }",
        ];
        for src in sources {
            let p = parse(src).expect("parses");
            let t = print_template(&p);
            assert_eq!(t.text, print_program(&p), "template drifted for {src}");
            let mut names = HashMap::new();
            p.clone().for_each_ident_mut(&mut |id| {
                names.insert(id.occ, id.name.clone());
            });
            assert_eq!(t.sites.len(), names.len(), "one site per use");
            for (occ, range) in &t.sites {
                assert_eq!(&t.text[range.clone()], names[occ], "site of {occ:?}");
            }
        }
    }

    #[test]
    fn template_substitution_matches_print_renamed() {
        let p = parse("int a, b; void f() { a = b + a; }").expect("parses");
        let mut map = HashMap::new();
        map.insert(OccId(1), "a".to_string());
        map.insert(OccId(2), "b".to_string());
        assert_eq!(splice(&print_template(&p), &map), rewalk(&p, &map));
    }

    #[test]
    fn prints_brace_initializers() {
        roundtrip("int c[2] = {0, 1}; int d = 0;");
    }

    #[test]
    fn printed_ternary_member_is_parenthesized() {
        roundtrip(
            "struct s { char c[1]; }; struct s b, c; int d; void f() { (d == 0 ? b : c).c; }",
        );
    }
}
