//! Skeleton-aware hole-renaming canonicalization (α-normal form).
//!
//! Two witnesses of the same root cause frequently differ only in
//! variable spelling — SPE realizes variants by *renaming use sites*, so
//! a bug found through `seeds/figure2.c` and again through a corpus file
//! yields reproducers whose usage partitions (which holes share a
//! variable — the skeleton-level identity SPE enumerates) coincide while
//! every name differs. This pass erases the spelling: variables are
//! renamed `a`, `b`, `c`, … in declaration order (per C scoping, so
//! shadowed locals get their own fresh names and visibility is
//! preserved), labels `l0`, `l1`, … in definition order, and everything
//! else (functions, struct tags, fields, literals) stays fixed. The
//! result is a canonical representative of the witness's α-equivalence
//! class: two programs canonicalize to byte-identical source iff they
//! differ only by a consistent renaming — exactly the collision the
//! fingerprint dedup pass wants.
//!
//! Renaming is a bijection on each scope's variables, so every
//! name-equality pattern (`x = x`, `a - a`, aliased `&v` pairs, distinct
//! variable counts) — the patterns the seeded bug triggers match on — is
//! preserved, and the canonical witness keeps reproducing.

use spe_minic::ast::{
    Expr, ExprKind, ForInit, Function, Item, Node, Param, Program, Stmt, StructDef, VarDeclarator,
};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// Names the canonical namer must never produce: everything that is not a
/// variable (callees, function and struct names) plus the language's
/// keywords — single letters are always safe, but the generator's
/// two-letter tail contains `do`/`if`.
fn reserved_names(p: &Program) -> HashSet<String> {
    const KEYWORDS: &[&str] = &[
        "void", "char", "int", "unsigned", "long", "float", "double", "struct", "static", "if",
        "else", "while", "for", "do", "return", "break", "continue", "goto", "sizeof",
    ];
    let mut out: HashSet<String> = KEYWORDS.iter().map(|s| s.to_string()).collect();
    fn walk(c: Node<&Stmt, &Expr>, out: &mut HashSet<String>) -> ControlFlow<()> {
        match c {
            Node::Stmt(s) => s.children(|c| walk(c, out)),
            Node::Expr(e) => {
                if let ExprKind::Call(name, _) = &e.kind {
                    out.insert(name.clone());
                }
                e.children(|c| walk(Node::Expr(c), out))
            }
        }
    }
    for item in &p.items {
        match item {
            Item::Func(f) => {
                out.insert(f.name.clone());
                for s in &f.body {
                    let _ = walk(Node::Stmt(s), &mut out);
                }
            }
            Item::Struct(s) => {
                out.insert(s.name.clone());
            }
            Item::Global(ds) => {
                for e in ds.iter().filter_map(|d| d.init.as_ref()) {
                    let _ = walk(Node::Expr(e), &mut out);
                }
            }
        }
    }
    out
}

/// Deterministic fresh-name generator: `a`…`z`, `aa`, `ab`, … skipping
/// reserved names.
struct Namer {
    reserved: HashSet<String>,
    next: usize,
}

impl Namer {
    fn spell(mut i: usize) -> String {
        let mut out = String::new();
        loop {
            out.insert(0, (b'a' + (i % 26) as u8) as char);
            i /= 26;
            if i == 0 {
                return out;
            }
            i -= 1;
        }
    }

    fn fresh(&mut self) -> String {
        loop {
            let name = Namer::spell(self.next);
            self.next += 1;
            if !self.reserved.contains(&name) {
                return name;
            }
        }
    }
}

/// Lexical scope stack mapping original names to canonical ones.
struct Scopes(Vec<HashMap<String, String>>);

impl Scopes {
    fn lookup(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find_map(|m| m.get(name).map(String::as_str))
    }

    fn declare(&mut self, old: &str, new: String) {
        self.0
            .last_mut()
            .expect("scope stack never empty")
            .insert(old.to_string(), new);
    }
}

/// Canonicalizes `p` into declaration-order α-normal form.
pub fn canonicalize(p: &Program) -> Program {
    let mut namer = Namer {
        reserved: reserved_names(p),
        next: 0,
    };
    let mut scopes = Scopes(vec![HashMap::new()]);
    let items = p
        .items
        .iter()
        .map(|item| match item {
            Item::Struct(s) => Item::Struct(StructDef {
                name: s.name.clone(),
                fields: s.fields.clone(),
            }),
            Item::Global(ds) => Item::Global(declarators(ds, &mut scopes, &mut namer)),
            Item::Func(f) => {
                scopes.0.push(HashMap::new());
                let params = f
                    .params
                    .iter()
                    .map(|prm| {
                        let fresh = namer.fresh();
                        scopes.declare(&prm.name, fresh.clone());
                        Param {
                            name: fresh,
                            ty: prm.ty.clone(),
                        }
                    })
                    .collect();
                let labels = label_map(&f.body, &namer.reserved);
                let body = f
                    .body
                    .iter()
                    .map(|s| stmt(s, &mut scopes, &mut namer, &labels))
                    .collect();
                scopes.0.pop();
                Item::Func(Function {
                    name: f.name.clone(),
                    ret: f.ret.clone(),
                    params,
                    body,
                    is_static: f.is_static,
                })
            }
        })
        .collect();
    Program {
        items,
        max_occ: p.max_occ,
        max_expr: p.max_expr,
    }
}

/// Canonical names for a function's labels, in definition order.
fn label_map(body: &[Stmt], reserved: &HashSet<String>) -> HashMap<String, String> {
    fn collect(s: &Stmt, out: &mut Vec<String>) -> ControlFlow<()> {
        if let Stmt::Label(l, _) = s {
            if !out.contains(l) {
                out.push(l.clone());
            }
        }
        s.children(|c| match c {
            Node::Stmt(c) => collect(c, out),
            Node::Expr(_) => ControlFlow::Continue(()),
        })
    }
    let mut defined = Vec::new();
    for s in body {
        let _ = collect(s, &mut defined);
    }
    let mut map = HashMap::new();
    let mut i = 0usize;
    for old in defined {
        let fresh = loop {
            let cand = format!("l{i}");
            i += 1;
            if !reserved.contains(&cand) {
                break cand;
            }
        };
        map.insert(old, fresh);
    }
    map
}

fn declarators(ds: &[VarDeclarator], scopes: &mut Scopes, namer: &mut Namer) -> Vec<VarDeclarator> {
    ds.iter()
        .map(|d| {
            // C's declaration point precedes the initializer, so the
            // name is declared before the init is renamed (`int a = a;`
            // refers to the new `a`, not an outer one).
            let fresh = namer.fresh();
            scopes.declare(&d.name, fresh.clone());
            VarDeclarator {
                name: fresh,
                ty: d.ty.clone(),
                init: d.init.as_ref().map(|e| expr(e, scopes)),
            }
        })
        .collect()
}

fn stmt(
    s: &Stmt,
    scopes: &mut Scopes,
    namer: &mut Namer,
    labels: &HashMap<String, String>,
) -> Stmt {
    match s {
        Stmt::Expr(e) => Stmt::Expr(expr(e, scopes)),
        Stmt::Decl(ds) => Stmt::Decl(declarators(ds, scopes, namer)),
        Stmt::Block(b) => {
            scopes.0.push(HashMap::new());
            let out = b.iter().map(|s| stmt(s, scopes, namer, labels)).collect();
            scopes.0.pop();
            Stmt::Block(out)
        }
        Stmt::If(c, t, e) => Stmt::If(
            expr(c, scopes),
            Box::new(stmt(t, scopes, namer, labels)),
            e.as_ref().map(|e| Box::new(stmt(e, scopes, namer, labels))),
        ),
        Stmt::While(c, b) => Stmt::While(expr(c, scopes), Box::new(stmt(b, scopes, namer, labels))),
        Stmt::DoWhile(b, c) => {
            Stmt::DoWhile(Box::new(stmt(b, scopes, namer, labels)), expr(c, scopes))
        }
        Stmt::For(init, cond, step, b) => {
            scopes.0.push(HashMap::new());
            let init = init.as_ref().map(|i| match i {
                ForInit::Decl(ds) => ForInit::Decl(declarators(ds, scopes, namer)),
                ForInit::Expr(e) => ForInit::Expr(expr(e, scopes)),
            });
            let out = Stmt::For(
                init,
                cond.as_ref().map(|c| expr(c, scopes)),
                step.as_ref().map(|st| expr(st, scopes)),
                Box::new(stmt(b, scopes, namer, labels)),
            );
            scopes.0.pop();
            out
        }
        Stmt::Return(e) => Stmt::Return(e.as_ref().map(|e| expr(e, scopes))),
        Stmt::Goto(l) => Stmt::Goto(labels.get(l).cloned().unwrap_or_else(|| l.clone())),
        Stmt::Label(l, inner) => Stmt::Label(
            labels.get(l).cloned().unwrap_or_else(|| l.clone()),
            Box::new(stmt(inner, scopes, namer, labels)),
        ),
        Stmt::Break => Stmt::Break,
        Stmt::Continue => Stmt::Continue,
        Stmt::Empty => Stmt::Empty,
    }
}

fn expr(e: &Expr, scopes: &Scopes) -> Expr {
    let kind = match &e.kind {
        ExprKind::Ident(id) => {
            let mut id = id.clone();
            if let Some(new) = scopes.lookup(&id.name) {
                id.name = new.to_string();
            }
            ExprKind::Ident(id)
        }
        ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(expr(a, scopes))),
        ExprKind::Post(op, a) => ExprKind::Post(*op, Box::new(expr(a, scopes))),
        ExprKind::Cast(ty, a) => ExprKind::Cast(ty.clone(), Box::new(expr(a, scopes))),
        ExprKind::Binary(op, a, b) => {
            ExprKind::Binary(*op, Box::new(expr(a, scopes)), Box::new(expr(b, scopes)))
        }
        ExprKind::Assign(op, a, b) => {
            ExprKind::Assign(*op, Box::new(expr(a, scopes)), Box::new(expr(b, scopes)))
        }
        ExprKind::Index(a, b) => {
            ExprKind::Index(Box::new(expr(a, scopes)), Box::new(expr(b, scopes)))
        }
        ExprKind::Comma(a, b) => {
            ExprKind::Comma(Box::new(expr(a, scopes)), Box::new(expr(b, scopes)))
        }
        ExprKind::Ternary(c, t, e2) => ExprKind::Ternary(
            Box::new(expr(c, scopes)),
            Box::new(expr(t, scopes)),
            Box::new(expr(e2, scopes)),
        ),
        ExprKind::Call(name, args) => {
            ExprKind::Call(name.clone(), args.iter().map(|a| expr(a, scopes)).collect())
        }
        ExprKind::Member(a, field, arrow) => {
            ExprKind::Member(Box::new(expr(a, scopes)), field.clone(), *arrow)
        }
        lit @ (ExprKind::IntLit(_) | ExprKind::CharLit(_) | ExprKind::StrLit(_)) => lit.clone(),
    };
    Expr { id: e.id, kind }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::{analyze, parse, print_program};

    fn canon(src: &str) -> String {
        let p = parse(src).expect("parses");
        let c = canonicalize(&p);
        let out = print_program(&c);
        let re = parse(&out).unwrap_or_else(|e| panic!("canonical form reparses: {e}\n{out}"));
        analyze(&re).unwrap_or_else(|e| panic!("canonical form scope-checks: {e}\n{out}"));
        out
    }

    #[test]
    fn alpha_equivalent_programs_coincide() {
        let a = canon("int x, y; int main() { x = y; y = x + x; return y; }");
        let b = canon("int foo, bar; int main() { foo = bar; bar = foo + foo; return bar; }");
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_partitions_stay_distinct() {
        let a = canon("int x, y; int main() { x = y; return 0; }");
        let b = canon("int x, y; int main() { x = x; return 0; }");
        assert_ne!(a, b, "usage partition is part of the canonical form");
    }

    #[test]
    fn shadowing_gets_fresh_names() {
        let out = canon("int v; int main() { int v = 1; { int v = 2; v = v + 1; } return v; }");
        // Three distinct declarations -> three distinct canonical names.
        assert!(out.contains("int a"), "{out}");
        assert!(out.contains("int b"), "{out}");
        assert!(out.contains("int c"), "{out}");
    }

    #[test]
    fn callees_and_labels_are_handled() {
        let out = canon(
            "int x; int main() { l: x = x + 1; printf(\"%d\", x); if (x < 3) goto l; return 0; }",
        );
        assert!(out.contains("printf"), "callee kept: {out}");
        assert!(out.contains("l0:"), "label canonicalized: {out}");
        assert!(out.contains("goto l0;"), "goto follows: {out}");
    }

    #[test]
    fn struct_fields_stay_fixed() {
        let out =
            canon("struct s { int field; }; struct s g; int main() { g.field = 1; return 0; }");
        assert!(out.contains(".field"), "{out}");
        assert!(out.contains("struct s"), "{out}");
    }

    #[test]
    fn use_before_local_declaration_resolves_to_the_outer_variable() {
        // `g` in `x = g;` is the global; the later local `g` shadows only
        // after its declaration point.
        let out = canon("int g; int main() { int x; x = g; int g = 2; return x + g; }");
        // global g -> a, x -> b, local g -> c.
        assert!(out.contains("b = a;"), "{out}");
        assert!(out.contains("return b + c;"), "{out}");
    }
}
