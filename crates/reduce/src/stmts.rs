//! Statement-level hierarchical reduction.
//!
//! Four sub-passes, coarse to fine, each keeping the program reproducing
//! under the oracle at every step:
//!
//! 1. **Item ddmin** — whole top-level items (functions, globals, struct
//!    definitions) are minimized with [`crate::ddmin`];
//! 2. **Block ddmin** — every statement list (function bodies, `{}`
//!    blocks), outermost first, is minimized the same way; statements
//!    deleted at an outer level take their nested blocks with them, which
//!    is what makes the hierarchy cheaper than flat line-based ddmin;
//! 3. **Unwrapping** — control structures collapse into their bodies
//!    (`if (c) S` → `S`, loops → body, `label: S` → `S`, `{ S… }`
//!    spliced inline, `else` dropped);
//! 4. **Declarator pruning** — multi-declarator declarations lose unused
//!    declarators (`int a, b, c;` → `int b;`).

use crate::ddmin::ddmin;
use crate::{printed_len, Shrinker};
use spe_minic::ast::{Item, Node, Program, Stmt};
use std::ops::ControlFlow;

/// Runs all statement-level passes once.
pub(crate) fn reduce(p: &mut Program, sh: &mut Shrinker) {
    reduce_items(p, sh);
    reduce_lists(p, sh);
    unwrap_statements(p, sh);
    prune_declarators(p, sh);
}

fn with_items(p: &Program, items: &[Item]) -> Program {
    Program {
        items: items.to_vec(),
        max_occ: p.max_occ,
        max_expr: p.max_expr,
    }
}

fn reduce_items(p: &mut Program, sh: &mut Shrinker) {
    if p.items.len() < 2 {
        return;
    }
    let kept = ddmin(p.items.clone(), &mut |subset| {
        sh.accepts(&with_items(p, subset))
    });
    if kept.len() < p.items.len() {
        p.items = kept;
    }
}

/// Finds the `target`-th statement list of the program in pre-order
/// (function bodies first, then nested `{}` blocks within each).
fn find_list(p: &mut Program, target: usize) -> Option<&mut Vec<Stmt>> {
    let mut next = 0usize;
    for item in &mut p.items {
        if let Item::Func(f) = item {
            if let Some(found) = find_in_list(&mut f.body, &mut next, target) {
                return Some(found);
            }
        }
    }
    None
}

fn find_in_list<'a>(
    stmts: &'a mut Vec<Stmt>,
    next: &mut usize,
    target: usize,
) -> Option<&'a mut Vec<Stmt>> {
    let id = *next;
    *next += 1;
    if id == target {
        return Some(stmts);
    }
    for s in stmts.iter_mut() {
        if let Some(found) = find_in_stmt(s, next, target) {
            return Some(found);
        }
    }
    None
}

fn find_in_stmt<'a>(s: &'a mut Stmt, next: &mut usize, target: usize) -> Option<&'a mut Vec<Stmt>> {
    if let Stmt::Block(b) = s {
        return find_in_list(b, next, target);
    }
    s.children_mut(|c| match c {
        Node::Stmt(s) => {
            find_in_stmt(s, next, target).map_or(ControlFlow::Continue(()), ControlFlow::Break)
        }
        Node::Expr(_) => ControlFlow::Continue(()),
    })
    .break_value()
}

fn count_lists(p: &mut Program) -> usize {
    // One past the largest reachable id: probe by walking with an
    // unreachable target and reading the counter.
    let mut next = 0usize;
    for item in &mut p.items {
        if let Item::Func(f) = item {
            let _ = find_in_list(&mut f.body, &mut next, usize::MAX);
        }
    }
    next
}

fn reduce_lists(p: &mut Program, sh: &mut Shrinker) {
    // Outermost lists have the smallest ids; editing list `i` only
    // removes lists with larger ids, so one ascending sweep (with the
    // count re-taken each step) visits every surviving list exactly once.
    let mut id = 0usize;
    while id < count_lists(p) && !sh.exhausted() {
        let list = find_list(p, id).expect("id < count").clone();
        if !list.is_empty() {
            let kept = ddmin(list, &mut |subset| {
                let mut cand = p.clone();
                *find_list(&mut cand, id).expect("same shape") = subset.to_vec();
                sh.accepts(&cand)
            });
            *find_list(p, id).expect("id < count") = kept;
        }
        id += 1;
    }
}

/// Statement sequences a control structure can collapse into, most
/// aggressive first.
fn unwrap_candidates(s: &Stmt) -> Vec<Vec<Stmt>> {
    fn body_of(s: &Stmt) -> Vec<Stmt> {
        match s {
            Stmt::Block(b) => b.clone(),
            other => vec![other.clone()],
        }
    }
    match s {
        Stmt::If(c, t, Some(e)) => vec![
            body_of(t),
            body_of(e),
            vec![Stmt::If(c.clone(), t.clone(), None)],
        ],
        Stmt::If(_, t, None) => vec![body_of(t)],
        Stmt::While(_, b) | Stmt::DoWhile(b, _) | Stmt::For(_, _, _, b) => vec![body_of(b)],
        Stmt::Label(_, inner) => vec![body_of(inner)],
        Stmt::Block(b) => vec![b.clone()],
        _ => Vec::new(),
    }
}

fn unwrap_statements(p: &mut Program, sh: &mut Shrinker) {
    let mut changed = true;
    while changed && !sh.exhausted() {
        changed = false;
        let before = printed_len(p);
        'outer: for id in 0..count_lists(p) {
            let list = find_list(p, id).expect("id < count").clone();
            for (i, s) in list.iter().enumerate() {
                for replacement in unwrap_candidates(s) {
                    let mut cand = p.clone();
                    let l = find_list(&mut cand, id).expect("same shape");
                    l.splice(i..=i, replacement);
                    if printed_len(&cand) < before && sh.accepts(&cand) {
                        *p = cand;
                        changed = true;
                        break 'outer;
                    }
                }
            }
        }
    }
}

fn prune_declarators(p: &mut Program, sh: &mut Shrinker) {
    // Globals: ddmin each multi-declarator `Item::Global` (non-empty —
    // removing the whole item is `reduce_items`' job).
    for idx in 0..p.items.len() {
        let Item::Global(decls) = &p.items[idx] else {
            continue;
        };
        if decls.len() < 2 {
            continue;
        }
        let kept = ddmin(decls.clone(), &mut |subset| {
            if subset.is_empty() {
                return false;
            }
            let mut cand = p.clone();
            cand.items[idx] = Item::Global(subset.to_vec());
            sh.accepts(&cand)
        });
        if let Item::Global(decls) = &mut p.items[idx] {
            *decls = kept;
        }
    }
    // Locals: ddmin each multi-declarator `Stmt::Decl` of every list.
    for id in 0..count_lists(p) {
        let list = find_list(p, id).expect("id < count").clone();
        for (i, s) in list.iter().enumerate() {
            let Stmt::Decl(decls) = s else { continue };
            if decls.len() < 2 {
                continue;
            }
            let kept = ddmin(decls.clone(), &mut |subset| {
                if subset.is_empty() {
                    return false;
                }
                let mut cand = p.clone();
                let l = find_list(&mut cand, id).expect("same shape");
                l[i] = Stmt::Decl(subset.to_vec());
                sh.accepts(&cand)
            });
            let l = find_list(p, id).expect("id < count");
            l[i] = Stmt::Decl(kept);
        }
    }
}

/// The ordered statement-kind shape of a program: every statement of
/// every function, nested structure included, as a compact tag string —
/// e.g. `fn{decl,if{expr},ret}`. Variable spellings, expression contents
/// and types are all erased, so the signature is strictly coarser than
/// the structural [`crate::fingerprint`]: two *different* minimal
/// witnesses of one root cause (a bug reached through two corpus files
/// that ddmin to distinct programs) usually still share it, which is
/// what the harness's trigger-aware duplicate folding exploits
/// (`spe_harness::reduction`, `DESIGN.md` §7).
pub fn stmt_kind_signature(p: &Program) -> String {
    let mut out = String::new();
    for item in &p.items {
        match item {
            Item::Global(_) => out.push_str("gl,"),
            Item::Struct(_) => out.push_str("st,"),
            Item::Func(f) => {
                out.push_str("fn{");
                for s in &f.body {
                    stmt_tag(s, &mut out);
                }
                out.push_str("},");
            }
        }
    }
    out
}

fn stmt_tag(s: &Stmt, out: &mut String) {
    match s {
        Stmt::Expr(_) => out.push_str("expr,"),
        Stmt::Decl(_) => out.push_str("decl,"),
        Stmt::Block(body) => {
            out.push('{');
            for s in body {
                stmt_tag(s, out);
            }
            out.push_str("},");
        }
        Stmt::If(_, t, e) => {
            out.push_str("if{");
            stmt_tag(t, out);
            if let Some(e) = e {
                out.push_str("}else{");
                stmt_tag(e, out);
            }
            out.push_str("},");
        }
        Stmt::While(_, body) => {
            out.push_str("while{");
            stmt_tag(body, out);
            out.push_str("},");
        }
        Stmt::DoWhile(body, _) => {
            out.push_str("do{");
            stmt_tag(body, out);
            out.push_str("},");
        }
        Stmt::For(_, _, _, body) => {
            out.push_str("for{");
            stmt_tag(body, out);
            out.push_str("},");
        }
        Stmt::Return(_) => out.push_str("ret,"),
        Stmt::Break => out.push_str("brk,"),
        Stmt::Continue => out.push_str("cont,"),
        Stmt::Goto(_) => out.push_str("goto,"),
        Stmt::Label(_, s) => {
            out.push_str("lbl:");
            stmt_tag(s, out);
        }
        Stmt::Empty => out.push_str("nop,"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::{parse, print_program};

    fn run(src: &str, needle: &'static str) -> String {
        let mut p = parse(src).expect("parses");
        let mut oracle = move |p: &Program| print_program(p).contains(needle);
        let mut sh = Shrinker::new(&mut oracle, 10_000);
        assert!(sh.accepts(&p), "oracle holds on the input");
        reduce(&mut p, &mut sh);
        print_program(&p)
    }

    #[test]
    fn removes_irrelevant_statements() {
        let out = run(
            "int a, b; int main() { b = 1; b = b + 2; a = a; b = b - 1; return b; }",
            "a = a;",
        );
        assert!(out.contains("a = a;"), "{out}");
        assert!(!out.contains("b + 2"), "{out}");
    }

    #[test]
    fn unwraps_control_structure() {
        let out = run(
            "int a, b; int main() { if (b) { while (b) { a = a; } } return 0; }",
            "a = a;",
        );
        assert!(out.contains("a = a;"), "{out}");
        assert!(!out.contains("while"), "{out}");
        assert!(!out.contains("if"), "{out}");
    }

    #[test]
    fn prunes_unused_declarators_and_items() {
        let out = run(
            "int a, b, c; int unused(void) { return 1; } int main() { a = a; return 0; }",
            "a = a;",
        );
        assert!(!out.contains("unused"), "{out}");
        assert!(!out.contains('b'), "{out}");
        assert!(!out.contains('c'), "{out}");
    }

    #[test]
    fn keeps_declarations_needed_by_the_witness() {
        let out = run(
            "int main() { int a = 1; int b = 2; b = a + b; a = a; return b; }",
            "a = a;",
        );
        assert!(out.contains("int a"), "declaration survives: {out}");
        parse(&out).expect("reduced output parses");
    }

    #[test]
    fn stmt_kind_signature_erases_spelling_but_not_shape() {
        let sig = |src: &str| stmt_kind_signature(&parse(src).expect("parses"));
        // α-renaming and expression contents are erased…
        assert_eq!(
            sig("int main() { int a = 1; if (a) a = a; return a; }"),
            sig("int main() { int z = 9; if (z) z = z + z; return z; }"),
        );
        // …but control shape is not.
        assert_ne!(
            sig("int main() { int a = 1; if (a) a = a; return a; }"),
            sig("int main() { int a = 1; while (a) a = a; return a; }"),
        );
    }
}
