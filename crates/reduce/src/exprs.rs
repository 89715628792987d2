//! Expression-level simplification: hoisting and literal folding.
//!
//! After statement ddmin has removed whole statements, witnesses often
//! still carry oversized expressions (`a = b + c * (d - e)` when only the
//! multiplication matters). This pass walks every expression site —
//! statement expressions, conditions, steps, `return` values and
//! initializers — and repeatedly tries, top-down:
//!
//! * replacing a node with one of its **own sub-expressions** (hoisting —
//!   the expression analogue of ddmin's chunk removal), and
//! * replacing a node with the literal `0`;
//!
//! keeping a change only when the program still reproduces under the
//! oracle and does not grow. A separate sub-pass drops optional slots
//! entirely: declarator initializers and `for` conditions/steps.

use crate::{printed_len, Shrinker};
use spe_minic::ast::{Expr, ExprKind, ForInit, Item, Node, Program, Stmt};
use std::ops::ControlFlow;

/// Runs the expression-level passes once.
pub(crate) fn reduce(p: &mut Program, sh: &mut Shrinker) {
    drop_optional_slots(p, sh);
    simplify_slots(p, sh);
}

// ---------------------------------------------------------------------
// Expression-slot addressing: every expression position of the program
// gets a stable pre-order id (stable until the program is edited).
// ---------------------------------------------------------------------

fn find_slot(p: &mut Program, target: usize) -> Option<&mut Expr> {
    let mut next = 0usize;
    for item in &mut p.items {
        match item {
            Item::Global(decls) => {
                for d in decls {
                    if let Some(init) = &mut d.init {
                        if let Some(found) = claim(init, &mut next, target) {
                            return Some(found);
                        }
                    }
                }
            }
            Item::Func(f) => {
                if let Some(found) = find_in_stmts(&mut f.body, &mut next, target) {
                    return Some(found);
                }
            }
            Item::Struct(_) => {}
        }
    }
    None
}

fn claim<'a>(e: &'a mut Expr, next: &mut usize, target: usize) -> Option<&'a mut Expr> {
    let id = *next;
    *next += 1;
    (id == target).then_some(e)
}

fn find_in_stmts<'a>(
    stmts: &'a mut [Stmt],
    next: &mut usize,
    target: usize,
) -> Option<&'a mut Expr> {
    stmts.iter_mut().find_map(|s| find_in_stmt(s, next, target))
}

fn find_in_stmt<'a>(s: &'a mut Stmt, next: &mut usize, target: usize) -> Option<&'a mut Expr> {
    s.children_mut(|c| {
        let found = match c {
            Node::Stmt(s) => find_in_stmt(s, next, target),
            Node::Expr(e) => claim(e, next, target),
        };
        found.map_or(ControlFlow::Continue(()), ControlFlow::Break)
    })
    .break_value()
}

fn count_slots(p: &mut Program) -> usize {
    let mut next = 0usize;
    for item in &mut p.items {
        match item {
            Item::Global(decls) => {
                for d in decls {
                    if let Some(init) = &mut d.init {
                        let _ = claim(init, &mut next, usize::MAX);
                    }
                }
            }
            Item::Func(f) => {
                let _ = find_in_stmts(&mut f.body, &mut next, usize::MAX);
            }
            Item::Struct(_) => {}
        }
    }
    next
}

// ---------------------------------------------------------------------
// Node addressing within one expression (pre-order).
// ---------------------------------------------------------------------

fn node_count(e: &Expr) -> usize {
    let mut n = 1;
    let _ = e.children(|c| {
        n += node_count(c);
        ControlFlow::<()>::Continue(())
    });
    n
}

/// Breaks with the node whose pre-order id is `target`.
fn node_at<'a>(e: &'a Expr, next: &mut usize, target: usize) -> ControlFlow<&'a Expr> {
    let id = *next;
    *next += 1;
    if id == target {
        return ControlFlow::Break(e);
    }
    e.children(|c| node_at(c, next, target))
}

/// Replaces the node whose pre-order id is `target` with `new`, and
/// breaks once it has.
fn replace_node(e: &mut Expr, next: &mut usize, target: usize, new: &Expr) -> ControlFlow<()> {
    let id = *next;
    *next += 1;
    if id == target {
        *e = new.clone();
        return ControlFlow::Break(());
    }
    e.children_mut(|c| replace_node(c, next, target, new))
}

/// Replacement candidates for one node, most aggressive first: each
/// direct sub-expression, then the literal `0`.
fn candidates(node: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    let _ = node.children(|c| {
        out.push(c.clone());
        ControlFlow::<()>::Continue(())
    });
    if !matches!(node.kind, ExprKind::IntLit(_)) {
        out.push(Expr {
            id: node.id,
            kind: ExprKind::IntLit(0),
        });
    }
    out
}

fn simplify_slots(p: &mut Program, sh: &mut Shrinker) {
    // Every accepted edit either strictly shrinks the expression node
    // count (hoisting) or converts a non-literal node into a literal, so
    // the loop terminates without an explicit fuel bound; the oracle
    // budget cuts it short regardless.
    let mut changed = true;
    while changed && !sh.exhausted() {
        changed = false;
        let before = printed_len(p);
        'outer: for slot in 0..count_slots(p) {
            let expr = find_slot(p, slot).expect("slot < count").clone();
            for node_idx in 0..node_count(&expr) {
                let node = node_at(&expr, &mut 0, node_idx)
                    .break_value()
                    .expect("node < count");
                for cand in candidates(node) {
                    let mut cand_p = p.clone();
                    let slot_expr = find_slot(&mut cand_p, slot).expect("same shape");
                    assert!(replace_node(slot_expr, &mut 0, node_idx, &cand).is_break());
                    if printed_len(&cand_p) <= before && sh.accepts(&cand_p) {
                        *p = cand_p;
                        changed = true;
                        break 'outer;
                    }
                }
            }
        }
    }
}

/// Optional-slot removal: `int a = e;` → `int a;`, `for (i; c; s)` losing
/// `c` or `s`. Each is its own candidate edit.
fn drop_optional_slots(p: &mut Program, sh: &mut Shrinker) {
    let mut changed = true;
    while changed && !sh.exhausted() {
        changed = false;
        let total = count_optional(p);
        for id in 0..total {
            let mut cand = p.clone();
            if !remove_optional(&mut cand, id) {
                continue;
            }
            if sh.accepts(&cand) {
                *p = cand;
                changed = true;
                break; // ids shifted; re-enumerate
            }
        }
    }
}

/// Enumerates removable optional slots; with `remove` set, removes slot
/// `target` and reports whether it existed.
fn walk_optional(p: &mut Program, target: usize, remove: bool) -> (usize, bool) {
    let mut next = 0usize;
    let mut removed = false;
    let mut try_slot = |next: &mut usize, clear: &mut dyn FnMut()| {
        let id = *next;
        *next += 1;
        if remove && id == target {
            clear();
            removed = true;
        }
    };
    fn stmts(
        list: &mut [Stmt],
        next: &mut usize,
        try_slot: &mut impl FnMut(&mut usize, &mut dyn FnMut()),
    ) {
        for s in list.iter_mut() {
            match s {
                Stmt::Decl(decls) => {
                    for d in decls {
                        if d.init.is_some() {
                            try_slot(next, &mut || d.init = None);
                        }
                    }
                }
                Stmt::Block(b) => stmts(b, next, try_slot),
                Stmt::If(_, t, e) => {
                    stmts(std::slice::from_mut(t), next, try_slot);
                    if let Some(e) = e {
                        stmts(std::slice::from_mut(e), next, try_slot);
                    }
                }
                Stmt::While(_, b) | Stmt::DoWhile(b, _) => {
                    stmts(std::slice::from_mut(b), next, try_slot)
                }
                Stmt::For(init, cond, step, b) => {
                    if let Some(ForInit::Decl(ds)) = init {
                        for d in ds {
                            if d.init.is_some() {
                                try_slot(next, &mut || d.init = None);
                            }
                        }
                    }
                    if cond.is_some() {
                        try_slot(next, &mut || *cond = None);
                    }
                    if step.is_some() {
                        try_slot(next, &mut || *step = None);
                    }
                    stmts(std::slice::from_mut(b), next, try_slot);
                }
                Stmt::Label(_, inner) => stmts(std::slice::from_mut(inner), next, try_slot),
                _ => {}
            }
        }
    }
    for item in &mut p.items {
        match item {
            Item::Global(decls) => {
                for d in decls {
                    if d.init.is_some() {
                        try_slot(&mut next, &mut || d.init = None);
                    }
                }
            }
            Item::Func(f) => stmts(&mut f.body, &mut next, &mut try_slot),
            Item::Struct(_) => {}
        }
    }
    (next, removed)
}

fn count_optional(p: &mut Program) -> usize {
    walk_optional(p, usize::MAX, false).0
}

fn remove_optional(p: &mut Program, target: usize) -> bool {
    walk_optional(p, target, true).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::{parse, print_program};

    fn run(src: &str, oracle: impl Fn(&Program) -> bool + 'static) -> String {
        let mut p = parse(src).expect("parses");
        let mut oracle = move |p: &Program| oracle(p);
        let mut sh = Shrinker::new(&mut oracle, 10_000);
        assert!(sh.accepts(&p), "oracle holds on the input");
        reduce(&mut p, &mut sh);
        print_program(&p)
    }

    #[test]
    fn hoists_the_relevant_subexpression() {
        let out = run(
            "int a, b, c; int main() { a = b + (c - c) * 2; return 0; }",
            |p| print_program(p).contains("c - c"),
        );
        assert!(out.contains("c - c"), "{out}");
        assert!(!out.contains("b +"), "irrelevant operand gone: {out}");
        assert!(!out.contains("* 2"), "irrelevant factor gone: {out}");
    }

    #[test]
    fn folds_irrelevant_operands_to_literals() {
        let out = run("int x, y; int main() { x = x / x + y; return 0; }", |p| {
            print_program(p).contains("x / x")
        });
        assert!(out.contains("x / x"), "{out}");
        assert!(!out.contains("+ y"), "{out}");
    }

    #[test]
    fn drops_initializers_and_for_clauses() {
        let out = run(
            "int g = 42; int main() { for (int i = 0; i < 3; i++) g = g; return 0; }",
            |p| print_program(p).contains("g = g"),
        );
        assert!(out.contains("g = g"), "{out}");
        assert!(!out.contains("42"), "{out}");
        parse(&out).expect("still parses");
    }

    #[test]
    fn slot_count_matches_edit_reachability() {
        let mut p = parse(
            "int g = 1; int main() { int x = 2; do { x = x + g; } while (x < 9); return x; }",
        )
        .expect("parses");
        let slots = count_slots(&mut p);
        for id in 0..slots {
            assert!(find_slot(&mut p, id).is_some(), "slot {id} unreachable");
        }
        assert!(find_slot(&mut p, slots).is_none());
    }
}
