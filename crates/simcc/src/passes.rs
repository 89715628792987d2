//! AST-level optimization passes of the simulated compiler.
//!
//! Four passes mirror the pass kinds the paper's bugs live in: constant
//! folding (`fold`), sparse conditional constant propagation (`ccp`),
//! dead-code elimination (`dce`) and a (deliberately unsound when the
//! corresponding bug is active) alias-based store reordering (`alias`)
//! plus light loop clean-up (`loop`). Every transformation records
//! coverage points; wrong-code defects from the [`crate::bugs`] registry
//! are realized here as incorrect rewrites.
//!
//! [`optimize`] copies the program at most once: `-O0` runs no pass and
//! hands the input back borrowed, and from `-O1` up `optimize_in_place`
//! rewrites one private copy. The incremental oracle keeps one copy per
//! job, refreshes it per run, and calls `optimize_in_place` directly.

use crate::arith::{self, Outcome};
use crate::bugs::{exprs_equal, BugSpec, Trigger};
use crate::coverage::Coverage;
use spe_minic::ast::*;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// Pass pipeline context.
pub struct PassCtx<'a> {
    /// Optimization level 0–3.
    pub opt: u8,
    /// Active wrong-code bugs (crash bugs abort before the pipeline).
    pub wrong_code: Vec<&'a BugSpec>,
    /// Coverage accumulator ([`Coverage::off`] when no caller reads it).
    pub coverage: &'a mut Coverage,
    /// Ids of wrong-code bugs whose rewrite actually applied.
    pub miscompiled_by: Vec<&'static str>,
}

impl PassCtx<'_> {
    fn bug_active(&self, trigger: Trigger) -> Option<&'static str> {
        self.wrong_code
            .iter()
            .find(|b| b.trigger == trigger)
            .map(|b| b.id)
    }
}

/// Runs the optimization pipeline for the configured level, returning the
/// transformed program — borrowed unchanged at `-O0`, where no pass runs.
pub fn optimize<'p>(p: &'p Program, ctx: &mut PassCtx<'_>) -> Cow<'p, Program> {
    if ctx.opt == 0 {
        return Cow::Borrowed(p);
    }
    let mut prog = p.clone();
    optimize_in_place(&mut prog, ctx);
    Cow::Owned(prog)
}

/// Runs the optimization pipeline for the configured level on `p` itself;
/// at `-O0` it leaves `p` as it is.
pub(crate) fn optimize_in_place(p: &mut Program, ctx: &mut PassCtx<'_>) {
    if ctx.opt == 0 {
        return;
    }
    fold_pass(p, ctx);
    dce_pass(p, ctx);
    if ctx.opt >= 2 {
        ccp_pass(p, ctx);
        alias_pass(p, ctx);
    }
    if ctx.opt >= 3 {
        loop_pass(p, ctx);
    }
}

/// The function bodies of `p`, in source order.
fn bodies(p: &mut Program) -> impl Iterator<Item = &mut Vec<Stmt>> {
    p.items.iter_mut().filter_map(|i| match i {
        Item::Func(f) => Some(&mut f.body),
        _ => None,
    })
}

/// Moves `e` out, leaving a literal with the same id behind.
fn take_expr(e: &mut Expr) -> Expr {
    let hole = Expr {
        id: e.id,
        kind: ExprKind::IntLit(0),
    };
    std::mem::replace(e, hole)
}

// ----- fold ---------------------------------------------------------------

fn fold_pass(p: &mut Program, ctx: &mut PassCtx<'_>) {
    ctx.coverage.hit("fold", 0);
    for body in bodies(p) {
        for s in body {
            fold_stmt(s, ctx);
        }
    }
}

fn fold_stmt(s: &mut Stmt, ctx: &mut PassCtx<'_>) {
    let _ = s.children_mut(|c| {
        match c {
            Node::Stmt(s) => fold_stmt(s, ctx),
            Node::Expr(e) => fold_expr(e, ctx),
        }
        ControlFlow::<()>::Continue(())
    });
}

fn lit(e: &Expr) -> Option<i64> {
    match e.kind {
        ExprKind::IntLit(v) => Some(v),
        ExprKind::CharLit(c) => Some(c as i64),
        _ => None,
    }
}

fn is_pure_var(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Ident(_))
}

/// Variable-multiplicity buckets: enumeration rewires which variables
/// repeat inside one expression, steering the folder down different
/// canonicalization paths.
fn multiplicity_coverage(e: &Expr, coverage: &mut Coverage) {
    let (total, distinct) = if let ExprKind::Ident(_) = e.kind {
        (1, 1)
    } else {
        let mut names: Vec<&str> = Vec::new();
        e.for_each_ident(&mut |id| names.push(&id.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        (total, names.len())
    };
    if total > 0 {
        let max_same = total - distinct + 1;
        coverage.hit("fold", 18 + (max_same as u32).min(5));
        coverage.hit("ccp", 3 + (distinct as u32).min(8));
    }
}

fn fold_expr(e: &mut Expr, ctx: &mut PassCtx<'_>) {
    if ctx.coverage.is_recording() {
        multiplicity_coverage(e, ctx.coverage);
    }
    match &mut e.kind {
        ExprKind::Binary(op, a, b) => {
            let op = *op;
            fold_expr(a, ctx);
            fold_expr(b, ctx);
            let (x, y) = (lit(a), lit(b));
            if let (Some(x), Some(y)) = (x, y) {
                if let Some(v) = folded(arith::binary(op, x, y)) {
                    ctx.coverage.hit("fold", 1 + (op.precedence() % 8) as u32);
                    e.kind = ExprKind::IntLit(v);
                    return;
                }
            }
            // x - x => 0 for pure operands (or 1 under the seeded
            // wrong-code defect).
            if op == BinaryOp::Sub && is_pure_var(a) && exprs_equal(a, b) {
                ctx.coverage.hit("fold", 9);
                let v = match ctx.bug_active(Trigger::SubSelf) {
                    Some(id) => {
                        ctx.miscompiled_by.push(id);
                        1
                    }
                    None => 0,
                };
                e.kind = ExprKind::IntLit(v);
                return;
            }
            // Algebraic identities: the surviving operand replaces the
            // whole node.
            match (op, x, y) {
                (BinaryOp::Add, Some(0), _) => {
                    ctx.coverage.hit("fold", 10);
                    *e = take_expr(b);
                }
                (BinaryOp::Add, _, Some(0)) | (BinaryOp::Sub, _, Some(0)) => {
                    ctx.coverage.hit("fold", 11);
                    *e = take_expr(a);
                }
                (BinaryOp::Mul, _, Some(1)) => {
                    ctx.coverage.hit("fold", 12);
                    *e = take_expr(a);
                }
                (BinaryOp::Mul, Some(1), _) => {
                    ctx.coverage.hit("fold", 12);
                    *e = take_expr(b);
                }
                (BinaryOp::Mul, _, Some(0)) if is_pure_var(a) => {
                    ctx.coverage.hit("fold", 13);
                    e.kind = ExprKind::IntLit(0);
                }
                (BinaryOp::Mul, Some(0), _) if is_pure_var(b) => {
                    ctx.coverage.hit("fold", 13);
                    e.kind = ExprKind::IntLit(0);
                }
                _ => {}
            }
        }
        ExprKind::Unary(op, inner) => {
            let op = *op;
            fold_expr(inner, ctx);
            // Only a defined result folds: `-i64::MIN` stays.
            if let (UnaryOp::Neg | UnaryOp::Not, Some(v)) = (op, lit(inner)) {
                if let Outcome::Value(n) = arith::unary(op, v) {
                    ctx.coverage
                        .hit("fold", if op == UnaryOp::Neg { 14 } else { 15 });
                    e.kind = ExprKind::IntLit(n);
                }
            }
        }
        ExprKind::Ternary(c, t, els) => {
            fold_expr(c, ctx);
            fold_expr(t, ctx);
            fold_expr(els, ctx);
            if let Some(v) = lit(c) {
                ctx.coverage.hit("fold", 16);
                *e = take_expr(if v != 0 { t } else { els });
            } else if exprs_equal(t, els) {
                // The operand_equal_p comparison site (Figure 3); the
                // crash variant is handled before the pipeline runs.
                ctx.coverage.hit("fold", 17);
            }
        }
        ExprKind::Assign(_, _, rhs) => fold_expr(rhs, ctx),
        ExprKind::Call(_, args) => {
            for a in args {
                fold_expr(a, ctx);
            }
        }
        ExprKind::Index(_, i) => fold_expr(i, ctx),
        ExprKind::Comma(a, b) => {
            fold_expr(a, ctx);
            fold_expr(b, ctx);
        }
        ExprKind::Cast(_, inner) => fold_expr(inner, ctx),
        _ => {}
    }
}

/// The folder's reading of the integer table: a result the machine
/// computes folds, wrapped; a shift out of range or a division by zero is
/// left for run time.
pub(crate) fn folded(outcome: Outcome) -> Option<i64> {
    match outcome {
        Outcome::Value(v) | Outcome::Overflow(v) => Some(v),
        Outcome::ShiftRange(_) | Outcome::DivByZero => None,
    }
}

// ----- dce ------------------------------------------------------------------

fn dce_pass(p: &mut Program, ctx: &mut PassCtx<'_>) {
    ctx.coverage.hit("dce", 0);
    for body in bodies(p) {
        let has_back_goto = function_has_backward_goto(body);
        dce_stmts(body, ctx, has_back_goto, false);
    }
}

fn function_has_backward_goto(body: &[Stmt]) -> bool {
    fn walk<'a>(s: &'a Stmt, labels: &mut Vec<&'a str>) -> ControlFlow<()> {
        match s {
            Stmt::Label(l, _) => labels.push(l),
            Stmt::Goto(l) if labels.contains(&l.as_str()) => return ControlFlow::Break(()),
            _ => {}
        }
        s.children(|c| match c {
            Node::Stmt(c) => walk(c, labels),
            Node::Expr(_) => ControlFlow::Continue(()),
        })
    }
    let mut labels = Vec::new();
    body.iter()
        .try_for_each(|s| walk(s, &mut labels))
        .is_break()
}

fn dce_stmts(stmts: &mut Vec<Stmt>, ctx: &mut PassCtx<'_>, back_goto: bool, after_label: bool) {
    let mut seen_label = after_label;
    let mut i = 0;
    while i < stmts.len() {
        seen_label |= matches!(stmts[i], Stmt::Label(_, _));
        if dce_stmt(&mut stmts[i], ctx, back_goto, seen_label) {
            i += 1;
        } else {
            stmts.remove(i);
        }
    }
}

/// Simplifies one statement in place; `false` means it is deleted.
fn dce_stmt(s: &mut Stmt, ctx: &mut PassCtx<'_>, back_goto: bool, seen_label: bool) -> bool {
    match s {
        // `if (0)` / `if (non-zero-literal)` simplification.
        Stmt::If(c, t, e) => {
            if let Some(v) = lit(c) {
                ctx.coverage.hit("dce", 1);
                let arm = if v != 0 { Some(t) } else { e.as_mut() };
                let Some(arm) = arm.map(|a| std::mem::replace(&mut **a, Stmt::Empty)) else {
                    return false;
                };
                *s = arm;
                dce_one(s, ctx, back_goto, seen_label);
                return true;
            }
            dce_one(t, ctx, back_goto, seen_label);
            if let Some(e) = e {
                dce_one(e, ctx, back_goto, seen_label);
            }
        }
        Stmt::While(c, b) => {
            if lit(c) == Some(0) {
                ctx.coverage.hit("dce", 2);
                return false;
            }
            dce_one(b, ctx, back_goto, seen_label);
        }
        // Self-assignment removal: `x = x;`.
        Stmt::Expr(e)
            if matches!(&e.kind, ExprKind::Assign(AssignOp::Assign, l, r)
                if is_pure_var(l) && exprs_equal(l, r)) =>
        {
            ctx.coverage.hit("dce", 3);
            return false;
        }
        // The Clang 26994 lifetime defect: drop initializers of
        // declarations that follow a label in a function with a
        // backward goto.
        Stmt::Decl(ds) if back_goto && seen_label => {
            if let Some(id) = ctx.bug_active(Trigger::DeclAfterLabelWithBackGoto) {
                ctx.coverage.hit("dce", 4);
                ctx.miscompiled_by.push(id);
                for d in ds {
                    d.init = None;
                }
            }
        }
        Stmt::Block(b) => dce_stmts(b, ctx, back_goto, seen_label),
        Stmt::Label(_, inner) => dce_one(inner, ctx, back_goto, true),
        _ => {}
    }
    true
}

/// [`dce_stmt`] on a nested statement, which becomes `;` when deleted.
fn dce_one(s: &mut Stmt, ctx: &mut PassCtx<'_>, back_goto: bool, after_label: bool) {
    let seen_label = after_label || matches!(s, Stmt::Label(_, _));
    if !dce_stmt(s, ctx, back_goto, seen_label) {
        *s = Stmt::Empty;
    }
}

// ----- ccp ------------------------------------------------------------------

fn ccp_pass(p: &mut Program, ctx: &mut PassCtx<'_>) {
    ctx.coverage.hit("ccp", 0);
    for body in bodies(p) {
        let mut addressed = HashSet::new();
        collect_addressed(body, &mut addressed);
        ccp_stmts(body, &mut HashMap::new(), &addressed, ctx);
    }
}

fn collect_addressed(stmts: &[Stmt], out: &mut HashSet<String>) {
    fn walk(c: Node<&Stmt, &Expr>, out: &mut HashSet<String>) -> ControlFlow<()> {
        match c {
            Node::Stmt(s) => s.children(|c| walk(c, out)),
            Node::Expr(e) => {
                if let ExprKind::Unary(UnaryOp::Addr, inner) = &e.kind {
                    if let ExprKind::Ident(id) = &inner.kind {
                        out.insert(id.name.clone());
                    }
                }
                e.children(|c| walk(Node::Expr(c), out))
            }
        }
    }
    for s in stmts {
        let _ = walk(Node::Stmt(s), out);
    }
}

/// Straight-line constant propagation. Any control flow or call clears
/// the known-constants map (sound but conservative); nested statements
/// start from an empty map.
fn ccp_stmts(
    stmts: &mut [Stmt],
    consts: &mut HashMap<String, i64>,
    addressed: &HashSet<String>,
    ctx: &mut PassCtx<'_>,
) {
    for s in stmts {
        ccp_stmt(s, consts, addressed, ctx);
    }
}

fn ccp_stmt(
    s: &mut Stmt,
    consts: &mut HashMap<String, i64>,
    addressed: &HashSet<String>,
    ctx: &mut PassCtx<'_>,
) {
    match s {
        Stmt::Decl(ds) => {
            for d in ds {
                if let Some(init) = &mut d.init {
                    ccp_expr(init, consts, ctx);
                    if let Some(v) = lit(init) {
                        if !addressed.contains(&d.name) {
                            consts.insert(d.name.clone(), v);
                        }
                    }
                }
            }
        }
        Stmt::Expr(e) => {
            ccp_expr(e, consts, ctx);
            // Track `x = literal` and invalidate on other writes.
            if let ExprKind::Assign(op, lhs, rhs) = &e.kind {
                if let ExprKind::Ident(id) = &lhs.kind {
                    if *op == AssignOp::Assign {
                        match lit(rhs) {
                            Some(v) if !addressed.contains(&id.name) => {
                                ctx.coverage.hit("ccp", 1);
                                consts.insert(id.name.clone(), v);
                            }
                            _ => {
                                consts.remove(&id.name);
                            }
                        }
                    } else {
                        consts.remove(&id.name);
                    }
                } else {
                    // Store through pointer/array: globals and
                    // addressed locals may change.
                    consts.clear();
                }
            } else if contains_write(e) {
                consts.clear();
            }
        }
        // Control flow: propagate into the condition, then clear.
        Stmt::If(c, t, e) => {
            ccp_expr(c, consts, ctx);
            consts.clear();
            ccp_stmt(t, &mut HashMap::new(), addressed, ctx);
            if let Some(e) = e {
                ccp_stmt(e, &mut HashMap::new(), addressed, ctx);
            }
            consts.clear();
        }
        Stmt::While(_, b) | Stmt::DoWhile(b, _) | Stmt::For(_, _, _, b) | Stmt::Label(_, b) => {
            consts.clear();
            ccp_stmt(b, &mut HashMap::new(), addressed, ctx);
            consts.clear();
        }
        Stmt::Return(Some(e)) => ccp_expr(e, consts, ctx),
        Stmt::Block(b) => {
            consts.clear();
            ccp_stmts(b, &mut HashMap::new(), addressed, ctx);
            consts.clear();
        }
        Stmt::Goto(_) => consts.clear(),
        _ => {}
    }
}

fn contains_write(e: &Expr) -> bool {
    fn search(e: &Expr) -> ControlFlow<()> {
        match &e.kind {
            ExprKind::Assign(..)
            | ExprKind::Post(..)
            | ExprKind::Call(..)
            | ExprKind::Unary(UnaryOp::PreInc | UnaryOp::PreDec, _) => ControlFlow::Break(()),
            _ => e.children(search),
        }
    }
    search(e).is_break()
}

fn ccp_expr(e: &mut Expr, consts: &HashMap<String, i64>, ctx: &mut PassCtx<'_>) {
    // The gcc-samevar6-wc defect: in expressions reading one variable
    // many times, the (buggy) propagator replaces the reads with 0.
    if let Some(id) = ctx.bug_active(Trigger::SameVarTimes(6)) {
        if let Some(victim) = most_read(e).filter(|&(_, n)| n >= 6) {
            let victim = victim.0.to_string();
            ctx.miscompiled_by.push(id);
            replace_var_reads(e, &victim);
            return;
        }
    }
    subst_consts(e, consts, ctx);
}

/// The variable `e` reads most often and its count; a tie goes to the
/// one read first in source order.
fn most_read(e: &Expr) -> Option<(&str, usize)> {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    e.for_each_ident(&mut |id| match counts.iter_mut().find(|c| c.0 == id.name) {
        Some(c) => c.1 += 1,
        None => counts.push((&id.name, 1)),
    });
    counts.into_iter().fold(None, |best, (n, c)| match best {
        Some((_, most)) if most >= c => best,
        _ => Some((n, c)),
    })
}

fn replace_var_reads(e: &mut Expr, name: &str) {
    match &mut e.kind {
        ExprKind::Ident(id) if id.name == name => e.kind = ExprKind::IntLit(0),
        // Do not rewrite the store target.
        ExprKind::Assign(_, _, rhs) => replace_var_reads(rhs, name),
        ExprKind::Unary(UnaryOp::Addr, _) | ExprKind::Post(_, _) => {}
        ExprKind::Unary(_, a) | ExprKind::Index(_, a) => replace_var_reads(a, name),
        ExprKind::Binary(_, a, b) | ExprKind::Comma(a, b) => {
            replace_var_reads(a, name);
            replace_var_reads(b, name);
        }
        ExprKind::Ternary(c, t, e2) => {
            replace_var_reads(c, name);
            replace_var_reads(t, name);
            replace_var_reads(e2, name);
        }
        _ => {}
    }
}

fn subst_consts(e: &mut Expr, consts: &HashMap<String, i64>, ctx: &mut PassCtx<'_>) {
    match &mut e.kind {
        ExprKind::Ident(id) => {
            if let Some(&v) = consts.get(&id.name) {
                ctx.coverage.hit("ccp", 2);
                e.kind = ExprKind::IntLit(v);
            }
        }
        ExprKind::Unary(UnaryOp::Addr, _) | ExprKind::Post(_, _) => {}
        ExprKind::Assign(_, _, a)
        | ExprKind::Unary(_, a)
        | ExprKind::Index(_, a)
        | ExprKind::Cast(_, a) => subst_consts(a, consts, ctx),
        ExprKind::Binary(_, a, b) | ExprKind::Comma(a, b) => {
            subst_consts(a, consts, ctx);
            subst_consts(b, consts, ctx);
        }
        ExprKind::Ternary(c, t, e2) => {
            subst_consts(c, consts, ctx);
            subst_consts(t, consts, ctx);
            subst_consts(e2, consts, ctx);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                subst_consts(a, consts, ctx);
            }
        }
        _ => {}
    }
}

// ----- alias ---------------------------------------------------------------

/// Store reordering based on (buggy, when active) alias assumptions:
/// consecutive `*p = …; *q = …;` through distinct pointer variables are
/// swapped under the gcc-69951 defect — wrong exactly when `p` and `q`
/// alias, reproducing the Figure 2 miscompilation.
fn alias_pass(p: &mut Program, ctx: &mut PassCtx<'_>) {
    ctx.coverage.hit("alias", 0);
    let bug = ctx.bug_active(Trigger::AliasedPointerStores);
    for body in bodies(p) {
        alias_stmts(body, bug, ctx);
    }
}

fn is_deref_store(s: &Stmt) -> Option<&str> {
    if let Stmt::Expr(e) = s {
        if let ExprKind::Assign(AssignOp::Assign, lhs, rhs) = &e.kind {
            if let ExprKind::Unary(UnaryOp::Deref, inner) = &lhs.kind {
                if let ExprKind::Ident(id) = &inner.kind {
                    if lit(rhs).is_some() {
                        return Some(&id.name);
                    }
                }
            }
        }
    }
    None
}

fn alias_stmts(stmts: &mut [Stmt], bug: Option<&'static str>, ctx: &mut PassCtx<'_>) {
    let mut i = 0;
    while i < stmts.len() {
        if let (Some(p1), Some(p2)) = (
            is_deref_store(&stmts[i]),
            stmts.get(i + 1).and_then(is_deref_store),
        ) {
            ctx.coverage.hit("alias", 1);
            if p1 != p2 {
                if let Some(id) = bug {
                    ctx.coverage.hit("alias", 2);
                    ctx.miscompiled_by.push(id);
                    stmts.swap(i, i + 1);
                    i += 2;
                    continue;
                }
            }
        }
        if let Stmt::Block(b) = &mut stmts[i] {
            alias_stmts(b, bug, ctx);
        }
        i += 1;
    }
}

// ----- loop -----------------------------------------------------------------

/// Loop clean-up at `-O3`: removes loops whose condition folded to zero
/// and hosts the self-indexed-array wrong-code defect (gcc-70138): the
/// (buggy) "vectorizer" rewrites a self-indexed array subscript to zero.
fn loop_pass(p: &mut Program, ctx: &mut PassCtx<'_>) {
    ctx.coverage.hit("loop", 0);
    let bug = ctx.bug_active(Trigger::SelfIndexedArray);
    for body in bodies(p) {
        for s in body {
            loop_stmt(s, bug, ctx);
        }
    }
}

fn loop_stmt(s: &mut Stmt, bug: Option<&'static str>, ctx: &mut PassCtx<'_>) {
    match s {
        Stmt::For(_, Some(c), _, _) if lit(c) == Some(0) => {
            ctx.coverage.hit("loop", 1);
            *s = Stmt::Empty;
        }
        Stmt::While(_, b) => {
            ctx.coverage.hit("loop", 2);
            loop_stmt(b, bug, ctx);
        }
        Stmt::For(_, _, _, b) => {
            ctx.coverage.hit("loop", 3);
            loop_stmt(b, bug, ctx);
        }
        Stmt::DoWhile(b, _) | Stmt::Label(_, b) => loop_stmt(b, bug, ctx),
        Stmt::Block(b) => {
            for s in b {
                loop_stmt(s, bug, ctx);
            }
        }
        Stmt::If(_, t, e) => {
            loop_stmt(t, bug, ctx);
            if let Some(e) = e {
                loop_stmt(e, bug, ctx);
            }
        }
        Stmt::Expr(e) => vectorize_expr(e, bug, ctx),
        _ => {}
    }
}

fn vectorize_expr(e: &mut Expr, bug: Option<&'static str>, ctx: &mut PassCtx<'_>) {
    let ExprKind::Assign(_, lhs, _) = &mut e.kind else {
        return;
    };
    let ExprKind::Index(_, idx) = &mut lhs.kind else {
        return;
    };
    let mut names: Vec<&str> = Vec::new();
    idx.for_each_ident(&mut |id| names.push(&id.name));
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        ctx.coverage.hit("loop", 4);
        if let Some(id) = bug {
            ctx.miscompiled_by.push(id);
            idx.kind = ExprKind::IntLit(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::registry;
    use spe_minic::{parse, print_program};

    fn opt(src: &str, level: u8) -> String {
        let p = parse(src).expect("parses");
        let mut cov = Coverage::new();
        let mut ctx = PassCtx {
            opt: level,
            wrong_code: Vec::new(),
            coverage: &mut cov,
            miscompiled_by: Vec::new(),
        };
        print_program(&optimize(&p, &mut ctx))
    }

    #[test]
    fn folds_constants() {
        let out = opt("int main() { return 2 + 3 * 4; }", 1);
        assert!(out.contains("return 14;"), "{out}");
    }

    #[test]
    fn folds_sub_self_soundly() {
        let out = opt("int x; int main() { return x - x; }", 1);
        assert!(out.contains("return 0;"), "{out}");
    }

    #[test]
    fn removes_dead_if() {
        let out = opt(
            "int g; int main() { if (0) g = 1; else g = 2; return g; }",
            1,
        );
        assert!(!out.contains("g = 1"), "{out}");
        assert!(out.contains("g = 2"), "{out}");
    }

    #[test]
    fn propagates_constants_straight_line() {
        let out = opt("int main() { int b = 1; int a = b; return a; }", 2);
        assert!(out.contains("int a = 1;"), "{out}");
    }

    #[test]
    fn does_not_propagate_addressed_vars() {
        let out = opt(
            "int main() { int b = 1; int *p = &b; *p = 5; int a = b; return a; }",
            2,
        );
        assert!(out.contains("int a = b;"), "{out}");
    }

    #[test]
    fn alias_swap_only_with_bug_active() {
        let src = "int a = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }";
        let clean = opt(src, 2);
        let p_pos = clean.find("*p = 1").expect("store p");
        let q_pos = clean.find("*q = 2").expect("store q");
        assert!(p_pos < q_pos, "sound pipeline must not reorder: {clean}");

        let regs = registry();
        let bug = regs.iter().find(|b| b.id == "gcc-69951").expect("present");
        let prog = parse(src).expect("parses");
        let mut cov = Coverage::new();
        let mut ctx = PassCtx {
            opt: 2,
            wrong_code: vec![bug],
            coverage: &mut cov,
            miscompiled_by: Vec::new(),
        };
        let out = print_program(&optimize(&prog, &mut ctx));
        let p_pos = out.find("*p = 1").expect("store p");
        let q_pos = out.find("*q = 2").expect("store q");
        assert!(q_pos < p_pos, "buggy pipeline reorders: {out}");
        assert_eq!(ctx.miscompiled_by, vec!["gcc-69951"]);
    }

    #[test]
    fn lifetime_bug_drops_initializer() {
        let src = r#"
            int main() {
                int *p = 0;
                trick:
                if (p) return *p;
                int x = 0;
                p = &x;
                goto trick;
                return 0;
            }
        "#;
        let regs = registry();
        let bug = regs
            .iter()
            .find(|b| b.id == "clang-26994")
            .expect("present");
        let prog = parse(src).expect("parses");
        let mut cov = Coverage::new();
        let mut ctx = PassCtx {
            opt: 1,
            wrong_code: vec![bug],
            coverage: &mut cov,
            miscompiled_by: Vec::new(),
        };
        let out = print_program(&optimize(&prog, &mut ctx));
        assert!(out.contains("int x;"), "initializer dropped: {out}");
        assert_eq!(ctx.miscompiled_by, vec!["clang-26994"]);
    }

    #[test]
    fn coverage_grows_with_opt_level() {
        let src = "int main() { int b = 1; if (b - b) return 2 + 3; return b * 1; }";
        let p = parse(src).expect("parses");
        let mut cov0 = Coverage::new();
        let mut ctx0 = PassCtx {
            opt: 0,
            wrong_code: Vec::new(),
            coverage: &mut cov0,
            miscompiled_by: Vec::new(),
        };
        optimize(&p, &mut ctx0);
        let mut cov3 = Coverage::new();
        let mut ctx3 = PassCtx {
            opt: 3,
            wrong_code: Vec::new(),
            coverage: &mut cov3,
            miscompiled_by: Vec::new(),
        };
        optimize(&p, &mut ctx3);
        assert!(cov3.points_hit() > cov0.points_hit());
    }

    #[test]
    fn samevar_bug_zeroes_the_first_most_read_variable() {
        // `a` and `b` tie at six reads each: the victim must not depend
        // on hash order, so every run zeroes `a`, the one read first.
        let src = "int a, b, x; int main() { x = a+a+a+a+a+a+b+b+b+b+b+b; return x; }";
        let regs = registry();
        let bug = regs
            .iter()
            .find(|b| b.id == "gcc-samevar6-wc")
            .expect("present");
        let prog = parse(src).expect("parses");
        let outputs: HashSet<String> = (0..64)
            .map(|_| {
                let mut cov = Coverage::new();
                let mut ctx = PassCtx {
                    opt: 2,
                    wrong_code: vec![bug],
                    coverage: &mut cov,
                    miscompiled_by: Vec::new(),
                };
                let out = print_program(&optimize(&prog, &mut ctx));
                assert_eq!(ctx.miscompiled_by, vec!["gcc-samevar6-wc"]);
                out
            })
            .collect();
        assert_eq!(outputs.len(), 1, "{outputs:?}");
        let out = outputs.into_iter().next().expect("one output");
        assert!(!out.contains("a +") && out.contains("b + b"), "{out}");
    }

    #[test]
    fn only_o0_hands_the_program_back_borrowed() {
        let p = parse("int main() { return 1 + 2; }").expect("parses");
        let mut cov = Coverage::new();
        let mut ctx = PassCtx {
            opt: 0,
            wrong_code: Vec::new(),
            coverage: &mut cov,
            miscompiled_by: Vec::new(),
        };
        assert!(matches!(optimize(&p, &mut ctx), Cow::Borrowed(_)));
        ctx.opt = 3;
        assert!(matches!(optimize(&p, &mut ctx), Cow::Owned(_)));
    }

    #[test]
    fn vectorizer_bug_rewrites_self_index() {
        let src = "int u[10]; int a; int main() { a = 3; u[a + 2 * a] = 7; return u[9]; }";
        let regs = registry();
        let bug = regs.iter().find(|b| b.id == "gcc-70138").expect("present");
        let prog = parse(src).expect("parses");
        let mut cov = Coverage::new();
        let mut ctx = PassCtx {
            opt: 3,
            wrong_code: vec![bug],
            coverage: &mut cov,
            miscompiled_by: Vec::new(),
        };
        let out = print_program(&optimize(&prog, &mut ctx));
        assert!(out.contains("u[0]"), "index rewritten to zero: {out}");
    }
}
