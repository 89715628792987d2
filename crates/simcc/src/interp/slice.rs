//! The head check's reading of a loop: the names its exit depends on,
//! and a watch over their cells.
//!
//! A loop's *slice* is the set of names its exit condition reads, closed
//! under the names each write to a slice name reads and the names read
//! by the conditions that write sits under. A write into an element of a
//! named array adds its index's names and its conditions, whatever the
//! array, so a repeating slice rewrites the same cells. The cells of the
//! slice at the next head visit are then a function of its cells now:
//! once they repeat, the condition holds forever. When nothing writes
//! the slice, it holds already ([`Verdict::Slice`] with `written` false).
//!
//! The walk refuses a loop ([`Verdict::MayExit`]) that holds a call,
//! `*`, `&`, `.`/`->`, `break`, `return`, `goto` or a label; an exit
//! condition that writes or reads an array element; and a slice that
//! takes in a name the loop declares, an array element's value, or a
//! write that runs only under `?:`, `&&`, `||` or a nested loop's
//! condition. A `continue` keeps the verdict only when nothing writes
//! the slice or any array. Every use site whose spelling the verdict
//! depends on is read through the caller's accessor, so a logged run
//! records it; the rest of the walk looks at the tree's shape alone.

use super::Value;
use spe_minic::ast::*;
use std::ops::Range;

/// A loop the head check can judge.
#[derive(Debug, Clone, Copy)]
pub(super) enum Loop<'p> {
    /// `while`, `do` or `for`.
    Structured(&'p Stmt),
    /// A goto back-edge `l: S1; … Sk; if (c) goto l;` inside one
    /// statement list.
    BackEdge {
        /// The `if (c) goto l;` statement (labelled `l:` when it is the
        /// whole loop).
        edge: &'p Stmt,
        /// Its condition `c`.
        cond: &'p Expr,
        /// `l: S1` through `Sk`; empty when the edge is the whole loop.
        body: &'p [Stmt],
    },
}

impl<'p> Loop<'p> {
    /// The statement that stands for the loop in a run's verdicts.
    pub(super) fn key(self) -> &'p Stmt {
        match self {
            Loop::Structured(s) | Loop::BackEdge { edge: s, .. } => s,
        }
    }

    /// The loop whose back-edge is statement `g` of `stmts`, when the goto
    /// it took there jumps back to `label`, at statement `i`.
    pub(super) fn back_edge(
        stmts: &'p [Stmt],
        i: usize,
        g: usize,
        label: &str,
    ) -> Option<Loop<'p>> {
        let edge = stmts.get(g).filter(|_| i <= g)?;
        let test = match edge {
            Stmt::Label(l, inner) if i == g && l == label => inner,
            s => s,
        };
        match test {
            Stmt::If(cond, then, None) if matches!(&**then, Stmt::Goto(l) if l == label) => {
                Some(Loop::BackEdge {
                    edge,
                    cond,
                    body: &stmts[i..g],
                })
            }
            _ => None,
        }
    }
}

/// What the walk makes of a loop. It depends only on the program and its
/// spellings, so one walk serves a whole run.
#[derive(Debug)]
pub(super) enum Verdict<'p> {
    /// The walk refused the loop: it may exit.
    MayExit,
    /// The slice: the loop cannot exit while these cells repeat.
    Slice {
        /// The slice's names, to resolve at the head.
        names: Vec<&'p str>,
        /// The arrays whose elements the loop writes; each must resolve
        /// at the head to an array object.
        arrays: Vec<&'p str>,
        /// Some write reaches the slice, so the head watches its cells;
        /// otherwise the loop cannot exit at all.
        written: bool,
    },
}

/// Walks loop `l`. `name` reads a use site's spelling; the walk calls it
/// on exactly the use sites its verdict depends on.
pub(super) fn verdict<'p>(l: Loop<'p>, mut name: impl FnMut(&'p Ident) -> &'p str) -> Verdict<'p> {
    let mut w = Walk::default();
    let walked = match l {
        Loop::Structured(Stmt::While(c, body) | Stmt::DoWhile(body, c)) => {
            w.condition(Some(c)).and_then(|()| w.stmt(body))
        }
        Loop::Structured(Stmt::For(_, c, step, body)) => w.condition(c.as_ref()).and_then(|()| {
            if let Some(step) = step {
                w.expr(step, false)?;
            }
            w.stmt(body)
        }),
        Loop::Structured(_) => None,
        Loop::BackEdge { cond, body, .. } => w.condition(Some(cond)).and_then(|()| {
            if let [first, rest @ ..] = body {
                let Stmt::Label(_, first) = first else {
                    return None;
                };
                w.stmt(first)?;
                rest.iter().try_for_each(|s| w.stmt(s))?;
            }
            // A `continue` there would leave the loop.
            (!w.continues).then_some(())
        }),
    };
    if walked.is_none() {
        return Verdict::MayExit;
    }
    w.close(&mut name)
}

/// A write the walk found in a loop.
#[derive(Debug)]
struct Write<'p> {
    /// The written name, or the array whose element is written.
    target: &'p Ident,
    element: bool,
    /// The use sites that decide the write, in [`Walk::deps`]: its
    /// value's (and the target's, for `++`, `--` and `op=`), or for an
    /// element its index's; then those of the conditions it sits under.
    deps: Range<usize>,
    /// It runs only under `?:`, `&&`, `||` or a nested loop's condition,
    /// or it depends on an array element: refused once it reaches the
    /// slice.
    opaque: bool,
}

#[derive(Debug, Default)]
struct Walk<'p> {
    writes: Vec<Write<'p>>,
    deps: Vec<&'p Ident>,
    /// The use sites read so far. The exit condition's come first.
    reads: Vec<&'p Ident>,
    /// The exit condition's use sites: `reads[..seeds]`.
    seeds: usize,
    /// Array elements read so far.
    elements: usize,
    /// The use sites of the conditions around the statement being walked.
    guards: Vec<&'p Ident>,
    /// Array elements those conditions read.
    guard_elements: usize,
    declared: Vec<&'p str>,
    continues: bool,
}

impl<'p> Walk<'p> {
    /// Walks the exit condition: it may neither write nor read an array
    /// element, so its value is a function of the names it reads.
    fn condition(&mut self, c: Option<&'p Expr>) -> Option<()> {
        if let Some(c) = c {
            self.expr(c, false)?;
        }
        self.seeds = self.reads.len();
        (self.writes.is_empty() && self.elements == 0).then_some(())
    }

    fn stmt(&mut self, s: &'p Stmt) -> Option<()> {
        match s {
            Stmt::Expr(e) => self.expr(e, false),
            Stmt::Decl(decls) => self.declare(decls),
            Stmt::Block(body) => body.iter().try_for_each(|s| self.stmt(s)),
            Stmt::If(c, t, e) => self.guarded(c, false, |w| {
                w.stmt(t)?;
                e.as_deref().map_or(Some(()), |e| w.stmt(e))
            }),
            Stmt::While(c, body) | Stmt::DoWhile(body, c) => {
                self.guarded(c, true, |w| w.stmt(body))
            }
            Stmt::For(init, c, step, body) => {
                match init {
                    Some(ForInit::Decl(decls)) => self.declare(decls)?,
                    Some(ForInit::Expr(e)) => self.expr(e, false)?,
                    None => {}
                }
                let rest = |w: &mut Walk<'p>| {
                    if let Some(step) = step {
                        w.expr(step, false)?;
                    }
                    w.stmt(body)
                };
                match c {
                    Some(c) => self.guarded(c, true, rest),
                    None => rest(self),
                }
            }
            Stmt::Continue => {
                self.continues = true;
                Some(())
            }
            Stmt::Empty => Some(()),
            Stmt::Return(_) | Stmt::Break | Stmt::Goto(_) | Stmt::Label(..) => None,
        }
    }

    fn declare(&mut self, decls: &'p [VarDeclarator]) -> Option<()> {
        decls.iter().try_for_each(|d| {
            self.declared.push(&d.name);
            d.init.as_ref().map_or(Some(()), |i| self.expr(i, false))
        })
    }

    /// Walks condition `c` (a loop's when `looped`, whose writes are
    /// opaque), then `inside` under it.
    fn guarded(
        &mut self,
        c: &'p Expr,
        looped: bool,
        inside: impl FnOnce(&mut Walk<'p>) -> Option<()>,
    ) -> Option<()> {
        let (from, elements) = (self.reads.len(), self.elements);
        self.expr(c, looped)?;
        let (guards, guard_elements) = (self.guards.len(), self.guard_elements);
        let Walk {
            reads, guards: g, ..
        } = self;
        g.extend_from_slice(&reads[from..]);
        self.guard_elements += self.elements - elements;
        inside(self)?;
        self.guards.truncate(guards);
        self.guard_elements = guard_elements;
        Some(())
    }

    /// Walks `e`, collecting the use sites it reads and the writes in it.
    fn expr(&mut self, e: &'p Expr, opaque: bool) -> Option<()> {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::CharLit(_) | ExprKind::StrLit(_) => Some(()),
            ExprKind::Ident(id) => {
                self.reads.push(id);
                Some(())
            }
            ExprKind::Unary(UnaryOp::Deref | UnaryOp::Addr, _)
            | ExprKind::Call(..)
            | ExprKind::Member(..) => None,
            ExprKind::Unary(UnaryOp::PreInc | UnaryOp::PreDec, target)
            | ExprKind::Post(_, target) => self.write(target, None, true, opaque),
            ExprKind::Assign(op, target, value) => {
                self.write(target, Some(value), op.binary().is_some(), opaque)
            }
            ExprKind::Unary(_, a) | ExprKind::Cast(_, a) => self.expr(a, opaque),
            ExprKind::Binary(BinaryOp::LogAnd | BinaryOp::LogOr, a, b) => {
                self.expr(a, opaque)?;
                self.expr(b, true)
            }
            ExprKind::Binary(_, a, b) | ExprKind::Comma(a, b) => {
                self.expr(a, opaque)?;
                self.expr(b, opaque)
            }
            ExprKind::Ternary(c, t, f) => {
                self.expr(c, opaque)?;
                self.expr(t, true)?;
                self.expr(f, true)
            }
            ExprKind::Index(base, index) => {
                self.elements += 1;
                self.expr(base, opaque)?;
                self.expr(index, opaque)
            }
        }
    }

    /// A write to `target`, a name or an element of a named array: an
    /// assignment of `value`, or `++`/`--` without one. `reads_target`:
    /// the new value also depends on the old one.
    fn write(
        &mut self,
        target: &'p Expr,
        value: Option<&'p Expr>,
        reads_target: bool,
        opaque: bool,
    ) -> Option<()> {
        let (id, index) = match &target.kind {
            ExprKind::Ident(id) => (id, None),
            ExprKind::Index(base, index) => match &base.kind {
                ExprKind::Ident(id) => (id, Some(&**index)),
                _ => return None,
            },
            _ => return None,
        };
        let (from, elements) = (self.reads.len(), self.elements);
        match index {
            Some(index) => self.expr(index, opaque)?,
            None => {
                if reads_target {
                    self.reads.push(id);
                }
                if let Some(value) = value {
                    self.expr(value, opaque)?;
                }
            }
        }
        let start = self.deps.len();
        self.deps.extend_from_slice(&self.reads[from..]);
        self.deps.extend_from_slice(&self.guards);
        self.writes.push(Write {
            target: id,
            element: index.is_some(),
            deps: start..self.deps.len(),
            opaque: opaque || self.elements > elements || self.guard_elements > 0,
        });
        if index.is_some() {
            if let Some(value) = value {
                self.expr(value, opaque)?;
            }
            // The assignment's value, as an enclosing expression reads it.
            self.elements += 1;
        }
        self.reads.push(id);
        Some(())
    }

    /// Closes the exit condition's names under the writes into the slice.
    fn close(self, name: &mut impl FnMut(&'p Ident) -> &'p str) -> Verdict<'p> {
        let mut names = Vec::new();
        for &id in &self.reads[..self.seeds] {
            add(&mut names, name(id));
        }
        let mut arrays = Vec::new();
        let mut joined = vec![false; self.writes.len()];
        let mut written = false;
        let mut grew = true;
        while grew {
            grew = false;
            for (w, joined) in self.writes.iter().zip(&mut joined) {
                if *joined {
                    continue;
                }
                let target = name(w.target);
                if !w.element && !names.contains(&target) {
                    continue;
                }
                if w.opaque {
                    return Verdict::MayExit;
                }
                *joined = true;
                grew = true;
                if w.element {
                    add(&mut arrays, target);
                } else {
                    written = true;
                }
                for &id in &self.deps[w.deps.clone()] {
                    add(&mut names, name(id));
                }
            }
        }
        let declared = |n: &&str| self.declared.contains(n);
        if names.iter().any(declared)
            || arrays.iter().any(declared)
            || (self.continues && (written || !arrays.is_empty()))
        {
            return Verdict::MayExit;
        }
        Verdict::Slice {
            names,
            arrays,
            written,
        }
    }
}

fn add<'p>(names: &mut Vec<&'p str>, name: &'p str) {
    if !names.contains(&name) {
        names.push(name);
    }
}

/// Brent's cycle detection over a slice's scalar cells, one step per head
/// visit: each visit compares the cells with the ones saved at the last
/// power-of-two visit.
#[derive(Debug)]
pub(super) struct Watch {
    /// Indices into the interpreter's cells.
    cells: Vec<usize>,
    saved: Vec<Option<Value>>,
    /// Visits from the last save to the next.
    power: u64,
    /// Visits since the last save.
    since: u64,
}

impl Watch {
    /// Starts watching `cells`, saving their values in `now`.
    pub(super) fn new(cells: Vec<usize>, now: &[Option<Value>]) -> Watch {
        let saved = cells.iter().map(|&c| now[c]).collect();
        Watch {
            cells,
            saved,
            power: 1,
            since: 0,
        }
    }

    /// One head visit: whether the cells in `now` repeat a saved visit's.
    pub(super) fn repeats(&mut self, now: &[Option<Value>]) -> bool {
        if self
            .cells
            .iter()
            .zip(&self.saved)
            .all(|(&c, s)| now[c] == *s)
        {
            return true;
        }
        self.since += 1;
        if self.since == self.power {
            for (s, &c) in self.saved.iter_mut().zip(&self.cells) {
                *s = now[c];
            }
            self.power = self.power.saturating_mul(2);
            self.since = 0;
        }
        false
    }
}
