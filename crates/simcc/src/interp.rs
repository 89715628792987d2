//! Reference interpreter for mini-C with undefined-behaviour detection.
//!
//! Plays the role CompCert's reference interpreter plays in the paper
//! (§5.1, §5.4): the trusted oracle that (a) defines the expected output
//! of a test program and (b) flags programs whose behaviour is undefined
//! so they are excluded from differential comparison.
//!
//! The runtime model is deliberately simple: every scalar is an `i64`;
//! pointers are `(variable, element offset)` handles; arrays are
//! fixed-size cell vectors. Detected UB: uninitialized reads, division by
//! zero, signed overflow, out-of-bounds accesses, null dereferences,
//! loops that provably cannot exit, and call-depth/fuel exhaustion.
//!
//! Names are borrowed from the program: scopes are one stack of
//! `(&str, slot)` bindings searched newest first, and every object's
//! cells live back to back in one vector, so declaring or looking up a
//! variable allocates nothing.
//!
//! Every read of a use site's spelling goes through one accessor, so
//! [`run_logged`] can report which holes a run read, in first-read
//! order. A run is a function of those spellings alone: the incremental
//! oracle files reference results under them (DESIGN §13).

use crate::arith::{self, Outcome};
use crate::newest;
use slice::{Loop, Verdict, Watch};
use spe_minic::ast::*;
use std::fmt;
use std::ops::ControlFlow;

mod slice;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Integer (all scalar types share this representation).
    Int(i64),
    /// Pointer to an element of a variable (globals and locals alike).
    Ptr(PtrTarget),
    /// The null pointer.
    Null,
}

/// Target of a pointer: a storage cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtrTarget {
    /// Storage slot id (assigned by the interpreter).
    pub slot: usize,
    /// Element offset for arrays.
    pub offset: usize,
}

/// Undefined behaviour (or resource exhaustion) detected by the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ub {
    /// Read of an uninitialized scalar or array element.
    UninitializedRead(String),
    /// Division or remainder by zero.
    DivByZero,
    /// Signed integer overflow.
    Overflow,
    /// Array or pointer access outside its object.
    OutOfBounds(String),
    /// Dereference of a null or invalid pointer.
    BadDeref,
    /// The program exceeded its fuel (possible non-termination).
    FuelExhausted,
    /// A loop whose condition held cannot exit: nothing writes the names
    /// its exit depends on (its slice, DESIGN §3), or their cells repeat
    /// at its head. A `while`, `do`, `for` or goto back-edge is checked
    /// from its [`LOOP_CHECK_AT`]th iteration instead of burning all the
    /// fuel.
    NonTerminating,
    /// Call stack too deep.
    StackOverflow,
    /// Construct outside the executable subset (e.g. structs).
    Unsupported(String),
    /// Call to an unknown function.
    UnknownFunction(String),
    /// `main` is missing.
    NoMain,
}

impl fmt::Display for Ub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ub::UninitializedRead(n) => write!(f, "uninitialized read of `{n}`"),
            Ub::DivByZero => f.write_str("division by zero"),
            Ub::Overflow => f.write_str("signed integer overflow"),
            Ub::OutOfBounds(n) => write!(f, "out-of-bounds access on `{n}`"),
            Ub::BadDeref => f.write_str("invalid pointer dereference"),
            Ub::FuelExhausted => f.write_str("fuel exhausted (possible non-termination)"),
            Ub::NonTerminating => f.write_str("loop cannot exit (non-termination)"),
            Ub::StackOverflow => f.write_str("call stack overflow"),
            Ub::Unsupported(w) => write!(f, "unsupported construct: {w}"),
            Ub::UnknownFunction(n) => write!(f, "call to unknown function `{n}`"),
            Ub::NoMain => f.write_str("program has no main function"),
        }
    }
}

impl std::error::Error for Ub {}

/// Result of a successful (defined-behaviour) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// `main`'s return value (the process exit code in the paper's bug
    /// reports).
    pub exit_code: i64,
    /// Output produced by `printf`-style calls, in order.
    pub output: Vec<String>,
}

/// Interpreter limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Statement/expression evaluation budget.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            fuel: 200_000,
            max_depth: 64,
        }
    }
}

/// Interprets a program's `main` under strict UB detection.
///
/// # Errors
///
/// Returns the first [`Ub`] encountered; programs rejected here are
/// excluded from differential testing, mirroring §5.4.
///
/// # Examples
///
/// ```
/// let p = spe_minic::parse("int main() { int a = 2, b = 3; return a * b; }")?;
/// let exec = spe_simcc::interp::run(&p, spe_simcc::interp::Limits::default())?;
/// assert_eq!(exec.exit_code, 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(p: &Program, limits: Limits) -> Result<Execution, Ub> {
    Interp::new(p, limits, None).main()
}

/// Iterations a loop activation runs before its head checks whether the
/// loop can exit at all ([`Ub::NonTerminating`]) and, when the loop
/// writes its slice, starts watching the slice's cells; loops that finish
/// sooner pay nothing for the check.
pub const LOOP_CHECK_AT: u32 = 64;

/// Marks an occurrence that is no hole in [`run_logged`]'s map.
pub const NOT_A_HOLE: usize = usize::MAX;

/// The holes one [`run_logged`] run read, each once, in the order it
/// first read them.
#[derive(Debug, Clone, Default)]
pub struct HoleReads {
    order: Vec<usize>,
    /// `seen[h]`: hole `h` is in `order`.
    seen: Vec<bool>,
}

impl HoleReads {
    /// The hole indices, in first-read order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    fn clear(&mut self) {
        for &h in &self.order {
            self.seen[h] = false;
        }
        self.order.clear();
    }

    fn read(&mut self, hole: usize) {
        if hole >= self.seen.len() {
            self.seen.resize(hole + 1, false);
        }
        if !self.seen[hole] {
            self.seen[hole] = true;
            self.order.push(hole);
        }
    }
}

/// [`run`], logging into `reads` the holes the run reads: `occ_hole[o]`
/// is the hole filled at occurrence `o`, or [`NOT_A_HOLE`]. Two programs
/// that differ only in hole spellings, and agree on the spellings of the
/// holes one of them read, take the same steps and give the same result.
///
/// # Errors
///
/// As [`run`].
///
/// # Examples
///
/// ```
/// use spe_simcc::interp::{run_logged, HoleReads, Limits};
/// let p = spe_minic::parse("int main() { int a = 1, b = 0; return b ? b : a; }")?;
/// // The use sites are occurrences 0, 1 and 2, each its own hole; the
/// // run never reads the `b` of the arm it does not take.
/// let mut reads = HoleReads::default();
/// assert_eq!(run_logged(&p, Limits::default(), &[0, 1, 2], &mut reads)?.exit_code, 1);
/// assert_eq!(reads.order(), &[0, 2]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_logged(
    p: &Program,
    limits: Limits,
    occ_hole: &[usize],
    reads: &mut HoleReads,
) -> Result<Execution, Ub> {
    reads.clear();
    Interp::new(p, limits, Some(ReadLog { occ_hole, reads })).main()
}

/// Where a logged run records the holes it reads.
struct ReadLog<'p> {
    occ_hole: &'p [usize],
    reads: &'p mut HoleReads,
}

/// A storage slot: a named object of `len` cells starting at `start` in
/// [`Interp::cells`].
#[derive(Debug, Clone, Copy)]
struct Slot<'p> {
    name: &'p str,
    start: usize,
    len: usize,
}

struct Interp<'p> {
    program: &'p Program,
    log: Option<ReadLog<'p>>,
    slots: Vec<Slot<'p>>,
    /// The cells of every slot, in slot order.
    cells: Vec<Option<Value>>,
    /// Global name -> slot.
    globals: Vec<(&'p str, usize)>,
    /// Local name -> slot bindings of the whole call chain, innermost
    /// scope last.
    locals: Vec<(&'p str, usize)>,
    /// Start of the running function's bindings in `locals`.
    frame: usize,
    /// Start of the innermost scope's bindings in `locals`.
    scope: usize,
    /// One past the highest slot a pointer was made to: a scope or call
    /// frees the objects it made only when all of them lie above it.
    pointed: usize,
    fuel: u64,
    max_depth: usize,
    output: Vec<String>,
    /// Each checked loop's verdict, keyed by [`Loop::key`].
    verdicts: Vec<(&'p Stmt, Verdict<'p>)>,
}

/// A loop activation's head: how often its condition has held, up to
/// [`LOOP_CHECK_AT`], and after that visit the watch over its slice.
#[derive(Default)]
struct Head {
    held: u32,
    watch: Option<Watch>,
}

/// What [`Interp::close_scope`] restores.
struct ScopeMark {
    /// The enclosing scope's start in `locals`.
    outer: usize,
    /// The slot count when the scope opened.
    slots: usize,
}

enum Flow<'p> {
    Normal,
    Return(Option<Value>),
    Break,
    Continue,
    Goto(&'p str),
}

impl<'p> Interp<'p> {
    fn new(program: &'p Program, limits: Limits, log: Option<ReadLog<'p>>) -> Interp<'p> {
        Interp {
            program,
            log,
            slots: Vec::new(),
            cells: Vec::new(),
            globals: Vec::new(),
            locals: Vec::new(),
            frame: 0,
            scope: 0,
            pointed: 0,
            fuel: limits.fuel,
            max_depth: limits.max_depth,
            output: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    fn main(mut self) -> Result<Execution, Ub> {
        self.init_globals()?;
        let main = self.program.function("main").ok_or(Ub::NoMain)?;
        let ret = self.call(main, Vec::new(), 0)?;
        Ok(Execution {
            exit_code: match ret {
                Some(Value::Int(v)) => arith::exit_status(v),
                _ => 0,
            },
            output: self.output,
        })
    }

    /// The spelling of use site `id`. Every read of an identifier's name
    /// goes through here, so a logged run records each hole it reads.
    fn name(&mut self, id: &'p Ident) -> &'p str {
        if let Some(log) = &mut self.log {
            match log.occ_hole.get(id.occ.0 as usize) {
                Some(&h) if h != NOT_A_HOLE => log.reads.read(h),
                _ => {}
            }
        }
        &id.name
    }

    fn burn(&mut self) -> Result<(), Ub> {
        if self.fuel == 0 {
            return Err(Ub::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn alloc(&mut self, name: &'p str, ty: &Type, init_zero: bool) -> Result<usize, Ub> {
        if matches!(ty.base, BaseType::Struct(_)) && ty.pointers == 0 {
            return Err(Ub::Unsupported("struct object".into()));
        }
        let n = ty.array.map(|n| n.max(1) as usize).unwrap_or(1);
        if n > 1 << 20 {
            return Err(Ub::Unsupported("huge array".into()));
        }
        let start = self.cells.len();
        let init = if init_zero { Some(Value::Int(0)) } else { None };
        self.cells.resize(start + n, init);
        self.slots.push(Slot {
            name,
            start,
            len: n,
        });
        Ok(self.slots.len() - 1)
    }

    /// Binds `name` in the innermost scope, replacing an earlier binding
    /// of the same name in that scope (a `goto` can re-run a declaration).
    fn bind(&mut self, name: &'p str, slot: usize) {
        match self.locals[self.scope..].iter_mut().find(|b| b.0 == name) {
            Some(b) => b.1 = slot,
            None => self.locals.push((name, slot)),
        }
    }

    /// Opens a scope; returns the token [`Interp::close_scope`] takes.
    fn open_scope(&mut self) -> ScopeMark {
        ScopeMark {
            outer: std::mem::replace(&mut self.scope, self.locals.len()),
            slots: self.slots.len(),
        }
    }

    fn close_scope(&mut self, mark: ScopeMark) {
        self.locals.truncate(self.scope);
        self.scope = mark.outer;
        self.release(mark.slots);
    }

    /// Frees the objects made since there were `slots` slots, unless a
    /// pointer to one of them was made: then none can be named again.
    fn release(&mut self, slots: usize) {
        if self.pointed <= slots {
            if let Some(first) = self.slots.get(slots) {
                self.cells.truncate(first.start);
                self.slots.truncate(slots);
            }
        }
    }

    /// `t` as a pointer value, noting that its slot may now be named.
    fn pointer(&mut self, t: PtrTarget) -> Value {
        self.pointed = self.pointed.max(t.slot + 1);
        Value::Ptr(t)
    }

    fn init_globals(&mut self) -> Result<(), Ub> {
        // Two passes: allocate all globals (zero-initialized, as in C),
        // then evaluate initializers in order.
        let items = &self.program.items;
        for item in items {
            if let Item::Global(decls) = item {
                for d in decls {
                    let slot = self.alloc(&d.name, &d.ty, true)?;
                    self.globals.push((&d.name, slot));
                }
            }
        }
        for item in items {
            if let Item::Global(decls) = item {
                for d in decls {
                    if let (Some(init), Some(slot)) = (&d.init, newest(&self.globals, &d.name)) {
                        self.init_slot(slot, init, 0)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn init_slot(&mut self, slot: usize, init: &'p Expr, depth: usize) -> Result<(), Ub> {
        if let ExprKind::Call(name, args) = &init.kind {
            if name == "__init_list" {
                for (i, a) in args.iter().enumerate() {
                    let v = self.eval(a, depth)?;
                    let s = self.slots[slot];
                    if i >= s.len {
                        return Err(Ub::OutOfBounds(s.name.to_string()));
                    }
                    self.cells[s.start + i] = Some(v);
                }
                // Remaining elements of a brace-initialized object are
                // zero (C semantics).
                let s = self.slots[slot];
                for c in &mut self.cells[s.start..s.start + s.len] {
                    if c.is_none() {
                        *c = Some(Value::Int(0));
                    }
                }
                return Ok(());
            }
        }
        let v = self.eval(init, depth)?;
        let start = self.slots[slot].start;
        self.cells[start] = Some(v);
        Ok(())
    }

    fn declare(&mut self, decls: &'p [VarDeclarator], depth: usize) -> Result<(), Ub> {
        for d in decls {
            let slot = self.alloc(&d.name, &d.ty, false)?;
            self.bind(&d.name, slot);
            if let Some(init) = &d.init {
                self.init_slot(slot, init, depth)?;
            }
        }
        Ok(())
    }

    fn call(
        &mut self,
        f: &'p Function,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, Ub> {
        if depth >= self.max_depth {
            return Err(Ub::StackOverflow);
        }
        let caller = (self.frame, self.scope);
        let slots = self.slots.len();
        self.frame = self.locals.len();
        self.scope = self.frame;
        for (param, arg) in f.params.iter().zip(args) {
            let slot = self.alloc(&param.name, &param.ty, false)?;
            self.cells[self.slots[slot].start] = Some(arg);
            self.bind(&param.name, slot);
        }
        let flow = self.run_body(&f.body, None, depth)?;
        self.locals.truncate(self.frame);
        (self.frame, self.scope) = caller;
        self.release(slots);
        match flow {
            Flow::Return(v) => Ok(v),
            Flow::Goto(l) => Err(Ub::Unsupported(format!("goto to unknown label `{l}`"))),
            _ => Ok(None),
        }
    }

    /// Runs a statement list with label support: a `goto` unwinds to the
    /// nearest list containing the label and enters it there. With
    /// `entry`, the list itself is entered at that label.
    fn run_body(
        &mut self,
        stmts: &'p [Stmt],
        mut entry: Option<&'p str>,
        depth: usize,
    ) -> Result<Flow<'p>, Ub> {
        let mut idx = match entry {
            Some(label) => label_index(stmts, label).unwrap_or(stmts.len()),
            None => 0,
        };
        // The goto back-edge this list took last, by its index, and the
        // head of its loop. Any other jump here ends that loop.
        let mut edge: Option<(usize, Head)> = None;
        while idx < stmts.len() {
            let flow = match entry.take() {
                Some(label) => self.enter(&stmts[idx], label, depth)?,
                None => self.stmt(&stmts[idx], depth)?,
            };
            match flow {
                Flow::Normal => idx += 1,
                Flow::Goto(label) => match label_index(stmts, label) {
                    Some(i) => {
                        match Loop::back_edge(stmts, i, idx, label) {
                            Some(l) => {
                                let head = match &mut edge {
                                    Some((g, head)) if *g == idx => head,
                                    _ => &mut edge.insert((idx, Head::default())).1,
                                };
                                self.condition_held(l, head)?;
                            }
                            None => edge = None,
                        }
                        idx = i;
                        entry = Some(label);
                    }
                    None => return Ok(Flow::Goto(label)),
                },
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs `s`, which defines `label`, from that label, as a `goto`
    /// does: into the branch or the body that holds it, without testing
    /// the condition on the way in. A loop entered this way then goes
    /// on as usual. Declarations the jump skips stay unbound.
    fn enter(&mut self, s: &'p Stmt, label: &'p str, depth: usize) -> Result<Flow<'p>, Ub> {
        self.burn()?;
        match s {
            Stmt::Label(l, inner) if l == label => self.stmt(inner, depth),
            Stmt::Label(_, inner) => self.enter(inner, label, depth),
            Stmt::Block(body) => {
                let outer = self.open_scope();
                let flow = self.run_body(body, Some(label), depth)?;
                self.close_scope(outer);
                Ok(flow)
            }
            Stmt::If(_, t, e) => match e {
                Some(e) if !stmt_defines_label(t, label) => self.enter(e, label, depth),
                _ => self.enter(t, label, depth),
            },
            Stmt::While(c, body) => self.run_while(s, c, body, Some(label), depth),
            Stmt::DoWhile(body, c) => self.run_do_while(s, body, c, Some(label), depth),
            Stmt::For(_, cond, step, body) => {
                let outer = self.open_scope();
                let flow =
                    self.run_for(s, cond.as_ref(), step.as_ref(), body, Some(label), depth)?;
                self.close_scope(outer);
                Ok(flow)
            }
            // `label_index` picks only statements that define the label.
            _ => Err(Ub::Unsupported(format!("goto to unknown label `{label}`"))),
        }
    }

    fn stmt(&mut self, s: &'p Stmt, depth: usize) -> Result<Flow<'p>, Ub> {
        self.burn()?;
        match s {
            Stmt::Expr(e) => {
                self.eval(e, depth)?;
                Ok(Flow::Normal)
            }
            Stmt::Decl(decls) => {
                self.declare(decls, depth)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(body) => {
                let outer = self.open_scope();
                let flow = self.run_body(body, None, depth)?;
                self.close_scope(outer);
                Ok(flow)
            }
            Stmt::If(c, t, e) => {
                let v = self.truthy(c, depth)?;
                if v {
                    self.stmt(t, depth)
                } else if let Some(e) = e {
                    self.stmt(e, depth)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While(c, body) => self.run_while(s, c, body, None, depth),
            Stmt::DoWhile(body, c) => self.run_do_while(s, body, c, None, depth),
            Stmt::For(init, cond, step, body) => {
                let outer = self.open_scope();
                match init {
                    Some(ForInit::Decl(decls)) => self.declare(decls, depth)?,
                    Some(ForInit::Expr(e)) => {
                        self.eval(e, depth)?;
                    }
                    None => {}
                }
                let flow = self.run_for(s, cond.as_ref(), step.as_ref(), body, None, depth)?;
                self.close_scope(outer);
                Ok(flow)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e, depth)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Goto(l) => Ok(Flow::Goto(l)),
            Stmt::Label(_, inner) => self.stmt(inner, depth),
            Stmt::Empty => Ok(Flow::Normal),
        }
    }

    /// `while (c) body`, entered at `entry` inside the body when a
    /// `goto` jumps there.
    fn run_while(
        &mut self,
        s: &'p Stmt,
        c: &'p Expr,
        body: &'p Stmt,
        mut entry: Option<&'p str>,
        depth: usize,
    ) -> Result<Flow<'p>, Ub> {
        let mut head = Head::default();
        loop {
            let flow = match entry.take() {
                Some(label) => self.enter(body, label, depth)?,
                None => {
                    self.burn()?;
                    if !self.truthy(c, depth)? {
                        break;
                    }
                    self.condition_held(Loop::Structured(s), &mut head)?;
                    self.stmt(body, depth)?
                }
            };
            match flow {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// `do body while (c);`, entered at `entry` inside the body when a
    /// `goto` jumps there.
    fn run_do_while(
        &mut self,
        s: &'p Stmt,
        body: &'p Stmt,
        c: &'p Expr,
        mut entry: Option<&'p str>,
        depth: usize,
    ) -> Result<Flow<'p>, Ub> {
        let mut head = Head::default();
        loop {
            let flow = match entry.take() {
                Some(label) => self.enter(body, label, depth)?,
                None => {
                    self.burn()?;
                    self.stmt(body, depth)?
                }
            };
            match flow {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                other => return Ok(other),
            }
            if !self.truthy(c, depth)? {
                break;
            }
            self.condition_held(Loop::Structured(s), &mut head)?;
        }
        Ok(Flow::Normal)
    }

    /// The loop of `for (init; cond; step) body`, after `init` and inside
    /// the scope it opened; entered at `entry` inside the body when a
    /// `goto` jumps there.
    fn run_for(
        &mut self,
        s: &'p Stmt,
        cond: Option<&'p Expr>,
        step: Option<&'p Expr>,
        body: &'p Stmt,
        mut entry: Option<&'p str>,
        depth: usize,
    ) -> Result<Flow<'p>, Ub> {
        let mut head = Head::default();
        loop {
            let flow = match entry.take() {
                Some(label) => self.enter(body, label, depth)?,
                None => {
                    self.burn()?;
                    if let Some(c) = cond {
                        if !self.truthy(c, depth)? {
                            break;
                        }
                    }
                    self.condition_held(Loop::Structured(s), &mut head)?;
                    self.stmt(body, depth)?
                }
            };
            match flow {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                other => return Ok(other),
            }
            if let Some(st) = step {
                self.eval(st, depth)?;
            }
        }
        Ok(Flow::Normal)
    }

    /// Counts one more time loop `l`'s condition held in this activation.
    /// At the [`LOOP_CHECK_AT`]th, stops the run if the loop cannot exit,
    /// or starts watching its slice; from then on, stops the run when the
    /// slice's cells repeat.
    fn condition_held(&mut self, l: Loop<'p>, head: &mut Head) -> Result<(), Ub> {
        if let Some(watch) = &mut head.watch {
            if watch.repeats(&self.cells) {
                return Err(Ub::NonTerminating);
            }
        } else if head.held < LOOP_CHECK_AT {
            head.held += 1;
            if head.held == LOOP_CHECK_AT {
                head.watch = self.head_check(l)?;
            }
        }
        Ok(())
    }

    /// Loop `l`'s verdict at a head where its condition held: the rule
    /// [`Ub::NonTerminating`] states, read by [`slice::verdict`] once per
    /// run. `Err` when the loop cannot exit, a watch when its slice is
    /// written, and `None` when the loop may exit. Names resolve here, at
    /// the head: the slice's, to the cells to watch, and each written
    /// array's, which must be an array object.
    fn head_check(&mut self, l: Loop<'p>) -> Result<Option<Watch>, Ub> {
        let key = l.key();
        let at = match self
            .verdicts
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, key))
        {
            Some(at) => at,
            None => {
                let verdict = slice::verdict(l, |id| self.name(id));
                self.verdicts.push((key, verdict));
                self.verdicts.len() - 1
            }
        };
        let Verdict::Slice {
            names,
            arrays,
            written,
        } = &self.verdicts[at].1
        else {
            return Ok(None);
        };
        let array = |slot: usize| self.slots[slot].len > 1;
        if !arrays.iter().all(|a| self.lookup(a).is_some_and(array)) {
            return Ok(None);
        }
        if !written {
            return Err(Ub::NonTerminating);
        }
        let mut cells = Vec::with_capacity(names.len());
        for n in names {
            match self.lookup(n) {
                // An array enters as its address, which cannot change.
                Some(slot) if array(slot) => {}
                Some(slot) => cells.push(self.slots[slot].start),
                None => return Ok(None),
            }
        }
        Ok(Some(Watch::new(cells, &self.cells)))
    }

    fn truthy(&mut self, e: &'p Expr, depth: usize) -> Result<bool, Ub> {
        Ok(match self.eval(e, depth)? {
            Value::Int(v) => v != 0,
            Value::Ptr(_) => true,
            Value::Null => false,
        })
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        newest(&self.locals[self.frame..], name).or_else(|| newest(&self.globals, name))
    }

    /// Resolves an lvalue expression to a cell.
    fn lvalue(&mut self, e: &'p Expr, depth: usize) -> Result<PtrTarget, Ub> {
        match &e.kind {
            ExprKind::Ident(id) => {
                let name = self.name(id);
                let slot = self
                    .lookup(name)
                    .ok_or_else(|| Ub::UnknownFunction(name.to_string()))?;
                Ok(PtrTarget { slot, offset: 0 })
            }
            ExprKind::Unary(UnaryOp::Deref, inner) => match self.eval(inner, depth)? {
                Value::Ptr(t) => Ok(t),
                Value::Null => Err(Ub::BadDeref),
                Value::Int(_) => Err(Ub::BadDeref),
            },
            ExprKind::Index(base, idx) => {
                let t = self.lvalue_or_ptr(base, depth)?;
                let i = self.int(idx, depth)?;
                self.moved(t, BinaryOp::Add, i, self.slots[t.slot].len)
            }
            ExprKind::Member(_, _, _) => Err(Ub::Unsupported("struct member access".into())),
            ExprKind::Cast(_, inner) => self.lvalue(inner, depth),
            _ => Err(Ub::Unsupported("invalid lvalue".into())),
        }
    }

    /// Array-to-pointer decay for `a[i]` and `p[i]`.
    fn lvalue_or_ptr(&mut self, e: &'p Expr, depth: usize) -> Result<PtrTarget, Ub> {
        if let ExprKind::Ident(id) = &e.kind {
            let name = self.name(id);
            if let Some(slot) = self.lookup(name) {
                if self.slots[slot].len > 1 {
                    return Ok(PtrTarget { slot, offset: 0 });
                }
                // A scalar: it may hold a pointer.
                return match self.read_cell(slot, 0)? {
                    Value::Ptr(t) => Ok(t),
                    Value::Null => Err(Ub::BadDeref),
                    Value::Int(_) => Err(Ub::BadDeref),
                };
            }
        }
        match self.eval(e, depth)? {
            Value::Ptr(t) => Ok(t),
            _ => Err(Ub::BadDeref),
        }
    }

    fn read_cell(&self, slot: usize, offset: usize) -> Result<Value, Ub> {
        let s = self.slots[slot];
        if offset >= s.len {
            return Err(Ub::OutOfBounds(s.name.to_string()));
        }
        self.cells[s.start + offset].ok_or_else(|| Ub::UninitializedRead(s.name.to_string()))
    }

    fn write_cell(&mut self, t: PtrTarget, v: Value) -> Result<(), Ub> {
        let s = self.slots[t.slot];
        if t.offset >= s.len {
            return Err(Ub::OutOfBounds(s.name.to_string()));
        }
        self.cells[s.start + t.offset] = Some(v);
        Ok(())
    }

    fn int(&mut self, e: &'p Expr, depth: usize) -> Result<i64, Ub> {
        match self.eval(e, depth)? {
            Value::Int(v) => Ok(v),
            _ => Err(Ub::Unsupported("pointer used as integer".into())),
        }
    }

    fn eval(&mut self, e: &'p Expr, depth: usize) -> Result<Value, Ub> {
        self.burn()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::CharLit(c) => Ok(Value::Int(*c as i64)),
            ExprKind::StrLit(_) => Ok(Value::Int(0)), // only as printf fmt
            ExprKind::Ident(id) => {
                let name = self.name(id);
                let slot = self
                    .lookup(name)
                    .ok_or_else(|| Ub::UnknownFunction(name.to_string()))?;
                if self.slots[slot].len > 1 {
                    // Array decays to pointer.
                    return Ok(self.pointer(PtrTarget { slot, offset: 0 }));
                }
                self.read_cell(slot, 0)
            }
            ExprKind::Unary(op, inner) => match op {
                UnaryOp::Neg | UnaryOp::BitNot => {
                    let v = self.int(inner, depth)?;
                    Ok(Value::Int(checked(arith::unary(*op, v))?))
                }
                UnaryOp::Not => Ok(Value::Int((!self.truthy(inner, depth)?) as i64)),
                UnaryOp::Deref => {
                    let t = match self.eval(inner, depth)? {
                        Value::Ptr(t) => t,
                        _ => return Err(Ub::BadDeref),
                    };
                    self.read_cell(t.slot, t.offset)
                }
                UnaryOp::Addr => {
                    let t = self.lvalue(inner, depth)?;
                    Ok(self.pointer(t))
                }
                UnaryOp::PreInc => Ok(Value::Int(self.step(inner, BinaryOp::Add, depth)?.1)),
                UnaryOp::PreDec => Ok(Value::Int(self.step(inner, BinaryOp::Sub, depth)?.1)),
            },
            ExprKind::Post(op, inner) => {
                let op = match op {
                    PostOp::Inc => BinaryOp::Add,
                    PostOp::Dec => BinaryOp::Sub,
                };
                Ok(Value::Int(self.step(inner, op, depth)?.0))
            }
            ExprKind::Binary(op, a, b) => self.binary(*op, a, b, depth),
            ExprKind::Assign(op, lhs, rhs) => {
                let t = self.lvalue(lhs, depth)?;
                let rv = self.eval(rhs, depth)?;
                let result = match op.binary() {
                    None => rv,
                    Some(bop) => {
                        let old = match self.read_cell(t.slot, t.offset)? {
                            Value::Int(v) => v,
                            _ => return Err(Ub::Unsupported("compound assign on pointer".into())),
                        };
                        let rhs_int = match rv {
                            Value::Int(v) => v,
                            _ => return Err(Ub::Unsupported("pointer in compound assign".into())),
                        };
                        Value::Int(checked(arith::binary(bop, old, rhs_int))?)
                    }
                };
                self.write_cell(t, result)?;
                Ok(result)
            }
            ExprKind::Ternary(c, t, els) => {
                if self.truthy(c, depth)? {
                    self.eval(t, depth)
                } else {
                    self.eval(els, depth)
                }
            }
            ExprKind::Call(name, args) => self.builtin_or_call(name, args, depth),
            ExprKind::Index(_, _) => {
                let t = self.lvalue(e, depth)?;
                self.read_cell(t.slot, t.offset)
            }
            ExprKind::Member(_, _, _) => Err(Ub::Unsupported("struct member access".into())),
            ExprKind::Cast(_, inner) => self.eval(inner, depth),
            ExprKind::Comma(a, b) => {
                self.eval(a, depth)?;
                self.eval(b, depth)
            }
        }
    }

    /// `++` or `--` (`op` is `+` or `-`) on the lvalue `e`: stores the
    /// new value and returns the old and the new one.
    fn step(&mut self, e: &'p Expr, op: BinaryOp, depth: usize) -> Result<(i64, i64), Ub> {
        let t = self.lvalue(e, depth)?;
        let old = match self.read_cell(t.slot, t.offset)? {
            Value::Int(v) => v,
            _ => return Err(Ub::Unsupported("++/-- on pointer".into())),
        };
        let new = checked(arith::binary(op, old, 1))?;
        self.write_cell(t, Value::Int(new))?;
        Ok((old, new))
    }

    /// `t` moved `i` cells by `op` (`+` or `-`), if that stays below
    /// `end` cells into its object; `OutOfBounds` otherwise, and also
    /// when the offset overflows.
    fn moved(&self, t: PtrTarget, op: BinaryOp, i: i64, end: usize) -> Result<PtrTarget, Ub> {
        match arith::binary(op, t.offset as i64, i) {
            Outcome::Value(off) if (0..end as i64).contains(&off) => Ok(PtrTarget {
                slot: t.slot,
                offset: off as usize,
            }),
            _ => Err(Ub::OutOfBounds(self.slots[t.slot].name.to_string())),
        }
    }

    fn binary(
        &mut self,
        op: BinaryOp,
        a: &'p Expr,
        b: &'p Expr,
        depth: usize,
    ) -> Result<Value, Ub> {
        // Short-circuit operators first.
        match op {
            BinaryOp::LogAnd => {
                if !self.truthy(a, depth)? {
                    return Ok(Value::Int(0));
                }
                return Ok(Value::Int(self.truthy(b, depth)? as i64));
            }
            BinaryOp::LogOr => {
                if self.truthy(a, depth)? {
                    return Ok(Value::Int(1));
                }
                return Ok(Value::Int(self.truthy(b, depth)? as i64));
            }
            _ => {}
        }
        let av = self.eval(a, depth)?;
        let bv = self.eval(b, depth)?;
        match (av, bv) {
            (Value::Int(x), Value::Int(y)) => Ok(Value::Int(checked(arith::binary(op, x, y))?)),
            // Pointer comparisons and pointer ± integer, which may point
            // one past the end.
            (Value::Ptr(p), Value::Int(i)) if matches!(op, BinaryOp::Add | BinaryOp::Sub) => Ok(
                Value::Ptr(self.moved(p, op, i, self.slots[p.slot].len + 1)?),
            ),
            (Value::Ptr(p), Value::Ptr(q)) if op == BinaryOp::Eq => Ok(Value::Int((p == q) as i64)),
            (Value::Ptr(p), Value::Ptr(q)) if op == BinaryOp::Ne => Ok(Value::Int((p != q) as i64)),
            (Value::Null, Value::Null) if op == BinaryOp::Eq => Ok(Value::Int(1)),
            (Value::Null, Value::Null) if op == BinaryOp::Ne => Ok(Value::Int(0)),
            (Value::Ptr(_), Value::Null) | (Value::Null, Value::Ptr(_))
                if matches!(op, BinaryOp::Eq | BinaryOp::Ne) =>
            {
                Ok(Value::Int((op == BinaryOp::Ne) as i64))
            }
            _ => Err(Ub::Unsupported("mixed pointer arithmetic".into())),
        }
    }

    fn builtin_or_call(&mut self, name: &str, args: &'p [Expr], depth: usize) -> Result<Value, Ub> {
        match name {
            "printf" => {
                let fmt = match args.first().map(|a| &a.kind) {
                    Some(ExprKind::StrLit(fmt)) => fmt.as_str(),
                    _ => "",
                };
                let mut vals = Vec::new();
                for a in args.iter().skip(1) {
                    match self.eval(a, depth)? {
                        Value::Int(v) => vals.push(v.to_string()),
                        Value::Ptr(_) => vals.push("<ptr>".into()),
                        Value::Null => vals.push("0".into()),
                    }
                }
                self.output.push(arith::printf_line(fmt, &vals));
                Ok(Value::Int(0))
            }
            "abort" | "exit" => {
                // Modeled as returning a sentinel through UB-free flow is
                // complex; treat as unsupported so variants using them are
                // filtered, like other libc calls.
                Err(Ub::Unsupported(format!("call to `{name}`")))
            }
            "__init_list" => Err(Ub::Unsupported("brace initializer in expression".into())),
            _ => {
                let f = self
                    .program
                    .function(name)
                    .ok_or_else(|| Ub::UnknownFunction(name.to_string()))?;
                if f.params.len() != args.len() {
                    return Err(Ub::Unsupported(format!("arity mismatch calling `{name}`")));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, depth)?);
                }
                let ret = self.call(f, vals, depth + 1)?;
                Ok(ret.unwrap_or(Value::Int(0)))
            }
        }
    }
}

/// The index of the statement of `stmts` that defines `label`.
fn label_index(stmts: &[Stmt], label: &str) -> Option<usize> {
    stmts.iter().position(|s| stmt_defines_label(s, label))
}

fn stmt_defines_label(s: &Stmt, label: &str) -> bool {
    matches!(s, Stmt::Label(l, _) if l == label)
        || s.children(|c| match c {
            Node::Stmt(c) if stmt_defines_label(c, label) => ControlFlow::Break(()),
            _ => ControlFlow::Continue(()),
        })
        .is_break()
}

/// The reference's reading of the integer table: every overflow and
/// every shift out of range is undefined behaviour.
pub(crate) fn checked(outcome: Outcome) -> Result<i64, Ub> {
    match outcome {
        Outcome::Value(v) => Ok(v),
        Outcome::Overflow(_) | Outcome::ShiftRange(_) => Err(Ub::Overflow),
        Outcome::DivByZero => Err(Ub::DivByZero),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::parse;

    fn run_src(src: &str) -> Result<Execution, Ub> {
        run(&parse(src).expect("parses"), Limits::default())
    }

    #[test]
    fn arithmetic_and_return() {
        assert_eq!(
            run_src("int main() { return 2 + 3 * 4; }")
                .unwrap()
                .exit_code,
            14
        );
    }

    #[test]
    fn globals_are_zero_initialized() {
        assert_eq!(
            run_src("int g; int main() { return g; }")
                .unwrap()
                .exit_code,
            0
        );
    }

    #[test]
    fn locals_are_not() {
        assert_eq!(
            run_src("int main() { int x; return x; }"),
            Err(Ub::UninitializedRead("x".into()))
        );
    }

    #[test]
    fn control_flow() {
        let src = r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 5; i++) {
                    if (i % 2 == 0) continue;
                    s += i;
                }
                int j = 0;
                while (j < 3) { s += 10; j++; }
                do { s += 100; } while (0);
                return s; // 1+3 + 30 + 100 = 134
            }
        "#;
        assert_eq!(run_src(src).unwrap().exit_code, 134);
    }

    #[test]
    fn figure2_pointer_aliasing_without_attribute() {
        // Figure 2 with p and q both pointing at a: the last store wins.
        let src = r#"
            int a = 0;
            int main() {
                int *p = &a, *q = &a;
                *p = 1;
                *q = 2;
                return a;
            }
        "#;
        assert_eq!(run_src(src).unwrap().exit_code, 2);
    }

    #[test]
    fn figure11d_goto_lifetime_pattern() {
        // Figure 11(d): expected exit code 0.
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
        assert_eq!(run_src(src).unwrap().exit_code, 0);
    }

    #[test]
    fn arrays_and_bounds() {
        assert_eq!(
            run_src("int main() { int a[3] = {1, 2, 3}; return a[0] + a[2]; }")
                .unwrap()
                .exit_code,
            4
        );
        assert_eq!(
            run_src("int main() { int a[3] = {1, 2, 3}; return a[3]; }"),
            Err(Ub::OutOfBounds("a".into()))
        );
    }

    // An offset that does not fit an `i64` leaves the object: the
    // reference says so in every build, and never panics.

    #[test]
    fn subtracting_i64_min_from_a_pointer_is_out_of_bounds() {
        assert_eq!(
            run_src(
                "int main() { int a[2]; int *p = a; p = p - (-9223372036854775807 - 1); return 0; }"
            ),
            Err(Ub::OutOfBounds("a".into()))
        );
    }

    #[test]
    fn adding_i64_max_to_a_pointer_is_out_of_bounds() {
        assert_eq!(
            run_src(
                "int main() { int a[2]; int *p = a + 1; p = p + 9223372036854775807; return 0; }"
            ),
            Err(Ub::OutOfBounds("a".into()))
        );
    }

    #[test]
    fn indexing_past_i64_max_is_out_of_bounds() {
        assert_eq!(
            run_src("int main() { int a[2]; int *p = a + 1; return p[9223372036854775807]; }"),
            Err(Ub::OutOfBounds("a".into()))
        );
    }

    #[test]
    fn division_by_zero_detected() {
        assert_eq!(
            run_src("int main() { int z = 0; return 5 / z; }"),
            Err(Ub::DivByZero)
        );
    }

    #[test]
    fn signed_overflow_detected() {
        assert_eq!(
            run_src("int main() { long x = 9223372036854775807; return x + 1 > 0; }"),
            Err(Ub::Overflow)
        );
    }

    #[test]
    fn nontermination_exhausts_fuel() {
        // The body moves the condition's variable without ever repeating
        // it, so the head check cannot prove the loop endless: it runs out
        // of fuel.
        assert_eq!(
            run_src("int main() { int x = 1; while (x > 0) x = x + 1; return 0; }"),
            Err(Ub::FuelExhausted)
        );
    }

    #[test]
    fn loops_that_cannot_exit_stop_at_their_head() {
        for src in [
            "int main() { while (1) ; return 0; }",
            "int main() { for (;;) {} return 0; }",
            "int main() { int x = 1, y = 0; while (x > 0) { y++; if (y) continue; } return y; }",
            "int main() { int x = 1, y = 0; do { y = y + 1; } while (x); return y; }",
            "int g = 1; int main() { int i = 0; for (int n = 0; g; n++) { i = i + 1; } return i; }",
            // Array-element writes join the slice by their index: `a`,
            // which nothing writes, or a `j` that runs through the same
            // cells on every pass.
            "int u[9]; int main() { int a = 1, b = 0; for (int c = 0; a < 7; b++) { u[a] = 0 - 17; } return 0; }",
            "int u[9]; int main() { int a = 1; while (a < 7) u[a]++; return 0; }",
            "int main() { int a = 1, j = 0; int u[3]; while (a) { for (j = 0; j < 3; j++) u[j] = a; } return 0; }",
            "int u[4]; int main() { int a = 2; do { u[a] = u[a] + 1; } while (a < 3); return 0; }",
            // Goto back-edges: nothing writes `b`; `b` comes back to 0;
            // the edge is the whole loop.
            "int main() { int a = 0, b = 1; again: a++; a += b; if (b < 4) goto again; return a; }",
            "int main() { int b = 0; again: b += b - b; if (b < 4) goto again; return b; }",
            "int main() { int b = 1; again: if (b) goto again; return b; }",
            // The slice is written, but repeats: fixed points, a cycle of
            // two values, a guard `t` cycling through 0, 1, 2.
            "int main() { int x = 1; while (x) x = 1; return 0; }",
            "int main() { int a = 0; for (int b = 0; b < 4; a++) { b += b - b; } return a; }",
            "int main() { int b = 0; while (b < 4) b += b; return b; }",
            "int main() { int x = 0; while (x < 5) x = 1 - x; return x; }",
            "int main() { int a = 1, t = 0; while (a) { t = (t + 1) % 3; if (t == 7) a = 0; } return 0; }",
            "int main() { int a = 1; do { a = a * 1; } while (a); return a; }",
        ] {
            assert_eq!(run_src(src), Err(Ub::NonTerminating), "{src}");
        }
    }

    #[test]
    fn a_scope_frees_its_objects_unless_a_pointer_names_one() {
        let cells = |src: &str| {
            let p = parse(src).expect("parses");
            let mut it = Interp::new(&p, Limits::default(), None);
            it.init_globals().expect("globals");
            let main = p.function("main").expect("main");
            it.call(main, Vec::new(), 0).expect("runs");
            it.cells.capacity()
        };
        let freed = "int main() { int i = 0; while (i < 1000) { int a[100]; i++; } return 0; }";
        assert!(cells(freed) < 400, "{}", cells(freed));
        // A pointer to the array keeps every copy: none may be reused.
        let kept = "int main() { int i = 0; int *p = 0; while (i < 1000) { int a[100]; p = a; i++; } return 0; }";
        assert!(cells(kept) >= 100_000, "{}", cells(kept));
    }

    #[test]
    fn the_head_check_proves_nothing_it_cannot() {
        // Loops that exit after the check are not stopped.
        assert_eq!(
            run_src("int main() { int i = 0; while (i < 100) i++; return i; }"),
            Ok(Execution {
                exit_code: 100,
                output: Vec::new()
            })
        );
        assert_eq!(
            run_src("int main() { int i = 0; while (1) { i++; if (i == 100) break; } return i; }")
                .map(|e| e.exit_code),
            Ok(100)
        );
        assert_eq!(
            run_src("int main() { int x = 1, i = 0; int *p = &x; while (x) { i++; if (i == 90) *p = 0; } return i; }")
                .map(|e| e.exit_code),
            Ok(90)
        );
        // Loops the slice watches, which exit after the check.
        for (src, exit) in [
            ("int main() { int i = 0; while (i < 100) { i = i + 1; } return i; }", 100),
            (
                "int main() { int u[4]; int i = 0; while (i < 100) { u[i % 4] = i; i++; } return u[3]; }",
                99,
            ),
            ("int main() { int i = 0, s = 0; again: i++; s += 1; if (i < 200) goto again; return s; }", 200),
            (
                "int main() { int x = 0, n = 0; while (x < 5 && n < 150) { x = 1 - x; n++; } return n; }",
                150,
            ),
            // Each of these holds `a` still for 99 passes out of 100, so a
            // watch over `a` alone would stop it: an array element's value
            // flows into the slice, or a `continue`, a `?:` or a nested
            // loop's condition decides whether the write runs.
            (
                "int main() { int a = 0; int u[2]; u[0] = 0; while (a < 3) { u[0] = u[0] + 1; a = u[0] / 100; } return a; }",
                3,
            ),
            (
                "int main() { int a = 0, b = 0; while (a < 3) { b = (b + 1) % 100; if (b) continue; a = a + 1; } return a; }",
                3,
            ),
            (
                "int main() { int a = 0, b = 0; while (a < 3) { b = (b + 1) % 100; b ? 0 : (a = a + 1); } return a; }",
                3,
            ),
            (
                "int main() { int a = 0, b = 0; while (a < 3) { b = (b + 1) % 100; while (b == 0 && a < 3) a = a + 1; } return a; }",
                3,
            ),
        ] {
            assert_eq!(run_src(src).map(|e| e.exit_code), Ok(exit), "{src}");
        }
        // Endless, but outside the rule: a call in the body, a body that
        // declares the name the condition reads, a write through a
        // pointer, Figure 11b's label inside an `else`, and an array
        // element's value flowing into the slice.
        for src in [
            r#"int main() { int x = 1; while (x) printf("."); return 0; }"#,
            "int main() { int x = 1; while (x) { int x = 0; } return 0; }",
            "int f(int v) { return v; } int main() { int x = 1; while (x) x = f(x); return 0; }",
            "int main() { int x = 1; int *p = &x; while (x) { *p = 1; } return 0; }",
            "int a = 1; int b = 0; int main() { if (b) ; else { l1: ; b = b * 1; } if (a) goto l1; return b; }",
            "int u[2]; int main() { int a = 1; u[0] = 1; u[1] = 1; while (a) { a = u[0]; } return 0; }",
        ] {
            assert_eq!(run_src(src), Err(Ub::FuelExhausted), "{src}");
        }
    }

    #[test]
    fn logged_runs_record_the_holes_they_read() {
        // Use sites: `x` (occurrence 0), `y` (1), `x` (2) and `y` (3).
        // All but occurrence 1 are holes, numbered 0, 1 and 2.
        let p =
            parse("int main() { int x = 0, y = 0; while (x) y++; return x + y; }").expect("parses");
        let occ_hole = [0, NOT_A_HOLE, 1, 2];
        let mut reads = HoleReads::default();
        let got = run_logged(&p, Limits::default(), &occ_hole, &mut reads);
        assert_eq!(got, run(&p, Limits::default()));
        assert_eq!(reads.order(), &[0, 1, 2]);
        // The buffer is reset per run.
        let _ = run_logged(&p, Limits::default(), &occ_hole, &mut reads);
        assert_eq!(reads.order(), &[0, 1, 2]);
    }

    #[test]
    fn the_head_check_logs_the_names_it_inspects() {
        // The run never reaches `y = 1`, but the check compares the
        // written `y` with the condition's `x`. Both holes decide the
        // verdict (spelled `x`, the loop could exit), so both are logged.
        let p = parse("int main() { int x = 1, y = 0; while (x) if (0) y = 1; return 0; }")
            .expect("parses");
        let mut reads = HoleReads::default();
        let got = run_logged(&p, Limits::default(), &[0, 1], &mut reads);
        assert_eq!(got, Err(Ub::NonTerminating));
        assert_eq!(reads.order(), &[0, 1]);
    }

    /// `goto` into a nested statement, against the unoptimized VM and the
    /// exit code gcc 12 gives at -O0.
    #[test]
    fn goto_enters_nested_statements_at_the_label() {
        for (src, gcc) in [
            ("int main() { int x = 0; goto l; if (x) { l: x = 5; } return x; }", 5),
            (
                "int main() { int x = 3; goto l; if (x) x = 7; else { x = x * 2; l: x = x + 1; } return x; }",
                4,
            ),
            ("int main() { int x = 0; goto l; while (x) { l: x = 5; break; } return x; }", 5),
            (
                "int main() { int s = 0, i = 0; goto l; for (i = 10; i < 13; i++) { l: s = s + i; } return s; }",
                78,
            ),
            (
                "int main() { int n = 0; goto l; do { n = n + 10; l: n = n + 1; } while (n < 30); return n; }",
                34,
            ),
            ("int main() { int x = 1; goto l; { x = 10; l: x = x + 2; } return x; }", 3),
        ] {
            let p = parse(src).expect("parses");
            let image = crate::vm::lower(&p).expect("lowers");
            let vm = crate::vm::execute(&image, 80_000).expect("runs").exit_code;
            assert_eq!(vm, gcc, "vm: {src}");
            assert_eq!(run(&p, Limits::default()).map(|e| e.exit_code), Ok(gcc), "{src}");
        }
    }

    #[test]
    fn function_calls_and_recursion() {
        let src = r#"
            int fib(int n) {
                if (n < 2) return n;
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(10); }
        "#;
        assert_eq!(run_src(src).unwrap().exit_code, 55);
    }

    #[test]
    fn runaway_recursion_overflows_stack() {
        let src = "int f(int n) { return f(n + 1); } int main() { return f(0); }";
        assert_eq!(run_src(src), Err(Ub::StackOverflow));
    }

    #[test]
    fn printf_output_captured() {
        let exec =
            run_src(r#"int main() { int a = 7; printf("%d", a); return 0; }"#).expect("runs");
        assert_eq!(exec.output, vec!["%d:7".to_string()]);
    }

    #[test]
    fn short_circuit_prevents_ub() {
        assert_eq!(
            run_src("int main() { int z = 0; return z != 0 && 5 / z > 0; }")
                .unwrap()
                .exit_code,
            0
        );
    }

    #[test]
    fn ternary_evaluates_one_arm() {
        assert_eq!(
            run_src("int main() { int z = 0; return z ? 5 / z : 3; }")
                .unwrap()
                .exit_code,
            3
        );
    }

    #[test]
    fn structs_are_unsupported_not_crashing() {
        let src = "struct s { char c[1]; }; struct s a; int main() { return 0; }";
        assert!(matches!(run_src(src), Err(Ub::Unsupported(_))));
    }

    #[test]
    fn null_deref_detected() {
        assert_eq!(
            run_src("int main() { int *p = 0; return *p; }"),
            Err(Ub::BadDeref)
        );
    }

    #[test]
    fn pointer_swap_through_functions() {
        let src = r#"
            int g = 5;
            int deref(int *p) { return *p; }
            int main() { return deref(&g); }
        "#;
        assert_eq!(run_src(src).unwrap().exit_code, 5);
    }

    #[test]
    fn goto_backward_and_forward() {
        let src = r#"
            int main() {
                int i = 0, s = 0;
                again:
                i++;
                s += i;
                if (i < 3) goto again;
                return s; // 1+2+3
            }
        "#;
        assert_eq!(run_src(src).unwrap().exit_code, 6);
    }
}
