//! Backend of the simulated compiler: lowering to a stack bytecode and
//! the virtual machine executing it.
//!
//! The machine models the *target*: arithmetic wraps like hardware,
//! uninitialized stack cells contain a canary value (so defects that drop
//! initializers become observable), and memory is a flat `i64` array
//! addressed by absolute cell index (pointers are plain addresses).
//!
//! Lowering's only choice that depends on how a use site is spelled is
//! the object the name resolves to there. `lower_logged` records, at
//! each hole occurrence, what it emitted and the scope it resolved in;
//! `SiteLog::patch` then re-aims one site of that image at another
//! name's object without lowering again (the wrong-code oracle's `-O0`
//! template, DESIGN §13).

use crate::arith::{self, Outcome};
use crate::interp::NOT_A_HOLE;
use crate::newest;
use crate::passes::folded;
use spe_minic::ast::*;
use std::fmt;

/// Canary filling fresh stack frames; distinguishable from the zeroed
/// globals and from common small constants.
pub const STACK_CANARY: i64 = 90;

/// Bytecode instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Push a constant.
    Push(i64),
    /// Push the absolute address `fp + offset`.
    AddrLocal(i64),
    /// Push the absolute address of a global cell.
    AddrGlobal(i64),
    /// Pop an address, push the cell's value.
    LoadInd,
    /// Pop value then address, store value.
    StoreInd,
    /// Like [`Instr::StoreInd`] but leaves the value on the stack
    /// (assignment expressions have values).
    StoreIndPush,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Binary arithmetic on the two top values.
    Bin(BinaryOp),
    /// Unary operation on the top value.
    Un(UnaryOp),
    /// Unconditional jump.
    Jmp(usize),
    /// Pop; jump if zero.
    Jz(usize),
    /// Pop; jump if non-zero.
    Jnz(usize),
    /// Call function `idx` with `nargs` stacked arguments.
    Call {
        /// Index of the callee in the image's function table.
        func: usize,
        /// Number of stacked arguments to pass.
        nargs: usize,
    },
    /// Return with the top of stack as the value.
    Ret,
    /// Pop `nargs` values and emit formatted output.
    Print {
        /// `printf`-subset format string.
        fmt: String,
        /// Number of stacked arguments the format consumes.
        nargs: usize,
    },
    /// Stop (after `main`).
    Halt,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncInfo {
    /// Name (for diagnostics).
    pub name: String,
    /// Entry program counter.
    pub entry: usize,
    /// Number of parameters.
    pub nparams: usize,
    /// Frame size in cells (params first).
    pub frame: usize,
}

/// A fully lowered program image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Flat instruction stream.
    pub instrs: Vec<Instr>,
    /// Function table.
    pub funcs: Vec<FuncInfo>,
    /// Initial global memory (cell values).
    pub globals: Vec<i64>,
    /// Index of `main` in [`Self::funcs`].
    pub main: usize,
}

/// Errors produced by lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// Runtime traps (a trap on a UB-free input indicates a miscompile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Address outside memory.
    BadAddress(i64),
    /// Division by zero.
    DivByZero,
    /// Fuel exhausted.
    Timeout,
    /// Value stack underflow (would be a codegen bug).
    StackUnderflow,
    /// Call stack too deep.
    StackOverflow,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::BadAddress(a) => write!(f, "trap: bad address {a}"),
            Trap::DivByZero => f.write_str("trap: division by zero"),
            Trap::Timeout => f.write_str("trap: timeout"),
            Trap::StackUnderflow => f.write_str("trap: stack underflow"),
            Trap::StackOverflow => f.write_str("trap: call stack overflow"),
        }
    }
}

impl std::error::Error for Trap {}

/// Result of running an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmExecution {
    /// `main`'s return value masked to 8 bits.
    pub exit_code: i64,
    /// Output of `printf` calls.
    pub output: Vec<String>,
}

// ----- lowering -------------------------------------------------------------

/// Layout of one variable: base address (globals) or frame offset
/// (locals), and its size in cells.
type Layout = (i64, usize);

/// The address instruction of a global's cell or a frame offset.
fn addr_instr(is_global: bool, base: i64) -> Instr {
    if is_global {
        Instr::AddrGlobal(base)
    } else {
        Instr::AddrLocal(base)
    }
}

/// Marks the end of a scope chain in a [`SiteLog`].
const NO_LOCAL: usize = usize::MAX;

/// What [`lower_logged`] did at each hole occurrence it resolved, and
/// what it needs to resolve another name there. The log owns all of it,
/// so it outlives the program it was made from.
///
/// The scope a use site resolves in depends on declarations alone, never
/// on how any use site is spelled, and a site's object decides only its
/// address and, by its size, whether a load follows it. So re-aiming the
/// address at an object of the same size gives the image [`lower`] makes
/// of the respelled program.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteLog {
    /// The resolved hole occurrences, in lowering order.
    sites: Vec<Site>,
    /// Every local lowering allocated, in order. Following `below` from a
    /// site's `scope` visits the locals in scope there, newest first.
    locals: Vec<LoggedLocal>,
    /// The globals, in declaration order.
    globals: Vec<(String, Layout)>,
}

#[derive(Debug, Clone)]
struct LoggedLocal {
    name: String,
    layout: Layout,
    /// The newest local still in scope when this one was declared
    /// ([`NO_LOCAL`] for none).
    below: usize,
}

#[derive(Debug, Clone)]
struct Site {
    hole: usize,
    target: Target,
    /// Size in cells of the object the site resolved to.
    cells: usize,
    /// The newest local in scope ([`NO_LOCAL`] for none, and in a global
    /// initializer, which sees only globals).
    scope: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// The `AddrLocal`/`AddrGlobal` at this instruction index.
    Instr(usize),
    /// The global cell a `&x` initializer set to the address.
    Cell(usize),
    /// An address a global initializer computes with, or that a later
    /// initializer of the same cell overwrote: no single cell holds it.
    Folded,
}

/// Why [`SiteLog::patch`] did not re-aim a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PatchError {
    /// The name resolves to no object there, so [`lower`] rejects the
    /// respelled program.
    Unresolved,
    /// The name resolves to an object of another size, which changes the
    /// instructions around the address, or the site's address is folded
    /// into a global initializer: lower the respelled program in full.
    Relower,
}

impl SiteLog {
    /// The hole of each site, in site order.
    pub(crate) fn holes(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.sites.iter().map(|s| s.hole)
    }

    /// Re-aims site `site` of `image`, which [`lower_logged`] made with
    /// this log, at the object `name` resolves to there. On success the
    /// image is [`lower`] of the program with that site's hole spelled
    /// `name`; on an error it is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range or `image` was lowered without
    /// this log.
    pub(crate) fn patch(
        &self,
        site: usize,
        name: &str,
        image: &mut Image,
    ) -> Result<(), PatchError> {
        let s = &self.sites[site];
        let (is_global, base, cells) = self.resolve(s.scope, name).ok_or(PatchError::Unresolved)?;
        if cells != s.cells {
            return Err(PatchError::Relower);
        }
        match s.target {
            Target::Instr(at) => image.instrs[at] = addr_instr(is_global, base),
            Target::Cell(cell) => image.globals[cell] = base,
            Target::Folded => return Err(PatchError::Relower),
        }
        Ok(())
    }

    /// What `name` denotes in `scope`, as [`FnLower::resolve`] finds it:
    /// the newest local in scope, else the newest global.
    fn resolve(&self, scope: usize, name: &str) -> Option<(bool, i64, usize)> {
        let mut at = scope;
        while let Some(local) = self.locals.get(at) {
            if local.name == name {
                return Some((false, local.layout.0, local.layout.1));
            }
            at = local.below;
        }
        self.globals
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, (base, cells))| (true, base, cells))
    }
}

/// Why [`lower_logged`] made no image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unlowered {
    /// A hole's name resolved to no object, or a global initializer that
    /// holds a hole failed: another spelling of the holes may lower.
    Spelling,
    /// The failure depends on no hole's spelling: no spelling lowers.
    Program,
}

/// Where a logged lowering records its hole sites.
struct SiteLogger<'p> {
    /// `occ_hole[o]`: the hole at occurrence `o`, or [`NOT_A_HOLE`].
    occ_hole: &'p [usize],
    log: &'p mut SiteLog,
    /// The log's entry of each local in [`FnLower::locals`].
    entries: Vec<usize>,
    /// Lowering failed where a hole's spelling may be the cause.
    spelling_failed: bool,
}

impl SiteLogger<'_> {
    /// The hole at occurrence `occ`, if it is one.
    fn hole(&self, occ: OccId) -> Option<usize> {
        let hole = *self.occ_hole.get(occ.0 as usize)?;
        (hole != NOT_A_HOLE).then_some(hole)
    }

    /// Logs the site at occurrence `occ` if it is a hole.
    fn site(&mut self, occ: OccId, target: Target, cells: usize, scope: usize) {
        if let Some(hole) = self.hole(occ) {
            self.log.sites.push(Site {
                hole,
                target,
                cells,
                scope,
            });
        }
    }

    /// Logs the hole sites of a global initializer that set the cells
    /// from `base` on; `layout` is the one the initializer resolved in.
    fn global_init(&mut self, init: &Expr, base: i64, layout: &[(&str, Layout)]) {
        let values = match &init.kind {
            ExprKind::Call(name, args) if name == "__init_list" => &args[..],
            _ => std::slice::from_ref(init),
        };
        for (i, value) in values.iter().enumerate() {
            let cell = base as usize + i;
            // Only a program that initializes one global twice writes a
            // cell again; the last write stands.
            for s in &mut self.log.sites {
                if s.target == Target::Cell(cell) {
                    s.target = Target::Folded;
                }
            }
            let target = match &value.kind {
                ExprKind::Unary(UnaryOp::Addr, a) if matches!(a.kind, ExprKind::Ident(_)) => {
                    Target::Cell(cell)
                }
                _ => Target::Folded,
            };
            // A constant initializer names variables only as `&x`, each
            // resolved before the cell was set.
            value.for_each_ident(&mut |id| {
                let (_, cells) = newest(layout, &id.name).expect("a set cell resolved its `&x`");
                self.site(id.occ, target, cells, NO_LOCAL);
            });
        }
    }
}

struct FnLower<'a, 'p> {
    instrs: &'a mut Vec<Instr>,
    /// Locals in scope, innermost last.
    locals: Vec<(&'p str, Layout)>,
    globals: &'a [(&'p str, Layout)],
    /// Function name -> index.
    func_ids: &'a [(&'p str, usize)],
    next_local: i64,
    max_frame: i64,
    labels: Vec<(&'p str, usize)>,
    goto_patches: Vec<(usize, &'p str)>,
    break_patches: Vec<Vec<usize>>,
    continue_targets: Vec<ContinueTarget>,
    log: Option<&'a mut SiteLogger<'p>>,
}

enum ContinueTarget {
    /// Jump directly to this pc.
    Pc(usize),
    /// Patch later (for `for` steps lowered after the body).
    Pending(Vec<usize>),
}

/// Lowers a (post-optimization) program to an [`Image`].
///
/// # Errors
///
/// Returns [`LowerError`] for constructs outside the executable subset
/// (structs, unknown functions in initializers, etc.).
pub fn lower(p: &Program) -> Result<Image, LowerError> {
    lower_with(p, None)
}

/// [`lower`], with a log of what it did at each hole it resolved:
/// `occ_hole[o]` is the hole filled at occurrence `o`, or
/// [`NOT_A_HOLE`]. [`SiteLog::patch`] then re-aims the image's sites.
///
/// # Errors
///
/// Where [`lower`] fails, says whether another spelling of the holes
/// may lower. Only a name's resolution, and the addresses a global
/// initializer computes with, depend on how a use site is spelled.
pub(crate) fn lower_logged(p: &Program, occ_hole: &[usize]) -> Result<(Image, SiteLog), Unlowered> {
    let mut log = SiteLog::default();
    let mut logger = SiteLogger {
        occ_hole,
        log: &mut log,
        entries: Vec::new(),
        spelling_failed: false,
    };
    match lower_with(p, Some(&mut logger)) {
        Ok(image) => Ok((image, log)),
        Err(_) if logger.spelling_failed => Err(Unlowered::Spelling),
        Err(_) => Err(Unlowered::Program),
    }
}

fn lower_with<'p>(
    p: &'p Program,
    mut log: Option<&mut SiteLogger<'p>>,
) -> Result<Image, LowerError> {
    if p.items.iter().any(|i| matches!(i, Item::Struct(_))) {
        return Err(LowerError("struct definitions are not lowerable".into()));
    }
    // Allocate globals.
    let mut globals_layout: Vec<(&str, Layout)> = Vec::new();
    let mut gmem: Vec<i64> = Vec::new();
    for item in &p.items {
        if let Item::Global(decls) = item {
            for d in decls {
                if matches!(d.ty.base, BaseType::Struct(_)) && d.ty.pointers == 0 {
                    return Err(LowerError(format!("struct global `{}`", d.name)));
                }
                let n = d.ty.array.map(|n| n.max(1) as usize).unwrap_or(1);
                if n > 1 << 20 {
                    return Err(LowerError(format!("array `{}` too large", d.name)));
                }
                globals_layout.push((&d.name, (gmem.len() as i64, n)));
                gmem.extend(std::iter::repeat_n(0, n));
            }
        }
    }
    // Global initializers must be compile-time constants (or addresses).
    for item in &p.items {
        if let Item::Global(decls) = item {
            for d in decls {
                if let (Some(init), Some((base, cells))) =
                    (&d.init, newest(&globals_layout, &d.name))
                {
                    let set = init_global(init, base, cells, &globals_layout, &mut gmem);
                    if let Some(log) = &mut log {
                        match set {
                            Ok(()) => log.global_init(init, base, &globals_layout),
                            Err(_) => init.for_each_ident(&mut |id| {
                                log.spelling_failed |= log.hole(id.occ).is_some()
                            }),
                        }
                    }
                    set?;
                }
            }
        }
    }
    if let Some(log) = &mut log {
        log.log.globals = globals_layout
            .iter()
            .map(|&(name, layout)| (name.to_owned(), layout))
            .collect();
    }
    let func_ids: Vec<(&str, usize)> = p
        .functions()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut instrs = Vec::new();
    let mut funcs = Vec::new();
    for f in p.functions() {
        let entry = instrs.len();
        let mut fl = FnLower {
            instrs: &mut instrs,
            locals: Vec::new(),
            globals: &globals_layout,
            func_ids: &func_ids,
            next_local: 0,
            max_frame: 0,
            labels: Vec::new(),
            goto_patches: Vec::new(),
            break_patches: Vec::new(),
            continue_targets: Vec::new(),
            log: log.as_deref_mut(),
        };
        if let Some(log) = &mut fl.log {
            log.entries.clear();
        }
        for param in &f.params {
            fl.alloc_local(&param.name, &param.ty)?;
        }
        fl.stmts(&f.body)?;
        // Implicit `return 0`.
        fl.instrs.push(Instr::Push(0));
        fl.instrs.push(Instr::Ret);
        // Patch gotos.
        for (at, label) in std::mem::take(&mut fl.goto_patches) {
            let target = newest(&fl.labels, label)
                .ok_or_else(|| LowerError(format!("unknown label `{label}`")))?;
            fl.instrs[at] = Instr::Jmp(target);
        }
        let frame = fl.max_frame.max(fl.next_local) as usize;
        funcs.push(FuncInfo {
            name: f.name.clone(),
            entry,
            nparams: f.params.len(),
            frame,
        });
    }
    let main = newest(&func_ids, "main").ok_or_else(|| LowerError("no main function".into()))?;
    Ok(Image {
        instrs,
        funcs,
        globals: gmem,
        main,
    })
}

fn init_global(
    init: &Expr,
    base: i64,
    cells: usize,
    layout: &[(&str, Layout)],
    gmem: &mut [i64],
) -> Result<(), LowerError> {
    if let ExprKind::Call(name, args) = &init.kind {
        if name == "__init_list" {
            for (i, a) in args.iter().enumerate() {
                if i >= cells {
                    return Err(LowerError("excess initializer".into()));
                }
                gmem[base as usize + i] = const_eval(a, layout)?;
            }
            return Ok(());
        }
    }
    gmem[base as usize] = const_eval(init, layout)?;
    Ok(())
}

/// A global initializer's value, folded as the constant folder folds;
/// `-i64::MIN` wraps here.
fn const_eval(e: &Expr, layout: &[(&str, Layout)]) -> Result<i64, LowerError> {
    let non_constant = || LowerError("non-constant global initializer".into());
    match &e.kind {
        ExprKind::IntLit(v) => Ok(*v),
        ExprKind::CharLit(c) => Ok(*c as i64),
        ExprKind::Unary(UnaryOp::Neg, a) => {
            folded(arith::unary(UnaryOp::Neg, const_eval(a, layout)?)).ok_or_else(non_constant)
        }
        ExprKind::Unary(UnaryOp::Addr, a) => match &a.kind {
            ExprKind::Ident(id) => newest(layout, &id.name)
                .map(|(b, _)| b)
                .ok_or_else(|| LowerError(format!("&{} in global initializer", id.name))),
            _ => Err(LowerError("complex address in global initializer".into())),
        },
        ExprKind::Binary(op, a, b) => {
            let (x, y) = (const_eval(a, layout)?, const_eval(b, layout)?);
            folded(arith::binary(*op, x, y)).ok_or_else(non_constant)
        }
        _ => Err(non_constant()),
    }
}

impl<'p> FnLower<'_, 'p> {
    fn alloc_local(&mut self, name: &'p str, ty: &Type) -> Result<i64, LowerError> {
        if matches!(ty.base, BaseType::Struct(_)) && ty.pointers == 0 {
            return Err(LowerError(format!("struct local `{name}`")));
        }
        let n = ty.array.map(|n| n.max(1) as i64).unwrap_or(1);
        if n > 1 << 20 {
            return Err(LowerError(format!("array `{name}` too large")));
        }
        let off = self.next_local;
        self.next_local += n;
        self.max_frame = self.max_frame.max(self.next_local);
        let layout = (off, n as usize);
        self.locals.push((name, layout));
        if let Some(log) = &mut self.log {
            let below = log.entries.last().copied().unwrap_or(NO_LOCAL);
            log.entries.push(log.log.locals.len());
            log.log.locals.push(LoggedLocal {
                name: name.to_owned(),
                layout,
                below,
            });
        }
        Ok(off)
    }

    /// Leaves a scope: drops the locals declared since `locals` held
    /// `scope` of them and frees their cells from `next_local` on.
    fn leave_scope(&mut self, scope: usize, next_local: i64) {
        self.next_local = next_local;
        self.locals.truncate(scope);
        if let Some(log) = &mut self.log {
            log.entries.truncate(scope);
        }
    }

    fn resolve(&self, name: &str) -> Option<(bool, i64, usize)> {
        match newest(&self.locals, name) {
            Some((off, n)) => Some((false, off, n)),
            None => newest(self.globals, name).map(|(b, n)| (true, b, n)),
        }
    }

    /// Pushes the address of the object the use site `id` names and
    /// returns its size in cells, logging the site if it is a hole.
    fn ident_addr(&mut self, id: &Ident) -> Result<usize, LowerError> {
        let Some((is_global, base, cells)) = self.resolve(&id.name) else {
            if let Some(log) = &mut self.log {
                log.spelling_failed = log.hole(id.occ).is_some();
            }
            return Err(LowerError(format!("unknown variable `{}`", id.name)));
        };
        if let Some(log) = &mut self.log {
            let scope = log.entries.last().copied().unwrap_or(NO_LOCAL);
            log.site(id.occ, Target::Instr(self.instrs.len()), cells, scope);
        }
        self.instrs.push(addr_instr(is_global, base));
        Ok(cells)
    }

    fn stmts(&mut self, body: &'p [Stmt]) -> Result<(), LowerError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn decls(&mut self, decls: &'p [VarDeclarator]) -> Result<(), LowerError> {
        for d in decls {
            let off = self.alloc_local(&d.name, &d.ty)?;
            if let Some(init) = &d.init {
                if let ExprKind::Call(name, args) = &init.kind {
                    if name == "__init_list" {
                        let cells = d.ty.array.map(|n| n.max(1) as usize).unwrap_or(1);
                        for (i, a) in args.iter().enumerate().take(cells) {
                            self.instrs.push(Instr::AddrLocal(off + i as i64));
                            self.expr(a)?;
                            self.instrs.push(Instr::StoreInd);
                        }
                        // Zero the rest, as in C.
                        for i in args.len()..cells {
                            self.instrs.push(Instr::AddrLocal(off + i as i64));
                            self.instrs.push(Instr::Push(0));
                            self.instrs.push(Instr::StoreInd);
                        }
                        continue;
                    }
                }
                self.instrs.push(Instr::AddrLocal(off));
                self.expr(init)?;
                self.instrs.push(Instr::StoreInd);
            }
        }
        Ok(())
    }

    fn stmt(&mut self, s: &'p Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.instrs.push(Instr::Pop);
            }
            Stmt::Decl(decls) => self.decls(decls)?,
            Stmt::Block(body) => {
                let scope = self.locals.len();
                let saved = self.next_local;
                self.stmts(body)?;
                self.leave_scope(scope, saved);
            }
            Stmt::If(c, t, e) => {
                self.expr(c)?;
                let jz = self.instrs.len();
                self.instrs.push(Instr::Jz(usize::MAX));
                self.stmt(t)?;
                match e {
                    Some(e) => {
                        let jmp = self.instrs.len();
                        self.instrs.push(Instr::Jmp(usize::MAX));
                        let else_at = self.instrs.len();
                        self.instrs[jz] = Instr::Jz(else_at);
                        self.stmt(e)?;
                        let end = self.instrs.len();
                        self.instrs[jmp] = Instr::Jmp(end);
                    }
                    None => {
                        let end = self.instrs.len();
                        self.instrs[jz] = Instr::Jz(end);
                    }
                }
            }
            Stmt::While(c, b) => {
                let top = self.instrs.len();
                self.expr(c)?;
                let jz = self.instrs.len();
                self.instrs.push(Instr::Jz(usize::MAX));
                self.break_patches.push(Vec::new());
                self.continue_targets.push(ContinueTarget::Pc(top));
                self.stmt(b)?;
                self.instrs.push(Instr::Jmp(top));
                let end = self.instrs.len();
                self.instrs[jz] = Instr::Jz(end);
                self.finish_loop(end);
            }
            Stmt::DoWhile(b, c) => {
                let top = self.instrs.len();
                self.break_patches.push(Vec::new());
                self.continue_targets
                    .push(ContinueTarget::Pending(Vec::new()));
                self.stmt(b)?;
                let cond_at = self.instrs.len();
                self.patch_pending_continues(cond_at);
                self.expr(c)?;
                self.instrs.push(Instr::Jnz(top));
                let end = self.instrs.len();
                self.finish_loop(end);
            }
            Stmt::For(init, cond, step, b) => {
                let scope = self.locals.len();
                let saved = self.next_local;
                match init {
                    Some(ForInit::Decl(decls)) => self.decls(decls)?,
                    Some(ForInit::Expr(e)) => {
                        self.expr(e)?;
                        self.instrs.push(Instr::Pop);
                    }
                    None => {}
                }
                let top = self.instrs.len();
                let jz = match cond {
                    Some(c) => {
                        self.expr(c)?;
                        let jz = self.instrs.len();
                        self.instrs.push(Instr::Jz(usize::MAX));
                        Some(jz)
                    }
                    None => None,
                };
                self.break_patches.push(Vec::new());
                self.continue_targets
                    .push(ContinueTarget::Pending(Vec::new()));
                self.stmt(b)?;
                let step_at = self.instrs.len();
                self.patch_pending_continues(step_at);
                if let Some(st) = step {
                    self.expr(st)?;
                    self.instrs.push(Instr::Pop);
                }
                self.instrs.push(Instr::Jmp(top));
                let end = self.instrs.len();
                if let Some(jz) = jz {
                    self.instrs[jz] = Instr::Jz(end);
                }
                self.finish_loop(end);
                self.leave_scope(scope, saved);
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(e)?,
                    None => self.instrs.push(Instr::Push(0)),
                }
                self.instrs.push(Instr::Ret);
            }
            Stmt::Break => {
                let at = self.instrs.len();
                self.instrs.push(Instr::Jmp(usize::MAX));
                self.break_patches
                    .last_mut()
                    .ok_or_else(|| LowerError("break outside loop".into()))?
                    .push(at);
            }
            Stmt::Continue => {
                let at = self.instrs.len();
                self.instrs.push(Instr::Jmp(usize::MAX));
                match self
                    .continue_targets
                    .last_mut()
                    .ok_or_else(|| LowerError("continue outside loop".into()))?
                {
                    ContinueTarget::Pc(pc) => {
                        let pc = *pc;
                        self.instrs[at] = Instr::Jmp(pc);
                    }
                    ContinueTarget::Pending(v) => v.push(at),
                }
            }
            Stmt::Goto(l) => {
                let at = self.instrs.len();
                self.instrs.push(Instr::Jmp(usize::MAX));
                self.goto_patches.push((at, l));
            }
            Stmt::Label(l, inner) => {
                self.labels.push((l, self.instrs.len()));
                self.stmt(inner)?;
            }
            Stmt::Empty => {}
        }
        Ok(())
    }

    fn patch_pending_continues(&mut self, target: usize) {
        if let Some(ContinueTarget::Pending(v)) = self.continue_targets.last_mut() {
            for at in std::mem::take(v) {
                self.instrs[at] = Instr::Jmp(target);
            }
        }
    }

    fn finish_loop(&mut self, end: usize) {
        for at in self.break_patches.pop().expect("loop context") {
            self.instrs[at] = Instr::Jmp(end);
        }
        self.continue_targets.pop();
    }

    /// Lowers an lvalue: leaves its *address* on the stack.
    fn addr(&mut self, e: &'p Expr) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::Ident(id) => {
                self.ident_addr(id)?;
            }
            ExprKind::Unary(UnaryOp::Deref, inner) => {
                self.expr(inner)?;
            }
            ExprKind::Index(base, idx) => {
                // An array base decays to its address; a pointer is loaded.
                self.expr(base)?;
                self.expr(idx)?;
                self.instrs.push(Instr::Bin(BinaryOp::Add));
            }
            ExprKind::Cast(_, inner) => self.addr(inner)?,
            other => return Err(LowerError(format!("invalid lvalue {other:?}"))),
        }
        Ok(())
    }

    fn expr(&mut self, e: &'p Expr) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::IntLit(v) => self.instrs.push(Instr::Push(*v)),
            ExprKind::CharLit(c) => self.instrs.push(Instr::Push(*c as i64)),
            ExprKind::StrLit(_) => self.instrs.push(Instr::Push(0)),
            ExprKind::Ident(id) => {
                // Arrays decay to their address; a scalar is loaded.
                if self.ident_addr(id)? == 1 {
                    self.instrs.push(Instr::LoadInd);
                }
            }
            ExprKind::Unary(UnaryOp::Addr, inner) => self.addr(inner)?,
            ExprKind::Unary(UnaryOp::Deref, inner) => {
                self.expr(inner)?;
                self.instrs.push(Instr::LoadInd);
            }
            ExprKind::Unary(op @ (UnaryOp::PreInc | UnaryOp::PreDec), inner) => {
                self.addr(inner)?;
                self.instrs.push(Instr::Dup);
                self.instrs.push(Instr::LoadInd);
                self.instrs.push(Instr::Push(1));
                self.instrs
                    .push(Instr::Bin(if matches!(op, UnaryOp::PreInc) {
                        BinaryOp::Add
                    } else {
                        BinaryOp::Sub
                    }));
                self.instrs.push(Instr::StoreIndPush);
            }
            ExprKind::Unary(op, inner) => {
                self.expr(inner)?;
                self.instrs.push(Instr::Un(*op));
            }
            ExprKind::Post(op, inner) => {
                // [addr] dup load -> [addr old]; swapless encoding: store
                // old+delta, push old: addr dup load dup push1 op
                // -> addr old new ; need stack gymnastics. Simplest:
                // compute new, store, then push old via arithmetic.
                self.addr(inner)?;
                self.instrs.push(Instr::Dup);
                self.instrs.push(Instr::LoadInd);
                self.instrs.push(Instr::Push(1));
                self.instrs.push(Instr::Bin(if matches!(op, PostOp::Inc) {
                    BinaryOp::Add
                } else {
                    BinaryOp::Sub
                }));
                self.instrs.push(Instr::StoreIndPush);
                // Stack now holds the new value; recover the old one.
                self.instrs.push(Instr::Push(1));
                self.instrs.push(Instr::Bin(if matches!(op, PostOp::Inc) {
                    BinaryOp::Sub
                } else {
                    BinaryOp::Add
                }));
            }
            ExprKind::Binary(BinaryOp::LogAnd, a, b) => {
                self.expr(a)?;
                let jz = self.instrs.len();
                self.instrs.push(Instr::Jz(usize::MAX));
                self.expr(b)?;
                let jz2 = self.instrs.len();
                self.instrs.push(Instr::Jz(usize::MAX));
                self.instrs.push(Instr::Push(1));
                let jend = self.instrs.len();
                self.instrs.push(Instr::Jmp(usize::MAX));
                let zero_at = self.instrs.len();
                self.instrs[jz] = Instr::Jz(zero_at);
                self.instrs[jz2] = Instr::Jz(zero_at);
                self.instrs.push(Instr::Push(0));
                let end = self.instrs.len();
                self.instrs[jend] = Instr::Jmp(end);
            }
            ExprKind::Binary(BinaryOp::LogOr, a, b) => {
                self.expr(a)?;
                let jnz = self.instrs.len();
                self.instrs.push(Instr::Jnz(usize::MAX));
                self.expr(b)?;
                let jnz2 = self.instrs.len();
                self.instrs.push(Instr::Jnz(usize::MAX));
                self.instrs.push(Instr::Push(0));
                let jend = self.instrs.len();
                self.instrs.push(Instr::Jmp(usize::MAX));
                let one_at = self.instrs.len();
                self.instrs[jnz] = Instr::Jnz(one_at);
                self.instrs[jnz2] = Instr::Jnz(one_at);
                self.instrs.push(Instr::Push(1));
                let end = self.instrs.len();
                self.instrs[jend] = Instr::Jmp(end);
            }
            ExprKind::Binary(op, a, b) => {
                self.expr(a)?;
                self.expr(b)?;
                self.instrs.push(Instr::Bin(*op));
            }
            ExprKind::Assign(op, lhs, rhs) => {
                self.addr(lhs)?;
                match op.binary() {
                    None => {
                        self.expr(rhs)?;
                    }
                    Some(bop) => {
                        self.instrs.push(Instr::Dup);
                        self.instrs.push(Instr::LoadInd);
                        self.expr(rhs)?;
                        self.instrs.push(Instr::Bin(bop));
                    }
                }
                self.instrs.push(Instr::StoreIndPush);
            }
            ExprKind::Ternary(c, t, els) => {
                self.expr(c)?;
                let jz = self.instrs.len();
                self.instrs.push(Instr::Jz(usize::MAX));
                self.expr(t)?;
                let jmp = self.instrs.len();
                self.instrs.push(Instr::Jmp(usize::MAX));
                let else_at = self.instrs.len();
                self.instrs[jz] = Instr::Jz(else_at);
                self.expr(els)?;
                let end = self.instrs.len();
                self.instrs[jmp] = Instr::Jmp(end);
            }
            ExprKind::Call(name, args) => {
                if name == "printf" {
                    let fmt = match args.first().map(|a| &a.kind) {
                        Some(ExprKind::StrLit(s)) => s.clone(),
                        _ => String::new(),
                    };
                    for a in args.iter().skip(1) {
                        self.expr(a)?;
                    }
                    self.instrs.push(Instr::Print {
                        fmt,
                        nargs: args.len().saturating_sub(1),
                    });
                    self.instrs.push(Instr::Push(0));
                } else if name == "__init_list" {
                    return Err(LowerError("brace initializer in expression".into()));
                } else {
                    let func = newest(self.func_ids, name)
                        .ok_or_else(|| LowerError(format!("unknown function `{name}`")))?;
                    for a in args {
                        self.expr(a)?;
                    }
                    self.instrs.push(Instr::Call {
                        func,
                        nargs: args.len(),
                    });
                }
            }
            ExprKind::Index(base, idx) => {
                // An array base decays to its address; a pointer is loaded.
                self.expr(base)?;
                self.expr(idx)?;
                self.instrs.push(Instr::Bin(BinaryOp::Add));
                self.instrs.push(Instr::LoadInd);
            }
            ExprKind::Member(_, _, _) => return Err(LowerError("struct member access".into())),
            ExprKind::Cast(_, inner) => self.expr(inner)?,
            ExprKind::Comma(a, b) => {
                self.expr(a)?;
                self.instrs.push(Instr::Pop);
                self.expr(b)?;
            }
        }
        Ok(())
    }
}

// ----- the VM ---------------------------------------------------------------

/// Cells in the stack window above the globals.
const STACK_CELLS: usize = 1 << 16;

/// The machine's memory: the globals, then a [`STACK_CELLS`]-cell stack
/// window that starts out all [`STACK_CANARY`].
///
/// The window is materialized lazily. `cells` ends just past the highest
/// cell ever written; every cell beyond it has never been written, so it
/// still holds the canary and reads return that without storing it.
/// Bounds are checked against the full window, so the traps are those
/// of an eagerly filled memory.
struct Memory {
    cells: Vec<i64>,
    /// One past the last addressable cell.
    end: usize,
}

impl Memory {
    fn new(globals: &[i64]) -> Memory {
        Memory {
            cells: globals.to_vec(),
            end: globals.len() + STACK_CELLS,
        }
    }

    fn index(&self, a: i64) -> Result<usize, Trap> {
        if a < 0 || a as usize >= self.end {
            return Err(Trap::BadAddress(a));
        }
        Ok(a as usize)
    }

    fn load(&self, a: i64) -> Result<i64, Trap> {
        let i = self.index(a)?;
        Ok(self.cells.get(i).copied().unwrap_or(STACK_CANARY))
    }

    fn store(&mut self, a: i64, v: i64) -> Result<(), Trap> {
        let i = self.index(a)?;
        if i >= self.cells.len() {
            self.cells.resize(i + 1, STACK_CANARY);
        }
        self.cells[i] = v;
        Ok(())
    }

    /// Re-canaries the fresh frame `lo..hi`; cells not yet materialized
    /// already read as the canary.
    fn fresh_frame(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.cells.len());
        if lo < hi {
            self.cells[lo..hi].fill(STACK_CANARY);
        }
    }
}

/// Executes an image with the given fuel.
///
/// # Errors
///
/// Returns a [`Trap`] on bad addresses, division by zero or timeout.
pub fn execute(image: &Image, fuel: u64) -> Result<VmExecution, Trap> {
    let mut mem = Memory::new(&image.globals);
    let stack_base = image.globals.len();
    let mut values: Vec<i64> = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new(); // (return pc, fp)
    let mut output = Vec::new();

    let main = &image.funcs[image.main];
    let mut fp = stack_base;
    // Main's frame starts out canaries, like the rest of the window.
    let mut sp_mem = stack_base + main.frame;
    let mut pc = main.entry;
    let mut remaining = fuel;

    macro_rules! pop {
        () => {
            values.pop().ok_or(Trap::StackUnderflow)?
        };
    }

    loop {
        if remaining == 0 {
            return Err(Trap::Timeout);
        }
        remaining -= 1;
        let instr = image.instrs.get(pc).ok_or(Trap::BadAddress(pc as i64))?;
        pc += 1;
        match instr {
            Instr::Push(v) => values.push(*v),
            Instr::AddrLocal(off) => values.push(fp as i64 + off),
            Instr::AddrGlobal(a) => values.push(*a),
            Instr::LoadInd => {
                let a = pop!();
                values.push(mem.load(a)?);
            }
            Instr::StoreInd | Instr::StoreIndPush => {
                let v = pop!();
                let a = pop!();
                mem.store(a, v)?;
                if matches!(instr, Instr::StoreIndPush) {
                    values.push(v);
                }
            }
            Instr::Dup => {
                let v = *values.last().ok_or(Trap::StackUnderflow)?;
                values.push(v);
            }
            Instr::Pop => {
                pop!();
            }
            Instr::Bin(op) => {
                let b = pop!();
                let a = pop!();
                values.push(wrapped(arith::binary(*op, a, b))?);
            }
            Instr::Un(op @ (UnaryOp::Neg | UnaryOp::Not | UnaryOp::BitNot)) => {
                let a = pop!();
                values.push(wrapped(arith::unary(*op, a))?);
            }
            // Lowering emits no other unary operator.
            Instr::Un(_) => return Err(Trap::StackUnderflow),
            Instr::Jmp(t) => pc = *t,
            Instr::Jz(t) => {
                if pop!() == 0 {
                    pc = *t;
                }
            }
            Instr::Jnz(t) => {
                if pop!() != 0 {
                    pc = *t;
                }
            }
            Instr::Call { func, nargs } => {
                if frames.len() >= 64 {
                    return Err(Trap::StackOverflow);
                }
                let f = &image.funcs[*func];
                let new_fp = sp_mem;
                let new_sp = new_fp + f.frame;
                if new_sp > mem.end {
                    return Err(Trap::StackOverflow);
                }
                mem.fresh_frame(new_fp, new_sp);
                // Pop arguments into parameter slots (reverse order).
                for i in (0..*nargs).rev() {
                    let v = pop!();
                    mem.store((new_fp + i) as i64, v)?;
                }
                frames.push((pc, fp));
                fp = new_fp;
                sp_mem = new_sp;
                pc = f.entry;
            }
            Instr::Ret => {
                let v = pop!();
                match frames.pop() {
                    Some((ret_pc, old_fp)) => {
                        sp_mem = fp;
                        fp = old_fp;
                        pc = ret_pc;
                        values.push(v);
                    }
                    None => {
                        return Ok(VmExecution {
                            exit_code: arith::exit_status(v),
                            output,
                        });
                    }
                }
            }
            Instr::Print { fmt, nargs } => {
                let mut vals = Vec::new();
                for _ in 0..*nargs {
                    vals.push(pop!().to_string());
                }
                vals.reverse();
                output.push(arith::printf_line(fmt, &vals));
            }
            Instr::Halt => {
                return Ok(VmExecution {
                    exit_code: 0,
                    output,
                })
            }
        }
    }
}

/// The machine's reading of the integer table: it wraps, and traps only
/// on division by zero.
pub(crate) fn wrapped(outcome: Outcome) -> Result<i64, Trap> {
    match outcome {
        Outcome::Value(v) | Outcome::Overflow(v) | Outcome::ShiftRange(v) => Ok(v),
        Outcome::DivByZero => Err(Trap::DivByZero),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::parse;

    fn run_src(src: &str) -> VmExecution {
        let p = parse(src).expect("parses");
        let img = lower(&p).expect("lowers");
        execute(&img, 1_000_000).expect("executes")
    }

    #[test]
    fn a_patched_site_is_lowering_of_the_respelled_program() {
        let p = parse("int a, b; int main() { int c = 1; return a + c; }").expect("parses");
        let (mut image, log) = lower_logged(&p, &[0, 1]).expect("lowers");
        assert_eq!(log.holes().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(log.patch(0, "c", &mut image), Ok(()));
        assert_eq!(log.patch(1, "b", &mut image), Ok(()));
        let respelled = parse("int a, b; int main() { int c = 1; return c + b; }").expect("parses");
        assert_eq!(image, lower(&respelled).expect("lowers"));
        assert_eq!(log.patch(0, "zz", &mut image), Err(PatchError::Unresolved));
        assert_eq!(
            image,
            lower(&respelled).expect("lowers"),
            "a failed patch changed the image"
        );
    }

    #[test]
    fn a_failed_logged_lowering_says_whether_a_spelling_may_lower() {
        const NO: usize = NOT_A_HOLE;
        let fails = |src: &str, occ_hole: &[usize]| {
            lower_logged(&parse(src).expect("parses"), occ_hole).map(|_| ())
        };
        // `zz` resolves nowhere: at a hole, another name may lower.
        let src = "int a; int main() { return zz + a; }";
        assert_eq!(fails(src, &[0, 1]), Err(Unlowered::Spelling));
        assert_eq!(fails(src, &[NO, 0]), Err(Unlowered::Program));
        // A global initializer divides by the distance between two
        // addresses, which a hole there may change.
        let src = "int a, b; int g = 1 / (&a - &b); int main() { return g; }";
        assert_eq!(fails(src, &[0, NO]), Ok(()));
        let src = "int a, b; int g = 1 / (&a - &a); int main() { return g; }";
        assert_eq!(fails(src, &[0, NO]), Err(Unlowered::Spelling));
        assert_eq!(fails(src, &[NO, NO]), Err(Unlowered::Program));
        // No name of a hole makes these lower.
        let src = "struct s { int x; }; int a; int main() { return a; }";
        assert_eq!(fails(src, &[0]), Err(Unlowered::Program));
        let src = "int a; int main() { return f(a); }";
        assert_eq!(fails(src, &[0]), Err(Unlowered::Program));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run_src("int main() { return 2 + 3 * 4; }").exit_code, 14);
    }

    #[test]
    fn locals_params_and_calls() {
        let src = r#"
            int add(int a, int b) { return a + b; }
            int main() { int x = add(2, 3); return add(x, 10); }
        "#;
        assert_eq!(run_src(src).exit_code, 15);
    }

    #[test]
    fn recursion() {
        let src = r#"
            int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
            int main() { return fib(10); }
        "#;
        assert_eq!(run_src(src).exit_code, 55);
    }

    #[test]
    fn globals_and_pointers() {
        let src = r#"
            int a = 0;
            int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }
        "#;
        assert_eq!(run_src(src).exit_code, 2);
    }

    #[test]
    fn arrays_and_loops() {
        let src = r#"
            int u[5];
            int main() {
                for (int i = 0; i < 5; i++) u[i] = i * i;
                int s = 0;
                for (int i = 0; i < 5; i++) s += u[i];
                return s; // 0+1+4+9+16
            }
        "#;
        assert_eq!(run_src(src).exit_code, 30);
    }

    #[test]
    fn break_continue_do_while() {
        let src = r#"
            int main() {
                int s = 0, i = 0;
                do {
                    i++;
                    if (i == 2) continue;
                    if (i == 5) break;
                    s += i;
                } while (1);
                return s; // 1 + 3 + 4
            }
        "#;
        assert_eq!(run_src(src).exit_code, 8);
    }

    #[test]
    fn goto_and_labels() {
        let src = r#"
            int main() {
                int i = 0, s = 0;
                again: i++; s += i;
                if (i < 3) goto again;
                return s;
            }
        "#;
        assert_eq!(run_src(src).exit_code, 6);
    }

    #[test]
    fn short_circuit_semantics() {
        let src = "int main() { int z = 0; return (z != 0 && 5 / z > 0) + (1 || 5 / z); }";
        assert_eq!(run_src(src).exit_code, 1);
    }

    #[test]
    fn post_and_pre_increment_values() {
        let src = "int main() { int x = 5; int a = x++; int b = ++x; return a * 10 + b; }";
        assert_eq!(run_src(src).exit_code, (5 * 10 + 7) & 0xff);
    }

    #[test]
    fn uninitialized_local_reads_canary() {
        let src = "int main() { int x; return x; }";
        assert_eq!(run_src(src).exit_code, STACK_CANARY);
    }

    fn run_result(src: &str) -> Result<VmExecution, Trap> {
        execute(
            &lower(&parse(src).expect("parses")).expect("lowers"),
            1_000_000,
        )
    }

    #[test]
    fn never_written_stack_cells_read_the_canary() {
        // Pointer arithmetic is unscaled cell arithmetic: `p + 100` is a
        // stack cell far above main's one-cell frame that nothing wrote.
        let src = "int main() { int x = 1; int *p = &x; return *(p + 100); }";
        assert_eq!(run_src(src).exit_code, STACK_CANARY);
    }

    #[test]
    fn the_stack_window_ends_at_globals_plus_65536() {
        // `g` is global cell 0 and the only global, so the stack window
        // is cells 1..=65536: the last one reads the canary, one past it
        // traps.
        let last = "int g; int main() { int *p = &g; return *(p + 65536); }";
        assert_eq!(run_src(last).exit_code, STACK_CANARY);
        let past = "int g; int main() { int *p = &g; return *(p + 65537); }";
        assert_eq!(run_result(past), Err(Trap::BadAddress(65537)));
        let store = "int g; int main() { int *p = &g; *(p + 65537) = 1; return 0; }";
        assert_eq!(run_result(store), Err(Trap::BadAddress(65537)));
        // With no globals the cell below the stack is out of range too.
        let below = "int main() { int x; int *p = &x; return *(p - 1); }";
        assert_eq!(run_result(below), Err(Trap::BadAddress(-1)));
    }

    #[test]
    fn deep_recursion_re_canaries_every_fresh_frame() {
        // `dirty` leaves 7 in every frame of a 64-deep chain; `probe`
        // reuses exactly those cells and must still see the canary in
        // its uninitialized local at every depth.
        let src = r#"
            int dirty(int n) { int x = 7; if (n > 0) return dirty(n - 1); return x; }
            int probe(int n) { int x; if (n > 0) { int r = probe(n - 1); if (r != 90) return r; } return x; }
            int main() { dirty(63); return probe(63); }
        "#;
        assert_eq!(run_src(src).exit_code, STACK_CANARY);
        // Cells above the stack top keep what a returned callee left
        // there: only *fresh frames* are re-canaried.
        let stale = r#"
            int dirty(int n) { int x = 7; return x; }
            int main() { int y = 0; int *p = &y; dirty(0); return *(p + 3); }
        "#;
        assert_eq!(run_src(stale).exit_code, 7);
        let too_deep =
            "int f(int n) { if (n > 0) return f(n - 1); return 0; } int main() { return f(64); }";
        assert_eq!(run_result(too_deep), Err(Trap::StackOverflow));
    }

    #[test]
    fn a_frame_past_the_window_overflows() {
        // A 65536-cell frame fills the window exactly; one more cell does
        // not fit.
        let fits = "int big() { int a[65536]; return a[65535]; } int main() { return big(); }";
        assert_eq!(run_src(fits).exit_code, STACK_CANARY);
        let past = "int big() { int a[65537]; return 0; } int main() { return big(); }";
        assert_eq!(run_result(past), Err(Trap::StackOverflow));
    }

    #[test]
    fn division_by_zero_traps() {
        let p = parse("int main() { int z = 0; return 5 / z; }").expect("parses");
        let img = lower(&p).expect("lowers");
        assert_eq!(execute(&img, 10_000), Err(Trap::DivByZero));
    }

    #[test]
    fn infinite_loop_times_out() {
        let p = parse("int main() { while (1) ; return 0; }").expect("parses");
        let img = lower(&p).expect("lowers");
        assert_eq!(execute(&img, 1_000), Err(Trap::Timeout));
    }

    #[test]
    fn structs_rejected() {
        let p = parse("struct s { int x; }; int main() { return 0; }").expect("parses");
        assert!(lower(&p).is_err());
    }

    #[test]
    fn printf_output() {
        let exec = run_src(r#"int main() { int a = 7; printf("%d", a); return 0; }"#);
        assert_eq!(exec.output, vec!["%d:7".to_string()]);
    }

    #[test]
    fn matches_reference_interpreter_on_defined_programs() {
        let srcs = [
            "int main() { int a = 3, b = 4; return a * b + (a - b); }",
            "int g = 10; int main() { int i; for (i = 0; i < g; i++) ; return i; }",
            "int sq(int x) { return x * x; } int main() { return sq(3) + sq(4); }",
            "int main() { int a[4] = {1,2,3,4}; int *p = &a[0]; return *(p + 2); }",
            "int main() { int x = 1; { int y = 2; x += y; } return x; }",
        ];
        for src in srcs {
            let p = parse(src).expect("parses");
            let reference =
                crate::interp::run(&p, crate::interp::Limits::default()).expect("UB-free");
            let vm = run_src(src);
            assert_eq!(reference.exit_code, vm.exit_code, "{src}");
            assert_eq!(reference.output, vm.output, "{src}");
        }
    }
}
