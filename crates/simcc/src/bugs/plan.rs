//! The fact plan: [`scan_facts`](super::scan_facts) planned once per
//! skeleton and evaluated per variant from its hole bindings alone.
//!
//! The variants of one skeleton differ only in the names at their holes.
//! Most facts read no name at all: backward and branch-entering gotos, a
//! declaration after a label, a decrementing outer loop, a variable
//! shift, a comma in a call, expression depth, structs, and a call in a
//! loop condition. The plan holds them as constants. Every other fact
//! reads names at a few sites, and the plan keeps each site as a short
//! list of *slots*. A slot is a hole, or a name the program spells where
//! no hole is. [`FactPlan::bind`] interns a hole's new spelling into a
//! job-local id, and [`FactPlan::facts`] evaluates every site on those
//! ids: no AST walk, no sort, no string comparison.
//!
//! The plan is built by one walk that mirrors the scan step by step, and
//! copies its quirks (each pinned by a unit test in [`super`]):
//!
//! * `&x` takes the address of a global when a global named `x` is
//!   declared earlier in the file, whatever the scopes say.
//! * A call to `__init_list` (a brace initializer) in a loop condition
//!   is no call.
//! * `e - e` does not count when `e` is an integer literal; `e / e`
//!   always counts.
//! * Same-variable and distinct-variable counts are per top-level
//!   expression, and a declarator's initializer is one.
//! * A `for` initializer is no declaration after a label.
//! * `*p = …` stores through `p` only as a whole expression statement,
//!   in the statement list that declares both pointers.

use super::{contains_call, expr_depth, Facts, TriggerFacts};
use crate::interp::NOT_A_HOLE;
use spe_minic::ast::*;
use std::collections::HashMap;
use std::ops::{ControlFlow, Range};

/// Where a site reads a name: an index into [`FactPlan::ids`]. The holes
/// come first, then one slot per distinct name the program spells where
/// no hole is.
type Slot = u32;

/// The facts that hold when two subtrees are equal.
#[derive(Clone, Copy)]
enum Same {
    TernaryArms,
    SelfAssignment,
    SubSelf,
    DivBySelf,
}

impl Same {
    fn flag(self, f: &mut Facts) -> &mut bool {
        match self {
            Same::TernaryArms => &mut f.ternary_identical,
            Same::SelfAssignment => &mut f.self_assignment,
            Same::SubSelf => &mut f.sub_self,
            Same::DivBySelf => &mut f.div_by_self,
        }
    }
}

/// Two pointers declared from `&` in one statement list.
struct Alias {
    /// The two `&` targets.
    targets: (Slot, Slot),
    /// The two pointers, which the plan only creates spelled apart.
    pointers: (Slot, Slot),
    /// What the list stores through: a run of [`FactPlan::slots`].
    stored: Range<usize>,
}

/// The name-dependent sites of a program.
#[derive(Default)]
struct Sites {
    /// Each top-level expression's identifiers, a run of
    /// [`FactPlan::slots`]: `SameVarTimes` and `DistinctVars`. A plan
    /// keeps only the expressions with two or more.
    exprs: Vec<Range<usize>>,
    /// Subtrees equal up to names, a run of [`FactPlan::pairs`] that must
    /// each name alike for the fact to hold.
    same: Vec<(Same, Range<usize>)>,
    /// Each array index's identifiers: `SelfIndexedArray` when two name
    /// alike.
    indexes: Vec<Range<usize>>,
    /// Each `&x`: the slot of `x`, and how many global declarators
    /// precede it.
    addrs: Vec<(Slot, u32)>,
    /// `AliasedPointerStores`.
    aliases: Vec<Alias>,
}

/// Job-local name ids: every spelling the plan has seen, numbered in the
/// order it first came.
#[derive(Default)]
struct Interner(HashMap<Box<str>, u32>);

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.0.get(name) {
            return id;
        }
        let id = self.0.len() as u32;
        self.0.insert(name.into(), id);
        id
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The trigger facts of one skeleton's variants, planned once and
/// evaluated per variant from the names bound to its holes; see the
/// [module docs](self).
pub(crate) struct FactPlan {
    /// The facts no hole binding can change.
    constant: Facts,
    /// The sites a hole binding can change.
    sites: Sites,
    /// The slot runs of the sites.
    slots: Vec<Slot>,
    /// The slot pairs of [`Sites::same`].
    pairs: Vec<(Slot, Slot)>,
    /// The name id each slot holds now.
    ids: Vec<u32>,
    /// How many slots are holes: the first ones.
    holes: usize,
    names: Interner,
    /// By name id: the position of the first global declarator with that
    /// name, `u32::MAX` for none.
    global_rank: Vec<u32>,
    /// Scratch: how often the site being counted reads each name id.
    counts: Vec<u32>,
}

impl FactPlan {
    /// Plans the facts of `program`, whose occurrence `o` is hole
    /// `occ_hole[o]` ([`NOT_A_HOLE`] where none) out of `holes`. Each hole
    /// starts bound to its spelling in `program`.
    pub(crate) fn new(program: &Program, occ_hole: &[usize], holes: usize) -> FactPlan {
        let mut b = Builder {
            occ_hole,
            holes,
            spelled: vec![""; holes],
            names: Interner::default(),
            constant: Facts::default(),
            sites: Sites::default(),
            slots: Vec::new(),
            pairs: Vec::new(),
            globals: Vec::new(),
            next_branch: 0,
            idents: Vec::new(),
            pair_idents: Vec::new(),
        };
        b.program(program);
        b.finish()
    }

    /// Binds hole `hole` to `name`, and says whether its name id changed.
    pub(crate) fn bind(&mut self, hole: usize, name: &str) -> bool {
        let id = self.names.intern(name);
        if self.counts.len() <= id as usize {
            self.counts.resize(id as usize + 1, 0);
        }
        std::mem::replace(&mut self.ids[hole], id) != id
    }

    /// How many holes the plan binds.
    pub(crate) fn holes(&self) -> usize {
        self.holes
    }

    /// The name id each hole holds now, hole-indexed (fixed names
    /// follow): two holes hold one id exactly when they are spelled alike.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The facts of the variant the holes are bound to now.
    pub(crate) fn facts(&mut self) -> Facts {
        let mut f = self.constant;
        let (ids, counts) = (&self.ids, &mut self.counts);
        let alike = |&(a, b): &(Slot, Slot)| ids[a as usize] == ids[b as usize];
        for r in &self.sites.exprs {
            let (most, distinct) = tally(&self.slots[r.clone()], ids, counts);
            f.max_same_var = f.max_same_var.max(most);
            f.max_distinct_vars = f.max_distinct_vars.max(distinct);
        }
        for (same, r) in &self.sites.same {
            let flag = same.flag(&mut f);
            if !*flag && self.pairs[r.clone()].iter().all(alike) {
                *flag = true;
            }
        }
        if !f.self_indexed_array {
            f.self_indexed_array = self
                .sites
                .indexes
                .iter()
                .any(|r| tally(&self.slots[r.clone()], ids, counts).0 > 1);
        }
        if !f.addr_of_global {
            f.addr_of_global = self.sites.addrs.iter().any(|&(s, before)| {
                self.global_rank
                    .get(ids[s as usize] as usize)
                    .is_some_and(|&rank| rank < before)
            });
        }
        if !f.aliased_pointer_stores {
            f.aliased_pointer_stores = self.sites.aliases.iter().any(|a| {
                let stored = &self.slots[a.stored.clone()];
                let stores = |p: Slot| stored.iter().any(|&s| alike(&(s, p)));
                alike(&a.targets) && stores(a.pointers.0) && stores(a.pointers.1)
            });
        }
        f
    }
}

/// How often the most read name of `slots` is read, and how many names
/// they read. Leaves `counts` zeroed, as it finds it.
fn tally(slots: &[Slot], ids: &[u32], counts: &mut [u32]) -> (usize, usize) {
    let (mut most, mut distinct) = (0, 0);
    for &s in slots {
        let c = &mut counts[ids[s as usize] as usize];
        *c += 1;
        distinct += usize::from(*c == 1);
        most = most.max(*c);
    }
    for &s in slots {
        counts[ids[s as usize] as usize] = 0;
    }
    (most as usize, distinct)
}

/// [`exprs_equal`](super::exprs_equal) with the names left open: whether
/// `a` and `b` agree in everything but the identifiers they spell. When
/// they do, `pairs` collects the identifiers that must then be spelled
/// alike.
fn equal_up_to_names<'e>(
    a: &'e Expr,
    b: &'e Expr,
    pairs: &mut Vec<(&'e Ident, &'e Ident)>,
) -> bool {
    match (&a.kind, &b.kind) {
        (ExprKind::IntLit(x), ExprKind::IntLit(y)) => x == y,
        (ExprKind::CharLit(x), ExprKind::CharLit(y)) => x == y,
        (ExprKind::StrLit(x), ExprKind::StrLit(y)) => x == y,
        (ExprKind::Ident(x), ExprKind::Ident(y)) => {
            pairs.push((x, y));
            true
        }
        (ExprKind::Unary(o1, e1), ExprKind::Unary(o2, e2)) => {
            o1 == o2 && equal_up_to_names(e1, e2, pairs)
        }
        (ExprKind::Post(o1, e1), ExprKind::Post(o2, e2)) => {
            o1 == o2 && equal_up_to_names(e1, e2, pairs)
        }
        (ExprKind::Binary(o1, a1, b1), ExprKind::Binary(o2, a2, b2)) => {
            o1 == o2 && equal_up_to_names(a1, a2, pairs) && equal_up_to_names(b1, b2, pairs)
        }
        (ExprKind::Assign(o1, a1, b1), ExprKind::Assign(o2, a2, b2)) => {
            o1 == o2 && equal_up_to_names(a1, a2, pairs) && equal_up_to_names(b1, b2, pairs)
        }
        (ExprKind::Ternary(c1, t1, e1), ExprKind::Ternary(c2, t2, e2)) => {
            equal_up_to_names(c1, c2, pairs)
                && equal_up_to_names(t1, t2, pairs)
                && equal_up_to_names(e1, e2, pairs)
        }
        (ExprKind::Call(n1, a1), ExprKind::Call(n2, a2)) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1
                    .iter()
                    .zip(a2)
                    .all(|(x, y)| equal_up_to_names(x, y, pairs))
        }
        (ExprKind::Index(a1, i1), ExprKind::Index(a2, i2)) => {
            equal_up_to_names(a1, a2, pairs) && equal_up_to_names(i1, i2, pairs)
        }
        (ExprKind::Member(e1, f1, ar1), ExprKind::Member(e2, f2, ar2)) => {
            f1 == f2 && ar1 == ar2 && equal_up_to_names(e1, e2, pairs)
        }
        (ExprKind::Cast(t1, e1), ExprKind::Cast(t2, e2)) => {
            t1 == t2 && equal_up_to_names(e1, e2, pairs)
        }
        (ExprKind::Comma(a1, b1), ExprKind::Comma(a2, b2)) => {
            equal_up_to_names(a1, a2, pairs) && equal_up_to_names(b1, b2, pairs)
        }
        _ => false,
    }
}

/// The walk that builds a [`FactPlan`], step for step the scan's.
struct Builder<'p> {
    occ_hole: &'p [usize],
    holes: usize,
    /// Each hole's spelling in the program.
    spelled: Vec<&'p str>,
    /// The names spelled where no hole is; a hole's spelling joins them
    /// only when the plan is finished.
    names: Interner,
    constant: Facts,
    sites: Sites,
    slots: Vec<Slot>,
    pairs: Vec<(Slot, Slot)>,
    /// The slots of the global declarators so far, in order.
    globals: Vec<Slot>,
    next_branch: usize,
    /// Scratch: one expression's identifiers.
    idents: Vec<&'p Ident>,
    /// Scratch: identifiers two subtrees must spell alike.
    pair_idents: Vec<(&'p Ident, &'p Ident)>,
}

impl<'p> Builder<'p> {
    /// The slot of a name spelled where no hole is.
    fn fixed(&mut self, name: &str) -> Slot {
        (self.holes + self.names.intern(name) as usize) as Slot
    }

    /// The slot an identifier use site reads.
    fn slot(&mut self, id: &'p Ident) -> Slot {
        match self.occ_hole.get(id.occ.0 as usize) {
            Some(&h) if h != NOT_A_HOLE => {
                self.spelled[h] = &id.name;
                h as Slot
            }
            _ => self.fixed(&id.name),
        }
    }

    fn program(&mut self, p: &'p Program) {
        for item in &p.items {
            match item {
                Item::Struct(_) => self.constant.uses_struct = true,
                Item::Global(decls) => {
                    for d in decls {
                        let g = self.fixed(&d.name);
                        self.globals.push(g);
                        if let Some(init) = &d.init {
                            self.expr(init);
                        }
                    }
                }
                Item::Func(f) => {
                    let mut labels = Vec::new();
                    let mut saw_back_goto = false;
                    self.stmts(&f.body, &mut labels, &mut saw_back_goto, 0, 0);
                    if saw_back_goto {
                        TriggerFacts::decl_after_label(
                            &f.body,
                            &mut false,
                            &mut self.constant.decl_after_label_back_goto,
                        );
                    }
                }
            }
        }
    }

    fn stmts(
        &mut self,
        stmts: &'p [Stmt],
        labels: &mut Vec<(&'p str, usize)>,
        saw_back_goto: &mut bool,
        in_branch: usize,
        loop_depth: usize,
    ) {
        // (pointer, `&` target) per pointer declarator, and the pointers
        // stored through, in this statement list.
        let mut ptr_inits: Vec<(Slot, Slot)> = Vec::new();
        let mut stored: Vec<Slot> = Vec::new();
        for s in stmts {
            match s {
                Stmt::Decl(decls) => {
                    for d in decls {
                        if let Some(init) = &d.init {
                            if d.ty.pointers > 0 {
                                if let ExprKind::Unary(UnaryOp::Addr, inner) = &init.kind {
                                    if let ExprKind::Ident(id) = &inner.kind {
                                        let pointer = self.fixed(&d.name);
                                        let target = self.slot(id);
                                        ptr_inits.push((pointer, target));
                                    }
                                }
                            }
                            self.expr(init);
                        }
                    }
                }
                Stmt::Expr(e) => {
                    if let ExprKind::Assign(_, lhs, _) = &e.kind {
                        if let ExprKind::Unary(UnaryOp::Deref, inner) = &lhs.kind {
                            if let ExprKind::Ident(id) = &inner.kind {
                                let pointer = self.slot(id);
                                stored.push(pointer);
                            }
                        }
                    }
                    self.expr(e);
                }
                Stmt::Label(name, inner) => {
                    labels.push((name.as_str(), in_branch));
                    let inner = std::slice::from_ref(&**inner);
                    self.stmts(inner, labels, saw_back_goto, in_branch, loop_depth);
                }
                Stmt::Goto(name) => {
                    if let Some(&(_, label_branch)) = labels.iter().find(|(l, _)| *l == name) {
                        self.constant.backward_goto = true;
                        *saw_back_goto = true;
                        if label_branch != 0 && label_branch != in_branch {
                            self.constant.goto_into_branch = true;
                        }
                    }
                }
                Stmt::Block(b) => self.stmts(b, labels, saw_back_goto, in_branch, loop_depth),
                Stmt::If(c, t, e) => {
                    self.expr(c);
                    self.next_branch += 1;
                    let then_id = self.next_branch;
                    let t = std::slice::from_ref(&**t);
                    self.stmts(t, labels, saw_back_goto, then_id, loop_depth);
                    if let Some(e) = e {
                        self.next_branch += 1;
                        let else_id = self.next_branch;
                        let e = std::slice::from_ref(&**e);
                        self.stmts(e, labels, saw_back_goto, else_id, loop_depth);
                    }
                }
                Stmt::While(c, b) => {
                    self.loop_cond(c);
                    let b = std::slice::from_ref(&**b);
                    self.stmts(b, labels, saw_back_goto, in_branch, loop_depth + 1);
                }
                Stmt::DoWhile(b, c) => {
                    let b = std::slice::from_ref(&**b);
                    self.stmts(b, labels, saw_back_goto, in_branch, loop_depth + 1);
                    self.loop_cond(c);
                }
                Stmt::For(init, cond, step, b) => {
                    match init {
                        Some(ForInit::Decl(ds)) => {
                            for d in ds {
                                if let Some(i) = &d.init {
                                    self.expr(i);
                                }
                            }
                        }
                        Some(ForInit::Expr(e)) => self.expr(e),
                        None => {}
                    }
                    if let Some(c) = cond {
                        self.loop_cond(c);
                    }
                    if let Some(st) = step {
                        if loop_depth == 0
                            && TriggerFacts::is_decrement(st)
                            && TriggerFacts::contains_loop(b)
                        {
                            self.constant.decrementing_outer_loop = true;
                        }
                        self.expr(st);
                    }
                    let b = std::slice::from_ref(&**b);
                    self.stmts(b, labels, saw_back_goto, in_branch, loop_depth + 1);
                }
                Stmt::Return(Some(e)) => self.expr(e),
                _ => {}
            }
        }
        if ptr_inits.len() < 2 || stored.is_empty() {
            return;
        }
        let start = self.slots.len();
        self.slots.extend(&stored);
        let stored = start..self.slots.len();
        for (i, &(p1, t1)) in ptr_inits.iter().enumerate() {
            for &(p2, t2) in &ptr_inits[i + 1..] {
                if p1 != p2 {
                    self.sites.aliases.push(Alias {
                        targets: (t1, t2),
                        pointers: (p1, p2),
                        stored: stored.clone(),
                    });
                }
            }
        }
    }

    fn loop_cond(&mut self, e: &'p Expr) {
        if contains_call(e) {
            self.constant.call_in_loop_cond = true;
        }
        self.expr(e);
    }

    /// One top-level expression.
    fn expr(&mut self, e: &'p Expr) {
        let start = self.slots.len();
        self.push_idents(e);
        if self.slots.len() > start {
            self.sites.exprs.push(start..self.slots.len());
        }
        self.constant.max_expr_depth = self.constant.max_expr_depth.max(expr_depth(e));
        self.patterns(e);
    }

    /// Appends the slots of `e`'s identifiers to [`Builder::slots`].
    fn push_idents(&mut self, e: &'p Expr) {
        let mut idents = std::mem::take(&mut self.idents);
        idents.clear();
        e.for_each_ident(&mut |id| idents.push(id));
        for &id in &idents {
            let s = self.slot(id);
            self.slots.push(s);
        }
        self.idents = idents;
    }

    fn patterns(&mut self, e: &'p Expr) {
        match &e.kind {
            ExprKind::Ternary(_, t, els) => self.same(Same::TernaryArms, t, els),
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) => {
                self.same(Same::SelfAssignment, lhs, rhs)
            }
            ExprKind::Binary(BinaryOp::Sub, a, b) if !matches!(a.kind, ExprKind::IntLit(_)) => {
                self.same(Same::SubSelf, a, b)
            }
            ExprKind::Binary(BinaryOp::Div | BinaryOp::Rem, a, b) => {
                self.same(Same::DivBySelf, a, b)
            }
            ExprKind::Binary(BinaryOp::Shl | BinaryOp::Shr, _, amount)
                if !matches!(amount.kind, ExprKind::IntLit(_) | ExprKind::CharLit(_)) =>
            {
                self.constant.variable_shift = true;
            }
            ExprKind::Unary(UnaryOp::Addr, inner) => {
                if let ExprKind::Ident(id) = &inner.kind {
                    let s = self.slot(id);
                    let before = self.globals.len() as u32;
                    self.sites.addrs.push((s, before));
                }
            }
            ExprKind::Call(_, args)
                if args.iter().any(|a| matches!(a.kind, ExprKind::Comma(_, _))) =>
            {
                self.constant.comma_in_call = true;
            }
            ExprKind::Index(_, idx) => {
                let start = self.slots.len();
                self.push_idents(idx);
                if self.slots.len() - start > 1 {
                    self.sites.indexes.push(start..self.slots.len());
                } else {
                    self.slots.truncate(start);
                }
            }
            _ => {}
        }
        let _ = e.children(|c| {
            self.patterns(c);
            ControlFlow::<()>::Continue(())
        });
    }

    /// A site where `which` holds if `a` and `b` are equal: none when
    /// they differ in more than names, else the slot pairs that must name
    /// alike.
    fn same(&mut self, which: Same, a: &'p Expr, b: &'p Expr) {
        let mut idents = std::mem::take(&mut self.pair_idents);
        idents.clear();
        if equal_up_to_names(a, b, &mut idents) {
            let start = self.pairs.len();
            for &(x, y) in &idents {
                let pair = (self.slot(x), self.slot(y));
                self.pairs.push(pair);
            }
            self.sites.same.push((which, start..self.pairs.len()));
        }
        self.pair_idents = idents;
    }

    /// The plan, with each hole bound to its spelling in the program.
    fn finish(mut self) -> FactPlan {
        let fixed = self.names.len();
        let mut ids: Vec<u32> = self.spelled.iter().map(|s| self.names.intern(s)).collect();
        ids.extend(0..fixed as u32);
        let mut global_rank = vec![u32::MAX; fixed];
        for (pos, &g) in self.globals.iter().enumerate().rev() {
            global_rank[g as usize - self.holes] = pos as u32;
        }
        // An expression with one identifier reads one name once, whatever
        // its hole spells.
        let mut constant = self.constant;
        if !self.sites.exprs.is_empty() {
            constant.max_same_var = 1;
            constant.max_distinct_vars = 1;
        }
        self.sites.exprs.retain(|r| r.len() > 1);
        FactPlan {
            constant,
            sites: self.sites,
            slots: self.slots,
            pairs: self.pairs,
            ids,
            holes: self.holes,
            counts: vec![0; self.names.len()],
            names: self.names,
            global_rank,
        }
    }
}
