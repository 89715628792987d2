//! The injected-defect registry of the simulated compilers.
//!
//! Real GCC/Clang bugs are triggered by specific *structural patterns* in
//! the input — exactly the patterns skeletal program enumeration explores
//! by rewiring variable usage. Each [`BugSpec`] couples such a pattern
//! ([`Trigger`]) with bug-report metadata (component, priority, affected
//! versions and optimization levels) modeled on the paper's Figures 10
//! and 11 and Table 3. A compiler profile (name + version) activates the
//! subset of bugs live in that version, which is how the same campaign
//! code reproduces both the stable-release experiment (§5.2) and the
//! trunk experiment (§5.3).

use spe_minic::ast::*;
use std::ops::ControlFlow;

mod plan;
pub(crate) use plan::FactPlan;

/// Compiler component a bug lives in (Figure 10(d) categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// C frontend.
    C,
    /// C++ frontend (simulated by struct-using inputs in mini-C).
    Cpp,
    /// Inter-procedural analysis.
    Ipa,
    /// Middle end.
    MiddleEnd,
    /// RTL optimizations.
    RtlOptimization,
    /// Backend/target code generation.
    Target,
    /// Tree-level optimizations.
    TreeOptimization,
}

impl Component {
    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Component::C => "C",
            Component::Cpp => "C++",
            Component::Ipa => "IPA",
            Component::MiddleEnd => "Middle-end",
            Component::RtlOptimization => "RTL-optimization",
            Component::Target => "Target",
            Component::TreeOptimization => "Tree-optimization",
        }
    }
}

/// Bug priority (GCC bugzilla style; P3 is the default, P1 is
/// release-blocking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Release-blocking.
    P1,
    /// High.
    P2,
    /// Default.
    P3,
    /// Low.
    P4,
    /// Lowest.
    P5,
}

impl Priority {
    /// Short label ("P1" …).
    pub fn label(self) -> &'static str {
        match self {
            Priority::P1 => "P1",
            Priority::P2 => "P2",
            Priority::P3 => "P3",
            Priority::P4 => "P4",
            Priority::P5 => "P5",
        }
    }
}

/// What the bug does when triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugKind {
    /// Internal compiler error with the given signature.
    Crash(&'static str),
    /// Silent miscompilation (the passes apply a wrong transformation).
    WrongCode,
    /// Pathological compile time (the harness records it; compilation
    /// still succeeds).
    Performance,
}

/// Structural trigger patterns, evaluated on the (whole-program) AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A ternary whose second and third operands are structurally
    /// identical (Figure 3 / GCC 69801).
    TernaryIdenticalArms,
    /// `x = x` self-assignment somewhere.
    SelfAssignment,
    /// `e - e` with structurally identical non-literal operands.
    SubSelf,
    /// One expression reads the same variable at least `n` times.
    SameVarTimes(u8),
    /// One expression reads at least `n` distinct variables.
    DistinctVars(u8),
    /// A `goto` jumping backward (label textually precedes it).
    BackwardGoto,
    /// A backward `goto` whose label sits inside a conditional while the
    /// goto is outside it, creating an irreducible loop (Figure 11(b)).
    GotoIntoBranch,
    /// Two pointer locals initialized with `&` of the same variable, each
    /// later stored through (Figure 2 / GCC 69951).
    AliasedPointerStores,
    /// An array index expression reading the same variable twice
    /// (Figure 12(b) vectorizer pattern).
    SelfIndexedArray,
    /// A local declaration after a label in a function with a backward
    /// goto (Figure 11(d) lifetime bug).
    DeclAfterLabelWithBackGoto,
    /// A `for` loop whose step decrements a variable read in an inner
    /// loop bound (Figure 11(c)).
    DecrementingOuterLoop,
    /// A shift whose amount is a variable.
    VariableShift,
    /// A comma expression used as a call argument.
    CommaInCall,
    /// Expression nesting depth at least `n`.
    DeepExpression(u8),
    /// The same variable appears on both sides of a division.
    DivBySelf,
    /// Any struct definition present (stands in for the C++-frontend bug
    /// population of the paper; half its reports were C++).
    UsesStruct,
    /// The address of a global is taken.
    AddrOfGlobal,
    /// A call appears inside a loop condition.
    CallInLoopCond,
}

/// A seeded compiler defect with report metadata.
#[derive(Debug, Clone)]
pub struct BugSpec {
    /// Stable identifier, e.g. `"gcc-69951"`.
    pub id: &'static str,
    /// Compiler family: `"gcc-sim"` or `"clang-sim"`.
    pub compiler: &'static str,
    /// Component of Figure 10(d).
    pub component: Component,
    /// Effect when triggered.
    pub kind: BugKind,
    /// Bugzilla priority.
    pub priority: Priority,
    /// Pass where the defect lives (coverage/crash site).
    pub pass: &'static str,
    /// Lowest optimization level at which it fires (0–3).
    pub min_opt: u8,
    /// First version containing the defect.
    pub introduced: u32,
    /// Version that fixed it (`None` = still present at trunk).
    pub fixed: Option<u32>,
    /// The structural trigger.
    pub trigger: Trigger,
}

impl BugSpec {
    /// Whether the bug is live in `version`.
    pub fn live_in(&self, version: u32) -> bool {
        self.introduced <= version && self.fixed.is_none_or(|f| version < f)
    }

    /// Whether the bug fires at `opt` for a program matching its trigger.
    pub fn fires_at(&self, opt: u8) -> bool {
        opt >= self.min_opt
    }
}

/// GCC-sim version numbers (440 = 4.4, 485 = 4.8.5, 500/520 = 5.x,
/// 600 = 6.x, 700 = trunk).
pub const GCC_VERSIONS: &[u32] = &[440, 485, 500, 520, 600, 700];
/// Clang-sim version numbers (350 = 3.5, 360 = 3.6, 370/380, 390 =
/// trunk).
pub const CLANG_VERSIONS: &[u32] = &[350, 360, 370, 380, 390];

/// The full registry of seeded defects: one table, built at compile
/// time and shared by every caller.
pub fn registry() -> &'static [BugSpec] {
    use BugKind::*;
    use Component::*;
    use Priority::*;
    use Trigger::*;
    static REGISTRY: &[BugSpec] = &[
        // ---- GCC-sim: long-latent wrong code & crashes ---------------
        BugSpec { id: "gcc-69951", compiler: "gcc-sim", component: RtlOptimization, kind: WrongCode, priority: P2, pass: "alias", min_opt: 1, introduced: 440, fixed: None, trigger: AliasedPointerStores },
        BugSpec { id: "gcc-69801", compiler: "gcc-sim", component: MiddleEnd, kind: Crash("internal compiler error: in operand_equal_p, at fold-const.c:2838"), priority: P1, pass: "fold", min_opt: 0, introduced: 600, fixed: None, trigger: TernaryIdenticalArms },
        BugSpec { id: "gcc-69740", compiler: "gcc-sim", component: RtlOptimization, kind: Crash("internal compiler error: verify_loop_structure failed"), priority: P1, pass: "loop", min_opt: 2, introduced: 520, fixed: Some(700), trigger: GotoIntoBranch },
        BugSpec { id: "gcc-70138", compiler: "gcc-sim", component: TreeOptimization, kind: WrongCode, priority: P2, pass: "loop", min_opt: 3, introduced: 600, fixed: None, trigger: SelfIndexedArray },
        BugSpec { id: "gcc-lra-1281", compiler: "gcc-sim", component: RtlOptimization, kind: Crash("internal compiler error: in assign_by_spills, at lra-assigns.c:1281"), priority: P3, pass: "regalloc", min_opt: 2, introduced: 485, fixed: Some(600), trigger: DistinctVars(4) },
        BugSpec { id: "gcc-67619", compiler: "gcc-sim", component: MiddleEnd, kind: Crash("internal compiler error: in emit_eh_return, at except.c"), priority: P3, pass: "lower", min_opt: 1, introduced: 460, fixed: Some(700), trigger: BackwardGoto },
        BugSpec { id: "gcc-subself", compiler: "gcc-sim", component: TreeOptimization, kind: Crash("internal compiler error: in fold_binary_loc, tree check failed"), priority: P3, pass: "fold", min_opt: 1, introduced: 500, fixed: Some(600), trigger: SubSelf },
        BugSpec { id: "gcc-selfassign", compiler: "gcc-sim", component: TreeOptimization, kind: Crash("internal compiler error: in remove_redundant_stores, at tree-ssa-dse.c"), priority: P4, pass: "dce", min_opt: 2, introduced: 600, fixed: None, trigger: SelfAssignment },
        BugSpec { id: "gcc-samevar5", compiler: "gcc-sim", component: TreeOptimization, kind: Crash("internal compiler error: in build_reassoc_tree, at tree-ssa-reassoc.c"), priority: P3, pass: "fold", min_opt: 2, introduced: 520, fixed: None, trigger: SameVarTimes(4) },
        BugSpec { id: "gcc-struct-fe", compiler: "gcc-sim", component: Cpp, kind: Crash("internal compiler error: in dfs_walk_once, at cp/search.c"), priority: P3, pass: "sema", min_opt: 0, introduced: 440, fixed: None, trigger: UsesStruct },
        BugSpec { id: "gcc-divself", compiler: "gcc-sim", component: C, kind: Crash("internal compiler error: in c_fully_fold_internal, at c/c-fold.c"), priority: P3, pass: "fold", min_opt: 0, introduced: 600, fixed: None, trigger: DivBySelf },
        BugSpec { id: "gcc-deep-expr", compiler: "gcc-sim", component: MiddleEnd, kind: Performance, priority: P4, pass: "fold", min_opt: 1, introduced: 485, fixed: None, trigger: DeepExpression(8) },
        BugSpec { id: "gcc-addr-global", compiler: "gcc-sim", component: Ipa, kind: Crash("internal compiler error: in ipa_ref_referring, at ipa-ref.c"), priority: P3, pass: "sema", min_opt: 3, introduced: 520, fixed: Some(700), trigger: AddrOfGlobal },
        BugSpec { id: "gcc-call-loopcond", compiler: "gcc-sim", component: TreeOptimization, kind: Crash("internal compiler error: in estimate_numbers_of_iterations, at tree-ssa-loop-niter.c"), priority: P2, pass: "loop", min_opt: 3, introduced: 600, fixed: None, trigger: CallInLoopCond },
        BugSpec { id: "gcc-varshift", compiler: "gcc-sim", component: Target, kind: Crash("internal compiler error: output_operand: invalid shift operand"), priority: P3, pass: "emit", min_opt: 1, introduced: 485, fixed: Some(520), trigger: VariableShift },
        BugSpec { id: "gcc-decl-label", compiler: "gcc-sim", component: MiddleEnd, kind: Crash("internal compiler error: in expand_goto, at stmt.c"), priority: P3, pass: "lower", min_opt: 0, introduced: 440, fixed: Some(485), trigger: DeclAfterLabelWithBackGoto },
        BugSpec { id: "gcc-dec-outer", compiler: "gcc-sim", component: TreeOptimization, kind: Crash("internal compiler error: in vect_analyze_loop_form, at tree-vect-loop.c"), priority: P3, pass: "loop", min_opt: 3, introduced: 520, fixed: None, trigger: DecrementingOuterLoop },
        BugSpec { id: "gcc-comma-call", compiler: "gcc-sim", component: C, kind: Crash("internal compiler error: in convert_arguments, at c/c-typeck.c"), priority: P4, pass: "sema", min_opt: 0, introduced: 500, fixed: Some(520), trigger: CommaInCall },
        BugSpec { id: "gcc-distinct6", compiler: "gcc-sim", component: RtlOptimization, kind: Performance, priority: P5, pass: "regalloc", min_opt: 2, introduced: 440, fixed: None, trigger: DistinctVars(6) },
        BugSpec { id: "gcc-samevar6-wc", compiler: "gcc-sim", component: TreeOptimization, kind: WrongCode, priority: P2, pass: "ccp", min_opt: 2, introduced: 700, fixed: None, trigger: SameVarTimes(6) },
        // ---- Clang-sim -----------------------------------------------
        BugSpec { id: "clang-26973", compiler: "clang-sim", component: TreeOptimization, kind: Crash("Assertion `MRI->getVRegDef(reg) && \"Register use before def!\"' failed"), priority: P2, pass: "regalloc", min_opt: 1, introduced: 370, fixed: Some(390), trigger: DecrementingOuterLoop },
        BugSpec { id: "clang-26994", compiler: "clang-sim", component: MiddleEnd, kind: WrongCode, priority: P1, pass: "dce", min_opt: 1, introduced: 370, fixed: None, trigger: DeclAfterLabelWithBackGoto },
        BugSpec { id: "clang-split-op", compiler: "clang-sim", component: Target, kind: Crash("fatal error: error in backend: Do not know how to split the result of this operator!"), priority: P2, pass: "lower", min_opt: 1, introduced: 350, fixed: None, trigger: VariableShift },
        BugSpec { id: "clang-regname", compiler: "clang-sim", component: Target, kind: Crash("fatal error: error in backend: Invalid register name global variable."), priority: P3, pass: "emit", min_opt: 3, introduced: 360, fixed: Some(380), trigger: AddrOfGlobal },
        BugSpec { id: "clang-stacktop", compiler: "clang-sim", component: Target, kind: Crash("fatal error: error in backend: Access past stack top!"), priority: P3, pass: "lower", min_opt: 2, introduced: 350, fixed: None, trigger: TernaryIdenticalArms },
        BugSpec { id: "clang-sdnode", compiler: "clang-sim", component: Target, kind: Crash("Assertion `Num < NumOperands && \"Invalid child # of SDNode!\"' failed"), priority: P3, pass: "lower", min_opt: 2, introduced: 360, fixed: None, trigger: CommaInCall },
        BugSpec { id: "clang-28045", compiler: "clang-sim", component: Cpp, kind: Crash("Assertion failed: isa<TemplateSpecializationType>(Ty) in mangleType"), priority: P3, pass: "sema", min_opt: 0, introduced: 360, fixed: Some(390), trigger: UsesStruct },
        BugSpec { id: "clang-samevar4", compiler: "clang-sim", component: TreeOptimization, kind: Crash("Assertion `isReassociable(I)' failed in Reassociate.cpp"), priority: P3, pass: "fold", min_opt: 2, introduced: 370, fixed: None, trigger: SameVarTimes(4) },
        BugSpec { id: "clang-backgoto", compiler: "clang-sim", component: MiddleEnd, kind: Crash("Assertion `LoopHeaders.empty()' failed in SimplifyCFG.cpp"), priority: P3, pass: "loop", min_opt: 2, introduced: 350, fixed: Some(370), trigger: GotoIntoBranch },
        BugSpec { id: "clang-subself-wc", compiler: "clang-sim", component: TreeOptimization, kind: WrongCode, priority: P2, pass: "fold", min_opt: 2, introduced: 380, fixed: None, trigger: SubSelf },
        BugSpec { id: "clang-deep-expr", compiler: "clang-sim", component: MiddleEnd, kind: Performance, priority: P4, pass: "fold", min_opt: 1, introduced: 350, fixed: None, trigger: DeepExpression(10) },
        BugSpec { id: "clang-distinct5", compiler: "clang-sim", component: RtlOptimization, kind: Crash("Assertion `!NodePtr->isKnownSentinel()' failed in ilist_iterator"), priority: P3, pass: "regalloc", min_opt: 2, introduced: 360, fixed: None, trigger: DistinctVars(5) },
    ];
    REGISTRY
}

/// Walks `p` once and collects every structural fact the [`Trigger`]
/// vocabulary can ask about.
///
/// The scan borrows identifier names from the program, so the program
/// must outlive it; scanning allocates only a few reusable scratch
/// buffers regardless of program size.
pub fn scan_facts(p: &Program) -> TriggerFacts<'_> {
    let mut m = TriggerFacts::default();
    m.scan(p);
    m
}

/// The value of every fact the [`Trigger`] vocabulary reads, however it
/// was computed: by [`scan_facts`] on a whole program, or by a fact plan
/// from a variant's hole bindings
/// ([`CachedOracle::facts`](crate::incremental::CachedOracle::facts)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts {
    ternary_identical: bool,
    self_assignment: bool,
    sub_self: bool,
    max_same_var: usize,
    max_distinct_vars: usize,
    backward_goto: bool,
    goto_into_branch: bool,
    aliased_pointer_stores: bool,
    self_indexed_array: bool,
    decl_after_label_back_goto: bool,
    decrementing_outer_loop: bool,
    variable_shift: bool,
    comma_in_call: bool,
    max_expr_depth: usize,
    div_by_self: bool,
    uses_struct: bool,
    addr_of_global: bool,
    call_in_loop_cond: bool,
}

impl Facts {
    /// Whether `trigger` matches the program these facts describe.
    pub fn matches(&self, trigger: Trigger) -> bool {
        match trigger {
            Trigger::TernaryIdenticalArms => self.ternary_identical,
            Trigger::SelfAssignment => self.self_assignment,
            Trigger::SubSelf => self.sub_self,
            Trigger::SameVarTimes(n) => self.max_same_var >= n as usize,
            Trigger::DistinctVars(n) => self.max_distinct_vars >= n as usize,
            Trigger::BackwardGoto => self.backward_goto,
            Trigger::GotoIntoBranch => self.goto_into_branch,
            Trigger::AliasedPointerStores => self.aliased_pointer_stores,
            Trigger::SelfIndexedArray => self.self_indexed_array,
            Trigger::DeclAfterLabelWithBackGoto => self.decl_after_label_back_goto,
            Trigger::DecrementingOuterLoop => self.decrementing_outer_loop,
            Trigger::VariableShift => self.variable_shift,
            Trigger::CommaInCall => self.comma_in_call,
            Trigger::DeepExpression(n) => self.max_expr_depth >= n as usize,
            Trigger::DivBySelf => self.div_by_self,
            Trigger::UsesStruct => self.uses_struct,
            Trigger::AddrOfGlobal => self.addr_of_global,
            Trigger::CallInLoopCond => self.call_in_loop_cond,
        }
    }
}

impl TriggerFacts<'_> {
    /// Whether `trigger` matches the scanned program.
    pub fn matches(&self, trigger: Trigger) -> bool {
        self.facts.matches(trigger)
    }
}

/// Structural facts collected in one AST walk, borrowing identifier
/// names from the scanned program. Build with [`scan_facts`], query
/// with [`TriggerFacts::matches`].
#[derive(Debug, Default)]
pub struct TriggerFacts<'p> {
    pub(crate) facts: Facts,
    globals: Vec<&'p str>,
    next_branch: usize,
    name_scratch: Vec<&'p str>,
}

/// Structural equality of expressions up to occurrence/node ids — the
/// analogue of GCC's `operand_equal_p`.
pub fn exprs_equal(a: &Expr, b: &Expr) -> bool {
    match (&a.kind, &b.kind) {
        (ExprKind::IntLit(x), ExprKind::IntLit(y)) => x == y,
        (ExprKind::CharLit(x), ExprKind::CharLit(y)) => x == y,
        (ExprKind::StrLit(x), ExprKind::StrLit(y)) => x == y,
        (ExprKind::Ident(x), ExprKind::Ident(y)) => x.name == y.name,
        (ExprKind::Unary(o1, e1), ExprKind::Unary(o2, e2)) => o1 == o2 && exprs_equal(e1, e2),
        (ExprKind::Post(o1, e1), ExprKind::Post(o2, e2)) => o1 == o2 && exprs_equal(e1, e2),
        (ExprKind::Binary(o1, a1, b1), ExprKind::Binary(o2, a2, b2)) => {
            o1 == o2 && exprs_equal(a1, a2) && exprs_equal(b1, b2)
        }
        (ExprKind::Assign(o1, a1, b1), ExprKind::Assign(o2, a2, b2)) => {
            o1 == o2 && exprs_equal(a1, a2) && exprs_equal(b1, b2)
        }
        (ExprKind::Ternary(c1, t1, e1), ExprKind::Ternary(c2, t2, e2)) => {
            exprs_equal(c1, c2) && exprs_equal(t1, t2) && exprs_equal(e1, e2)
        }
        (ExprKind::Call(n1, a1), ExprKind::Call(n2, a2)) => {
            n1 == n2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| exprs_equal(x, y))
        }
        (ExprKind::Index(a1, i1), ExprKind::Index(a2, i2)) => {
            exprs_equal(a1, a2) && exprs_equal(i1, i2)
        }
        (ExprKind::Member(e1, f1, ar1), ExprKind::Member(e2, f2, ar2)) => {
            f1 == f2 && ar1 == ar2 && exprs_equal(e1, e2)
        }
        (ExprKind::Cast(t1, e1), ExprKind::Cast(t2, e2)) => t1 == t2 && exprs_equal(e1, e2),
        (ExprKind::Comma(a1, b1), ExprKind::Comma(a2, b2)) => {
            exprs_equal(a1, a2) && exprs_equal(b1, b2)
        }
        _ => false,
    }
}

impl<'p> TriggerFacts<'p> {
    fn scan(&mut self, p: &'p Program) {
        for item in &p.items {
            match item {
                Item::Struct(_) => self.facts.uses_struct = true,
                Item::Global(decls) => {
                    for d in decls {
                        self.globals.push(d.name.as_str());
                        if let Some(init) = &d.init {
                            self.expr(init);
                        }
                    }
                }
                Item::Func(f) => {
                    let mut labels_seen: Vec<(&str, usize)> = Vec::new();
                    let mut saw_back_goto = false;
                    self.stmts(&f.body, &mut labels_seen, &mut saw_back_goto, 0, 0);
                    // Second walk for decl-after-label with a backward
                    // goto present anywhere in the function.
                    if saw_back_goto {
                        let mut after_label = false;
                        Self::decl_after_label(
                            &f.body,
                            &mut after_label,
                            &mut self.facts.decl_after_label_back_goto,
                        );
                    }
                }
            }
        }
    }

    fn decl_after_label(stmts: &[Stmt], after_label: &mut bool, found: &mut bool) {
        for s in stmts {
            match s {
                Stmt::Label(..) => *after_label = true,
                Stmt::Decl(_) if *after_label => *found = true,
                _ => {}
            }
            let _ = s.children(|c| {
                if let Node::Stmt(c) = c {
                    Self::decl_after_label(std::slice::from_ref(c), after_label, found);
                }
                ControlFlow::<()>::Continue(())
            });
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
        // Track pointer initializations for the alias pattern, per
        // statement list.
        let mut ptr_inits: Vec<(&str, &str)> = Vec::new(); // (ptr, target)
        let mut stored_through: Vec<&str> = Vec::new();
        for s in stmts {
            match s {
                Stmt::Decl(decls) => {
                    for d in decls {
                        if let Some(init) = &d.init {
                            if d.ty.pointers > 0 {
                                if let ExprKind::Unary(UnaryOp::Addr, inner) = &init.kind {
                                    if let ExprKind::Ident(id) = &inner.kind {
                                        ptr_inits.push((d.name.as_str(), id.name.as_str()));
                                    }
                                }
                            }
                            self.expr(init);
                        }
                    }
                }
                Stmt::Expr(e) => {
                    // `*p = …` store-through tracking.
                    if let ExprKind::Assign(_, lhs, _) = &e.kind {
                        if let ExprKind::Unary(UnaryOp::Deref, inner) = &lhs.kind {
                            if let ExprKind::Ident(id) = &inner.kind {
                                stored_through.push(id.name.as_str());
                            }
                        }
                    }
                    self.expr(e);
                }
                Stmt::Label(name, inner) => {
                    labels.push((name.as_str(), in_branch));
                    // (branch id 0 = outside any conditional)
                    self.stmts(
                        std::slice::from_ref(inner),
                        labels,
                        saw_back_goto,
                        in_branch,
                        loop_depth,
                    );
                }
                Stmt::Goto(name) => {
                    if let Some((_, label_branch)) =
                        labels.iter().find(|(l, _)| *l == name.as_str())
                    {
                        self.facts.backward_goto = true;
                        *saw_back_goto = true;
                        if *label_branch != 0 && *label_branch != in_branch {
                            self.facts.goto_into_branch = true;
                        }
                    }
                }
                Stmt::Block(b) => self.stmts(b, labels, saw_back_goto, in_branch, loop_depth),
                Stmt::If(c, t, e) => {
                    self.expr(c);
                    self.next_branch += 1;
                    let then_id = self.next_branch;
                    self.stmts(
                        std::slice::from_ref(t),
                        labels,
                        saw_back_goto,
                        then_id,
                        loop_depth,
                    );
                    if let Some(e) = e {
                        self.next_branch += 1;
                        let else_id = self.next_branch;
                        self.stmts(
                            std::slice::from_ref(e),
                            labels,
                            saw_back_goto,
                            else_id,
                            loop_depth,
                        );
                    }
                }
                Stmt::While(c, b) => {
                    self.expr_in_loop_cond(c);
                    self.stmts(
                        std::slice::from_ref(b),
                        labels,
                        saw_back_goto,
                        in_branch,
                        loop_depth + 1,
                    );
                }
                Stmt::DoWhile(b, c) => {
                    self.stmts(
                        std::slice::from_ref(b),
                        labels,
                        saw_back_goto,
                        in_branch,
                        loop_depth + 1,
                    );
                    self.expr_in_loop_cond(c);
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
                        self.expr_in_loop_cond(c);
                    }
                    if let Some(st) = step {
                        // `for (;; p1--)` with an inner loop: the
                        // decrementing-outer-loop pattern.
                        if loop_depth == 0 && Self::is_decrement(st) && Self::contains_loop(b) {
                            self.facts.decrementing_outer_loop = true;
                        }
                        self.expr(st);
                    }
                    self.stmts(
                        std::slice::from_ref(b),
                        labels,
                        saw_back_goto,
                        in_branch,
                        loop_depth + 1,
                    );
                }
                Stmt::Return(Some(e)) => self.expr(e),
                _ => {}
            }
        }
        // Alias pattern: two distinct pointers initialized from the same
        // target, both stored through.
        for (i, (p1, t1)) in ptr_inits.iter().enumerate() {
            for (p2, t2) in ptr_inits.iter().skip(i + 1) {
                if p1 != p2
                    && t1 == t2
                    && stored_through.contains(p1)
                    && stored_through.contains(p2)
                {
                    self.facts.aliased_pointer_stores = true;
                }
            }
        }
    }

    fn is_decrement(e: &Expr) -> bool {
        matches!(
            &e.kind,
            ExprKind::Post(PostOp::Dec, _) | ExprKind::Unary(UnaryOp::PreDec, _)
        )
    }

    fn contains_loop(s: &Stmt) -> bool {
        matches!(s, Stmt::While(..) | Stmt::DoWhile(..) | Stmt::For(..))
            || s.children(|c| match c {
                Node::Stmt(c) if Self::contains_loop(c) => ControlFlow::Break(()),
                _ => ControlFlow::Continue(()),
            })
            .is_break()
    }

    fn expr_in_loop_cond(&mut self, e: &'p Expr) {
        if contains_call(e) {
            self.facts.call_in_loop_cond = true;
        }
        self.expr(e);
    }

    fn expr(&mut self, e: &'p Expr) {
        // Per-expression variable statistics, via a reused scratch
        // buffer of borrowed names (this is the compile hot path).
        let mut sorted = std::mem::take(&mut self.name_scratch);
        sorted.clear();
        e.for_each_ident(&mut |id| sorted.push(id.name.as_str()));
        sorted.sort_unstable();
        let mut max_same = 0;
        let mut run = 0;
        let mut prev: Option<&str> = None;
        for &n in &sorted {
            if prev == Some(n) {
                run += 1;
            } else {
                run = 1;
                prev = Some(n);
            }
            max_same = max_same.max(run);
        }
        self.facts.max_same_var = self.facts.max_same_var.max(max_same);
        sorted.dedup();
        self.facts.max_distinct_vars = self.facts.max_distinct_vars.max(sorted.len());
        self.name_scratch = sorted;
        self.facts.max_expr_depth = self.facts.max_expr_depth.max(expr_depth(e));
        self.expr_patterns(e);
    }

    fn expr_patterns(&mut self, e: &'p Expr) {
        match &e.kind {
            ExprKind::Ternary(_, t, els) if exprs_equal(t, els) => {
                self.facts.ternary_identical = true;
            }
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) if exprs_equal(lhs, rhs) => {
                self.facts.self_assignment = true;
            }
            ExprKind::Binary(BinaryOp::Sub, a, b)
                if !matches!(a.kind, ExprKind::IntLit(_)) && exprs_equal(a, b) =>
            {
                self.facts.sub_self = true;
            }
            ExprKind::Binary(BinaryOp::Div | BinaryOp::Rem, a, b) if exprs_equal(a, b) => {
                self.facts.div_by_self = true;
            }
            ExprKind::Binary(BinaryOp::Shl | BinaryOp::Shr, _, amount)
                if !matches!(amount.kind, ExprKind::IntLit(_) | ExprKind::CharLit(_)) =>
            {
                self.facts.variable_shift = true;
            }
            ExprKind::Unary(UnaryOp::Addr, inner) => {
                if let ExprKind::Ident(id) = &inner.kind {
                    if self.globals.contains(&id.name.as_str()) {
                        self.facts.addr_of_global = true;
                    }
                }
            }
            ExprKind::Call(_, args) => {
                for a in args {
                    if matches!(a.kind, ExprKind::Comma(_, _)) {
                        self.facts.comma_in_call = true;
                    }
                }
            }
            ExprKind::Index(_, idx) if !self.facts.self_indexed_array => {
                let mut names = std::mem::take(&mut self.name_scratch);
                names.clear();
                idx.for_each_ident(&mut |id| names.push(id.name.as_str()));
                names.sort_unstable();
                for w in names.windows(2) {
                    if w[0] == w[1] {
                        self.facts.self_indexed_array = true;
                    }
                }
                self.name_scratch = names;
            }
            _ => {}
        }
        let _ = e.children(|c| {
            self.expr_patterns(c);
            ControlFlow::<()>::Continue(())
        });
    }
}

fn contains_call(e: &Expr) -> bool {
    fn search(e: &Expr) -> ControlFlow<()> {
        match &e.kind {
            ExprKind::Call(name, _) if name != "__init_list" => ControlFlow::Break(()),
            _ => e.children(search),
        }
    }
    search(e).is_break()
}

fn expr_depth(e: &Expr) -> usize {
    let mut deepest = 0;
    let _ = e.children(|c| {
        deepest = deepest.max(expr_depth(c));
        ControlFlow::<()>::Continue(())
    });
    1 + deepest
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_minic::parse;

    fn matches(trigger: Trigger, src: &str) -> bool {
        scan_facts(&parse(src).expect("parses")).matches(trigger)
    }

    #[test]
    fn figure3_ternary_identical() {
        let src = "int d, e, b, c; void bar(void) { e ? (d==0 ? b : c) : (d==0 ? b : c); }";
        assert!(matches(Trigger::TernaryIdenticalArms, src));
        let orig = "int d, e, b, c; void bar(void) { e ? (d==0 ? b : c) : (e==0 ? b : c); }";
        assert!(!matches(Trigger::TernaryIdenticalArms, orig));
    }

    #[test]
    fn figure2_alias_pattern() {
        let src = "int a = 0; int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }";
        assert!(matches(Trigger::AliasedPointerStores, src));
        let benign =
            "int a = 0, b = 0; int main() { int *p = &a, *q = &b; *p = 1; *q = 2; return a; }";
        assert!(!matches(Trigger::AliasedPointerStores, benign));
    }

    #[test]
    fn figure12b_self_indexed_array() {
        let src = "double u[100]; int a; void f() { u[a + 13 * a] = 2; }";
        assert!(matches(Trigger::SelfIndexedArray, src));
        let orig = "double u[100]; int a, b; void f() { u[a + 13 * b] = 2; }";
        assert!(!matches(Trigger::SelfIndexedArray, orig));
    }

    #[test]
    fn figure11b_goto_into_branch() {
        let src = r#"
            char a; short b;
            void fn1() {
                if (b) ;
                else {
                    l1: ;
                }
                if (a) goto l1;
            }
        "#;
        assert!(matches(Trigger::GotoIntoBranch, src));
        assert!(matches(Trigger::BackwardGoto, src));
    }

    #[test]
    fn figure11d_decl_after_label() {
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
        assert!(matches(Trigger::DeclAfterLabelWithBackGoto, src));
    }

    #[test]
    fn figure11c_decrementing_outer_loop() {
        let src = r#"
            int a; double b; double c[10];
            void fn1(int p1) {
                for (;; p1--) {
                    a = p1;
                    for (; p1 >= a; a--) b = c[0];
                }
            }
        "#;
        assert!(matches(Trigger::DecrementingOuterLoop, src));
    }

    #[test]
    fn variable_statistics() {
        assert!(matches(
            Trigger::SameVarTimes(3),
            "int a, b; void f() { b = a + a * a; }"
        ));
        assert!(!matches(
            Trigger::SameVarTimes(4),
            "int a, b; void f() { b = a + a * a; }"
        ));
        assert!(matches(
            Trigger::DistinctVars(4),
            "int a, b, c, d; void f() { a = b + c * d - a; }"
        ));
    }

    #[test]
    fn misc_triggers() {
        assert!(matches(
            Trigger::SelfAssignment,
            "int x; void f() { x = x; }"
        ));
        assert!(matches(
            Trigger::SubSelf,
            "int x, y; void f() { y = (x + 1) - (x + 1); }"
        ));
        assert!(matches(
            Trigger::DivBySelf,
            "int x, y; void f() { y = x / x; }"
        ));
        assert!(matches(
            Trigger::VariableShift,
            "int x, n; void f() { x = x << n; }"
        ));
        assert!(!matches(
            Trigger::VariableShift,
            "int x; void f() { x = x << 2; }"
        ));
        assert!(matches(
            Trigger::CommaInCall,
            "int a; void g(int x) {} void f() { g((a = 1, a)); }"
        ));
        assert!(matches(
            Trigger::UsesStruct,
            "struct s { int x; }; int main() { return 0; }"
        ));
        assert!(matches(
            Trigger::AddrOfGlobal,
            "int g; int *p; void f() { p = &g; }"
        ));
        assert!(matches(
            Trigger::CallInLoopCond,
            "int k(void) { return 0; } void f() { while (k()) ; }"
        ));
    }

    // The scan's quirks, pinned: a per-job fact plan must copy each.

    #[test]
    fn addr_of_global_reads_the_globals_declared_so_far_and_ignores_scopes() {
        // A local `g` shadows the global, yet `&g` still counts.
        assert!(matches(
            Trigger::AddrOfGlobal,
            "int g; void f() { int g = 0; int *p = &g; }"
        ));
        // A global declared after the function does not.
        assert!(!matches(
            Trigger::AddrOfGlobal,
            "void f() { int g = 0; int *p = &g; } int g;"
        ));
    }

    #[test]
    fn an_init_list_in_a_loop_condition_is_no_call() {
        let src = "int a; void f() { while (__init_list(a)) ; }";
        assert!(!matches(Trigger::CallInLoopCond, src));
        let src = "int k(int x) { return x; } int a; void f() { while (k(__init_list(a))) ; }";
        assert!(matches(Trigger::CallInLoopCond, src));
    }

    #[test]
    fn sub_self_skips_only_an_integer_literal_left_operand() {
        assert!(!matches(Trigger::SubSelf, "int y; void f() { y = 1 - 1; }"));
        assert!(matches(
            Trigger::SubSelf,
            "int y; void f() { y = 'a' - 'a'; }"
        ));
        assert!(matches(
            Trigger::DivBySelf,
            "int y; void f() { y = 1 / 1; }"
        ));
    }

    #[test]
    fn variable_statistics_count_per_expression_and_per_declarator() {
        let src = "int x; void f() { int a = x + x, b = x + x; }";
        assert!(matches(Trigger::SameVarTimes(2), src));
        assert!(!matches(Trigger::SameVarTimes(3), src));
        let src = "int x, y, z; void f() { if (x + y) z = x; }";
        assert!(matches(Trigger::DistinctVars(2), src));
        assert!(!matches(Trigger::DistinctVars(3), src));
        assert!(!matches(Trigger::SameVarTimes(3), src));
    }

    #[test]
    fn a_for_initializer_after_a_label_is_no_declaration() {
        let src = "void f() { l: for (int i = 0; i < 1; i++) ; goto l; }";
        assert!(matches(Trigger::BackwardGoto, src));
        assert!(!matches(Trigger::DeclAfterLabelWithBackGoto, src));
        let src = "void f() { l: ; int i = 0; goto l; }";
        assert!(matches(Trigger::DeclAfterLabelWithBackGoto, src));
    }

    #[test]
    fn a_store_counts_only_as_a_whole_statement_in_the_pointers_list() {
        let store = |body: &str| {
            let src = format!("int a; void f() {{ int *p = &a, *q = &a; {body} }}");
            matches(Trigger::AliasedPointerStores, &src)
        };
        assert!(store("*p = 1; *q = 2;"));
        assert!(store("*p += 1; *q = 2;"));
        // Inside a comma, an assignment, a branch or a block: no store.
        assert!(!store("*p = 1, *q = 2;"));
        assert!(!store("a = *p = 1; *q = 2;"));
        assert!(!store("if (a) *p = 1; *q = 2;"));
        assert!(!store("{ *p = 1; } *q = 2;"));
        assert!(!store("l: *p = 1; *q = 2;"));
        // The pointers must be declared in the list that stores.
        let src = "int a; void f() { int *p = &a; { int *q = &a; *p = 1; *q = 2; } }";
        assert!(!matches(Trigger::AliasedPointerStores, src));
    }

    #[test]
    fn registry_is_consistent() {
        let regs = registry();
        assert!(regs.len() >= 30, "expected a rich bug registry");
        let mut ids = std::collections::HashSet::new();
        for b in regs {
            assert!(ids.insert(b.id), "duplicate bug id {}", b.id);
            assert!(b.min_opt <= 3);
            assert!(
                b.compiler == "gcc-sim" || b.compiler == "clang-sim",
                "unknown compiler {}",
                b.compiler
            );
            if let Some(f) = b.fixed {
                assert!(f > b.introduced, "{} fixed before introduced", b.id);
            }
        }
        // The long-latent Figure 2 bug is live from gcc 4.4 to trunk.
        let b69951 = regs.iter().find(|b| b.id == "gcc-69951").expect("present");
        assert!(b69951.live_in(440));
        assert!(b69951.live_in(700));
    }

    #[test]
    fn version_gating() {
        let regs = registry();
        let lra = regs
            .iter()
            .find(|b| b.id == "gcc-lra-1281")
            .expect("present");
        assert!(lra.live_in(485));
        assert!(!lra.live_in(600), "fixed in 600");
    }
}
