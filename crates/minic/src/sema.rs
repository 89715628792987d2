//! Scope and symbol analysis for mini-C.
//!
//! The analysis builds a scope tree, registers every declared variable,
//! resolves every use site ([`crate::ast::OccId`]) to its declaration, and
//! answers the question skeleton extraction needs: *which variables are
//! visible (and type-compatible) at each hole?* Visibility follows C
//! rules: a variable is usable only after its declaration point, and inner
//! declarations shadow outer ones of the same name.

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;

/// Identifier of a scope in the [`SymbolTable`]'s scope tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScopeId(pub usize);

/// Identifier of a declared variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// What kind of scope a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The file-level scope.
    Global,
    /// A function's top-level scope (parameters + body); payload is the
    /// index into [`SymbolTable::functions`].
    Function(usize),
    /// A block or `for`-init scope.
    Block,
}

/// A scope tree node.
#[derive(Debug, Clone)]
pub struct Scope {
    /// This scope's id.
    pub id: ScopeId,
    /// Parent scope (`None` for the global scope).
    pub parent: Option<ScopeId>,
    /// The scope's kind.
    pub kind: ScopeKind,
    /// Variables declared directly in this scope, in declaration order.
    pub vars: Vec<VarId>,
}

/// Storage class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// File-scope variable.
    Global,
    /// Function parameter.
    Param,
    /// Block-scope variable.
    Local,
}

/// A declared variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// This variable's id.
    pub id: VarId,
    /// Declared name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Scope the declaration lives in.
    pub scope: ScopeId,
    /// Storage class.
    pub kind: VarKind,
    /// Enclosing function index, if any.
    pub func: Option<usize>,
    /// Declaration sequence number (visibility starts here).
    pub seq: u32,
}

/// A resolved variable use site.
#[derive(Debug, Clone)]
pub struct OccInfo {
    /// The occurrence id from the AST.
    pub occ: OccId,
    /// The variable it resolves to.
    pub var: VarId,
    /// The innermost scope containing the occurrence.
    pub scope: ScopeId,
    /// Enclosing function index, if any (global initializers have none).
    pub func: Option<usize>,
    /// Sequence number of the occurrence (for visibility comparisons).
    pub seq: u32,
}

/// Error produced when resolution fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaError {
    /// Explanation, including the offending name.
    pub message: String,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error: {}", self.message)
    }
}

impl std::error::Error for SemaError {}

/// The result of scope analysis.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    scopes: Vec<Scope>,
    vars: Vec<VarInfo>,
    occs: Vec<OccInfo>,
    /// `name_shared[v]`: another variable declares `v`'s name too. Only
    /// such variables can shadow or be shadowed.
    name_shared: Vec<bool>,
    functions: Vec<String>,
}

impl SymbolTable {
    /// All scopes; index 0 is the global scope.
    pub fn scopes(&self) -> &[Scope] {
        &self.scopes
    }

    /// All declared variables.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// All resolved use sites, in source order.
    pub fn occurrences(&self) -> &[OccInfo] {
        &self.occs
    }

    /// Function names, indexed by the `func` fields.
    pub fn functions(&self) -> &[String] {
        &self.functions
    }

    /// A variable's info.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0]
    }

    /// A scope's info.
    pub fn scope(&self, id: ScopeId) -> &Scope {
        &self.scopes[id.0]
    }

    /// Whether `anc` is `s` or one of its ancestors.
    pub fn is_ancestor_or_self(&self, anc: ScopeId, s: ScopeId) -> bool {
        let mut cur = Some(s);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.scopes[c.0].parent;
        }
        false
    }

    /// The variables *usable* at a given occurrence: declared before it in
    /// an enclosing scope and not shadowed by a nearer declaration of the
    /// same name at that point. This is the hole variable set `v_i` of the
    /// paper, before type filtering.
    pub fn visible_vars(&self, occ: &OccInfo) -> Vec<VarId> {
        let capacity = self.chain(occ.scope).map(|s| s.vars.len()).sum();
        let mut out: Vec<VarId> = Vec::with_capacity(capacity);
        // Innermost-first, so the first variable taken for a name is the
        // one not shadowed; within a scope, later declarations shadow
        // nothing (names are unique per scope in valid C). Only a name
        // declared more than once needs the check.
        for scope in self.chain(occ.scope) {
            for &vid in &scope.vars {
                let v = &self.vars[vid.0];
                if v.seq < occ.seq
                    && (!self.name_shared[vid.0]
                        || !out.iter().any(|o| self.vars[o.0].name == v.name))
                {
                    out.push(vid);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// [`Self::visible_vars`] filtered to variables type-compatible with
    /// the occurrence's resolved variable — the allowed set under the
    /// paper's type-aware compact α-renaming (§3.2.2).
    pub fn compatible_vars(&self, occ: &OccInfo) -> Vec<VarId> {
        let want = &self.var(occ.var).ty;
        let mut vars = self.visible_vars(occ);
        vars.retain(|&v| self.var(v).ty.renaming_compatible(want));
        vars
    }

    /// `scope` and the scopes enclosing it, innermost first.
    fn chain(&self, scope: ScopeId) -> impl Iterator<Item = &Scope> + '_ {
        std::iter::successors(Some(&self.scopes[scope.0]), |s| {
            s.parent.map(|p| &self.scopes[p.0])
        })
    }

    /// The variable `name` denotes at sequence point `seq` in `scope`:
    /// the innermost declaration of it made before that point.
    fn lookup(&self, name: &str, scope: ScopeId, seq: u32) -> Option<VarId> {
        self.chain(scope).find_map(|s| {
            s.vars.iter().copied().find(|v| {
                let v = &self.vars[v.0];
                v.name == name && v.seq < seq
            })
        })
    }
}

/// Runs scope analysis over a parsed program.
///
/// # Errors
///
/// Returns [`SemaError`] when a use site refers to an undeclared (or
/// not-yet-declared) variable, or when a function is defined twice.
///
/// # Examples
///
/// ```
/// let prog = spe_minic::parse("int a, b; void f() { int c; c = a + b; }").unwrap();
/// let table = spe_minic::analyze(&prog).unwrap();
/// assert_eq!(table.vars().len(), 3);
/// assert_eq!(table.occurrences().len(), 3); // c, a, b
/// ```
pub fn analyze(p: &Program) -> Result<SymbolTable, SemaError> {
    let mut a = Analyzer {
        table: SymbolTable {
            scopes: vec![Scope {
                id: ScopeId(0),
                parent: None,
                kind: ScopeKind::Global,
                vars: Vec::new(),
            }],
            vars: Vec::new(),
            occs: Vec::new(),
            name_shared: Vec::new(),
            functions: Vec::new(),
        },
        seq: 0,
        current_func: None,
    };
    let global = ScopeId(0);
    // Pass 1 over items in order (C requires declaration before use).
    for item in &p.items {
        match item {
            Item::Global(decls) => {
                for d in decls {
                    a.declare(d, global, VarKind::Global)?;
                }
            }
            Item::Struct(_) => {}
            Item::Func(f) => {
                // A call names its callee by spelling alone, so a second
                // body would leave it ambiguous.
                if a.table.functions.contains(&f.name) {
                    return Err(SemaError {
                        message: format!("redefinition of function `{}`", f.name),
                    });
                }
                let fidx = a.table.functions.len();
                a.table.functions.push(f.name.clone());
                a.current_func = Some(fidx);
                let fscope = a.push_scope(global, ScopeKind::Function(fidx));
                for param in &f.params {
                    a.declare_raw(&param.name, &param.ty, fscope, VarKind::Param);
                }
                for s in &f.body {
                    a.stmt(s, fscope)?;
                }
                a.current_func = None;
            }
        }
    }
    let mut table = a.table;
    table.name_shared = shared_names(&table.vars);
    Ok(table)
}

/// Flags every variable whose name another variable declares too.
fn shared_names(vars: &[VarInfo]) -> Vec<bool> {
    let mut first: HashMap<&str, usize> = HashMap::with_capacity(vars.len());
    let mut shared = vec![false; vars.len()];
    for (i, v) in vars.iter().enumerate() {
        if let Some(&j) = first.get(v.name.as_str()) {
            shared[i] = true;
            shared[j] = true;
        } else {
            first.insert(&v.name, i);
        }
    }
    shared
}

struct Analyzer {
    table: SymbolTable,
    seq: u32,
    current_func: Option<usize>,
}

impl Analyzer {
    fn push_scope(&mut self, parent: ScopeId, kind: ScopeKind) -> ScopeId {
        let id = ScopeId(self.table.scopes.len());
        self.table.scopes.push(Scope {
            id,
            parent: Some(parent),
            kind,
            vars: Vec::new(),
        });
        id
    }

    fn declare_raw(&mut self, name: &str, ty: &Type, scope: ScopeId, kind: VarKind) -> VarId {
        let id = VarId(self.table.vars.len());
        self.seq += 1;
        self.table.vars.push(VarInfo {
            id,
            name: name.to_string(),
            ty: ty.clone(),
            scope,
            kind,
            func: self.current_func,
            seq: self.seq,
        });
        self.table.scopes[scope.0].vars.push(id);
        id
    }

    fn declare(
        &mut self,
        d: &VarDeclarator,
        scope: ScopeId,
        kind: VarKind,
    ) -> Result<(), SemaError> {
        // The declared name is in scope inside its own initializer (C99
        // §6.2.1p7), so declare first.
        self.declare_raw(&d.name, &d.ty, scope, kind);
        if let Some(init) = &d.init {
            self.expr(init, scope)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, scope: ScopeId) -> Result<(), SemaError> {
        match s {
            Stmt::Expr(e) => self.expr(e, scope),
            Stmt::Decl(decls) => {
                for d in decls {
                    self.declare(d, scope, VarKind::Local)?;
                }
                Ok(())
            }
            Stmt::Block(body) => {
                let inner = self.push_scope(scope, ScopeKind::Block);
                for s in body {
                    self.stmt(s, inner)?;
                }
                Ok(())
            }
            Stmt::If(c, t, e) => {
                self.expr(c, scope)?;
                self.stmt(t, scope)?;
                if let Some(e) = e {
                    self.stmt(e, scope)?;
                }
                Ok(())
            }
            Stmt::While(c, b) => {
                self.expr(c, scope)?;
                self.stmt(b, scope)
            }
            Stmt::DoWhile(b, c) => {
                self.stmt(b, scope)?;
                self.expr(c, scope)
            }
            Stmt::For(init, cond, step, b) => {
                let inner = self.push_scope(scope, ScopeKind::Block);
                match init {
                    Some(ForInit::Decl(decls)) => {
                        for d in decls {
                            self.declare(d, inner, VarKind::Local)?;
                        }
                    }
                    Some(ForInit::Expr(e)) => self.expr(e, inner)?,
                    None => {}
                }
                if let Some(c) = cond {
                    self.expr(c, inner)?;
                }
                if let Some(st) = step {
                    self.expr(st, inner)?;
                }
                self.stmt(b, inner)
            }
            Stmt::Return(Some(e)) => self.expr(e, scope),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Goto(_) | Stmt::Empty => {
                Ok(())
            }
            Stmt::Label(_, inner) => self.stmt(inner, scope),
        }
    }

    fn expr(&mut self, e: &Expr, scope: ScopeId) -> Result<(), SemaError> {
        if let ExprKind::Ident(id) = &e.kind {
            return self.resolve(id, scope);
        }
        lvalue_operands(e)?;
        let first_error = e.children(|c| match self.expr(c, scope) {
            Ok(()) => ControlFlow::Continue(()),
            Err(err) => ControlFlow::Break(err),
        });
        first_error.break_value().map_or(Ok(()), Err)
    }

    fn resolve(&mut self, id: &Ident, scope: ScopeId) -> Result<(), SemaError> {
        self.seq += 1;
        let seq = self.seq;
        // The seq check enforces textual order.
        let var = self
            .table
            .lookup(&id.name, scope, seq)
            .ok_or_else(|| SemaError {
                message: format!("use of undeclared variable `{}`", id.name),
            })?;
        self.table.occs.push(OccInfo {
            occ: id.occ,
            var,
            scope,
            func: self.current_func,
            seq,
        });
        Ok(())
    }
}

/// Refuses the operands gcc refuses for not being lvalues: an
/// assignment, `++`/`--` or `&` needs a name, `*e`, `e[i]` or a member
/// access (`&` also takes a string literal), and `*` takes no integer or
/// character literal. `e[i]` stays: `0[a]` is C, and telling it from
/// `0[i]` on an `int` needs types.
fn lvalue_operands(e: &Expr) -> Result<(), SemaError> {
    let (operand, what) = match &e.kind {
        ExprKind::Assign(_, target, _) => (target, "left operand of assignment"),
        ExprKind::Unary(UnaryOp::PreInc, a) | ExprKind::Post(PostOp::Inc, a) => {
            (a, "increment operand")
        }
        ExprKind::Unary(UnaryOp::PreDec, a) | ExprKind::Post(PostOp::Dec, a) => {
            (a, "decrement operand")
        }
        ExprKind::Unary(UnaryOp::Addr, a) if matches!(a.kind, ExprKind::StrLit(_)) => return Ok(()),
        ExprKind::Unary(UnaryOp::Addr, a) => (a, "unary '&' operand"),
        ExprKind::Unary(UnaryOp::Deref, a)
            if matches!(a.kind, ExprKind::IntLit(_) | ExprKind::CharLit(_)) =>
        {
            return Err(SemaError {
                message: "invalid type argument of unary '*'".into(),
            });
        }
        _ => return Ok(()),
    };
    match operand.kind {
        ExprKind::Ident(_)
        | ExprKind::Unary(UnaryOp::Deref, _)
        | ExprKind::Index(..)
        | ExprKind::Member(..) => Ok(()),
        _ => Err(SemaError {
            message: format!("lvalue required as {what}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn table(src: &str) -> SymbolTable {
        analyze(&parse(src).expect("parses")).expect("analyzes")
    }

    #[test]
    fn resolves_paper_figure6() {
        let src = r#"
            int main() {
                int a = 1, b = 0;
                if (a) {
                    int c = 3, d = 5;
                    b = c + d;
                }
                printf("%d", a);
                printf("%d", b);
                return 0;
            }
        "#;
        let t = table(src);
        assert_eq!(t.vars().len(), 4);
        // Occurrences: a (if-cond), b, c, d (in block), a, b (printf) = 6.
        assert_eq!(t.occurrences().len(), 6);
        // The block occurrence of c sees all four variables; the printf
        // occurrence of a sees only a and b.
        let occ_c = &t.occurrences()[2];
        assert_eq!(t.var(occ_c.var).name, "c");
        assert_eq!(t.visible_vars(occ_c).len(), 4);
        let occ_a2 = &t.occurrences()[4];
        assert_eq!(t.var(occ_a2.var).name, "a");
        assert_eq!(t.visible_vars(occ_a2).len(), 2);
    }

    #[test]
    fn declaration_order_limits_visibility() {
        let t = table("void f() { int a; a = 1; int b; b = a; }");
        // Occurrence of `a` (index 0) must not see `b`.
        let occ_a = &t.occurrences()[0];
        let vis: Vec<&str> = t
            .visible_vars(occ_a)
            .into_iter()
            .map(|v| t.var(v).name.as_str())
            .collect::<Vec<_>>();
        assert_eq!(vis, vec!["a"]);
        // Occurrence of `a` in `b = a` sees both.
        let occ_last = &t.occurrences()[2];
        assert_eq!(t.visible_vars(occ_last).len(), 2);
    }

    #[test]
    fn shadowing_hides_outer_variable() {
        let t = table("int x; void f() { int x; x = 1; }");
        let occ = &t.occurrences()[0];
        let vis = t.visible_vars(occ);
        assert_eq!(vis.len(), 1, "outer x is shadowed");
        assert_eq!(t.var(occ.var).kind, VarKind::Local);
    }

    #[test]
    fn a_name_declared_in_two_functions_shadows_nothing() {
        let t =
            table("int g; void f() { int x; x = g; } void h() { int x; x = g; { int x; x = 1; } }");
        let names = |occ: &OccInfo| -> Vec<(String, Option<usize>)> {
            t.visible_vars(occ)
                .into_iter()
                .map(|v| (t.var(v).name.clone(), t.var(v).func))
                .collect()
        };
        let g = ("g".to_string(), None);
        // `x = g` in f, then in h: each sees its own x and the global.
        assert_eq!(
            names(&t.occurrences()[0]),
            [g.clone(), ("x".into(), Some(0))]
        );
        assert_eq!(
            names(&t.occurrences()[2]),
            [g.clone(), ("x".into(), Some(1))]
        );
        // The block's x hides h's.
        let inner = &t.occurrences()[4];
        assert_eq!(names(inner), [g, ("x".into(), Some(1))]);
        assert_eq!(t.visible_vars(inner), [VarId(0), inner.var]);
    }

    #[test]
    fn params_are_function_scope() {
        let t = table("int f(int p) { return p; }");
        let occ = &t.occurrences()[0];
        assert_eq!(t.var(occ.var).kind, VarKind::Param);
        assert_eq!(t.var(occ.var).func, Some(0));
    }

    #[test]
    fn undeclared_variable_is_an_error() {
        let p = parse("void f() { x = 1; }").expect("parses");
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn use_before_declaration_is_an_error() {
        let p = parse("void f() { x = 1; int x; }").expect("parses");
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn a_function_defined_twice_is_an_error() {
        // The reference interpreter would call the first `f` and the VM
        // the last, so the program has no single meaning.
        let p =
            parse("int f(){return 1;} int f(){return 2;} int main(){return f();}").expect("parses");
        let err = analyze(&p).expect_err("a second body of `f` is refused");
        assert!(err.message.contains("`f`"), "{err}");
        // One definition per name is fine, whatever the order.
        table("int g(){return 1;} int f(){return g();} int main(){return f();}");
    }

    fn refused(src: &str) -> String {
        let p = parse(src).expect("parses");
        analyze(&p).expect_err("refused").message
    }

    #[test]
    fn assigning_to_a_literal_is_an_error() {
        let m = refused("int main() { int a = 1; 0 = a; return 0; }");
        assert_eq!(m, "lvalue required as left operand of assignment");
    }

    #[test]
    fn incrementing_a_literal_is_an_error() {
        let m = refused("int main() { 0++; return 0; }");
        assert_eq!(m, "lvalue required as increment operand");
        let m = refused("int main() { --0; return 0; }");
        assert_eq!(m, "lvalue required as decrement operand");
    }

    #[test]
    fn the_address_of_a_literal_is_an_error() {
        let m = refused("int main() { int *p = &0; return 0; }");
        assert_eq!(m, "lvalue required as unary '&' operand");
    }

    #[test]
    fn assigning_to_a_sum_is_an_error() {
        let m = refused("int main() { int a = 1; (a + 1) = 2; return 0; }");
        assert_eq!(m, "lvalue required as left operand of assignment");
    }

    #[test]
    fn dereferencing_a_literal_is_an_error() {
        let m = refused("int main() { *0 = 1; return 0; }");
        assert_eq!(m, "invalid type argument of unary '*'");
    }

    #[test]
    fn every_lvalue_form_is_accepted() {
        table(
            "struct s { int x; }; struct s t; int u[4]; int main() { int a = 0; int *p = &a; \
             a = 1; a++; --a; *p = 2; (*p)++; u[a] = 3; 0[u] = 4; u[1] += 5; t.x = 6; \
             p = &u[2]; p = &*p; p = &a; return &\"s\" != 0; }",
        );
    }

    #[test]
    fn self_referential_initializer_resolves() {
        let t = table("void f() { int a = a; }");
        assert_eq!(t.occurrences().len(), 1);
        assert_eq!(t.var(t.occurrences()[0].var).name, "a");
    }

    #[test]
    fn for_init_declares_into_loop_scope() {
        let t = table("void f() { for (int i = 0; i < 3; i++) { int j = i; } }");
        // i is not visible after the loop; check scope kinds.
        let i_var = t.vars().iter().find(|v| v.name == "i").expect("i exists");
        assert_eq!(t.scope(i_var.scope).kind, ScopeKind::Block);
    }

    #[test]
    fn type_compatibility_filters_allowed_sets() {
        let t = table("int a; double d; void f() { a = 1; d = 2; }");
        let occ_a = &t.occurrences()[0];
        let compat: Vec<&str> = t
            .compatible_vars(occ_a)
            .into_iter()
            .map(|v| t.var(v).name.as_str())
            .collect();
        assert_eq!(compat, vec!["a"], "double is not int-compatible");
    }

    #[test]
    fn pointers_are_not_compatible_with_scalars() {
        let t = table("int a; int *p; void f() { a = *p; }");
        let occ_a = &t.occurrences()[0];
        assert_eq!(t.compatible_vars(occ_a).len(), 1);
        let occ_p = &t.occurrences()[1];
        assert_eq!(t.compatible_vars(occ_p).len(), 1);
    }

    #[test]
    fn globals_visible_in_all_functions() {
        let t = table("int g; void f() { g = 1; } void h() { g = 2; }");
        assert_eq!(t.occurrences().len(), 2);
        for occ in t.occurrences() {
            assert_eq!(t.var(occ.var).kind, VarKind::Global);
        }
        assert_eq!(t.functions(), &["f".to_string(), "h".to_string()]);
    }

    #[test]
    fn ancestor_relation() {
        let t = table("void f() { { int a; a = 1; } }");
        let occ = &t.occurrences()[0];
        assert!(t.is_ancestor_or_self(ScopeId(0), occ.scope));
        assert!(t.is_ancestor_or_self(occ.scope, occ.scope));
        assert!(!t.is_ancestor_or_self(occ.scope, ScopeId(0)));
    }
}
