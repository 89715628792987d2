//! Abstract syntax tree for the mini-C language.
//!
//! The subset covers everything appearing in the SPE paper's figures:
//! global/local declarations with initializers, pointers, arrays, structs,
//! functions, `if`/`while`/`for`/`do`/`goto`/labels, the conditional
//! operator, calls, and compound assignment. Every *use* of a variable is
//! an [`ExprKind::Ident`] carrying a unique [`OccId`] — the raw material
//! for skeleton extraction.
//!
//! # One enumeration of a node's children
//!
//! Which children a node has, and in what order, is decided here and
//! nowhere else. [`Expr::children`] calls a visitor on an expression's
//! direct sub-expressions in evaluation order; [`Stmt::children`] calls
//! it on a statement's direct children in source order, each a
//! [`Node`]: a sub-statement or an expression (a condition, step, value
//! or declarator initializer). The visitor returns a [`ControlFlow`]: a
//! `Break` stops the enumeration and is returned, so a search or a
//! check that fails stops at its first hit. Each has a `_mut` twin with
//! the same order, and each pair is generated from one exhaustive
//! `match` with no wildcard arm, so a new node kind breaks the build in
//! this module and nowhere else. A walk that only descends — the
//! variable-use visitors below, sema's expression resolver, the
//! trigger-fact scan, the coverage probe, the pass pipeline's analyses,
//! the reducer and the mutation baseline — keeps its per-kind logic and
//! leaves the descent to these enumerations. Walks whose per-kind logic
//! *is* the behaviour (the printer, the parser, tree comparison, the
//! interpreter, rewrites that skip store targets) keep their own
//! `match`.
//!
//! # Refreshing a copy in place
//!
//! Every node type's `clone` copies each field, as `#[derive(Clone)]`
//! would. Its `clone_from` clones each field from its counterpart
//! instead, down to the leaves, so wherever the two trees have the same
//! shape the target keeps its boxes, strings and vectors and only
//! overwrites their contents; where a variant or a length differs, that
//! subtree is cloned afresh. A caller that rewrites one private copy of
//! a tree many times refreshes it with `copy.clone_from(&original)`
//! instead of dropping it and cloning a new one.

use std::fmt;
use std::ops::ControlFlow;

/// Unique id of a variable occurrence (use site), assigned by the parser
/// in source order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OccId(pub u32);

/// Unique id of an expression node, assigned by the parser in source
/// order. Used by the compiler under test for coverage accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Base (non-derived) types of mini-C.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BaseType {
    /// `void` (function returns only).
    Void,
    /// `char`.
    Char,
    /// `int`.
    Int,
    /// `unsigned` / `unsigned int`.
    UInt,
    /// `long` / `long int` / `long long`.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// `struct <name>`.
    Struct(String),
}

impl BaseType {
    /// The keyword that spells this base type; a struct's tag follows
    /// its `struct` keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            BaseType::Void => "void",
            BaseType::Char => "char",
            BaseType::Int => "int",
            BaseType::UInt => "unsigned",
            BaseType::Long => "long",
            BaseType::Float => "float",
            BaseType::Double => "double",
            BaseType::Struct(_) => "struct",
        }
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())?;
        if let BaseType::Struct(n) = self {
            write!(f, " {n}")?;
        }
        Ok(())
    }
}

/// A (possibly derived) mini-C type: base type, pointer depth and an
/// optional outermost array dimension.
///
/// ```
/// use spe_minic::ast::{BaseType, Type};
/// let t = Type { base: BaseType::Int, pointers: 1, array: Some(4) };
/// assert_eq!(t.to_string(), "int *[4]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Type {
    /// The base type.
    pub base: BaseType,
    /// Number of `*`s.
    pub pointers: u8,
    /// Array length for `T x[N]`.
    pub array: Option<u64>,
}

impl Type {
    /// A plain scalar of the given base type.
    pub fn scalar(base: BaseType) -> Type {
        Type {
            base,
            pointers: 0,
            array: None,
        }
    }

    /// Plain `int`.
    pub fn int() -> Type {
        Type::scalar(BaseType::Int)
    }

    /// Whether two types are interchangeable for compact α-renaming
    /// (§3.2.2): identical base, pointer depth and array-ness. Array
    /// lengths must match as well — swapping differently-sized arrays
    /// changes semantics.
    pub fn renaming_compatible(&self, other: &Type) -> bool {
        self == other
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        if self.pointers > 0 {
            write!(f, " {}", "*".repeat(self.pointers as usize))?;
        }
        if let Some(n) = self.array {
            write!(f, "[{n}]")?;
        }
        Ok(())
    }
}

/// Unary prefix operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*p`
    Deref,
    /// `&x`
    Addr,
    /// `++x`
    PreInc,
    /// `--x`
    PreDec,
}

impl UnaryOp {
    /// Source form of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::Deref => "*",
            UnaryOp::Addr => "&",
            UnaryOp::PreInc => "++",
            UnaryOp::PreDec => "--",
        }
    }
}

/// Postfix `++`/`--`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostOp {
    /// `x++`
    Inc,
    /// `x--`
    Dec,
}

impl PostOp {
    /// Source form of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            PostOp::Inc => "++",
            PostOp::Dec => "--",
        }
    }
}

/// Binary operators in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `||`
    LogOr,
    /// `&&`
    LogAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&`
    BitAnd,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
}

impl BinaryOp {
    /// Source form of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::LogOr => "||",
            BinaryOp::LogAnd => "&&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::BitAnd => "&",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Gt => ">",
            BinaryOp::Le => "<=",
            BinaryOp::Ge => ">=",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
        }
    }

    /// Precedence level; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::LogOr => 1,
            BinaryOp::LogAnd => 2,
            BinaryOp::BitOr => 3,
            BinaryOp::BitXor => 4,
            BinaryOp::BitAnd => 5,
            BinaryOp::Eq | BinaryOp::Ne => 6,
            BinaryOp::Lt | BinaryOp::Gt | BinaryOp::Le | BinaryOp::Ge => 7,
            BinaryOp::Shl | BinaryOp::Shr => 8,
            BinaryOp::Add | BinaryOp::Sub => 9,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => 10,
        }
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
}

impl AssignOp {
    /// Source form of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
        }
    }

    /// The compound operator's underlying binary operation, if any.
    pub fn binary(self) -> Option<BinaryOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::Add => Some(BinaryOp::Add),
            AssignOp::Sub => Some(BinaryOp::Sub),
            AssignOp::Mul => Some(BinaryOp::Mul),
            AssignOp::Div => Some(BinaryOp::Div),
            AssignOp::Rem => Some(BinaryOp::Rem),
        }
    }
}

/// A variable use site: the name as written plus its occurrence id.
#[derive(Debug, PartialEq, Eq)]
pub struct Ident {
    /// Source name.
    pub name: String,
    /// Unique occurrence id (a hole candidate).
    pub occ: OccId,
}

/// An expression node.
#[derive(Debug, PartialEq)]
pub struct Expr {
    /// Unique node id.
    pub id: ExprId,
    /// The expression's form.
    pub kind: ExprKind,
}

/// Expression forms.
#[derive(Debug, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Character literal (stored as its code point).
    CharLit(u8),
    /// String literal (escaped form without quotes).
    StrLit(String),
    /// Variable use.
    Ident(Ident),
    /// Prefix unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Postfix `++`/`--`.
    Post(PostOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Assignment (left-hand side must be an lvalue).
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// `c ? t : e`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Direct function call.
    Call(String, Vec<Expr>),
    /// `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `s.f` (`arrow = false`) or `p->f` (`arrow = true`).
    Member(Box<Expr>, String, bool),
    /// `(T) e`.
    Cast(Type, Box<Expr>),
    /// Comma expression `a, b`.
    Comma(Box<Expr>, Box<Expr>),
}

/// The one enumeration of an expression's direct sub-expressions, for
/// [`Expr::children`] and [`Expr::children_mut`].
macro_rules! expr_children {
    ($kind:expr, $f:ident) => {
        match $kind {
            ExprKind::IntLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Ident(_) => ControlFlow::Continue(()),
            ExprKind::Unary(_, a)
            | ExprKind::Post(_, a)
            | ExprKind::Cast(_, a)
            | ExprKind::Member(a, _, _) => $f(a),
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign(_, a, b)
            | ExprKind::Index(a, b)
            | ExprKind::Comma(a, b) => {
                $f(a)?;
                $f(b)
            }
            ExprKind::Ternary(c, t, e) => {
                $f(c)?;
                $f(t)?;
                $f(e)
            }
            ExprKind::Call(_, args) => args.into_iter().try_for_each($f),
        }
    };
}

impl Expr {
    /// Calls `f` on each direct sub-expression in evaluation order: the
    /// operand of a unary, postfix, cast or member expression; `a, b` of
    /// a binary, assignment, index or comma expression; `c, t, e` of a
    /// ternary; a call's arguments; none for literals and identifiers.
    /// The first `Break` that `f` returns ends the visit and is returned.
    #[inline]
    pub fn children<'a, B>(
        &'a self,
        mut f: impl FnMut(&'a Expr) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        expr_children!(&self.kind, f)
    }

    /// Mutable counterpart of [`Expr::children`], in the same order.
    #[inline]
    pub fn children_mut<'a, B>(
        &'a mut self,
        mut f: impl FnMut(&'a mut Expr) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        expr_children!(&mut self.kind, f)
    }

    /// Visits every variable use site in evaluation order.
    pub fn for_each_ident<'a, F: FnMut(&'a Ident)>(&'a self, f: &mut F) {
        if let ExprKind::Ident(id) = &self.kind {
            return f(id);
        }
        let _ = self.children(|c| {
            c.for_each_ident(f);
            ControlFlow::<()>::Continue(())
        });
    }

    /// Mutable counterpart of [`Expr::for_each_ident`]: visits every
    /// variable use site in evaluation order with mutable access, so a
    /// caller can rewrite the spelled name in place (the splice seam of
    /// the incremental oracle).
    pub fn for_each_ident_mut<F: FnMut(&mut Ident)>(&mut self, f: &mut F) {
        if let ExprKind::Ident(id) = &mut self.kind {
            return f(id);
        }
        let _ = self.children_mut(|c| {
            c.for_each_ident_mut(f);
            ControlFlow::<()>::Continue(())
        });
    }
}

impl Clone for ExprKind {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            ExprKind::IntLit(v) => ExprKind::IntLit(*v),
            ExprKind::CharLit(c) => ExprKind::CharLit(*c),
            ExprKind::StrLit(s) => ExprKind::StrLit(s.clone()),
            ExprKind::Ident(id) => ExprKind::Ident(id.clone()),
            ExprKind::Unary(op, a) => ExprKind::Unary(*op, a.clone()),
            ExprKind::Post(op, a) => ExprKind::Post(*op, a.clone()),
            ExprKind::Binary(op, a, b) => ExprKind::Binary(*op, a.clone(), b.clone()),
            ExprKind::Assign(op, a, b) => ExprKind::Assign(*op, a.clone(), b.clone()),
            ExprKind::Ternary(c, t, e) => ExprKind::Ternary(c.clone(), t.clone(), e.clone()),
            ExprKind::Call(name, args) => ExprKind::Call(name.clone(), args.clone()),
            ExprKind::Index(a, i) => ExprKind::Index(a.clone(), i.clone()),
            ExprKind::Member(a, field, arrow) => ExprKind::Member(a.clone(), field.clone(), *arrow),
            ExprKind::Cast(ty, a) => ExprKind::Cast(ty.clone(), a.clone()),
            ExprKind::Comma(a, b) => ExprKind::Comma(a.clone(), b.clone()),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (ExprKind::StrLit(s), ExprKind::StrLit(from)) => s.clone_from(from),
            (ExprKind::Ident(id), ExprKind::Ident(from)) => id.clone_from(from),
            (ExprKind::Unary(op, a), ExprKind::Unary(from_op, from)) => {
                *op = *from_op;
                a.clone_from(from);
            }
            (ExprKind::Post(op, a), ExprKind::Post(from_op, from)) => {
                *op = *from_op;
                a.clone_from(from);
            }
            (ExprKind::Binary(op, a, b), ExprKind::Binary(from_op, from_a, from_b)) => {
                *op = *from_op;
                a.clone_from(from_a);
                b.clone_from(from_b);
            }
            (ExprKind::Assign(op, a, b), ExprKind::Assign(from_op, from_a, from_b)) => {
                *op = *from_op;
                a.clone_from(from_a);
                b.clone_from(from_b);
            }
            (ExprKind::Ternary(c, t, e), ExprKind::Ternary(from_c, from_t, from_e)) => {
                c.clone_from(from_c);
                t.clone_from(from_t);
                e.clone_from(from_e);
            }
            (ExprKind::Call(name, args), ExprKind::Call(from_name, from_args)) => {
                name.clone_from(from_name);
                args.clone_from(from_args);
            }
            (ExprKind::Index(a, i), ExprKind::Index(from_a, from_i))
            | (ExprKind::Comma(a, i), ExprKind::Comma(from_a, from_i)) => {
                a.clone_from(from_a);
                i.clone_from(from_i);
            }
            (
                ExprKind::Member(a, field, arrow),
                ExprKind::Member(from_a, from_field, from_arrow),
            ) => {
                a.clone_from(from_a);
                field.clone_from(from_field);
                *arrow = *from_arrow;
            }
            (ExprKind::Cast(ty, a), ExprKind::Cast(from_ty, from)) => {
                ty.clone_from(from_ty);
                a.clone_from(from);
            }
            (this, source) => *this = source.clone(),
        }
    }
}

/// One declarator in a declaration: `int a = 1, *p;` has two.
#[derive(Debug, PartialEq)]
pub struct VarDeclarator {
    /// Declared name.
    pub name: String,
    /// Full type (base type of the declaration plus per-declarator
    /// pointers/array).
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// Loop initialization clause of a `for` statement.
#[derive(Debug, PartialEq)]
pub enum ForInit {
    /// `for (int i = 0; …)`.
    Decl(Vec<VarDeclarator>),
    /// `for (i = 0; …)`.
    Expr(Expr),
}

/// A statement.
#[derive(Debug, PartialEq)]
pub enum Stmt {
    /// Expression statement.
    Expr(Expr),
    /// Local declaration.
    Decl(Vec<VarDeclarator>),
    /// `{ … }` — introduces a scope.
    Block(Vec<Stmt>),
    /// `if (c) t [else e]`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while (c) body`.
    While(Expr, Box<Stmt>),
    /// `do body while (c);`.
    DoWhile(Box<Stmt>, Expr),
    /// `for (init; cond; step) body` — introduces a scope for `init`.
    For(Option<ForInit>, Option<Expr>, Option<Expr>, Box<Stmt>),
    /// `return [e];`.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `goto label;`
    Goto(String),
    /// `label: stmt`.
    Label(String, Box<Stmt>),
    /// `;`
    Empty,
}

/// A direct child of a statement: `Node<&Stmt, &Expr>` from
/// [`Stmt::children`], `Node<&mut Stmt, &mut Expr>` from
/// [`Stmt::children_mut`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node<S, E> {
    /// A sub-statement.
    Stmt(S),
    /// An expression: a condition, step, value or initializer.
    Expr(E),
}

/// The one enumeration of a statement's direct children, for
/// [`Stmt::children`] and [`Stmt::children_mut`].
macro_rules! stmt_children {
    ($stmt:expr, $f:ident) => {
        match $stmt {
            Stmt::Expr(e) | Stmt::Return(Some(e)) => $f(Node::Expr(e)),
            Stmt::Decl(ds) => {
                for d in ds {
                    if let VarDeclarator { init: Some(e), .. } = d {
                        $f(Node::Expr(e))?;
                    }
                }
                ControlFlow::Continue(())
            }
            Stmt::Block(b) => b.into_iter().try_for_each(|s| $f(Node::Stmt(s))),
            Stmt::If(c, t, e) => {
                $f(Node::Expr(c))?;
                $f(Node::Stmt(t))?;
                match e {
                    Some(e) => $f(Node::Stmt(e)),
                    None => ControlFlow::Continue(()),
                }
            }
            Stmt::While(c, b) => {
                $f(Node::Expr(c))?;
                $f(Node::Stmt(b))
            }
            Stmt::DoWhile(b, c) => {
                $f(Node::Stmt(b))?;
                $f(Node::Expr(c))
            }
            Stmt::For(init, c, st, b) => {
                match init {
                    Some(ForInit::Decl(ds)) => {
                        for d in ds {
                            if let VarDeclarator { init: Some(e), .. } = d {
                                $f(Node::Expr(e))?;
                            }
                        }
                    }
                    Some(ForInit::Expr(e)) => $f(Node::Expr(e))?,
                    None => {}
                }
                if let Some(c) = c {
                    $f(Node::Expr(c))?;
                }
                if let Some(st) = st {
                    $f(Node::Expr(st))?;
                }
                $f(Node::Stmt(b))
            }
            Stmt::Label(_, s) => $f(Node::Stmt(s)),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Goto(_) | Stmt::Empty => {
                ControlFlow::Continue(())
            }
        }
    };
}

impl Stmt {
    /// Calls `f` on each direct child in source order: a declaration's
    /// initializers; an `if`'s condition, then- and else-branch; a
    /// `while`'s condition, then its body; a `do`'s body, then its
    /// condition; a `for`'s initializer (declarator initializers or an
    /// expression), condition, step and body; a block's statements; a
    /// label's statement; an expression statement's expression and a
    /// `return`'s value. The first `Break` that `f` returns ends the
    /// visit and is returned.
    #[inline]
    pub fn children<'a, B>(
        &'a self,
        mut f: impl FnMut(Node<&'a Stmt, &'a Expr>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        stmt_children!(self, f)
    }

    /// Mutable counterpart of [`Stmt::children`], in the same order.
    #[inline]
    pub fn children_mut<'a, B>(
        &'a mut self,
        mut f: impl FnMut(Node<&'a mut Stmt, &'a mut Expr>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        stmt_children!(self, f)
    }

    /// Visits every variable use site under this statement in source
    /// order with mutable access (see [`Program::for_each_ident_mut`]).
    pub fn for_each_ident_mut<F: FnMut(&mut Ident)>(&mut self, f: &mut F) {
        let _ = self.children_mut(|c| {
            match c {
                Node::Stmt(s) => s.for_each_ident_mut(f),
                Node::Expr(e) => e.for_each_ident_mut(f),
            }
            ControlFlow::<()>::Continue(())
        });
    }
}

impl Clone for ForInit {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            ForInit::Decl(ds) => ForInit::Decl(ds.clone()),
            ForInit::Expr(e) => ForInit::Expr(e.clone()),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (ForInit::Decl(ds), ForInit::Decl(from)) => ds.clone_from(from),
            (ForInit::Expr(e), ForInit::Expr(from)) => e.clone_from(from),
            (this, source) => *this = source.clone(),
        }
    }
}

impl Clone for Stmt {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Stmt::Expr(e) => Stmt::Expr(e.clone()),
            Stmt::Decl(ds) => Stmt::Decl(ds.clone()),
            Stmt::Block(body) => Stmt::Block(body.clone()),
            Stmt::If(c, t, e) => Stmt::If(c.clone(), t.clone(), e.clone()),
            Stmt::While(c, b) => Stmt::While(c.clone(), b.clone()),
            Stmt::DoWhile(b, c) => Stmt::DoWhile(b.clone(), c.clone()),
            Stmt::For(init, c, step, b) => {
                Stmt::For(init.clone(), c.clone(), step.clone(), b.clone())
            }
            Stmt::Return(e) => Stmt::Return(e.clone()),
            Stmt::Break => Stmt::Break,
            Stmt::Continue => Stmt::Continue,
            Stmt::Goto(label) => Stmt::Goto(label.clone()),
            Stmt::Label(label, s) => Stmt::Label(label.clone(), s.clone()),
            Stmt::Empty => Stmt::Empty,
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Stmt::Expr(e), Stmt::Expr(from)) => e.clone_from(from),
            (Stmt::Decl(ds), Stmt::Decl(from)) => ds.clone_from(from),
            (Stmt::Block(body), Stmt::Block(from)) => body.clone_from(from),
            (Stmt::If(c, t, e), Stmt::If(from_c, from_t, from_e)) => {
                c.clone_from(from_c);
                t.clone_from(from_t);
                e.clone_from(from_e);
            }
            (Stmt::While(c, b), Stmt::While(from_c, from_b)) => {
                c.clone_from(from_c);
                b.clone_from(from_b);
            }
            (Stmt::DoWhile(b, c), Stmt::DoWhile(from_b, from_c)) => {
                b.clone_from(from_b);
                c.clone_from(from_c);
            }
            (Stmt::For(init, c, step, b), Stmt::For(from_init, from_c, from_step, from_b)) => {
                init.clone_from(from_init);
                c.clone_from(from_c);
                step.clone_from(from_step);
                b.clone_from(from_b);
            }
            (Stmt::Return(e), Stmt::Return(from)) => e.clone_from(from),
            (Stmt::Goto(label), Stmt::Goto(from)) => label.clone_from(from),
            (Stmt::Label(label, s), Stmt::Label(from_label, from)) => {
                label.clone_from(from_label);
                s.clone_from(from);
            }
            (this, source) => *this = source.clone(),
        }
    }
}

/// A function parameter.
#[derive(Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A function definition.
#[derive(Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements (the body's braces introduce the function scope).
    pub body: Vec<Stmt>,
    /// Whether declared `static`.
    pub is_static: bool,
}

/// A struct definition `struct S { … };`.
#[derive(Debug, PartialEq)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// Field declarations.
    pub fields: Vec<VarDeclarator>,
}

/// A top-level item.
#[derive(Debug, PartialEq)]
pub enum Item {
    /// Global variable declaration.
    Global(Vec<VarDeclarator>),
    /// Function definition.
    Func(Function),
    /// Struct definition.
    Struct(StructDef),
}

impl Clone for Item {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Item::Global(ds) => Item::Global(ds.clone()),
            Item::Func(f) => Item::Func(f.clone()),
            Item::Struct(s) => Item::Struct(s.clone()),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Item::Global(ds), Item::Global(from)) => ds.clone_from(from),
            (Item::Func(f), Item::Func(from)) => f.clone_from(from),
            (Item::Struct(s), Item::Struct(from)) => s.clone_from(from),
            (this, source) => *this = source.clone(),
        }
    }
}

/// A complete translation unit.
#[derive(Debug, PartialEq, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Number of occurrence ids handed out (all `OccId`s are `< max_occ`).
    pub max_occ: u32,
    /// Number of expression ids handed out.
    pub max_expr: u32,
}

impl Program {
    /// Iterates over the function definitions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match i {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }

    /// Looks up a struct definition by tag.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.items.iter().find_map(|i| match i {
            Item::Struct(s) if s.name == name => Some(s),
            _ => None,
        })
    }

    /// Visits every variable use site in the whole program — global
    /// initializers then function bodies, in source order — with
    /// mutable access. Declaration/parameter names are not use sites
    /// and are not visited.
    pub fn for_each_ident_mut<F: FnMut(&mut Ident)>(&mut self, f: &mut F) {
        for item in &mut self.items {
            match item {
                Item::Global(decls) => {
                    for d in decls {
                        if let Some(init) = &mut d.init {
                            init.for_each_ident_mut(f);
                        }
                    }
                }
                Item::Func(func) => {
                    for s in &mut func.body {
                        s.for_each_ident_mut(f);
                    }
                }
                Item::Struct(_) => {}
            }
        }
    }
}

/// `Clone` for an AST struct: `clone` copies every field, as the derive
/// does, and `clone_from` refreshes every field from its counterpart
/// (see "Refreshing a copy in place" above). The struct literal in
/// `clone` must name every field, so a field missing from the list
/// breaks the build.
macro_rules! clone_fields {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Clone for $ty {
            #[inline]
            fn clone(&self) -> Self {
                $ty { $($field: self.$field.clone()),* }
            }

            #[inline]
            fn clone_from(&mut self, source: &Self) {
                $(self.$field.clone_from(&source.$field);)*
            }
        }
    )*};
}

clone_fields! {
    Ident { name, occ }
    Expr { id, kind }
    VarDeclarator { name, ty, init }
    Param { name, ty }
    Function { name, ret, params, body, is_static }
    StructDef { name, fields }
    Program { items, max_occ, max_expr }
}
