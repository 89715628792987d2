//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::lexer::{lex, LexError, Pos, Tok, Token};
use std::fmt;

/// Error produced for unparsable input.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// Where the problem is.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            pos: e.pos,
        }
    }
}

/// Parses a mini-C translation unit.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors (with source position).
///
/// # Examples
///
/// ```
/// let src = "int a, b = 1; int main() { b = b - a; if (a) a = a - b; return 0; }";
/// let prog = spe_minic::parse(src).unwrap();
/// assert_eq!(prog.functions().count(), 1);
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        at: 0,
        next_occ: 0,
        next_expr: 0,
    };
    p.program()
}

const TYPE_KEYWORDS: &[&str] = &[
    "void", "char", "int", "unsigned", "long", "float", "double", "struct", "short", "signed",
];
const DECL_QUALIFIERS: &[&str] = &["static", "extern", "const", "volatile", "register"];

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    at: usize,
    next_occ: u32,
    next_expr: u32,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &Tok<'src> {
        &self.tokens[self.at].tok
    }

    fn peek2(&self) -> &Tok<'src> {
        &self.tokens[(self.at + 1).min(self.tokens.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    /// Moves past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            pos: self.pos(),
        })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if *s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if *s == kw)
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match *self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn new_occ(&mut self) -> OccId {
        let id = OccId(self.next_occ);
        self.next_occ += 1;
        id
    }

    fn new_expr(&mut self, kind: ExprKind) -> Expr {
        let id = ExprId(self.next_expr);
        self.next_expr += 1;
        Expr { id, kind }
    }

    // ----- program structure ---------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            items.push(self.item()?);
        }
        Ok(Program {
            items,
            max_occ: self.next_occ,
            max_expr: self.next_expr,
        })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        let is_static = self.skip_qualifiers();
        // struct definition?
        if self.peek_keyword("struct") && matches!(self.peek2(), Tok::Ident(_)) {
            let save = self.at;
            self.bump(); // struct
            let name = self.expect_ident()?;
            if self.eat_punct("{") {
                let mut fields = Vec::new();
                while !self.eat_punct("}") {
                    let base = self.type_base()?;
                    loop {
                        let d = self.declarator(&base)?;
                        fields.push(d);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(";")?;
                }
                self.expect_punct(";")?;
                return Ok(Item::Struct(StructDef { name, fields }));
            }
            self.at = save;
        }
        let base = self.type_base()?;
        // Peek the first declarator to decide function vs. global.
        let save = self.at;
        let mut pointers = 0u8;
        while self.eat_punct("*") {
            pointers += 1;
        }
        let name = self.expect_ident()?;
        if matches!(self.peek(), Tok::Punct("(")) {
            let mut ret = base;
            ret.pointers += pointers;
            return Ok(Item::Func(self.function(name, ret, is_static)?));
        }
        self.at = save;
        let mut decls = Vec::new();
        loop {
            let mut d = self.declarator(&base)?;
            self.skip_attributes();
            if self.eat_punct("=") {
                d.init = Some(self.initializer()?);
            }
            decls.push(d);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        Ok(Item::Global(decls))
    }

    fn skip_qualifiers(&mut self) -> bool {
        let mut is_static = false;
        loop {
            if self.peek_keyword("static") {
                is_static = true;
                self.bump();
            } else if DECL_QUALIFIERS.iter().any(|q| self.peek_keyword(q)) {
                self.bump();
            } else {
                break;
            }
        }
        is_static
    }

    /// Skips GNU `__attribute__ ((…))` annotations (e.g. Figure 2's alias
    /// attribute); they are not represented in the AST.
    fn skip_attributes(&mut self) {
        while self.peek_keyword("__attribute__") {
            self.bump();
            if self.eat_punct("(") {
                let mut depth = 1;
                while depth > 0 && !matches!(self.peek(), Tok::Eof) {
                    if self.eat_punct("(") {
                        depth += 1;
                    } else if self.eat_punct(")") {
                        depth -= 1;
                    } else {
                        self.bump();
                    }
                }
            }
        }
    }

    fn type_base(&mut self) -> Result<Type, ParseError> {
        self.skip_qualifiers();
        let base = if self.eat_keyword("void") {
            BaseType::Void
        } else if self.eat_keyword("char") {
            BaseType::Char
        } else if self.eat_keyword("float") {
            BaseType::Float
        } else if self.eat_keyword("double") {
            BaseType::Double
        } else if self.eat_keyword("unsigned") {
            self.eat_keyword("int");
            self.eat_keyword("long");
            self.eat_keyword("char");
            BaseType::UInt
        } else if self.eat_keyword("signed") || self.eat_keyword("short") {
            self.eat_keyword("int");
            BaseType::Int
        } else if self.eat_keyword("long") {
            self.eat_keyword("long");
            self.eat_keyword("int");
            BaseType::Long
        } else if self.eat_keyword("int") {
            BaseType::Int
        } else if self.eat_keyword("struct") {
            BaseType::Struct(self.expect_ident()?)
        } else {
            return self.err(format!("expected type, found {}", self.peek()));
        };
        Ok(Type {
            base,
            pointers: 0,
            array: None,
        })
    }

    fn declarator(&mut self, base: &Type) -> Result<VarDeclarator, ParseError> {
        let mut ty = base.clone();
        while self.eat_punct("*") {
            ty.pointers += 1;
        }
        let name = self.expect_ident()?;
        if self.eat_punct("[") {
            let len = match self.peek() {
                Tok::Int(v) => {
                    let v = *v;
                    self.bump();
                    v as u64
                }
                Tok::Punct("]") => 0,
                other => return self.err(format!("expected array length, found {other}")),
            };
            self.expect_punct("]")?;
            ty.array = Some(len);
        }
        Ok(VarDeclarator {
            name,
            ty,
            init: None,
        })
    }

    fn initializer(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("{") {
            // Brace initializer: represent as a call to the pseudo
            // function `__init_list` so it round-trips through printing.
            let mut items = Vec::new();
            if !self.eat_punct("}") {
                loop {
                    items.push(self.initializer()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct("}")?;
            }
            Ok(self.new_expr(ExprKind::Call("__init_list".into(), items)))
        } else {
            self.assign_expr()
        }
    }

    fn function(
        &mut self,
        name: String,
        ret: Type,
        is_static: bool,
    ) -> Result<Function, ParseError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            if self.peek_keyword("void") && matches!(self.peek2(), Tok::Punct(")")) {
                self.bump();
                self.expect_punct(")")?;
            } else {
                loop {
                    let base = self.type_base()?;
                    let d = self.declarator(&base)?;
                    params.push(Param {
                        name: d.name,
                        ty: d.ty,
                    });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")")?;
            }
        }
        self.skip_attributes();
        self.expect_punct("{")?;
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            body.push(self.stmt()?);
        }
        Ok(Function {
            name,
            ret,
            params,
            body,
            is_static,
        })
    }

    // ----- statements ------------------------------------------------------

    fn starts_decl(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => TYPE_KEYWORDS.contains(s) || DECL_QUALIFIERS.contains(s),
            _ => false,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        // Label?
        if let (&Tok::Ident(name), Tok::Punct(":")) = (self.peek(), self.peek2()) {
            if !TYPE_KEYWORDS.contains(&name) && !is_stmt_keyword(name) {
                self.bump();
                self.bump();
                let inner = self.stmt()?;
                return Ok(Stmt::Label(name.to_string(), Box::new(inner)));
            }
        }
        if self.eat_punct("{") {
            let mut body = Vec::new();
            while !self.eat_punct("}") {
                body.push(self.stmt()?);
            }
            return Ok(Stmt::Block(body));
        }
        if self.eat_punct(";") {
            return Ok(Stmt::Empty);
        }
        if self.peek_keyword("if") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then = Box::new(self.stmt()?);
            let els = if self.eat_keyword("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If(cond, then, els));
        }
        if self.peek_keyword("while") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            return Ok(Stmt::While(cond, Box::new(self.stmt()?)));
        }
        if self.peek_keyword("do") {
            self.bump();
            let body = Box::new(self.stmt()?);
            if !self.eat_keyword("while") {
                return self.err("expected `while` after do-body");
            }
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::DoWhile(body, cond));
        }
        if self.peek_keyword("for") {
            self.bump();
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else if self.starts_decl() {
                let decls = self.local_decl()?;
                Some(ForInit::Decl(decls))
            } else {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Some(ForInit::Expr(e))
            };
            let cond = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            let step = if matches!(self.peek(), Tok::Punct(")")) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(")")?;
            return Ok(Stmt::For(init, cond, step, Box::new(self.stmt()?)));
        }
        if self.peek_keyword("return") {
            self.bump();
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.peek_keyword("break") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt::Break);
        }
        if self.peek_keyword("continue") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt::Continue);
        }
        if self.peek_keyword("goto") {
            self.bump();
            let label = self.expect_ident()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Goto(label));
        }
        if self.starts_decl() {
            let decls = self.local_decl()?;
            return Ok(Stmt::Decl(decls));
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Expr(e))
    }

    fn local_decl(&mut self) -> Result<Vec<VarDeclarator>, ParseError> {
        let base = self.type_base()?;
        let mut decls = Vec::new();
        loop {
            let mut d = self.declarator(&base)?;
            self.skip_attributes();
            if self.eat_punct("=") {
                d.init = Some(self.initializer()?);
            }
            decls.push(d);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        Ok(decls)
    }

    // ----- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.assign_expr()?;
        while self.eat_punct(",") {
            let rhs = self.assign_expr()?;
            e = self.new_expr(ExprKind::Comma(Box::new(e), Box::new(rhs)));
        }
        Ok(e)
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Tok::Punct("=") => Some(AssignOp::Assign),
            Tok::Punct("+=") => Some(AssignOp::Add),
            Tok::Punct("-=") => Some(AssignOp::Sub),
            Tok::Punct("*=") => Some(AssignOp::Mul),
            Tok::Punct("/=") => Some(AssignOp::Div),
            Tok::Punct("%=") => Some(AssignOp::Rem),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.assign_expr()?;
            Ok(self.new_expr(ExprKind::Assign(op, Box::new(lhs), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let then = self.expr()?;
            self.expect_punct(":")?;
            let els = self.assign_expr()?;
            Ok(self.new_expr(ExprKind::Ternary(
                Box::new(cond),
                Box::new(then),
                Box::new(els),
            )))
        } else {
            Ok(cond)
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("||") => BinaryOp::LogOr,
                Tok::Punct("&&") => BinaryOp::LogAnd,
                Tok::Punct("|") => BinaryOp::BitOr,
                Tok::Punct("^") => BinaryOp::BitXor,
                Tok::Punct("&") => BinaryOp::BitAnd,
                Tok::Punct("==") => BinaryOp::Eq,
                Tok::Punct("!=") => BinaryOp::Ne,
                Tok::Punct("<") => BinaryOp::Lt,
                Tok::Punct(">") => BinaryOp::Gt,
                Tok::Punct("<=") => BinaryOp::Le,
                Tok::Punct(">=") => BinaryOp::Ge,
                Tok::Punct("<<") => BinaryOp::Shl,
                Tok::Punct(">>") => BinaryOp::Shr,
                Tok::Punct("+") => BinaryOp::Add,
                Tok::Punct("-") => BinaryOp::Sub,
                Tok::Punct("*") => BinaryOp::Mul,
                Tok::Punct("/") => BinaryOp::Div,
                Tok::Punct("%") => BinaryOp::Rem,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = self.new_expr(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn is_type_start(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s) if TYPE_KEYWORDS.contains(s))
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Tok::Punct("-") => Some(UnaryOp::Neg),
            Tok::Punct("!") => Some(UnaryOp::Not),
            Tok::Punct("~") => Some(UnaryOp::BitNot),
            Tok::Punct("*") => Some(UnaryOp::Deref),
            Tok::Punct("&") => Some(UnaryOp::Addr),
            Tok::Punct("++") => Some(UnaryOp::PreInc),
            Tok::Punct("--") => Some(UnaryOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary()?;
            return Ok(self.new_expr(ExprKind::Unary(op, Box::new(e))));
        }
        // Cast: '(' type … ')'.
        if matches!(self.peek(), Tok::Punct("(")) {
            let save = self.at;
            self.bump();
            if self.is_type_start() {
                if let Ok(mut ty) = self.type_base() {
                    while self.eat_punct("*") {
                        ty.pointers += 1;
                    }
                    if self.eat_punct(")") {
                        let e = self.unary()?;
                        return Ok(self.new_expr(ExprKind::Cast(ty, Box::new(e))));
                    }
                }
            }
            self.at = save;
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = self.new_expr(ExprKind::Index(Box::new(e), Box::new(idx)));
            } else if self.eat_punct(".") {
                let field = self.expect_ident()?;
                e = self.new_expr(ExprKind::Member(Box::new(e), field, false));
            } else if self.eat_punct("->") {
                let field = self.expect_ident()?;
                e = self.new_expr(ExprKind::Member(Box::new(e), field, true));
            } else if self.eat_punct("++") {
                e = self.new_expr(ExprKind::Post(PostOp::Inc, Box::new(e)));
            } else if self.eat_punct("--") {
                e = self.new_expr(ExprKind::Post(PostOp::Dec, Box::new(e)));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(self.new_expr(ExprKind::IntLit(v)))
            }
            Tok::Char(c) => {
                self.bump();
                Ok(self.new_expr(ExprKind::CharLit(c)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(self.new_expr(ExprKind::StrLit(s.to_string())))
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if matches!(self.peek(), Tok::Punct("(")) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.assign_expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        self.expect_punct(")")?;
                    }
                    Ok(self.new_expr(ExprKind::Call(name.to_string(), args)))
                } else {
                    let occ = self.new_occ();
                    Ok(self.new_expr(ExprKind::Ident(Ident {
                        name: name.to_string(),
                        occ,
                    })))
                }
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

fn is_stmt_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else" | "while" | "do" | "for" | "return" | "break" | "continue" | "goto"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure1() {
        let src = "int main() { int a, b = 1; b = b - a; if (a) a = a - b; return 0; }";
        let p = parse(src).expect("parses");
        let f = p.function("main").expect("has main");
        assert_eq!(f.body.len(), 4);
        // Occurrences: b, b, a (stmt 2), a (cond), a, a, b (assign) = 7.
        assert_eq!(p.max_occ, 7);
    }

    #[test]
    fn parses_paper_figure2() {
        let src = r#"
            int a = 0;
            extern int b __attribute__ ((alias ("a")));
            int main() {
                int *p = &a, *q = &b;
                *p = 1;
                *q = 2;
                return a;
            }
        "#;
        let p = parse(src).expect("parses");
        assert_eq!(p.functions().count(), 1);
        assert_eq!(p.items.len(), 3);
    }

    #[test]
    fn parses_paper_figure3_nested_ternaries() {
        let src = r#"
            struct s { char c[1]; };
            struct s a, b, c;
            int d; int e;
            void bar(void) {
                e ? (d==0 ? b : c).c : (d==0 ? b : c).c;
            }
        "#;
        let p = parse(src).expect("parses");
        assert!(p.struct_def("s").is_some());
        let f = p.function("bar").expect("has bar");
        assert_eq!(f.params.len(), 0);
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn parses_goto_and_labels() {
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
        let p = parse(src).expect("parses");
        let f = p.function("main").expect("main");
        assert!(f
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Label(l, _) if l == "trick")));
        assert!(f
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Goto(l) if l == "trick")));
    }

    #[test]
    fn parses_for_loops_with_decls() {
        let src = "void f(int p1) { for (int i = 0; i < 10; i++) p1 += i; for (;; p1--) break; }";
        let p = parse(src).expect("parses");
        let f = p.function("f").expect("f");
        assert_eq!(f.body.len(), 2);
        match &f.body[0] {
            Stmt::For(Some(ForInit::Decl(d)), Some(_), Some(_), _) => {
                assert_eq!(d[0].name, "i");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &f.body[1] {
            Stmt::For(None, None, Some(_), _) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_arrays_pointers_and_indexing() {
        let src = "double u[1782225]; int a; void foo(int *p1) { u[1336 * a] *= 2; *p1 = a; }";
        let p = parse(src).expect("parses");
        match &p.items[0] {
            Item::Global(ds) => {
                assert_eq!(ds[0].ty.array, Some(1782225));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_casts_and_calls() {
        let src = "int main() { int x = (int) foo(1, 2); printf(\"%d\", x); return x; }";
        let p = parse(src).expect("parses");
        assert_eq!(p.functions().count(), 1);
    }

    #[test]
    fn parses_do_while_and_switchless_control() {
        let src = "int main() { int i = 0; do { i++; } while (i < 3); return i; }";
        let p = parse(src).expect("parses");
        let f = p.function("main").expect("main");
        assert!(f.body.iter().any(|s| matches!(s, Stmt::DoWhile(_, _))));
    }

    #[test]
    fn occurrence_ids_are_dense_and_unique() {
        let src = "int a, b; int main() { a = b + a; return b; }";
        let p = parse(src).expect("parses");
        let mut seen = Vec::new();
        for f in p.functions() {
            for s in &f.body {
                collect_occs(s, &mut seen);
            }
        }
        let mut ids: Vec<u32> = seen.iter().map(|o| o.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(p.max_occ, 4);
    }

    fn collect_occs(s: &Stmt, out: &mut Vec<OccId>) {
        let mut push = |e: &Expr| {
            e.for_each_ident(&mut |id| out.push(id.occ));
        };
        match s {
            Stmt::Expr(e) => push(e),
            Stmt::Return(Some(e)) => push(e),
            Stmt::If(c, t, e) => {
                push(c);
                collect_occs(t, out);
                if let Some(e) = e {
                    collect_occs(e, out);
                }
            }
            Stmt::Block(b) => {
                for s in b {
                    collect_occs(s, out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("int main() { return 0 }").is_err()); // missing ;
        assert!(parse("int 3x;").is_err());
        assert!(parse("int main() { if }").is_err());
    }

    #[test]
    fn brace_initializers_become_init_list() {
        let src = "int c[1] = {0}; union_free_check: ;";
        // Labels are statement-level; this source is invalid at top level,
        // so only test the declaration part.
        let p = parse("int c[2] = {0, 1};").expect("parses");
        match &p.items[0] {
            Item::Global(ds) => match &ds[0].init {
                Some(Expr {
                    kind: ExprKind::Call(name, args),
                    ..
                }) => {
                    assert_eq!(name, "__init_list");
                    assert_eq!(args.len(), 2);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        let _ = src;
    }

    #[test]
    fn comma_expressions() {
        let p = parse("int a, b; void f() { a = 1, b = 2; }").expect("parses");
        let f = p.function("f").expect("f");
        assert!(matches!(
            &f.body[0],
            Stmt::Expr(Expr {
                kind: ExprKind::Comma(_, _),
                ..
            })
        ));
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("int a, b, c; void f() { a = b + c * a; }").expect("parses");
        let f = p.function("f").expect("f");
        match &f.body[0] {
            Stmt::Expr(Expr {
                kind: ExprKind::Assign(_, _, rhs),
                ..
            }) => match &rhs.kind {
                ExprKind::Binary(BinaryOp::Add, _, r) => {
                    assert!(matches!(r.kind, ExprKind::Binary(BinaryOp::Mul, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
