//! Recursive-descent parser for the AlgST surface language.
//!
//! The concrete syntax follows the paper's examples (Haskell-flavoured):
//!
//! ```text
//! protocol Arith = Neg Int -Int | Add Int Int -Int
//! type Service a = forall (s:S). ?a.s -> s
//!
//! serveArith : forall (s:S). ?Arith.s -> s
//! serveArith [s] c = match c with {
//!   Neg c -> let (x, c) = receive [Int, !Int.s] c in
//!            send [Int, s] (0 - x) c,
//!   Add c -> let (x, c) = receive [Int, ?Int.!Int.s] c in
//!            let (y, c) = receive [Int, !Int.s] c in
//!            send [Int, s] (x + y) c }
//! ```
//!
//! **Layout rule:** a top-level declaration starts at column 1; any token
//! at column 1 terminates the expression or type being parsed. This
//! replaces Haskell's layout algorithm with the one convention the paper's
//! examples already follow. A standalone type ([`parse_type`],
//! [`build_type`]) has no declarations to separate, so the rule does not
//! apply to it.
//!
//! The type productions are generic over a [`TypeBuilder`], so the one
//! grammar yields [`SType`] trees for the checker and, in the server,
//! hash-consed store ids with no tree in between.

use crate::ast::*;
use crate::lexer::{LexError, Lexer};
use crate::span::Span;
use crate::token::{Tok, Token};
use algst_core::expr::Lit;
use algst_core::kind::Kind;
use algst_core::symbol::Symbol;
use std::fmt;

/// A parse error with location information.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// One type production, its children already built.
pub enum TypeNode<T> {
    Unit,
    /// `N T₁ … Tₙ` for an uppercase name `N` other than `Unit`; the
    /// arguments may be empty.
    Name(Symbol, Vec<T>),
    /// A lowercase name: a type variable.
    Var(Symbol),
    Arrow(T, T),
    Pair(T, T),
    /// `forall (var:κ). body`, closing the last
    /// [`TypeBuilder::enter_forall`].
    Forall(Symbol, Kind, T),
    /// `?payload.cont`.
    In(T, T),
    /// `!payload.cont`.
    Out(T, T),
    EndIn,
    EndOut,
    Dual(T),
    /// `-payload`.
    Neg(T),
}

/// What the type grammar builds.
///
/// The grammar drives the builder bottom-up: children are built before
/// their parent, and a `forall`'s binder is announced
/// ([`TypeBuilder::enter_forall`]) before its body is parsed. The
/// checker builds [`SType`] trees ([`parse_type`]); the server's
/// equivalence path builds hash-consed store ids directly, with no tree
/// in between. Spans are what [`SType`] records; other builders may
/// ignore them.
pub trait TypeBuilder {
    /// A built type.
    type Ty;

    /// `forall (var:κ).` was read; its body comes next.
    fn enter_forall(&mut self, _var: Symbol) {}

    fn build(&mut self, node: TypeNode<Self::Ty>, span: Span) -> Self::Ty;
}

/// The [`TypeBuilder`] of surface [`SType`] trees.
struct AstBuilder;

impl TypeBuilder for AstBuilder {
    type Ty = SType;

    fn build(&mut self, node: TypeNode<SType>, span: Span) -> SType {
        match node {
            TypeNode::Unit => SType::Unit(span),
            TypeNode::Name(name, args) => SType::Name(name, args, span),
            TypeNode::Var(var) => SType::Var(var, span),
            TypeNode::Arrow(a, b) => SType::Arrow(Box::new(a), Box::new(b), span),
            TypeNode::Pair(a, b) => SType::Pair(Box::new(a), Box::new(b), span),
            TypeNode::Forall(var, kind, body) => SType::Forall(var, kind, Box::new(body), span),
            TypeNode::In(p, s) => SType::In(Box::new(p), Box::new(s), span),
            TypeNode::Out(p, s) => SType::Out(Box::new(p), Box::new(s), span),
            TypeNode::EndIn => SType::EndIn(span),
            TypeNode::EndOut => SType::EndOut(span),
            TypeNode::Dual(s) => SType::Dual(Box::new(s), span),
            TypeNode::Neg(p) => SType::Neg(Box::new(p), span),
        }
    }
}

/// Parses a full program (a sequence of declarations).
pub fn parse_program(src: &str) -> PResult<Program> {
    let mut p = Parser::new(src, true);
    let result = p.program();
    p.finish(result)
}

/// Parses a single type, e.g. for tests and tooling.
pub fn parse_type(src: &str) -> PResult<SType> {
    build_type(src, &mut AstBuilder)
}

/// Parses a single type with `builder`. A standalone type has no
/// declarations to separate, so the layout rule does not apply: a line
/// may start at column 1.
pub fn build_type<B: TypeBuilder>(src: &str, builder: &mut B) -> PResult<B::Ty> {
    let mut p = Parser::new(src, false);
    let result = p.ty_built(builder).and_then(|(t, _)| {
        p.expect_eof()?;
        Ok(t)
    });
    p.finish(result)
}

/// Parses a single expression.
pub fn parse_expr(src: &str) -> PResult<SExpr> {
    let mut p = Parser::new(src, true);
    let result = p.expr().and_then(|e| {
        p.expect_eof()?;
        Ok(e)
    });
    p.finish(result)
}

/// A parsed type and its span. A bare uppercase name stays unbuilt
/// until the grammar knows whether arguments follow it, also through
/// parentheses: `(Repeat) Int` applies `Repeat` like `Repeat Int` does.
enum Head<T> {
    Built(T),
    Bare(Symbol),
}

type Parsed<T> = (Head<T>, Span);

/// Builds a parsed type: a bare name becomes a name without arguments.
fn built<B: TypeBuilder>(b: &mut B, (head, span): Parsed<B::Ty>) -> (B::Ty, Span) {
    match head {
        Head::Built(t) => (t, span),
        Head::Bare(name) => (b.build(TypeNode::Name(name, Vec::new()), span), span),
    }
}

/// The parser, pulling tokens from the lexer one at a time.
struct Parser<'s> {
    lexer: Lexer<'s>,
    /// The next token: `None` at the end of input, or once the lexer
    /// has failed.
    cur: Option<Token>,
    /// The span of the last consumed token.
    last: Span,
    /// The lexer's error, once it has failed.
    lex_error: Option<LexError>,
    /// Whether a token at column 1 ends what is being parsed (the
    /// layout rule of programs).
    layout: bool,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str, layout: bool) -> Parser<'s> {
        let mut p = Parser {
            lexer: Lexer::new(src),
            cur: None,
            last: Span::default(),
            lex_error: None,
            layout,
        };
        p.advance();
        p
    }

    /// Ends a parse. A lex error anywhere in the source outranks the
    /// parse's own outcome, as if the whole source had been lexed first.
    fn finish<T>(mut self, result: PResult<T>) -> PResult<T> {
        if result.is_err() {
            while self.cur.is_some() {
                self.advance();
            }
        }
        match self.lex_error {
            Some(e) => Err(e.into()),
            None => result,
        }
    }

    fn program(&mut self) -> PResult<Program> {
        let mut decls = Vec::new();
        while self.peek().is_some() {
            decls.push(self.decl()?);
        }
        Ok(Program { decls })
    }

    // ---------------------------------------------------------- utilities

    /// Loads the next token into `cur`.
    fn advance(&mut self) {
        match self.lexer.next_token() {
            Ok(t) => self.cur = t,
            Err(e) => {
                self.cur = None;
                self.lex_error = Some(e);
            }
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.cur.as_ref()
    }

    /// Peek, but under the layout rule refuse tokens at column 1 (they
    /// belong to the next top-level declaration). Use for *optional*
    /// continuations.
    fn cont(&self) -> Option<&Token> {
        self.peek().filter(|t| !self.layout || t.span.col > 1)
    }

    fn cont_tok(&self) -> Option<&Tok> {
        self.cont().map(|t| &t.tok)
    }

    fn last_span(&self) -> Span {
        self.last
    }

    fn here(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .unwrap_or_else(|| self.last_span())
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.cur.take()?;
        self.last = t.span;
        self.advance();
        Some(t)
    }

    fn error<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            span: self.here(),
        })
    }

    fn expect(&mut self, tok: Tok) -> PResult<Span> {
        match self.peek() {
            Some(t) if t.tok == tok => Ok(self.bump().expect("peeked").span),
            Some(t) => {
                let found = t.tok.clone();
                self.error(format!("expected `{tok}`, found `{found}`"))
            }
            None => self.error(format!("expected `{tok}`, found end of input")),
        }
    }

    fn expect_eof(&mut self) -> PResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => {
                let found = t.tok.clone();
                self.error(format!("expected end of input, found `{found}`"))
            }
        }
    }

    fn lident(&mut self) -> PResult<(Symbol, Span)> {
        match self.peek() {
            Some(Token {
                tok: Tok::LIdent(s),
                span,
            }) => {
                let r = (*s, *span);
                self.bump();
                Ok(r)
            }
            _ => self.error("expected a lowercase identifier"),
        }
    }

    fn uident(&mut self) -> PResult<(Symbol, Span)> {
        match self.peek() {
            Some(Token {
                tok: Tok::UIdent(s),
                span,
            }) => {
                let r = (*s, *span);
                self.bump();
                Ok(r)
            }
            _ => self.error("expected an uppercase identifier"),
        }
    }

    // ------------------------------------------------------- declarations

    fn decl(&mut self) -> PResult<Decl> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::Protocol) => self.type_decl(true),
            Some(Tok::Data) => self.type_decl(false),
            Some(Tok::TypeKw) => self.alias_decl(),
            Some(Tok::LIdent(_)) => self.signature_or_binding(),
            Some(other) => self.error(format!(
                "expected a declaration (protocol/data/type/definition), found `{other}`"
            )),
            None => self.error("expected a declaration"),
        }
    }

    fn type_decl(&mut self, is_protocol: bool) -> PResult<Decl> {
        let start = self.bump().expect("peeked").span; // protocol/data
        let (name, _) = self.uident()?;
        let mut params = Vec::new();
        while let Some(Tok::LIdent(p)) = self.cont_tok() {
            params.push(*p);
            self.bump();
        }
        self.expect(Tok::Equals)?;
        let mut ctors = vec![self.ctor_decl()?];
        while self.cont_tok() == Some(&Tok::Bar) {
            self.bump();
            ctors.push(self.ctor_decl()?);
        }
        let span = start.to(self.last_span());
        let d = TypeDecl {
            name,
            params,
            ctors,
            span,
        };
        Ok(if is_protocol {
            Decl::Protocol(d)
        } else {
            Decl::Data(d)
        })
    }

    fn ctor_decl(&mut self) -> PResult<CtorDecl> {
        let (name, start) = self.uident()?;
        let mut args = Vec::new();
        while self.starts_type_atom() {
            args.push(self.ty_atom_ast()?);
        }
        Ok(CtorDecl {
            name,
            args,
            span: start.to(self.last_span()),
        })
    }

    fn alias_decl(&mut self) -> PResult<Decl> {
        let start = self.bump().expect("peeked").span; // type
        let (name, _) = self.uident()?;
        let mut params = Vec::new();
        while let Some(Tok::LIdent(p)) = self.cont_tok() {
            params.push(*p);
            self.bump();
        }
        self.expect(Tok::Equals)?;
        let body = self.ty_ast()?;
        Ok(Decl::Alias(AliasDecl {
            name,
            params,
            body,
            span: start.to(self.last_span()),
        }))
    }

    fn signature_or_binding(&mut self) -> PResult<Decl> {
        let (name, start) = self.lident()?;
        if self.cont_tok() == Some(&Tok::Colon) {
            self.bump();
            let ty = self.ty_ast()?;
            return Ok(Decl::Signature(SignatureDecl {
                name,
                ty,
                span: start.to(self.last_span()),
            }));
        }
        // Binding: parameters until `=`.
        let mut params = Vec::new();
        loop {
            match self.cont_tok() {
                Some(Tok::Equals) => break,
                Some(Tok::LIdent(x)) => {
                    params.push(Param::Term(*x));
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    params.push(Param::Wild);
                    self.bump();
                }
                Some(Tok::LBracket) => {
                    self.bump();
                    let mut vars = Vec::new();
                    loop {
                        let (v, _) = self.lident()?;
                        vars.push(v);
                        if self.peek().map(|t| &t.tok) == Some(&Tok::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(Tok::RBracket)?;
                    params.push(Param::Types(vars));
                }
                _ => return self.error("expected a parameter or `=` in definition"),
            }
        }
        self.expect(Tok::Equals)?;
        let body = self.expr()?;
        Ok(Decl::Binding(BindingDecl {
            name,
            params,
            body,
            span: start.to(self.last_span()),
        }))
    }

    // --------------------------------------------------------------- types

    /// A type as an [`SType`] tree.
    fn ty_ast(&mut self) -> PResult<SType> {
        Ok(self.ty_built(&mut AstBuilder)?.0)
    }

    fn ty_built<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<(B::Ty, Span)> {
        let t = self.ty(b)?;
        Ok(built(b, t))
    }

    fn ty<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Ty>> {
        if self.peek().map(|t| &t.tok) == Some(&Tok::Forall) {
            let start = self.bump().expect("peeked").span;
            self.expect(Tok::LParen)?;
            let (var, _) = self.lident()?;
            self.expect(Tok::Colon)?;
            let kind = self.kind()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Dot)?;
            b.enter_forall(var);
            let (body, body_span) = self.ty_built(b)?;
            let span = start.to(body_span);
            return Ok((
                Head::Built(b.build(TypeNode::Forall(var, kind, body), span)),
                span,
            ));
        }
        self.ty_arrow(b)
    }

    fn kind(&mut self) -> PResult<Kind> {
        let (name, _) = self.uident()?;
        let s = name.as_str();
        if s.len() == 1 {
            if let Some(k) = Kind::from_letter(s.chars().next().expect("len checked")) {
                return Ok(k);
            }
        }
        self.error(format!("expected a kind (S, T or P), found `{s}`"))
    }

    fn ty_arrow<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Ty>> {
        let lhs = self.ty_seq(b)?;
        if self.cont_tok() == Some(&Tok::Arrow) {
            self.bump();
            let (lhs, lhs_span) = built(b, lhs);
            let (rhs, rhs_span) = self.ty_built(b)?; // right-associative
            let span = lhs_span.to(rhs_span);
            return Ok((Head::Built(b.build(TypeNode::Arrow(lhs, rhs), span)), span));
        }
        Ok(lhs)
    }

    /// Session-prefix level: `!T.S`, `?T.S`, otherwise an application
    /// type. A spine of prefixes is read in a loop, then built from its
    /// tail outwards, so its length costs no parser stack.
    fn ty_seq<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Ty>> {
        let mut prefixes = Vec::new();
        loop {
            let output = match self.peek().map(|t| &t.tok) {
                Some(Tok::Bang) => true,
                Some(Tok::Quest) => false,
                _ => break,
            };
            let start = self.bump().expect("peeked").span;
            let payload = self.ty_msg(b)?;
            let (payload, _) = built(b, payload);
            self.expect(Tok::Dot)?;
            prefixes.push((output, payload, start));
        }
        let mut seq = self.ty_app(b)?;
        while let Some((output, payload, start)) = prefixes.pop() {
            let (cont, cont_span) = built(b, seq);
            let span = start.to(cont_span);
            let node = if output {
                TypeNode::Out(payload, cont)
            } else {
                TypeNode::In(payload, cont)
            };
            seq = (Head::Built(b.build(node, span)), span);
        }
        Ok(seq)
    }

    /// Message payload: an application type, optionally negated.
    fn ty_msg<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Ty>> {
        if self.peek().map(|t| &t.tok) == Some(&Tok::Dash) {
            let start = self.bump().expect("peeked").span;
            let inner = self.ty_msg(b)?;
            let (inner, inner_span) = built(b, inner);
            let span = start.to(inner_span);
            return Ok((Head::Built(b.build(TypeNode::Neg(inner), span)), span));
        }
        self.ty_app(b)
    }

    /// Application: only a *bare* name head takes arguments. A name
    /// that already carries arguments came out of parentheses — e.g.
    /// the payload in `!(Repeat Int).End!` — and is complete as it
    /// stands (application is not curried through parens).
    fn ty_app<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Ty>> {
        let (head, start) = self.ty_atom(b)?;
        let Head::Bare(name) = head else {
            return Ok((head, start));
        };
        let mut args = Vec::new();
        while self.starts_type_atom() {
            let arg = self.ty_atom(b)?;
            args.push(built(b, arg).0);
        }
        let span = start.to(self.last_span());
        if args.is_empty() {
            return Ok((Head::Bare(name), span));
        }
        Ok((Head::Built(b.build(TypeNode::Name(name, args), span)), span))
    }

    fn starts_type_atom(&self) -> bool {
        matches!(
            self.cont_tok(),
            Some(
                Tok::LParen
                    | Tok::UIdent(_)
                    | Tok::LIdent(_)
                    | Tok::EndBang
                    | Tok::EndQuest
                    | Tok::DualKw
                    | Tok::Dash
            )
        )
    }

    /// A type atom as an [`SType`] tree.
    fn ty_atom_ast(&mut self) -> PResult<SType> {
        let atom = self.ty_atom(&mut AstBuilder)?;
        Ok(built(&mut AstBuilder, atom).0)
    }

    fn ty_atom<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Ty>> {
        match self.peek().map(|t| &t.tok) {
            Some(Tok::LParen) => {
                let start = self.bump().expect("peeked").span;
                let first = self.ty(b)?;
                if self.peek().map(|t| &t.tok) != Some(&Tok::Comma) {
                    self.expect(Tok::RParen)?;
                    return Ok(first);
                }
                self.bump();
                let (first, _) = built(b, first);
                let (second, _) = self.ty_built(b)?;
                let span = start.to(self.expect(Tok::RParen)?);
                return Ok((
                    Head::Built(b.build(TypeNode::Pair(first, second), span)),
                    span,
                ));
            }
            Some(Tok::DualKw | Tok::Dash) => {
                let op = self.bump().expect("peeked");
                let inner = self.ty_atom(b)?;
                let (inner, inner_span) = built(b, inner);
                let span = op.span.to(inner_span);
                let node = if op.tok == Tok::DualKw {
                    TypeNode::Dual(inner)
                } else {
                    TypeNode::Neg(inner)
                };
                return Ok((Head::Built(b.build(node, span)), span));
            }
            Some(Tok::UIdent(_) | Tok::LIdent(_) | Tok::EndBang | Tok::EndQuest) => {}
            _ => return self.error("expected a type"),
        }
        let Token { tok, span } = self.bump().expect("peeked");
        let node = match tok {
            Tok::UIdent(name) if name != Symbol::UNIT => return Ok((Head::Bare(name), span)),
            Tok::UIdent(_) => TypeNode::Unit,
            Tok::LIdent(var) => TypeNode::Var(var),
            Tok::EndBang => TypeNode::EndOut,
            _ => TypeNode::EndIn,
        };
        Ok((Head::Built(b.build(node, span)), span))
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self) -> PResult<SExpr> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::Backslash) => self.lambda(),
            Some(Tok::Let) => self.let_expr(),
            Some(Tok::If) => self.if_expr(),
            Some(Tok::Case) => self.case_expr(Tok::Of),
            Some(Tok::Match) => self.case_expr(Tok::With),
            _ => self.pipe_expr(),
        }
    }

    fn lambda(&mut self) -> PResult<SExpr> {
        let start = self.bump().expect("peeked").span; // backslash
        let mut params = Vec::new();
        loop {
            match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::LIdent(x)) => {
                    params.push(x);
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    params.push(Symbol::fresh("_wild"));
                    self.bump();
                }
                Some(Tok::Arrow) => break,
                _ => return self.error("expected a lambda parameter or `->`"),
            }
        }
        if params.is_empty() {
            return self.error("lambda needs at least one parameter");
        }
        self.expect(Tok::Arrow)?;
        let body = self.expr()?;
        let span = start.to(body.span());
        Ok(SExpr::Lambda(params, Box::new(body), span))
    }

    fn let_expr(&mut self) -> PResult<SExpr> {
        let start = self.bump().expect("peeked").span; // let
        let pat = self.pattern()?;
        self.expect(Tok::Equals)?;
        let bound = self.expr()?;
        self.expect(Tok::In)?;
        let body = self.expr()?;
        let span = start.to(body.span());
        Ok(SExpr::Let(pat, Box::new(bound), Box::new(body), span))
    }

    fn pattern(&mut self) -> PResult<Pattern> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::LIdent(x)) => {
                self.bump();
                Ok(Pattern::Var(x))
            }
            Some(Tok::Underscore) => {
                self.bump();
                Ok(Pattern::Wild)
            }
            Some(Tok::Star) => {
                self.bump();
                Ok(Pattern::Unit)
            }
            Some(Tok::LParen) => {
                self.bump();
                if self.peek().map(|t| &t.tok) == Some(&Tok::RParen) {
                    self.bump();
                    return Ok(Pattern::Unit);
                }
                let (x, _) = self.lident()?;
                self.expect(Tok::Comma)?;
                let (y, _) = self.lident()?;
                self.expect(Tok::RParen)?;
                Ok(Pattern::Pair(x, y))
            }
            _ => self.error("expected a pattern (x, (x, y), _, * or ())"),
        }
    }

    fn if_expr(&mut self) -> PResult<SExpr> {
        let start = self.bump().expect("peeked").span; // if
        let cond = self.expr()?;
        self.expect(Tok::Then)?;
        let thn = self.expr()?;
        self.expect(Tok::Else)?;
        let els = self.expr()?;
        let span = start.to(els.span());
        Ok(SExpr::If(
            Box::new(cond),
            Box::new(thn),
            Box::new(els),
            span,
        ))
    }

    /// `case e of { arms }` / `match e with { arms }`.
    fn case_expr(&mut self, separator: Tok) -> PResult<SExpr> {
        let start = self.bump().expect("peeked").span; // case/match
        let scrutinee = self.pipe_expr()?;
        self.expect(separator)?;
        self.expect(Tok::LBrace)?;
        let mut arms = Vec::new();
        loop {
            arms.push(self.arm()?);
            match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::Comma) => {
                    self.bump();
                    // allow trailing comma
                    if self.peek().map(|t| &t.tok) == Some(&Tok::RBrace) {
                        break;
                    }
                }
                Some(Tok::RBrace) => break,
                _ => return self.error("expected `,` or `}` after case arm"),
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(SExpr::Case(Box::new(scrutinee), arms, start.to(end)))
    }

    fn arm(&mut self) -> PResult<SArm> {
        let (tag, start) = self.uident()?;
        let mut binders = Vec::new();
        loop {
            match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::LIdent(x)) => {
                    binders.push(x);
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    binders.push(Symbol::fresh("_wild"));
                    self.bump();
                }
                _ => break,
            }
        }
        self.expect(Tok::Arrow)?;
        let body = self.expr()?;
        let span = start.to(body.span());
        Ok(SArm {
            tag,
            binders,
            body,
            span,
        })
    }

    /// `e |> f |> g` — reverse application, lowest precedence,
    /// left-associative: `x |> f |> g` is `g (f x)`.
    fn pipe_expr(&mut self) -> PResult<SExpr> {
        let mut lhs = self.or_expr()?;
        while self.cont_tok() == Some(&Tok::PipeGt) {
            self.bump();
            // The right operand of |> may itself be a lambda/let/etc.
            let rhs = match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::Backslash) => self.lambda()?,
                _ => self.or_expr()?,
            };
            let span = lhs.span().to(rhs.span());
            lhs = SExpr::App(Box::new(rhs), Box::new(lhs), span);
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> PResult<SExpr> {
        let mut lhs = self.and_expr()?;
        while self.cont_tok() == Some(&Tok::OrOr) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = binop("||", lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<SExpr> {
        let mut lhs = self.cmp_expr()?;
        while self.cont_tok() == Some(&Tok::AndAnd) {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = binop("&&", lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> PResult<SExpr> {
        let lhs = self.add_expr()?;
        let op = match self.cont_tok() {
            Some(Tok::EqEq) => "==",
            Some(Tok::Neq) => "/=",
            Some(Tok::Lt) => "<",
            Some(Tok::Le) => "<=",
            Some(Tok::Gt) => ">",
            Some(Tok::Ge) => ">=",
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(binop(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> PResult<SExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.cont_tok() {
                Some(Tok::Plus) => "+",
                Some(Tok::Dash) => "-",
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = binop(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> PResult<SExpr> {
        let mut lhs = self.app_expr()?;
        loop {
            let op = match self.cont_tok() {
                Some(Tok::Star) => "*",
                Some(Tok::Slash) => "/",
                Some(Tok::Percent) => "%",
                _ => break,
            };
            self.bump();
            let rhs = self.app_expr()?;
            lhs = binop(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn app_expr(&mut self) -> PResult<SExpr> {
        let mut head = self.atom()?;
        loop {
            if self.starts_expr_atom() {
                let arg = self.atom()?;
                let span = head.span().to(arg.span());
                head = SExpr::App(Box::new(head), Box::new(arg), span);
            } else if self.cont_tok() == Some(&Tok::LBracket) {
                self.bump();
                let mut tys = vec![self.ty_ast()?];
                while self.peek().map(|t| &t.tok) == Some(&Tok::Comma) {
                    self.bump();
                    tys.push(self.ty_ast()?);
                }
                let end = self.expect(Tok::RBracket)?;
                let span = head.span().to(end);
                head = SExpr::TApp(Box::new(head), tys, span);
            } else {
                break;
            }
        }
        Ok(head)
    }

    fn starts_expr_atom(&self) -> bool {
        matches!(
            self.cont_tok(),
            Some(
                Tok::LIdent(_)
                    | Tok::UIdent(_)
                    | Tok::IntLit(_)
                    | Tok::CharLit(_)
                    | Tok::StrLit(_)
                    | Tok::LParen
                    | Tok::SelectKw
            )
        )
    }

    fn atom(&mut self) -> PResult<SExpr> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::IntLit(n)) => {
                let span = self.bump().expect("peeked").span;
                Ok(SExpr::Lit(Lit::Int(n), span))
            }
            Some(Tok::CharLit(c)) => {
                let span = self.bump().expect("peeked").span;
                Ok(SExpr::Lit(Lit::Char(c), span))
            }
            Some(Tok::StrLit(s)) => {
                let span = self.bump().expect("peeked").span;
                Ok(SExpr::Lit(Lit::Str(s), span))
            }
            Some(Tok::LIdent(x)) => {
                let span = self.bump().expect("peeked").span;
                Ok(SExpr::Var(x, span))
            }
            Some(Tok::UIdent(c)) => {
                let span = self.bump().expect("peeked").span;
                match c.as_str() {
                    "True" => Ok(SExpr::Lit(Lit::Bool(true), span)),
                    "False" => Ok(SExpr::Lit(Lit::Bool(false), span)),
                    _ => Ok(SExpr::Con(c, span)),
                }
            }
            Some(Tok::SelectKw) => {
                let start = self.bump().expect("peeked").span;
                let (tag, end) = self.uident()?;
                Ok(SExpr::Select(tag, start.to(end)))
            }
            Some(Tok::LParen) => {
                let start = self.bump().expect("peeked").span;
                if self.peek().map(|t| &t.tok) == Some(&Tok::RParen) {
                    let end = self.bump().expect("peeked").span;
                    return Ok(SExpr::Lit(Lit::Unit, start.to(end)));
                }
                let first = self.expr()?;
                if self.peek().map(|t| &t.tok) == Some(&Tok::Comma) {
                    self.bump();
                    let second = self.expr()?;
                    let end = self.expect(Tok::RParen)?;
                    Ok(SExpr::Pair(
                        Box::new(first),
                        Box::new(second),
                        start.to(end),
                    ))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            _ => self.error("expected an expression"),
        }
    }
}

fn binop(op: &str, lhs: SExpr, rhs: SExpr) -> SExpr {
    let span = lhs.span().to(rhs.span());
    SExpr::BinOp(Symbol::intern(op), Box::new(lhs), Box::new(rhs), span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_decl() {
        let p = parse_program("protocol IntListP = Nil | Cons Int IntListP").unwrap();
        assert_eq!(p.decls.len(), 1);
        let Decl::Protocol(d) = &p.decls[0] else {
            panic!("expected protocol")
        };
        assert_eq!(d.name.as_str(), "IntListP");
        assert_eq!(d.ctors.len(), 2);
        assert_eq!(d.ctors[1].args.len(), 2);
    }

    #[test]
    fn parses_parameterized_protocol() {
        let p = parse_program("protocol Stream a = Next a (Stream a)").unwrap();
        let Decl::Protocol(d) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(d.params.len(), 1);
        let SType::Name(n, args, _) = &d.ctors[0].args[1] else {
            panic!()
        };
        assert_eq!(n.as_str(), "Stream");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn parenthesized_applied_name_keeps_its_arguments() {
        // Regression: `(Repeat Int)` as a message payload used to trip a
        // debug assertion in `ty_app` (and silently dropped the
        // arguments in release builds).
        let t = parse_type("!(Repeat Int).End!").unwrap();
        let SType::Out(payload, _, _) = t else {
            panic!("expected an output type")
        };
        let SType::Name(n, args, _) = *payload else {
            panic!("expected an applied name")
        };
        assert_eq!(n.as_str(), "Repeat");
        assert_eq!(args.len(), 1);
        // A parenthesized application is complete: a trailing atom is a
        // parse error, not a curried application.
        assert!(parse_type("(Repeat Int) Bool").is_err());
    }

    #[test]
    fn parses_polarity_in_ctor_args() {
        let p = parse_program("protocol Arith = Neg Int -Int | Add Int Int -Int").unwrap();
        let Decl::Protocol(d) = &p.decls[0] else {
            panic!()
        };
        assert!(matches!(d.ctors[0].args[1], SType::Neg(..)));
        assert_eq!(d.ctors[1].args.len(), 3);
    }

    #[test]
    fn parses_signature_with_forall() {
        let p = parse_program("sendAst : Ast -> forall (s:S). !AstP.s -> s").unwrap();
        let Decl::Signature(sig) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(sig.ty.to_string(), "Ast -> forall (s:S). !AstP.s -> s");
    }

    #[test]
    fn parses_session_types() {
        let t = parse_type("?Repeat Int . !(Char, End!) . End!").unwrap();
        assert_eq!(t.to_string(), "?(Repeat Int).!(Char, End!).End!");
        let t = parse_type("Dual (!Repeat Int. ?(Char, End!). Dual End!)").unwrap();
        assert!(matches!(t, SType::Dual(..)));
    }

    #[test]
    fn parses_negated_payloads() {
        let t = parse_type("?-a.s").unwrap();
        let SType::In(p, _, _) = t else { panic!() };
        assert!(matches!(*p, SType::Neg(..)));
        let t = parse_type("! Stream -a .End!").unwrap();
        let SType::Out(p, _, _) = t else { panic!() };
        let SType::Name(_, args, _) = *p else {
            panic!()
        };
        assert!(matches!(args[0], SType::Neg(..)));
    }

    #[test]
    fn parses_match_with_arms() {
        let e =
            parse_expr("match c with { ConP c -> recvInt [s] c, AddP c -> recvAst [?AstP.s] c }")
                .unwrap();
        let SExpr::Case(_, arms, _) = e else { panic!() };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].binders.len(), 1);
    }

    #[test]
    fn parses_pipe_as_reverse_application() {
        // x |> f |> g  ==  g (f x)
        let e = parse_expr("x |> f |> g").unwrap();
        let SExpr::App(g, fx, _) = e else { panic!() };
        assert!(matches!(*g, SExpr::Var(..)));
        let SExpr::App(f, x, _) = *fx else { panic!() };
        assert!(matches!(*f, SExpr::Var(..)));
        assert!(matches!(*x, SExpr::Var(..)));
    }

    #[test]
    fn parses_type_application_lists() {
        let e = parse_expr("select Next [Int, End!] c").unwrap();
        // select Next [Int,End!] c = App(TApp(Select, [Int, End!]), c)
        let SExpr::App(f, _, _) = e else { panic!() };
        let SExpr::TApp(sel, tys, _) = *f else {
            panic!()
        };
        assert!(matches!(*sel, SExpr::Select(..)));
        assert_eq!(tys.len(), 2);
    }

    #[test]
    fn parses_let_pair() {
        let e = parse_expr("let (x, c) = receive [Int, s] c in (x, c)").unwrap();
        let SExpr::Let(Pattern::Pair(..), _, _, _) = e else {
            panic!()
        };
    }

    #[test]
    fn parses_operators_with_precedence() {
        // 1 + 2 * 3 == 7  parses as  (1 + (2*3)) == 7
        let e = parse_expr("1 + 2 * 3 == 7").unwrap();
        let SExpr::BinOp(eq, lhs, _, _) = e else {
            panic!()
        };
        assert_eq!(eq.as_str(), "==");
        let SExpr::BinOp(plus, _, rhs, _) = *lhs else {
            panic!()
        };
        assert_eq!(plus.as_str(), "+");
        assert!(matches!(*rhs, SExpr::BinOp(..)));
    }

    #[test]
    fn layout_separates_declarations() {
        let src = "ones : Unit\nones = ()\nmain : Unit\nmain = ()";
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 4);
    }

    #[test]
    fn continuation_lines_are_part_of_definition() {
        let src = "f x =\n  let y = x in\n  y";
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 1);
    }

    #[test]
    fn paper_serve_arith_parses() {
        let src = r#"
serveArith : forall (s:S). ?Arith.s -> s
serveArith [s] c = match c with {
  Neg c -> let (x, c) = receive [Int, !Int.s] c in
           send [Int, s] (0 - x) c,
  Add c -> let (x, c) = receive [Int, ?Int.!Int.s] c in
           let (y, c) = receive [Int, !Int.s] c in
           send [Int, s] (x + y) c }
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 2);
        let Decl::Binding(b) = &p.decls[1] else {
            panic!()
        };
        assert_eq!(b.params.len(), 2); // [s] and c
    }

    #[test]
    fn error_reports_location() {
        let err = parse_program("protocol = Nil").unwrap_err();
        assert!(err.message.contains("uppercase"));
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn lex_errors_outrank_earlier_parse_errors() {
        // Tokens are pulled lazily, but a lex error anywhere still wins,
        // as when the whole source was lexed before parsing.
        for src in [") Int $", "!Int. $"] {
            let err = parse_type(src).unwrap_err();
            assert!(err.message.contains("unexpected character"), "{src}: {err}");
        }
        let err = parse_program("f = )\ng = 'x").unwrap_err();
        assert!(err.message.contains("character literal"), "{err}");
    }

    #[test]
    fn standalone_types_ignore_the_layout_rule() {
        let t = parse_type("!Int.End!\n-> End?").unwrap();
        assert!(matches!(t, SType::Arrow(..)));
        assert!(parse_program("f : !Int.End!\n-> End?").is_err());
    }

    #[test]
    fn trailing_comma_in_arms_ok() {
        let e = parse_expr("match c with { A c -> c, B c -> c, }").unwrap();
        let SExpr::Case(_, arms, _) = e else { panic!() };
        assert_eq!(arms.len(), 2);
    }
}
