//! The AlgST lexer.
//!
//! Hand-written, with line/column tracking (the parser uses a simple layout
//! rule: top-level declarations start at column 1). Supports `--` line
//! comments and `{- … -}` block comments (nestable), and a few Unicode
//! aliases for the paper's notation: `→` for `->`, `λ` for `\`, `∀` for
//! `forall` and `▷` for `|>`. The paper's `⊗` for pair types is not
//! accepted (it is an unexpected character); write pairs as `(T, U)`.
//!
//! The parser pulls tokens one at a time (`Lexer::next_token`), so a
//! source is never held as a token vector; [`lex`] collects them for
//! tests and tooling.

use crate::span::Span;
use crate::token::{Tok, Token};
use algst_core::symbol::Symbol;
use std::fmt;

/// A lexical error with its location.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// A token stream over one source string.
pub(crate) struct Lexer<'s> {
    src: &'s str,
    chars: std::iter::Peekable<std::str::CharIndices<'s>>,
    line: u32,
    col: u32,
}

/// Tokenizes `src`.
///
/// # Errors
/// Returns a [`LexError`] on unterminated literals/comments or unexpected
/// characters.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(t) = lx.next_token()? {
        out.push(t);
    }
    Ok(out)
}

impl<'s> Lexer<'s> {
    pub(crate) fn new(src: &'s str) -> Lexer<'s> {
        Lexer {
            src,
            chars: src.char_indices().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<(usize, char)> {
        let next = self.chars.next();
        if let Some((_, c)) = next {
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        next
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|&(_, c)| c)
    }

    fn peek_pos(&mut self) -> usize {
        self.chars.peek().map(|&(i, _)| i).unwrap_or(self.src.len())
    }

    fn error(&mut self, message: impl Into<String>) -> LexError {
        let pos = self.peek_pos();
        LexError {
            message: message.into(),
            span: Span::new(pos, pos, self.line, self.col),
        }
    }

    /// The next token, or `None` at the end of the source.
    pub(crate) fn next_token(&mut self) -> Result<Option<Token>, LexError> {
        // Skip whitespace and comments.
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('-') if self.src[self.peek_pos()..].starts_with("--") => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('{') if self.src[self.peek_pos()..].starts_with("{-") => {
                    self.block_comment()?;
                }
                _ => break,
            }
        }
        let start = self.peek_pos();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = self.next_tok(c)?;
        let end = self.peek_pos();
        Ok(Some(Token {
            tok,
            span: Span::new(start, end, line, col),
        }))
    }

    fn block_comment(&mut self) -> Result<(), LexError> {
        self.bump(); // {
        self.bump(); // -
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                None => return Err(self.error("unterminated block comment")),
                Some('{') if self.src[self.peek_pos()..].starts_with("{-") => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                Some('-') if self.src[self.peek_pos()..].starts_with("-}") => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        Ok(())
    }

    fn next_tok(&mut self, c: char) -> Result<Tok, LexError> {
        match c {
            '(' => self.single(Tok::LParen),
            ')' => self.single(Tok::RParen),
            '[' => self.single(Tok::LBracket),
            ']' => self.single(Tok::RBracket),
            '{' => self.single(Tok::LBrace),
            '}' => self.single(Tok::RBrace),
            '.' => self.single(Tok::Dot),
            ',' => self.single(Tok::Comma),
            ':' => self.single(Tok::Colon),
            '!' => self.single(Tok::Bang),
            '?' => self.single(Tok::Quest),
            '+' => self.single(Tok::Plus),
            '*' => self.single(Tok::Star),
            '%' => self.single(Tok::Percent),
            '\\' | 'λ' => self.single(Tok::Backslash),
            '→' => self.single(Tok::Arrow),
            '▷' => self.single(Tok::PipeGt),
            '∀' => self.single(Tok::Forall),
            '_' => self.single(Tok::Underscore),
            '=' => self.one_or_two('=', Tok::Equals, Tok::EqEq),
            '-' => {
                self.bump();
                if self.peek() == Some('>') {
                    self.bump();
                    Ok(Tok::Arrow)
                } else {
                    Ok(Tok::Dash)
                }
            }
            '/' => self.one_or_two('=', Tok::Slash, Tok::Neq),
            '<' => self.one_or_two('=', Tok::Lt, Tok::Le),
            '>' => self.one_or_two('=', Tok::Gt, Tok::Ge),
            '&' => {
                self.bump();
                if self.peek() == Some('&') {
                    self.bump();
                    Ok(Tok::AndAnd)
                } else {
                    Err(self.error("expected `&&`"))
                }
            }
            '|' => {
                self.bump();
                match self.peek() {
                    Some('>') => {
                        self.bump();
                        Ok(Tok::PipeGt)
                    }
                    Some('|') => {
                        self.bump();
                        Ok(Tok::OrOr)
                    }
                    _ => Ok(Tok::Bar),
                }
            }
            '\'' => self.char_lit(),
            '"' => self.string_lit(),
            c if c.is_ascii_digit() => self.int_lit(),
            c if c.is_alphabetic() => Ok(self.ident()),
            other => Err(self.error(format!("unexpected character {other:?}"))),
        }
    }

    fn single(&mut self, t: Tok) -> Result<Tok, LexError> {
        self.bump();
        Ok(t)
    }

    fn one_or_two(&mut self, second: char, one: Tok, two: Tok) -> Result<Tok, LexError> {
        self.bump();
        if self.peek() == Some(second) {
            self.bump();
            Ok(two)
        } else {
            Ok(one)
        }
    }

    fn int_lit(&mut self) -> Result<Tok, LexError> {
        let start = self.peek_pos();
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let text = &self.src[start..self.peek_pos()];
        text.parse::<i64>()
            .map(Tok::IntLit)
            .map_err(|_| self.error(format!("integer literal out of range: {text}")))
    }

    fn char_lit(&mut self) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let c = match self.bump() {
            Some((_, '\\')) => match self.bump() {
                Some((_, 'n')) => '\n',
                Some((_, 't')) => '\t',
                Some((_, '\\')) => '\\',
                Some((_, '\'')) => '\'',
                _ => return Err(self.error("invalid escape in character literal")),
            },
            Some((_, c)) => c,
            None => return Err(self.error("unterminated character literal")),
        };
        match self.bump() {
            Some((_, '\'')) => Ok(Tok::CharLit(c)),
            _ => Err(self.error("unterminated character literal")),
        }
    }

    fn string_lit(&mut self) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string literal")),
                Some((_, '"')) => return Ok(Tok::StrLit(s)),
                Some((_, '\\')) => match self.bump() {
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, 't')) => s.push('\t'),
                    Some((_, '\\')) => s.push('\\'),
                    Some((_, '"')) => s.push('"'),
                    _ => return Err(self.error("invalid escape in string literal")),
                },
                Some((_, c)) => s.push(c),
            }
        }
    }

    fn ident(&mut self) -> Tok {
        let start = self.peek_pos();
        let first = self.peek().expect("ident called at end of input");
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '\'') {
            self.bump();
        }
        let text = &self.src[start..self.peek_pos()];
        // `End!` / `End?` fuse with an immediately following bang/quest.
        if text == "End" {
            match self.peek() {
                Some('!') => {
                    self.bump();
                    return Tok::EndBang;
                }
                Some('?') => {
                    self.bump();
                    return Tok::EndQuest;
                }
                _ => {}
            }
        }
        match text {
            "protocol" => Tok::Protocol,
            "data" => Tok::Data,
            "type" => Tok::TypeKw,
            "forall" => Tok::Forall,
            "let" => Tok::Let,
            "in" => Tok::In,
            "case" => Tok::Case,
            "of" => Tok::Of,
            "match" => Tok::Match,
            "with" => Tok::With,
            "if" => Tok::If,
            "then" => Tok::Then,
            "else" => Tok::Else,
            "Dual" => Tok::DualKw,
            "select" => Tok::SelectKw,
            "True" => Tok::UIdent(Symbol::intern("True")),
            "False" => Tok::UIdent(Symbol::intern("False")),
            _ => {
                if first.is_uppercase() {
                    Tok::UIdent(Symbol::intern(text))
                } else {
                    Tok::LIdent(Symbol::intern(text))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_protocol_declaration() {
        let ts = toks("protocol IntListP = Nil | Cons Int IntListP");
        assert_eq!(ts[0], Tok::Protocol);
        assert_eq!(ts[1], Tok::UIdent(Symbol::intern("IntListP")));
        assert_eq!(ts[2], Tok::Equals);
        assert!(ts.contains(&Tok::Bar));
    }

    #[test]
    fn lexes_session_type() {
        let ts = toks("!Int.End! -> ?AstP.End?");
        assert_eq!(
            ts,
            vec![
                Tok::Bang,
                Tok::UIdent(Symbol::intern("Int")),
                Tok::Dot,
                Tok::EndBang,
                Tok::Arrow,
                Tok::Quest,
                Tok::UIdent(Symbol::intern("AstP")),
                Tok::Dot,
                Tok::EndQuest,
            ]
        );
    }

    #[test]
    fn end_requires_adjacency() {
        // `End !` with a space is an identifier followed by Bang.
        let ts = toks("End !");
        assert_eq!(ts, vec![Tok::UIdent(Symbol::intern("End")), Tok::Bang]);
    }

    #[test]
    fn pipes_and_operators() {
        let ts = toks("x |> f || y && z | w /= v");
        assert!(ts.contains(&Tok::PipeGt));
        assert!(ts.contains(&Tok::OrOr));
        assert!(ts.contains(&Tok::AndAnd));
        assert!(ts.contains(&Tok::Bar));
        assert!(ts.contains(&Tok::Neq));
    }

    #[test]
    fn comments_are_skipped() {
        let ts = toks("a -- comment\nb {- block {- nested -} -} c");
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("{- oops").is_err());
    }

    #[test]
    fn literals() {
        let ts = toks("42 'x' \"hi\\n\" True");
        assert_eq!(ts[0], Tok::IntLit(42));
        assert_eq!(ts[1], Tok::CharLit('x'));
        assert_eq!(ts[2], Tok::StrLit("hi\n".into()));
        assert_eq!(ts[3], Tok::UIdent(Symbol::intern("True")));
    }

    #[test]
    fn tracks_columns_for_layout() {
        let tokens = lex("abc\n  def\nghi").unwrap();
        assert_eq!(tokens[0].span.col, 1);
        assert_eq!(tokens[1].span.col, 3);
        assert_eq!(tokens[1].span.line, 2);
        assert_eq!(tokens[2].span.col, 1);
        assert_eq!(tokens[2].span.line, 3);
    }

    #[test]
    fn arrow_vs_dash() {
        assert_eq!(toks("- ->"), vec![Tok::Dash, Tok::Arrow]);
        assert_eq!(
            toks("-Int"),
            vec![Tok::Dash, Tok::UIdent(Symbol::intern("Int"))]
        );
    }

    #[test]
    fn unicode_aliases() {
        assert_eq!(toks("→"), vec![Tok::Arrow]);
        assert_eq!(toks("λ"), vec![Tok::Backslash]);
        assert_eq!(toks("∀"), vec![Tok::Forall]);
        assert_eq!(toks("▷"), vec![Tok::PipeGt]);
    }
}
