//! The one regular-expression grammar behind every query syntax.
//!
//! A path expression is a regular expression over names (§8), a PHR one
//! over triplets (Definition 18), and an HRE one over nodes, with vertical
//! operators on top (Definition 11). So all three share
//!
//! ```text
//! alt     := seq ('|' seq)*
//! seq     := postfix+                 -- juxtaposition is concatenation
//! postfix := atom ('*' | '+' | '?' | a language's own postfix)*
//! ```
//!
//! and a language, a [`Grammar`], supplies its atoms. This module also
//! holds the two limits on all query text: [`MAX_QUERY_NESTING`] open
//! brackets, checked in [`enclosed`], and [`MAX_QUERY_STEPS`] expression
//! nodes, checked in [`Cursor::bounded`].

use std::ops::ControlFlow;

use hedgex_automata::{Regex, Sym};

use crate::hre::{Hre, HreParseError, MAX_QUERY_NESTING, MAX_QUERY_STEPS};

/// A parsed sub-expression and its size in expression nodes: an atom
/// counts what its language says, each operator adds one, and `e+`
/// counts `e` twice (it expands to `e e*`).
pub(crate) type Part<E> = (E, usize);

/// A parse of a sub-expression.
pub(crate) type Parsed<E> = Result<Part<E>, HreParseError>;

/// A language's own postfix operator applied (`Continue`), or the operand
/// unchanged (`Break`) when none starts at the cursor.
pub(crate) type Postfix<E> = ControlFlow<Part<E>, Part<E>>;

/// The smart constructors [`Regex`] and [`Hre`] share.
pub(crate) trait Regular {
    fn alt(self, other: Self) -> Self;
    fn concat(self, other: Self) -> Self;
    fn star(self) -> Self;
    fn plus(self) -> Self;
    fn opt(self) -> Self;
}

impl<S: Sym> Regular for Regex<S> {
    fn alt(self, other: Self) -> Self {
        Regex::alt(self, other)
    }
    fn concat(self, other: Self) -> Self {
        Regex::concat(self, other)
    }
    fn star(self) -> Self {
        Regex::star(self)
    }
    fn plus(self) -> Self {
        Regex::plus(self)
    }
    fn opt(self) -> Self {
        Regex::opt(self)
    }
}

impl Regular for Hre {
    fn alt(self, other: Self) -> Self {
        Hre::alt(self, other)
    }
    fn concat(self, other: Self) -> Self {
        Hre::concat(self, other)
    }
    fn star(self) -> Self {
        Hre::star(self)
    }
    fn plus(self) -> Self {
        Hre::plus(self)
    }
    fn opt(self) -> Self {
        Hre::opt(self)
    }
}

/// What one query language adds to the shared grammar.
pub(crate) trait Grammar: Sized {
    type Expr: Regular;

    /// Does a sequence end before `c`? (The end of the text always ends it.)
    fn ends_seq(&self, c: char) -> bool;

    /// One atom at the cursor.
    fn atom(&mut self, cur: &mut Cursor<'_>) -> Parsed<Self::Expr>;

    /// A postfix operator of the language's own, applied to `e`; the
    /// shared loop checks the new size.
    fn postfix(
        &mut self,
        _cur: &mut Cursor<'_>,
        e: Part<Self::Expr>,
    ) -> Result<Postfix<Self::Expr>, HreParseError> {
        Ok(ControlFlow::Break(e))
    }

    /// A whole expression: the query text, or the inside of a bracket.
    fn expr(&mut self, cur: &mut Cursor<'_>) -> Parsed<Self::Expr> {
        alt(self, cur)
    }
}

/// A position in query text.
pub(crate) struct Cursor<'a> {
    pub(crate) src: &'a str,
    pub(crate) pos: usize,
    /// Brackets open at `pos`.
    depth: usize,
    /// Characters that end the text early, as `;` and `]` end a triplet
    /// slot: [`Cursor::peek`] sees nothing there.
    stops: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            depth: 0,
            stops: "",
        }
    }

    pub(crate) fn peek(&self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        (!self.stops.contains(c)).then_some(c)
    }

    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consume `c` if it comes next.
    pub(crate) fn eat(&mut self, c: char) -> bool {
        self.peek() == Some(c) && self.bump().is_some()
    }

    pub(crate) fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.bump();
        }
    }

    pub(crate) fn err(&self, msg: impl Into<String>) -> HreParseError {
        HreParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    /// A name: the characters up to whitespace or one of `delims`.
    pub(crate) fn ident(&mut self, delims: &str) -> Result<&'a str, HreParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| !c.is_whitespace() && !delims.contains(c))
        {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.src[start..self.pos])
    }

    /// `size`, unless it exceeds [`MAX_QUERY_STEPS`].
    pub(crate) fn bounded(&self, size: usize) -> Result<usize, HreParseError> {
        if size > MAX_QUERY_STEPS {
            return Err(self.err(format!("expression larger than {MAX_QUERY_STEPS} steps")));
        }
        Ok(size)
    }

    /// `parse` over the text up to the first of `stops`, with a nesting
    /// budget of its own.
    pub(crate) fn within<T>(
        &mut self,
        stops: &'static str,
        parse: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let outer = (
            std::mem::take(&mut self.depth),
            std::mem::replace(&mut self.stops, stops),
        );
        let out = parse(self);
        (self.depth, self.stops) = outer;
        out
    }
}

/// All of the text at `cur` as one expression.
pub(crate) fn parse<G: Grammar>(g: &mut G, cur: &mut Cursor<'_>) -> Result<G::Expr, HreParseError> {
    let (e, _) = g.expr(cur)?;
    cur.skip_ws();
    if cur.peek().is_some() {
        return Err(cur.err("trailing input"));
    }
    Ok(e)
}

/// `seq ('|' seq)*`.
pub(crate) fn alt<G: Grammar>(g: &mut G, cur: &mut Cursor<'_>) -> Parsed<G::Expr> {
    let (mut e, mut size) = seq(g, cur)?;
    loop {
        cur.skip_ws();
        if !cur.eat('|') {
            return Ok((e, size));
        }
        let (rhs, n) = seq(g, cur)?;
        size = cur.bounded(size + n + 1)?;
        e = e.alt(rhs);
    }
}

/// `postfix+`.
fn seq<G: Grammar>(g: &mut G, cur: &mut Cursor<'_>) -> Parsed<G::Expr> {
    let (mut e, mut size) = postfix(g, cur)?;
    loop {
        cur.skip_ws();
        match cur.peek() {
            Some(c) if !g.ends_seq(c) => {
                let (rhs, n) = postfix(g, cur)?;
                size = cur.bounded(size + n + 1)?;
                e = e.concat(rhs);
            }
            _ => return Ok((e, size)),
        }
    }
}

/// `atom ('*' | '+' | '?' | a language's own postfix)*`.
fn postfix<G: Grammar>(g: &mut G, cur: &mut Cursor<'_>) -> Parsed<G::Expr> {
    cur.skip_ws();
    let (mut e, mut size) = g.atom(cur)?;
    loop {
        cur.skip_ws();
        (e, size) = match cur.peek() {
            Some(op @ ('*' | '+' | '?')) => {
                cur.bump();
                match op {
                    '*' => (e.star(), size + 1),
                    // `e+` is `e e*`: two copies of `e`, a star and a
                    // concatenation.
                    '+' => (e.plus(), 2 * size + 2),
                    _ => (e.opt(), size + 1),
                }
            }
            _ => match g.postfix(cur, (e, size))? {
                ControlFlow::Continue(part) => part,
                ControlFlow::Break(part) => return Ok(part),
            },
        };
        size = cur.bounded(size)?;
    }
}

/// The expression from the bracket at the cursor to `close`. Nesting past
/// [`MAX_QUERY_NESTING`] fails at the bracket, and a missing `close` with
/// `unclosed()`.
pub(crate) fn enclosed<G: Grammar>(
    g: &mut G,
    cur: &mut Cursor<'_>,
    close: char,
    unclosed: impl Fn() -> String,
) -> Parsed<G::Expr> {
    if cur.depth == MAX_QUERY_NESTING {
        let what = if close == ')' {
            "parentheses"
        } else {
            "node contents"
        };
        return Err(cur.err(format!("{what} nested deeper than {MAX_QUERY_NESTING}")));
    }
    cur.bump();
    cur.skip_ws();
    if cur.peek().is_none() {
        return Err(cur.err(unclosed()));
    }
    cur.depth += 1;
    let part = g.expr(cur)?;
    cur.depth -= 1;
    cur.skip_ws();
    if cur.bump() != Some(close) {
        return Err(cur.err(unclosed()));
    }
    Ok(part)
}

/// `'(' expr ')'`.
pub(crate) fn group<G: Grammar>(g: &mut G, cur: &mut Cursor<'_>) -> Parsed<G::Expr> {
    enclosed(g, cur, ')', || "expected ')'".into())
}
