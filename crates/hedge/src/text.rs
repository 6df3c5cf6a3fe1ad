//! Compact text syntax for hedges.
//!
//! ```text
//! hedge := tree*
//! tree  := name             — Σ leaf node a⟨ε⟩ (the paper's abbreviation)
//!        | name '<' hedge '>'   — Σ node a⟨u⟩
//!        | '$' name             — variable leaf x
//!        | '%' name             — substitution-symbol leaf z
//! ```
//!
//! `%η` (or `%eta`) denotes the reserved pointed-hedge symbol η. Examples:
//! the paper's `d⟨p⟨x⟩ p⟨y⟩⟩ d⟨p⟨x⟩⟩` is written `d<p<$x> p<$y>> d<p<$x>>`.

use crate::hedge::{Hedge, Tree};
use crate::symbols::{Alphabet, SubId};

/// A parse error of hedge or query text, with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if !c.is_whitespace() && !"<>$%".contains(c)) {
            self.bump();
        }
        if self.pos == start {
            Err(self.err("expected a name"))
        } else {
            Ok(self.src[start..self.pos].to_string())
        }
    }

    fn hedge(&mut self, ab: &mut Alphabet) -> Result<Hedge, ParseError> {
        let mut trees = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None | Some('>') => break,
                Some('$') => {
                    self.bump();
                    let name = self.ident()?;
                    trees.push(Tree::Var(ab.var(&name)));
                }
                Some('%') => {
                    self.bump();
                    let name = self.ident()?;
                    let z = if name == "η" || name == "eta" {
                        SubId::ETA
                    } else {
                        ab.sub(&name)
                    };
                    trees.push(Tree::Subst(z));
                }
                Some('<') => return Err(self.err("unexpected '<'")),
                Some(_) => {
                    let name = self.ident()?;
                    let sym = ab.sym(&name);
                    self.skip_ws();
                    if self.peek() == Some('<') {
                        self.bump();
                        let children = self.hedge(ab)?;
                        if self.bump() != Some('>') {
                            return Err(self.err(format!("unclosed '<' for node '{name}'")));
                        }
                        trees.push(Tree::Node(sym, children));
                    } else {
                        trees.push(Tree::Node(sym, Hedge::empty()));
                    }
                }
            }
        }
        Ok(Hedge(trees))
    }
}

/// Parse the compact hedge syntax, interning names into `ab`.
pub fn parse_hedge(src: &str, ab: &mut Alphabet) -> Result<Hedge, ParseError> {
    let mut p = Parser { src, pos: 0 };
    let h = p.hedge(ab)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing input (unbalanced '>'?)"));
    }
    Ok(h)
}

/// Render a hedge back to the compact syntax.
pub fn print_hedge(h: &Hedge, ab: &Alphabet) -> String {
    let mut out = String::new();
    print_into(h, ab, &mut out);
    out
}

fn print_into(h: &Hedge, ab: &Alphabet, out: &mut String) {
    for (i, t) in h.trees().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match t {
            Tree::Var(x) => {
                out.push('$');
                out.push_str(ab.var_name(*x));
            }
            Tree::Subst(z) => {
                out.push('%');
                out.push_str(ab.sub_name(*z));
            }
            Tree::Node(a, children) => {
                out.push_str(ab.sym_name(*a));
                if !children.is_empty() {
                    out.push('<');
                    print_into(children, ab, out);
                    out.push('>');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hedge::CeilSym;

    #[test]
    fn parse_paper_example() {
        let mut ab = Alphabet::new();
        let h = parse_hedge("d<p<$x> p<$y>> d<p<$x>>", &mut ab).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.size(), 8);
        let d = ab.get_sym("d").unwrap();
        assert_eq!(h.ceil(), vec![CeilSym::Sym(d), CeilSym::Sym(d)]);
    }

    #[test]
    fn leaf_abbreviation() {
        // `a` is a⟨ε⟩.
        let mut ab = Alphabet::new();
        let h = parse_hedge("a", &mut ab).unwrap();
        assert_eq!(h, Hedge::leaf(ab.get_sym("a").unwrap()));
        let h2 = parse_hedge("a<>", &mut ab).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn empty_input_is_epsilon() {
        let mut ab = Alphabet::new();
        assert_eq!(parse_hedge("", &mut ab).unwrap(), Hedge::empty());
        assert_eq!(parse_hedge("   ", &mut ab).unwrap(), Hedge::empty());
    }

    #[test]
    fn substitution_symbols() {
        let mut ab = Alphabet::new();
        let h = parse_hedge("a<%z>", &mut ab).unwrap();
        let z = ab.get_sub("z").unwrap();
        assert_eq!(h, Hedge::sub_node(ab.get_sym("a").unwrap(), z));
        let h = parse_hedge("a<%η>", &mut ab).unwrap();
        assert!(h.contains_sub(SubId::ETA));
        let h2 = parse_hedge("a<%eta>", &mut ab).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn error_positions() {
        let mut ab = Alphabet::new();
        assert!(parse_hedge("a<b", &mut ab).is_err());
        assert!(parse_hedge("a>", &mut ab).is_err());
        assert!(parse_hedge("<a>", &mut ab).is_err());
        assert!(parse_hedge("$", &mut ab).is_err());
        let e = parse_hedge("a<b", &mut ab).unwrap_err();
        assert!(e.to_string().contains("unclosed"));
    }

    #[test]
    fn print_roundtrip() {
        let mut ab = Alphabet::new();
        for src in ["a", "a b c", "d<p<$x> p<$y>> d<p<$x>>", "a<%z> b<%η c<$x>>"] {
            let h = parse_hedge(src, &mut ab).unwrap();
            let printed = print_hedge(&h, &ab);
            let back = parse_hedge(&printed, &mut ab).unwrap();
            assert_eq!(h, back, "roundtrip of {src:?} via {printed:?}");
        }
    }

    #[test]
    fn nested_depth() {
        let mut ab = Alphabet::new();
        let h = parse_hedge("a<a<a<a<$x>>>>", &mut ab).unwrap();
        assert_eq!(h.depth(), 5);
        assert_eq!(h.size(), 5);
    }
}
