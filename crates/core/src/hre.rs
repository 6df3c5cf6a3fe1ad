//! Hedge regular expressions (Section 4, Definitions 9–12).
//!
//! An HRE has *two* sets of regular operators: the horizontal ones
//! (concatenation, `|`, `*`) align hedges side by side, and the vertical
//! ones (`a⟨z⟩`, `e₁ ∘_z e₂`, `e^z`) embed hedges into hedges at
//! substitution symbols. The vertical closure `e^z` is what expresses
//! "arbitrarily deep" — e.g. `a⟨z⟩*^z` generates every hedge whose labels
//! are all `a` (the paper's running example).
//!
//! Two semantics are provided:
//!
//! * [`Hre::matches`] — a direct, recursive implementation of Definition 12
//!   (with closures capturing the substitution environment). It is the
//!   executable specification that the Lemma 1 compiler is tested against.
//! * `hedgex-core::compile` — the Lemma 1 translation to a non-deterministic
//!   hedge automaton, which is what production evaluation uses.
//!
//! A concrete syntax is provided for tests, examples, and documentation:
//!
//! ```text
//! e := seq ('@' name seq)*          -- e₁ @z e₂  is  e₁ ∘_z e₂ (left-assoc)
//! seq := alt+                       -- juxtaposition is concatenation
//! alt := factor ('|' factor)*
//! factor := atom ('*' | '+' | '?' | '^' name | '{>=' n '}' | '{<=' n '}')*
//! atom := '!'                       -- ∅
//!       | 'ε' | '()'                -- the empty hedge
//!       | '$' name                  -- a variable
//!       | name                      -- a⟨ε⟩, a leaf node
//!       | name '<' e '>'            -- a⟨e⟩
//!       | name '<%' name '>'        -- a⟨z⟩, a substitution-symbol node
//!       | '(' e ')'
//! ```
//!
//! The graded bounds `e{>=n}` / `e{<=n}` ("at least / at most n copies",
//! the graded-modality counting of Bárcenas et al.) are *surface syntax
//! only*: they desugar at parse time to `e…e e*` (n copies) and `e?…e?`
//! respectively, so nothing downstream — compilation, analysis,
//! decompilation — ever sees them. Desugaring is n-fold copying, so the
//! AST grows as `n·|e|`; bounds whose expansion would exceed
//! [`GRADED_EXPANSION_CAP`] AST nodes are rejected at parse time with a
//! one-line diagnostic rather than silently compiling an enormous
//! automaton. Query text as a whole is bounded the same way: at most
//! [`MAX_QUERY_NESTING`] nested parentheses and node contents, and at most
//! [`MAX_QUERY_STEPS`] AST nodes.

use std::rc::Rc;

use hedgex_hedge::{Alphabet, Hedge, SubId, SymId, Tree, VarId};

/// Largest AST (in nodes) a graded bound `e{>=n}` / `e{<=n}` may desugar
/// to. The expansion is n-fold copying — `n·|e| + |e|` nodes — and the
/// downstream compile is exponential in expression size, so an unchecked
/// bound is a denial-of-service knob; past this cap the parser rejects the
/// query with a one-line diagnostic instead.
pub const GRADED_EXPANSION_CAP: usize = 512;

/// Deepest nesting the query parsers accept: parentheses, and in an HRE
/// also `a<…>` node contents. The algorithms downstream of a parser
/// recurse on expression depth; this bound and [`MAX_QUERY_STEPS`] keep
/// any query text from exhausting their stack.
pub const MAX_QUERY_NESTING: usize = 256;

/// Largest expression the query parsers accept, in AST nodes: an atom is
/// one node (an HRE leaf `a` is two, `a⟨ε⟩`), each binary or postfix
/// operator adds one, `e+` counts `e` twice (it expands to `e e*`), and a
/// graded bound counts its expansion.
pub const MAX_QUERY_STEPS: usize = 4096;

/// A hedge regular expression (Definition 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hre {
    /// `∅` — the empty language.
    Empty,
    /// `ε` — the language {ε}.
    Epsilon,
    /// `x` — a variable leaf.
    Var(VarId),
    /// `a⟨e⟩` — a node over a content language.
    Node(SymId, Rc<Hre>),
    /// `a⟨z⟩` — a node holding a substitution symbol.
    SubNode(SymId, SubId),
    /// `e₁ e₂` — horizontal concatenation.
    Concat(Rc<Hre>, Rc<Hre>),
    /// `e₁ | e₂` — union.
    Alt(Rc<Hre>, Rc<Hre>),
    /// `e*` — horizontal closure.
    Star(Rc<Hre>),
    /// `e₁ ∘_z e₂` — embedding of `L(e₁)` in `L(e₂)` at `z`.
    Embed(Rc<Hre>, SubId, Rc<Hre>),
    /// `e^z` — vertical closure at `z`.
    Iter(Rc<Hre>, SubId),
}

impl Hre {
    /// `a⟨ε⟩`, the paper's abbreviation `a`.
    pub fn leaf(a: SymId) -> Hre {
        Hre::Node(a, Rc::new(Hre::Epsilon))
    }

    /// `a⟨e⟩`.
    pub fn node(a: SymId, e: Hre) -> Hre {
        Hre::Node(a, Rc::new(e))
    }

    /// `a⟨z⟩`.
    pub fn sub_node(a: SymId, z: SubId) -> Hre {
        Hre::SubNode(a, z)
    }

    /// Smart concatenation.
    pub fn concat(self, other: Hre) -> Hre {
        match (self, other) {
            (Hre::Empty, _) | (_, Hre::Empty) => Hre::Empty,
            (Hre::Epsilon, e) | (e, Hre::Epsilon) => e,
            (a, b) => Hre::Concat(Rc::new(a), Rc::new(b)),
        }
    }

    /// Smart union.
    pub fn alt(self, other: Hre) -> Hre {
        match (self, other) {
            (Hre::Empty, e) | (e, Hre::Empty) => e,
            (a, b) if a == b => a,
            (a, b) => Hre::Alt(Rc::new(a), Rc::new(b)),
        }
    }

    /// Smart star.
    pub fn star(self) -> Hre {
        match self {
            Hre::Empty | Hre::Epsilon => Hre::Epsilon,
            s @ Hre::Star(_) => s,
            e => Hre::Star(Rc::new(e)),
        }
    }

    /// `e+ = e e*`.
    pub fn plus(self) -> Hre {
        self.clone().concat(self.star())
    }

    /// `e? = e | ε`.
    pub fn opt(self) -> Hre {
        self.alt(Hre::Epsilon)
    }

    /// `e₁ ∘_z e₂`.
    pub fn embed(self, z: SubId, outer: Hre) -> Hre {
        Hre::Embed(Rc::new(self), z, Rc::new(outer))
    }

    /// `e^z`.
    pub fn iter(self, z: SubId) -> Hre {
        Hre::Iter(Rc::new(self), z)
    }

    /// The universal language over a symbol set: every hedge whose node
    /// labels come from `syms` and whose leaves come from `vars`. This is
    /// the "all hedges" expression that turns a pointed hedge representation
    /// into a classical path expression; built as `(a₁⟨z⟩|…|x₁|…)*^z`.
    pub fn universal(syms: &[SymId], vars: &[VarId], z: SubId) -> Hre {
        let mut alt = Hre::Empty;
        for &a in syms {
            alt = alt.alt(Hre::sub_node(a, z));
        }
        for &x in vars {
            alt = alt.alt(Hre::Var(x));
        }
        alt.star().iter(z)
    }

    /// Structural size (number of AST nodes).
    pub fn size(&self) -> usize {
        match self {
            Hre::Empty | Hre::Epsilon | Hre::Var(_) | Hre::SubNode(_, _) => 1,
            Hre::Node(_, e) | Hre::Star(e) | Hre::Iter(e, _) => 1 + e.size(),
            Hre::Concat(a, b) | Hre::Alt(a, b) | Hre::Embed(a, _, b) => 1 + a.size() + b.size(),
        }
    }

    /// Membership test — Definition 12 implemented directly (the executable
    /// specification). Exponential in the worst case; meant for testing on
    /// small hedges, not for production evaluation (use the Lemma 1
    /// compiler for that).
    pub fn matches(&self, h: &Hedge) -> bool {
        matches_env(self, &h.0, &Env::Empty)
    }
}

/// What a substitution symbol may stand for during matching.
#[derive(Debug, Clone)]
enum Env<'a> {
    Empty,
    /// `z` is bound to the closure `(hre, env)`; `fallback` applies to other
    /// substitution symbols (and to `z` itself if `also_literal`).
    Bind {
        z: SubId,
        hre: &'a Hre,
        captured: &'a Env<'a>,
        /// If true, `z` may *also* resolve through the rest of the
        /// environment (the `e^{1,z} = e` base of the vertical closure,
        /// where `z` leaves remain unreplaced).
        also_fallback: bool,
        rest: &'a Env<'a>,
    },
}

impl<'a> Env<'a> {
    /// Resolutions of `a⟨z⟩` against content `u`: may `u` stand for `z`?
    fn sub_matches(&self, z: SubId, u: &[Tree]) -> bool {
        match self {
            Env::Empty => {
                // Unbound: only the literal substitution-symbol content.
                matches!(u, [Tree::Subst(s)] if *s == z)
            }
            Env::Bind {
                z: bz,
                hre,
                captured,
                also_fallback,
                rest,
            } => {
                if *bz == z {
                    if matches_env(hre, u, captured) {
                        return true;
                    }
                    if *also_fallback {
                        return rest.sub_matches(z, u);
                    }
                    false
                } else {
                    rest.sub_matches(z, u)
                }
            }
        }
    }
}

/// Does the tree sequence `h` match `e` under environment `env`?
fn matches_env(e: &Hre, h: &[Tree], env: &Env<'_>) -> bool {
    match e {
        Hre::Empty => false,
        Hre::Epsilon => h.is_empty(),
        Hre::Var(x) => matches!(h, [Tree::Var(y)] if y == x),
        Hre::Node(a, content) => match h {
            [Tree::Node(b, u)] => b == a && matches_env(content, &u.0, env),
            _ => false,
        },
        Hre::SubNode(a, z) => match h {
            [Tree::Node(b, u)] => b == a && env.sub_matches(*z, &u.0),
            _ => false,
        },
        Hre::Alt(e1, e2) => matches_env(e1, h, env) || matches_env(e2, h, env),
        Hre::Concat(e1, e2) => {
            (0..=h.len()).any(|k| matches_env(e1, &h[..k], env) && matches_env(e2, &h[k..], env))
        }
        Hre::Star(inner) => {
            // DP over prefix lengths; blocks are non-empty to terminate.
            let n = h.len();
            let mut ok = vec![false; n + 1];
            ok[0] = true;
            for j in 1..=n {
                for i in 0..j {
                    if ok[i] && matches_env(inner, &h[i..j], env) {
                        ok[j] = true;
                        break;
                    }
                }
            }
            ok[n]
        }
        Hre::Embed(e1, z, e2) => {
            // h ∈ L(e₁) ∘_z L(e₂): match e₂ with z bound to e₁ (closed over
            // the current environment — z leaves inside e₁'s output are
            // replaced by *outer* bindings, if any).
            let bound = Env::Bind {
                z: *z,
                hre: e1,
                captured: env,
                also_fallback: false,
                rest: env,
            };
            matches_env(e2, h, &bound)
        }
        Hre::Iter(inner, z) => {
            // e^z = e ∪ (e^z ∘_z e): match e with z bound to e^z, but z may
            // also fall through to the enclosing environment (the base case
            // e^{1,z} = e keeps z leaves unreplaced).
            let bound = Env::Bind {
                z: *z,
                hre: e,
                captured: env,
                also_fallback: true,
                rest: env,
            };
            matches_env(inner, h, &bound)
        }
    }
}

/// Parse the concrete HRE syntax (see the module docs), interning names
/// into `ab`. Expressions nesting parentheses and `a<…>` contents deeper
/// than [`MAX_QUERY_NESTING`], or larger than [`MAX_QUERY_STEPS`] AST
/// nodes, are rejected at the byte where they cross the limit.
pub fn parse_hre(src: &str, ab: &mut Alphabet) -> Result<Hre, HreParseError> {
    let mut p = HreParser {
        src,
        pos: 0,
        ab,
        depth: 0,
    };
    let (e, _) = p.embed_level()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

/// An HRE parse error, with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HreParseError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for HreParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HRE parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for HreParseError {}

/// A parsed sub-expression and its size in AST nodes, counted as
/// [`Hre::size`] counts the unsimplified tree.
type Part = (Hre, usize);

struct HreParser<'a, 'b> {
    src: &'a str,
    pos: usize,
    ab: &'b mut Alphabet,
    /// Parentheses and `a<…>` contents open at `pos`.
    depth: usize,
}

impl HreParser<'_, '_> {
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
    fn err(&self, msg: impl Into<String>) -> HreParseError {
        HreParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }
    /// `size`, unless it exceeds [`MAX_QUERY_STEPS`].
    fn bounded(&self, size: usize) -> Result<usize, HreParseError> {
        if size > MAX_QUERY_STEPS {
            return Err(self.err(format!("HRE larger than {MAX_QUERY_STEPS} nodes")));
        }
        Ok(size)
    }
    /// Parse a nested `embed_level` opened at `pos`, unless it would nest
    /// deeper than [`MAX_QUERY_NESTING`].
    fn nested(&mut self) -> Result<Part, HreParseError> {
        if self.depth == MAX_QUERY_NESTING {
            return Err(self.err(format!("HRE nested deeper than {MAX_QUERY_NESTING}")));
        }
        self.bump();
        self.depth += 1;
        let part = self.embed_level();
        self.depth -= 1;
        part
    }
    fn ident(&mut self) -> Result<String, HreParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c)
            if !c.is_whitespace() && !"<>$%()|*+?^@!∅{}".contains(c))
        {
            self.bump();
        }
        if self.pos == start {
            Err(self.err("expected a name"))
        } else {
            Ok(self.src[start..self.pos].to_string())
        }
    }

    /// Lowest precedence: `seq ('@' name seq)*`.
    fn embed_level(&mut self) -> Result<Part, HreParseError> {
        let (mut e, mut size) = self.alt_level()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('@') {
                self.bump();
                let name = self.ident()?;
                let z = self.ab.sub(&name);
                let (outer, n) = self.alt_level()?;
                size = self.bounded(size + n + 1)?;
                e = e.embed(z, outer);
            } else {
                return Ok((e, size));
            }
        }
    }

    /// `seq ('|' seq)*`.
    fn alt_level(&mut self) -> Result<Part, HreParseError> {
        let (mut e, mut size) = self.seq_level()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('|') {
                self.bump();
                let (rhs, n) = self.seq_level()?;
                size = self.bounded(size + n + 1)?;
                e = e.alt(rhs);
            } else {
                return Ok((e, size));
            }
        }
    }

    /// Juxtaposition: `factor+`.
    fn seq_level(&mut self) -> Result<Part, HreParseError> {
        let (mut e, mut size) = self.factor()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(c) if c == ')' || c == '>' || c == '|' || c == '@' => return Ok((e, size)),
                None => return Ok((e, size)),
                _ => {
                    let (rhs, n) = self.factor()?;
                    size = self.bounded(size + n + 1)?;
                    e = e.concat(rhs);
                }
            }
        }
    }

    /// `atom ('*' | '+' | '?' | '^' name | '{>=' n '}' | '{<=' n '}')*`.
    fn factor(&mut self) -> Result<Part, HreParseError> {
        let (mut e, mut size) = self.atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('*') => {
                    self.bump();
                    size = self.bounded(size + 1)?;
                    e = e.star();
                }
                Some('+') => {
                    self.bump();
                    // `e+` is `e e*`: two copies of `e`, a star and a
                    // concatenation.
                    size = self.bounded(2 * size + 2)?;
                    e = e.plus();
                }
                Some('?') => {
                    self.bump();
                    size = self.bounded(size + 1)?;
                    e = e.opt();
                }
                Some('^') => {
                    self.bump();
                    let name = self.ident()?;
                    let z = self.ab.sub(&name);
                    size = self.bounded(size + 1)?;
                    e = e.iter(z);
                }
                Some('{') => {
                    (e, size) = self.graded(e)?;
                }
                _ => return Ok((e, size)),
            }
        }
    }

    /// `e{>=n}` / `e{<=n}` — graded repetition, desugared on the spot:
    /// `{>=n}` becomes n copies of `e` followed by `e*`; `{<=n}` becomes n
    /// copies of `e?`. The degenerate bounds fall out of the smart
    /// constructors: `{>=0}` is `e*` and `{<=0}` is `ε`.
    fn graded(&mut self, e: Hre) -> Result<Part, HreParseError> {
        self.bump(); // '{'
        self.skip_ws();
        let lower = match self.bump() {
            Some('>') => true,
            Some('<') => false,
            _ => return Err(self.err("expected '>=' or '<=' in graded bound")),
        };
        if self.bump() != Some('=') {
            return Err(self.err("expected '=' in graded bound"));
        }
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a number in graded bound"));
        }
        let n: usize = self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("graded bound does not fit in usize"))?;
        self.skip_ws();
        if self.bump() != Some('}') {
            return Err(self.err("expected '}' after graded bound"));
        }
        let op = if lower { ">=" } else { "<=" };
        let cost = n.saturating_mul(e.size()).saturating_add(e.size());
        if cost > GRADED_EXPANSION_CAP {
            return Err(self.err(format!(
                "graded bound {{{op}{n}}} expands to ~{cost} AST nodes, \
                 over the cap of {GRADED_EXPANSION_CAP}"
            )));
        }
        let mut out = if lower {
            e.clone().star()
        } else {
            Hre::Epsilon
        };
        for _ in 0..n {
            let copy = if lower { e.clone() } else { e.clone().opt() };
            out = copy.concat(out);
        }
        Ok((out, self.bounded(cost)?))
    }

    fn atom(&mut self) -> Result<Part, HreParseError> {
        self.skip_ws();
        match self.peek() {
            Some('!') | Some('∅') => {
                self.bump();
                Ok((Hre::Empty, 1))
            }
            Some('ε') => {
                self.bump();
                Ok((Hre::Epsilon, 1))
            }
            Some('(') => {
                let open = self.pos;
                self.bump();
                self.skip_ws();
                if self.peek() == Some(')') {
                    self.bump();
                    return Ok((Hre::Epsilon, 1));
                }
                self.pos = open;
                let e = self.nested()?;
                self.skip_ws();
                if self.bump() != Some(')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(e)
            }
            Some('$') => {
                self.bump();
                let name = self.ident()?;
                Ok((Hre::Var(self.ab.var(&name)), 1))
            }
            Some(c) if !"<>|*+?^@%)!∅{}".contains(c) => {
                let name = self.ident()?;
                let a = self.ab.sym(&name);
                self.skip_ws();
                if self.peek() == Some('<') {
                    let open = self.pos;
                    self.bump();
                    self.skip_ws();
                    if self.peek() == Some('%') {
                        self.bump();
                        let zname = self.ident()?;
                        let z = self.ab.sub(&zname);
                        self.skip_ws();
                        if self.bump() != Some('>') {
                            return Err(self.err("expected '>' after substitution symbol"));
                        }
                        return Ok((Hre::sub_node(a, z), 1));
                    }
                    if self.peek() == Some('>') {
                        self.bump();
                        return Ok((Hre::leaf(a), 2));
                    }
                    self.pos = open;
                    let (e, n) = self.nested()?;
                    self.skip_ws();
                    if self.bump() != Some('>') {
                        return Err(self.err(format!("unclosed '<' for node '{name}'")));
                    }
                    Ok((Hre::node(a, e), n + 1))
                } else {
                    Ok((Hre::leaf(a), 2))
                }
            }
            _ => Err(self.err("expected an atom")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_hedge::parse_hedge;

    fn check(expr: &str, hedge: &str, expect: bool) {
        let mut ab = Alphabet::new();
        let e = parse_hre(expr, &mut ab).unwrap();
        let h = parse_hedge(hedge, &mut ab).unwrap();
        assert_eq!(
            e.matches(&h),
            expect,
            "{expr} vs {hedge} should be {expect}"
        );
    }

    #[test]
    fn basic_forms() {
        check("ε", "", true);
        check("ε", "a", false);
        check("!", "", false);
        check("$x", "$x", true);
        check("$x", "$y", false);
        check("a", "a", true);
        check("a", "a<b>", false);
        check("a<b>", "a<b>", true);
        check("a<b c>", "a<b c>", true);
        check("a<b c>", "a<c b>", false);
    }

    #[test]
    fn horizontal_operators() {
        check("a b", "a b", true);
        check("a b", "b a", false);
        check("a|b", "a", true);
        check("a|b", "b", true);
        check("a|b", "c", false);
        check("a*", "", true);
        check("a*", "a a a", true);
        check("a*", "a b", false);
        check("a+", "", false);
        check("a+", "a", true);
        check("a?", "", true);
        check("(a b)*", "a b a b", true);
        check("(a b)*", "a b a", false);
    }

    #[test]
    fn substitution_node_literal() {
        // Unembedded a⟨z⟩ matches only the literal substitution content.
        check("a<%z>", "a<%z>", true);
        check("a<%z>", "a<b>", false);
        check("a<%z>", "a", false);
    }

    #[test]
    fn embedding() {
        // (b | c) @z a⟨z⟩ a⟨z⟩ — every z becomes b or c, independently.
        check("(b|c) @z a<%z> a<%z>", "a<b> a<c>", true);
        check("(b|c) @z a<%z> a<%z>", "a<b> a<b>", true);
        check("(b|c) @z a<%z> a<%z>", "a<b>", false);
        check("(b|c) @z a<%z> a<%z>", "a<%z> a<b>", false);
    }

    #[test]
    fn embedding_keeps_inner_symbols_literal() {
        // e1 hedges may still contain a different substitution symbol.
        check("b<%w> @z a<%z>", "a<b<%w>>", true);
        check("b<%w> @z a<%z>", "a<b<c>>", false);
    }

    #[test]
    fn vertical_closure_all_a() {
        // a⟨z⟩*^z: all hedges where every label is a (paper's example).
        let expr = "a<%z>*^z";
        check(expr, "", true);
        check(expr, "a", true);
        check(expr, "a a a", true);
        check(expr, "a<a a> a", true);
        check(expr, "a<a<a<a>>>", true);
        check(expr, "a<b>", false);
        check(expr, "b", false);
        // Hedges still containing z at the deepest level are in L(e^z) too.
        check(expr, "a<%z>", true);
        check(expr, "a<a<%z> a>", true);
    }

    #[test]
    fn iter_respects_outer_bindings() {
        // (c @w (a⟨z⟩|b⟨w⟩)*^z): leftover w leaves become c.
        let expr = "c @w (a<%z>|b<%w>)*^z";
        check(expr, "a<b<c>>", true);
        check(expr, "b<c>", true);
        check(expr, "b<%w>", false);
        check(expr, "a<b<%w>>", false);
    }

    #[test]
    fn universal_generates_everything() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let b = ab.sym("b");
        let x = ab.var("x");
        let z = ab.sub("z");
        let u = Hre::universal(&[a, b], &[x], z);
        for src in ["", "a", "b<a $x>", "a<b<a<$x>>> b", "$x $x"] {
            let h = parse_hedge(src, &mut ab).unwrap();
            assert!(u.matches(&h), "universal should match {src}");
        }
    }

    #[test]
    fn parser_precedence() {
        let mut ab = Alphabet::new();
        // a b | c* parses as (a b) | (c*).
        let e = parse_hre("a b|c*", &mut ab).unwrap();
        let h = parse_hedge("c c", &mut ab).unwrap();
        assert!(e.matches(&h));
        let h = parse_hedge("a b", &mut ab).unwrap();
        assert!(e.matches(&h));
        let h = parse_hedge("a b c", &mut ab).unwrap();
        assert!(!e.matches(&h));
    }

    #[test]
    fn parser_errors() {
        let mut ab = Alphabet::new();
        assert!(parse_hre("a<", &mut ab).is_err());
        assert!(parse_hre("(a", &mut ab).is_err());
        assert!(parse_hre("*", &mut ab).is_err());
        assert!(parse_hre("a^", &mut ab).is_err());
        assert!(parse_hre("a )", &mut ab).is_err());
    }

    #[test]
    fn graded_bounds_match_their_expansions() {
        check("a{>=2}", "a a", true);
        check("a{>=2}", "a", false);
        check("a{>=2}", "a a a a a", true);
        check("a{>=2}", "a a b", false);
        check("a{<=2}", "", true);
        check("a{<=2}", "a", true);
        check("a{<=2}", "a a", true);
        check("a{<=2}", "a a a", false);
        // Degenerate bounds: {>=0} is vacuous (= a*), {<=0} forbids any a.
        check("a{>=0}", "", true);
        check("a{>=0}", "a a a", true);
        check("a{<=0}", "", true);
        check("a{<=0}", "a", false);
        // Graded bounds nest in node content and compose with other forms.
        check("a<b{>=2}>", "a<b b>", true);
        check("a<b{>=2}>", "a<b>", false);
        check("(a|b){>=2}", "a b a", true);
        check("a{>=1} c", "a a c", true);
        check("a{>=1} c", "c", false);
    }

    #[test]
    fn graded_cap_and_malformed_bounds() {
        let mut ab = Alphabet::new();
        // `a` is 2 AST nodes, so the expansion cost is 2n+2: n = 255 lands
        // exactly on the cap, n = 256 exceeds it.
        assert!(parse_hre("a{>=255}", &mut ab).is_ok());
        let err = parse_hre("a{>=256}", &mut ab).unwrap_err();
        assert!(err.msg.contains("over the cap"), "got: {}", err.msg);
        let err = parse_hre("a{<=100000}", &mut ab).unwrap_err();
        assert!(err.msg.contains("over the cap"), "got: {}", err.msg);
        // The diagnostic is one line.
        assert!(!err.to_string().contains('\n'));
        assert!(parse_hre("a{>=}", &mut ab).is_err());
        assert!(parse_hre("a{=2}", &mut ab).is_err());
        assert!(parse_hre("a{>2}", &mut ab).is_err());
        assert!(parse_hre("a{>=2", &mut ab).is_err());
        assert!(parse_hre("{>=2}", &mut ab).is_err());
    }

    #[test]
    fn query_size_limits_are_positioned_errors() {
        let mut ab = Alphabet::new();
        let parens = |d: usize| format!("{}a{}", "(".repeat(d), ")".repeat(d));
        assert!(parse_hre(&parens(MAX_QUERY_NESTING), &mut ab).is_ok());
        let err = parse_hre(&parens(MAX_QUERY_NESTING + 1), &mut ab).unwrap_err();
        assert_eq!(err.pos, MAX_QUERY_NESTING, "at the first '(' too many");
        assert!(err.msg.contains("nested deeper"), "{err}");
        // `a<a<…>>`: node contents nest like parentheses; `a<%z>` and
        // `a<>` open nothing.
        let nodes = |d: usize| format!("{}a{}", "a<".repeat(d), ">".repeat(d));
        assert!(parse_hre(&nodes(MAX_QUERY_NESTING), &mut ab).is_ok());
        let err = parse_hre(&nodes(MAX_QUERY_NESTING + 1), &mut ab).unwrap_err();
        assert_eq!(err.pos, 2 * MAX_QUERY_NESTING + 1, "at the '<' too many");
        assert!(parse_hre(
            &format!("({}a<%z>{})", "a<".repeat(255), ">".repeat(255)),
            &mut ab
        )
        .is_ok());
        // `a a … a`: two nodes per leaf, one per juxtaposition.
        let leaves = |k: usize| vec!["a"; k].join(" ");
        let at = (MAX_QUERY_STEPS + 1) / 3;
        assert!(parse_hre(&leaves(at), &mut ab).is_ok());
        let err = parse_hre(&leaves(at + 1), &mut ab).unwrap_err();
        assert!(err.msg.contains("larger than"), "{err}");
        // Postfix chains count too: `a+` doubles, `a*` adds one.
        assert!(parse_hre(&format!("a{}", "*".repeat(MAX_QUERY_STEPS - 2)), &mut ab).is_ok());
        assert!(parse_hre(&format!("a{}", "*".repeat(MAX_QUERY_STEPS - 1)), &mut ab).is_err());
        assert!(parse_hre(&format!("a{}", "+".repeat(11)), &mut ab).is_err());
        assert!(parse_hre("a+++", &mut ab).is_ok());
    }

    #[test]
    fn size_counts_nodes() {
        let mut ab = Alphabet::new();
        let e = parse_hre("a<b>|c*", &mut ab).unwrap();
        // Alt(Node(a, leaf b = Node(b, ε)), Star(leaf c)) →
        // 1 + (1 + (1 + 1)) + (1 + (1 + 1)) = 7
        assert_eq!(e.size(), 7);
    }

    #[test]
    fn nested_embed_rebinding() {
        // (d @z (b⟨z⟩ @z a⟨z⟩)): inner embed binds z for a⟨z⟩'s content to
        // b⟨z⟩, whose own z leaf is replaced by the *outer* binding d.
        check("d @z (b<%z> @z a<%z>)", "a<b<d>>", true);
        check("d @z (b<%z> @z a<%z>)", "a<b<%z>>", false);
        check("d @z (b<%z> @z a<%z>)", "a<d>", false);
    }
}
