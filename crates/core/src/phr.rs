//! Pointed hedge representations (Section 5, Definitions 16–19).
//!
//! A *pointed base hedge representation* is a triplet `(e₁, a, e₂)`: `e₁`
//! constrains the elder siblings (and their descendants), `a` the parent of
//! `η`, and `e₂` the younger siblings. A *pointed hedge representation* is a
//! regular expression over a finite set of such triplets; a pointed hedge
//! matches it when its unique decomposition into pointed base hedges
//! (bottom-up, Figure 2) spells a word the regular expression generates,
//! with each base hedge matching its triplet (Definition 19).
//!
//! When every `e₁`/`e₂` is the universal expression, a PHR degenerates into
//! a classical path expression — the special case Section 8 optimizes.
//!
//! This module is the *declarative* layer: the definition-level matcher used
//! as the executable specification. Linear-time evaluation lives in
//! `phr_compile` (Theorem 4) + `two_pass` (Algorithm 1).
//!
//! Concrete syntax: the regular grammar every query syntax shares
//! (`crate::syntax`) over triplets. The `e` slots use the HRE syntax of
//! [`crate::hre::parse_hre`] and are parsed in place; `;` and `]` end a
//! slot, and the name is the trimmed text up to the next `;`.
//!
//! ```text
//! atom := '[' e ';' name ';' e ']'    -- a triplet (e₁, a, e₂)
//!       | '(' phr ')'
//! ```
//!
//! A PHR has at most [`MAX_TRIPLETS`] triplets (Algorithm 1 keeps one
//! signature bit per triplet), and its regex is bounded like every query
//! parser's: [`MAX_QUERY_NESTING`] parentheses, [`MAX_QUERY_STEPS`] nodes.
//!
//! [`MAX_QUERY_NESTING`]: crate::hre::MAX_QUERY_NESTING
//! [`MAX_QUERY_STEPS`]: crate::hre::MAX_QUERY_STEPS

use hedgex_automata::{CharClass, Nfa, Regex};
use hedgex_hedge::{Alphabet, FlatHedge, NodeId, PointedHedge, SymId};

use crate::hre::{parse_hre_at, Hre, HreParseError};
use crate::syntax::{self, Cursor, Grammar, Parsed};

/// Most triplets a PHR may have: Algorithm 1 records which triplets a
/// node satisfies as one 64-bit signature.
pub const MAX_TRIPLETS: usize = 64;

/// A pointed base hedge representation `(e₁, a, e₂)` (Definition 16).
#[derive(Debug, Clone)]
pub struct Pbhr {
    /// Condition on elder siblings and their descendants.
    pub elder: Hre,
    /// The label of `η`'s parent.
    pub label: SymId,
    /// Condition on younger siblings and their descendants.
    pub younger: Hre,
}

/// Index of a triplet within a [`Phr`].
pub type TripletId = u32;

/// A pointed hedge representation (Definition 18): a regular expression
/// over a finite set of triplets.
#[derive(Debug, Clone)]
pub struct Phr {
    /// The triplet alphabet.
    pub triplets: Vec<Pbhr>,
    /// The regular expression over triplet indices. Reading order is the
    /// decomposition order: innermost base hedge first (Figure 2).
    pub regex: Regex<TripletId>,
}

impl Phr {
    /// Total structural size (triplet expressions plus the regex).
    pub fn size(&self) -> usize {
        self.regex.size()
            + self
                .triplets
                .iter()
                .map(|t| t.elder.size() + t.younger.size() + 1)
                .sum::<usize>()
    }

    /// Symbols every matching node has on its ancestor-or-self chain, or
    /// `None` when the regex denotes no triplet words at all: the
    /// structural walk [`Regex::required_letters`], a class forcing the
    /// label its triplets share. Sound for index pruning: each triplet of
    /// a match's decomposition is read at an ancestor-or-self carrying the
    /// triplet's label (Definition 19).
    pub fn required_syms(&self) -> Option<Vec<SymId>> {
        let shared_label = |c: &CharClass<TripletId>| {
            let CharClass::In(ids) = c else { return None };
            let mut labels = ids.iter().map(|&t| self.triplets[t as usize].label);
            let first = labels.next()?;
            labels.all(|a| a == first).then_some(first)
        };
        Some(
            self.regex
                .required_letters(&shared_label)?
                .into_iter()
                .collect(),
        )
    }

    /// Definition 17: does a pointed base hedge match triplet `t`?
    /// (Declarative; uses the HRE specification matcher.)
    pub fn base_matches(&self, t: TripletId, base: &hedgex_hedge::PointedBaseHedge) -> bool {
        let trip = &self.triplets[t as usize];
        base.label == trip.label
            && trip.elder.matches(&base.elder)
            && trip.younger.matches(&base.younger)
    }

    /// Definition 19: does a pointed hedge match this representation?
    ///
    /// Declarative evaluation: decompose, compute per-position candidate
    /// triplet sets, and simulate the regex's NFA over those choices.
    pub fn matches_pointed(&self, u: &PointedHedge) -> bool {
        let bases = match u.decompose() {
            Ok(b) => b,
            Err(_) => return false,
        };
        // Candidate triplets per decomposition position.
        let cands: Vec<Vec<TripletId>> = bases
            .iter()
            .map(|b| {
                (0..self.triplets.len() as TripletId)
                    .filter(|&t| self.base_matches(t, b))
                    .collect()
            })
            .collect();
        let nfa = Nfa::from_regex(&self.regex);
        let mut cur = nfa.eps_closure(&[nfa.start()]);
        for pos in &cands {
            let mut next = std::collections::BTreeSet::new();
            for &s in &cur {
                for (c, t) in nfa.transitions(s) {
                    if pos.iter().any(|tid| c.contains(tid)) {
                        next.insert(*t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            cur = nfa.eps_closure(&next.into_iter().collect::<Vec<_>>());
        }
        cur.iter().any(|&s| nfa.is_accepting(s))
    }

    /// Locate every node whose envelope matches this representation —
    /// the declarative (quadratic) evaluator used as the specification for
    /// Algorithm 1 and as the naive baseline in the benchmarks.
    pub fn locate_naive(&self, h: &FlatHedge) -> Vec<NodeId> {
        h.preorder()
            .filter(|&n| {
                matches!(h.label(n), hedgex_hedge::flat::FlatLabel::Sym(_))
                    && PointedHedge::new(h.envelope(n))
                        .map(|p| self.matches_pointed(&p))
                        .unwrap_or(false)
            })
            .collect()
    }
}

/// Parse the concrete PHR syntax (see module docs), interning names into
/// `ab`. A triplet past [`MAX_TRIPLETS`], or a regex nesting deeper than
/// [`MAX_QUERY_NESTING`] or larger than [`MAX_QUERY_STEPS`], is rejected
/// at the byte where it crosses the limit.
///
/// [`MAX_QUERY_NESTING`]: crate::hre::MAX_QUERY_NESTING
/// [`MAX_QUERY_STEPS`]: crate::hre::MAX_QUERY_STEPS
pub fn parse_phr(src: &str, ab: &mut Alphabet) -> Result<Phr, HreParseError> {
    let mut p = PhrSyntax {
        ab,
        triplets: Vec::new(),
    };
    let regex = syntax::parse(&mut p, &mut Cursor::new(src))?;
    Ok(Phr {
        triplets: p.triplets,
        regex,
    })
}

/// The shared grammar over one atom, a triplet.
struct PhrSyntax<'b> {
    ab: &'b mut Alphabet,
    triplets: Vec<Pbhr>,
}

impl Grammar for PhrSyntax<'_> {
    type Expr = Regex<TripletId>;

    fn ends_seq(&self, c: char) -> bool {
        !matches!(c, '[' | '(')
    }

    fn atom(&mut self, cur: &mut Cursor<'_>) -> Parsed<Self::Expr> {
        match cur.peek() {
            Some('(') => syntax::group(self, cur),
            Some('[') => {
                if self.triplets.len() == MAX_TRIPLETS {
                    return Err(cur.err(format!("more than {MAX_TRIPLETS} triplets")));
                }
                cur.bump();
                let elder = self.slot(cur, ';')?;
                let Some(len) = cur.src[cur.pos..].find(';') else {
                    cur.pos = cur.src.len();
                    return Err(cur.err("expected ';'"));
                };
                let label = self.ab.sym(cur.src[cur.pos..cur.pos + len].trim());
                cur.pos += len + 1;
                let younger = self.slot(cur, ']')?;
                let id = self.triplets.len() as TripletId;
                self.triplets.push(Pbhr {
                    elder,
                    label,
                    younger,
                });
                Ok((Regex::sym(id), 1))
            }
            _ => Err(cur.err("expected '[' or '('")),
        }
    }
}

impl PhrSyntax<'_> {
    /// A triplet's HRE slot and the `close` after it. The slot ends at the
    /// first `;` or `]` (no name contains either) and has its own nesting
    /// and size budget.
    fn slot(&mut self, cur: &mut Cursor<'_>, close: char) -> Result<Hre, HreParseError> {
        let e = cur.within(";]", |cur| parse_hre_at(cur, self.ab))?;
        if !cur.eat(close) {
            return Err(cur.err(format!("expected '{close}'")));
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hre::{parse_hre, MAX_QUERY_NESTING, MAX_QUERY_STEPS};
    use hedgex_hedge::parse_hedge;

    fn pointed(src: &str, ab: &mut Alphabet) -> PointedHedge {
        PointedHedge::new(parse_hedge(src, ab).unwrap()).unwrap()
    }

    #[test]
    fn parse_single_triplet() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a<%z>*^z ; b ; a<%z>*^z]", &mut ab).unwrap();
        assert_eq!(phr.triplets.len(), 1);
        assert_eq!(phr.triplets[0].label, ab.get_sym("b").unwrap());
    }

    #[test]
    fn graded_bounds_inside_triplets_slice_cleanly() {
        // The '>' in `{>=2}` is a comparison sign, not a closing bracket;
        // the slot must still end at its ';' and ']'.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a{>=2} ; b ; (a|b){<=1}]", &mut ab).unwrap();
        assert_eq!(phr.triplets.len(), 1);
        assert_eq!(phr.triplets[0].label, ab.get_sym("b").unwrap());
        let h = parse_hedge("a a b a", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(phr.locate_naive(&f), vec![2]);
    }

    #[test]
    fn paper_example_pointed_base_match() {
        // (a⟨z⟩*^z, b, a⟨z⟩*^z): parent of η is b, everything else is a.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a<%z>*^z ; b ; a<%z>*^z]", &mut ab).unwrap();
        assert!(phr.matches_pointed(&pointed("a b<%η> a<a>", &mut ab)));
        assert!(phr.matches_pointed(&pointed("b<%η>", &mut ab)));
        assert!(!phr.matches_pointed(&pointed("c b<%η>", &mut ab)));
        // Parent must be b.
        assert!(!phr.matches_pointed(&pointed("a<%η>", &mut ab)));
        // Deeper than one base hedge: regex has length exactly 1.
        assert!(!phr.matches_pointed(&pointed("b<b<%η>>", &mut ab)));
    }

    #[test]
    fn paper_example_starred() {
        // (a⟨z⟩*^z, b, a⟨z⟩*^z)*: parent and all ancestors are b, all other
        // nodes are a (Section 5's worked example).
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a<%z>*^z ; b ; a<%z>*^z]*", &mut ab).unwrap();
        assert!(phr.matches_pointed(&pointed("b<%η>", &mut ab)));
        assert!(phr.matches_pointed(&pointed("b<b<%η>>", &mut ab)));
        assert!(phr.matches_pointed(&pointed("a b<a b<%η> a<a>> a", &mut ab)));
        assert!(!phr.matches_pointed(&pointed("a<b<%η>>", &mut ab)));
        assert!(!phr.matches_pointed(&pointed("b<b<%η> b>", &mut ab)));
    }

    #[test]
    fn definition_22_example() {
        // e₂ = (ε, a, b)(b, a, ε) matches the envelope of the first
        // second-level node of b a⟨a⟨bx⟩b⟩.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let located = phr.locate_naive(&f);
        assert_eq!(located, vec![2]);
    }

    #[test]
    fn locate_naive_multiple_matches() {
        // Locate every figure under a section: [.*; figure; .*] at depth 2
        // below sections… keep it simple: (U, fig, U)(U, sec, U) with U
        // universal over {sec, fig}.
        let mut ab = Alphabet::new();
        let u = "(sec<%z>|fig<%z>)*^z";
        let phr = parse_phr(&format!("[{u} ; fig ; {u}][{u} ; sec ; {u}]"), &mut ab).unwrap();
        let h = parse_hedge("sec<fig fig<fig>> sec<sec<fig>> fig", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let located = phr.locate_naive(&f);
        // figs directly under a top-level sec: nodes 1 and 2? Node ids:
        // 0=sec, 1=fig, 2=fig, 3=fig(child of 2), 4=sec, 5=sec, 6=fig, 7=fig(top).
        assert_eq!(located, vec![1, 2]);
    }

    #[test]
    fn alternation_and_closure_in_phr() {
        let mut ab = Alphabet::new();
        // η's parent is b, then any number of a or b ancestors.
        let u = "(a<%z>|b<%z>)*^z";
        let phr = parse_phr(
            &format!("[{u} ; b ; {u}]([{u} ; a ; {u}]|[{u} ; b ; {u}])*"),
            &mut ab,
        )
        .unwrap();
        assert!(phr.matches_pointed(&pointed("b<%η>", &mut ab)));
        assert!(phr.matches_pointed(&pointed("a<b<%η>>", &mut ab)));
        assert!(phr.matches_pointed(&pointed("b<a<b<%η> a> b>", &mut ab)));
        assert!(!phr.matches_pointed(&pointed("a<%η>", &mut ab)));
    }

    #[test]
    fn sibling_conditions_matter() {
        // η's parent is a; exactly one elder sibling b; no younger siblings.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[b ; a ; ε]", &mut ab).unwrap();
        assert!(phr.matches_pointed(&pointed("b a<%η>", &mut ab)));
        assert!(!phr.matches_pointed(&pointed("a<%η>", &mut ab)));
        assert!(!phr.matches_pointed(&pointed("b a<%η> b", &mut ab)));
        assert!(!phr.matches_pointed(&pointed("b b a<%η>", &mut ab)));
        // Elder sibling's *descendants* are constrained too.
        assert!(!phr.matches_pointed(&pointed("b<c> a<%η>", &mut ab)));
    }

    #[test]
    fn parse_errors() {
        let mut ab = Alphabet::new();
        assert!(parse_phr("[a ; b", &mut ab).is_err());
        assert!(parse_phr("[a ; b ; c] extra", &mut ab).is_err());
        assert!(parse_phr("*", &mut ab).is_err());
        assert!(parse_phr("(", &mut ab).is_err());
    }

    #[test]
    fn slot_errors_are_positioned_in_the_whole_text() {
        let mut ab = Alphabet::new();
        let err = parse_phr("[ε ; b ; a{>=x}]", &mut ab).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at byte 14: expected a number in graded bound"
        );
        // The elder slot ends at its ';', so the '<' is unclosed there.
        let err = parse_phr("[a< ; b ; ε]", &mut ab).unwrap_err();
        assert_eq!(
            (err.pos, err.msg.as_str()),
            (4, "unclosed '<' for node 'a'")
        );
        let err = parse_phr("[(a ; b ; ε]", &mut ab).unwrap_err();
        assert_eq!((err.pos, err.msg.as_str()), (4, "expected ')'"));
        let err = parse_phr("[ε ; b ; a > c]", &mut ab).unwrap_err();
        assert_eq!((err.pos, err.msg.as_str()), (12, "trailing input"));
    }

    #[test]
    fn semicolon_and_bracket_always_end_a_slot() {
        // No name holds ';' or ']', so inside a slot they end it, even
        // within `<…>` or `(…)`; a bare HRE still reads them as name
        // characters.
        let mut ab = Alphabet::new();
        assert!(parse_phr("[a<b;c> ; d ; ε]", &mut ab).is_err());
        assert!(parse_phr("[ε ; d ; (a ] b)]", &mut ab).is_err());
        assert!(parse_phr("[a;b ; c ; d]", &mut ab).is_err());
        assert!(parse_hre("a<b;c> (a ] b)", &mut ab).is_ok());
        // The label is the trimmed text up to the next ';'.
        let phr = parse_phr("[ε ;  x y  ; ε]", &mut ab).unwrap();
        assert_eq!(ab.sym_name(phr.triplets[0].label), "x y");
    }

    #[test]
    fn query_size_limits_are_positioned_errors() {
        let mut ab = Alphabet::new();
        let triplets = |k: usize| "[ε ; a ; ε]".repeat(k);
        assert_eq!(
            parse_phr(&triplets(MAX_TRIPLETS), &mut ab)
                .unwrap()
                .triplets
                .len(),
            64
        );
        let err = parse_phr(&triplets(MAX_TRIPLETS + 1), &mut ab).unwrap_err();
        assert_eq!(
            err.pos,
            MAX_TRIPLETS * "[ε ; a ; ε]".len(),
            "at the '[' too many"
        );
        assert!(err.msg.contains("triplets"), "{err}");
        let nested = |d: usize| format!("{}[ε ; a ; ε]{}", "(".repeat(d), ")".repeat(d));
        assert!(parse_phr(&nested(MAX_QUERY_NESTING), &mut ab).is_ok());
        let err = parse_phr(&nested(MAX_QUERY_NESTING + 1), &mut ab).unwrap_err();
        assert_eq!(err.pos, MAX_QUERY_NESTING, "at the first '(' too many");
        // One triplet reused under postfix operators: one node each.
        let starred = |k: usize| format!("[ε ; a ; ε]{}", "?".repeat(k));
        assert!(parse_phr(&starred(MAX_QUERY_STEPS - 1), &mut ab).is_ok());
        let err = parse_phr(&starred(MAX_QUERY_STEPS), &mut ab).unwrap_err();
        assert!(err.msg.contains("larger than"), "{err}");
        // The triplets' own HREs are bounded by `parse_hre`.
        let deep = format!("[{}a{} ; a ; ε]", "(".repeat(300), ")".repeat(300));
        assert!(parse_phr(&deep, &mut ab).is_err());
    }

    #[test]
    fn required_syms_follow_the_triplet_labels() {
        let mut ab = Alphabet::new();
        let (a, b) = (ab.sym("a"), ab.sym("b"));
        let req = |src: &str, ab: &mut Alphabet| parse_phr(src, ab).unwrap().required_syms();
        assert_eq!(req("[ε ; a ; b][b ; a ; ε]", &mut ab), Some(vec![a]));
        assert_eq!(req("[ε ; a ; ε][ε ; b ; ε]*", &mut ab), Some(vec![a]));
        assert_eq!(
            req("[ε ; b ; ε]([ε ; a ; ε]|[b ; a ; b])", &mut ab),
            Some(vec![a, b])
        );
        assert_eq!(req("([ε ; a ; ε]|[ε ; b ; ε])", &mut ab), Some(vec![]));
        assert_eq!(req("[ε ; a ; ε]?", &mut ab), Some(vec![]));
        let empty = Phr {
            triplets: Vec::new(),
            regex: Regex::Empty,
        };
        assert_eq!(empty.required_syms(), None);
    }

    #[test]
    fn size_accounts_for_triplets() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a ; b ; a]*", &mut ab).unwrap();
        assert!(phr.size() > 4);
    }
}
