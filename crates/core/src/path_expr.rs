//! Classical path expressions and Section 8's simplified construction.
//!
//! A path expression is a regular expression over node conditions read
//! *root-to-node* — the paper's `(section*, figure)` example. As Section 5
//! observes, it is exactly a pointed hedge representation whose elder and
//! younger conditions are all universal; and as Section 8's closing
//! construction shows, in that degenerate case the whole `(Q*/≡) × Σ ×
//! (Q*/≡)` machinery collapses: `≡` has a single class, `Σ` suffices as the
//! alphabet, and the match-identifying automaton shrinks to
//! `(S × Σ) ∪ {⊥}` states.
//!
//! This module provides the direct evaluator (one top-down traversal), its
//! compiled form [`CompiledPath`] (the path backend of
//! [`Plan`](crate::Plan)), the embedding into PHRs (for the E8 ablation
//! benchmark and the tests' differential checks), and the simplified
//! match-identifying NHA.
//!
//! Concrete syntax: the regular grammar every query syntax shares
//! (`crate::syntax`) over names, e.g. `sec* fig`, `(chap|app) sec fig?`.
//! Query text is bounded: at most [`MAX_QUERY_NESTING`] open parentheses
//! and [`MAX_QUERY_STEPS`] regex nodes, so no query can exhaust the stack
//! of the recursive regex algorithms downstream.
//!
//! [`MAX_QUERY_NESTING`]: crate::hre::MAX_QUERY_NESTING
//! [`MAX_QUERY_STEPS`]: crate::hre::MAX_QUERY_STEPS

use std::collections::HashMap;

use hedgex_automata::{reach, CharClass, DenseDfa, Dfa, Nfa, Regex, StateId};
use hedgex_ha::{HState, LangId, Leaf, Nha};
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{Alphabet, FlatHedge, NodeId, SubId, SymId, VarId};
use hedgex_obs as obs;

use crate::hre::{Hre, HreParseError};
use crate::phr::{Pbhr, Phr};
use crate::syntax::{self, Cursor, Grammar, Parsed};
use crate::two_pass::{
    next_in_group, EvalMode, EvalOutcome, EvalScratch, GateCursor, ModeSink, PruneInfo,
};

/// A classical path expression: a regular expression over Σ, read from the
/// root down to the located node (inclusive).
#[derive(Debug, Clone)]
pub struct PathExpr {
    /// The top-down regex.
    pub regex: Regex<SymId>,
}

impl PathExpr {
    /// Locate all matching nodes with a single top-down traversal: a node
    /// is located iff the DFA accepts the label path from its top-level
    /// ancestor down to itself.
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        let dfa = Nfa::from_regex(&self.regex).to_dfa();
        // Compile against every label up to the largest that occurs.
        let letters = h
            .preorder()
            .filter_map(|n| match h.label(n) {
                FlatLabel::Sym(a) => Some(a.0 + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let labels: Vec<SymId> = (0..letters).map(SymId).collect();
        let dense = DenseDfa::compile(&dfa, &labels);
        let mut located = Vec::new();
        let mut state: Vec<u32> = vec![0; h.num_nodes()];
        for n in h.preorder() {
            let FlatLabel::Sym(a) = h.label(n) else {
                continue;
            };
            let from = match h.parent(n) {
                None => dense.start(),
                Some(p) => state[p as usize],
            };
            let s = dense.step(from, a.0);
            state[n as usize] = s;
            if dense.is_accepting(s) {
                located.push(n);
            }
        }
        located
    }

    /// Embed into a pointed hedge representation with universal sibling
    /// conditions (one triplet per Σ symbol, regex mirrored into the
    /// bottom-up decomposition order). `sigma`/`vars` is the document
    /// alphabet the universal expressions must cover; `z` is a scratch
    /// substitution symbol.
    pub fn to_phr(&self, sigma: &[SymId], vars: &[VarId], z: SubId) -> Phr {
        let universal = Hre::universal(sigma, vars, z);
        let triplets: Vec<Pbhr> = sigma
            .iter()
            .map(|&a| Pbhr {
                elder: universal.clone(),
                label: a,
                younger: universal.clone(),
            })
            .collect();
        let idx: HashMap<SymId, u32> = sigma
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();
        // Path regexes are top-down; PHR decomposition order is bottom-up.
        let regex = self
            .regex
            .reverse()
            .substitute(&mut |c: &CharClass<SymId>| {
                Regex::any_of(
                    sigma
                        .iter()
                        .filter(|a| c.contains(a))
                        .map(|a| Regex::sym(idx[a])),
                )
            });
        Phr { triplets, regex }
    }

    /// Symbols that appear on *every* root-to-node path the expression
    /// accepts, or `None` when the expression denotes no paths at all: the
    /// structural walk [`Regex::required_letters`], a singleton class
    /// forcing its symbol. Sound for index pruning: every located node's
    /// ancestor chain spells an accepted word, so a document lacking a
    /// required symbol cannot contain a match.
    pub fn required_syms(&self) -> Option<Vec<SymId>> {
        Some(
            self.regex
                .required_letters(&|c| c.single().copied())?
                .into_iter()
                .collect(),
        )
    }

    /// Section 8's simplified match-identifying automaton for path
    /// expressions: states `(S × Σ) ∪ {⊥}`, no equivalence classes.
    pub fn match_identifying_nha(&self, sigma: &[SymId], vars: &[VarId]) -> PathMarkUp {
        let n: Dfa<SymId> = Nfa::from_regex(&self.regex).to_dfa();
        let ns = n.num_states() as u32;
        let mut sigma = sigma.to_vec();
        sigma.sort();
        sigma.dedup();
        let na = sigma.len() as u32;
        // Id 0 = ⊥; then 1 + s·|Σ| + a.
        let triple = |s: u32, ai: u32| 1 + s * na + ai;
        let num_states = 1 + ns * na;

        let mut iota: HashMap<Leaf, Vec<HState>> = HashMap::new();
        for &x in vars {
            iota.insert(Leaf::Var(x), vec![0]);
        }

        // Allowed children of a node in N-state s: ⊥ or (μ(s, a'), a').
        let allowed = |s: u32| -> Regex<HState> {
            let mut ids: Vec<HState> = vec![0];
            for (ai, &a) in sigma.iter().enumerate() {
                ids.push(triple(n.step(s, &a), ai as u32));
            }
            Regex::class(CharClass::of(ids)).star()
        };

        // The allowed-children language depends on s only: one per N-state,
        // shared by every symbol.
        let langs: Vec<Dfa<HState>> = (0..ns)
            .map(|s| Nfa::from_regex(&allowed(s)).to_dfa())
            .collect();
        let mut rules: HashMap<SymId, Vec<(LangId, HState)>> = HashMap::new();
        for (ai, &a) in sigma.iter().enumerate() {
            for s in 0..ns {
                rules
                    .entry(a)
                    .or_default()
                    .push((s as LangId, triple(s, ai as u32)));
            }
        }
        let finals = Nfa::from_regex(&allowed(n.start()));
        let marked: Vec<bool> = (0..num_states)
            .map(|id| {
                if id == 0 {
                    false
                } else {
                    n.is_accepting((id - 1) / na)
                }
            })
            .collect();
        PathMarkUp {
            nha: Nha::from_parts(num_states, iota, langs, rules, finals),
            marked,
        }
    }
}

/// A path expression's DFA compiled once against an alphabet: the §8
/// backend of [`Plan::path`](crate::Plan::path) and the engine inside the
/// streaming `PathStream`.
///
/// The [`DenseDfa`]'s letters are the symbols interned at compile time,
/// by [`SymId`]; every later symbol takes the co-finite column (the query
/// cannot mention those, so they step like any name it does not mention).
/// Stepping a node is one array load.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    dfa: DenseDfa,
    /// Labels that step some reachable state into an accepting one;
    /// `None` when the co-finite column does.
    match_syms: Option<Vec<SymId>>,
}

impl CompiledPath {
    /// Determinize `path` and tabulate it over the symbols of `ab`.
    pub fn compile(path: &PathExpr, ab: &Alphabet) -> CompiledPath {
        let _span = obs::span("core.path_compile");
        let syms: Vec<SymId> = ab.syms().collect();
        let dfa = DenseDfa::compile(&Nfa::from_regex(&path.regex).to_dfa(), &syms);
        let n = dfa.num_states();
        let reached = reach(n, [dfa.start()], |q| dfa.row(q).iter().copied());
        let accepts_on = |col: u32| {
            (0..n as StateId).any(|q| reached[q as usize] && dfa.is_accepting(dfa.step(q, col)))
        };
        let match_syms = (!accepts_on(u32::MAX)).then(|| {
            (0..syms.len() as u32)
                .filter(|&a| accepts_on(a))
                .map(SymId)
                .collect()
        });
        obs::counter_add("core.path_compile.states", n as u64);
        CompiledPath { dfa, match_syms }
    }

    /// Number of DFA states.
    pub fn num_states(&self) -> usize {
        self.dfa.num_states()
    }

    /// The start state (the state "above" a top-level node).
    pub fn start(&self) -> StateId {
        self.dfa.start()
    }

    /// Successor of `q` on label `a`.
    #[inline]
    pub fn step(&self, q: StateId, a: SymId) -> StateId {
        self.dfa.step(q, a.0)
    }

    /// Is a node in state `q` located?
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.dfa.is_accepting(q)
    }

    /// The labels a located node can carry (`None` = no finite bound).
    pub(crate) fn match_syms(&self) -> Option<Vec<SymId>> {
        self.match_syms.clone()
    }

    /// Algorithm 1's three modes over the top-down DFA: one depth-first
    /// walk in document order that steps each visited Σ node once and
    /// never descends below a dead state, reporting accepting nodes to a
    /// [`ModeSink`] — Locate leaves the matches in `scratch.located()`,
    /// Count tallies, Exists returns at the first hit.
    ///
    /// With a `gate` (a store's index, see [`PruneInfo`]) a subtree whose
    /// range holds no candidate is skipped too; the second value counts
    /// those subtrees. The gate is the PHR walk's [`GateCursor`].
    pub(crate) fn eval_into(
        &self,
        h: &FlatHedge,
        gate: Option<&PruneInfo<'_>>,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> (EvalOutcome, u64) {
        let _span = obs::span("core.path_eval");
        match gate {
            None => (self.walk(h, |_| true, scratch, mode), 0),
            Some(prune) => {
                let mut gate = GateCursor::new(prune, h);
                let outcome = self.walk(h, |id| gate.admits(id), scratch, mode);
                (outcome, gate.skipped)
            }
        }
    }

    /// The walk behind [`CompiledPath::eval_into`], monomorphized per gate.
    fn walk(
        &self,
        h: &FlatHedge,
        mut admits: impl FnMut(NodeId) -> bool,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> EvalOutcome {
        let EvalScratch { located, stack, .. } = scratch;
        let mut sink = ModeSink::new(mode, located);
        let ends = h.subtree_ends();
        stack.clear();
        stack.push((0, h.num_nodes() as NodeId, self.start()));
        // One stack entry per open level: the rest of a sibling group and
        // its parent's state, so the walk is preorder.
        while let Some((id, from)) = next_in_group(stack, ends) {
            if !admits(id) {
                continue;
            }
            let FlatLabel::Sym(a) = h.label(id) else {
                continue;
            };
            let s = self.step(from, a);
            if self.dfa.is_accepting(s) && sink.hit(id) {
                break;
            }
            let end = ends[id as usize];
            if self.dfa.is_live(s) && id + 1 < end {
                stack.push((id + 1, end, s));
            }
        }
        let outcome = sink.outcome();
        obs::counter_add("core.path_eval.located", outcome.matched());
        outcome
    }
}

/// The simplified match-identifying automaton of Section 8's last display.
pub struct PathMarkUp {
    /// The automaton; accepts every hedge over its alphabet, one successful
    /// computation each.
    pub nha: Nha,
    /// Marked states `S_fin × Σ`.
    pub marked: Vec<bool>,
}

impl PathMarkUp {
    /// Locate via constrained acceptance (test/verification path; linear
    /// evaluation is [`PathExpr::locate`]).
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        h.preorder()
            .filter(|&n| {
                matches!(h.label(n), FlatLabel::Sym(_))
                    && self
                        .nha
                        .accepts_flat_filtered(h, &|id, q| id != n || self.marked[q as usize])
            })
            .collect()
    }
}

/// Parse a path expression (HRE-style regex over bare names; `$`, `<`, `%`
/// are not allowed). Queries nesting deeper than [`MAX_QUERY_NESTING`] or
/// larger than [`MAX_QUERY_STEPS`] are rejected at the byte where they
/// cross the limit.
///
/// [`MAX_QUERY_NESTING`]: crate::hre::MAX_QUERY_NESTING
/// [`MAX_QUERY_STEPS`]: crate::hre::MAX_QUERY_STEPS
pub fn parse_path(src: &str, ab: &mut Alphabet) -> Result<PathExpr, HreParseError> {
    let regex = syntax::parse(&mut PathSyntax { ab }, &mut Cursor::new(src))?;
    Ok(PathExpr { regex })
}

/// The shared grammar over one atom, a name.
struct PathSyntax<'b> {
    ab: &'b mut Alphabet,
}

impl Grammar for PathSyntax<'_> {
    type Expr = Regex<SymId>;

    fn ends_seq(&self, c: char) -> bool {
        matches!(c, ')' | '|')
    }

    fn atom(&mut self, cur: &mut Cursor<'_>) -> Parsed<Self::Expr> {
        match cur.peek() {
            Some('(') => syntax::group(self, cur),
            Some(c) if !"|*+?)".contains(c) => {
                Ok((Regex::sym(self.ab.sym(cur.ident("()|*+?")?)), 1))
            }
            _ => Err(cur.err("expected an atom")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hre::{MAX_QUERY_NESTING, MAX_QUERY_STEPS};
    use crate::phr_compile::CompiledPhr;
    use crate::two_pass;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::parse_hedge;

    #[test]
    fn paper_intro_example() {
        // (section*, figure): figures at any section depth.
        let mut ab = Alphabet::new();
        let p = parse_path("sec* fig", &mut ab).unwrap();
        let h = parse_hedge("sec<fig sec<fig> par> fig par<fig>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        // Nodes: 0 sec, 1 fig✓, 2 sec, 3 fig✓, 4 par, 5 fig✓(top), 6 par,
        // 7 fig✗ (under par).
        assert_eq!(p.locate(&f), vec![1, 3, 5]);
    }

    #[test]
    fn path_as_phr_agrees_with_direct() {
        let mut ab = Alphabet::new();
        let p = parse_path("a* b", &mut ab).unwrap();
        ab.sym("c");
        let z = ab.sub("zz");
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let phr = p.to_phr(&syms, &vars, z);
        let compiled = CompiledPhr::compile(&phr);
        for h in enumerate_hedges(&syms, &[], 5) {
            let f = FlatHedge::from_hedge(&h);
            assert_eq!(
                two_pass::locate(&compiled, &f),
                p.locate(&f),
                "PHR embedding disagrees on {h:?}"
            );
        }
    }

    #[test]
    fn simplified_mark_up_agrees_with_direct() {
        let mut ab = Alphabet::new();
        let p = parse_path("(a|b)* b", &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let mu = p.match_identifying_nha(&syms, &vars);
        for h in enumerate_hedges(&syms, &vars, 4) {
            let f = FlatHedge::from_hedge(&h);
            assert!(mu.nha.accepts_flat(&f), "must accept {h:?}");
            assert_eq!(mu.locate(&f), p.locate(&f), "marking disagrees on {h:?}");
        }
    }

    #[test]
    fn xpath_inexpressible_example() {
        // Section 2: `a*` ("all ancestors are a, node is a") is a path
        // expression here even though XPath cannot express it.
        let mut ab = Alphabet::new();
        let p = parse_path("a* a", &mut ab).unwrap();
        let h = parse_hedge("a<a<a> b<a>> b<a>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(p.locate(&f), vec![0, 1, 2]);
    }

    #[test]
    fn alternation_and_opt() {
        let mut ab = Alphabet::new();
        let p = parse_path("(a|b) c?", &mut ab).unwrap();
        let h = parse_hedge("a<c> b c<c>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        // a(0)✓, c under a(1)✓, b(2)✓, c(3)✗ top-level, c(4)✗ under c.
        assert_eq!(p.locate(&f), vec![0, 1, 2]);
    }

    #[test]
    fn parse_errors() {
        let mut ab = Alphabet::new();
        assert!(parse_path("(a", &mut ab).is_err());
        assert!(parse_path("*", &mut ab).is_err());
        assert!(parse_path("a)", &mut ab).is_err());
    }

    #[test]
    fn query_size_limits_are_positioned_errors() {
        let mut ab = Alphabet::new();
        let nested = |d: usize| format!("{}a{}", "(".repeat(d), ")".repeat(d));
        assert!(parse_path(&nested(MAX_QUERY_NESTING), &mut ab).is_ok());
        let err = parse_path(&nested(MAX_QUERY_NESTING + 1), &mut ab).unwrap_err();
        assert_eq!(err.pos, MAX_QUERY_NESTING, "at the first '(' too many");
        // `a a … a*`: one node per name and per juxtaposition, one per star.
        let names = |k: usize| format!("{}a*", "a ".repeat(k - 1));
        assert!(parse_path(&names(MAX_QUERY_STEPS / 2), &mut ab).is_ok());
        let err = parse_path(&names(MAX_QUERY_STEPS / 2 + 1), &mut ab).unwrap_err();
        assert!(err.msg.contains("steps"), "{err}");
        // Postfix chains count too: `a+` doubles, `a?` adds one.
        assert!(parse_path(&format!("a{}", "?".repeat(MAX_QUERY_STEPS)), &mut ab).is_err());
        assert!(parse_path(&format!("a{}", "+".repeat(12)), &mut ab).is_err());
        assert!(parse_path("a+++", &mut ab).is_ok());
    }

    /// Every compiled mode against the reference evaluator, with and
    /// without an all-nodes gate, on every small hedge.
    #[test]
    fn compiled_path_agrees_with_locate() {
        for src in ["a* b", "(a|b)* b", "a b? a", "b", "(a b)* a"] {
            let mut ab = Alphabet::new();
            let p = parse_path(src, &mut ab).unwrap();
            let syms: Vec<_> = ab.syms().collect();
            let compiled = CompiledPath::compile(&p, &ab);
            let mut scratch = EvalScratch::new();
            for h in enumerate_hedges(&syms, &[], 5) {
                let f = FlatHedge::from_hedge(&h);
                let want = p.locate(&f);
                let all: Vec<NodeId> = f.preorder().collect();
                let gate = PruneInfo { candidates: &all };
                for g in [None, Some(&gate)] {
                    let (out, _) = compiled.eval_into(&f, g, &mut scratch, EvalMode::Locate);
                    assert_eq!(out, EvalOutcome::Located(want.len()), "{src} {h:?}");
                    assert_eq!(scratch.located(), &want[..], "{src} {h:?}");
                    let (out, _) = compiled.eval_into(&f, g, &mut scratch, EvalMode::Count);
                    assert_eq!(out, EvalOutcome::Count(want.len() as u64));
                    let (out, _) = compiled.eval_into(&f, g, &mut scratch, EvalMode::Exists);
                    assert_eq!(out, EvalOutcome::Exists(!want.is_empty()));
                }
            }
        }
    }

    #[test]
    fn compiled_path_bounds_accepting_labels() {
        let mut ab = Alphabet::new();
        let p = parse_path("a* (b|c)", &mut ab).unwrap();
        ab.sym("d");
        let compiled = CompiledPath::compile(&p, &ab);
        let (b, c) = (ab.get_sym("b").unwrap(), ab.get_sym("c").unwrap());
        assert_eq!(compiled.match_syms(), Some(vec![b, c]));
        // Symbols interned after compile take the co-finite column.
        let e = ab.sym("e");
        assert!(!compiled.is_accepting(compiled.step(compiled.start(), e)));
    }

    #[test]
    fn required_syms_skip_starred_and_alternated_steps() {
        let mut ab = Alphabet::new();
        let (a, b, c) = (ab.sym("a"), ab.sym("b"), ab.sym("c"));
        let req = |src: &str, ab: &mut Alphabet| parse_path(src, ab).unwrap().required_syms();
        assert_eq!(req("a b* c", &mut ab), Some(vec![a, c]));
        assert_eq!(req("a b c", &mut ab), Some(vec![a, b, c]));
        assert_eq!(req("(a|b) c", &mut ab), Some(vec![c]));
        assert_eq!(req("(a c|c a)", &mut ab), Some(vec![a, c]));
        assert_eq!(req("a?", &mut ab), Some(vec![]));
        assert_eq!(req("b b*", &mut ab), Some(vec![b]));
        assert_eq!(
            PathExpr {
                regex: Regex::Empty
            }
            .required_syms(),
            None,
            "the empty path language requires everything"
        );
    }
}
