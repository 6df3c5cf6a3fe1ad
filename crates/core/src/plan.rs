//! The compile-once / run-many contract: immutable, shareable query plans
//! that carry the facts they derive about themselves.
//!
//! [`CompiledPhr::compile`] is exponential-time preprocessing (Section 7);
//! evaluation is linear per hedge. The engine layer makes that split
//! explicit: a [`Plan`] wraps a finished [`CompiledPhr`] — or, for a
//! classical path expression, Section 8's compiled top-down DFA
//! ([`CompiledPath`]) — behind an `Arc` (cloning is a reference-count
//! bump, and the dense tables are `Sync`, so one plan can serve any number
//! of threads). Compile once and hold the plan: every mode, every worker
//! and every stored document run from the same one.
//!
//! Both constructors attach [`PlanFacts`] read straight off the query's
//! regular expression ([`Regex::required_letters`](hedgex_automata::Regex::required_letters)):
//! the labels every match needs, or a proof that the query matches
//! nothing. That walk is linear in the query; the static analyzer's
//! stronger facts stay available through [`Plan::with_facts`].

use std::sync::Arc;

use hedgex_hedge::{Alphabet, FlatHedge, NodeId, SymId};
use hedgex_obs as obs;

use crate::path_expr::{CompiledPath, PathExpr};
use crate::phr::Phr;
use crate::phr_compile::CompiledPhr;
use crate::two_pass::{self, EvalMode, EvalOutcome, EvalScratch};

/// Sound facts about a query's behaviour on every document, carried by a
/// [`Plan`]. Each constructor derives them from the query itself;
/// [`Plan::with_facts`] replaces them with the static analyzer's (the
/// `analyze` crate). The default claims nothing.
///
/// A plan whose query is provably empty answers every mode without
/// touching the document, and `required_syms` lists symbols every matching
/// document must contain (a sound prefilter for an index).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanFacts {
    /// The query matches nothing on any document (or on any document of
    /// the schema it was analyzed against).
    pub known_empty: bool,
    /// Human-readable reason when `known_empty`.
    pub why_empty: Option<String>,
    /// Symbols present in every document with at least one match.
    pub required_syms: Vec<SymId>,
}

impl PlanFacts {
    /// Facts from a structural required-symbol walk: its symbols, or
    /// `known_empty` (for `why`) when it found the empty language.
    fn structural(required: Option<Vec<SymId>>, why: &str) -> PlanFacts {
        match required {
            Some(required_syms) => PlanFacts {
                required_syms,
                ..PlanFacts::default()
            },
            None => PlanFacts {
                known_empty: true,
                why_empty: Some(why.into()),
                ..PlanFacts::default()
            },
        }
    }
}

/// An immutable, shareable execution plan for a PHR or a classical path
/// expression.
///
/// `Clone` is cheap (an `Arc` bump); all evaluation state lives in a
/// caller-owned [`EvalScratch`], so one plan may be used from many threads
/// at once. Every entry point — the three modes, the index-pruned run,
/// [`Plan::match_syms`] — serves both backends, so the worker pool and the
/// store never ask which one they hold; only a report sizing the automata
/// or a streaming sink reads [`Plan::backend`].
#[derive(Clone)]
pub struct Plan {
    backend: Backend,
    facts: Arc<PlanFacts>,
}

/// What a plan evaluates with.
#[derive(Clone)]
pub enum Backend {
    /// Algorithm 1 over a compiled PHR (Section 7).
    Phr(Arc<CompiledPhr>),
    /// The top-down DFA of a classical path expression (Section 8).
    Path(Arc<CompiledPath>),
}

impl Plan {
    /// Compile a PHR into a plan carrying its structural facts: the labels
    /// [`Phr::required_syms`] finds, or `known_empty` when the regex over
    /// triplets denotes no words at all.
    pub fn compile(phr: &Phr) -> Plan {
        let facts = PlanFacts::structural(phr.required_syms(), "PHR denotes no triplet words");
        Plan::from_compiled(CompiledPhr::compile(phr)).with_facts(facts)
    }

    /// Wrap an already-compiled PHR. The plan claims no facts.
    pub fn from_compiled(compiled: CompiledPhr) -> Plan {
        Plan {
            backend: Backend::Phr(Arc::new(compiled)),
            facts: Arc::default(),
        }
    }

    /// Compile a classical path expression into a plan on the §8 DFA,
    /// tabulated over the symbols of `ab` (symbols interned later take the
    /// co-finite column). The plan carries the path's structural facts: its
    /// required symbols, or `known_empty` when it denotes no paths at all.
    pub fn path(path: &PathExpr, ab: &Alphabet) -> Plan {
        let facts = PlanFacts::structural(path.required_syms(), "path expression denotes no paths");
        Plan {
            backend: Backend::Path(Arc::new(CompiledPath::compile(path, ab))),
            facts: Arc::new(facts),
        }
    }

    /// Replace this plan's facts, e.g. with the static analyzer's. The
    /// caller vouches that the facts describe the same query this plan
    /// compiles.
    pub fn with_facts(mut self, facts: PlanFacts) -> Plan {
        self.facts = Arc::new(facts);
        self
    }

    /// The facts this plan carries.
    pub fn facts(&self) -> &PlanFacts {
        &self.facts
    }

    /// The compiled automaton this plan evaluates with.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The underlying compiled PHR.
    ///
    /// # Panics
    /// On a path plan ([`Plan::path`]), which has no PHR automata.
    pub fn compiled(&self) -> &CompiledPhr {
        match &self.backend {
            Backend::Phr(c) => c,
            Backend::Path(_) => panic!("a path plan has no compiled PHR"),
        }
    }

    fn known_empty(&self) -> bool {
        if self.facts.known_empty {
            obs::counter_inc("core.plan.empty_skips");
            true
        } else {
            false
        }
    }

    /// Locate all matches, allocating fresh buffers (cold-equivalent). A
    /// plan proven empty by analysis returns ∅ without reading `h`.
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        let mut scratch = EvalScratch::new();
        self.locate_into(h, &mut scratch);
        scratch.located
    }

    /// Locate all matches into a reused scratch: the warm path. Returns the
    /// matches as a borrow of the scratch. A plan proven empty by analysis
    /// returns ∅ without reading `h`.
    pub fn locate_into<'s>(&self, h: &FlatHedge, scratch: &'s mut EvalScratch) -> &'s [NodeId] {
        self.eval_into(h, scratch, EvalMode::Locate);
        scratch.located()
    }

    /// The postings reject: given an oracle for "does the document contain
    /// symbol `a`" (in a store, one postings-emptiness probe), report
    /// whether some required symbol is absent. `true` is a sound proof that
    /// the document has no matches.
    pub fn missing_required_sym(&self, has_sym: impl Fn(SymId) -> bool) -> bool {
        if self.facts.required_syms.iter().any(|&s| !has_sym(s)) {
            obs::counter_inc("core.plan.symbol_rejects");
            true
        } else {
            false
        }
    }

    /// Index-pruned evaluation: the same answer as [`Plan::eval_into`],
    /// visiting only the ancestors-closure of the candidate set (see
    /// [`two_pass::eval_into`]). Returns the outcome plus the number of
    /// subtrees the index pruned.
    pub fn eval_pruned_into(
        &self,
        h: &FlatHedge,
        prune: &two_pass::PruneInfo<'_>,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> (EvalOutcome, u64) {
        self.dispatch(h, Some(prune), scratch, mode)
    }

    /// Evaluate in the chosen [`EvalMode`]. The plan itself is
    /// mode-independent — one compiled plan serves locate, count, and
    /// exists alike.
    pub fn eval_into(
        &self,
        h: &FlatHedge,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> EvalOutcome {
        self.dispatch(h, None, scratch, mode).0
    }

    /// The one backend dispatch under every entry point. A plan proven
    /// empty answers without reading the document, and so does a gate with
    /// no candidates: the index proved the document barren, so not even
    /// the bottom-up `M`-run is needed. Otherwise the backend's walk runs,
    /// gated or not.
    fn dispatch(
        &self,
        h: &FlatHedge,
        gate: Option<&two_pass::PruneInfo<'_>>,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> (EvalOutcome, u64) {
        if self.known_empty() {
            scratch.clear_located();
            return (EvalOutcome::none(mode), 0);
        }
        if gate.is_some_and(|g| g.candidates.is_empty()) {
            scratch.clear_located();
            return (EvalOutcome::none(mode), h.roots().len() as u64);
        }
        match &self.backend {
            Backend::Phr(c) => two_pass::eval_into(c, h, gate, scratch, mode),
            Backend::Path(p) => p.eval_into(h, gate, scratch, mode),
        }
    }

    /// A sound bound on the labels a located node can carry (`None` when no
    /// finite list is sound): the index uses their postings as candidates.
    pub fn match_syms(&self) -> Option<Vec<SymId>> {
        match &self.backend {
            Backend::Phr(c) => c.match_syms(),
            Backend::Path(p) => p.match_syms(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr::parse_phr;
    use hedgex_hedge::flat::FlatLabel;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// One run in `mode` on a fresh scratch.
    fn cold(plan: &Plan, h: &FlatHedge, mode: EvalMode) -> EvalOutcome {
        plan.eval_into(h, &mut EvalScratch::new(), mode)
    }

    #[test]
    fn plan_clone_shares_the_compiled_phr() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let p1 = Plan::compile(&phr);
        let p2 = p1.clone();
        assert!(std::ptr::eq(p1.compiled(), p2.compiled()));
    }

    #[test]
    fn plan_locate_matches_two_pass() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let plan = Plan::compile(&phr);
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(plan.locate(&f), vec![2]);
        let mut scratch = EvalScratch::new();
        assert_eq!(plan.locate_into(&f, &mut scratch), &[2]);
    }

    #[test]
    fn known_empty_facts_short_circuit_both_locate_paths() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        // The document does match — but facts override with a proof of ∅
        // (here fabricated, in production supplied by the analyzer), so
        // both paths must return empty without evaluating.
        let plan = Plan::compile(&phr).with_facts(PlanFacts {
            known_empty: true,
            why_empty: Some("test".into()),
            required_syms: Vec::new(),
        });
        assert!(plan.locate(&f).is_empty());
        let mut scratch = EvalScratch::new();
        // Seed the scratch with stale matches to prove they are cleared.
        let unfazed = Plan::compile(&phr);
        assert_eq!(unfazed.locate_into(&f, &mut scratch), &[2]);
        assert!(plan.locate_into(&f, &mut scratch).is_empty());
        // Non-empty facts leave evaluation untouched.
        let live = Plan::compile(&phr).with_facts(PlanFacts::default());
        assert_eq!(live.locate(&f), vec![2]);
    }

    #[test]
    fn plan_modes_agree_and_short_circuit() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let plan = Plan::compile(&phr);
        let mut scratch = EvalScratch::new();
        assert_eq!(cold(&plan, &f, EvalMode::Count), EvalOutcome::Count(1));
        assert_eq!(cold(&plan, &f, EvalMode::Exists), EvalOutcome::Exists(true));
        assert_eq!(
            plan.eval_into(&f, &mut scratch, EvalMode::Locate),
            EvalOutcome::Located(1)
        );
        assert_eq!(
            plan.eval_into(&f, &mut scratch, EvalMode::Count),
            EvalOutcome::Count(1)
        );
        assert_eq!(
            plan.eval_into(&f, &mut scratch, EvalMode::Exists),
            EvalOutcome::Exists(true)
        );
        // known_empty overrides all modes without reading the document.
        let empty = Plan::compile(&phr).with_facts(PlanFacts {
            known_empty: true,
            why_empty: Some("test".into()),
            required_syms: Vec::new(),
        });
        assert_eq!(cold(&empty, &f, EvalMode::Count), EvalOutcome::Count(0));
        assert_eq!(
            cold(&empty, &f, EvalMode::Exists),
            EvalOutcome::Exists(false)
        );
    }

    #[test]
    fn required_symbol_quick_reject_gates_count_and_exists() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        let matching = FlatHedge::from_hedge(&parse_hedge("b a<a<b $x> b>", &mut ab).unwrap());
        let lacks_b = FlatHedge::from_hedge(&parse_hedge("a<a>", &mut ab).unwrap());
        // The structural walk requires the label both triplets share.
        let plan = Plan::compile(&phr);
        assert_eq!(plan.facts().required_syms, vec![a]);
        let plan = plan.with_facts(PlanFacts {
            known_empty: false,
            why_empty: None,
            required_syms: vec![a, b],
        });
        // The postings oracle: does some node carry the symbol?
        fn has(f: &FlatHedge) -> impl Fn(SymId) -> bool + '_ {
            |s| f.preorder().any(|n| f.label(n) == FlatLabel::Sym(s))
        }
        // Every required symbol present → no reject, evaluation answers.
        assert!(!plan.missing_required_sym(has(&matching)));
        assert_eq!(
            cold(&plan, &matching, EvalMode::Count),
            EvalOutcome::Count(1)
        );
        assert_eq!(
            cold(&plan, &matching, EvalMode::Exists),
            EvalOutcome::Exists(true)
        );
        // `b` never occurs → rejected; the answer still agrees with full
        // evaluation.
        assert!(plan.missing_required_sym(has(&lacks_b)));
        assert_eq!(
            cold(&plan, &lacks_b, EvalMode::Count),
            EvalOutcome::Count(0)
        );
        assert_eq!(
            cold(&plan, &lacks_b, EvalMode::Exists),
            EvalOutcome::Exists(false)
        );
        assert!(plan.locate(&lacks_b).is_empty());
    }

    #[test]
    fn path_plans_answer_every_mode_and_carry_structural_facts() {
        let mut ab = Alphabet::new();
        let path = crate::parse_path("a* b", &mut ab).unwrap();
        let plan = Plan::path(&path, &ab);
        assert_eq!(plan.facts().required_syms, vec![ab.get_sym("b").unwrap()]);
        let f = FlatHedge::from_hedge(&parse_hedge("a<a<b> c<b>> b", &mut ab).unwrap());
        let want = path.locate(&f);
        assert_eq!(plan.locate(&f), want);
        assert_eq!(
            cold(&plan, &f, EvalMode::Count),
            EvalOutcome::Count(want.len() as u64)
        );
        assert_eq!(cold(&plan, &f, EvalMode::Exists), EvalOutcome::Exists(true));
        // A path denoting no paths at all is known empty.
        let none = crate::PathExpr {
            regex: hedgex_automata::Regex::Empty,
        };
        let empty = Plan::path(&none, &ab);
        assert!(empty.facts().known_empty);
        assert!(empty.locate(&f).is_empty());
    }

    #[test]
    #[should_panic(expected = "a path plan has no compiled PHR")]
    fn path_plans_have_no_compiled_phr() {
        let mut ab = Alphabet::new();
        let path = crate::parse_path("a", &mut ab).unwrap();
        Plan::path(&path, &ab).compiled();
    }
}
