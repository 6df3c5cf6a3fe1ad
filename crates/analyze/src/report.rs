//! Query analysis: decision procedures over the spine automata.
//!
//! Everything here reduces to emptiness and inclusion of hedge-automaton
//! languages (via [`hedgex_ha::ops`] and the witness extraction of
//! [`hedgex_ha::analysis`]), so every verdict comes with evidence: a
//! satisfiable query yields a document that matches, a refuted containment
//! yields a document matched by one query and not the other, and an empty
//! query yields a human-readable reason.
//!
//! All decisions are relative to hedges over the union of the declared
//! alphabets involved (the paper's setting: a fixed finite Σ known up
//! front). A "universal" content side (no subhedge condition) is compared
//! against a concrete one over that combined alphabet.

use std::collections::BTreeSet;

use hedgex_core::phr::Phr;
use hedgex_core::plan::PlanFacts;
use hedgex_core::Hre;
use hedgex_ha::analysis::{accepted_witness, is_empty};
use hedgex_ha::{ops, Dha, Leaf};
use hedgex_hedge::{Hedge, SubId, SymId, Tree};
use hedgex_obs as obs;

use crate::spine::Spine;

/// Why a query is provably empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhyEmpty {
    /// No pointed hedge satisfies the envelope (the sibling/ancestor
    /// conditions are contradictory).
    EnvelopeEmpty,
    /// The subhedge expression denotes the empty language.
    ContentEmpty,
    /// The query is satisfiable on its own, but no document of the schema
    /// contains a match.
    SchemaExcludes,
}

impl std::fmt::Display for WhyEmpty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WhyEmpty::EnvelopeEmpty => {
                write!(f, "the envelope matches no pointed hedge")
            }
            WhyEmpty::ContentEmpty => {
                write!(f, "the subhedge expression denotes the empty language")
            }
            WhyEmpty::SchemaExcludes => {
                write!(f, "the schema admits no document containing a match")
            }
        }
    }
}

/// The satisfiability verdict, with evidence.
#[derive(Debug, Clone)]
pub struct Satisfiability {
    /// Does some document contain a match?
    pub satisfiable: bool,
    /// A document with at least one located node, when satisfiable (and,
    /// for the schema-relative check, a document *of the schema*).
    pub witness: Option<Hedge>,
    /// The reason, when not.
    pub why_empty: Option<WhyEmpty>,
}

/// The containment verdict, with evidence.
#[derive(Debug, Clone)]
pub struct Containment {
    /// Is every match of the left query a match of the right, on every
    /// document?
    pub contained: bool,
    /// A document with a node located by the left query but not the
    /// right, when refuted. `None` with `contained: false` only in the
    /// degenerate universal-vs-constrained content case (see module docs).
    pub counterexample: Option<Hedge>,
}

/// The full static report for one query.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Satisfiability — schema-relative when a schema was supplied.
    pub satisfiability: Satisfiability,
    /// Symbols occurring in every document that contains a match (within
    /// the schema, when supplied). Empty for unsatisfiable queries.
    pub required: Vec<SymId>,
}

/// A query compiled for analysis: the spine product plus the envelope and
/// match automata derived from it. Construction is the expensive part;
/// every decision procedure afterwards is a product-and-reachability pass.
pub struct AnalyzedQuery {
    spine: Spine,
    env: Dha,
    matcher: Dha,
    /// The subhedge language restricted to documents (see [`doc_restrict`]).
    content_doc: Option<Dha>,
    own_syms: BTreeSet<SymId>,
    own_leaves: BTreeSet<Leaf>,
}

/// Collect the node labels of a hedge.
fn syms_of(h: &Hedge, out: &mut BTreeSet<SymId>) {
    for t in &h.0 {
        if let Tree::Node(a, inner) = t {
            out.insert(*a);
            syms_of(inner, out);
        }
    }
}

/// The 2-state automaton of documents avoiding symbol `a`, over the
/// declared alphabet of `model`: every other declared symbol and document
/// leaf keeps state 0, `a` (and anything undeclared) falls into the sink.
fn forbid_symbol(model: &Dha, a: SymId) -> Dha {
    use hedgex_automata::Regex;
    use hedgex_ha::DhaBuilder;
    let mut b = DhaBuilder::new(2, 1);
    for leaf in model.leaves().collect::<Vec<_>>() {
        if !matches!(leaf, Leaf::Sub(_)) {
            b.leaf(leaf, 0);
        }
    }
    for c in model.symbols().collect::<Vec<_>>() {
        if c != a {
            b.rule(c, Regex::sym(0).star(), 0);
        }
    }
    b.finals(Regex::sym(0).star());
    b.build()
}

/// The automaton of *all* documents over `model`'s declared alphabet:
/// every declared symbol, every declared Var leaf, no substitution leaves.
fn universal_docs(model: &Dha) -> Dha {
    use hedgex_automata::Regex;
    use hedgex_ha::DhaBuilder;
    let mut b = DhaBuilder::new(2, 1);
    for leaf in model.leaves().collect::<Vec<_>>() {
        if !matches!(leaf, Leaf::Sub(_)) {
            b.leaf(leaf, 0);
        }
    }
    for c in model.symbols().collect::<Vec<_>>() {
        b.rule(c, Regex::sym(0).star(), 0);
    }
    b.finals(Regex::sym(0).star());
    b.build()
}

/// Restrict a language to document hedges: a vertical closure `e^z` keeps
/// its `z`-leaf unfoldings in the compiled language, but no document
/// contains a substitution leaf, and analysis verdicts (and witnesses)
/// must speak about documents.
fn doc_restrict(d: &Dha) -> Dha {
    ops::intersection(d, &universal_docs(d))
}

impl AnalyzedQuery {
    /// Build the analysis automata for a PHR with an optional subhedge
    /// condition.
    pub fn new(phr: &Phr, subhedge: Option<&Hre>) -> AnalyzedQuery {
        let _span = obs::span("analyze.query");
        let spine = Spine::build(phr, subhedge);
        let env = spine.envelope_dha();
        let matcher = spine.matcher_dha(&[], &[]);
        let content_doc = spine.sub().map(doc_restrict);
        let own_syms = spine.own_symbols();
        let own_leaves = spine.own_leaves();
        obs::counter_inc("analyze.queries");
        AnalyzedQuery {
            spine,
            env,
            matcher,
            content_doc,
            own_syms,
            own_leaves,
        }
    }

    /// The envelope automaton: pointed hedges the PHR matches.
    pub fn envelope(&self) -> &Dha {
        &self.env
    }

    /// The match automaton: documents containing at least one match.
    pub fn matcher(&self) -> &Dha {
        &self.matcher
    }

    /// The content language (restricted to document hedges), when a
    /// subhedge condition was given.
    pub fn content(&self) -> Option<&Dha> {
        self.content_doc.as_ref()
    }

    /// The match automaton re-padded for a foreign alphabet: reused as-is
    /// when the schema declares nothing new.
    fn matcher_for(&self, schema: &Dha) -> Dha {
        let extra_syms: Vec<SymId> = schema
            .symbols()
            .filter(|a| !self.own_syms.contains(a))
            .collect();
        let extra_leaves: Vec<Leaf> = schema
            .leaves()
            .filter(|l| !self.own_leaves.contains(l))
            .collect();
        if extra_syms.is_empty() && extra_leaves.is_empty() {
            self.matcher.clone()
        } else {
            self.spine.matcher_dha(&extra_syms, &extra_leaves)
        }
    }

    /// A content hedge admissible for this query (a witness of the
    /// subhedge language, or ε when content is unconstrained); `None`
    /// when the subhedge language is empty.
    fn content_witness(&self) -> Option<Hedge> {
        match self.content() {
            Some(sub) => accepted_witness(sub),
            None => Some(Hedge::empty()),
        }
    }

    /// Absolute satisfiability: does *any* document contain a match? The
    /// product decomposition makes this two independent emptiness checks —
    /// envelope and content — and a witness document is their composition.
    pub fn satisfiable(&self) -> Satisfiability {
        let _span = obs::span("analyze.satisfiability");
        let Some(u) = accepted_witness(&self.env) else {
            return Satisfiability {
                satisfiable: false,
                witness: None,
                why_empty: Some(WhyEmpty::EnvelopeEmpty),
            };
        };
        let Some(content) = self.content_witness() else {
            return Satisfiability {
                satisfiable: false,
                witness: None,
                why_empty: Some(WhyEmpty::ContentEmpty),
            };
        };
        Satisfiability {
            satisfiable: true,
            witness: Some(u.embed(SubId::ETA, &content)),
            why_empty: None,
        }
    }

    /// Schema-relative satisfiability: does some document *of the schema*
    /// contain a match? Decided by `L(match) ∩ L(schema) = ∅`, with an
    /// accepted witness when nonempty.
    pub fn satisfiable_in(&self, schema: &Dha) -> Satisfiability {
        let _span = obs::span("analyze.satisfiability");
        let matcher = self.matcher_for(schema);
        match accepted_witness(&ops::intersection(&matcher, schema)) {
            Some(w) => Satisfiability {
                satisfiable: true,
                witness: Some(w),
                why_empty: None,
            },
            None => {
                let absolute = self.satisfiable();
                let why = if absolute.satisfiable {
                    WhyEmpty::SchemaExcludes
                } else {
                    absolute.why_empty.expect("unsatisfiable carries a reason")
                };
                Satisfiability {
                    satisfiable: false,
                    witness: None,
                    why_empty: Some(why),
                }
            }
        }
    }

    /// Is every match of `self` a match of `other`, on every document?
    ///
    /// A match is a pair (envelope, content), and every pair composes into
    /// a document, so containment of match behaviour is exactly
    /// `Env_A × Sub_A ⊆ Env_B × Sub_B`: either the left product is empty,
    /// or both projections are included.
    pub fn contained_in(&self, other: &AnalyzedQuery) -> Containment {
        let _span = obs::span("analyze.containment");
        if is_empty(&self.env) || self.content().is_some_and(is_empty) {
            return Containment {
                contained: true,
                counterexample: None,
            };
        }
        if let Err(u) = ops::included(&self.env, &other.env) {
            // An envelope in A but not B; any admissible content makes it
            // a full counterexample document.
            let content = self.content_witness().expect("checked nonempty");
            return Containment {
                contained: false,
                counterexample: Some(u.embed(SubId::ETA, &content)),
            };
        }
        let content_cex: Option<Option<Hedge>> = match (self.content(), other.content()) {
            (_, None) => None,
            (Some(a), Some(b)) => ops::included(a, b).err().map(Some),
            // Universal vs constrained: contained only if B's content
            // language covers every document over its declared alphabet.
            // The complement is over the open alphabet, so restrict it
            // back to documents before deciding.
            (None, Some(b)) => {
                let c = doc_restrict(&ops::complement(b));
                if is_empty(&c) {
                    None
                } else {
                    Some(accepted_witness(&c))
                }
            }
        };
        match content_cex {
            None => Containment {
                contained: true,
                counterexample: None,
            },
            Some(v) => {
                let cex = v.map(|v| {
                    let u = accepted_witness(&self.env).expect("checked nonempty");
                    u.embed(SubId::ETA, &v)
                });
                Containment {
                    contained: false,
                    counterexample: cex,
                }
            }
        }
    }

    /// Are the two queries' match sets identical on every document? On
    /// failure, a document matched by exactly one side.
    pub fn equivalent_to(&self, other: &AnalyzedQuery) -> Result<(), Hedge> {
        let fwd = self.contained_in(other);
        if !fwd.contained {
            return Err(fwd.counterexample.unwrap_or_default());
        }
        let back = other.contained_in(self);
        if !back.contained {
            return Err(back.counterexample.unwrap_or_default());
        }
        Ok(())
    }

    /// Symbols present in every document that contains a match (within
    /// the schema, when supplied) — the sound prefilter for a postings
    /// intersection: a document missing a required symbol cannot match.
    /// Attached to a [`hedgex_core::Plan`] (via [`plan_facts`]), the list
    /// also powers the count/exists pre-pass: one label scan settles the
    /// verdict as `0`/`false` before any automaton work.
    ///
    /// [`plan_facts`]: AnalyzedQuery::plan_facts
    ///
    /// Candidates are the labels of one witness document (a symbol absent
    /// from some matching document is not required); each is confirmed by
    /// an emptiness check of `matches ∩ avoid(a)`.
    pub fn required_symbols(&self, schema: Option<&Dha>) -> Vec<SymId> {
        let _span = obs::span("analyze.required");
        let used = match schema {
            Some(s) => ops::intersection(&self.matcher_for(s), s),
            None => self.matcher.clone(),
        };
        let Some(witness) = accepted_witness(&used) else {
            return Vec::new();
        };
        let mut candidates = BTreeSet::new();
        syms_of(&witness, &mut candidates);
        candidates
            .into_iter()
            .filter(|&a| is_empty(&ops::intersection(&used, &forbid_symbol(&used, a))))
            .collect()
    }

    /// The full report: satisfiability (schema-relative when a schema is
    /// supplied) plus required symbols.
    pub fn analyze(&self, schema: Option<&Dha>) -> QueryAnalysis {
        let _span = obs::span("analyze.report");
        let satisfiability = match schema {
            Some(s) => self.satisfiable_in(s),
            None => self.satisfiable(),
        };
        let required = if satisfiability.satisfiable {
            self.required_symbols(schema)
        } else {
            Vec::new()
        };
        obs::counter_inc("analyze.reports");
        QueryAnalysis {
            satisfiability,
            required,
        }
    }

    /// The analysis distilled into [`PlanFacts`] for
    /// [`hedgex_core::Plan::with_facts`]: a provably-empty plan answers
    /// `locate` with ∅ — and `count`/`exists` with `0`/`false` — without
    /// touching the document, and the required symbols feed a store's
    /// postings reject. These facts can be stronger than the structural
    /// ones every plan derives for itself, at the price of a decision
    /// procedure.
    pub fn plan_facts(&self, schema: Option<&Dha>) -> PlanFacts {
        let report = self.analyze(schema);
        PlanFacts {
            known_empty: !report.satisfiability.satisfiable,
            why_empty: report.satisfiability.why_empty.map(|w| w.to_string()),
            required_syms: report.required,
        }
    }
}

/// One-call convenience: analyze a query against an optional schema.
pub fn analyze(phr: &Phr, subhedge: Option<&Hre>, schema: Option<&Dha>) -> QueryAnalysis {
    AnalyzedQuery::new(phr, subhedge).analyze(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_core::mark_down::{compile_to_dha, mark_run};
    use hedgex_core::parse_hre;
    use hedgex_core::phr::parse_phr;
    use hedgex_core::{two_pass, CompiledPhr};
    use hedgex_ha::enumerate_hedges;
    use hedgex_hedge::{Alphabet, FlatHedge};

    #[test]
    fn satisfiable_query_yields_a_locating_witness() {
        let mut ab = Alphabet::new();
        for src in [
            "[ε ; a ; ε]",
            "[b ; a ; ε][ε ; b ; ε]",
            "([ε ; a ; ε]|[ε ; b ; a])",
        ] {
            let phr = parse_phr(src, &mut ab).unwrap();
            let q = AnalyzedQuery::new(&phr, None);
            let sat = q.satisfiable();
            assert!(sat.satisfiable, "{src}");
            let w = sat.witness.expect("witness");
            let flat = FlatHedge::from_hedge(&w);
            assert!(
                !phr.locate_naive(&flat).is_empty(),
                "{src}: witness {w:?} must locate"
            );
        }
    }

    #[test]
    fn empty_envelope_is_detected_with_reason() {
        let mut ab = Alphabet::new();
        // The elder condition is μz.a⟨z⟩ — no finite hedge inhabits it.
        let phr = parse_phr("[a<%z>^z ; b ; ε]", &mut ab).unwrap();
        let sat = AnalyzedQuery::new(&phr, None).satisfiable();
        assert!(!sat.satisfiable);
        assert_eq!(sat.why_empty, Some(WhyEmpty::EnvelopeEmpty));
        // And the match automaton agrees on full documents.
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        let q = AnalyzedQuery::new(&phr, None);
        for d in enumerate_hedges(&[a, b], &[], 5) {
            assert!(!q.matcher().accepts(&d));
        }
    }

    #[test]
    fn empty_content_is_detected_with_reason() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let e1 = parse_hre("b<%z>^z", &mut ab).unwrap();
        let sat = AnalyzedQuery::new(&phr, Some(&e1)).satisfiable();
        assert!(!sat.satisfiable);
        assert_eq!(sat.why_empty, Some(WhyEmpty::ContentEmpty));
    }

    #[test]
    fn schema_relative_satisfiability_with_witness_and_reason() {
        let mut ab = Alphabet::new();
        // Schema: arbitrary documents over {a, b}.
        let schema = compile_to_dha(&parse_hre("(a<%z>|b<%z>)*^z", &mut ab).unwrap());
        let sat_phr = parse_phr("[ε ; a ; b]", &mut ab).unwrap();
        let q = AnalyzedQuery::new(&sat_phr, None);
        let sat = q.satisfiable_in(&schema);
        assert!(sat.satisfiable);
        let w = sat.witness.expect("schema witness");
        assert!(schema.accepts(&w), "witness must be a schema document");
        let flat = FlatHedge::from_hedge(&w);
        assert!(!sat_phr.locate_naive(&flat).is_empty());

        // A query for a label the schema cannot produce.
        let c_phr = {
            let _c = ab.sym("c");
            parse_phr("[ε ; c ; ε]", &mut ab).unwrap()
        };
        let rel = AnalyzedQuery::new(&c_phr, None).satisfiable_in(&schema);
        assert!(!rel.satisfiable);
        assert_eq!(rel.why_empty, Some(WhyEmpty::SchemaExcludes));
    }

    #[test]
    fn containment_verdicts_match_brute_force() {
        let mut ab = Alphabet::new();
        let u = "(a<%z>|b<%z>)*^z";
        let narrow = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let wide = parse_phr(&format!("[{u} ; a ; {u}]"), &mut ab).unwrap();
        let qa = AnalyzedQuery::new(&narrow, None);
        let qb = AnalyzedQuery::new(&wide, None);

        let fwd = qa.contained_in(&qb);
        assert!(fwd.contained, "no-siblings ⊆ any-siblings");
        let back = qb.contained_in(&qa);
        assert!(!back.contained);
        let cex = back.counterexample.expect("counterexample document");
        let flat = FlatHedge::from_hedge(&cex);
        let in_wide: BTreeSet<u32> = wide.locate_naive(&flat).into_iter().collect();
        let in_narrow: BTreeSet<u32> = narrow.locate_naive(&flat).into_iter().collect();
        assert!(
            in_wide.difference(&in_narrow).next().is_some(),
            "counterexample {cex:?} must witness wide \\ narrow"
        );

        // Exhaustive cross-check of the positive verdict.
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        for d in enumerate_hedges(&[a, b], &[], 5) {
            let flat = FlatHedge::from_hedge(&d);
            let na: BTreeSet<u32> = narrow.locate_naive(&flat).into_iter().collect();
            let nw: BTreeSet<u32> = wide.locate_naive(&flat).into_iter().collect();
            assert!(na.is_subset(&nw), "on {d:?}");
        }
    }

    #[test]
    fn empty_query_is_contained_in_everything() {
        let mut ab = Alphabet::new();
        let empty = parse_phr("[a<%z>^z ; b ; ε]", &mut ab).unwrap();
        let narrow = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let qe = AnalyzedQuery::new(&empty, None);
        let qn = AnalyzedQuery::new(&narrow, None);
        assert!(qe.contained_in(&qn).contained);
        assert!(qe.contained_in(&qe).contained);
    }

    #[test]
    fn content_side_drives_containment() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let bs = parse_hre("b<ε>*", &mut ab).unwrap();
        let one_b = parse_hre("b<ε>", &mut ab).unwrap();
        let q_star = AnalyzedQuery::new(&phr, Some(&bs));
        let q_one = AnalyzedQuery::new(&phr, Some(&one_b));
        let q_any = AnalyzedQuery::new(&phr, None);

        assert!(q_one.contained_in(&q_star).contained);
        let r = q_star.contained_in(&q_one);
        assert!(!r.contained);
        let cex = r.counterexample.expect("content counterexample");
        let flat = FlatHedge::from_hedge(&cex);
        let marks_one = mark_run(&compile_to_dha(&one_b), &flat);
        let marks_star = mark_run(&compile_to_dha(&bs), &flat);
        let hit = phr
            .locate_naive(&flat)
            .into_iter()
            .find(|&n| marks_star[n as usize] && !marks_one[n as usize]);
        assert!(hit.is_some(), "cex {cex:?} must separate the content sides");

        // Constrained ⊆ universal, but not the converse.
        assert!(q_one.contained_in(&q_any).contained);
        assert!(!q_any.contained_in(&q_one).contained);
    }

    #[test]
    fn equivalence_accepts_reparse_and_refutes_difference() {
        let mut ab = Alphabet::new();
        let p1 = parse_phr("[ε ; a ; b]", &mut ab).unwrap();
        let p2 = parse_phr("[ε ; a ; b]", &mut ab).unwrap();
        let p3 = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let q1 = AnalyzedQuery::new(&p1, None);
        let q2 = AnalyzedQuery::new(&p2, None);
        let q3 = AnalyzedQuery::new(&p3, None);
        assert!(q1.equivalent_to(&q2).is_ok());
        assert!(q1.equivalent_to(&q3).is_err());
    }

    #[test]
    fn required_symbols_are_sound_and_nontrivial() {
        let mut ab = Alphabet::new();
        // Matching requires an a (the node) and a b (its younger sibling).
        let phr = parse_phr("[ε ; a ; b]", &mut ab).unwrap();
        let q = AnalyzedQuery::new(&phr, None);
        let req = q.required_symbols(None);
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        assert!(req.contains(&a), "label is required");
        assert!(req.contains(&b), "younger sibling is required");

        // Alternation on the label: neither branch's label is required.
        let alt = parse_phr("([ε ; a ; ε]|[ε ; b ; ε])", &mut ab).unwrap();
        let req_alt = AnalyzedQuery::new(&alt, None).required_symbols(None);
        assert!(!req_alt.contains(&a));
        assert!(!req_alt.contains(&b));

        // Soundness against the matcher: every accepted document carries
        // every required symbol.
        for d in enumerate_hedges(&[a, b], &[], 5) {
            if q.matcher().accepts(&d) {
                let mut present = BTreeSet::new();
                syms_of(&d, &mut present);
                for r in &req {
                    assert!(present.contains(r), "doc {d:?} misses required {r:?}");
                }
            }
        }
    }

    #[test]
    fn plan_facts_short_circuit_agrees_with_evaluation() {
        let mut ab = Alphabet::new();
        let empty = parse_phr("[a<%z>^z ; b ; ε]", &mut ab).unwrap();
        let facts = AnalyzedQuery::new(&empty, None).plan_facts(None);
        assert!(facts.known_empty);
        assert!(facts.why_empty.is_some());
        // The full evaluator agrees on a real document.
        let compiled = CompiledPhr::compile(&empty);
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        for d in enumerate_hedges(&[a, b], &[], 4) {
            let flat = FlatHedge::from_hedge(&d);
            assert!(two_pass::locate(&compiled, &flat).is_empty());
        }
    }

    #[test]
    fn analyzer_facts_gate_count_and_exists_soundly() {
        use hedgex_core::{EvalMode, EvalOutcome, EvalScratch, Plan};
        let run = |plan: &Plan, flat: &FlatHedge, mode| {
            plan.eval_into(flat, &mut EvalScratch::new(), mode)
        };
        // End-to-end: analyzer-produced facts attached to a plan must
        // never change a count or exists verdict, only cheapen it.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[b ; a ; ε][ε ; b ; ε]", &mut ab).unwrap();
        let facts = AnalyzedQuery::new(&phr, None).plan_facts(None);
        assert!(!facts.known_empty);
        let bare = Plan::compile(&phr);
        let informed = Plan::compile(&phr).with_facts(facts);
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        for d in enumerate_hedges(&[a, b], &[], 5) {
            let flat = FlatHedge::from_hedge(&d);
            for mode in [EvalMode::Count, EvalMode::Exists] {
                assert_eq!(
                    run(&informed, &flat, mode),
                    run(&bare, &flat, mode),
                    "{d:?}"
                );
            }
            assert_eq!(
                run(&informed, &flat, EvalMode::Count),
                EvalOutcome::Count(bare.locate(&flat).len() as u64),
                "{d:?}"
            );
        }
    }
}
