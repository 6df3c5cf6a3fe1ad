//! The spine construction: from a PHR (and optional subhedge condition) to
//! ordinary hedge automata over *whole inputs*, so that every question
//! about a query becomes a language question answerable by the decision
//! procedures of `hedgex-ha`.
//!
//! Two automata are built from one shared set of compiled components:
//!
//! * the **envelope automaton** accepts exactly the pointed hedges (single
//!   `η`) that the PHR matches — `L(env) = { u | u ⊨ phr }`;
//! * the **match automaton** accepts exactly the documents containing at
//!   least one located node — `L(match) = { d | locate(phr, e₁, d) ≠ ∅ }`.
//!
//! Both run bottom-up along the `η`-path ("the spine"). The decomposition
//! of a pointed hedge lists its base hedges innermost-first (Figure 2), and
//! the PHR's triplet regex reads that word left-to-right, so a node on the
//! spine carries a pair `(d, t)`: the regex-DFA state after the triplets
//! consumed so far, and the *pending* triplet `t` chosen at this node —
//! pending because a base's elder/younger condition constrains the node's
//! **siblings**, which only its parent (or the top level) can see. Nodes
//! off the spine carry their state in Theorem 4's shared product `M`, the
//! very automaton evaluation compiles ([`shared_product`]), and the side
//! languages lifted to `M`'s states decide sibling-word membership
//! directly over `M`-states. A subhedge condition is not a factor of `M`:
//! its own DHA enters the match automaton at a state offset after `M`'s
//! states, and only the matched node's content reads it.
//!
//! Letter discipline: the rule languages of the spine NHA read *letters
//! that are NHA states*, a strictly larger space than the `M`-states (or
//! subhedge states) the component DFAs know. Every embedded DFA (a
//! `HorizFn` inverse image or a lifted final automaton) is therefore
//! rebuilt **letter-explicit** over its own states' range before use — its
//! original cofinite (`NotIn`) edges would otherwise silently absorb the
//! `η`/`⊤`/spine letters and accept hedges the component never saw.
//!
//! The match automaton needs one extra state `⊤`: the content of a matched
//! node is unconstrained (or constrained only by `e₁`), so with no
//! subhedge condition the innermost rule must admit trees over symbols the
//! query itself never mentions — in particular the schema's symbols when
//! deciding schema-relative satisfiability. `⊤` is granted to every tree
//! over a *padding alphabet* (the query's own alphabet plus the schema's),
//! and only the innermost universal rule accepts it; everywhere else `⊤`
//! letters are dead, so padding never loosens a sibling condition.

use std::collections::{BTreeSet, HashMap};

use hedgex_automata::{in_edges, CharClass, DenseDfa, Dfa, Nfa, StateId};
use hedgex_core::phr::{Phr, TripletId};
use hedgex_core::phr_compile::{compile_component, shared_product};
use hedgex_core::Hre;
use hedgex_ha::{determinize, Dha, HState, LangId, Leaf, Nha};
use hedgex_hedge::{SubId, SymId};
use hedgex_obs as obs;

/// The shared compiled core of one analyzed query: Theorem 4's `M` with
/// its side languages, the subhedge's DHA, the triplet-regex DFA, and the
/// per-triplet labels. Both the envelope and the match automaton are
/// assembled from this, so schema-specific re-padding never recompiles
/// the components.
pub struct Spine {
    /// The shared automaton `M`, as evaluation compiles it.
    m: Dha,
    /// Per side (elder, younger for each triplet): its `F` lifted to a
    /// table over `M`'s states.
    sides: Vec<DenseDfa>,
    rdfa: Dfa<TripletId>,
    labels: Vec<SymId>,
    /// The content language, when a subhedge condition was given.
    sub: Option<Dha>,
}

/// Which automaton to assemble over the spine.
enum Mode<'a> {
    /// Pointed hedges: `η` is a leaf, the innermost rule consumes exactly
    /// it.
    Env,
    /// Plain documents: the innermost rule consumes the matched node's
    /// content, and every tree over the padding alphabet is admissible
    /// there via `⊤`.
    Match {
        pad_syms: &'a BTreeSet<SymId>,
        pad_leaves: &'a BTreeSet<Leaf>,
    },
}

/// Rebuild a table whose letters are the states `0..p` of `M` (or of the
/// subhedge's DHA) as an NFA over the larger spine letter space, where
/// those states sit at `offset..offset + p`: their transitions are kept
/// verbatim (as explicit `In` classes), every other letter dies. This is
/// the cofinite guard described in the module docs.
fn explicit_nfa(dfa: &DenseDfa, p: u32, offset: u32) -> Nfa<HState> {
    let n = dfa.num_states();
    let trans = (0..n as StateId)
        .map(|s| in_edges((0..p).map(|q| (offset + q, dfa.cell(s, q as usize)))))
        .collect();
    let accept = (0..n as StateId).map(|s| dfa.is_accepting(s)).collect();
    Nfa::from_raw(trans, vec![Vec::new(); n], dfa.start(), accept)
}

/// The single-letter word language `{ l }`.
fn letter_nfa(l: HState) -> Nfa<HState> {
    Nfa::class(CharClass::of(vec![l]))
}

/// All words over the given letters (including ε).
fn loop_nfa(letters: Vec<HState>) -> Nfa<HState> {
    Nfa::class(CharClass::of(letters)).star()
}

/// The document leaves of a DHA: its substitution leaves are dropped.
/// They exist in component languages (a vertical closure `e^z` keeps its
/// `z`-leaf unfoldings), but no document contains one, and the analysis
/// automata speak about documents.
fn doc_leaves(d: &Dha) -> impl Iterator<Item = Leaf> + '_ {
    d.leaves().filter(|l| !matches!(l, Leaf::Sub(_)))
}

impl Spine {
    /// Take Theorem 4's `M` for the PHR's sides, as evaluation compiles it
    /// (each distinct side once, reduced), and compile the subhedge, when
    /// given, on its own.
    pub fn build(phr: &Phr, subhedge: Option<&Hre>) -> Spine {
        let _span = obs::span("analyze.spine");
        let shared = shared_product(phr, true);
        let sub = subhedge.map(|e| compile_component(e, true).0);
        let rdfa = Nfa::from_regex(&phr.regex).to_dfa();
        let labels = phr.triplets.iter().map(|t| t.label).collect();
        obs::event("analyze.spine", || {
            format!(
                "m_states={} sub_states={} regex_dfa_states={}",
                shared.m.num_states(),
                sub.as_ref().map_or(0, Dha::num_states),
                rdfa.num_states()
            )
        });
        Spine {
            m: shared.m,
            sides: shared.sides,
            rdfa,
            labels,
            sub,
        }
    }

    /// The content language, when a subhedge condition was given.
    pub fn sub(&self) -> Option<&Dha> {
        self.sub.as_ref()
    }

    /// The query's own alphabet: the symbols of `M` and of the subhedge,
    /// plus the triplet labels.
    pub fn own_symbols(&self) -> BTreeSet<SymId> {
        let mut syms: BTreeSet<SymId> = self.m.symbols().collect();
        syms.extend(self.sub.iter().flat_map(Dha::symbols));
        syms.extend(self.labels.iter().copied());
        syms
    }

    /// The query's own declared *document* leaves, of `M` and of the
    /// subhedge.
    pub fn own_leaves(&self) -> BTreeSet<Leaf> {
        let mut leaves: BTreeSet<Leaf> = doc_leaves(&self.m).collect();
        leaves.extend(self.sub.iter().flat_map(doc_leaves));
        leaves
    }

    /// The envelope automaton: accepts exactly the pointed hedges the PHR
    /// matches. A DHA, because containment complements it.
    pub fn envelope_dha(&self) -> Dha {
        let _span = obs::span("analyze.envelope");
        determinize(&self.assemble(&Mode::Env)).dha
    }

    /// The match automaton, padded so that any tree over the query's own
    /// alphabet *plus* `extra_syms`/`extra_leaves` is admissible as the
    /// matched node's content: accepts exactly the documents (over that
    /// combined alphabet) containing at least one located node. It stays
    /// non-deterministic: every question asked of it is emptiness.
    pub fn matcher_nha(&self, extra_syms: &[SymId], extra_leaves: &[Leaf]) -> Nha {
        let _span = obs::span("analyze.matcher");
        let mut pad_syms = self.own_symbols();
        pad_syms.extend(extra_syms.iter().copied());
        let mut pad_leaves = self.own_leaves();
        pad_leaves.extend(extra_leaves.iter().copied());
        self.assemble(&Mode::Match {
            pad_syms: &pad_syms,
            pad_leaves: &pad_leaves,
        })
    }

    /// Assemble the spine NHA in the given mode. State layout (states
    /// double as rule-language letters): `0..p` mirror `M`; in match mode
    /// with a subhedge, the next `s` mirror its DHA; then `H` (the `η`
    /// leaf), then `⊤`, then one state per `(regex-DFA state, pending
    /// triplet)` pair.
    fn assemble(&self, mode: &Mode) -> Nha {
        let p = self.m.num_states();
        let sub = match mode {
            Mode::Env => None,
            Mode::Match { .. } => self.sub.as_ref(),
        };
        let s = sub.map_or(0, Dha::num_states);
        let tcount = self.labels.len() as u32;
        let dcount = self.rdfa.num_states() as u32;
        let h_state = p + s;
        let top = h_state + 1;
        let spine_id = |d: StateId, t: u32| top + 1 + d * tcount + t;
        let num_states = top + 1 + dcount * tcount;

        // Documents contain Var leaves only; `η` is re-added explicitly in
        // envelope mode.
        let mut iota: HashMap<Leaf, Vec<HState>> = HashMap::new();
        for leaf in doc_leaves(&self.m) {
            iota.entry(leaf).or_default().push(self.m.iota(leaf));
        }
        // Every rule language is a table over the spine's own states.
        let k = num_states as usize;
        let mut langs: Vec<DenseDfa> = Vec::new();
        let mut lang = |nfa: Nfa<HState>| {
            langs.push(nfa.to_dense(k));
            (langs.len() - 1) as LangId
        };
        let mut rules: HashMap<SymId, Vec<(LangId, HState)>> = HashMap::new();

        // Plain rules: off-spine trees evaluate exactly as in `M`, and, in
        // the subhedge's copy, as in its DHA.
        for (d, offset) in [(&self.m, 0)].into_iter().chain(sub.map(|d| (d, p))) {
            let n = d.num_states();
            for a in d.symbols() {
                let hf = d.horiz(a).expect("declared symbol");
                for q in 0..n {
                    let l = lang(explicit_nfa(&hf.preimage(q), n, offset));
                    rules.entry(a).or_default().push((l, offset + q));
                }
            }
        }
        if let Some(d) = sub {
            for leaf in doc_leaves(d) {
                iota.entry(leaf).or_default().push(p + d.iota(leaf));
            }
        }

        match mode {
            Mode::Env => {
                iota.entry(Leaf::Sub(SubId::ETA)).or_default().push(h_state);
            }
            Mode::Match {
                pad_syms,
                pad_leaves,
            } => {
                // ⊤: any tree over the padding alphabet. Only the
                // innermost universal rule below ever accepts it.
                let mut admissible: Vec<HState> = (0..p).collect();
                admissible.push(top);
                let any = lang(loop_nfa(admissible));
                for &a in pad_syms.iter() {
                    rules.entry(a).or_default().push((any, top));
                }
                for &leaf in pad_leaves.iter() {
                    iota.entry(leaf).or_default().push(top);
                }
            }
        }

        // Innermost rules: the node whose content is replaced by η. Its
        // children are exactly η (envelope), or its real content (match):
        // a word of the subhedge's DHA in its `F`, or universal over
        // admissible trees when no subhedge was given.
        let content: Nfa<HState> = match (mode, sub) {
            (Mode::Env, _) => letter_nfa(h_state),
            (Mode::Match { .. }, Some(d)) => explicit_nfa(d.finals(), s, p),
            (Mode::Match { .. }, None) => {
                let mut admissible: Vec<HState> = (0..p).collect();
                admissible.push(top);
                loop_nfa(admissible)
            }
        };
        let content = lang(content);
        for (t, &a) in self.labels.iter().enumerate() {
            let d1 = self.rdfa.step(self.rdfa.start(), &(t as TripletId));
            rules
                .entry(a)
                .or_default()
                .push((content, spine_id(d1, t as u32)));
        }

        // Sibling language of a pending triplet `t` around the spine
        // letter `(d, t)`: elder word ∈ F_{t,1}, then the spine child,
        // then younger word ∈ F_{t,2} — all over explicit letters.
        let pending = |d: StateId, t: usize| {
            explicit_nfa(&self.sides[2 * t], p, 0)
                .concat(&letter_nfa(spine_id(d, t as u32)))
                .concat(&explicit_nfa(&self.sides[2 * t + 1], p, 0))
        };

        // Spine rules: a node above the spine child verifies the child's
        // pending sibling conditions and chooses its own triplet. Each
        // pending language is one DFA, whichever triplet reads it.
        let ntrip = self.labels.len();
        let pending_langs: Vec<LangId> = (0..self.rdfa.num_states() as StateId)
            .flat_map(|d| (0..ntrip).map(move |t| (d, t)))
            .map(|(d, t)| lang(pending(d, t)))
            .collect();
        for (t_next, &a) in self.labels.iter().enumerate() {
            for d in 0..self.rdfa.num_states() as StateId {
                for t in 0..ntrip {
                    let d2 = self.rdfa.step(d, &(t_next as TripletId));
                    rules.entry(a).or_default().push((
                        pending_langs[d as usize * ntrip + t],
                        spine_id(d2, t_next as u32),
                    ));
                }
            }
        }

        // Finals: the topmost spine node's pending conditions hold at the
        // root sequence, and the consumed triplet word is in the regex.
        // Determinized as a string automaton, so a product with a schema
        // reads it one table cell per letter.
        let mut finals = Nfa::empty_lang();
        for t in 0..self.labels.len() {
            for d in 0..self.rdfa.num_states() as StateId {
                if self.rdfa.is_accepting(d) {
                    finals = finals.union(&pending(d, t));
                }
            }
        }
        let finals = finals.to_dense(k).to_dfa().to_nfa();

        Nha::from_parts(num_states, iota, langs, rules, finals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_core::mark_down::{compile_to_dha, mark_run};
    use hedgex_core::parse_hre;
    use hedgex_core::phr::parse_phr;
    use hedgex_ha::enumerate::enumerate_hedges_with_subs;
    use hedgex_ha::enumerate_hedges;
    use hedgex_hedge::{Alphabet, FlatHedge, PointedHedge};

    /// Small PHR pool over {a, b} exercising labels, sibling conditions,
    /// alternation, and stars in the triplet regex.
    fn pool(ab: &mut Alphabet) -> Vec<Phr> {
        [
            "[ε ; a ; ε]",
            "[ε ; a ; b]",
            "[b ; a ; ε][ε ; b ; ε]",
            "([ε ; a ; ε]|[ε ; b ; a])",
            "[(a<%z>|b<%z>)*^z ; a ; (a<%z>|b<%z>)*^z][ε ; b ; ε]*",
        ]
        .iter()
        .map(|s| parse_phr(s, ab).unwrap())
        .collect()
    }

    #[test]
    fn envelope_language_is_exactly_matches_pointed() {
        let mut ab = Alphabet::new();
        let phrs = pool(&mut ab);
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        let candidates = enumerate_hedges_with_subs(&[a, b], &[], &[SubId::ETA], 4);
        for phr in &phrs {
            let env = Spine::build(phr, None).envelope_dha();
            for u in &candidates {
                let expected = PointedHedge::new(u.clone())
                    .map(|p| phr.matches_pointed(&p))
                    .unwrap_or(false);
                assert_eq!(
                    env.accepts(u),
                    expected,
                    "phr {phr:?} on pointed candidate {u:?}"
                );
            }
        }
    }

    #[test]
    fn matcher_language_is_exactly_match_existence() {
        let mut ab = Alphabet::new();
        let phrs = pool(&mut ab);
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        for phr in &phrs {
            // Declare the document alphabet: a hedge automaton only speaks
            // about hedges over its declared symbols, and some pool PHRs
            // mention just one of {a, b}.
            let matcher = Spine::build(phr, None).matcher_nha(&[a, b], &[]);
            for d in enumerate_hedges(&[a, b], &[], 5) {
                let flat = FlatHedge::from_hedge(&d);
                let expected = !phr.locate_naive(&flat).is_empty();
                assert_eq!(matcher.accepts(&d), expected, "phr {phr:?} on doc {d:?}");
            }
        }
    }

    #[test]
    fn matcher_respects_the_subhedge_condition() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; (a<%z>|b<%z>)*^z]", &mut ab).unwrap();
        let e1 = parse_hre("b<ε>*", &mut ab).unwrap();
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        let matcher = Spine::build(&phr, Some(&e1)).matcher_nha(&[], &[]);
        let content_dha = compile_to_dha(&e1);
        for d in enumerate_hedges(&[a, b], &[], 5) {
            let flat = FlatHedge::from_hedge(&d);
            let marks = mark_run(&content_dha, &flat);
            let expected = phr.locate_naive(&flat).iter().any(|&n| marks[n as usize]);
            assert_eq!(matcher.accepts(&d), expected, "doc {d:?}");
        }
    }

    #[test]
    fn matcher_padding_admits_foreign_content() {
        // The matched node's content is unconstrained: a document whose
        // match contains a symbol the query never mentions must still be
        // accepted — but only when that symbol was padded in.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let c = ab.sym("c");
        let a = ab.get_sym("a").unwrap();
        let doc = hedgex_hedge::Hedge::node(a, hedgex_hedge::Hedge::leaf(c));
        let spine = Spine::build(&phr, None);
        assert!(spine.matcher_nha(&[c], &[]).accepts(&doc));
        assert!(!spine.matcher_nha(&[], &[]).accepts(&doc));
        // Padding must not loosen sibling conditions: a c-labelled younger
        // sibling is still a mismatch for `[ε ; a ; ε]`.
        let sib = hedgex_hedge::Hedge::node(a, hedgex_hedge::Hedge::empty())
            .concat(hedgex_hedge::Hedge::leaf(c));
        assert!(!spine.matcher_nha(&[c], &[]).accepts(&sib));
    }

    #[test]
    fn eta_free_and_multi_eta_hedges_are_rejected_by_envelope() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let a = ab.get_sym("a").unwrap();
        let env = Spine::build(&phr, None).envelope_dha();
        let eta = hedgex_hedge::Hedge(vec![hedgex_hedge::Tree::Subst(SubId::ETA)]);
        let good = hedgex_hedge::Hedge::node(a, eta.clone());
        assert!(env.accepts(&good));
        // No η at all, η at top level, two η's: all outside the language.
        assert!(!env.accepts(&hedgex_hedge::Hedge::node(a, hedgex_hedge::Hedge::empty())));
        assert!(!env.accepts(&eta));
        assert!(!env.accepts(&good.clone().concat(good)));
    }
}
