//! Lemma 1: compiling hedge regular expressions to non-deterministic hedge
//! automata.
//!
//! The construction follows the paper's ten cases. Implementation notes:
//!
//! * **Shared state space.** All fragments allocate states from one counter,
//!   so distinct sub-automata are disjoint by construction — except the
//!   reserved states `z̄` (one per substitution symbol), which the proof
//!   *requires* to be shared ("for each substitution symbol z … always use
//!   this state for z"). This replaces the paper's "rename states so that
//!   `Q₁ ∩ Q₂ ⊆ Z̄`" bookkeeping.
//! * **`z̄` occurs only as the one-letter horizontal word** `z̄` (substitution
//!   symbols appear in hedges only as the full content `a⟨z⟩`), so case 9's
//!   `α₂⁻¹(i, q) \ {z̄}` is a single-word removal ([`Nfa::remove_word`]) and
//!   case 10's variant keeps `z̄` while adding `F`.
//! * **One table of horizontal languages.** Rules name their language by a
//!   [`LangId`] into the context's table instead of owning an NFA. The word
//!   `z̄` is one language, made with the state `z̄`, so every `aᵢ⟨z⟩` rule
//!   (case 8) names it, and cases 9 and 10 rewrite each distinct language once
//!   per embedding, not once per rule: in `(a₁⟨z⟩|…|a₈⟨z⟩)*^z` all eight
//!   rules end up naming the one language `z̄ ∪ F`.
//! * Horizontal languages stay symbolic NFAs during composition (cheap
//!   union / concat / star while the state set still grows). Once the
//!   last fragment is built, `Q` is closed, and each distinct language the
//!   final rules name is determinized once, straight into a dense table
//!   over `0..|Q|` ([`Nfa::to_dense`]).

use std::collections::HashMap;

use hedgex_automata::Nfa;
use hedgex_ha::{HState, LangId, Leaf, Nha};
use hedgex_hedge::{SubId, SymId};
use hedgex_obs as obs;

use crate::hre::Hre;

/// A compilation fragment: an NHA under construction, with states drawn
/// from the surrounding [`Ctx`].
struct Frag {
    iota: HashMap<Leaf, Vec<HState>>,
    /// `α⁻¹` pieces: `(a, L, q)` meaning `α(a, w) ∋ q` for `w ∈ L`, with
    /// `L` an index into [`Ctx::langs`].
    rules: Vec<(SymId, LangId, HState)>,
    finals: Nfa<HState>,
}

/// Shared compilation context: the global state counter, the reserved
/// `z̄` states and the table of horizontal languages.
struct Ctx {
    next_state: HState,
    /// Per substitution symbol: its state `z̄` and the language `{z̄}`.
    zbar: HashMap<SubId, (HState, LangId)>,
    /// Every horizontal language a rule has named; a [`LangId`] indexes it.
    langs: Vec<Nfa<HState>>,
    /// Tally per construction case (Lemma 1's cases 1–10), flushed to the
    /// obs registry once per [`compile_hre`] call.
    cases: [u64; 10],
}

/// Counter names matching `Ctx::cases`, in the paper's case order.
const CASE_NAMES: [&str; 10] = [
    "core.compile.case.empty",
    "core.compile.case.epsilon",
    "core.compile.case.var",
    "core.compile.case.node",
    "core.compile.case.concat",
    "core.compile.case.alt",
    "core.compile.case.star",
    "core.compile.case.subnode",
    "core.compile.case.embed",
    "core.compile.case.iter",
];

impl Ctx {
    fn fresh(&mut self) -> HState {
        let q = self.next_state;
        self.next_state += 1;
        q
    }

    /// The reserved state `z̄` and the language `{z̄}`, made on first use.
    fn zbar(&mut self, z: SubId) -> (HState, LangId) {
        if let Some(&reserved) = self.zbar.get(&z) {
            return reserved;
        }
        let q = self.fresh();
        let l = self.lang(Nfa::word(&[q]));
        self.zbar.insert(z, (q, l));
        (q, l)
    }

    /// Add a language to the table.
    fn lang(&mut self, nfa: Nfa<HState>) -> LangId {
        self.langs.push(nfa);
        (self.langs.len() - 1) as LangId
    }

    /// Cases 9 and 10: every rule whose language holds the word `z̄` gets
    /// `splice(L)` instead. Each distinct language is rewritten once, so
    /// rules that shared a language before still share one after.
    fn splice_zbar(
        &mut self,
        rules: &mut [(SymId, LangId, HState)],
        z: SubId,
        splice: impl Fn(&Nfa<HState>) -> Nfa<HState>,
    ) {
        let zword = [self.zbar(z).0];
        let mut rewritten: HashMap<LangId, LangId> = HashMap::new();
        for (_, l, _) in rules {
            *l = match rewritten.get(l) {
                Some(&new) => new,
                None => {
                    let old = &self.langs[*l as usize];
                    let new = if old.accepts(&zword) {
                        let spliced = splice(old);
                        self.lang(spliced)
                    } else {
                        *l
                    };
                    rewritten.insert(*l, new);
                    new
                }
            };
        }
    }
}

/// Merge two `ι` maps (union of state sets pointwise).
fn merge_iota(
    mut a: HashMap<Leaf, Vec<HState>>,
    b: HashMap<Leaf, Vec<HState>>,
) -> HashMap<Leaf, Vec<HState>> {
    for (leaf, states) in b {
        let slot = a.entry(leaf).or_default();
        for q in states {
            if !slot.contains(&q) {
                slot.push(q);
            }
        }
    }
    a
}

fn compile_frag(e: &Hre, ctx: &mut Ctx) -> Frag {
    ctx.cases[match e {
        Hre::Empty => 0,
        Hre::Epsilon => 1,
        Hre::Var(_) => 2,
        Hre::Node(..) => 3,
        Hre::Concat(..) => 4,
        Hre::Alt(..) => 5,
        Hre::Star(_) => 6,
        Hre::SubNode(..) => 7,
        Hre::Embed(..) => 8,
        Hre::Iter(..) => 9,
    }] += 1;
    match e {
        // Case 1: ∅.
        Hre::Empty => Frag {
            iota: HashMap::new(),
            rules: Vec::new(),
            finals: Nfa::empty_lang(),
        },
        // Case 2: ε.
        Hre::Epsilon => Frag {
            iota: HashMap::new(),
            rules: Vec::new(),
            finals: Nfa::epsilon(),
        },
        // Case 3: a variable x.
        Hre::Var(x) => {
            let q = ctx.fresh();
            Frag {
                iota: HashMap::from([(Leaf::Var(*x), vec![q])]),
                rules: Vec::new(),
                finals: Nfa::word(&[q]),
            }
        }
        // Case 4: a⟨e⟩ — a fresh state accepting exactly e's finals as
        // content.
        Hre::Node(a, inner) => {
            let f = compile_frag(inner, ctx);
            let q = ctx.fresh();
            let mut rules = f.rules;
            rules.push((*a, ctx.lang(f.finals), q));
            Frag {
                iota: f.iota,
                rules,
                finals: Nfa::word(&[q]),
            }
        }
        // Case 5: e₁ e₂.
        Hre::Concat(e1, e2) => {
            let f1 = compile_frag(e1, ctx);
            let f2 = compile_frag(e2, ctx);
            let mut rules = f1.rules;
            rules.extend(f2.rules);
            Frag {
                iota: merge_iota(f1.iota, f2.iota),
                rules,
                finals: f1.finals.concat(&f2.finals),
            }
        }
        // Case 6: e₁ | e₂.
        Hre::Alt(e1, e2) => {
            let f1 = compile_frag(e1, ctx);
            let f2 = compile_frag(e2, ctx);
            let mut rules = f1.rules;
            rules.extend(f2.rules);
            Frag {
                iota: merge_iota(f1.iota, f2.iota),
                rules,
                finals: f1.finals.union(&f2.finals),
            }
        }
        // Case 7: e*.
        Hre::Star(inner) => {
            let f = compile_frag(inner, ctx);
            Frag {
                iota: f.iota,
                rules: f.rules,
                finals: f.finals.star(),
            }
        }
        // Case 8: a⟨z⟩ — the reserved state z̄ as sole content.
        Hre::SubNode(a, z) => {
            let (zb, l) = ctx.zbar(*z);
            let q = ctx.fresh();
            Frag {
                iota: HashMap::from([(Leaf::Sub(*z), vec![zb])]),
                rules: vec![(*a, l, q)],
                finals: Nfa::word(&[q]),
            }
        }
        // Case 9: e₁ ∘_z e₂ — splice F₁ into every rule of e₂ that accepted
        // the one-letter word z̄, removing the literal z̄ word; z leaves of
        // e₂ are no longer variables of the result.
        Hre::Embed(e1, z, e2) => {
            let f1 = compile_frag(e1, ctx);
            let mut f2 = compile_frag(e2, ctx);
            let zword = [ctx.zbar(*z).0];
            ctx.splice_zbar(&mut f2.rules, *z, |lang| {
                lang.remove_word(&zword).union(&f1.finals)
            });
            let mut rules = f1.rules;
            rules.extend(f2.rules);
            let mut iota2 = f2.iota;
            iota2.remove(&Leaf::Sub(*z));
            Frag {
                iota: merge_iota(f1.iota, iota2),
                rules,
                finals: f2.finals,
            }
        }
        // Case 10: e^z — as case 9 with e embedded into itself, but the
        // literal z̄ word is kept (the base e^{1,z} = e leaves z in place).
        Hre::Iter(inner, z) => {
            let mut f = compile_frag(inner, ctx);
            let finals = &f.finals;
            ctx.splice_zbar(&mut f.rules, *z, |lang| lang.clone().union(finals));
            f
        }
    }
}

/// Compile a hedge regular expression into a non-deterministic hedge
/// automaton accepting exactly `L(e)` (Lemma 1).
pub fn compile_hre(e: &Hre) -> Nha {
    let _span = obs::span("core.compile");
    let mut ctx = Ctx {
        next_state: 0,
        zbar: HashMap::new(),
        langs: Vec::new(),
        cases: [0; 10],
    };
    let frag = compile_frag(e, &mut ctx);
    // The state alphabet is closed: determinize each language the final
    // rules name, once, into a table over it, renumbering the survivors
    // densely.
    let num_states = ctx.next_state.max(1);
    let mut renumber: HashMap<LangId, LangId> = HashMap::new();
    let mut langs = Vec::new();
    let mut rules: HashMap<SymId, Vec<(LangId, HState)>> = HashMap::new();
    let num_rules = frag.rules.len() as u64;
    for (a, l, q) in frag.rules {
        let id = *renumber.entry(l).or_insert_with(|| {
            langs.push(ctx.langs[l as usize].to_dense(num_states as usize));
            (langs.len() - 1) as LangId
        });
        rules.entry(a).or_default().push((id, q));
    }
    obs::counter_inc("core.compile.calls");
    obs::counter_add("core.compile.states", u64::from(num_states));
    obs::counter_add("core.compile.rules", num_rules);
    obs::counter_add("core.compile.languages", langs.len() as u64);
    for (name, &n) in CASE_NAMES.iter().zip(&ctx.cases) {
        if n > 0 {
            obs::counter_add(name, n);
        }
    }
    Nha::from_parts(num_states, frag.iota, langs, rules, frag.finals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hre::parse_hre;
    use hedgex_ha::determinize;
    use hedgex_ha::enumerate::enumerate_hedges_with_subs;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// Compile `expr` and check the NHA against the declarative matcher on
    /// every small hedge over the expression's alphabet.
    fn check_equiv(expr: &str, max_nodes: usize) {
        let mut ab = Alphabet::new();
        let e = parse_hre(expr, &mut ab).unwrap();
        let nha = compile_hre(&e);
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let subs: Vec<_> = ab.subs().collect();
        let mut n = 0;
        for h in enumerate_hedges_with_subs(&syms, &vars, &subs, max_nodes) {
            let spec = e.matches(&h);
            let got = nha.accepts(&h);
            assert_eq!(
                spec, got,
                "{expr}: mismatch on hedge {:?} (spec {spec}, nha {got})",
                h
            );
            n += 1;
        }
        assert!(n >= 1, "no hedges enumerated for {expr}");
    }

    #[test]
    fn simple_forms_agree_with_spec() {
        check_equiv("ε", 3);
        check_equiv("!", 3);
        check_equiv("$x", 3);
        check_equiv("a", 3);
        check_equiv("a<b>", 4);
        check_equiv("a<$x b>", 4);
    }

    #[test]
    fn horizontal_operators_agree_with_spec() {
        check_equiv("a b", 4);
        check_equiv("a|b", 4);
        check_equiv("a*", 4);
        check_equiv("(a|b)* a", 4);
        check_equiv("a<b*>", 4);
        check_equiv("a<(b|$x)*>", 4);
    }

    #[test]
    fn substitution_literal_agrees_with_spec() {
        check_equiv("a<%z>", 3);
        check_equiv("a<%z> b<%z>", 4);
        check_equiv("a<%z>|a<%w>", 3);
    }

    #[test]
    fn embedding_agrees_with_spec() {
        check_equiv("b @z a<%z>", 4);
        check_equiv("(b|c) @z a<%z> a<%z>", 4);
        check_equiv("(b<%w> @z a<%z>)", 4);
        check_equiv("ε @z a<%z>", 3);
        check_equiv("! @z a<%z>", 3);
    }

    #[test]
    fn vertical_closure_agrees_with_spec() {
        check_equiv("a<%z>*^z", 4);
        check_equiv("a<%z>^z", 4);
        check_equiv("(a<%z>|b)*^z", 4);
    }

    #[test]
    fn nested_embed_agrees_with_spec() {
        check_equiv("d @z (b<%z> @z a<%z>)", 5);
        check_equiv("(a<%z>*^z) @w b<%w>", 4);
    }

    #[test]
    fn paper_example_all_a_hedges() {
        // L(a⟨z⟩*^z): every hedge whose symbols are all a (and whose
        // substitution symbols are z).
        let mut ab = Alphabet::new();
        let e = parse_hre("a<%z>*^z", &mut ab).unwrap();
        let nha = compile_hre(&e);
        for (src, expect) in [
            ("", true),
            ("a", true),
            ("a a a", true),
            ("a<a<a> a> a", true),
            ("a<a<a<a<a>>>>", true),
            ("a<%z> a", true),
            ("b", false),
            ("a<b>", false),
            ("a<a<b>>", false),
        ] {
            let h = parse_hedge(src, &mut ab).unwrap();
            assert_eq!(nha.accepts(&h), expect, "on {src:?}");
        }
    }

    #[test]
    fn deep_hedges_beyond_enumeration() {
        // The closure must accept arbitrary depth — build depth 50.
        let mut ab = Alphabet::new();
        let e = parse_hre("a<%z>*^z", &mut ab).unwrap();
        let nha = compile_hre(&e);
        let a = ab.get_sym("a").unwrap();
        let mut h = hedgex_hedge::Hedge::leaf(a);
        for _ in 0..50 {
            h = hedgex_hedge::Hedge::node(a, h);
        }
        assert!(nha.accepts(&h));
    }

    #[test]
    fn determinization_of_compiled_automaton() {
        let mut ab = Alphabet::new();
        let e = parse_hre("(a<b*>|b<a*>)*", &mut ab).unwrap();
        let nha = compile_hre(&e);
        let det = determinize(&nha);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges_with_subs(&syms, &[], &[], 5) {
            assert_eq!(nha.accepts(&h), det.dha.accepts(&h));
            assert_eq!(e.matches(&h), det.dha.accepts(&h));
        }
    }

    #[test]
    fn universal_rules_share_one_language() {
        // Case 8 interns z̄ once and case 10 rewrites it once, so all eight
        // aᵢ⟨z⟩ rules name the language z̄ ∪ F.
        let names = [
            "article", "section", "title", "para", "figure", "caption", "table", "note",
        ];
        let alts: Vec<String> = names.iter().map(|s| format!("{s}<%z>")).collect();
        let mut ab = Alphabet::new();
        let e = parse_hre(&format!("({}|$#text)*^z", alts.join("|")), &mut ab).unwrap();
        let nha = compile_hre(&e);
        let rules: Vec<(LangId, HState)> = nha
            .symbols()
            .flat_map(|a| nha.rules(a).iter().copied())
            .collect();
        assert_eq!(rules.len(), 8);
        assert!(rules.iter().all(|&(l, _)| l == rules[0].0));
    }

    #[test]
    fn embedding_rewrites_each_language_once() {
        // Both a-rules name {z̄} before the embedding and b's language
        // after it, and c's rule keeps its own.
        let mut ab = Alphabet::new();
        let e = parse_hre("b @z (a<%z> a<%z> c<ε>)", &mut ab).unwrap();
        let nha = compile_hre(&e);
        let a = ab.get_sym("a").unwrap();
        let c = ab.get_sym("c").unwrap();
        let a_langs: Vec<LangId> = nha.rules(a).iter().map(|&(l, _)| l).collect();
        assert_eq!(a_langs.len(), 2);
        assert_eq!(a_langs[0], a_langs[1]);
        assert_ne!(nha.rules(c)[0].0, a_langs[0]);
        check_equiv("b @z (a<%z> a<%z> c<ε>)", 5);
    }

    #[test]
    fn empty_expression_compiles_to_empty_language() {
        let mut ab = Alphabet::new();
        let e = parse_hre("a<!>", &mut ab).unwrap();
        let nha = compile_hre(&e);
        assert!(!nha.accepts(&parse_hedge("a", &mut ab).unwrap()));
        assert!(!nha.accepts(&parse_hedge("a<b>", &mut ab).unwrap()));
        assert!(!nha.accepts(&parse_hedge("", &mut ab).unwrap()));
    }
}
