//! Lemma 2: extracting a hedge regular expression from a hedge automaton.
//!
//! The construction decomposes accepted hedges at occurrences of states.
//! The paper's `R(q, Q₁, Q₂)` — hedges whose non-connector internal nodes
//! use only states in `Q₁` and whose *connector* leaves (stand-ins for
//! subtrees evaluating to a known state) use only states in `Q₂` — is
//! realized here with:
//!
//! * **node-states** `(a, q)`: the paper's `ζ` disambiguation ("use
//!   `(Q × Σ) ∪ Q` as a state set") is built in by always tracking which
//!   symbol produced a state;
//! * **connectors as substitution symbols**: the paper labels connector
//!   nodes `a⟨q⟩` with the state as a leaf; here each node-state `t`
//!   gets a dedicated substitution symbol `z_t`, so the combination
//!   operators `∘_p` and `·^p` of the three displayed equations are exactly
//!   the HRE operators `Embed` and `Iter`;
//! * the base case converts each horizontal language `α⁻¹(a, q)` to a
//!   string regex (state elimination) and substitutes, per state atom,
//!   the alternation of matching variable leaves and permitted connectors.
//!
//! The result is validated by the round-trip property (Theorem 2):
//! `compile(decompile(M)) ≡ M` on exhaustively enumerated hedges.
//!
//! Limitations: leaf mappings on *substitution symbols* (`ι(z)`) are not
//! supported — bare `z̄` leaves are an internal device of Lemma 1, not
//! expressible as an HRE over `H[Σ, X]`.

use std::collections::HashMap;

use hedgex_automata::{dfa_to_regex, CharClass, Dfa, Regex};
use hedgex_ha::analysis::useful;
use hedgex_ha::{Dha, HState, Leaf};
use hedgex_hedge::{Alphabet, SubId, SymId, VarId};

use crate::hre::Hre;

/// A node-state: "a node labelled `a` evaluating to `q`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeSt {
    a: SymId,
    q: HState,
}

struct Decompiler<'a> {
    dha: &'a Dha,
    /// The node-state universe, restricted to useful states with non-empty
    /// horizontal languages (everything else cannot occur in an accepting
    /// computation and would only bloat the output).
    universe: Vec<NodeSt>,
    /// Substitution symbol per node-state (index into `universe`).
    zs: Vec<SubId>,
    /// Variables per state: `x` with `ι(x) = q`.
    leaf_vars: HashMap<HState, Vec<VarId>>,
    /// `α⁻¹(a, q)` regexes, cached.
    inv_regex: HashMap<NodeSt, Regex<HState>>,
    /// Memo for `R(t, Q1-mask, Q2-mask)` (masks index `universe`).
    memo: HashMap<(usize, u64, u64), Hre>,
}

/// Convert a deterministic hedge automaton into a hedge regular expression
/// with the same language (Lemma 2). Fresh substitution symbols are
/// interned into `ab`.
///
/// # Panics
///
/// Panics if the automaton maps substitution-symbol leaves (see module
/// docs), or if it has more than 64 useful node-states (the memoization
/// masks are u64; Lemma 2 is an inherently exponential construction, so
/// this bound is not the practical limit anyway).
pub fn decompile_dha(dha: &Dha, ab: &mut Alphabet) -> Hre {
    let use_states = useful(dha);
    let mut leaf_vars: HashMap<HState, Vec<VarId>> = HashMap::new();
    for leaf in dha.leaves() {
        match leaf {
            Leaf::Var(x) => leaf_vars.entry(dha.iota(leaf)).or_default().push(x),
            Leaf::Sub(_) => {
                panic!("decompile_dha: ι on substitution symbols is not representable as an HRE")
            }
        }
    }
    let mut universe = Vec::new();
    for a in dha.symbols() {
        let hf = dha.horiz(a).expect("declared symbol");
        for q in 0..dha.num_states() {
            if use_states[q as usize] && !hf.preimage(q).is_empty_lang() {
                universe.push(NodeSt { a, q });
            }
        }
    }
    universe.sort_by_key(|t| (t.a, t.q));
    assert!(
        universe.len() <= 64,
        "decompile_dha: more than 64 useful node-states"
    );
    let zs: Vec<SubId> = universe
        .iter()
        .map(|t| ab.sub(&format!("ζ{}·{}", ab.sym_name(t.a).to_owned(), t.q)))
        .collect();
    let mut d = Decompiler {
        dha,
        universe,
        zs,
        leaf_vars,
        inv_regex: HashMap::new(),
        memo: HashMap::new(),
    };

    // Top level: the regex of F with each state atom expanded to "any tree
    // evaluating to that state".
    let full: u64 = if d.universe.is_empty() {
        0
    } else {
        (!0u64) >> (64 - d.universe.len())
    };
    let f_regex = dfa_to_regex(&dha.finals().to_dfa());
    let universe_snapshot = d.universe.clone();
    regex_to_hre(&f_regex, &mut |c| {
        let mut alt = Hre::Empty;
        for q in expand_class(c, dha.num_states()) {
            if !use_states[q as usize] {
                continue;
            }
            for x in d.leaf_vars.get(&q).into_iter().flatten() {
                alt = alt.alt(Hre::Var(*x));
            }
            for (i, t) in universe_snapshot.iter().enumerate() {
                if t.q == q {
                    let content = d.r(i, full, 0);
                    alt = alt.alt(Hre::node(t.a, content));
                }
            }
        }
        alt
    })
}

/// The concrete states matched by a class, within `0..n`.
fn expand_class(c: &CharClass<HState>, n: u32) -> Vec<HState> {
    (0..n).filter(|q| c.contains(q)).collect()
}

/// Fold a string regex over states into an HRE, replacing each atom with
/// the hedge expression produced by `f` (the "replace each r by e_r" step
/// of Lemma 2).
fn regex_to_hre(re: &Regex<HState>, f: &mut impl FnMut(&CharClass<HState>) -> Hre) -> Hre {
    match re {
        Regex::Empty => Hre::Empty,
        Regex::Epsilon => Hre::Epsilon,
        Regex::Sym(c) => f(c),
        Regex::Concat(a, b) => regex_to_hre(a, f).concat(regex_to_hre(b, f)),
        Regex::Alt(a, b) => regex_to_hre(a, f).alt(regex_to_hre(b, f)),
        Regex::Star(a) => regex_to_hre(a, f).star(),
    }
}

impl Decompiler<'_> {
    fn inv(&mut self, t: NodeSt) -> Regex<HState> {
        if let Some(r) = self.inv_regex.get(&t) {
            return r.clone();
        }
        let dfa: Dfa<HState> = self
            .dha
            .horiz(t.a)
            .expect("universe only holds declared symbols")
            .inverse(t.q);
        let re = dfa_to_regex(&dfa);
        self.inv_regex.insert(t, re.clone());
        re
    }

    /// `R(t, Q₁, Q₂)`: the content language of a `t`-node, where internal
    /// non-connector nodes use node-states in the `q1` mask and connector
    /// leaves use node-states in the `q2` mask.
    fn r(&mut self, t: usize, q1: u64, q2: u64) -> Hre {
        if let Some(h) = self.memo.get(&(t, q1, q2)) {
            return h.clone();
        }
        let result = if q1 == 0 {
            self.r_base(t, q2)
        } else {
            // Pick p = the highest set bit of q1 and apply the paper's
            // combined equation:
            //   R(t, Q1∪{p}, Q2) =
            //     (R(p,Q1,Q2) ∘_p R(p,Q1,Q2∪{p})^p ∪ R(p,Q1,Q2))
            //       ∘_p R(t,Q1,Q2∪{p}) ∪ R(t,Q1,Q2).
            let p = 63 - q1.leading_zeros() as usize;
            let pbit = 1u64 << p;
            let q1s = q1 & !pbit; // Q1 without p
            let zp = self.zs[p];

            let r_p_small = self.r(p, q1s, q2);
            let r_p_grow = self.r(p, q1s, q2 | pbit);
            let lower = r_p_small
                .clone()
                .embed(zp, r_p_grow.iter(zp))
                .alt(r_p_small);
            let r_t_grow = self.r(t, q1s, q2 | pbit);
            let r_t_small = self.r(t, q1s, q2);
            lower.embed(zp, r_t_grow).alt(r_t_small)
        };
        self.memo.insert((t, q1, q2), result.clone());
        result
    }

    /// Base case `R(t, ∅, Q₂)`: every top-level tree of the content is a
    /// leaf (variable) or a connector from `Q₂`.
    fn r_base(&mut self, t: usize, q2: u64) -> Hre {
        let node = self.universe[t];
        let re = self.inv(node);
        let n = self.dha.num_states();
        let universe = self.universe.clone();
        let zs = self.zs.clone();
        regex_to_hre(&re, &mut |c| {
            let mut alt = Hre::Empty;
            for q in expand_class(c, n) {
                for x in self.leaf_vars.get(&q).into_iter().flatten() {
                    alt = alt.alt(Hre::Var(*x));
                }
                for (i, u) in universe.iter().enumerate() {
                    if u.q == q && q2 & (1 << i) != 0 {
                        alt = alt.alt(Hre::sub_node(u.a, zs[i]));
                    }
                }
            }
            alt
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_hre;
    use crate::hre::parse_hre;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_ha::paper::m0;
    use hedgex_ha::{determinize, DhaBuilder, Nha};

    /// Round-trip a DHA through Lemma 2 + Lemma 1 and compare languages on
    /// all small hedges (Theorem 2).
    fn roundtrip(dha: &Dha, ab: &mut Alphabet, max_nodes: usize) {
        let hre = decompile_dha(dha, ab);
        let back: Nha = compile_hre(&hre);
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let mut count = 0;
        for h in enumerate_hedges(&syms, &vars, max_nodes) {
            assert_eq!(
                dha.accepts(&h),
                back.accepts(&h),
                "round-trip mismatch on {h:?}"
            );
            count += 1;
        }
        assert!(count > 2, "too few hedges enumerated");
    }

    #[test]
    fn roundtrip_m0() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        roundtrip(&m, &mut ab, 5);
    }

    #[test]
    fn roundtrip_flat_language() {
        // L = a* at the top, a's empty.
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut b = DhaBuilder::new(2, 1);
        b.rule(a, hedgex_automata::Regex::Epsilon, 0)
            .finals(hedgex_automata::Regex::sym(0).star());
        roundtrip(&b.build(), &mut ab, 5);
    }

    #[test]
    fn roundtrip_recursive_language() {
        // L = trees where every a contains a* (all-a hedges): recursive.
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut b = DhaBuilder::new(2, 1);
        b.rule(a, hedgex_automata::Regex::sym(0).star(), 0)
            .finals(hedgex_automata::Regex::sym(0).star());
        roundtrip(&b.build(), &mut ab, 5);
    }

    #[test]
    fn roundtrip_two_symbols_alternating() {
        // a's contain only b's, b's contain only a's, top is a*.
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let bsym = ab.sym("b");
        let mut b = DhaBuilder::new(3, 2);
        b.rule(a, hedgex_automata::Regex::sym(1).star(), 0)
            .rule(bsym, hedgex_automata::Regex::sym(0).star(), 1)
            .finals(hedgex_automata::Regex::sym(0).star());
        roundtrip(&b.build(), &mut ab, 5);
    }

    #[test]
    fn roundtrip_with_variables() {
        // a⟨x*⟩ sequences.
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let x = ab.var("x");
        let mut b = DhaBuilder::new(3, 2);
        b.leaf(Leaf::Var(x), 1)
            .rule(a, hedgex_automata::Regex::sym(1).star(), 0)
            .finals(hedgex_automata::Regex::sym(0).star());
        roundtrip(&b.build(), &mut ab, 5);
    }

    #[test]
    fn roundtrip_graded_expression() {
        // Graded bounds desugar at parse time, so the compile → decompile →
        // compile cycle never sees a `{…}` node — the round-tripped HRE
        // must still denote the n-fold expanded language (ISSUE 9).
        let mut ab = Alphabet::new();
        let e = parse_hre("a{>=2} b{<=1}", &mut ab).unwrap();
        let det = determinize(&compile_hre(&e));
        let hre2 = decompile_dha(&det.dha, &mut ab);
        let back = compile_hre(&hre2);
        let syms: Vec<_> = ab.syms().collect();
        let mut hits = 0;
        for h in enumerate_hedges(&syms, &[], 5) {
            assert_eq!(e.matches(&h), back.accepts(&h), "cycle mismatch on {h:?}");
            hits += usize::from(e.matches(&h));
        }
        assert!(hits > 0, "a a, a a a, a a b … must be in the language");
    }

    #[test]
    fn roundtrip_compiled_expression() {
        // HRE → NHA → DHA → HRE → NHA: full Theorem 2 cycle.
        let mut ab = Alphabet::new();
        let e = parse_hre("(a<b*> | b)*", &mut ab).unwrap();
        let det = determinize(&compile_hre(&e));
        let hre2 = decompile_dha(&det.dha, &mut ab);
        let back = compile_hre(&hre2);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 5) {
            assert_eq!(e.matches(&h), back.accepts(&h), "cycle mismatch on {h:?}");
        }
    }

    #[test]
    fn roundtrip_exact_language_equality() {
        // The equivalence decision procedure turns Theorem 2 into an exact
        // check: L(compile(decompile(M))) = L(M), no sampling bound.
        use hedgex_ha::ops::equivalent;
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let hre = decompile_dha(&m, &mut ab);
        let back = determinize(&compile_hre(&hre)).dha;
        if let Err(w) = equivalent(&m, &back) {
            panic!(
                "languages differ on witness {w:?}: original {}, roundtrip {}",
                m.accepts(&w),
                back.accepts(&w)
            );
        }
    }

    #[test]
    fn roundtrip_exact_equality_recursive() {
        use hedgex_ha::ops::equivalent;
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let bsym = ab.sym("b");
        let mut b = DhaBuilder::new(3, 2);
        b.rule(a, hedgex_automata::Regex::sym(1).star(), 0)
            .rule(bsym, hedgex_automata::Regex::sym(0).star(), 1)
            .finals(hedgex_automata::Regex::sym(0).star());
        let m = b.build();
        let hre = decompile_dha(&m, &mut ab);
        let back = determinize(&compile_hre(&hre)).dha;
        assert!(equivalent(&m, &back).is_ok());
    }

    #[test]
    fn empty_language_decompiles_to_empty() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut b = DhaBuilder::new(2, 1);
        // F requires state 0 but nothing produces it.
        b.rule(a, hedgex_automata::Regex::sym(0), 1)
            .finals(hedgex_automata::Regex::sym(0));
        let hre = decompile_dha(&b.build(), &mut ab);
        let nha = compile_hre(&hre);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 4) {
            assert!(!nha.accepts(&h));
        }
    }

    #[test]
    fn deep_acceptance_beyond_enumeration() {
        // The decompiled expression must capture unbounded depth.
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut b = DhaBuilder::new(2, 1);
        b.rule(a, hedgex_automata::Regex::sym(0).star(), 0)
            .finals(hedgex_automata::Regex::sym(0).star());
        let m = b.build();
        let hre = decompile_dha(&m, &mut ab);
        let back = compile_hre(&hre);
        let mut h = hedgex_hedge::Hedge::leaf(a);
        for _ in 0..20 {
            h = hedgex_hedge::Hedge::node(a, h);
        }
        assert!(m.accepts(&h));
        assert!(back.accepts(&h));
    }

    use hedgex_ha::Leaf;
}
