//! Unambiguity of hedge regular expressions (Section 9, future work).
//!
//! The paper closes with: *"we would like to introduce variables to hedge
//! regular expressions … we have to study unambiguity of hedge regular
//! expressions. An ambiguous expression may have more than one way to match
//! a given hedge, while an unambiguous expression has at most only one such
//! way. Variables can be safely introduced to unambiguous expressions."*
//!
//! This module implements the automaton-level decision procedure:
//! a non-deterministic hedge automaton is **computation-ambiguous** when
//! some hedge admits two *distinct accepting computations* (Definition 7
//! computations differing at at least one node). Because Lemma 1 gives
//! every atom occurrence its own state, distinct ways of matching atoms to
//! nodes become distinct computations, so computation-ambiguity of
//! `compile(e)` detects exactly the matching ambiguity variable binding
//! cares about — up to *derivation* ambiguity inside the string regexes
//! (e.g. `(a*)*` re-bracketing the same letters), which binds no variables
//! differently and is therefore harmless for the paper's purpose.
//!
//! Decision procedure: a flagged self-product. States are pairs of states
//! with a "diverged" bit that is set when the pair differs at a node (or
//! below); the automaton is ambiguous iff the product accepts with the bit
//! set somewhere at the top level.

use std::collections::BTreeMap;

use hedgex_automata::{bits, saturate, Worklist};
use hedgex_ha::{HState, Nha};

use crate::compile::compile_hre;
use crate::hre::Hre;

/// Is some hedge matched by `e` "in more than one way" (two distinct
/// accepting computations of the Lemma 1 automaton)?
pub fn hre_is_ambiguous(e: &Hre) -> bool {
    nha_is_ambiguous(&compile_hre(e))
}

/// Does some hedge admit two distinct accepting computations?
pub fn nha_is_ambiguous(nha: &Nha) -> bool {
    // ---- Flagged pair states: (q1, q2, diverged) interned. -------------
    let mut pairs: Worklist<(HState, HState, bool)> = Worklist::new();

    // Leaves: every pair of ι-states for the same leaf.
    for (_, qs) in nha.iotas() {
        for &q1 in qs {
            for &q2 in qs {
                pairs.intern((q1, q2, q1 != q2));
            }
        }
    }

    // Discovery of producible flagged pairs: one machine per pair of rules
    // of a symbol, over (d1 state, d2 state, any child diverged so far).
    let machines: Vec<_> = nha
        .symbols()
        .flat_map(|a| {
            let rules = nha.rules(a).iter().map(|&(l, r)| (nha.lang(l), r));
            rules
                .clone()
                .flat_map(move |(d1, r1)| rules.clone().map(move |(d2, r2)| (d1, r1, d2, r2)))
        })
        .collect();
    saturate(
        &mut pairs,
        machines
            .iter()
            .map(|&(d1, _, d2, _)| (d1.start(), d2.start(), false)),
        |m, &(s1, s2, fl), pairs| {
            let (d1, r1, d2, r2) = machines[m];
            if d1.is_accepting(s1) && d2.is_accepting(s2) {
                pairs.intern((r1, r2, fl || r1 != r2));
            }
        },
        |m, &(s1, s2, fl), &(q1, q2, pf)| {
            let (d1, _, d2, _) = machines[m];
            (d1.step(s1, q1), d2.step(s2, q2), fl || pf)
        },
    );
    let pairs = pairs.into_keys();

    // ---- Top level: ∃ word of producible pairs, flagged somewhere, both
    // projections accepted by F. -----------------------------------------
    let f = nha.finals().closed_moves(nha.num_states() as usize);
    // Product-of-two-copies reachability with a flag bit, each copy an
    // ε-closed set of F's states.
    let mut states = Worklist::new();
    let start = f.start().to_vec();
    states.intern((start.clone(), start, false));
    let mut ambiguous = false;
    states.explore(|states, _, (s1, s2, fl)| {
        // Subset simulation is exact for run *existence*: each copy i reads
        // its own projection of the word, and an accepting member in the
        // final subset witnesses an accepting run.
        ambiguous |= *fl && f.accepts(s1) && f.accepts(s2);
        if ambiguous {
            return; // drain the frontier without expanding it
        }
        // One step by each producible pair.
        for &(q1, q2, pf) in &pairs {
            let (m1, m2) = (f.step(s1, [q1]), f.step(s2, [q2]));
            if !bits::is_empty(&m1) && !bits::is_empty(&m2) {
                states.intern((m1, m2, *fl || pf));
            }
        }
    });
    ambiguous
}

/// Count the accepting computations of `nha` on a small hedge by explicit
/// enumeration — the executable specification `nha_is_ambiguous` is tested
/// against. Exponential; test use only.
pub fn count_computations(nha: &Nha, h: &hedgex_hedge::Hedge) -> u64 {
    use hedgex_hedge::Tree;
    // ways(t, q): number of computations of tree t ending in state q.
    fn ways(nha: &Nha, t: &Tree, q: HState) -> u64 {
        match t {
            Tree::Var(x) => u64::from(nha.iota(hedgex_ha::Leaf::Var(*x)).contains(&q)),
            Tree::Subst(z) => u64::from(nha.iota(hedgex_ha::Leaf::Sub(*z)).contains(&q)),
            Tree::Node(a, children) => {
                // Sum over child state words w with q ∈ α(a, w) of the
                // product of child ways.
                let mut total = 0u64;
                let words = all_words(nha, &children.0);
                for (w, count) in words {
                    let member = nha
                        .rules(*a)
                        .iter()
                        .any(|&(l, r)| r == q && nha.lang(l).accepts(&w));
                    if member {
                        total += count;
                    }
                }
                total
            }
        }
    }
    /// All child state words with their multiplicity (product of ways).
    fn all_words(nha: &Nha, children: &[Tree]) -> BTreeMap<Vec<HState>, u64> {
        let mut acc: BTreeMap<Vec<HState>, u64> = BTreeMap::new();
        acc.insert(Vec::new(), 1);
        for c in children {
            let mut next: BTreeMap<Vec<HState>, u64> = BTreeMap::new();
            for (w, n) in &acc {
                for q in 0..nha.num_states() {
                    let k = ways(nha, c, q);
                    if k > 0 {
                        let mut w2 = w.clone();
                        w2.push(q);
                        *next.entry(w2).or_insert(0) += n * k;
                    }
                }
            }
            acc = next;
        }
        acc
    }
    let mut total = 0u64;
    for (w, count) in all_words(nha, &h.0) {
        if nha.finals().accepts(&w) {
            total += count;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hre::parse_hre;
    use hedgex_ha::enumerate::enumerate_hedges_with_subs;
    use hedgex_hedge::Alphabet;

    fn check(src: &str, expect_ambiguous: bool) {
        let mut ab = Alphabet::new();
        let e = parse_hre(src, &mut ab).unwrap();
        assert_eq!(
            hre_is_ambiguous(&e),
            expect_ambiguous,
            "{src} ambiguity mismatch"
        );
    }

    #[test]
    fn unambiguous_expressions() {
        check("a", false);
        check("a b", false);
        check("a*", false);
        check("a<b>", false);
        check("(a|b)*", false);
        check("a? b", false);
        check("a<%z>*^z", false);
        check("$x | a", false);
    }

    #[test]
    fn ambiguous_expressions() {
        // NB: the smart constructor collapses *identical* alternatives
        // (`a|a` parses to `a`), so ambiguity tests use overlapping but
        // structurally distinct branches.
        check("a|a b?", true);
        check("a* a*", true);
        check("a<b|b c?>", true);
        check("a? a?", true); // "a" matches via either optional
        check("(a|ε)(a|ε)", true);
        check("a<(b|b c?)*>", true);
    }

    #[test]
    fn ambiguity_needing_context() {
        // Overlap only on some words: "a a" matches both branches.
        check("a a|a a b?", true);
        // Union with disjoint first symbols is unambiguous.
        check("a b|b a", false);
    }

    #[test]
    fn builder_level_duplicates_are_ambiguous() {
        // Bypass the smart constructors: a literal duplicated rule.
        use hedgex_automata::Regex;
        use hedgex_ha::NhaBuilder;
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut nb = NhaBuilder::new(2);
        nb.rule(a, Regex::Epsilon, 0)
            .rule(a, Regex::Epsilon, 1)
            .finals(Regex::sym(0u32).alt(Regex::sym(1)));
        assert!(nha_is_ambiguous(&nb.build()));
        // Same but with only state 0 accepted: unambiguous.
        let mut nb = NhaBuilder::new(2);
        nb.rule(a, Regex::Epsilon, 0)
            .rule(a, Regex::Epsilon, 1)
            .finals(Regex::sym(0u32));
        assert!(!nha_is_ambiguous(&nb.build()));
    }

    #[test]
    fn checker_agrees_with_counting_spec() {
        // For each expression: if the checker says unambiguous, no small
        // hedge has ≥2 computations; if it says ambiguous, some small hedge
        // does (all our ambiguous cases have small witnesses).
        for (src, _) in [
            ("a", false),
            ("a|a b?", true),
            ("a* a*", true),
            ("a<b>", false),
            ("a<b|b c?>", true),
            ("(a|b)* a?", true), // "a" via the star or via the optional
            ("(a|b)*", false),
        ] {
            let mut ab = Alphabet::new();
            let e = parse_hre(src, &mut ab).unwrap();
            let nha = compile_hre(&e);
            let ambiguous = nha_is_ambiguous(&nha);
            let syms: Vec<_> = ab.syms().collect();
            let vars: Vec<_> = ab.vars().collect();
            let subs: Vec<_> = ab.subs().collect();
            let witness = enumerate_hedges_with_subs(&syms, &vars, &subs, 4)
                .iter()
                .any(|h| count_computations(&nha, h) >= 2);
            assert_eq!(
                ambiguous, witness,
                "{src}: checker {ambiguous}, small-witness {witness}"
            );
        }
    }

    #[test]
    fn counting_spec_basics() {
        let mut ab = Alphabet::new();
        let e = parse_hre("a|a b?", &mut ab).unwrap();
        let nha = compile_hre(&e);
        let a = ab.get_sym("a").unwrap();
        let h = hedgex_hedge::Hedge::leaf(a);
        assert_eq!(count_computations(&nha, &h), 2);
        let e = parse_hre("a", &mut ab).unwrap();
        let nha = compile_hre(&e);
        assert_eq!(count_computations(&nha, &h), 1);
        assert_eq!(count_computations(&nha, &hedgex_hedge::Hedge::empty()), 0);
    }
}
