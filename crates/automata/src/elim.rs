//! DFA → regular expression by state elimination.
//!
//! Lemma 2 (hedge automaton → hedge regular expression) bottoms out in
//! ordinary string regular expressions: its base case turns each horizontal
//! language `α⁻¹(ζ(q), q)` — stored as a DFA over states — back into a
//! [`Regex`] whose atoms are then substituted by hedge sub-expressions.

use std::collections::HashMap;

use crate::kernel::coreach;
use crate::{Dfa, Regex, StateId, Sym};

/// Convert a DFA into an equivalent regular expression.
///
/// Classic generalized-NFA state elimination. States from which no accepting
/// state is reachable are dropped up front (they only contribute `∅` terms),
/// which keeps the output readable for the sink-heavy total DFAs this crate
/// produces. Elimination order is lowest-degree-first, a standard heuristic
/// that keeps intermediate expressions small.
pub fn dfa_to_regex<S: Sym>(dfa: &Dfa<S>) -> Regex<S> {
    let n = dfa.num_states();
    // States that can reach an accepting state.
    let live = coreach(n, (0..n as StateId).filter(|&q| dfa.is_accepting(q)), |q| {
        dfa.transitions(q)
            .iter()
            .filter(|(c, _)| !c.is_empty())
            .map(|(_, t)| *t)
    });
    if !live[dfa.start() as usize] {
        return Regex::Empty;
    }

    // Generalized NFA over live states plus fresh start (n) / accept (n+1).
    let gstart = n as StateId;
    let gaccept = n as StateId + 1;
    let mut edges: HashMap<(StateId, StateId), Regex<S>> = HashMap::new();
    let add =
        |edges: &mut HashMap<(StateId, StateId), Regex<S>>, u: StateId, v: StateId, r: Regex<S>| {
            if matches!(r, Regex::Empty) {
                return;
            }
            let slot = edges.entry((u, v)).or_insert(Regex::Empty);
            *slot = std::mem::replace(slot, Regex::Empty).alt(r);
        };
    add(&mut edges, gstart, dfa.start(), Regex::Epsilon);
    for q in 0..n as StateId {
        if !live[q as usize] {
            continue;
        }
        if dfa.is_accepting(q) {
            add(&mut edges, q, gaccept, Regex::Epsilon);
        }
        for (c, t) in dfa.transitions(q) {
            if live[*t as usize] && !c.is_empty() {
                add(&mut edges, q, *t, Regex::class(c.clone()));
            }
        }
    }

    // Eliminate live states, lowest total degree first.
    let mut remaining: Vec<StateId> = (0..n as StateId).filter(|&q| live[q as usize]).collect();
    while !remaining.is_empty() {
        let (pos, &rip) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &q)| edges.keys().filter(|(u, v)| *u == q || *v == q).count())
            .expect("non-empty");
        remaining.swap_remove(pos);

        let self_loop = edges.remove(&(rip, rip)).unwrap_or(Regex::Empty);
        let loop_star = self_loop.star();
        let ins: Vec<(StateId, Regex<S>)> = edges
            .iter()
            .filter(|((_, v), _)| *v == rip)
            .map(|((u, _), r)| (*u, r.clone()))
            .collect();
        let outs: Vec<(StateId, Regex<S>)> = edges
            .iter()
            .filter(|((u, _), _)| *u == rip)
            .map(|((_, v), r)| (*v, r.clone()))
            .collect();
        edges.retain(|(u, v), _| *u != rip && *v != rip);
        for (u, rin) in &ins {
            for (v, rout) in &outs {
                let r = rin.clone().concat(loop_star.clone()).concat(rout.clone());
                add(&mut edges, *u, *v, r);
            }
        }
    }

    edges.remove(&(gstart, gaccept)).unwrap_or(Regex::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nfa;

    /// Round-trip check: regex → DFA → regex → DFA, languages equal.
    fn roundtrip(r: Regex<u8>) {
        let d1 = Nfa::from_regex(&r).to_dfa();
        let r2 = dfa_to_regex(&d1);
        let d2 = Nfa::from_regex(&r2).to_dfa();
        assert!(
            d1.equivalent(&d2),
            "round-trip changed the language of {r}: got {r2}"
        );
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip(Regex::Empty);
        roundtrip(Regex::Epsilon);
        roundtrip(Regex::sym(1u8));
        roundtrip(Regex::word(&[1u8, 2, 3]));
    }

    #[test]
    fn roundtrip_star_and_alt() {
        roundtrip(Regex::sym(1u8).star());
        roundtrip(Regex::sym(1u8).alt(Regex::sym(2)).star());
        roundtrip(Regex::word(&[1u8, 2]).star().concat(Regex::sym(3)));
        roundtrip(
            Regex::sym(1u8)
                .plus()
                .alt(Regex::sym(2).concat(Regex::sym(3).opt())),
        );
    }

    #[test]
    fn roundtrip_with_cofinite_classes() {
        use crate::CharClass;
        roundtrip(Regex::class(CharClass::all_except([5u8])).star());
        roundtrip(Regex::any_sym().concat(Regex::sym(1u8)));
    }

    #[test]
    fn empty_language_produces_empty_regex() {
        let d = Nfa::<u8>::empty_lang().to_dfa();
        assert_eq!(dfa_to_regex(&d), Regex::Empty);
    }

    #[test]
    fn epsilon_language() {
        let d = Nfa::<u8>::epsilon().to_dfa();
        let r = dfa_to_regex(&d);
        assert!(r.nullable());
        let d2 = Nfa::from_regex(&r).to_dfa();
        assert!(d2.accepts(&[]));
        assert!(!d2.accepts(&[1]));
    }
}
