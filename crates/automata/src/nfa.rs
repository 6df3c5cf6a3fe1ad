//! Non-deterministic finite automata over symbolic labels.
//!
//! Thompson-style construction from [`Regex`], the regular operations used by
//! Lemma 1 (union, concatenation, star, single-word removal), and the mirror
//! image (reversal) used by Theorem 4's automaton `N`.

use std::collections::BTreeSet;

use crate::kernel::reach;
use crate::{CharClass, Dfa, Regex, StateId, Sym};

/// An NFA with ε-moves, a single start state, and a set of accepting states.
#[derive(Debug, Clone)]
pub struct Nfa<S: Ord> {
    /// Labelled transitions, indexed by source state.
    trans: Vec<Vec<(CharClass<S>, StateId)>>,
    /// ε-transitions, indexed by source state.
    eps: Vec<Vec<StateId>>,
    start: StateId,
    accept: Vec<bool>,
}

impl<S: Sym> Nfa<S> {
    /// The automaton accepting the empty language.
    pub fn empty_lang() -> Self {
        Nfa {
            trans: vec![vec![]],
            eps: vec![vec![]],
            start: 0,
            accept: vec![false],
        }
    }

    /// The automaton accepting exactly {ε}.
    pub fn epsilon() -> Self {
        Nfa {
            trans: vec![vec![]],
            eps: vec![vec![]],
            start: 0,
            accept: vec![true],
        }
    }

    /// The automaton accepting exactly the one-symbol words in `class`.
    pub fn class(class: CharClass<S>) -> Self {
        if class.is_empty() {
            return Nfa::empty_lang();
        }
        Nfa {
            trans: vec![vec![(class, 1)], vec![]],
            eps: vec![vec![], vec![]],
            start: 0,
            accept: vec![false, true],
        }
    }

    /// The automaton accepting exactly the word `w`.
    pub fn word(w: &[S]) -> Self {
        let n = w.len();
        let mut trans: Vec<Vec<(CharClass<S>, StateId)>> = (0..=n).map(|_| vec![]).collect();
        for (i, s) in w.iter().enumerate() {
            trans[i].push((CharClass::singleton(s.clone()), (i + 1) as StateId));
        }
        let mut accept = vec![false; n + 1];
        accept[n] = true;
        Nfa {
            trans,
            eps: vec![vec![]; n + 1],
            start: 0,
            accept,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Is `q` accepting?
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accept[q as usize]
    }

    /// Labelled transitions out of `q`.
    pub fn transitions(&self, q: StateId) -> &[(CharClass<S>, StateId)] {
        &self.trans[q as usize]
    }

    /// ε-transitions out of `q`.
    pub fn eps_transitions(&self, q: StateId) -> &[StateId] {
        &self.eps[q as usize]
    }

    /// Assemble an NFA from raw parts: labelled transitions, ε-transitions,
    /// start state, and acceptance flags (all indexed by state).
    ///
    /// For constructions that don't decompose into the regular operations —
    /// e.g. the phase-structured "bad child" automaton of Theorem 5.
    pub fn from_raw(
        trans: Vec<Vec<(CharClass<S>, StateId)>>,
        eps: Vec<Vec<StateId>>,
        start: StateId,
        accept: Vec<bool>,
    ) -> Nfa<S> {
        Nfa::assemble(trans, eps, start, accept)
    }

    /// Assemble an NFA from raw parts (crate-internal).
    pub(crate) fn assemble(
        trans: Vec<Vec<(CharClass<S>, StateId)>>,
        eps: Vec<Vec<StateId>>,
        start: StateId,
        accept: Vec<bool>,
    ) -> Nfa<S> {
        debug_assert_eq!(trans.len(), eps.len());
        debug_assert_eq!(trans.len(), accept.len());
        Nfa {
            trans,
            eps,
            start,
            accept,
        }
    }

    /// Copy `other`'s states into `self`, returning the offset that maps
    /// `other`'s ids into `self`'s id space.
    fn absorb(&mut self, other: &Nfa<S>) -> StateId {
        let off = self.trans.len() as StateId;
        for row in &other.trans {
            self.trans
                .push(row.iter().map(|(c, t)| (c.clone(), t + off)).collect());
        }
        for row in &other.eps {
            self.eps.push(row.iter().map(|t| t + off).collect());
        }
        self.accept.extend_from_slice(&other.accept);
        off
    }

    fn push_state(&mut self, accepting: bool) -> StateId {
        self.trans.push(vec![]);
        self.eps.push(vec![]);
        self.accept.push(accepting);
        (self.trans.len() - 1) as StateId
    }

    /// Language union.
    pub fn union(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut out = self.clone();
        let off = out.absorb(other);
        let ns = out.push_state(false);
        let (s1, s2) = (out.start, other.start + off);
        out.eps[ns as usize].extend([s1, s2]);
        out.start = ns;
        out
    }

    /// Language concatenation.
    pub fn concat(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut out = self.clone();
        let off = out.absorb(other);
        let s2 = other.start + off;
        for q in 0..off {
            if out.accept[q as usize] {
                out.accept[q as usize] = false;
                out.eps[q as usize].push(s2);
            }
        }
        out
    }

    /// Kleene star.
    pub fn star(&self) -> Nfa<S> {
        let mut out = self.clone();
        let ns = out.push_state(true);
        out.eps[ns as usize].push(out.start);
        let old_n = out.trans.len() as StateId - 1;
        for q in 0..old_n {
            if out.accept[q as usize] {
                out.eps[q as usize].push(ns);
            }
        }
        out.start = ns;
        out
    }

    /// The mirror image: accepts `w_k … w_1` iff `self` accepts `w_1 … w_k`.
    ///
    /// This is the reversal Theorem 4 applies to `L` before determinizing it
    /// into the top-down automaton `N`.
    pub fn reverse(&self) -> Nfa<S> {
        let n = self.trans.len();
        let mut trans: Vec<Vec<(CharClass<S>, StateId)>> = (0..=n).map(|_| vec![]).collect();
        let mut eps: Vec<Vec<StateId>> = (0..=n).map(|_| vec![]).collect();
        for (q, row) in self.trans.iter().enumerate() {
            for (c, t) in row {
                trans[*t as usize].push((c.clone(), q as StateId));
            }
        }
        for (q, row) in self.eps.iter().enumerate() {
            for t in row {
                eps[*t as usize].push(q as StateId);
            }
        }
        // New start state (index n) ε-reaches all former accepting states.
        for (q, acc) in self.accept.iter().enumerate() {
            if *acc {
                eps[n].push(q as StateId);
            }
        }
        let mut accept = vec![false; n + 1];
        accept[self.start as usize] = true;
        Nfa {
            trans,
            eps,
            start: n as StateId,
            accept,
        }
    }

    /// Thompson-style construction from a regular expression.
    pub fn from_regex(re: &Regex<S>) -> Nfa<S> {
        match re {
            Regex::Empty => Nfa::empty_lang(),
            Regex::Epsilon => Nfa::epsilon(),
            Regex::Sym(c) => Nfa::class(c.clone()),
            Regex::Concat(a, b) => Nfa::from_regex(a).concat(&Nfa::from_regex(b)),
            Regex::Alt(a, b) => Nfa::from_regex(a).union(&Nfa::from_regex(b)),
            Regex::Star(a) => Nfa::from_regex(a).star(),
        }
    }

    /// ε-closure of a set of states (returned sorted and deduplicated).
    pub fn eps_closure(&self, states: &[StateId]) -> Vec<StateId> {
        let mut seen: BTreeSet<StateId> = states.iter().copied().collect();
        let mut stack: Vec<StateId> = states.to_vec();
        while let Some(q) = stack.pop() {
            for &t in &self.eps[q as usize] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Direct membership test by on-the-fly subset simulation.
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut cur = self.eps_closure(&[self.start]);
        for s in word {
            let mut next = BTreeSet::new();
            for &q in &cur {
                for (c, t) in &self.trans[q as usize] {
                    if c.contains(s) {
                        next.insert(*t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            cur = self.eps_closure(&next.into_iter().collect::<Vec<_>>());
        }
        cur.iter().any(|&q| self.accept[q as usize])
    }

    /// Subset construction: an equivalent total DFA.
    pub fn to_dfa(&self) -> Dfa<S> {
        Dfa::from_nfa(self)
    }

    /// The language `L(self) \ {w}` — removal of a single word.
    ///
    /// Lemma 1 (case 9, `e₁ ∘_z e₂`) needs `α₂⁻¹(i, q) \ {z̄}`: the
    /// one-letter word for the substitution-symbol state is spliced out and
    /// replaced by `F₁`.
    pub fn remove_word(&self, w: &[S]) -> Nfa<S> {
        let a = self.to_dfa();
        let b = Nfa::word(w).to_dfa();
        a.difference(&b).to_nfa()
    }

    /// Is the accepted language empty?
    pub fn is_empty_lang(&self) -> bool {
        // Reachability through ε-moves and non-empty labels.
        let live = reach(self.trans.len(), [self.start], |q| {
            let labelled = self.trans[q as usize].iter().filter(|(c, _)| !c.is_empty());
            let eps = self.eps[q as usize].iter().copied();
            labelled.map(|(_, t)| *t).chain(eps)
        });
        !live.iter().zip(&self.accept).any(|(&r, &a)| r && a)
    }

    /// All symbols mentioned by any label (the label support). The co-finite
    /// region is *not* included; pair with [`CharClass::contains_cofinite`].
    pub fn mentioned_symbols(&self) -> BTreeSet<S> {
        let mut out = BTreeSet::new();
        for row in &self.trans {
            for (c, _) in row {
                out.extend(c.mentioned().cloned());
            }
        }
        out
    }

    /// Rename every symbol in every label. `f` must be injective on the
    /// mentioned symbols for the language to be the exact image.
    pub fn map_symbols<T: Sym>(&self, f: &mut impl FnMut(&S) -> T) -> Nfa<T> {
        let trans = self
            .trans
            .iter()
            .map(|row| {
                row.iter()
                    .map(|(c, t)| {
                        let nc = match c {
                            CharClass::In(set) => CharClass::In(set.iter().map(&mut *f).collect()),
                            CharClass::NotIn(set) => {
                                CharClass::NotIn(set.iter().map(&mut *f).collect())
                            }
                        };
                        (nc, *t)
                    })
                    .collect()
            })
            .collect();
        Nfa {
            trans,
            eps: self.eps.clone(),
            start: self.start,
            accept: self.accept.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re_nfa(r: Regex<u8>) -> Nfa<u8> {
        Nfa::from_regex(&r)
    }

    #[test]
    fn word_accepts_only_itself() {
        let n = Nfa::word(&[1u8, 2, 3]);
        assert!(n.accepts(&[1, 2, 3]));
        assert!(!n.accepts(&[1, 2]));
        assert!(!n.accepts(&[1, 2, 3, 3]));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn epsilon_and_empty() {
        assert!(Nfa::<u8>::epsilon().accepts(&[]));
        assert!(!Nfa::<u8>::epsilon().accepts(&[1]));
        assert!(!Nfa::<u8>::empty_lang().accepts(&[]));
        assert!(Nfa::<u8>::empty_lang().is_empty_lang());
        assert!(!Nfa::<u8>::epsilon().is_empty_lang());
    }

    #[test]
    fn union_concat_star() {
        // (1|2) 3*
        let n = re_nfa(
            Regex::sym(1u8)
                .alt(Regex::sym(2))
                .concat(Regex::sym(3).star()),
        );
        assert!(n.accepts(&[1]));
        assert!(n.accepts(&[2, 3, 3, 3]));
        assert!(!n.accepts(&[3]));
        assert!(!n.accepts(&[1, 2]));
    }

    #[test]
    fn star_accepts_empty_word() {
        let n = re_nfa(Regex::sym(5u8).star());
        assert!(n.accepts(&[]));
        assert!(n.accepts(&[5, 5]));
        assert!(!n.accepts(&[4]));
    }

    #[test]
    fn reverse_is_mirror_image() {
        // 1 2 3* reversed accepts 3* 2 1.
        let n = re_nfa(Regex::word(&[1u8, 2]).concat(Regex::sym(3).star()));
        let r = n.reverse();
        assert!(r.accepts(&[2, 1]));
        assert!(r.accepts(&[3, 3, 2, 1]));
        assert!(!r.accepts(&[1, 2]));
        assert!(!r.accepts(&[2, 1, 3]));
    }

    #[test]
    fn reverse_preserves_epsilon_membership() {
        let n = re_nfa(Regex::sym(1u8).star());
        let r = n.reverse();
        assert!(r.accepts(&[]));
        assert!(r.accepts(&[1, 1]));
    }

    #[test]
    fn remove_word_splices_out_one_word() {
        // (1|2)* minus the word "1".
        let n = re_nfa(Regex::sym(1u8).alt(Regex::sym(2)).star());
        let m = n.remove_word(&[1]);
        assert!(!m.accepts(&[1]));
        assert!(m.accepts(&[]));
        assert!(m.accepts(&[2]));
        assert!(m.accepts(&[1, 1]));
        assert!(m.accepts(&[1, 2]));
    }

    #[test]
    fn class_transitions_with_cofinite_labels() {
        // "any symbol except 7" then "anything".
        let re = Regex::class(CharClass::all_except([7u8])).concat(Regex::any_sym());
        let n = re_nfa(re);
        assert!(n.accepts(&[0, 7]));
        assert!(n.accepts(&[200, 200]));
        assert!(!n.accepts(&[7, 0]));
        assert!(!n.accepts(&[0]));
    }

    #[test]
    fn map_symbols_relabels() {
        let n = re_nfa(Regex::word(&[1u8, 2]));
        let m: Nfa<u32> = n.map_symbols(&mut |s| *s as u32 + 100);
        assert!(m.accepts(&[101, 102]));
        assert!(!m.accepts(&[1, 2]));
    }

    #[test]
    fn mentioned_symbols_collects_support() {
        let re = Regex::sym(1u8)
            .alt(Regex::class(CharClass::all_except([9u8])))
            .concat(Regex::sym(4));
        let n = re_nfa(re);
        let syms = n.mentioned_symbols();
        assert_eq!(syms.into_iter().collect::<Vec<_>>(), vec![1, 4, 9]);
    }
}
