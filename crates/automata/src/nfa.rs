//! Non-deterministic finite automata over symbolic labels.
//!
//! Thompson-style construction from [`Regex`], the regular operations used by
//! Lemma 1 (union, concatenation, star, single-word removal), and the mirror
//! image (reversal) used by Theorem 4's automaton `N`.

use std::collections::BTreeSet;

use crate::bits::{self, StateSet};
use crate::kernel::{reach, Worklist};
use crate::{CharClass, DenseDfa, Dfa, Regex, StateId, Sym};

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

    /// Language union (`self` is reused, not copied).
    pub fn union(self, other: &Nfa<S>) -> Nfa<S> {
        let mut out = self;
        let off = out.absorb(other);
        let ns = out.push_state(false);
        let (s1, s2) = (out.start, other.start + off);
        out.eps[ns as usize].extend([s1, s2]);
        out.start = ns;
        out
    }

    /// Language concatenation (`self` is reused, not copied).
    pub fn concat(self, other: &Nfa<S>) -> Nfa<S> {
        let mut out = self;
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

    /// Kleene star (`self` is reused, not copied).
    pub fn star(self) -> Nfa<S> {
        let mut out = self;
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
}

/// An NFA's moves over a closed alphabet: the letters `0..k` plus one
/// co-finite column, taken by any letter no label mentions. Per state and
/// column, the ε-closed set of successors, as a bit set over the NFA's
/// states; a subset steps by the union of its members' sets. Only the
/// letters some label mentions get a column of their own: every other
/// letter moves like the co-finite column, so it reads that one.
#[derive(Debug, Clone)]
pub struct ClosedMoves {
    /// The letters below `k` some label mentions, ascending: column `c`
    /// is `letters[c]`'s, and the last column is the co-finite one.
    letters: Vec<StateId>,
    width: usize,
    words: usize,
    /// `moves[(q * width + col) * words..][..words]`.
    moves: Vec<u64>,
    start: StateSet,
    accept: StateSet,
}

impl ClosedMoves {
    /// The ε-closure of the start state.
    pub fn start(&self) -> &[u64] {
        &self.start
    }

    /// The column letter `a` reads; a letter past `k` reads the co-finite
    /// one.
    fn column(&self, a: u32) -> usize {
        self.letters.binary_search(&a).unwrap_or(self.width - 1)
    }

    /// The ε-closed successors of `set` on every column at once, into
    /// `out`; [`ClosedMoves::cell`] reads a letter's set from it. One pass
    /// over each member's row, so it costs per member, not per cell.
    pub fn row_into(&self, set: &[u64], out: &mut Vec<u64>) {
        let len = self.width * self.words;
        out.clear();
        out.resize(len, 0);
        for q in bits::iter(set) {
            bits::union_into(out, &self.moves[q as usize * len..(q as usize + 1) * len]);
        }
    }

    /// Letter `a`'s set in a row filled by [`ClosedMoves::row_into`].
    pub fn cell<'a>(&self, row: &'a [u64], a: u32) -> &'a [u64] {
        let at = self.column(a) * self.words;
        &row[at..at + self.words]
    }

    /// The ε-closed successors of `set` on any of `letters`.
    pub fn step<L: IntoIterator<Item = u32> + Clone>(&self, set: &[u64], letters: L) -> StateSet {
        let mut out = vec![0; self.words];
        for q in bits::iter(set) {
            for a in letters.clone() {
                let at = (q as usize * self.width + self.column(a)) * self.words;
                bits::union_into(&mut out, &self.moves[at..at + self.words]);
            }
        }
        out
    }

    /// Does `set` hold an accepting state?
    pub fn accepts(&self, set: &[u64]) -> bool {
        bits::meets(set, &self.accept)
    }
}

impl Nfa<StateId> {
    /// Tabulate the moves over the closed alphabet `0..k`: the co-finite
    /// column stands for every letter no label mentions, so a `NotIn`
    /// label fills every column it does not exclude, that one included.
    pub fn closed_moves(&self, k: usize) -> ClosedMoves {
        let n = self.num_states();
        let labels = self.trans.iter().flatten().map(|(c, _)| c);
        let mut letters: Vec<StateId> = labels
            .flat_map(CharClass::mentioned)
            .copied()
            .filter(|&a| (a as usize) < k)
            .collect();
        letters.sort_unstable();
        letters.dedup();
        let (width, words) = (letters.len() + 1, n.div_ceil(64));
        // The ε-closure of `q` is `closure[q * words..][..words]`.
        let mut closure = vec![0u64; n * words];
        let mut stack = Vec::new();
        for (q, set) in closure.chunks_mut(words).enumerate() {
            bits::insert(set, q as StateId);
            stack.push(q as StateId);
            while let Some(p) = stack.pop() {
                for &t in &self.eps[p as usize] {
                    if bits::insert(set, t) {
                        stack.push(t);
                    }
                }
            }
        }
        let closed = |t: StateId| &closure[t as usize * words..(t as usize + 1) * words];
        let mut moves = vec![0u64; n * width * words];
        for (q, edges) in self.trans.iter().enumerate() {
            let cells = &mut moves[q * width * words..(q + 1) * width * words];
            let mut add = |c: usize, t: StateId| {
                bits::union_into(&mut cells[c * words..(c + 1) * words], closed(t));
            };
            for (class, t) in edges {
                match class {
                    CharClass::In(set) => {
                        for &a in set.iter().filter(|&&a| (a as usize) < k) {
                            add(letters.binary_search(&a).expect("mentioned"), *t);
                        }
                    }
                    CharClass::NotIn(set) => {
                        for (c, a) in letters.iter().enumerate() {
                            if !set.contains(a) {
                                add(c, *t);
                            }
                        }
                        add(width - 1, *t);
                    }
                }
            }
        }
        let mut accept = bits::empty(n as u32);
        for q in (0..n as StateId).filter(|&q| self.accept[q as usize]) {
            bits::insert(&mut accept, q);
        }
        ClosedMoves {
            letters,
            width,
            words,
            moves,
            start: closed(self.start).to_vec(),
            accept,
        }
    }

    /// The subset construction over the closed alphabet `0..k`: a total
    /// [`DenseDfa`] whose column `k` is the co-finite one. It accepts the
    /// same words as [`Nfa::to_dfa`] over those letters, a letter no label
    /// mentions taking column `k`.
    pub fn to_dense(&self, k: usize) -> DenseDfa {
        let moves = self.closed_moves(k);
        let mut subsets = Worklist::new();
        let start = subsets.intern(moves.start.clone());
        // Letters `0..free` are all mentioned, and `free` is the first
        // letter that reads the co-finite column.
        let free = (0..)
            .zip(&moves.letters)
            .take_while(|&(i, &a)| i == a)
            .count();
        let cof = moves.width - 1;
        let mut cells = Vec::new();
        let rows = subsets.explore(|subsets, _, set: &StateSet| {
            moves.row_into(set, &mut cells);
            // Each column's target, interned in the order of the column's
            // first letter; every letter no label mentions reads the last.
            let mut target = |c: usize| {
                let next = &cells[c * moves.words..(c + 1) * moves.words];
                subsets
                    .get(next)
                    .unwrap_or_else(|| subsets.intern(next.to_vec()))
            };
            let below: Vec<StateId> = (0..free).map(&mut target).collect();
            let mut row = vec![target(cof); k + 1];
            row[..free].copy_from_slice(&below);
            for (c, &a) in moves.letters.iter().enumerate().skip(free) {
                row[a as usize] = target(c);
            }
            row
        });
        let accept = subsets.keys().iter().map(|s| moves.accepts(s)).collect();
        DenseDfa::from_rows(rows, start, accept)
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
}
