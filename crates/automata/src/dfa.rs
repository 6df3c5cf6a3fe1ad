//! Total deterministic finite automata over symbolic labels.
//!
//! Every [`Dfa`] in this crate is *total*: for each state, the outgoing
//! labels are pairwise disjoint and jointly cover the whole (open) symbol
//! space — exactly one label matches any symbol, mentioned or fresh. All
//! constructors (subset construction, products) maintain this invariant,
//! which is what makes a difference a product with an accept rule and
//! makes per-symbol stepping well-defined.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::kernel::{reach, row, Worklist};
use crate::{CharClass, Nfa, StateId, Sym};

/// Boolean combination applied to acceptance in a product construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductOp {
    /// Intersection: accept iff both accept.
    And,
    /// Union: accept iff either accepts.
    Or,
    /// Difference: accept iff the left accepts and the right does not.
    Diff,
}

impl ProductOp {
    pub(crate) fn apply(self, a: bool, b: bool) -> bool {
        match self {
            ProductOp::And => a && b,
            ProductOp::Or => a || b,
            ProductOp::Diff => a && !b,
        }
    }
}

/// A total DFA with symbolic transition labels.
#[derive(Debug, Clone)]
pub struct Dfa<S: Ord> {
    /// Outgoing edges per state: disjoint classes covering the symbol space.
    trans: Vec<Vec<(CharClass<S>, StateId)>>,
    start: StateId,
    accept: Vec<bool>,
}

impl<S: Sym> Dfa<S> {
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

    /// Outgoing edges of `q`.
    pub fn transitions(&self, q: StateId) -> &[(CharClass<S>, StateId)] {
        &self.trans[q as usize]
    }

    /// The successor of `q` on symbol `s`. Total by invariant.
    pub fn step(&self, q: StateId, s: &S) -> StateId {
        for (c, t) in &self.trans[q as usize] {
            if c.contains(s) {
                return *t;
            }
        }
        unreachable!("Dfa invariant violated: no label matched symbol {s:?}")
    }

    /// The successor of `q` for a fresh symbol (outside every mentioned set).
    pub fn step_cofinite(&self, q: StateId) -> StateId {
        for (c, t) in &self.trans[q as usize] {
            if c.contains_cofinite() {
                return *t;
            }
        }
        unreachable!("Dfa invariant violated: no co-finite label")
    }

    /// Run the automaton on `word` from the start state; final state.
    pub fn run(&self, word: &[S]) -> StateId {
        let mut q = self.start;
        for s in word {
            q = self.step(q, s);
        }
        q
    }

    /// Membership test.
    pub fn accepts(&self, word: &[S]) -> bool {
        self.accept[self.run(word) as usize]
    }

    /// Subset construction from an NFA. The result is total (a sink subset —
    /// possibly the empty set — is materialized as an ordinary state).
    pub fn from_nfa(nfa: &Nfa<S>) -> Dfa<S> {
        // The ε-closed set of targets of the edges out of `subset` whose
        // label `fires`.
        let moved = |subset: &[StateId], fires: &dyn Fn(&CharClass<S>) -> bool| {
            let targets: BTreeSet<StateId> = subset
                .iter()
                .flat_map(|&q| nfa.transitions(q))
                .filter(|(c, _)| fires(c))
                .map(|(_, t)| *t)
                .collect();
            nfa.eps_closure(&targets.into_iter().collect::<Vec<_>>())
        };
        let mut subsets = Worklist::new();
        let start = subsets.intern(nfa.eps_closure(&[nfa.start()]));
        let trans = subsets.explore(|subsets, _, subset: &Vec<StateId>| {
            // Support of all outgoing labels from this subset.
            let support: BTreeSet<S> = subset
                .iter()
                .flat_map(|&q| nfa.transitions(q))
                .flat_map(|(c, _)| c.mentioned().cloned())
                .collect();
            // Everything without a finite edge of its own — including all
            // fresh symbols — goes to the co-finite target; a mentioned
            // symbol bound there too rides on that edge.
            let cof = subsets.intern(moved(subset, &|c| c.contains_cofinite()));
            let letters = support.into_iter().map(|s| {
                let t = subsets.intern(moved(subset, &|c| c.contains(&s)));
                (s, t)
            });
            row(letters.filter(|&(_, t)| t != cof), cof)
        });
        let accept = subsets
            .keys()
            .iter()
            .map(|set| set.iter().any(|&q| nfa.is_accepting(q)))
            .collect();
        Dfa {
            trans,
            start,
            accept,
        }
    }

    /// Product construction over reachable state pairs.
    pub fn product(&self, other: &Dfa<S>, op: ProductOp) -> Dfa<S> {
        let mut pairs = Worklist::new();
        let start = pairs.intern((self.start, other.start));
        let trans = pairs.explore(|pairs, _, &(qa, qb)| {
            let mut edges: Vec<(CharClass<S>, StateId)> = Vec::new();
            for (ca, ta) in &self.trans[qa as usize] {
                for (cb, tb) in &other.trans[qb as usize] {
                    let c = ca.intersect(cb);
                    if !c.is_empty() {
                        edges.push((c, pairs.intern((*ta, *tb))));
                    }
                }
            }
            edges
        });
        let accept = pairs
            .keys()
            .iter()
            .map(|&(qa, qb)| op.apply(self.accept[qa as usize], other.accept[qb as usize]))
            .collect();
        Dfa {
            trans,
            start,
            accept,
        }
    }

    /// Difference of languages (`self \ other`).
    pub fn difference(&self, other: &Dfa<S>) -> Dfa<S> {
        self.product(other, ProductOp::Diff)
    }

    /// Is the accepted language empty?
    pub fn is_empty_lang(&self) -> bool {
        let live = reach(self.num_states(), [self.start], |q| {
            self.trans[q as usize]
                .iter()
                .filter(|(c, _)| !c.is_empty())
                .map(|(_, t)| *t)
        });
        !live.iter().zip(&self.accept).any(|(&r, &a)| r && a)
    }

    /// Do two automata accept the same language?
    pub fn equivalent(&self, other: &Dfa<S>) -> bool {
        self.difference(other).is_empty_lang() && other.difference(self).is_empty_lang()
    }

    /// A shortest accepted word, if any. Useful in counter-example reporting.
    pub fn shortest_word(&self) -> Option<Vec<S>>
    where
        S: Clone,
    {
        // BFS over states, tracking one representative symbol per edge.
        let mut prev: Vec<Option<(StateId, Option<S>)>> = vec![None; self.num_states()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(self.start);
        prev[self.start as usize] = Some((self.start, None));
        while let Some(q) = queue.pop_front() {
            if self.accept[q as usize] {
                let mut word = Vec::new();
                let mut cur = q;
                while cur != self.start || word.is_empty() {
                    let (p, s) = prev[cur as usize].clone().unwrap();
                    match s {
                        Some(sym) => word.push(sym),
                        None => break,
                    }
                    cur = p;
                }
                word.reverse();
                return Some(word);
            }
            for (c, t) in &self.trans[q as usize] {
                if prev[*t as usize].is_none() {
                    // A representative symbol: any mentioned one for `In`
                    // classes; co-finite classes have no canonical witness,
                    // so skip them unless they mention nothing we can use.
                    let rep = match c {
                        CharClass::In(set) => set.iter().next().cloned(),
                        CharClass::NotIn(_) => None,
                    };
                    if let Some(rep) = rep {
                        prev[*t as usize] = Some((q, Some(rep)));
                        queue.push_back(*t);
                    }
                }
            }
        }
        None
    }

    /// Moore-style minimization by partition refinement.
    ///
    /// Works over the *global support* (every symbol mentioned anywhere in
    /// the automaton) plus one co-finite representative — sufficient because
    /// transition behaviour is constant on the unmentioned region.
    pub fn minimize(&self) -> Dfa<S> {
        let support: Vec<S> = {
            let mut set: BTreeSet<S> = BTreeSet::new();
            for row in &self.trans {
                for (c, _) in row {
                    set.extend(c.mentioned().cloned());
                }
            }
            set.into_iter().collect()
        };
        let n = self.num_states();
        // Block labels are canonicalized by first occurrence so that a stable
        // partition yields *identical* labels and the loop terminates.
        fn canonicalize(v: &mut [u32]) {
            let mut map: HashMap<u32, u32> = HashMap::new();
            for x in v.iter_mut() {
                let fresh = map.len() as u32;
                *x = *map.entry(*x).or_insert(fresh);
            }
        }
        let mut block: Vec<u32> = self.accept.iter().map(|&a| a as u32).collect();
        canonicalize(&mut block);
        loop {
            let mut sig_ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
            let mut next: Vec<u32> = vec![0; n];
            for q in 0..n {
                let mut sig: Vec<u32> = Vec::with_capacity(support.len() + 1);
                for s in &support {
                    sig.push(block[self.step(q as StateId, s) as usize]);
                }
                sig.push(block[self.step_cofinite(q as StateId) as usize]);
                let key = (block[q], sig);
                let fresh = sig_ids.len() as u32;
                next[q] = *sig_ids.entry(key).or_insert(fresh);
            }
            canonicalize(&mut next);
            if next == block {
                break;
            }
            block = next;
        }
        // Rebuild: one state per block, edges re-merged by target.
        let nblocks = block.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut rep: Vec<Option<StateId>> = vec![None; nblocks];
        for (q, &b) in block.iter().enumerate() {
            if rep[b as usize].is_none() {
                rep[b as usize] = Some(q as StateId);
            }
        }
        let mut trans: Vec<Vec<(CharClass<S>, StateId)>> = Vec::with_capacity(nblocks);
        let mut accept: Vec<bool> = Vec::with_capacity(nblocks);
        for rep_b in rep.iter().take(nblocks) {
            let q = rep_b.expect("every block has a representative");
            // Merge edges by target block.
            let mut merged: BTreeMap<u32, CharClass<S>> = BTreeMap::new();
            for (c, t) in &self.trans[q as usize] {
                let tb = block[*t as usize];
                merged
                    .entry(tb)
                    .and_modify(|acc| *acc = acc.union(c))
                    .or_insert_with(|| c.clone());
            }
            trans.push(
                merged
                    .into_iter()
                    .map(|(tb, c)| (c, tb as StateId))
                    .collect(),
            );
            accept.push(self.accept[q as usize]);
        }
        Dfa {
            trans,
            start: block[self.start as usize] as StateId,
            accept,
        }
    }

    /// View this DFA as an NFA (no ε-moves; same language).
    pub fn to_nfa(&self) -> Nfa<S> {
        Nfa::from_parts(
            self.trans.clone(),
            vec![vec![]; self.num_states()],
            self.start,
            self.accept.clone(),
        )
    }

    /// Build a DFA from raw parts. The caller must guarantee totality
    /// (disjoint, covering labels per state); `debug_assert`ed on the
    /// mentioned support.
    pub fn from_parts(
        trans: Vec<Vec<(CharClass<S>, StateId)>>,
        start: StateId,
        accept: Vec<bool>,
    ) -> Dfa<S> {
        let dfa = Dfa {
            trans,
            start,
            accept,
        };
        #[cfg(debug_assertions)]
        dfa.check_total();
        dfa
    }

    #[cfg(debug_assertions)]
    fn check_total(&self) {
        for (q, row) in self.trans.iter().enumerate() {
            let mut cof = 0;
            for (c, _) in row {
                if c.contains_cofinite() {
                    cof += 1;
                }
            }
            debug_assert_eq!(cof, 1, "state {q} must have exactly one co-finite edge");
            // Disjointness + coverage on the mentioned support.
            let support: Vec<&S> = row.iter().flat_map(|(c, _)| c.mentioned()).collect();
            for s in support {
                let hits = row.iter().filter(|(c, _)| c.contains(s)).count();
                debug_assert_eq!(hits, 1, "state {q}: symbol {s:?} matched {hits} labels");
            }
        }
    }
}

impl<S: Sym> Nfa<S> {
    /// Construct an NFA from raw parts (used by `Dfa::to_nfa`).
    pub(crate) fn from_parts(
        trans: Vec<Vec<(CharClass<S>, StateId)>>,
        eps: Vec<Vec<StateId>>,
        start: StateId,
        accept: Vec<bool>,
    ) -> Nfa<S> {
        Nfa::assemble(trans, eps, start, accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regex;

    fn dfa(r: Regex<u8>) -> Dfa<u8> {
        Nfa::from_regex(&r).to_dfa()
    }

    #[test]
    fn subset_construction_preserves_language() {
        let r = Regex::sym(1u8)
            .alt(Regex::sym(2))
            .concat(Regex::sym(3).star());
        let n = Nfa::from_regex(&r);
        let d = n.to_dfa();
        for w in [
            vec![],
            vec![1],
            vec![2],
            vec![3],
            vec![1, 3],
            vec![2, 3, 3],
            vec![1, 2],
            vec![3, 1],
        ] {
            assert_eq!(n.accepts(&w), d.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn dfa_is_total_on_fresh_symbols() {
        let d = dfa(Regex::sym(1u8));
        // A symbol never mentioned anywhere must still step somewhere.
        let q = d.step(d.start(), &200);
        assert!(!d.is_accepting(q));
        assert!(!d.accepts(&[200]));
    }

    #[test]
    fn product_intersection() {
        // Words over {1,2} containing at least one 1  ∩  words of length 2.
        let a = dfa(Regex::any_sym()
            .star()
            .concat(Regex::sym(1u8))
            .concat(Regex::any_sym().star()));
        let b = dfa(Regex::any_sym().concat(Regex::any_sym()));
        let i = a.product(&b, ProductOp::And);
        assert!(i.accepts(&[1, 2]));
        assert!(i.accepts(&[2, 1]));
        assert!(!i.accepts(&[2, 2]));
        assert!(!i.accepts(&[1]));
        assert!(!i.accepts(&[1, 1, 1]));
    }

    #[test]
    fn union_and_difference() {
        let a = dfa(Regex::sym(1u8));
        let b = dfa(Regex::sym(2u8));
        let u = a.product(&b, ProductOp::Or);
        assert!(u.accepts(&[1]) && u.accepts(&[2]) && !u.accepts(&[3]));
        let d = u.difference(&a);
        assert!(!d.accepts(&[1]) && d.accepts(&[2]));
    }

    #[test]
    fn emptiness_and_equivalence() {
        let a = dfa(Regex::sym(1u8).star());
        let b = dfa(Regex::Epsilon.alt(Regex::sym(1u8).plus()));
        assert!(a.equivalent(&b));
        let c = dfa(Regex::sym(1u8).plus());
        assert!(!a.equivalent(&c));
        assert!(dfa(Regex::Empty).is_empty_lang());
        assert!(!dfa(Regex::Epsilon).is_empty_lang());
    }

    #[test]
    fn minimize_preserves_language_and_shrinks() {
        let r = Regex::sym(1u8)
            .alt(Regex::sym(2))
            .concat(Regex::sym(1).alt(Regex::sym(2)))
            .concat(Regex::sym(3).star());
        let d = dfa(r);
        let m = d.minimize();
        assert!(m.num_states() <= d.num_states());
        assert!(d.equivalent(&m));
        for w in [vec![1u8, 2], vec![2, 1, 3, 3], vec![1], vec![3]] {
            assert_eq!(d.accepts(&w), m.accepts(&w));
        }
    }

    #[test]
    fn minimize_canonical_size() {
        // L = words over {1} of even length: minimal DFA has 2 states.
        let even = dfa(Regex::word(&[1u8, 1]).star());
        let m = even.minimize();
        assert_eq!(m.num_states(), 3); // even, odd, sink (for symbols ≠ 1)
        assert!(m.accepts(&[]));
        assert!(!m.accepts(&[1]));
        assert!(m.accepts(&[1, 1]));
    }

    #[test]
    fn to_nfa_roundtrip() {
        let d = dfa(Regex::sym(1u8).alt(Regex::word(&[2, 3])));
        let n = d.to_nfa();
        for w in [vec![1u8], vec![2, 3], vec![2], vec![3], vec![]] {
            assert_eq!(d.accepts(&w), n.accepts(&w));
        }
    }

    #[test]
    fn shortest_word_finds_witness() {
        let d = dfa(Regex::word(&[1u8, 2, 3]).alt(Regex::word(&[4, 5])));
        let w = d.shortest_word().unwrap();
        assert_eq!(w, vec![4, 5]);
        assert!(dfa(Regex::Empty).shortest_word().is_none());
        assert_eq!(
            dfa(Regex::Epsilon).shortest_word().unwrap(),
            Vec::<u8>::new()
        );
    }
}
