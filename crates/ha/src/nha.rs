//! Non-deterministic hedge automata (Definitions 6–8).
//!
//! Transitions are stored as rules `(a, L, q)` meaning `α(a, w) ∋ q` for all
//! `w ∈ L`; each `L` is kept as a total DFA over the state set so that both
//! direct execution and the subset construction can step it mechanically.
//! The languages live in one table and rules name them by [`LangId`], so
//! rules (of one symbol or of several) with the same language share one
//! DFA, and the subset construction steps it once.
//! Direct execution computes, for every node, the set of states reachable by
//! *some* computation — a bottom-up pass that is linear in the number of
//! nodes (with automaton-size-dependent constants).

use std::collections::HashMap;

use hedgex_automata::{Dfa, Nfa, Regex};
use hedgex_hedge::{FlatHedge, Hedge, NodeId, SymId};

use crate::types::{HState, Leaf};

/// The index of a horizontal language in an [`Nha`]'s language table.
pub type LangId = u32;

/// A compact set of hedge-automaton states.
pub type StateSet = Vec<u64>;

/// Bit-set helpers over `Vec<u64>` blocks.
pub mod bits {
    use super::StateSet;

    /// An empty set sized for `n` states.
    pub fn empty(n: u32) -> StateSet {
        vec![0; (n as usize).div_ceil(64)]
    }

    /// Insert `q`; returns true if newly inserted.
    pub fn insert(s: &mut StateSet, q: u32) -> bool {
        let (w, b) = (q as usize / 64, q as usize % 64);
        let had = s[w] & (1 << b) != 0;
        s[w] |= 1 << b;
        !had
    }

    /// Membership.
    pub fn contains(s: &StateSet, q: u32) -> bool {
        s[q as usize / 64] & (1 << (q as usize % 64)) != 0
    }

    /// Iterate members in increasing order.
    pub fn iter(s: &StateSet) -> impl Iterator<Item = u32> + '_ {
        s.iter().enumerate().flat_map(|(w, &blk)| {
            (0..64)
                .filter(move |b| blk & (1 << b) != 0)
                .map(move |b| (w * 64 + b) as u32)
        })
    }

    /// Is the set empty?
    pub fn is_empty(s: &StateSet) -> bool {
        s.iter().all(|&b| b == 0)
    }
}

/// A non-deterministic hedge automaton `(Σ, X, Q, ι, α, F)`.
#[derive(Debug, Clone)]
pub struct Nha {
    num_states: u32,
    iota: HashMap<Leaf, Vec<HState>>,
    /// The horizontal languages, each a total DFA over `Q`.
    langs: Vec<Dfa<HState>>,
    /// Per symbol: rules `(L, q)` with `L` an index into `langs`.
    rules: HashMap<SymId, Vec<(LangId, HState)>>,
    finals: Nfa<HState>,
}

impl Nha {
    /// Number of states `|Q|`.
    pub fn num_states(&self) -> u32 {
        self.num_states
    }

    /// `ι(leaf)` (empty when undefined, matching the paper's `ι(y) = ∅`).
    pub fn iota(&self, leaf: Leaf) -> &[HState] {
        self.iota.get(&leaf).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All declared leaf mappings.
    pub fn iotas(&self) -> impl Iterator<Item = (Leaf, &[HState])> {
        self.iota.iter().map(|(l, v)| (*l, v.as_slice()))
    }

    /// The rules of a symbol, each naming its language in [`Nha::lang`].
    pub fn rules(&self, a: SymId) -> &[(LangId, HState)] {
        self.rules.get(&a).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A horizontal language, as a total DFA over `Q`.
    pub fn lang(&self, l: LangId) -> &Dfa<HState> {
        &self.langs[l as usize]
    }

    /// All symbols with declared rules.
    pub fn symbols(&self) -> impl Iterator<Item = SymId> + '_ {
        self.rules.keys().copied()
    }

    /// The final state sequence set `F` as an NFA over `Q`.
    pub fn finals(&self) -> &Nfa<HState> {
        &self.finals
    }

    /// Assemble from raw parts (used by Lemma 1's compiler and Theorem 5's
    /// match-identifying construction): every rule's [`LangId`] indexes
    /// `langs`.
    pub fn from_parts(
        num_states: u32,
        iota: HashMap<Leaf, Vec<HState>>,
        langs: Vec<Dfa<HState>>,
        rules: HashMap<SymId, Vec<(LangId, HState)>>,
        finals: Nfa<HState>,
    ) -> Nha {
        debug_assert!(rules
            .values()
            .flatten()
            .all(|&(l, _)| (l as usize) < langs.len()));
        Nha {
            num_states,
            iota,
            langs,
            rules,
            finals,
        }
    }

    /// The same automaton with `finals` as its final state sequence set.
    pub fn with_finals(self, finals: Nfa<HState>) -> Nha {
        Nha { finals, ..self }
    }

    /// The per-node state sets of all computations (Definition 7, computed
    /// as sets): `sets[n] = { q | some computation assigns q to n }`.
    pub fn run_sets(&self, h: &FlatHedge) -> Vec<StateSet> {
        self.run_sets_filtered(h, &|_, _| true)
    }

    /// Does `dfa` accept some word `w₁…w_k` with `w_i ∈ sets[child_i]`?
    /// (A DFA simulated non-deterministically over the symbol choices.)
    fn dfa_reaches_accept(&self, dfa: &Dfa<HState>, children: &[u32], sets: &[StateSet]) -> bool {
        let mut cur: Vec<bool> = vec![false; dfa.num_states()];
        cur[dfa.start() as usize] = true;
        for &c in children {
            let mut next = vec![false; dfa.num_states()];
            let mut any = false;
            for d in 0..dfa.num_states() as u32 {
                if !cur[d as usize] {
                    continue;
                }
                for q in bits::iter(&sets[c as usize]) {
                    let t = dfa.step(d, &q);
                    next[t as usize] = true;
                    any = true;
                }
            }
            if !any {
                return false;
            }
            cur = next;
        }
        cur.iter()
            .enumerate()
            .any(|(d, &on)| on && dfa.is_accepting(d as u32))
    }

    /// Like [`Nha::run_sets`], but every node's state set is additionally
    /// restricted by `filter` before its parents consume it. Used to ask
    /// "does some computation assign one of *these* states to *this* node?"
    /// — e.g. Theorem 5's marked states, whose unique-success property makes
    /// the answer equal to "does *the* successful computation mark it?".
    pub fn run_sets_filtered(
        &self,
        h: &FlatHedge,
        filter: &dyn Fn(u32, HState) -> bool,
    ) -> Vec<StateSet> {
        use hedgex_hedge::flat::FlatLabel;
        let n = h.num_nodes();
        let mut sets: Vec<StateSet> = vec![bits::empty(self.num_states); n];
        let mut children: Vec<NodeId> = Vec::new();
        for id in (0..n as u32).rev() {
            match h.label(id) {
                FlatLabel::Var(x) => {
                    for &q in self.iota(Leaf::Var(x)) {
                        if filter(id, q) {
                            bits::insert(&mut sets[id as usize], q);
                        }
                    }
                }
                FlatLabel::Subst(z) => {
                    for &q in self.iota(Leaf::Sub(z)) {
                        if filter(id, q) {
                            bits::insert(&mut sets[id as usize], q);
                        }
                    }
                }
                FlatLabel::Sym(a) => {
                    children.clear();
                    children.extend(h.children(id));
                    for &(l, q) in self.rules(a) {
                        if !filter(id, q) || bits::contains(&sets[id as usize], q) {
                            continue;
                        }
                        if self.dfa_reaches_accept(self.lang(l), &children, &sets) {
                            bits::insert(&mut sets[id as usize], q);
                        }
                    }
                }
            }
        }
        sets
    }

    /// Acceptance given precomputed per-node state sets.
    pub fn accepts_sets(&self, h: &FlatHedge, sets: &[StateSet]) -> bool {
        let f = &self.finals;
        let mut cur = f.eps_closure(&[f.start()]);
        for &r in h.roots() {
            let mut next = std::collections::BTreeSet::new();
            for &s in &cur {
                for (c, t) in f.transitions(s) {
                    for q in bits::iter(&sets[r as usize]) {
                        if c.contains(&q) {
                            next.insert(*t);
                            break;
                        }
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            cur = f.eps_closure(&next.into_iter().collect::<Vec<_>>());
        }
        cur.iter().any(|&s| f.is_accepting(s))
    }

    /// Does some accepting computation satisfy `filter` at every node?
    pub fn accepts_flat_filtered(
        &self,
        h: &FlatHedge,
        filter: &dyn Fn(u32, HState) -> bool,
    ) -> bool {
        let sets = self.run_sets_filtered(h, filter);
        self.accepts_sets(h, &sets)
    }

    /// Acceptance (Definition 8): some computation's ceil lies in `F`.
    ///
    /// The top-level sequence is checked by simulating `F`'s NFA with the
    /// per-root state sets as symbol choices.
    pub fn accepts_flat(&self, h: &FlatHedge) -> bool {
        self.accepts_sets(h, &self.run_sets(h))
    }

    /// Acceptance on a recursive hedge.
    pub fn accepts(&self, h: &Hedge) -> bool {
        self.accepts_flat(&FlatHedge::from_hedge(h))
    }
}

/// Incremental construction of an [`Nha`].
#[derive(Debug)]
pub struct NhaBuilder {
    num_states: u32,
    iota: HashMap<Leaf, Vec<HState>>,
    langs: Vec<Dfa<HState>>,
    rules: HashMap<SymId, Vec<(LangId, HState)>>,
    finals: Option<Nfa<HState>>,
}

impl NhaBuilder {
    /// Start a builder with `num_states` states.
    pub fn new(num_states: u32) -> NhaBuilder {
        NhaBuilder {
            num_states,
            iota: HashMap::new(),
            langs: Vec::new(),
            rules: HashMap::new(),
            finals: None,
        }
    }

    /// Add `q` to `ι(leaf)`.
    pub fn leaf(&mut self, leaf: impl Into<Leaf>, q: HState) -> &mut Self {
        assert!(q < self.num_states);
        self.iota.entry(leaf.into()).or_default().push(q);
        self
    }

    /// Declare `α(a, w) ∋ q` for all `w ∈ L(re)`.
    pub fn rule(&mut self, a: SymId, re: Regex<HState>, q: HState) -> &mut Self {
        assert!(q < self.num_states);
        self.langs.push(Nfa::from_regex(&re).to_dfa());
        let l = (self.langs.len() - 1) as LangId;
        self.rules.entry(a).or_default().push((l, q));
        self
    }

    /// Declare the final state sequence set `F = L(re)`.
    pub fn finals(&mut self, re: Regex<HState>) -> &mut Self {
        self.finals = Some(Nfa::from_regex(&re));
        self
    }

    /// Assemble the automaton.
    pub fn build(self) -> Nha {
        Nha {
            num_states: self.num_states,
            iota: self.iota,
            langs: self.langs,
            rules: self.rules,
            finals: self.finals.unwrap_or_else(Nfa::empty_lang),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// The paper's M₁ (Section 3).
    ///
    /// States: 0=q_d, 1=q_p1, 2=q_p2, 3=q_x. ι(x) = {q_x}, ι(y) = ∅.
    /// α(d, u) = {q_d} if u ∈ L(q_p1 q_p2*); α(p, q_x q_x) = {q_p1, q_p2};
    /// α(p, q_x) = {q_p1}; F = q_d* (the paper's text writes `q_x*`, an
    /// evident typo: leaf states never appear at the top level of the
    /// intended examples — both hedges executed there are single `d` trees).
    fn m1(ab: &mut Alphabet) -> Nha {
        let d = ab.sym("d");
        let p = ab.sym("p");
        let x = ab.var("x");
        ab.var("y"); // ι(y) = ∅: simply not declared
        let mut b = NhaBuilder::new(4);
        b.leaf(Leaf::Var(x), 3)
            .rule(d, Regex::sym(1).concat(Regex::sym(2).star()), 0)
            .rule(p, Regex::word(&[3, 3]), 1)
            .rule(p, Regex::word(&[3, 3]), 2)
            .rule(p, Regex::word(&[3]), 1)
            .finals(Regex::sym(0).star());
        b.build()
    }

    #[test]
    fn m1_rejects_first_paper_hedge() {
        // d⟨p⟨x⟩ p⟨y⟩⟩: ι(y) = ∅, so the computation set is empty.
        let mut ab = Alphabet::new();
        let m = m1(&mut ab);
        let h = parse_hedge("d<p<$x> p<$y>>", &mut ab).unwrap();
        assert!(!m.accepts(&h));
    }

    #[test]
    fn m1_accepts_second_paper_hedge() {
        // d⟨p⟨x x⟩ p⟨x x⟩⟩: computations exist with ceils q_d ∈ F.
        let mut ab = Alphabet::new();
        let m = m1(&mut ab);
        let h = parse_hedge("d<p<$x $x> p<$x $x>>", &mut ab).unwrap();
        assert!(m.accepts(&h));
    }

    #[test]
    fn m1_state_sets_match_paper_computations() {
        // The computations of d⟨p⟨xx⟩ p⟨xx⟩⟩ assign {q_p1, q_p2} to both
        // p nodes and {q_d} to the d node.
        let mut ab = Alphabet::new();
        let m = m1(&mut ab);
        let h = parse_hedge("d<p<$x $x> p<$x $x>>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let sets = m.run_sets(&f);
        let collect = |i: usize| bits::iter(&sets[i]).collect::<Vec<_>>();
        assert_eq!(collect(0), vec![0]); // d: {q_d}
        assert_eq!(collect(1), vec![1, 2]); // first p: {q_p1, q_p2}
        assert_eq!(collect(4), vec![1, 2]); // second p
        assert_eq!(collect(2), vec![3]); // x leaves: {q_x}
    }

    #[test]
    fn nondeterminism_requires_global_consistency() {
        // d⟨p⟨xx⟩⟩ alone: the single p can be q_p1 or q_p2, but only
        // q_p1 alone satisfies d's rule... and q_p2 alone does not.
        let mut ab = Alphabet::new();
        let m = m1(&mut ab);
        assert!(m.accepts(&parse_hedge("d<p<$x $x>>", &mut ab).unwrap()));
        // p q_p2-only content under d: impossible input — p⟨x⟩ only maps
        // to q_p1, and q_p1 q_p2* needs the first child to be q_p1.
        assert!(m.accepts(&parse_hedge("d<p<$x> p<$x $x>>", &mut ab).unwrap()));
        assert!(!m.accepts(&parse_hedge("d<p<$x> p<$x>>", &mut ab).unwrap()));
    }

    #[test]
    fn empty_hedge_acceptance_follows_finals() {
        let mut ab = Alphabet::new();
        let m = m1(&mut ab);
        // F = q_d* contains ε.
        assert!(m.accepts(&parse_hedge("", &mut ab).unwrap()));
    }

    #[test]
    fn undeclared_leaves_have_empty_iota() {
        let mut ab = Alphabet::new();
        let m = m1(&mut ab);
        let y = ab.get_var("y").unwrap();
        assert!(m.iota(Leaf::Var(y)).is_empty());
        let h = parse_hedge("d<p<$y>>", &mut ab).unwrap();
        assert!(!m.accepts(&h));
    }

    #[test]
    fn bitset_helpers() {
        let mut s = bits::empty(130);
        assert!(bits::is_empty(&s));
        assert!(bits::insert(&mut s, 0));
        assert!(!bits::insert(&mut s, 0));
        assert!(bits::insert(&mut s, 64));
        assert!(bits::insert(&mut s, 129));
        assert!(bits::contains(&s, 129));
        assert!(!bits::contains(&s, 128));
        assert_eq!(bits::iter(&s).collect::<Vec<_>>(), vec![0, 64, 129]);
        assert!(!bits::is_empty(&s));
    }
}
