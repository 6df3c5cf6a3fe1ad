//! Deterministic hedge automata (Definitions 3–5).
//!
//! `α` is represented per symbol as a [`HorizFn`]: a single [`DenseDfa`]
//! over the state alphabet `Q` (for declared rules, the product DFA of
//! [`SaturatingClasses`]) whose states each carry the result state
//! `α(a, w)`. This keeps `α` total — every word over `Q` lands in exactly
//! one horizontal state — and makes a run linear in the number of nodes:
//! one table step per child edge.

use std::collections::HashMap;

use hedgex_automata::{DenseDfa, Dfa, Nfa, Regex, SaturatingClasses, StateId};
use hedgex_hedge::{FlatHedge, Hedge, SubId, SymId, Tree};

use crate::types::{HState, Leaf};

/// The horizontal transition function of one symbol: `w ↦ α(a, w)`.
///
/// A [`DenseDfa`] whose letters are the states `0..|Q|` — a child state
/// past them (only reachable through malformed input) takes the co-finite
/// column — with each horizontal state labelled by the result `α(a, w)`.
#[derive(Debug, Clone)]
pub struct HorizFn {
    dfa: DenseDfa,
    /// Result state per horizontal state.
    result: Vec<HState>,
}

impl HorizFn {
    /// Build from prioritized rules `(L_j, q_j)`: a word `w` maps to the
    /// `q_j` of the first `L_j` containing it, or to `sink`.
    ///
    /// First-match-wins keeps `α` a *function* even when rule languages
    /// overlap; a well-formed deterministic automaton has disjoint rule
    /// languages anyway, and then the priority is irrelevant.
    /// Every `L_j` is a table over the letters `0..num_states`.
    pub fn from_rules(rules: &[(DenseDfa, HState)], num_states: u32, sink: HState) -> HorizFn {
        let dfas: Vec<DenseDfa> = rules.iter().map(|(d, _)| d.clone()).collect();
        debug_assert!(dfas.iter().all(|d| d.letters() == num_states as usize));
        let classes = SaturatingClasses::build(&dfas);
        let result: Vec<HState> = (0..classes.num_classes() as u32)
            .map(|c| {
                rules
                    .iter()
                    .enumerate()
                    .find(|(j, _)| classes.class_in_lang(c, *j))
                    .map(|(_, (_, q))| *q)
                    .unwrap_or(sink)
            })
            .collect();
        HorizFn {
            dfa: classes.into_dfa(),
            result,
        }
    }

    /// Build from one row per horizontal state — its successors on the
    /// child states `0..|Q|`, then on any other — and one result per row.
    /// Determinization, products, minimization and Theorem 3's marking
    /// fill these rows directly.
    pub fn from_rows(rows: Vec<Vec<StateId>>, start: StateId, result: Vec<HState>) -> HorizFn {
        let accept = vec![false; rows.len()];
        HorizFn {
            dfa: DenseDfa::from_rows(rows, start, accept),
            result,
        }
    }

    /// The horizontal state for the empty child sequence.
    #[inline]
    pub fn start(&self) -> u32 {
        self.dfa.start()
    }

    /// Extend a horizontal state by one child state.
    #[inline]
    pub fn step(&self, h: u32, q: HState) -> u32 {
        self.dfa.step(h, q)
    }

    /// The result `α(a, w)` at horizontal state `h`.
    #[inline]
    pub fn result(&self, h: u32) -> HState {
        self.result[h as usize]
    }

    /// Evaluate `α(a, w)` for a whole child-state word.
    pub fn eval(&self, word: impl IntoIterator<Item = HState>) -> HState {
        let mut h = self.start();
        for q in word {
            h = self.step(h, q);
        }
        self.result(h)
    }

    /// The horizontal DFA itself.
    pub fn dfa(&self) -> &DenseDfa {
        &self.dfa
    }

    /// Number of horizontal states (used by size metrics in the benches).
    pub fn num_classes(&self) -> usize {
        self.result.len()
    }

    /// The inverse image `α⁻¹(a, q)` as a table over the state alphabet:
    /// accepts exactly the words `w` with `α(a, w) = q`.
    pub fn preimage(&self, q: HState) -> DenseDfa {
        self.dfa
            .with_accept(self.result.iter().map(|&r| r == q).collect())
    }

    /// The inverse image `α⁻¹(a, q)` as a total symbolic DFA, for the
    /// constructions that need a regex of it (Lemma 2).
    pub fn inverse(&self, q: HState) -> Dfa<HState> {
        self.preimage(q).to_dfa()
    }
}

/// Reusable buffers for [`Dha::run_into`]: one state slot per node,
/// allocated once and recycled across runs so warm evaluation performs no
/// heap allocation per node (growth is amortized across documents).
#[derive(Debug, Default)]
pub struct EvalScratch {
    states: Vec<HState>,
}

impl EvalScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Pre-size for documents of up to `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> EvalScratch {
        EvalScratch {
            states: Vec::with_capacity(nodes),
        }
    }

    /// The states written by the most recent [`Dha::run_into`].
    pub fn states(&self) -> &[HState] {
        &self.states
    }
}

/// A deterministic hedge automaton `(Σ, X, Q, ι, α, F)`.
///
/// Dispatch is **dense**: `α` is a `SymId`-indexed table of [`HorizFn`]s and
/// `ι` a pair of `VarId`/`SubId`-indexed state tables (the interned alphabet
/// hands out dense `u32` ids, so tables are sized up front from the largest
/// declared id — see `hedgex_hedge::Alphabet::sizes`). The per-node
/// execution loop therefore performs no hashing: every lookup is a bounds
/// check plus an array index, and out-of-range ids take the sink, exactly
/// like the previous `HashMap` miss path.
#[derive(Debug, Clone)]
pub struct Dha {
    num_states: u32,
    sink: HState,
    /// `ι` over variable leaves, indexed by `VarId`; out-of-range → sink.
    iota_var: Vec<HState>,
    /// `ι` over substitution-symbol leaves, indexed by `SubId`.
    iota_sub: Vec<HState>,
    /// `ι(η)` — the reserved `SubId::ETA` is `u32::MAX` and stays out of
    /// the dense table.
    iota_eta: HState,
    /// The declared leaf set, sorted (the dense tables cannot distinguish
    /// "undeclared" from "declared = sink").
    declared_leaves: Vec<Leaf>,
    /// `α` dispatch, indexed by `SymId`; `None` for undeclared symbols.
    horiz: Vec<Option<HorizFn>>,
    /// The declared symbol set, sorted.
    declared_syms: Vec<SymId>,
    /// `F` as a table over the state alphabet `0..|Q|`.
    finals: DenseDfa,
}

impl Dha {
    /// Number of states `|Q|`.
    pub fn num_states(&self) -> u32 {
        self.num_states
    }

    /// The sink state (assigned when no rule matches).
    pub fn sink(&self) -> HState {
        self.sink
    }

    /// `ι` on a leaf label (sink when undefined).
    #[inline]
    pub fn iota(&self, leaf: Leaf) -> HState {
        match leaf {
            Leaf::Var(x) => self
                .iota_var
                .get(x.0 as usize)
                .copied()
                .unwrap_or(self.sink),
            Leaf::Sub(SubId::ETA) => self.iota_eta,
            Leaf::Sub(z) => self
                .iota_sub
                .get(z.0 as usize)
                .copied()
                .unwrap_or(self.sink),
        }
    }

    /// The horizontal function of a symbol, if any rules were declared.
    #[inline]
    pub fn horiz(&self, a: SymId) -> Option<&HorizFn> {
        self.horiz.get(a.0 as usize).and_then(Option::as_ref)
    }

    /// The final state sequence set `F`, a table over the state alphabet
    /// `0..|Q|`. Because the alphabet is the identity, a state doubles as
    /// its own column index: step with `cell(s, q as usize)`.
    pub fn finals(&self) -> &DenseDfa {
        &self.finals
    }

    /// All symbols with declared horizontal rules, in id order.
    pub fn symbols(&self) -> impl Iterator<Item = SymId> + '_ {
        self.declared_syms.iter().copied()
    }

    /// The declared symbols grouped by horizontal table: symbols in one
    /// group step by the same rows and differ at most in their results.
    /// Groups and their members are in id order of first occurrence.
    pub fn symbol_groups(&self) -> Vec<Vec<SymId>> {
        let mut groups: Vec<Vec<SymId>> = Vec::new();
        for a in self.symbols() {
            let dfa = self.horiz(a).expect("declared").dfa();
            let same = |g: &&mut Vec<SymId>| self.horiz(g[0]).expect("declared").dfa() == dfa;
            match groups.iter_mut().find(same) {
                Some(g) => g.push(a),
                None => groups.push(vec![a]),
            }
        }
        groups
    }

    /// All leaf labels with a declared `ι` value, in sorted order.
    pub fn leaves(&self) -> impl Iterator<Item = Leaf> + '_ {
        self.declared_leaves.iter().copied()
    }

    /// Replace the final state sequence set (used when deriving automata
    /// that share `(Q, ι, α)` but differ in `F`, as in Theorem 4).
    pub fn with_finals(self, finals: DenseDfa) -> Dha {
        debug_assert_eq!(finals.letters(), self.num_states as usize);
        Dha { finals, ..self }
    }

    /// `α(a, w)` for an explicit word (sink for undeclared symbols).
    pub fn alpha(&self, a: SymId, word: &[HState]) -> HState {
        match self.horiz(a) {
            Some(h) => h.eval(word.iter().copied()),
            None => self.sink,
        }
    }

    /// The computation `M‖u`, written into caller-owned buffers: the state
    /// of every node, indexed by [`hedgex_hedge::NodeId`]. Linear in the
    /// number of nodes (Definition 4 evaluated bottom-up), and — past the
    /// first run on the largest document — allocation-free.
    pub fn run_into<'s>(&self, h: &FlatHedge, scratch: &'s mut EvalScratch) -> &'s [HState] {
        self.run_core(h, &mut scratch.states);
        &scratch.states
    }

    /// The computation `M‖u` as a fresh vector (see [`Dha::run_into`] for
    /// the reusable-buffer variant).
    pub fn run(&self, h: &FlatHedge) -> Vec<HState> {
        let mut states = Vec::new();
        self.run_core(h, &mut states);
        states
    }

    fn run_core(&self, h: &FlatHedge, states: &mut Vec<HState>) {
        use hedgex_hedge::flat::FlatLabel;
        let n = h.num_nodes();
        // One bulk add per run keeps the per-node loop untouched.
        hedgex_obs::counter_add("ha.dha.run_nodes", n as u64);
        hedgex_obs::counter_inc("ha.dha.runs");
        states.clear();
        states.resize(n, self.sink);
        let ends = h.subtree_ends();
        // Preorder ids: children have larger ids than their parent, so a
        // reverse scan sees every child before its parent.
        for id in (0..n as u32).rev() {
            match h.label(id) {
                FlatLabel::Var(x) => states[id as usize] = self.iota(Leaf::Var(x)),
                FlatLabel::Subst(z) => states[id as usize] = self.iota(Leaf::Sub(z)),
                FlatLabel::Sym(a) => {
                    states[id as usize] = match self.horiz(a) {
                        None => self.sink,
                        Some(hf) => {
                            // The children: from the first, each sibling at
                            // its elder's subtree end.
                            let (mut c, end) = (id + 1, ends[id as usize]);
                            let mut hs = hf.start();
                            while c < end {
                                hs = hf.step(hs, states[c as usize]);
                                c = ends[c as usize];
                            }
                            hf.result(hs)
                        }
                    };
                }
            }
        }
    }

    /// The ceil of the computation: states of the top-level nodes.
    pub fn run_ceil(&self, h: &FlatHedge) -> Vec<HState> {
        let states = self.run(h);
        h.roots().iter().map(|&r| states[r as usize]).collect()
    }

    /// Acceptance (Definition 5): is `⌈M‖u⌉ ∈ F`? Steps the dense-compiled
    /// `F` directly over the root states — no intermediate ceil vector.
    pub fn accepts_flat(&self, h: &FlatHedge) -> bool {
        let states = self.run(h);
        let mut q = self.finals.start();
        for &r in h.roots() {
            // Root states are always < |Q|, and the dense alphabet is the
            // identity 0..|Q|, so the state doubles as its column index.
            q = self.finals.cell(q, states[r as usize] as usize);
        }
        self.finals.is_accepting(q)
    }

    /// Acceptance on a recursive hedge.
    pub fn accepts(&self, h: &Hedge) -> bool {
        self.accepts_flat(&FlatHedge::from_hedge(h))
    }

    /// The state of a single recursive tree (bottom-up, recursion-free).
    pub fn state_of_tree(&self, t: &Tree) -> HState {
        match t {
            Tree::Var(x) => self.iota(Leaf::Var(*x)),
            Tree::Subst(z) => self.iota(Leaf::Sub(*z)),
            Tree::Node(a, children) => {
                let word: Vec<HState> = children.trees().map(|c| self.state_of_tree(c)).collect();
                self.alpha(*a, &word)
            }
        }
    }

    /// Build directly from parts (used by determinization, products, and
    /// the marking constructions of Theorems 3 and 5). Construction sites
    /// hand over sparse maps; the dense dispatch tables are laid out here,
    /// once, sized by the largest declared id.
    pub fn from_parts(
        num_states: u32,
        sink: HState,
        iota: HashMap<Leaf, HState>,
        horiz: HashMap<SymId, HorizFn>,
        finals: DenseDfa,
    ) -> Dha {
        debug_assert_eq!(finals.letters(), num_states as usize);
        let mut iota_var = Vec::new();
        let mut iota_sub = Vec::new();
        let mut iota_eta = sink;
        let mut declared_leaves: Vec<Leaf> = iota.keys().copied().collect();
        declared_leaves.sort_unstable();
        for (leaf, q) in iota {
            match leaf {
                Leaf::Var(x) => {
                    let i = x.0 as usize;
                    if iota_var.len() <= i {
                        iota_var.resize(i + 1, sink);
                    }
                    iota_var[i] = q;
                }
                Leaf::Sub(SubId::ETA) => iota_eta = q,
                Leaf::Sub(z) => {
                    let i = z.0 as usize;
                    if iota_sub.len() <= i {
                        iota_sub.resize(i + 1, sink);
                    }
                    iota_sub[i] = q;
                }
            }
        }
        let mut declared_syms: Vec<SymId> = horiz.keys().copied().collect();
        declared_syms.sort_unstable();
        let width = declared_syms.last().map_or(0, |a| a.0 as usize + 1);
        let mut horiz_dense: Vec<Option<HorizFn>> = Vec::with_capacity(width);
        horiz_dense.resize_with(width, || None);
        for (a, hf) in horiz {
            horiz_dense[a.0 as usize] = Some(hf);
        }
        Dha {
            num_states,
            sink,
            iota_var,
            iota_sub,
            iota_eta,
            declared_leaves,
            horiz: horiz_dense,
            declared_syms,
            finals,
        }
    }
}

/// Incremental construction of a [`Dha`] from regular-expression rules.
#[derive(Debug)]
pub struct DhaBuilder {
    num_states: u32,
    sink: HState,
    iota: HashMap<Leaf, HState>,
    rules: HashMap<SymId, Vec<(DenseDfa, HState)>>,
    finals: Option<DenseDfa>,
}

impl DhaBuilder {
    /// Start a builder with `num_states` states, one of which is the sink.
    pub fn new(num_states: u32, sink: HState) -> DhaBuilder {
        assert!(sink < num_states, "sink must be a state");
        DhaBuilder {
            num_states,
            sink,
            iota: HashMap::new(),
            rules: HashMap::new(),
            finals: None,
        }
    }

    /// Declare `ι(leaf) = q`.
    pub fn leaf(&mut self, leaf: impl Into<Leaf>, q: HState) -> &mut Self {
        assert!(q < self.num_states);
        self.iota.insert(leaf.into(), q);
        self
    }

    /// Declare `α(a, w) = q` for all `w ∈ L(re)` (first matching rule wins).
    pub fn rule(&mut self, a: SymId, re: Regex<HState>, q: HState) -> &mut Self {
        assert!(q < self.num_states);
        let dfa = Nfa::from_regex(&re).to_dense(self.num_states as usize);
        self.rules.entry(a).or_default().push((dfa, q));
        self
    }

    /// Declare the final state sequence set `F = L(re)`.
    pub fn finals(&mut self, re: Regex<HState>) -> &mut Self {
        self.finals = Some(Nfa::from_regex(&re).to_dense(self.num_states as usize));
        self
    }

    /// Compile the horizontal functions and assemble the automaton.
    pub fn build(self) -> Dha {
        let horiz = self
            .rules
            .into_iter()
            .map(|(a, rules)| (a, HorizFn::from_rules(&rules, self.num_states, self.sink)))
            .collect();
        Dha::from_parts(
            self.num_states,
            self.sink,
            self.iota,
            horiz,
            self.finals
                .unwrap_or_else(|| Nfa::empty_lang().to_dense(self.num_states as usize)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// The paper's M₀ (Section 3): accepts any sequence of trees
    /// d⟨p⟨x⟩ p⟨y⟩*⟩ — a `d` whose children are a `p⟨x⟩` followed by any
    /// number of `p⟨y⟩`.
    fn m0(ab: &mut Alphabet) -> Dha {
        let d = ab.sym("d");
        let p = ab.sym("p");
        let x = ab.var("x");
        let y = ab.var("y");
        // States: 0=q_d, 1=q_p1, 2=q_p2, 3=q_x, 4=q_y, 5=q_0 (sink).
        let mut b = DhaBuilder::new(6, 5);
        b.leaf(Leaf::Var(x), 3)
            .leaf(Leaf::Var(y), 4)
            .rule(d, Regex::sym(1).concat(Regex::sym(2).star()), 0)
            .rule(p, Regex::word(&[3]), 1)
            .rule(p, Regex::word(&[4]), 2)
            .finals(Regex::sym(0).star());
        b.build()
    }

    #[test]
    fn m0_accepts_paper_example() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        // d⟨p⟨x⟩ p⟨y⟩⟩ d⟨p⟨x⟩⟩ is accepted: computation ceil q_d q_d ∈ F.
        let h = parse_hedge("d<p<$x> p<$y>> d<p<$x>>", &mut ab).unwrap();
        assert!(m.accepts(&h));
    }

    #[test]
    fn m0_computation_matches_paper() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let h = parse_hedge("d<p<$x> p<$y>> d<p<$x>>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let states = m.run(&f);
        // Computation: q_d⟨q_p1⟨q_x⟩ q_p2⟨q_y⟩⟩ q_d⟨q_p1⟨q_x⟩⟩.
        assert_eq!(states, vec![0, 1, 3, 2, 4, 0, 1, 3]);
        assert_eq!(m.run_ceil(&f), vec![0, 0]);
    }

    #[test]
    fn m0_rejects_wrong_shapes() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        for bad in [
            "d<p<$y>>",       // first child must be p⟨x⟩
            "d<p<$x> p<$x>>", // later children must be p⟨y⟩
            "p<$x>",          // top level must be d's
            "d<p<$x>> p<$y>", // mixed top level
            "d",              // d with no children
            "d<p<$x $x>>",    // p with two leaves
        ] {
            let h = parse_hedge(bad, &mut ab).unwrap();
            assert!(!m.accepts(&h), "should reject {bad}");
        }
        // ε: F = q_d* contains the empty sequence.
        assert!(m.accepts(&parse_hedge("", &mut ab).unwrap()));
    }

    #[test]
    fn unknown_symbols_and_vars_go_to_sink() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let h = parse_hedge("q<$w>", &mut ab).unwrap();
        assert!(!m.accepts(&h));
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(m.run(&f), vec![5, 5]);
    }

    #[test]
    fn state_of_tree_agrees_with_run() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let h = parse_hedge("d<p<$x> p<$y> p<$y>>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let states = m.run(&f);
        for (i, t) in h.trees().enumerate() {
            assert_eq!(m.state_of_tree(t), states[f.roots()[i] as usize]);
        }
    }

    #[test]
    fn first_match_wins_on_overlapping_rules() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut b = DhaBuilder::new(3, 2);
        // Both rules match ε; the first one should win.
        b.rule(a, Regex::Epsilon, 0)
            .rule(a, Regex::Epsilon, 1)
            .finals(Regex::sym(0));
        let m = b.build();
        let h = parse_hedge("a", &mut ab).unwrap();
        assert!(m.accepts(&h));
    }

    #[test]
    fn horiz_fn_eval_matches_step_chain() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let p = ab.get_sym("p").unwrap();
        let hf = m.horiz(p).unwrap();
        assert_eq!(hf.eval([3]), 1);
        assert_eq!(hf.eval([4]), 2);
        assert_eq!(hf.eval([3, 3]), 5);
        assert_eq!(hf.eval([]), 5);
        let mut h = hf.start();
        h = hf.step(h, 3);
        assert_eq!(hf.result(h), 1);
    }

    #[test]
    fn alpha_is_total() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let d = ab.get_sym("d").unwrap();
        // Arbitrary garbage words map to the sink, never panic.
        assert_eq!(m.alpha(d, &[5, 5, 5]), 5);
        assert_eq!(m.alpha(d, &[1]), 0);
        assert_eq!(m.alpha(d, &[1, 2, 2, 2]), 0);
        assert_eq!(m.alpha(d, &[2]), 5);
    }
}
