//! Theorem 3: the marked automaton `M↓e` for a hedge regular expression.
//!
//! Given `e`, `M↓e` is a deterministic hedge automaton over `Q × {0, 1}`
//! that accepts *every* hedge and assigns a marked state `(q, 1)` exactly
//! to the nodes whose subhedge (content) lies in `L(e)` — the bit records
//! whether the child word fell in `F`. Selection queries use it for the
//! `e₁` half of `select(e₁, e₂)`, and schema transformation intersects it
//! with the input schema.
//!
//! Two entry points:
//!
//! * [`mark_run`] — evaluation-only: run the underlying automaton once and
//!   test each node's child word against `F` (one extra DFA step per edge;
//!   still a single linear traversal). This is what query evaluation uses.
//! * [`MarkDown::build`] — the explicit `Q × {0, 1}` automaton of the
//!   theorem, needed when the marking must exist *as an automaton* (schema
//!   transformation).

use std::collections::{BTreeSet, HashMap};

use hedgex_automata::{DenseDfa, StateId, Worklist};
use hedgex_ha::dha::HorizFn;
use hedgex_ha::{determinize, Dha, HState, Leaf};
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{FlatHedge, SymId};

use crate::compile::compile_hre;
use crate::hre::Hre;

/// Compile `e` to a deterministic hedge automaton (Lemma 1 + Theorem 1),
/// the shared front half of both entry points.
pub fn compile_to_dha(e: &Hre) -> Dha {
    determinize(&compile_hre(e)).dha
}

/// For every node: does its subhedge lie in `L(e)` (given `e` compiled to
/// `dha`)? Leaves are never marked (their envelope admits no `η`).
pub fn mark_run(dha: &Dha, h: &FlatHedge) -> Vec<bool> {
    let mut scratch = hedgex_ha::EvalScratch::new();
    let mut marks = Vec::new();
    mark_run_into(dha, h, &mut scratch, &mut marks);
    marks
}

/// [`mark_run`] into caller-owned buffers (the warm path): the `M`-run
/// reuses `scratch` and the marks overwrite `marks` in place. Per child
/// edge this costs one dense `F`-table step — states are always `< |Q|`
/// and the dense alphabet is the identity, so the state is its own column.
pub fn mark_run_into(
    dha: &Dha,
    h: &FlatHedge,
    scratch: &mut hedgex_ha::EvalScratch,
    marks: &mut Vec<bool>,
) {
    let states = dha.run_into(h, scratch);
    let f = dha.finals();
    marks.clear();
    marks.resize(h.num_nodes(), false);
    for id in h.preorder() {
        if !matches!(h.label(id), FlatLabel::Sym(_)) {
            continue;
        }
        let s = h
            .children(id)
            .fold(f.start(), |s, c| f.cell(s, states[c as usize] as usize));
        marks[id as usize] = f.is_accepting(s);
    }
}

/// The explicit `M↓e` of Theorem 3.
pub struct MarkDown {
    /// The `Q × {0, 1}` automaton. Accepts every hedge (its `F'` is
    /// universal, as in the theorem).
    pub dha: Dha,
    /// Marked states: `marked[q']` iff `q'` is of the form `(q, 1)`.
    pub marked: Vec<bool>,
}

impl MarkDown {
    /// Build `M↓e` over the document alphabet `sigma`. State `2q + m`
    /// encodes `(q, m)`.
    ///
    /// `sigma` must cover every element name that can occur in documents:
    /// Theorem 3's automaton marks a node whenever its *content* lies in
    /// `L(e)`, even if the node's own label never occurs inside `e`.
    pub fn build(e: &Hre, sigma: &[SymId]) -> MarkDown {
        let base = compile_to_dha(e);
        let f = base.finals();
        let nq = base.num_states();
        let num_states = nq * 2;
        let sink = base.sink() * 2;

        let mut iota: HashMap<Leaf, HState> = HashMap::new();
        for leaf in base.leaves() {
            iota.insert(leaf, base.iota(leaf) * 2);
        }

        let mut horiz: HashMap<SymId, HorizFn> = HashMap::new();
        let mut symbols: BTreeSet<SymId> = base.symbols().collect();
        symbols.extend(sigma.iter().copied());
        for a in symbols {
            let hf = base.horiz(a);
            // Joint automaton over doubled symbols: (horizontal state of a,
            // F-state); reading (q, m) steps both by q.
            let mut joint = Worklist::new();
            let start = joint.intern((hf.map_or(0, |h| h.start()), f.start()));
            let rows = joint.explore(|joint, id, &(hs, fs): &(u32, StateId)| {
                let letters = (0..num_states).map(|d| {
                    let q = d >> 1;
                    let next_h = hf.map_or(hs, |hfn| hfn.step(hs, q));
                    joint.intern((next_h, f.step(fs, q)))
                });
                let mut row: Vec<StateId> = letters.collect();
                row.push(id);
                row
            });
            let labels: Vec<HState> = joint
                .keys()
                .iter()
                .map(|&(hs, fs)| {
                    let r = hf.map_or(base.sink(), |hfn| hfn.result(hs));
                    r * 2 + u32::from(f.is_accepting(fs))
                })
                .collect();
            horiz.insert(a, HorizFn::from_rows(rows, start, labels));
        }

        // F' is universal: M↓e accepts every hedge.
        let universal = DenseDfa::from_rows(vec![vec![0; num_states as usize + 1]], 0, vec![true]);
        let marked = (0..num_states).map(|d| d % 2 == 1).collect();
        MarkDown {
            dha: Dha::from_parts(num_states, sink, iota, horiz, universal),
            marked,
        }
    }

    /// Which nodes get marked states?
    pub fn marks(&self, h: &FlatHedge) -> Vec<bool> {
        self.dha
            .run(h)
            .into_iter()
            .map(|q| self.marked[q as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hre::parse_hre;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// Both marking routes must agree with the declarative semantics:
    /// node marked ⟺ subhedge ∈ L(e).
    fn check(expr: &str, max_nodes: usize) {
        let mut ab = Alphabet::new();
        let e = parse_hre(expr, &mut ab).unwrap();
        // Widen the document alphabet beyond the expression's own symbols.
        ab.sym("other");
        let dha = compile_to_dha(&e);
        let syms: Vec<_> = ab.syms().collect();
        let md = MarkDown::build(&e, &syms);
        let vars: Vec<_> = ab.vars().collect();
        for h in enumerate_hedges(&syms, &vars, max_nodes) {
            let f = FlatHedge::from_hedge(&h);
            assert!(md.dha.accepts_flat(&f), "M↓e must accept every hedge");
            let run = mark_run(&dha, &f);
            let explicit = md.marks(&f);
            for id in f.preorder() {
                let expected = match f.label(id) {
                    FlatLabel::Sym(_) => e.matches(&f.subhedge(id)),
                    _ => false,
                };
                assert_eq!(
                    run[id as usize], expected,
                    "mark_run wrong for {expr} at node {id} of {h:?}"
                );
                assert_eq!(
                    explicit[id as usize], expected,
                    "M↓e wrong for {expr} at node {id} of {h:?}"
                );
            }
        }
    }

    #[test]
    fn marks_empty_content() {
        check("ε", 4);
    }

    #[test]
    fn marks_single_leaf_content() {
        check("b", 4);
        check("$x", 4);
    }

    #[test]
    fn marks_starred_content() {
        check("(b|$x)*", 4);
        check("b* $x", 4);
    }

    #[test]
    fn marks_nested_content() {
        check("a<b*> b", 5);
        check("(a<b>|b)*", 5);
    }

    #[test]
    fn theorem_3_worked_example() {
        // Section 6: e = (b|x)*, hedge b a⟨a⟨b x⟩ b⟩ — the first
        // second-level node of the second top-level node is located.
        let mut ab = Alphabet::new();
        let e = parse_hre("(b|$x)*", &mut ab).unwrap();
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let md = MarkDown::build(&e, &syms);
        let f = FlatHedge::from_hedge(&h);
        let marks = md.marks(&f);
        // Node 2 is a⟨b x⟩ whose content b x ∈ L((b|x)*). Nodes 0 (b, with
        // content ε ∈ L(e)) and 5 (b, content ε) also qualify — Theorem 3
        // marks all content matches; select() later intersects with the
        // envelope condition.
        assert!(marks[2]);
        assert!(marks[0]);
        assert!(marks[5]);
        assert!(marks[3], "childless b: content ε ∈ L((b|x)*)");
        assert!(!marks[1], "a⟨a⟨bx⟩b⟩'s content is not in L(e)");
        assert!(!marks[4], "variable leaves are never marked");
    }

    #[test]
    fn deep_marking_beyond_enumeration() {
        let mut ab = Alphabet::new();
        let e = parse_hre("a<%z>*^z", &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let md = MarkDown::build(&e, &syms);
        let a = ab.get_sym("a").unwrap();
        let mut h = hedgex_hedge::Hedge::leaf(a);
        for _ in 0..30 {
            h = hedgex_hedge::Hedge::node(a, h);
        }
        let f = FlatHedge::from_hedge(&h);
        let marks = md.marks(&f);
        assert!(marks.iter().all(|&m| m), "every all-a node content matches");
    }
}
