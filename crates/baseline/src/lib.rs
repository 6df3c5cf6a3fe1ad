//! Baseline evaluators for the benchmark suite.
//!
//! The paper's headline claim is that extended path expressions evaluate in
//! time *linear* in the number of nodes (Sections 6–7). These baselines
//! realize the obvious alternatives the claim is measured against:
//!
//! * [`quadratic_locate_phr`] — per-node evaluation with the *same*
//!   compiled automata as Algorithm 1, but restarted from scratch at every
//!   candidate node (recomputing sibling state words and the ancestor
//!   path). This is what "path expressions + per-node checking" costs
//!   without the two-traversal sharing: Θ(n²) on broad/deep documents.
//! * [`interpretive_locate_phr`] — the declarative Definition-19 matcher
//!   (no automata at all): backtracking regex interpretation per node,
//!   exponential in pattern nesting — the "ad-hoc evaluation" the
//!   introduction contrasts with the formal-model approach.
//! * [`quadratic_marks`] — Theorem 3's marking recomputed per node instead
//!   of shared bottom-up.

#![forbid(unsafe_code)]

use hedgex_core::phr::Phr;
use hedgex_core::phr_compile::CompiledPhr;
use hedgex_ha::Dha;
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{FlatHedge, NodeId};

/// Per-node PHR evaluation with compiled automata but no sharing: for every
/// node, recompute the states of all sibling subtrees on the path to the
/// root, their ≡-classes, and the `N` run. Θ(n²) overall.
pub fn quadratic_locate_phr(phr: &CompiledPhr, h: &FlatHedge) -> Vec<NodeId> {
    h.preorder()
        .filter(|&n| matches!(h.label(n), FlatLabel::Sym(_)) && node_matches(phr, h, n))
        .collect()
}

fn node_matches(phr: &CompiledPhr, h: &FlatHedge, n: NodeId) -> bool {
    // Decomposition of the envelope, bottom-up; evaluate N top-down, so
    // collect the path first.
    let mut path = vec![n];
    let mut cur = n;
    while let Some(p) = h.parent(cur) {
        path.push(p);
        cur = p;
    }
    path.reverse(); // root → n
    let mut s = phr.n_start();
    for &node in &path {
        let FlatLabel::Sym(a) = h.label(node) else {
            return false;
        };
        // Recompute sibling state words from scratch (the whole point of
        // this baseline: no sharing across nodes).
        let c1 = {
            let mut c = phr.classes.start();
            for sib in h.elder_siblings(node) {
                let tree = h.to_tree(sib);
                c = phr.classes.step(c, phr.m.state_of_tree(&tree));
            }
            c
        };
        let c2 = {
            let mut c = phr.classes.start();
            for sib in h.younger_siblings(node) {
                let tree = h.to_tree(sib);
                c = phr.classes.step(c, phr.m.state_of_tree(&tree));
            }
            c
        };
        s = phr.n_step(s, phr.signature(c1, a, c2));
    }
    phr.n_accepting(s)
}

/// The declarative Definition-19 evaluator: no compilation, backtracking
/// interpretation of the hedge regular expressions at every node.
pub fn interpretive_locate_phr(phr: &Phr, h: &FlatHedge) -> Vec<NodeId> {
    phr.locate_naive(h)
}

/// Theorem 3 marks recomputed per node: run the content automaton from
/// scratch on each node's subhedge. Θ(n²) on deep documents.
pub fn quadratic_marks(dha: &Dha, h: &FlatHedge) -> Vec<bool> {
    h.preorder()
        .map(|n| {
            if !matches!(h.label(n), FlatLabel::Sym(_)) {
                return false;
            }
            let f = dha.finals();
            let mut s = f.start();
            for c in h.children(n) {
                let tree = h.to_tree(c);
                s = f.step(s, dha.state_of_tree(&tree));
            }
            f.is_accepting(s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_core::hre::parse_hre;
    use hedgex_core::mark_down::{compile_to_dha, mark_run};
    use hedgex_core::phr::parse_phr;
    use hedgex_core::two_pass;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::Alphabet;

    #[test]
    fn quadratic_phr_agrees_with_two_pass() {
        let mut ab = Alphabet::new();
        for src in [
            "[ε ; a ; ε]",
            "[a* ; a ; a*]",
            "[ε ; a ; b][b ; a ; ε]",
            "[a<%z>*^z ; b ; a<%z>*^z]*",
        ] {
            let phr = parse_phr(src, &mut ab).unwrap();
            let compiled = CompiledPhr::compile(&phr);
            let syms: Vec<_> = ab.syms().collect();
            for h in enumerate_hedges(&syms, &[], 5) {
                let f = FlatHedge::from_hedge(&h);
                assert_eq!(
                    quadratic_locate_phr(&compiled, &f),
                    two_pass::locate(&compiled, &f),
                    "{src} on {h:?}"
                );
            }
        }
    }

    #[test]
    fn quadratic_marks_agree_with_mark_run() {
        let mut ab = Alphabet::new();
        let e = parse_hre("(a<b*>|b)*", &mut ab).unwrap();
        let dha = compile_to_dha(&e);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 5) {
            let f = FlatHedge::from_hedge(&h);
            assert_eq!(quadratic_marks(&dha, &f), mark_run(&dha, &f));
        }
    }

    #[test]
    fn interpretive_agrees_with_two_pass() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 5) {
            let f = FlatHedge::from_hedge(&h);
            assert_eq!(
                interpretive_locate_phr(&phr, &f),
                two_pass::locate(&compiled, &f)
            );
        }
    }
}
