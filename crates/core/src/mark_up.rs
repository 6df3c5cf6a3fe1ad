//! Theorem 5: the match-identifying non-deterministic hedge automaton
//! `M↑e₂` for a pointed hedge representation.
//!
//! `M↑e₂` accepts every hedge, has **exactly one successful computation**
//! per hedge, and that computation assigns a marked state precisely to the
//! nodes the PHR locates. It is the device that moves PHR matching from
//! evaluation time to the *schema* level (Section 8).
//!
//! Construction (following the proof):
//!
//! * States are `(q, s, a)` — `q` simulates the shared automaton `M` of
//!   Theorem 4, `s` is the node's state in the top-down automaton `N`
//!   (equivalently: the state of `N'`, the reverse simulation of `N` run
//!   bottom-up, Figure 3), `a` is the node's own label — plus `(q, ⊥)` for
//!   leaves.
//! * The horizontal language `β⁻¹(a, (q, s, a))` is built exactly as the
//!   difference in the proof: the `h`-image of `α⁻¹(a, q)` minus the
//!   "bad-child" language `⋃ h(C₁) Ω h(C₂)` — a three-phase NFA that tracks
//!   the prefix class, nondeterministically flags one child whose `N`-state
//!   contradicts `μ` (Figure 4), and then verifies the guessed suffix
//!   class — determinized and complemented.
//! * `F′` is the same difference at the top level with `s₀` as the parent
//!   state.
//! * Marked states are `(q, s, a)` with `s ∈ S_fin`.

use std::collections::HashMap;

use hedgex_automata::{in_edges, CharClass, DenseDfa, Nfa, ProductOp, StateId};
use hedgex_ha::{HState, LangId, Leaf, Nha};
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{FlatHedge, NodeId, SymId};

use crate::phr_compile::CompiledPhr;

/// The match-identifying automaton of Theorem 5.
pub struct MarkUp {
    /// The automaton `M′`. Accepts every hedge over the alphabet it was
    /// built for, with a unique successful computation.
    pub nha: Nha,
    /// Marked states (index = `M′` state id).
    pub marked: Vec<bool>,
    /// Human-readable decode of each state (for tests and debugging).
    pub decode: Vec<MarkUpState>,
}

/// Decoded form of an `M′` state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkUpState {
    /// A leaf state `(q, ⊥)`.
    Bot(HState),
    /// An internal state `(q, s, a)`.
    Triple(HState, u32, SymId),
}

impl MarkUp {
    /// Build `M↑e₂` over the document alphabet: element names `sigma` and
    /// variables `vars` (variables the PHR never mentions still occur in
    /// documents and must be given `(ι_M, ⊥)` states — `M` sends them to
    /// its sink).
    pub fn build(phr: &CompiledPhr, sigma: &[SymId], vars: &[hedgex_hedge::VarId]) -> MarkUp {
        let m = &phr.m;
        let nq = m.num_states();
        let ns = phr.n_states_materialized() as u32;
        let mut sigma = sigma.to_vec();
        sigma.sort();
        sigma.dedup();
        let na = sigma.len() as u32;
        let sigma_pos: HashMap<SymId, u32> = sigma
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();

        // State ids: 0..nq are (q, ⊥); then nq + (q·|S| + s)·|Σ| + a.
        let bot = |q: HState| q;
        let triple = |q: HState, s: u32, ai: u32| nq + (q * ns + s) * na + ai;
        let num_states = nq + nq * ns * na;
        let mut decode = Vec::with_capacity(num_states as usize);
        for q in 0..nq {
            decode.push(MarkUpState::Bot(q));
        }
        for q in 0..nq {
            for s in 0..ns {
                for &a in &sigma {
                    decode.push(MarkUpState::Triple(q, s, a));
                }
            }
        }
        debug_assert_eq!(decode.len(), num_states as usize);

        // ι: leaves carry their M-state and ⊥.
        let mut iota: HashMap<Leaf, Vec<HState>> = HashMap::new();
        for leaf in m.leaves() {
            iota.insert(leaf, vec![bot(m.iota(leaf))]);
        }
        for &x in vars {
            iota.entry(Leaf::Var(x))
                .or_insert_with(|| vec![bot(m.iota(Leaf::Var(x)))]);
        }

        // The M-projection of an M′ state id.
        let proj_q = |id: HState| -> HState {
            if id < nq {
                id
            } else {
                (id - nq) / (ns * na)
            }
        };
        // The (s, a) of a triple id, None for ⊥ states.
        let proj_sa = |id: HState| -> Option<(u32, u32)> {
            if id < nq {
                None
            } else {
                let rest = (id - nq) % (ns * na);
                Some((rest / na, rest % na))
            }
        };

        // The complement of the bad-child language, per parent N-state s.
        let good: Vec<DenseDfa> = (0..ns)
            .map(|s| {
                bad_children_nfa(phr, s, num_states, nq, &sigma, proj_q, proj_sa)
                    .to_dense(num_states as usize)
                    .complement()
            })
            .collect();

        // Rules: for each symbol a, parent-choice s and result q, the
        // language h(α⁻¹(a, q)) ∩ good(s), labelled (q, s, a).
        let mut langs: Vec<DenseDfa> = Vec::new();
        let mut rules: HashMap<SymId, Vec<(LangId, HState)>> = HashMap::new();
        for &a in &sigma {
            let ai = sigma_pos[&a];
            for q in 0..nq {
                // h-image of α⁻¹(a, q): relabel each state letter by the
                // set of M′ ids projecting to it.
                let inv = match m.horiz(a) {
                    Some(hf) => hf.preimage(q),
                    // α(a, ·) ≡ sink for undeclared symbols.
                    None if q == m.sink() => universal(nq),
                    None => continue,
                };
                if inv.is_empty_lang() {
                    continue;
                }
                let lifted = lift_by_projection(&inv, num_states, proj_q);
                for s in 0..ns {
                    let lang = lifted.product(&good[s as usize], ProductOp::And);
                    if !lang.is_empty_lang() {
                        langs.push(lang);
                        let l = (langs.len() - 1) as LangId;
                        rules.entry(a).or_default().push((l, triple(q, s, ai)));
                    }
                }
            }
        }

        // F′: every child of the virtual super-root is consistent with s₀
        // (no M-condition — M′ accepts all hedges).
        let finals = good[phr.n_start() as usize].to_dfa().to_nfa();

        let marked: Vec<bool> = decode
            .iter()
            .map(|st| matches!(st, MarkUpState::Triple(_, s, _) if phr.n_accepting(*s)))
            .collect();

        MarkUp {
            nha: Nha::from_parts(num_states, iota, langs, rules, finals),
            marked,
            decode,
        }
    }

    /// Locate the nodes marked by the unique successful computation —
    /// Theorem 5 evaluated directly: a node is located iff the automaton
    /// still accepts when that node is *forced* onto a marked state.
    ///
    /// Quadratic (one constrained run per node); the point of `M↑e₂` is
    /// schema-level use, not evaluation — Algorithm 1 covers that.
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        h.preorder()
            .filter(|&n| {
                matches!(h.label(n), FlatLabel::Sym(_))
                    && self
                        .nha
                        .accepts_flat_filtered(h, &|id, q| id != n || self.marked[q as usize])
            })
            .collect()
    }
}

/// Every word over the letters `0..k`, and any other.
fn universal(k: HState) -> DenseDfa {
    DenseDfa::from_rows(vec![vec![0; k as usize + 1]], 0, vec![true])
}

/// The `h`-image of a table over `Q`: every M′ id steps like the state
/// letter `q` it projects to (the homomorphism `h` of the proof,
/// `h(q) = ({q} × S × Σ) ∪ {(q, ⊥)}`), and any other letter like the
/// base table's co-finite column.
fn lift_by_projection(
    dfa: &DenseDfa,
    num_states: HState,
    proj_q: impl Fn(HState) -> HState,
) -> DenseDfa {
    let states = 0..dfa.num_states() as StateId;
    let rows = states.clone().map(|st| {
        let letters = (0..num_states).map(|id| dfa.cell(st, proj_q(id) as usize));
        letters.chain([dfa.cell(st, dfa.letters())]).collect()
    });
    let accept = states.map(|s| dfa.is_accepting(s)).collect();
    DenseDfa::from_rows(rows.collect(), dfa.start(), accept)
}

/// The "some child violates μ" NFA (the `⋃_{C₁,C₂} h(C₁) Ω h(C₂)` of the
/// proof), over M′ state ids, for parent N-state `s`.
///
/// Phase 1 tracks the ≡-class of the prefix; the middle transition reads
/// one child `(q', s', a')` with `s' ≠ μ((C₁, a', C₂), s)` for the guessed
/// suffix class `C₂`; phase 2 verifies the guess by running the class DFA
/// over the remaining letters.
fn bad_children_nfa(
    phr: &CompiledPhr,
    s: u32,
    num_states: HState,
    nq: HState,
    sigma: &[SymId],
    proj_q: impl Fn(HState) -> HState,
    proj_sa: impl Fn(HState) -> Option<(u32, u32)>,
) -> Nfa<HState> {
    let ncl = phr.classes.num_classes() as u32;
    // NFA state layout: phase-1 class c → c; phase-2 (c, C2) → ncl + c·ncl + C2.
    let p1 = |c: u32| c;
    let p2 = |c: u32, c2: u32| ncl + c * ncl + c2;
    let total = (ncl + ncl * ncl) as usize;
    let mut trans: Vec<Vec<(CharClass<HState>, StateId)>> = vec![Vec::new(); total];
    let mut accept = vec![false; total];

    for c in 0..ncl {
        // The class step from c of every id's M-projection, computed once
        // for phase 1 and shared by the phase-2 rows of every guessed C2.
        let steps: Vec<(HState, u32)> = (0..num_states)
            .map(|id| (id, phr.classes.step(c, proj_q(id))))
            .collect();
        // Phase-1 transitions: group ids by M-projection's class step.
        let letters = steps.iter().map(|&(id, next)| (id, p1(next)));
        trans[p1(c) as usize].extend(in_edges(letters));
        // Middle transitions: a violating child, for each guessed C2.
        for c2 in 0..ncl {
            let mut bad_ids: Vec<HState> = Vec::new();
            for id in nq..num_states {
                let (sp, ai) = proj_sa(id).expect("triple id");
                let a = sigma[ai as usize];
                let sig = phr.signature(c, a, c2);
                if phr.n_step(s, sig) != sp {
                    bad_ids.push(id);
                }
            }
            if !bad_ids.is_empty() {
                trans[p1(c) as usize].push((CharClass::of(bad_ids), p2(phr.classes.start(), c2)));
            }
        }
        // Phase-2 transitions and acceptance.
        for c2 in 0..ncl {
            let st = p2(c, c2);
            let letters = steps.iter().map(|&(id, next)| (id, p2(next, c2)));
            trans[st as usize].extend(in_edges(letters));
            accept[st as usize] = c == c2;
        }
    }
    Nfa::from_raw(
        trans,
        vec![Vec::new(); total],
        p1(phr.classes.start()),
        accept,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr::parse_phr;
    use crate::two_pass;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// The Theorem 5 contract, checked exhaustively: M′ accepts everything,
    /// and marked-state placement matches the PHR's located nodes.
    fn check(phr_src: &str, max_nodes: usize) {
        let mut ab = Alphabet::new();
        let phr = parse_phr(phr_src, &mut ab).unwrap();
        ab.sym("other"); // widen Σ beyond the PHR's own labels
        let compiled = CompiledPhr::compile(&phr);
        ab.var("x"); // widen the variable alphabet too
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let mu = MarkUp::build(&compiled, &syms, &vars);
        for h in enumerate_hedges(&syms, &vars, max_nodes) {
            let f = FlatHedge::from_hedge(&h);
            assert!(mu.nha.accepts_flat(&f), "{phr_src}: M′ must accept {h:?}");
            let expected = two_pass::locate(&compiled, &f);
            let got = mu.locate(&f);
            assert_eq!(got, expected, "{phr_src}: marking mismatch on {h:?}");
        }
    }

    #[test]
    fn single_triplet_marking() {
        check("[ε ; a ; ε]", 3);
    }

    #[test]
    fn sibling_condition_marking() {
        check("[a ; a ; ε]", 3);
    }

    #[test]
    fn path_marking() {
        check("[ε ; a ; ε][ε ; b ; ε]", 3);
    }

    #[test]
    fn starred_marking() {
        check("[ε ; a ; ε]*", 3);
    }

    #[test]
    fn worked_example_marks_exactly_the_located_node() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let mu = MarkUp::build(&compiled, &syms, &vars);
        let f = FlatHedge::from_hedge(&h);
        assert!(mu.nha.accepts_flat(&f));
        assert_eq!(mu.locate(&f), vec![2]);
    }

    #[test]
    fn unique_successful_computation() {
        // For every hedge, forcing any single node to *all* its candidate
        // states one at a time: exactly one (q, s, a) triple per Σ-node
        // survives in an accepting computation — the uniqueness clause.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let syms: Vec<_> = ab.syms().collect();
        let mu = MarkUp::build(&compiled, &syms, &[]);
        for h in enumerate_hedges(&syms, &[], 3) {
            let f = FlatHedge::from_hedge(&h);
            for n in f.preorder() {
                if !matches!(f.label(n), FlatLabel::Sym(_)) {
                    continue;
                }
                let surviving: Vec<HState> = (0..mu.nha.num_states())
                    .filter(|&q| {
                        matches!(mu.decode[q as usize], MarkUpState::Triple(..))
                            && mu
                                .nha
                                .accepts_flat_filtered(&f, &|id, st| id != n || st == q)
                    })
                    .collect();
                assert_eq!(
                    surviving.len(),
                    1,
                    "node {n} of {h:?} has {} surviving states",
                    surviving.len()
                );
            }
        }
    }
}
