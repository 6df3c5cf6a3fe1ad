//! Minimization of deterministic hedge automata.
//!
//! The constructions of Theorems 3–5 and the products of Section 8 produce
//! automata with many interchangeable states. Two states are
//! *congruent* when exchanging them in any computation never changes
//! acceptance; merging congruent states shrinks every downstream product.
//!
//! The congruence is computed by nested partition refinement:
//!
//! 1. two states must act alike as *letters* of the final state sequence
//!    set `F` (no word context distinguishes them), and
//! 2. for every symbol `a`, they must act alike as letters of `a`'s
//!    horizontal automaton, where horizontal states are themselves
//!    compared by the current partition of their *results* —
//!
//! iterated to a fixpoint, then the automaton is rebuilt over block
//! representatives. This is the unranked analogue of Moore's algorithm;
//! exact minimality is not claimed (state merging by congruence is the
//! useful, safe core), but the result is language-equal by construction
//! and verified by the exact equivalence decision in the tests.

use std::collections::HashMap;

use hedgex_automata::{row, DenseDfa, Dfa, StateId};
use hedgex_obs as obs;

use crate::dha::{Dha, HorizFn};
use crate::types::HState;

/// Merge congruent states. Returns the reduced automaton and the map from
/// old states to new ones.
pub fn minimize_dha(dha: &Dha) -> (Dha, Vec<HState>) {
    let _span = obs::span("ha.minimize");
    let n = dha.num_states() as usize;
    let symbols: Vec<_> = {
        let mut v: Vec<_> = dha.symbols().collect();
        v.sort();
        v
    };

    // Letter-equivalence induced by a dense DFA over Q: q1 ~ q2 iff from
    // every DFA state, stepping by q1 and by q2 lands in language-equal
    // states. `state_blocks` are Moore blocks of the DFA's own states given
    // an output function.
    // Refinement runs against *all* letters, not the current letter blocks:
    // that is what makes it sound.
    fn dfa_state_blocks(dfa: &DenseDfa, nq: usize, out: &dyn Fn(StateId) -> u32) -> Vec<u32> {
        let m = dfa.num_states();
        let mut block: Vec<u32> = (0..m as StateId).map(&out).collect();
        canonicalize(&mut block);
        loop {
            let mut sig_ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
            let mut next = vec![0u32; m];
            for s in 0..m as StateId {
                let sig: Vec<u32> = (0..nq as HState)
                    .map(|q| block[dfa.step(s, q) as usize])
                    .collect();
                let key = (block[s as usize], sig);
                let fresh = sig_ids.len() as u32;
                next[s as usize] = *sig_ids.entry(key).or_insert(fresh);
            }
            canonicalize(&mut next);
            if next == block {
                return block;
            }
            block = next;
        }
    }

    fn canonicalize(v: &mut [u32]) {
        let mut map: HashMap<u32, u32> = HashMap::new();
        for x in v.iter_mut() {
            let fresh = map.len() as u32;
            *x = *map.entry(*x).or_insert(fresh);
        }
    }

    // Initial partition: everything together; refine until stable.
    let mut letter_block = vec![0u32; n];
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut sigs: Vec<Vec<u32>> = vec![Vec::new(); n];

        // 1. Behaviour as letters of F.
        let f = dha.finals_dense();
        let fb = dfa_state_blocks(f, n, &|s| u32::from(f.is_accepting(s)));
        for q in 0..n {
            for s in 0..f.num_states() as StateId {
                sigs[q].push(fb[f.step(s, q as HState) as usize]);
            }
        }

        // 2. Behaviour as letters of each horizontal automaton, where
        // horizontal states are compared by (result block, successors).
        for &a in &symbols {
            let hf = dha.horiz(a).expect("declared");
            let hb = dfa_state_blocks(hf.dfa(), n, &|h| letter_block[hf.result(h) as usize]);
            for q in 0..n {
                for h in 0..hf.num_classes() as u32 {
                    sigs[q].push(hb[hf.step(h, q as HState) as usize]);
                }
            }
        }

        // Split blocks by signature.
        let mut ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut next = vec![0u32; n];
        for q in 0..n {
            let key = (letter_block[q], std::mem::take(&mut sigs[q]));
            let fresh = ids.len() as u32;
            next[q] = *ids.entry(key).or_insert(fresh);
        }
        canonicalize(&mut next);
        if next == letter_block {
            break;
        }
        letter_block = next;
    }

    let out = rebuild(dha, &letter_block, &symbols);
    obs::counter_inc("ha.minimize.calls");
    obs::counter_add("ha.minimize.states_in", n as u64);
    obs::counter_add("ha.minimize.states_out", u64::from(out.0.num_states()));
    obs::counter_add("ha.minimize.rounds", rounds);
    obs::event("ha.minimize", || {
        format!(
            "states_in={n} states_out={} rounds={rounds}",
            out.0.num_states()
        )
    });
    out
}

fn rebuild(dha: &Dha, block: &[u32], symbols: &[hedgex_hedge::SymId]) -> (Dha, Vec<HState>) {
    let nblocks = block.iter().copied().max().map_or(0, |m| m as usize + 1);
    let map: Vec<HState> = block.iter().map(|&b| b as HState).collect();

    let mut iota = HashMap::new();
    for leaf in dha.leaves() {
        iota.insert(leaf, map[dha.iota(leaf) as usize]);
    }
    let sink = map[dha.sink() as usize];

    // One representative state per block: the new letter `b` steps like
    // any state of block `b`.
    let mut rep_of_block: Vec<HState> = vec![0; nblocks];
    for q in (0..dha.num_states()).rev() {
        rep_of_block[block[q as usize] as usize] = q;
    }
    let letters = |step: &dyn Fn(HState) -> StateId| {
        rep_of_block
            .iter()
            .enumerate()
            .map(|(b, &q)| (b as HState, step(q)))
            .collect::<Vec<_>>()
    };

    // Horizontal tables: relabel letters and results by block; keep the
    // horizontal state space (it collapses on its own inside the dense
    // table when blocks coincide — cheap and correct).
    let mut horiz = HashMap::new();
    for &a in symbols {
        let hf = dha.horiz(a).expect("declared");
        let m = hf.num_classes() as u32;
        let rows = (0..m)
            .map(|h| {
                let letters = rep_of_block.iter().map(|&q| hf.step(h, q));
                letters.chain([hf.step(h, u32::MAX)]).collect()
            })
            .collect();
        let labels: Vec<HState> = (0..m).map(|h| map[hf.result(h) as usize]).collect();
        horiz.insert(a, HorizFn::from_rows(rows, hf.start(), labels));
    }

    // F: relabel letters by block (congruence makes this well-defined).
    let f = dha.finals();
    let ftrans = (0..f.num_states() as StateId)
        .map(|s| row(letters(&|q| f.step(s, &q)), f.step_cofinite(s)))
        .collect();
    let finals = Dfa::from_parts(
        ftrans,
        f.start(),
        (0..f.num_states() as StateId)
            .map(|s| f.is_accepting(s))
            .collect(),
    );

    (
        Dha::from_parts(nblocks as u32, sink, iota, horiz, finals),
        map,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dha::DhaBuilder;
    use crate::ops::equivalent;
    use crate::paper::m0;
    use crate::types::Leaf;
    use hedgex_automata::Regex;
    use hedgex_hedge::Alphabet;

    #[test]
    fn merges_duplicate_states() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let b = ab.sym("b");
        let x = ab.var("x");
        let y = ab.var("y");
        // States 0 and 1 are duplicates (two vars, interchangeable roles).
        let mut d = DhaBuilder::new(4, 3);
        d.leaf(Leaf::Var(x), 0)
            .leaf(Leaf::Var(y), 1)
            .rule(a, Regex::sym(0).alt(Regex::sym(1)).star(), 2)
            .rule(b, Regex::sym(0).alt(Regex::sym(1)).star(), 2)
            .finals(Regex::sym(2).star());
        let m = d.build();
        let (min, map) = minimize_dha(&m);
        assert!(min.num_states() < m.num_states());
        assert_eq!(map[0], map[1], "the two leaf states merge");
        assert!(equivalent(&m, &min).is_ok());
    }

    #[test]
    fn preserves_language_on_paper_automaton() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let (min, _) = minimize_dha(&m);
        assert!(min.num_states() <= m.num_states());
        assert!(equivalent(&m, &min).is_ok());
    }

    #[test]
    fn idempotent() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let (min1, _) = minimize_dha(&m);
        let (min2, _) = minimize_dha(&min1);
        assert_eq!(min1.num_states(), min2.num_states());
        assert!(equivalent(&min1, &min2).is_ok());
    }

    #[test]
    fn does_not_merge_distinguishable_states() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let x = ab.var("x");
        let y = ab.var("y");
        // F = q_x q_y: order matters, so the two leaf states must not merge.
        let mut d = DhaBuilder::new(3, 2);
        d.leaf(Leaf::Var(x), 0)
            .leaf(Leaf::Var(y), 1)
            .rule(a, Regex::Epsilon, 2) // a maps to sink (filler rule)
            .finals(Regex::sym(0).concat(Regex::sym(1)));
        let m = d.build();
        let (min, map) = minimize_dha(&m);
        assert_ne!(map[0], map[1]);
        assert!(equivalent(&m, &min).is_ok());
    }

    #[test]
    fn shrinks_marking_products() {
        // A product-heavy automaton from the core pipeline shrinks.
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let prod = crate::product::product_many(&[&m, &m, &m]);
        let with_f = prod.dha.with_finals(prod.lifted_finals[0].clone());
        let (min, _) = minimize_dha(&with_f);
        assert!(min.num_states() <= with_f.num_states());
        assert!(equivalent(&with_f, &min).is_ok());
    }
}
