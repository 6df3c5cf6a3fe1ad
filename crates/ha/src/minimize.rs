//! Minimization of deterministic hedge automata.
//!
//! The constructions of Theorems 3–5 and the products of Section 8 produce
//! automata with many interchangeable states. Two states are
//! *congruent* when exchanging them in any computation never changes
//! acceptance; merging congruent states shrinks every downstream product.
//!
//! The congruence is computed by one joint partition refinement of the
//! letters `Q` and of the states of every table that reads them (`F` and
//! the horizontal automata; symbols whose horizontal automata share one
//! table share it here too, with one output per symbol):
//!
//! 1. two states of a table stay together only while they agree on their
//!    outputs (acceptance for `F`; for a horizontal table, the current
//!    block of each of its symbols' result states) and step every letter
//!    into one block;
//! 2. two letters stay together only while, from every state of every
//!    table, they step into one block —
//!
//! all refined side by side, round after round, until no block splits;
//! then the automaton is rebuilt over block representatives. This is the
//! unranked analogue of Moore's algorithm, and it reaches the coarsest
//! partition meeting both conditions, so the letter blocks are the same
//! as refining each table to its own fixpoint between letter rounds would
//! give. Exact minimality is not claimed (state merging by congruence is
//! the useful, safe core), but the result is language-equal by
//! construction and verified by the exact equivalence decision in the
//! tests.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use hedgex_automata::{DenseDfa, StateId, WordHasher};
use hedgex_obs as obs;

use crate::dha::{Dha, HorizFn};
use crate::types::HState;

/// Split the items `0..old.len()` by signature: items stay together only
/// if they share their old block and `sig` writes the same words for
/// them. New blocks are numbered by first occurrence.
fn refine(old: &[u32], mut sig: impl FnMut(usize, &mut Vec<u32>)) -> Vec<u32> {
    let mut buf: Vec<u32> = Vec::new();
    let mut ends = Vec::with_capacity(old.len());
    for (i, &b) in old.iter().enumerate() {
        buf.push(b);
        sig(i, &mut buf);
        ends.push(buf.len());
    }
    let mut ids: HashMap<&[u32], u32, BuildHasherDefault<WordHasher>> =
        HashMap::with_capacity_and_hasher(old.len(), Default::default());
    let mut from = 0;
    ends.iter()
        .map(|&end| {
            let key = &buf[from..end];
            from = end;
            let fresh = ids.len() as u32;
            *ids.entry(key).or_insert(fresh)
        })
        .collect()
}

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

    // The tables that read the letters: F first, then every group's
    // horizontal table; their states laid out one after the other.
    let groups: Vec<Vec<&HorizFn>> = dha
        .symbol_groups()
        .into_iter()
        .map(|g| g.iter().map(|&a| dha.horiz(a).expect("declared")).collect())
        .collect();
    let tables: Vec<&DenseDfa> = std::iter::once(dha.finals())
        .chain(groups.iter().map(|g| g[0].dfa()))
        .collect();
    let mut owner: Vec<(usize, StateId)> = Vec::new();
    let mut offsets = Vec::new();
    for (t, d) in tables.iter().enumerate() {
        offsets.push(owner.len() as u32);
        owner.extend((0..d.num_states() as StateId).map(|s| (t, s)));
    }

    // Initial partitions: all letters together; each table's states apart
    // from every other table's.
    let mut letter_block = vec![0u32; n];
    let mut state_block: Vec<u32> = owner.iter().map(|&(t, _)| t as u32).collect();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let next_states = refine(&state_block, |i, sig| {
            let (t, s) = owner[i];
            let (d, off) = (tables[t], offsets[t]);
            match t {
                0 => sig.push(u32::from(d.is_accepting(s))),
                _ => sig.extend(
                    groups[t - 1]
                        .iter()
                        .map(|hf| letter_block[hf.result(s) as usize]),
                ),
            }
            sig.extend((0..n).map(|q| state_block[(off + d.cell(s, q)) as usize]));
        });
        let next_letters = refine(&letter_block, |q, sig| {
            for (d, &off) in tables.iter().zip(&offsets) {
                let states = 0..d.num_states() as StateId;
                sig.extend(states.map(|s| state_block[(off + d.cell(s, q)) as usize]));
            }
        });
        // Blocks only ever split, so equal counts mean equal partitions.
        let count = |v: &[u32]| v.iter().max().map_or(0, |&m| m + 1);
        let stable = count(&next_states) == count(&state_block)
            && count(&next_letters) == count(&letter_block);
        state_block = next_states;
        letter_block = next_letters;
        if stable {
            break;
        }
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
    let states = 0..f.num_states() as StateId;
    let frows = states.clone().map(|s| {
        let letters = rep_of_block.iter().map(|&q| f.cell(s, q as usize));
        letters.chain([f.cell(s, f.letters())]).collect()
    });
    let accept = states.map(|s| f.is_accepting(s)).collect();
    let finals = DenseDfa::from_rows(frows.collect(), f.start(), accept);

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
