//! Theorem 1: the subset construction for hedge automata.
//!
//! States of the determinized automaton are *sets* of NHA states. A subset
//! is reachable when some hedge's set-valued computation produces it at a
//! node. For each symbol, the *lifted* horizontal automaton reads the
//! reachable subsets as its alphabet: reading subset `S` means "some child
//! state drawn from `S`". Both come out of one bottom-up exploration
//! ([`saturate`]): the lifted automata step by the subsets found so far,
//! each new lifted state yields the subsets its rules accept there, and
//! every (lifted state, subset) pair is stepped once, so the steps are the
//! horizontal functions' rows.
//!
//! The lifted horizontal automaton for a symbol is the disjoint union of all
//! rule DFAs simulated as an NFA (a set of rule-DFA states), because a word
//! of subsets can satisfy several rules at once — exactly the `{q_p1, q_p2}`
//! effect in the paper's M₁ example. It is indexed by the distinct
//! languages the rules name ([`Nha::lang`]), so symbols whose rules name
//! the same languages share one lifted exploration; only the result labels
//! differ per symbol. The worst case is exponential in the
//! number of NHA states, as Theorem 1 admits; the determinization benchmark
//! (experiment E2) measures both the blow-up family and the tame typical
//! case.
//!
//! The state alphabet `0..|Q|` is closed here, so everything is dense: the
//! rule languages are [`DenseDfa`] tables, a subset is a bit set over `Q`,
//! a lifted state is one bit set over the disjoint union of its group's
//! DFA states, a lifted step reads one table cell per (DFA state, subset
//! member), and the lifted `F` is filled as a table over subset ids.

use std::collections::{BTreeMap, HashMap};

use hedgex_automata::{saturate, DenseDfa, StateId, Worklist};
use hedgex_hedge::SymId;
use hedgex_obs as obs;

use crate::dha::{Dha, HorizFn};
use crate::nha::{bits, LangId, Nha, StateSet};
use crate::types::{HState, Leaf};

/// The result of determinizing: the DHA plus, for every DHA state, the NHA
/// subset it denotes (index = DHA state id).
pub struct Determinized {
    /// The deterministic automaton.
    pub dha: Dha,
    /// DHA state → NHA state set, as a bit set over the NHA's states.
    pub subsets: Vec<StateSet>,
}

/// The combined rule automaton of every symbol whose rules name one set
/// of languages: those languages' DFAs side by side, their states laid
/// out one after the other. The lifted states are the same for all of
/// these symbols; each symbol labels them with its own rules' results.
struct Combined<'a> {
    /// The distinct languages, as rule DFAs.
    langs: Vec<&'a DenseDfa>,
    /// Per position of a lifted state: its language and that DFA's state.
    pos: Vec<(usize, StateId)>,
    /// Where each language's positions start.
    offsets: Vec<u32>,
    /// Per symbol: its rules as (index into `langs`, result).
    syms: Vec<(SymId, Vec<(usize, HState)>)>,
}

/// A lifted horizontal state: one bit per state of every language's DFA,
/// set for the states the NFA-simulation may currently be in.
type Lifted = StateSet;

impl Combined<'_> {
    /// Group `nha`'s symbols by the languages their rules name.
    fn group(nha: &Nha) -> Vec<Combined<'_>> {
        let mut groups: BTreeMap<Vec<LangId>, Vec<SymId>> = BTreeMap::new();
        for a in nha.symbols() {
            let mut key: Vec<LangId> = nha.rules(a).iter().map(|&(l, _)| l).collect();
            key.sort();
            key.dedup();
            groups.entry(key).or_default().push(a);
        }
        groups
            .into_iter()
            .map(|(key, syms)| {
                let langs: Vec<&DenseDfa> = key.iter().map(|&l| nha.lang(l)).collect();
                let (mut pos, mut offsets) = (Vec::new(), Vec::new());
                for (i, d) in langs.iter().enumerate() {
                    offsets.push(pos.len() as u32);
                    pos.extend((0..d.num_states() as StateId).map(|s| (i, s)));
                }
                let at = |l| key.binary_search(&l).expect("grouped by language");
                let syms = syms
                    .into_iter()
                    .map(|a| (a, nha.rules(a).iter().map(|&(l, q)| (at(l), q)).collect()))
                    .collect();
                Combined {
                    langs,
                    pos,
                    offsets,
                    syms,
                }
            })
            .collect()
    }

    fn initial(&self) -> Lifted {
        let mut cur = bits::empty(self.pos.len() as u32);
        for (d, &off) in self.langs.iter().zip(&self.offsets) {
            bits::insert(&mut cur, off + d.start());
        }
        cur
    }

    /// Step the lifted state by a subset of NHA states: every DFA state
    /// in it by every member, one table read each.
    fn step(&self, cur: &Lifted, subset: &StateSet) -> Lifted {
        let mut next = bits::empty(self.pos.len() as u32);
        for p in bits::iter(cur) {
            let (i, s) = self.pos[p as usize];
            let row = self.langs[i].row(s);
            for q in bits::iter(subset) {
                bits::insert(&mut next, self.offsets[i] + row[q as usize]);
            }
        }
        next
    }

    /// The result subset of one symbol's rules at a lifted state: which of
    /// them can accept here.
    fn results(&self, rules: &[(usize, HState)], cur: &Lifted, n: u32) -> StateSet {
        let mut out = bits::empty(n);
        for &(l, q) in rules {
            let accepting = |p: u32| {
                let (i, s) = self.pos[p as usize];
                i == l && self.langs[i].is_accepting(s)
            };
            if bits::iter(cur).any(accepting) {
                bits::insert(&mut out, q);
            }
        }
        out
    }
}

/// Convert a non-deterministic hedge automaton into a deterministic one
/// accepting the same language (Theorem 1).
pub fn determinize(nha: &Nha) -> Determinized {
    let _span = obs::span("ha.determinize");
    let n = nha.num_states();
    let nha_states = u64::from(n);
    // Interned subsets. Id 0 is the empty subset (the sink).
    let mut subsets: Worklist<StateSet> = Worklist::new();
    subsets.intern(bits::empty(n));

    // Leaf subsets.
    let mut iota: HashMap<Leaf, HState> = HashMap::new();
    for (leaf, qs) in nha.iotas() {
        let mut set = bits::empty(n);
        for &q in qs {
            bits::insert(&mut set, q);
        }
        iota.insert(leaf, subsets.intern(set));
    }

    // One bottom-up exploration: each group's lifted states read every
    // reachable subset, and each lifted state yields, per symbol, the
    // subset of results its rules accept there, which labels it.
    let combined = Combined::group(nha);
    let mut labels: Vec<Vec<Vec<HState>>> = combined
        .iter()
        .map(|comb| vec![Vec::new(); comb.syms.len()])
        .collect();
    let machines = saturate(
        &mut subsets,
        combined.iter().map(Combined::initial),
        |m, cur, subsets| {
            let comb = &combined[m];
            for ((_, rules), labels) in comb.syms.iter().zip(&mut labels[m]) {
                labels.push(subsets.intern(comb.results(rules, cur, n)));
            }
        },
        |m, cur, subset| combined[m].step(cur, subset),
    );
    let num_states = subsets.len() as u32;

    // Each symbol's horizontal function: its group's rows, its own labels.
    let mut horiz: HashMap<SymId, HorizFn> = HashMap::new();
    let mut max_lifted = 0u64;
    for ((comb, machine), labels) in combined.iter().zip(machines).zip(labels) {
        max_lifted = max_lifted.max(machine.states.len() as u64);
        let mut rows = machine.rows;
        // Out-of-alphabet symbols dead-end into the empty lifted state,
        // where the empty subset (id 0) leads.
        for row in &mut rows {
            row.push(row[0]);
        }
        for ((a, _), labels) in comb.syms.iter().zip(labels) {
            horiz.insert(*a, HorizFn::from_rows(rows.clone(), 0, labels));
        }
    }

    // Lift F: the determinized automaton accepts iff some word drawn from
    // the per-root subsets is accepted by the NHA's F.
    let finals = lift_finals(nha, subsets.keys());

    obs::counter_inc("ha.determinize.calls");
    obs::counter_add("ha.determinize.nha_states", nha_states);
    obs::counter_add("ha.determinize.dha_states", u64::from(num_states));
    obs::histogram_record("ha.determinize.frontier", max_lifted);
    obs::histogram_record("ha.determinize.subsets", u64::from(num_states));
    obs::event("ha.determinize", || {
        format!(
            "nha_states={nha_states} dha_states={num_states} \
             max_lifted={max_lifted} blowup={:.2}",
            f64::from(num_states) / nha_states.max(1) as f64
        )
    });

    Determinized {
        dha: Dha::from_parts(num_states, 0, iota, horiz, finals),
        subsets: subsets.into_keys(),
    }
}

/// Lift the NHA's `F` (an NFA over Q) to a table over subset ids: a word
/// of subsets is accepted iff some choice of representatives is accepted
/// by F. Its states are ε-closed sets of F's states, and any other letter
/// takes the co-finite column to the empty set.
fn lift_finals(nha: &Nha, subsets: &[StateSet]) -> DenseDfa {
    let f = nha.finals().closed_moves(nha.num_states() as usize);
    let mut sets = Worklist::new();
    let start = sets.intern(f.start().to_vec());
    let (mut cells, mut moved) = (Vec::new(), Vec::new());
    let rows = sets.explore(|sets, _, cur: &StateSet| {
        let dead = sets.intern(vec![0; cur.len()]);
        // `cur`'s successors on each letter, then each subset's union.
        f.row_into(cur, &mut cells);
        let mut row: Vec<StateId> = subsets
            .iter()
            .map(|subset| {
                moved.clear();
                moved.resize(cur.len(), 0);
                for q in bits::iter(subset) {
                    bits::union_into(&mut moved, f.cell(&cells, q));
                }
                sets.get(&moved)
                    .unwrap_or_else(|| sets.intern(moved.clone()))
            })
            .collect();
        row.push(dead);
        row
    });
    let accept = sets.keys().iter().map(|set| f.accepts(set)).collect();
    DenseDfa::from_rows(rows, start, accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_hedges;
    use crate::nha::NhaBuilder;
    use hedgex_automata::Regex;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// The paper's M₁ (see `nha.rs`).
    fn m1(ab: &mut Alphabet) -> Nha {
        let d = ab.sym("d");
        let p = ab.sym("p");
        let x = ab.var("x");
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
    fn determinized_m1_agrees_on_paper_hedges() {
        let mut ab = Alphabet::new();
        let nha = m1(&mut ab);
        let det = determinize(&nha);
        for (src, expect) in [
            ("d<p<$x> p<$y>>", false),
            ("d<p<$x $x> p<$x $x>>", true),
            ("d<p<$x $x>>", true),
            ("d<p<$x> p<$x>>", false),
            ("d<p<$x> p<$x $x>>", true),
            ("", true),
        ] {
            let h = parse_hedge(src, &mut ab).unwrap();
            assert_eq!(nha.accepts(&h), expect, "NHA on {src}");
            assert_eq!(det.dha.accepts(&h), expect, "DHA on {src}");
        }
    }

    #[test]
    fn determinized_agrees_on_all_small_hedges() {
        let mut ab = Alphabet::new();
        let nha = m1(&mut ab);
        let det = determinize(&nha);
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let mut count = 0;
        for h in enumerate_hedges(&syms, &vars, 5) {
            assert_eq!(
                nha.accepts(&h),
                det.dha.accepts(&h),
                "disagreement on hedge of size {}",
                h.size()
            );
            count += 1;
        }
        assert!(count > 100, "enumerated only {count} hedges");
    }

    #[test]
    fn subsets_reflect_set_semantics() {
        // The p⟨x x⟩ node should determinize into the subset {q_p1, q_p2}.
        let mut ab = Alphabet::new();
        let nha = m1(&mut ab);
        let det = determinize(&nha);
        let h = parse_hedge("d<p<$x $x>>", &mut ab).unwrap();
        let f = hedgex_hedge::FlatHedge::from_hedge(&h);
        let states = det.dha.run(&f);
        let p_state = states[1] as usize;
        let members: Vec<HState> = bits::iter(&det.subsets[p_state]).collect();
        assert_eq!(members, [1, 2]);
    }

    #[test]
    fn empty_subset_is_sink() {
        let mut ab = Alphabet::new();
        let nha = m1(&mut ab);
        let det = determinize(&nha);
        assert_eq!(det.dha.sink(), 0);
        assert!(bits::is_empty(&det.subsets[0]));
        // A hedge with an unmapped variable lands in the sink.
        let h = parse_hedge("d<p<$y>>", &mut ab).unwrap();
        let f = hedgex_hedge::FlatHedge::from_hedge(&h);
        let states = det.dha.run(&f);
        assert!(bits::is_empty(&det.subsets[states[2] as usize]));
    }

    #[test]
    fn deterministic_input_stays_small() {
        // Determinizing an already-deterministic automaton should produce
        // roughly one subset per original state (plus the sink), not 2^Q.
        let mut ab = Alphabet::new();
        let d = ab.sym("d");
        let p = ab.sym("p");
        let x = ab.var("x");
        let mut b = NhaBuilder::new(3);
        b.leaf(Leaf::Var(x), 2)
            .rule(p, Regex::word(&[2]), 1)
            .rule(d, Regex::sym(1).star(), 0)
            .finals(Regex::sym(0).star());
        let det = determinize(&b.build());
        assert!(
            det.dha.num_states() <= 4,
            "got {} states",
            det.dha.num_states()
        );
    }
}
