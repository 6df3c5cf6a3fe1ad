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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hedgex_automata::{row, saturate, Dfa, StateId, Worklist};
use hedgex_hedge::SymId;
use hedgex_obs as obs;

use crate::dha::{Dha, HorizFn};
use crate::nha::{LangId, Nha};
use crate::types::{HState, Leaf};

/// The result of determinizing: the DHA plus, for every DHA state, the NHA
/// subset it denotes (index = DHA state id).
pub struct Determinized {
    /// The deterministic automaton.
    pub dha: Dha,
    /// DHA state → NHA state set.
    pub subsets: Vec<BTreeSet<HState>>,
}

/// The combined rule automaton of every symbol whose rules name one set
/// of languages: those languages' DFAs side by side. The lifted states are
/// the same for all of these symbols; each symbol labels them with its own
/// rules' results.
struct Combined<'a> {
    /// The distinct languages, as rule DFAs.
    langs: Vec<&'a Dfa<HState>>,
    /// Per symbol: its rules as (index into `langs`, result).
    syms: Vec<(SymId, Vec<(usize, HState)>)>,
}

/// A lifted horizontal state: for each language, the set of its DFA states
/// the NFA-simulation may currently be in.
type Lifted = Vec<BTreeSet<StateId>>;

impl Combined<'_> {
    /// Group `nha`'s symbols by the languages their rules name.
    fn group(nha: &Nha) -> Vec<Combined<'_>> {
        let mut symbols: Vec<SymId> = nha.symbols().collect();
        symbols.sort();
        let mut groups: BTreeMap<Vec<LangId>, Vec<SymId>> = BTreeMap::new();
        for a in symbols {
            let mut key: Vec<LangId> = nha.rules(a).iter().map(|&(l, _)| l).collect();
            key.sort();
            key.dedup();
            groups.entry(key).or_default().push(a);
        }
        groups
            .into_iter()
            .map(|(key, syms)| Combined {
                langs: key.iter().map(|&l| nha.lang(l)).collect(),
                syms: syms
                    .into_iter()
                    .map(|a| {
                        let rules = nha.rules(a).iter();
                        let at = |l| key.binary_search(&l).expect("grouped by language");
                        (a, rules.map(|&(l, q)| (at(l), q)).collect())
                    })
                    .collect(),
            })
            .collect()
    }

    fn initial(&self) -> Lifted {
        self.langs
            .iter()
            .map(|d| std::iter::once(d.start()).collect())
            .collect()
    }

    /// Step the lifted state by a subset of NHA states.
    fn step(&self, cur: &Lifted, subset: &BTreeSet<HState>) -> Lifted {
        self.langs
            .iter()
            .zip(cur)
            .map(|(d, states)| {
                let mut next = BTreeSet::new();
                for &s in states {
                    for q in subset {
                        next.insert(d.step(s, q));
                    }
                }
                next
            })
            .collect()
    }

    /// The result subset of one symbol's rules at a lifted state: which of
    /// them can accept here.
    fn results(&self, rules: &[(usize, HState)], cur: &Lifted) -> BTreeSet<HState> {
        rules
            .iter()
            .filter(|&&(l, _)| cur[l].iter().any(|&s| self.langs[l].is_accepting(s)))
            .map(|&(_, q)| q)
            .collect()
    }
}

/// Convert a non-deterministic hedge automaton into a deterministic one
/// accepting the same language (Theorem 1).
pub fn determinize(nha: &Nha) -> Determinized {
    let _span = obs::span("ha.determinize");
    let nha_states = nha.num_states() as u64;
    // Interned subsets. Id 0 is the empty subset (the sink).
    let mut subsets: Worklist<BTreeSet<HState>> = Worklist::new();
    subsets.intern(BTreeSet::new());

    // Leaf subsets.
    let mut iota: HashMap<Leaf, HState> = HashMap::new();
    for (leaf, qs) in nha.iotas() {
        iota.insert(leaf, subsets.intern(qs.iter().copied().collect()));
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
                labels.push(subsets.intern(comb.results(rules, cur)));
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

/// Lift the NHA's `F` (an NFA over Q) to a DFA over subset ids: a word of
/// subsets is accepted iff some choice of representatives is accepted by F.
fn lift_finals(nha: &Nha, subsets: &[BTreeSet<HState>]) -> Dfa<HState> {
    let f = nha.finals();
    let mut sets = Worklist::new();
    let start = sets.intern(f.eps_closure(&[f.start()]));
    let trans = sets.explore(|sets, _, cur: &Vec<StateId>| {
        let dead = sets.intern(Vec::new());
        let letters = subsets.iter().enumerate().map(|(i, subset)| {
            let mut moved: BTreeSet<StateId> = BTreeSet::new();
            for &s in cur {
                for (c, t) in f.transitions(s) {
                    if subset.iter().any(|q| c.contains(q)) {
                        moved.insert(*t);
                    }
                }
            }
            let closed = f.eps_closure(&moved.into_iter().collect::<Vec<_>>());
            (i as HState, sets.intern(closed))
        });
        row(letters, dead)
    });
    let accept: Vec<bool> = sets
        .keys()
        .iter()
        .map(|set| set.iter().any(|&s| f.is_accepting(s)))
        .collect();
    Dfa::from_parts(trans, start, accept)
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
        let expected: BTreeSet<HState> = [1, 2].into_iter().collect();
        assert_eq!(det.subsets[p_state], expected);
    }

    #[test]
    fn empty_subset_is_sink() {
        let mut ab = Alphabet::new();
        let nha = m1(&mut ab);
        let det = determinize(&nha);
        assert_eq!(det.dha.sink(), 0);
        assert!(det.subsets[0].is_empty());
        // A hedge with an unmapped variable lands in the sink.
        let h = parse_hedge("d<p<$y>>", &mut ab).unwrap();
        let f = hedgex_hedge::FlatHedge::from_hedge(&h);
        let states = det.dha.run(&f);
        assert_eq!(det.subsets[states[2] as usize], BTreeSet::new());
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
