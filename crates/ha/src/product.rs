//! Products of deterministic hedge automata.
//!
//! Two uses in the paper:
//!
//! * **Theorem 4** assumes "without loss of generality" that all the hedge
//!   automata `M_{i1}, M_{i2}` compiled from a pointed hedge representation
//!   share the state set, `ι` and `α`, differing only in their final state
//!   sequence sets — "we only have to use the cross product of all state
//!   sets". [`product_many`] is that cross product: it returns the shared
//!   automaton plus every component's `F` *lifted* to the product states.
//! * **Section 8** intersects an input schema with the match-identifying
//!   automata to transform schemas; [`intersect`] is the binary case with
//!   conjunctive acceptance.

use std::collections::{BTreeSet, HashMap};

use hedgex_automata::{in_edges, saturate, CharClass, DenseDfa, ProductOp, StateId, Worklist};
use hedgex_hedge::SymId;
use hedgex_obs as obs;

use crate::dha::{Dha, HorizFn};
use crate::nha::LangId;
use crate::types::{HState, Leaf};

/// The result of an n-ary product.
pub struct ManyProduct {
    /// The shared automaton. Its own `F` is empty; use `lifted_finals` (or
    /// [`Dha::with_finals`]) to install an acceptance condition.
    pub dha: Dha,
    /// Product state → component states.
    pub tuples: Vec<Vec<HState>>,
    /// Per component: its `F` lifted to a table over product state ids.
    pub lifted_finals: Vec<DenseDfa>,
}

/// A per-component view of a horizontal function, defaulting to a constant
/// sink for symbols the component never declared.
enum Horiz<'a> {
    Real(&'a HorizFn),
    Sink(HState),
}

impl Horiz<'_> {
    fn start(&self) -> u32 {
        match self {
            Horiz::Real(h) => h.start(),
            Horiz::Sink(_) => 0,
        }
    }
    fn step(&self, h: u32, q: HState) -> u32 {
        match self {
            Horiz::Real(f) => f.step(h, q),
            Horiz::Sink(_) => h,
        }
    }
    fn result(&self, h: u32) -> HState {
        match self {
            Horiz::Real(f) => f.result(h),
            Horiz::Sink(s) => *s,
        }
    }
    /// Do the two views step by the same rows (whatever their results)?
    fn same_rows(&self, other: &Horiz) -> bool {
        match (self, other) {
            (Horiz::Real(a), Horiz::Real(b)) => a.dfa() == b.dfa(),
            (Horiz::Sink(_), Horiz::Sink(_)) => true,
            _ => false,
        }
    }
}

/// The joint horizontal state after reading product state `tuple`.
fn joint_step(vs: &[Horiz], cur: &[u32], tuple: &[HState]) -> Vec<u32> {
    vs.iter()
        .zip(cur)
        .zip(tuple)
        .map(|((v, &h), &q)| v.step(h, q))
        .collect()
}

/// The product state a joint horizontal state yields.
fn joint_result(vs: &[Horiz], cur: &[u32]) -> Vec<HState> {
    vs.iter().zip(cur).map(|(v, &h)| v.result(h)).collect()
}

/// Build the cross product of several deterministic hedge automata over the
/// reachable product states. The product of none is the one-state
/// automaton that declares nothing.
pub fn product_many(parts: &[&Dha]) -> ManyProduct {
    let _span = obs::span("ha.product");
    let n = parts.len();

    // Interned product tuples. Id 0 is the all-sinks tuple.
    let mut tuples: Worklist<Vec<HState>> = Worklist::new();
    let sink = tuples.intern(parts.iter().map(|p| p.sink()).collect());

    // ι on the union of declared leaves.
    let mut leaves: BTreeSet<Leaf> = BTreeSet::new();
    for p in parts {
        leaves.extend(p.leaves());
    }
    let mut iota: HashMap<Leaf, HState> = HashMap::new();
    for leaf in leaves {
        iota.insert(
            leaf,
            tuples.intern(parts.iter().map(|p| p.iota(leaf)).collect()),
        );
    }

    // The union of declared symbols.
    let mut symbols: BTreeSet<SymId> = BTreeSet::new();
    for p in parts {
        symbols.extend(p.symbols());
    }
    let views: Vec<Vec<Horiz>> = symbols
        .iter()
        .map(|&a| {
            parts
                .iter()
                .map(|p| match p.horiz(a) {
                    Some(h) => Horiz::Real(h),
                    None => Horiz::Sink(p.sink()),
                })
                .collect()
        })
        .collect();

    // Symbols whose factors step by the same rows share one joint machine,
    // as Theorem 1's symbols share one per set of languages; each keeps its
    // own labels.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, vs) in views.iter().enumerate() {
        let same = |g: &&mut Vec<usize>| {
            let rep = &views[g[0]];
            rep.iter().zip(vs).all(|(a, b)| a.same_rows(b))
        };
        match groups.iter_mut().find(same) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }

    // One bottom-up exploration: per group, the joint horizontal states
    // read every reachable product state, and each yields, per symbol, the
    // product state that labels it.
    let mut labels: Vec<Vec<Vec<HState>>> =
        groups.iter().map(|g| vec![Vec::new(); g.len()]).collect();
    let machines = saturate(
        &mut tuples,
        groups
            .iter()
            .map(|g| views[g[0]].iter().map(Horiz::start).collect::<Vec<u32>>()),
        |m, cur, tuples| {
            for (&i, labels) in groups[m].iter().zip(&mut labels[m]) {
                labels.push(tuples.intern(joint_result(&views[i], cur)));
            }
        },
        |m, cur, tuple| joint_step(&views[groups[m][0]], cur, tuple),
    );
    let num_states = tuples.len() as u32;

    let symbols: Vec<SymId> = symbols.into_iter().collect();
    let mut horiz: HashMap<SymId, HorizFn> = HashMap::new();
    for ((group, machine), labels) in groups.iter().zip(machines).zip(labels) {
        let mut rows = machine.rows;
        // Out-of-alphabet product ids cannot occur in well-formed runs;
        // send them to the current state (harmless self-loop).
        for (id, row) in rows.iter_mut().enumerate() {
            row.push(id as StateId);
        }
        for (&i, labels) in group.iter().zip(labels) {
            horiz.insert(symbols[i], HorizFn::from_rows(rows.clone(), 0, labels));
        }
    }
    let tuples = tuples.into_keys();

    // Lift each component's F to the product alphabet.
    let lifted_finals: Vec<DenseDfa> = (0..n)
        .map(|i| lift_component_finals(parts[i].finals(), &tuples, i))
        .collect();

    // The empty language as a total table over product ids.
    let empty_f = DenseDfa::from_rows(vec![vec![0; tuples.len() + 1]], 0, vec![false]);

    obs::counter_inc("ha.product.calls");
    obs::counter_add("ha.product.components", n as u64);
    obs::counter_add("ha.product.machines", groups.len() as u64);
    obs::counter_add("ha.product.states", u64::from(num_states));
    obs::histogram_record("ha.product.states", u64::from(num_states));

    ManyProduct {
        dha: Dha::from_parts(num_states, sink, iota, horiz, empty_f),
        tuples,
        lifted_finals,
    }
}

/// Relabel a component's `F` (a table over component states) into a table
/// over product ids: product id `t` behaves like its `i`-th projection.
fn lift_component_finals(f: &DenseDfa, tuples: &[Vec<HState>], i: usize) -> DenseDfa {
    let states = 0..f.num_states() as StateId;
    let rows = states.clone().map(|s| {
        let letters = tuples.iter().map(|tuple| f.cell(s, tuple[i] as usize));
        // Fresh symbols behave like the component's co-finite edge.
        letters.chain([f.cell(s, f.letters())]).collect()
    });
    let accept = states.map(|s| f.is_accepting(s)).collect();
    DenseDfa::from_rows(rows.collect(), f.start(), accept)
}

/// The result of a binary intersection.
pub struct DhaProduct {
    /// The intersection automaton (accepts `L(a) ∩ L(b)`).
    pub dha: Dha,
    /// Product state → (left state, right state).
    pub pairs: Vec<(HState, HState)>,
}

/// Intersection of two deterministic hedge automata.
pub fn intersect(a: &Dha, b: &Dha) -> DhaProduct {
    let prod = product_many(&[a, b]);
    let finals = prod.lifted_finals[0].product(&prod.lifted_finals[1], ProductOp::And);
    let pairs = prod.tuples.iter().map(|t| (t[0], t[1])).collect();
    DhaProduct {
        dha: prod.dha.with_finals(finals),
        pairs,
    }
}

/// The result of a non-deterministic × deterministic product.
pub struct NhaProduct {
    /// The product automaton: accepts `L(n) ∩ L(d)`.
    pub nha: crate::nha::Nha,
    /// Product state → (NHA state, DHA state).
    pub pairs: Vec<(HState, HState)>,
}

/// Product of a non-deterministic and a deterministic hedge automaton.
///
/// Schema transformation (Section 8) intersects the match-identifying
/// automaton `M↑e₂` — irreducibly non-deterministic, its unique-success
/// property is the point — with the (deterministic) input schema and `M↓e₁`.
/// The result stays an NHA whose states project onto both factors.
pub fn product_nha_dha(n: &crate::nha::Nha, d: &Dha) -> NhaProduct {
    use crate::nha::Nha;
    let mut pairs: Worklist<(HState, HState)> = Worklist::new();

    // ι: leaves present in the NHA pair with the DHA's (total) ι.
    let mut iota: HashMap<Leaf, Vec<HState>> = HashMap::new();
    for (leaf, qns) in n.iotas() {
        let qd = d.iota(leaf);
        let states: Vec<HState> = qns.iter().map(|&qn| pairs.intern((qn, qd))).collect();
        iota.insert(leaf, states);
    }

    // One machine per rule: (rule-DFA state, D horizontal state) pairs
    // reading every reachable product pair; an accepting one yields the
    // pair of the rule's result and D's result there.
    let machines: Vec<_> = n
        .symbols()
        .flat_map(|a| {
            let hf = d.horiz(a);
            n.rules(a)
                .iter()
                .map(move |&(l, qn)| (a, n.lang(l), hf, qn))
        })
        .collect();
    let mut yielded: Vec<Vec<Option<HState>>> = vec![Vec::new(); machines.len()];
    let joints = saturate(
        &mut pairs,
        machines
            .iter()
            .map(|&(_, dfa, hf, _)| (dfa.start(), hf.map_or(0, |h| h.start()))),
        |m, &(ds, hs), pairs| {
            let (_, dfa, hf, qn) = machines[m];
            yielded[m].push(dfa.is_accepting(ds).then(|| {
                let qd = hf.map_or(d.sink(), |h| h.result(hs));
                pairs.intern((qn, qd))
            }));
        },
        |m, &(ds, hs), &(pn, pd)| {
            let (_, dfa, hf, _) = machines[m];
            (dfa.cell(ds, pn as usize), hf.map_or(hs, |h| h.step(hs, pd)))
        },
    );
    let num_states = pairs.len().max(1) as u32;

    // One product rule per distinct pair a rule's joint DFA yields, over
    // the joint DFA with the states that yield it accepting.
    let mut langs: Vec<DenseDfa> = Vec::new();
    let mut rules: HashMap<SymId, Vec<(LangId, HState)>> = HashMap::new();
    for ((&(a, ..), joint), yielded) in machines.iter().zip(joints).zip(yielded) {
        let mut rows = joint.rows;
        // A letter past the product pairs stays put.
        for (id, row) in rows.iter_mut().enumerate() {
            row.push(id as StateId);
        }
        let results: BTreeSet<HState> = yielded.iter().flatten().copied().collect();
        for pid in results {
            let accept = yielded.iter().map(|&y| y == Some(pid)).collect();
            langs.push(DenseDfa::from_rows(rows.clone(), 0, accept));
            let jl = (langs.len() - 1) as LangId;
            rules.entry(a).or_default().push((jl, pid));
        }
    }
    let pairs = pairs.into_keys();

    // F: pair words whose N-projection is accepted by F_N and whose
    // D-projection is accepted by F_D.
    let fnfa = n.finals();
    let fd = d.finals();
    let fd_n = fd.num_states() as StateId;
    let fn_n = fnfa.num_states() as StateId;
    let fid = |sn: StateId, sd: StateId| sn * fd_n + sd;
    let total = (fn_n * fd_n) as usize;
    let mut trans: Vec<Vec<(CharClass<HState>, StateId)>> = vec![Vec::new(); total];
    let mut eps: Vec<Vec<StateId>> = vec![Vec::new(); total];
    let mut accept = vec![false; total];
    for sn in 0..fn_n {
        for sd in 0..fd_n {
            let st = fid(sn, sd) as usize;
            accept[st] = fnfa.is_accepting(sn) && fd.is_accepting(sd);
            for &t in fnfa.eps_transitions(sn) {
                eps[st].push(fid(t, sd));
            }
            for (c, tn) in fnfa.transitions(sn) {
                let letters = pairs
                    .iter()
                    .enumerate()
                    .filter(|(_, (pn, _))| c.contains(pn));
                trans[st].extend(in_edges(
                    letters.map(|(i, &(_, pd))| (i as HState, fid(*tn, fd.cell(sd, pd as usize)))),
                ));
            }
        }
    }
    let finals = hedgex_automata::Nfa::from_raw(trans, eps, fid(fnfa.start(), fd.start()), accept);

    NhaProduct {
        nha: Nha::from_parts(num_states, iota, langs, rules, finals),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dha::DhaBuilder;
    use crate::enumerate::enumerate_hedges;
    use hedgex_automata::Regex;
    use hedgex_hedge::Alphabet;

    /// All hedges over {a, b} whose top level is `a*` and whose `a` nodes
    /// contain only `b` leaves.
    fn schema_ab(ab: &mut Alphabet) -> Dha {
        let a = ab.sym("a");
        let b = ab.sym("b");
        // 0 = q_a, 1 = q_b, 2 = sink.
        let mut d = DhaBuilder::new(3, 2);
        d.rule(b, Regex::Epsilon, 1)
            .rule(a, Regex::sym(1).star(), 0)
            .finals(Regex::sym(0).star());
        d.build()
    }

    /// All hedges whose total node count at the top level is even… simpler:
    /// top level has an even number of trees, any content (over {a, b}).
    fn even_top(ab: &mut Alphabet) -> Dha {
        let a = ab.sym("a");
        let b = ab.sym("b");
        // 0 = any, 1 = sink (unused; everything is state 0).
        let mut d = DhaBuilder::new(2, 1);
        d.rule(a, Regex::sym(0).star(), 0)
            .rule(b, Regex::sym(0).star(), 0)
            .finals(Regex::word(&[0, 0]).star());
        d.build()
    }

    #[test]
    fn intersection_agrees_with_conjunction() {
        let mut ab = Alphabet::new();
        let m1 = schema_ab(&mut ab);
        let m2 = even_top(&mut ab);
        let prod = intersect(&m1, &m2);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 5) {
            let expect = m1.accepts(&h) && m2.accepts(&h);
            assert_eq!(
                prod.dha.accepts(&h),
                expect,
                "hedge with {} nodes",
                h.size()
            );
        }
    }

    #[test]
    fn pairs_project_correctly() {
        let mut ab = Alphabet::new();
        let m1 = schema_ab(&mut ab);
        let m2 = even_top(&mut ab);
        let prod = intersect(&m1, &m2);
        let h = hedgex_hedge::parse_hedge("a<b b> a", &mut ab).unwrap();
        let f = hedgex_hedge::FlatHedge::from_hedge(&h);
        let states = prod.dha.run(&f);
        let s1 = m1.run(&f);
        let s2 = m2.run(&f);
        for n in 0..f.num_nodes() {
            let (p1, p2) = prod.pairs[states[n] as usize];
            assert_eq!(p1, s1[n]);
            assert_eq!(p2, s2[n]);
        }
    }

    #[test]
    fn lifted_finals_track_components() {
        let mut ab = Alphabet::new();
        let m1 = schema_ab(&mut ab);
        let m2 = even_top(&mut ab);
        let prod = product_many(&[&m1, &m2]);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 4) {
            let f = hedgex_hedge::FlatHedge::from_hedge(&h);
            let ceil = prod.dha.run_ceil(&f);
            assert_eq!(prod.lifted_finals[0].accepts(&ceil), m1.accepts(&h));
            assert_eq!(prod.lifted_finals[1].accepts(&ceil), m2.accepts(&h));
        }
    }

    #[test]
    fn nha_dha_product_agrees_with_conjunction() {
        use crate::nha::NhaBuilder;
        let mut ab = Alphabet::new();
        let d = schema_ab(&mut ab);
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        // NHA: top level is exactly one tree, labelled a or b, any content
        // shape made of a/b.
        let mut nb = NhaBuilder::new(2);
        nb.rule(a, Regex::sym(0).star(), 0)
            .rule(b, Regex::sym(0).star(), 0)
            .rule(a, Regex::sym(0).star(), 1)
            .rule(b, Regex::sym(0).star(), 1)
            .finals(Regex::sym(1));
        let n = nb.build();
        let prod = product_nha_dha(&n, &d);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 5) {
            let expect = n.accepts(&h) && d.accepts(&h);
            assert_eq!(prod.nha.accepts(&h), expect, "on {h:?}");
        }
    }

    #[test]
    fn nha_dha_product_pairs_project() {
        use crate::nha::NhaBuilder;
        let mut ab = Alphabet::new();
        let d = schema_ab(&mut ab);
        let a = ab.get_sym("a").unwrap();
        let mut nb = NhaBuilder::new(1);
        nb.rule(a, Regex::Epsilon, 0).finals(Regex::sym(0).star());
        let n = nb.build();
        let prod = product_nha_dha(&n, &d);
        for &(pn, pd) in &prod.pairs {
            assert!(pn < n.num_states());
            assert!(pd < d.num_states());
        }
    }

    #[test]
    fn nha_useful_and_inhabited() {
        use crate::analysis::{nha_inhabited, nha_useful};
        use crate::nha::NhaBuilder;
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        // 0 inhabited+useful; 1 inhabited but dead (F never uses it);
        // 2 uninhabited.
        let mut nb = NhaBuilder::new(3);
        nb.rule(a, Regex::Epsilon, 0)
            .rule(a, Regex::Epsilon, 1)
            .rule(a, Regex::sym(2), 2)
            .finals(Regex::sym(0).star());
        let n = nb.build();
        assert_eq!(nha_inhabited(&n), vec![true, true, false]);
        assert_eq!(nha_useful(&n), vec![true, false, false]);
    }

    #[test]
    fn product_of_none_is_one_state() {
        let prod = product_many(&[]);
        assert_eq!(prod.dha.num_states(), 1);
        assert_eq!(prod.dha.symbols().count(), 0);
        assert!(prod.lifted_finals.is_empty());
    }

    #[test]
    fn product_of_one_is_identity_on_language() {
        let mut ab = Alphabet::new();
        let m1 = schema_ab(&mut ab);
        let prod = product_many(&[&m1]);
        let one = prod.dha.with_finals(prod.lifted_finals[0].clone());
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 4) {
            assert_eq!(one.accepts(&h), m1.accepts(&h));
        }
    }
}
