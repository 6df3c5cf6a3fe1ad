//! Reachability analyses on deterministic and non-deterministic hedge
//! automata.
//!
//! * **Inhabited** states: states some hedge can actually reach bottom-up.
//!   Everything else is dead weight introduced by constructions.
//! * **Witnesses**: a concrete hedge per inhabited state (and per accepted
//!   language) — the counterexample generator behind emptiness checks and
//!   schema-transformation tests. One pass on `saturate` finds them for
//!   either kind of automaton, so emptiness of an NHA is decided without
//!   determinizing it.
//! * **Useful** states: inhabited states that moreover occur in at least one
//!   *accepting* computation. Section 8 needs exactly this: output schemas
//!   keep "only those marked states from which final state sequences can be
//!   reached".

use std::cell::Cell;
use std::collections::VecDeque;

use hedgex_automata::{coreach, reach, saturate, CharClass, DenseDfa, StateId, Worklist};
use hedgex_hedge::{Hedge, SymId, Tree};

use crate::dha::Dha;
use crate::nha::Nha;
use crate::types::{HState, Leaf};

/// Which states are inhabited (reachable bottom-up by some hedge)?
pub fn inhabited(dha: &Dha) -> Vec<bool> {
    let mut found: Worklist<HState> = Worklist::new();
    for leaf in dha.leaves() {
        found.intern(dha.iota(leaf));
    }
    // Symbols that share a table share one machine; each labels its
    // states with its own results.
    let groups: Vec<Vec<_>> = dha
        .symbol_groups()
        .into_iter()
        .map(|g| g.iter().map(|&a| dha.horiz(a).expect("declared")).collect())
        .collect();
    saturate(
        &mut found,
        groups.iter().map(|g| g[0].start()),
        |m, &h, found| {
            for hf in &groups[m] {
                found.intern(hf.result(h));
            }
        },
        |m, &h, &q| groups[m][0].step(h, q),
    );
    mark(dha.num_states() as usize, found.keys())
}

/// The states `0..n` with those in `on` set.
fn mark(n: usize, on: &[HState]) -> Vec<bool> {
    let mut marked = vec![false; n];
    for &q in on {
        marked[q as usize] = true;
    }
    marked
}

/// The letters `q` with `on[q]`.
fn letters(on: &[bool]) -> impl Iterator<Item = HState> + '_ {
    (0..on.len() as HState).filter(|&q| on[q as usize])
}

/// The letters among `on` that occur in some word over `on` taking a total
/// automaton on states `0..m` from `start` to a state in `goal`: those on
/// an edge from a reachable state to a co-reachable one.
fn live_letters(
    m: usize,
    start: StateId,
    goal: impl Fn(StateId) -> bool,
    on: &[bool],
    step: impl Fn(StateId, HState) -> StateId,
) -> Vec<bool> {
    let step = &step;
    let succ = |s: StateId| letters(on).map(move |q| step(s, q));
    let fwd = reach(m, [start], succ);
    let back = coreach(m, (0..m as StateId).filter(|&s| goal(s)), succ);
    let mut live = vec![false; on.len()];
    for s in (0..m as StateId).filter(|&s| fwd[s as usize]) {
        for q in letters(on) {
            if back[step(s, q) as usize] {
                live[q as usize] = true;
            }
        }
    }
    live
}

/// The top level of [`useful`]: the states that occur in some word over
/// inhabited states (`inh`) that `F` accepts.
pub(crate) fn top_level_useful(dha: &Dha, inh: &[bool]) -> Vec<bool> {
    let f = dha.finals();
    live_letters(
        f.num_states(),
        f.start(),
        |s| f.is_accepting(s),
        inh,
        |s, q| f.step(s, q),
    )
}

/// A witness tree per state, found by one bottom-up exploration: `wit[q]`
/// is a single tree that can evaluate to `q` (None for uninhabited
/// states). The vertical states are the automaton's states, leaves' first;
/// machine `m` steps `tables[m]`, and `nodes(m, h)` lists the `(symbol,
/// state)` nodes a word taking it to `h` can head. A new horizontal state's
/// word is the word of the state that first reached it plus the letter of
/// that step, and a state's witness is the first node that yields it.
fn witness_trees(
    n: usize,
    leaves: impl IntoIterator<Item = (Leaf, HState)>,
    tables: &[&DenseDfa],
    nodes: impl Fn(usize, StateId) -> Vec<(SymId, HState)>,
) -> Vec<Option<Hedge>> {
    let mut wit: Vec<Option<Hedge>> = vec![None; n];
    let mut found: Worklist<HState> = Worklist::new();
    for (leaf, q) in leaves {
        if wit[q as usize].is_none() {
            wit[q as usize] = Some(Hedge::tree(match leaf {
                Leaf::Var(x) => Tree::Var(x),
                Leaf::Sub(z) => Tree::Subst(z),
            }));
            found.intern(q);
        }
    }
    // Per machine and state: the state and letter that first reached it.
    // Starts are yielded before any step, with the empty word.
    let mut back: Vec<Vec<Option<(StateId, HState)>>> =
        tables.iter().map(|t| vec![None; t.num_states()]).collect();
    let last = Cell::new(None);
    saturate(
        &mut found,
        tables.iter().map(|t| t.start()),
        |m, &h, found| {
            back[m][h as usize] = last.get();
            for (a, q) in nodes(m, h) {
                if wit[q as usize].is_none() {
                    let mut content = Hedge::empty();
                    let mut at = h;
                    while let Some((prev, l)) = back[m][at as usize] {
                        let tree = wit[l as usize].clone().expect("letters are witnessed");
                        content = tree.concat(content);
                        at = prev;
                    }
                    wit[q as usize] = Some(Hedge::node(a, content));
                    found.intern(q);
                }
            }
        },
        |m, &h, &q| {
            last.set(Some((h, q)));
            tables[m].step(h, q)
        },
    );
    wit
}

/// A witness tree per DHA state: one machine per group of symbols sharing
/// a horizontal table.
fn witnesses(dha: &Dha) -> Vec<Option<Hedge>> {
    let groups = dha.symbol_groups();
    let horiz = |a| dha.horiz(a).expect("declared");
    let tables: Vec<&DenseDfa> = groups.iter().map(|g| horiz(g[0]).dfa()).collect();
    let leaves = dha.leaves().map(|leaf| (leaf, dha.iota(leaf)));
    witness_trees(dha.num_states() as usize, leaves, &tables, |m, h| {
        groups[m].iter().map(|&a| (a, horiz(a).result(h))).collect()
    })
}

/// A witness tree per NHA state: one machine per rule, whose accepting
/// states head a node with the rule's symbol and result.
fn nha_witnesses(nha: &Nha) -> Vec<Option<Hedge>> {
    let leaves = nha
        .iotas()
        .flat_map(|(leaf, qs)| qs.iter().map(move |&q| (leaf, q)));
    let rules: Vec<(SymId, &DenseDfa, HState)> = nha
        .symbols()
        .flat_map(|a| nha.rules(a).iter().map(move |&(l, q)| (a, nha.lang(l), q)))
        .collect();
    let tables: Vec<&DenseDfa> = rules.iter().map(|&(_, t, _)| t).collect();
    witness_trees(nha.num_states() as usize, leaves, &tables, |m, s| {
        let (a, table, q) = rules[m];
        table
            .is_accepting(s)
            .then_some((a, q))
            .into_iter()
            .collect()
    })
}

/// The shortest word over witnessed states that `f` accepts (letters tried
/// in state order), spelled with the states' witnesses.
fn shortest_accepted(f: &DenseDfa, wit: &[Option<Hedge>]) -> Option<Hedge> {
    let mut prev: Vec<Option<(StateId, Option<HState>)>> = vec![None; f.num_states()];
    let mut queue = VecDeque::from([f.start()]);
    prev[f.start() as usize] = Some((f.start(), None));
    while let Some(s) = queue.pop_front() {
        if f.is_accepting(s) {
            let mut h = Hedge::empty();
            let mut cur = s;
            while let Some((p, Some(q))) = prev[cur as usize] {
                h = wit[q as usize].clone().expect("witnessed").concat(h);
                cur = p;
            }
            return Some(h);
        }
        for q in (0..wit.len()).filter(|&q| wit[q].is_some()) {
            let t = f.step(s, q as HState);
            if prev[t as usize].is_none() {
                prev[t as usize] = Some((s, Some(q as HState)));
                queue.push_back(t);
            }
        }
    }
    None
}

/// A hedge accepted by the automaton, if any.
pub fn accepted_witness(dha: &Dha) -> Option<Hedge> {
    shortest_accepted(dha.finals(), &witnesses(dha))
}

/// A hedge accepted by the non-deterministic automaton, if any, found
/// without determinizing it: the same search, over `F` as a table.
pub fn nha_accepted_witness(nha: &Nha) -> Option<Hedge> {
    let f = nha.finals().to_dense(nha.num_states() as usize);
    shortest_accepted(&f, &nha_witnesses(nha))
}

/// Is the accepted hedge language empty?
pub fn is_empty(dha: &Dha) -> bool {
    accepted_witness(dha).is_none()
}

/// Which states occur in at least one accepting computation?
///
/// `useful[q]` implies `inhabited[q]`; additionally some accepted hedge's
/// computation assigns `q` to some node.
pub fn useful(dha: &Dha) -> Vec<bool> {
    let inh = inhabited(dha);
    // Top level: q is useful if F accepts some word ...q... with every
    // letter inhabited.
    let mut useful = top_level_useful(dha, &inh);

    // Downward closure: if α(a, …)'s result is useful, every letter of a
    // word reaching an accepting-for-that-result horizontal state is useful.
    let symbols: Vec<_> = dha.symbols().collect();
    loop {
        let mut changed = false;
        for &a in &symbols {
            let hf = dha.horiz(a).expect("declared");
            let live = live_letters(
                hf.num_classes(),
                hf.start(),
                |h| useful[hf.result(h) as usize],
                &inh,
                |h, q| hf.step(h, q),
            );
            changed |= absorb(&mut useful, &live);
        }
        if !changed {
            break;
        }
    }
    useful
}

/// `into |= from`, elementwise; did `into` grow?
fn absorb(into: &mut [bool], from: &[bool]) -> bool {
    let mut grew = false;
    for (u, &l) in into.iter_mut().zip(from) {
        if l && !*u {
            *u = true;
            grew = true;
        }
    }
    grew
}

/// Which NHA states are inhabited (producible at some node by some
/// computation)?
pub fn nha_inhabited(nha: &Nha) -> Vec<bool> {
    let mut found: Worklist<HState> = Worklist::new();
    for (_, qs) in nha.iotas() {
        for &q in qs {
            found.intern(q);
        }
    }
    // One machine per rule; an accepting state yields the rule's result.
    let rules: Vec<_> = nha
        .symbols()
        .flat_map(|a| nha.rules(a))
        .map(|&(l, q)| (nha.lang(l), q))
        .collect();
    saturate(
        &mut found,
        rules.iter().map(|(dfa, _)| dfa.start()),
        |m, &s, found| {
            let (dfa, q) = rules[m];
            if dfa.is_accepting(s) {
                found.intern(q);
            }
        },
        |m, &s, &q| rules[m].0.step(s, q),
    );
    mark(nha.num_states() as usize, found.keys())
}

/// Which NHA states occur in at least one *accepting* computation?
///
/// The Section 8 restriction for output schemas: marked states only count
/// "from which final state sequences can be reached".
pub fn nha_useful(nha: &Nha) -> Vec<bool> {
    let n = nha.num_states() as usize;
    let inh = nha_inhabited(nha);
    let mut useful = vec![false; n];

    // Top level: letters on fwd→back edges of F's NFA (inhabited only),
    // with ε-moves as edges in both searches.
    let f = nha.finals();
    let fires = |c: &CharClass<HState>| letters(&inh).any(|q| c.contains(&q));
    let succ = |s: StateId| {
        let labelled = f.transitions(s).iter().filter(|(c, _)| fires(c));
        labelled
            .map(|(_, t)| *t)
            .chain(f.eps_transitions(s).iter().copied())
    };
    let m = f.num_states();
    let fwd = reach(m, f.eps_closure(&[f.start()]), succ);
    let back = coreach(m, (0..m as StateId).filter(|&s| f.is_accepting(s)), succ);
    for s in (0..m as StateId).filter(|&s| fwd[s as usize]) {
        for (c, t) in f.transitions(s) {
            if back[*t as usize] {
                for q in letters(&inh).filter(|q| c.contains(q)) {
                    useful[q as usize] = true;
                }
            }
        }
    }

    // Downward closure through the rules.
    let symbols: Vec<_> = nha.symbols().collect();
    loop {
        let mut changed = false;
        for &a in &symbols {
            for &(l, r) in nha.rules(a) {
                if !useful[r as usize] {
                    continue;
                }
                let dfa = nha.lang(l);
                let live = live_letters(
                    dfa.num_states(),
                    dfa.start(),
                    |s| dfa.is_accepting(s),
                    &inh,
                    |s, q| dfa.step(s, q),
                );
                changed |= absorb(&mut useful, &live);
            }
        }
        if !changed {
            break;
        }
    }
    useful
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dha::DhaBuilder;
    use crate::nha::NhaBuilder;
    use hedgex_automata::{bits, Regex};
    use hedgex_hedge::{Alphabet, FlatHedge, VarId};

    /// One automaton the witness tests run on: a DHA, or an NHA with the
    /// same leaves, rules and `F` (and no sink).
    enum Auto {
        D(Dha),
        N(Nha),
    }

    impl Auto {
        fn witnesses(&self) -> Vec<Option<Hedge>> {
            match self {
                Auto::D(d) => witnesses(d),
                Auto::N(n) => nha_witnesses(n),
            }
        }
        fn inhabited(&self) -> Vec<bool> {
            match self {
                Auto::D(d) => inhabited(d),
                Auto::N(n) => nha_inhabited(n),
            }
        }
        fn accepted_witness(&self) -> Option<Hedge> {
            match self {
                Auto::D(d) => accepted_witness(d),
                Auto::N(n) => nha_accepted_witness(n),
            }
        }
        fn is_empty(&self) -> bool {
            self.accepted_witness().is_none()
        }
        fn accepts(&self, h: &Hedge) -> bool {
            match self {
                Auto::D(d) => d.accepts(h),
                Auto::N(n) => n.accepts(h),
            }
        }
        /// Can the single tree `h` evaluate to `q`?
        fn reaches(&self, h: &Hedge, q: HState) -> bool {
            match self {
                Auto::D(d) => d.state_of_tree(&h.0[0]) == q,
                Auto::N(n) => {
                    let flat = FlatHedge::from_hedge(h);
                    bits::contains(&n.run_sets(&flat)[flat.roots()[0] as usize], q)
                }
            }
        }
    }

    type Rule = (SymId, Regex<HState>, HState);

    /// The DHA (states `0..n`, sink `sink`) and the NHA (states `0..n`)
    /// with these leaves, rules and `F`.
    fn both(
        n: u32,
        sink: HState,
        leaves: &[(Leaf, HState)],
        rules: &[Rule],
        f: Regex<HState>,
    ) -> [Auto; 2] {
        let mut d = DhaBuilder::new(n, sink);
        let mut nb = NhaBuilder::new(n);
        for &(leaf, q) in leaves {
            d.leaf(leaf, q);
            nb.leaf(leaf, q);
        }
        for (a, re, q) in rules {
            d.rule(*a, re.clone(), *q);
            nb.rule(*a, re.clone(), *q);
        }
        d.finals(f.clone());
        nb.finals(f);
        [Auto::D(d.build()), Auto::N(nb.build())]
    }

    /// 0 = q_d, 1 = q_p1, 2 = q_p2, 3 = q_x, 4 = q_y, 5 = sink, 6 = orphan.
    fn m0_spec(ab: &mut Alphabet) -> (Vec<(Leaf, HState)>, Vec<Rule>, Regex<HState>) {
        let d = ab.sym("d");
        let p = ab.sym("p");
        let x = ab.var("x");
        let y = ab.var("y");
        let leaves = vec![(Leaf::Var(x), 3), (Leaf::Var(y), 4)];
        let rules = vec![
            (d, Regex::sym(1).concat(Regex::sym(2).star()), 0),
            (p, Regex::word(&[3]), 1),
            (p, Regex::word(&[4]), 2),
        ];
        (leaves, rules, Regex::sym(0).star())
    }

    fn m0_with_orphan(ab: &mut Alphabet) -> Dha {
        let (leaves, rules, f) = m0_spec(ab);
        let [Auto::D(d), _] = both(7, 5, &leaves, &rules, f) else {
            unreachable!()
        };
        d
    }

    /// The DHA and the NHA of [`m0_with_orphan`].
    fn m0_both(ab: &mut Alphabet) -> [Auto; 2] {
        let (leaves, rules, f) = m0_spec(ab);
        both(7, 5, &leaves, &rules, f)
    }

    #[test]
    fn inhabited_finds_all_reachable_states() {
        let mut ab = Alphabet::new();
        let m = m0_with_orphan(&mut ab);
        let inh = inhabited(&m);
        // q_d, q_p1, q_p2, q_x, q_y, sink are inhabited; the orphan is not.
        assert_eq!(inh, vec![true, true, true, true, true, true, false]);
    }

    #[test]
    fn witnesses_evaluate_to_their_state() {
        let mut ab = Alphabet::new();
        for m in m0_both(&mut ab) {
            let wit = m.witnesses();
            let inh = m.inhabited();
            assert!(wit[6].is_none(), "the orphan has no witness");
            for q in 0..7 {
                match &wit[q as usize] {
                    // Only uninhabited states lack a witness (the orphan;
                    // in the NHA, the sink too: no rule yields it).
                    None => assert!(!inh[q as usize], "state {q} is inhabited"),
                    Some(h) => {
                        assert_eq!(h.len(), 1, "witness is a single tree");
                        assert!(m.reaches(h, q), "witness of {q}: {h:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn accepted_witness_is_accepted() {
        let mut ab = Alphabet::new();
        for m in m0_both(&mut ab) {
            let w = m.accepted_witness().expect("language is non-empty");
            assert!(m.accepts(&w));
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn empty_language_detected() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        // F requires state 0, but nothing produces state 0.
        for m in both(2, 1, &[], &[(a, Regex::sym(0), 1)], Regex::sym(0)) {
            assert!(m.is_empty());
            assert!(m.accepted_witness().is_none());
        }
    }

    #[test]
    fn useful_excludes_states_outside_accepting_runs() {
        let mut ab = Alphabet::new();
        let m = m0_with_orphan(&mut ab);
        let u = useful(&m);
        // q_d, q_p1, q_p2, q_x, q_y all occur in accepting runs.
        assert!(u[0] && u[1] && u[2] && u[3] && u[4]);
        // The sink never occurs in an accepting computation: any node
        // assigned the sink poisons its ancestors to the sink, and F = q_d*.
        assert!(!u[5]);
        assert!(!u[6]);
    }

    #[test]
    fn useful_respects_final_restrictions() {
        // F = q_a only (exactly one a-tree, containing one x leaf).
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let x = ab.var("x");
        let mut b = DhaBuilder::new(3, 2);
        b.leaf(Leaf::Var(x), 1)
            .rule(a, Regex::sym(1), 0)
            .finals(Regex::sym(0));
        let m = b.build();
        let u = useful(&m);
        assert!(u[0]); // q_a at top
        assert!(u[1]); // q_x below a
        assert!(!u[2]); // sink never in an accepting run
    }

    #[test]
    fn witness_of_empty_top_level() {
        // F contains ε: the accepted witness may be the empty hedge.
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let f = Regex::sym(0).star();
        for m in both(2, 1, &[], &[(a, Regex::Epsilon, 0)], f) {
            let w = m.accepted_witness().unwrap();
            assert!(m.accepts(&w));
            assert_eq!(w, Hedge::empty());
        }
    }

    #[test]
    fn var_leaf_conversion() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let x = ab.var("x");
        assert_eq!(VarId(0), x);
        let leaves = [(Leaf::Var(x), 0)];
        for m in both(3, 2, &leaves, &[(a, Regex::sym(0), 1)], Regex::sym(1)) {
            let wit = m.witnesses();
            assert_eq!(wit[0], Some(Hedge::var(x)));
            assert!(m.accepts(&wit[1].clone().unwrap()));
        }
    }
}
