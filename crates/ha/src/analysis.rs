//! Reachability analyses on deterministic hedge automata.
//!
//! * **Inhabited** states: states some hedge can actually reach bottom-up.
//!   Everything else is dead weight introduced by constructions.
//! * **Witnesses**: a concrete hedge per inhabited state (and per accepted
//!   language) — the counterexample generator behind emptiness checks and
//!   schema-transformation tests.
//! * **Useful** states: inhabited states that moreover occur in at least one
//!   *accepting* computation. Section 8 needs exactly this: output schemas
//!   keep "only those marked states from which final state sequences can be
//!   reached".

use std::collections::VecDeque;

use hedgex_automata::{coreach, reach, saturate, CharClass, StateId, Worklist};
use hedgex_hedge::{Hedge, Tree};

use crate::dha::Dha;
use crate::types::{HState, Leaf};

/// Which states are inhabited (reachable bottom-up by some hedge)?
pub fn inhabited(dha: &Dha) -> Vec<bool> {
    let mut found: Worklist<HState> = Worklist::new();
    for leaf in dha.leaves() {
        found.intern(dha.iota(leaf));
    }
    let horiz: Vec<_> = dha.symbols().filter_map(|a| dha.horiz(a)).collect();
    saturate(
        &mut found,
        horiz.iter().map(|hf| hf.start()),
        |m, &h, found| {
            found.intern(horiz[m].result(h));
        },
        |m, &h, &q| horiz[m].step(h, q),
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
        |s, q| f.step(s, &q),
    )
}

/// A witness hedge per state: `witnesses(d)[q]` is a hedge whose single
/// top-level tree evaluates to `q` (None for uninhabited states).
///
/// Substitution-symbol leaves may appear bare when `ι` maps them; runs are
/// still well-defined on such hedges.
pub fn witnesses(dha: &Dha) -> Vec<Option<Hedge>> {
    let n = dha.num_states() as usize;
    let mut wit: Vec<Option<Hedge>> = vec![None; n];
    for leaf in dha.leaves() {
        let q = dha.iota(leaf) as usize;
        if wit[q].is_none() {
            let tree = match leaf {
                Leaf::Var(x) => Tree::Var(x),
                Leaf::Sub(z) => Tree::Subst(z),
            };
            wit[q] = Some(Hedge::tree(tree));
        }
    }
    let symbols: Vec<_> = dha.symbols().collect();
    loop {
        let mut changed = false;
        for &a in &symbols {
            let hf = dha.horiz(a).expect("declared");
            // BFS over horizontal states carrying the witness word so far.
            let mut best: Vec<Option<Vec<HState>>> = vec![None; hf.num_classes()];
            let mut queue = VecDeque::from([hf.start()]);
            best[hf.start() as usize] = Some(Vec::new());
            while let Some(h) = queue.pop_front() {
                let word = best[h as usize].clone().expect("enqueued with a word");
                let r = hf.result(h) as usize;
                if wit[r].is_none() {
                    let mut content = Hedge::empty();
                    for &q in &word {
                        content = content.concat(
                            wit[q as usize]
                                .clone()
                                .expect("witness words only use witnessed states"),
                        );
                    }
                    wit[r] = Some(Hedge::node(a, content));
                    changed = true;
                }
                for q in 0..dha.num_states() {
                    if wit[q as usize].is_some() {
                        let h2 = hf.step(h, q);
                        if best[h2 as usize].is_none() {
                            let mut w2 = word.clone();
                            w2.push(q);
                            best[h2 as usize] = Some(w2);
                            queue.push_back(h2);
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    wit
}

/// A hedge accepted by the automaton, if any.
pub fn accepted_witness(dha: &Dha) -> Option<Hedge> {
    let wit = witnesses(dha);
    let f = dha.finals();
    // BFS over F's DFA states, stepping only by witnessed automaton states.
    let mut prev: Vec<Option<(u32, Option<HState>)>> = vec![None; f.num_states()];
    let mut queue = VecDeque::from([f.start()]);
    prev[f.start() as usize] = Some((f.start(), None));
    while let Some(s) = queue.pop_front() {
        if f.is_accepting(s) {
            // Reconstruct the state word, then concatenate witnesses.
            let mut word = Vec::new();
            let mut cur = s;
            loop {
                let (p, q) = prev[cur as usize].expect("visited");
                match q {
                    Some(q) => word.push(q),
                    None => break,
                }
                cur = p;
            }
            word.reverse();
            let mut h = Hedge::empty();
            for q in word {
                h = h.concat(wit[q as usize].clone().expect("witnessed"));
            }
            return Some(h);
        }
        for q in 0..dha.num_states() {
            if wit[q as usize].is_none() {
                continue;
            }
            let t = f.step(s, &q);
            if prev[t as usize].is_none() {
                prev[t as usize] = Some((s, Some(q)));
                queue.push_back(t);
            }
        }
    }
    None
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
pub fn nha_inhabited(nha: &crate::nha::Nha) -> Vec<bool> {
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
        |m, &s, q| rules[m].0.step(s, q),
    );
    mark(nha.num_states() as usize, found.keys())
}

/// Which NHA states occur in at least one *accepting* computation?
///
/// The Section 8 restriction for output schemas: marked states only count
/// "from which final state sequences can be reached".
pub fn nha_useful(nha: &crate::nha::Nha) -> Vec<bool> {
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
                    |s, q| dfa.step(s, &q),
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
    use hedgex_automata::Regex;
    use hedgex_hedge::{Alphabet, VarId};

    /// 0 = q_d, 1 = q_p1, 2 = q_p2, 3 = q_x, 4 = q_y, 5 = sink, 6 = orphan.
    fn m0_with_orphan(ab: &mut Alphabet) -> Dha {
        let d = ab.sym("d");
        let p = ab.sym("p");
        let x = ab.var("x");
        let y = ab.var("y");
        let mut b = DhaBuilder::new(7, 5);
        b.leaf(crate::types::Leaf::Var(x), 3)
            .leaf(crate::types::Leaf::Var(y), 4)
            .rule(d, Regex::sym(1).concat(Regex::sym(2).star()), 0)
            .rule(p, Regex::word(&[3]), 1)
            .rule(p, Regex::word(&[4]), 2)
            .finals(Regex::sym(0).star());
        b.build()
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
        let m = m0_with_orphan(&mut ab);
        let wit = witnesses(&m);
        for q in 0..m.num_states() {
            match &wit[q as usize] {
                None => assert_eq!(q, 6, "only the orphan lacks a witness"),
                Some(h) => {
                    assert_eq!(h.len(), 1, "witness is a single tree");
                    assert_eq!(m.state_of_tree(&h.0[0]), q);
                }
            }
        }
    }

    #[test]
    fn accepted_witness_is_accepted() {
        let mut ab = Alphabet::new();
        let m = m0_with_orphan(&mut ab);
        let w = accepted_witness(&m).expect("language is non-empty");
        assert!(m.accepts(&w));
        assert!(!is_empty(&m));
    }

    #[test]
    fn empty_language_detected() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut b = DhaBuilder::new(2, 1);
        // F requires state 0, but nothing produces state 0.
        b.rule(a, Regex::sym(0), 1).finals(Regex::sym(0));
        let m = b.build();
        assert!(is_empty(&m));
        assert!(accepted_witness(&m).is_none());
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
        b.leaf(crate::types::Leaf::Var(x), 1)
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
        let mut b = DhaBuilder::new(2, 1);
        b.rule(a, Regex::Epsilon, 0).finals(Regex::sym(0).star());
        let m = b.build();
        let w = accepted_witness(&m).unwrap();
        assert!(m.accepts(&w));
        assert_eq!(w, Hedge::empty());
    }

    #[test]
    fn var_leaf_conversion() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let x = ab.var("x");
        assert_eq!(VarId(0), x);
        let mut b = DhaBuilder::new(3, 2);
        b.leaf(crate::types::Leaf::Var(x), 0)
            .rule(a, Regex::sym(0), 1)
            .finals(Regex::sym(1));
        let m = b.build();
        let wit = witnesses(&m);
        assert_eq!(wit[0], Some(Hedge::var(x)));
        assert!(m.accepts(&wit[1].clone().unwrap()));
    }
}
