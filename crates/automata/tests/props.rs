//! Property tests for the string-automata substrate: random regexes and
//! words over a small alphabet, checking every construction against direct
//! NFA membership. Runs on `hedgex-testkit`'s shrinking `forall`; a failure
//! prints a `HEDGEX_SEED` that replays it.

use std::collections::BTreeSet;

use hedgex_automata::{
    coreach, dfa_to_regex, reach, row, saturate, CharClass, DenseDfa, Dfa, Nfa, Regex, StateId,
    Worklist,
};
use hedgex_testkit::prop::{shrink_u64, shrink_vec};
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, zip2, zip3, Config, Gen, Rng};

/// Random regexes over the alphabet {0, 1, 2}, including co-finite classes.
fn gen_regex(rng: &mut Rng, depth: usize) -> Regex<u8> {
    if depth == 0 || rng.random_bool(0.4) {
        return match rng.random_range(0..5u32) {
            0 => Regex::Epsilon,
            1 => Regex::Empty,
            2 => Regex::sym(rng.random_range(0..3u8)),
            3 => Regex::class(CharClass::all_except([rng.random_range(0..3u8)])),
            _ => Regex::any_sym(),
        };
    }
    match rng.random_range(0..3u32) {
        0 => gen_regex(rng, depth - 1).concat(gen_regex(rng, depth - 1)),
        1 => gen_regex(rng, depth - 1).alt(gen_regex(rng, depth - 1)),
        _ => gen_regex(rng, depth - 1).star(),
    }
}

/// Shrink a regex toward subexpressions and the trivial languages.
fn shrink_regex(re: &Regex<u8>) -> Vec<Regex<u8>> {
    match re {
        Regex::Empty => vec![],
        Regex::Epsilon => vec![Regex::Empty],
        Regex::Sym(_) => vec![Regex::Empty, Regex::Epsilon],
        Regex::Concat(a, b) | Regex::Alt(a, b) => {
            let mut out = vec![(**a).clone(), (**b).clone()];
            for a2 in shrink_regex(a) {
                out.push(match re {
                    Regex::Concat(_, _) => a2.concat((**b).clone()),
                    _ => a2.alt((**b).clone()),
                });
            }
            for b2 in shrink_regex(b) {
                out.push(match re {
                    Regex::Concat(_, _) => (**a).clone().concat(b2),
                    _ => (**a).clone().alt(b2),
                });
            }
            out
        }
        Regex::Star(a) => {
            let mut out = vec![(**a).clone(), Regex::Epsilon];
            out.extend(shrink_regex(a).into_iter().map(Regex::star));
            out
        }
    }
}

fn arb_regex() -> Gen<Regex<u8>> {
    Gen::new(|rng| gen_regex(rng, 4)).with_shrink(shrink_regex)
}

/// Words over {0, 1, 2, 3} — 3 lies outside every mentioned symbol, so
/// co-finite classes get exercised.
fn arb_word() -> Gen<Vec<u8>> {
    Gen::new(|rng| {
        let len = rng.random_range(0..8usize);
        (0..len)
            .map(|_| rng.random_range(0..4u8))
            .collect::<Vec<u8>>()
    })
    .with_shrink(|w: &Vec<u8>| {
        shrink_vec(w, |&b| {
            shrink_u64(b as u64).into_iter().map(|x| x as u8).collect()
        })
    })
}

const CASES: u32 = 256;

/// NFA and subset-constructed DFA agree on membership.
#[test]
fn dfa_equals_nfa() {
    forall(
        "dfa_equals_nfa",
        Config::with_cases(CASES),
        &zip2(arb_regex(), arb_word()),
        |(re, w)| {
            let nfa = Nfa::from_regex(re);
            let dfa = nfa.to_dfa();
            prop_assert_eq!(nfa.accepts(w), dfa.accepts(w));
            Ok(())
        },
    );
}

/// Minimization preserves the language and never grows the automaton.
#[test]
fn minimize_preserves() {
    forall(
        "minimize_preserves",
        Config::with_cases(CASES),
        &zip2(arb_regex(), arb_word()),
        |(re, w)| {
            let dfa = Nfa::from_regex(re).to_dfa();
            let min = dfa.minimize();
            prop_assert!(min.num_states() <= dfa.num_states());
            prop_assert_eq!(dfa.accepts(w), min.accepts(w));
            Ok(())
        },
    );
}

/// State elimination round-trips the language.
#[test]
fn regex_roundtrip() {
    forall(
        "regex_roundtrip",
        Config::with_cases(CASES),
        &zip2(arb_regex(), arb_word()),
        |(re, w)| {
            let dfa = Nfa::from_regex(re).to_dfa();
            let re2 = dfa_to_regex(&dfa);
            let dfa2 = Nfa::from_regex(&re2).to_dfa();
            prop_assert_eq!(dfa.accepts(w), dfa2.accepts(w));
            Ok(())
        },
    );
}

/// Products implement the pointwise boolean semantics; complement flips.
#[test]
fn boolean_ops_pointwise() {
    forall(
        "boolean_ops_pointwise",
        Config::with_cases(CASES),
        &zip3(arb_regex(), arb_regex(), arb_word()),
        |(ra, rb, w)| {
            let a = Nfa::from_regex(ra).to_dfa();
            let b = Nfa::from_regex(rb).to_dfa();
            let (x, y) = (a.accepts(w), b.accepts(w));
            prop_assert_eq!(a.intersect(&b).accepts(w), x && y);
            prop_assert_eq!(a.union(&b).accepts(w), x || y);
            prop_assert_eq!(a.difference(&b).accepts(w), x && !y);
            prop_assert_eq!(a.complement().accepts(w), !x);
            Ok(())
        },
    );
}

/// Reversal accepts exactly the mirror images.
#[test]
fn reverse_is_mirror() {
    forall(
        "reverse_is_mirror",
        Config::with_cases(CASES),
        &zip2(arb_regex(), arb_word()),
        |(re, w)| {
            let nfa = Nfa::from_regex(re);
            let rev = nfa.reverse();
            let mut m = w.clone();
            m.reverse();
            prop_assert_eq!(nfa.accepts(w), rev.accepts(&m));
            Ok(())
        },
    );
}

/// Equivalence agrees with minimized-DFA state counts on equal languages,
/// and `equivalent` is reflexive.
#[test]
fn equivalence_reflexive() {
    forall(
        "equivalence_reflexive",
        Config::with_cases(CASES),
        &arb_regex(),
        |re| {
            let a = Nfa::from_regex(re).to_dfa();
            prop_assert!(a.equivalent(&a.minimize()));
            // L ∪ L = L, L ∩ L = L.
            prop_assert!(a.union(&a).equivalent(&a));
            prop_assert!(a.intersect(&a).equivalent(&a));
            Ok(())
        },
    );
}

/// `remove_word` removes exactly one word.
#[test]
fn remove_word_spec() {
    forall(
        "remove_word_spec",
        Config::with_cases(CASES),
        &zip3(arb_regex(), arb_word(), arb_word()),
        |(re, target, w)| {
            let nfa = Nfa::from_regex(re);
            let removed = nfa.remove_word(target);
            if w == target {
                prop_assert!(!removed.accepts(w));
            } else {
                prop_assert_eq!(removed.accepts(w), nfa.accepts(w));
            }
            Ok(())
        },
    );
}

/// The regex `reverse()` agrees with NFA reversal.
#[test]
fn regex_reverse_agrees() {
    forall(
        "regex_reverse_agrees",
        Config::with_cases(CASES),
        &zip2(arb_regex(), arb_word()),
        |(re, w)| {
            let r = re.reverse();
            let fwd = Nfa::from_regex(re);
            let bwd = Nfa::from_regex(&r);
            let mut m = w.clone();
            m.reverse();
            prop_assert_eq!(fwd.accepts(w), bwd.accepts(&m));
            Ok(())
        },
    );
}

/// Emptiness is exact.
#[test]
fn emptiness_consistent() {
    forall(
        "emptiness_consistent",
        Config::with_cases(CASES),
        &arb_regex(),
        |re| {
            let nfa = Nfa::from_regex(re);
            let dfa = nfa.to_dfa();
            let empty = dfa.is_empty_lang();
            prop_assert_eq!(nfa.is_empty_lang(), empty);
            match dfa.shortest_word() {
                Some(w) => {
                    prop_assert!(!empty);
                    prop_assert!(dfa.accepts(&w));
                }
                // `shortest_word` cannot synthesize a witness whose every
                // path needs a co-finite step; emptiness must still be
                // sound.
                None => {
                    if !empty {
                        // Then every accepting path crosses a co-finite
                        // edge. Verify via a fresh-symbol probe up to
                        // length 6.
                        let mut found = false;
                        let syms: Vec<u8> = vec![0, 1, 2, 99];
                        let mut stack: Vec<Vec<u8>> = vec![vec![]];
                        while let Some(w) = stack.pop() {
                            if dfa.accepts(&w) {
                                found = true;
                                break;
                            }
                            if w.len() < 6 {
                                for &s in &syms {
                                    let mut w2 = w.clone();
                                    w2.push(s);
                                    stack.push(w2);
                                }
                            }
                        }
                        prop_assert!(found, "non-empty but no witness within bound");
                    }
                }
            }
            Ok(())
        },
    );
}

/// A random dense DFA: `rows[q]` holds the successors of `q` on the
/// letters `0..letters`, then its co-finite successor.
#[derive(Debug, Clone)]
struct Rows {
    letters: usize,
    rows: Vec<Vec<StateId>>,
    start: StateId,
    accept: Vec<bool>,
}

impl Rows {
    /// The symbolic DFA `row` builds from the same rows, started at `start`.
    fn symbolic(&self, start: StateId) -> Dfa<u32> {
        let trans = self
            .rows
            .iter()
            .map(|r| {
                let (rest, letters) = r.split_last().unwrap();
                row((0..).zip(letters.iter().copied()), *rest)
            })
            .collect();
        Dfa::from_parts(trans, start, self.accept.clone())
    }
}

fn arb_rows() -> Gen<Rows> {
    Gen::new(|rng| {
        let n = rng.random_range(1..8u32);
        let letters = rng.random_range(0..4usize);
        let rows = (0..n)
            .map(|_| (0..=letters).map(|_| rng.random_range(0..n)).collect())
            .collect();
        Rows {
            letters,
            rows,
            start: rng.random_range(0..n),
            accept: (0..n).map(|_| rng.random_bool(0.3)).collect(),
        }
    })
}

/// Words over the letters `0..8`: past the last column of every
/// [`arb_rows`] table, so the co-finite column gets exercised.
fn arb_letters() -> Gen<Vec<u32>> {
    Gen::new(|rng| {
        let len = rng.random_range(0..8usize);
        (0..len).map(|_| rng.random_range(0..8u32)).collect()
    })
    .with_shrink(|w: &Vec<u32>| {
        shrink_vec(w, |&b| {
            shrink_u64(b as u64).into_iter().map(|x| x as u32).collect()
        })
    })
}

/// A `DenseDfa` built from rows agrees with the symbolic DFA `row` builds
/// from the same rows on every word, letters past the last column
/// included; its live states are those with a non-empty language, and
/// tabulating the symbolic DFA gives the rows back.
#[test]
fn dense_agrees() {
    forall(
        "dense_agrees",
        Config::with_cases(CASES),
        &zip2(arb_rows(), arb_letters()),
        |(r, w)| {
            let dense = DenseDfa::from_rows(r.rows.clone(), r.start, r.accept.clone());
            let dfa = r.symbolic(r.start);
            prop_assert_eq!(dense.letters(), r.letters);
            prop_assert_eq!(
                dense.accepts(w.iter().copied()),
                dfa.accepts(w),
                "word {w:?}"
            );
            let alphabet: Vec<u32> = (0..r.letters as u32).collect();
            let compiled = DenseDfa::compile(&dfa, &alphabet);
            for q in 0..r.rows.len() as StateId {
                prop_assert_eq!(compiled.row(q), &r.rows[q as usize][..], "row {q}");
                let nonempty = !r.symbolic(q).is_empty_lang();
                prop_assert_eq!(dense.is_live(q), nonempty, "live {q}");
            }
            Ok(())
        },
    );
}

/// A random directed graph on `0..n` with a seed set.
#[derive(Debug, Clone)]
struct Graph {
    succ: Vec<Vec<StateId>>,
    seeds: Vec<StateId>,
}

fn arb_graph() -> Gen<Graph> {
    Gen::new(|rng| {
        let n = rng.random_range(1..12u32);
        let succ = (0..n)
            .map(|_| {
                let out = rng.random_range(0..4usize);
                (0..out).map(|_| rng.random_range(0..n)).collect()
            })
            .collect();
        let seeds = (0..rng.random_range(0..3usize))
            .map(|_| rng.random_range(0..n))
            .collect();
        Graph { succ, seeds }
    })
}

/// `closure[s][t]`: is `t` reachable from `s` in zero or more steps?
fn transitive_closure(g: &Graph) -> Vec<Vec<bool>> {
    let n = g.succ.len();
    let mut closure = vec![vec![false; n]; n];
    for (s, out) in g.succ.iter().enumerate() {
        closure[s][s] = true;
        for &t in out {
            closure[s][t as usize] = true;
        }
    }
    for k in 0..n {
        for s in 0..n {
            for t in 0..n {
                closure[s][t] |= closure[s][k] && closure[k][t];
            }
        }
    }
    closure
}

/// `reach` and `coreach` agree with a brute-force transitive closure.
#[test]
fn reach_and_coreach_match_transitive_closure() {
    forall(
        "reach_and_coreach_match_transitive_closure",
        Config::with_cases(CASES),
        &arb_graph(),
        |g| {
            let n = g.succ.len();
            let closure = transitive_closure(g);
            let seeds = g.seeds.iter().copied();
            let succ = |q: StateId| g.succ[q as usize].iter().copied();
            let fwd = reach(n, seeds.clone(), succ);
            let back = coreach(n, seeds, succ);
            for q in 0..n {
                let from_seed = g.seeds.iter().any(|&s| closure[s as usize][q]);
                let to_seed = g.seeds.iter().any(|&s| closure[q][s as usize]);
                prop_assert_eq!(fwd[q], from_seed, "reach at {q}");
                prop_assert_eq!(back[q], to_seed, "coreach at {q}");
            }
            Ok(())
        },
    );
}

/// `Worklist` ids are dense, in order of first interning, stable under
/// re-interning, and `explore` expands each id exactly once.
#[test]
fn worklist_ids_are_dense_and_stable() {
    let keys = Gen::new(|rng| {
        let len = rng.random_range(0..20usize);
        (0..len)
            .map(|_| rng.random_range(0..8u8))
            .collect::<Vec<u8>>()
    })
    .with_shrink(|v: &Vec<u8>| shrink_vec(v, |_| Vec::new()));
    forall(
        "worklist_ids_are_dense_and_stable",
        Config::with_cases(CASES),
        &keys,
        |keys| {
            let mut wl: Worklist<u8> = Worklist::new();
            let mut first: Vec<u8> = Vec::new();
            for &k in keys {
                if !first.contains(&k) {
                    first.push(k);
                }
                let id = wl.intern(k);
                prop_assert_eq!(first[id as usize], k, "id {id} of key {k}");
            }
            prop_assert_eq!(wl.keys(), &first[..]);
            for (id, &k) in first.iter().enumerate() {
                prop_assert_eq!(wl.intern(k), id as StateId);
                prop_assert_eq!(wl.get(&k), Some(id as StateId));
            }
            // Each key k leads to k + 1 (mod 8): exploring closes the cycle.
            let mut visits = vec![0u32; 8];
            let rows = wl.explore(|wl, id, &k| {
                visits[id as usize] += 1;
                wl.intern((k + 1) % 8)
            });
            let n = if keys.is_empty() { 0 } else { 8 };
            prop_assert_eq!(wl.len(), n);
            prop_assert_eq!(rows.len(), n);
            prop_assert!(visits[..n].iter().all(|&v| v == 1), "visits {visits:?}");
            for (id, &next) in rows.iter().enumerate() {
                prop_assert_eq!(wl.keys()[next as usize], (wl.keys()[id] + 1) % 8);
            }
            Ok(())
        },
    );
}

/// Random horizontal machines over vertical keys `0..6`: machine `m` in
/// state `h` steps to `step[m][h][v]` on vertical `v` and yields the
/// verticals `yields[m][h]`.
#[derive(Debug, Clone)]
struct Machines {
    seeds: Vec<u8>,
    starts: Vec<u8>,
    step: Vec<Vec<Vec<u8>>>,
    yields: Vec<Vec<Vec<u8>>>,
}

const VERTICALS: u8 = 6;

fn arb_machines() -> Gen<Machines> {
    Gen::new(|rng| {
        let machines = rng.random_range(1..4usize);
        let states = rng.random_range(1..7u8);
        let pick = |rng: &mut Rng, n: u8, max: usize| -> Vec<u8> {
            (0..rng.random_range(0..=max))
                .map(|_| rng.random_range(0..n))
                .collect()
        };
        Machines {
            seeds: pick(rng, VERTICALS, 2),
            starts: (0..machines).map(|_| rng.random_range(0..states)).collect(),
            step: (0..machines)
                .map(|_| {
                    (0..states)
                        .map(|_| {
                            (0..VERTICALS)
                                .map(|_| rng.random_range(0..states))
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            yields: (0..machines)
                .map(|_| (0..states).map(|_| pick(rng, VERTICALS, 2)).collect())
                .collect(),
        }
    })
}

/// The naive reference: rounds of "explore every machine over the
/// verticals known so far" until a round finds no new vertical, then one
/// more exploration per machine over the final verticals.
fn naive_saturate(ms: &Machines) -> (BTreeSet<u8>, Vec<BTreeSet<u8>>) {
    let mut verticals: BTreeSet<u8> = ms.seeds.iter().copied().collect();
    let explore = |m: usize, verticals: &BTreeSet<u8>| -> BTreeSet<u8> {
        let mut seen = BTreeSet::from([ms.starts[m]]);
        let mut stack = vec![ms.starts[m]];
        while let Some(h) = stack.pop() {
            for &v in verticals {
                let next = ms.step[m][h as usize][v as usize];
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        seen
    };
    loop {
        let mut found = verticals.clone();
        for m in 0..ms.starts.len() {
            for h in explore(m, &verticals) {
                found.extend(&ms.yields[m][h as usize]);
            }
        }
        if found == verticals {
            break;
        }
        verticals = found;
    }
    let states = (0..ms.starts.len())
        .map(|m| explore(m, &verticals))
        .collect();
    (verticals, states)
}

/// `saturate` finds the same verticals and the same states as the naive
/// reference, keeps the seeds' ids, starts each machine at state 0, and
/// gives every state a full row of the steps the tables say.
#[test]
fn saturate_matches_naive_rounds() {
    forall(
        "saturate_matches_naive_rounds",
        Config::with_cases(CASES),
        &arb_machines(),
        |ms| {
            let mut verticals: Worklist<u8> = Worklist::new();
            for &v in &ms.seeds {
                verticals.intern(v);
            }
            let mut yielded = vec![0usize; ms.starts.len()];
            let machines = saturate(
                &mut verticals,
                ms.starts.iter().copied(),
                |m, &h, verticals| {
                    yielded[m] += 1;
                    for &v in &ms.yields[m][h as usize] {
                        verticals.intern(v);
                    }
                },
                |m, &h, &v| ms.step[m][h as usize][v as usize],
            );
            let (want_verticals, want_states) = naive_saturate(ms);
            let got: BTreeSet<u8> = verticals.keys().iter().copied().collect();
            prop_assert_eq!(got, want_verticals);
            prop_assert_eq!(verticals.len(), want_verticals.len(), "no vertical twice");
            let mut seeds: Vec<u8> = Vec::new();
            for &v in &ms.seeds {
                if !seeds.contains(&v) {
                    seeds.push(v);
                }
            }
            prop_assert_eq!(&verticals.keys()[..seeds.len()], &seeds[..]);
            for (m, machine) in machines.iter().enumerate() {
                let states: BTreeSet<u8> = machine.states.iter().copied().collect();
                prop_assert_eq!(&states, &want_states[m], "states of machine {m}");
                prop_assert_eq!(machine.states.len(), states.len(), "no state twice");
                prop_assert_eq!(machine.states[0], ms.starts[m]);
                prop_assert_eq!(yielded[m], machine.states.len(), "one yield per state");
                prop_assert_eq!(machine.rows.len(), machine.states.len());
                for (h, row) in machine.rows.iter().enumerate() {
                    prop_assert_eq!(row.len(), verticals.len(), "row {h} of machine {m}");
                    for (v, &next) in row.iter().enumerate() {
                        let key = machine.states[h] as usize;
                        let letter = verticals.keys()[v] as usize;
                        prop_assert_eq!(machine.states[next as usize], ms.step[m][key][letter]);
                    }
                }
            }
            Ok(())
        },
    );
}
