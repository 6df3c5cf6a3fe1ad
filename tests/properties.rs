//! Property-based tests on the core data structures and the paper's
//! invariants, with randomly generated hedges and expressions.
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner: every failure
//! prints a `HEDGEX_SEED=<n>` line; re-running with that variable replays
//! the exact counterexample (then shrinks it again deterministically).

use std::rc::Rc;

use hedgex::core::mark_down::{compile_to_dha, mark_run};
use hedgex::core::{compile_hre, CompiledPhr, Hre};
use hedgex::hedge::{Hedge, PointedBaseHedge, PointedHedge, SubId, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, zip2, zip3, Config, Gen, Rng};

// ---------------------------------------------------------------------------
// Generators + shrinkers
// ---------------------------------------------------------------------------

/// A random tree over 3 symbols and 2 variables, with bounded depth/width.
fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.random_bool(0.35) {
        if rng.random_bool(0.4) {
            Tree::Var(VarId(rng.random_range(0..2u32)))
        } else {
            Tree::Node(SymId(rng.random_range(0..3u32)), Hedge::empty())
        }
    } else {
        let label = SymId(rng.random_range(0..3u32));
        let width = rng.random_range(0..4usize);
        Tree::Node(
            label,
            Hedge((0..width).map(|_| gen_tree(rng, depth - 1)).collect()),
        )
    }
}

/// Shrink a tree: hoist children, drop/shrink children, simplify leaves.
fn shrink_tree(t: &Tree) -> Vec<Tree> {
    match t {
        Tree::Node(a, h) => {
            let mut out: Vec<Tree> = h.0.clone();
            out.extend(
                shrink_vec(&h.0, shrink_tree)
                    .into_iter()
                    .map(|trees| Tree::Node(*a, Hedge(trees))),
            );
            out
        }
        Tree::Var(_) => vec![Tree::Node(SymId(0), Hedge::empty())],
        Tree::Subst(_) => vec![],
    }
}

fn shrink_hedge(h: &Hedge) -> Vec<Hedge> {
    shrink_vec(&h.0, shrink_tree)
        .into_iter()
        .map(Hedge)
        .collect()
}

fn arb_hedge() -> Gen<Hedge> {
    Gen::new(|rng| {
        let width = rng.random_range(0..4usize);
        Hedge((0..width).map(|_| gen_tree(rng, 3)).collect())
    })
    .with_shrink(shrink_hedge)
}

/// A random HRE over the same alphabet (no substitution operators — those
/// are covered by targeted exhaustive tests; here we stress the horizontal
/// algebra and nesting).
fn gen_hre(rng: &mut Rng, depth: usize) -> Hre {
    if depth == 0 || rng.random_bool(0.35) {
        return match rng.random_range(0..3u32) {
            0 => Hre::Epsilon,
            1 => Hre::leaf(SymId(rng.random_range(0..3u32))),
            _ => Hre::Var(VarId(rng.random_range(0..2u32))),
        };
    }
    match rng.random_range(0..4u32) {
        0 => gen_hre(rng, depth - 1).concat(gen_hre(rng, depth - 1)),
        1 => gen_hre(rng, depth - 1).alt(gen_hre(rng, depth - 1)),
        2 => gen_hre(rng, depth - 1).star(),
        _ => Hre::node(SymId(rng.random_range(0..3u32)), gen_hre(rng, depth - 1)),
    }
}

/// Shrink an HRE toward its subexpressions and ε.
fn shrink_hre(e: &Hre) -> Vec<Hre> {
    match e {
        Hre::Empty | Hre::Epsilon => vec![],
        Hre::Var(_) => vec![Hre::Epsilon],
        Hre::Node(a, inner) => {
            let mut out = vec![Hre::Epsilon, (**inner).clone()];
            out.extend(
                shrink_hre(inner)
                    .into_iter()
                    .map(|i| Hre::Node(*a, Rc::new(i))),
            );
            out
        }
        Hre::Concat(a, b) => {
            let mut out = vec![(**a).clone(), (**b).clone()];
            out.extend(shrink_hre(a).into_iter().map(|a2| a2.concat((**b).clone())));
            out.extend(shrink_hre(b).into_iter().map(|b2| (**a).clone().concat(b2)));
            out
        }
        Hre::Alt(a, b) => {
            let mut out = vec![(**a).clone(), (**b).clone()];
            out.extend(shrink_hre(a).into_iter().map(|a2| a2.alt((**b).clone())));
            out.extend(shrink_hre(b).into_iter().map(|b2| (**a).clone().alt(b2)));
            out
        }
        Hre::Star(a) => {
            let mut out = vec![Hre::Epsilon, (**a).clone()];
            out.extend(shrink_hre(a).into_iter().map(Hre::star));
            out
        }
        // Not generated here; shrink to the simplest language anyway.
        Hre::SubNode(_, _) | Hre::Embed(_, _, _) | Hre::Iter(_, _) => vec![Hre::Epsilon],
    }
}

fn arb_hre() -> Gen<Hre> {
    Gen::new(|rng| gen_hre(rng, 3)).with_shrink(shrink_hre)
}

// ---------------------------------------------------------------------------
// Data-structure invariants
// ---------------------------------------------------------------------------

/// Flattening and rebuilding a hedge is the identity.
#[test]
fn flat_roundtrip() {
    forall(
        "flat_roundtrip",
        Config::with_cases(64),
        &arb_hedge(),
        |h| {
            let f = FlatHedge::from_hedge(h);
            prop_assert_eq!(&f.to_hedge(), h);
            Ok(())
        },
    );
}

/// Dewey addresses are unique and resolvable.
#[test]
fn dewey_bijective() {
    forall(
        "dewey_bijective",
        Config::with_cases(64),
        &arb_hedge(),
        |h| {
            let f = FlatHedge::from_hedge(h);
            let mut seen = std::collections::HashSet::new();
            for n in f.preorder() {
                let d = f.dewey(n);
                prop_assert!(seen.insert(d.clone()));
                prop_assert_eq!(f.by_dewey(&d), Some(n));
            }
            Ok(())
        },
    );
}

/// A tree of one of the shapes that stress an address writer: a random
/// tree, a lone leaf, a wide level, or a deep chain with leaf siblings
/// beside every link.
fn gen_shaped_tree(rng: &mut Rng) -> Tree {
    let leaf = |rng: &mut Rng| Tree::Node(SymId(rng.random_range(0..3u32)), Hedge::empty());
    match rng.random_range(0..4u32) {
        0 => gen_tree(rng, 3),
        1 => leaf(rng),
        2 => {
            let width = rng.random_range(1..80usize);
            let kids = (0..width).map(|_| {
                if rng.random_bool(0.1) {
                    gen_tree(rng, 2)
                } else {
                    leaf(rng)
                }
            });
            Tree::Node(SymId(0), Hedge(kids.collect()))
        }
        _ => {
            let mut t = leaf(rng);
            for _ in 0..rng.random_range(1..40usize) {
                let (before, after) = (rng.random_range(0..4usize), rng.random_range(0..4usize));
                let mut kids: Vec<Tree> = (0..before).map(|_| leaf(rng)).collect();
                kids.push(t);
                kids.extend((0..after).map(|_| leaf(rng)));
                t = Tree::Node(SymId(1), Hedge(kids));
            }
            t
        }
    }
}

/// Forests of up to five shaped trees, with a seed for the hit sets.
fn arb_forest_and_seed() -> Gen<(Hedge, u64)> {
    let forest = Gen::new(|rng| {
        let roots = rng.random_range(0..6usize);
        Hedge((0..roots).map(|_| gen_shaped_tree(rng)).collect())
    })
    .with_shrink(shrink_hedge);
    zip2(forest, Gen::new(|rng| rng.next_u64()))
}

/// The address writer prints, for every sorted hit set and with or
/// without a name prefix, the lines built from `FlatHedge::dewey` node by
/// node.
#[test]
fn dewey_writer_lines_equal_per_node_addresses() {
    use hedgex::hedge::DeweyWriter;
    forall(
        "dewey_writer_lines_equal_per_node_addresses",
        Config::with_cases(96),
        &arb_forest_and_seed(),
        |(h, seed)| {
            let f = FlatHedge::from_hedge(h);
            let mut rng = Rng::seed_from_u64(*seed);
            let all: Vec<u32> = f.preorder().collect();
            let p = rng.random_f64();
            let hit_sets = [
                vec![],
                all.iter().copied().filter(|_| rng.random_bool(p)).collect(),
                all.last().map(|_| *rng.choose(&all)).into_iter().collect(),
                all.last().copied().into_iter().collect(),
                all.clone(),
            ];
            for hits in &hit_sets {
                for prefix in [None, Some("doc.xml")] {
                    let mut written = Vec::new();
                    DeweyWriter::new(&f)
                        .write_lines(&mut written, prefix, hits)
                        .unwrap();
                    let expected: String = hits
                        .iter()
                        .map(|&n| {
                            let steps: String =
                                f.dewey(n).iter().map(|d| format!("/{d}")).collect();
                            match prefix {
                                Some(name) => format!("{name}:{steps}\n"),
                                None => format!("{steps}\n"),
                            }
                        })
                        .collect();
                    prop_assert_eq!(String::from_utf8(written).unwrap(), expected);
                }
            }
            Ok(())
        },
    );
}

/// subhedge + envelope reassemble the original hedge (Definition 21).
#[test]
fn envelope_fill_inverts() {
    forall(
        "envelope_fill_inverts",
        Config::with_cases(64),
        &arb_hedge(),
        |h| {
            let f = FlatHedge::from_hedge(h);
            for n in f.preorder() {
                if !matches!(f.label(n), hedgex::hedge::flat::FlatLabel::Sym(_)) {
                    continue;
                }
                let env = PointedHedge::new(f.envelope(n)).unwrap();
                let filled = env.fill(&f.subhedge(n));
                prop_assert_eq!(&filled, h);
            }
            Ok(())
        },
    );
}

/// Pointed-hedge decomposition and composition are mutually inverse, and
/// the decomposition length equals the node's depth.
#[test]
fn decompose_compose_inverse() {
    forall(
        "decompose_compose_inverse",
        Config::with_cases(64),
        &arb_hedge(),
        |h| {
            let f = FlatHedge::from_hedge(h);
            for n in f.preorder() {
                if !matches!(f.label(n), hedgex::hedge::flat::FlatLabel::Sym(_)) {
                    continue;
                }
                let env = PointedHedge::new(f.envelope(n)).unwrap();
                let bases = env.decompose().unwrap();
                prop_assert_eq!(bases.len(), f.dewey(n).len());
                let back = PointedBaseHedge::compose(&bases).unwrap();
                prop_assert_eq!(back, env);
            }
            Ok(())
        },
    );
}

/// The product of pointed hedges is associative.
#[test]
fn pointed_product_associative() {
    forall(
        "pointed_product_associative",
        Config::with_cases(64),
        &zip3(arb_hedge(), arb_hedge(), arb_hedge()),
        |(a, b, c)| {
            // Turn each hedge into a pointed hedge by appending x⟨η⟩.
            let point = |h: &Hedge| {
                let mut trees = h.0.clone();
                trees.push(Tree::Node(SymId(0), Hedge(vec![Tree::Subst(SubId::ETA)])));
                PointedHedge::new(Hedge(trees)).unwrap()
            };
            let (pa, pb, pc) = (point(a), point(b), point(c));
            prop_assert_eq!(pa.product(&pb).product(&pc), pa.product(&pb.product(&pc)));
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Theorem-level properties
// ---------------------------------------------------------------------------

/// Lemma 1: the compiled automaton agrees with the declarative matcher on
/// random expression/hedge pairs.
#[test]
fn compile_agrees_with_spec() {
    forall(
        "compile_agrees_with_spec",
        Config::with_cases(64),
        &zip2(arb_hre(), arb_hedge()),
        |(e, h)| {
            let nha = compile_hre(e);
            prop_assert_eq!(nha.accepts(h), e.matches(h));
            Ok(())
        },
    );
}

/// Theorem 1 on compiled expressions: determinization preserves
/// membership. 500 generated hedges (ISSUE 2 satellite).
#[test]
fn determinize_preserves_membership() {
    forall(
        "determinize_preserves_membership",
        Config::with_cases(500),
        &zip2(arb_hre(), arb_hedge()),
        |(e, h)| {
            let nha = compile_hre(e);
            let det = hedgex::ha::determinize(&nha);
            prop_assert_eq!(det.dha.accepts(h), nha.accepts(h));
            Ok(())
        },
    );
}

/// A random HRE that also uses the substitution operators: `a⟨z⟩`,
/// embedding `@z`, vertical closure `^z`, and `!`.
fn gen_sub_hre(rng: &mut Rng, depth: usize) -> Hre {
    let z = SubId(0);
    let sym = |rng: &mut Rng| SymId(rng.random_range(0..2u32));
    if depth == 0 || rng.random_bool(0.3) {
        return match rng.random_range(0..5u32) {
            0 => Hre::Epsilon,
            1 => Hre::Empty,
            2 => Hre::leaf(sym(rng)),
            3 => Hre::Var(VarId(0)),
            _ => Hre::sub_node(sym(rng), z),
        };
    }
    match rng.random_range(0..6u32) {
        0 => gen_sub_hre(rng, depth - 1).concat(gen_sub_hre(rng, depth - 1)),
        1 => gen_sub_hre(rng, depth - 1).alt(gen_sub_hre(rng, depth - 1)),
        2 => gen_sub_hre(rng, depth - 1).star(),
        3 => Hre::node(sym(rng), gen_sub_hre(rng, depth - 1)),
        4 => gen_sub_hre(rng, depth - 1).iter(z),
        _ => gen_sub_hre(rng, depth - 1).embed(z, gen_sub_hre(rng, depth - 1)),
    }
}

/// Lemma 1 then Theorem 1: the determinized automaton of a compiled
/// expression accepts exactly the hedges the declarative matcher accepts,
/// on every hedge of up to four nodes over the expression's alphabet,
/// substitution leaves included. 200 expressions with `^z`, `@z` and `!`.
#[test]
fn determinized_compile_agrees_with_spec_on_enumerated_hedges() {
    use hedgex::ha::enumerate::enumerate_hedges_with_subs;
    let syms = [SymId(0), SymId(1)];
    let hedges = enumerate_hedges_with_subs(&syms, &[VarId(0)], &[SubId(0)], 4);
    assert!(hedges.len() > 100, "enumerated only {}", hedges.len());
    forall(
        "determinized_compile_agrees_with_spec_on_enumerated_hedges",
        Config::with_cases(200),
        &Gen::new(|rng| gen_sub_hre(rng, 3)).with_shrink(shrink_hre),
        |e| {
            let det = hedgex::ha::determinize(&compile_hre(e));
            for h in &hedges {
                prop_assert_eq!(det.dha.accepts(h), e.matches(h), "on {:?}", h);
            }
            Ok(())
        },
    );
}

/// Theorem 2 round trip: `decompile(compile(e))` denotes the same language
/// as `e`, checked per case on a freshly generated sample hedge plus the
/// subexpression-rich shrunk forms (ISSUE 2 satellite).
#[test]
fn decompile_compile_roundtrip() {
    forall(
        "decompile_compile_roundtrip",
        Config::with_cases(48),
        &zip2(arb_hre(), arb_hedge()),
        |(e, h)| {
            let dha = compile_to_dha(e);
            let mut ab = Alphabet::new();
            for s in ["s0", "s1", "s2"] {
                ab.sym(s);
            }
            for v in ["v0", "v1"] {
                ab.var(v);
            }
            let back = compile_to_dha(&hedgex::core::decompile_dha(&dha, &mut ab));
            prop_assert_eq!(
                back.accepts(h),
                e.matches(h),
                "decompiled HRE disagrees on {h:?}"
            );
            Ok(())
        },
    );
}

/// Theorem 3: marking equals per-node declarative membership.
#[test]
fn marks_equal_spec() {
    forall(
        "marks_equal_spec",
        Config::with_cases(64),
        &zip2(arb_hre(), arb_hedge()),
        |(e, h)| {
            let dha = compile_to_dha(e);
            let f = FlatHedge::from_hedge(h);
            let marks = mark_run(&dha, &f);
            for n in f.preorder() {
                let expect = matches!(f.label(n), hedgex::hedge::flat::FlatLabel::Sym(_))
                    && e.matches(&f.subhedge(n));
                prop_assert_eq!(marks[n as usize], expect);
            }
            Ok(())
        },
    );
}

/// `HorizFn::inverse(q)` accepts a word `w` iff `eval(w) == q`, letters
/// `≥ |Q|` included, on the horizontal functions of every construction
/// that builds them: `from_rules` (the paper's `M₀`, and rules made from a
/// compiled automaton's inverse images), Theorem 1's subset construction,
/// the product, minimization, and Theorem 3's `M↓e`.
#[test]
fn horiz_inverse_accepts_exactly_the_preimage() {
    use hedgex::core::mark_down::MarkDown;
    use hedgex::ha::minimize::minimize_dha;
    use hedgex::ha::product::product_many;
    use hedgex::ha::HorizFn;
    forall(
        "horiz_inverse_accepts_exactly_the_preimage",
        Config::with_cases(48),
        &zip3(arb_hre(), arb_hre(), Gen::new(|rng| rng.next_u64())),
        |(e1, e2, seed)| {
            let d1 = compile_to_dha(e1);
            let d2 = compile_to_dha(e2);
            let sigma: Vec<SymId> = (0..3).map(SymId).collect();
            let automata = [
                ("from_rules", hedgex::ha::paper::m0(&mut Alphabet::new())),
                ("product", product_many(&[&d1, &d2]).dha),
                ("minimize", minimize_dha(&d1).0),
                ("mark_down", MarkDown::build(e1, &sigma).dha),
                ("determinize", d1),
            ];
            let mut rng = Rng::seed_from_u64(*seed);
            for (built_by, dha) in &automata {
                let n = dha.num_states();
                for a in dha.symbols() {
                    let hf = dha.horiz(a).expect("declared");
                    let rules: Vec<_> = (0..n).map(|q| (hf.preimage(q), q)).collect();
                    let ruled = HorizFn::from_rules(&rules, n, dha.sink());
                    for (how, f) in [(*built_by, hf), ("from_rules", &ruled)] {
                        for _ in 0..12 {
                            let len = rng.random_range(0..6usize);
                            let w: Vec<u32> =
                                (0..len).map(|_| rng.random_range(0..n + 2)).collect();
                            let image = f.eval(w.iter().copied());
                            for q in [image, rng.random_range(0..n), dha.sink()] {
                                prop_assert_eq!(
                                    f.inverse(q).accepts(&w),
                                    q == image,
                                    "{how} (from {built_by}): {a:?} on {w:?}, q = {q}"
                                );
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Evaluator oracles
// ---------------------------------------------------------------------------

/// The standard library of representative PHRs over {s0, s1, s2, v0, v1}.
fn phr_library(which: usize, ab: &mut Alphabet) -> hedgex::core::phr::Phr {
    ab.sym("s0");
    ab.sym("s1");
    ab.sym("s2");
    ab.var("v0");
    ab.var("v1");
    let u = "(s0<%z>|s1<%z>|s2<%z>|$v0|$v1)*^z";
    let srcs = [
        format!("[{u} ; s0 ; {u}]"),
        format!("[{u} ; s1 ; s0<%z>*^z ({u})]([{u} ; s0 ; {u}])*"),
        format!("([{u} ; s0 ; {u}]|[{u} ; s1 ; {u}])+"),
        format!("[ε ; s2 ; {u}][{u} ; s0 ; ε]"),
    ];
    parse_phr(&srcs[which % srcs.len()], ab).unwrap()
}

fn arb_phr_pick() -> Gen<usize> {
    Gen::new(|rng| rng.random_range(0..4usize)).with_shrink(|&n| (0..n).collect())
}

/// Algorithm 1 equals the declarative PHR evaluator on random hedges for a
/// fixed library of representative PHRs.
#[test]
fn two_pass_equals_naive() {
    forall(
        "two_pass_equals_naive",
        Config::with_cases(24),
        &zip2(arb_hedge(), arb_phr_pick()),
        |(h, which)| {
            let mut ab = Alphabet::new();
            let phr = phr_library(*which, &mut ab);
            let compiled = CompiledPhr::compile(&phr);
            let f = FlatHedge::from_hedge(h);
            prop_assert_eq!(
                hedgex::core::two_pass::locate(&compiled, &f),
                phr.locate_naive(&f)
            );
            Ok(())
        },
    );
}

/// The compile-once / run-many contract: warm evaluation through a
/// [`Plan`] and a reused scratch equals a cold `CompiledPhr::compile` +
/// `locate` on 300 generated (query, hedge) pairs.
#[test]
fn plan_cache_warm_equals_cold() {
    use std::cell::RefCell;

    let scratch = RefCell::new(EvalScratch::new());
    forall(
        "plan_cache_warm_equals_cold",
        Config::with_cases(300),
        &zip2(arb_hedge(), arb_phr_pick()),
        |(h, which)| {
            let mut ab = Alphabet::new();
            let phr = phr_library(*which, &mut ab);
            let f = FlatHedge::from_hedge(h);

            // Cold reference: a fresh compile and an allocating locate.
            let cold_compiled = CompiledPhr::compile(&phr);
            let cold = hedgex::core::two_pass::locate(&cold_compiled, &f);

            let plan = Plan::compile(&phr);
            let scratch = &mut *scratch.borrow_mut();
            prop_assert_eq!(plan.locate_into(&f, scratch).to_vec(), cold);
            Ok(())
        },
    );
}

/// Oracle: the two baseline evaluators from `hedgex-baseline` (quadratic
/// per-node and fully interpretive) agree with Algorithm 1 on random
/// hedges + PHRs (ISSUE 2 satellite).
#[test]
fn two_pass_equals_baselines() {
    forall(
        "two_pass_equals_baselines",
        Config::with_cases(24),
        &zip2(arb_hedge(), arb_phr_pick()),
        |(h, which)| {
            let mut ab = Alphabet::new();
            let phr = phr_library(*which, &mut ab);
            let compiled = CompiledPhr::compile(&phr);
            let f = FlatHedge::from_hedge(h);
            let fast = hedgex::core::two_pass::locate(&compiled, &f);
            prop_assert_eq!(
                &fast,
                &hedgex::baseline::quadratic_locate_phr(&compiled, &f),
                "quadratic baseline disagrees"
            );
            prop_assert_eq!(
                &fast,
                &hedgex::baseline::interpretive_locate_phr(&phr, &f),
                "interpretive baseline disagrees"
            );
            Ok(())
        },
    );
}

/// A PHR of 2–3 triplets whose sibling slots are drawn from a pool of
/// three expressions, so at least one component fills several slots (4–6
/// slots). The pool mixes the universal expression, ε, "some sibling is an
/// `sₖ` tree", "every tree is built of `sₖ`" and random expressions, so
/// that matches are common. The triplet regex is their sequence, that
/// sequence starred, or (half the time) their alternation repeated.
fn arb_repeating_phr() -> Gen<hedgex::core::phr::Phr> {
    use hedgex::core::phr::{Pbhr, Phr};
    use hedgex_automata::Regex;
    Gen::new(|rng| {
        let mut ab = Alphabet::new();
        for name in ["s0", "s1", "s2"] {
            ab.sym(name);
        }
        ab.var("v0");
        ab.var("v1");
        let u = "(s0<%z>|s1<%z>|s2<%z>|$v0|$v1)*^z";
        let pool: Vec<Hre> = (0..3)
            .map(|_| {
                let k = rng.random_range(0..3u32);
                let src = match rng.random_range(0..6u32) {
                    0 | 1 => u.to_string(),
                    2 => "ε".to_string(),
                    3 => format!("{u} s{k}<{u}> ({u})"),
                    4 => format!("(s{k}<%z>|$v0)*^z"),
                    _ => return gen_hre(rng, 2),
                };
                parse_hre(&src, &mut ab).unwrap()
            })
            .collect();
        // Labels rotate through the symbols, so most nodes have a triplet.
        let n = rng.random_range(2..4u32);
        let first = rng.random_range(0..3u32);
        let triplets = (0..n)
            .map(|t| Pbhr {
                elder: pool[rng.random_range(0..3usize)].clone(),
                label: SymId((first + t) % 3),
                younger: pool[rng.random_range(0..3usize)].clone(),
            })
            .collect();
        let seq = (1..n).fold(Regex::sym(0), |r, t| r.concat(Regex::sym(t)));
        let regex = match rng.random_range(0..4u32) {
            0 => seq,
            1 => seq.star(),
            _ => Regex::any_of((0..n).map(Regex::sym)).plus(),
        };
        Phr { triplets, regex }
    })
}

/// Components compiled once and shared across the slots they fill give
/// the match sets of the quadratic baseline and of the declarative
/// evaluator, which compiles nothing.
#[test]
fn repeated_components_match_the_baselines() {
    forall(
        "repeated_components_match_the_baselines",
        Config::with_cases(64),
        &zip2(arb_hedge(), arb_repeating_phr()),
        |(h, phr)| {
            let compiled = CompiledPhr::compile(phr);
            let f = FlatHedge::from_hedge(h);
            let fast = hedgex::core::two_pass::locate(&compiled, &f);
            prop_assert_eq!(
                &fast,
                &hedgex::baseline::quadratic_locate_phr(&compiled, &f),
                "quadratic baseline disagrees"
            );
            prop_assert_eq!(
                &fast,
                &phr.locate_naive(&f),
                "declarative evaluator disagrees"
            );
            Ok(())
        },
    );
}
