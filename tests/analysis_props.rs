//! Property tests tying the static analyzer to the evaluators it speaks
//! for: analysis verdicts are claims about `locate` on *every* document,
//! so we check them against randomly generated documents, and we check
//! that dead-state pruning never changes a match set — sequentially and
//! through the parallel evaluator. The structural facts every `Plan`
//! derives for itself are held to the same standard: sound on random
//! documents, and never claiming more than the analyzer proves.
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner (seed-reproducible
//! failures) and is exercised by CI both with default features and with
//! `--no-default-features` (analysis must not depend on instrumentation).

use std::collections::BTreeSet;
use std::rc::Rc;

use hedgex::analyze::AnalyzedQuery;
use hedgex::core::mark_down::{compile_to_dha, mark_run};
use hedgex::core::path_expr::parse_path;
use hedgex::core::Phr;
use hedgex::core::{phr_compile, two_pass};
use hedgex::ha::enumerate_hedges;
use hedgex::hedge::{Hedge, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, zip2, Config, Gen, Rng};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A random document tree over symbols {0, 1} and one variable.
fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.random_bool(0.4) {
        if rng.random_bool(0.25) {
            Tree::Var(VarId(0))
        } else {
            Tree::Node(SymId(rng.random_range(0..2u32)), Hedge::empty())
        }
    } else {
        Tree::Node(
            SymId(rng.random_range(0..2u32)),
            Hedge(
                (0..rng.random_range(0..4usize))
                    .map(|_| gen_tree(rng, depth - 1))
                    .collect(),
            ),
        )
    }
}

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

fn arb_doc() -> Gen<Hedge> {
    Gen::new(|rng| {
        Hedge(
            (0..rng.random_range(0..4usize))
                .map(|_| gen_tree(rng, 3))
                .collect(),
        )
    })
    .with_shrink(|h| {
        shrink_vec(&h.0, shrink_tree)
            .into_iter()
            .map(Hedge)
            .collect()
    })
}

/// The query pool: a mix of satisfiable queries over {a, b} and queries
/// that are provably empty (the elder condition `a<%z>^z` has no finite
/// document unfolding). Analyses are built once and shared by `Rc` — the
/// properties then only evaluate documents.
fn pool() -> Vec<(Phr, Rc<AnalyzedQuery>)> {
    let mut ab = Alphabet::new();
    let a = ab.sym("a");
    let b = ab.sym("b");
    assert_eq!((a, b), (SymId(0), SymId(1)), "generators assume this order");
    pool_sources()
        .iter()
        .map(|src| {
            // `$v` must intern as VarId(0) the first time it appears.
            let phr = parse_phr(src, &mut ab).unwrap();
            let analyzed = Rc::new(AnalyzedQuery::new(&phr, None));
            (phr, analyzed)
        })
        .collect()
}

/// The sources of the query pool.
fn pool_sources() -> Vec<String> {
    let u = "(a<%z>|b<%z>|$v)*^z";
    vec![
        "[ε ; a ; ε]".to_string(),
        "[ε ; a ; b]".to_string(),
        "[b ; a ; ε][ε ; b ; ε]".to_string(),
        format!("[{u} ; a ; {u}]"),
        format!("([ε ; a ; ε]|[{u} ; b ; a])"),
        format!("[{u} ; a ; {u}][ε ; b ; ε]*"),
        "[a<%z>^z ; b ; ε]".to_string(),
        format!("[{u} ; a ; a<%z>^z]"),
    ]
}

fn pick_query(n: usize) -> Gen<usize> {
    Gen::new(move |rng| rng.random_range(0..n))
}

/// A random regex over `atom`s: concatenation, alternation, `*` and `?`
/// nested at most `depth` deep.
fn gen_regex(rng: &mut Rng, depth: usize, atom: &mut dyn FnMut(&mut Rng) -> String) -> String {
    if depth == 0 || rng.random_bool(0.3) {
        return atom(rng);
    }
    match rng.random_range(0..4u32) {
        0 => format!(
            "{} {}",
            gen_regex(rng, depth - 1, atom),
            gen_regex(rng, depth - 1, atom)
        ),
        1 => format!(
            "({}|{})",
            gen_regex(rng, depth - 1, atom),
            gen_regex(rng, depth - 1, atom)
        ),
        2 => format!("({})*", gen_regex(rng, depth - 1, atom)),
        _ => format!("({})?", gen_regex(rng, depth - 1, atom)),
    }
}

/// A random PHR source over {a, b}: a regex nested `depth` deep over up to
/// `2^depth` triplets whose sibling conditions range over ε, leaves, the
/// universal expression and the provably empty `a<%z>^z`.
fn arb_phr_src(depth: usize) -> Gen<String> {
    Gen::new(move |rng| {
        const SIDES: [&str; 6] = ["ε", "a", "b*", "(a<%z>|b<%z>|$v)*^z", "a<%z>^z", "b a*"];
        let mut triplet = |rng: &mut Rng| {
            let side = |rng: &mut Rng| SIDES[rng.random_range(0..SIDES.len())];
            let label = if rng.random_bool(0.5) { "a" } else { "b" };
            format!("[{} ; {label} ; {}]", side(rng), side(rng))
        };
        gen_regex(rng, depth, &mut triplet)
    })
}

/// A random path source over {a, b}.
fn arb_path_src() -> Gen<String> {
    Gen::new(|rng| {
        gen_regex(rng, 3, &mut |rng: &mut Rng| {
            (if rng.random_bool(0.5) { "a" } else { "b" }).to_string()
        })
    })
}

/// The alphabet the generators assume: `a`, `b`, then `$v`.
fn props_alphabet() -> Alphabet {
    let mut ab = Alphabet::new();
    assert_eq!((ab.sym("a"), ab.sym("b")), (SymId(0), SymId(1)));
    assert_eq!(ab.var("v"), VarId(0));
    ab
}

/// The labels a document holds.
fn labels(h: &FlatHedge) -> BTreeSet<SymId> {
    h.preorder()
        .filter_map(|n| match h.label(n) {
            hedgex::hedge::flat::FlatLabel::Sym(a) => Some(a),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Satisfiability is exactly non-emptiness of the match behaviour: an
/// unsatisfiable query locates nothing on any document, and a satisfiable
/// query's witness is a concrete document where it locates something.
#[test]
fn satisfiability_iff_locate_nonempty() {
    let pool = pool();
    // The witness direction is deterministic — once per query.
    for (phr, q) in &pool {
        let sat = q.satisfiable();
        if let Some(w) = &sat.witness {
            let flat = FlatHedge::from_hedge(w);
            assert!(
                !phr.locate_naive(&flat).is_empty(),
                "witness must locate: {w:?}"
            );
        }
    }
    let unsat: Vec<bool> = pool
        .iter()
        .map(|(_, q)| !q.satisfiable().satisfiable)
        .collect();
    assert!(unsat.iter().any(|&u| u), "pool must cover the empty case");
    assert!(
        unsat.iter().any(|&u| !u),
        "pool must cover the inhabited case"
    );
    // The empty direction over random documents.
    forall(
        "unsat_locates_nothing",
        Config::with_cases(100),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            if unsat[*i] {
                let flat = FlatHedge::from_hedge(doc);
                let hits = pool[*i].0.locate_naive(&flat);
                prop_assert!(hits.is_empty(), "unsatisfiable query located {hits:?}");
            }
            Ok(())
        },
    );
}

/// The report is a claim about every document, with a subhedge condition
/// and within a schema too. Over the pool (plus a label alternation, whose
/// witness holds a symbol no other match needs) × {no subhedge, `b<ε>*`,
/// `b<ε>+`} × {no schema, a small one}: a satisfiable verdict's witness is
/// a document of the schema with a located node whose content satisfies
/// the subhedge; an unsatisfiable one matches no enumerated document of
/// the schema; and every required symbol occurs in every enumerated
/// matching document.
#[test]
fn reports_hold_with_subhedge_and_schema() {
    let mut ab = props_alphabet();
    let (a, b, v) = (SymId(0), SymId(1), VarId(0));
    let subhedges = ["b<ε>*", "b<ε>+"].map(|e| parse_hre(e, &mut ab).unwrap());
    // Top-level a and b leaves; an a holds b leaves and variables only.
    let schema = compile_to_dha(&parse_hre("(a<(b<ε>|$v)*>|b<ε>)*", &mut ab).unwrap());
    let docs = enumerate_hedges(&[a, b], &[v], 5);
    let mut sources = pool_sources();
    sources.push("([ε ; a ; ε]|[ε ; b ; ε])".to_string());
    let phrs: Vec<Phr> = sources
        .iter()
        .map(|src| parse_phr(src, &mut ab).unwrap())
        .collect();
    let mut verdicts = BTreeSet::new();
    for phr in &phrs {
        for sub in [None, Some(&subhedges[0]), Some(&subhedges[1])] {
            let content = sub.map(compile_to_dha);
            // Does `d` hold a located node whose content satisfies `sub`?
            let matches = |d: &Hedge| {
                let flat = FlatHedge::from_hedge(d);
                let marks = content.as_ref().map(|c| mark_run(c, &flat));
                phr.locate_naive(&flat)
                    .into_iter()
                    .any(|n| marks.as_ref().is_none_or(|m| m[n as usize]))
            };
            let q = AnalyzedQuery::new(phr, sub);
            for within in [None, Some(&schema)] {
                let report = q.analyze(within);
                let in_schema = |d: &Hedge| within.is_none_or(|s| s.accepts(d));
                let case = format!("{phr:?} sub {sub:?} schema {}", within.is_some());
                let sat = &report.satisfiability;
                verdicts.insert((within.is_some(), sat.satisfiable));
                if sat.satisfiable {
                    let w = sat
                        .witness
                        .as_ref()
                        .expect("a satisfiable verdict has a witness");
                    assert!(
                        in_schema(w),
                        "{case}: witness {w:?} is not a schema document"
                    );
                    assert!(matches(w), "{case}: witness {w:?} locates nothing");
                } else {
                    assert!(report.required.is_empty(), "{case}");
                }
                for d in docs.iter().filter(|d| in_schema(d) && matches(d)) {
                    assert!(sat.satisfiable, "{case}: unsatisfiable, yet {d:?} matches");
                    let present = labels(&FlatHedge::from_hedge(d));
                    for r in &report.required {
                        assert!(present.contains(r), "{case}: {d:?} lacks required {r:?}");
                    }
                }
            }
        }
    }
    // The pool reaches every verdict, within the schema and without.
    for within in [false, true] {
        for sat in [false, true] {
            assert!(
                verdicts.contains(&(within, sat)),
                "no case with {within} {sat}"
            );
        }
    }
}

/// A positive containment verdict means per-document match-set inclusion;
/// a counterexample, when produced, genuinely separates the two queries.
#[test]
fn containment_implies_matchset_inclusion() {
    let pool = pool();
    let verdicts: Vec<Vec<bool>> = pool
        .iter()
        .map(|(_, qa)| {
            pool.iter()
                .map(|(_, qb)| qa.contained_in(qb).contained)
                .collect()
        })
        .collect();
    // Counterexample soundness is deterministic — once per pair.
    for (i, (pa, qa)) in pool.iter().enumerate() {
        for (j, (pb, qb)) in pool.iter().enumerate() {
            let verdict = qa.contained_in(qb);
            assert_eq!(verdict.contained, verdicts[i][j]);
            if let Some(cex) = &verdict.counterexample {
                let flat = FlatHedge::from_hedge(cex);
                let in_a: BTreeSet<u32> = pa.locate_naive(&flat).into_iter().collect();
                let in_b: BTreeSet<u32> = pb.locate_naive(&flat).into_iter().collect();
                assert!(
                    in_a.difference(&in_b).next().is_some(),
                    "counterexample {cex:?} does not separate pair ({i}, {j})"
                );
            }
        }
    }
    forall(
        "containment_inclusion",
        Config::with_cases(100),
        &zip2(
            zip2(pick_query(pool.len()), pick_query(pool.len())),
            arb_doc(),
        ),
        |((i, j), doc)| {
            if !verdicts[*i][*j] {
                return Ok(());
            }
            let flat = FlatHedge::from_hedge(doc);
            let in_a: BTreeSet<u32> = pool[*i].0.locate_naive(&flat).into_iter().collect();
            let in_b: BTreeSet<u32> = pool[*j].0.locate_naive(&flat).into_iter().collect();
            prop_assert!(
                in_a.is_subset(&in_b),
                "contained({i}, {j}) but {in_a:?} ⊄ {in_b:?} on {doc:?}"
            );
            Ok(())
        },
    );
}

/// Dead-state pruning is invisible to evaluation: the pruned and unpruned
/// compilations locate identical match sets, sequentially and through the
/// parallel evaluator at 1 and 2 workers.
#[test]
fn pruning_never_changes_match_sets() {
    let pool = pool();
    let plans: Vec<(Plan, Plan)> = pool
        .iter()
        .map(|(phr, _)| {
            (
                Plan::from_compiled(phr_compile::CompiledPhr::compile_with(phr, true)),
                Plan::from_compiled(phr_compile::CompiledPhr::compile_with(phr, false)),
            )
        })
        .collect();
    forall(
        "pruned_equals_unpruned",
        Config::with_cases(100),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            let (pruned, unpruned) = &plans[*i];
            let flat = FlatHedge::from_hedge(doc);
            let hits_p = pruned.locate(&flat);
            let hits_u = unpruned.locate(&flat);
            prop_assert_eq!(&hits_p, &hits_u);
            for jobs in [1usize, 2] {
                let par = ParallelEvaluator::new(jobs).repeat(pruned, &flat, 2);
                prop_assert_eq!(&par, &hits_u);
            }
            Ok(())
        },
    );
}

/// The facts `Plan::compile` derives are sound on random (PHR, document)
/// pairs: a document with a match holds every required label, and a
/// known-empty plan's query matches nothing.
#[test]
fn derived_facts_are_sound_on_random_documents() {
    forall(
        "derived_facts_sound",
        Config::with_cases(200),
        &zip2(arb_phr_src(3), arb_doc()),
        |(src, doc)| {
            let mut ab = props_alphabet();
            let phr = parse_phr(src, &mut ab).unwrap();
            let plan = Plan::compile(&phr);
            let flat = FlatHedge::from_hedge(doc);
            let hits = two_pass::locate(plan.compiled(), &flat);
            let facts = plan.facts();
            if facts.known_empty {
                prop_assert!(hits.is_empty(), "known-empty {src} located {hits:?}");
            }
            if !hits.is_empty() {
                let present = labels(&flat);
                for a in &facts.required_syms {
                    prop_assert!(present.contains(a), "{src} matched without {a:?}");
                }
            }
            Ok(())
        },
    );
}

/// The structural walk never claims more than the analyzer proves: for a
/// satisfiable PHR, its required labels are among `required_symbols`.
/// (Smaller PHRs than above: the analyzer is a decision procedure.)
#[test]
fn derived_facts_are_within_the_analyzers() {
    forall(
        "derived_within_analyzed",
        Config::with_cases(40),
        &arb_phr_src(2),
        |src| {
            let mut ab = props_alphabet();
            let phr = parse_phr(src, &mut ab).unwrap();
            let derived = Plan::compile(&phr).facts().required_syms.clone();
            let analyzed = AnalyzedQuery::new(&phr, None);
            if analyzed.satisfiable().satisfiable {
                let proved: BTreeSet<SymId> = analyzed.required_symbols(None).into_iter().collect();
                for a in &derived {
                    prop_assert!(proved.contains(a), "{src}: {a:?} not proved required");
                }
            }
            Ok(())
        },
    );
}

/// A path's universal PHR embedding derives at least the path's own
/// required labels: the PHR walk loses nothing the path walk finds.
#[test]
fn embedded_paths_derive_the_paths_facts() {
    forall(
        "embedded_path_facts",
        Config::with_cases(100),
        &arb_path_src(),
        |src| {
            let mut ab = props_alphabet();
            let path = parse_path(src, &mut ab).unwrap();
            let syms: Vec<_> = ab.syms().collect();
            let vars: Vec<_> = ab.vars().collect();
            let z = ab.sub("props-universal");
            let embedded = Plan::compile(&path.to_phr(&syms, &vars, z));
            let direct = Plan::path(&path, &ab);
            let derived: BTreeSet<SymId> = embedded.facts().required_syms.iter().copied().collect();
            for a in &direct.facts().required_syms {
                prop_assert!(derived.contains(a), "{src}: embedding lost {a:?}");
            }
            prop_assert_eq!(embedded.facts().known_empty, direct.facts().known_empty);
            Ok(())
        },
    );
}
