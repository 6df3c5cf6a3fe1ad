//! Store round-trip and pruning-soundness properties (ISSUE 10 tentpole):
//! serializing a [`DocumentStore`] and loading it back is the identity on
//! documents, alphabet, *and* the structural index; and index-pruned
//! evaluation returns bit-identical answers to the plain evaluators on
//! every generated corpus, in every mode, at every worker count. The
//! pruning claim is the one that matters — both prunes (postings-emptiness
//! reject, candidate-range skipping) are sound over-approximations, so any
//! divergence from `Plan::locate_into` is a soundness bug, not noise.
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner and is exercised
//! by CI both with default features and with `--no-default-features`
//! (pruning must not depend on instrumentation).

use std::cell::RefCell;

use hedgex::core::path_expr::parse_path;
use hedgex::hedge::{FlatBuilder, Hedge, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert_eq, zip2, Config, Gen, Rng};

// ---------------------------------------------------------------------------
// Generators (same document distribution as tests/mode_props.rs)
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

fn gen_hedge(rng: &mut Rng) -> Hedge {
    Hedge(
        (0..rng.random_range(0..4usize))
            .map(|_| gen_tree(rng, 3))
            .collect(),
    )
}

/// A corpus of 0–4 random documents (empty documents included — a store
/// must round-trip them and prune them like anything else).
fn arb_corpus() -> Gen<Vec<Hedge>> {
    Gen::new(|rng| {
        (0..rng.random_range(0..5usize))
            .map(|_| gen_hedge(rng))
            .collect::<Vec<Hedge>>()
    })
    .with_shrink(|docs| {
        shrink_vec(docs, |h| {
            shrink_vec(&h.0, shrink_tree)
                .into_iter()
                .map(Hedge)
                .collect()
        })
    })
}

fn pick_query(n: usize) -> Gen<usize> {
    Gen::new(move |rng| rng.random_range(0..n))
}

/// The alphabet the generators assume: `a`/`b` at SymId 0/1, `$v` at
/// VarId 0 (documents may contain the variable, so the store must carry
/// it).
fn base_alphabet() -> Alphabet {
    let mut ab = Alphabet::new();
    assert_eq!(ab.sym("a"), SymId(0));
    assert_eq!(ab.sym("b"), SymId(1));
    assert_eq!(ab.var("v"), VarId(0));
    ab
}

fn named(docs: &[Hedge]) -> Vec<(String, FlatHedge)> {
    docs.iter()
        .enumerate()
        .map(|(i, h)| (format!("doc{i:02}.xml"), FlatHedge::from_hedge(h)))
        .collect()
}

/// Query pool: plain PHRs plus path expressions through their universal
/// PHR embedding, every plan carrying the structural facts
/// `Plan::compile` derives (the postings quick-reject) and a `match_syms`
/// bound (the candidate-range prune). `c` appears in no generated
/// document, so its plans must prune whole corpora.
fn plan_pool() -> Vec<Plan> {
    let mut ab = base_alphabet();
    let u = "(a<%z>|b<%z>|$v)*^z";
    let mut plans: Vec<Plan> = [
        "[ε ; a ; ε]".to_string(),
        "[ε ; a ; b]".to_string(),
        "[b ; a ; ε][ε ; b ; ε]".to_string(),
        format!("[{u} ; a ; {u}]"),
        format!("([ε ; a ; ε]|[{u} ; b ; a])"),
        format!("([{u} ; a ; {u}]|[{u} ; b ; {u}])*"),
        "[a* ; b ; a*]".to_string(),
        "[ε ; c ; ε]".to_string(),
    ]
    .iter()
    .map(|src| Plan::compile(&parse_phr(src, &mut ab).unwrap()))
    .collect();
    for src in ["a b", "b* a", "a c"] {
        let path = parse_path(src, &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let z = ab.sub("props-universal");
        plans.push(Plan::compile(&path.to_phr(&syms, &vars, z)));
    }
    plans
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

/// Serialization is the identity: build → bytes → load compares equal on
/// every field (documents, names, alphabet, postings, subtree
/// ends), and the reload survives a second round trip byte-identically.
#[test]
fn store_round_trips_through_bytes_on_random_corpora() {
    let ab = base_alphabet();
    forall(
        "store_round_trip",
        Config::with_cases(300),
        &arb_corpus(),
        |docs| {
            let store = DocumentStore::build(ab.clone(), named(docs));
            let bytes = store.to_bytes();
            let reloaded = match DocumentStore::from_bytes(&bytes) {
                Ok(s) => s,
                Err(e) => return Err(format!("load failed on {docs:?}: {e}")),
            };
            prop_assert_eq!(&reloaded, &store, "round trip on {:?}", docs);
            prop_assert_eq!(
                reloaded.to_bytes(),
                bytes,
                "re-serialization differs on {:?}",
                docs
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Pruning soundness
// ---------------------------------------------------------------------------

/// The tentpole claim: indexed answers are bit-identical to the plain
/// evaluators. Per document across all three modes, and corpus-wide at
/// `jobs` ∈ {1, 2} — `Plan::locate_into` is the ground truth (itself
/// checked against `locate_naive` elsewhere).
#[test]
fn indexed_evaluation_agrees_with_plain_evaluation() {
    let ab = base_alphabet();
    let pool = plan_pool();
    let scratch = RefCell::new(EvalScratch::new());
    forall(
        "store_pruning_soundness",
        Config::with_cases(300),
        &zip2(pick_query(pool.len()), arb_corpus()),
        |(i, docs)| {
            let plan = &pool[*i];
            let store = DocumentStore::build(ab.clone(), named(docs));
            let query = StoreQuery::new(&store, plan);
            let s = &mut *scratch.borrow_mut();

            let mut expected: Vec<Vec<_>> = Vec::new();
            let mut candidates = Vec::new();
            for (d, doc) in store.docs().iter().enumerate() {
                let plain = plan.locate_into(doc.hedge(), s).to_vec();
                let outcome = query.eval_doc_into(doc, s, &mut candidates, EvalMode::Locate);
                prop_assert_eq!(
                    s.located(),
                    &plain[..],
                    "locate set, query {} doc {} of {:?}",
                    i,
                    d,
                    docs
                );
                prop_assert_eq!(outcome, EvalOutcome::Located(plain.len()));
                prop_assert_eq!(
                    query.eval_doc_into(doc, s, &mut candidates, EvalMode::Count),
                    EvalOutcome::Count(plain.len() as u64),
                    "count, query {} doc {}",
                    i,
                    d
                );
                prop_assert_eq!(
                    query.eval_doc_into(doc, s, &mut candidates, EvalMode::Exists),
                    EvalOutcome::Exists(!plain.is_empty()),
                    "exists, query {} doc {}",
                    i,
                    d
                );
                expected.push(plain);
            }

            for jobs in [1usize, 2] {
                prop_assert_eq!(
                    &query.locate_corpus(jobs),
                    &expected,
                    "locate_corpus, query {} jobs {}",
                    i,
                    jobs
                );
                let counts: Vec<u64> = expected.iter().map(|m| m.len() as u64).collect();
                prop_assert_eq!(&query.count_corpus(jobs), &counts);
                let some: Vec<bool> = expected.iter().map(|m| !m.is_empty()).collect();
                prop_assert_eq!(&query.exists_corpus(jobs), &some);
            }

            // The index itself stays honest on these corpora: postings are
            // exactly the label-grouped preorder, so a symbol absent from
            // the document has empty postings iff no node carries it.
            for doc in store.docs() {
                let h = doc.hedge();
                for sym in [SymId(0), SymId(1)] {
                    let ground: Vec<_> = (0..h.num_nodes() as u32)
                        .filter(|&n| h.label(n) == hedgex::hedge::flat::FlatLabel::Sym(sym))
                        .collect();
                    prop_assert_eq!(
                        doc.index().postings(sym),
                        &ground[..],
                        "postings for {:?}",
                        sym
                    );
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Subtree extents
// ---------------------------------------------------------------------------

/// One step of a random document walk: open an element, add a leaf, or
/// close the innermost open element.
#[derive(Debug, Clone, Copy)]
enum Step {
    Open(u32),
    Leaf(u32),
    Close,
}

/// A document as a walk of [`Step`]s. One case in three is a chain about
/// 5 000 levels deep with leaves and short detours along it; the rest are
/// bushy and shallow. Any sub-walk is a document too (see [`build_walk`]),
/// so shrinking just drops steps.
fn arb_walk() -> Gen<Vec<Step>> {
    Gen::new(|rng| {
        let (len, p_open, p_close) = if rng.random_range(0..3u32) == 0 {
            (5_000 + rng.random_range(0..200usize), 0.97, 0.0)
        } else {
            (rng.random_range(0..60usize), 0.4, 0.35)
        };
        (0..len)
            .map(|_| {
                let sym = rng.random_range(0..2u32);
                let roll = rng.random_range(0..1000u32) as f64 / 1000.0;
                if roll < p_open {
                    Step::Open(sym)
                } else if roll < p_open + p_close {
                    Step::Close
                } else {
                    Step::Leaf(sym)
                }
            })
            .collect()
    })
    .with_shrink(|walk: &Vec<Step>| shrink_vec(walk, |_| Vec::new()))
}

/// Replay a walk into an arena: a close with nothing open is skipped and
/// whatever is still open at the end is closed.
fn build_walk(walk: &[Step]) -> FlatHedge {
    let mut b = FlatBuilder::new();
    let mut depth = 0usize;
    for step in walk {
        match *step {
            Step::Open(s) => {
                b.open(SymId(s));
                depth += 1;
            }
            Step::Leaf(s) => {
                b.open(SymId(s));
                b.close();
            }
            Step::Close if depth > 0 => {
                b.close();
                depth -= 1;
            }
            Step::Close => {}
        }
    }
    for _ in 0..depth {
        b.close();
    }
    b.finish()
}

/// The arena's subtree ends against the parent-chain oracle: walking up
/// from every node credits each ancestor with one descendant, and the
/// ancestor's extent must be exactly itself plus that many nodes, ending
/// one past its last descendant. The loaded store derives the same ends
/// and the same index.
#[test]
fn subtree_ends_equal_the_parent_chain_oracle() {
    forall(
        "store_subtree_ends",
        Config::with_cases(60),
        &arb_walk(),
        |walk| {
            let h = build_walk(walk);
            let n = h.num_nodes();
            let mut count = vec![0usize; n];
            let mut last = (0..n as u32).collect::<Vec<_>>();
            for d in 0..n as u32 {
                let mut anc = h.parent(d);
                while let Some(a) = anc {
                    count[a as usize] += 1;
                    last[a as usize] = last[a as usize].max(d);
                    anc = h.parent(a);
                }
            }
            let ab = base_alphabet();
            let store = DocumentStore::build(ab, vec![("walk.xml".to_string(), h)]);
            let end = store.docs()[0].hedge().subtree_ends();
            prop_assert_eq!(end.len(), n);
            for id in 0..n {
                prop_assert_eq!(end[id] as usize, id + 1 + count[id], "extent of {}", id);
                prop_assert_eq!(end[id], last[id] + 1, "last descendant of {}", id);
            }
            let reloaded = DocumentStore::from_bytes(&store.to_bytes())
                .map_err(|e| format!("load failed: {e}"))?;
            prop_assert_eq!(reloaded.docs()[0].hedge().subtree_ends(), end);
            prop_assert_eq!(reloaded.docs()[0].index(), store.docs()[0].index());
            Ok(())
        },
    );
}
