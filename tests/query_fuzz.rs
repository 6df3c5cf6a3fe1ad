//! Query fuzz suite: 300 seeded cases of query text through parse → `Plan`
//! → all three modes on small documents.
//!
//! The text is well-formed path, PHR and HRE syntax, truncations of it,
//! token soup, and nesting or size one step past the parsers' limits. Every
//! case must end in a typed parse error or in answers equal to the
//! reference evaluators' — `PathExpr::locate` for paths, the two literal
//! traversals for PHRs, `SelectQuery::locate_naive` for `select(e₁, e₂)` —
//! and must never panic. Generated queries stay small (at most 4 triplets
//! and 8 regex nodes), so compile cost is not what this suite measures.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hedgex::core::hre::{MAX_QUERY_NESTING, MAX_QUERY_STEPS};
use hedgex::core::phr::MAX_TRIPLETS;
use hedgex::core::two_pass;
use hedgex::prelude::*;
use hedgex_testkit::Rng;

const CASES: u64 = 300;

/// The documents every case runs on, in the compact hedge syntax.
const DOCS: [&str; 4] = [
    "a<b a<b $v> b> b<a>",
    "",
    "b<b<b<a>>> a $v",
    "a<a<a b> b<a>> a<b>",
];

/// One parser's worth of query text.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Path,
    Phr,
    Hre,
}

/// A regex over `atom`s with at most `budget` nodes: concatenation,
/// alternation, `*`, `+` and `?`.
fn gen_regex(
    rng: &mut Rng,
    budget: &mut usize,
    atom: &mut dyn FnMut(&mut Rng) -> String,
) -> String {
    if *budget <= 3 || rng.random_bool(0.35) {
        *budget = budget.saturating_sub(1);
        return atom(rng);
    }
    *budget -= 1;
    match rng.random_range(0..5u32) {
        0 => {
            let l = gen_regex(rng, budget, atom);
            format!("{l} {}", gen_regex(rng, budget, atom))
        }
        1 => {
            let l = gen_regex(rng, budget, atom);
            format!("({l}|{})", gen_regex(rng, budget, atom))
        }
        2 => format!("({})*", gen_regex(rng, budget, atom)),
        3 => format!("({})+", gen_regex(rng, budget, atom)),
        _ => format!("({})?", gen_regex(rng, budget, atom)),
    }
}

/// An HRE of at most `budget` nodes: the regex forms plus `a<e>`, the
/// vertical closure `e^z` and graded bounds.
fn gen_hre(rng: &mut Rng, budget: &mut usize) -> String {
    const ATOMS: [&str; 8] = ["ε", "!", "$v", "a", "b", "a<%z>", "b<%z>", "c"];
    if *budget <= 3 || rng.random_bool(0.35) {
        *budget = budget.saturating_sub(1);
        return rng.choose(&ATOMS).to_string();
    }
    *budget -= 1;
    match rng.random_range(0..8u32) {
        0 => {
            let l = gen_hre(rng, budget);
            format!("{l} {}", gen_hre(rng, budget))
        }
        1 => {
            let l = gen_hre(rng, budget);
            format!("({l}|{})", gen_hre(rng, budget))
        }
        2 => format!("({})*", gen_hre(rng, budget)),
        3 => format!("({})?", gen_hre(rng, budget)),
        4 => format!("{}<{}>", rng.choose(&["a", "b"]), gen_hre(rng, budget)),
        5 => format!("({})^z", gen_hre(rng, budget)),
        6 => format!("({}){{<=2}}", gen_hre(rng, budget)),
        _ => format!("({}){{>=1}}", gen_hre(rng, budget)),
    }
}

fn gen_path(rng: &mut Rng) -> String {
    let mut budget = 8;
    gen_regex(rng, &mut budget, &mut |rng: &mut Rng| {
        rng.choose(&["a", "b", "c"]).to_string()
    })
}

fn gen_phr(rng: &mut Rng) -> String {
    let mut triplets = 4;
    let mut budget = 7;
    gen_regex(rng, &mut budget, &mut |rng: &mut Rng| {
        if triplets == 0 {
            return "[ε ; a ; ε]".to_string();
        }
        triplets -= 1;
        let elder = gen_hre(rng, &mut 8);
        let label = rng.choose(&["a", "b"]);
        format!("[{elder} ; {label} ; {}]", gen_hre(rng, &mut 8))
    })
}

fn well_formed(rng: &mut Rng, kind: Kind) -> String {
    match kind {
        Kind::Path => gen_path(rng),
        Kind::Phr => gen_phr(rng),
        Kind::Hre => gen_hre(rng, &mut 8),
    }
}

fn token_soup(rng: &mut Rng) -> String {
    const TOKENS: [&str; 26] = [
        "[", "]", ";", "(", ")", "|", "*", "+", "?", "<", ">", "%z", "^z", "$v", "a", "b", "ε",
        "!", "@z", "{>=2}", "{", "}", ",", " ", "$#text", "{<=",
    ];
    (0..rng.random_range(1..13usize))
        .map(|_| *rng.choose(&TOKENS))
        .collect()
}

/// Text one step past a parser limit, which must be a typed error.
fn past_a_limit(rng: &mut Rng, kind: Kind) -> String {
    let deep = MAX_QUERY_NESTING + 1;
    let parens = |inner: &str| format!("{}{inner}{}", "(".repeat(deep), ")".repeat(deep));
    let nodes = format!("{}a{}", "a<".repeat(deep), ">".repeat(deep));
    let long = vec!["a"; MAX_QUERY_STEPS + 1].join(" ");
    match (kind, rng.random_range(0..3u32)) {
        (Kind::Path, 0) => parens("a"),
        (Kind::Path, _) => format!("{}a*", "a ".repeat(MAX_QUERY_STEPS / 2)),
        (Kind::Phr, 0) => "[ε ; a ; ε]".repeat(MAX_TRIPLETS + 1),
        (Kind::Phr, 1) => parens("[ε ; a ; ε]"),
        (Kind::Phr, _) => format!("[{nodes} ; a ; ε]"),
        (Kind::Hre, 0) => parens("a"),
        (Kind::Hre, 1) => nodes,
        (Kind::Hre, _) => long,
    }
}

/// The documents, interned into `ab` before any query (as `hxq` does).
fn documents(ab: &mut Alphabet) -> Vec<FlatHedge> {
    assert_eq!(ab.sym("a"), hedgex::hedge::SymId(0));
    assert_eq!(ab.sym("b"), hedgex::hedge::SymId(1));
    ab.var("v");
    DOCS.iter()
        .map(|src| FlatHedge::from_hedge(&parse_hedge(src, ab).unwrap()))
        .collect()
}

/// All three modes of `plan` on `doc` against the reference match set.
fn agree(plan: &Plan, doc: &FlatHedge, want: &[u32]) -> Result<(), String> {
    let mut scratch = EvalScratch::new();
    let located = plan.locate_into(doc, &mut scratch).to_vec();
    if located != want {
        return Err(format!("locate {located:?}, reference {want:?}"));
    }
    let count = plan.eval_into(doc, &mut scratch, EvalMode::Count);
    if count != EvalOutcome::Count(want.len() as u64) {
        return Err(format!("{count:?}, reference {}", want.len()));
    }
    let exists = plan.eval_into(doc, &mut scratch, EvalMode::Exists);
    if exists != EvalOutcome::Exists(!want.is_empty()) {
        return Err(format!("{exists:?}, reference {want:?}"));
    }
    Ok(())
}

/// Run one case. `Ok(false)` is a typed parse error, `Ok(true)` answers
/// that agree with the reference, `Err` a disagreement.
fn run_case(kind: Kind, text: &str) -> Result<bool, String> {
    let mut ab = Alphabet::new();
    let docs = documents(&mut ab);
    match kind {
        Kind::Path => {
            let Ok(path) = parse_path(text, &mut ab) else {
                return Ok(false);
            };
            let plan = Plan::path(&path, &ab);
            for doc in &docs {
                agree(&plan, doc, &path.locate(doc))?;
            }
        }
        Kind::Phr => {
            let Ok(phr) = parse_phr(text, &mut ab) else {
                return Ok(false);
            };
            let plan = Plan::compile(&phr);
            for doc in &docs {
                agree(&plan, doc, &two_pass::locate(plan.compiled(), doc))?;
            }
        }
        Kind::Hre => {
            let Ok(subhedge) = parse_hre(text, &mut ab) else {
                return Ok(false);
            };
            // select(e₁, e₂) on both backends: a PHR envelope, and a path
            // envelope checked against its §5 embedding.
            let path = parse_path("(a|b)* a", &mut ab).unwrap();
            let syms: Vec<_> = ab.syms().collect();
            let vars: Vec<_> = ab.vars().collect();
            let z = ab.sub("fuzz-universal");
            let embedded = path.to_phr(&syms, &vars, z);
            let phr = parse_phr("[(a<%z>|b<%z>|$v)*^z ; a ; ε]([ε ; b ; ε])*", &mut ab).unwrap();
            for (plan, envelope) in [
                (Plan::compile(&phr), phr),
                (Plan::path(&path, &ab), embedded),
            ] {
                let select = CompiledSelect::new(plan, &subhedge);
                let query = SelectQuery {
                    subhedge: subhedge.clone(),
                    envelope,
                };
                let mut scratch = SelectScratch::new();
                for doc in &docs {
                    let got = select.locate_into(doc, &mut scratch);
                    let want = query.locate_naive(doc);
                    if got != want {
                        return Err(format!("select {got:?}, reference {want:?}"));
                    }
                }
            }
        }
    }
    Ok(true)
}

#[test]
fn seeded_queries_error_or_agree_and_never_panic() {
    let kinds = [Kind::Path, Kind::Phr, Kind::Hre];
    let (mut answered, mut rejected) = (0, 0);
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let kind = *rng.choose(&kinds);
        let (text, must_fail) = match seed % 10 {
            0..=3 => (well_formed(&mut rng, kind), false),
            4 | 5 => {
                let text: Vec<char> = well_formed(&mut rng, kind).chars().collect();
                let cut = rng.random_range(0..text.len());
                (text[..cut].iter().collect(), false)
            }
            6..=8 => (token_soup(&mut rng), false),
            _ => (past_a_limit(&mut rng, kind), true),
        };
        let shown: String = text.chars().take(120).collect();
        let verdict = catch_unwind(AssertUnwindSafe(|| run_case(kind, &text)))
            .unwrap_or_else(|_| panic!("seed {seed}: {kind:?} {shown:?} panicked"));
        match verdict {
            Ok(true) => {
                assert!(!must_fail, "seed {seed}: {kind:?} past a limit parsed");
                answered += 1;
            }
            Ok(false) => rejected += 1,
            Err(why) => panic!("seed {seed}: {kind:?} {shown:?}: {why}"),
        }
    }
    // The generators must exercise both outcomes in earnest.
    assert!(answered >= 60, "only {answered} cases answered");
    assert!(rejected >= 60, "only {rejected} cases were rejected");
}

/// A triplet slot is parsed in place: an HRE text whose bare parse fails
/// before its last byte fails at the same byte, offset by the slot's
/// start, in a triplet's younger slot. Texts holding ';' or ']' are left
/// out, since those end a slot but are name characters in a bare HRE.
#[test]
fn hre_errors_keep_their_position_in_a_triplet_slot() {
    const PREFIX: &str = "[ε ; a ; ";
    let mut checked = 0;
    for seed in 0..1000 {
        let mut rng = Rng::seed_from_u64(seed);
        let text: String = match seed % 3 {
            0 => well_formed(&mut rng, Kind::Hre),
            1 => {
                let text: Vec<char> = well_formed(&mut rng, Kind::Hre).chars().collect();
                let cut = rng.random_range(0..text.len());
                text[..cut].iter().collect()
            }
            _ => token_soup(&mut rng),
        };
        if text.contains([';', ']']) {
            continue;
        }
        let Err(bare) = parse_hre(&text, &mut Alphabet::new()) else {
            continue;
        };
        if bare.pos + 1 >= text.len() {
            continue;
        }
        let slot = parse_phr(&format!("{PREFIX}{text}]"), &mut Alphabet::new())
            .expect_err("a bad slot fails the triplet");
        assert_eq!(
            slot.pos,
            PREFIX.len() + bare.pos,
            "seed {seed}: {text:?}: in a slot {slot}, bare {bare}"
        );
        checked += 1;
    }
    assert!(
        checked >= 100,
        "only {checked} texts failed before their end"
    );
}
