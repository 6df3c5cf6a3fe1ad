//! Pinned automaton sizes of the paper's constructions on the benchmark
//! fixtures.
//!
//! Theorem 1's subset construction, Theorem 4's product and classes, the
//! `N` mirror automaton, the §8 path DFA, Theorem 3's `M↓e`, Theorem 5's
//! `M↑e` and the schema transformation are each deterministic: the same
//! input gives the same reachable state space. These numbers were recorded
//! from the constructions as first written; a refactor of the construction
//! code must reproduce every one of them exactly.

use hedgex::core::mark_down::MarkDown;
use hedgex::core::mark_up::MarkUp;
use hedgex::core::path_expr::CompiledPath;
use hedgex::core::phr::Phr;
use hedgex::core::schema::transform_select;
use hedgex::ha::paper::m1;
use hedgex::ha::{determinize, DhaBuilder, Leaf};
use hedgex::prelude::*;
use hedgex::xml::corpus::DOCBOOK_SYMS;
use hedgex_automata::Regex;
use hedgex_bench::{
    depth_memory_nha, figure_before_table_phr, figure_path, layered_schema_nha, varied_phr,
};

/// `[components, reduced_components, |M|, classes, |N|]` of one PHR.
fn phr_sizes(phr: &Phr, reduce: bool) -> Vec<u64> {
    let c = CompiledPhr::compile_with(phr, reduce);
    let mut v: Vec<u64> = Vec::new();
    for &(n, d) in &c.stats.components {
        v.push(u64::from(n));
        v.push(u64::from(d));
    }
    v.extend(c.stats.reduced_components.iter().map(|&d| u64::from(d)));
    v.push(u64::from(c.m.num_states()));
    v.push(c.classes.num_classes() as u64);
    v.push(c.n_states_materialized() as u64);
    v
}

/// Every DocBook element name, interned in corpus order.
fn docbook_alphabet() -> Alphabet {
    let mut ab = Alphabet::new();
    for name in DOCBOOK_SYMS {
        ab.sym(name);
    }
    ab
}

#[test]
fn figure_before_table_phr_sizes_are_pinned() {
    let mut ab = docbook_alphabet();
    let phr = figure_before_table_phr(&mut ab);
    // Eight components: (NHA, DHA) per side, then the reduced DHA sizes.
    let components = [
        10, 11, 20, 12, 10, 11, 10, 11, 10, 11, 10, 11, 10, 11, 10, 11,
    ];
    let mut reduced = components.to_vec();
    reduced.extend([3, 4, 3, 3, 3, 3, 3, 3, 4, 6, 5]);
    assert_eq!(phr_sizes(&phr, true), reduced);
    let mut raw = components.to_vec();
    raw.extend([11, 12, 11, 11, 11, 11, 11, 11, 12, 21, 5]);
    assert_eq!(phr_sizes(&phr, false), raw);
}

#[test]
fn varied_phr_sizes_are_pinned() {
    for t in 1..=4 {
        let mut ab = Alphabet::new();
        let phr = varied_phr(t, &mut ab);
        // Per triplet the elder side is (6 + 2t, 5 + t) and the younger
        // (3 + t, 4 + t) as (NHA, DHA) states; every side reduces to 3.
        let t = t as u64;
        let mut want = Vec::new();
        for _ in 0..t {
            want.extend([6 + 2 * t, 5 + t, 3 + t, 4 + t]);
        }
        want.extend(vec![3; 2 * t as usize]);
        want.extend([3, 3, 3]);
        assert_eq!(phr_sizes(&phr, true), want, "varied_phr({t})");
    }
}

#[test]
fn determinize_sizes_are_pinned() {
    let mut ab = Alphabet::new();
    assert_eq!(determinize(&m1(&mut ab)).dha.num_states(), 5);
    for (k, want) in [(2, 5), (3, 9), (4, 17)] {
        let mut ab = Alphabet::new();
        let det = determinize(&depth_memory_nha(k, &mut ab));
        assert_eq!(det.dha.num_states(), want, "depth_memory_nha({k})");
    }
    for (k, want) in [(2, 4), (4, 6), (8, 10)] {
        let mut ab = Alphabet::new();
        let det = determinize(&layered_schema_nha(k, &mut ab));
        assert_eq!(det.dha.num_states(), want, "layered_schema_nha({k})");
    }
}

#[test]
fn path_dfa_size_is_pinned() {
    let mut ab = docbook_alphabet();
    let path = figure_path(&mut ab);
    assert_eq!(CompiledPath::compile(&path, &ab).num_states(), 5);
}

#[test]
fn marking_automata_sizes_are_pinned() {
    let mut ab = Alphabet::new();
    let e = parse_hre("a<b*> c?", &mut ab).unwrap();
    ab.sym("other");
    let sigma: Vec<_> = ab.syms().collect();
    assert_eq!(MarkDown::build(&e, &sigma).dha.num_states(), 8);

    let mut ab = Alphabet::new();
    let u = "(a<%z>|b<%z>)*^z";
    let phr = parse_phr(&format!("[{u} ; b ; a<{u}>][{u} ; a ; {u}]"), &mut ab).unwrap();
    let sigma: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let up = MarkUp::build(&CompiledPhr::compile(&phr), &sigma, &vars);
    assert_eq!(up.nha.num_states(), 36);
}

#[test]
fn schema_transform_sizes_are_pinned() {
    let mut ab = Alphabet::new();
    let doc = ab.sym("doc");
    let entry = ab.sym("entry");
    let key = ab.sym("key");
    let value = ab.sym("value");
    let text = ab.var("#text");
    // States: 0 doc, 1 entry, 2 key, 3 value, 4 text, 5 sink.
    let mut b = DhaBuilder::new(6, 5);
    b.leaf(Leaf::Var(text), 4)
        .rule(doc, Regex::sym(1).star(), 0)
        .rule(entry, Regex::sym(2).concat(Regex::sym(3)), 1)
        .rule(key, Regex::sym(4), 2)
        .rule(value, Regex::sym(4), 3)
        .finals(Regex::sym(0));
    let schema = b.build();
    let u = "(doc<%z>|entry<%z>|key<%z>|value<%z>|$#text)*^z";
    let e1 = parse_hre("$#text", &mut ab).unwrap();
    let e2 = parse_phr(
        &format!("[{u} ; value ; {u}][{u} ; entry ; {u}][{u} ; doc ; {u}]"),
        &mut ab,
    )
    .unwrap();
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let st = transform_select(&schema, &e1, &e2, &syms, &vars);
    let count = |v: &[bool]| v.iter().filter(|&&b| b).count();
    assert_eq!(st.intersection.num_states(), 72);
    assert_eq!(count(&st.marked), 4);
    assert_eq!(count(&st.live_marked), 1);
}
