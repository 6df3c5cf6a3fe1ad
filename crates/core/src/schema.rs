//! Schema transformation (Section 8).
//!
//! Relational query languages return output *schemas* along with output
//! relations; the paper carries that over to XML: given an input schema
//! (a hedge automaton) and a query, compute an output schema describing
//! every possible query result.
//!
//! Pipeline for `select(e₁, e₂)`:
//!
//! 1. intersect the input schema with `M↓e₁` (Theorem 3) — a deterministic
//!    product whose states know whether the node's content matched `e₁`;
//! 2. intersect with `M↑e₂` (Theorem 5) — the match-identifying NHA whose
//!    unique successful computation knows, per node, whether the envelope
//!    matched `e₂`; the result is the *match-identifying intersection*;
//! 3. a state is **marked** when both marks hold, and **useful** when it
//!    occurs in at least one accepting computation ("only those marked
//!    states from which final state sequences can be reached");
//! 4. the **output schema** reuses the intersection's states and rules with
//!    final sequences = the single-letter words of marked useful states: it
//!    accepts exactly the subtrees that `select(e₁, e₂)` can extract from
//!    some document of the input schema.

use hedgex_automata::Regex;
use hedgex_ha::analysis::nha_useful;
use hedgex_ha::product::{intersect, product_nha_dha};
use hedgex_ha::{Dha, HState, Nha};
use hedgex_hedge::{SymId, VarId};

use crate::hre::Hre;
use crate::mark_down::MarkDown;
use crate::mark_up::MarkUp;
use crate::phr::Phr;
use crate::phr_compile::CompiledPhr;

/// The result of transforming an input schema by a selection query.
pub struct SelectionSchema {
    /// The match-identifying intersection: input schema × `M↓e₁` × `M↑e₂`.
    /// Accepts exactly the input-schema documents.
    pub intersection: Nha,
    /// Marked states: the node matched both halves of the query.
    pub marked: Vec<bool>,
    /// Marked states that occur in some accepting computation.
    pub live_marked: Vec<bool>,
    /// The output schema: accepts exactly the possible query results
    /// (single subtrees rooted at located nodes).
    pub output: Nha,
}

/// Transform `schema` by `select(e₁, e₂)` over document alphabet
/// `sigma` / `vars`.
pub fn transform_select(
    schema: &Dha,
    e1: &Hre,
    e2: &Phr,
    sigma: &[SymId],
    vars: &[VarId],
) -> SelectionSchema {
    let _span = hedgex_obs::span("core.schema.transform");
    // 1. schema × M↓e₁ (both deterministic).
    let down = MarkDown::build(e1, sigma);
    let inner = intersect(schema, &down.dha);
    let inner_marked: Vec<bool> = inner
        .pairs
        .iter()
        .map(|&(_, dq)| down.marked[dq as usize])
        .collect();

    // 2. × M↑e₂ (non-deterministic).
    let up = MarkUp::build(&CompiledPhr::compile(e2), sigma, vars);
    let prod = product_nha_dha(&up.nha, &inner.dha);
    let marked: Vec<bool> = prod
        .pairs
        .iter()
        .map(|&(nq, dq)| up.marked[nq as usize] && inner_marked[dq as usize])
        .collect();

    // 3. usefulness on the intersection.
    let useful = nha_useful(&prod.nha);
    let live_marked: Vec<bool> = marked.iter().zip(&useful).map(|(&m, &u)| m && u).collect();

    // 4. output schema: same rules, finals = live marked singletons.
    let finals_re = Regex::any_of(
        (0..prod.nha.num_states())
            .filter(|&q| live_marked[q as usize])
            .map(|q| Regex::sym(q as HState)),
    );
    let output = prod
        .nha
        .clone()
        .with_finals(hedgex_automata::Nfa::from_regex(&finals_re));

    hedgex_obs::counter_inc("core.schema.transforms");
    hedgex_obs::counter_add(
        "core.schema.intersection_states",
        u64::from(prod.nha.num_states()),
    );
    hedgex_obs::counter_add(
        "core.schema.live_marked",
        live_marked.iter().filter(|&&b| b).count() as u64,
    );

    SelectionSchema {
        intersection: prod.nha,
        marked,
        live_marked,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hre::parse_hre;
    use crate::phr::parse_phr;
    use crate::query::SelectQuery;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_ha::DhaBuilder;
    use hedgex_hedge::{Alphabet, FlatHedge, Hedge, Tree};

    /// Exhaustive soundness/completeness on small documents: the output
    /// schema accepts a tree iff it is the subtree of a located node of
    /// some small schema document. (Completeness is checked against
    /// documents within the enumeration budget, which the chosen schemas
    /// make sufficient.)
    fn check(
        schema: &Dha,
        e1: &str,
        e2: &str,
        ab: &mut Alphabet,
        doc_budget: usize,
        out_budget: usize,
    ) {
        let e1p = parse_hre(e1, ab).unwrap();
        let e2p = parse_phr(e2, ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let st = transform_select(schema, &e1p, &e2p, &syms, &vars);
        let query = SelectQuery {
            subhedge: e1p,
            envelope: e2p,
        };

        // Collect every result subtree from every accepted small document.
        let mut expected: std::collections::HashSet<Hedge> = std::collections::HashSet::new();
        for h in enumerate_hedges(&syms, &vars, doc_budget) {
            let f = FlatHedge::from_hedge(&h);
            let in_schema = schema.accepts_flat(&f);
            assert_eq!(
                st.intersection.accepts_flat(&f),
                in_schema,
                "intersection must accept exactly the schema documents ({h:?})"
            );
            if !in_schema {
                continue;
            }
            for n in query.locate_naive(&f) {
                expected.insert(Hedge::tree(f.to_tree(n)));
            }
        }

        // The output schema accepts exactly those subtrees (within budget).
        for t in enumerate_hedges(&syms, &vars, out_budget) {
            let got = st.output.accepts(&t);
            let want = expected.contains(&t);
            assert_eq!(got, want, "output schema wrong on {t:?}");
        }
    }

    /// Schema: top level `a*`; every `a` contains `b* `; `b`s are empty.
    fn simple_schema(ab: &mut Alphabet) -> Dha {
        let a = ab.sym("a");
        let b = ab.sym("b");
        let mut d = DhaBuilder::new(3, 2);
        d.rule(b, Regex::Epsilon, 1)
            .rule(a, Regex::sym(1).star(), 0)
            .finals(Regex::sym(0).star());
        d.build()
    }

    #[test]
    fn select_bs_under_a() {
        let mut ab = Alphabet::new();
        let schema = simple_schema(&mut ab);
        // Select b nodes (empty content) whose parent is a at top level.
        let u = "(a<%z>|b<%z>)*^z";
        check(
            &schema,
            "ε",
            &format!("[{u} ; b ; {u}][{u} ; a ; {u}]"),
            &mut ab,
            4,
            3,
        );
    }

    #[test]
    fn select_as_with_content() {
        let mut ab = Alphabet::new();
        let schema = simple_schema(&mut ab);
        // Select top-level a's whose content is exactly one b.
        let u = "(a<%z>|b<%z>)*^z";
        check(&schema, "b", &format!("[{u} ; a ; {u}]"), &mut ab, 4, 3);
    }

    #[test]
    fn empty_selection_gives_empty_output_schema() {
        let mut ab = Alphabet::new();
        let schema = simple_schema(&mut ab);
        // c never occurs in schema documents.
        let e1 = parse_hre("ε", &mut ab).unwrap();
        let e2 = parse_phr("[ε ; c ; ε]", &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let st = transform_select(&schema, &e1, &e2, &syms, &[]);
        assert!(st.live_marked.iter().all(|&m| !m));
        for t in enumerate_hedges(&syms, &[], 3) {
            assert!(!st.output.accepts(&t));
        }
    }

    #[test]
    fn output_includes_only_reachable_shapes() {
        // Query matches any b with any parent chain, but the schema only
        // allows b under a — so the output is exactly the single tree `b`.
        let mut ab = Alphabet::new();
        let schema = simple_schema(&mut ab);
        let u = "(a<%z>|b<%z>)*^z";
        let e1 = parse_hre(u, &mut ab).unwrap();
        let e2 = parse_phr(
            &format!("[{u} ; b ; {u}]([{u} ; a ; {u}]|[{u} ; b ; {u}])*"),
            &mut ab,
        )
        .unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let st = transform_select(&schema, &e1, &e2, &syms, &[]);
        let b = ab.get_sym("b").unwrap();
        let a = ab.get_sym("a").unwrap();
        assert!(st.output.accepts(&Hedge::leaf(b)));
        assert!(!st.output.accepts(&Hedge::leaf(a)));
        assert!(!st.output.accepts(&Hedge::node(b, Hedge::leaf(b))));
        assert!(!st
            .output
            .accepts(&Hedge(vec![Tree::Node(b, Hedge::empty()); 2])));
    }
}
