//! Selection queries (Section 6, Definitions 20–22).
//!
//! `select(e₁, e₂)` locates every node whose *subhedge* lies in `L(e₁)` and
//! whose *envelope* matches the pointed hedge representation `e₂`.
//!
//! Two evaluators:
//!
//! * [`SelectQuery::locate_naive`] — the definitions executed literally
//!   (build each node's subhedge and envelope, run the specification
//!   matchers). Quadratic; the executable spec and benchmark baseline.
//! * [`CompiledSelect`] — the paper's pipeline: one bottom-up traversal for
//!   `e₁`'s marks (Theorem 3) intersected with the envelope's matches from
//!   a [`Plan`] — Algorithm 1's traversals for a PHR (Theorem 4), or the
//!   Section 8 DFA for a classical path. Compile once, evaluate any number
//!   of hedges in time linear in their node count.

use hedgex_ha::Dha;
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{FlatHedge, NodeId, PointedHedge};
use hedgex_obs as obs;

use crate::hre::Hre;
use crate::mark_down::{compile_to_dha, mark_run_into};
use crate::phr::Phr;
use crate::plan::Plan;
use crate::two_pass;

/// A selection query `select(e₁, e₂)` (Definition 20).
#[derive(Debug, Clone)]
pub struct SelectQuery {
    /// Condition on the subhedge (descendants).
    pub subhedge: Hre,
    /// Condition on the envelope (everything else).
    pub envelope: Phr,
}

impl SelectQuery {
    /// Definition 22, executed literally. Quadratic in the hedge size.
    pub fn locate_naive(&self, h: &FlatHedge) -> Vec<NodeId> {
        h.preorder()
            .filter(|&n| {
                if !matches!(h.label(n), FlatLabel::Sym(_)) {
                    return false;
                }
                self.subhedge.matches(&h.subhedge(n))
                    && PointedHedge::new(h.envelope(n))
                        .map(|p| self.envelope.matches_pointed(&p))
                        .unwrap_or(false)
            })
            .collect()
    }

    /// Compile for repeated linear-time evaluation.
    pub fn compile(&self) -> CompiledSelect {
        CompiledSelect::new(Plan::compile(&self.envelope), &self.subhedge)
    }
}

/// The compiled form of a selection query: the envelope's plan plus the
/// subhedge condition's automaton.
pub struct CompiledSelect {
    /// The deterministic automaton for `e₁` (Theorem 3's base).
    down: Dha,
    /// The envelope condition, on either backend.
    plan: Plan,
}

/// Reusable buffers for [`CompiledSelect::locate_into`]: the mark run, the
/// envelope's evaluation, and the final match list all write into the
/// same recycled memory across documents.
#[derive(Debug, Default)]
pub struct SelectScratch {
    down: hedgex_ha::EvalScratch,
    marks: Vec<bool>,
    eval: two_pass::EvalScratch,
    located: Vec<NodeId>,
}

impl SelectScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> SelectScratch {
        SelectScratch::default()
    }

    /// The match list of the most recent [`CompiledSelect::locate_into`].
    pub fn located(&self) -> &[NodeId] {
        &self.located
    }
}

impl CompiledSelect {
    /// `select(subhedge, envelope)` for an envelope already compiled into
    /// `plan` — a PHR plan, or a path plan whose envelope is a classical
    /// path expression.
    pub fn new(plan: Plan, subhedge: &Hre) -> CompiledSelect {
        let _span = obs::span("core.query.compile");
        CompiledSelect {
            down: compile_to_dha(subhedge),
            plan,
        }
    }

    /// Locate all matches: the subhedge marks intersected with the
    /// envelope matches, in document order. Linear in the node count.
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        let mut scratch = SelectScratch::new();
        self.locate_into(h, &mut scratch);
        scratch.located
    }

    /// [`CompiledSelect::locate`] into a reused [`SelectScratch`] — the
    /// warm path for serving many documents from one compiled query.
    pub fn locate_into<'s>(&self, h: &FlatHedge, scratch: &'s mut SelectScratch) -> &'s [NodeId] {
        let _span = obs::span("core.query.locate");
        mark_run_into(&self.down, h, &mut scratch.down, &mut scratch.marks);
        let envelope = self.plan.locate_into(h, &mut scratch.eval);
        scratch.located.clear();
        scratch.located.extend(
            envelope
                .iter()
                .copied()
                .filter(|&n| scratch.marks[n as usize]),
        );
        obs::counter_add("core.query.located", scratch.located.len() as u64);
        &scratch.located
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hre::parse_hre;
    use crate::phr::parse_phr;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::{parse_hedge, Alphabet};

    fn query(e1: &str, e2: &str, ab: &mut Alphabet) -> SelectQuery {
        SelectQuery {
            subhedge: parse_hre(e1, ab).unwrap(),
            envelope: parse_phr(e2, ab).unwrap(),
        }
    }

    fn check_equiv(e1: &str, e2: &str, max_nodes: usize) {
        let mut ab = Alphabet::new();
        let q = query(e1, e2, &mut ab);
        let compiled = q.compile();
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        for h in enumerate_hedges(&syms, &vars, max_nodes) {
            let f = FlatHedge::from_hedge(&h);
            assert_eq!(
                compiled.locate(&f),
                q.locate_naive(&f),
                "select({e1}, {e2}) disagrees on {h:?}"
            );
        }
    }

    #[test]
    fn section_6_worked_example() {
        // e₁ = (b|x)*, e₂ = (ε, a, b)(b, a, ε) on b a⟨a⟨b x⟩ b⟩:
        // exactly the first second-level node of the second top-level node.
        let mut ab = Alphabet::new();
        let q = query("(b|$x)*", "[ε ; a ; b][b ; a ; ε]", &mut ab);
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(q.locate_naive(&f), vec![2]);
        assert_eq!(q.compile().locate(&f), vec![2]);
    }

    #[test]
    fn compiled_matches_naive_small_queries() {
        check_equiv("(b|$x)*", "[ε ; a ; b][b ; a ; ε]", 5);
        check_equiv("b*", "[a* ; a ; a*]", 5);
        check_equiv("ε", "[ε ; a ; ε]", 4);
    }

    #[test]
    fn compiled_matches_naive_recursive_queries() {
        check_equiv("a<%z>*^z", "[a<%z>*^z ; b ; a<%z>*^z]*", 5);
        check_equiv("(a<%z>|b<%z>)*^z", "([ε ; a ; ε]|[ε ; b ; ε])+", 5);
    }

    #[test]
    fn both_conditions_must_hold() {
        let mut ab = Alphabet::new();
        // Subhedge must be exactly one b; envelope: parent a at top level.
        let q = query("b", "[(a<%z>|b<%z>)*^z ; a ; (a<%z>|b<%z>)*^z]", &mut ab);
        let compiled = q.compile();
        for (src, expect) in [
            ("a<b>", vec![0u32]),
            ("a<b b>", vec![]), // subhedge fails
            ("b<b>", vec![]),   // envelope label fails
            ("a<a<b>>", vec![1]), // hmm: inner a at depth 2 — envelope needs
                                // exactly one base hedge, so only depth 1…
        ] {
            let h = parse_hedge(src, &mut ab).unwrap();
            let f = FlatHedge::from_hedge(&h);
            let naive = q.locate_naive(&f);
            assert_eq!(compiled.locate(&f), naive, "on {src}");
            if src != "a<a<b>>" {
                assert_eq!(naive, expect, "naive on {src}");
            }
        }
    }

    #[test]
    fn path_plans_select_like_their_embedding() {
        let mut ab = Alphabet::new();
        let f = FlatHedge::from_hedge(&parse_hedge("a<b<b> a<b $x>> b", &mut ab).unwrap());
        let path = crate::parse_path("a* b", &mut ab).unwrap();
        let subhedge = parse_hre("b*", &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let envelope = path.to_phr(&syms, &vars, ab.sub("u"));
        let naive = SelectQuery {
            subhedge: subhedge.clone(),
            envelope,
        }
        .locate_naive(&f);
        assert_eq!(naive, vec![1, 4, 6]);
        let select = CompiledSelect::new(Plan::path(&path, &ab), &subhedge);
        assert_eq!(select.locate(&f), naive);
    }

    #[test]
    fn multiple_matches_in_document_order() {
        let mut ab = Alphabet::new();
        let u = "(s<%z>|f<%z>)*^z";
        // figures (f) with empty content directly under an s whose
        // ancestors are anything.
        let q = query(
            "ε",
            &format!("[{u} ; f ; {u}][{u} ; s ; {u}]([{u} ; s ; {u}]|[{u} ; f ; {u}])*"),
            &mut ab,
        );
        let compiled = q.compile();
        let h = parse_hedge("s<f f<f> s<f>> f", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let naive = q.locate_naive(&f);
        assert_eq!(compiled.locate(&f), naive);
        // f(1) under s(0) ✓; f(3) under f(2) ✗ (parent chain f-s ok? parent
        // of 3 is f(2): second base hedge must be labelled s → reject);
        // f(5) under s(4) under s(0) ✓; top-level f(6) has no parent ✗.
        assert_eq!(naive, vec![1, 5]);
    }
}
